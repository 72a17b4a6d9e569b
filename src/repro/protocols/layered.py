"""Layered FEC: an FEC layer *below* a retransmitting RM layer (Section 3.1).

The sending FEC layer turns every transmission group into an FEC block of
``k`` data + ``h`` parity packets and transmits all ``n`` unconditionally.
The receiving FEC layer hands decoded originals up; whatever remains
unrecoverable is NAKed by the RM layer and retransmitted *as original data
inside new FEC blocks* — the defining difference from integrated FEC, where
retransmissions are parities.

Block composition bookkeeping: a retransmission block mixes originals from
different groups, so receivers must learn which original each block slot
carries.  Data packets carry their own identity; parity packets carry the
whole block's composition (mirroring a real header layout).  A receiver
that lost a data packet *and* every parity cannot name the lost original —
it NAKs the missing block *slots* and the sender resolves them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.fec.block import slice_stream
from repro.fec.code import ErasureCode
from repro.fec.rse import RSECodec
from repro.protocols.feedback import NakSlotter
from repro.protocols.np_protocol import NPConfig, ReceiverStats, SenderStats
from repro.protocols.packets import (
    Poll,
    _AutoControlChecksum,
    checksum_of,
    control_intact,
    payload_intact,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import MulticastNetwork

__all__ = ["LayeredSender", "LayeredReceiver", "BlockData", "BlockParity", "SlotNak"]

#: Identity of an original data packet: (transmission group, index).
OrigId = tuple[int, int]


@dataclass(frozen=True)
class BlockData:
    """Data slot of an FEC block; ``orig`` is None for padding slots."""

    block: int
    slot: int
    orig: OrigId | None
    payload: bytes = b""
    checksum: int | None = None


@dataclass(frozen=True)
class BlockParity:
    """Parity slot; carries the block's slot->original composition."""

    block: int
    slot: int
    composition: tuple[OrigId | None, ...]
    payload: bytes = b""
    checksum: int | None = None


@dataclass(frozen=True)
class SlotNak(_AutoControlChecksum):
    """RM-layer NAK naming the block slots still needed."""

    block: int
    slots: tuple[int, ...]
    round: int
    checksum: int | None = None

    @property
    def needed(self) -> int:
        return len(self.slots)


class LayeredSender:
    """FEC-below-RM sender."""

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        data: bytes,
        config: NPConfig = NPConfig(),
        codec: ErasureCode | None = None,
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.codec = codec if codec is not None else RSECodec(config.k, config.h)
        self.groups = slice_stream(data, config.packet_size, config.k)
        self.stats = SenderStats()
        network.attach_sender(self.on_feedback)

        self._queue: deque = deque()
        self._blocks: dict[int, list[tuple[OrigId | None, bytes]]] = {}
        self._next_block = 0
        self._rounds: dict[int, int] = {}
        self._retrans_pool: deque[OrigId] = deque()
        self._pooled: set[OrigId] = set()
        self._pump_handle: EventHandle | None = None
        self._next_tx_time = 0.0
        self._padding = b"\x00" * config.packet_size

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def total_data_packets(self) -> int:
        return self.n_groups * self.config.k

    def start(self) -> None:
        if self.config.interleave_depth <= 1:
            for tg, group in enumerate(self.groups):
                slots = [((tg, i), payload) for i, payload in enumerate(group)]
                self._enqueue_block(slots)
        else:
            self._start_interleaved(self.config.interleave_depth)
        self._arm_pump()

    def _start_interleaved(self, depth: int) -> None:
        """Initial transmission with depth-``depth`` block interleaving.

        Section 4.2's burst counter-measure: packets of ``depth``
        consecutive FEC blocks are emitted column-major, so a loss burst
        of up to ``depth`` packets hits each block at most once.  Polls
        for the batch follow the batch.  Retransmission blocks (rare)
        stay sequential.
        """
        from repro.fec.interleaver import interleave_indices

        for start in range(0, len(self.groups), depth):
            batch = self.groups[start: start + depth]
            batch_items: list[tuple] = []
            polls: list[tuple] = []
            for offset, group in enumerate(batch):
                tg = start + offset
                slots = [((tg, i), payload) for i, payload in enumerate(group)]
                block_id, items, poll = self._frame_block(slots)
                batch_items.append(items)
                polls.append(poll)
            block_length = self.config.k + self.config.h
            if len(batch_items) == depth:
                order = interleave_indices(block_length, depth)
                flat = [item for items in batch_items for item in items]
                for position in order:
                    self._queue.append(flat[position])
            else:  # tail batch: sequential
                for items in batch_items:
                    self._queue.extend(items)
            self._queue.extend(polls)

    @property
    def idle(self) -> bool:
        return not self._queue

    # ------------------------------------------------------------------
    def _frame_block(
        self, slots: list[tuple[OrigId | None, bytes]]
    ) -> tuple[int, list[tuple], tuple]:
        """Frame ``slots`` (padded to k) as a block; returns
        ``(block_id, packet items, poll item)`` without queueing."""
        config = self.config
        while len(slots) < config.k:
            slots.append((None, self._padding))
        block_id = self._next_block
        self._next_block += 1
        self._blocks[block_id] = slots
        self._rounds[block_id] = 1
        composition = tuple(orig for orig, _ in slots)
        parities = self.codec.encode([payload for _, payload in slots])
        self.stats.parities_encoded += config.h
        items: list[tuple] = [
            ("data", BlockData(block_id, slot, orig, payload, checksum_of(payload)))
            for slot, (orig, payload) in enumerate(slots)
        ]
        items.extend(
            (
                "parity",
                BlockParity(
                    block_id, config.k + j, composition, payload,
                    checksum_of(payload),
                ),
            )
            for j, payload in enumerate(parities)
        )
        poll = ("poll", block_id, config.k + config.h, 1)
        return block_id, items, poll

    def _enqueue_block(self, slots: list[tuple[OrigId | None, bytes]]) -> None:
        """Frame ``slots`` as a block and queue it followed by its poll."""
        _, items, poll = self._frame_block(slots)
        self._queue.extend(items)
        self._queue.append(poll)

    def _arm_pump(self) -> None:
        if self._pump_handle is not None or self.idle:
            return
        delay = max(0.0, self._next_tx_time - self.sim.now)
        self._pump_handle = self.sim.schedule(delay, self._pump)

    def _pump(self) -> None:
        self._pump_handle = None
        while self._queue:
            kind = self._queue[0][0]
            if kind == "poll":
                _, block_id, sent, round_index = self._queue.popleft()
                self.network.multicast_control(Poll(block_id, sent, round_index), kind="poll")
                self.stats.polls_sent += 1
                continue
            kind, packet = self._queue.popleft()
            self.network.multicast(packet, kind=kind)
            if kind == "data":
                if packet.orig is not None and packet.block == packet.orig[0]:
                    self.stats.data_sent += 1
                else:
                    self.stats.retransmissions_sent += 1
            else:
                self.stats.parity_sent += 1
            self._next_tx_time = self.sim.now + self.config.packet_interval
            self._arm_pump()
            return

    # ------------------------------------------------------------------
    def on_feedback(self, packet) -> None:
        if not isinstance(packet, SlotNak):
            return
        if not control_intact(packet):
            # untrustworthy slot list: drop, don't resolve wrong originals
            self.stats.control_corrupt_discarded += 1
            return
        self.stats.naks_received += 1
        block_id = packet.block
        slots = self._blocks.get(block_id)
        if slots is None or not packet.slots:
            return
        current = self._rounds.get(block_id, 1)
        if packet.round != current:
            # Stale feedback after a suppression miss: the served round may
            # not have covered this receiver's originals.  Re-poll so it can
            # restate its need under the current round number.
            self.stats.naks_stale += 1
            if not any(
                item[0] == "poll" and item[1] == block_id for item in self._queue
            ):
                self._queue.append(("poll", block_id, 0, current))
                self._arm_pump()
            return
        self._rounds[block_id] = current + 1
        added = False
        for slot in packet.slots:
            if not 0 <= slot < self.config.k:
                continue  # parities are never retransmitted in layered FEC
            orig, _payload = slots[slot]
            if orig is None or orig in self._pooled:
                continue
            self._retrans_pool.append(orig)
            self._pooled.add(orig)
            added = True
        if added:
            self.stats.rounds_served += 1
            self._flush_pool()
        self._arm_pump()

    def _flush_pool(self) -> None:
        """Drain the retransmission pool into fresh FEC blocks."""
        while self._retrans_pool:
            slots: list[tuple[OrigId | None, bytes]] = []
            while self._retrans_pool and len(slots) < self.config.k:
                orig = self._retrans_pool.popleft()
                self._pooled.discard(orig)
                slots.append((orig, self.groups[orig[0]][orig[1]]))
            self._enqueue_block(slots)


class LayeredReceiver:
    """FEC-below-RM receiver."""

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        n_groups: int,
        config: NPConfig = NPConfig(),
        codec: ErasureCode | None = None,
        rng: np.random.Generator | None = None,
        on_complete=None,
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.n_groups = n_groups
        self.codec = codec if codec is not None else RSECodec(config.k, config.h)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.on_complete = on_complete
        self.stats = ReceiverStats()
        self.slotter = NakSlotter(sim, self.rng, config.slot_time)
        self.receiver_id = network.attach_receiver(self.on_packet)

        self._store: dict[OrigId, bytes] = {}
        self._needed = n_groups * config.k
        # per block: slot -> payload, plus (partial) composition knowledge
        self._block_rx: dict[int, dict[int, bytes]] = {}
        self._block_comp: dict[int, dict[int, OrigId | None]] = {}
        self._decoded_blocks: set[int] = set()

    @property
    def complete(self) -> bool:
        return len(self._store) >= self._needed

    def delivered_data(self, total_length: int | None = None) -> bytes:
        if not self.complete:
            raise RuntimeError(
                f"transfer incomplete: {len(self._store)}/{self._needed} packets"
            )
        blob = b"".join(
            self._store[(tg, i)]
            for tg in range(self.n_groups)
            for i in range(self.config.k)
        )
        return blob if total_length is None else blob[:total_length]

    # ------------------------------------------------------------------
    def on_packet(self, packet) -> None:
        if isinstance(packet, BlockData):
            if not self._intact(packet):
                # headers survive (payload-only corruption model): keep the
                # composition knowledge, drop the damaged payload
                self._learn(packet.block, packet.slot, packet.orig)
                return
            self._on_block_packet(packet.block, packet.slot, packet.payload)
            self._learn(packet.block, packet.slot, packet.orig)
            if packet.orig is not None:
                self._deliver(packet.orig, packet.payload)
        elif isinstance(packet, BlockParity):
            if not self._intact(packet):
                for slot, orig in enumerate(packet.composition):
                    self._learn(packet.block, slot, orig)
                self._try_decode(packet.block)
                return
            self._on_block_packet(packet.block, packet.slot, packet.payload)
            for slot, orig in enumerate(packet.composition):
                self._learn(packet.block, slot, orig)
            self._try_decode(packet.block)
        elif isinstance(packet, (Poll, SlotNak)) and not control_intact(
            packet
        ):
            # corrupt control: fields are untrustworthy, drop outright
            self.stats.control_corrupt_discarded += 1
        elif isinstance(packet, Poll):
            self._on_poll(packet)
        elif isinstance(packet, SlotNak):
            own = set(self._nak_slots(packet.block))
            if own and own.issubset(packet.slots):
                self.slotter.suppress(packet.block, packet.round)

    def _intact(self, packet) -> bool:
        if payload_intact(packet):
            return True
        self.stats.packets_received += 1
        self.stats.corrupt_discarded += 1
        return False

    def _on_block_packet(self, block: int, slot: int, payload: bytes) -> None:
        self.stats.packets_received += 1
        if block in self._decoded_blocks:
            self.stats.duplicates += 1
            return
        received = self._block_rx.setdefault(block, {})
        if slot in received:
            self.stats.duplicates += 1
            return
        received[slot] = payload
        self.stats.last_progress_time = self.sim.now
        self._try_decode(block)

    def _learn(self, block: int, slot: int, orig: OrigId | None) -> None:
        self._block_comp.setdefault(block, {})[slot] = orig

    def _deliver(self, orig: OrigId, payload: bytes) -> None:
        if orig in self._store:
            return
        self._store[orig] = payload
        if self.complete:
            self.stats.completion_time = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self.receiver_id)

    def _try_decode(self, block: int) -> None:
        if block in self._decoded_blocks:
            return
        received = self._block_rx.get(block, {})
        if len(received) < self.config.k:
            return
        composition = self._block_comp.get(block, {})
        # decoding needs the identity of every data slot we are recovering;
        # any parity packet provides it, and the all-data case is direct
        missing_data = [s for s in range(self.config.k) if s not in received]
        if any(s not in composition for s in missing_data):
            return
        if not self.codec.decodable_from(received):
            # non-MDS codecs can hold >= k packets in an unrecoverable
            # pattern; keep NAKing the missing data slots instead of crashing
            return
        decoded = self.codec.decode(dict(received))
        self._decoded_blocks.add(block)
        self.stats.groups_decoded += 1
        self.stats.packets_reconstructed += len(missing_data)
        for slot in range(self.config.k):
            orig = composition.get(slot)
            if orig is not None:
                self._deliver(orig, decoded[slot])
        self._block_rx.pop(block, None)
        self.slotter.cancel_group(block)

    def missing_groups(self) -> tuple[int, ...]:
        """Groups with at least one undelivered original (diagnostics)."""
        return tuple(
            sorted(
                {
                    tg
                    for tg in range(self.n_groups)
                    for i in range(self.config.k)
                    if (tg, i) not in self._store
                }
            )
        )

    # ------------------------------------------------------------------
    # crash/restart (fault-injection hooks)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose undecoded block buffers and composition knowledge.

        Delivered originals persist; recovery of anything else depends on
        polls and blocks still in flight (the layered RM layer has no
        spontaneous re-solicitation).
        """
        self.stats.crashes += 1
        self._block_rx.clear()
        self._block_comp.clear()
        self.slotter.cancel_all()

    def rejoin(self) -> None:
        """Layered RM has no watchdog: a rejoining receiver waits for polls."""

    # ------------------------------------------------------------------
    def _nak_slots(self, block: int) -> tuple[int, ...]:
        """Data slots of ``block`` this receiver still has a stake in."""
        if block in self._decoded_blocks:
            return ()
        received = self._block_rx.get(block, {})
        composition = self._block_comp.get(block, {})
        slots = []
        for slot in range(self.config.k):
            if slot in received:
                continue
            orig = composition.get(slot, "unknown")
            if orig is None:  # known padding
                continue
            if orig != "unknown" and orig in self._store:
                continue  # already recovered via another block
            slots.append(slot)
        return tuple(slots)

    def _on_poll(self, poll: Poll) -> None:
        self.stats.polls_received += 1
        block = poll.tg  # Poll.tg doubles as the block id in layered mode
        slots = self._nak_slots(block)
        if not slots:
            return

        def fire(block=block, round_index=poll.round) -> None:
            current = self._nak_slots(block)
            if current:
                self.network.multicast_feedback(
                    SlotNak(block, current, round_index),
                    origin=self.receiver_id,
                )

        self.slotter.schedule(block, poll.round, poll.sent, len(slots), fire)
