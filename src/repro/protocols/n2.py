"""Protocol N2 — the non-FEC baseline (Towsley, Kurose, Pingali '97).

A receiver-initiated NAK protocol with multicast NAKs and suppression, as
the paper's Section 5 comparison partner: lost *original* packets are
retransmitted verbatim (no parities), and feedback is *per packet* — a NAK
names the sequence numbers it is missing.

To make the head-to-head with NP clean, this implementation mirrors NP's
structure exactly where the paper allows: the same transmission-group
framing, the same poll-per-round pacing, the same slotting-and-damping
suppression (keyed on the number of missing packets).  The differences are
precisely the two the paper attributes to NP — parity repair vs original
retransmission, and per-TG count feedback vs per-packet sequence feedback.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.fec.block import slice_stream
from repro.protocols.feedback import NakSlotter
from repro.protocols.np_protocol import NPConfig, ReceiverStats, SenderStats
from repro.protocols.packets import (
    DataPacket,
    Poll,
    Retransmission,
    SelectiveNak,
    checksum_of,
    control_intact,
    payload_intact,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import MulticastNetwork

__all__ = ["N2Sender", "N2Receiver"]


class N2Sender:
    """Sender state machine for the no-FEC baseline.

    Reuses :class:`repro.protocols.np_protocol.NPConfig` for the shared
    knobs (``k``, timing, slotting); ``h``, ``pre_encode`` and the
    exhaustion policy are ignored — there are no parities here.
    """

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        data: bytes,
        config: NPConfig = NPConfig(),
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.groups = slice_stream(data, config.packet_size, config.k)
        self.stats = SenderStats()
        network.attach_sender(self.on_feedback)

        self._repair_queue: deque = deque()
        self._data_queue: deque = deque()
        self._rounds: dict[int, int] = {}
        # indices already queued for retransmission in the current round,
        # so overlapping NAKs from a suppression miss don't double-send
        self._queued_repairs: dict[int, set[int]] = {}
        self._pump_handle: EventHandle | None = None
        self._next_tx_time = 0.0

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def total_data_packets(self) -> int:
        return self.n_groups * self.config.k

    def start(self) -> None:
        for tg in range(self.n_groups):
            for index in range(self.config.k):
                self._data_queue.append(("data", tg, index))
            self._rounds[tg] = 1
            self._data_queue.append(("poll", tg, self.config.k, 1))
            self._queued_repairs[tg] = set()
        self._arm_pump()

    @property
    def idle(self) -> bool:
        return not self._repair_queue and not self._data_queue

    # ------------------------------------------------------------------
    def _arm_pump(self) -> None:
        if self._pump_handle is not None or self.idle:
            return
        delay = max(0.0, self._next_tx_time - self.sim.now)
        self._pump_handle = self.sim.schedule(delay, self._pump)

    def _pump(self) -> None:
        self._pump_handle = None
        sent_payload = False
        while not sent_payload:
            if self._repair_queue:
                item = self._repair_queue.popleft()
            elif self._data_queue:
                item = self._data_queue.popleft()
            else:
                return
            kind = item[0]
            if kind == "poll":
                _, tg, sent, round_index = item
                self.network.multicast_control(Poll(tg, sent, round_index), kind="poll")
                self.stats.polls_sent += 1
                self._queued_repairs[tg] = set()
                continue
            if kind == "data":
                _, tg, index = item
                payload = self.groups[tg][index]
                self.network.multicast(
                    DataPacket(tg, index, payload, 0, checksum_of(payload)),
                    kind="data",
                )
                self.stats.data_sent += 1
            else:  # retransmission
                _, tg, index = item
                payload = self.groups[tg][index]
                self.network.multicast(
                    Retransmission(tg, index, payload, checksum_of(payload)),
                    kind="retransmission",
                )
                self.stats.retransmissions_sent += 1
            sent_payload = True
        self._next_tx_time = self.sim.now + self.config.packet_interval
        self._arm_pump()

    # ------------------------------------------------------------------
    def on_feedback(self, packet) -> None:
        if not isinstance(packet, SelectiveNak):
            return
        if not control_intact(packet):
            # untrustworthy sequence numbers: drop, don't retransmit wrongly
            self.stats.control_corrupt_discarded += 1
            return
        self.stats.naks_received += 1
        tg = packet.tg
        if tg < 0 or tg >= self.n_groups or not packet.missing:
            return
        current = self._rounds.get(tg, 1)
        if packet.round != current:
            self.stats.naks_stale += 1
            if not any(item[1] == tg for item in self._repair_queue):
                self._repair_queue.append(("poll", tg, 0, current))
                self._arm_pump()
            return
        fresh = [
            index
            for index in packet.missing
            if 0 <= index < self.config.k
            and index not in self._queued_repairs[tg]
        ]
        if not fresh:
            return
        self._queued_repairs[tg].update(fresh)
        for index in fresh:
            self._repair_queue.append(("retransmission", tg, index))
        self._rounds[tg] = current + 1
        self._repair_queue.append(("poll", tg, len(fresh), current + 1))
        self.stats.rounds_served += 1
        self._arm_pump()


class N2Receiver:
    """Receiver state machine for the no-FEC baseline."""

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        n_groups: int,
        config: NPConfig = NPConfig(),
        rng: np.random.Generator | None = None,
        on_complete=None,
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.n_groups = n_groups
        self.rng = rng if rng is not None else np.random.default_rng()
        self.on_complete = on_complete
        self.stats = ReceiverStats()
        self.slotter = NakSlotter(sim, self.rng, config.slot_time)
        self.receiver_id = network.attach_receiver(self.on_packet)
        self._received: dict[int, dict[int, bytes]] = {}
        self._complete_groups: set[int] = set()

    @property
    def complete(self) -> bool:
        return len(self._complete_groups) == self.n_groups

    def delivered_data(self, total_length: int | None = None) -> bytes:
        if not self.complete:
            missing = sorted(set(range(self.n_groups)) - self._complete_groups)
            raise RuntimeError(f"transfer incomplete; missing groups {missing}")
        blob = b"".join(
            self._received[tg][i]
            for tg in range(self.n_groups)
            for i in range(self.config.k)
        )
        return blob if total_length is None else blob[:total_length]

    def _group(self, tg: int) -> dict[int, bytes]:
        return self._received.setdefault(tg, {})

    # ------------------------------------------------------------------
    def on_packet(self, packet) -> None:
        if isinstance(packet, (DataPacket, Retransmission)):
            if not payload_intact(packet):
                # corruption detected via checksum: demote to an erasure
                self.stats.packets_received += 1
                self.stats.corrupt_discarded += 1
                return
            self._on_payload(packet.tg, packet.index, packet.payload)
        elif isinstance(packet, (Poll, SelectiveNak)) and not control_intact(
            packet
        ):
            # corrupt control: fields are untrustworthy, drop outright
            self.stats.control_corrupt_discarded += 1
        elif isinstance(packet, Poll):
            self._on_poll(packet)
        elif isinstance(packet, SelectiveNak):
            # suppression: only if the overheard request covers every packet
            # we are missing (count comparison is not sound for N2)
            own = set(self._missing_indices(packet.tg))
            if own and own.issubset(packet.missing):
                self.slotter.suppress(packet.tg, packet.round)

    def _on_payload(self, tg: int, index: int, payload: bytes) -> None:
        self.stats.packets_received += 1
        group = self._group(tg)
        if index in group:
            self.stats.duplicates += 1
            return
        group[index] = payload
        self.stats.last_progress_time = self.sim.now
        if len(group) == self.config.k and tg not in self._complete_groups:
            self._complete_groups.add(tg)
            self.stats.groups_decoded += 1
            self.slotter.cancel_group(tg)
            if self.complete:
                self.stats.completion_time = self.sim.now
                if self.on_complete is not None:
                    self.on_complete(self.receiver_id)

    def _missing_indices(self, tg: int) -> tuple[int, ...]:
        group = self._group(tg)
        return tuple(i for i in range(self.config.k) if i not in group)

    def missing_groups(self) -> tuple[int, ...]:
        """Groups not yet completely received (stall diagnostics)."""
        return tuple(
            sorted(set(range(self.n_groups)) - self._complete_groups)
        )

    # ------------------------------------------------------------------
    # crash/restart (fault-injection hooks)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose partial group buffers and pending timers (process death).

        Completed groups persist (handed to the application); partially
        received ones are wiped — N2 has no spontaneous re-solicitation,
        so recovery depends on polls still in flight.
        """
        self.stats.crashes += 1
        for tg in list(self._received):
            if tg not in self._complete_groups:
                del self._received[tg]
        self.slotter.cancel_all()

    def rejoin(self) -> None:
        """N2 has no watchdog: a rejoining receiver waits for polls."""

    def _on_poll(self, poll: Poll) -> None:
        self.stats.polls_received += 1
        tg = poll.tg
        if tg in self._complete_groups:
            return
        missing = self._missing_indices(tg)
        if not missing:
            return

        def fire(tg=tg, round_index=poll.round) -> None:
            current = self._missing_indices(tg)
            if current:
                self.network.multicast_feedback(
                    SelectiveNak(tg, current, round_index),
                    origin=self.receiver_id,
                )

        self.slotter.schedule(tg, poll.round, poll.sent, len(missing), fire)
