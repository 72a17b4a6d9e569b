"""Protocol NP — reliable multicast with parity retransmission (Section 5.1).

The paper's hybrid-ARQ protocol on :class:`repro.sim.MulticastNetwork`:

* The sender streams the ``k`` data packets of each transmission group at
  ``Delta`` spacing, follows each group with ``POLL(i, k)`` and moves on to
  the next group.
* A receiver answering ``POLL(i, s)`` while still ``l`` packets short
  schedules ``NAK(i, l)`` in slot ``s - l`` (needier receivers answer
  first) and suppresses it if it overhears a NAK asking for at least as
  much — :class:`repro.protocols.feedback.NakSlotter`.
* On ``NAK(i, l)`` the sender *interrupts* the group it is currently
  sending, multicasts ``l`` fresh parities for group ``i`` followed by
  ``POLL(i, l)``, then resumes — parity repair packets benefit every
  receiver missing *any* packet of the group, which is the paper's central
  efficiency argument.
* A receiver reconstructs a group as soon as it holds any ``k`` of its
  packets (systematic RSE decode, cost proportional to losses).

The sender's rounds live in :class:`~repro.protocols.np_machine.NPRepairMachine`,
the machine the socket sender (:class:`~repro.net.session.SenderSession`)
runs too; :class:`NPSender` is its simulator driver.

Deviations from the paper, all documented in DESIGN.md: when the ``h``
available parities are exhausted the sender falls back to cycling the
original data packets (the paper assumes ``h`` large enough), an optional
round cap abandons a group (the paper's "receivers requiring more can be
ejected"), and an optional watchdog timer re-sends NAKs to survive
feedback loss (the paper assumes lossless feedback).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fec.block import BlockDecoder, BlockEncoder
from repro.fec.code import ErasureCode
from repro.fec.rse import RSECodec
from repro.protocols.feedback import NakSlotter
from repro.protocols.np_machine import NPRepairMachine
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    Nak,
    ParityPacket,
    Poll,
    control_intact,
    payload_intact,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.network import MulticastNetwork

__all__ = ["NPConfig", "NPSender", "NPReceiver"]


@dataclass(frozen=True)
class NPConfig:
    """Protocol parameters.

    ``k``/``h`` are the TG size and per-group parity budget; the paper's
    appendix assumes ``h`` large enough that the sender never runs out.
    Otherwise the sender cycles the original data packets (each pass a
    new "generation" of the group).  ``packet_interval`` is the paper's
    ``Delta``, ``slot_time`` the NAK slot ``Ts``.

    Robustness knobs (the paper assumes lossless feedback and unlimited
    patience; these bound what happens without either):

    ``nak_watchdog`` (seconds, 0 disables) re-sends an unanswered NAK.
    Each consecutive retry for a group backs off exponentially by
    ``watchdog_backoff`` with ``watchdog_jitter`` randomisation (a fraction
    of the interval, desynchronising receivers), capped at
    ``watchdog_max_interval`` (0 means ``16 * nak_watchdog``); any sign of
    life for the group resets the schedule.  After
    ``watchdog_retry_limit`` consecutive unanswered retries (0 = unlimited)
    the receiver goes quiet and the stall is diagnosed by the harness.

    ``max_rounds`` (0 = unlimited) caps the repair rounds the sender grants
    any one group.  On exceedance the sender abandons the group — it
    multicasts :class:`~repro.protocols.packets.GroupAbort` and the harness
    ejects the receivers that still needed it (the paper's own fallback),
    reporting partial delivery.
    """

    k: int = 7
    h: int = 32
    packet_size: int = 1024
    packet_interval: float = 0.040
    slot_time: float = 0.050
    nak_watchdog: float = 0.0
    pre_encode: bool = False
    interleave_depth: int = 1
    watchdog_backoff: float = 2.0
    watchdog_jitter: float = 0.1
    watchdog_max_interval: float = 0.0
    watchdog_retry_limit: int = 30
    max_rounds: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.h < 0:
            raise ValueError(f"h must be >= 0, got {self.h}")
        if self.packet_interval <= 0:
            raise ValueError("packet_interval must be positive")
        if self.interleave_depth < 1:
            raise ValueError("interleave_depth must be >= 1")
        if self.watchdog_backoff < 1.0:
            raise ValueError(
                f"watchdog_backoff must be >= 1, got {self.watchdog_backoff}"
            )
        if self.watchdog_jitter < 0:
            raise ValueError(
                f"watchdog_jitter must be >= 0, got {self.watchdog_jitter}"
            )
        if self.watchdog_max_interval < 0:
            raise ValueError("watchdog_max_interval must be >= 0")
        if self.watchdog_retry_limit < 0:
            raise ValueError("watchdog_retry_limit must be >= 0")
        if self.max_rounds < 0:
            raise ValueError(f"max_rounds must be >= 0, got {self.max_rounds}")


@dataclass
class SenderStats:
    """Sender-side accounting used for E[M] and throughput metrics."""

    data_sent: int = 0
    parity_sent: int = 0
    retransmissions_sent: int = 0
    polls_sent: int = 0
    naks_received: int = 0
    naks_stale: int = 0
    rounds_served: int = 0
    parities_encoded: int = 0
    groups_abandoned: int = 0
    #: control packets (NAKs) dropped for a failed control checksum
    control_corrupt_discarded: int = 0

    @property
    def total_payload_sent(self) -> int:
        return self.data_sent + self.parity_sent + self.retransmissions_sent


class NPSender:
    """Protocol NP's sender on the simulator: a driver of the repair machine.

    The machine (:class:`~repro.protocols.np_machine.NPRepairMachine`)
    decides every frame; this driver runs it on the simulated clock with
    an aggregation window of 0, wakes it right after each NAK, and pumps
    its frames at ``packet_interval`` spacing — polls go out without
    taking a transmission slot.
    """

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
        self.encoder = BlockEncoder(
            data,
            config.k,
            config.h,
            config.packet_size,
            codec=self.codec,
            pre_encode=config.pre_encode,
        )
        self.machine = NPRepairMachine(
            self.encoder,
            config.max_rounds,
            window=0.0,
            tell=lambda packet: network.multicast_control(packet, kind="abort"),
            stamp=True,
            proactive=self._proactive,
        )
        self._stats = SenderStats()
        network.attach_sender(self.on_feedback)
        self._pump_handle: EventHandle | None = None
        self._next_tx_time = 0.0

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.encoder)

    @property
    def total_data_packets(self) -> int:
        return self.n_groups * self.config.k

    @property
    def stats(self) -> SenderStats:
        """The driver's frame tallies plus the machine's round counters."""
        stats, machine = self._stats, self.machine
        stats.naks_received = machine.naks_received
        stats.naks_stale = machine.stale_naks
        stats.rounds_served = machine.rounds_served
        stats.groups_abandoned = len(machine.abandoned_groups)
        return stats

    @property
    def abandoned_groups(self) -> tuple[int, ...]:
        """Groups given up under the ``max_rounds`` cap."""
        return self.machine.abandoned_groups

    def start(self) -> None:
        """Begin pumping the stream."""
        self._arm_pump()

    def _proactive(self, available: int) -> int:
        """Hook: parities to stream with the next group's data (none)."""
        return 0

    # ------------------------------------------------------------------
    # transmit pipeline
    # ------------------------------------------------------------------
    def _arm_pump(self) -> None:
        if self._pump_handle is not None or not self.machine.has_frame:
            return
        delay = max(0.0, self._next_tx_time - self.sim.now)
        self._pump_handle = self.sim.schedule(delay, self._pump)

    def _pump(self) -> None:
        self._pump_handle = None
        stats, network = self._stats, self.network
        while True:
            packet = self.machine.pop()
            if packet is None:
                return
            kind = type(packet)
            if kind is Poll:
                network.multicast_control(packet, kind="poll")
                stats.polls_sent += 1
                self._on_poll_sent(packet.tg, packet.sent, packet.round)
                continue  # polls don't occupy a transmission slot
            if kind is ParityPacket:
                network.multicast(packet, kind="parity")
                stats.parity_sent += 1
            elif packet.generation == 0:
                network.multicast(packet, kind="data")
                stats.data_sent += 1
            else:
                network.multicast(packet, kind="retransmission")
                stats.retransmissions_sent += 1
            break
        self._next_tx_time = self.sim.now + self.config.packet_interval
        self._arm_pump()

    def _on_poll_sent(self, tg: int, sent: int, round_index: int) -> None:
        """Hook: a POLL just went out (subclasses observe feedback timing)."""

    # ------------------------------------------------------------------
    # feedback handling
    # ------------------------------------------------------------------
    def on_feedback(self, packet) -> None:
        if not isinstance(packet, Nak):
            return
        if not control_intact(packet):
            # a corrupted NAK must be dropped, not acted on: its tg/needed
            # fields are untrustworthy (the watchdog keeps the real
            # solicitation alive)
            self._stats.control_corrupt_discarded += 1
            return
        now = self.sim.now
        self.machine.on_nak(packet.tg, packet.needed, packet.round, now)
        self.machine.wake(now)
        self._arm_pump()


@dataclass
class ReceiverStats:
    """Receiver-side accounting.

    ``peak_buffered_groups`` / ``peak_buffered_packets`` quantify the
    appendix's "the buffer at the receivers is sufficient" assumption: the
    most simultaneously-undecoded groups a receiver held, and the most
    packets buffered for them at that moment.
    """

    packets_received: int = 0
    duplicates: int = 0
    groups_decoded: int = 0
    packets_reconstructed: int = 0
    polls_received: int = 0
    completion_time: float | None = None
    peak_buffered_groups: int = 0
    peak_buffered_packets: int = 0
    #: corrupted packets detected by checksum and demoted to erasures
    corrupt_discarded: int = 0
    #: NAK-watchdog retries fired (all groups; the backoff schedule is
    #: observable via ``watchdog_backoff_peak``)
    watchdog_retries: int = 0
    #: groups whose watchdog retry budget ran dry (receiver went quiet)
    watchdog_exhaustions: int = 0
    #: largest backoff interval any watchdog reached (seconds)
    watchdog_backoff_peak: float = 0.0
    #: crash/restart cycles this receiver went through
    crashes: int = 0
    #: groups the sender abandoned under its round cap
    groups_failed: int = 0
    #: control packets (polls, overheard NAKs, aborts) dropped for a
    #: failed control checksum
    control_corrupt_discarded: int = 0
    #: simulated time of the last accepted (new, intact) payload packet
    last_progress_time: float = 0.0


class NPReceiver:
    """Receiver state machine for protocol NP."""

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

        self._decoders: dict[int, BlockDecoder] = {}
        #: packets held across every open decoder (the running sum behind
        #: ``stats.peak_buffered_packets``)
        self._buffered_packets = 0
        self._delivered: dict[int, list[bytes]] = {}
        self._watchdogs: dict[int, EventHandle] = {}
        self._watchdog_retries: dict[int, int] = {}
        self._last_round: dict[int, int] = {}
        #: groups the sender declared dead (GroupAbort); never delivered
        self._failed: set[int] = set()

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return len(self._delivered) == self.n_groups

    @property
    def finished(self) -> bool:
        """Every group is either delivered or sender-abandoned."""
        return len(self._delivered) + len(self._failed) >= self.n_groups

    def missing_groups(self) -> tuple[int, ...]:
        """Groups not delivered (including sender-abandoned ones)."""
        return tuple(sorted(set(range(self.n_groups)) - set(self._delivered)))

    def failed_groups(self) -> tuple[int, ...]:
        """Groups the sender abandoned under its round cap."""
        return tuple(sorted(self._failed))

    def delivered_data(self, total_length: int | None = None) -> bytes:
        """Reassembled byte stream (requires :attr:`complete`)."""
        if not self.complete:
            missing = sorted(set(range(self.n_groups)) - set(self._delivered))
            raise RuntimeError(f"transfer incomplete; missing groups {missing}")
        blob = b"".join(
            packet
            for tg in range(self.n_groups)
            for packet in self._delivered[tg]
        )
        return blob if total_length is None else blob[:total_length]

    def _decoder_for(self, tg: int) -> BlockDecoder:
        decoder = self._decoders.get(tg)
        if decoder is None:
            decoder = BlockDecoder(self.config.k, self.codec)
            self._decoders[tg] = decoder
        return decoder

    # ------------------------------------------------------------------
    # packet handling
    # ------------------------------------------------------------------
    def on_packet(self, packet) -> None:
        if isinstance(packet, (DataPacket, ParityPacket)):
            self._on_payload(packet)
        elif isinstance(packet, (Poll, Nak, GroupAbort)):
            # control packets carry no payload to demote to an erasure: a
            # failed control checksum means the fields cannot be trusted
            # (acting on a corrupt GroupAbort would kill a healthy group),
            # so the packet is dropped outright
            if not control_intact(packet):
                self.stats.control_corrupt_discarded += 1
                return
            if isinstance(packet, Poll):
                self._on_poll(packet)
            elif isinstance(packet, Nak):
                self.slotter.overheard(packet.tg, packet.round, packet.needed)
            else:
                self._on_abort(packet)

    def _on_payload(self, packet) -> None:
        self.stats.packets_received += 1
        tg = packet.tg
        if not payload_intact(packet):
            # detected corruption is demoted to an erasure: drop the packet
            # but keep the group's solicitation alive (the sender clearly
            # is; the missing count is unchanged)
            self.stats.corrupt_discarded += 1
            if tg not in self._delivered and tg not in self._failed:
                self._arm_watchdog(
                    tg,
                    self._decoder_for(tg).missing,
                    self._last_round.get(tg, 1),
                )
            return
        self._feed_watchdog(tg)
        if tg in self._failed:
            return  # group was ejected; late repairs are void
        if tg in self._delivered:
            self.stats.duplicates += 1
            return
        decoder = self._decoder_for(tg)
        before = len(decoder.received)
        decodable = decoder.add(packet.index, packet.payload)
        if len(decoder.received) == before:
            self.stats.duplicates += 1
        else:
            self.stats.last_progress_time = self.sim.now
            self._buffered_packets += 1
        if not decodable:
            # the group is known-incomplete: if the coming poll gets lost
            # (lossy control plane) this timer keeps us live by NAKing
            # spontaneously; any later packet or poll re-feeds it
            self._arm_watchdog(tg, decoder.missing, self._last_round.get(tg, 1))
            self.stats.peak_buffered_groups = max(
                self.stats.peak_buffered_groups, len(self._decoders)
            )
            self.stats.peak_buffered_packets = max(
                self.stats.peak_buffered_packets, self._buffered_packets
            )
        else:
            self.stats.packets_reconstructed += decoder.decoding_work()
            self._delivered[tg] = decoder.reconstruct()
            self.stats.groups_decoded += 1
            self.slotter.cancel_group(tg)
            self._cancel_watchdog(tg)
            self._drop_decoder(tg)
            if self.complete:
                self.stats.completion_time = self.sim.now
                if self.on_complete is not None:
                    self.on_complete(self.receiver_id)

    def _on_poll(self, poll: Poll) -> None:
        self.stats.polls_received += 1
        tg = poll.tg
        self._last_round[tg] = max(self._last_round.get(tg, 1), poll.round)
        self._feed_watchdog(tg)
        if tg in self._delivered or tg in self._failed:
            return
        needed = self._decoder_for(tg).missing
        if needed <= 0:
            return

        def fire(tg=tg, round_index=poll.round) -> None:
            # Recompute at slot time: repairs may have arrived meanwhile.
            if tg in self._delivered:
                return
            current = self._decoder_for(tg).missing
            if current > 0:
                self._send_nak(tg, current, round_index)

        self.slotter.schedule(tg, poll.round, poll.sent, needed, fire)

    def _send_nak(self, tg: int, needed: int, round_index: int) -> None:
        self.network.multicast_feedback(
            Nak(tg, needed, round_index), origin=self.receiver_id
        )
        self._arm_watchdog(tg, needed, round_index)

    def _on_abort(self, packet: GroupAbort) -> None:
        """Sender abandoned the group: stop soliciting, mark it failed."""
        tg = packet.tg
        if tg in self._delivered or tg in self._failed:
            return
        self._failed.add(tg)
        self.stats.groups_failed += 1
        self.slotter.cancel_group(tg)
        self._cancel_watchdog(tg)
        self._watchdog_retries.pop(tg, None)
        self._drop_decoder(tg)

    def _drop_decoder(self, tg: int) -> None:
        decoder = self._decoders.pop(tg, None)
        if decoder is not None:
            self._buffered_packets -= len(decoder.received)

    # ------------------------------------------------------------------
    # watchdog (feedback-loss robustness; disabled by default)
    # ------------------------------------------------------------------
    def _arm_watchdog(self, tg: int, needed: int, round_index: int) -> None:
        config = self.config
        if config.nak_watchdog <= 0 or tg in self._failed:
            return
        self._cancel_watchdog(tg)
        retries = self._watchdog_retries.get(tg, 0)
        if config.watchdog_retry_limit and retries >= config.watchdog_retry_limit:
            # retry budget dry: go quiet instead of spinning forever; the
            # harness diagnoses the stall (or the round cap ejects us)
            self.stats.watchdog_exhaustions += 1
            return
        interval = config.nak_watchdog * config.watchdog_backoff**retries
        cap = config.watchdog_max_interval or 16.0 * config.nak_watchdog
        interval = min(interval, cap)
        if config.watchdog_jitter > 0:
            interval *= 1.0 + config.watchdog_jitter * float(self.rng.random())
        self.stats.watchdog_backoff_peak = max(
            self.stats.watchdog_backoff_peak, interval
        )
        self._watchdogs[tg] = self.sim.schedule(
            interval,
            lambda: self._watchdog_fired(tg, round_index),
        )

    def _watchdog_fired(self, tg: int, round_index: int) -> None:
        self._watchdogs.pop(tg, None)
        if tg in self._delivered or tg in self._failed:
            return
        needed = self._decoder_for(tg).missing
        if needed > 0:
            self._watchdog_retries[tg] = self._watchdog_retries.get(tg, 0) + 1
            self.stats.watchdog_retries += 1
            self._send_nak(tg, needed, round_index)

    def _feed_watchdog(self, tg: int) -> None:
        # any sign of life for the group means the sender heard us: cancel
        # the timer and restart the backoff schedule from the base interval
        self._cancel_watchdog(tg)
        self._watchdog_retries.pop(tg, None)

    def _cancel_watchdog(self, tg: int) -> None:
        handle = self._watchdogs.pop(tg, None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # crash/restart (fault-injection hooks)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Lose all volatile state: undecoded buffers, timers, round memory.

        Models a receiver process dying mid-transfer.  Delivered groups
        survive (they were handed to the application / stable storage);
        everything in flight is gone.
        """
        self.stats.crashes += 1
        self._decoders.clear()
        self._buffered_packets = 0
        self._last_round.clear()
        self._watchdog_retries.clear()
        for handle in self._watchdogs.values():
            handle.cancel()
        self._watchdogs.clear()
        self.slotter.cancel_all()

    def rejoin(self) -> None:
        """Come back after a crash: re-solicit every unfinished group.

        Requires ``nak_watchdog > 0`` — a rejoining receiver has no pending
        polls, so only a spontaneous NAK can restart its repair stream.
        Without a watchdog it waits for whatever polls are still coming
        (and may stall, which the harness will diagnose).
        """
        if self.config.nak_watchdog <= 0:
            return
        for tg in range(self.n_groups):
            if tg in self._delivered or tg in self._failed:
                continue
            self._arm_watchdog(tg, self.config.k, self._last_round.get(tg, 1))
