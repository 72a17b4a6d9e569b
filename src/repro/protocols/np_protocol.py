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

The sender's rounds and the receivers' groups live in the two machines
of :mod:`repro.protocols.np_machine`, which the sockets run too;
:class:`NPSender` and :class:`NPReceiver` are their simulator drivers.

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

from repro.fec.block import BlockEncoder
from repro.fec.rse import RSECodec
from repro.protocols.feedback import NakSlotter
from repro.protocols.np_machine import (
    Arrival,
    NPReceiveMachine,
    NPRepairMachine,
)
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

__all__ = ["NPConfig", "NPSender", "NPReceiver", "SimReceiver"]


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
        codec: RSECodec | None = None,
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


class SimReceiver:
    """A simulated receiver whose groups live in an
    :class:`~repro.protocols.np_machine.NPReceiveMachine`: the stats, the
    completion callback and the delivered bytes its protocols share."""

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        n_groups: int,
        config: NPConfig,
        codec: RSECodec | None,
        on_complete,
    ):
        self.sim = sim
        self.network = network
        self.config = config
        self.n_groups = n_groups
        self.codec = codec if codec is not None else RSECodec(config.k, config.h)
        self.on_complete = on_complete
        self.stats = ReceiverStats()
        self.receiver_id = network.attach_receiver(self.on_packet)
        self.machine = NPReceiveMachine(
            config.k, self.codec, n_groups, config.packet_size
        )

    @property
    def complete(self) -> bool:
        return self.machine.complete

    def missing_groups(self) -> tuple[int, ...]:
        """Groups not delivered (including sender-abandoned ones)."""
        return self.machine.missing_groups()

    def delivered_data(self, total_length: int | None = None) -> bytes:
        """Reassembled byte stream (requires :attr:`complete`)."""
        if not self.machine.complete:
            missing = list(self.machine.missing_groups())
            raise RuntimeError(f"transfer incomplete; missing groups {missing}")
        return self.machine.assemble(total_length)

    def _decoded(self) -> None:
        """Count the group the last payload decoded."""
        stats, now = self.stats, self.sim.now
        stats.last_progress_time = now
        stats.packets_reconstructed = self.machine.packets_reconstructed
        stats.groups_decoded += 1
        if self.machine.complete:
            stats.completion_time = now
            if self.on_complete is not None:
                self.on_complete(self.receiver_id)


class NPReceiver(SimReceiver):
    """Protocol NP's receiver on the simulator: a driver of the receive
    machine that adds NAK slotting and damping and the NAK watchdog."""

    def __init__(
        self,
        sim: Simulator,
        network: MulticastNetwork,
        n_groups: int,
        config: NPConfig = NPConfig(),
        codec: RSECodec | None = None,
        rng: np.random.Generator | None = None,
        on_complete=None,
    ):
        super().__init__(sim, network, n_groups, config, codec, on_complete)
        self.rng = rng if rng is not None else np.random.default_rng()
        self.slotter = NakSlotter(sim, self.rng, config.slot_time)
        #: with the watchdog off no packet touches its timers or retry counts
        self._watchdog = config.nak_watchdog > 0
        self._watchdogs: dict[int, EventHandle] = {}
        self._watchdog_retries: dict[int, int] = {}

    def failed_groups(self) -> tuple[int, ...]:
        """Groups the sender abandoned under its round cap."""
        return tuple(sorted(self.machine.abandoned))

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
        stats, machine = self.stats, self.machine
        stats.packets_received += 1
        tg = packet.tg
        if not payload_intact(packet):
            # detected corruption is demoted to an erasure: drop the packet
            # but keep the group's solicitation alive (the sender clearly
            # is; the missing count is unchanged)
            stats.corrupt_discarded += 1
            if self._watchdog:
                self._arm_watchdog(tg, machine.round(tg))
            return
        if self._watchdog:
            self._feed_watchdog(tg)
        arrival = machine.on_payload(tg, packet.index, packet.payload)
        if arrival is Arrival.DECODED:
            # the feed above already cancelled the group's watchdog
            self.slotter.cancel_group(tg)
            self._decoded()
            return
        if arrival is Arrival.NEW:
            stats.last_progress_time = self.sim.now
            # a new packet raises the packet count by one; every open
            # group holds a packet, so the group count can pass its peak
            # only while the packet count is above that peak too
            buffered = machine.buffered_packets
            if buffered > stats.peak_buffered_packets:
                stats.peak_buffered_packets = buffered
            if (
                buffered > stats.peak_buffered_groups
                and machine.open_groups > stats.peak_buffered_groups
            ):
                stats.peak_buffered_groups = machine.open_groups
        elif arrival is Arrival.DUPLICATE or tg in machine.delivered:
            stats.duplicates += 1  # an abandoned group's repairs are void
        # an open group is known-incomplete: if the coming poll gets lost
        # (lossy control plane) this timer keeps us live by NAKing
        # spontaneously; any later packet or poll re-feeds it
        if self._watchdog:
            self._arm_watchdog(tg, machine.round(tg))

    def _on_poll(self, poll: Poll) -> None:
        self.stats.polls_received += 1
        tg = poll.tg
        needed = self.machine.on_poll(tg, poll.round)
        if self._watchdog:
            self._feed_watchdog(tg)
        if needed <= 0:
            return

        def fire(tg=tg, round_index=poll.round) -> None:
            # Recompute at slot time: repairs may have arrived meanwhile.
            current = self.machine.missing(tg)
            if current > 0:
                self._send_nak(tg, current, round_index)

        self.slotter.schedule(tg, poll.round, poll.sent, needed, fire)

    def _send_nak(self, tg: int, needed: int, round_index: int) -> None:
        self.network.multicast_feedback(
            Nak(tg, needed, round_index), origin=self.receiver_id
        )
        if self._watchdog:
            self._arm_watchdog(tg, round_index)

    def _on_abort(self, packet: GroupAbort) -> None:
        """Sender abandoned the group: stop soliciting, mark it failed."""
        tg = packet.tg
        if not self.machine.on_abort(tg):
            return
        self.stats.groups_failed += 1
        self.slotter.cancel_group(tg)
        if self._watchdog:
            self._cancel_watchdog(tg)
            self._watchdog_retries.pop(tg, None)

    # ------------------------------------------------------------------
    # watchdog (feedback-loss robustness; disabled by default, and then
    # none of these run)
    # ------------------------------------------------------------------
    def _arm_watchdog(self, tg: int, round_index: int) -> None:
        config = self.config
        if self.machine.is_settled(tg):
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
        needed = self.machine.missing(tg)
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
        self.machine.crash()
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
        if not self._watchdog:
            return
        for tg in self.machine.unsettled_groups():
            self._arm_watchdog(tg, self.machine.round(tg))
