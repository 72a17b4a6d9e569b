"""End-to-end protocol harness: run a full reliable-multicast transfer.

Wires a sender and ``R`` receivers onto a :class:`MulticastNetwork` with a
chosen loss model, runs the event loop to completion, verifies that every
receiver reassembled the exact payload, and reports the metrics the paper
cares about — transmissions per data packet (E[M]), feedback volume,
suppression effectiveness, duplicates and completion time.

Failure contract (see DESIGN.md's fault-model section): a transfer either
completes with verified bytes, completes *degraded* (receivers ejected
under the sender's round cap, reported in ``TransferReport.resilience``),
or raises a typed error from :mod:`repro.resilience.errors` — every one
carrying a :class:`~repro.resilience.report.StallReport` naming the
per-receiver missing groups, last-progress times, retry counters and
injected-fault counts, plus the ``(seed, fault_plan)`` pair that replays
the run.  Chaos faults are opt-in via the ``fault_plan`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.fec.rse import InverseCache, RSECodec
from repro.mc._common import resolve_rng
from repro.obs.metrics import MetricRegistry
from repro.protocols.adaptive import AdaptiveNPSender
from repro.protocols.fec1 import Fec1Receiver, Fec1Sender
from repro.protocols.layered import LayeredReceiver, LayeredSender
from repro.protocols.n2 import N2Receiver, N2Sender
from repro.protocols.np_protocol import NPConfig, NPReceiver, NPSender
from repro.resilience.errors import (
    DeliveryCorrupt,
    TransferStalled,
    TransferTimeout,
)
from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.report import ReceiverStall, ResilienceSummary, StallReport
from repro.sim.engine import SimulationError, Simulator
from repro.sim.loss import LossModel
from repro.sim.network import MulticastNetwork

__all__ = ["TransferReport", "run_transfer", "PROTOCOLS"]

#: Protocol name -> (sender class, receiver class)
PROTOCOLS = {
    "np": (NPSender, NPReceiver),
    "np-adaptive": (AdaptiveNPSender, NPReceiver),
    "n2": (N2Sender, N2Receiver),
    "layered": (LayeredSender, LayeredReceiver),
    "fec1": (Fec1Sender, Fec1Receiver),
}


@dataclass
class TransferReport:
    """Everything measured during one simulated transfer."""

    protocol: str
    n_receivers: int
    n_groups: int
    total_data_packets: int
    payload_bytes: int
    verified: bool
    completion_time: float
    transmissions_per_packet: float
    data_sent: int
    parity_sent: int
    retransmissions_sent: int
    polls_sent: int
    naks_received: int
    naks_sent_total: int
    naks_suppressed_total: int
    duplicates_total: int
    packets_reconstructed_total: int
    events_dispatched: int
    by_kind: dict[str, int] = field(default_factory=dict)
    peak_buffered_groups: int = 0
    peak_buffered_packets: int = 0
    #: GF(2^m) scale-accumulate operations performed by the shared codec
    #: (nonzero coefficients only; 0 for the no-FEC ``n2`` baseline)
    codec_symbols_multiplied: int = 0
    #: decode-plan lookups served from / missed by the codec's InverseCache
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0
    #: fault-injection and recovery accounting (defaults are all-zero for a
    #: fault-free run, so pre-existing constructions stay valid)
    resilience: ResilienceSummary = field(default_factory=ResilienceSummary)

    @property
    def feedback_per_group(self) -> float:
        """NAKs actually transmitted per transmission group."""
        if self.n_groups == 0:
            return 0.0
        return self.naks_sent_total / self.n_groups

    @property
    def suppression_ratio(self) -> float:
        """Fraction of scheduled NAKs damped before transmission."""
        scheduled = self.naks_sent_total + self.naks_suppressed_total
        return self.naks_suppressed_total / scheduled if scheduled else 0.0

    def summary(self) -> str:
        return (
            f"{self.protocol}: R={self.n_receivers} groups={self.n_groups} "
            f"E[M]={self.transmissions_per_packet:.3f} "
            f"naks={self.naks_sent_total} suppressed={self.naks_suppressed_total} "
            f"dups={self.duplicates_total} t={self.completion_time:.2f}s "
            f"verified={self.verified}"
        )


def _by_domain(receivers: set[int] | tuple[int, ...], domains) -> dict:
    """Group receiver ids by their leaf failure domain (sorted both ways)."""
    grouped: dict[str, list[int]] = {}
    for receiver_id in sorted(receivers):
        grouped.setdefault(domains.domain_of(receiver_id), []).append(
            receiver_id
        )
    return {domain: tuple(ids) for domain, ids in sorted(grouped.items())}


def _stall_report(
    protocol: str,
    sim: Simulator,
    receivers: list,
    pending: set[int],
    sender,
    stats_injected: dict[str, int],
    seed: int | None,
    fault_plan: FaultPlan | None,
    domains=None,
) -> StallReport:
    """Snapshot everything a liveness-failure post-mortem needs."""
    stalls = tuple(
        ReceiverStall(
            receiver_id=receiver.receiver_id,
            missing_groups=receiver.missing_groups(),
            last_progress_time=receiver.stats.last_progress_time,
            watchdog_retries=receiver.stats.watchdog_retries,
            watchdog_exhaustions=receiver.stats.watchdog_exhaustions,
            crashes=receiver.stats.crashes,
        )
        for receiver in receivers
        if receiver.receiver_id in pending
    )
    return StallReport(
        protocol=protocol,
        sim_time=sim.now,
        events_dispatched=sim.events_dispatched,
        pending_events=sim.pending,
        receivers=stalls,
        abandoned_groups=tuple(sorted(getattr(sender, "abandoned_groups", ()))),
        injected_faults=dict(stats_injected),
        seed=seed,
        fault_plan=fault_plan,
        stalled_by_domain=(
            {} if domains is None else _by_domain(pending, domains)
        ),
    )


def run_transfer(
    protocol: str,
    data: bytes,
    loss_model: LossModel,
    config: NPConfig = NPConfig(),
    rng: np.random.Generator | int | None = None,
    latency: float = 0.020,
    feedback_loss: float = 0.0,
    control_loss: float = 0.0,
    max_sim_time: float = 1_000_000.0,
    fault_plan: FaultPlan | None = None,
    domains=None,
) -> TransferReport:
    """Simulate one complete transfer of ``data`` to all receivers.

    Parameters
    ----------
    protocol:
        ``"np"`` (hybrid ARQ, the paper's contribution), ``"n2"`` (no-FEC
        baseline) or ``"layered"`` (FEC layer under ARQ).
    data:
        Application payload; split into TGs of ``config.k`` packets of
        ``config.packet_size`` bytes.
    loss_model:
        Joint downstream loss process; its ``n_receivers`` sets R.
    rng:
        Generator or seed; drives loss, NAK jitter, everything.
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan`.  When given, a
        :class:`~repro.resilience.faults.FaultInjector` is interposed
        between the protocol machines and the network; the injector draws
        from its own seeded generator, so a plan that injects nothing
        leaves the transfer bit-identical to a plan-free run.
    domains:
        Optional :class:`repro.sim.failure.DomainTree` attributing
        receivers to failure domains; stall reports and the degraded
        summary then also group stragglers/ejections per leaf domain.
        Defaults to the tree of the loss model itself when the loss model
        is a :class:`~repro.sim.failure.DomainOutageLoss`.

    Raises
    ------
    ValueError
        For out-of-range arguments (loss probabilities, latency, time
        budget) or an unknown protocol name.
    TransferTimeout
        The simulated clock crossed ``max_sim_time`` with receivers still
        incomplete.
    TransferStalled
        The event queue drained or the event budget was exhausted with
        receivers still incomplete.
    DeliveryCorrupt
        A receiver reassembled different bytes than were sent.

    All three transfer errors subclass ``RuntimeError`` and carry a
    :class:`~repro.resilience.report.StallReport` as ``.report``.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {sorted(PROTOCOLS)}"
        )
    if not 0.0 <= feedback_loss < 1.0:
        raise ValueError(
            f"feedback_loss must be in [0, 1), got {feedback_loss}"
        )
    if not 0.0 <= control_loss < 1.0:
        raise ValueError(f"control_loss must be in [0, 1), got {control_loss}")
    if latency < 0:
        raise ValueError(f"latency must be >= 0, got {latency}")
    if max_sim_time <= 0:
        raise ValueError(f"max_sim_time must be positive, got {max_sim_time}")
    if (feedback_loss > 0.0 or control_loss > 0.0) and config.nak_watchdog <= 0.0:
        raise ValueError(
            "lossy feedback/control requires a nak_watchdog for liveness"
        )
    if domains is None:
        # correlated-churn models carry their own domain tree; pick it up
        # so per-domain accounting needs no extra plumbing at call sites
        # (the domain_of probe keeps TreeLoss's networkx graph out)
        candidate = getattr(loss_model, "tree", None)
        if hasattr(candidate, "domain_of"):
            domains = candidate
    if domains is not None and domains.n_receivers != loss_model.n_receivers:
        raise ValueError(
            f"domain tree has {domains.n_receivers} receivers but the loss "
            f"model has {loss_model.n_receivers}"
        )
    # keep the integer seed (if one was passed) so stall reports can name it
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    rng = resolve_rng(rng)
    sender_cls, receiver_cls = PROTOCOLS[protocol]

    sim = Simulator()
    network = MulticastNetwork(
        sim, loss_model, rng, latency=latency,
        feedback_loss=feedback_loss, control_loss=control_loss,
    )
    if fault_plan is not None:
        network = FaultInjector(sim, network, fault_plan)
    # One shared codec instance: any generator matrix is cached anyway, and
    # sharing mirrors a real deployment where all parties agree on the code.
    # Its decode-plan cache is private to the transfer so the reported
    # hit/miss counters are deterministic for a seed (the process-wide
    # cache would leak warm entries from earlier transfers into this report).
    codec = (
        RSECodec(config.k, config.h, inverse_cache=InverseCache())
        if protocol != "n2"
        else None
    )

    kwargs = {} if codec is None else {"codec": codec}
    sender = sender_cls(sim, network, data, config, **kwargs)
    if protocol == "fec1":
        # the feedback-free scheme replaces NAKs with multicast membership:
        # receivers share the sender's group-membership object
        kwargs["membership"] = sender.membership

    pending = set(range(loss_model.n_receivers))

    def on_complete(receiver_id: int) -> None:
        pending.discard(receiver_id)

    receivers = []
    for _ in range(loss_model.n_receivers):
        receiver_rng = np.random.default_rng(rng.integers(2**63))
        receiver = receiver_cls(
            sim,
            network,
            sender.n_groups,
            config,
            rng=receiver_rng,
            on_complete=on_complete,
            **kwargs,
        )
        receivers.append(receiver)

    if isinstance(network, FaultInjector):
        network.bind_receivers(receivers)

    def diagnose() -> StallReport:
        return _stall_report(
            protocol, sim, receivers, pending, sender,
            network.stats.injected, seed, fault_plan, domains,
        )

    queue_drained = False
    with obs.span(
        "transfer",
        protocol=protocol,
        receivers=loss_model.n_receivers,
        groups=sender.n_groups,
    ):
        sender.start()
        try:
            while pending and sim.now < max_sim_time:
                if not sim.step():
                    queue_drained = True
                    break
        except SimulationError as exc:
            raise TransferStalled(
                f"{protocol}: {len(pending)} receivers incomplete — {exc}",
                diagnose(),
            ) from exc

    ejected: tuple[int, ...] = ()
    abandoned = frozenset(getattr(sender, "abandoned_groups", ()))
    if pending:
        # graceful degradation: if the sender abandoned groups under its
        # round cap and those abandonments explain every straggler, the
        # transfer completes *degraded* — partial delivery, ejected
        # receivers named on the report — instead of raising.
        explained = bool(abandoned) and all(
            set(receiver.missing_groups()) <= abandoned
            for receiver in receivers
            if receiver.receiver_id in pending
        )
        if explained:
            ejected = tuple(sorted(pending))
        elif queue_drained:
            raise TransferStalled(
                f"{protocol}: {len(pending)} receivers incomplete with the "
                f"event queue drained at t={sim.now:.1f}s — liveness failure",
                diagnose(),
            )
        else:
            raise TransferTimeout(
                f"{protocol}: {len(pending)} receivers incomplete at "
                f"t={sim.now:.1f}s (max_sim_time={max_sim_time:g} reached)",
                diagnose(),
            )

    completed = [r for r in receivers if r.receiver_id not in pending]
    verified = all(
        receiver.delivered_data(len(data)) == data for receiver in completed
    )
    if not verified:
        raise DeliveryCorrupt(
            f"{protocol}: reassembled payload mismatch", diagnose()
        )

    completion = max(
        (
            receiver.stats.completion_time
            for receiver in completed
            if receiver.stats.completion_time is not None
        ),
        default=sim.now,
    )
    resilience = ResilienceSummary(
        fault_plan=fault_plan,
        injected=dict(network.stats.injected),
        corrupt_discarded=sum(r.stats.corrupt_discarded for r in receivers),
        watchdog_retries=sum(r.stats.watchdog_retries for r in receivers),
        watchdog_backoff_peak=max(
            (r.stats.watchdog_backoff_peak for r in receivers), default=0.0
        ),
        crashes=sum(r.stats.crashes for r in receivers),
        degraded=bool(ejected),
        abandoned_groups=tuple(sorted(abandoned)),
        ejected_receivers=ejected,
        ejected_by_domain=(
            {} if domains is None or not ejected
            else _by_domain(ejected, domains)
        ),
    )
    # ------------------------------------------------------------------
    # Registry-backed measurement (repro.obs): every count on the report
    # is recorded into a per-transfer MetricRegistry and read back out,
    # so the report and a ``--metrics-out`` rollup share one source of
    # truth — merged ``transfer.*`` counters sum exactly the values
    # reported here.  The local registry always exists (a couple
    # dozen cheap instruments per transfer); it merges into the process-
    # global registry only when telemetry is enabled.
    registry = MetricRegistry()

    def count(name: str, value: int, **labels) -> int:
        instrument = registry.counter(name, protocol=protocol, **labels)
        instrument.inc(int(value))
        return instrument.value

    def peak(name: str, value: float) -> float:
        instrument = registry.gauge(name, protocol=protocol)
        instrument.observe(float(value))
        return instrument.value

    count("transfer.runs", 1)
    count("transfer.payload_bytes", len(data))
    data_packets = count("transfer.data_packets", sender.total_data_packets)
    data_sent = count("transfer.data_sent", sender.stats.data_sent)
    parity_sent = count("transfer.parity_sent", sender.stats.parity_sent)
    retransmissions_sent = count(
        "transfer.retransmissions_sent", sender.stats.retransmissions_sent
    )
    polls_sent = count("transfer.polls_sent", sender.stats.polls_sent)
    naks_received = count("transfer.naks_received", sender.stats.naks_received)
    count("transfer.rounds_served", getattr(sender.stats, "rounds_served", 0))
    naks_sent = count(
        "transfer.naks_sent",
        sum(
            r.slotter.stats.naks_sent
            for r in receivers
            if hasattr(r, "slotter")  # fec1 is feedback-free
        ),
    )
    naks_suppressed = count(
        "transfer.naks_suppressed",
        sum(
            r.slotter.stats.naks_suppressed
            for r in receivers
            if hasattr(r, "slotter")
        ),
    )
    duplicates = count(
        "transfer.duplicates", sum(r.stats.duplicates for r in receivers)
    )
    reconstructed = count(
        "transfer.packets_reconstructed",
        sum(r.stats.packets_reconstructed for r in receivers),
    )
    events = count("transfer.events_dispatched", sim.events_dispatched)
    count("transfer.watchdog_retries", resilience.watchdog_retries)
    count("transfer.crashes", resilience.crashes)
    for domain, domain_ejected in resilience.ejected_by_domain.items():
        count("churn.ejected", len(domain_ejected), domain=domain)
    for kind, kind_count in sorted(network.stats.by_kind.items()):
        count("transfer.wire_packets", kind_count, kind=kind)
    symbols_multiplied = count(
        "transfer.codec_symbols_multiplied",
        codec.stats.symbols_multiplied if codec is not None else 0,
    )
    cache_hits = count(
        "transfer.decode_cache_hits",
        codec.stats.decode_cache_hits if codec is not None else 0,
    )
    cache_misses = count(
        "transfer.decode_cache_misses",
        codec.stats.decode_cache_misses if codec is not None else 0,
    )
    buffered_groups = peak(
        "transfer.peak_buffered_groups",
        max((r.stats.peak_buffered_groups for r in receivers), default=0),
    )
    buffered_packets = peak(
        "transfer.peak_buffered_packets",
        max((r.stats.peak_buffered_packets for r in receivers), default=0),
    )
    peak("transfer.completion_time", completion)
    peak("transfer.watchdog_backoff_peak", resilience.watchdog_backoff_peak)
    if obs.is_enabled():
        obs.merge_snapshot(registry.snapshot())

    return TransferReport(
        protocol=protocol,
        n_receivers=loss_model.n_receivers,
        n_groups=sender.n_groups,
        total_data_packets=data_packets,
        payload_bytes=len(data),
        verified=verified,
        completion_time=completion,
        transmissions_per_packet=(
            (data_sent + parity_sent + retransmissions_sent) / data_packets
        ),
        data_sent=data_sent,
        parity_sent=parity_sent,
        retransmissions_sent=retransmissions_sent,
        polls_sent=polls_sent,
        naks_received=naks_received,
        naks_sent_total=naks_sent,
        naks_suppressed_total=naks_suppressed,
        duplicates_total=duplicates,
        packets_reconstructed_total=reconstructed,
        events_dispatched=events,
        by_kind=dict(network.stats.by_kind),
        peak_buffered_groups=int(buffered_groups),
        peak_buffered_packets=int(buffered_packets),
        codec_symbols_multiplied=symbols_multiplied,
        decode_cache_hits=cache_hits,
        decode_cache_misses=cache_misses,
        resilience=resilience,
    )
