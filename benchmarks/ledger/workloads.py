"""The five workloads: seeded inputs, one verified trial, nothing timed here.

Each workload drives the program through its public API only and checks the
output of every trial; a trial that raises or fails verification comes back
with ``ok=False`` and is counted, never re-raised (``child.py`` times the
trials and counts the failures).  Sizes are fixed here and recorded in
``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import asyncio
import dataclasses

import numpy as np

from repro.analysis import integrated
from repro.campaign.retry import RetryPolicy
from repro.fec import create_codec
from repro.mc.sharded import run_sharded
from repro.net import ChaosPlan, ChaosProxy, NetConfig, NetServer, fetch
from repro.protocols import NPConfig, run_transfer
from repro.sim.loss import BernoulliLoss

#: a healthy net trial ends in about a second; this only bounds a broken one
FETCH_DEADLINE = 20.0


@dataclasses.dataclass
class Outcome:
    """What one trial did, read from the program's public reports."""

    ok: bool
    #: verified units of work (0 for a failed trial)
    work: int = 0
    #: the paper's E[M] is ``transmitted / data_packets``
    data_packets: int = 0
    transmitted: float = 0.0
    #: counts for the traced run's per-layer metrics
    detail: dict = dataclasses.field(default_factory=dict)
    error: str | None = None


def subseed(seed: int, pass_index: int, trial: int) -> int:
    """The seed of one trial: a pure function of (seed, pass, trial)."""
    state = np.random.SeedSequence([seed, pass_index, trial]).generate_state(1)
    return int(state[0] & 0x7FFFFFFF)


class Workload:
    name = ""
    #: what one unit of ``work`` is
    work_unit = ""
    #: Equation-6 (or by-construction) transmissions per packet
    em_closed_form = 1.0

    def __init__(self, seed: int, pass_index: int = 0, scale: float = 1.0):
        self.seed = seed
        self.pass_index = pass_index
        #: shrinks the input for the smoke tests; 1.0 is the recorded size
        self.scale = scale
        self.rng = np.random.default_rng([seed, pass_index])

    def _scaled(self, count: int) -> int:
        return max(1, round(count * self.scale))

    def setup(self) -> None:
        """Build the seeded inputs (part of the timed cold start)."""

    def trial(self, index: int, tracer) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# net_bulk / net_repair: real UDP over loopback
# ----------------------------------------------------------------------
class _NetWorkload(Workload):
    work_unit = "data packet delivered to every receiver and byte-verified"
    config = NetConfig()
    n_groups = 1
    receivers = 1
    #: (server->receiver, receiver->server) loss through the chaos proxy
    loss: tuple[float, float] | None = None

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.groups = self._scaled(self.n_groups)
        self.payload = self.rng.bytes(
            self.groups * self.config.k * self.config.packet_size
        )

    def close(self) -> None:
        self.loop.close()

    def trial(self, index: int, tracer) -> Outcome:
        sub = subseed(self.seed, self.pass_index, index)
        # one loop for the whole pass: asyncio.run() would repr() the
        # coroutine's multi-megabyte payload on every call
        return self.loop.run_until_complete(self._transfer(sub, tracer))

    async def _transfer(self, sub: int, tracer) -> Outcome:
        loop = asyncio.get_running_loop()
        config = dataclasses.replace(self.config, seed=sub)
        server = NetServer(self.payload, config)
        proxy = None
        with tracer.span("net.server.start"):
            address = await server.start()
            if self.loss is not None:
                proxy = ChaosProxy(
                    address,
                    forward=ChaosPlan(seed=sub, loss=self.loss[0]),
                    backward=ChaosPlan(seed=sub, loss=self.loss[1]),
                )
                address = await proxy.start()
        try:
            with tracer.span("net.fetch"):
                results = await asyncio.gather(
                    *(
                        fetch(
                            *address,
                            config=dataclasses.replace(config, seed=sub + 1 + r),
                            deadline=FETCH_DEADLINE,
                        )
                        for r in range(self.receivers)
                    ),
                    return_exceptions=True,
                )
        finally:
            with tracer.span("net.server.close"):
                # a session publishes its report a loop turn or two after
                # its last receiver's fin; close() would cancel it first
                limit = loop.time() + 1.0
                while server.sessions and loop.time() < limit:
                    await asyncio.sleep(0.002)
                if proxy is not None:
                    await proxy.close()
                await server.close()
        return self._verify(results, server.reports, proxy)

    def _verify(self, results, reports, proxy) -> Outcome:
        for result in results:
            if isinstance(result, BaseException):
                # TransferTimeout / TransferStalled land here: a failed trial
                return Outcome(False, error=f"{type(result).__name__}: {result}")
            if not (result.complete and result.data == self.payload):
                return Outcome(False, error="receiver payload mismatch")
        # normally one session; a receiver whose join was lost twice in a
        # row arrives after the gathering window and is served by a second
        if any(report.outcome != "complete" for report in reports) or sum(
            report.completed for report in reports
        ) != self.receivers:
            return Outcome(False, error=f"session reports: {reports!r}"[:300])

        def total(field: str) -> int:
            return sum(getattr(report, field) for report in reports)

        n_data = self.groups * self.config.k
        stats = proxy.stats if proxy is not None else {}
        return Outcome(
            True,
            work=n_data,
            data_packets=n_data,
            transmitted=n_data * len(reports)
            + total("parities_sent")
            + total("arq_fallbacks"),
            detail={
                "net.sessions": len(reports),
                "net.naks_rx": total("naks_received"),
                "net.stale_naks": total("stale_naks"),
                "net.rounds_served": total("rounds_served"),
                "net.repolls": total("repolls"),
                "net.arq_fallbacks": total("arq_fallbacks"),
                "nak.retries": sum(r.watchdog_retries for r in results),
                "nak.exhaustions": sum(r.watchdog_exhaustions for r in results),
                "frames_received": sum(r.frames_received for r in results),
                "fetch_durations": [r.duration for r in results],
                "chaos.forwarded": stats.get("forward.forwarded", 0)
                + stats.get("backward.forwarded", 0),
                "chaos.dropped": stats.get("forward.dropped", 0)
                + stats.get("backward.dropped", 0),
            },
        )


class NetBulk(_NetWorkload):
    """Clean loopback, one receiver, the pacer never sleeping."""

    name = "net_bulk"
    config = NetConfig(
        k=8, h=16, packet_size=1024, pace_interval=0.0, pace_burst=1
    )
    n_groups = 320
    receivers = 1
    em_closed_form = 1.0


class NetRepair(_NetWorkload):
    """Four receivers behind a lossy proxy, default pacing and timers."""

    name = "net_repair"
    # default pacing and NAK timers; only the join is retried faster than
    # the 50 ms gathering window, so a lost join or announce is repaired
    # inside it and a trial is one session of four members -- with the
    # default 200 ms join retry a fifth of the trials would instead time a
    # straggler that missed the stream's head
    config = NetConfig(
        k=8, h=16, packet_size=1024,
        join_retry=RetryPolicy(
            retries=6, base_delay=0.015, backoff=1.5, max_delay=0.2, jitter=0.25
        ),
    )
    n_groups = 48
    receivers = 4
    loss = (0.05, 0.01)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.em_closed_form = integrated.expected_transmissions_lower_bound(
            self.config.k, self.loss[0], self.receivers
        )


# ----------------------------------------------------------------------
# codec_k100: the fig01 point, galois + fec only
# ----------------------------------------------------------------------
class CodecK100(Workload):
    name = "codec_k100"
    work_unit = "data packet encoded or reconstructed"
    k, h, symbols = 100, 20, 1024
    n_groups = 16
    batch = 8
    em_closed_form = (k + h) / k

    def setup(self) -> None:
        self.codec = create_codec("rse", self.k, self.h)
        self.groups = self._scaled(self.n_groups)
        self.data = self.rng.integers(
            0, 256, size=(self.groups, self.k, self.symbols), dtype=np.uint8
        )
        self.expected = [group.tobytes() for group in self.data]
        #: the repeating erasure pattern: after the warm-up trial every
        #: decode of it is an InverseCache hit
        self.repeat = self._pattern(self.rng)

    def _pattern(self, rng) -> list[int]:
        return sorted(rng.choice(self.k, size=self.h, replace=False).tolist())

    def trial(self, index: int, tracer) -> Outcome:
        rng = np.random.default_rng(subseed(self.seed, self.pass_index, index))
        stats = self.codec.stats
        hits, misses = stats.decode_cache_hits, stats.decode_cache_misses
        reconstructed = 0
        for start in range(0, self.groups, self.batch):
            batch = self.data[start:start + self.batch]
            with tracer.span("fec.encode_blocks"):
                parities = self.codec.encode_blocks(batch)
            for offset in range(batch.shape[0]):
                # even groups repeat one pattern (cache hit), odd groups
                # draw a fresh one (cache miss: a k x k inversion)
                hit = offset % 2 == 0
                erased = self.repeat if hit else self._pattern(rng)
                gone = set(erased)
                received = {
                    i: batch[offset, i] for i in range(self.k) if i not in gone
                }
                for j in range(self.h):
                    received[self.k + j] = parities[offset, j]
                with tracer.span("fec.decode.hit" if hit else "fec.decode.miss"):
                    decoded = self.codec.decode(received)
                if b"".join(decoded) != self.expected[start + offset]:
                    return Outcome(False, error="decode(...) != data")
                reconstructed += len(erased)
        encoded = self.groups * self.k
        return Outcome(
            True,
            work=encoded + reconstructed,
            data_packets=encoded,
            transmitted=encoded + self.groups * self.h,
            detail={
                "encoded": encoded,
                "reconstructed": reconstructed,
                "cache_hits": stats.decode_cache_hits - hits,
                "cache_misses": stats.decode_cache_misses - misses,
            },
        )


# ----------------------------------------------------------------------
# sim_np: protocol NP on the event-driven simulator
# ----------------------------------------------------------------------
class SimNP(Workload):
    name = "sim_np"
    work_unit = "simulator event dispatched"
    config = NPConfig(k=7, h=32, packet_size=1024)
    n_groups = 24
    receivers, p = 50, 0.01

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.em_closed_form = integrated.expected_transmissions_lower_bound(
            self.config.k, self.p, self.receivers
        )

    def setup(self) -> None:
        self.groups = self._scaled(self.n_groups)
        self.payload = self.rng.bytes(
            self.groups * self.config.k * self.config.packet_size
        )
        self.loss_model = BernoulliLoss(self.receivers, self.p)

    def trial(self, index: int, tracer) -> Outcome:
        sub = subseed(self.seed, self.pass_index, index)
        with tracer.span("sim.run_transfer"):
            try:
                report = run_transfer(
                    "np", self.payload, self.loss_model, self.config, rng=sub
                )
            except RuntimeError as exc:
                # TransferTimeout / TransferStalled / DeliveryCorrupt
                return Outcome(False, error=f"{type(exc).__name__}: {exc}")
        if not report.verified:
            return Outcome(False, error="TransferReport.verified is false")
        return Outcome(
            True,
            work=report.events_dispatched,
            data_packets=report.total_data_packets,
            transmitted=report.data_sent
            + report.parity_sent
            + report.retransmissions_sent,
            detail={
                "sim.events": report.events_dispatched,
                "protocols.naks_sent": report.naks_sent_total,
                "protocols.naks_suppressed": report.naks_suppressed_total,
                "protocols.parity_sent": report.parity_sent,
                "protocols.codec_symbols_multiplied":
                    report.codec_symbols_multiplied,
                "cache_hits": report.decode_cache_hits,
                "cache_misses": report.decode_cache_misses,
                "reconstructed": report.packets_reconstructed_total,
            },
        )


# ----------------------------------------------------------------------
# mc_rounds: the vectorised Monte-Carlo estimator, in-process
# ----------------------------------------------------------------------
class MCRounds(Workload):
    name = "mc_rounds"
    work_unit = "Monte-Carlo replication"
    k = 20
    receivers, p = 1000, 0.01
    replications = 512

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.em_closed_form = integrated.expected_transmissions_lower_bound(
            self.k, self.p, self.receivers
        )

    def setup(self) -> None:
        self.reps = self._scaled(self.replications)
        self.loss_model = BernoulliLoss(self.receivers, self.p)

    def trial(self, index: int, tracer) -> Outcome:
        sub = subseed(self.seed, self.pass_index, index)
        with tracer.span("mc.run_sharded"):
            # jobs=1 on purpose: on two shared cores a fan-out measures the
            # scheduler, not the estimator
            result = run_sharded(
                "integrated_rounds",
                self.loss_model,
                params={"k": self.k},
                replications=self.reps,
                jobs=1,
                rng=sub,
            )
        # four standard errors, not the 95% interval: a correct estimator
        # leaves a 95% interval once in twenty trials by construction
        if not result.compatible_with(self.em_closed_form, sigmas=4.0):
            return Outcome(
                False,
                error=f"MC mean {result.mean} vs closed form "
                f"{self.em_closed_form}",
            )
        data_packets = result.replications * self.k
        return Outcome(
            True,
            work=result.replications,
            data_packets=data_packets,
            transmitted=result.mean * data_packets,
            detail={
                "mc.replications": result.replications,
                "mc.ci95_halfwidth": result.ci95_halfwidth,
                "subseed": sub,
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (NetBulk, NetRepair, CodecK100, SimNP, MCRounds)
}
