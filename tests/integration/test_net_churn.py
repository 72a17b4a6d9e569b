"""Member churn over real UDP loopback: blackout, ejection, rejoin.

The regression this file pins: a receiver eclipsed by a chaos blackout
long enough to be ejected must — given ``rejoin_attempts`` — re-join the
*live* session and resume from its retained ``BlockDecoder`` state
instead of failing (or re-requesting groups it already holds).  The
blackout windows come from a :mod:`repro.sim.failure` availability
schedule via :func:`member_down_windows`, so the same seeded world
that drives simulator churn drives the real socket path.

No pytest-asyncio in the container: tests drive their own loop via
``asyncio.run``, each bounded by ``asyncio.wait_for``.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.campaign.retry import RetryPolicy
from repro.net import ChaosProxy, NetConfig, NetServer, fetch
from repro.resilience.errors import TransferStalled
from repro.sim.failure import TraceAvailability, member_down_windows

pytestmark = pytest.mark.timeout(180)

HARD_LIMIT = 60.0


def run_bounded(coro):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=HARD_LIMIT)

    return asyncio.run(bounded())


def churn_config(seed: int, rejoin_attempts: int = 3) -> NetConfig:
    return NetConfig(
        k=8,
        h=16,
        packet_size=256,
        seed=seed,
        pace_interval=0.002,
        pace_burst=4,
        join_window=0.1,
        nak_retry=RetryPolicy(
            retries=12, base_delay=0.12, backoff=1.4, max_delay=0.8, jitter=0.2
        ),
        join_retry=RetryPolicy(
            retries=6, base_delay=0.2, backoff=1.5, max_delay=1.0, jitter=0.2
        ),
        member_timeout=0.5,
        session_deadline=30.0,
        rejoin_attempts=rejoin_attempts,
        revive_window=4.0,
    )


def payload(config: NetConfig, n_groups: int = 40, seed: int = 99) -> bytes:
    return np.random.default_rng(seed).bytes(
        n_groups * config.k * config.packet_size
    )


def blackout_churn(n_members: int, eclipsed: int):
    """A schedule-driven churn: one member dark from 0.4s for 1.2s.

    The window comes from a replayed outage trace — the same generator
    vocabulary the simulator churn uses — keyed by the chaos proxy's
    member arrival index.
    """
    trace = TraceAvailability(
        {str(eclipsed): [(0.4, 1.2)]}, horizon=3.0
    )
    return member_down_windows(trace, n_members)


class TestBlackoutRejoin:
    def test_rejoin_resumes_live_session(self):
        # the pinned regression: blackout (1.2s) > member_timeout (0.5s)
        # forces an ejection mid-transfer; with rejoin budget the receiver
        # must come back into the *same* session and finish bit-identical
        config = churn_config(seed=7)
        data = payload(config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            proxy = ChaosProxy(
                server.address, down=blackout_churn(1, eclipsed=0)
            )
            host, port = await proxy.start()
            try:
                result = await fetch(
                    host, port, config=churn_config(seed=17), deadline=25.0
                )
            finally:
                stats = dict(proxy.stats)
                await proxy.close()
            for _ in range(100):
                if server.reports:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return result, server.reports, stats

        with obs.capture():
            result, reports, stats = run_bounded(scenario())
            snap = obs.snapshot()

        assert result.data == data
        assert result.complete
        assert result.rejoins >= 1
        assert stats.get("forward.member_blackout", 0) > 0

        assert len(reports) == 1
        report = reports[0]
        assert report.outcome == "complete"
        # revived only increments for a member that *was* ejected, so
        # this alone proves the eject→blackout→rejoin cycle ran
        assert report.revived >= 1

        assert snap.value("net.rejoins") == result.rejoins
        assert snap.value("net.members_revived") == report.revived

    def test_without_rejoin_budget_ejection_is_final(self):
        # the pre-churn contract still holds at rejoin_attempts=0: the
        # eclipsed receiver fails typed, the session degrades
        config = churn_config(seed=8, rejoin_attempts=0)
        data = payload(config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            proxy = ChaosProxy(
                server.address, down=blackout_churn(1, eclipsed=0)
            )
            host, port = await proxy.start()
            try:
                with pytest.raises(TransferStalled) as excinfo:
                    await fetch(
                        host,
                        port,
                        config=churn_config(seed=18, rejoin_attempts=0),
                        deadline=25.0,
                    )
            finally:
                await proxy.close()
            for _ in range(100):
                if server.reports:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return excinfo.value, server.reports

        error, reports = run_bounded(scenario())
        assert "ejected" in str(error)
        assert reports and reports[0].ejected >= 1
        assert reports[0].revived == 0

    def test_survivors_unaffected_by_peer_blackout(self):
        # three members, one eclipsed: the survivors finish clean and
        # every receiver — churned or not — holds bit-identical bytes
        config = churn_config(seed=9)
        data = payload(config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            proxy = ChaosProxy(
                server.address, down=blackout_churn(3, eclipsed=1)
            )
            host, port = await proxy.start()
            try:
                results = await asyncio.gather(
                    *(
                        fetch(
                            host,
                            port,
                            config=churn_config(seed=20 + i),
                            deadline=25.0,
                        )
                        for i in range(3)
                    )
                )
            finally:
                await proxy.close()
            for _ in range(100):
                if server.reports:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return results, server.reports

        results, reports = run_bounded(scenario())
        for result in results:
            assert result.data == data
            assert result.complete
        # the blackout hit exactly one member (arrival order decides
        # which); everyone else finished without spending the budget
        assert sum(1 for r in results if r.rejoins > 0) <= 1
        assert len(reports) == 1
        assert reports[0].completed == 3
        assert reports[0].outcome == "complete"
