"""Unit tests: transport supervision (pacing, retry policy, NAK budget)
and chaos schedule determinism."""

import asyncio
import time

import numpy as np
import pytest

from repro.campaign.retry import RetryPolicy
from repro.net.chaos import ChaosPlan, ChaosProxy, FaultSchedule
from repro.net.supervision import _MIN_TICK, NakScheduler, NetConfig, Pacer


class TestNetConfig:
    def test_defaults_validate(self):
        config = NetConfig()
        assert config.k == 8 and config.h == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"h": -1},
            {"h": 2**16},
            {"packet_size": 0},
            {"pace_interval": -0.1},
            {"pace_burst": 0},
            {"join_window": -1.0},
            {"nak_aggregation": -0.01},
            {"member_timeout": 0.0},
            {"session_deadline": -5.0},
            {"max_rounds": -1},
            {"complete_repeats": 0},
        ],
        ids=lambda kw: next(iter(kw.items()))[0],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NetConfig(**kwargs)

    def test_block_longer_than_gf256_holds_rejected(self):
        # GF(2^8) addresses at most 255 symbols per RSE block: a longer
        # geometry would build, then fail every join
        NetConfig(k=8, h=247)
        with pytest.raises(ValueError, match="exceeds 255"):
            NetConfig(k=8, h=248)
        with pytest.raises(ValueError, match="exceeds 255"):
            NetConfig(k=8, h=300)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            retries=8, base_delay=1.0, backoff=2.0, max_delay=5.0, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay(a, rng) for a in range(1, 6)]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_only_shortens(self):
        policy = RetryPolicy(base_delay=1.0, backoff=1.0, jitter=0.5)
        rng = np.random.default_rng(42)
        for attempt in range(1, 20):
            delay = policy.delay(attempt, rng)
            assert 0.5 <= delay <= 1.0

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy(jitter=0.9)
        a = [policy.delay(i, np.random.default_rng(7)) for i in range(1, 5)]
        b = [policy.delay(i, np.random.default_rng(7)) for i in range(1, 5)]
        assert a == b

    def test_zero_base_delay_means_immediate(self):
        policy = RetryPolicy(base_delay=0.0)
        assert policy.delay(3, np.random.default_rng(0)) == 0.0

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0, np.random.default_rng(0))


class TestPacer:
    def test_yields_every_burst(self):
        async def run():
            pacer = Pacer(interval=0.0, burst=4)
            for _ in range(10):
                await pacer.gate()
            return pacer

        pacer = asyncio.run(run())
        assert pacer.frames == 10
        assert pacer.sleeps == 2  # after frames 4 and 8

    def test_interval_paces_wall_clock(self):
        async def run():
            loop = asyncio.get_running_loop()
            pacer = Pacer(interval=0.005, burst=2)
            start = loop.time()
            for _ in range(8):
                await pacer.gate()
            return loop.time() - start

        # 4 bursts -> 4 sleeps of 2 * 5ms = at least ~40ms of pacing
        assert asyncio.run(run()) >= 0.03

    #: 2 ms a frame in bursts of 4: one burst per 8 ms
    INTERVAL, BURST = 0.002, 4
    PERIOD = INTERVAL * BURST

    def test_long_run_rate_is_one_over_interval(self):
        async def run():
            loop = asyncio.get_running_loop()
            pacer = Pacer(interval=self.INTERVAL, burst=self.BURST)
            start = loop.time()
            for _ in range(120):
                await pacer.gate()
            return loop.time() - start

        # frame 120 opens burst 30, due 30 periods after the first gate;
        # deadlines are absolute, so per-wake lateness does not add up
        # (the ceiling leaves room for a loaded host's stalls)
        paced = 30 * self.PERIOD
        assert paced - 1e-3 <= asyncio.run(run()) <= 2 * paced

    def test_stream_and_flush_share_one_schedule(self):
        """Two coroutines gating on one pacer -- a session's stream and
        a repair flush -- get ``burst`` frames per period between them:
        the ``n``-th frame out leaves no earlier than ``n // burst``
        periods after the first."""

        async def run():
            loop = asyncio.get_running_loop()
            pacer = Pacer(interval=self.INTERVAL, burst=self.BURST)
            released: list[tuple[float, str]] = []

            async def sender(name: str, frames: int) -> None:
                for _ in range(frames):
                    await pacer.gate()
                    released.append((loop.time(), name))

            start = loop.time()
            await asyncio.gather(sender("stream", 40), sender("flush", 24))
            return start, released

        start, released = asyncio.run(run())
        assert {name for _, name in released} == {"stream", "flush"}
        times = sorted(at for at, _ in released)
        for n, at in enumerate(times, start=1):
            assert at - start >= (n // self.BURST) * self.PERIOD - 1e-4, n

    def test_stall_releases_at_most_one_burst_of_debt(self):
        """A host that stalls 25 periods mid-burst owes the rest of that
        burst, not 25 bursts: what leaves at once after the stall is at
        most the burst now due plus one burst of debt, and the schedule
        then resumes from the stall's end."""

        async def run():
            loop = asyncio.get_running_loop()
            pacer = Pacer(interval=self.INTERVAL, burst=self.BURST)
            released = []
            stall_end = None
            for n in range(1, 41):
                if n == 10:
                    time.sleep(25 * self.PERIOD)
                    stall_end = loop.time()
                await pacer.gate()
                released.append(loop.time())
            return stall_end, released

        stall_end, released = asyncio.run(run())
        after = [at for at in released if at >= stall_end]
        at_once = [at for at in after if at < stall_end + self.PERIOD / 2]
        assert len(at_once) <= 2 * self.BURST
        # frame 40 opens the 7th burst after the one due at the stall's end
        assert released[-1] >= stall_end + 7 * self.PERIOD - 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            Pacer(interval=-1.0, burst=1)
        with pytest.raises(ValueError):
            Pacer(interval=0.0, burst=0)


class TestNakScheduler:
    def policy(self, retries=3):
        return RetryPolicy(
            retries=retries, base_delay=1.0, backoff=2.0, max_delay=8.0,
            jitter=0.0,
        )

    def scheduler(self, retries=3, seed=0):
        return NakScheduler(self.policy(retries), np.random.default_rng(seed))

    def test_armed_group_not_due_before_deadline(self):
        scheduler = self.scheduler()
        scheduler.arm(0, now=10.0)
        assert scheduler.due([0], now=10.5, limit=8) == []
        assert scheduler.due([0], now=11.5, limit=8) == [0]

    def test_unknown_group_is_immediately_due(self):
        # a group the stream never reached has next_due 0: first scan fires
        scheduler = self.scheduler()
        assert scheduler.due([5], now=100.0, limit=8) == [5]

    def test_backoff_grows_and_budget_exhausts(self):
        scheduler = self.scheduler(retries=2)
        now = 0.0
        fired = []
        for _ in range(40):
            fired += scheduler.due([0], now=now, limit=8)
            now += 0.5
        assert len(fired) == 2  # the budget, exactly
        assert scheduler.exhaustions == 1
        assert scheduler.all_exhausted([0])
        assert not scheduler.all_exhausted([])  # vacuous case is False

    def test_heard_revives_an_exhausted_group(self):
        scheduler = self.scheduler(retries=1)
        assert scheduler.due([0], now=0.0, limit=8) == [0]
        assert scheduler.due([0], now=50.0, limit=8) == []
        assert scheduler.all_exhausted([0])
        scheduler.heard(0, now=50.0)
        assert not scheduler.all_exhausted([0])
        assert scheduler.due([0], now=60.0, limit=8) == [0]

    def test_batch_limit(self):
        scheduler = self.scheduler()
        due = scheduler.due(range(100), now=5.0, limit=7)
        assert len(due) == 7

    def test_same_seed_same_backoff_schedule(self):
        jittery = RetryPolicy(
            retries=5, base_delay=0.5, backoff=2.0, max_delay=8.0, jitter=0.5
        )

        def schedule(seed):
            scheduler = NakScheduler(jittery, np.random.default_rng(seed))
            deadlines = []
            now = 0.0
            for _ in range(200):
                if scheduler.due([0], now=now, limit=1):
                    deadlines.append(scheduler.state(0).next_due)
                now += 0.05
            return deadlines

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_forget_stops_solicitation(self):
        scheduler = self.scheduler()
        assert scheduler.due([0], now=0.0, limit=8) == [0]
        scheduler.forget(0)
        assert scheduler.max_attempts_spent == 0


def exchange(scheduler, tg, at, latency):
    """One answered NAK on the fake clock: a sample of ``latency``."""
    scheduler.nak_sent(tg, now=at)
    scheduler.heard(tg, now=at + latency)


class TestResponseEstimator:
    """RFC 6298 over NAK -> first response frame, on a fake clock."""

    def scheduler(self, base_delay=1.0):
        policy = RetryPolicy(
            retries=3, base_delay=base_delay, backoff=2.0, max_delay=8.0,
            jitter=0.0,
        )
        return NakScheduler(policy, np.random.default_rng(0))

    def test_undefined_until_the_first_sample(self):
        scheduler = self.scheduler()
        scheduler.arm(0, now=0.0)
        scheduler.heard(0, now=0.5)  # a frame, but no NAK was out
        assert scheduler.rto is None
        scheduler.nak_sent(0, now=1.0)
        assert scheduler.rto is None  # stamped, not yet answered

    def test_first_sample(self):
        scheduler = self.scheduler()
        exchange(scheduler, 0, at=10.0, latency=0.02)
        assert scheduler.srtt == pytest.approx(0.02)
        assert scheduler.rttvar == pytest.approx(0.01)
        assert scheduler.rto == pytest.approx(0.06)

    def test_second_sample_uses_the_rfc_gains(self):
        scheduler = self.scheduler()
        exchange(scheduler, 0, at=10.0, latency=0.02)
        exchange(scheduler, 0, at=11.0, latency=0.04)
        # rttvar = 3/4 * 0.01 + 1/4 * |0.02 - 0.04|; srtt = 7/8, 1/8
        assert scheduler.rttvar == pytest.approx(0.0125)
        assert scheduler.srtt == pytest.approx(0.0225)
        assert scheduler.rto == pytest.approx(0.0225 + 4 * 0.0125)

    def test_converges_on_a_steady_latency(self):
        scheduler = self.scheduler()
        exchange(scheduler, 0, at=0.0, latency=0.2)
        for i in range(1, 80):
            exchange(scheduler, 0, at=float(i), latency=0.03)
        assert scheduler.srtt == pytest.approx(0.03, rel=1e-3)
        assert scheduler.rto == pytest.approx(0.03, rel=1e-2)

    def test_clamped_to_min_tick_and_base_delay(self):
        fast = self.scheduler()
        exchange(fast, 0, at=0.0, latency=1e-5)
        assert fast.rto == _MIN_TICK
        slow = self.scheduler(base_delay=0.25)
        exchange(slow, 0, at=0.0, latency=50.0)
        assert slow.rto == 0.25

    def test_only_the_first_frame_after_a_nak_is_a_sample(self):
        scheduler = self.scheduler()
        exchange(scheduler, 0, at=0.0, latency=0.02)
        scheduler.heard(0, now=0.5)  # second repair of the same round
        scheduler.heard(0, now=0.9)
        assert scheduler.srtt == pytest.approx(0.02)

    def test_the_oldest_unanswered_nak_is_the_stamp(self):
        # an early re-NAK must not shorten the sample: the response may
        # be to the first NAK, and a too-short sample tightens the timer
        # that fired too soon
        scheduler = self.scheduler()
        scheduler.nak_sent(0, now=0.0)
        scheduler.nak_sent(0, now=0.05)
        scheduler.heard(0, now=0.06)
        assert scheduler.srtt == pytest.approx(0.06)

    def test_a_response_behind_a_billed_retry_is_not_a_sample(self):
        # a whole base interval of silence lay in between: loss, not
        # latency (Karn's rule)
        scheduler = self.scheduler()
        scheduler.nak_sent(0, now=0.0)
        assert scheduler.due([0], now=1.0, limit=8) == [0]
        scheduler.heard(0, now=1.02)
        assert scheduler.rto is None
        exchange(scheduler, 0, at=2.0, latency=0.02)  # the stamp was cleared
        assert scheduler.srtt == pytest.approx(0.02)


class TestEarlyRenak:
    """One unbilled re-NAK per silence, at the measured response time."""

    RTO = 0.06  # after one 20 ms sample

    def policy(self, jitter=0.0):
        return RetryPolicy(
            retries=3, base_delay=1.0, backoff=2.0, max_delay=8.0,
            jitter=jitter,
        )

    def primed(self, jitter=0.0, seed=0):
        scheduler = NakScheduler(
            self.policy(jitter), np.random.default_rng(seed)
        )
        exchange(scheduler, 99, at=0.0, latency=0.02)
        scheduler.forget(99)
        assert scheduler.rto == pytest.approx(self.RTO)
        return scheduler

    def test_without_a_sample_the_schedule_is_the_policys(self):
        scheduler = NakScheduler(self.policy(), np.random.default_rng(0))
        scheduler.nak_sent(0, now=10.0)
        fired = []
        now = 10.0
        while not scheduler.all_exhausted([0]):
            assert scheduler.early(now, limit=8) == []
            fired += [now] * len(scheduler.due([0], now=now, limit=8))
            now = round(now + 0.25, 2)
        # base 1.0, backoff 2.0: re-NAKs 1, 2 and 4 seconds apart
        assert fired == [11.0, 13.0, 17.0]

    def test_fires_once_at_rto_then_the_policy_takes_over(self):
        scheduler = self.primed()
        scheduler.nak_sent(0, now=10.0)
        assert scheduler.early(10.0 + self.RTO - 0.001, limit=8) == []
        assert scheduler.early(10.0 + self.RTO + 0.001, limit=8) == [0]
        # the second silence is the configured one
        assert scheduler.early(10.5, limit=8) == []
        assert scheduler.due([0], now=10.99, limit=8) == []
        assert scheduler.due([0], now=11.0, limit=8) == [0]
        assert scheduler.early(11.5, limit=8) == []

    def test_not_billed(self):
        scheduler = self.primed()
        scheduler.nak_sent(0, now=10.0)
        assert scheduler.early(10.1, limit=8) == [0]
        assert scheduler.retries_granted == 0
        assert scheduler.exhaustions == 0
        assert scheduler.state(0).attempts == 0

    def test_a_sign_of_life_buys_the_next_one(self):
        scheduler = self.primed()
        scheduler.nak_sent(0, now=10.0)
        assert scheduler.early(10.1, limit=8) == [0]
        scheduler.heard(0, now=10.2)  # a repair, but the next poll is lost
        rto = scheduler.rto
        assert scheduler.early(10.2 + rto - 0.001, limit=8) == []
        assert scheduler.early(10.2 + rto + 0.001, limit=8) == [0]

    def test_only_groups_owed_a_response(self):
        scheduler = self.primed()
        scheduler.arm(0, now=10.0)  # mid-stream: its poll is still to come
        scheduler.arm(1, now=10.0, final=True)  # nothing follows to imply it
        scheduler.nak_sent(2, now=10.0)
        assert scheduler.early(10.5, limit=8) == [1, 2]

    def test_batch_limit(self):
        scheduler = self.primed()
        for tg in range(10):
            scheduler.nak_sent(tg, now=10.0)
        assert scheduler.early(10.5, limit=4) == [0, 1, 2, 3]
        assert scheduler.early(10.5, limit=4) == [4, 5, 6, 7]

    @pytest.mark.parametrize("jitter", [0.0, 0.5])
    def test_time_to_exhaustion_is_the_parents(self, jitter):
        # the patience invariant: with the same policy and seed, a group
        # that got its early re-NAK runs dry exactly when one that never
        # had a sample does -- the early NAK moves no deadline
        def exhausted_at(scheduler):
            scheduler.nak_sent(0, now=100.0)
            now, early = 100.0, 0
            while not scheduler.all_exhausted([0]):
                early += len(scheduler.early(now, limit=8))
                scheduler.due([0], now=now, limit=8)
                now += 0.01
            return now, early, scheduler.retries_granted

        unprimed = NakScheduler(self.policy(jitter), np.random.default_rng(5))
        primed = NakScheduler(self.policy(jitter), np.random.default_rng(5))
        exchange(primed, 99, at=0.0, latency=0.02)
        primed.forget(99)
        parent_time, parent_early, parent_retries = exhausted_at(unprimed)
        time, early, retries = exhausted_at(primed)
        assert (parent_early, early) == (0, 1)
        assert retries == parent_retries == 3
        assert time == parent_time
        if not jitter:
            # 1 + 2 + 4 + 8 seconds of configured silence
            assert time == pytest.approx(115.0, abs=0.02)


class TestLazyJitter:
    """``heard`` records a time; the jitter is drawn when a scan looks."""

    POLICY = RetryPolicy(
        retries=5, base_delay=0.5, backoff=2.0, max_delay=8.0, jitter=0.5
    )

    def test_heard_draws_nothing(self):
        rng = np.random.default_rng(3)
        scheduler = NakScheduler(self.POLICY, rng)
        scheduler.arm(0, now=0.0)
        before = rng.bit_generator.state
        for i in range(1000):
            scheduler.heard(0, now=i * 1e-4)
        scheduler.nak_sent(0, now=0.2)
        assert rng.bit_generator.state == before

    def test_one_draw_per_deadline_looked_at(self):
        rng = np.random.default_rng(3)
        expected = np.random.default_rng(3)
        scheduler = NakScheduler(self.POLICY, rng)
        scheduler.arm(0, now=0.0)
        scheduler.heard(0, now=1.0)
        deadline = 1.0 + self.POLICY.delay(1, expected)
        assert scheduler.due([0], now=1.0, limit=8) == []
        assert scheduler.next_wake() == deadline
        assert scheduler.due([0], now=1.1, limit=8) == []
        # three looks, one draw
        assert rng.bit_generator.state == expected.bit_generator.state
        assert scheduler.state(0).next_due == deadline

    def test_deadline_counts_from_the_last_frame_heard(self):
        policy = RetryPolicy(
            retries=1, base_delay=1.0, backoff=1.0, max_delay=1.0, jitter=0.0
        )
        scheduler = NakScheduler(policy, np.random.default_rng(0))
        scheduler.arm(0, now=0.0)
        assert scheduler.due([0], now=0.9, limit=8) == []  # draws 0.0 + 1.0
        scheduler.heard(0, now=0.95)  # and this discards it
        assert scheduler.due([0], now=1.5, limit=8) == []
        assert scheduler.due([0], now=1.95, limit=8) == [0]


class TestNextWake:
    def scheduler(self):
        policy = RetryPolicy(
            retries=1, base_delay=1.0, backoff=2.0, max_delay=8.0, jitter=0.0
        )
        return NakScheduler(policy, np.random.default_rng(0))

    def test_idle_scheduler_has_no_deadline(self):
        assert self.scheduler().next_wake() is None

    def test_earliest_of_billed_and_early_deadlines(self):
        scheduler = self.scheduler()
        scheduler.arm(0, now=5.0)
        scheduler.arm(1, now=3.0)
        assert scheduler.next_wake() == 4.0
        exchange(scheduler, 2, at=3.0, latency=0.02)  # rto = 0.06
        scheduler.nak_sent(2, now=3.5)
        assert scheduler.next_wake() == pytest.approx(3.56)
        assert scheduler.early(3.6, limit=8) == [2]
        assert scheduler.next_wake() == 4.0  # the early one is spent

    def test_exhausted_groups_do_not_wake_the_scan(self):
        scheduler = self.scheduler()
        scheduler.arm(0, now=0.0)
        assert scheduler.due([0], now=1.0, limit=8) == [0]
        assert scheduler.next_wake() == 3.0
        assert scheduler.due([0], now=3.0, limit=8) == []
        assert scheduler.all_exhausted([0])
        assert scheduler.next_wake() is None


class TestChaosPlan:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(loss=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(corrupt=-0.1)
        with pytest.raises(ValueError):
            ChaosPlan(blackouts=((2.0, 1.0),))
        with pytest.raises(ValueError):
            ChaosPlan(jitter=-1.0)

    def test_blackout_windows(self):
        plan = ChaosPlan(blackouts=((1.0, 2.0), (5.0, 6.0)))
        assert not plan.in_blackout(0.5)
        assert plan.in_blackout(1.0)
        assert plan.in_blackout(1.999)
        assert not plan.in_blackout(2.0)
        assert plan.in_blackout(5.5)


class TestFaultScheduleDeterminism:
    """Same seed => same fault schedule: the CI determinism smoke."""

    PLAN = ChaosPlan(
        seed=42, loss=0.2, corrupt=0.1, duplicate=0.1, reorder=0.2,
        jitter=0.005,
    )

    def decisions(self, plan, direction, n=500):
        schedule = FaultSchedule(plan, direction)
        return [schedule.decide(100 + (i % 7)) for i in range(n)]

    def test_same_seed_same_schedule(self):
        first = self.decisions(self.PLAN, "forward")
        second = self.decisions(self.PLAN, "forward")
        assert first == second

    def test_directions_draw_independent_streams(self):
        assert self.decisions(self.PLAN, "forward") != self.decisions(
            self.PLAN, "backward"
        )

    def test_different_seed_different_schedule(self):
        import dataclasses

        other = dataclasses.replace(self.PLAN, seed=43)
        assert self.decisions(self.PLAN, "forward") != self.decisions(
            other, "forward"
        )

    def test_fault_rates_track_probabilities(self):
        decisions = self.decisions(self.PLAN, "forward", n=4000)
        drops = sum(d.drop for d in decisions) / len(decisions)
        assert 0.15 < drops < 0.25
        survivors = [d for d in decisions if not d.drop]
        corrupts = sum(d.corrupt_at is not None for d in survivors)
        assert 0.05 < corrupts / len(survivors) < 0.15

    def test_decision_stream_independent_of_outcomes(self):
        # the verdict for datagram N must not depend on earlier datagram
        # *sizes* either — only on (seed, direction, N)
        schedule_a = FaultSchedule(self.PLAN, "forward")
        schedule_b = FaultSchedule(self.PLAN, "forward")
        for i in range(200):
            a = schedule_a.decide(50)
            b = schedule_b.decide(5000)
            assert a.drop == b.drop
            assert a.duplicate == b.duplicate
            assert (a.corrupt_at is None) == (b.corrupt_at is None)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(self.PLAN, "sideways")


class TestChaosProxyUnit:
    def test_stats_count_faults(self):
        async def run():
            # loss=1.0: everything a client sends is eaten
            proxy = ChaosProxy(
                ("127.0.0.1", 9), backward=ChaosPlan(seed=1, loss=1.0)
            )
            await proxy.start()
            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=proxy.address
            )
            for _ in range(5):
                transport.sendto(b"payload")
            await asyncio.sleep(0.1)
            transport.close()
            await proxy.close()
            return dict(proxy.stats)

        stats = asyncio.run(run())
        assert stats.get("backward.dropped") == 5
        assert "backward.forwarded" not in stats

    def test_blackout_absorbs_direction(self):
        async def run():
            proxy = ChaosProxy(
                ("127.0.0.1", 9),
                backward=ChaosPlan(seed=1, blackouts=((0.0, 999.0),)),
            )
            await proxy.start()
            loop = asyncio.get_running_loop()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=proxy.address
            )
            for _ in range(3):
                transport.sendto(b"nak")
            await asyncio.sleep(0.1)
            transport.close()
            await proxy.close()
            return dict(proxy.stats)

        stats = asyncio.run(run())
        assert stats.get("backward.blackout") == 3

    def test_held_datagrams_are_released_once_sent(self):
        """Reordered and jittered datagrams are held on timers; a fired
        timer must not keep its handle (and the payload) until close."""

        async def run():
            loop = asyncio.get_running_loop()
            sink, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0)
            )
            proxy = ChaosProxy(
                sink.get_extra_info("sockname")[:2],
                backward=ChaosPlan(
                    seed=3, reorder=0.5, reorder_delay=0.01, jitter=0.01
                ),
            )
            await proxy.start()
            transport, _ = await loop.create_datagram_endpoint(
                asyncio.DatagramProtocol, remote_addr=proxy.address
            )
            for _ in range(40):
                transport.sendto(b"payload")
            await asyncio.sleep(0.2)  # every delay is at most 20 ms
            pending = len(proxy._handles)
            transport.close()
            await proxy.close()
            sink.close()
            return dict(proxy.stats), pending

        stats, pending = asyncio.run(run())
        assert stats.get("backward.delayed", 0) == 40
        assert pending == 0
