"""End-to-end: the real UDP transport over loopback, with and without chaos.

The acceptance scenario from the transport's design brief: a ≥1000-data-
packet transfer pushed through the chaos proxy at 10% seeded loss plus
corruption, duplication and reordering must complete **bit-identical** at
every receiver within a bounded retry budget; a feedback blackout must
degrade into a *typed* failure (``TransferStalled`` with a
``StallReport``), never a hang.

No pytest-asyncio in the container: every test drives its own loop via
``asyncio.run``.  Every transfer is wrapped in ``asyncio.wait_for`` so a
liveness bug fails the test instead of wedging the suite (CI adds
pytest-timeout on top; the ``timeout`` marks are no-ops without it).
"""

import asyncio
import os

import numpy as np
import pytest

from repro.campaign.retry import RetryPolicy
from repro.fec.block import BlockEncoder
from repro.net import ChaosPlan, ChaosProxy, NetConfig, NetServer, fetch
from repro.net.wire import decode_frame, encode_frame
from repro.protocols.packets import (
    DataPacket,
    Nak,
    ParityPacket,
    Poll,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
)
from repro.resilience.errors import TransferStalled, TransferTimeout
from tests.conftest import udp_drops

pytestmark = pytest.mark.timeout(180)

#: every test's hard internal bound, enforced with asyncio.wait_for
HARD_LIMIT = 60.0
#: the kernel's per-socket drop counts are read from /proc/net/udp
ON_LINUX = os.path.exists("/proc/net/udp")


def run_bounded(coro):
    async def bounded():
        return await asyncio.wait_for(coro, timeout=HARD_LIMIT)

    return asyncio.run(bounded())


def payload(n_groups: int, config: NetConfig, seed: int = 99) -> bytes:
    size = n_groups * config.k * config.packet_size
    return np.random.default_rng(seed).bytes(size)


#: 10% loss + corruption + duplication + reordering, per direction
def chaos_plan(seed: int) -> ChaosPlan:
    return ChaosPlan(
        seed=seed,
        loss=0.10,
        corrupt=0.02,
        duplicate=0.02,
        reorder=0.05,
        reorder_delay=0.01,
    )


class TestCleanLoopback:
    def test_three_receivers_share_one_session(self):
        config = NetConfig(k=4, h=8, packet_size=256, seed=1)
        data = payload(6, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            results = await asyncio.gather(
                *(
                    fetch(
                        host,
                        port,
                        config=NetConfig(
                            k=4, h=8, packet_size=256, seed=10 + i
                        ),
                        deadline=20.0,
                    )
                    for i in range(3)
                )
            )
            # let the session finish its bookkeeping before closing
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
            assert result.failed_groups == ()
        assert len(reports) == 1, "joins within the window must share"
        report = reports[0]
        assert report.members == 3
        assert report.completed == 3
        assert report.ejected == 0
        assert report.outcome == "complete"

    def test_distinct_groups_get_distinct_sessions(self):
        config = NetConfig(k=2, h=4, packet_size=128, seed=2)
        data = payload(3, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            results = await asyncio.gather(
                fetch(host, port, config=config, group=1, deadline=20.0),
                fetch(
                    host,
                    port,
                    config=NetConfig(k=2, h=4, packet_size=128, seed=3),
                    group=2,
                    deadline=20.0,
                ),
            )
            for _ in range(100):
                if len(server.reports) == 2:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return results, server.reports

        results, reports = run_bounded(scenario())
        assert all(result.data == data for result in results)
        assert len(reports) == 2
        assert {report.group for report in reports} == {1, 2}


class _RawPeer(asyncio.DatagramProtocol):
    """A hand-driven member: speaks the wire format, obeys no protocol."""

    def __init__(self):
        self.frames: asyncio.Queue = asyncio.Queue()
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.frames.put_nowait(decode_frame(data))

    def send(self, packet, session_id: int = 0) -> None:
        self.transport.sendto(encode_frame(packet, session_id))

    async def expect(self, kind, where=lambda packet: True):
        """The next received frame carrying a ``kind`` packet."""
        while True:
            frame = await self.frames.get()
            if isinstance(frame.packet, kind) and where(frame.packet):
                return frame


class TestHostilePeer:
    def test_forged_nak_shortfall_costs_at_most_k_repairs(self):
        """``Nak.needed`` is a u32 on the wire.  A joined member forging
        ``needed = 4e9`` must cost the session one round of at most ``k``
        repair frames — not a four-billion-iteration fan-out loop — and
        the well-behaved member of the same session is unaffected."""
        # h < k so the clamped round crosses parity repair *and* the ARQ
        # fallback, the branch the unclamped loop would spin in
        config = NetConfig(
            k=4, h=2, packet_size=256, seed=5, join_window=0.3
        )
        data = payload(6, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            transport, peer = await loop.create_datagram_endpoint(
                _RawPeer, remote_addr=(host, port)
            )
            try:
                honest = asyncio.ensure_future(
                    fetch(host, port, config=config, deadline=30.0)
                )
                peer.send(SessionJoin(group=0, nonce=0xBAD))
                session_id = (await peer.expect(SessionAnnounce)).session_id
                await peer.expect(DataPacket)  # the session is streaming
                peer.send(Nak(0, 4_000_000_000, 1), session_id)
                # the flush closes round 1 with a poll stating what it sent
                poll = await peer.expect(
                    Poll, lambda p: p.tg == 0 and p.round == 2
                )
                peer.send(SessionComplete(delivered=6), session_id)
                result = await honest
                for _ in range(100):
                    if server.reports:
                        break
                    await asyncio.sleep(0.05)
            finally:
                transport.close()
                await server.close()
            return result, poll.packet, server.reports

        result, poll, reports = run_bounded(scenario())
        assert result.data == data
        assert result.complete
        (report,) = reports
        assert report.members == 2
        assert report.rounds_served == 1
        assert report.naks_received == 1
        assert poll.sent == config.k
        # exactly k repairs, not 4e9: h parities, then the ARQ fallback
        assert (report.parities_sent, report.arq_fallbacks) == (2, 2)


class TestLostFin:
    def test_a_complete_after_the_session_ended_is_answered(self):
        """The last member's complete ends the session, and its fin is
        lost: the member's repeated complete reaches a server that has
        filed the session's report.  It must still be acknowledged, or
        the member waits out every one of its repeats."""
        config = NetConfig(k=2, h=2, packet_size=64, join_window=0.05)
        data = payload(2, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            transport, peer = await loop.create_datagram_endpoint(
                _RawPeer, remote_addr=(host, port)
            )
            try:
                peer.send(SessionJoin(group=0, nonce=1))
                session_id = (await peer.expect(SessionAnnounce)).session_id
                await peer.expect(DataPacket)  # the session is streaming
                complete = SessionComplete(delivered=2)
                peer.send(complete, session_id)
                await peer.expect(SessionFin)  # ... and say this one is lost
                for _ in range(100):
                    if server.reports:
                        break
                    await asyncio.sleep(0.01)
                assert session_id not in server.sessions
                peer.send(complete, session_id)
                fin = await asyncio.wait_for(peer.expect(SessionFin), 2.0)
            finally:
                transport.close()
                await server.close()
            return session_id, fin, server.reports

        session_id, fin, reports = run_bounded(scenario())
        assert fin.session_id == session_id
        assert fin.packet == SessionFin("complete")
        (report,) = reports
        assert (report.session_id, report.outcome) == (session_id, "complete")

    def test_a_complete_for_an_unknown_session_is_ignored(self):
        config = NetConfig(k=2, h=2, packet_size=64)

        async def scenario():
            server = NetServer(payload(2, config), config)
            host, port = await server.start()
            loop = asyncio.get_running_loop()
            transport, peer = await loop.create_datagram_endpoint(
                _RawPeer, remote_addr=(host, port)
            )
            try:
                peer.send(SessionComplete(delivered=2), 99)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(peer.expect(SessionFin), 0.3)
            finally:
                transport.close()
                await server.close()

        run_bounded(scenario())


class _ScriptedSender(_RawPeer):
    """A hand-driven server: streams what the script says, drops what it
    says, and times every NAK that comes back."""

    SESSION = 7

    def __init__(self, config: NetConfig, data: bytes):
        super().__init__()
        self.config = config
        self.encoder = BlockEncoder(
            data, k=config.k, h=config.h, packet_size=config.packet_size
        )
        self.receiver = None

    def datagram_received(self, data: bytes, addr) -> None:
        self.receiver = addr
        super().datagram_received(data, addr)

    def send(self, packet) -> None:
        self.transport.sendto(
            encode_frame(packet, self.SESSION), self.receiver
        )

    async def receive(self, packet, within: float) -> float:
        """When ``packet`` came in (frames before it are skipped)."""
        await asyncio.wait_for(
            self.expect(type(packet), lambda received: received == packet),
            timeout=within,
        )
        return asyncio.get_running_loop().time()

    def stream(self, tg: int, lose=(), poll: bool = True) -> None:
        for index in range(self.config.k):
            if index not in lose:
                self.send(
                    DataPacket(tg, index, self.encoder.data_packet(tg, index))
                )
        if poll:
            self.send(Poll(tg, self.config.k, 1))

    def repair(self, tg: int) -> None:
        k = self.config.k
        self.send(ParityPacket(tg, k, self.encoder.parity_packet(tg, 0)))


class TestLostFeedback:
    """Scripted drops of one poll or one NAK over real sockets: recovery
    must not wait out ``nak_retry.base_delay`` (the parent did)."""

    CONFIG = NetConfig(
        k=4,
        h=4,
        packet_size=64,
        seed=17,
        nak_retry=RetryPolicy(
            retries=4, base_delay=0.5, backoff=1.5, max_delay=2.0, jitter=0.25
        ),
    )
    GROUPS = 6
    #: every wait below is this long at most: half the watchdog interval
    PATIENCE = 0.25

    def run(self, script):
        config = self.CONFIG
        data = payload(self.GROUPS, config)

        async def scenario():
            loop = asyncio.get_running_loop()
            transport, sender = await loop.create_datagram_endpoint(
                lambda: _ScriptedSender(config, data),
                local_addr=("127.0.0.1", 0),
            )
            host, port = transport.get_extra_info("sockname")[:2]
            try:
                receiver = asyncio.ensure_future(
                    fetch(host, port, config=config, deadline=10.0)
                )
                await asyncio.wait_for(sender.expect(SessionJoin), 5.0)
                sender.send(
                    SessionAnnounce(
                        k=config.k, h=config.h,
                        packet_size=config.packet_size,
                        n_groups=self.GROUPS, total_length=len(data),
                    )
                )
                started = loop.time()
                observed = await script(sender, loop)
                streamed = loop.time() - started
                await sender.receive(
                    SessionComplete(delivered=self.GROUPS), self.PATIENCE
                )
                sender.send(SessionFin("complete"))
                return await receiver, observed, streamed
            finally:
                transport.close()

        result, observed, streamed = run_bounded(scenario())
        assert result.data == data and result.complete
        assert result.watchdog_retries == 0
        assert streamed < self.CONFIG.nak_retry.base_delay
        return result, observed

    async def measure_a_response(self, sender) -> None:
        """Group 0 loses a packet and is repaired 10 ms after its NAK, so
        the receiver has a response time to go by."""
        sender.stream(0, lose={1})
        await sender.receive(Nak(0, 1, 1), self.PATIENCE)
        await asyncio.sleep(0.01)
        sender.repair(0)

    def test_dropped_poll_is_answered_at_the_next_groups_first_frame(self):
        async def script(sender, loop):
            for tg in range(3):
                sender.stream(tg)
            sender.stream(3, lose={2}, poll=False)  # Poll(3, k, 1) dropped
            asked = loop.time()
            sender.stream(4)
            answered = await sender.receive(Nak(3, 1, 1), self.PATIENCE)
            sender.repair(3)
            sender.stream(5)
            return answered - asked

        result, latency = self.run(script)
        assert latency < self.PATIENCE
        assert (result.implicit_polls, result.early_renaks) == (1, 0)
        assert result.naks_sent == 1

    def test_dropped_nak_is_repeated_once_on_the_measured_response_time(self):
        async def script(sender, loop):
            await self.measure_a_response(sender)
            sender.stream(1)
            sender.stream(2, lose={0})
            first = await sender.receive(Nak(2, 1, 1), self.PATIENCE)
            # ... which the script "drops": no repair, no next poll
            for tg in (3, 4, 5):
                sender.stream(tg)
            second = await sender.receive(Nak(2, 1, 1), self.PATIENCE)
            sender.repair(2)
            return second - first

        result, gap = self.run(script)
        assert gap < self.PATIENCE
        assert (result.implicit_polls, result.early_renaks) == (0, 1)
        assert result.naks_sent == 3

    def test_dropped_last_poll_is_implied_by_the_streams_silence(self):
        last = self.GROUPS - 1

        async def script(sender, loop):
            await self.measure_a_response(sender)
            for tg in range(1, last):
                sender.stream(tg)
            sender.stream(last, lose={0}, poll=False)
            ended = loop.time()
            answered = await sender.receive(Nak(last, 1, 1), self.PATIENCE)
            sender.repair(last)
            return answered - ended

        result, silence = self.run(script)
        assert silence < self.PATIENCE
        assert (result.implicit_polls, result.early_renaks) == (1, 0)
        assert result.naks_sent == 2


class TestChaosTransfer:
    """The headline scenario: 1000+ data packets through 10% chaos."""

    CONFIG = NetConfig(
        k=8,
        h=16,
        packet_size=256,
        seed=5,
        nak_retry=RetryPolicy(
            retries=10, base_delay=0.15, backoff=1.5, max_delay=1.0,
            jitter=0.25,
        ),
        member_timeout=20.0,
        session_deadline=55.0,
    )

    async def session(
        self, fetch_seeds=(6, 7), chaos_seeds=(21, 22), drops=None
    ):
        """One chaos transfer.  ``drops``, when given, is filled with the
        kernel's drop count of every UDP socket the transfer opens, by
        local port (Linux), sampled while it runs and before closing."""
        config = self.CONFIG
        data = payload(125, config)  # 125 groups x k=8 -> 1000 data packets
        loop = asyncio.get_running_loop()
        # no session of this server outlives its own deadline
        last_report = loop.time() + config.session_deadline
        server = NetServer(data, config)
        await server.start()
        proxy = ChaosProxy(
            server.address,
            forward=chaos_plan(chaos_seeds[0]),
            backward=chaos_plan(chaos_seeds[1]),
        )
        host, port = await proxy.start()

        def sample() -> None:
            for socket_port, count in udp_drops().items():
                drops[socket_port] = max(drops.get(socket_port, 0), count)

        async def watch() -> None:
            while True:
                sample()
                await asyncio.sleep(0.01)

        watcher = asyncio.ensure_future(watch()) if drops is not None else None
        try:
            results = await asyncio.gather(
                *(
                    fetch(
                        host,
                        port,
                        config=NetConfig(
                            k=8, h=16, packet_size=256, seed=seed,
                            nak_retry=config.nak_retry,
                        ),
                        deadline=50.0,
                    )
                    for seed in fetch_seeds
                )
            )
            # the report trails the last fin by the sender's own timers
            while not server.reports and loop.time() < last_report:
                await asyncio.sleep(0.02)
        finally:
            if watcher is not None:
                watcher.cancel()
                sample()
            await proxy.close()
            await server.close()
        return data, results, proxy.stats, server.reports

    async def transfer(self, fetch_seeds=(6, 7), drops=None):
        data, results, stats, _ = await self.session(fetch_seeds, drops=drops)
        return data, results, stats

    def test_bit_identical_delivery_under_chaos(self):
        drops: dict[int, int] = {}
        data, results, stats = run_bounded(self.transfer(drops=drops))
        for result in results:
            assert result.data == data, "delivery must be bit-identical"
            assert result.failed_groups == ()
            assert result.delivered_groups == 125
            # bounded retries: the budget is never exceeded
            assert result.watchdog_exhaustions == 0
            budget = self.CONFIG.nak_retry.retries
            assert result.watchdog_retries <= 125 * budget
        # the chaos actually happened
        assert stats.get("forward.dropped", 0) > 50
        assert stats.get("forward.corrupted", 0) > 0
        assert stats.get("forward.duplicated", 0) > 0
        # corrupted frames were detected and dropped, not decoded
        assert any(result.frame_errors > 0 for result in results)
        # the chaos plan is the only loss: the kernel dropped nothing at
        # the server, the proxy's sockets or the receivers
        if ON_LINUX:
            assert drops, "no socket of the transfer was sampled"
            assert sum(drops.values()) == 0, drops

    #: transmissions per data packet of this scenario at the parent of the
    #: implicit poll (437fbec), 16 runs over the chaos seeds below and
    #: beyond: median, and the distance between the quartiles
    PARENT_EM, PARENT_EM_SPREAD = 1.249, 0.022

    def test_inferred_polls_and_early_renaks_buy_no_repairs(self):
        """A NAK for a poll that was not heard, or repeated early, may
        cost the sender a poll -- never a repair.  (A reordered data
        packet overstates ``missing`` for an implied poll exactly as it
        does for a heard one.)  Median of five, so a run in which a
        member's announce is lost and it misses the stream's head --
        either side's E[M] is then ~2 -- does not decide."""
        per_packet = []
        naks = []
        for run in range(5):
            data, results, _, reports = run_bounded(
                self.session(chaos_seeds=(21 + 10 * run, 22 + 10 * run))
            )
            assert all(result.data == data for result in results)
            report = reports[0]
            per_packet.append(
                1 + (report.parities_sent + report.arq_fallbacks) / 1000
            )
            naks.append(
                sum(r.implicit_polls + r.early_renaks for r in results)
            )
        assert min(naks) > 0, "the rules under test never fired"
        assert sorted(per_packet)[2] <= self.PARENT_EM + self.PARENT_EM_SPREAD

    def test_same_seed_runs_are_invariant(self):
        first = run_bounded(self.transfer(fetch_seeds=(6,)))
        second = run_bounded(self.transfer(fetch_seeds=(6,)))
        data_a, (result_a,), _ = first
        data_b, (result_b,), _ = second
        # payload generation, delivery and outcome are run-invariant; raw
        # timing counters (naks, duplicates seen) legitimately wobble with
        # OS scheduling, but the *contract* counters must agree
        assert data_a == data_b
        assert result_a.data == result_b.data == data_a
        assert result_a.failed_groups == result_b.failed_groups == ()
        assert result_a.delivered_groups == result_b.delivered_groups
        assert result_a.watchdog_exhaustions == 0
        assert result_b.watchdog_exhaustions == 0


class TestBlackoutDegradation:
    """Feedback darkness must produce typed, bounded, diagnosable failure."""

    def test_join_blackout_is_a_typed_stall(self):
        config = NetConfig(
            k=2,
            h=4,
            packet_size=128,
            seed=8,
            join_retry=RetryPolicy(
                retries=2, base_delay=0.1, backoff=2.0, max_delay=0.4,
                jitter=0.0,
            ),
        )
        data = payload(2, config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            proxy = ChaosProxy(
                server.address,
                backward=ChaosPlan(seed=1, blackouts=((0.0, 999.0),)),
            )
            host, port = await proxy.start()
            try:
                with pytest.raises(TransferStalled) as excinfo:
                    await fetch(host, port, config=config, deadline=30.0)
            finally:
                await proxy.close()
                await server.close()
            return excinfo.value

        error = run_bounded(scenario())
        assert "join" in str(error)
        assert error.report is not None
        assert error.report.protocol == "net-np"
        assert error.report.seed == 8

    def test_feedback_blackout_mid_transfer_stalls_with_report(self):
        config = NetConfig(
            k=4,
            h=8,
            packet_size=128,
            seed=9,
            nak_retry=RetryPolicy(
                retries=3, base_delay=0.1, backoff=1.5, max_delay=0.4,
                jitter=0.2,
            ),
            member_timeout=1.0,
            session_deadline=30.0,
        )
        data = payload(40, config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            # heavy forward loss forces repair rounds; the feedback path
            # goes dark shortly after the join handshake
            proxy = ChaosProxy(
                server.address,
                forward=ChaosPlan(seed=31, loss=0.35),
                backward=ChaosPlan(seed=32, blackouts=((0.15, 999.0),)),
            )
            host, port = await proxy.start()
            try:
                with pytest.raises(TransferStalled) as excinfo:
                    await fetch(host, port, config=config, deadline=30.0)
                # the sender must reap the silent member, not pin the
                # session open
                for _ in range(200):
                    if server.reports:
                        break
                    await asyncio.sleep(0.05)
            finally:
                await proxy.close()
                await server.close()
            return excinfo.value, server.reports

        error, reports = run_bounded(scenario())
        report = error.report
        assert report is not None
        stall = report.receivers[0]
        assert stall.missing_groups, "the stall names the missing groups"
        assert stall.watchdog_exhaustions > 0
        assert stall.watchdog_retries > 0
        assert report.seed == 9
        assert reports, "sender session must terminate via ejection"
        assert reports[0].outcome in ("degraded", "aborted")
        assert reports[0].ejected == 1

    def test_deadline_produces_transfer_timeout(self):
        config = NetConfig(
            k=2,
            h=4,
            packet_size=128,
            seed=11,
            join_retry=RetryPolicy(
                retries=50, base_delay=0.1, backoff=1.0, max_delay=0.1,
                jitter=0.0,
            ),
        )
        data = payload(2, config)

        async def scenario():
            server = NetServer(data, config)
            await server.start()
            proxy = ChaosProxy(
                server.address,
                backward=ChaosPlan(seed=2, blackouts=((0.0, 999.0),)),
            )
            host, port = await proxy.start()
            try:
                with pytest.raises(TransferTimeout) as excinfo:
                    await fetch(host, port, config=config, deadline=1.0)
            finally:
                await proxy.close()
                await server.close()
            return excinfo.value

        error = run_bounded(scenario())
        assert error.report is not None


class TestObsIntegration:
    def test_transport_counters_are_recorded(self):
        from repro import obs

        config = NetConfig(k=2, h=4, packet_size=128, seed=12)
        data = payload(4, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            result = await fetch(host, port, config=config, deadline=20.0)
            for _ in range(100):
                if server.reports:
                    break
                await asyncio.sleep(0.05)
            await server.close()
            return result

        with obs.capture() as registry:
            result = run_bounded(scenario())
            assert result.complete
            snapshot = registry.snapshot()
            spans = {record.name for record in obs.recorder().records}
        # deterministic stream counters: a clean 4-group k=2 transfer is
        # exactly 8 data frames and 4 polls on the wire, each counted once
        # by the sender and once by the receiver
        assert snapshot.value("net.frames_tx", kind="data") == 8
        assert snapshot.value("net.frames_rx", kind="data") == 8
        assert snapshot.value("net.frames_tx", kind="poll") == 4
        assert snapshot.value("net.frames_tx", kind="join") >= 1
        assert snapshot.value("net.frames_tx", kind="announce") >= 1
        assert snapshot.value("net.sessions", outcome="complete") == 1
        assert "net.fetch" in spans
        assert "net.serve.session" in spans

    def test_parities_are_encoded_on_demand(self):
        # protocol NP encodes a parity when a NAK asks for it: a clean
        # transfer runs no encode at all, a lossy one encodes exactly the
        # parities its rounds send
        from repro import obs
        from repro.fec.rse import RSECodec

        config = NetConfig(k=4, h=8, packet_size=128, seed=14)
        data = payload(12, config)
        RSECodec(config.k, config.h)  # build the generator matrix up front

        async def scenario(lossy: bool):
            server = NetServer(data, config)
            host, port = await server.start()
            proxy = None
            if lossy:
                proxy = ChaosProxy(
                    server.address,
                    forward=ChaosPlan(seed=31, loss=0.15),
                    backward=ChaosPlan(seed=32),
                )
                host, port = await proxy.start()
            try:
                result = await fetch(host, port, config=config, deadline=30.0)
                for _ in range(100):
                    if server.reports:
                        break
                    await asyncio.sleep(0.05)
            finally:
                if proxy is not None:
                    await proxy.close()
                await server.close()
            return result, server.reports[0]

        def encode_counts(lossy: bool):
            with obs.capture() as registry:
                result, report = run_bounded(scenario(lossy))
                counters = registry.snapshot().counter_values()
            assert result.data == data and result.complete
            totals = {
                "rse.blocks_encoded": 0,
                "rse.parities_produced": 0,
                "galois.matmul_calls": 0,
            }
            for (metric, _labels), value in counters.items():
                if metric in totals:
                    totals[metric] += value
            return totals, report

        totals, report = encode_counts(lossy=False)
        assert totals == {
            "rse.blocks_encoded": 0,
            "rse.parities_produced": 0,
            "galois.matmul_calls": 0,
        }
        assert report.parities_sent == 0

        totals, report = encode_counts(lossy=True)
        assert report.parities_sent > 0
        # one product per repair round, of the round's parities only
        assert totals["rse.parities_produced"] == report.parities_sent
        assert 0 < totals["rse.blocks_encoded"] <= report.rounds_served

    def test_counters_invariant_across_same_seed_runs(self):
        from repro import obs

        config = NetConfig(k=2, h=4, packet_size=128, seed=13)
        data = payload(3, config)

        async def scenario():
            server = NetServer(data, config)
            host, port = await server.start()
            result = await fetch(host, port, config=config, deadline=20.0)
            await server.close()
            return result

        def stream_counters():
            with obs.capture() as registry:
                result = run_bounded(scenario())
                assert result.complete
                snapshot = registry.snapshot()
            # the deterministic subset: what went on the wire in-order
            # (completion-handshake retries are timing-dependent)
            return {
                kind: snapshot.value("net.frames_tx", kind=kind)
                for kind in ("data", "poll", "announce")
            }

        assert stream_counters() == stream_counters()
