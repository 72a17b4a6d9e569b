"""Property: extra NAKs cost the sender polls, never repairs.

The receiver answers polls it did not hear (implied by the stream's
position) and repeats a NAK once on the measured response time, so the
sender sees NAKs that are early, duplicated, or a round behind or ahead.
What keeps that free in transmissions per packet is a property of
``SenderSession`` alone, pinned here against a model: whatever the
interleaving, each served round sends exactly the largest shortfall among
the NAKs that reached its open window, stale NAKs buy at most a poll, and
a group's round number only moves forward.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.session import DRAINING, STREAMING, SenderSession
from repro.net.supervision import NetConfig
from repro.protocols.packets import (
    DataPacket,
    Nak,
    ParityPacket,
    Poll,
)

K, H, GROUPS = 4, 2, 3  # h < k: a round can cross into the ARQ fallback
MEMBERS = [("127.0.0.1", 40001 + i) for i in range(4)]

#: windows close as soon as the session is woken, and a "turn" fans out
#: everything queued, so the script decides exactly which NAKs share a
#: window
CONFIG = NetConfig(
    k=K, h=H, packet_size=16, max_rounds=0,
    nak_aggregation=0.0, pace_interval=0.0, pace_burst=10_000,
)

naks = st.tuples(
    st.just("nak"),
    st.integers(0, len(MEMBERS) - 1),
    st.integers(0, GROUPS - 1),
    st.integers(1, K),  # needed
    st.sampled_from((-1, 0, 1)),  # round, relative to the group's current
    st.integers(1, 3),  # copies: a duplicated NAK
)
steps = st.lists(st.one_of(naks, st.just(("turn",))), max_size=40)


NOW = 100.0


def settle(session: SenderSession) -> None:
    """Close every armed window and fan out its flush to the end (the
    stream cursor, in STREAMING, stays where it is)."""
    session.wake(NOW)
    while session.machine.has_repair:
        session.fanout(session.pop())
    if any(group.in_flight for group in session.machine._groups):
        raise AssertionError("repair flushes did not settle")


def drive(script, members: int, state: str):
    sent: list = []
    session = SenderSession(
        session_id=1,
        group=0,
        data=bytes(K * 16 * GROUPS),
        config=CONFIG,
        send=lambda packet, *addrs: sent.extend(
            (packet, addr) for addr in addrs
        ),
        now=NOW,
    )
    for addr in MEMBERS[:members]:
        assert session.add_member(addr, NOW)
    session.state = state
    del sent[:]

    # the model: a group's round, and the largest shortfall in its window
    rounds = [1] * GROUPS
    window: dict[int, int] = {}
    repairs = served = 0

    def close_windows():
        nonlocal repairs, served
        before = len(sent)
        settle(session)
        flushed = sent[before:]
        # a NAK a round behind buys at most one re-poll of the round
        repolls = [
            packet for packet, addr in flushed
            if addr == MEMBERS[0] and isinstance(packet, Poll)
            and packet.sent == 0
        ]
        assert all(packet.round == rounds[packet.tg] for packet in repolls)
        assert len({packet.tg for packet in repolls}) == len(repolls)
        for tg, needed in window.items():
            frames = [
                packet for packet, addr in flushed
                if isinstance(packet, (ParityPacket, DataPacket))
                and packet.tg == tg and addr == MEMBERS[0]
            ]
            assert len(frames) == needed, "one window, one max(needed)"
            rounds[tg] += 1
            assert (Poll(tg, needed, rounds[tg]), MEMBERS[0]) in flushed
            repairs += needed
            served += 1
        window.clear()

    for step in script:
        if step[0] == "turn":
            close_windows()
            continue
        _, member, tg, needed, offset, copies = step
        if member >= members:
            continue
        before = len(sent)
        nak = Nak(tg, needed, rounds[tg] + offset)
        for _ in range(copies):
            session.on_frame(nak, MEMBERS[member], NOW)
        # aggregated, or (a round behind) re-polled: answered at close
        assert sent[before:] == []
        if offset >= 0:
            window[tg] = max(window.get(tg, 0), needed)
        observed = [group.round for group in session.machine._groups]
        assert observed == rounds, "rounds only move when a window closes"
    close_windows()

    assert session.rounds_served == served
    assert session.parities_sent + session.arq_fallbacks == repairs
    payload_frames = sum(
        isinstance(packet, (ParityPacket, DataPacket)) for packet, _ in sent
    )
    assert payload_frames == repairs * members
    assert session.naks_received == sum(
        step[5] for step in script if step[0] == "nak" and step[1] < members
    )


@given(
    script=steps,
    members=st.integers(1, len(MEMBERS)),
    state=st.sampled_from((STREAMING, DRAINING)),
)
@settings(max_examples=150, deadline=None)
def test_each_round_sends_exactly_its_windows_largest_shortfall(
    script, members, state
):
    drive(script, members, state)
