"""Differential test: one NAK script through both drivers of the NP machine.

The simulator's ``NPSender`` and the sockets' ``SenderSession`` run the
same repair machine.  Fed the same NAKs — the session at an aggregation
window of 0, woken after every NAK and drained after every burst, which
is what the simulator's driver does — they must put the same frames on
the wire, in the same order, down to ``sent`` and ``generation``.

The script walks every rule the two senders once disagreed on: a NAK of
the current round, a stale NAK after the round's poll went out, stale
NAKs back to back and while a re-poll is queued, a current NAK behind a
queued re-poll, a NAK from a round ahead, a forged ``needed``, running
out of ``h`` into ARQ copies, and the ``max_rounds`` abort with its
re-tell.
"""

import numpy as np

from repro.net.session import SenderSession
from repro.net.supervision import NetConfig
from repro.protocols.np_protocol import NPConfig, NPSender
from repro.protocols.packets import Nak
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork

K, H, PACKET, MAX_ROUNDS = 3, 2, 8, 4
DATA = bytes(range(2 * K * PACKET))  # two groups
MEMBER = ("127.0.0.1", 40001)
NOW = 100.0

#: bursts of NAKs; each burst is delivered back to back, then drained
SCRIPT = [
    [Nak(0, 2, 1)],  # current: parities 3 and 4, then POLL(0, 2, 2)
    [Nak(0, 1, 1)],  # stale after the poll went out: re-poll
    [Nak(0, 1, 1)],  # stale again, once the re-poll has left
    [Nak(0, 1, 1), Nak(0, 1, 1)],  # back to back: one re-poll
    [Nak(0, 1, 5)],  # a round ahead: clamped, served (h is dry: ARQ)
    [Nak(0, 2**32 - 1, 3)],  # forged: k copies, crossing a generation
    [Nak(0, 1, 4)],  # round 4 of max_rounds 4: the group is abandoned
    [Nak(0, 1, 4)],  # the abort is re-told
    [Nak(1, 1, 1)],  # group 1, current
    [Nak(1, 1, 1), Nak(1, 1, 1), Nak(1, 2, 2)],  # re-poll queued, then
    # a stale NAK it blocks and a current one it does not
]


def frame(packet):
    return (
        type(packet).__name__,
        packet.tg,
        getattr(packet, "index", None),
        getattr(packet, "round", None),
        getattr(packet, "sent", None),
        getattr(packet, "generation", None),
    )


def simulator_frames() -> list:
    sim = Simulator()
    network = MulticastNetwork(
        sim, BernoulliLoss(1, 0.0), np.random.default_rng(0), latency=0.001
    )
    received: list = []
    network.attach_receiver(received.append)
    config = NPConfig(k=K, h=H, packet_size=PACKET, max_rounds=MAX_ROUNDS)
    sender = NPSender(sim, network, DATA, config)
    sender.start()
    sim.run()
    for burst in SCRIPT:
        for nak in burst:
            sender.on_feedback(nak)
        sim.run()
    return [frame(packet) for packet in received]


def session_frames() -> list:
    config = NetConfig(
        k=K, h=H, packet_size=PACKET, max_rounds=MAX_ROUNDS,
        nak_aggregation=0.0,
    )
    sent: list = []
    session = SenderSession(
        session_id=1,
        group=0,
        data=DATA,
        config=config,
        send=lambda packet, addr: sent.append(packet),
        now=NOW,
    )
    assert session.add_member(MEMBER, NOW)
    session.start()
    del sent[:]  # the announce

    def drain():
        while session.has_frame:
            session.fanout(session.pop())

    drain()
    for burst in SCRIPT:
        for nak in burst:
            session.on_frame(nak, MEMBER, NOW)
            session.wake(NOW)
        drain()
    return [frame(packet) for packet in sent]


def test_both_drivers_put_the_same_frames_on_the_wire():
    simulated = simulator_frames()
    assert simulated == session_frames()
    # the script reached every rule it is meant to
    kinds = [(f[0], f[4], f[5]) for f in simulated]  # (type, sent, generation)
    assert ("Poll", 0, None) in kinds  # a re-poll
    assert ("DataPacket", None, 2) in kinds  # a second ARQ generation
    assert [f[0] for f in simulated].count("GroupAbort") == 2  # + re-tell
