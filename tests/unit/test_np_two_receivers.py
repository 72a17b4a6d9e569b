"""One inbound script, two NP receivers: the simulator's and the sockets'.

Both keep their groups in
:class:`~repro.protocols.np_machine.NPReceiveMachine`; only the NAK timing
differs (slotting on the simulator, an immediate answer on sockets).  The
script covers a loss repaired by parity, a duplicate, a poll for a group
never seen, a ``GroupAbort`` followed by late parities and reordered
polls.  The two receivers must end with the same delivered and abandoned
groups, the same bytes and the same round memory, and answer every poll
with a NAK of the same ``needed``.
"""

import numpy as np
import pytest

from repro.fec.block import BlockEncoder
from repro.net.endpoints import _ReceiverProtocol
from repro.net.supervision import NetConfig
from repro.net.wire import decode_frame, encode_frame
from repro.protocols.np_protocol import NPConfig, NPReceiver
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    Nak,
    ParityPacket,
    Poll,
    SessionAnnounce,
)
from repro.sim.engine import Simulator

K, H, SIZE, GROUPS = 4, 4, 32, 4
PAYLOAD = bytes(range(256)) * 2  # 4 groups x 4 x 32 bytes

#: (kind, tg, index | (sent, round))
SCRIPT = [
    # group 0 loses index 2; one parity repairs it
    ("data", 0, 0), ("data", 0, 1), ("data", 0, 3),
    ("poll", 0, (K, 1)),
    ("parity", 0, 4),
    # group 1 holds one index twice
    ("data", 1, 0), ("data", 1, 1), ("data", 1, 1), ("data", 1, 2),
    ("poll", 1, (K, 1)),
    # nothing of group 3 has arrived
    ("poll", 3, (K, 1)),
    # group 2 is abandoned; its late parities are void
    ("data", 2, 0), ("data", 2, 1),
    ("poll", 2, (K, 1)),
    ("abort", 2, None),
    ("parity", 2, 4), ("parity", 2, 5),
    ("poll", 2, (2, 2)),
    # group 1: round 2's poll overtakes round 1's
    ("poll", 1, (1, 2)),
    ("poll", 1, (K, 1)),
    ("data", 1, 3),
    # group 3 decodes from data and parities
    ("data", 3, 1), ("parity", 3, 5), ("data", 3, 2), ("parity", 3, 6),
]

#: ``needed`` of the NAK answering each poll of the script, in order
#: (the polls of a settled group get none, nor does the round-1 poll of
#: group 1 that arrives after its round-2 poll: its NAK would be stale)
POLL_NAKS = [1, 1, K, 2, 1]


def _packet(encoder: BlockEncoder, kind: str, tg: int, arg):
    if kind == "data":
        return DataPacket(tg, arg, encoder.data_packet(tg, arg))
    if kind == "parity":
        return ParityPacket(tg, arg, encoder.parity_packet(tg, arg - K))
    if kind == "poll":
        return Poll(tg, *arg)
    return GroupAbort(tg, 3)


class _Network:
    """What an :class:`NPReceiver` needs of the network: its NAKs are
    recorded, nothing is delivered."""

    latency = 0.0

    def __init__(self):
        self.naks: list[Nak] = []

    def attach_receiver(self, handler) -> int:
        return 0

    def multicast_feedback(self, packet, origin: int) -> None:
        self.naks.append(packet)


class _Transport:
    def __init__(self):
        self.sent: list = []

    def sendto(self, data: bytes) -> None:
        self.sent.append(decode_frame(data).packet)


def _sim_receiver():
    sim, network = Simulator(), _Network()
    receiver = NPReceiver(
        sim, network, GROUPS, NPConfig(k=K, h=H, packet_size=SIZE),
        rng=np.random.default_rng(7),
    )

    def feed(packet) -> list[Nak]:
        """Hand one packet over and run the simulator to idle."""
        before = len(network.naks)
        receiver.on_packet(packet)
        sim.run()
        return network.naks[before:]

    return receiver, feed


def _net_receiver():
    protocol = _ReceiverProtocol(
        NetConfig(k=K, h=H, packet_size=SIZE), group=0
    )
    transport = protocol.transport = _Transport()
    announce = SessionAnnounce(
        k=K, h=H, packet_size=SIZE, n_groups=GROUPS,
        total_length=len(PAYLOAD),
    )
    clock = [50.0]

    def feed(packet) -> list[Nak]:
        """Hand one packet over the wire, 1 ms after the last."""
        before = len(transport.sent)
        clock[0] += 0.001
        protocol.datagram_received(
            encode_frame(packet, 1), ("127.0.0.1", 1), clock[0]
        )
        return [p for p in transport.sent[before:] if isinstance(p, Nak)]

    feed(announce)
    assert protocol.machine is not None
    return protocol, feed


@pytest.fixture(scope="module")
def runs():
    encoder = BlockEncoder(PAYLOAD, k=K, h=H, packet_size=SIZE)
    sim, sim_feed = _sim_receiver()
    net, net_feed = _net_receiver()
    answers = {"sim": [], "net": []}
    for kind, tg, arg in SCRIPT:
        packet = _packet(encoder, kind, tg, arg)
        for side, feed in (("sim", sim_feed), ("net", net_feed)):
            naks = feed(packet)
            if kind == "poll":
                # the sockets' receiver also answers the polls a poll of
                # a later group implies; only the poll's own NAK counts
                answers[side] += [
                    nak.needed
                    for nak in naks
                    if (nak.tg, nak.round) == (tg, arg[1])
                ]
    return sim.machine, net.machine, answers


def test_each_poll_is_answered_for_the_same_shortfall(runs):
    _, _, answers = runs
    assert answers["sim"] == answers["net"] == POLL_NAKS


def test_same_groups_delivered_and_abandoned(runs):
    sim, net, _ = runs
    assert set(sim.delivered) == set(net.delivered) == {0, 1, 3}
    assert sim.abandoned == net.abandoned == {2}
    assert sim.missing_groups() == net.missing_groups() == (2,)
    assert sim.open_groups == net.open_groups == 0


def test_same_bytes(runs):
    sim, net, _ = runs
    group = K * SIZE
    expected = bytearray(PAYLOAD)
    expected[2 * group: 3 * group] = bytes(group)  # the abandoned extent
    assert sim.assemble(len(PAYLOAD)) == bytes(expected)
    assert net.assemble(len(PAYLOAD)) == bytes(expected)


def test_same_round_memory(runs):
    sim, net, _ = runs
    assert [sim.round(tg) for tg in range(GROUPS)] == [1, 2, 2, 1]
    assert [net.round(tg) for tg in range(GROUPS)] == [1, 2, 2, 1]
