"""The datagram path at both ends: one encode per multicast, and the
receiver handing the decoder the payload ``bytes`` it was sent."""

import asyncio
from collections import Counter

from repro import obs
from repro.fec.block import BlockEncoder
from repro.net import endpoints
from repro.net.endpoints import NetServer, _ReceiverProtocol
from repro.net.supervision import NetConfig
from repro.net.wire import encode_frame, frame_kind
from repro.protocols.packets import (
    DataPacket,
    ParityPacket,
    SessionAnnounce,
    SessionJoin,
)

MEMBERS = [("127.0.0.1", 41001 + index) for index in range(3)]
NOW = 100.0


class _Socket:
    """Records every datagram the server sends."""

    def __init__(self):
        self.sent: list = []

    def sendto(self, data: bytes, addr=None) -> None:
        self.sent.append((data, addr))


def _spawn(server: NetServer):
    """A session of the three members, its driver task cancelled: the
    test pops and fans out by hand."""

    async def spawn():
        session = server._spawn_session(SessionJoin(0, 1), MEMBERS[0], NOW)
        for task in list(server._tasks):
            task.cancel()
        await asyncio.gather(*server._tasks, return_exceptions=True)
        return session

    session = asyncio.run(spawn())
    for addr in MEMBERS[1:]:
        assert session.add_member(addr, NOW)
    session.start()
    return session


class TestFanout:
    def test_each_multicast_is_encoded_once(self, monkeypatch):
        config = NetConfig(k=4, h=4, packet_size=16)
        encoded: list = []

        def counting(packet, session_id=0):
            encoded.append(packet)
            return encode_frame(packet, session_id)

        monkeypatch.setattr(endpoints, "encode_frame", counting)
        server = NetServer(bytes(range(256)), config)
        server._socket = socket = _Socket()
        session = _spawn(server)
        del encoded[:], socket.sent[:]  # the announces and trace packets

        fanned: list = []
        with obs.capture() as registry:
            while (packet := session.pop()) is not None:
                fanned.append(packet)
                session.fanout(packet)
            snapshot = registry.snapshot()

        assert encoded == fanned
        frames = [data for data, _ in socket.sent]
        assert len(frames) == len(MEMBERS) * len(fanned)
        for index, packet in enumerate(fanned):
            copies = socket.sent[index * 3: index * 3 + 3]
            assert [addr for _, addr in copies] == MEMBERS
            assert len({data for data, _ in copies}) == 1
            assert copies[0][0] == encode_frame(packet, session.session_id)
        kinds = Counter(frame_kind(packet) for packet in fanned)
        assert set(kinds) == {"data", "poll"}
        for kind, count in kinds.items():
            assert snapshot.value("net.frames_tx", kind=kind) == 3 * count


class _Transport:
    def sendto(self, data: bytes) -> None:
        pass


class TestReceiverHandoff:
    K, H, SIZE, GROUPS = 4, 2, 32, 3

    def setup_method(self):
        config = NetConfig(k=self.K, h=self.H, packet_size=self.SIZE)
        self.payload = bytes(range(256)) + bytes(range(128))
        self.encoder = BlockEncoder(
            self.payload, k=self.K, h=self.H, packet_size=self.SIZE
        )
        self.protocol = _ReceiverProtocol(config, group=0)
        self.protocol.transport = _Transport()
        self.receive(
            SessionAnnounce(
                k=self.K, h=self.H, packet_size=self.SIZE,
                n_groups=self.GROUPS, total_length=len(self.payload),
            )
        )

    def receive(self, packet) -> None:
        self.protocol.datagram_received(
            encode_frame(packet, 1), ("127.0.0.1", 1), NOW
        )

    def test_a_whole_group_is_delivered_as_the_received_bytes(
        self, monkeypatch
    ):
        handed: list = []
        machine = self.protocol.machine
        on_payload = machine.on_payload

        def spy(tg, index, payload):
            handed.append(payload)
            return on_payload(tg, index, payload)

        def no_symbols(packet):
            raise AssertionError("a whole group needs no symbols")

        monkeypatch.setattr(machine, "on_payload", spy)
        monkeypatch.setattr(machine.codec, "_to_symbols", no_symbols)
        for index in range(self.K):
            self.receive(
                DataPacket(0, index, self.encoder.data_packet(0, index))
            )
        delivered = machine.delivered[0]
        assert all(type(payload) is bytes for payload in handed)
        assert len(delivered) == self.K
        assert all(got is sent for got, sent in zip(delivered, handed))

    def test_a_group_repaired_from_a_parity_decodes_byte_exact(self):
        for index in (0, 2, 3):
            self.receive(
                DataPacket(1, index, self.encoder.data_packet(1, index))
            )
        self.receive(
            ParityPacket(1, self.K, self.encoder.parity_packet(1, 0))
        )
        delivered = self.protocol.machine.delivered[1]
        assert delivered == self.encoder.groups[1].data
        assert all(type(packet) is bytes for packet in delivered)
