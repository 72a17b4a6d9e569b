"""Burst drain: every socket the transport opens reads all it was sent.

Each endpoint -- the server, a fetching receiver, the chaos proxy's
listen socket and its per-client upstream socket -- is fed bursts of
``BURST`` datagrams per loop turn for ``TURNS`` turns.  Read one
datagram per turn and the queue grows by a burst a turn until the
kernel drops what no longer fits in the receive buffer (the socket's
``drops`` column in ``/proc/net/udp``); read the queue empty on every
wake-up and nothing is lost.  The datagrams are junk to the endpoints,
so each one that is read shows up as a counted frame error (or, at the
proxy, which never decodes, as a forwarded datagram).
"""

import asyncio
import os
import socket

import pytest

from repro.net import ChaosProxy, NetConfig, NetServer, fetch
from repro.net.wire import decode_frame, encode_frame
from repro.protocols.packets import (
    DataPacket,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
)
from tests.conftest import udp_drops

pytestmark = pytest.mark.timeout(60)

BURST, TURNS, SIZE = 64, 8, 512
TOTAL = BURST * TURNS
JUNK = bytes(SIZE)
ON_LINUX = os.path.exists("/proc/net/udp")


def raw_socket() -> socket.socket:
    """A test-side socket the transport under test never reads."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


async def flood(sock: socket.socket, target) -> None:
    """``BURST`` datagrams per loop turn, ``TURNS`` turns."""
    for _ in range(TURNS):
        for _ in range(BURST):
            sock.sendto(JUNK, target)
        await asyncio.sleep(0)


async def settle(count) -> int:
    """Wait (bounded) until ``count()`` reaches ``TOTAL``."""
    for _ in range(500):
        if count() >= TOTAL:
            break
        await asyncio.sleep(0.01)
    return count()


def assert_no_drops(port: int) -> None:
    if ON_LINUX:
        assert udp_drops().get(port, 0) == 0, "the kernel dropped datagrams"


def run(scenario):
    return asyncio.run(asyncio.wait_for(scenario(), timeout=30.0))


def test_server_socket():
    async def scenario():
        server = NetServer(b"x" * 64, NetConfig(k=2, h=2, packet_size=32))
        await server.start()
        blaster = raw_socket()
        try:
            await flood(blaster, server.address)
            read = await settle(lambda: server.frame_errors)
            assert_no_drops(server.address[1])
        finally:
            blaster.close()
            await server.close()
        return read

    assert run(scenario) == TOTAL


def test_proxy_listen_socket():
    async def scenario():
        sink = raw_socket()
        proxy = ChaosProxy(sink.getsockname())
        await proxy.start()
        blaster = raw_socket()
        try:
            await flood(blaster, proxy.address)
            read = await settle(
                lambda: proxy.stats.get("backward.forwarded", 0)
            )
            assert_no_drops(proxy.address[1])
        finally:
            blaster.close()
            await proxy.close()
            sink.close()
        return read

    assert run(scenario) == TOTAL


def test_proxy_upstream_socket():
    async def scenario():
        loop = asyncio.get_running_loop()
        server = raw_socket()
        proxy = ChaosProxy(server.getsockname())
        await proxy.start()
        client = raw_socket()
        try:
            client.sendto(b"join", proxy.address)
            _, leg = await asyncio.wait_for(
                loop.sock_recvfrom(server, 64), timeout=5.0
            )
            await flood(server, leg)
            read = await settle(
                lambda: proxy.stats.get("forward.forwarded", 0)
            )
            assert_no_drops(leg[1])
        finally:
            client.close()
            await proxy.close()
            server.close()
        return read

    assert run(scenario) == TOTAL


def test_fetch_socket():
    """A scripted server announces a one-packet transfer, floods the
    receiver, then sends the packet; the receiver's socket is inspected
    when its completion arrives, while it waits for the fin."""
    config = NetConfig(k=1, h=0, packet_size=SIZE)
    payload = bytes(range(256)) * (SIZE // 256)

    async def scenario():
        loop = asyncio.get_running_loop()
        server = raw_socket()
        receiver = asyncio.ensure_future(
            fetch(*server.getsockname(), config=config, deadline=20.0)
        )
        try:
            while True:
                data, peer = await loop.sock_recvfrom(server, 2048)
                if isinstance(decode_frame(data).packet, SessionJoin):
                    break
            server.sendto(
                encode_frame(
                    SessionAnnounce(
                        k=1, h=0, packet_size=SIZE, n_groups=1,
                        total_length=SIZE,
                    ),
                    1,
                ),
                peer,
            )
            await flood(server, peer)
            server.sendto(encode_frame(DataPacket(0, 0, payload), 1), peer)
            while True:
                data, _ = await loop.sock_recvfrom(server, 2048)
                if isinstance(decode_frame(data).packet, SessionComplete):
                    break
            assert_no_drops(peer[1])
            server.sendto(encode_frame(SessionFin("complete"), 1), peer)
            return await receiver
        finally:
            receiver.cancel()
            server.close()

    result = run(scenario)
    assert result.data == payload
    assert result.frame_errors == TOTAL
