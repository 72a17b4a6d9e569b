"""The package's one UDP read path: drain the socket on every wake-up.

asyncio's datagram transport reads one datagram per socket per loop
turn.  When a sender's bursts land in the same turn (four members'
fan-out through one proxy, or several sessions' bursts) the queue
grows by a burst per turn and shrinks by one, and the kernel drops what
no longer fits in the receive buffer -- loss the channel never made.  :class:`DatagramSocket` is a non-blocking socket watched with the
public ``loop.add_reader``; each time it becomes readable the callback
reads every queued datagram, up to :data:`DRAIN_CAP`, before the loop
moves on.

Sending is a plain ``sendto``; a full send buffer queues the datagram
and flushes it when the socket is writable again, as asyncio's own
transport does, so the sending side manufactures no loss either.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Callable

__all__ = ["DRAIN_CAP", "DatagramSocket", "open_datagram"]

Address = tuple

#: datagrams read per wake-up before the loop gets its turn back: more
#: than a default 208 KiB receive buffer holds of 1 KiB frames, so one
#: wake-up empties what was queued when it fired, and a flood still
#: cannot keep timers and the other sockets waiting for long
DRAIN_CAP = 256
#: largest UDP payload
_MAX_DATAGRAM = 0xFFFF


class DatagramSocket:
    """A UDP socket whose reader empties the receive queue per wake-up.

    ``on_datagram(data, addr)`` is called for each datagram, inside the
    running loop the socket was built in.  A connected socket hears only
    its peer, so it reads with ``recv`` and passes the peer's address
    instead of building one per datagram.  Errors the kernel reports on
    a read or a send (a connected peer that went away) cost that one
    datagram, as asyncio's ``error_received`` did here.
    """

    def __init__(
        self,
        sock: socket.socket,
        on_datagram: Callable[[bytes, Address], None],
    ):
        sock.setblocking(False)
        self._sock: socket.socket | None = sock
        self._fd = sock.fileno()
        self._on_datagram = on_datagram
        try:
            self._peer: Address | None = sock.getpeername()
        except OSError:
            self._peer = None  # not connected
        self._loop = asyncio.get_running_loop()
        #: datagrams waiting for room in the send buffer
        self._backlog: deque[tuple[bytes, Address | None]] = deque()
        self._loop.add_reader(self._fd, self._drain)

    @classmethod
    def bound(
        cls,
        family: int,
        on_datagram: Callable[[bytes, Address], None],
        local: Address | None = None,
        remote: Address | None = None,
    ) -> "DatagramSocket":
        """A socket of ``family`` bound to ``local`` and/or connected to
        ``remote`` (both already resolved)."""
        sock = socket.socket(family, socket.SOCK_DGRAM)
        try:
            if local is not None:
                sock.bind(local)
            if remote is not None:
                sock.connect(remote)
            return cls(sock, on_datagram)
        except BaseException:
            sock.close()
            raise

    @property
    def sockname(self) -> Address:
        if self._sock is None:
            raise RuntimeError("socket closed")
        return self._sock.getsockname()

    def _drain(self) -> None:
        sock, deliver, peer = self._sock, self._on_datagram, self._peer
        for _ in range(DRAIN_CAP):
            try:
                if peer is None:
                    data, addr = sock.recvfrom(_MAX_DATAGRAM)
                else:
                    data, addr = sock.recv(_MAX_DATAGRAM), peer
            except BlockingIOError:
                return
            except OSError:
                continue  # a queued ICMP error, reported on this read
            deliver(data, addr)
            if self._sock is None:
                return  # the callback closed the socket

    def sendto(self, data: bytes, addr: Address | None = None) -> None:
        """Send one datagram (``addr`` is None on a connected socket)."""
        if self._sock is None:
            return
        if self._backlog:
            self._backlog.append((data, addr))
            return
        try:
            self._send(data, addr)
        except BlockingIOError:
            self._backlog.append((data, addr))
            self._loop.add_writer(self._fd, self._flush)
        except OSError:
            pass

    def _send(self, data: bytes, addr: Address | None) -> None:
        if addr is None:
            self._sock.send(data)
        else:
            self._sock.sendto(data, addr)

    def _flush(self) -> None:
        while self._backlog:
            data, addr = self._backlog[0]
            try:
                self._send(data, addr)
            except BlockingIOError:
                return
            except OSError:
                pass
            self._backlog.popleft()
        self._loop.remove_writer(self._fd)

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        self._loop.remove_reader(self._fd)
        if self._backlog:
            self._backlog.clear()
            self._loop.remove_writer(self._fd)
        sock.close()


async def open_datagram(
    on_datagram: Callable[[bytes, Address], None],
    local: Address | None = None,
    remote: Address | None = None,
) -> DatagramSocket:
    """Resolve ``local`` or ``remote`` (``(host, port)``) and open a
    :class:`DatagramSocket` on the first address that binds or connects,
    as ``create_datagram_endpoint`` does."""
    host, port = remote if remote is not None else local
    loop = asyncio.get_running_loop()
    infos = await loop.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
    if not infos:
        raise OSError(f"getaddrinfo({host!r}) returned nothing")
    error: OSError | None = None
    for family, _, _, _, address in infos:
        try:
            if remote is not None:
                return DatagramSocket.bound(family, on_datagram, remote=address)
            return DatagramSocket.bound(family, on_datagram, local=address)
        except OSError as exc:
            error = exc
    raise error
