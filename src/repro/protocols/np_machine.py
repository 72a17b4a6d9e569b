"""Protocol NP's sender and receiver machines — no I/O, no clock.

Protocol NP's sender (Section 5.1) has one rule: stream every
transmission group (TG) once — ``k`` data packets then ``POLL(tg, k, 1)``
— and answer a round's NAKs with ``max(needed)`` fresh parities and the
next round's poll, ahead of the rest of the stream.
:class:`NPRepairMachine` holds exactly that: each group's round, parity
cursor, ARQ cursor and abandon flag, the FIFO of aggregation windows,
one repair queue served ahead of a stream cursor, and the counters the
drivers report.  It takes ``now`` on its inputs and never reads a clock.

Two drivers run it:

* :class:`~repro.protocols.np_protocol.NPSender` on the simulator: a
  window of 0, woken right after each NAK, polls sent without taking a
  transmission slot;
* :class:`~repro.net.session.SenderSession` on sockets: a window of
  ``nak_aggregation``, each :meth:`~NPRepairMachine.pop` behind the
  pacer, every frame fanned out to the members.

The rules (DESIGN.md §6):

* A NAK of the group's current round (or of a later one, clamped to it)
  raises the round's shortfall to ``min(needed, k)``; the first opens a
  window.  When it closes, ``max(needed)`` repairs — fresh parities while
  the ``h`` last, then ARQ copies of the originals, copy ``c`` carrying
  generation ``1 + c // k`` — and ``POLL(tg, needed, round + 1)`` join the
  repair queue.  The round number advances when that poll leaves the
  queue; until then NAKs of the round are absorbed.
* A NAK of an earlier round is stale: it queues ``POLL(tg, 0, round)``
  unless a round or a re-poll of the group is already queued, at most one
  per window.
* A window that closes at ``max_rounds`` (0 = unlimited) abandons the
  group: :class:`~repro.protocols.packets.GroupAbort` goes out at once
  through ``tell``, and is re-told, at most once per window, to any NAK
  of the group that follows.

The receiver buffers a group's packets, answers ``POLL(tg, s, r)`` with
the number it still lacks and decodes once it holds any ``k``; that
group store is :class:`NPReceiveMachine`.  *When* to NAK is left to its
drivers: the simulator's :class:`~repro.protocols.np_protocol.NPReceiver`,
the sockets' fetch receiver and :class:`~repro.protocols.fec1.Fec1Receiver`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.fec.block import BlockDecoder, BlockEncoder, join_stream
from repro.fec.rse import RSECodec
from repro.protocols.packets import (
    DataPacket,
    GroupAbort,
    ParityPacket,
    Poll,
    checksum_of,
)

__all__ = ["Arrival", "NPReceiveMachine", "NPRepairMachine"]


@dataclass
class _Group:
    """Repair-round state of one transmission group."""

    round: int = 1
    #: largest shortfall reported for the current round
    needed: int = 0
    #: the round's window is open, or its poll has not left the queue
    in_flight: bool = False
    repoll_queued: bool = False
    next_parity: int = 0
    #: ARQ copies of the originals queued so far
    copies: int = 0
    #: last re-poll or abort re-tell (one per window)
    last_told: float = float("-inf")
    abandoned: bool = False


class NPRepairMachine:
    """NP's repair rounds over ``encoder``'s groups.

    ``window`` is the aggregation window in seconds; ``tell(packet)``
    sends a control frame at once (the group aborts).  ``stamp`` puts a
    payload CRC on every data and parity frame.  ``proactive(available)``,
    called when the stream reaches a group's first frame, returns how many
    of the ``available`` parities go out with its data (default none).
    """

    def __init__(
        self,
        encoder: BlockEncoder,
        max_rounds: int,
        window: float,
        tell: Callable[[object], None],
        stamp: bool = False,
        proactive: Callable[[int], int] | None = None,
    ):
        self.encoder = encoder
        self.k = encoder.k
        self.h = encoder.h
        self.max_rounds = max_rounds
        self.window = window
        self.tell = tell
        self.stamp = stamp
        self.proactive = proactive
        self.n_groups = len(encoder)
        self._groups = [_Group() for _ in range(self.n_groups)]
        #: frames of closed windows and re-polls, served ahead of the stream
        self._repairs: deque = deque()
        #: ``(close_at, tg)`` of the open windows, in closing order
        self._windows: deque[tuple[float, int]] = deque()
        # the stream cursor: group, frame within it, and the group's
        # proactive parities as (first parity index, count)
        self._stream_tg = 0
        self._stream_index = 0
        self._stream_parities = (0, 0)
        self.rounds_served = 0
        self.parities_sent = 0
        self.arq_fallbacks = 0
        self.naks_received = 0
        self.stale_naks = 0
        self.repolls = 0

    @property
    def streamed(self) -> bool:
        """Whether the stream cursor has handed out every group."""
        return self._stream_tg == self.n_groups

    @property
    def has_repair(self) -> bool:
        """Whether a repair, poll or re-poll is queued."""
        return bool(self._repairs)

    @property
    def has_frame(self) -> bool:
        """Whether :meth:`pop` has a frame to hand out."""
        return bool(self._repairs) or self._stream_tg < self.n_groups

    @property
    def abandoned_groups(self) -> tuple[int, ...]:
        """Groups abandoned at ``max_rounds``, ascending."""
        groups = self._groups
        return tuple(tg for tg, group in enumerate(groups) if group.abandoned)

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def _data(self, tg: int, index: int, generation: int = 0) -> DataPacket:
        payload = self.encoder.data_packet(tg, index)
        checksum = checksum_of(payload) if self.stamp else None
        return DataPacket(tg, index, payload, generation, checksum)

    def _parity(self, tg: int, index: int) -> ParityPacket:
        payload = self.encoder.parity_packet(tg, index - self.k)
        checksum = checksum_of(payload) if self.stamp else None
        return ParityPacket(tg, index, payload, checksum)

    def pop(self):
        """The next frame — repairs first, then the stream — or ``None``."""
        if self._repairs:
            packet = self._repairs.popleft()
            kind = type(packet)
            if kind is ParityPacket:
                self.parities_sent += 1
            elif kind is DataPacket:
                self.arq_fallbacks += 1
            else:
                group = self._groups[packet.tg]
                if packet.round > group.round:  # the round's own poll
                    group.round = packet.round
                    group.needed = 0
                    group.in_flight = False
                else:
                    group.repoll_queued = False
            return packet
        tg = self._stream_tg
        if tg == self.n_groups:
            return None
        k, index = self.k, self._stream_index
        if index == 0 and self.proactive is not None:
            group = self._groups[tg]
            count = self.proactive(self.h - group.next_parity)
            self._stream_parities = (group.next_parity, count)
            group.next_parity += count
            # the burst's parities in one product
            self.encoder.encode_parities(tg, group.next_parity)
        first, count = self._stream_parities
        self._stream_index += 1
        if index < k:
            return self._data(tg, index)
        if index < k + count:
            return self._parity(tg, first + index)
        self._stream_tg += 1
        self._stream_index = 0
        self._stream_parities = (0, 0)
        return Poll(tg, k + count, 1)

    # ------------------------------------------------------------------
    # feedback
    # ------------------------------------------------------------------
    def on_nak(self, tg: int, needed: int, round_index: int, now: float) -> None:
        """One intact NAK; a window it opens closes at ``now + window``."""
        self.naks_received += 1
        if not 0 <= tg < self.n_groups or needed < 1:
            return
        group = self._groups[tg]
        if group.abandoned:
            # the abort datagram can be lost too: re-tell it
            if now - group.last_told >= self.window:
                group.last_told = now
                self.tell(GroupAbort(tg, group.round))
            return
        if round_index < group.round:
            # the receiver missed this round's poll: re-solicit under the
            # current round instead of repairing again
            self.stale_naks += 1
            if (
                not group.in_flight
                and not group.repoll_queued
                and now - group.last_told >= self.window
            ):
                group.last_told = now
                group.repoll_queued = True
                self.repolls += 1
                self._repairs.append(Poll(tg, 0, group.round))
            return
        # a receiver is never short more than k: clamp forged shortfalls
        group.needed = max(group.needed, min(needed, self.k))
        if not group.in_flight:
            group.in_flight = True
            self._windows.append((now + self.window, tg))

    def wake(self, now: float) -> None:
        """Close every window due by ``now``, in the order they opened."""
        windows = self._windows
        while windows and windows[0][0] <= now:
            self._close(windows.popleft()[1])

    def next_wake(self) -> float | None:
        """When the next window closes; ``None`` with none open."""
        return self._windows[0][0] if self._windows else None

    def _close(self, tg: int) -> None:
        """Queue the round's ``max(needed)`` repairs and its closing poll."""
        group = self._groups[tg]
        if self.max_rounds and group.round >= self.max_rounds:
            group.abandoned = True
            self.tell(GroupAbort(tg, group.round))
            return
        self.rounds_served += 1
        k, repairs = self.k, self._repairs
        # the round's fresh parities in one product
        self.encoder.encode_parities(
            tg, min(group.next_parity + group.needed, self.h)
        )
        for _ in range(group.needed):
            if group.next_parity < self.h:
                repairs.append(self._parity(tg, k + group.next_parity))
                group.next_parity += 1
            else:
                # parity budget dry: ARQ fallback — cycle the originals,
                # each pass over them a new generation
                copy = group.copies
                group.copies += 1
                repairs.append(self._data(tg, copy % k, 1 + copy // k))
        repairs.append(Poll(tg, group.needed, group.round + 1))


class Arrival:
    """What :meth:`NPReceiveMachine.on_payload` did with a packet (plain
    constants: an ``enum`` member costs several times more to look up on
    the per-packet path)."""

    VOID = "its group is delivered or abandoned already"
    DUPLICATE = "its group holds the index already"
    NEW = "buffered; its group is still short"
    DECODED = "buffered; its group decoded"


class NPReceiveMachine:
    """NP's receive side over ``n_groups`` groups of ``k`` packets.

    ``delivered`` maps each group to its ``k`` packets, reconstructed
    when it decodes; ``rounds`` holds the highest poll round heard per
    group.  A group's decoder opens on its first accepted payload.
    """

    def __init__(
        self, k: int, codec: RSECodec, n_groups: int, packet_size: int
    ):
        self.k = k
        self.codec = codec
        self.n_groups = n_groups
        self.packet_size = packet_size
        self._decoders: dict[int, BlockDecoder] = {}
        self.buffered_packets = 0
        self.packets_reconstructed = 0
        self.delivered: dict[int, list[bytes]] = {}
        self.abandoned: set[int] = set()
        self.rounds: dict[int, int] = {}

    @property
    def open_groups(self) -> int:
        """Groups holding packets, not yet decoded."""
        return len(self._decoders)

    @property
    def complete(self) -> bool:
        return len(self.delivered) == self.n_groups

    @property
    def settled(self) -> bool:
        """Whether every group is delivered or abandoned."""
        return len(self.delivered) + len(self.abandoned) >= self.n_groups

    def is_settled(self, tg: int) -> bool:
        return tg in self.delivered or tg in self.abandoned

    def missing_groups(self) -> tuple[int, ...]:
        """Groups not delivered, abandoned ones included."""
        delivered = self.delivered
        return tuple(tg for tg in range(self.n_groups) if tg not in delivered)

    def unsettled_groups(self) -> list[int]:
        return [tg for tg in range(self.n_groups) if not self.is_settled(tg)]

    def round(self, tg: int) -> int:
        """The highest poll round heard for ``tg`` (1 before any)."""
        return self.rounds.get(tg, 1)

    def missing(self, tg: int) -> int:
        """Packets ``tg`` lacks: ``k`` before its first, 0 once settled."""
        if tg in self.delivered or tg in self.abandoned:
            return 0
        decoder = self._decoders.get(tg)
        return self.k if decoder is None else decoder.missing

    def on_payload(self, tg: int, index: int, payload) -> str:
        """Buffer one intact data or parity packet of ``tg``; returns an
        :class:`Arrival` constant."""
        if tg in self.delivered or tg in self.abandoned:
            return Arrival.VOID
        decoder = self._decoders.get(tg)
        if decoder is None:
            decoder = self._decoders[tg] = BlockDecoder(self.k, self.codec)
        elif index in decoder.received:
            return Arrival.DUPLICATE
        if not decoder.add(index, payload):
            self.buffered_packets += 1
            return Arrival.NEW
        self.packets_reconstructed += decoder.decoding_work()
        self.delivered[tg] = decoder.reconstruct()
        del self._decoders[tg]
        self.buffered_packets -= len(decoder.received) - 1
        return Arrival.DECODED

    def on_poll(self, tg: int, round_index: int) -> int:
        """Remember the poll's round; returns :meth:`missing`, or 0 for a
        poll of a round below the highest heard: a NAK quoting that round
        is stale to the sender, which would answer it with a re-poll."""
        heard = self.rounds.get(tg, 1)
        self.rounds[tg] = max(heard, round_index)
        return 0 if round_index < heard else self.missing(tg)

    def on_abort(self, tg: int) -> bool:
        """The sender gave ``tg`` up; returns whether that settled it."""
        if tg in self.delivered or tg in self.abandoned:
            return False
        self.abandoned.add(tg)
        decoder = self._decoders.pop(tg, None)
        if decoder is not None:
            self.buffered_packets -= len(decoder.received)
        return True

    def crash(self) -> None:
        """Forget the open groups and the rounds heard."""
        self._decoders.clear()
        self.buffered_packets = 0
        self.rounds.clear()

    def assemble(self, total_length: int | None = None) -> bytes:
        """The byte stream, zero-filled over every undelivered group."""
        blank = [bytes(self.packet_size)] * self.k
        groups = [self.delivered.get(tg, blank) for tg in range(self.n_groups)]
        return join_stream(groups, total_length)
