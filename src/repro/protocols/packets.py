"""Packet types exchanged by the protocol state machines.

All packets are small frozen dataclasses; payloads are ``bytes``.  The
block index convention follows the FEC block layout of Section 2.1: indices
``0..k-1`` are data packets, ``k..n-1`` parities.

Payload-bearing packets carry an optional CRC-32 ``checksum`` so bit-level
corruption (injectable via :mod:`repro.resilience.faults`) is *detected*
rather than silently decoded into garbage: a receiver that sees a checksum
mismatch discards the packet, demoting corruption to an erasure the FEC
machinery already knows how to repair.  ``checksum=None`` (the default)
means "unverifiable" and is accepted, keeping hand-built packets in tests
and third-party senders working.

Control packets (polls, NAKs, aborts, session control) are different: a
corrupted control packet cannot be demoted to an erasure — it would be
*acted on* (a flipped ``tg`` in a NAK solicits repairs for the wrong
group; a flipped ``tg`` in a :class:`GroupAbort` kills a healthy one).
They therefore carry a CRC-32 over their semantic fields, stamped
automatically at construction, and every state machine drops a control
packet whose checksum fails to verify (:func:`control_intact`).  Because
stamping happens in ``__post_init__``, call sites never change — but a
field-tampered copy (``dataclasses.replace`` carries the stale checksum)
or a bit-flipped wire frame is detected and dropped.

Integrity is verified once per packet object.  The simulator hands one
packet object to every receiver, so :func:`payload_intact` and
:func:`control_intact` remember their verdict on the frozen instance,
under a private ``__dict__`` key that is not a dataclass field: eq, hash,
``dataclasses.replace`` and ``asdict`` never see it, and a ``replace``d
copy is a new object that is checked afresh.  A control packet stamped by
its own ``__post_init__`` is intact by construction (wire-decoded ones
included: the frame CRC passed first).  Only ``bytes`` payloads are
remembered; a mutable payload is re-checked on every call.
"""

from __future__ import annotations

import dataclasses
import operator
import zlib
from dataclasses import MISSING, dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "DataPacket",
    "ParityPacket",
    "Poll",
    "Nak",
    "SelectiveNak",
    "Retransmission",
    "GroupAbort",
    "SessionJoin",
    "SessionAnnounce",
    "SessionComplete",
    "SessionFin",
    "checksum_of",
    "payload_intact",
    "payload_symbols",
    "control_checksum_of",
    "control_intact",
    "direct_init",
]


#: private ``__dict__`` key of a packet's remembered integrity verdict
_VERDICT = "_intact"


def direct_init(cls: type) -> type:
    """Give frozen dataclass ``cls`` an ``__init__`` that fills the
    instance ``__dict__`` directly, not one ``object.__setattr__`` per
    field: same parameters and defaults, ``__post_init__`` called."""
    fields = dataclasses.fields(cls)
    if any(
        not f.init or f.kw_only or f.default_factory is not MISSING
        for f in fields
    ):
        raise TypeError(f"{cls.__name__}: direct_init takes plain fields")
    names = [f.name for f in fields]
    head = f"def __init__(self, {', '.join(names)}):"
    lines = [head, "state = self.__dict__"]
    lines += [f"state[{name!r}] = {name}" for name in names]
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    namespace = {"__name__": cls.__module__}
    exec("\n    ".join(lines), namespace)
    init, generated = namespace["__init__"], cls.__init__
    init.__defaults__ = generated.__defaults__
    init.__qualname__ = generated.__qualname__
    init.__annotations__ = generated.__annotations__
    cls.__init__ = init
    return cls


def checksum_of(payload: bytes) -> int:
    """CRC-32 of a packet payload (what senders stamp on the wire)."""
    return zlib.crc32(payload)


def payload_intact(packet) -> bool:
    """True unless ``packet`` carries a checksum that fails to verify.

    The verdict over a ``bytes`` payload is remembered on the packet.
    """
    memo = getattr(packet, "__dict__", None)
    if memo is not None:
        verdict = memo.get(_VERDICT)
        if verdict is not None:
            return verdict
    checksum = getattr(packet, "checksum", None)
    if checksum is None:
        return True
    payload = packet.payload
    verdict = zlib.crc32(payload) == checksum
    if memo is not None and type(payload) is bytes:
        memo[_VERDICT] = verdict
    return verdict


def payload_symbols(packet, field) -> np.ndarray:
    """Zero-copy read-only view of a payload as GF(2^m) symbols.

    ``packet`` is a payload-bearing packet (anything with a ``payload``
    attribute) or a raw ``bytes``-like buffer.  The returned array is a
    :func:`numpy.frombuffer` *view* sharing memory with the payload — no
    byte is copied on the handoff into the codec's symbol-level API, and
    because ``bytes`` payloads are immutable the view is read-only, which
    the GF kernels respect (they never write their inputs).

    Only the byte-aligned symbol widths qualify: ``m = 8`` (one byte per
    symbol) and ``m = 16`` (two bytes, native order, matching the codec's
    ``_to_symbols`` convention).  Nibble-packed ``m = 4`` payloads need an
    unpacking copy and must go through the codec's ``bytes`` path instead.
    """
    payload = getattr(packet, "payload", packet)
    if field.m not in (8, 16):
        raise ValueError(
            f"zero-copy symbol views need byte-aligned symbols "
            f"(m in (8, 16)), not m={field.m}"
        )
    if field.m == 16 and len(payload) % 2:
        raise ValueError(
            f"payload length {len(payload)} is not a whole number of "
            f"GF(2^16) symbols"
        )
    return np.frombuffer(payload, dtype=field.dtype)


#: control packet class -> (``%`` template of its checksummed string,
#: getter of its semantic field values in declaration order)
_TEMPLATES: dict[type, tuple[str, Callable[[Any], tuple]]] = {}


def _checksum_template(cls: type) -> tuple[str, Callable[[Any], tuple]]:
    """The template whose ``%`` with the field values is exactly
    ``repr((cls.__name__, ((name, value), ...)))``, and their getter."""
    names = tuple(
        f.name for f in dataclasses.fields(cls) if f.name != "checksum"
    )
    pairs = [f"({name!r}, %r)" for name in names]
    fields = "(" + ", ".join(pairs) + ("," if len(pairs) == 1 else "") + ")"
    literal = repr(cls.__name__).replace("%", "%%")
    if len(names) > 1:
        values = operator.attrgetter(*names)
    else:  # attrgetter of one name returns the bare value, of none fails
        def values(packet) -> tuple:
            return tuple([getattr(packet, name) for name in names])
    return f"({literal}, {fields})", values


def control_checksum_of(packet) -> int:
    """CRC-32 over a control packet's semantic fields (all but ``checksum``).

    The encoding is the ``repr`` of the type name plus the ``(name,
    value)`` pairs in declaration order — deterministic across processes
    for the int/str/tuple fields control packets carry, and independent of
    the stored checksum itself.  The string is built from a per-class
    ``%r`` template rather than by ``repr`` of a fresh tuple; it is the
    same string.
    """
    cls = type(packet)
    entry = _TEMPLATES.get(cls)
    if entry is None:
        entry = _TEMPLATES[cls] = _checksum_template(cls)
    template, values = entry
    return zlib.crc32((template % values(packet)).encode("utf-8"))


def control_intact(packet) -> bool:
    """True unless ``packet``'s control checksum fails to verify.

    Packets without a ``checksum`` field (or with ``None``, e.g. rebuilt by
    old journals) are accepted as unverifiable, mirroring
    :func:`payload_intact`.  The verdict is remembered on the packet.
    """
    memo = getattr(packet, "__dict__", None)
    if memo is not None:
        verdict = memo.get(_VERDICT)
        if verdict is not None:
            return verdict
    checksum = getattr(packet, "checksum", None)
    if checksum is None:
        return True
    verdict = control_checksum_of(packet) == checksum
    if memo is not None:
        memo[_VERDICT] = verdict
    return verdict


class _AutoControlChecksum:
    """Mixin: stamp ``checksum`` from the semantic fields at construction.

    A frozen dataclass inheriting this gets a valid checksum for free when
    built normally, while ``dataclasses.replace(pkt, field=...)`` carries
    the *old* checksum into the new field set — exactly the
    corruption-to-drop semantics the receivers enforce.
    """

    def __post_init__(self) -> None:
        if self.checksum is None:
            state = self.__dict__
            state["checksum"] = control_checksum_of(self)
            # just computed from the fields it sits beside
            state[_VERDICT] = True


@direct_init
@dataclass(frozen=True)
class DataPacket:
    """An original data packet: position ``index < k`` of group ``tg``.

    ``generation`` counts retransmission incarnations of the group (0 for
    the first transmission); receivers treat all generations alike.
    """

    tg: int
    index: int
    payload: bytes = b""
    generation: int = 0
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class ParityPacket:
    """A parity packet: position ``index >= k`` of group ``tg``'s FEC block."""

    tg: int
    index: int
    payload: bytes = b""
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class Poll(_AutoControlChecksum):
    """Sender's end-of-round poll ``POLL(i, s)`` (Section 5.1).

    ``sent`` is the number of packets transmitted for the group in the round
    just finished — receivers use it to place their NAK slot.  ``round``
    identifies the round so stale feedback can be discarded.
    """

    tg: int
    sent: int
    round: int
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class Nak(_AutoControlChecksum):
    """Receiver feedback ``NAK(i, l)``: ``needed`` packets still missing.

    Protocol NP's key property: the NAK carries only a *count*, never
    sequence numbers — any ``needed`` new parities will repair the group.
    """

    tg: int
    needed: int
    round: int
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class SelectiveNak(_AutoControlChecksum):
    """Per-packet feedback used by the non-FEC baseline N2.

    Carries the explicit sequence numbers (block indices) of the missing
    data packets — the per-packet feedback NP exists to avoid.
    """

    tg: int
    missing: tuple[int, ...]
    round: int
    checksum: int | None = None

    @property
    def needed(self) -> int:
        return len(self.missing)


@direct_init
@dataclass(frozen=True)
class Retransmission:
    """A retransmitted original (N2 repair), distinct for accounting."""

    tg: int
    index: int
    payload: bytes = b""
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class GroupAbort(_AutoControlChecksum):
    """Sender control packet: group ``tg`` was abandoned under the round cap.

    The graceful-degradation fallback (the paper's own: eject receivers
    that cannot be served): receivers cancel their timers for the group and
    mark it failed, so the transfer terminates with a diagnosable partial
    delivery instead of spinning.  ``round`` is the round at which the cap
    tripped, for the record.
    """

    tg: int
    round: int
    checksum: int | None = None


# ----------------------------------------------------------------------
# session control (the real transport, repro.net)
# ----------------------------------------------------------------------
@direct_init
@dataclass(frozen=True)
class SessionJoin(_AutoControlChecksum):
    """Receiver -> sender: request membership in a transfer session.

    ``group`` tags receivers that want to share one session (the unicast
    fan-out emulation of a multicast group): joins with the same tag
    arriving within the sender's gathering window land in the same
    session.  ``nonce`` distinguishes a restarted receiver from a
    duplicated join frame.
    """

    group: int = 0
    nonce: int = 0
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class SessionAnnounce(_AutoControlChecksum):
    """Sender -> receiver: transfer metadata, the reply to a join.

    Everything a receiver needs to run its side of the recovery loop:
    the FEC geometry, the number of transmission groups, the true byte
    length (the tail group is zero-padded) and the erasure-code registry
    name the parities were produced with.
    """

    k: int
    h: int
    packet_size: int
    n_groups: int
    total_length: int
    codec: str = "rse"
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class SessionComplete(_AutoControlChecksum):
    """Receiver -> sender: every group is delivered (or sender-abandoned)."""

    delivered: int
    failed: int = 0
    checksum: int | None = None


@direct_init
@dataclass(frozen=True)
class SessionFin(_AutoControlChecksum):
    """Sender -> receiver: the session is over.

    ``reason`` is one of ``"complete"`` (the receiver finished and this is
    the acknowledgement), ``"ejected"`` (the degraded-completion policy
    gave up on this receiver) or ``"aborted"`` (the whole session was torn
    down, e.g. the server is shutting down).
    """

    reason: str = "complete"
    checksum: int | None = None

    #: wire codes for :mod:`repro.net.wire`
    REASONS = ("complete", "ejected", "aborted")

    def __post_init__(self) -> None:
        if self.reason not in self.REASONS:
            raise ValueError(
                f"unknown fin reason {self.reason!r}; expected one of "
                f"{self.REASONS}"
            )
        super().__post_init__()
