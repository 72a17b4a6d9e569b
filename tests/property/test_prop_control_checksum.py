"""Property test: the template checksum is the ``repr`` checksum.

``control_checksum_of`` formats a per-class ``%r`` template instead of
taking the ``repr`` of a fresh tuple.  The checksum is on the wire and in
the journal, so the two strings must be identical for every control
class and every field value: ints of any width, numpy ints (whose
``repr`` differs from a Python int's), tuples, and arbitrary text.
:func:`reference_checksum` is the formula the template replaced.
"""

import dataclasses
import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.layered import SlotNak
from repro.protocols.packets import (
    GroupAbort,
    Nak,
    Poll,
    SelectiveNak,
    SessionAnnounce,
    SessionComplete,
    SessionFin,
    SessionJoin,
    _AutoControlChecksum,
    control_checksum_of,
    control_intact,
)


def reference_checksum(packet) -> int:
    """CRC-32 of ``repr((type name, ((name, value), ...)))``."""
    fields = tuple(
        (f.name, getattr(packet, f.name))
        for f in dataclasses.fields(packet)
        if f.name != "checksum"
    )
    return zlib.crc32(repr((type(packet).__name__, fields)).encode("utf-8"))


@dataclasses.dataclass(frozen=True)
class _OneTuple(_AutoControlChecksum):
    """One field, itself a tuple: ``%`` must not unpack it."""

    values: tuple = ()
    checksum: int | None = None


@dataclasses.dataclass(frozen=True)
class _NoFields(_AutoControlChecksum):
    checksum: int | None = None


ints = st.one_of(
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.integers(0, 255).map(np.uint8),
)
int_tuples = st.lists(ints, max_size=8).map(tuple)
text = st.text(max_size=16)

STRATEGIES = {
    Poll: st.builds(Poll, ints, ints, ints),
    Nak: st.builds(Nak, ints, ints, ints),
    SelectiveNak: st.builds(SelectiveNak, ints, int_tuples, ints),
    GroupAbort: st.builds(GroupAbort, ints, ints),
    SlotNak: st.builds(SlotNak, ints, int_tuples, ints),
    SessionJoin: st.builds(SessionJoin, ints, ints),
    SessionAnnounce: st.builds(
        SessionAnnounce, ints, ints, ints, ints, ints, text
    ),
    SessionComplete: st.builds(SessionComplete, ints, ints),
    SessionFin: st.builds(SessionFin, st.sampled_from(SessionFin.REASONS)),
}
EDGE_CASES = {
    _OneTuple: st.builds(_OneTuple, st.one_of(int_tuples, text.map(tuple))),
    _NoFields: st.just(_NoFields()),
}


def _control_classes(base=_AutoControlChecksum) -> set[type]:
    found = set()
    for cls in base.__subclasses__():
        if cls.__module__.startswith("repro."):
            found.add(cls)
        found |= _control_classes(cls)
    return found


def test_every_control_class_is_generated():
    assert _control_classes() == set(STRATEGIES)


@settings(max_examples=400, deadline=None)
@given(st.one_of(*STRATEGIES.values(), *EDGE_CASES.values()))
def test_template_checksum_is_the_repr_checksum(packet):
    expected = reference_checksum(packet)
    assert control_checksum_of(packet) == expected
    assert packet.checksum == expected
    assert control_intact(packet)
