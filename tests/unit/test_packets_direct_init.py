"""The packet constructors built by ``packets.direct_init``.

Every class it decorates must construct exactly what the frozen
dataclass's own generated ``__init__`` would: the same fields from
positional, keyword and default arguments, ``__post_init__`` run, and
everything else (frozenness, eq, hash, repr, ``replace``, ``asdict``,
pickling) untouched.  The reference is the ``__init__`` that
``dataclasses.dataclass`` generates for a subclass, applied to an
instance of the class under test.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.net.wire import Frame, TraceContextPacket, wire_types
from repro.protocols.layered import BlockData, BlockParity
from repro.protocols.packets import (
    DataPacket,
    ParityPacket,
    Poll,
    Retransmission,
    _AutoControlChecksum,
    control_intact,
    payload_intact,
)

#: one full positional argument list per decorated class
SAMPLES = {
    "DataPacket": (3, 5, b"data", 2, 7),
    "ParityPacket": (4, 9, b"parity", 11),
    "Retransmission": (6, 1, b"arq", 12),
    "Poll": (7, 8, 2, 99),
    "Nak": (9, 3, 4, 5),
    "SelectiveNak": (10, (1, 5), 2, 6),
    "GroupAbort": (11, 6, 7),
    "SlotNak": (12, (0, 2), 3, 8),
    "SessionJoin": (5, 77, 9),
    "SessionAnnounce": (8, 16, 1024, 320, 2621440, "xor", 10),
    "SessionComplete": (320, 1, 11),
    "SessionFin": ("ejected", 12),
    "TraceContextPacket": ("ab" * 16,),
    "Frame": (7, Poll(1, 2, 3)),
    "BlockData": (1, 2, (0, 3), b"d", 13),
    "BlockParity": (1, 9, ((0, 3), None), b"p", 14),
}
CLASSES = (*wire_types(), Frame, BlockData, BlockParity)


def reference(cls):
    """``cls``'s constructor as ``dataclasses`` itself generates it."""
    generated = dataclasses.dataclass(frozen=True)(
        type(cls.__name__, (cls,), {})
    ).__init__

    def build(*args, **kwargs):
        instance = object.__new__(cls)
        generated(instance, *args, **kwargs)
        return instance

    return build, generated


def same(a, b) -> bool:
    """Equal fields and equal instance state (the verdict memo included)."""
    return type(a) is type(b) and a == b and vars(a) == vars(b)


def required(cls) -> int:
    return sum(
        f.default is dataclasses.MISSING for f in dataclasses.fields(cls)
    )


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_every_class_is_sampled_and_built_by_the_helper():
    assert set(SAMPLES) == {cls.__name__ for cls in CLASSES}
    for cls in CLASSES:
        _, generated = reference(cls)
        assert cls.__init__ is not generated
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__
        assert "state" in cls.__init__.__code__.co_varnames


class TestConstruction:
    def test_positional(self, cls):
        build, _ = reference(cls)
        args = SAMPLES[cls.__name__]
        assert same(cls(*args), build(*args))

    def test_keyword(self, cls):
        build, _ = reference(cls)
        names = [f.name for f in dataclasses.fields(cls)]
        kwargs = dict(zip(names, SAMPLES[cls.__name__]))
        assert same(cls(**kwargs), build(**kwargs))
        assert same(cls(**kwargs), cls(*SAMPLES[cls.__name__]))

    def test_defaults(self, cls):
        build, _ = reference(cls)
        args = SAMPLES[cls.__name__][: required(cls)]
        assert same(cls(*args), build(*args))

    def test_signature(self, cls):
        _, generated = reference(cls)

        def shape(function):
            return [
                (p.name, p.default, p.kind)
                for p in inspect.signature(function).parameters.values()
            ]

        assert shape(cls.__init__) == shape(generated)

    def test_argument_errors(self, cls):
        with pytest.raises(TypeError):
            cls(*SAMPLES[cls.__name__], "one too many")
        if required(cls):
            with pytest.raises(TypeError):
                cls()


class TestDataclassBehaviour:
    def test_eq_hash_repr(self, cls):
        build, _ = reference(cls)
        args = SAMPLES[cls.__name__]
        packet, twin = cls(*args), build(*args)
        assert packet == twin and hash(packet) == hash(twin)
        assert repr(packet) == repr(twin)

    def test_fields_and_asdict(self, cls):
        build, _ = reference(cls)
        args = SAMPLES[cls.__name__]
        packet = cls(*args)
        assert [f.name for f in dataclasses.fields(packet)] == [
            f.name for f in dataclasses.fields(cls)
        ]
        assert dataclasses.asdict(packet) == dataclasses.asdict(build(*args))

    def test_pickle_round_trip(self, cls):
        packet = cls(*SAMPLES[cls.__name__][: required(cls)])
        assert same(pickle.loads(pickle.dumps(packet)), packet)

    def test_frozen(self, cls):
        packet = cls(*SAMPLES[cls.__name__])
        name = dataclasses.fields(cls)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(packet, name, 0)


CONTROL = [cls for cls in CLASSES if issubclass(cls, _AutoControlChecksum)]


def _tampered(value):
    if isinstance(value, tuple):
        return value + (99,)
    if isinstance(value, str):
        return "aborted"  # a valid fin reason, and not the sampled one
    return value + 1


class TestIntegrity:
    @pytest.mark.parametrize("cls", CONTROL, ids=lambda cls: cls.__name__)
    def test_replace_keeps_the_stale_checksum(self, cls):
        packet = cls(*SAMPLES[cls.__name__][: required(cls)])
        assert packet.checksum is not None and control_intact(packet)
        name = dataclasses.fields(cls)[0].name
        forged = dataclasses.replace(
            packet, **{name: _tampered(getattr(packet, name))}
        )
        assert forged.checksum == packet.checksum
        assert not control_intact(forged)

    @pytest.mark.parametrize("cls", CONTROL, ids=lambda cls: cls.__name__)
    def test_built_control_packets_are_stamped_intact(self, cls):
        packet = cls(*SAMPLES[cls.__name__][: required(cls)])
        assert vars(packet)["_intact"] is True
        assert "_intact" not in {f.name for f in dataclasses.fields(cls)}
        assert "_intact" not in dataclasses.asdict(packet)

    @pytest.mark.parametrize(
        "cls", [DataPacket, ParityPacket, Retransmission],
        ids=lambda cls: cls.__name__,
    )
    def test_payload_memo_stays_out_of_the_fields(self, cls):
        packet = cls(*SAMPLES[cls.__name__])
        fresh = cls(*SAMPLES[cls.__name__])
        assert not payload_intact(packet)  # the sampled checksum is wrong
        assert "_intact" in vars(packet)
        assert "_intact" not in dataclasses.asdict(packet)
        assert packet == fresh and hash(packet) == hash(fresh)
        assert "_intact" not in vars(dataclasses.replace(packet))

    def test_trace_context_packet_carries_no_checksum(self):
        packet = TraceContextPacket("ab" * 16)
        assert vars(packet) == {"trace_id": "ab" * 16}
