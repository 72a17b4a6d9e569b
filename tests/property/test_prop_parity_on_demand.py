"""Property: a lazy :class:`BlockEncoder` encodes only what is asked for.

A sender asks for parities two ways: a repair round asks for its count at
once (:meth:`BlockEncoder.encode_parities`), a FEC 1 tail one parity at a
time (:meth:`BlockEncoder.parity_packet`).  Whatever the interleaving of
those requests across groups:

* every parity handed out equals ``codec.encode(group)[j]`` byte for byte;
* no parity row is encoded twice, and one group's requests never encode
  another group;
* a round's request encodes exactly the rows it is missing, in one product;
* a one-parity request past the encoded rows encodes the rest of the
  group, in one product.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec.block import BlockEncoder
from repro.fec.rse import InverseCache, RSECodec


class _CountingCodec(RSECodec):
    """Records the parity rows ``[start, stop)`` of every encode."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``(id(data_packets), start, stop)`` per product
        self.products: list[tuple[int, int, int]] = []

    def encode(self, data_packets, start=0, stop=None):
        stop = self.h if stop is None else stop
        self.products.append((id(data_packets), start, stop))
        return super().encode(data_packets, start, stop)


@st.composite
def _scenarios(draw):
    k = draw(st.integers(1, 8))
    h = draw(st.integers(1, 33))
    n_groups = draw(st.integers(1, 4))
    one = st.tuples(
        st.just("one"), st.integers(0, n_groups - 1), st.integers(0, h - 1)
    )
    rounds = st.tuples(
        st.just("round"), st.integers(0, n_groups - 1), st.integers(0, h)
    )
    requests = draw(st.lists(st.one_of(one, rounds), max_size=40))
    return k, h, n_groups, requests


@settings(max_examples=150, deadline=None)
@given(_scenarios(), st.integers(0, 2**32 - 1))
def test_any_interleaving_encodes_only_what_is_asked(scenario, seed):
    k, h, n_groups, requests = scenario
    packet_size = 16
    payload = bytes(
        (seed >> (8 * (i % 4)) ^ i) & 0xFF
        for i in range(k * n_groups * packet_size)
    )
    codec = _CountingCodec(k, h, inverse_cache=InverseCache())
    encoder = BlockEncoder(payload, k, h, packet_size, codec=codec)
    reference = RSECodec(k, h, inverse_cache=InverseCache())
    expected = [reference.encode(group.data) for group in encoder.groups]
    filled = [False] * len(encoder)   # a one-parity request encoded rows
    asked_round = [0] * len(encoder)  # highest count asked at once

    for kind, tg, value in requests:
        before = [len(group.parities) for group in encoder.groups]
        products = len(codec.products)
        if kind == "one":
            assert encoder.parity_packet(tg, value) == expected[tg][value]
            grew = h - before[tg] if value >= before[tg] else 0
            filled[tg] |= grew > 0
        else:
            encoder.encode_parities(tg, value)
            asked_round[tg] = max(asked_round[tg], value)
            grew = max(value - before[tg], 0)
        # exactly the missing rows, in one product, or none at all
        assert len(encoder.groups[tg].parities) == before[tg] + grew
        assert len(codec.products) == products + (grew > 0)
        # a request touches its own group only
        for other, group in enumerate(encoder.groups):
            if other != tg:
                assert len(group.parities) == before[other]

    for tg, group in enumerate(encoder.groups):
        assert group.parities == expected[tg][: len(group.parities)]
        spans = [(a, b) for d, a, b in codec.products if d == id(group.data)]
        # contiguous growth from row 0: every row encoded once
        encoded = len(group.parities)
        bounds = [0] + [stop for _, stop in spans]
        assert [start for start, _ in spans] == bounds[:-1]
        assert bounds[-1] == encoded
        if filled[tg]:
            assert encoded == h
        else:
            assert encoded == asked_round[tg]


def test_pre_encode_is_one_batched_encode():
    codec = _CountingCodec(3, 5, inverse_cache=InverseCache())
    encoder = BlockEncoder(
        bytes(range(90)), 3, 5, 10, codec=codec, pre_encode=True
    )
    assert codec.products == []  # encode_many, not per-group encodes
    assert all(len(group.parities) == 5 for group in encoder.groups)
    encoder.parity_packet(2, 4)
    encoder.encode_parities(1, 5)
    assert codec.products == []
