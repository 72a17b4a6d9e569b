"""``ErasureCode.decode`` rebuilds only what was lost, for every codec.

A systematic code hands a received data packet back as ``bytes(payload)``
instead of converting it to symbols and back; only the lost data packets
go through ``decode_symbols``.  These tests hold that shortcut to the
full symbol round trip (``symbol_path``) for every registered codec, every
byte-payload field width and every accepted input type, and check that
the validation it skips past still runs.
"""

import itertools

import numpy as np
import pytest

from repro.fec.code import DecodeError
from repro.fec.registry import codec_names, create_codec, get_codec
from repro.galois.field import GF16, GF256, GF65536

K, H_REQUEST, PACKET_LEN = 5, 3, 16
FIELDS = {"GF16": GF16, "GF256": GF256, "GF65536": GF65536}


def symbol_path(codec, received):
    """Every packet through symbols and back: what decode always returned."""
    rows = {i: codec._to_symbols(p) for i, p in received.items()}
    decoded = codec.decode_symbols(rows)
    return [codec._to_bytes(decoded[i]) for i in range(codec.k)]


def as_type(codec, packet: bytes, kind: str):
    if kind == "bytes":
        return packet
    if kind == "bytearray":
        return bytearray(packet)
    return np.array(codec._to_symbols(packet))  # a writable symbol array


@pytest.fixture(params=codec_names())
def codec_name(request):
    return request.param


@pytest.fixture(params=sorted(FIELDS))
def block(request, codec_name):
    """``(codec, data, parities)`` for one random block."""
    h = get_codec(codec_name).nearest_h(K, H_REQUEST)
    codec = create_codec(codec_name, K, h, field=FIELDS[request.param])
    rng = np.random.default_rng(7)
    data = [rng.bytes(PACKET_LEN) for _ in range(K)]
    return codec, data, codec.encode(data)


@pytest.mark.parametrize("kind", ["bytes", "bytearray", "ndarray"])
def test_complete_block_returns_the_data_as_bytes(block, kind):
    codec, data, parities = block
    packets = data + parities
    received = {i: as_type(codec, p, kind) for i, p in enumerate(packets)}
    for present in (received, {i: received[i] for i in range(K)}):
        decoded_before = codec.stats.packets_decoded
        out = codec.decode(present)
        assert out == data
        assert all(type(packet) is bytes for packet in out)
        assert codec.stats.packets_decoded == decoded_before
        assert out == symbol_path(codec, present)


@pytest.mark.parametrize("kind", ["bytes", "bytearray", "ndarray"])
def test_survivors_and_erasures_decode_bit_for_bit(block, kind):
    codec, data, parities = block
    packets = [as_type(codec, p, kind) for p in data + parities]
    checked = 0
    for size in range(K, codec.n + 1):
        for pattern in itertools.combinations(range(codec.n), size):
            if pattern[K - 1] == K - 1 or not codec.decodable_from(pattern):
                continue  # nothing lost, or not this code's to recover
            received = {i: packets[i] for i in pattern}
            out = codec.decode(received)
            assert out == data
            assert all(type(packet) is bytes for packet in out)
            assert out == symbol_path(codec, received)
            checked += 1
    assert checked


class TestChecksSurvive:
    """The pass-through skips the symbol conversion, not the checks."""

    @pytest.fixture
    def packets(self, block):
        codec, data, parities = block
        return codec, data + parities

    def test_short_data_packet(self, packets):
        codec, packets = packets
        received = dict(enumerate(packets))
        received[1] = received[1][:-2]
        with pytest.raises(ValueError, match="inconsistent lengths"):
            codec.decode(received)

    def test_parity_of_another_length_with_all_data_present(self, packets):
        codec, packets = packets
        received = dict(enumerate(packets))
        received[K] = received[K] + b"\0\0"
        with pytest.raises(ValueError, match="inconsistent lengths"):
            codec.decode(received)

    def test_ndarray_parity_of_another_length(self, packets):
        codec, packets = packets
        received = dict(enumerate(packets[:K]))
        received[K] = np.zeros(3 * PACKET_LEN, dtype=codec.field.dtype)
        with pytest.raises(ValueError, match="inconsistent lengths"):
            codec.decode(received)

    def test_out_of_range_index(self, packets):
        codec, packets = packets
        received = dict(enumerate(packets))
        received[codec.n] = packets[0]
        with pytest.raises(ValueError, match="out of range"):
            codec.decode(received)
        received = dict(enumerate(packets[:K]))
        received[-1] = packets[0]
        with pytest.raises(ValueError, match="out of range"):
            codec.decode(received)

    def test_fewer_than_k(self, packets):
        codec, packets = packets
        with pytest.raises(DecodeError, match="at least k"):
            codec.decode(dict(enumerate(packets[: K - 1])))
        with pytest.raises(DecodeError, match="no packets"):
            codec.decode({})


def test_odd_length_is_not_a_gf65536_payload(codec_name):
    h = get_codec(codec_name).nearest_h(K, H_REQUEST)
    codec = create_codec(codec_name, K, h, field=GF65536)
    received = {i: bytes(PACKET_LEN + 1) for i in range(K)}
    with pytest.raises(ValueError, match="not a multiple"):
        codec.decode(received)
