"""Unit tests for the systematic RSE codec."""

import numpy as np
import pytest

from repro.fec.rse import (
    CodecStats,
    DecodeError,
    InverseCache,
    RSECodec,
    max_block_length,
)
from repro.galois.field import GF16, GF256, GF65536

from tests.conftest import random_packets


class TestConstruction:
    def test_basic_parameters(self):
        codec = RSECodec(7, 3)
        assert (codec.k, codec.h, codec.n) == (7, 3, 10)
        assert codec.field is GF256

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            RSECodec(0, 3)
        with pytest.raises(ValueError, match="h must be >= 0"):
            RSECodec(3, -1)

    def test_block_length_limit_enforced(self):
        with pytest.raises(ValueError, match="exceeds limit"):
            RSECodec(200, 100)  # n=300 > 255 for GF256
        RSECodec(200, 55)  # n=255 ok
        RSECodec(200, 100, field=GF65536)  # wide field ok

    def test_max_block_length(self):
        assert max_block_length(GF256) == 255
        assert max_block_length(GF16) == 15
        assert max_block_length(GF65536) == 65535

    def test_generator_cached_across_instances(self):
        a = RSECodec(5, 2)
        b = RSECodec(5, 2)
        assert a.generator is b.generator


class TestEncode:
    def test_produces_h_parities_of_same_length(self, small_codec, rng):
        data = random_packets(rng, 7, 100)
        parities = small_codec.encode(data)
        assert len(parities) == 3
        assert all(len(p) == 100 for p in parities)

    def test_wrong_packet_count_rejected(self, small_codec, rng):
        with pytest.raises(ValueError, match="exactly k=7"):
            small_codec.encode(random_packets(rng, 6))

    def test_unequal_lengths_rejected(self, small_codec, rng):
        data = random_packets(rng, 6, 64) + [rng.bytes(32)]
        with pytest.raises(ValueError, match="equal length"):
            small_codec.encode(data)

    def test_h_zero_produces_nothing(self, rng):
        codec = RSECodec(4, 0)
        assert codec.encode(random_packets(rng, 4)) == []

    def test_parity_is_xor_when_single_parity_over_two(self, rng):
        # with the systematic Vandermonde construction the exact parity
        # values are construction-defined, but determinism must hold
        codec = RSECodec(2, 1)
        data = random_packets(rng, 2, 16)
        assert codec.encode(data) == codec.encode(data)

    def test_gf65536_requires_even_packet_length(self, rng):
        codec = RSECodec(3, 2, field=GF65536)
        with pytest.raises(ValueError, match="symbol size"):
            codec.encode([rng.bytes(15) for _ in range(3)])

    def test_encode_deterministic_across_instances(self, rng):
        data = random_packets(rng, 7, 64)
        assert RSECodec(7, 3).encode(data) == RSECodec(7, 3).encode(data)


class TestDecode:
    def test_all_data_received_no_work(self, small_codec, rng):
        data = random_packets(rng, 7)
        received = {i: data[i] for i in range(7)}
        small_codec.stats.reset()
        assert small_codec.decode(received) == data
        assert small_codec.stats.packets_decoded == 0

    @pytest.mark.parametrize("lost", [(0,), (6,), (0, 3), (1, 2, 5)])
    def test_recovers_lost_data_from_parities(self, small_codec, rng, lost):
        data = random_packets(rng, 7)
        parities = small_codec.encode(data)
        received = {i: data[i] for i in range(7) if i not in lost}
        received.update({7 + j: parities[j] for j in range(len(lost))})
        assert small_codec.decode(received) == data

    def test_any_parity_subset_works(self, small_codec, rng):
        data = random_packets(rng, 7)
        parities = small_codec.encode(data)
        # lose packets 0 and 1, repair with parities 1 and 3 (h indices 0,2)
        received = {i: data[i] for i in range(2, 7)}
        received[7] = parities[0]
        received[9] = parities[2]
        assert small_codec.decode(received) == data

    def test_only_parities_suffice(self, rng):
        codec = RSECodec(3, 3)
        data = random_packets(rng, 3)
        parities = codec.encode(data)
        received = {3 + j: parities[j] for j in range(3)}
        assert codec.decode(received) == data

    def test_insufficient_packets_raises(self, small_codec, rng):
        data = random_packets(rng, 7)
        received = {i: data[i] for i in range(6)}  # only 6 of 7
        with pytest.raises(DecodeError, match="need at least k=7"):
            small_codec.decode(received)

    def test_empty_reception_raises(self, small_codec):
        with pytest.raises(DecodeError, match="no packets"):
            small_codec.decode({})

    def test_out_of_range_index_raises(self, small_codec, rng):
        received = {i: rng.bytes(8) for i in range(7)}
        received[10] = rng.bytes(8)  # n == 10, valid indices 0..9
        with pytest.raises(ValueError, match="out of range"):
            small_codec.decode(received)

    def test_inconsistent_lengths_raise(self, small_codec, rng):
        received = {i: rng.bytes(8) for i in range(6)}
        received[7] = rng.bytes(16)
        with pytest.raises(ValueError, match="inconsistent"):
            small_codec.decode(received)

    def test_extra_packets_ignored_gracefully(self, small_codec, rng):
        data = random_packets(rng, 7)
        parities = small_codec.encode(data)
        received = {i: data[i] for i in range(7)}
        received.update({7 + j: parities[j] for j in range(3)})
        assert small_codec.decode(received) == data


class TestBytesDecode:
    """``decode`` of ``bytes`` payloads: a no-loss group comes back as
    received, an erasure decode stacks its ``k`` equations in one buffer;
    the errors are those of every other payload type."""

    def test_no_loss_returns_the_payloads_themselves(self, small_codec, rng):
        data = random_packets(rng, 7)
        parity = small_codec.encode(data)[0]
        for received in (
            {i: data[i] for i in range(7)},
            {**{i: data[i] for i in range(7)}, 8: parity},
        ):
            decoded = small_codec.decode(received)
            assert all(a is b for a, b in zip(decoded, data))

    @pytest.mark.parametrize("lost", [(2,), (0, 6)])
    def test_inconsistent_lengths_raise_on_every_path(
        self, small_codec, rng, lost
    ):
        data = random_packets(rng, 7)
        parities = small_codec.encode(data)
        received = {i: data[i] for i in range(7) if i not in lost}
        received.update({7 + j: parities[j] for j in range(len(lost))})
        received[max(received)] += b"\x00"
        with pytest.raises(ValueError, match="inconsistent"):
            small_codec.decode(received)
        # an extra parity of the wrong length is refused as well
        received = {i: data[i] for i in range(7)}
        received[9] = parities[2][:-1]
        with pytest.raises(ValueError, match="inconsistent"):
            small_codec.decode(received)

    def test_fewer_than_k_raise_decode_error(self, small_codec, rng):
        data = random_packets(rng, 7)
        parities = small_codec.encode(data)
        received = {i: data[i] for i in range(1, 5)}
        received[8] = parities[1]
        with pytest.raises(DecodeError, match="need at least k=7"):
            small_codec.decode(received)

    @pytest.mark.parametrize("index", [-1, 10, 99])
    def test_out_of_range_index_raises_value_error(
        self, small_codec, rng, index
    ):
        data = random_packets(rng, 7)
        received = {i: data[i] for i in range(1, 7)}
        received[index] = data[0]
        with pytest.raises(ValueError, match="out of range"):
            small_codec.decode(received)

    @pytest.mark.parametrize("field, size", [(GF16, 9), (GF65536, 18)])
    def test_other_fields_rebuild_from_one_buffer(self, rng, field, size):
        codec = RSECodec(4, 3, field=field)
        data = random_packets(rng, 4, size)
        parities = codec.encode(data)
        received = {1: data[1], 4: parities[0], 5: parities[1], 6: parities[2]}
        assert codec.decode(received) == data

    def test_empty_payloads_decode(self, small_codec):
        parities = small_codec.encode([b""] * 7)
        received = {i: b"" for i in range(2, 7)}
        received.update({7: parities[0], 9: parities[2]})
        assert small_codec.decode(received) == [b""] * 7

    def test_inverse_cache_counts_are_pinned(self, rng):
        # hits, misses and evictions of a fixed pattern sequence through a
        # three-entry cache: the same plans are derived and reused
        cache = InverseCache(maxsize=3)
        codec = RSECodec(5, 4, inverse_cache=cache)
        data = random_packets(np.random.default_rng(11), 5, 32)
        block = data + codec.encode(data)
        for pattern in (
            (0, 1, 2, 3, 4), (1, 2, 3, 4, 5), (0, 2, 3, 4, 5, 8),
            (1, 2, 3, 4, 5), (2, 3, 4, 5, 6), (0, 1, 2, 7, 8),
            (1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 6), (2, 3, 4, 5, 6, 7),
            (4, 5, 6, 7, 8), (1, 2, 3, 4, 5), (0, 1, 2, 7, 8),
        ):
            assert codec.decode({i: block[i] for i in pattern}) == data
        stats = codec.stats
        assert (
            stats.decode_cache_hits, stats.decode_cache_misses,
            cache.evictions, stats.packets_decoded,
        ) == (4, 6, 3, 17)


class TestOtherPayloadTypes:
    """Symbol arrays (receivers' zero-copy views) and other byte-likes
    decode as their bytes: checked the same way, returned as ``bytes``."""

    @pytest.mark.parametrize("kind", ["array", "bytearray", "memoryview"])
    def test_decode_matches_bytes(self, small_codec, rng, kind):
        data = random_packets(rng, 7)
        parities = small_codec.encode(data)
        convert = {
            "array": lambda p: np.frombuffer(p, dtype=np.uint8),
            "bytearray": bytearray,
            "memoryview": memoryview,
        }[kind]
        for received in (
            {i: data[i] for i in range(7)},
            {**{i: data[i] for i in range(7) if i != 4}, 9: parities[2]},
        ):
            decoded = small_codec.decode(
                {i: convert(p) for i, p in received.items()}
            )
            assert decoded == data
            assert all(type(packet) is bytes for packet in decoded)

    def test_mixed_lengths_raise(self, small_codec, rng):
        received = {i: np.zeros(8, dtype=np.uint8) for i in range(6)}
        received[7] = np.zeros(9, dtype=np.uint8)
        with pytest.raises(ValueError, match="inconsistent"):
            small_codec.decode(received)

    def test_encode_of_symbol_arrays(self, rng):
        codec = RSECodec(3, 2)
        data = random_packets(rng, 3)
        arrays = [np.frombuffer(p, dtype=np.uint8) for p in data]
        assert codec.encode(arrays) == codec.encode(data)
        arrays[1] = arrays[1][:-1]
        with pytest.raises(ValueError, match="equal length"):
            codec.encode(arrays)


class TestPartialEncode:
    def test_rows_equal_the_full_encode(self, rng):
        codec = RSECodec(5, 6)
        data = random_packets(rng, 5)
        full = codec.encode(data)
        for start, stop in ((0, 1), (1, 3), (3, 6), (0, 6), (4, 4)):
            assert codec.encode(data, start, stop) == full[start:stop]

    def test_charges_only_the_rows_encoded(self, rng):
        codec = RSECodec(4, 8)
        data = random_packets(rng, 4)
        codec.encode(data, 2, 5)
        assert codec.stats.parities_produced == 3
        assert codec.stats.packets_encoded == 4
        assert codec.stats.symbols_multiplied == int(
            np.count_nonzero(codec.generator[4 + 2:4 + 5])
        )

    def test_telemetry_counts_the_rows_encoded(self, rng):
        from repro import obs

        codec = RSECodec(4, 8)
        with obs.capture() as registry:
            codec.encode(random_packets(rng, 4), 2, 5)
            counters = registry.snapshot().counter_values()
        totals = {}
        for (metric, _labels), value in counters.items():
            totals[metric] = totals.get(metric, 0) + value
        assert totals["rse.blocks_encoded"] == 1
        assert totals["rse.parities_produced"] == 3
        assert totals["rse.symbols_multiplied"] == 12

    @pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (0, 9)])
    def test_rows_outside_the_code_rejected(self, rng, start, stop):
        with pytest.raises(ValueError, match="parity rows"):
            RSECodec(4, 8).encode(random_packets(rng, 4), start, stop)


class TestStats:
    def test_encode_decode_counters(self, rng):
        codec = RSECodec(4, 2)
        data = random_packets(rng, 4)
        parities = codec.encode(data)
        assert codec.stats.packets_encoded == 4
        assert codec.stats.parities_produced == 2
        received = {0: data[0], 1: data[1], 4: parities[0], 5: parities[1]}
        codec.decode(received)
        assert codec.stats.packets_decoded == 2

    def test_reset(self):
        stats = CodecStats(packets_encoded=5, parities_produced=2)
        stats.reset()
        assert stats.packets_encoded == 0
        assert stats.parities_produced == 0


class TestNarrowField:
    """GF(2^4) packs two symbols per payload byte (Section 2.2 scheme)."""

    def test_nibble_roundtrip(self, rng):
        codec = RSECodec(5, 3, field=GF16)
        data = [rng.bytes(32) for _ in range(5)]
        parities = codec.encode(data)
        assert all(len(p) == 32 for p in parities)
        received = {1: data[1], 3: data[3], 5: parities[0], 6: parities[1],
                    7: parities[2]}
        assert codec.decode(received) == data

    def test_nibble_packing_is_big_endian_high_first(self):
        codec = RSECodec(1, 0, field=GF16)
        symbols = codec._to_symbols(b"\xAB")
        assert list(symbols) == [0xA, 0xB]
        assert codec._to_bytes(symbols) == b"\xAB"

    def test_block_limit_small_field(self):
        with pytest.raises(ValueError, match="exceeds limit"):
            RSECodec(10, 6, field=GF16)  # n=16 > 15

    def test_unsupported_width_byte_payload(self, rng):
        from repro.galois.field import field_for_width

        codec = RSECodec(2, 1, field=field_for_width(5))
        with pytest.raises(ValueError, match="encode_symbols"):
            codec.encode([rng.bytes(4), rng.bytes(4)])

    def test_out_of_range_symbols_rejected(self):
        import numpy as np

        codec = RSECodec(2, 1, field=GF16)
        bad = np.array([3, 200], dtype=np.uint8)  # 200 >= 16
        with pytest.raises(ValueError, match="exceeds"):
            codec.encode_symbols(np.vstack([bad, bad]))


class TestWideField:
    def test_large_block_gf65536(self, rng):
        codec = RSECodec(30, 30, field=GF65536)
        data = random_packets(rng, 30, 32)
        parities = codec.encode(data)
        received = {60 - 1 - j: parities[29 - j] for j in range(0)}  # none
        received = {i + 30: parities[i] for i in range(30)}
        assert codec.decode(received) == data

    def test_symbol_level_roundtrip(self, rng):
        codec = RSECodec(5, 3, field=GF65536)
        data = np.ascontiguousarray(
            rng.integers(0, 65536, size=(5, 20)), dtype=np.uint16
        )
        parities = codec.encode_symbols(data)
        rows = {0: data[0], 2: data[2], 4: data[4], 5: parities[0], 7: parities[2]}
        out = codec.decode_symbols(rows)
        for i in range(5):
            assert np.array_equal(out[i], data[i])
