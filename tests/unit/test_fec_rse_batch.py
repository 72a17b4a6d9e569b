"""Unit tests for the batched-codec additions: the erasure-pattern
:class:`InverseCache`, the honest ``symbols_multiplied`` accounting, the
batch encode APIs and the opt-in Monte-Carlo payload verifier."""

import numpy as np
import pytest

from repro.fec.rse import (
    DecodeError,
    InverseCache,
    RSECodec,
    default_inverse_cache,
)
from repro.galois.field import GF16, GF256, GF65536
from repro.mc._common import PayloadVerifier, block_verifier


def _block_rows(codec: RSECodec, rng, symbols: int = 8):
    data = rng.integers(0, codec.field.order, size=(codec.k, symbols)).astype(
        codec.field.dtype
    )
    block = np.concatenate([data, codec.encode_symbols(data)])
    return data, block


def _pattern_rows(block, indices):
    return {int(i): block[int(i)] for i in indices}


class TestInverseCache:
    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            InverseCache(maxsize=0)

    def test_put_freezes_and_get_returns_same_array(self):
        cache = InverseCache(maxsize=4)
        array = np.arange(4, dtype=np.uint8).reshape(2, 2)
        stored = cache.put(("key",), array)
        assert not stored.flags.writeable
        assert cache.get(("key",)) is stored
        with pytest.raises(ValueError):
            stored[0, 0] = 99

    def test_lru_eviction_order(self):
        cache = InverseCache(maxsize=2)
        a = np.zeros((1, 1), dtype=np.uint8)
        cache.put(("a",), a.copy())
        cache.put(("b",), a.copy())
        cache.get(("a",))  # refresh "a": "b" is now least recent
        cache.put(("c",), a.copy())
        assert cache.evictions == 1
        assert ("a",) in cache and ("c",) in cache
        assert ("b",) not in cache
        assert len(cache) == 2

    def test_clear_resets_entries_and_evictions(self):
        cache = InverseCache(maxsize=1)
        a = np.zeros((1, 1), dtype=np.uint8)
        cache.put(("a",), a.copy())
        cache.put(("b",), a.copy())
        assert cache.evictions == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 0

    def test_default_cache_is_shared_and_bounded(self):
        assert default_inverse_cache() is default_inverse_cache()
        assert default_inverse_cache().maxsize >= 1
        assert RSECodec(3, 2).inverse_cache is default_inverse_cache()


class TestDecodeCacheBehaviour:
    def test_hit_and_miss_counters(self, rng):
        codec = RSECodec(5, 3, inverse_cache=InverseCache(maxsize=8))
        data, block = _block_rows(codec, rng)
        pattern = [1, 2, 3, 4, 5]  # packet 0 missing -> real decode
        codec.decode_symbols(_pattern_rows(block, pattern))
        assert (codec.stats.decode_cache_misses, codec.stats.decode_cache_hits) \
            == (1, 0)
        codec.decode_symbols(_pattern_rows(block, pattern))
        assert (codec.stats.decode_cache_misses, codec.stats.decode_cache_hits) \
            == (1, 1)
        # a different erasure pattern is a fresh elimination
        codec.decode_symbols(_pattern_rows(block, [0, 1, 2, 3, 7]))
        assert codec.stats.decode_cache_misses == 2

    def test_all_data_received_skips_cache_entirely(self, rng):
        codec = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=8))
        data, block = _block_rows(codec, rng)
        codec.stats.reset()
        out = codec.decode_symbols(_pattern_rows(block, range(4)))
        assert codec.stats.decode_cache_misses == 0
        assert codec.stats.decode_cache_hits == 0
        # systematic pass-through: no multiplies, nothing reconstructed
        assert codec.stats.symbols_multiplied == 0
        assert codec.stats.packets_decoded == 0
        for i in range(4):
            assert np.array_equal(out[i], data[i])

    def test_eviction_under_tiny_cache_still_decodes_correctly(self, rng):
        cache = InverseCache(maxsize=2)
        codec = RSECodec(4, 4, inverse_cache=cache)
        data, block = _block_rows(codec, rng)
        patterns = [[1, 2, 3, 4], [0, 2, 3, 5], [0, 1, 3, 6], [0, 1, 2, 7]]
        for _ in range(3):  # cycle so every pattern is evicted and redone
            for pattern in patterns:
                out = codec.decode_symbols(_pattern_rows(block, pattern))
                for i in range(codec.k):
                    assert np.array_equal(out[i], data[i])
        assert cache.evictions > 0
        assert len(cache) == 2
        # four patterns through a two-slot cache: every decode re-eliminates
        assert codec.stats.decode_cache_misses == 12
        assert codec.stats.decode_cache_hits == 0

    def test_no_cross_contamination_between_codecs(self, rng):
        """Different (k, h) and different fields share one cache safely."""
        cache = InverseCache(maxsize=64)
        codecs = [
            RSECodec(4, 3, field=GF256, inverse_cache=cache),
            RSECodec(5, 3, field=GF256, inverse_cache=cache),
            RSECodec(4, 3, field=GF65536, inverse_cache=cache),
            RSECodec(4, 3, field=GF16, inverse_cache=cache),
            RSECodec(4, 4, field=GF256, inverse_cache=cache),
        ]
        # same *index* pattern everywhere: keys must still never collide
        for codec in codecs:
            data, block = _block_rows(codec, rng)
            pattern = list(range(1, codec.k + 1))
            for _ in range(2):
                out = codec.decode_symbols(_pattern_rows(block, pattern))
                for i in range(codec.k):
                    assert np.array_equal(out[i], data[i])
            assert codec.stats.decode_cache_misses == 1
            assert codec.stats.decode_cache_hits == 1
        assert len(cache) == len(codecs)

    def test_scalar_reference_never_touches_cache(self, rng):
        cache = InverseCache(maxsize=8)
        codec = RSECodec(5, 2, inverse_cache=cache)
        data, block = _block_rows(codec, rng)
        for _ in range(2):
            codec.decode_symbols_scalar(_pattern_rows(block, [1, 2, 3, 4, 5]))
        assert len(cache) == 0
        assert codec.stats.decode_cache_hits == 0
        assert codec.stats.decode_cache_misses == 0


class TestDecodePlanShape:
    """A miss inverts only the erased block and caches the (e, k) plan."""

    K, H = 100, 20

    def _miss(self, rng, monkeypatch):
        from repro.fec import rse

        inverted_shapes = []
        real_invert = rse.invert

        def spy(field, matrix):
            inverted_shapes.append(matrix.shape)
            return real_invert(field, matrix)

        cache = InverseCache(maxsize=8)
        codec = RSECodec(self.K, self.H, inverse_cache=cache)  # builds G
        monkeypatch.setattr(rse, "invert", spy)
        data, block = _block_rows(codec, rng)
        erased = set(rng.choice(self.K, size=self.H, replace=False).tolist())
        rows = _pattern_rows(
            block, [i for i in range(codec.n) if i not in erased]
        )
        return codec, cache, data, rows, inverted_shapes

    def test_miss_inverts_the_erased_block_only(self, rng, monkeypatch):
        codec, _cache, data, rows, inverted_shapes = self._miss(rng, monkeypatch)
        out = codec.decode_symbols(dict(rows))
        for i in range(self.K):
            assert np.array_equal(out[i], data[i])
        assert codec.stats.decode_cache_misses == 1
        assert inverted_shapes == [(self.H, self.H)]
        # the hit inverts nothing at all
        codec.decode_symbols(dict(rows))
        assert codec.stats.decode_cache_hits == 1
        assert inverted_shapes == [(self.H, self.H)]

    def test_cached_plan_is_e_by_k_and_read_only(self, rng, monkeypatch):
        codec, cache, _data, rows, _shapes = self._miss(rng, monkeypatch)
        codec.decode_symbols(dict(rows))
        # the key is unchanged: (field, k, n, the k indices decoded from)
        plan = cache.get((codec.field, self.K, codec.n, tuple(sorted(rows))))
        assert len(cache) == 1
        assert plan.shape == (self.H, self.K)
        assert plan.dtype == codec.field.dtype
        assert not plan.flags.writeable
        with pytest.raises(ValueError):
            plan[0, 0] = 1

    def test_scalar_oracle_still_inverts_the_full_submatrix(
        self, rng, monkeypatch
    ):
        codec, _cache, _data, rows, inverted_shapes = self._miss(rng, monkeypatch)
        codec.decode_symbols_scalar(dict(rows))
        assert inverted_shapes == [(self.K, self.K)]


class TestSymbolIndexValidation:
    """The symbol-level decoders are public: they reject the indices the
    bytes-level ``decode()`` rejects instead of aliasing generator rows."""

    @pytest.mark.parametrize(
        "decode", ["decode_symbols", "decode_symbols_scalar"]
    )
    @pytest.mark.parametrize("bad", [-1, 8], ids=["minus_one", "n"])
    def test_out_of_range_index_raises_value_error(self, rng, decode, bad):
        codec = RSECodec(5, 3, inverse_cache=InverseCache())
        _data, block = _block_rows(codec, rng)
        rows = _pattern_rows(block, [1, 2, 3, 4])
        rows[bad] = block[7]  # another packet's payload under a bogus key
        with pytest.raises(ValueError, match="out of range") as excinfo:
            getattr(codec, decode)(rows)
        assert not isinstance(excinfo.value, DecodeError)
        assert codec.stats.packets_decoded == 0

    @pytest.mark.parametrize(
        "decode", ["decode_symbols", "decode_symbols_scalar"]
    )
    def test_numpy_integer_keys_keep_working(self, rng, decode):
        codec = RSECodec(5, 3, inverse_cache=InverseCache())
        data, block = _block_rows(codec, rng)
        rows = {np.int64(i): block[i] for i in [1, 2, 4, 5, 7]}
        out = getattr(codec, decode)(rows)
        for i in range(codec.k):
            assert np.array_equal(out[i], data[i])

    def test_too_few_packets_is_still_a_decode_error(self, rng):
        codec = RSECodec(5, 3, inverse_cache=InverseCache())
        _data, block = _block_rows(codec, rng)
        with pytest.raises(DecodeError):
            codec.decode_symbols(_pattern_rows(block, [0, 1, 5]))
        with pytest.raises(DecodeError):
            codec.decode_symbols({})


class TestSymbolsMultipliedAccounting:
    def test_encode_counts_nonzero_generator_entries(self):
        codec = RSECodec(5, 3, inverse_cache=InverseCache())
        expected = int(np.count_nonzero(codec.generator[codec.k:]))
        data = np.ones((5, 4), dtype=codec.field.dtype)
        codec.encode_symbols(data)
        assert codec.stats.symbols_multiplied == expected
        codec.stats.reset()
        codec.encode_symbols_scalar(data)
        assert codec.stats.symbols_multiplied == expected

    def test_decode_counts_nonzero_inverse_rows_only(self, rng):
        codec = RSECodec(5, 3, inverse_cache=InverseCache())
        data, block = _block_rows(codec, rng)
        rows = _pattern_rows(block, [1, 2, 3, 4, 5])
        codec.stats.reset()
        codec.decode_symbols(dict(rows))
        batched = codec.stats.symbols_multiplied
        codec.stats.reset()
        codec.decode_symbols_scalar(dict(rows))
        assert codec.stats.symbols_multiplied == batched
        # one missing packet is reconstructed from k equations, so the
        # charge is bounded by k (and strictly positive)
        assert 0 < batched <= codec.k

    def test_encode_blocks_scales_with_batch(self):
        codec = RSECodec(4, 2, inverse_cache=InverseCache())
        per_block = int(np.count_nonzero(codec.generator[codec.k:]))
        data = np.ones((6, 4, 8), dtype=codec.field.dtype)
        codec.encode_blocks(data)
        assert codec.stats.symbols_multiplied == 6 * per_block
        assert codec.stats.packets_encoded == 6 * 4
        assert codec.stats.parities_produced == 6 * 2


class TestBatchEncodeAPI:
    def test_encode_blocks_rejects_wrong_rank(self):
        codec = RSECodec(3, 2)
        with pytest.raises(ValueError):
            codec.encode_blocks(np.ones((3, 4), dtype=np.uint8))

    def test_encode_blocks_rejects_wrong_k(self):
        codec = RSECodec(3, 2)
        with pytest.raises(ValueError):
            codec.encode_blocks(np.ones((2, 4, 8), dtype=np.uint8))

    def test_encode_many_matches_encode(self, rng):
        codec = RSECodec(4, 3, inverse_cache=InverseCache())
        groups = [
            [rng.bytes(16) for _ in range(4)] for _ in range(5)
        ]
        batched = codec.encode_many(groups)
        assert batched == [codec.encode(group) for group in groups]

    def test_encode_many_empty(self):
        assert RSECodec(4, 3).encode_many([]) == []


class TestPayloadVerifier:
    def test_verifies_and_dedupes_patterns(self, rng):
        codec = RSECodec(4, 2, inverse_cache=InverseCache())
        verifier = PayloadVerifier(codec, rng=rng)
        received = np.array(
            [
                [True, True, True, True, False, False],   # all data
                [False, True, True, True, True, False],   # needs parity
                [False, True, True, True, True, False],   # duplicate row
                [True, False, False, False, False, False],  # not decodable
            ]
        )
        assert verifier.verify_masks(received) == 2
        assert verifier.patterns_verified == 2
        # replaying the same matrix finds nothing new
        assert verifier.verify_masks(received) == 0

    def test_accepts_prefix_blocks_and_rejects_overlong(self, rng):
        codec = RSECodec(3, 2, inverse_cache=InverseCache())
        verifier = PayloadVerifier(codec, rng=rng)
        assert verifier.verify_masks(np.array([True, True, True, False])) == 1
        with pytest.raises(ValueError):
            verifier.verify_masks(np.ones((1, codec.n + 1), dtype=bool))

    def test_symbols_validation(self):
        with pytest.raises(ValueError):
            PayloadVerifier(RSECodec(3, 2), symbols=0)

    def test_block_verifier_fits_the_block(self):
        assert block_verifier(None, 4, 2) is None
        verifier = block_verifier("rse", 4, 2)
        assert (verifier.codec.k, verifier.codec.h) == (4, 2)
        wide = RSECodec(4, 3)
        assert block_verifier(wide, 4, 2).codec is wide
        for misfit in (RSECodec(4, 1), RSECodec(5, 2)):
            with pytest.raises(ValueError, match="does not fit"):
                block_verifier(misfit, 4, 2)
        with pytest.raises(KeyError):
            block_verifier("xor", 4, 1)


class TestHarnessCodecStats:
    def test_transfer_report_carries_codec_counters(self):
        from repro.protocols.harness import run_transfer
        from repro.protocols.np_protocol import NPConfig
        from repro.sim.loss import BernoulliLoss

        loss = BernoulliLoss(n_receivers=4, p=0.15)
        data = bytes(range(256)) * 8
        report = run_transfer(
            "np", data, loss, config=NPConfig(k=7, h=7, packet_size=64), rng=3
        )
        assert report.verified
        assert report.codec_symbols_multiplied > 0
        assert (
            report.decode_cache_hits + report.decode_cache_misses
        ) >= 0  # cache counters present and plumbed

        baseline = run_transfer(
            "n2", data, loss, config=NPConfig(k=7, h=0, packet_size=64), rng=3
        )
        assert baseline.codec_symbols_multiplied == 0
        assert baseline.decode_cache_hits == 0
        assert baseline.decode_cache_misses == 0
