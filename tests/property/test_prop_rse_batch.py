"""Differential property tests: batched kernels vs the scalar reference.

The batched GF matmul paths (:meth:`RSECodec.encode_symbols`,
:meth:`RSECodec.encode_blocks`, :meth:`RSECodec.decode_symbols`) replace
the retained scalar loops (:meth:`RSECodec.encode_symbols_scalar`,
:meth:`RSECodec.decode_symbols_scalar`).  They must be *bit-identical* —
any divergence is a kernel bug, regardless of which path is "right" — and
must charge the same ``symbols_multiplied`` work to the stats counters.

The same holds one level down for the decode *plan*:
:meth:`RSECodec._decode_coefficients` inverts only the block of chosen
parity rows restricted to the erased columns (the Schur complement of the
surviving identity rows) and folds the survivors back in with one product.
The inverse of ``generator[use]`` is unique, so the plan must equal the rows
``invert(field, generator[use])[missing]`` of the full Gauss-Jordan — which
:meth:`RSECodec.decode_symbols_scalar` still runs — bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.fec.rse import InverseCache, RSECodec
from repro.galois.field import GF16, GF256, GF65536
from repro.galois.matrix import invert

_FIELDS = {"GF16": GF16, "GF256": GF256, "GF65536": GF65536}


def _fresh_codec(k: int, h: int, field) -> RSECodec:
    # private cache so differential runs never see another test's entries
    return RSECodec(k, h, field=field, inverse_cache=InverseCache(maxsize=64))


@st.composite
def codec_config(draw):
    field_name = draw(st.sampled_from(sorted(_FIELDS)))
    field = _FIELDS[field_name]
    # GF(2^4) only has n <= 15; keep k + h within every field's limit
    k = draw(st.integers(min_value=1, max_value=9))
    h = draw(st.integers(min_value=0, max_value=min(6, 15 - k)))
    symbols = draw(st.sampled_from([1, 3, 16, 129]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return field, k, h, symbols, seed


def _random_symbols(field, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, field.order, size=shape).astype(field.dtype)


class TestEncodeDifferential:
    @given(config=codec_config())
    @settings(max_examples=120, deadline=None)
    def test_batched_encode_matches_scalar(self, config):
        field, k, h, symbols, seed = config
        data = _random_symbols(field, (k, symbols), seed)

        batched_codec = _fresh_codec(k, h, field)
        scalar_codec = _fresh_codec(k, h, field)
        batched = batched_codec.encode_symbols(data)
        scalar = scalar_codec.encode_symbols_scalar(data)

        assert batched.dtype == scalar.dtype
        assert np.array_equal(batched, scalar)
        # identical work accounting, not just identical output
        assert (
            batched_codec.stats.symbols_multiplied
            == scalar_codec.stats.symbols_multiplied
        )
        assert (
            batched_codec.stats.packets_encoded
            == scalar_codec.stats.packets_encoded
        )
        assert (
            batched_codec.stats.parities_produced
            == scalar_codec.stats.parities_produced
        )

    @given(
        config=codec_config(),
        n_blocks=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_blocks_matches_per_block(self, config, n_blocks):
        field, k, h, symbols, seed = config
        data = _random_symbols(field, (n_blocks, k, symbols), seed)

        batch_codec = _fresh_codec(k, h, field)
        loop_codec = _fresh_codec(k, h, field)
        batched = batch_codec.encode_blocks(data)
        assert batched.shape == (n_blocks, h, symbols)
        for b in range(n_blocks):
            assert np.array_equal(batched[b], loop_codec.encode_symbols(data[b]))
        assert (
            batch_codec.stats.symbols_multiplied
            == loop_codec.stats.symbols_multiplied
        )


class TestDecodeDifferential:
    @given(config=codec_config(), subset_seed=st.integers(0, 2**31))
    @settings(max_examples=120, deadline=None)
    def test_batched_decode_matches_scalar(self, config, subset_seed):
        field, k, h, symbols, seed = config
        data = _random_symbols(field, (k, symbols), seed)

        encoder = _fresh_codec(k, h, field)
        block = np.concatenate([data, encoder.encode_symbols(data)])
        chooser = np.random.default_rng(subset_seed)
        keep = sorted(chooser.choice(k + h, size=k, replace=False).tolist())
        rows = {int(i): block[int(i)] for i in keep}

        batched_codec = _fresh_codec(k, h, field)
        scalar_codec = _fresh_codec(k, h, field)
        batched = batched_codec.decode_symbols(dict(rows))
        scalar = scalar_codec.decode_symbols_scalar(dict(rows))

        assert sorted(batched) == sorted(scalar) == list(range(k))
        for i in range(k):
            assert np.array_equal(batched[i], scalar[i])
            assert np.array_equal(batched[i], data[i])
        assert (
            batched_codec.stats.symbols_multiplied
            == scalar_codec.stats.symbols_multiplied
        )
        assert (
            batched_codec.stats.packets_decoded
            == scalar_codec.stats.packets_decoded
        )
        # the scalar reference never consults the erasure-pattern cache
        assert scalar_codec.stats.decode_cache_hits == 0
        assert scalar_codec.stats.decode_cache_misses == 0

    @given(config=codec_config(), subset_seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_cached_second_decode_is_still_identical(self, config, subset_seed):
        """A cache hit must return the same bits as the cold decode."""
        field, k, h, symbols, seed = config
        data = _random_symbols(field, (k, symbols), seed)

        codec = _fresh_codec(k, h, field)
        block = np.concatenate([data, codec.encode_symbols(data)])
        chooser = np.random.default_rng(subset_seed)
        keep = sorted(chooser.choice(k + h, size=k, replace=False).tolist())
        rows = {int(i): block[int(i)] for i in keep}

        cold = codec.decode_symbols(dict(rows))
        warm = codec.decode_symbols(dict(rows))
        for i in range(k):
            assert np.array_equal(cold[i], warm[i])
        if any(i not in rows for i in range(k)):
            assert codec.stats.decode_cache_hits >= 1


@st.composite
def erasure_case(draw):
    """(field, k, h, missing, arrived parities, symbols, seed).

    ``arrived`` holds at least ``len(missing)`` parity indices, drawn
    anywhere in ``k .. n-1`` — so the ``e`` lowest *received* parities the
    decoder picks are generally non-contiguous and need not start at ``k``.
    """
    field = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    # GF(2^4) only has n <= 15; keep k + h within every field's limit
    k = draw(st.integers(min_value=1, max_value=9))
    h = draw(st.integers(min_value=1, max_value=15 - k))
    e = draw(st.integers(min_value=1, max_value=min(k, h)))
    missing = sorted(draw(st.permutations(range(k)))[:e])
    n_arrived = draw(st.integers(min_value=e, max_value=h))
    arrived = sorted(draw(st.permutations(range(k, k + h)))[:n_arrived])
    symbols = draw(st.sampled_from([1, 3, 16, 129]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return field, k, h, missing, arrived, symbols, seed


def _received_rows(codec, missing, arrived, symbols, seed):
    """(data, rows): a random block with ``missing`` erased, dict order
    shuffled so nothing depends on packets arriving sorted."""
    data = _random_symbols(codec.field, (codec.k, symbols), seed)
    block = np.concatenate([data, codec.encode_symbols(data)])
    codec.stats.reset()
    gone = set(missing)
    indices = [i for i in range(codec.k) if i not in gone] + list(arrived)
    np.random.default_rng(seed).shuffle(indices)
    return data, {int(i): block[int(i)] for i in indices}


def _assert_plan_matches_full_inverse(codec, rows):
    have_data, missing, use = codec._decode_plan(rows)
    plan = codec._decode_coefficients(have_data, missing, use)
    reference = invert(codec.field, codec.generator[use])[missing]
    assert plan.shape == (len(missing), codec.k)
    assert plan.dtype == reference.dtype
    assert not plan.flags.writeable
    assert np.array_equal(plan, reference)


def _assert_decodes_like_scalar(field, k, h, rows, data):
    planned, scalar = _fresh_codec(k, h, field), _fresh_codec(k, h, field)
    got = planned.decode_symbols(dict(rows))
    want = scalar.decode_symbols_scalar(dict(rows))
    assert sorted(got) == sorted(want) == list(range(k))
    for i in range(k):
        assert np.array_equal(got[i], want[i])
        assert np.array_equal(got[i], data[i])
    assert planned.stats.symbols_multiplied == scalar.stats.symbols_multiplied
    assert planned.stats.packets_decoded == scalar.stats.packets_decoded


class TestDecodePlanDifferential:
    @given(case=erasure_case())
    @settings(max_examples=200, deadline=None)
    def test_plan_equals_rows_of_full_inverse(self, case):
        field, k, h, missing, arrived, symbols, seed = case
        codec = _fresh_codec(k, h, field)
        _data, rows = _received_rows(codec, missing, arrived, symbols, seed)
        _assert_plan_matches_full_inverse(codec, rows)

    @given(case=erasure_case())
    @settings(max_examples=150, deadline=None)
    def test_decode_matches_scalar_on_data_and_stats(self, case):
        field, k, h, missing, arrived, symbols, seed = case
        codec = _fresh_codec(k, h, field)
        data, rows = _received_rows(codec, missing, arrived, symbols, seed)
        _assert_decodes_like_scalar(field, k, h, rows, data)


# (k, h, missing, arrived parities): the cases the plan's block algebra
# could get wrong without any random draw finding them quickly
_EDGE_CASES = {
    "e_equals_k_no_survivor": (5, 6, [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]),
    "e_equals_k_sparse_parities": (4, 9, [0, 1, 2, 3], [5, 8, 9, 12]),
    "e_equals_1": (7, 3, [3], [7]),
    "e_equals_1_last_parity_only": (7, 3, [0], [9]),
    "k_equals_1": (1, 4, [0], [3]),
    "k_equals_1_first_parity": (1, 1, [0], [1]),
    "parity_0_lost": (6, 5, [1, 4], [7, 10]),
    "non_contiguous_parities_with_spares": (6, 6, [0, 2, 5], [7, 9, 10, 11]),
    "h_greater_than_k": (3, 11, [0, 2], [6, 13]),
    "first_and_last_data_lost": (8, 4, [0, 7], [8, 9]),
}


@pytest.mark.parametrize("field", list(_FIELDS.values()), ids=list(_FIELDS))
@pytest.mark.parametrize("case", list(_EDGE_CASES.values()), ids=list(_EDGE_CASES))
class TestDecodePlanEdgeCases:
    def test_plan_and_decode_match_the_oracle(self, field, case):
        k, h, missing, arrived = case
        codec = _fresh_codec(k, h, field)
        data, rows = _received_rows(codec, missing, arrived, 16, seed=k * 31 + h)
        _assert_plan_matches_full_inverse(codec, rows)
        _assert_decodes_like_scalar(field, k, h, rows, data)


class TestPlanningProduct:
    """One planning product per miss — and none when no data row survived
    (``e == k``), where its right operand would be zero columns wide."""

    @staticmethod
    def _matmul_calls(k, h, missing, arrived) -> int:
        codec = _fresh_codec(k, h, GF256)
        _data, rows = _received_rows(codec, missing, arrived, 16, seed=5)
        with obs.capture() as registry:
            codec.decode_symbols(rows)
            counters = registry.snapshot().counter_values()
        return sum(
            value for (name, _labels), value in counters.items()
            if name == "galois.matmul_calls"
        )

    def test_miss_with_survivors_plans_then_reconstructs(self):
        assert self._matmul_calls(6, 3, [1, 4], [6, 8]) == 2

    def test_miss_without_survivors_only_reconstructs(self):
        assert self._matmul_calls(3, 3, [0, 1, 2], [3, 4, 5]) == 1


class TestBytePayloadRoundtrips:
    @given(
        k=st.integers(min_value=1, max_value=6),
        h=st.integers(min_value=1, max_value=6),
        packet_len=st.sampled_from([1, 2, 7, 32]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_gf16_nibble_packing_roundtrip(self, k, h, packet_len, seed):
        """GF(2^4) packs two symbols per byte; the batched kernels must
        preserve the nibble order end to end."""
        rng = np.random.default_rng(seed)
        codec = _fresh_codec(k, h, GF16)
        data = [rng.bytes(packet_len) for _ in range(k)]
        block = data + codec.encode(data)
        keep = sorted(rng.choice(k + h, size=k, replace=False).tolist())
        assert codec.decode({i: block[i] for i in keep}) == data

    @given(
        k=st.integers(min_value=1, max_value=8),
        h=st.integers(min_value=1, max_value=8),
        packet_words=st.sampled_from([1, 4, 33]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_gf65536_wide_symbol_roundtrip(self, k, h, packet_words, seed):
        """GF(2^16): two-byte symbols through the exp/log batched path."""
        rng = np.random.default_rng(seed)
        codec = _fresh_codec(k, h, GF65536)
        data = [rng.bytes(2 * packet_words) for _ in range(k)]
        block = data + codec.encode(data)
        keep = sorted(rng.choice(k + h, size=k, replace=False).tolist())
        assert codec.decode({i: block[i] for i in keep}) == data
