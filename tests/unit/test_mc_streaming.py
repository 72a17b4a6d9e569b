"""StreamingMoments: the exact mergeable accumulator behind sharded MC.

The load-bearing property is *partition invariance*: folding one multiset
of samples through any arrangement of chunks, merges and orderings must
land on bit-identical accumulator state.  That is what lets the sharded
engine promise jobs- and chunking-independent statistics.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mc._common import summarize
from repro.mc.streaming import StreamingMoments

# Finite, non-degenerate float64 payloads.  The simulators only ever emit
# modest positive values, but the accumulator's contract is all finite
# floats — exercise subnormals, negatives and wide magnitude spreads.
finite_samples = st.lists(
    st.floats(
        min_value=-1e12,
        max_value=1e12,
        allow_nan=False,
        allow_infinity=False,
    ),
    min_size=1,
    max_size=60,
)


def folded(samples) -> StreamingMoments:
    moments = StreamingMoments()
    moments.update_many(samples)
    return moments


class TestExactness:
    @given(finite_samples, st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_partition_is_bit_identical(self, samples, data):
        """Split points + merge order cannot change the state at all."""
        reference = folded(samples)

        cuts = data.draw(
            st.lists(
                st.integers(0, len(samples)), max_size=4, unique=True
            ).map(sorted)
        )
        bounds = [0, *cuts, len(samples)]
        parts = [
            folded(samples[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]
        data.draw(st.randoms(use_true_random=False)).shuffle(parts)
        merged = StreamingMoments()
        for part in parts:
            merged.merge(part)

        assert merged == reference  # exact internal state, not approx
        assert merged.mean == reference.mean
        assert (
            merged.stderr == reference.stderr
            or (math.isnan(merged.stderr) and math.isnan(reference.stderr))
        )

    @given(finite_samples)
    @settings(max_examples=80, deadline=None)
    def test_matches_summarize_within_float_noise(self, samples):
        """merge/stream read-out == two-pass numpy summarize to 1e-12.

        The accumulator is exactly rounded; numpy's two-pass std carries
        relative error that blows up with the condition number
        ``mean^2 / variance`` (catastrophic cancellation on near-constant
        data), so the comparison guards against ill-conditioned draws
        rather than pretending numpy is exact.
        """
        moments = folded(samples)
        reference = summarize(samples)

        assert moments.count == reference.replications
        # near-cancelling samples make the float mean ill-conditioned
        # too, so the absolute guard scales with the sample magnitude
        scale = max(abs(s) for s in samples)
        assert math.isclose(
            moments.mean,
            reference.mean,
            rel_tol=1e-12,
            abs_tol=1e-12 * (1.0 + scale),
        )
        if len(samples) == 1:
            assert math.isnan(moments.stderr)
            assert math.isnan(reference.stderr)
            return
        if moments.m2 > (1e-10 * scale) ** 2:  # numpy's result is trustworthy
            assert math.isclose(
                moments.stderr,
                reference.stderr,
                rel_tol=1e-9,
                abs_tol=1e-12 * (1.0 + scale),
            )

    def test_known_values(self):
        moments = folded([1.0, 2.0, 3.0, 4.0])
        assert moments.count == 4
        assert moments.mean == 2.5
        assert moments.m2 == 5.0
        assert moments.variance == 5.0 / 3.0
        assert math.isclose(
            moments.stderr, math.sqrt(5.0 / 3.0 / 4.0), rel_tol=1e-15
        )

    def test_catastrophic_cancellation_resistance(self):
        # 1e9 +/- 1: textbook float sum-of-squares loses these deviations
        moments = folded([1e9 - 1.0, 1e9 + 1.0])
        assert moments.mean == 1e9
        assert moments.m2 == 2.0
        assert moments.variance == 2.0

    def test_subnormals_and_zero(self):
        tiny = 5e-324  # smallest positive subnormal
        moments = folded([tiny, 0.0, -tiny])
        assert moments.count == 3
        assert moments.mean == 0.0


#: few distinct values, many repeats: the shape of a chunk of ``sent / k``
repeated_samples = st.lists(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.05, 1.1, 1.15,
         1.0 / 3.0, 2.0, -7.5, 1e300]
    )
    | st.floats(allow_nan=False, allow_infinity=False),
    max_size=200,
)


class TestUpdateMany:
    """``update_many`` folds each distinct value once, weighted by its
    count; the state must be the per-sample ``update`` loop's, bit for bit."""

    @given(repeated_samples)
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_sample_loop(self, samples):
        reference = StreamingMoments()
        for sample in samples:
            reference.update(sample)
        chunk = StreamingMoments()
        chunk.update_many(np.array(samples, dtype=float))
        assert chunk == reference
        assert chunk.to_json() == reference.to_json()

    def test_a_chunk_of_repeats_is_a_handful_of_folds(self, monkeypatch):
        folds = []
        real = StreamingMoments._fold

        def counting(self, value, count):
            folds.append((value, count))
            real(self, value, count)

        monkeypatch.setattr(StreamingMoments, "_fold", counting)
        moments = StreamingMoments()
        moments.update_many([1.05] * 100 + [1.1] * 27 + [1.15])
        assert folds == [(1.05, 100), (1.1, 27), (1.15, 1)]
        assert moments.count == 128

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_named_and_rejects_the_chunk(self, bad):
        moments = folded([1.0, 2.0])
        before = moments.to_json()
        with pytest.raises(ValueError, match=f"must be finite, got {bad}"):
            moments.update_many([3.0, bad, 4.0, math.nan])
        assert moments.to_json() == before


class TestContract:
    def test_empty_readout_raises(self):
        empty = StreamingMoments()
        for attribute in ("mean", "m2", "variance", "stderr"):
            with pytest.raises(ValueError):
                getattr(empty, attribute)
        with pytest.raises(ValueError):
            empty.result()

    def test_single_sample_has_nan_spread(self):
        moments = folded([7.25])
        assert moments.mean == 7.25
        assert math.isnan(moments.variance)
        assert math.isnan(moments.stderr)
        result = moments.result()
        assert result.replications == 1
        assert result.compatible_with(123.0)  # vacuous, per MCResult

    def test_rejects_non_finite(self):
        moments = StreamingMoments()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                moments.update(bad)
        assert moments.count == 0  # the poison sample was not absorbed

    def test_merge_empty_is_identity(self):
        moments = folded([1.5, 2.5])
        before = moments.result()
        moments.merge(StreamingMoments())
        assert moments.result() == before

    def test_result_matches_mcresult_fields(self):
        samples = [2.0, 4.0, 6.0]
        result = folded(samples).result()
        reference = summarize(samples)
        assert result.replications == reference.replications
        assert math.isclose(result.mean, reference.mean, rel_tol=1e-15)
        assert math.isclose(result.stderr, reference.stderr, rel_tol=1e-12)


class TestSerialization:
    @given(finite_samples)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_is_exact(self, samples):
        moments = folded(samples)
        payload = json.loads(json.dumps(moments.to_json()))  # wire trip
        assert StreamingMoments.from_json(payload) == moments

    def test_json_is_small(self):
        # the whole point of streaming: shipping a shard's result is O(1)
        moments = folded(np.linspace(1.0, 3.0, 500))
        assert len(json.dumps(moments.to_json())) < 2000

    def test_from_json_rejects_negative_count(self):
        with pytest.raises(ValueError):
            StreamingMoments.from_json({"count": -1, "s1": "0", "s2": "0"})

    @pytest.mark.parametrize(
        "state,field",
        [
            # would read out stderr = -0.0
            ({"count": 2, "s1": "0", "s2": "-1"}, "s2"),
            # would merge silently into a good accumulator and shift it
            ({"count": 0, "s1": "5", "s2": "25"}, "s1"),
            ({"count": 0, "s1": "0", "s2": "1"}, "s2"),
            # Cauchy-Schwarz: 2 * 1 < 2**2
            ({"count": 2, "s1": "2", "s2": "1"}, "s2"),
        ],
    )
    def test_from_json_rejects_states_no_samples_produce(self, state, field):
        with pytest.raises(ValueError, match=field):
            StreamingMoments.from_json(state)

    def test_from_json_accepts_the_edge_states_samples_do_produce(self):
        # count 0 and all-equal samples sit exactly on the bounds
        for moments in (StreamingMoments(), folded([3.5] * 4), folded([-0.0])):
            assert StreamingMoments.from_json(moments.to_json()) == moments

    @given(st.lists(finite_samples, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_chunks_round_trip_and_merge(self, chunks):
        merged, reference = StreamingMoments(), StreamingMoments()
        for chunk in chunks:
            payload = json.loads(json.dumps(folded(chunk).to_json()))
            merged.merge(StreamingMoments.from_json(payload))
            reference.update_many(chunk)
        assert merged == reference
