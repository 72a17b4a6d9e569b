"""Backend-agnostic conformance suite for every registered GF kernel.

The oracle contract (``repro.galois.backends``, DESIGN.md section 16): the
``numpy`` backend — PR 1's gather / nibble-sliced heuristic — *defines*
correctness, and every other registered backend must reproduce its outputs
bit for bit on every field it supports.  Backends may differ in speed,
never in value.

The suite's core is :func:`backend_violations`, a plain function that runs
a backend through a deterministic differential battery (matmul shapes and
edge cases, dtype/contiguity/aliasing, scale-accumulate, RSE encode/decode
round-trips) and returns violation strings.  Hypothesis layers randomized
differential checks on top.  Everything is parameterized over
``backend_names()`` — registering a new backend is sufficient to put it
under the full suite.

The final tests register deliberately broken backends and assert the
battery *fails* them, so a silently weakened suite cannot pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec.rse import InverseCache, RSECodec
from repro.galois import backends as gb
from repro.galois.field import GF16, GF256, GF65536

_FIELDS = {"GF16": GF16, "GF256": GF256, "GF65536": GF65536}

#: Deterministic battery shapes ``(B, r, s, c)``: the paper's encode regime
#: (wide, short), decode-ish tall-thin products, degenerate singletons and
#: zero-extent axes (legal inputs that kernels love to mishandle).
_BATTERY_SHAPES = [
    (1, 1, 1, 1),
    (1, 2, 3, 5),
    (3, 5, 2, 17),
    (2, 4, 9, 64),
    (1, 8, 64, 256),
    (2, 3, 1, 9),
    (2, 3, 4, 0),
    (1, 0, 3, 7),
    (4, 1, 6, 33),
]


def _random_symbols(field, shape, rng):
    return rng.integers(0, field.order, size=shape).astype(field.dtype)


def backend_violations(instance: gb.GFBackend) -> list[str]:
    """Run the differential battery against ``instance``; return violations.

    An empty list means the backend is bit-identical to the ``numpy``
    oracle on every supported field, honours output shape/dtype, tolerates
    non-contiguous and aliased operands, and round-trips RSE blocks.
    Collecting strings instead of asserting lets the broken-backend tests
    prove the battery has teeth.
    """
    oracle = gb.backend("numpy")
    rng = np.random.default_rng(0xBACCED)
    violations: list[str] = []

    def check(condition, message):
        if not condition:
            violations.append(message)

    def guarded(label, fn):
        """Run one battery section; a crash is a violation, not an abort —
        a backend that raises on legal inputs is as broken as one that
        returns wrong values, and the rest of the battery must still run."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - converted to a violation
            violations.append(
                f"{label}: raised {type(exc).__name__}: {exc}"
            )

    for field_name, field in _FIELDS.items():
        if not instance.supports(field):
            # unsupported fields must *fall back*, not diverge: the public
            # entry point has to keep returning oracle values
            def fallback_case():
                a = _random_symbols(field, (3, 4), rng)
                b = _random_symbols(field, (4, 8), rng)
                check(
                    np.array_equal(
                        field.matmul(a, b, backend=instance),
                        field.matmul(a, b, backend=oracle),
                    ),
                    f"{field_name}: unsupported-field fallback diverged",
                )

            guarded(f"{field_name} fallback", fallback_case)
            continue

        def shape_case(n_batch, r, s, c):
            a = _random_symbols(field, (r, s), rng)
            b3 = _random_symbols(field, (n_batch, s, c), rng)
            expected = oracle.matmul_blocks(field, a, b3)
            got = instance.matmul_blocks(field, a, b3)
            label = f"{field_name} matmul {n_batch}x({r},{s})@({s},{c})"
            check(got.shape == expected.shape,
                  f"{label}: shape {got.shape} != {expected.shape}")
            check(got.dtype == field.dtype,
                  f"{label}: dtype {got.dtype} != {field.dtype}")
            check(np.array_equal(got, expected),
                  f"{label}: values diverge from the numpy oracle")
            check(not np.shares_memory(got, b3),
                  f"{label}: output aliases the input batch")

        for shape in _BATTERY_SHAPES:
            guarded(f"{field_name} matmul {shape}",
                    lambda shape=shape: shape_case(*shape))

        def structured_operands():
            # identity must reproduce the operand; zeros must annihilate;
            # all-max symbols stress the reduction/overflow edges
            eye = np.eye(4, dtype=field.dtype)
            b3 = _random_symbols(field, (2, 4, 12), rng)
            check(
                np.array_equal(instance.matmul_blocks(field, eye, b3), b3),
                f"{field_name}: identity matmul is not the identity",
            )
            zeros = np.zeros((3, 4), dtype=field.dtype)
            check(
                not instance.matmul_blocks(field, zeros, b3).any(),
                f"{field_name}: zero coefficients produced nonzero output",
            )
            top = np.full((2, 4), field.order - 1, dtype=field.dtype)
            full = np.full((1, 4, 9), field.order - 1, dtype=field.dtype)
            check(
                np.array_equal(
                    instance.matmul_blocks(field, top, full),
                    oracle.matmul_blocks(field, top, full),
                ),
                f"{field_name}: all-max symbols diverge",
            )

        def layout_and_vectors():
            # non-contiguous views must go through the public entry point
            # unchanged (kernels may copy, values may not move)
            a_big = _random_symbols(field, (6, 10), rng)
            b_big = _random_symbols(field, (4, 10, 40), rng)
            a_view = a_big[::2]                   # stride over rows
            b_view = b_big[::2, :, ::3]           # stride batch and columns
            check(
                np.array_equal(
                    field.matmul(a_view, b_view, backend=instance),
                    field.matmul(
                        np.ascontiguousarray(a_view),
                        np.ascontiguousarray(b_view),
                        backend=oracle,
                    ),
                ),
                f"{field_name}: non-contiguous operands diverge",
            )
            vec = _random_symbols(field, (10,), rng)
            check(
                np.array_equal(
                    field.matmul(a_big, vec, backend=instance),
                    field.matmul(a_big, vec, backend=oracle),
                ),
                f"{field_name}: vector right-operand diverges",
            )

        def scale_accumulate_cases():
            # in-place accumulation, including the c == 0 and c == 1
            # short-circuits and a fully-aliased acc ^= c * acc
            for coeff in [0, 1, 2, field.order - 1]:
                v = _random_symbols(field, (33,), rng)
                acc_ref = _random_symbols(field, (33,), rng)
                acc_got = acc_ref.copy()
                field._scale_accumulate_reference(acc_ref, coeff, v)
                instance.scale_accumulate(field, acc_got, coeff, v)
                check(
                    np.array_equal(acc_got, acc_ref),
                    f"{field_name}: scale_accumulate(c={coeff}) diverges",
                )
            alias_ref = _random_symbols(field, (17,), rng)
            alias_got = alias_ref.copy()
            field._scale_accumulate_reference(alias_ref, 3, alias_ref.copy())
            instance.scale_accumulate(field, alias_got, 3, alias_got)
            check(
                np.array_equal(alias_got, alias_ref),
                f"{field_name}: aliased scale_accumulate(acc, c, acc) "
                f"diverges",
            )

        guarded(f"{field_name} structured operands", structured_operands)
        guarded(f"{field_name} layout/vectors", layout_and_vectors)
        guarded(f"{field_name} scale_accumulate", scale_accumulate_cases)

    # End to end: an RSE codec pinned to this backend must emit the same
    # parities and reconstruct the same bytes as the oracle-pinned codec.
    def codec_round_trip(field_name, field):
        k, h = 6, 3
        pinned = RSECodec(k, h, field=field,
                          inverse_cache=InverseCache(maxsize=16),
                          gf_backend=instance.name)
        reference = RSECodec(k, h, field=field,
                             inverse_cache=InverseCache(maxsize=16),
                             gf_backend="numpy")
        data = _random_symbols(field, (5, k, 64), rng)
        parities = pinned.encode_blocks(data)
        reference_parities = reference.encode_blocks(data)
        check(
            parities.shape == reference_parities.shape
            and np.array_equal(parities, reference_parities),
            f"{field_name}: pinned-codec encode diverges from oracle codec",
        )
        block = np.concatenate([data[0], reference_parities[0]])
        received = {i: block[i] for i in (0, 2, 5, 6, 7, 8)}
        decoded = pinned.decode_symbols(dict(received))
        expected = reference.decode_symbols(dict(received))
        check(
            all(np.array_equal(decoded[i], expected[i]) for i in range(k))
            and all(np.array_equal(decoded[i], data[0][i]) for i in range(k)),
            f"{field_name}: pinned-codec decode diverges",
        )

    for field_name, field in [("GF16", GF16), ("GF256", GF256)]:
        guarded(f"{field_name} codec round-trip",
                lambda fn=field_name, f=field: codec_round_trip(fn, f))
    return violations


# ----------------------------------------------------------------------
# the conformance battery, over every registered backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", gb.backend_names())
def test_backend_passes_conformance_battery(name):
    violations = backend_violations(gb.backend(name))
    assert not violations, "\n".join(violations)


# ----------------------------------------------------------------------
# hypothesis differential checks
# ----------------------------------------------------------------------
@st.composite
def matmul_case(draw):
    field = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    r = draw(st.integers(min_value=0, max_value=7))
    s = draw(st.integers(min_value=1, max_value=9))
    c = draw(st.integers(min_value=0, max_value=65))
    n_batch = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return field, (n_batch, r, s, c), seed


@pytest.mark.parametrize("name", gb.backend_names())
class TestHypothesisDifferential:
    @given(case=matmul_case())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_oracle(self, name, case):
        instance = gb.backend(name)
        field, (n_batch, r, s, c), seed = case
        if not instance.supports(field):
            return  # fallback covered by the battery
        rng = np.random.default_rng(seed)
        a = _random_symbols(field, (r, s), rng)
        b3 = _random_symbols(field, (n_batch, s, c), rng)
        expected = gb.backend("numpy").matmul_blocks(field, a, b3)
        got = instance.matmul_blocks(field, a, b3)
        assert got.dtype == field.dtype
        assert np.array_equal(got, expected)

    @given(
        field_name=st.sampled_from(sorted(_FIELDS)),
        coeff=st.integers(min_value=0, max_value=15),
        length=st.integers(min_value=0, max_value=130),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_accumulate_matches_oracle(
        self, name, field_name, coeff, length, seed
    ):
        instance = gb.backend(name)
        field = _FIELDS[field_name]
        rng = np.random.default_rng(seed)
        v = _random_symbols(field, (length,), rng)
        acc_ref = _random_symbols(field, (length,), rng)
        acc_got = acc_ref.copy()
        field._scale_accumulate_reference(acc_ref, coeff, v)
        instance.scale_accumulate(field, acc_got, coeff, v)
        assert np.array_equal(acc_got, acc_ref)

    @given(
        k=st.integers(min_value=1, max_value=8),
        h=st.integers(min_value=1, max_value=5),
        symbols=st.sampled_from([1, 7, 64]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_rse_round_trip_matches_oracle(self, name, k, h, symbols, seed):
        instance = gb.backend(name)
        rng = np.random.default_rng(seed)
        pinned = RSECodec(k, h, inverse_cache=InverseCache(maxsize=16),
                          gf_backend=name)
        reference = RSECodec(k, h, inverse_cache=InverseCache(maxsize=16),
                             gf_backend="numpy")
        data = _random_symbols(GF256, (k, symbols), rng)
        assert np.array_equal(
            pinned.encode_symbols(data), reference.encode_symbols(data)
        )
        block = np.concatenate([data, reference.encode_symbols(data)])
        # drop as many packets as the code can absorb, keep any k
        keep = rng.permutation(k + h)[:k]
        received = {int(i): block[int(i)] for i in keep}
        decoded = pinned.decode_symbols(dict(received))
        assert all(np.array_equal(decoded[i], data[i]) for i in range(k))


# ----------------------------------------------------------------------
# the suite must have teeth: broken backends are caught
# ----------------------------------------------------------------------
class _XorOnlyBackend(gb.GFBackend):
    """Deliberately wrong: 'multiplies' by XORing coefficient onto symbols.

    Shape- and dtype-correct, agrees with the oracle whenever every
    coefficient is zero — exactly the kind of plausible-looking kernel bug
    the differential battery exists to catch.
    """

    name = "broken-xor"

    def matmul_blocks(self, field, a, b3):
        out = np.zeros((b3.shape[0], a.shape[0], b3.shape[2]),
                       dtype=field.dtype)
        for j in range(a.shape[0]):
            for i in range(a.shape[1]):
                coeff = int(a[j, i])
                if coeff:
                    out[:, j, :] ^= b3[:, i, :] ^ field.dtype.type(coeff)
        return out


class _OffByOneBackend(gb.GFBackend):
    """Deliberately wrong in one lane only: flips the low bit of symbol 0
    of every output row — the minimal divergence a weakened bit-identity
    check (shape compare, norm compare, spot checks) would miss."""

    name = "broken-lane"

    def matmul_blocks(self, field, a, b3):
        out = gb.backend("numpy").matmul_blocks(field, a, b3).copy()
        if out.size:
            out[..., 0] ^= field.dtype.type(1)
        return out


class _BrokenScaleBackend(gb.GFBackend):
    """Correct matmul, broken scale_accumulate override (drops c == 1)."""

    name = "broken-scale"

    def matmul_blocks(self, field, a, b3):
        return gb.backend("numpy").matmul_blocks(field, a, b3)

    def scale_accumulate(self, field, acc, c, v):
        if c <= 1:
            return  # wrong: c == 1 must XOR v in
        field._scale_accumulate_reference(acc, c, v)


class _WrongShapeBackend(gb.GFBackend):
    """Returns the right values in the wrong layout (batch axis last)."""

    name = "broken-shape"

    def matmul_blocks(self, field, a, b3):
        return np.moveaxis(
            gb.backend("numpy").matmul_blocks(field, a, b3), 0, -1
        )


@pytest.mark.parametrize(
    "broken_cls",
    [_XorOnlyBackend, _OffByOneBackend, _BrokenScaleBackend,
     _WrongShapeBackend],
    ids=lambda cls: cls.name,
)
def test_battery_fails_broken_backend(broken_cls):
    with gb.temporary_backend(broken_cls):
        violations = backend_violations(gb.backend(broken_cls.name))
    assert violations, (
        f"the conformance battery passed the deliberately broken "
        f"{broken_cls.name!r} backend — the suite has lost its teeth"
    )


def test_battery_passes_oracle_against_itself():
    """The teeth test is only meaningful if a correct backend passes."""
    assert backend_violations(gb.backend("numpy")) == []


def test_broken_backend_is_gone_after_teeth_test():
    assert not any(name.startswith("broken-") for name in gb.backend_names())
