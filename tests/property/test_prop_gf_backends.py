"""Conformance suite: the GF kernel against ``GaloisField.matmul_reference``.

The contract (DESIGN.md section 16): the reference product — PR 1's
gather / nibble-sliced heuristic — *defines* correctness, and the kernel
behind ``GaloisField.matmul`` must reproduce its outputs bit for bit in
every field.  A kernel may differ in speed, never in value.

The suite's core is :func:`kernel_violations`, a plain function that runs a
kernel callable ``kernel(field, a, b3)`` through a deterministic
differential battery (matmul shapes and edge cases, dtype/contiguity/
aliasing, the scalar scale-accumulate loop, RSE encode/decode round-trips)
and returns violation strings.  Hypothesis layers randomized differential
checks on top.

The final tests hand the battery deliberately broken kernels and assert it
*fails* them, so a silently weakened suite cannot pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fec.rse import InverseCache, RSECodec
from repro.galois import packed
from repro.galois.field import GF16, GF256, GF65536

_FIELDS = {"GF16": GF16, "GF256": GF256, "GF65536": GF65536}

#: The kernels under test, by the name their test ids carry.
_KERNELS = {"packed": packed.matmul_blocks}

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


def kernel_violations(kernel) -> list[str]:
    """Run the differential battery against ``kernel``; return violations.

    ``kernel(field, a, b3)`` computes ``(r, s) @ (B, s, c) -> (B, r, c)``.
    An empty list means it is bit-identical to ``matmul_reference`` in
    every field, honours output shape/dtype, tolerates non-contiguous and
    aliased operands, agrees with the scalar scale-accumulate loop and
    round-trips RSE blocks.  Collecting strings instead of asserting lets
    the broken-kernel tests prove the battery has teeth.
    """
    rng = np.random.default_rng(0xBACCED)
    violations: list[str] = []

    def check(condition, message):
        if not condition:
            violations.append(message)

    def guarded(label, fn):
        """Run one battery section; a crash is a violation, not an abort —
        a kernel that raises on legal inputs is as broken as one that
        returns wrong values, and the rest of the battery must still run."""
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - converted to a violation
            violations.append(
                f"{label}: raised {type(exc).__name__}: {exc}"
            )

    for field_name, field in _FIELDS.items():

        def shape_case(n_batch, r, s, c):
            a = _random_symbols(field, (r, s), rng)
            b3 = _random_symbols(field, (n_batch, s, c), rng)
            expected = field.matmul_reference(a, b3)
            got = kernel(field, a, b3)
            label = f"{field_name} matmul {n_batch}x({r},{s})@({s},{c})"
            check(got.shape == expected.shape,
                  f"{label}: shape {got.shape} != {expected.shape}")
            check(got.dtype == field.dtype,
                  f"{label}: dtype {got.dtype} != {field.dtype}")
            check(np.array_equal(got, expected),
                  f"{label}: values diverge from the reference")
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
                np.array_equal(kernel(field, eye, b3), b3),
                f"{field_name}: identity matmul is not the identity",
            )
            zeros = np.zeros((3, 4), dtype=field.dtype)
            check(
                not kernel(field, zeros, b3).any(),
                f"{field_name}: zero coefficients produced nonzero output",
            )
            top = np.full((2, 4), field.order - 1, dtype=field.dtype)
            full = np.full((1, 4, 9), field.order - 1, dtype=field.dtype)
            check(
                np.array_equal(
                    kernel(field, top, full),
                    field.matmul_reference(top, full),
                ),
                f"{field_name}: all-max symbols diverge",
            )

        def layout_and_vectors():
            # non-contiguous views reach the kernel as they are
            # (kernels may copy, values may not move)
            a_big = _random_symbols(field, (6, 10), rng)
            b_big = _random_symbols(field, (4, 10, 40), rng)
            a_view = a_big[::2]                   # stride over rows
            b_view = b_big[::2, :, ::3]           # stride batch and columns
            check(
                np.array_equal(
                    kernel(field, a_view, b_view),
                    field.matmul_reference(
                        np.ascontiguousarray(a_view),
                        np.ascontiguousarray(b_view),
                    ),
                ),
                f"{field_name}: non-contiguous operands diverge",
            )
            vec = _random_symbols(field, (10,), rng)
            check(
                np.array_equal(
                    kernel(field, a_big, vec[None, :, None])[0, :, 0],
                    field.matmul_reference(a_big, vec),
                ),
                f"{field_name}: vector right-operand diverges",
            )

        def scale_accumulate_cases():
            # the scalar reference loop (table-driven scale, then XOR) and
            # the kernel's 1x1 product are independent routes to c * v:
            # they must agree, including the loop's c == 0 and c == 1
            # short-circuits and a fully-aliased acc ^= c * acc
            def product(coeff, v):
                a = np.array([[coeff]], dtype=field.dtype)
                return kernel(field, a, v[None, None, :])[0, 0]

            for coeff in [0, 1, 2, field.order - 1]:
                v = _random_symbols(field, (33,), rng)
                acc = _random_symbols(field, (33,), rng)
                expected = acc ^ product(coeff, v)
                field.scale_accumulate(acc, coeff, v)
                check(
                    np.array_equal(acc, expected),
                    f"{field_name}: scale_accumulate(c={coeff}) diverges",
                )
            alias = _random_symbols(field, (17,), rng)
            expected = alias ^ product(3, alias)
            field.scale_accumulate(alias, 3, alias)
            check(
                np.array_equal(alias, expected),
                f"{field_name}: aliased scale_accumulate(acc, c, acc) "
                f"diverges",
            )

        guarded(f"{field_name} structured operands", structured_operands)
        guarded(f"{field_name} layout/vectors", layout_and_vectors)
        guarded(f"{field_name} scale_accumulate", scale_accumulate_cases)

    # End to end: the kernel's parities for an RSE code must be the
    # reference's, and must decode on the scalar path — which runs no
    # matrix product at all — back to the data.
    def codec_round_trip(field_name, field):
        k, h = 6, 3
        codec = RSECodec(k, h, field=field,
                         inverse_cache=InverseCache(maxsize=16))
        data = _random_symbols(field, (5, k, 64), rng)
        parities = kernel(field, codec.generator[k:], data)
        reference_parities = field.matmul_reference(codec.generator[k:], data)
        check(
            parities.shape == reference_parities.shape
            and np.array_equal(parities, reference_parities),
            f"{field_name}: encode product diverges from the reference",
        )
        block = np.concatenate([data[0], parities[0]])
        received = {i: block[i] for i in (0, 2, 5, 6, 7, 8)}
        decoded = codec.decode_symbols_scalar(received)
        check(
            all(np.array_equal(decoded[i], data[0][i]) for i in range(k)),
            f"{field_name}: the kernel's parities do not decode",
        )

    for field_name, field in [("GF16", GF16), ("GF256", GF256)]:
        guarded(f"{field_name} codec round-trip",
                lambda fn=field_name, f=field: codec_round_trip(fn, f))
    return violations


_kernel_cases = pytest.mark.parametrize(
    "kernel", list(_KERNELS.values()), ids=list(_KERNELS)
)


# ----------------------------------------------------------------------
# the conformance battery
# ----------------------------------------------------------------------
@_kernel_cases
def test_backend_passes_conformance_battery(kernel):
    violations = kernel_violations(kernel)
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


@_kernel_cases
class TestHypothesisDifferential:
    @given(case=matmul_case())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_oracle(self, kernel, case):
        field, (n_batch, r, s, c), seed = case
        rng = np.random.default_rng(seed)
        a = _random_symbols(field, (r, s), rng)
        b3 = _random_symbols(field, (n_batch, s, c), rng)
        got = kernel(field, a, b3)
        assert got.dtype == field.dtype
        assert np.array_equal(got, field.matmul_reference(a, b3))

    @given(
        field_name=st.sampled_from(sorted(_FIELDS)),
        coeff=st.integers(min_value=0, max_value=15),
        length=st.integers(min_value=0, max_value=130),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_accumulate_matches_oracle(
        self, kernel, field_name, coeff, length, seed
    ):
        # the scalar loop's table-driven c * v against the kernel's
        field = _FIELDS[field_name]
        rng = np.random.default_rng(seed)
        v = _random_symbols(field, (length,), rng)
        acc = _random_symbols(field, (length,), rng)
        a = np.array([[coeff]], dtype=field.dtype)
        expected = acc ^ kernel(field, a, v[None, None, :])[0, 0]
        field.scale_accumulate(acc, coeff, v)
        assert np.array_equal(acc, expected)

    @given(
        k=st.integers(min_value=1, max_value=8),
        h=st.integers(min_value=1, max_value=5),
        symbols=st.sampled_from([1, 7, 64]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_rse_round_trip_matches_oracle(self, kernel, k, h, symbols, seed):
        rng = np.random.default_rng(seed)
        codec = RSECodec(k, h, inverse_cache=InverseCache(maxsize=16))
        data = _random_symbols(GF256, (k, symbols), rng)
        parities = GF256.matmul_reference(codec.generator[k:], data)
        assert np.array_equal(
            kernel(GF256, codec.generator[k:], data[None])[0], parities
        )
        assert np.array_equal(codec.encode_symbols(data), parities)
        block = np.concatenate([data, parities])
        # drop as many packets as the code can absorb, keep any k
        keep = rng.permutation(k + h)[:k]
        received = {int(i): block[int(i)] for i in keep}
        decoded = codec.decode_symbols(dict(received))
        reference = codec.decode_symbols_scalar(dict(received))
        assert all(
            np.array_equal(decoded[i], data[i])
            and np.array_equal(reference[i], data[i])
            for i in range(k)
        )


# ----------------------------------------------------------------------
# the suite must have teeth: broken kernels are caught
# ----------------------------------------------------------------------
def _xor_only(field, a, b3):
    """Deliberately wrong: 'multiplies' by XORing coefficient onto symbols.

    Shape- and dtype-correct, agrees with the reference whenever every
    coefficient is zero — exactly the kind of plausible-looking kernel bug
    the differential battery exists to catch.
    """
    out = np.zeros((b3.shape[0], a.shape[0], b3.shape[2]),
                   dtype=field.dtype)
    for j in range(a.shape[0]):
        for i in range(a.shape[1]):
            coeff = int(a[j, i])
            if coeff:
                out[:, j, :] ^= b3[:, i, :] ^ field.dtype.type(coeff)
    return out


def _off_by_one(field, a, b3):
    """Deliberately wrong in one lane only: flips the low bit of symbol 0
    of every output row — the minimal divergence a weakened bit-identity
    check (shape compare, norm compare, spot checks) would miss."""
    out = field.matmul_reference(a, b3).copy()
    if out.size:
        out[..., 0] ^= field.dtype.type(1)
    return out


def _drops_unit_scale(field, a, b3):
    """Correct products, except that scaling by the constant 1 yields 0 —
    the ``c == 1`` short-circuit gone wrong, which only the
    scale-accumulate section reaches."""
    if a.shape == (1, 1) and a[0, 0] == 1:
        return np.zeros((b3.shape[0], 1, b3.shape[2]), dtype=field.dtype)
    return field.matmul_reference(a, b3)


def _wrong_shape(field, a, b3):
    """Returns the right values in the wrong layout (batch axis last)."""
    return np.moveaxis(field.matmul_reference(a, b3), 0, -1)


_BROKEN_KERNELS = {
    "broken-xor": _xor_only,
    "broken-lane": _off_by_one,
    "broken-scale": _drops_unit_scale,
    "broken-shape": _wrong_shape,
}


@pytest.mark.parametrize(
    "broken", list(_BROKEN_KERNELS.values()), ids=list(_BROKEN_KERNELS)
)
def test_battery_fails_broken_backend(broken):
    assert kernel_violations(broken), (
        f"the conformance battery passed the deliberately broken "
        f"{broken.__name__!r} kernel — the suite has lost its teeth"
    )
