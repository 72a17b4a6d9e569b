"""Conformance battery for the erasure code (``RSECodec``).

The contract: any ``k`` of the ``n`` packets decode to the original data
exactly, and fewer than ``k`` raise ``DecodeError`` — never wrong data
returned silently.  Around that sit the systematic block layout, stats
accounting and batch/serial encode agreement.

The battery's core is :func:`conformance_violations`, a plain function
returning violation strings; the final tests run it against deliberately
broken ``RSECodec`` subclasses and assert it *fails* for them, so a
silently weakened battery cannot pass.
"""

import itertools

import numpy as np
import pytest

from repro.fec import create_codec
from repro.fec.code import CodecStats, CodeGeometryError, DecodeError
from repro.fec.rse import InverseCache, RSECodec

GEOMETRIES = [(4, 2), (7, 3)]

PACKET_LEN = 8


def _patterns(n: int):
    """Every reception pattern of a length-``n`` block."""
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


def conformance_violations(cls, geometries=GEOMETRIES) -> list[str]:
    """Run every conformance check against ``cls``; return violations.

    An empty list means the codec honours the contract on all tested
    geometries.  Collecting strings instead of asserting lets the
    broken-codec tests verify the battery has teeth.
    """
    rng = np.random.default_rng(0xC0DEC)
    violations: list[str] = []

    def check(condition, message):
        if not condition:
            violations.append(message)

    for k, h in geometries:
        tag = f"{cls.__name__}({k}+{h})"
        codec = cls(k, h)
        n = codec.n
        check(
            (codec.k, codec.h, codec.n) == (k, h, k + h),
            f"{tag}: geometry attributes wrong",
        )

        # --- encode shapes ---------------------------------------------
        data = [rng.bytes(PACKET_LEN) for _ in range(k)]
        parities = codec.encode(data)
        check(len(parities) == h, f"{tag}: encode returned {len(parities)} parities")
        check(
            all(len(p) == PACKET_LEN for p in parities),
            f"{tag}: parity length != packet length",
        )
        block = data + parities

        # --- batch encode agrees with serial encode --------------------
        groups = [[rng.bytes(PACKET_LEN) for _ in range(k)] for _ in range(3)]
        stacked = np.stack(
            [np.vstack([codec._to_symbols(p) for p in group]) for group in groups]
        )
        batched = codec.encode_blocks(stacked)
        check(
            batched.shape == (3, h, PACKET_LEN // codec._symbol_bytes),
            f"{tag}: encode_blocks shape {batched.shape}",
        )
        for b, group in enumerate(groups):
            serial = codec.encode(group)
            batch = [codec._to_bytes(row) for row in batched[b]]
            check(
                serial == batch,
                f"{tag}: encode_blocks block {b} differs from per-group encode",
            )
        empty = codec.encode_blocks(
            np.empty((0, k, PACKET_LEN // codec._symbol_bytes), dtype=codec.field.dtype)
        )
        check(empty.shape[0] == 0, f"{tag}: empty batch not empty")

        # --- any k decode, fewer raise: every pattern ------------------
        for pattern in _patterns(n):
            received = {i: block[i] for i in pattern}
            if len(pattern) >= k:
                try:
                    decoded = codec.decode(received)
                except DecodeError as exc:
                    check(
                        False,
                        f"{tag}: decode of {pattern} raised DecodeError: {exc}",
                    )
                    continue
                check(
                    decoded == data,
                    f"{tag}: decode of {pattern} returned wrong data",
                )
            else:
                try:
                    codec.decode(received)
                except DecodeError:
                    pass
                else:
                    check(
                        False,
                        f"{tag}: decoded {pattern} from fewer than k packets",
                    )

        # --- stats accounting ------------------------------------------
        fresh = cls(k, h)
        check(
            fresh.stats == CodecStats(),
            f"{tag}: stats nonzero on a fresh instance",
        )
        fresh.encode(data)
        check(
            fresh.stats.packets_encoded == k,
            f"{tag}: encode charged {fresh.stats.packets_encoded} "
            f"packets_encoded, expected k={k}",
        )
        check(
            fresh.stats.parities_produced == h,
            f"{tag}: encode charged {fresh.stats.parities_produced} "
            f"parities_produced, expected h={h}",
        )
        if h > 0:
            check(
                fresh.stats.symbols_multiplied > 0,
                f"{tag}: encode did no accounted symbol work",
            )
            # lose data packet 0, repair it from the first parity
            lossy = {i: block[i] for i in range(1, k + 1)}
            before = fresh.stats.packets_decoded
            try:
                fresh.decode(lossy)
            except DecodeError as exc:
                # recorded by the pattern sweep above too; the stats
                # check is moot then
                check(False, f"{tag}: decode raised on {sorted(lossy)}: {exc}")
            else:
                check(
                    fresh.stats.packets_decoded > before,
                    f"{tag}: reconstruction did not count packets_decoded",
                )
        fresh.stats.reset()
        check(
            fresh.stats == CodecStats(),
            f"{tag}: stats.reset() left nonzero counters",
        )

    return violations


def test_rse_conforms():
    """RSECodec honours the full contract."""
    violations = conformance_violations(RSECodec)
    assert violations == [], "\n".join(violations)


def test_create_codec_builds_rse_only():
    """The name a session announce carries builds RSECodec; no other does."""
    for k, h in GEOMETRIES:
        codec = create_codec("rse", k, h)
        assert type(codec) is RSECodec
        assert (codec.k, codec.h) == (k, h)
    cache = InverseCache()
    assert create_codec("rse", 4, 2, inverse_cache=cache).inverse_cache is cache
    for name in ("xor", "rect", "lrc", "RSE", ""):
        with pytest.raises(KeyError):
            create_codec(name, 4, 2)
    # impossible geometry fails with the one error type, a ValueError
    with pytest.raises(CodeGeometryError, match="exceeds limit"):
        create_codec("rse", 250, 10)
    with pytest.raises(CodeGeometryError):
        create_codec("rse", 0, 1)


# ----------------------------------------------------------------------
# the battery must have teeth: deliberately broken codecs must fail it
# ----------------------------------------------------------------------
class _WrongDataCodec(RSECodec):
    """Encodes honestly but reconstructs zeros: silent corruption."""

    def decode_symbols(self, rows):
        length = len(next(iter(rows.values())))
        return {
            i: rows.get(i, np.zeros(length, dtype=self.field.dtype))
            for i in range(self.k)
        }


class _OverclaimingCodec(RSECodec):
    """Takes any k packets but cannot repair an erasure."""

    def decode_symbols(self, rows):
        missing = [i for i in range(self.k) if i not in rows]
        if missing:
            raise DecodeError(f"cannot actually repair {missing}")
        return {i: rows[i] for i in range(self.k)}


@pytest.mark.parametrize("cls", [_WrongDataCodec, _OverclaimingCodec])
def test_broken_codec_fails_conformance(cls):
    """A broken codec is caught by the battery."""
    violations = conformance_violations(cls)
    assert violations, f"conformance battery let {cls.__name__} through"
