"""Unit tests: the packed-lane GF kernel's own edges and the encode path.

Value-level conformance with ``GaloisField.matmul_reference`` lives in
``tests/property/test_prop_gf_backends.py``; this file covers what that
battery does not aim at — the ``packed`` kernel's lane, block and pass
boundaries and both sides of its gather threshold — plus the telemetry
counters on hot calls and the zero-copy encode/handoff paths
(``np.shares_memory`` regressions).
"""

import numpy as np
import pytest

from repro import obs
from repro.fec.rse import InverseCache, RSECodec
from repro.galois import packed
from repro.galois.field import GF16, GF256, GF65536, GaloisField


class TestTelemetry:
    def test_hot_call_counters(self):
        obs.enable()
        try:
            obs.reset()
            rng = np.random.default_rng(5)
            a = rng.integers(0, 256, size=(2, 4)).astype(np.uint8)
            b3 = rng.integers(0, 256, size=(3, 4, 8)).astype(np.uint8)
            GF256.matmul(a, b3)
            GF256.matmul(a, b3)
            GF256.matmul_reference(a, b3)  # tests only: not a hot call
            snap = obs.snapshot()
            # one label set per metric (the ledger sums over label sets)
            # and no other galois.* counter
            assert {
                key: value
                for key, value in snap.counter_values().items()
                if key[0].startswith("galois.")
            } == {
                ("galois.matmul_calls", (("m", "8"),)): 2,
                ("galois.product_terms", (("m", "8"),)): 2 * (2 * 4 * 8 * 3),
            }
            assert snap.value("galois.kernel_seconds") >= 0.0
        finally:
            obs.disable()
            obs.reset()


# ----------------------------------------------------------------------
# the packed kernel's own edges
# ----------------------------------------------------------------------
@pytest.fixture
def lanes(monkeypatch):
    """``lanes()`` switches the kernel's gather thresholds off, so inputs of
    any size reach the lane code; ``lanes(BLOCK_BYTES=...)`` also shrinks
    the block / table budgets so small inputs cross block and pass
    boundaries."""

    def configure(**budgets):
        for constant, value in {
            "SMALL_TERMS": 0, "GATHER_TERMS": 0, "GATHER_COLUMNS": 0,
            **budgets,
        }.items():
            monkeypatch.setattr(packed, constant, value)

    return configure


def _symbols(field, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, field.order, size=shape).astype(field.dtype)


def _assert_matches_reference(field, a, b3):
    expected = field.matmul_reference(a, b3)
    got = packed.matmul_blocks(field, a, b3)
    assert got.shape == expected.shape and got.dtype == field.dtype
    assert np.array_equal(got, expected)


class TestPackedKernel:
    @pytest.mark.parametrize(
        "field, rows",
        [
            (GF256, (1, 7, 8, 9, 16, 17, 24, 25)),   # 8 lanes per word
            (GF65536, (3, 4, 5, 8, 9)),              # 4 lanes per word
            (GF16, (1, 8, 9, 17)),
            (GaloisField(12), (4, 5)),   # high-byte table of 16 entries
            (GaloisField(3), (2, 9)),
        ],
        ids=lambda value: f"m{value.m}" if hasattr(value, "m") else None,
    )
    def test_lane_boundaries(self, lanes, field, rows):
        lanes()
        for r in rows:
            a = _symbols(field, (r, 6), seed=r)
            b3 = _symbols(field, (2, 6, 37), seed=100 + r)  # B > 1, odd c
            _assert_matches_reference(field, a, b3)

    @pytest.mark.parametrize("total", [63, 64, 65, 130, 200])
    def test_block_boundaries(self, lanes, total):
        # BLOCK_BYTES = 1 floors the block at 64 output columns
        lanes(BLOCK_BYTES=1)
        for field in (GF256, GF65536):
            a = _symbols(field, (9, 5), seed=total)
            _assert_matches_reference(
                field, a, _symbols(field, (1, 5, total), seed=1)
            )
        # the same column count split over a batch: B * c, c odd
        if total % 5 == 0:
            a = _symbols(GF256, (9, 5), seed=total)
            _assert_matches_reference(
                GF256, a, _symbols(GF256, (5, 5, total // 5), seed=2)
            )

    def test_row_passes_bound_the_tables(self, lanes):
        # a table budget of one word per pass: 20 rows go in 3 (m = 8) or
        # 5 (m = 16) passes, the last one partial
        lanes(TABLE_BYTES=1)
        for field in (GF256, GF65536):
            a = _symbols(field, (20, 7), seed=3)
            b3 = _symbols(field, (3, 7, 50), seed=4)
            _assert_matches_reference(field, a, b3)

    def test_wide_reduction_axis_widens_the_index(self, lanes):
        # 256 * s no longer fits uint16 from s = 257 on
        lanes()
        for s in (256, 257):
            a = _symbols(GF256, (3, s), seed=s)
            _assert_matches_reference(
                GF256, a, _symbols(GF256, (1, s, 40), seed=5)
            )

    @pytest.mark.parametrize(
        "field, shape_below, shape_at",
        [
            # r * s * B * c against 98304 terms at m <= 8 ...
            (GF256, ((12, 8), (1, 8, 1023)), ((12, 8), (1, 8, 1024))),
            (GF16, ((12, 8), (1, 8, 1023)), ((12, 8), (1, 8, 1024))),
            # ... and 49152 at m = 16
            (GF65536, ((6, 8), (1, 8, 1023)), ((6, 8), (1, 8, 1024))),
            # fewer than 32 output columns never repay the tables
            (GF256, ((64, 64), (1, 64, 31)), ((64, 64), (1, 64, 32))),
            (GF65536, ((64, 64), (1, 64, 31)), ((64, 64), (1, 64, 32))),
        ],
    )
    def test_both_sides_of_the_gather_threshold(
        self, monkeypatch, field, shape_below, shape_at
    ):
        # below the threshold m <= 8 takes the small-product path and
        # m = 16 the reference's gather; at it, the lanes
        calls = []
        if field.m <= 8:
            owner, name = packed, "_matmul_small"
            original = packed._matmul_small

            def spy(field, a, b3):
                calls.append(b3.shape)
                return original(field, a, b3)
        else:
            owner, name = GaloisField, "_matmul_gather"
            original = GaloisField._matmul_gather

            def spy(self, a, b3):
                calls.append(b3.shape)
                return original(self, a, b3)

        for (a_shape, b_shape), expect_small in (
            (shape_below, True), (shape_at, False)
        ):
            a = _symbols(field, a_shape, seed=6)
            b3 = _symbols(field, b_shape, seed=7)
            expected = field.matmul_reference(a, b3)
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, spy)
                del calls[:]
                got = packed.matmul_blocks(field, a, b3)
            assert bool(calls) == expect_small, (a_shape, b_shape)
            assert np.array_equal(got, expected)

    def test_structured_coefficients(self, lanes):
        lanes()
        for field in (GF16, GF256, GF65536):
            b3 = _symbols(field, (2, 6, 33), seed=8)
            a = _symbols(field, (10, 6), seed=9)
            a[3] = 0          # a zero output row
            a[:, 2] = 0       # a column of b3 that contributes nothing
            _assert_matches_reference(field, a, b3)
            top = np.full((9, 6), field.order - 1, dtype=field.dtype)
            full = np.full((2, 6, 33), field.order - 1, dtype=field.dtype)
            _assert_matches_reference(field, top, full)
            # strided rows and columns of a larger matrix
            big = _symbols(field, (20, 12), seed=10)
            _assert_matches_reference(field, big[::2, ::2], b3)
            _assert_matches_reference(field, np.asfortranarray(a), b3)

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["m8", "m16"])
    def test_read_only_payload_views_are_neither_written_nor_copied(
        self, lanes, field
    ):
        from repro.protocols.packets import payload_symbols

        payloads = [
            _symbols(GF256, (2048,), seed=20 + i).tobytes() for i in range(8)
        ]
        snapshot = list(payloads)
        b3 = np.stack([payload_symbols(p, field) for p in payloads])[None]
        b3.setflags(write=False)
        a = _symbols(field, (16, 8), seed=11)
        _assert_matches_reference(field, a, b3)
        lanes()
        _assert_matches_reference(field, a, b3)
        assert not b3.flags.writeable
        assert payloads == snapshot
        # a single packet's view, as a receiver's decode hands it over
        view = payload_symbols(payloads[0], field)
        assert not view.flags.writeable
        _assert_matches_reference(field, a[:, :1], view[None, None, :])

    @pytest.mark.parametrize(
        "field", [GF16, GF256, GF65536], ids=["m4", "m8", "m16"]
    )
    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_repair_sized_products_match_the_reference(self, field, rows):
        # the shapes under the lanes' thresholds: a round's parities and a
        # receiver's erasures (1-4 rows over k = 7 or 8 packets of 1 KiB),
        # fewer output columns than GATHER_COLUMNS, zero coefficients,
        # the top symbol, and read-only operands as receivers pass them
        rng = np.random.default_rng(rows)
        for n_batch, s, c in (
            (1, 7, 1024), (1, 8, 1024), (1, 7, 31), (2, 8, 12), (3, 5, 1),
        ):
            a = _symbols(field, (rows, s), seed=rows * 100 + s + c)
            a[0, ::2] = 0
            a[-1, -1] = field.order - 1
            b3 = rng.integers(0, field.order, (n_batch, s, c)).astype(field.dtype)
            b3[:, 1] = 0
            b3[:, 2] = field.order - 1
            a.setflags(write=False)
            b3.setflags(write=False)
            assert n_batch * c < packed.GATHER_COLUMNS or rows * s * (
                n_batch * c
            ) < min(packed.SMALL_TERMS, packed.GATHER_TERMS)
            _assert_matches_reference(field, a, b3)
            a_zero = np.zeros_like(a)
            _assert_matches_reference(field, a_zero, b3)

    @pytest.mark.parametrize(
        "shape", [(0, 3, 2, 40), (3, 0, 2, 40), (3, 3, 0, 40), (3, 3, 2, 0)]
    )
    def test_empty_axes(self, shape):
        r, s, n_batch, c = shape
        for field in (GF256, GF65536):
            a = np.zeros((r, s), dtype=field.dtype)
            b3 = np.zeros((n_batch, s, c), dtype=field.dtype)
            _assert_matches_reference(field, a, b3)

    def test_random_shapes_through_the_lane_code(self, lanes):
        # the shared hypothesis battery stays below the gather threshold;
        # this sweep forces the same kind of shapes through the lanes
        lanes(BLOCK_BYTES=1 << 12, TABLE_BYTES=1 << 14)
        rng = np.random.default_rng(0x9AC4ED)
        for field in (GF16, GF256, GF65536):
            for _ in range(40):
                r, s = (int(v) for v in rng.integers(1, 40, size=2))
                n_batch = int(rng.integers(1, 5))
                c = int(rng.integers(1, 90))
                seed = int(rng.integers(1 << 30))
                _assert_matches_reference(
                    field,
                    _symbols(field, (r, s), seed),
                    _symbols(field, (n_batch, s, c), seed + 1),
                )


# ----------------------------------------------------------------------
# zero-copy regressions (the encode-path audit)
# ----------------------------------------------------------------------
class TestZeroCopy:
    def test_to_symbols_passthrough_for_full_range_field(self):
        # GF(2^8) over uint8: every representable value is a valid symbol,
        # so aligned ndarray input must pass through without a copy (and
        # without the redundant max-scan that used to read every byte)
        codec = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=4))
        arr = np.arange(64, dtype=np.uint8)
        out = codec._to_symbols(arr)
        assert np.shares_memory(arr, out)

    def test_to_symbols_bytes_view_is_zero_copy(self):
        codec = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=4))
        payload = bytes(range(64))
        out = codec._to_symbols(payload)
        assert np.shares_memory(out, np.frombuffer(payload, dtype=np.uint8))
        assert not out.flags.writeable

    def test_to_symbols_still_range_checks_narrow_fields(self):
        codec = RSECodec(3, 2, field=GF16,
                         inverse_cache=InverseCache(maxsize=4))
        with pytest.raises(ValueError, match="exceeds"):
            codec._to_symbols(np.array([1, 2, 200], dtype=np.uint8))

    def test_check_symbols_zero_copy_for_aligned_input(self):
        codec = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=4))
        data = np.zeros((4, 32), dtype=np.uint8)
        assert np.shares_memory(codec._check_symbols(data, rows_axis=0), data)

    def test_encode_accepts_read_only_views(self):
        codec = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=4))
        payloads = [bytes([i] * 32) for i in range(4)]
        views = np.vstack(
            [np.frombuffer(p, dtype=np.uint8) for p in payloads]
        )
        views.setflags(write=False)
        parities = codec.encode_symbols(views)
        assert np.array_equal(
            parities,
            np.vstack([
                np.frombuffer(p, dtype=np.uint8)
                for p in codec.encode(payloads)
            ]),
        )

    def test_decode_accepts_symbol_views(self):
        from repro.protocols.packets import DataPacket, payload_symbols

        codec = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=4))
        data = [bytes([i] * 16) for i in range(4)]
        parities = codec.encode(data)
        packets = {
            0: DataPacket(0, 0, data[0]),
            2: DataPacket(0, 2, data[2]),
            4: DataPacket(0, 4, parities[0]),
            5: DataPacket(0, 5, parities[1]),
        }
        received = {
            i: payload_symbols(p, codec.field) for i, p in packets.items()
        }
        assert all(
            not view.flags.writeable and
            np.shares_memory(
                view, np.frombuffer(packets[i].payload, dtype=np.uint8)
            )
            for i, view in received.items()
        )
        assert codec.decode(received) == data


class TestPayloadSymbols:
    def test_view_shares_memory_and_is_read_only(self):
        from repro.protocols.packets import ParityPacket, payload_symbols

        packet = ParityPacket(0, 4, bytes(range(48)))
        view = payload_symbols(packet, GF256)
        assert view.dtype == GF256.dtype
        assert np.shares_memory(
            view, np.frombuffer(packet.payload, dtype=np.uint8)
        )
        assert not view.flags.writeable

    def test_accepts_raw_buffers(self):
        from repro.protocols.packets import payload_symbols

        raw = bytes(range(16))
        assert payload_symbols(raw, GF256).tolist() == list(range(16))

    def test_gf65536_views_pair_bytes(self):
        from repro.protocols.packets import payload_symbols

        view = payload_symbols(bytes(range(8)), GF65536)
        assert view.dtype == GF65536.dtype
        assert view.shape == (4,)
        with pytest.raises(ValueError, match="whole number"):
            payload_symbols(bytes(range(7)), GF65536)

    def test_rejects_nibble_fields(self):
        from repro.protocols.packets import payload_symbols

        with pytest.raises(ValueError, match="byte-aligned"):
            payload_symbols(b"\x01\x02", GF16)
