"""Unit tests: the GF-kernel backend registry and its selection machinery.

Value-level conformance lives in ``tests/property/test_prop_gf_backends.py``;
this file covers the plumbing — registration rules, name listings, the
``set_backend`` / ``REPRO_GF_BACKEND`` / default resolution order, the
unsupported-field fallback, telemetry counters on hot calls, the zero-copy
encode/handoff paths (``np.shares_memory`` regressions), the experiments
CLI knob — and the ``packed`` kernel's own edges (lane, block and pass
boundaries, both sides of its gather threshold), which the shared battery
does not aim at.
"""

import numpy as np
import pytest

from repro import obs
from repro.fec.registry import create_codec
from repro.fec.rse import InverseCache, RSECodec
from repro.galois import backends as gb
from repro.galois.field import GF16, GF256, GF65536, GaloisField


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Isolate every test from ambient backend selection."""
    monkeypatch.delenv(gb.ENV_BACKEND, raising=False)
    gb.reset_backend()
    yield
    gb.reset_backend()


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_core_backends_registered(self):
        # oracle + one fast default, nothing else
        assert gb.backend_names() == ["numpy", "packed"]

    def test_numpy_oracle_always_available(self):
        # the target of every unsupported-field fallback, whatever is selected
        with gb.use_backend("packed"):
            assert gb.backend("numpy").name == "numpy"

    def test_unknown_name_is_a_helpful_keyerror(self):
        with pytest.raises(KeyError, match="no-such-kernel"):
            gb.get_backend_class("no-such-kernel")
        with pytest.raises(KeyError, match="registered backends"):
            gb.backend("no-such-kernel")

    def test_instances_are_shared(self):
        assert gb.backend("numpy") is gb.backend("numpy")

    def test_register_rejects_nameless_class(self):
        class Nameless(gb.GFBackend):
            def matmul_blocks(self, field, a, b3):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="non-empty"):
            gb.register_backend(Nameless)

    def test_register_rejects_name_collision(self):
        class Impostor(gb.GFBackend):
            name = "numpy"

            def matmul_blocks(self, field, a, b3):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            gb.register_backend(Impostor)

    def test_reregistering_same_class_is_noop(self):
        cls = gb.get_backend_class("numpy")
        assert gb.register_backend(cls) is cls

    def test_temporary_backend_registers_and_restores(self):
        class Scratch(gb.GFBackend):
            name = "scratch-backend"

            def matmul_blocks(self, field, a, b3):
                return gb.backend("numpy").matmul_blocks(field, a, b3)

        assert "scratch-backend" not in gb.backend_names()
        with gb.temporary_backend(Scratch):
            assert "scratch-backend" in gb.backend_names()
            gb.set_backend("scratch-backend")
        assert "scratch-backend" not in gb.backend_names()
        # the dangling selection was cleared with the registration
        assert gb.active_backend().name == gb.DEFAULT_BACKEND

    def test_temporary_backend_rejects_collision(self):
        class Impostor(gb.GFBackend):
            name = "numpy"

            def matmul_blocks(self, field, a, b3):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            with gb.temporary_backend(Impostor):
                pass  # pragma: no cover


# ----------------------------------------------------------------------
# selection: programmatic > environment > default
# ----------------------------------------------------------------------
class TestSelection:
    def test_default_is_packed_kernel(self):
        assert gb.DEFAULT_BACKEND == "packed"
        assert gb.active_backend().name == "packed"

    def test_environment_variable_selects(self, monkeypatch):
        monkeypatch.setenv(gb.ENV_BACKEND, "numpy")
        gb.reset_backend()
        assert gb.active_backend().name == "numpy"

    def test_blank_environment_value_means_default(self, monkeypatch):
        monkeypatch.setenv(gb.ENV_BACKEND, "  ")
        gb.reset_backend()
        assert gb.active_backend().name == gb.DEFAULT_BACKEND

    def test_bad_environment_value_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(gb.ENV_BACKEND, "not-a-backend")
        gb.reset_backend()
        with pytest.raises(KeyError, match="not-a-backend"):
            gb.active_backend()

    def test_stale_environment_name_lists_registered_backends(
        self, monkeypatch
    ):
        # a deleted backend's name left in the environment must fail with
        # the names that do exist, not run some other kernel
        monkeypatch.setenv(gb.ENV_BACKEND, "bitsliced")
        gb.reset_backend()
        with pytest.raises(KeyError, match=r"\['numpy', 'packed'\]"):
            gb.active_backend()

    def test_set_backend_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(gb.ENV_BACKEND, "numpy")
        gb.set_backend("packed")
        assert gb.active_backend().name == "packed"
        gb.reset_backend()
        assert gb.active_backend().name == "numpy"

    def test_use_backend_restores_previous(self):
        gb.set_backend("packed")
        with gb.use_backend("numpy") as active:
            assert active.name == "numpy"
            assert gb.active_backend().name == "numpy"
        assert gb.active_backend().name == "packed"

    def test_use_backend_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with gb.use_backend("numpy"):
                raise RuntimeError("boom")
        assert gb.active_backend().name == gb.DEFAULT_BACKEND

    def test_matmul_backend_knob_accepts_name_and_instance(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 256, size=(3, 5)).astype(np.uint8)
        b = rng.integers(0, 256, size=(5, 11)).astype(np.uint8)
        expected = GF256.matmul(a, b)
        assert np.array_equal(GF256.matmul(a, b, backend="numpy"), expected)
        assert np.array_equal(
            GF256.matmul(a, b, backend=gb.backend("packed")), expected
        )


# ----------------------------------------------------------------------
# fallback and telemetry
# ----------------------------------------------------------------------
class _ByteFieldsOnly(gb.GFBackend):
    """A backend that restricts itself to ``m <= 8`` (neither built-in
    does): the one way left to reach the fallback path."""

    name = "byte-fields-only"

    def supports(self, field):
        return field.m <= 8

    def matmul_blocks(self, field, a, b3):
        assert field.m <= 8, "fallback must keep wide fields away"
        return gb.backend("numpy").matmul_blocks(field, a, b3)


class TestFallbackAndTelemetry:
    def test_unsupported_field_falls_back_to_oracle(self):
        # GF(2^16) on a backend that declines it must fall back, not raise
        rng = np.random.default_rng(3)
        a = rng.integers(0, 1 << 16, size=(2, 3)).astype(np.uint16)
        b = rng.integers(0, 1 << 16, size=(3, 4)).astype(np.uint16)
        with gb.temporary_backend(_ByteFieldsOnly):
            assert np.array_equal(
                GF65536.matmul(a, b, backend="byte-fields-only"),
                GF65536.matmul(a, b, backend="numpy"),
            )

    def test_hot_call_counters(self):
        obs.enable()
        try:
            obs.reset()
            rng = np.random.default_rng(5)
            a = rng.integers(0, 256, size=(2, 4)).astype(np.uint8)
            b3 = rng.integers(0, 256, size=(3, 4, 8)).astype(np.uint8)
            GF256.matmul(a, b3, backend="numpy")
            GF256.matmul(a, b3)
            snap = obs.snapshot()
            counters = snap.counter_values()
            # one call each, labelled by the kernel that ran; the second
            # resolved the process-wide default
            assert counters[
                ("galois.matmul_calls",
                 (("backend", "numpy"), ("m", "8")))
            ] == 1
            assert counters[
                ("galois.matmul_calls",
                 (("backend", "packed"), ("m", "8")))
            ] == 1
            assert not any(
                key[0] == "galois.backend_fallbacks" for key in counters
            )
            assert counters[
                ("galois.product_terms", (("m", "8"),))
            ] == 2 * (2 * 4 * 8 * 3)
            assert snap.value(
                "galois.kernel_seconds", backend="packed"
            ) >= 0.0
        finally:
            obs.disable()
            obs.reset()

    def test_fallback_counter_increments(self):
        obs.enable()
        try:
            obs.reset()
            rng = np.random.default_rng(5)
            a = rng.integers(0, 1 << 16, size=(2, 3)).astype(np.uint16)
            b = rng.integers(0, 1 << 16, size=(3, 4)).astype(np.uint16)
            with gb.temporary_backend(_ByteFieldsOnly):
                GF65536.matmul(a, b, backend="byte-fields-only")
            counters = obs.snapshot().counter_values()
            assert counters[
                ("galois.backend_fallbacks", (("m", "16"),))
            ] == 1
            # the call is attributed to the backend that actually ran
            assert counters[
                ("galois.matmul_calls", (("backend", "numpy"), ("m", "16")))
            ] == 1
        finally:
            obs.disable()
            obs.reset()

    def test_codec_pin_beats_process_selection(self):
        pinned = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=4),
                          gf_backend="numpy")
        rng = np.random.default_rng(11)
        data = rng.integers(0, 256, size=(4, 32)).astype(np.uint8)
        obs.enable()
        try:
            obs.reset()
            with gb.use_backend("packed"):
                expected = RSECodec(
                    4, 2, inverse_cache=InverseCache(maxsize=4)
                ).encode_symbols(data)
                obs.reset()
                assert np.array_equal(pinned.encode_symbols(data), expected)
            # the pinned codec's product ran on its own kernel
            assert [
                dict(labels)["backend"]
                for (metric, labels) in obs.snapshot().counter_values()
                if metric == "galois.matmul_calls"
            ] == ["numpy"]
        finally:
            obs.disable()
            obs.reset()

    def test_registry_create_codec_forwards_gf_backend(self):
        codec = create_codec("rse", 4, 2, gf_backend="numpy")
        assert codec.gf_backend == "numpy"

    def test_unknown_gf_backend_fails_at_construction(self):
        # not on the first encode or, on a receiver, the first repair decode
        with pytest.raises(KeyError, match="registered backends"):
            RSECodec(4, 2, gf_backend="nope")
        with pytest.raises(KeyError, match="nope"):
            create_codec("rse", 4, 2, gf_backend="nope")
        data = [bytes([i] * 16) for i in range(4)]
        for name in (None, "numpy", "packed"):
            codec = RSECodec(4, 2, inverse_cache=InverseCache(maxsize=4),
                             gf_backend=name)
            assert codec.gf_backend == name
            parities = codec.encode(data)
            received = {0: data[0], 2: data[2], 4: parities[0], 5: parities[1]}
            assert codec.decode(received) == data

    def test_inverse_cache_shared_across_backends(self):
        # bit-identity makes the inverse cache backend-independent: a miss
        # under one backend is a hit under another
        cache = InverseCache(maxsize=8)
        data = np.arange(4 * 16, dtype=np.uint8).reshape(4, 16)
        received = lambda codec: {  # noqa: E731 - tiny test helper
            i: row for i, row in zip(
                (0, 2, 4, 5),
                np.concatenate([data, codec.encode_symbols(data)])[[0, 2, 4, 5]],
            )
        }
        first = RSECodec(4, 2, inverse_cache=cache, gf_backend="numpy")
        first.decode_symbols(received(first))
        assert first.stats.decode_cache_misses == 1
        second = RSECodec(4, 2, inverse_cache=cache, gf_backend="packed")
        second.decode_symbols(received(second))
        assert second.stats.decode_cache_misses == 0
        assert second.stats.decode_cache_hits == 1


# ----------------------------------------------------------------------
# the packed kernel's own edges
# ----------------------------------------------------------------------
def _lane_kernel(**budgets):
    """A ``packed`` kernel with its gather thresholds off, so inputs of any
    size reach the lane code; ``budgets`` shrink the block / table budgets
    so small inputs also cross block and pass boundaries."""
    kernel = gb.get_backend_class("packed")()
    kernel._GATHER_TERMS = kernel._GATHER_COLUMNS = 0
    for attribute, value in budgets.items():
        setattr(kernel, attribute, value)
    return kernel


def _symbols(field, shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, field.order, size=shape).astype(field.dtype)


def _assert_matches_oracle(kernel, field, a, b3):
    expected = gb.backend("numpy").matmul_blocks(field, a, b3)
    got = kernel.matmul_blocks(field, a, b3)
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
    def test_lane_boundaries(self, field, rows):
        kernel = _lane_kernel()
        for r in rows:
            a = _symbols(field, (r, 6), seed=r)
            b3 = _symbols(field, (2, 6, 37), seed=100 + r)  # B > 1, odd c
            _assert_matches_oracle(kernel, field, a, b3)

    @pytest.mark.parametrize("total", [63, 64, 65, 130, 200])
    def test_block_boundaries(self, total):
        # _BLOCK_BYTES = 1 floors the block at 64 output columns
        kernel = _lane_kernel(_BLOCK_BYTES=1)
        for field in (GF256, GF65536):
            a = _symbols(field, (9, 5), seed=total)
            _assert_matches_oracle(
                kernel, field, a, _symbols(field, (1, 5, total), seed=1)
            )
        # the same column count split over a batch: B * c, c odd
        if total % 5 == 0:
            a = _symbols(GF256, (9, 5), seed=total)
            _assert_matches_oracle(
                kernel, GF256, a, _symbols(GF256, (5, 5, total // 5), seed=2)
            )

    def test_row_passes_bound_the_tables(self):
        # a table budget of one word per pass: 20 rows go in 3 (m = 8) or
        # 5 (m = 16) passes, the last one partial
        kernel = _lane_kernel(_TABLE_BYTES=1)
        for field in (GF256, GF65536):
            a = _symbols(field, (20, 7), seed=3)
            b3 = _symbols(field, (3, 7, 50), seed=4)
            _assert_matches_oracle(kernel, field, a, b3)

    def test_wide_reduction_axis_widens_the_index(self):
        # 256 * s no longer fits uint16 from s = 257 on
        for s in (256, 257):
            a = _symbols(GF256, (3, s), seed=s)
            _assert_matches_oracle(
                _lane_kernel(), GF256, a, _symbols(GF256, (1, s, 40), seed=5)
            )

    @pytest.mark.parametrize(
        "field, shape_below, shape_at",
        [
            # r * s * B * c against 24576 terms per byte of symbol width
            (GF256, ((3, 8), (1, 8, 1023)), ((3, 8), (1, 8, 1024))),
            (GF65536, ((6, 8), (1, 8, 1023)), ((6, 8), (1, 8, 1024))),
            # fewer than 32 output columns never repay the tables
            (GF256, ((64, 64), (1, 64, 31)), ((64, 64), (1, 64, 32))),
        ],
    )
    def test_both_sides_of_the_gather_threshold(
        self, monkeypatch, field, shape_below, shape_at
    ):
        gather_calls = []
        original = GaloisField._matmul_gather

        def counting_gather(self, a, b3):
            gather_calls.append(b3.shape)
            return original(self, a, b3)

        kernel = gb.backend("packed")
        for (a_shape, b_shape), expect_gather in (
            (shape_below, True), (shape_at, False)
        ):
            a = _symbols(field, a_shape, seed=6)
            b3 = _symbols(field, b_shape, seed=7)
            expected = gb.backend("numpy").matmul_blocks(field, a, b3)
            with monkeypatch.context() as patch:
                patch.setattr(GaloisField, "_matmul_gather", counting_gather)
                del gather_calls[:]
                got = kernel.matmul_blocks(field, a, b3)
            assert bool(gather_calls) == expect_gather, (a_shape, b_shape)
            assert np.array_equal(got, expected)

    def test_structured_coefficients(self):
        kernel = _lane_kernel()
        for field in (GF16, GF256, GF65536):
            b3 = _symbols(field, (2, 6, 33), seed=8)
            a = _symbols(field, (10, 6), seed=9)
            a[3] = 0          # a zero output row
            a[:, 2] = 0       # a column of b3 that contributes nothing
            _assert_matches_oracle(kernel, field, a, b3)
            top = np.full((9, 6), field.order - 1, dtype=field.dtype)
            full = np.full((2, 6, 33), field.order - 1, dtype=field.dtype)
            _assert_matches_oracle(kernel, field, top, full)
            # strided rows and columns of a larger matrix
            big = _symbols(field, (20, 12), seed=10)
            _assert_matches_oracle(kernel, field, big[::2, ::2], b3)
            _assert_matches_oracle(
                kernel, field, np.asfortranarray(a), b3
            )

    @pytest.mark.parametrize("field", [GF256, GF65536], ids=["m8", "m16"])
    def test_read_only_payload_views_are_neither_written_nor_copied(
        self, field
    ):
        from repro.protocols.packets import payload_symbols

        payloads = [
            _symbols(GF256, (2048,), seed=20 + i).tobytes() for i in range(8)
        ]
        snapshot = list(payloads)
        b3 = np.stack([payload_symbols(p, field) for p in payloads])[None]
        b3.setflags(write=False)
        a = _symbols(field, (16, 8), seed=11)
        for kernel in (gb.backend("packed"), _lane_kernel()):
            _assert_matches_oracle(kernel, field, a, b3)
        assert not b3.flags.writeable
        assert payloads == snapshot
        # a single packet's view, as a receiver's decode hands it over
        view = payload_symbols(payloads[0], field)
        assert not view.flags.writeable
        _assert_matches_oracle(
            _lane_kernel(), field, a[:, :1], view[None, None, :]
        )

    @pytest.mark.parametrize(
        "shape", [(0, 3, 2, 40), (3, 0, 2, 40), (3, 3, 0, 40), (3, 3, 2, 0)]
    )
    def test_empty_axes(self, shape):
        r, s, n_batch, c = shape
        for field in (GF256, GF65536):
            a = np.zeros((r, s), dtype=field.dtype)
            b3 = np.zeros((n_batch, s, c), dtype=field.dtype)
            _assert_matches_oracle(gb.backend("packed"), field, a, b3)

    def test_random_shapes_through_the_lane_code(self):
        # the shared hypothesis battery stays below the gather threshold;
        # this sweep forces the same kind of shapes through the lanes
        kernel = _lane_kernel(_BLOCK_BYTES=1 << 12, _TABLE_BYTES=1 << 14)
        rng = np.random.default_rng(0x9AC4ED)
        for field in (GF16, GF256, GF65536):
            for _ in range(40):
                r, s = (int(v) for v in rng.integers(1, 40, size=2))
                n_batch = int(rng.integers(1, 5))
                c = int(rng.integers(1, 90))
                seed = int(rng.integers(1 << 30))
                _assert_matches_oracle(
                    kernel, field,
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


# ----------------------------------------------------------------------
# the experiments CLI knob
# ----------------------------------------------------------------------
class TestCliKnob:
    def test_parser_accepts_registered_backends(self):
        from repro.experiments.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["fig01", "--gf-backend", "numpy"]
        )
        assert args.gf_backend == "numpy"

    def test_parser_rejects_unknown_backend(self, capsys):
        from repro.experiments.__main__ import _build_parser

        with pytest.raises(SystemExit) as exit_info:
            _build_parser().parse_args(["fig01", "--gf-backend", "nope"])
        assert exit_info.value.code == 2
        assert "nope" in capsys.readouterr().err

    def test_main_selects_backend_and_exports_env(self, monkeypatch):
        from repro.experiments.__main__ import main

        selected = {}
        monkeypatch.setattr(
            "repro.experiments.registry.run_experiment",
            lambda figure_id, **kwargs: (_ for _ in ()).throw(
                RuntimeError("not reached")
            ),
        )

        def fake_sequential(targets, csv_dir, mc_kwargs):
            import os

            selected["active"] = gb.active_backend().name
            selected["env"] = os.environ.get(gb.ENV_BACKEND)
            return 0

        monkeypatch.setattr(
            "repro.experiments.__main__._run_sequential", fake_sequential
        )
        assert main(["fig01", "--gf-backend", "numpy"]) == 0
        assert selected == {"active": "numpy", "env": "numpy"}
