"""Golden cross-backend regressions: figures are backend-invariant.

The oracle contract says backend selection changes speed, never values.
These tests pin that at the figure level:

* the fig01 *workload* — RSE encode and decode over figure 1's
  ``(k, h)`` grid with 1 KiB packets — must produce bit-identical
  parities and reconstructions under every available backend (fig01
  itself reports host-dependent rates, so the outputs the timing loop
  feeds on are compared, not the rates);
* fig11 — the layered-FEC Monte-Carlo figure, run seeded on a small
  grid with a real codec in the loop (the payload verifier pushes every
  decodable erasure pattern through GF encode/decode) — must produce
  exactly equal series under every available backend.
"""

import numpy as np
import pytest

from repro.fec.rse import InverseCache, RSECodec
from repro.galois import backends as gb

#: fig01's grid (group_sizes x redundancies), trimmed of duplicates the
#: h = max(1, round(r * k)) clamp produces.
_FIG01_CONFIGS = sorted(
    {
        (k, max(1, round(r * k)))
        for k in (7, 20, 100)
        for r in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
    }
)
_PACKET_SIZE = 1024


def _fig01_workload(backend_name: str):
    """Parities and reconstructions for every fig01 grid point."""
    outputs = {}
    for k, h in _FIG01_CONFIGS:
        rng = np.random.default_rng(0xF16_01 + 1000 * k + h)
        codec = RSECodec(k, h, inverse_cache=InverseCache(maxsize=32),
                         gf_backend=backend_name)
        data = rng.integers(
            0, 256, size=(k, _PACKET_SIZE)
        ).astype(np.uint8)
        parities = codec.encode_symbols(data)
        # fig01's decode measurement: the first min(h, k) originals are
        # lost and repaired from parities
        lost = min(h, k)
        received = {i: data[i] for i in range(lost, k)}
        received.update({k + j: parities[j] for j in range(lost)})
        decoded = codec.decode_symbols(received)
        outputs[(k, h)] = (
            parities, np.vstack([decoded[i] for i in range(k)])
        )
    return outputs


@pytest.fixture(scope="module")
def fig01_oracle_outputs():
    return _fig01_workload("numpy")


@pytest.mark.parametrize("name", gb.backend_names())
def test_fig01_workload_bit_identical(name, fig01_oracle_outputs):
    outputs = _fig01_workload(name)
    assert outputs.keys() == fig01_oracle_outputs.keys()
    for config, (parities, decoded) in outputs.items():
        expected_parities, expected_decoded = fig01_oracle_outputs[config]
        assert np.array_equal(parities, expected_parities), (
            f"fig01 {config}: parities diverge under backend {name!r}"
        )
        assert np.array_equal(decoded, expected_decoded), (
            f"fig01 {config}: reconstruction diverges under backend {name!r}"
        )


def _series_tuple(result):
    return [
        (s.label, tuple(s.x), tuple(s.y), None if s.errors is None
         else tuple(s.errors))
        for s in result.series
    ]


def _fig11_small(backend_name: str):
    from repro.experiments.figures_mc import fig11

    with gb.use_backend(backend_name):
        # codec="lrc" (non-default) puts a real codec in the MC loop: the
        # payload verifier replays every distinct decodable erasure
        # pattern through GF encode/decode, so the backend actually runs
        return fig11(
            depths=[0, 2, 4], replications=12, rng=0, codec="lrc"
        )


@pytest.fixture(scope="module")
def fig11_oracle_result():
    return _fig11_small("numpy")


@pytest.mark.parametrize("name", gb.backend_names())
def test_fig11_series_identical(name, fig11_oracle_result):
    result = _fig11_small(name)
    assert _series_tuple(result) == _series_tuple(fig11_oracle_result), (
        f"fig11 series diverge under backend {name!r}"
    )
