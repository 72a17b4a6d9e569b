"""Golden kernel regressions: figures do not depend on the GF kernel.

The contract says the kernel behind ``GaloisField.matmul`` changes speed,
never values.  These tests pin that at the figure level:

* the fig01 *workload* — RSE encode and decode over figure 1's
  ``(k, h)`` grid with 1 KiB packets — must produce parities bit-identical
  to the reference product and reconstructions bit-identical to the scalar
  decoder's (fig01 itself reports host-dependent rates, so the outputs the
  timing loop feeds on are compared, not the rates);
* fig11's simulated layered-FEC curve, run seeded on a small grid with
  RSE's payload verifier in the loop (it pushes every decodable erasure
  pattern through GF encode/decode) — must produce exactly the series it
  produces with every product run on the reference.
"""

import numpy as np

from repro.fec.rse import InverseCache, RSECodec
from repro.galois.field import GaloisField
from repro.mc._common import PayloadVerifier

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


def test_fig01_workload_bit_identical():
    for k, h in _FIG01_CONFIGS:
        rng = np.random.default_rng(0xF16_01 + 1000 * k + h)
        codec = RSECodec(k, h, inverse_cache=InverseCache(maxsize=32))
        data = rng.integers(0, 256, size=(k, _PACKET_SIZE)).astype(np.uint8)
        parities = codec.encode_symbols(data)
        assert np.array_equal(
            parities, codec.field.matmul_reference(codec.generator[k:], data)
        ), f"fig01 {(k, h)}: parities diverge from the reference product"
        # fig01's decode measurement: the first min(h, k) originals are
        # lost and repaired from parities
        lost = min(h, k)
        received = {i: data[i] for i in range(lost, k)}
        received.update({k + j: parities[j] for j in range(lost)})
        decoded = codec.decode_symbols(dict(received))
        expected = codec.decode_symbols_scalar(dict(received))
        for i in range(k):
            assert np.array_equal(decoded[i], expected[i]), (
                f"fig01 {(k, h)}: reconstruction diverges from the scalar "
                f"decode"
            )
            assert np.array_equal(decoded[i], data[i])


def _series_tuple(series):
    return (
        series.label, tuple(series.x), tuple(series.y), tuple(series.errors)
    )


def _fig11_small(monkeypatch):
    """fig11's simulated FBT curve at depths 0, 2, 4, RSE-verified.

    The verifier replays every distinct decodable erasure pattern through
    GF encode/decode; the call fails unless one of them lost a data
    packet, so the decode kernel cannot sit idle.
    """
    from repro.experiments.figures_mc import FigurePoints
    from repro.sim.loss import FullBinaryTreeLoss

    reconstructed = []
    verify_masks = PayloadVerifier.verify_masks

    def counting(self, received):
        fresh = verify_masks(self, received)
        reconstructed.append(self.codec.stats.packets_decoded)
        return fresh

    monkeypatch.setattr(PayloadVerifier, "verify_masks", counting)
    trees = [FullBinaryTreeLoss(depth, 0.01) for depth in (0, 2, 4)]
    series = FigurePoints("fig11", 0).curve(
        "layered",
        trees,
        {"k": 7, "h": 1, "codec": "rse"},
        "layered FEC FBT loss",
        [12] * len(trees),
    )
    assert max(reconstructed) > 0, "no erasure pattern was decoded"
    return series


def test_fig11_series_identical(monkeypatch):
    result = _fig11_small(monkeypatch)
    monkeypatch.setattr(GaloisField, "matmul", GaloisField.matmul_reference)
    assert _series_tuple(result) == _series_tuple(_fig11_small(monkeypatch)), (
        "fig11 series differ between the kernel and the reference"
    )
