"""Pinned samples of the four Monte-Carlo chunk kernels.

The contract of a *bookkeeping* change: it may not alter a draw.  A digest
that moves means some ``rng`` call changed its generator, order or shape,
and no change may regenerate a digest to make itself pass.

A change to *the draw itself* is a different thing and is declared: it
leaves the old sampler under ``tests/`` as the oracle of a two-sample
equivalence suite and regenerates only the rows of the models it touched
(DESIGN.md section 11.5).  That has happened exactly once.  The
``gilbert_R100`` rows were generated on the commit before the
receiver-count / active-set rewrite of the kernels and have never moved;
the ``bernoulli_*`` and ``fbt_*`` rows were regenerated once, by
:func:`_regenerate`, when ``BernoulliLoss`` and ``FullBinaryTreeLoss``
began drawing the geometric gaps between losses instead of
``rng.random((R, T))`` -- ``tests/integration/test_mc_equivalence.py``
holds the dense draws, the proof that the two agree in distribution and
seven of the rows as they stood before.  The ``gilbert_R100`` rows staying
byte-identical through that change is the proof that it did not leak into
a stateful stream.  The ``heterogeneous_R200_two_class`` and
``bursty_tree_d5_p05`` rows were generated on the commit before the
integrated kernels began stepping a chunk's replications in lockstep: a
lockstep walk that reorders the heterogeneous class walks, or a
per-replication fallback that mis-steps a stateful tree model, moves them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.mc import integrated, layered, nofec
from repro.mc._common import PAPER_TIMING
from repro.mc.sharded import _chunk_rngs, run_sharded
from repro.sim.loss import (
    BernoulliLoss,
    BurstyTreeLoss,
    FullBinaryTreeLoss,
    GilbertLoss,
    HeterogeneousLoss,
    two_class_probabilities,
)

MODELS = {
    "bernoulli_R1000_p01": lambda: BernoulliLoss(1000, 0.01),
    "bernoulli_R50_p25": lambda: BernoulliLoss(50, 0.25),
    "bernoulli_R3_p60": lambda: BernoulliLoss(3, 0.6),
    "gilbert_R100": lambda: GilbertLoss.from_loss_and_burst(100, 0.05, 3.0, 0.04),
    "fbt_d6_p05": lambda: FullBinaryTreeLoss(6, 0.05),
    # the Section 3.3 two-class population: 20 of 200 receivers at 0.25
    "heterogeneous_R200_two_class": lambda: HeterogeneousLoss(
        two_class_probabilities(200, 0.1)
    ),
    "bursty_tree_d5_p05": lambda: BurstyTreeLoss(5, 0.05, 2.0, 0.04),
}

#: (k, initial_parities for the integrated kernels / h for layered)
GEOMETRIES = [(20, 0), (7, 2), (1, 0)]


def _rngs():
    return _chunk_rngs(99, (), 0, 100)


def _sample(kernel: str, model, k: int, extra: int) -> np.ndarray:
    if kernel == "nofec":
        return nofec.sample_chunk(model, PAPER_TIMING, _rngs())
    if kernel == "layered":
        return layered.sample_chunk(model, PAPER_TIMING, _rngs(), k=k, h=extra)
    if kernel == "immediate":
        return integrated.sample_chunk_immediate(
            model, PAPER_TIMING, _rngs(), k=k, initial_parities=extra
        )
    return integrated.sample_chunk_rounds(
        model, PAPER_TIMING, _rngs(), k=k, initial_parities=extra
    )


def _digest(samples: np.ndarray) -> str:
    assert samples.dtype == np.float64 and samples.shape == (100,)
    return hashlib.sha256(samples.tobytes()).hexdigest()


# fmt: off
NOFEC_DIGESTS = {
    "bernoulli_R1000_p01": "c3468572364a65579a81bcc8ec3c500ae40a5ae47e40f971dd6676e20fc95cf4",
    "bernoulli_R50_p25": "9c4f40ac28d2f5a1e8173ba3b162c6fe8ed54f817cae6d0ed4e1026ce54d4d7c",
    "bernoulli_R3_p60": "a5d30465ada9bc9394f636a3f5959ee558a1745eb55dbb105caf31f48e1fb3ea",
    "gilbert_R100": "536d26c48587b26d6b7d2a2673c8fd3551ff9dfcf83758ce7b5e40d221edb557",
    "fbt_d6_p05": "e8217a92dbc4d36a6b48bd02c89d92918a6a4e194a125837ac4a1d12dcea4713",
    "heterogeneous_R200_two_class": "580f45d509dca455bab85393f3100c75a0677d54ac9337aa3dab20fe7b694228",
    "bursty_tree_d5_p05": "f849d01fbf08b0fa4e583b18e1feed9f8a12b5db7f96817bebe5f9b6b43e6c28",
}

#: (kernel, model, k, initial_parities / h) -> SHA-256 of the 100 samples
KERNEL_DIGESTS = {
    ("layered", "bernoulli_R1000_p01", 20, 0): "2b6fc8945abba017ff7a9543b5363b68be14a29b1d6aafb5adf76bf58d76f111",
    ("layered", "bernoulli_R1000_p01", 7, 2): "05e6a2e2900799aea6a8c8211b95493e8d0257ccb2d8871d4ad43990ed9f6d12",
    ("layered", "bernoulli_R1000_p01", 1, 0): "5857c9bef171628c624f47b10b5b2a9037a8f78296fd595fce2a1b9760856ff5",
    ("layered", "bernoulli_R50_p25", 20, 0): "e354cb00e75c65286149cada8aee8edbd6269d1be2aa79e2e230d3f21e305bc9",
    ("layered", "bernoulli_R50_p25", 7, 2): "a73e06789997daf89cb11d6b221062dbc2705186ff02eb075f52ad7911139c03",
    ("layered", "bernoulli_R50_p25", 1, 0): "cb0ee3ad7bfee0b3e96eb75e9656387cf365422dc11f6abd2d6abcacadbca3b9",
    ("layered", "bernoulli_R3_p60", 20, 0): "7afeab26130f8d8be21a6dabc72102602bbad870a1ecba4deff8ce78ab50ccca",
    ("layered", "bernoulli_R3_p60", 7, 2): "b7928c19f36b9c4bf03ed96e467facc55fcba7bc4eb8f5f09acb80467199ce4d",
    ("layered", "bernoulli_R3_p60", 1, 0): "105a0058ffd49d4ad76366dcc8df289349becfbf2fad83f58d1f6663e029679e",
    ("layered", "gilbert_R100", 20, 0): "08d998c87cfd380e8525415700970a8f01dd7889e978a453de42934ed613a6a7",
    ("layered", "gilbert_R100", 7, 2): "660908ee8dab634d95fd72736d852cdf552b450207c97b299a48fbde604a083f",
    ("layered", "gilbert_R100", 1, 0): "536d26c48587b26d6b7d2a2673c8fd3551ff9dfcf83758ce7b5e40d221edb557",
    ("layered", "fbt_d6_p05", 20, 0): "467a1025f59d40f5830dfc21cb36959310bdea8ff169c6cf74ffdd19a0ebc970",
    ("layered", "fbt_d6_p05", 7, 2): "b2d06bfdf2c9bcd7324854d1aa72f6395376b1f7b6a6c7f8d1fdb44621864574",
    ("layered", "fbt_d6_p05", 1, 0): "69f2bc4cd82202a28764557d2662e949e3e8c218d35409d833b96ad2ff0b583e",
    ("immediate", "bernoulli_R1000_p01", 20, 0): "bd3163a1b4aa4d4b79c17a473c9cfba40e058339da4d290f03d7e114e41b0d58",
    ("immediate", "bernoulli_R1000_p01", 7, 2): "359e2fd68caafd1f740a921013eec507e330422006b95f6b00272a30b90ed43c",
    ("immediate", "bernoulli_R1000_p01", 1, 0): "7f357b66263d5f3ed988ecec9e3e52b288bf7744f15000cbd2fd443f56a9aea2",
    ("immediate", "bernoulli_R50_p25", 20, 0): "53db4c48a8c10c3e2b687ab405ac9b6890bd7b12ec11060e22ecb92b87e48f0c",
    ("immediate", "bernoulli_R50_p25", 7, 2): "a4dfe448092b00539faae3cf9a845bf7bb393114c7da2107ecd4573d43cee704",
    ("immediate", "bernoulli_R50_p25", 1, 0): "395a4fa39ab01434b86be53939f153cb018359fdfe4bfb681e8985fb5baa16e2",
    ("immediate", "bernoulli_R3_p60", 20, 0): "4fe7dccceb2e7b22934e1b09da3ca8caf5ef53e4fc4a456f5544a276f0149faf",
    ("immediate", "bernoulli_R3_p60", 7, 2): "e1bb676911aef64f86b4c12ec10004ed1a98ead16fe412d4207a1824a89e566a",
    ("immediate", "bernoulli_R3_p60", 1, 0): "e894c6ef5bb9e16713379103655017378a2c08080c32986d798011c0be248791",
    ("immediate", "gilbert_R100", 20, 0): "6d96ea791ecf444f9127c1370fd590da439830daeab0ae7b06835bd70b92878f",
    ("immediate", "gilbert_R100", 7, 2): "a9f6f93e3f3e2a4843530bd053c785cc0d4a7a7601840df887ba04954e925f8a",
    ("immediate", "gilbert_R100", 1, 0): "a6a8c2000802873aadf6fbc50e7be88048dc4894d625b3bb7e839af5fa804828",
    ("immediate", "fbt_d6_p05", 20, 0): "18e3e2b9821e79570fec35b33d6402e71d985019a1a97e9ffe13319e1bac8cc3",
    ("immediate", "fbt_d6_p05", 7, 2): "79987ae0c043bb34f863dcb6ce18e11018eb94fdfbc8c221e765f25ce5930d61",
    ("immediate", "fbt_d6_p05", 1, 0): "7948923808f4b768c4412beebfc879b750deacc2412fcd185833f145ac114146",
    ("rounds", "bernoulli_R1000_p01", 20, 0): "75d37310a074439cc5c7145405f1aa8579bf7c0ee40963bbb9b28fd1d926d6ea",
    ("rounds", "bernoulli_R1000_p01", 7, 2): "f4b859d0723c9a55564da487c0e88fdd571786f42ad867c9715a42c7be7a3d0b",
    ("rounds", "bernoulli_R1000_p01", 1, 0): "5857c9bef171628c624f47b10b5b2a9037a8f78296fd595fce2a1b9760856ff5",
    ("rounds", "bernoulli_R50_p25", 20, 0): "efbf53fbe9ad6869f289198403570c07abf89ee4ddabff2e3d0fb05d3a70d07f",
    ("rounds", "bernoulli_R50_p25", 7, 2): "05927d047d19d37cf6c2babe85008975910f29ac5811be45b3d0d8ba1dc52ff4",
    ("rounds", "bernoulli_R50_p25", 1, 0): "cb0ee3ad7bfee0b3e96eb75e9656387cf365422dc11f6abd2d6abcacadbca3b9",
    ("rounds", "bernoulli_R3_p60", 20, 0): "452a111dc94b6d894c27fc792b5d8154dda5fdefd1e31ffb5f0d7bc293f3ff9a",
    ("rounds", "bernoulli_R3_p60", 7, 2): "b1bdc38911a47bbf75f0827a9bd2878a594d1c898c7aa1bb7e198186d0c3ad7e",
    ("rounds", "bernoulli_R3_p60", 1, 0): "105a0058ffd49d4ad76366dcc8df289349becfbf2fad83f58d1f6663e029679e",
    ("rounds", "gilbert_R100", 20, 0): "9016b805e4e88dc1be7c9aa28d1ec692bbb9c717c05765bb7ea0f06187a2a97f",
    ("rounds", "gilbert_R100", 7, 2): "021533a0f5f5e35a35249d649b5bd392d586d249f4cfd1b52e3a3d774dbc91e2",
    ("rounds", "gilbert_R100", 1, 0): "536d26c48587b26d6b7d2a2673c8fd3551ff9dfcf83758ce7b5e40d221edb557",
    ("rounds", "fbt_d6_p05", 20, 0): "dc66e46ded73de4a6239aa2c7df79065cd1afaf07a66c582f80b6c46cbca58e5",
    ("rounds", "fbt_d6_p05", 7, 2): "79987ae0c043bb34f863dcb6ce18e11018eb94fdfbc8c221e765f25ce5930d61",
    ("rounds", "fbt_d6_p05", 1, 0): "69f2bc4cd82202a28764557d2662e949e3e8c218d35409d833b96ad2ff0b583e",
    ("layered", "heterogeneous_R200_two_class", 20, 0): "b30e9fcc4b60bd4a0f37662a07b1f981076400e3a11c760f3f840f7af4a99c79",
    ("layered", "heterogeneous_R200_two_class", 7, 2): "b874537e2c71758bd23ae4bece56d0ae5bcb99a7eec16824ee7883cadf547697",
    ("layered", "heterogeneous_R200_two_class", 1, 0): "17eeb4b192cecc5f0e95e2d79c146616e2536e273f39daf14a3f26422523bf9f",
    ("layered", "bursty_tree_d5_p05", 20, 0): "687133366033ce1afdf668b7d733f921d48939073fdc82300056479cffd64e19",
    ("layered", "bursty_tree_d5_p05", 7, 2): "28253adcfccb89dcb2ddc4824d4359e920cddeec7f542293c3a404d32535704d",
    ("layered", "bursty_tree_d5_p05", 1, 0): "f849d01fbf08b0fa4e583b18e1feed9f8a12b5db7f96817bebe5f9b6b43e6c28",
    ("immediate", "heterogeneous_R200_two_class", 20, 0): "664c9c4aec1c245bd8fb3ef1a93eccd8603534665ec1deb17cba388dd9794713",
    ("immediate", "heterogeneous_R200_two_class", 7, 2): "3016e1166961e4653512ee34c2f301a30df06514d5ca0a53ff68294e285059e2",
    ("immediate", "heterogeneous_R200_two_class", 1, 0): "4ea5013f751ed11bf9f74650c7fd4fe2ecbed46e8bbb6d59ea65f9a615cf0ca7",
    ("immediate", "bursty_tree_d5_p05", 20, 0): "50f0b2ae16272f5d9ed2efa241937e2ea0ea74e21c67649d5c479124a1d04a05",
    ("immediate", "bursty_tree_d5_p05", 7, 2): "7a4f33d8e53f1b283ec6d770c280966753cfd033cf4ca4f2edc182e75e9be1f5",
    ("immediate", "bursty_tree_d5_p05", 1, 0): "8e07cb77fd71e951b6e628821232e10fa58b6455ae3ce9230d4bcceb58cde0b6",
    ("rounds", "heterogeneous_R200_two_class", 20, 0): "bf21437701c76e2d0af7c529d7716539c46f78c6741b3841e2e85811cafbc4ef",
    ("rounds", "heterogeneous_R200_two_class", 7, 2): "adfbfb089f28102000a6091f14cdeacb660253b3b720d54d0adaaf4b17c311b9",
    ("rounds", "heterogeneous_R200_two_class", 1, 0): "17eeb4b192cecc5f0e95e2d79c146616e2536e273f39daf14a3f26422523bf9f",
    ("rounds", "bursty_tree_d5_p05", 20, 0): "ce20553e21b0bc62138b041b8e4bf25d520e96bb10ee25314a9cc0fb9ca1962c",
    ("rounds", "bursty_tree_d5_p05", 7, 2): "6d7784d8054c21f858630a11f9eb819aff58ed8c654d254cf4d68101ab351f29",
    ("rounds", "bursty_tree_d5_p05", 1, 0): "f849d01fbf08b0fa4e583b18e1feed9f8a12b5db7f96817bebe5f9b6b43e6c28",
}
# fmt: on


@pytest.mark.parametrize("name", sorted(MODELS))
def test_nofec_chunk_is_pinned(name):
    samples = _sample("nofec", MODELS[name](), 0, 0)
    assert _digest(samples) == NOFEC_DIGESTS[name]


@pytest.mark.parametrize(
    "kernel,name,k,extra",
    sorted(KERNEL_DIGESTS),
    ids=lambda value: str(value),
)
def test_fec_chunk_is_pinned(kernel, name, k, extra):
    samples = _sample(kernel, MODELS[name](), k, extra)
    assert _digest(samples) == KERNEL_DIGESTS[kernel, name, k, extra]


def test_every_kernel_model_geometry_is_covered():
    expected = {
        (kernel, name, k, extra)
        for kernel in ("layered", "immediate", "rounds")
        for name in MODELS
        for k, extra in GEOMETRIES
    }
    assert set(KERNEL_DIGESTS) == expected
    assert set(NOFEC_DIGESTS) == set(MODELS)


#: simulate_* front -> the SIMULATORS entry it names, at k=7 with 2 extras
SERIAL_FRONTS = {
    "nofec": ("nofec", {}),
    "layered": ("layered", {"k": 7, "h": 2}),
    "immediate": ("integrated_immediate", {"k": 7, "initial_parities": 2}),
    "rounds": ("integrated_rounds", {"k": 7, "initial_parities": 2}),
}


def _serial(front: str, model):
    """The fixed-count fronts, every one rooted at rng=3."""
    if front == "nofec":
        return nofec.simulate_nofec(model, replications=60, rng=3)
    if front == "layered":
        return layered.simulate_layered(model, 7, 2, replications=60, rng=3)
    if front == "immediate":
        return integrated.simulate_integrated_immediate(
            model, 7, replications=60, rng=3, initial_parities=2
        )
    return integrated.simulate_integrated_rounds(
        model, 7, replications=60, rng=3, initial_parities=2
    )


@pytest.mark.parametrize(
    "front,name", sorted((front, name) for front in SERIAL_FRONTS for name in MODELS)
)
def test_serial_front_is_pinned(front, name):
    """A front is pinned to the seed tree: ``simulate_X(..., rng=s)`` is
    ``run_sharded("X", ..., rng=s)``, whatever the chunking."""
    simulator, params = SERIAL_FRONTS[front]
    expected = run_sharded(
        simulator,
        MODELS[name](),
        params=params,
        replications=60,
        chunk_size=7,
        rng=3,
    )
    # exact equality on purpose: same draws, same arithmetic, same floats
    assert _serial(front, MODELS[name]()) == expected
    assert expected.replications == 60


def _regenerate(prefixes: tuple[str, ...]) -> None:
    """Print the rows of the two tables whose model name starts with one
    of ``prefixes``, recomputed on the working tree, ready to paste.

    For a declared change of a model's draw only (see the module
    docstring): ``PYTHONPATH=src python -m tests.unit.test_mc_pinned_samples
    bernoulli_ fbt_``.  Rows of untouched models are never printed, so
    they cannot be regenerated by accident.
    """
    names = [name for name in sorted(MODELS) if name.startswith(prefixes)]
    print("NOFEC_DIGESTS")
    for name in names:
        digest = _digest(_sample("nofec", MODELS[name](), 0, 0))
        print(f'    "{name}": "{digest}",')
    print("KERNEL_DIGESTS")
    for kernel, name, k, extra in KERNEL_DIGESTS:
        if name in names:
            digest = _digest(_sample(kernel, MODELS[name](), k, extra))
            print(f'    ("{kernel}", "{name}", {k}, {extra}): "{digest}",')


if __name__ == "__main__":
    import sys

    _regenerate(tuple(sys.argv[1:]))
