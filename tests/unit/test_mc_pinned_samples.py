"""Pinned samples of the four Monte-Carlo chunk kernels.

The contract of a kernel change: it may not alter a draw.  Every digest
and ``(mean, stderr)`` pair below was generated on the commit *before*
the receiver-count / active-set rewrite of the kernels and must never be
regenerated to make a change pass -- a digest that moves means some
``rng`` call changed its generator, order or shape, which re-baselines
every pinned seed in the repository and is its own decision (DESIGN.md
section 11, "what a replication costs").
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.mc import integrated, layered, nofec
from repro.mc._common import PAPER_TIMING
from repro.mc.sharded import _chunk_rngs
from repro.sim.loss import BernoulliLoss, FullBinaryTreeLoss, GilbertLoss

MODELS = {
    "bernoulli_R1000_p01": lambda: BernoulliLoss(1000, 0.01),
    "bernoulli_R50_p25": lambda: BernoulliLoss(50, 0.25),
    "bernoulli_R3_p60": lambda: BernoulliLoss(3, 0.6),
    "gilbert_R100": lambda: GilbertLoss.from_loss_and_burst(100, 0.05, 3.0, 0.04),
    "fbt_d6_p05": lambda: FullBinaryTreeLoss(6, 0.05),
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
    "bernoulli_R1000_p01": "c0be708714f5c02fe1b09bda0837924195f794e477dde096c89ce999fdebb131",
    "bernoulli_R50_p25": "c935968de50f09b560feb0e242e731786ff214d238f342c06c87135d8395d94d",
    "bernoulli_R3_p60": "1445b362301b161f37fe70ddb7581a453c63839d9b9eff8c955fa4215de3728c",
    "gilbert_R100": "536d26c48587b26d6b7d2a2673c8fd3551ff9dfcf83758ce7b5e40d221edb557",
    "fbt_d6_p05": "66f0cb2a3bb80807c018fb53e049e8c44f9f2226ed79ae228dfa5377306696c7",
}

#: (kernel, model, k, initial_parities / h) -> SHA-256 of the 100 samples
KERNEL_DIGESTS = {
    ("layered", "bernoulli_R1000_p01", 20, 0): "3c3d04161de72b14eb48bdf2a4c6f9431009ab25027adad198a721e287be339e",
    ("layered", "bernoulli_R1000_p01", 7, 2): "86417b70631b0ef1bc6691bb332219fc54b1c0836fcbb7aa7516b457d2007880",
    ("layered", "bernoulli_R1000_p01", 1, 0): "a49a47dbb16923340820f5e9eb0654af617e604333886fe25d4ee1a7209dfbf8",
    ("layered", "bernoulli_R50_p25", 20, 0): "48376088137c2b91074e0ac40e4b98da8988d0d8ee224dd9b34639a6a0378448",
    ("layered", "bernoulli_R50_p25", 7, 2): "e0396b5e787816ac3907bc8505176f334a19d71516fd2ede7d3715f33249afa3",
    ("layered", "bernoulli_R50_p25", 1, 0): "7ed5f8896b54895b840b0bca7d61d2c1956d68942a552621300229c08025e497",
    ("layered", "bernoulli_R3_p60", 20, 0): "735a4e1a5c72c982414918d4a47a3d0b45dd9d25bf9adfdeb8637f103134ae4d",
    ("layered", "bernoulli_R3_p60", 7, 2): "dcdaf4e5353fe18b3a45095ff0c74912198354ce588972e6a4c824da9e641e6f",
    ("layered", "bernoulli_R3_p60", 1, 0): "56ee189c5f69ef42f07186403074e91ca09e40d7a511379852f5fba7ec7b76ff",
    ("layered", "gilbert_R100", 20, 0): "08d998c87cfd380e8525415700970a8f01dd7889e978a453de42934ed613a6a7",
    ("layered", "gilbert_R100", 7, 2): "660908ee8dab634d95fd72736d852cdf552b450207c97b299a48fbde604a083f",
    ("layered", "gilbert_R100", 1, 0): "536d26c48587b26d6b7d2a2673c8fd3551ff9dfcf83758ce7b5e40d221edb557",
    ("layered", "fbt_d6_p05", 20, 0): "e53cfec27612b5f70e22266b0635823debe7e53cf1e70c91efc6a2e1aaf2e2e0",
    ("layered", "fbt_d6_p05", 7, 2): "62d5df935dbeeb3ffe6440b1b73e9c7c254083906cc0e3bcb66e9434fa764894",
    ("layered", "fbt_d6_p05", 1, 0): "2d9178dcff93c7ff6adea9caba953b9c0ea0f2817e73b0674ba4e2fa0ff65491",
    ("immediate", "bernoulli_R1000_p01", 20, 0): "104452d9a538bf0197fdb28f1d21f6f7d83fcc0faa6af719497e9dab6e55146f",
    ("immediate", "bernoulli_R1000_p01", 7, 2): "d363eade12b74a30000ef45da877a6534e9213e834cc141c275efa458553927c",
    ("immediate", "bernoulli_R1000_p01", 1, 0): "cdb9ac92eef9927f5175ccf2d57ef2f792dbb98433566b07f53aa5c1de563744",
    ("immediate", "bernoulli_R50_p25", 20, 0): "08107b07f6a9b266d78e067fdb42a583c167fb680ef6ffa81bdf0140a2f08a28",
    ("immediate", "bernoulli_R50_p25", 7, 2): "04e0dbe17ac702269aff32c1f2e056d81e0f9328b86ef5938d7753f02baba688",
    ("immediate", "bernoulli_R50_p25", 1, 0): "2f073119e4e0fe4c7efe0865e2c034db90bc983225ae3084250bd0627fe7e928",
    ("immediate", "bernoulli_R3_p60", 20, 0): "bbafac08ea9400fb387575813701cac9adc524cf772aa525464ec07fe439717b",
    ("immediate", "bernoulli_R3_p60", 7, 2): "b549d224cabcac74892d14cd89b9cf1c87aa9e54f4db93381a1cd98e99c5d1b3",
    ("immediate", "bernoulli_R3_p60", 1, 0): "c3c190c19346e07f8501213769ddc14bcb5190dcb2667f5eccced07c35248956",
    ("immediate", "gilbert_R100", 20, 0): "6d96ea791ecf444f9127c1370fd590da439830daeab0ae7b06835bd70b92878f",
    ("immediate", "gilbert_R100", 7, 2): "a9f6f93e3f3e2a4843530bd053c785cc0d4a7a7601840df887ba04954e925f8a",
    ("immediate", "gilbert_R100", 1, 0): "a6a8c2000802873aadf6fbc50e7be88048dc4894d625b3bb7e839af5fa804828",
    ("immediate", "fbt_d6_p05", 20, 0): "2f82830b33b3c8ce8466eafaa2fa7a3f4857c4ec86ce44e1bcac06004e34c24d",
    ("immediate", "fbt_d6_p05", 7, 2): "cfa37a93a363029612e1cf171388bd3ed54800af7764e5e1b4b6e9f104a63d1b",
    ("immediate", "fbt_d6_p05", 1, 0): "80de14419ef9553e30830f62f5eb88857dd77760653643ce1d6b784ef9d46cb2",
    ("rounds", "bernoulli_R1000_p01", 20, 0): "93bae56c1b2435a167b11109009fe4827eac03988be5791cc64fe4eb5bfe0282",
    ("rounds", "bernoulli_R1000_p01", 7, 2): "d363eade12b74a30000ef45da877a6534e9213e834cc141c275efa458553927c",
    ("rounds", "bernoulli_R1000_p01", 1, 0): "a49a47dbb16923340820f5e9eb0654af617e604333886fe25d4ee1a7209dfbf8",
    ("rounds", "bernoulli_R50_p25", 20, 0): "1998a738fa06484a1cc371b652581ae99a5463b02955a5ef38ec3f62736e3cb7",
    ("rounds", "bernoulli_R50_p25", 7, 2): "80f29aaae0888b51b36ca6127574932d936e192afc8f3436704c28a549e20c96",
    ("rounds", "bernoulli_R50_p25", 1, 0): "7ed5f8896b54895b840b0bca7d61d2c1956d68942a552621300229c08025e497",
    ("rounds", "bernoulli_R3_p60", 20, 0): "c4f027a068cc0ffc1cc4fcdcd007208050c1dec6e3ae7c844958f39f137449f9",
    ("rounds", "bernoulli_R3_p60", 7, 2): "5efa4ff824d725baf1f87d291c36ce1801779e50fca6e595ad635f2d1cf82c9f",
    ("rounds", "bernoulli_R3_p60", 1, 0): "56ee189c5f69ef42f07186403074e91ca09e40d7a511379852f5fba7ec7b76ff",
    ("rounds", "gilbert_R100", 20, 0): "9016b805e4e88dc1be7c9aa28d1ec692bbb9c717c05765bb7ea0f06187a2a97f",
    ("rounds", "gilbert_R100", 7, 2): "021533a0f5f5e35a35249d649b5bd392d586d249f4cfd1b52e3a3d774dbc91e2",
    ("rounds", "gilbert_R100", 1, 0): "536d26c48587b26d6b7d2a2673c8fd3551ff9dfcf83758ce7b5e40d221edb557",
    ("rounds", "fbt_d6_p05", 20, 0): "783501e28ebd84bcded64e51410001ea12e6f3feacfc80bff06cecab0f1fdf3d",
    ("rounds", "fbt_d6_p05", 7, 2): "5ad57c979166671629babd47a2e16d2813b8fcba4c2ff5c0055cb1aa866ddfd2",
    ("rounds", "fbt_d6_p05", 1, 0): "2d9178dcff93c7ff6adea9caba953b9c0ea0f2817e73b0674ba4e2fa0ff65491",
}

#: serial fronts, one shared generator rng=3: (front, model) -> (mean, stderr)
SERIAL_FRONTS = {
    ("nofec", "bernoulli_R1000_p01"): (2.1333333333333333, 0.044255719836307654),
    ("nofec", "bernoulli_R50_p25"): (3.5833333333333335, 0.10439945739481336),
    ("nofec", "bernoulli_R3_p60"): (4.35, 0.3990277732712447),
    ("nofec", "gilbert_R100"): (2.2, 0.05207556439232955),
    ("nofec", "fbt_d6_p05"): (1.6166666666666667, 0.0676133351382125),
    ("layered", "bernoulli_R1000_p01"): (1.331632653061225, 0.018328391758254525),
    ("layered", "bernoulli_R50_p25"): (3.8020408163265307, 0.06346138481256018),
    ("layered", "bernoulli_R3_p60"): (5.170408163265306, 0.12431495056328382),
    ("layered", "gilbert_R100"): (2.73061224489796, 0.05043664654319224),
    ("layered", "fbt_d6_p05"): (1.374489795918368, 0.024499522454496544),
    ("immediate", "bernoulli_R1000_p01"): (1.2952380952380955, 0.004639260004261472),
    ("immediate", "bernoulli_R50_p25"): (2.0904761904761906, 0.033608915012241745),
    ("immediate", "bernoulli_R3_p60"): (3.047619047619048, 0.08754216369225164),
    ("immediate", "gilbert_R100"): (2.3714285714285714, 0.05477330828384781),
    ("immediate", "fbt_d6_p05"): (1.3142857142857147, 0.008177665150276243),
    ("rounds", "bernoulli_R1000_p01"): (1.2928571428571434, 0.004053430760964455),
    ("rounds", "bernoulli_R50_p25"): (2.05, 0.027964704079902043),
    ("rounds", "bernoulli_R3_p60"): (3.1833333333333327, 0.09225087153170365),
    ("rounds", "gilbert_R100"): (2.0023809523809524, 0.03139620952288319),
    ("rounds", "fbt_d6_p05"): (1.321428571428572, 0.009376381100468336),
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


def _serial(front: str, model):
    """The legacy single-stream fronts: every replication draws from rng=3."""
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


@pytest.mark.parametrize("front,name", sorted(SERIAL_FRONTS))
def test_serial_front_is_pinned(front, name):
    result = _serial(front, MODELS[name]())
    # exact equality on purpose: same draws, same arithmetic, same floats
    assert (result.mean, result.stderr) == SERIAL_FRONTS[front, name]
    assert result.replications == 60
