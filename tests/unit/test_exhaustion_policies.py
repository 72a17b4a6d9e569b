"""Parity-exhaustion coverage for protocol NP.

With only ``h`` parities per transmission group, a receiver that loses more
than ``h`` distinct packets of a group forces the sender past its parity
budget.  The sender then falls back to cycling original data packets as
fresh generations (ARQ) until everyone completes.
"""

import os

import numpy as np
import pytest

from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.sim.loss import BernoulliLoss, ScriptedLoss


def tiny_config(**overrides):
    # k=4 data packets, only h=1 parity: trivially exhaustible
    defaults = dict(k=4, h=1, packet_size=32, packet_interval=0.01,
                    slot_time=0.02)
    defaults.update(overrides)
    return NPConfig(**defaults)


def exhausting_loss():
    """A scripted schedule that loses 3 packets of the first group.

    One receiver, first group's packets 0..3 plus parity on slots 4+:
    losing slots 0, 1 and 2 leaves the receiver needing 3 repairs with
    only 1 parity available.
    """
    schedule = np.zeros((1, 64), dtype=bool)
    schedule[0, 0] = schedule[0, 1] = schedule[0, 2] = True
    return ScriptedLoss(schedule)


class TestArqFallbackPolicy:
    def test_arq_fallback_completes_the_scripted_scenario(self):
        config = tiny_config()
        payload = os.urandom(4 * 32)
        report = run_transfer(
            "np", payload, exhausting_loss(), config, rng=0
        )
        assert report.verified
        # the fallback had to cycle originals beyond the first transmission
        assert report.retransmissions_sent > 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_arq_fallback_delivers_bit_identical_under_heavy_loss(self, seed):
        # p=0.45 with h=1 parity: exhaustion is essentially guaranteed,
        # yet every receiver must still end with the exact payload bytes
        config = tiny_config()
        payload = os.urandom(6 * 4 * 32)
        report = run_transfer(
            "np", payload, BernoulliLoss(4, 0.45), config, rng=seed
        )
        assert report.verified
        assert report.transmissions_per_packet > 1.0
