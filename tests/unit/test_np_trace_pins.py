"""Per-seed pins of protocol NP on the event simulator.

The shape is the ``sim_np`` ledger workload's (k=7, h=32, 50 receivers at
p=0.01, 1 KiB packets), cut to eight groups.  Every count below is a pure
function of the seed: which events run, in what order, and what they do.
A scheduler, receiver or codec change that is meant to be faster but not
different must leave all of them where they are.
"""

import numpy as np
import pytest

from repro.protocols import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.sim.loss import BernoulliLoss

CONFIG = NPConfig(k=7, h=32, packet_size=1024)
GROUPS = 8

#: seed -> (events_dispatched, naks_sent_total, naks_suppressed_total,
#:          parity_sent, peak_buffered_packets)
PINS = {
    0: (5092, 19, 14, 10, 14),
    1: (4838, 16, 14, 9, 12),
    2: (5230, 22, 16, 10, 14),
}


@pytest.mark.parametrize("seed", sorted(PINS))
def test_np_trace_is_pinned(seed):
    payload = np.random.default_rng(12345).bytes(
        GROUPS * CONFIG.k * CONFIG.packet_size
    )
    report = run_transfer(
        "np", payload, BernoulliLoss(50, 0.01), CONFIG, rng=seed
    )
    assert report.verified
    assert (
        report.events_dispatched,
        report.naks_sent_total,
        report.naks_suppressed_total,
        report.parity_sent,
        report.peak_buffered_packets,
    ) == PINS[seed]
