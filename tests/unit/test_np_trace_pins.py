"""Per-seed pins of protocol NP on the event simulator.

The shape is the ``sim_np`` ledger workload's (k=7, h=32, 50 receivers at
p=0.01, 1 KiB packets), cut to eight groups.  Every count below is a pure
function of the seed: which events run, in what order, and what they do.
A scheduler, receiver or codec change that is meant to be faster but not
different must leave all of them where they are.

The wire pins go one level down: every frame the sender hands the
network — its simulated time, type, group, index (or round) and ``sent``
— hashed over the whole run, for NP, adaptive NP, NP on its ARQ path
(``h=1``) and one churned failure cell.  A sender refactor that is meant
to keep the simulator's behaviour must leave every one of them in place.

The NAK pins are the receivers' half: every NAK a receiver multicasts —
its simulated time, origin, group, ``needed`` and round — over the same
runs.  The sender reads only ``max(needed)`` of a round, so its wire
cannot see a receiver that NAKs a different shortfall, from a different
receiver or at a different time.  FEC 1 sends no NAKs; one run of it is
pinned by its report's counts.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.figures_failure import failure_transfers
from repro.protocols import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork

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


# ----------------------------------------------------------------------
# the sender's wire
# ----------------------------------------------------------------------
def _frame(now, packet):
    """One emitted frame as (sim time, type, tg, index or round, sent);
    ``generation`` is left out — no simulated receiver reads it."""
    key = packet.index if hasattr(packet, "index") else packet.round
    sent = getattr(packet, "sent", None)
    return (now, type(packet).__name__, packet.tg, key, sent)


@pytest.fixture
def wire(monkeypatch):
    """Every frame the sender hands the network, in emission order."""
    frames = []

    def recording(send):
        def record(self, packet, *args, **kwargs):
            frames.append(_frame(self.sim.now, packet))
            return send(self, packet, *args, **kwargs)

        return record

    for name in ("multicast", "multicast_control"):
        monkeypatch.setattr(
            MulticastNetwork, name, recording(getattr(MulticastNetwork, name))
        )
    return frames


def _digest(frames) -> tuple[int, str]:
    return len(frames), hashlib.sha256(repr(frames).encode()).hexdigest()


#: (protocol, h, p, seed) -> (frames, sha256 of the frame list)
WIRE_PINS = {
    ("np", 32, 0.01, 0): (
        82, "74563097fce6253a9687af1ac71bcee36d5ca09782ee2071ab051f7000a83887"
    ),
    ("np", 32, 0.01, 1): (
        80, "9a26b9a7816a29310e595cec4adbaa939eb23301e5587acb3b2524fcc02d2dff"
    ),
    ("np", 32, 0.01, 2): (
        82, "c86713111dd61c4871b605880ce80d0c49e3d62e68894fd4a906f16e54e2ffde"
    ),
    ("np-adaptive", 32, 0.05, 0): (
        93, "826e4f1b6ffb1e6408e9b75d4f4d441f13c2462b65dc7512401fa0f44e1d306a"
    ),
    ("np-adaptive", 32, 0.05, 1): (
        89, "90ede6289088f611c71e999a58ae655738dcc81ddf045e5ba6c2787c2c24d1ca"
    ),
    # the ARQ path: one parity per group
    ("np", 1, 0.05, 0): (
        161, "b31e1c86e3ebc46de7d16b9f52108cbd55f6e703aaa3d35b55c4abfb221bc3c6"
    ),
    ("np", 1, 0.05, 1): (
        158, "21a5ddefc07311fd402a5ffa436192541070da956892c3582e8079b4ab540a59"
    ),
}

#: ``failure_transfers("piecewise", "np", replications=4)``: crash
#: faults, the NAK watchdog and a round cap, with re-polls that sit in
#: the queue while NAKs of the same group arrive
FAILURE_CELL_PIN = (
    1001, "6f6c7910d9b4ba82e799a8fdc7237094f276b758906c7ef7dff5a89bdb1cd2c8"
)


@pytest.mark.parametrize("case", sorted(WIRE_PINS))
def test_sender_wire_is_pinned(case, wire):
    protocol, h, p, seed = case
    config = NPConfig(k=7, h=h, packet_size=1024)
    payload = np.random.default_rng(12345).bytes(
        GROUPS * config.k * config.packet_size
    )
    report = run_transfer(
        protocol, payload, BernoulliLoss(50, p), config, rng=seed
    )
    assert report.verified
    assert _digest(wire) == WIRE_PINS[case]


def test_failure_cell_wire_is_pinned(wire):
    reports = failure_transfers("piecewise", "np", replications=4)
    assert all(report is not None for report in reports)
    assert _digest(wire) == FAILURE_CELL_PIN


# ----------------------------------------------------------------------
# the receivers' NAKs
# ----------------------------------------------------------------------
@pytest.fixture
def naks(monkeypatch):
    """Every NAK the receivers multicast, as (sim time, origin, tg,
    needed, round), in emission order."""
    sent = []
    multicast_feedback = MulticastNetwork.multicast_feedback

    def record(self, packet, origin, *args, **kwargs):
        sent.append(
            (self.sim.now, origin, packet.tg, packet.needed, packet.round)
        )
        return multicast_feedback(self, packet, origin, *args, **kwargs)

    monkeypatch.setattr(MulticastNetwork, "multicast_feedback", record)
    return sent


#: (protocol, h, p, seed) -> (NAKs, sha256 of the NAK list)
NAK_PINS = {
    ("np", 32, 0.01, 0): (
        19, "f1a17c46c30559818ec43578ad1065c0aff9a186296d70645264275ce6d49e73"
    ),
    ("np", 32, 0.01, 1): (
        16, "2a68ebb3f65a76b8576472ac10640905d0c8e6d447c8c4a398b0e3293ad8d909"
    ),
    ("np", 32, 0.01, 2): (
        22, "0f992578c3d9f2eb92998c9d9dc717887a0b6491f917cea41de8bd1b7cf9ba57"
    ),
    ("np-adaptive", 32, 0.05, 0): (
        7, "ae0792255cd5990a5e3e23f21aec2bd25da77de0113b8aed5887835d32bd3950"
    ),
    ("np-adaptive", 32, 0.05, 1): (
        17, "e4e3194a3d3f6b8732f8405e6098169bb030523b2e67d72138e6326abb069a55"
    ),
    ("np", 1, 0.05, 0): (
        79, "afb942ba57b9ee5cd8630ed1388d21b770534a9d1b1ad5880c28b18274acd480"
    ),
    ("np", 1, 0.05, 1): (
        62, "1aedfd3b2aedfed49722734288bb8163f76082426d643fee59c7f68a0f7bf431"
    ),
}

#: the NAKs of ``failure_transfers("piecewise", "np", replications=4)``
FAILURE_CELL_NAK_PIN = (
    290, "5d2eb1220cb2ee56127546d35a0375b62759dc97fc55ac66e419081982d72620"
)


@pytest.mark.parametrize("case", sorted(WIRE_PINS))
def test_receiver_naks_are_pinned(case, naks):
    protocol, h, p, seed = case
    config = NPConfig(k=7, h=h, packet_size=1024)
    payload = np.random.default_rng(12345).bytes(
        GROUPS * config.k * config.packet_size
    )
    report = run_transfer(
        protocol, payload, BernoulliLoss(50, p), config, rng=seed
    )
    assert report.verified
    assert _digest(naks) == NAK_PINS[case]


def test_failure_cell_naks_are_pinned(naks):
    reports = failure_transfers("piecewise", "np", replications=4)
    assert all(report is not None for report in reports)
    assert _digest(naks) == FAILURE_CELL_NAK_PIN


#: FEC 1 at 50 receivers, p=0.05, seed 0: (events_dispatched, data_sent,
#: parity_sent, retransmissions_sent, duplicates_total,
#: packets_reconstructed_total, completion_time)
FEC1_PIN = (4182, 56, 22, 0, 914, 130, 3.100000000000002)


def test_fec1_counts_are_pinned():
    payload = np.random.default_rng(12345).bytes(
        GROUPS * CONFIG.k * CONFIG.packet_size
    )
    report = run_transfer(
        "fec1", payload, BernoulliLoss(50, 0.05), CONFIG, rng=0
    )
    assert report.verified
    assert (
        report.events_dispatched,
        report.data_sent,
        report.parity_sent,
        report.retransmissions_sent,
        report.duplicates_total,
        report.packets_reconstructed_total,
        report.completion_time,
    ) == FEC1_PIN
