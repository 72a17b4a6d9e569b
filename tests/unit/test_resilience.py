"""Unit tests for the resilience layer: fault plans, the injector, the
checksum helpers and the typed error taxonomy."""

import dataclasses

import numpy as np
import pytest

from repro.protocols.harness import run_transfer
from repro.protocols.np_protocol import NPConfig
from repro.protocols.packets import DataPacket, checksum_of, payload_intact
from repro.resilience import (
    ChaosPlan,
    FaultInjector,
    FaultPlan,
    ReceiverCrash,
    StallReport,
    TransferStalled,
    TransferTimeout,
)
from repro.resilience.faults import _corrupt_copy, covers
from repro.resilience.report import ReceiverStall
from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork


# ----------------------------------------------------------------------
# checksum helpers
# ----------------------------------------------------------------------
class TestChecksums:
    def test_checksum_detects_any_single_bit_flip(self):
        payload = bytes(range(64))
        packet = DataPacket(0, 0, payload, 0, checksum_of(payload))
        assert payload_intact(packet)
        damaged = bytearray(payload)
        damaged[13] ^= 0x10
        broken = dataclasses.replace(packet, payload=bytes(damaged))
        assert not payload_intact(broken)

    def test_missing_checksum_is_trusted(self):
        # hand-built packets without a checksum stay valid (back-compat)
        assert payload_intact(DataPacket(0, 0, b"abc", 0))
        assert payload_intact(DataPacket(0, 0, b"abc", 0, None))

    def test_corrupt_copy_flips_exactly_one_payload_byte(self):
        payload = bytes(64)
        packet = DataPacket(3, 1, payload, 0, checksum_of(payload))
        mangled = _corrupt_copy(packet, 13)
        # header fields intact, byte 13 inverted as the chaos proxy
        # inverts a datagram's, nothing else touched
        assert (mangled.tg, mangled.index) == (3, 1)
        assert mangled.payload == bytes(13) + b"\xff" + bytes(50)
        assert not payload_intact(mangled)

    def test_corrupt_copy_leaves_empty_payload_alone(self):
        packet = DataPacket(0, 0, b"", 0, checksum_of(b""))
        assert _corrupt_copy(packet, 0) is packet


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_default_plan_is_noop(self):
        assert FaultPlan().is_noop
        assert FaultPlan(forward=ChaosPlan(seed=5)).is_noop

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"corrupt": -0.1},
            {"corrupt": 1.5},
            {"duplicate": 2.0},
            {"jitter": -1.0},
        ],
    )
    def test_bad_rates_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(forward=ChaosPlan(seed=0, **kwargs))

    def test_outage_window_validation(self):
        with pytest.raises(ValueError, match="bad down window"):
            FaultPlan(down=(((1.0, 1.0),),))
        with pytest.raises(ValueError, match="bad stall window"):
            FaultPlan(stalls=((-1.0, 2.0),))
        with pytest.raises(ValueError, match="bad blackout window"):
            FaultPlan(backward=ChaosPlan(blackouts=((3.0, 2.0),)))
        windows = FaultPlan(down=(((1, 3),),)).down[0]
        assert windows == ((1.0, 3.0),)
        assert covers(windows, 1.0) and covers(windows, 2.9)
        assert not covers(windows, 3.0) and not covers(windows, 0.5)

    def test_crash_validation(self):
        with pytest.raises(ValueError, match="downtime"):
            ReceiverCrash(0, 1.0, 0.0)
        crash = ReceiverCrash(2, 1.0, 0.5)
        assert crash.rejoin_at == 1.5

    def test_random_plan_is_seed_determined(self):
        a = FaultPlan.random(seed=123, n_receivers=10)
        b = FaultPlan.random(seed=123, n_receivers=10)
        assert a == b
        c = FaultPlan.random(seed=124, n_receivers=10)
        assert a != c

    def test_random_plan_crash_opt_out(self):
        for seed in range(20):
            plan = FaultPlan.random(
                seed=seed, n_receivers=5, include_crashes=False
            )
            assert not plan.crashes

    def test_describe_names_active_faults(self):
        plan = FaultPlan(
            forward=ChaosPlan(seed=9, corrupt=0.1),
            crashes=(ReceiverCrash(0, 1.0, 0.5),),
        )
        text = plan.describe()
        assert "seed=9" in text
        assert "corrupt" in text
        assert "crash" in text


# ----------------------------------------------------------------------
# FaultInjector mechanics (against a lossless two-receiver network)
# ----------------------------------------------------------------------
def wired_injector(plan, n_receivers=2, latency=0.02):
    sim = Simulator()
    inner = MulticastNetwork(
        sim, BernoulliLoss(n_receivers, 0.0),
        np.random.default_rng(0), latency=latency,
    )
    injector = FaultInjector(sim, inner, plan)
    sender_inbox = []
    inboxes = [[] for _ in range(n_receivers)]
    injector.attach_sender(sender_inbox.append)
    for inbox in inboxes:
        injector.attach_receiver(inbox.append)
    return sim, injector, sender_inbox, inboxes


def data_packet(payload=b"payload-bytes"):
    return DataPacket(0, 0, payload, 0, checksum_of(payload))


class TestFaultInjector:
    def test_corruption_is_detectable_and_counted(self):
        sim, injector, _, inboxes = wired_injector(
            FaultPlan(forward=ChaosPlan(seed=1, corrupt=1.0))
        )
        injector.multicast(data_packet())
        sim.run()
        for inbox in inboxes:
            assert len(inbox) == 1
            assert not payload_intact(inbox[0])
        assert injector.stats.injected["forward.corrupted"] == 2

    def test_duplication_delivers_twice_and_counts(self):
        sim, injector, _, inboxes = wired_injector(
            FaultPlan(forward=ChaosPlan(seed=1, duplicate=1.0))
        )
        injector.multicast(data_packet())
        sim.run()
        for inbox in inboxes:
            assert len(inbox) == 2
        assert injector.stats.injected["forward.duplicated"] == 2

    def test_outage_drops_deliveries_for_named_receivers_only(self):
        plan = FaultPlan(down=(((0.0, 10.0),),))
        sim, injector, _, inboxes = wired_injector(plan)
        injector.multicast(data_packet())
        sim.run()
        assert inboxes[0] == []
        assert len(inboxes[1]) == 1
        assert injector.stats.injected["forward.member_blackout"] == 1

    def test_sender_stall_defers_transmission_past_window(self):
        plan = FaultPlan(stalls=((0.0, 5.0),))
        sim, injector, _, inboxes = wired_injector(plan, latency=0.02)
        injector.multicast(data_packet())
        sim.run()
        # delivery happens at stall end + latency, not at latency
        assert all(len(inbox) == 1 for inbox in inboxes)
        assert sim.now == pytest.approx(5.02)
        assert injector.stats.injected["sender_stalled"] == 1

    def test_feedback_outage_deafens_the_sender(self):
        plan = FaultPlan(
            backward=ChaosPlan(seed=1, blackouts=((0.0, 10.0),))
        )
        sim, injector, sender_inbox, inboxes = wired_injector(plan)
        injector.multicast_feedback("nak", origin=0)
        sim.run()
        assert sender_inbox == []
        # other receivers still overhear the NAK (suppression must work)
        assert inboxes[1] == ["nak"]
        assert injector.stats.injected["backward.blackout"] == 1

    def test_crash_and_rejoin_hooks_fire_in_order(self):
        plan = FaultPlan(crashes=(ReceiverCrash(1, 2.0, 3.0),))
        sim, injector, _, _ = wired_injector(plan)
        calls = []

        class FakeReceiver:
            def crash(self):
                calls.append(("crash", sim.now))

            def rejoin(self):
                calls.append(("rejoin", sim.now))

        injector.bind_receivers([FakeReceiver(), FakeReceiver()])
        sim.run()
        assert calls == [("crash", 2.0), ("rejoin", 5.0)]
        assert injector.stats.injected["crashes"] == 1

    def test_crash_naming_unknown_receiver_rejected(self):
        sim = Simulator()
        inner = MulticastNetwork(
            sim, BernoulliLoss(2, 0.0), np.random.default_rng(0)
        )
        plan = FaultPlan(crashes=(ReceiverCrash(7, 1.0, 1.0),))
        with pytest.raises(ValueError, match="receiver 7"):
            FaultInjector(sim, inner, plan)
        with pytest.raises(ValueError, match="receiver 2"):
            FaultInjector(sim, inner, FaultPlan(down=((), (), ((0, 1),))))

    def test_jitter_perturbs_and_counts(self):
        sim, injector, _, inboxes = wired_injector(
            FaultPlan(forward=ChaosPlan(seed=1, jitter=0.5))
        )
        injector.multicast(data_packet())
        sim.run()
        assert all(len(inbox) == 1 for inbox in inboxes)
        assert sim.now > 0.02  # at least one delivery arrived late
        assert injector.stats.injected["forward.delayed"] >= 1


# ----------------------------------------------------------------------
# error taxonomy + reports
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def _report(self):
        return StallReport(
            protocol="np", sim_time=4.25, events_dispatched=100,
            pending_events=3,
            receivers=(
                ReceiverStall(
                    receiver_id=2, missing_groups=(0, 5),
                    last_progress_time=1.5, watchdog_retries=4,
                    watchdog_exhaustions=1, crashes=1,
                ),
            ),
            abandoned_groups=(5,),
            injected_faults={"corrupted": 7},
            seed=99,
            fault_plan=FaultPlan(forward=ChaosPlan(seed=3, corrupt=0.1)),
        )

    def test_message_embeds_full_diagnosis(self):
        error = TransferStalled("np: stalled", self._report())
        message = str(error)
        assert "receivers incomplete" in message
        assert "receiver 2" in message
        assert "missing 2 groups" in message
        assert "4 watchdog retries" in message
        assert "abandoned groups: [5]" in message
        assert "corrupted" in message
        assert "rng=99" in message
        assert "FaultPlan(forward(seed=3" in message
        assert error.report.seed == 99

    def test_errors_are_runtime_errors(self):
        for cls in (TransferStalled, TransferTimeout):
            assert issubclass(cls, RuntimeError)


# ----------------------------------------------------------------------
# harness integration: opt-in contract
# ----------------------------------------------------------------------
class TestOptInContract:
    def test_noop_plan_leaves_transfer_bit_identical(self):
        config = NPConfig(k=4, h=4, packet_size=64, packet_interval=0.01,
                          slot_time=0.02)
        data = bytes(range(256)) * 8
        loss = BernoulliLoss(4, 0.1)
        base = run_transfer("np", data, loss, config, rng=11)
        # the injector still draws a verdict per delivery, from its own
        # generators: a plan that injects nothing perturbs nothing
        noop = run_transfer(
            "np", data, loss, config, rng=11,
            fault_plan=FaultPlan(
                forward=ChaosPlan(seed=999), backward=ChaosPlan(seed=999)
            ),
        )
        base_fields = dataclasses.asdict(base)
        noop_fields = dataclasses.asdict(noop)
        base_fields.pop("resilience")
        noop_fields.pop("resilience")
        assert base_fields == noop_fields
        assert noop.resilience.fault_plan is not None
        assert noop.resilience.injected == {}

    def test_fault_free_report_has_zeroed_resilience_section(self):
        config = NPConfig(k=4, h=4, packet_size=64, packet_interval=0.01,
                          slot_time=0.02)
        report = run_transfer(
            "np", bytes(512), BernoulliLoss(3, 0.05), config, rng=2
        )
        section = report.resilience
        assert section.fault_plan is None
        assert section.injected == {}
        assert section.corrupt_discarded == 0
        assert not section.degraded
        assert section.ejected_receivers == ()
