"""Unit tests for the event-driven multicast network."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.loss import BernoulliLoss
from repro.sim.network import MulticastNetwork


def build(n_receivers=3, p=0.0, seed=0, **kwargs):
    sim = Simulator()
    network = MulticastNetwork(
        sim, BernoulliLoss(n_receivers, p), np.random.default_rng(seed), **kwargs
    )
    return sim, network


class TestWiring:
    def test_multicast_requires_sender_and_receivers(self):
        sim, network = build(2)
        with pytest.raises(RuntimeError, match="no sender"):
            network.multicast("x")
        network.attach_sender(lambda packet: None)
        with pytest.raises(RuntimeError, match="receivers attached"):
            network.multicast("x")

    def test_receiver_ids_sequential(self):
        _, network = build(3)
        ids = [network.attach_receiver(lambda p: None) for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_too_many_receivers_rejected(self):
        _, network = build(1)
        network.attach_receiver(lambda p: None)
        with pytest.raises(ValueError, match="slots"):
            network.attach_receiver(lambda p: None)

    def test_invalid_parameters(self):
        sim = Simulator()
        model = BernoulliLoss(1, 0.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            MulticastNetwork(sim, model, rng, latency=-1)
        with pytest.raises(ValueError):
            MulticastNetwork(sim, model, rng, feedback_loss=1.0)
        with pytest.raises(ValueError):
            MulticastNetwork(sim, model, rng, control_loss=-0.5)


class TestDelivery:
    def test_lossless_multicast_reaches_everyone(self):
        sim, network = build(3, p=0.0)
        network.attach_sender(lambda p: None)
        inboxes = [[], [], []]
        for i in range(3):
            network.attach_receiver(inboxes[i].append)
        network.multicast("hello")
        sim.run()
        assert all(inbox == ["hello"] for inbox in inboxes)

    def test_delivery_delayed_by_latency(self):
        sim, network = build(1, latency=0.5)
        network.attach_sender(lambda p: None)
        arrivals = []
        network.attach_receiver(lambda p: arrivals.append(sim.now))
        network.multicast("x")
        sim.run()
        assert arrivals == [0.5]

    def test_loss_vector_returned_and_respected(self):
        sim, network = build(200, p=0.5, seed=3)
        network.attach_sender(lambda p: None)
        counts = [0] * 200
        for i in range(200):
            network.attach_receiver(
                lambda p, i=i: counts.__setitem__(i, counts[i] + 1)
            )
        lost = network.multicast("x")
        sim.run()
        for i in range(200):
            assert counts[i] == (0 if lost[i] else 1)

    def test_each_delivery_is_one_event_in_receiver_order(self):
        # a multicast is one heap entry, yet every delivery is still one
        # pending and one dispatched event, in receiver id order
        sim, network = build(50, p=0.3, seed=9)
        network.attach_sender(lambda p: None)
        order = []
        for i in range(50):
            network.attach_receiver(lambda p, i=i: order.append((p, i)))
        lost_a = network.multicast("a")
        lost_b = network.multicast("b")
        delivered = int((~lost_a).sum() + (~lost_b).sum())
        assert sim.pending == delivered == network.stats.downstream_delivered
        sim.run()
        assert sim.events_dispatched == delivered
        assert order == [("a", i) for i in np.flatnonzero(~lost_a)] + [
            ("b", i) for i in np.flatnonzero(~lost_b)
        ]

    def test_stats_accounting(self):
        sim, network = build(4, p=0.0)
        network.attach_sender(lambda p: None)
        for _ in range(4):
            network.attach_receiver(lambda p: None)
        network.multicast("a", kind="data")
        network.multicast("b", kind="parity")
        sim.run()
        assert network.stats.downstream_sent == 2
        assert network.stats.downstream_delivered == 8
        assert network.stats.by_kind == {"data": 1, "parity": 1}


class TestFeedback:
    def test_feedback_reaches_sender_and_other_receivers(self):
        sim, network = build(3)
        sender_inbox = []
        network.attach_sender(sender_inbox.append)
        inboxes = [[], [], []]
        for i in range(3):
            network.attach_receiver(inboxes[i].append)
        network.multicast_feedback("nak", origin=1)
        sim.run()
        assert sender_inbox == ["nak"]
        assert inboxes[0] == ["nak"]
        assert inboxes[1] == []  # origin doesn't hear itself
        assert inboxes[2] == ["nak"]

    def test_feedback_loss_applies_independently(self):
        sim, network = build(100, seed=5, feedback_loss=0.5)
        received = []
        network.attach_sender(received.append)
        for _ in range(100):
            network.attach_receiver(lambda p: None)
        for _ in range(200):
            network.multicast_feedback("nak", origin=0)
        sim.run()
        assert 60 < len(received) < 140  # ~100 expected

    @pytest.mark.parametrize("origin", [0, 3, 6, 99])
    def test_feedback_draws_are_the_scalar_draws(self, origin):
        # the reference: one rng.random() for the sender, then one per
        # other receiver in id order, on the network's own stream
        R, loss, seed = 7, 0.4, 11
        sim, network = build(R, seed=seed, feedback_loss=loss)
        got = []
        network.attach_sender(lambda p: got.append(("sender", p)))
        for i in range(R):
            network.attach_receiver(lambda p, i=i: got.append((i, p)))
        reference = np.random.default_rng(seed)
        network.loss_model.start(reference)  # the draws the network took
        expected = []
        for n in range(30):
            network.multicast_feedback(n, origin=origin)
            if reference.random() >= loss:
                expected.append(("sender", n))
            for i in range(R):
                if i != origin and reference.random() >= loss:
                    expected.append((i, n))
        sim.run()
        assert got == expected
        assert network.rng.random() == reference.random()

    def test_unicast_feedback_sender_only(self):
        sim, network = build(2)
        sender_inbox = []
        network.attach_sender(sender_inbox.append)
        inboxes = [[], []]
        for i in range(2):
            network.attach_receiver(inboxes[i].append)
        network.unicast_feedback("ack")
        sim.run()
        assert sender_inbox == ["ack"]
        assert inboxes[0] == [] and inboxes[1] == []


class TestTemporalCorrelationPreserved:
    def test_network_keeps_one_loss_realisation(self):
        """Regression: the network must hold ONE sampler for its lifetime.

        With a bursty model, back-to-back transmissions must see the same
        chain state; resampling per packet (the old sample_one path) would
        destroy the correlation and silently un-burst every event-driven
        burst experiment.
        """
        import numpy as np

        from repro.sim.loss import GilbertLoss

        sim = Simulator()
        model = GilbertLoss.from_loss_and_burst(200, 0.05, 4.0, 0.01)
        network = MulticastNetwork(sim, model, np.random.default_rng(3))
        network.attach_sender(lambda p: None)
        for _ in range(200):
            network.attach_receiver(lambda p: None)
        losses = []
        for i in range(400):
            sim.now = i * 0.01  # advance the clock between sends
            losses.append(network.multicast("x"))
        matrix = np.array(losses).T  # (R, T)
        prev, curr = matrix[:, :-1], matrix[:, 1:]
        conditional = curr[prev].mean()
        # theory: P(loss | previous loss) ~ 1 - 1/4 = 0.75 >> p = 0.05
        assert conditional > 0.5

    def test_scripted_schedule_consumed_sequentially(self):
        import numpy as np

        from repro.sim.loss import ScriptedLoss

        sim = Simulator()
        schedule = np.array([[True, False, True, False]])
        network = MulticastNetwork(
            sim, ScriptedLoss(schedule), np.random.default_rng(0)
        )
        network.attach_sender(lambda p: None)
        network.attach_receiver(lambda p: None)
        observed = [bool(network.multicast("x")[0]) for _ in range(5)]
        assert observed == [True, False, True, False, False]


class TestControlChannel:
    def test_control_bypasses_data_loss(self):
        sim, network = build(5, p=0.99, seed=7)  # near-total data loss
        network.attach_sender(lambda p: None)
        inboxes = [[] for _ in range(5)]
        for i in range(5):
            network.attach_receiver(inboxes[i].append)
        network.multicast_control("poll")
        sim.run()
        assert all(inbox == ["poll"] for inbox in inboxes)

    def test_control_loss_configurable(self):
        sim, network = build(500, seed=11, control_loss=0.5)
        network.attach_sender(lambda p: None)
        count = [0]
        for _ in range(500):
            network.attach_receiver(lambda p: count.__setitem__(0, count[0] + 1))
        network.multicast_control("poll")
        sim.run()
        assert 180 < count[0] < 320
