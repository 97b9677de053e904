"""Unit tests for latency models and topology."""

import random

import pytest

from repro.net import (ClusterTopology, FixedLatency, SwitchedClusterLatency,
                       UniformLatency, paper_cluster_topology)


class TestFixedLatency:
    def test_constant(self):
        model = FixedLatency(0.25)
        rng = random.Random(0)
        assert model.delay("a", "b", 100, rng) == 0.25
        assert model.delay("x", "y", 10_000, rng) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FixedLatency(-1)


class TestUniformLatency:
    def test_within_bounds(self):
        model = UniformLatency(0.1, 0.9)
        rng = random.Random(1)
        for _ in range(100):
            delay = model.delay("a", "b", 64, rng)
            assert 0.1 <= delay <= 0.9

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            UniformLatency(0.9, 0.1)


class TestSwitchedClusterLatency:
    def _topology(self):
        topology = ClusterTopology()
        topology.attach("a", 0)
        topology.attach("b", 0)
        topology.attach("c", 1)
        return topology

    def test_inter_switch_is_slower(self):
        model = SwitchedClusterLatency(self._topology(), intra_ms=0.05,
                                       inter_ms=0.5, jitter=0.0)
        rng = random.Random(0)
        intra = model.delay("a", "b", 0, rng)
        inter = model.delay("a", "c", 0, rng)
        assert intra == pytest.approx(0.05)
        assert inter == pytest.approx(0.5)

    def test_size_adds_transmission_delay(self):
        model = SwitchedClusterLatency(self._topology(), intra_ms=0.0,
                                       inter_ms=0.0, bytes_per_ms=1000,
                                       jitter=0.0)
        rng = random.Random(0)
        assert model.delay("a", "b", 500, rng) == pytest.approx(0.5)

    def test_jitter_bounds(self):
        model = SwitchedClusterLatency(self._topology(), intra_ms=1.0,
                                       inter_ms=1.0, jitter=0.2)
        rng = random.Random(3)
        for _ in range(200):
            delay = model.delay("a", "b", 0, rng)
            assert 0.8 <= delay <= 1.2

    def test_unknown_nodes_default_to_switch_zero(self):
        model = SwitchedClusterLatency(self._topology(), intra_ms=0.1,
                                       inter_ms=0.9, jitter=0.0)
        rng = random.Random(0)
        assert model.delay("ghost", "a", 0, rng) == pytest.approx(0.1)

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValueError):
            SwitchedClusterLatency(jitter=1.0)

    def test_node_attached_after_its_first_message_is_seen(self):
        topology = self._topology()
        model = SwitchedClusterLatency(topology, intra_ms=0.1,
                                       inter_ms=0.9, jitter=0.0)
        rng = random.Random(0)
        assert model.delay("late", "a", 0, rng) == pytest.approx(0.1)
        topology.attach("late", 1)
        assert model.delay("late", "a", 0, rng) == pytest.approx(0.9)
        topology.attach("late", 0)  # re-attaching is allowed
        assert model.delay("late", "a", 0, rng) == pytest.approx(0.1)

    def test_jitter_is_bit_identical_to_rng_uniform(self):
        model = SwitchedClusterLatency(self._topology(), intra_ms=0.05,
                                       inter_ms=0.15, jitter=0.1)
        rng, twin = random.Random(7), random.Random(7)
        for size in range(0, 4000, 37):
            expected = (0.15 + size / model.bytes_per_ms) * (
                1.0 + twin.uniform(-0.1, 0.1))
            assert model.delay("a", "c", size, rng) == expected


class TestTopology:
    def test_paper_topology_spreads_servers(self):
        topology = paper_cluster_topology(["s0", "s1", "s2", "s3"],
                                          ["or0"], ["c0"])
        switches = {topology.switch_of(f"s{i}") for i in range(4)}
        assert switches == {0, 1}
        assert topology.switch_of("or0") == 0
        assert topology.switch_of("c0") == 1

    def test_contains_and_nodes(self):
        topology = ClusterTopology({"a": 0})
        assert "a" in topology
        assert "b" not in topology
        assert topology.nodes() == ["a"]
