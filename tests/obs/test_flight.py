"""Flight recorder tests: ring bounds, canonical dumps, and the
postmortem guarantee — a fuzz violation artifact embeds the last events
of every node in the deployment."""

import json

import pytest

from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder


class FakeEnv:
    def __init__(self):
        self.now = 0.0


class TestRing:
    def test_capacity_bound_and_eviction_count(self):
        env = FakeEnv()
        flight = FlightRecorder(env, capacity=3)
        for i in range(5):
            env.now = float(i)
            flight.record("n0", "deliver", f"m{i}")
        events = flight.events("n0")
        assert len(events) == 3
        assert [detail for _, _, detail in events] == ["m2", "m3", "m4"]
        assert flight.evicted["n0"] == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(FakeEnv(), capacity=0)

    def test_per_node_isolation_and_len(self):
        flight = FlightRecorder(FakeEnv(), capacity=4)
        flight.record("a", "crash")
        flight.record("b", "deliver", "x")
        flight.record("b", "recover")
        assert flight.nodes() == ["a", "b"]
        assert len(flight) == 3
        assert flight.events("unknown") == []

    def test_default_capacity(self):
        assert FlightRecorder(FakeEnv()).capacity == DEFAULT_CAPACITY


class TestDump:
    def test_canonical_shape(self):
        env = FakeEnv()
        flight = FlightRecorder(env, capacity=2)
        env.now = 1.23456
        flight.record("zz", "epoch", "join -> epoch 1")
        flight.record("aa", "drop", "reply from p0s0")
        dump = flight.dump()
        assert list(dump["nodes"]) == ["aa", "zz"]        # sorted
        assert dump["nodes"]["zz"][0] == {
            "at": 1.235, "kind": "epoch", "detail": "join -> epoch 1"}
        assert dump["evicted"] == {}
        json.dumps(dump)                                   # serialisable

    def test_explicit_nodes_distinguish_silent_from_omitted(self):
        flight = FlightRecorder(FakeEnv(), capacity=1)
        flight.record("a", "deliver")
        flight.record("a", "deliver")          # evicts one
        dump = flight.dump(nodes=["a", "ghost"])
        assert dump["nodes"]["ghost"] == []    # silent, but listed
        assert dump["evicted"] == {"a": 1}
        assert "b" not in dump["nodes"]

    def test_dump_is_deterministic(self):
        def build():
            env = FakeEnv()
            flight = FlightRecorder(env, capacity=4)
            for i, node in enumerate(("b", "a", "b")):
                env.now = i * 0.5
                flight.record(node, "deliver", f"m{i}")
            return flight.dump()

        assert json.dumps(build(), sort_keys=True) \
            == json.dumps(build(), sort_keys=True)


class TestClusterIntegration:
    def test_always_on_and_records_deliveries(self):
        from repro.harness.tracerun import run_traced_workload

        run = run_traced_workload("ssmr", trace=False)
        flight = run.cluster.network.flight
        # Every replica and client saw traffic.
        nodes = flight.nodes()
        for name in ("c0", "p0s0", "p0s1", "p1s0", "p1s1"):
            assert name in nodes
        kinds = {kind for node in nodes
                 for _, kind, _ in flight.events(node)}
        assert "deliver" in kinds
        # Bounded: no ring exceeds the capacity.
        for node in nodes:
            assert len(flight.events(node)) <= flight.capacity


    def test_network_deliveries_read_as_kind_from_src(self):
        from repro.net import FixedLatency, Network
        from repro.sim import Environment, SeedStream

        env = Environment()
        network = Network(env, SeedStream(1), FixedLatency(0.5))
        network.send("a", "b", "ping")
        network.crash("c")
        network.recover("c")
        network.send("a", "c", "pong")
        network.crash("c")
        env.run()
        assert network.flight.events("b") == [(0.5, "deliver", "ping from a")]
        assert network.flight.dump(["c"])["nodes"]["c"][-1] == {
            "at": 0.5, "kind": "drop", "detail": "pong from a"}


class TestViolationArtifacts:
    @pytest.fixture(scope="class")
    def violating_run(self):
        from repro.fuzz.generate import generate_schedule
        from repro.fuzz.runner import run_schedule

        run = run_schedule(generate_schedule(3, 0, inject_bug="no_dedup"))
        assert run.violations
        return run

    def test_violation_embeds_flight_dump(self, violating_run):
        flight = violating_run.flight
        assert flight is not None
        assert flight["nodes"]
        # Every node of the deployment that saw traffic is present:
        # at minimum both partitions' replicas and the workload clients.
        names = set(flight["nodes"])
        assert {"p0s0", "p0s1", "p1s0", "p1s1"} <= names
        assert any(name.startswith("c") for name in names)

    def test_flight_rides_the_canonical_result(self, violating_run):
        payload = violating_run.to_dict()
        assert payload["flight"] == violating_run.flight
        json.dumps(payload)                                # serialisable

    def test_clean_run_carries_no_dump(self):
        from repro.fuzz.generate import generate_schedule
        from repro.fuzz.runner import run_schedule

        run = run_schedule(generate_schedule(0, 0))
        assert run.ok
        assert run.flight is None
        assert run.to_dict()["flight"] is None
