"""QoS under load and faults, at cluster level.

The unit tests pin the mechanisms; these tests pin the *wiring* — the
admission controller actually sheds at the sequencer, sheds come back
as OVERLOAD backpressure that the AIMD window reacts to, control
traffic bypasses shedding, and all of it composes with injected
network faults without losing a single foreground request.
"""

import json

import pytest

from repro.harness import build_cluster
from repro.net.failure import FailureInjector
from repro.qos import QosConfig
from repro.smr import Command, ReplyStatus


def _incr(key):
    return Command(op="incr", args={"key": key}, variables=(key,))


def _spawn_ops(cluster, client, keys, count, replies, gap_ms=0.0):
    """One client process: ``count`` paced incrs over ``keys``."""
    def proc(env):
        for i in range(count):
            if gap_ms:
                yield env.timeout(gap_ms)
            yield from client.pace()
            reply = yield from client.run_command(_incr(keys[i % len(keys)]))
            replies.append(reply)

    cluster.env.process(proc(cluster.env))


class TestClusterQos:
    def test_shedding_during_asymmetric_partition(self):
        """Overload + a one-way partition: the sequencer sheds, the shed
        requests retry through backpressure, and every foreground op
        still completes — no silent drops, no stuck clients."""
        cluster = build_cluster(
            scheme="ssmr", num_partitions=2, replicas_per_partition=3,
            seed=11, initial_assignment={"a": 0, "b": 1},
            qos=QosConfig(rate_per_s=150.0, burst=2.0))
        cluster.preload({"a": 0, "b": 0})
        injector = FailureInjector(cluster.env, cluster.network,
                                   cluster.seeds.child("faults"))
        # Follower can hear the speaker but not answer it for a while.
        injector.partition_oneway(10.0, 120.0, ["p0s2"], ["p0s0"])
        replies = []
        for i in range(6):
            client = cluster.new_client(f"load{i}")
            _spawn_ops(cluster, client, ("a", "b"), 8, replies)
        cluster.run(until=20_000)
        assert len(replies) == 48
        assert all(r.status is ReplyStatus.OK for r in replies)
        total_shed = sum(a.shed for a in cluster.qos_admission.values())
        assert total_shed > 0
        overloads = sum(c.overload_replies for c in cluster.clients)
        assert overloads > 0  # sheds surfaced as backpressure, not drops

    def test_control_traffic_completes_under_overload(self):
        """A MOVE (dssmr control traffic) lands while client commands are
        being shed: priority bypass means reconfiguration is never
        starved by client load."""
        cluster = build_cluster(
            scheme="dssmr", num_partitions=2, seed=7,
            initial_assignment={"a": 0, "b": 1},
            qos=QosConfig(rate_per_s=120.0, burst=2.0))
        cluster.preload({"a": 1, "b": 2})
        replies = []
        for i in range(5):
            client = cluster.new_client(f"hammer{i}")
            _spawn_ops(cluster, client, ("a",), 8, replies)
        mover = cluster.new_client("mover")
        moved = []

        def move(env):
            yield env.timeout(15.0)
            reply = yield from mover.run_command(
                Command(op="sum", args={"keys": ["a", "b"]},
                        variables=("a", "b")))
            moved.append(reply)

        cluster.env.process(move(cluster.env))
        cluster.run(until=20_000)
        assert moved and moved[0].status is ReplyStatus.OK
        assert moved[0].value >= 3  # hammer incrs may land before the sum
        assert cluster.moves_total() >= 1
        assert sum(a.shed for a in cluster.qos_admission.values()) > 0
        assert sum(a.bypassed for a in cluster.qos_admission.values()) > 0

    def test_aimd_window_shrinks_then_recovers(self):
        """OVERLOAD replies halve the client's window; once load drops
        back under capacity, successes grow it again."""
        cluster = build_cluster(
            scheme="ssmr", num_partitions=1, seed=5,
            initial_assignment={"a": 0},
            qos=QosConfig(rate_per_s=100.0, burst=2.0, aimd_initial=16.0))
        cluster.preload({"a": 0})
        client = cluster.new_client("c")
        phase = {}

        def proc(env):
            for _ in range(25):  # hammer: way over the 100/s bucket
                yield from client.pace()
                yield from client.run_command(_incr("a"))
            phase["after_burst"] = client.congestion.window
            for _ in range(20):  # trickle: 20/s, well under capacity
                yield env.timeout(50.0)
                yield from client.pace()
                yield from client.run_command(_incr("a"))
            phase["after_recovery"] = client.congestion.window

        cluster.env.process(proc(cluster.env))
        cluster.run(until=20_000)
        assert client.overload_replies > 0
        assert client.congestion.decreases > 0
        assert phase["after_burst"] < 16.0
        assert phase["after_recovery"] > phase["after_burst"]

    def test_qos_disabled_builds_no_controllers(self):
        """The default path must stay literally the pre-QoS shape: no
        controllers, no per-client window, no qos.* gauges."""
        cluster = build_cluster(scheme="ssmr", num_partitions=2, seed=1)
        assert cluster.qos_admission == {}
        assert cluster.qos_batchers == {}
        client = cluster.new_client()
        assert getattr(client, "congestion", None) is None
        scraped = cluster.registry.scrape()
        assert not any(name.startswith("qos.") for name in scraped)

    def test_qos_gauges_scrape(self):
        cluster = build_cluster(
            scheme="ssmr", num_partitions=2, seed=1,
            initial_assignment={"a": 0},
            qos=QosConfig(rate_per_s=100.0, burst=1.0))
        cluster.preload({"a": 0})
        client = cluster.new_client()
        replies = []
        _spawn_ops(cluster, client, ("a",), 6, replies)
        cluster.run(until=10_000)
        scraped = cluster.registry.scrape()
        assert scraped["qos.admitted"] > 0
        assert "qos.shed" in scraped and "qos.control_bypass" in scraped
        assert scraped["qos.aimd_window_min"] > 0


class TestCampaignDeterminism:
    def test_overload_point_byte_identical(self):
        """Same seed, same point → byte-identical canonical JSON. This is
        the property the CI smoke enforces on the full sweep."""
        from repro.harness.overload import run_overload_point

        kwargs = dict(multiplier=1.5, qos_on=True, seed=2, scheme="ssmr",
                      duration_ms=150.0, drain_ms=150.0, num_proxies=4)
        first = run_overload_point(**kwargs)
        second = run_overload_point(**kwargs)
        canon = lambda d: json.dumps(d, sort_keys=True,
                                     separators=(",", ":"))
        assert canon(first) == canon(second)
        assert first["arrivals"] > 0

    def test_qos_off_point_has_no_qos_counters(self):
        from repro.harness.overload import run_overload_point

        point = run_overload_point(multiplier=0.5, qos_on=False, seed=1,
                                   duration_ms=150.0, drain_ms=150.0,
                                   num_proxies=4)
        assert point["qos"] is False
        assert point["shed"] == 0 and point["overload_replies"] == 0


class TestOverloadCapacity:
    def test_smr_capacity_counts_its_one_partition(self):
        """Classic SMR runs one partition, so its nominal capacity is one
        executor's: the multiplier scales 1000 cmd/s, not 2000."""
        from repro.harness.overload import run_overload_point

        point = run_overload_point(multiplier=1.5, qos_on=False, seed=1,
                                   scheme="smr", duration_ms=50.0,
                                   drain_ms=50.0, num_proxies=4)
        assert point["offered_per_s"] == 1.5 * 1000


class TestSpeakerQos:
    """Every path that builds or replaces a speaker arms it with its
    group's admission controller: construction, peer recovery, cold
    restart, whole-cluster power restore and a live join."""

    @staticmethod
    def assert_speakers_armed(cluster):
        from repro.core import ORACLE_GROUP

        for group in (*cluster.partitions, ORACLE_GROUP):
            speaker = cluster.directory.speaker(group)
            owner = (cluster.servers[speaker] if group != ORACLE_GROUP
                     else next(oracle for oracle in cluster.oracles
                               if oracle.node.name == speaker))
            assert owner.qos is cluster.qos_admission[group], group

    def test_every_speaker_path_arms_qos(self):
        from repro.store import DurabilityConfig

        cluster = build_cluster(
            scheme="dssmr", num_partitions=2, seed=3,
            initial_assignment={"a": 0, "b": 1},
            qos=QosConfig(rate_per_s=500.0),
            durability=DurabilityConfig())
        cluster.preload({"a": 0, "b": 0})
        replies = []
        _spawn_ops(cluster, cluster.new_client("c"), ("a", "b"), 6, replies)
        cluster.run(until=200.0)
        self.assert_speakers_armed(cluster)

        # A durable speaker comes back like a follower: its own disk
        # bounds the sequence numbers it handed out.
        follower = next(name for name in cluster.directory.members("p0")
                        if name != cluster.directory.speaker("p0"))
        speaker = cluster.directory.speaker("p1")
        for victim in (follower, speaker):
            cluster.servers[victim].crash()
            replacement = cluster.recover_server(victim)
            assert cluster.servers[victim] is replacement
            cluster.run(until=cluster.env.now + 200.0)
            self.assert_speakers_armed(cluster)

        cluster.power_fail()
        cluster.run(until=cluster.env.now + 50.0)
        cluster.power_restore()
        cluster.run(until=cluster.env.now + 200.0)
        self.assert_speakers_armed(cluster)

        cluster.env.process(cluster.grow("p2"))
        cluster.run(until=cluster.env.now + 1_000.0)
        assert "p2" in cluster.partitions
        self.assert_speakers_armed(cluster)
