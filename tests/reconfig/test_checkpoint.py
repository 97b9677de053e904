"""Tests for partition checkpoints and the canonical serialisation."""

import copy
import enum
import gc
import pickle

import pytest

from repro.apps.chirper import ChirperClient, ChirperStateMachine, user_key
from repro.core.policy import MajorityTargetPolicy
from repro.dynastar.policy import GraphTargetPolicy
from repro.harness import Cluster, ClusterConfig, build_cluster
from repro.reconfig import canonical_bytes, state_checksum
from repro.reconfig.checkpoint import FrozenCheckpoint, PartitionCheckpoint
from repro.smr import Command
from repro.smr.state_machine import (ExecutionView, KeyValueStateMachine,
                                     VariableStore)
from repro.store import DurabilityConfig

from tests.reconfig.test_components import group_images


def run_workload(cluster, count=8, name="c0"):
    client = cluster.new_client(name)

    def proc(env):
        for index in range(count):
            key = f"k{index % 4}"
            yield from client.run_command(
                Command(op="incr", args={"key": key}, variables=(key,),
                        writes=(key,)))

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)


def build_loaded_cluster(seed=3, scheme="dssmr", durability=None):
    cluster = build_cluster(scheme=scheme, num_partitions=2,
                            replicas_per_partition=2, seed=seed,
                            initial_assignment={f"k{i}": i % 2
                                                for i in range(4)},
                            durability=durability)
    cluster.preload({f"k{i}": 0 for i in range(4)})
    run_workload(cluster)
    return cluster


class TestCanonicalSerialisation:
    def test_dict_order_independence(self):
        assert canonical_bytes({"a": 1, "b": 2}) == \
            canonical_bytes({"b": 2, "a": 1})
        assert state_checksum({"a": {"x": 1, "y": 2}}) == \
            state_checksum({"a": {"y": 2, "x": 1}})

    def test_sets_are_sorted(self):
        assert state_checksum({"s": {"b", "a", "c"}}) == \
            state_checksum({"s": {"c", "a", "b"}})

    def test_values_distinguished(self):
        assert state_checksum({"a": 1}) != state_checksum({"a": 2})
        assert state_checksum({"a": 1}) != state_checksum({"a": "1"})
        assert state_checksum([1, 2]) != state_checksum((2, 1))

    def test_nested_structures(self):
        a = {"m": [{"k": {1, 2}}, ("t", 3)], "n": {"p": {"q": 0}}}
        b = {"n": {"p": {"q": 0}}, "m": [{"k": {2, 1}}, ("t", 3)]}
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_plain_objects_hash_by_class_and_fields_not_address(self):
        """A plain object's repr carries its address, so two equal
        policies, or one and its pickle round trip, used to differ."""
        policy = MajorityTargetPolicy()
        assert state_checksum(policy) == \
            state_checksum(MajorityTargetPolicy())
        assert state_checksum(policy) == \
            state_checksum(pickle.loads(pickle.dumps(policy)))
        graph, other = (GraphTargetPolicy(("p0", "p1")) for _ in range(2))
        assert state_checksum(graph) == state_checksum(other)
        other.workload.add_hint(["x", "y"], [("x", "y")])
        assert state_checksum(graph) != state_checksum(other)
        assert state_checksum(graph) != state_checksum(policy)


class TestPartitionCheckpointer:
    def test_capture_reflects_server_state(self):
        cluster = build_loaded_cluster()
        server = cluster.servers["p0s0"]
        frozen = server.checkpointer.capture("test")
        checkpoint = frozen.thaw()
        assert (frozen.partition, frozen.replica, frozen.epoch,
                frozen.applied_count, frozen.num_keys) == (
            checkpoint.partition, checkpoint.replica, checkpoint.epoch,
            checkpoint.applied_count, len(checkpoint.components["store"]))
        components = checkpoint.components
        assert list(components) == list(server.components())
        assert checkpoint.partition == "p0"
        assert checkpoint.replica == "p0s0"
        assert components["store"] == server.store.snapshot()
        assert components["executor"]["executed"] == list(server.executed)
        assert checkpoint.applied_count == components["log"] == \
            server.log.applied_count
        assert checkpoint.epoch == components["executor"]["epoch"] == \
            server.epoch
        assert checkpoint.checksum == checkpoint.compute_checksum()

    def test_capture_is_a_snapshot_not_a_view(self):
        cluster = build_loaded_cluster()
        server = cluster.servers["p0s0"]
        frozen = server.checkpointer.capture("test")
        before = frozen.thaw().components["store"]
        assert before == server.store.snapshot()
        run_workload(cluster, count=4, name="c1")
        assert before != server.store.snapshot()
        assert frozen.thaw().components["store"] == before

    def test_replicas_capture_equal_components(self):
        """Converged replicas of one partition capture equal components,
        apart from what names the member; the checksum covers the member
        too, so theirs differ."""
        cluster = build_loaded_cluster()
        first = cluster.servers["p0s0"].checkpointer.capture("a").thaw()
        second = cluster.servers["p0s1"].checkpointer.capture("b").thaw()
        assert group_images(first.components) == \
            group_images(second.components)
        assert first.checksum != second.checksum

    def test_same_seed_runs_capture_identical_checksums(self):
        checksums = []
        for _ in range(2):
            cluster = build_loaded_cluster(seed=9)
            checksums.append(cluster.servers["p1s0"].checkpointer
                             .capture("d").thaw().checksum)
        assert checksums[0] == checksums[1]

    def test_delivery_handed_to_an_idle_executor_is_queued_work(self):
        """A capture in the decide callback chain (the periodic WAL
        capture) runs after the delivery left the queue for the waiting
        executor but before the executor resumed: the delivery must count
        as not yet executed, or a replica installing it never runs it."""
        cluster = build_loaded_cluster()
        server = cluster.servers["p0s1"]
        captured = []
        server.amcast.on_deliver(lambda delivery: captured.append(
            (delivery.uid, server.checkpointer.capture("test").thaw())))
        run_workload(cluster, count=1, name="c1")
        (uid, checkpoint), = captured
        executor = checkpoint.components["executor"]
        assert [delivery.uid for delivery in executor["queued"]] == [uid]
        assert executor["executed"] == server.executed[:-1]

    @staticmethod
    def grow_recording_captures(cluster) -> tuple:
        """Grow ``cluster`` by a partition; per established server, its
        capture count before and the (reason, epoch) of each capture."""
        before = {name: cluster.servers[name].checkpointer.captures
                  for name in ("p0s0", "p0s1", "p1s0", "p1s1")}
        captures = {name: [] for name in before}
        for name in before:
            checkpointer = cluster.servers[name].checkpointer
            capture = checkpointer.capture

            def recording_capture(reason="manual", capture=capture,
                                  seen=captures[name]):
                record = capture(reason)
                seen.append((reason, record.epoch))
                return record

            checkpointer.capture = recording_capture

        def driver(env):
            yield from cluster.grow("p2")

        cluster.env.process(driver(cluster.env))
        cluster.run(until=10_000)
        return before, captures

    def test_epoch_boundary_auto_captures(self):
        """Join fences trigger a capture on every established server of
        a durable deployment."""
        cluster = build_loaded_cluster(durability=DurabilityConfig())
        before, captures = self.grow_recording_captures(cluster)
        for name, count in before.items():
            checkpointer = cluster.servers[name].checkpointer
            assert checkpointer.captures > count, name
            assert ("join", 1) in captures[name], name
            assert captures[name][-1][1] == 1

    def test_epoch_boundary_without_a_store_captures_nothing(self):
        """Without a durable store nobody would keep a fence capture, so
        none is taken."""
        cluster = build_loaded_cluster()
        before, captures = self.grow_recording_captures(cluster)
        for name, count in before.items():
            assert cluster.servers[name].epoch == 1, name
            assert captures[name] == [], name
            assert cluster.servers[name].checkpointer.captures == count


# -- serialise-once capture: equivalence, isolation, the periodic path ------

USERS = 12
RING = {u: [(u - 1) % USERS, (u + 1) % USERS] for u in range(USERS)}


def chirper_cluster(scheme, posts_per_client=40, durability=None):
    """A Chirper deployment with three clients posting in closed loop."""
    cluster = Cluster(ClusterConfig(
        scheme=scheme, num_partitions=2, seed=3,
        state_machine_factory=ChirperStateMachine, durability=durability))
    cluster.preload({
        user_key(u): {"following": sorted(RING[u]),
                      "followers": sorted(RING[u]), "timeline": []}
        for u in range(USERS)})
    clients = [ChirperClient(cluster.new_client(f"c{index}"),
                             social_view={u: set(RING[u]) for u in RING})
               for index in range(3)]

    def posts(chirper, offset):
        for index in range(posts_per_client):
            yield from chirper.post((offset + 5 * index) % USERS,
                                    f"post {offset}/{index}")

    for offset, chirper in enumerate(clients):
        cluster.env.process(posts(chirper, offset))
    return cluster, clients


def completed(clients):
    return sum(chirper.ops_completed for chirper in clients)


def run_until_completed(cluster, clients, target):
    while completed(clients) < target:
        cluster.run(until=cluster.env.now + 1.0)
        assert cluster.env.now < 60_000, "workload stalled"


def reference_checkpoint(server) -> PartitionCheckpoint:
    """What capture would build with one ``deepcopy`` per component
    instead of its one serialisation. Kept as the reference the frozen
    payload must equal."""
    return PartitionCheckpoint(
        partition=server.partition, replica=server.node.name,
        epoch=server.epoch, taken_at=server.env.now,
        applied_count=server.log.applied_count,
        components={name: copy.deepcopy(component.snapshot())
                    for name, component in server.components().items()})


def field_images(checkpoint) -> dict:
    """Canonical image of each header field and each component."""
    images = {name: canonical_bytes(value) for name, value
              in vars(checkpoint).items()
              if name not in ("components", "checksum")}
    images.update((name, canonical_bytes(snapshot)) for name, snapshot
                  in checkpoint.components.items())
    return images


def mutable_ids(obj, seen=None) -> set:
    """ids of every mutable object reachable from ``obj``."""
    seen = set() if seen is None else seen
    if isinstance(obj, (str, bytes, int, float, bool, type(None),
                        enum.Enum)):
        return seen
    if isinstance(obj, dict):
        children = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = list(vars(obj).values())
    if not isinstance(obj, (tuple, frozenset)):
        if id(obj) in seen:
            return seen
        seen.add(id(obj))
    for child in children:
        mutable_ids(child, seen)
    return seen


def live_state(server) -> list:
    return [server.store._data, server.replies.sessions,
            server.amcast._pending, server.amcast._my_ts,
            server.exchange._vars, server.exchange._sent,
            server.pending_deliveries()]


@pytest.mark.parametrize("scheme", ["ssmr", "dssmr"])
class TestSerialiseOnceCapture:
    def test_thaw_equals_the_deepcopy_reference_mid_run(self, scheme):
        cluster, clients = chirper_cluster(scheme)
        run_until_completed(cluster, clients, 30)
        assert completed(clients) < 120          # still mid-run
        for name, server in sorted(cluster.servers.items()):
            reference = reference_checkpoint(server)
            frozen = server.checkpointer.capture("test")
            thawed = frozen.thaw()
            expected = field_images(reference)
            for field, image in field_images(thawed).items():
                assert image == expected[field], (name, field)
            assert thawed.checksum == reference.compute_checksum(), name
            assert frozen.num_keys == len(reference.components["store"])
            assert thawed.components["exchange"]["sent"], \
                "nothing in flight was captured"

    def test_frozen_record_is_isolated_from_the_run(self, scheme):
        cluster, clients = chirper_cluster(scheme)
        run_until_completed(cluster, clients, 30)
        server = cluster.servers["p0s0"]
        frozen = server.checkpointer.capture("test")
        first = frozen.thaw()
        at_capture = field_images(first)
        assert not mutable_ids(first) & mutable_ids(live_state(server))

        run_until_completed(cluster, clients, 80)   # 50 more commands
        assert field_images(reference_checkpoint(server)) != at_capture
        second = frozen.thaw()
        assert field_images(second) == at_capture
        assert field_images(first) == at_capture
        assert second.checksum == first.checksum
        assert not mutable_ids(first) & mutable_ids(second)
        assert not mutable_ids(second) & mutable_ids(live_state(server))


def test_periodic_wal_captures_never_thaw_or_checksum(monkeypatch):
    """The ``wal-periodic`` path stops at the frozen bytes."""
    calls = {"loads": 0, "checksum": 0}
    real_loads = pickle.loads
    real_checksum = PartitionCheckpoint.compute_checksum

    def counting_loads(*args, **kwargs):
        calls["loads"] += 1
        return real_loads(*args, **kwargs)

    def counting_checksum(self):
        calls["checksum"] += 1
        return real_checksum(self)

    monkeypatch.setattr(pickle, "loads", counting_loads)
    monkeypatch.setattr(PartitionCheckpoint, "compute_checksum",
                        counting_checksum)
    # dssmr captures with moves and oracle verdicts in flight, but gathers
    # all twelve users on p1, so p0's log goes quiet at 153 entries
    # whatever the load; under static ssmr every post stays
    # multi-partition and both logs pass 200.
    for scheme, quiet in (("dssmr", {"p0"}), ("ssmr", set())):
        cluster, clients = chirper_cluster(
            scheme, posts_per_client=70,
            durability=DurabilityConfig(checkpoint_every=16))
        run_until_completed(cluster, clients, 210)
        cluster.run(until=cluster.env.now + 50)   # let the saves fsync
        for name, server in cluster.servers.items():
            applied = server.log.applied_count
            assert server.checkpointer.captures >= applied // 16, name
            assert applied >= (100 if server.partition in quiet else 200), \
                (scheme, name)
        assert cluster.disks.stats.checkpoints_saved > 0
        assert calls == {"loads": 0, "checksum": 0}, scheme
    # ...and the counters do see a thaw when one happens.
    cluster.servers["p0s0"].checkpointer.capture("probe").thaw()
    assert calls == {"loads": 1, "checksum": 1}


def test_durable_checkpointer_keeps_no_frozen_record():
    """Periodic captures go to the durable store and to disk; once
    their saves have fsynced, no frozen record is left in memory."""
    def live_records():
        return sum(isinstance(obj, FrozenCheckpoint)
                   for obj in gc.get_objects())

    before = live_records()
    cluster, clients = chirper_cluster(
        "ssmr", posts_per_client=30,
        durability=DurabilityConfig(checkpoint_every=16))
    run_until_completed(cluster, clients, 90)
    cluster.run(until=cluster.env.now + 50)   # let the saves fsync
    for name, server in cluster.servers.items():
        assert server.checkpointer.captures >= 2, name
        assert server.ckpt_store.load_latest()[0] is not None, name
    assert live_records() == before


class TestValueImmutabilityContract:
    """By-reference capture (and by-reference exchange messages) are
    sound only while state machines replace values instead of mutating
    the ones they read; both shipped machines are held to it here."""

    @staticmethod
    def apply_and_check(machine, store, command):
        held = {key: store.read(key) for key in store.keys()}
        before = copy.deepcopy(held)
        machine.apply(command, ExecutionView(store))
        assert held == before, f"{command.op} mutated a value it read"
        return {key for key in held if store.read(key) is not held[key]}

    def test_chirper_writes_replace_values(self):
        store = VariableStore()
        for user in range(3):
            store.write(user_key(user), {
                "following": [(user + 1) % 3], "followers": [(user - 1) % 3],
                "timeline": [("p0", 0, "old")]})
        machine = ChirperStateMachine()
        keys = tuple(user_key(u) for u in range(3))
        replaced = self.apply_and_check(machine, store, Command(
            op="post", args={"user": 0, "text": "hi", "post_id": "p1"},
            variables=keys, writes=keys))
        assert replaced == set(keys)
        for op in ("follow", "unfollow"):
            replaced = self.apply_and_check(machine, store, Command(
                op=op, args={"follower": 0, "followee": 2},
                variables=(keys[0], keys[2]), writes=(keys[0], keys[2])))
            assert replaced == {keys[0], keys[2]}
        self.apply_and_check(machine, store, Command(
            op="timeline", args={"user": 1}, variables=(keys[1],)))

    def test_key_value_writes_replace_values(self):
        store = VariableStore()
        store.write("a", [1, 2])
        store.write("b", [3])
        store.write("n", 4)
        machine = KeyValueStateMachine()
        for op, args, variables in [
                ("append", {"key": "a", "value": 9}, ("a",)),
                ("swap", {"a": "a", "b": "b"}, ("a", "b")),
                ("incr", {"key": "n"}, ("n",)),
                ("put", {"key": "b", "value": [7]}, ("b",)),
                ("get", {"key": "a"}, ("a",))]:
            self.apply_and_check(machine, store, Command(
                op=op, args=args, variables=variables, writes=variables))
        assert store.read("b") == [7] and store.read("n") == 5
