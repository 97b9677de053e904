"""An exchange is kept until its destinations are past it.

Every member caches the exchange messages it ships, to answer pulls, and
drops one once each destination group's delivery floor (see
:mod:`repro.ordering.floor`) is at or past the key of the delivery that
sent it. The unit tests drive the floors by hand; the deployments below
raise them through the protocol, with stable reports every 8 applied
positions instead of 64 so that short runs see many floors.
"""

import random

import pytest

from repro.checkers import History, KvSequentialSpec, check_linearizable
from repro.harness import build_cluster, cluster_invariants
from repro.ordering import (GroupDirectory, GroupLog, ProtocolNode,
                            ReliableMulticast)
from repro.smr import Command, CommandType, ReplyStatus
from repro.ssmr.exchange import ExchangeBuffer
from repro.store import DurabilityConfig

from benchmarks.e2e.child import build_cluster as build_e2e_cluster
from benchmarks.e2e.child import build_graph, start_clients
from benchmarks.e2e.workloads import DEFAULT_SECONDS, spec_for
from tests.conftest import make_network


class FloorStub:
    """What an exchange buffer reads of its group's multicast endpoint,
    with floors the test raises."""

    speaker_only = True

    def __init__(self, announcing):
        self.announcing = announcing
        self.floors = {}
        self._callbacks = []

    def on_floor(self, callback):
        self._callbacks.append(callback)

    def raise_floor(self, group, floor):
        self.floors[group] = floor
        for callback in self._callbacks:
            callback(group, floor)


def speaker_of_p0(env):
    """p0's speaker, beside one member each of p1 and p2."""
    network = make_network(env)
    directory = GroupDirectory({"p0": ["a0"], "p1": ["b0"], "p2": ["c0"]})
    rmcast = ReliableMulticast(ProtocolNode(env, network, "a0"), directory)
    for member in ("b0", "c0"):
        ProtocolNode(env, network, member).on_default(lambda message: None)
    return ExchangeBuffer(env, rmcast, "p0", amcast=FloorStub(True))


class TestCacheFollowsTheFloors:
    def test_kept_while_one_destination_lags(self, env):
        buffer = speaker_of_p0(env)
        buffer.send(["p1", "p2"], "c1", {"x": 1}, key=(5, "m5"))
        buffer.send(["p1"], "c2", {"y": 2}, key=(7, "m7"))
        buffer.amcast.raise_floor("p1", (9, "m9"))
        assert set(buffer._sent) == {"c1"}       # p2 still lags for c1
        buffer.amcast.raise_floor("p2", (4, "m4"))
        assert set(buffer._sent) == {"c1"}
        buffer.amcast.raise_floor("p2", (5, "m5"))   # at the key: past it
        assert buffer._sent == {}
        assert len(buffer._kept) == 0

    def test_a_resend_raises_the_key(self, env):
        buffer = speaker_of_p0(env)
        buffer.send(["p1"], "c1", {"x": 1}, key=(5, "m5"))
        buffer.send(["p1"], "c1", {}, done=True, key=(8, "m8"))
        buffer.amcast.raise_floor("p1", (6, "m6"))
        assert buffer._sent["c1"]["vars"] == {"x": 1}
        assert buffer._sent["c1"]["done"]
        buffer.amcast.raise_floor("p1", (8, "m8"))
        assert buffer._sent == {}

    def test_nothing_cached_behind_every_floor(self, env):
        """A lagging member of the sending group executes a command its
        destinations are already past: its message is still sent, but
        never needed again."""
        buffer = speaker_of_p0(env)
        buffer.amcast.raise_floor("p1", (9, "m9"))
        buffer.send(["p1"], "c1", {"x": 1}, key=(3, "m3"))
        assert buffer._sent == {}
        env.run(until=100)
        assert buffer.rmcast.node.network.sent_by_kind["rmcast"] == 1


# -- deployments ---------------------------------------------------------------

KEYS = tuple(f"k{index}" for index in range(4))


@pytest.fixture
def frequent_reports(monkeypatch):
    monkeypatch.setattr(GroupLog, "STABLE_EVERY", 8)


def kv_cluster(seed=3, scheme="ssmr", durability=None):
    cluster = build_cluster(scheme=scheme, num_partitions=2,
                            replicas_per_partition=2, seed=seed,
                            initial_assignment={key: index % 2 for index, key
                                                in enumerate(KEYS)},
                            durability=durability)
    cluster.preload({key: 0 for key in KEYS})
    return cluster


def cross_command(rng):
    """A swap or a sum of one key of each partition, or a single incr."""
    a, b = rng.choice(KEYS[0::2]), rng.choice(KEYS[1::2])
    kind = rng.random()
    if kind < 0.4:
        return Command(op="swap", args={"a": a, "b": b}, variables=(a, b),
                       writes=(a, b))
    if kind < 0.7:
        return Command(op="sum", args={"keys": [a, b]}, variables=(a, b))
    return Command(op="incr", args={"key": a}, variables=(a,), writes=(a,))


def run_load(cluster, clients=3, ops=60, seed=0, history=None):
    """Closed-loop clients issuing ``cross_command``s; returns the count
    of commands answered so far (a one-item list, updated as they are)."""
    env = cluster.env
    done = [0]

    def loop(client, rng):
        for _ in range(ops):
            command = cross_command(rng)
            invoked = env.now
            reply = yield from client.run_command(command)
            if history is not None:
                result = (reply.value if reply.status is not ReplyStatus.NOK
                          else str(reply.value))
                history.record(client.name, command.op, command.args,
                               result, invoked, env.now)
            done[0] += 1

    for index in range(clients):
        env.process(loop(cluster.new_client(f"load{seed}-{index}"),
                         random.Random(f"{seed}/{index}")))
    return done


def sent_total(cluster, partition):
    return sum(len(cluster.servers[name].exchange._sent)
               for name in cluster.directory.members(partition))


@pytest.mark.usefixtures("frequent_reports")
class TestDeployments:
    def test_floors_rise_and_the_cache_drains(self):
        cluster = kv_cluster()
        done = run_load(cluster)
        cluster.run(until=20_000)
        assert done == [180]
        for name, server in cluster.servers.items():
            other = "p1" if server.partition == "p0" else "p0"
            assert other in server.amcast.floors, name
            assert server.multi_partition_count > 100, name
            # The tail after the last floor heard, not the whole run.
            assert len(server.exchange._sent) < 30, name
            assert len(server.amcast._my_ts) < 30, name
        assert cluster_invariants(cluster) == []

    def test_blacked_out_follower_is_answered_when_it_returns(self):
        cluster = kv_cluster()
        network = cluster.network
        done = run_load(cluster, ops=120)

        def blackout(env):
            yield env.timeout(10)
            network.crash("p1s1")
            yield env.timeout(150)
            network.recover("p1s1")

        cluster.env.process(blackout(cluster.env))
        cluster.run(until=160)
        behind = len(cluster.servers["p1s0"].executed) - len(
            cluster.servers["p1s1"].executed)
        assert behind > 50
        # p1's floor is pinned at the follower's last report, so p0 still
        # holds everything p1s1 has to pull.
        assert sent_total(cluster, "p0") > 2 * behind
        cluster.run(until=30_000)
        assert done == [360]
        assert sum(cluster.servers[name].exchange.pulls_served
                   for name in ("p0s0", "p0s1")) > 0
        assert (cluster.servers["p1s1"].executed
                == cluster.servers["p1s0"].executed)
        assert cluster_invariants(cluster) == []
        # Once it caught up and reported, p0's cache drains again.
        more = run_load(cluster, ops=30, seed=1)
        cluster.run(until=cluster.env.now + 10_000)
        assert more == [90]
        assert sent_total(cluster, "p0") < 60

    def test_recovered_follower_stays_live_and_linearizable(self):
        cluster = kv_cluster()
        history = History()
        done = run_load(cluster, ops=100, history=history)

        def chaos(env):
            yield env.timeout(5)
            cluster.servers["p0s1"].crash()
            yield env.timeout(7)
            cluster.recover_server("p0s1")

        cluster.env.process(chaos(cluster.env))
        cluster.run(until=12)
        assert 0 < done[0] < 200     # recovered mid-run
        cluster.run(until=30_000)
        assert done == [300]
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.executed == cluster.servers["p0s0"].executed
        assert "p1" in recovered.amcast.floors
        assert cluster_invariants(cluster) == []
        assert check_linearizable(
            history, KvSequentialSpec({key: 0 for key in KEYS}))

    def test_cold_started_member_re_executes_and_is_served(self):
        """A member restarted from its own disk replays the commands after
        its newest checkpoint, multi-partition ones included: the other
        partition, which its reports held back, still serves them."""
        cluster = kv_cluster(durability=DurabilityConfig(checkpoint_every=16))
        done = run_load(cluster, ops=80)
        cluster.run(until=40)
        victim = cluster.servers["p1s1"]
        checkpoint, _ = victim.ckpt_store.load_latest()
        assert checkpoint.applied_count < victim.log.applied_count
        assert victim.executed[len(checkpoint.executed):]
        victim.crash()
        replacement = cluster.recover_server("p1s1")
        cluster.run(until=30_000)
        assert done == [240]
        # The replay ran every command after the checkpoint again, and
        # pulled the exchanges the other partition had sent long before.
        assert replacement.executed[:len(victim.executed)] == victim.executed
        assert replacement.exchange.pulls_sent > 0
        assert sum(cluster.servers[name].exchange.pulls_served
                   for name in ("p0s0", "p0s1")) > 0
        assert (cluster.servers["p1s1"].executed
                == cluster.servers["p1s0"].executed)
        assert cluster_invariants(cluster) == []

    def test_durable_oracle_floor_rises(self):
        """A durable oracle checkpoints like a partition, so its group
        reports restore keys: the oracle floor rises, reaches the
        partition, and it drops the create/delete signals it kept for
        the oracle (all 320, 160 on each replica, while the oracle
        replayed its whole WAL instead)."""
        cluster = kv_cluster(scheme="dssmr",
                             durability=DurabilityConfig(checkpoint_every=16))
        env = cluster.env
        done = [0]

        def churn(client, index):
            for turn in range(40):
                key = f"n{index}-{turn}"
                for command in (
                        Command(op="create", ctype=CommandType.CREATE,
                                variables=(key,), args={"value": 0}),
                        Command(op="delete", ctype=CommandType.DELETE,
                                variables=(key,))):
                    reply = yield from client.run_command(command)
                    assert reply.status is ReplyStatus.OK
                    done[0] += 1

        for index in range(2):
            env.process(churn(cluster.new_client(f"churn{index}"), index))
        cluster.run(until=20_000)
        assert done == [160]
        # The group floor lives where the group keeps it: its sequencer.
        sequencer = cluster.member(cluster.directory.speaker("oracle"))
        assert sequencer.log.key_floor is not None
        for oracle in cluster.oracles:
            assert oracle.checkpointer.store.durable_key is not None
            assert oracle.amcast.floors
            assert len(oracle.exchange._sent) < 40
        # Every create lands on p0 (the least-loaded policy breaks the
        # tie between equal partitions by name), so p1 hears nothing.
        kept = 0
        for name in cluster.directory.members("p0"):
            server = cluster.servers[name]
            assert "oracle" in server.amcast.floors, name
            kept += len(server.exchange._kept.queues.get("oracle", {}))
        assert kept < 40
        assert cluster_invariants(cluster) == []

def test_a_long_run_keeps_the_caches_flat():
    """ssmr-hk-post at sub-seed 100 (every post multi-partition), for the
    benchmark's window and for four times as long: the caches end the
    same size, below a tenth of the 13 518 entries each held at 1x when
    every exchange and timestamp was kept for the whole run."""
    counts = []
    for scale in (1, 4):
        spec = spec_for("ssmr-hk-post", 100, DEFAULT_SECONDS * scale)
        graph = build_graph(spec)
        cluster = build_e2e_cluster(spec, graph)
        tally = {"issued": 0, "finished": 0}
        start_clients(spec, cluster, graph, tally)
        cluster.run(until=spec["vdur"] + spec["grace"])
        assert tally["finished"] == tally["issued"] > 2_000 * scale
        servers = cluster.servers.values()
        counts.append((sum(len(s.exchange._sent) for s in servers),
                       sum(len(s.amcast._my_ts) for s in servers)))
    (sent, my_ts), (sent_4x, my_ts_4x) = counts
    for short, long in ((sent, sent_4x), (my_ts, my_ts_4x)):
        assert abs(long - short) <= 0.1 * short, counts
        assert max(short, long) < 1_351, counts
