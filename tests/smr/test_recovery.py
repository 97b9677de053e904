"""Crash recovery of a classic-SMR group: the one-partition case of
checkpoint-install recovery (:mod:`repro.reconfig.recovery`)."""

import pytest

from repro.harness import build_cluster
from repro.obs.tracing import CommandTracer
from repro.reconfig import (CheckpointHost, PartitionCheckpointer,
                            recover_partition_server)
from repro.reconfig.transfer import (XFER_CHUNK, XFER_CHUNK_REQ, XFER_META,
                                     XFER_META_REQ)
from repro.smr import Command
from repro.store import DurabilityConfig

from tests.conftest import make_network
from tests.smr.test_replica import build_smr, smr_client


def incr(key="x"):
    return Command(op="incr", args={"key": key}, variables=(key,))


def run_commands(env, client, count, replies, pause=5.0):
    def proc(env):
        for _ in range(count):
            reply = yield from client.run_command(incr())
            replies.append(reply.value)
            yield env.timeout(pause)
    env.process(proc(env))


def build_group(env, seed=1, contents=None, network=None, **server_options):
    """Three replicas (``r0`` is the speaker), each able to seed a peer."""
    net, directory, replicas = build_smr(env, replicas=3, seed=seed,
                                         network=network, **server_options)
    hosts = []
    for replica in replicas:
        replica.load_state(contents or {"x": 0})
        PartitionCheckpointer(replica)
        hosts.append(CheckpointHost(replica))
    return net, directory, replicas, hosts


class TestRecovery:
    def _setup(self, env, seed=1):
        net, directory, replicas, hosts = build_group(env, seed=seed)
        client = smr_client(env, net, directory, "c0")
        return net, directory, replicas, client, hosts

    def test_recovered_replica_catches_up(self, env):
        net, _directory, replicas, client, _hosts = self._setup(env)
        replies = []
        run_commands(env, client, 12, replies)
        recovered_holder = []

        def chaos(env):
            yield env.timeout(20)      # a few commands executed
            replicas[2].crash()
            yield env.timeout(25)      # more commands missed while down
            recovered_holder.append(
                recover_partition_server(replicas[2], replicas[0]))

        env.process(chaos(env))
        env.run(until=60_000)
        assert replies == list(range(1, 13))
        replacement = recovered_holder[0]
        # The replacement holds the full final state and execution history.
        assert replacement.store.read("x") == 12
        assert replacement.executed == replicas[0].executed
        assert replacement.store.snapshot() == replicas[0].store.snapshot()

    def test_replacement_keeps_the_tracer_and_the_dedup_switch(self, env):
        """The rebuild used to drop the tracer and ``dedup=``: a recovered
        replica went dark in traces and re-enabled dedup under the
        ``no_dedup`` sentinel."""
        tracer = CommandTracer()
        net, directory, replicas, _hosts = build_group(
            env, network=make_network(env, seed=1, tracer=tracer),
            dedup=False)
        client = smr_client(env, net, directory, "c0")
        replies = []
        run_commands(env, client, 12, replies)
        holder = []

        def chaos(env):
            yield env.timeout(20)
            replicas[2].crash()
            yield env.timeout(25)
            holder.append(recover_partition_server(replicas[2], replicas[0]))

        env.process(chaos(env))
        env.run(until=60_000)
        replacement = holder[0]
        assert replies == list(range(1, 13))
        assert replacement.tracer is tracer
        assert replacement.replies.enabled is False
        assert [span for span in tracer.spans
                if span.name == "execute" and span.node == "r2"
                and span.start >= 45.0]      # after the rebuild at t=45

    def test_recovered_replica_serves_clients(self, env):
        net, directory, replicas, client, _hosts = self._setup(env, seed=3)
        replies = []
        run_commands(env, client, 4, replies)
        results = []

        def chaos(env):
            yield env.timeout(30)
            replicas[1].crash()
            yield env.timeout(10)
            replacement = recover_partition_server(replicas[1], replicas[0])
            yield env.timeout(100)
            # A fresh client command must reach the replacement too.
            late = smr_client(env, net, directory, "c9")
            reply = yield from late.run_command(incr())
            results.append((reply.value, replacement))

        env.process(chaos(env))
        env.run(until=60_000)
        value, replacement = results[0]
        assert value == 5
        assert replacement.store.read("x") == 5

    def test_snapshot_host_counts(self, env):
        _net, _directory, replicas, client, hosts = self._setup(env)
        replies = []
        run_commands(env, client, 2, replies)

        def chaos(env):
            yield env.timeout(15)
            replicas[2].crash()
            yield env.timeout(5)
            recover_partition_server(replicas[2], replicas[0])

        env.process(chaos(env))
        env.run(until=30_000)
        assert hosts[0].transfers_started == 1
        assert hosts[1].transfers_started == 0

    def test_quiet_period_recovery(self, env):
        """Recovery with no concurrent traffic: the checkpoint suffices."""
        net, _directory, replicas, client, _hosts = self._setup(env, seed=5)
        replies = []
        run_commands(env, client, 3, replies, pause=1.0)
        holder = []

        def chaos(env):
            yield env.timeout(5_000)   # traffic long finished
            replicas[2].crash()
            yield env.timeout(100)
            holder.append(recover_partition_server(replicas[2], replicas[0]))

        env.process(chaos(env))
        env.run(until=30_000)
        assert holder[0].store.read("x") == 3


class TestRecoveryUnderLoss:
    """Satellite of the chaos PR: checkpoint traffic is not reliable either.

    A dropped transfer request or response must lead to a timed-out,
    retried recovery — never a replacement replica gated forever.
    """

    def _drop_first(self, net, kind, count):
        dropped = []

        def rule(message):
            if message.kind == kind and len(dropped) < count:
                dropped.append(message)
                return True
            return False

        net.add_drop_rule(rule)
        return dropped

    def _run_loss_scenario(self, env, lost_kind, lost_count=2):
        net, directory, replicas, hosts = build_group(env)
        client = smr_client(env, net, directory, "c0")
        replies = []
        run_commands(env, client, 6, replies, pause=2.0)
        outcome = {}

        def chaos(env):
            yield env.timeout(8)
            replicas[2].crash()
            outcome["dropped"] = self._drop_first(net, lost_kind, lost_count)
            yield env.timeout(4)
            outcome["replacement"] = recover_partition_server(
                replicas[2], replicas[0])

        env.process(chaos(env))
        env.run(until=60_000)
        assert replies == list(range(1, 7))
        assert len(outcome["dropped"]) == lost_count
        replacement = outcome["replacement"]
        recovery = replacement.recovery
        assert recovery.installed, "recovery hung instead of retrying"
        assert recovery.transfer.meta_retries >= lost_count
        assert replacement.store.snapshot() == replicas[0].store.snapshot()
        assert replacement.executed == replicas[0].executed
        return hosts[0], recovery

    def test_lost_snapshot_request_is_retried(self, env):
        self._run_loss_scenario(env, XFER_META_REQ)

    def test_lost_snapshot_response_is_retried(self, env):
        host, _recovery = self._run_loss_scenario(env, XFER_META)
        # The peer answered every (retried) request from the one frozen
        # capture; the receiver installs it at most once.
        assert host.transfers_started == 1

    def test_recovery_survives_random_loss(self, env):
        from repro.net import FailureInjector
        from repro.sim import SeedStream

        net, _directory, replicas, _hosts = build_group(env, seed=11)
        injector = FailureInjector(env, net, SeedStream(4))
        injector.drop_fraction(0.5, kinds=[XFER_META_REQ, XFER_META,
                                           XFER_CHUNK_REQ, XFER_CHUNK])
        holder = []

        def chaos(env):
            replicas[2].crash()
            yield env.timeout(5)
            holder.append(recover_partition_server(replicas[2], replicas[0]))

        env.process(chaos(env))
        env.run(until=60_000)
        # Retry-until-installed beats a 50% loss rate on transfer traffic.
        assert holder[0].recovery.installed
        assert holder[0].store.snapshot() == replicas[0].store.snapshot()


class TestPeerRotation:
    """Satellite of the durability PR: the checkpoint source is not a
    single point of failure. A primary peer that dies between the
    request and its reply must only delay the install — the recovery
    moves on to its fallback peers instead of retrying a dead node
    forever."""

    def test_rotation_to_fallback_when_primary_dies(self, env):
        net, directory, replicas, hosts = build_group(env, seed=17)
        client = smr_client(env, net, directory, "c0")
        replies = []
        run_commands(env, client, 5, replies, pause=2.0)
        outcome = {}

        def chaos(env):
            yield env.timeout(25)          # workload finished
            replicas[2].crash()
            # The chosen checkpoint source dies before it can answer.
            replicas[1].crash()
            yield env.timeout(2)
            outcome["replacement"] = recover_partition_server(
                replicas[2], replicas[1],
                fallback_peers=[replicas[0].node.name])

        env.process(chaos(env))
        env.run(until=60_000)
        replacement = outcome["replacement"]
        recovery = replacement.recovery
        assert recovery.installed, "recovery hung on the dead primary"
        # It waited out the dead peer's stall window, then moved on.
        assert recovery.peers_tried == ["r1", "r0"]
        assert recovery.transfer.stalls == 1
        assert hosts[0].transfers_started == 1
        assert replacement.store.snapshot() == replicas[0].store.snapshot()
        assert replacement.executed == replicas[0].executed


class TestRecoveryUnderLoad:
    """Satellite of the reconfiguration PR: recovery is not a quiet-time
    operation. Checkpoints get requested while commands are in flight, a
    replica can crash again right after coming back, and the source may
    itself still be catching up."""

    def _setup(self, env, seed=7):
        net, directory, replicas, _hosts = build_group(
            env, seed=seed, contents={"x": 0, "y": 0})
        return net, directory, replicas

    def _pipelined_load(self, env, net, directory, clients=3, count=20,
                        pause=1.5):
        """Several clients incrementing concurrently — commands are in
        flight at every point of the run."""
        replies = []
        for index in range(clients):
            client = smr_client(env, net, directory, f"c{index}")
            key = "x" if index % 2 == 0 else "y"

            def proc(env, client=client, key=key):
                for _ in range(count):
                    reply = yield from client.run_command(incr(key))
                    replies.append(reply.value)
                    yield env.timeout(pause)

            env.process(proc(env))
        return replies

    def test_recovery_with_commands_in_flight(self, env):
        net, directory, replicas = self._setup(env)
        replies = self._pipelined_load(env, net, directory)
        holder = []

        def chaos(env):
            yield env.timeout(9)        # mid-burst: deliveries queued
            replicas[2].crash()
            yield env.timeout(3)        # recover while traffic still flows
            holder.append(recover_partition_server(replicas[2], replicas[0]))

        env.process(chaos(env))
        env.run(until=60_000)
        assert len(replies) == 60
        replacement = holder[0]
        assert replacement.store.snapshot() == replicas[0].store.snapshot()
        # Deliveries buffered during the install were deduplicated against
        # the checkpoint: nothing executed twice, order matches the peer.
        assert len(replacement.executed) == len(set(replacement.executed))
        assert replacement.executed == replicas[0].executed

    def test_repeated_crash_recover_cycles(self, env):
        net, directory, replicas = self._setup(env, seed=9)
        replies = self._pipelined_load(env, net, directory, count=30)
        current = {"replica": replicas[2]}
        cycles = 3

        def chaos(env):
            for cycle in range(cycles):
                yield env.timeout(8 + 5 * cycle)
                current["replica"].crash()
                yield env.timeout(4)
                current["replica"] = recover_partition_server(
                    current["replica"], replicas[0])

        env.process(chaos(env))
        env.run(until=60_000)
        assert len(replies) == 90
        survivor = current["replica"]
        assert survivor.store.snapshot() == replicas[0].store.snapshot()
        assert survivor.executed == replicas[0].executed
        assert len(survivor.executed) == len(set(survivor.executed))

    def _recover_from_the_recovering(self, env, pause):
        """r2 recovers from r0; r1 crashes and, ``pause`` ms later,
        recovers from r2. Returns the replies, r0 and both
        replacements."""
        net, directory, replicas = self._setup(env, seed=11)
        replies = self._pipelined_load(env, net, directory, count=25)
        holder = {}

        def chaos(env):
            yield env.timeout(10)
            replicas[2].crash()
            yield env.timeout(15)       # r2 misses a chunk of the log
            second = recover_partition_server(replicas[2], replicas[0])
            holder["r2"] = second
            # Crash r1 and point its recovery at the replica that is
            # still mid-catch-up.
            replicas[1].crash()
            if pause:
                yield env.timeout(pause)
            holder["r1"] = recover_partition_server(replicas[1], second)

        env.process(chaos(env))
        env.run(until=60_000)
        return replies, replicas[0], holder

    def test_snapshot_served_by_peer_mid_catchup(self, env):
        """A replica that is itself still catching up serves a checkpoint.

        r2 recovers from r0, and while its log suffix is still being
        backfilled, r1 crashes and recovers *from r2*. The partial
        checkpoint is consistent (store matches its executed prefix), and
        the log's gap/backfill machinery delivers the rest to both.
        """
        replies, r0, holder = self._recover_from_the_recovering(env, 1)
        self._assert_both_caught_up(replies, r0, holder)

    def test_peer_serves_no_snapshot_before_its_own_install(self, env):
        """r1 asks r2 before r2 has installed anything. r2 used to
        answer with its empty pre-install store at position 0, and r1
        replayed the whole log onto it, without the preload: it ended
        with store {} while r0 held {'x': 50, 'y': 25}. An uninstalled
        host stays silent until it has installed, and r1 asks again."""
        replies, r0, holder = self._recover_from_the_recovering(env, 0)
        self._assert_both_caught_up(replies, r0, holder)
        assert holder["r1"].recovery.peers_tried == ["r2"]
        assert holder["r1"].recovery.transfer.meta_retries >= 1

    @staticmethod
    def _assert_both_caught_up(replies, r0, holder):
        assert len(replies) == 75
        for name in ("r1", "r2"):
            recovered = holder[name]
            assert recovered.store.snapshot() == r0.store.snapshot(), name
            assert recovered.executed == r0.executed, name
            assert len(recovered.executed) == len(set(recovered.executed))


def run_keys(cluster, keys, client_name):
    """One increment per key from a fresh client (cold location cache)."""
    client = cluster.new_client(client_name)

    def proc(env):
        for key in keys:
            yield from client.run_command(incr(key))

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)


def _peer_transferred_replica(cluster):
    cluster.servers["p0s1"].crash()
    cluster.disks.disk("p0s1").erase()     # a replaced machine
    replacement = cluster.recover_server("p0s1")
    assert cluster.disks.stats.peer_fallbacks == 1
    return [replacement]


def _cold_restarted_replica(cluster):
    cluster.servers["p0s1"].crash()
    return [cluster.recover_server("p0s1")]


def _cold_started_oracles(cluster):
    cluster.power_fail()
    cluster.run(until=cluster.env.now + 50)
    cluster.power_restore()
    return list(cluster.oracles)


def _grown_partition(cluster):
    cluster.env.process(cluster.grow("p2"))
    cluster.run(until=cluster.env.now + 1)      # the members are built
    return [cluster.servers[name]
            for name in cluster.directory.members("p2")]


class TestLateNodesReportToTheTracer:
    """Every node built after the deployment reaches the cluster's tracer
    through the network, with nothing to hand over at rebuild time."""

    @pytest.mark.parametrize("rebuild", [
        _peer_transferred_replica, _cold_restarted_replica,
        _cold_started_oracles,
        _grown_partition], ids=["recover", "cold-restart", "power-cycle",
                                "grow"])
    def test_new_node_emits_spans(self, rebuild):
        tracer = CommandTracer()
        keys = [f"k{i}" for i in range(8)]
        cluster = build_cluster(
            tracer=tracer, scheme="dssmr", num_partitions=2,
            replicas_per_partition=2, seed=3,
            initial_assignment={key: i % 2 for i, key in enumerate(keys)},
            durability=DurabilityConfig())
        cluster.preload({key: 0 for key in keys})
        run_keys(cluster, keys, "c0")
        built_at = cluster.env.now
        nodes = rebuild(cluster)
        cluster.run(until=cluster.env.now + 2_000)
        run_keys(cluster, keys, "c1")
        for node in nodes:
            name = node.node.name
            assert node.tracer is tracer, name
            assert [span for span in tracer.spans
                    if span.node == name and span.start >= built_at], name

