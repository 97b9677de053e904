"""Tests for classic-SMR crash recovery (snapshot + log backfill)."""

from repro.obs.tracing import CommandTracer
from repro.ordering import GroupDirectory
from repro.smr import (Command, ExecutionModel, KeyValueStateMachine,
                       SmrClient, SmrReplica)
from repro.smr.recovery import RecoveryHost, recover_replica

from tests.conftest import make_network
from tests.smr.test_replica import build_smr


def incr(key="x"):
    return Command(op="incr", args={"key": key}, variables=(key,))


def run_commands(env, client, count, replies, pause=5.0):
    def proc(env):
        for _ in range(count):
            reply = yield from client.run_command(incr())
            replies.append(reply.value)
            yield env.timeout(pause)
    env.process(proc(env))


class TestRecovery:
    def _setup(self, env, seed=1):
        net, directory, replicas = build_smr(env, replicas=3, seed=seed)
        hosts = []
        for replica in replicas:
            replica.load_state({"x": 0})
            hosts.append(RecoveryHost(replica))
        client = SmrClient(env, net, directory, "c0", "smr")
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
            replacement = recover_replica(replicas[2], replicas[0])
            RecoveryHost(replacement)
            recovered_holder.append(replacement)

        env.process(chaos(env))
        env.run(until=60_000)
        assert replies == list(range(1, 13))
        replacement = recovered_holder[0]
        # The replacement holds the full final state and execution history.
        assert replacement.store.read("x") == 12
        assert replacement.executed == replicas[0].executed
        assert replacement.store.snapshot() == replicas[0].store.snapshot()

    def test_replacement_keeps_the_tracer_and_the_dedup_switch(self, env):
        """The rebuild used to drop ``tracer=`` and ``dedup=``: a recovered
        replica went dark in traces and re-enabled dedup under the
        ``no_dedup`` sentinel."""
        tracer = CommandTracer()
        net = make_network(env, seed=1)
        directory = GroupDirectory({"smr": ["r0", "r1", "r2"]})
        replicas = [SmrReplica(env, net, directory, "smr", name,
                               KeyValueStateMachine(),
                               execution=ExecutionModel(base_ms=0.05),
                               dedup=False, tracer=tracer)
                    for name in directory.members("smr")]
        for replica in replicas:
            replica.load_state({"x": 0})
            RecoveryHost(replica)
        client = SmrClient(env, net, directory, "c0", "smr")
        replies = []
        run_commands(env, client, 12, replies)
        holder = []

        def chaos(env):
            yield env.timeout(20)
            replicas[2].crash()
            yield env.timeout(25)
            holder.append(recover_replica(replicas[2], replicas[0]))

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
            replacement = recover_replica(replicas[1], replicas[0])
            yield env.timeout(100)
            # A fresh client command must reach the replacement too.
            late = SmrClient(env, net, directory, "c9", "smr")
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
            recover_replica(replicas[2], replicas[0])

        env.process(chaos(env))
        env.run(until=30_000)
        assert hosts[0].snapshots_served == 1

    def test_quiet_period_recovery(self, env):
        """Recovery with no concurrent traffic: snapshot alone suffices."""
        net, _directory, replicas, client, _hosts = self._setup(env, seed=5)
        replies = []
        run_commands(env, client, 3, replies, pause=1.0)
        holder = []

        def chaos(env):
            yield env.timeout(5_000)   # traffic long finished
            replicas[2].crash()
            yield env.timeout(100)
            holder.append(recover_replica(replicas[2], replicas[0]))

        env.process(chaos(env))
        env.run(until=30_000)
        assert holder[0].store.read("x") == 3


class TestRecoveryUnderLoss:
    """Satellite of the chaos PR: snapshot traffic is not reliable either.

    A dropped snapshot request or response must lead to a timed-out,
    retried recovery — never a replacement replica gated forever.
    """

    def _recover_with_handle(self, crashed, peer, retry_ms=20.0):
        """recover_replica, but keeping the RecoveringReplica handle."""
        from repro.smr.recovery import RecoveringReplica
        from repro.smr import KeyValueStateMachine, SmrReplica

        network = crashed.node.network
        name = crashed.node.name
        network.recover(name)
        replacement = SmrReplica(
            crashed.env, network, crashed.amcast.directory, crashed.group,
            name, KeyValueStateMachine(), execution=crashed.execution,
            log_factory=type(crashed.log), start_gate=crashed.env.event())
        handle = RecoveringReplica(replacement, peer.node.name,
                                   retry_ms=retry_ms)
        return replacement, handle

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
        from repro.smr.recovery import RecoveryHost

        net, _directory, replicas = build_smr(env)
        host = RecoveryHost(replicas[0])
        for replica in replicas:
            replica.load_state({"x": 0})
        client = SmrClient(env, net, directory=replicas[0].amcast.directory,
                           name="c0", group="smr")
        replies = []
        run_commands(env, client, 6, replies, pause=2.0)
        outcome = {}

        def chaos(env):
            yield env.timeout(8)
            replicas[2].crash()
            outcome["dropped"] = self._drop_first(net, lost_kind, lost_count)
            yield env.timeout(4)
            replacement, handle = self._recover_with_handle(
                replicas[2], replicas[0])
            yield env.timeout(2_000)
            outcome.update(replacement=replacement, handle=handle)

        env.process(chaos(env))
        env.run(until=60_000)
        assert replies == list(range(1, 7))
        assert len(outcome["dropped"]) == lost_count
        handle = outcome["handle"]
        assert handle.installed, "recovery hung instead of retrying"
        assert handle.attempts >= lost_count + 1
        replacement = outcome["replacement"]
        assert replacement.store.snapshot() == replicas[0].store.snapshot()
        assert replacement.executed == replicas[0].executed
        return host, handle

    def test_lost_snapshot_request_is_retried(self, env):
        from repro.smr.recovery import SNAPSHOT_REQUEST

        self._run_loss_scenario(env, SNAPSHOT_REQUEST)

    def test_lost_snapshot_response_is_retried(self, env):
        from repro.smr.recovery import SNAPSHOT_RESPONSE

        host, _handle = self._run_loss_scenario(env, SNAPSHOT_RESPONSE)
        # The peer served every (retried) request; duplicates of the
        # response install at most once at the recovering side.
        assert host.snapshots_served >= 2

    def test_recovery_survives_random_loss(self, env):
        from repro.net import FailureInjector
        from repro.sim import SeedStream
        from repro.smr.recovery import (RecoveryHost, SNAPSHOT_REQUEST,
                                        SNAPSHOT_RESPONSE, recover_replica)

        net, _directory, replicas = build_smr(env, seed=11)
        RecoveryHost(replicas[0])
        for replica in replicas:
            replica.load_state({"x": 0})
        injector = FailureInjector(env, net, SeedStream(4))
        injector.drop_fraction(0.5, kinds=[SNAPSHOT_REQUEST,
                                           SNAPSHOT_RESPONSE])
        holder = []

        def chaos(env):
            replicas[2].crash()
            yield env.timeout(5)
            holder.append(recover_replica(replicas[2], replicas[0]))

        env.process(chaos(env))
        env.run(until=60_000)
        # Retry-until-installed beats a 50% loss rate on snapshot traffic.
        assert holder[0].store.snapshot() == replicas[0].store.snapshot()


class TestPeerRotation:
    """Satellite of the durability PR: the snapshot source is not a
    single point of failure. A primary peer that dies between the
    request and its reply must only delay the install — the recovery
    rotates through its fallback peers instead of retrying a dead node
    forever."""

    def _setup(self, env, seed=17):
        net, directory, replicas = build_smr(env, replicas=3, seed=seed)
        for replica in replicas:
            replica.load_state({"x": 0})
        # Hosts on the *fallback* candidates only; the doomed primary
        # never gets to answer anyway.
        hosts = [RecoveryHost(replicas[0]), RecoveryHost(replicas[1])]
        client = SmrClient(env, net, directory, "c0", "smr")
        return net, replicas, client, hosts

    def test_rotation_to_fallback_when_primary_dies(self, env):
        from repro.smr.recovery import RecoveringReplica
        from repro.smr import SmrReplica

        net, replicas, client, hosts = self._setup(env)
        replies = []
        run_commands(env, client, 5, replies, pause=2.0)
        outcome = {}

        def chaos(env):
            yield env.timeout(25)          # workload finished
            replicas[2].crash()
            # The chosen snapshot source dies before it can answer.
            replicas[1].crash()
            yield env.timeout(2)
            net.recover(replicas[2].node.name)
            replacement = SmrReplica(
                env, net, replicas[2].amcast.directory, replicas[2].group,
                replicas[2].node.name, KeyValueStateMachine(),
                execution=replicas[2].execution,
                log_factory=type(replicas[2].log),
                start_gate=env.event())
            handle = RecoveringReplica(
                replacement, replicas[1].node.name, retry_ms=10.0,
                fallback_peers=[replicas[0].node.name],
                attempts_per_peer=2)
            yield env.timeout(2_000)
            outcome.update(replacement=replacement, handle=handle)

        env.process(chaos(env))
        env.run(until=60_000)
        handle = outcome["handle"]
        assert handle.installed, "recovery hung on the dead primary"
        # It burned its attempts on the dead peer, then rotated.
        assert handle.peer_name == replicas[0].node.name
        assert handle.attempts > handle.attempts_per_peer
        assert hosts[0].snapshots_served >= 1
        assert outcome["replacement"].store.snapshot() == \
            replicas[0].store.snapshot()
        assert outcome["replacement"].executed == replicas[0].executed

    def test_rotation_wraps_around_while_all_sources_are_dead(self, env):
        """With every source dead the rotation keeps cycling (primary →
        fallback → primary …) instead of wedging on one peer: whichever
        source comes back first will get the next request."""
        from repro.smr.recovery import RecoveringReplica
        from repro.smr import SmrReplica

        net, replicas, client, hosts = self._setup(env, seed=19)
        replies = []
        run_commands(env, client, 3, replies, pause=2.0)
        outcome = {}
        seen_peers = []

        def chaos(env):
            yield env.timeout(20)
            replicas[2].crash()
            replicas[0].crash()
            replicas[1].crash()
            yield env.timeout(2)
            net.recover(replicas[2].node.name)
            replacement = SmrReplica(
                env, net, replicas[2].amcast.directory, replicas[2].group,
                replicas[2].node.name, KeyValueStateMachine(),
                execution=replicas[2].execution,
                log_factory=type(replicas[2].log),
                start_gate=env.event())
            handle = RecoveringReplica(
                replacement, replicas[0].node.name, retry_ms=10.0,
                fallback_peers=[replicas[1].node.name],
                attempts_per_peer=2)
            for _ in range(12):
                seen_peers.append(handle.peer_name)
                yield env.timeout(10.0)
            outcome["handle"] = handle

        env.process(chaos(env))
        env.run(until=60_000)
        handle = outcome["handle"]
        assert not handle.installed        # nobody could answer
        assert handle.attempts > 2 * handle.attempts_per_peer
        # Both sources were asked, and the cycle wrapped back around.
        primary = replicas[0].node.name
        fallback = replicas[1].node.name
        assert fallback in seen_peers
        assert primary in seen_peers[seen_peers.index(fallback):]


class TestLogBackfill:
    def test_gap_triggers_backfill(self, env):
        """A member that misses a decision fills the hole via backfill."""
        from repro.net import FailureInjector
        from repro.sim import SeedStream
        from tests.ordering.test_logs import build_logs
        from repro.ordering import SequencerLog

        net, _directory, logs = build_logs(env, SequencerLog, seed=9)
        # Drop exactly the decide messages to m2 for a window, creating a
        # hole that only backfill can repair.
        remove = net.add_drop_rule(
            lambda m: m.dst == "m2" and m.kind == "log/g/decide")
        logs["m0"].submit({"uid": "lost"})
        env.run(until=10)
        remove()
        logs["m0"].submit({"uid": "after"})
        env.run(until=10_000)
        assert [uid for _seq, uid in logs["m2"].applied] == \
            ["lost", "after"]

    def test_fast_forward_validation(self, env):
        from tests.ordering.test_logs import build_logs
        from repro.ordering import SequencerLog
        import pytest

        _net, _directory, logs = build_logs(env, SequencerLog)
        logs["m0"].submit({"uid": "a"})
        env.run(until=100)
        with pytest.raises(ValueError):
            logs["m1"].fast_forward(0)

    def test_fast_forward_applies_the_run_that_was_waiting(self, env):
        """Entries past the snapshot learned while it was in flight are
        applied by the fast-forward itself; left pending, every later
        copy of them is dropped as a duplicate and the log stalls until
        newer traffic arrives (fuzz: a recovered replica ends a prefix
        behind its peer, "replicas diverge on execution order")."""
        from tests.ordering.test_logs import build_logs
        from repro.ordering import SequencerLog

        _net, _directory, logs = build_logs(env, SequencerLog)
        log = logs["m1"]
        for seq in (2, 3):              # 0 and 1 are in the snapshot
            log._learn(seq, {"uid": f"e{seq}"})
        assert log.applied == []
        log.fast_forward(2)
        assert log.applied == [(2, "e2"), (3, "e3")]
        assert log.applied_count == 4


class TestRecoveryUnderLoad:
    """Satellite of the reconfiguration PR: recovery is not a quiet-time
    operation. Snapshots get requested while commands are in flight, a
    replica can crash again right after coming back, and the only willing
    snapshot host may itself still be catching up."""

    def _setup(self, env, seed=7):
        net, directory, replicas = build_smr(env, replicas=3, seed=seed)
        for replica in replicas:
            replica.load_state({"x": 0, "y": 0})
            RecoveryHost(replica)
        return net, directory, replicas

    def _pipelined_load(self, env, net, directory, clients=3, count=20,
                        pause=1.5):
        """Several clients incrementing concurrently — commands are in
        flight at every point of the run."""
        replies = []
        for index in range(clients):
            client = SmrClient(env, net, directory, f"c{index}", "smr")
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
            replacement = recover_replica(replicas[2], replicas[0])
            RecoveryHost(replacement)
            holder.append(replacement)

        env.process(chaos(env))
        env.run(until=60_000)
        assert len(replies) == 60
        replacement = holder[0]
        assert replacement.store.snapshot() == replicas[0].store.snapshot()
        # Deliveries buffered during the install were deduplicated against
        # the snapshot: nothing executed twice, order matches the peer.
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
                replacement = recover_replica(current["replica"],
                                              replicas[0])
                RecoveryHost(replacement)
                current["replica"] = replacement

        env.process(chaos(env))
        env.run(until=60_000)
        assert len(replies) == 90
        survivor = current["replica"]
        assert survivor.store.snapshot() == replicas[0].store.snapshot()
        assert survivor.executed == replicas[0].executed
        assert len(survivor.executed) == len(set(survivor.executed))

    def test_snapshot_served_by_peer_mid_catchup(self, env):
        """A replica that is itself still catching up serves a snapshot.

        m2 recovers from m0, and while its log suffix is still being
        backfilled, m1 crashes and recovers *from m2*. The partial
        snapshot is consistent (store matches its executed prefix), and
        the log's gap/backfill machinery delivers the rest to both.
        """
        net, directory, replicas = self._setup(env, seed=11)
        replies = self._pipelined_load(env, net, directory, count=25)
        holder = {}

        def chaos(env):
            yield env.timeout(10)
            replicas[2].crash()
            yield env.timeout(15)       # m2 misses a chunk of the log
            second = recover_replica(replicas[2], replicas[0])
            RecoveryHost(second)
            holder["m2"] = second
            # Immediately crash m1 and point its recovery at the replica
            # that is still mid-catch-up.
            replicas[1].crash()
            yield env.timeout(1)
            first = recover_replica(replicas[1], second)
            RecoveryHost(first)
            holder["m1"] = first

        env.process(chaos(env))
        env.run(until=60_000)
        assert len(replies) == 75
        for name in ("m1", "m2"):
            recovered = holder[name]
            assert recovered.store.snapshot() == \
                replicas[0].store.snapshot(), name
            assert recovered.executed == replicas[0].executed, name
            assert len(recovered.executed) == len(set(recovered.executed))
