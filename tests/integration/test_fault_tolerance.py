"""Fault tolerance: DS-SMR over Multi-Paxos survives replica crashes.

The DSN paper's model: each partition (and the oracle) is a replicated
group; the system stays live as long as every group keeps a majority. These
tests build a Paxos-backed deployment, crash replicas mid-run, and check
both liveness (commands keep completing) and safety (survivor replicas stay
identical, values correct).
"""

import pytest

from repro.core import DssmrClient, DssmrServer, ORACLE_GROUP, OracleReplica
from repro.ordering import GroupDirectory, PaxosLog
from repro.smr import (Command, CommandType, ExecutionModel,
                       KeyValueStateMachine, ReplyStatus)

from tests.conftest import make_network


class FtStack:
    """DS-SMR over PaxosLog, 3 replicas everywhere."""

    def __init__(self, env, seed=1):
        self.env = env
        self.network = make_network(env, seed=seed, high_ms=2.0)
        self.partitions = ("p0", "p1")
        groups = {p: [f"{p}s{j}" for j in range(3)] for p in self.partitions}
        groups[ORACLE_GROUP] = ["or0", "or1", "or2"]
        self.directory = GroupDirectory(groups)
        self.servers = {}
        for partition in self.partitions:
            for member in self.directory.members(partition):
                self.servers[member] = DssmrServer(
                    env, self.network, self.directory, partition, member,
                    KeyValueStateMachine(),
                    execution=ExecutionModel(base_ms=0.05),
                    log_factory=PaxosLog, speaker_only=False)
        self.oracles = [
            OracleReplica(env, self.network, self.directory, name,
                          self.partitions, log_factory=PaxosLog,
                          speaker_only=False)
            for name in self.directory.members(ORACLE_GROUP)]
        self._client_count = 0

    def client(self):
        name = f"c{self._client_count}"
        self._client_count += 1
        return DssmrClient(self.env, self.network, self.directory, name,
                           self.partitions, broadcast_submit=True)

    def preload(self, values, assignment):
        by_partition = {p: {} for p in self.partitions}
        for key, value in values.items():
            by_partition[assignment[key]][key] = value
        for partition in self.partitions:
            for member in self.directory.members(partition):
                self.servers[member].load_state(by_partition[partition])
        for oracle in self.oracles:
            oracle.load_state(assignment)


def incr(key):
    return Command(op="incr", args={"key": key}, variables=(key,),
                   writes=(key,))


@pytest.mark.slow
class TestCrashTolerance:
    def test_partition_replica_crash_preserves_liveness_and_safety(self, env):
        stack = FtStack(env, seed=31)
        stack.preload({"x": 0, "y": 0}, {"x": "p0", "y": "p1"})
        replies = []

        def workload(env):
            client = stack.client()
            for i in range(10):
                reply = yield from client.run_command(incr("x"))
                replies.append(reply)
                yield env.timeout(40)

        def crasher(env):
            yield env.timeout(150)
            stack.servers["p0s0"].crash()   # p0's initial Paxos leader

        env.process(workload(env))
        env.process(crasher(env))
        env.run(until=600_000)
        assert [r.status for r in replies] == [ReplyStatus.OK] * 10
        assert [r.value for r in replies] == list(range(1, 11))
        survivors = ["p0s1", "p0s2"]
        snapshots = [stack.servers[m].store.snapshot() for m in survivors]
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["x"] == 10

    def test_oracle_replica_crash(self, env):
        stack = FtStack(env, seed=33)
        stack.preload({"x": 0, "y": 0}, {"x": "p0", "y": "p1"})
        replies = []

        def workload(env):
            client = stack.client()
            # Multi-partition commands force oracle involvement (consults
            # and moves) throughout the crash.
            for i in range(6):
                reply = yield from client.run_command(
                    Command(op="sum", args={"keys": ["x", "y"]},
                            variables=("x", "y")))
                replies.append(reply)
                yield env.timeout(60)

        def crasher(env):
            yield env.timeout(130)
            stack.oracles[0].crash()   # initial oracle leader

        env.process(workload(env))
        env.process(crasher(env))
        env.run(until=600_000)
        assert [r.status for r in replies] == [ReplyStatus.OK] * 6
        assert all(r.value == 0 for r in replies)
        # Surviving oracle replicas agree on locations.
        assert stack.oracles[1].location == stack.oracles[2].location

    def test_commands_complete_under_message_loss(self, env):
        """5% uniform message loss: Paxos retransmission and client
        retries absorb it; every command completes correctly."""
        from repro.net import FailureInjector
        from repro.sim import SeedStream

        stack = FtStack(env, seed=37)
        stack.preload({"x": 0, "y": 0}, {"x": "p0", "y": "p1"})
        FailureInjector(env, stack.network,
                        SeedStream(99)).drop_fraction(0.05)
        replies = []

        def workload(env):
            client = stack.client()
            for i in range(8):
                reply = yield from client.run_command(incr("x"))
                replies.append(reply)
                yield env.timeout(30)

        env.process(workload(env))
        env.run(until=600_000)
        assert [r.status for r in replies] == [ReplyStatus.OK] * 8
        assert [r.value for r in replies] == list(range(1, 9))

    def test_create_survives_partition_follower_crash(self, env):
        stack = FtStack(env, seed=35)
        replies = []

        def workload(env):
            client = stack.client()
            for i in range(5):
                reply = yield from client.run_command(
                    Command(op="create", ctype=CommandType.CREATE,
                            variables=(f"k{i}",), args={"value": i}))
                replies.append(reply)
                yield env.timeout(50)

        def crasher(env):
            yield env.timeout(120)
            stack.servers["p1s2"].crash()   # a follower

        env.process(workload(env))
        env.process(crasher(env))
        env.run(until=600_000)
        assert all(r.status is ReplyStatus.OK for r in replies)
        # All five variables exist exactly once across partitions.
        seen = []
        for partition in stack.partitions:
            member = stack.directory.members(partition)[0]
            if stack.network.is_crashed(member):
                member = stack.directory.members(partition)[1]
            seen.extend(stack.servers[member].store.keys())
        assert sorted(seen) == [f"k{i}" for i in range(5)]
