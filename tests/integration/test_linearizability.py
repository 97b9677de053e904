"""Linearizability of every scheme, checked with the Wing–Gong checker.

Concurrent clients run randomized KV workloads against full deployments of
classic SMR, S-SMR and DS-SMR; the recorded invocation/response history must
admit a legal sequential witness — the paper's correctness criterion.
"""

import random

import pytest

from repro.checkers import History, KvSequentialSpec, check_linearizable
from repro.ordering import GroupDirectory
from repro.smr import (Command, CommandType, ExecutionModel,
                       KeyValueStateMachine, ReplyStatus)
from repro.ssmr import SsmrClient, SsmrServer, StaticOracle, StaticPartitionMap

from tests.conftest import make_network
from tests.core.conftest import DssmrStack

KEYS = ("k0", "k1", "k2", "k3")
INITIAL = {key: 0 for key in KEYS}


def random_command(rng):
    kind = rng.random()
    if kind < 0.35:
        key = rng.choice(KEYS)
        return Command(op="get", args={"key": key}, variables=(key,))
    if kind < 0.6:
        key = rng.choice(KEYS)
        return Command(op="incr", args={"key": key}, variables=(key,),
                       writes=(key,))
    if kind < 0.8:
        a, b = rng.sample(KEYS, 2)
        return Command(op="swap", args={"a": a, "b": b}, variables=(a, b),
                       writes=(a, b))
    keys = rng.sample(KEYS, 2)
    return Command(op="sum", args={"keys": keys}, variables=tuple(keys))


def record_workload(env, clients, history, ops_per_client, seed):
    """Spawn client processes that record a history."""
    def loop(client, index):
        rng = random.Random(f"{seed}/{index}")
        for _ in range(ops_per_client):
            command = random_command(rng)
            invoked = env.now
            reply = yield from client.run_command(command)
            result = reply.value if reply.status is not ReplyStatus.NOK \
                else str(reply.value)
            history.record(client.name, command.op, command.args, result,
                           invoked, env.now)
            yield env.timeout(rng.uniform(0, 0.5))

    for index, client in enumerate(clients):
        env.process(loop(client, index))


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestSchemesAreLinearizable:
    OPS = 7
    CLIENTS = 3

    def test_classic_smr(self, env, seed):
        network = make_network(env, seed=seed)
        directory = GroupDirectory({"smr": ["r0", "r1", "r2"]})
        replicas = [SsmrServer(env, network, directory, "smr", f"r{i}",
                               KeyValueStateMachine(),
                               execution=ExecutionModel(base_ms=0.05))
                    for i in range(3)]
        for replica in replicas:
            replica.load_state(dict(INITIAL))
        oracle = StaticOracle(StaticPartitionMap(["smr"]))
        clients = [SsmrClient(env, network, directory, f"c{i}", oracle)
                   for i in range(self.CLIENTS)]
        history = History()
        record_workload(env, clients, history, self.OPS, seed)
        env.run(until=120_000)
        assert len(history) == self.CLIENTS * self.OPS
        assert check_linearizable(history, KvSequentialSpec(INITIAL))

    def test_ssmr(self, env, seed):
        network = make_network(env, seed=seed)
        directory = GroupDirectory({"p0": ["p0s0", "p0s1"],
                                    "p1": ["p1s0", "p1s1"]})
        assignment = {"k0": 0, "k1": 1, "k2": 0, "k3": 1}
        pmap = StaticPartitionMap(["p0", "p1"], assignment=assignment)
        for partition in ("p0", "p1"):
            contents = {k: INITIAL[k]
                        for k in pmap.variables_in(partition, KEYS)}
            for member in directory.members(partition):
                server = SsmrServer(env, network, directory, partition,
                                    member, KeyValueStateMachine(),
                                    execution=ExecutionModel(base_ms=0.05))
                server.load_state(contents)
        clients = [SsmrClient(env, network, directory, f"c{i}",
                              StaticOracle(pmap))
                   for i in range(self.CLIENTS)]
        history = History()
        record_workload(env, clients, history, self.OPS, seed)
        env.run(until=120_000)
        assert len(history) == self.CLIENTS * self.OPS
        assert check_linearizable(history, KvSequentialSpec(INITIAL))

    def test_dssmr(self, env, seed):
        stack = DssmrStack(env, seed=seed)
        stack.preload(dict(INITIAL),
                      {"k0": "p0", "k1": "p1", "k2": "p0", "k3": "p1"})
        clients = [stack.client() for _ in range(self.CLIENTS)]
        history = History()
        record_workload(env, clients, history, self.OPS, seed)
        stack.run(until=240_000)
        assert len(history) == self.CLIENTS * self.OPS
        assert check_linearizable(history, KvSequentialSpec(INITIAL))

    def test_dynastar(self, env, seed):
        from repro.dynastar import GraphTargetPolicy
        stack = DssmrStack(
            env, seed=seed,
            policy_factory=lambda: GraphTargetPolicy(
                ("p0", "p1"), repartition_interval=10),
            oracle_issues_moves=True)
        stack.preload(dict(INITIAL),
                      {"k0": "p0", "k1": "p1", "k2": "p0", "k3": "p1"})
        clients = [stack.client() for _ in range(self.CLIENTS)]
        history = History()
        record_workload(env, clients, history, self.OPS, seed)
        stack.run(until=240_000)
        assert len(history) == self.CLIENTS * self.OPS
        assert check_linearizable(history, KvSequentialSpec(INITIAL))


class TestDynamicVariablesLinearizable:
    def test_concurrent_create_delete_access(self, env):
        """Creates/deletes racing accesses through the oracle still yield a
        linearizable history."""
        stack = DssmrStack(env, seed=42)
        history = History()

        def lifecycle(env, tag, key):
            client = stack.client()
            for round_index in range(3):
                invoked = env.now
                reply = yield from client.run_command(
                    Command(op="create", ctype=CommandType.CREATE,
                            variables=(key,), args={"value": 0, "key": key}))
                result = reply.value if reply.status is ReplyStatus.OK \
                    else str(reply.value)
                history.record(client.name, "create",
                               {"key": key, "value": 0}, result,
                               invoked, env.now)
                invoked = env.now
                reply = yield from client.run_command(
                    Command(op="incr", args={"key": key}, variables=(key,)))
                result = reply.value if reply.status is ReplyStatus.OK \
                    else str(reply.value)
                history.record(client.name, "incr", {"key": key}, result,
                               invoked, env.now)
                invoked = env.now
                reply = yield from client.run_command(
                    Command(op="delete", ctype=CommandType.DELETE,
                            variables=(key,), args={"key": key}))
                result = reply.value if reply.status is ReplyStatus.OK \
                    else str(reply.value)
                history.record(client.name, "delete", {"key": key}, result,
                               invoked, env.now)

        env.process(lifecycle(env, "a", "shared"))
        env.process(lifecycle(env, "b", "shared"))
        stack.run(until=240_000)
        assert len(history) == 18
        assert check_linearizable(history, KvSequentialSpec())
