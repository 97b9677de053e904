"""Builders for DS-SMR deployments used across the core tests."""

from __future__ import annotations

import pytest

from repro.core import DssmrClient, DssmrServer, ORACLE_GROUP, OracleReplica
from repro.ordering import GroupDirectory
from repro.smr import Command, CommandType, ExecutionModel, KeyValueStateMachine

from tests.conftest import make_network


class DssmrStack:
    """A small DS-SMR deployment handle for tests."""

    def __init__(self, env, seed=1, partitions=("p0", "p1"),
                 replicas=2, oracle_replicas=2, policy_factory=None,
                 oracle_issues_moves=False, max_retries=3, use_cache=True):
        self.env = env
        self.partitions = tuple(partitions)
        self.network = make_network(env, seed=seed)
        groups = {p: [f"{p}s{j}" for j in range(replicas)]
                  for p in self.partitions}
        groups[ORACLE_GROUP] = [f"or{j}" for j in range(oracle_replicas)]
        self.directory = GroupDirectory(groups)
        self.servers = {}
        for partition in self.partitions:
            for member in self.directory.members(partition):
                self.servers[member] = DssmrServer(
                    env, self.network, self.directory, partition, member,
                    KeyValueStateMachine(),
                    execution=ExecutionModel(base_ms=0.05))
        self.oracles = [
            OracleReplica(env, self.network, self.directory, name,
                          self.partitions,
                          policy=policy_factory() if policy_factory else None,
                          oracle_issues_moves=oracle_issues_moves)
            for name in self.directory.members(ORACLE_GROUP)]
        self._client_count = 0
        self.max_retries = max_retries
        self.use_cache = use_cache

    def client(self) -> DssmrClient:
        name = f"c{self._client_count}"
        self._client_count += 1
        return DssmrClient(self.env, self.network, self.directory, name,
                           self.partitions, max_retries=self.max_retries,
                           use_cache=self.use_cache)

    def preload(self, values: dict, assignment: dict) -> None:
        """values: key->value; assignment: key->partition name."""
        by_partition = {p: {} for p in self.partitions}
        for key, value in values.items():
            by_partition[assignment[key]][key] = value
        for partition in self.partitions:
            for member in self.directory.members(partition):
                self.servers[member].load_state(by_partition[partition])
        for oracle in self.oracles:
            oracle.load_state(assignment)

    def run(self, until=30_000):
        self.env.run(until=until)

    def stores_consistent(self) -> bool:
        """Replicas of each partition hold identical state."""
        for partition in self.partitions:
            members = self.directory.members(partition)
            reference = self.servers[members[0]].store.snapshot()
            for member in members[1:]:
                if self.servers[member].store.snapshot() != reference:
                    return False
        return True

    def var_locations(self) -> dict:
        """Where each variable actually lives (from partition stores)."""
        locations = {}
        for partition in self.partitions:
            member = self.directory.members(partition)[0]
            for key in self.servers[member].store.keys():
                locations[key] = partition
        return locations


@pytest.fixture
def stack(env):
    return DssmrStack(env)


def run_script(stack, script):
    """Run a generator-based client script; returns collected replies."""
    replies = []

    def proc(env):
        client = stack.client()
        for command in script:
            reply = yield from client.run_command(command)
            replies.append(reply)

    stack.env.process(proc(stack.env))
    stack.run()
    return replies


def create(key, value=None):
    return Command(op="create", ctype=CommandType.CREATE, variables=(key,),
                   args={"value": value})


def delete(key):
    return Command(op="delete", ctype=CommandType.DELETE, variables=(key,))


def get(key):
    return Command(op="get", args={"key": key}, variables=(key,))


def put(key, value):
    return Command(op="put", args={"key": key, "value": value},
                   variables=(key,), writes=(key,))


def swap(a, b):
    return Command(op="swap", args={"a": a, "b": b}, variables=(a, b),
                   writes=(a, b))


def ksum(*keys):
    return Command(op="sum", args={"keys": list(keys)}, variables=keys)
