"""Shared test fixtures and builders."""

from __future__ import annotations

import pytest

from repro.net import Network, UniformLatency
from repro.ordering import (AtomicMulticast, GroupDirectory, PaxosLog,
                            ProtocolNode, SequencerLog)
from repro.sim import Environment, SeedStream


@pytest.fixture
def env() -> Environment:
    return Environment()


def make_network(env: Environment, seed: int = 1,
                 low_ms: float = 0.05, high_ms: float = 1.0,
                 tracer=None) -> Network:
    """A network with uniformly random latency (message reordering),
    carrying ``tracer`` to every node built on it."""
    return Network(env, SeedStream(seed), UniformLatency(low_ms, high_ms),
                   tracer=tracer)


def build_amcast_stack(env: Environment, groups: dict, seed: int = 1,
                       log_cls=SequencerLog, speaker_only: bool = True,
                       latency=(0.05, 1.0)):
    """Full ordering stack: network + directory + one AtomicMulticast per
    member. Returns (network, directory, {member: AtomicMulticast})."""
    network = make_network(env, seed=seed, low_ms=latency[0],
                           high_ms=latency[1])
    directory = GroupDirectory(groups)
    endpoints = {}
    for group in directory.groups():
        for member in directory.members(group):
            node = ProtocolNode(env, network, member)
            log = log_cls(node, directory, group)
            endpoints[member] = AtomicMulticast(node, directory, log,
                                                speaker_only=speaker_only)
    return network, directory, endpoints


def tap_deliveries(endpoints: dict) -> dict:
    """{member: [uid, ...]}: each endpoint's delivery order, recorded
    through ``on_deliver`` as the run goes."""
    delivered = {}
    for member, endpoint in endpoints.items():
        delivered[member] = []
        endpoint.on_deliver(
            lambda delivery, uids=delivered[member]: uids.append(delivery.uid))
    return delivered


def drain(env: Environment, until: float = 60_000.0) -> None:
    """Run the simulation until quiescent or the deadline."""
    env.run(until=until)
