"""A group listens once, and never through the pull path when nothing fails.

On a speaker-only stack a follower hears every exchange from its own
speaker's relayed bundle. A relay that went missing would still be
covered, 60 ms later, by the follower's pull, so only a fault-free run
that counts the pulls shows the relay carries every exchange by itself.
"""

import pytest

from repro.harness.kvbed import build_kv_cluster, spawn_wave


def run_fault_free(scheme):
    cluster = build_kv_cluster(scheme, 1, (scheme, "listen-once"))
    bundles = []   # (group, follower) of every relayed bundle

    def tap(message):
        group = cluster.directory.group_of(message.src)
        if (message.kind == "rmcast"
                and cluster.directory.group_of(message.dst) == group):
            bundles.append((group, message.dst))

    cluster.network.add_drop_rule(tap)
    wave = spawn_wave(cluster, 4, 40, f"{scheme}/listen-once")
    cluster.run(until=20_000.0)
    assert wave.completed == wave.expected
    return cluster, bundles


@pytest.mark.parametrize("scheme", ["ssmr", "dssmr"])
def test_fault_free_run_relays_every_exchange_without_a_pull(scheme):
    cluster, bundles = run_fault_free(scheme)
    replicas = list(cluster.servers.values()) + cluster.oracles
    assert [r.exchange.pulls_sent for r in replicas] == [0] * len(replicas)
    # Multi-partition traffic ran, and its exchanges reached the
    # followers through their speakers.
    if scheme == "ssmr":
        assert sum(s.multi_partition_count
                   for s in cluster.servers.values()) > 0
    else:
        assert sum(s.moves_in.total for s in cluster.servers.values()) > 0
    assert {group for group, _ in bundles} == set(cluster.partitions)
    for partition in cluster.partitions:
        speaker, *followers = cluster.directory.members(partition)
        for follower in followers:
            assert (cluster.servers[follower].executed
                    == cluster.servers[speaker].executed), follower
