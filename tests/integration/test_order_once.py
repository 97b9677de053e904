"""A group orders a timestamp once, and never through the heal path when
nothing fails.

Each destination's speaker hears the other groups' timestamps as direct
``am-ts`` messages and orders one final entry. A timestamp that went
missing would still be covered, 40 ms later, by the heal's pull, so only
a fault-free run that counts the pulls and heals shows the direct path
carries every timestamp by itself.
"""

import pytest

from repro.harness.kvbed import build_kv_cluster, spawn_wave


@pytest.mark.parametrize("scheme", ["ssmr", "dssmr"])
def test_fault_free_run_finalises_every_message_without_a_heal(scheme):
    cluster = build_kv_cluster(scheme, 1, (scheme, "order-once"))
    wave = spawn_wave(cluster, 4, 40, f"{scheme}/order-once")
    cluster.run(until=20_000.0)
    assert wave.completed == wave.expected
    sent = cluster.network.sent_by_kind
    # Multi-group messages ran, and their timestamps went speaker to
    # speaker.
    assert sent.get("am-ts", 0) > 0
    assert sent.get("am-ts-pull", 0) == 0
    replicas = list(cluster.servers.values()) + cluster.oracles
    assert [r.amcast.heals for r in replicas] == [0] * len(replicas)
    assert [r.amcast._heard for r in replicas] == [{}] * len(replicas)
    for partition in cluster.partitions:
        speaker, *followers = cluster.directory.members(partition)
        for follower in followers:
            assert (cluster.servers[follower].executed
                    == cluster.servers[speaker].executed), follower
