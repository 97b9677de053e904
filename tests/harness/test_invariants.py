"""cluster_invariants on application state whose values are dicts."""

import pytest

from repro.apps.chirper import ChirperClient, ChirperStateMachine, user_key
from repro.harness import Cluster, ClusterConfig, cluster_invariants

USERS = 8


def run_chirper_posts(scheme: str) -> Cluster:
    """A small Chirper deployment, quiesced after every user posted once."""
    cluster = Cluster(ClusterConfig(
        scheme=scheme, num_partitions=2, seed=3,
        state_machine_factory=ChirperStateMachine))
    ring = {u: [(u - 1) % USERS, (u + 1) % USERS] for u in range(USERS)}
    cluster.preload({
        user_key(u): {"following": sorted(ring[u]),
                      "followers": sorted(ring[u]), "timeline": []}
        for u in range(USERS)})
    chirper = ChirperClient(cluster.new_client(),
                            social_view={u: set(ring[u]) for u in ring})

    def posts():
        for user in range(USERS):
            yield from chirper.post(user, f"post {user}")

    cluster.env.process(posts())
    cluster.run(until=5_000)
    assert chirper.ops_completed == USERS
    return cluster


@pytest.mark.parametrize("scheme", ["ssmr", "dssmr"])
def test_no_violations_on_chirper_state(scheme):
    cluster = run_chirper_posts(scheme)
    assert cluster_invariants(cluster) == []


def test_divergent_dict_values_are_reported():
    cluster = run_chirper_posts("ssmr")
    partition = cluster.partitions[0]
    victim = cluster.servers[cluster.directory.members(partition)[0]]
    key = next(iter(victim.store.keys()))
    victim.store.write(key, {"following": [], "followers": [],
                             "timeline": ["forged"]})
    assert cluster_invariants(cluster) == [
        f"{partition} replicas diverge on state"]
