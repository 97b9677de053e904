"""Each stateful component owns its state.

Every component a checkpoint carries
(:meth:`~repro.smr.executor.OrderedExecutor.components`) has one
``snapshot()`` and one ``restore(state)``, and names the attributes its
snapshot leaves out in ``TRANSIENT``. The contract, checked here for
every component of every replica role:

* every instance attribute is read by ``snapshot()`` or declared
  transient, and none is both, so a field added to a component and
  forgotten in its snapshot fails this test instead of a recovery;
* ``restore`` of a frozen snapshot into a fresh replica snapshots equal;
* at quiescence the members of a group have equal snapshots, apart from
  the fields :func:`group_images` names as per member.
"""

import copy

import pytest

from repro.harness.kvbed import build_kv_cluster, spawn_wave
from repro.ordering import PaxosLog
from repro.reconfig import canonical_bytes
from repro.reconfig.recovery import respawn_gated
from repro.smr import ExecutionConfig
from repro.store import DurabilityConfig
from repro.store.checkpoints import freeze, thaw

from tests.ssmr.test_server import build_wide, run_commands

COMPONENTS = ("store", "replies", "executor", "amcast", "exchange", "log")


def snapshot_reads(component) -> set:
    """The instance attributes ``component.snapshot()`` reads."""
    names, reads = set(vars(component)), set()
    cls = type(component)

    class Spy(cls):
        def __getattribute__(self, name):
            if name in names:
                reads.add(name)
            return super().__getattribute__(name)

    component.__class__ = Spy
    try:
        component.snapshot()
    finally:
        component.__class__ = cls
    return reads


def contract_breaches(component) -> list:
    """Attributes neither read by the snapshot nor declared transient,
    then those declared transient that the snapshot reads."""
    reads = snapshot_reads(component)
    transient = set(type(component).TRANSIENT)
    return (sorted(set(vars(component)) - reads - transient)
            + sorted(reads & transient))


def group_images(components: dict) -> dict:
    """Canonical image of each component snapshot without its
    per-member fields: a stored reply names the member that produced it
    (``Reply.sender``), and nothing else may differ within a group."""
    images = {}
    for name, snapshot in components.items():
        if name == "replies":
            snapshot = copy.deepcopy(snapshot)
            for _acked, replies in snapshot.values():
                for _seq, reply in replies.values():
                    reply.sender = ""
        images[name] = canonical_bytes(snapshot)
    return images


def snapshots(replica) -> dict:
    return {name: component.snapshot()
            for name, component in replica.components().items()}


def replicas(cluster) -> list:
    return [*cluster.servers.values(), *cluster.oracles]


def in_flight(cluster) -> bool:
    """Some replica has queued deliveries, some has multicast pendings
    and some has cached exchanges."""
    images = [snapshots(replica) for replica in replicas(cluster)]
    return all(any(select(image) for image in images) for select in (
        lambda image: image["executor"]["queued"],
        lambda image: image["amcast"]["pending"],
        lambda image: image["exchange"]["sent"]))


def mid_run(scheme, recover=None, **config):
    """A deployment stopped with commands in flight, after a peer
    transfer to ``recover`` if given."""
    cluster = build_kv_cluster(scheme, 1, ("components", scheme),
                               num_partitions=2, **config)
    spawn_wave(cluster, 8, 200, f"components/{scheme}", think=(0.0, 0.0))
    if recover is not None:
        cluster.servers[recover].crash()
        cluster.run(until=20.0)
        cluster.recover_server(recover)
        cluster.run(until=60.0)
        assert cluster.servers[recover].recovery.installed
    while not in_flight(cluster):
        cluster.run(until=cluster.env.now + 0.25)
        assert cluster.env.now < 1_000.0, "nothing in flight"
    return cluster


DEPLOYMENTS = {
    # An oracle, DS-SMR servers, and a replacement from a peer transfer.
    "dssmr-recovered": lambda: mid_run("dssmr", recover="p0s1"),
    # S-SMR servers with a WAL, a durable store and a worker pool.
    "ssmr-durable-parallel": lambda: mid_run(
        "ssmr", durability=DurabilityConfig(),
        parallel=ExecutionConfig(workers=2)),
}


@pytest.fixture(params=sorted(DEPLOYMENTS))
def deployment(request):
    return DEPLOYMENTS[request.param]()


@pytest.mark.parametrize("name", COMPONENTS)
class TestComponentContract:
    def test_every_attribute_is_state_or_transient(self, deployment, name):
        for replica in replicas(deployment):
            component = replica.components()[name]
            assert contract_breaches(component) == [], (
                replica.node.name, type(component).__name__)

    def test_an_added_attribute_breaks_the_contract(self, deployment,
                                                    name):
        component = deployment.servers["p0s0"].components()[name]
        component.added_field = 0
        assert contract_breaches(component) == ["added_field"]

    def test_restore_of_a_snapshot_round_trips(self, deployment, name):
        for replica in replicas(deployment):
            snapshot = replica.components()[name].snapshot()
            image = canonical_bytes(snapshot)
            state = thaw(freeze(snapshot))
            replica.crash()
            fresh = respawn_gated(replica).components()[name]
            fresh.restore(state)
            assert canonical_bytes(fresh.snapshot()) == image, \
                replica.node.name


def quiescent(scheme, recover=None):
    """Run a wave to its end and let every member settle."""
    cluster = build_kv_cluster(scheme, 2, ("components", "quiet"))
    wave = spawn_wave(cluster, 3, 40, f"components/quiet/{scheme}")
    if recover is not None:
        cluster.run(until=30.0)
        cluster.servers[recover].crash()
        cluster.run(until=60.0)
        cluster.recover_server(recover)
    cluster.run(until=20_000.0)
    assert wave.completed == wave.expected
    return cluster


class TestGroupsAgree:
    """No ``cluster_invariants`` check compares protocol state; the
    component snapshots do, for every group of a quiescent run."""

    @staticmethod
    def assert_groups_agree(cluster):
        groups = {}
        for replica in replicas(cluster):
            groups.setdefault(replica.group, []).append(replica)
        for group, members in groups.items():
            assert len(members) > 1, group
            first, *others = [group_images(snapshots(member))
                              for member in members]
            for member, images in zip(members[1:], others):
                for name in COMPONENTS:
                    assert images[name] == first[name], (
                        member.node.name, name)

    @pytest.mark.parametrize("scheme", ["smr", "ssmr", "dssmr",
                                        "dynastar"])
    def test_fault_free_run(self, scheme):
        self.assert_groups_agree(quiescent(scheme))

    def test_after_a_peer_transfer(self):
        cluster = quiescent("dssmr", recover="p1s1")
        assert cluster.servers["p1s1"].recovery.installed
        self.assert_groups_agree(cluster)

    def test_a_diverged_member_shows(self):
        cluster = quiescent("ssmr")
        cluster.servers["p0s1"].amcast._clock += 1
        with pytest.raises(AssertionError):
            self.assert_groups_agree(cluster)


def test_a_paxos_log_keeps_the_contract(env):
    """The other log kind, run through a multi-partition command."""
    _network, servers, client, command = build_wide(
        env, 2, log_factory=PaxosLog, speaker_only=False)
    results = []
    run_commands(env, client, [command], results)
    env.run(until=1_000)
    assert results[0].value == 1
    for server in servers.values():
        assert isinstance(server.log, PaxosLog)
        assert contract_breaches(server.log) == []
