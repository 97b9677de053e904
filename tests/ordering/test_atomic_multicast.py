"""Tests for atomic multicast: the Section 2.4 properties."""

import pytest

from repro.ordering import MulticastClient, PaxosLog, ProtocolNode, SequencerLog

from tests.conftest import build_amcast_stack, tap_deliveries


GROUPS = {"g0": ["s00", "s01"], "g1": ["s10", "s11"], "g2": ["s20", "s21"]}


def check_agreement(directory, delivered):
    """All members of each group deliver the same sequence."""
    for group in directory.groups():
        members = directory.members(group)
        reference = delivered[members[0]]
        for member in members[1:]:
            assert delivered[member] == reference, \
                f"group {group} members disagree"


def check_prefix_order(directory, delivered):
    """Any two groups deliver their common messages in the same order."""
    groups = directory.groups()
    for i, ga in enumerate(groups):
        for gb in groups[i + 1:]:
            a = delivered[directory.members(ga)[0]]
            b = delivered[directory.members(gb)[0]]
            common = set(a) & set(b)
            assert [u for u in a if u in common] == \
                [u for u in b if u in common], f"{ga} vs {gb}"


class TestBasicDelivery:
    def test_single_group_is_atomic_broadcast(self, env):
        _net, directory, endpoints = build_amcast_stack(env, GROUPS)
        delivered = tap_deliveries(endpoints)
        for i in range(5):
            endpoints["s00"].multicast(["g0"], i)
        env.run(until=10_000)
        log = delivered["s00"]
        assert len(log) == 5
        check_agreement(directory, delivered)

    def test_multi_group_delivers_at_all_destinations(self, env):
        _net, directory, endpoints = build_amcast_stack(env, GROUPS)
        delivered = tap_deliveries(endpoints)
        uid = endpoints["s00"].multicast(["g0", "g2"], "cross")
        env.run(until=10_000)
        assert uid in delivered["s00"]
        assert uid in delivered["s20"]
        assert uid not in delivered["s10"]

    def test_integrity_no_duplicates(self, env):
        _net, directory, endpoints = build_amcast_stack(env, GROUPS)
        delivered = tap_deliveries(endpoints)
        uids = [endpoints["s00"].multicast(["g0", "g1"], i)
                for i in range(10)]
        env.run(until=20_000)
        log = delivered["s10"]
        assert len(log) == len(set(log)) == 10
        assert set(log) == set(uids)

    def test_payload_and_origin_preserved(self, env):
        _net, _directory, endpoints = build_amcast_stack(env, GROUPS)
        deliveries = []
        endpoints["s10"].on_deliver(deliveries.append)
        endpoints["s00"].multicast(["g1"], {"n": 1}, size=512)
        env.run(until=10_000)
        assert deliveries[0].payload == {"n": 1}
        assert deliveries[0].origin == "s00"

    def test_empty_group_set_rejected(self, env):
        _net, _directory, endpoints = build_amcast_stack(env, GROUPS)
        with pytest.raises(ValueError):
            endpoints["s00"].multicast([], "x")


class TestOrderProperties:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_agreement_and_prefix_order_random_traffic(self, env, seed):
        import random
        _net, directory, endpoints = build_amcast_stack(env, GROUPS,
                                                        seed=seed)
        delivered = tap_deliveries(endpoints)
        rng = random.Random(seed)
        members = list(endpoints)
        group_choices = [["g0"], ["g1"], ["g2"], ["g0", "g1"],
                         ["g1", "g2"], ["g0", "g2"], ["g0", "g1", "g2"]]

        def traffic(env):
            for _ in range(60):
                yield env.timeout(rng.uniform(0, 1.5))
                sender = rng.choice(members)
                endpoints[sender].multicast(rng.choice(group_choices),
                                            "payload")

        env.process(traffic(env))
        env.run(until=60_000)
        check_agreement(directory, delivered)
        check_prefix_order(directory, delivered)
        # Everything sent must have been delivered somewhere.
        total = sum(len(delivered[directory.members(g)[0]])
                    for g in directory.groups())
        assert total >= 60

    def test_timestamps_strictly_increase_per_member(self, env):
        _net, _directory, endpoints = build_amcast_stack(env, GROUPS)
        deliveries = []
        endpoints["s00"].on_deliver(deliveries.append)
        for i in range(8):
            endpoints["s01"].multicast(["g0", "g1"], i)
        env.run(until=20_000)
        keys = [d.timestamp for d in deliveries]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestClientInitiated:
    def test_multicast_client_non_member(self, env):
        net, directory, endpoints = build_amcast_stack(env, GROUPS)
        delivered = tap_deliveries(endpoints)
        client_node = ProtocolNode(env, net, "client")
        client = MulticastClient(client_node, directory)
        uid = client.multicast(["g0", "g1"], "from outside")
        env.run(until=20_000)
        assert uid in delivered["s00"]
        assert uid in delivered["s10"]

    def test_client_empty_groups_rejected(self, env):
        net, directory, _endpoints = build_amcast_stack(env, GROUPS)
        client = MulticastClient(ProtocolNode(env, net, "c"), directory)
        with pytest.raises(ValueError):
            client.multicast([], "x")


class TestOverPaxos:
    # Crash tolerance needs 3-member groups (majority survives one crash).
    FT_GROUPS = {"g0": ["s00", "s01", "s02"], "g1": ["s10", "s11", "s12"]}

    def test_multi_group_with_leader_crash(self, env):
        _net, directory, endpoints = build_amcast_stack(
            env, self.FT_GROUPS, log_cls=PaxosLog, speaker_only=False,
            seed=23)
        delivered = tap_deliveries(endpoints)
        nodes = {m: endpoints[m].node for m in endpoints}
        sent = []

        def traffic(env):
            import random
            rng = random.Random(0)
            for i in range(15):
                yield env.timeout(rng.uniform(5, 25))
                groups = rng.choice([["g0", "g1"], ["g1"], ["g0"]])
                sent.append((endpoints["s00"].multicast(groups, i),
                             tuple(groups)))

        def crasher(env):
            yield env.timeout(60)
            nodes["s10"].crash()  # g1's initial Paxos leader

        env.process(traffic(env))
        env.process(crasher(env))
        env.run(until=240_000)
        # Surviving members of g1 agree with each other.
        assert delivered["s11"] == delivered["s12"]
        # Validity: every message was delivered at its destination groups.
        for uid, groups in sent:
            if "g0" in groups:
                assert uid in delivered["s00"]
            if "g1" in groups:
                assert uid in delivered["s11"]
        # Prefix order across groups among survivors.
        a = delivered["s00"]
        b = delivered["s11"]
        common = set(a) & set(b)
        assert [u for u in a if u in common] == [u for u in b if u in common]
