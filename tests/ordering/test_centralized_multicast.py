"""Tests for the centralized (non-genuine) atomic multicast baseline."""

from repro.ordering import (CentralizedAtomicMulticast,
                            CentralizedMulticastClient, GlobalSequencer,
                            GroupDirectory, ProtocolNode)

from tests.conftest import make_network

GROUPS = {"g0": ["s00", "s01"], "g1": ["s10", "s11"]}


def build(env, seed=1, service_time_ms=0.0):
    network = make_network(env, seed=seed)
    directory = GroupDirectory(GROUPS)
    sequencer = GlobalSequencer(ProtocolNode(env, network, "gseq"),
                                directory, service_time_ms=service_time_ms)
    endpoints = {}
    for group in directory.groups():
        for member in directory.members(group):
            node = ProtocolNode(env, network, member)
            endpoints[member] = CentralizedAtomicMulticast(
                node, directory, group, "gseq")
    return network, directory, sequencer, endpoints


class TestDelivery:
    def test_single_group(self, env):
        _net, _dir, _seq, endpoints = build(env)
        uid = endpoints["s00"].multicast(["g0"], "hello")
        env.run(until=1_000)
        assert endpoints["s00"].delivery_log == [uid]
        assert endpoints["s01"].delivery_log == [uid]
        assert endpoints["s10"].delivery_log == []

    def test_position_is_the_group_sequence_number(self, env):
        _net, _dir, _seq, endpoints = build(env)
        positions = {member: [] for member in endpoints}
        for member, endpoint in endpoints.items():
            endpoint.on_deliver(lambda delivery, seen=positions[member]:
                                seen.append(delivery.position))
        endpoints["s00"].multicast(["g0"], "a")
        env.run(until=1_000)
        endpoints["s00"].multicast(["g0", "g1"], "b")
        env.run(until=2_000)
        assert positions["s00"] == positions["s01"] == [0, 1]
        assert positions["s10"] == positions["s11"] == [0]

    def test_multi_group_everywhere(self, env):
        _net, _dir, _seq, endpoints = build(env)
        uid = endpoints["s00"].multicast(["g0", "g1"], {"n": 1})
        env.run(until=1_000)
        for member in endpoints:
            assert endpoints[member].delivery_log == [uid]

    def test_agreement_and_prefix_order_random(self, env):
        import random
        _net, directory, _seq, endpoints = build(env, seed=7)
        rng = random.Random(0)
        for i in range(40):
            sender = rng.choice(list(endpoints))
            endpoints[sender].multicast(
                rng.choice([["g0"], ["g1"], ["g0", "g1"]]), i)
        env.run(until=10_000)
        assert endpoints["s00"].delivery_log == endpoints["s01"].delivery_log
        assert endpoints["s10"].delivery_log == endpoints["s11"].delivery_log
        a, b = endpoints["s00"].delivery_log, endpoints["s10"].delivery_log
        common = set(a) & set(b)
        assert [u for u in a if u in common] == \
            [u for u in b if u in common]

    def test_client_initiated(self, env):
        net, directory, _seq, endpoints = build(env)
        client = CentralizedMulticastClient(
            ProtocolNode(env, net, "client"), directory, "gseq")
        uid = client.multicast(["g1"], "x")
        env.run(until=1_000)
        assert uid in endpoints["s10"].delivery_log

    def test_duplicate_uid_sequenced_once(self, env):
        _net, _dir, sequencer, endpoints = build(env)
        endpoints["s00"].multicast(["g0"], "a", uid="fixed")
        endpoints["s01"].multicast(["g0"], "a", uid="fixed")
        env.run(until=1_000)
        assert endpoints["s00"].delivery_log == ["fixed"]
        assert sequencer.sequenced == 1


class TestBottleneck:
    def test_service_time_serialises_all_traffic(self, env):
        """With per-message CPU cost, total ordering time grows linearly in
        total message count — including single-group messages that the
        genuine protocol would never send through a shared node."""
        _net, _dir, sequencer, endpoints = build(env, service_time_ms=1.0)
        for i in range(20):
            endpoints["s00"].multicast(["g0"], i)   # g0-only traffic
            endpoints["s10"].multicast(["g1"], i)   # g1-only traffic
        env.run(until=10_000)
        # 40 messages x 1 ms service time: the last delivery cannot happen
        # before ~40 ms even though the two groups are independent.
        assert sequencer.sequenced == 40
        assert env.now >= 40.0
        assert len(endpoints["s00"].delivery_log) == 20
