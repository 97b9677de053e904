"""Tests for atomic multicast: the Section 2.4 properties."""

import random

import pytest

from repro.ordering import (GroupLog, MulticastClient, PaxosLog, ProtocolNode,
                            SequencerLog)

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


class TestDurableAnnouncement:
    """With a write-ahead log, the speaker announces its group's
    timestamp only once the propose is durable on its own disk, and the
    wait is one fsync that starts at once."""

    def test_timestamp_waits_for_the_propose_to_be_durable(self, env):
        import random

        from repro.store import DurabilityConfig, WriteAheadLog
        from repro.store.disk import SimulatedDisk, StoreStats

        network, _directory, endpoints = build_amcast_stack(
            env, {"g0": ["s00", "s01"], "g1": ["s10", "s11"]},
            latency=(0.1, 0.1))
        disk = SimulatedDisk(env, "s00", random.Random(1),
                             DurabilityConfig(), StoreStats())
        wal = WriteAheadLog(env, disk, disk.stats)
        endpoints["s00"].log.attach_wal(wal)
        durable_at, announced_at = [], []
        endpoints["s00"].log.on_decide(
            lambda seq, entry: wal.sync_barrier(seq).callbacks.append(
                lambda _event: durable_at.append(env.now))
            if entry["kind"] == "am-propose" else None)
        network.add_drop_rule(
            lambda message: announced_at.append(env.now)
            if message.kind == "am-ts"
            and message.payload["from_group"] == "g0" else None)
        delivered = tap_deliveries(endpoints)
        endpoints["s01"].multicast(["g0", "g1"], "payload", uid="m")
        env.run(until=100)
        assert delivered["s10"] == ["m"] and delivered["s00"] == ["m"]
        (durable,), (announced,) = durable_at, announced_at
        assert announced >= durable
        # One 0.1 ms hop decides the propose, one 0.3 ms fsync (plus its
        # bytes) makes it durable, and the announcement leaves then.
        assert announced < 0.5


class TestDeliveryPosition:
    """A delivery carries the log position whose apply released it: its
    propose's for a single-group message, its final entry's otherwise."""

    def test_position_is_the_releasing_entry(self, env):
        _network, _directory, endpoints = build_amcast_stack(
            env, {"g0": ["s00", "s01"], "g1": ["s10", "s11"]})
        decided = {member: {} for member in endpoints}
        positions = {member: {} for member in endpoints}
        for member, endpoint in endpoints.items():
            endpoint.log.on_decide(
                lambda seq, entry, seen=decided[member]:
                seen.setdefault(entry["uid"], seq))
            endpoint.on_deliver(
                lambda delivery, seen=positions[member]:
                seen.setdefault(delivery.uid, delivery.position))
        endpoints["s00"].multicast(["g0"], "one", uid="a")
        endpoints["s00"].multicast(["g0", "g1"], "two", uid="b")
        env.run(until=1_000)
        for member in ("s00", "s01"):
            assert positions[member] == {
                "a": decided[member]["prop:a"],
                "b": decided[member]["fin:b:g0"]}
        for member in ("s10", "s11"):
            assert positions[member] == {"b": decided[member]["fin:b:g1"]}


class TestTimestampOrderedOnce:
    """A group's timestamp goes speaker to speaker as one ``am-ts``
    message; each destination orders one ``am-final`` entry carrying the
    maximum, and applying it bumps the clock and releases delivery."""

    TWO = {"g0": ["s00", "s01"], "g1": ["s10", "s11"]}

    def test_final_is_ordered_right_after_a_propose_heard_late(self, env):
        network, _directory, endpoints = build_amcast_stack(env, self.TWO)
        delivered = tap_deliveries(endpoints)
        # The client's propose to g0 is lost: g1's timestamp reaches g0's
        # speaker first, and g1's heal re-proposes 40 ms later.
        network.add_drop_rule(
            lambda message: message.kind == "log/g0/submit"
            and message.src == "client")
        client = MulticastClient(ProtocolNode(env, network, "client"),
                                 endpoints["s00"].directory)
        client.multicast(["g0", "g1"], "payload", uid="m")
        env.run(until=20)
        assert endpoints["s00"]._heard == {"m": {"g1": 1}}
        assert delivered["s10"] == delivered["s00"] == []
        env.run(until=1_000)
        for member in ("s00", "s01"):
            log = endpoints[member].log.decided_entries
            assert [log[seq]["kind"] for seq in sorted(log)] == \
                ["am-propose", "am-final"]
        assert all(uids == ["m"] for uids in delivered.values())
        assert endpoints["s00"]._heard == {}

    def test_dropped_timestamp_is_recovered_by_the_heal_pull(self, env):
        network, _directory, endpoints = build_amcast_stack(env, self.TWO)
        delivered = tap_deliveries(endpoints)
        dropped = []

        def drop_first_timestamp_to_g0(message):
            if message.kind == "am-ts" and message.dst == "s00" \
                    and not dropped:
                dropped.append(message.payload)
                return True
            return False

        network.add_drop_rule(drop_first_timestamp_to_g0)
        endpoints["s01"].multicast(["g0", "g1"], "payload", uid="m")
        env.run(until=30)
        assert dropped and delivered["s00"] == [] and delivered["s10"] == ["m"]
        env.run(until=1_000)
        assert all(uids == ["m"] for uids in delivered.values())
        assert endpoints["s00"].ts_pulls == 1
        assert network.sent_by_kind["am-ts-pull"] == 1

    def test_dropped_follower_final_is_resubmitted(self, env):
        network, _directory, endpoints = build_amcast_stack(
            env, self.TWO, speaker_only=False)
        delivered = tap_deliveries(endpoints)
        finals = []

        def drop(message):
            # g0's speaker never hears g1 and no pull gets through, so
            # only its follower's final entry can finish the message; the
            # copies it submits on hearing g1's members are lost.
            if (message.kind == "am-ts" and message.dst == "s00"
                    or message.kind == "am-ts-pull"):
                return True
            if (message.kind == "log/g0/submit" and message.src == "s01"
                    and message.payload["kind"] == "am-final"):
                finals.append(env.now)
                return env.now < 30
            return False

        network.add_drop_rule(drop)
        endpoints["s10"].multicast(["g0", "g1"], "payload", uid="m")
        env.run(until=30)
        assert delivered["s00"] == delivered["s01"] == []
        assert finals and max(finals) < 30
        env.run(until=1_000)
        assert all(uids == ["m"] for uids in delivered.values())
        assert max(finals) >= endpoints["s01"].heal_interval_ms
        log = endpoints["s00"].log.decided_entries
        assert [log[seq]["kind"] for seq in sorted(log)] == \
            ["am-propose", "am-final"]

    @pytest.mark.parametrize("speaker_only", [True, False])
    def test_a_propose_after_a_final_gets_a_larger_timestamp(
            self, env, speaker_only):
        import random
        _net, _directory, endpoints = build_amcast_stack(
            env, GROUPS, seed=4, speaker_only=speaker_only)
        applied = {member: [] for member in endpoints}
        stamps = {member: {} for member in endpoints}
        for member, endpoint in endpoints.items():
            endpoint.log.on_decide(
                lambda seq, entry, log=applied[member]:
                log.append((seq, entry)))
            endpoint.on_deliver(
                lambda delivery, own=stamps[member]:
                own.__setitem__(delivery.uid, delivery.timestamp[0]))
        rng = random.Random(4)
        members = list(endpoints)
        choices = [["g0"], ["g1"], ["g0", "g1"], ["g1", "g2"],
                   ["g0", "g1", "g2"]]

        def traffic(env):
            for _ in range(80):
                yield env.timeout(rng.uniform(0, 0.8))
                endpoints[rng.choice(members)].multicast(
                    rng.choice(choices), "payload")

        env.process(traffic(env))
        env.run(until=60_000)
        finals = 0
        for member, endpoint in endpoints.items():
            highest_final = 0
            for _seq, entry in sorted(applied[member], key=lambda e: e[0]):
                if entry["kind"] == "am-final":
                    finals += 1
                    highest_final = max(highest_final, entry["ts"])
                    continue
                muid = entry["muid"]
                local = (endpoint._my_ts[muid] if len(entry["groups"]) > 1
                         else stamps[member][muid])
                assert local > highest_final, (member, muid)
            assert endpoint._heard == {}
        assert finals > 0

    def test_late_timestamp_for_a_final_message_is_dropped(self, env):
        network, _directory, endpoints = build_amcast_stack(
            env, GROUPS, latency=(0.1, 0.1))
        delivered = tap_deliveries(endpoints)
        # g2's timestamp for "first" is late, so "first" (g0 timestamp 1)
        # holds up "second" (final timestamp 2) at g0.
        network.add_drop_rule(
            lambda message: message.kind == "am-ts" and message.src == "s20"
            and env.now < 30)
        endpoints["s01"].multicast(["g0", "g2"], "payload", uid="first")
        endpoints["s01"].multicast(["g0", "g1"], "payload", uid="second")
        env.run(until=20)
        speaker = endpoints["s00"]
        assert speaker._pending["second"].final_ts == 2
        assert delivered["s00"] == [] and delivered["s10"] == ["second"]
        # g1's speaker repeats its timestamp for the final message.
        endpoints["s10"]._send_ts(["g0"], "second",
                                  endpoints["s10"]._my_ts["second"])
        env.run(until=25)
        assert "second" not in speaker._heard
        env.run(until=1_000)
        assert delivered["s00"] == ["first", "second"]
        # And once it is delivered.
        endpoints["s10"]._send_ts(["g0"], "second", 1)
        env.run(until=1_100)
        assert speaker._heard == {}


def report_delivered_keys(endpoints):
    """Each member reports its newest delivery as its restore key (a bare
    endpoint executes nothing, so a delivery settles at once); returns
    {member: {uid: destination groups}} of what it delivered."""
    delivered = {}
    for member, endpoint in endpoints.items():
        newest, groups = {}, delivered.setdefault(member, {})

        def record(delivery, newest=newest, groups=groups):
            newest["key"] = delivery.timestamp
            groups[delivery.uid] = delivery.groups

        endpoint.on_deliver(record)
        endpoint.log.report_restore_key(
            lambda newest=newest: newest.get("key"))
    return delivered


def multi_group_traffic(env, endpoints, count, seed=5):
    rng = random.Random(seed)
    choices = [["g0", "g1"], ["g1", "g2"], ["g0", "g2"], ["g0", "g1", "g2"]]
    members = sorted(endpoints)

    def traffic(env):
        for index in range(count):
            yield env.timeout(rng.uniform(0, 0.5))
            endpoints[rng.choice(members)].multicast(rng.choice(choices),
                                                     index)

    env.process(traffic(env))


class TestDeliveryFloors:
    """A member keeps its group's timestamp for a message until every
    other destination's delivery floor is past the message's key."""

    @pytest.fixture(autouse=True)
    def frequent_reports(self, monkeypatch):
        monkeypatch.setattr(GroupLog, "STABLE_EVERY", 8)

    def test_own_timestamp_goes_once_every_destination_is_past(self, env):
        _net, directory, endpoints = build_amcast_stack(env, GROUPS)
        delivered = report_delivered_keys(endpoints)
        multi_group_traffic(env, endpoints, 240)
        env.run(until=60_000)
        for group in directory.groups():
            first, second = (endpoints[member]
                             for member in directory.members(group))
            # Learned through the group's log: the same on every member.
            assert first.floors == second.floors
            assert set(first.floors) == set(directory.groups()) - {group}
        for member, endpoint in endpoints.items():
            group = endpoint.group
            dropped = [uid for uid, groups in delivered[member].items()
                       if uid not in endpoint._my_ts]
            assert len(dropped) > 3 * len(endpoint._my_ts) > 0, member
            for uid in dropped:
                # Every member of every other destination delivered it.
                for other in delivered[member][uid]:
                    if other != group:
                        assert all(uid in delivered[peer] for peer
                                   in directory.members(other)), (member, uid)

    def test_final_entries_carry_the_floors_heard(self, env):
        _net, directory, endpoints = build_amcast_stack(env, GROUPS)
        report_delivered_keys(endpoints)
        carried = []
        endpoints["s11"].log.on_decide(
            lambda seq, entry: carried.append(entry.get("floors")))
        multi_group_traffic(env, endpoints, 120)
        env.run(until=60_000)
        floors = [entry for entry in carried if entry]
        assert floors and set().union(*floors) == {"g0", "g2"}
        # Only floors the group has not ordered yet: each one rises.
        seen = {}
        for entry in floors:
            for group, floor in entry.items():
                assert floor > seen.get(group, (0, "")), group
                seen[group] = floor
        assert seen == endpoints["s11"].floors

    def test_a_member_without_a_key_holds_the_floor(self, env):
        """A replacement still installing reports no restore key: its
        group's floor neither rises nor falls until it reports one."""
        _net, directory, endpoints = build_amcast_stack(env, GROUPS)
        report_delivered_keys(endpoints)
        multi_group_traffic(env, endpoints, 120)
        env.run(until=60_000)
        sequencer = endpoints["s10"].log
        held = sequencer.key_floor
        assert held is not None
        reporter = endpoints["s11"].log._restore_key
        endpoints["s11"].log.report_restore_key(lambda: None)
        endpoints["s11"].log._report_stable()
        multi_group_traffic(env, endpoints, 120, seed=6)
        env.run(until=120_000)
        assert sequencer.key_floor == held
        endpoints["s11"].log.report_restore_key(reporter)
        multi_group_traffic(env, endpoints, 120, seed=7)
        env.run(until=180_000)
        assert sequencer.key_floor > held

    def test_paxos_groups_keep_every_timestamp(self, env):
        """PaxosLog sends no reports, so no floor is ever set."""
        _net, directory, endpoints = build_amcast_stack(
            env, GROUPS, log_cls=PaxosLog, speaker_only=False)
        delivered = report_delivered_keys(endpoints)
        multi_group_traffic(env, endpoints, 60)
        env.run(until=60_000)
        for member, endpoint in endpoints.items():
            assert endpoint.floors == {}
            assert endpoint.log.key_floor is None
            assert set(endpoint._my_ts) == set(delivered[member]), member
