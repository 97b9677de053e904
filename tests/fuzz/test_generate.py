"""Tests for seeded schedule generation.

Two properties carry the whole design: generation is a pure function of
``(seed, index)``, and over enough indices the generator exercises the
FULL fault vocabulary — every event kind, every scheme, and crash
victims of every role including sequencers and oracle replicas.
"""

from repro.canonical import canonical_json
from repro.fuzz.generate import (CHAOS_SCHEMES, GENERATOR_SCHEMES,
                                 HEAL_SCHEMES, chaos_schedule,
                                 generate_heal_schedule, generate_schedule,
                                 shape_nodes)
from repro.fuzz.schedule import normalize_schedule
from repro.harness.faults import VICTIM_ROLES, crash_modes


class TestShape:
    def test_smr_collapses_to_one_partition(self):
        shape = shape_nodes("smr")
        assert shape["partitions"] == ("p0",)
        assert shape["oracles"] == ()
        assert shape["all"] == ("p0s0", "p0s1")

    def test_dynamic_schemes_add_oracles(self):
        for scheme in ("dssmr", "dynastar"):
            shape = shape_nodes(scheme)
            assert shape["oracles"] == ("or0", "or1")
            assert shape["speakers"] == ("p0s0", "p1s0")
            assert shape["followers"] == ("p0s1", "p1s1")

    def test_ssmr_two_partitions_no_oracles(self):
        shape = shape_nodes("ssmr")
        assert shape["partitions"] == ("p0", "p1")
        assert shape["oracles"] == ()


class TestDeterminism:
    def test_pure_function_of_seed_and_index(self):
        for index in range(10):
            first = generate_schedule(3, index)
            second = generate_schedule(3, index)
            assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())

    def test_varies_with_seed_and_index(self):
        digests = {generate_schedule(0, i).digest() for i in range(12)}
        assert len(digests) == 12
        assert (generate_schedule(0, 0).digest()
                != generate_schedule(1, 0).digest())

    def test_generated_schedules_are_normal_forms(self):
        for index in range(20):
            schedule = generate_schedule(4, index)
            assert normalize_schedule(schedule) == schedule


class TestVocabularyCoverage:
    """Nothing is exempt: scan a seed's schedules and demand the full
    fault vocabulary shows up."""

    SCAN = [generate_schedule(0, i) for i in range(120)]

    def events(self):
        for schedule in self.SCAN:
            for event in schedule.events:
                yield schedule, event

    def test_all_schemes_drawn(self):
        assert ({s.scheme for s in self.SCAN} == set(GENERATOR_SCHEMES))

    def test_all_message_kinds_drawn(self):
        kinds = {e["kind"] for _s, e in self.events()}
        assert {"drop", "delay", "duplicate", "reorder", "partition",
                "partition_oneway"} <= kinds

    def test_crashes_cover_every_role_and_mode(self):
        crashed, modes = set(), set()
        for schedule, event in self.events():
            if event["kind"] != "crash":
                continue
            shape = shape_nodes(schedule.scheme)
            modes.add(event["mode"])
            for role in ("speakers", "followers", "oracles"):
                if event["node"] in shape[role]:
                    crashed.add(role)
        assert crashed == {"speakers", "followers", "oracles"}
        assert modes == {"restart", "blackout"}

    def test_disk_schedules_crash_every_role_with_amnesia(self):
        """One rule: on a durable deployment every replica restarts, so
        ``--disk`` draws amnesia where plain draws a blackout."""
        roles = set()
        for index in range(120):
            schedule = generate_schedule(0, index, disk=True)
            shape = shape_nodes(schedule.scheme)
            for event in schedule.events:
                if event["kind"] == "crash":
                    assert event["mode"] == "restart"
                    roles.update(role for role in ("speakers", "followers",
                                                   "oracles")
                                 if event["node"] in shape[role])
        assert roles == {"speakers", "followers", "oracles"}

    def test_reconfig_interleaves_with_faults(self):
        joins = [s for s, e in self.events() if e["kind"] == "join"]
        leaves = [s for s, e in self.events() if e["kind"] == "leave"]
        assert joins and leaves
        assert all(s.scheme in ("dssmr", "dynastar") for s in joins)
        # At least one schedule mixes a join with a crash — the
        # interleaving the issue demands.
        assert any(any(e["kind"] == "crash" for e in s.events)
                   for s in joins)

    def test_oneway_partitions_are_asymmetric(self):
        oneways = [e for _s, e in self.events()
                   if e["kind"] == "partition_oneway"]
        assert oneways
        for event in oneways:
            assert set(event["srcs"]).isdisjoint(event["dsts"])


class TestPinnedSchedules:
    """The chaos and heal generators draw exactly the schedules the
    campaigns ran before they became plain schedule generators: a digest
    covers every event, the workload shape and the run's budget."""

    # chaos seed 0, index 0..4, per scheme in CHAOS_SCHEMES order.
    CHAOS = [("f858acff65", "99cc0c6de0", "dac09eed4a"),
             ("a91a589234", "0505dec80b", "782026c0ad"),
             ("0d5c472d5d", "e50f41d5a3", "68e51eda70"),
             ("24f00b7bee", "76708d5501", "b886d2590e"),
             ("6375151150", "4d677c2d1f", "5546fae8fa")]
    # ``repro heal --smoke``: seed 0, index 0..1 x HEAL_SCHEMES.
    HEAL = ["e11639c3b8", "218c246668", "b3342c3ddf", "db3a1587fc"]

    def test_chaos_schedules_are_pinned(self):
        assert [tuple(chaos_schedule(0, index, scheme).digest()
                      for scheme in CHAOS_SCHEMES)
                for index in range(5)] == self.CHAOS

    def test_heal_schedules_are_pinned(self):
        assert [generate_heal_schedule(0, index, scheme).digest()
                for index in range(2)
                for scheme in HEAL_SCHEMES] == self.HEAL


class TestCrashModes:
    def test_amnesia_needs_a_disk_or_a_follower(self):
        assert crash_modes("follower", False) == ("restart", "blackout")
        assert crash_modes("speaker", False) == ("blackout",)
        assert crash_modes("oracle", False) == ("blackout",)
        for role in VICTIM_ROLES:
            assert crash_modes(role, True) == ("restart", "blackout")
