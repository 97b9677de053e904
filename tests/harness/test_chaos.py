"""Tests for the chaos campaign: ``chaos_schedule`` + the shared runner.

The campaign's value rests on three properties: it is deterministic (same
seed, same report — byte for byte), it passes on the real protocols, and
it CAN fail — the sentinel run disables server-side dedup and the checkers
must catch the resulting duplicate execution.
"""

import json
from dataclasses import replace

import pytest

from repro.fuzz.campaign import run_campaign
from repro.fuzz.generate import (CHAOS_DEADLINE_MS, CHAOS_SCHEMES,
                                 chaos_schedule, shape_nodes)
from repro.fuzz.runner import run_schedule
from repro.fuzz.schedule import normalize_schedule
from repro.harness.faults import VICTIM_ROLES
from repro.harness.kvbed import KEYS


def drop(fraction):
    return {"kind": "drop", "at": 0.0, "end": 300.0, "fraction": fraction}


def crash_event(scheme, role, at=60.0, duration=80.0):
    """A crash of ``role``'s victim on partition index 1, as the chaos
    generator resolves it (the oracle role falls back to speaker)."""
    shape = shape_nodes(scheme)
    if role == "follower":
        node, mode = shape["followers"][-1], "restart"
    else:
        pool = (shape["oracles"] if role == "oracle" and shape["oracles"]
                else shape["speakers"])
        node, mode = pool[-1], "blackout"
    return {"kind": "crash", "at": at, "node": node, "mode": mode,
            "duration": duration}


def crash_role(scheme, event):
    shape = shape_nodes(scheme)
    if event["mode"] == "restart":
        return "follower"
    return "oracle" if event["node"] in shape["oracles"] else "speaker"


def events_of(schedule):
    return sorted(json.dumps(event, sort_keys=True)
                  for event in schedule.events)


def chaos_campaign(num_scenarios, seed, **kwargs):
    return run_campaign(seed, [chaos_schedule(seed, index, scheme)
                               for index in range(num_scenarios)
                               for scheme in CHAOS_SCHEMES], **kwargs)


class TestScenarioGenerator:
    def test_deterministic(self):
        for scheme in CHAOS_SCHEMES:
            assert chaos_schedule(9, 4, scheme) == chaos_schedule(9, 4,
                                                                  scheme)

    def test_varies_with_index_and_seed(self):
        digests = {chaos_schedule(0, i, "dssmr").digest() for i in range(8)}
        assert len(digests) == 8
        assert chaos_schedule(0, 0, "smr") != chaos_schedule(1, 0, "smr")

    def test_bounds(self):
        for index in range(20):
            for scheme in CHAOS_SCHEMES:
                schedule = chaos_schedule(3, index, scheme)
                first = schedule.events[0]
                assert first["kind"] == "drop"
                assert 0.005 <= first["fraction"] <= 0.025
                for event in schedule.events:
                    if event["kind"] == "partition":
                        assert (0 < event["at"] < event["end"]
                                <= schedule.horizon_ms)
                    if event["kind"] == "crash":
                        recover = event["at"] + event["duration"]
                        assert (0 < event["at"] < recover
                                < schedule.horizon_ms)
                        assert event["node"] in shape_nodes(scheme)["all"]

    def test_generator_draws_every_crash_role(self):
        roles = {crash_role("dssmr", event)
                 for index in range(60)
                 for event in chaos_schedule(0, index, "dssmr").events
                 if event["kind"] == "crash"}
        assert roles == set(VICTIM_ROLES)

    def test_describe_lists_active_faults(self):
        schedule = replace(chaos_schedule(0, 0, "ssmr"), events=(
            drop(0.01), crash_event("ssmr", "follower", 50.0, 70.0)))
        text = schedule.describe()
        assert "drop(0.010[0,300))" in text
        assert "restart(p1s1@50+70)" in text
        assert "duplicate" not in text


class TestCampaign:
    def test_campaign_is_deterministic_and_clean(self):
        first = chaos_campaign(3, 0)
        second = chaos_campaign(3, 0)
        assert first.report("chaos") == second.report("chaos")
        assert first.to_dict() == second.to_dict()
        assert first.ok, first.report("chaos")
        assert len(first.runs) == 3 * len(CHAOS_SCHEMES)

    def test_two_percent_drop_everything_completes(self):
        """The issue's headline guarantee: at a 2% drop rate every client
        request completes and histories stay linearizable."""
        for scheme in CHAOS_SCHEMES:
            run = run_schedule(replace(chaos_schedule(1, 0, scheme),
                                       events=(drop(0.02),)))
            assert run.ops_completed == run.ops_expected
            assert run.ok, (scheme, run.violations)

    @pytest.mark.parametrize("scheme", CHAOS_SCHEMES)
    @pytest.mark.parametrize("role", VICTIM_ROLES)
    def test_crash_scenarios_pass(self, scheme, role):
        """Crash faults are valid for every role — followers recover
        through checkpoint install, speakers/sequencers and oracle
        replicas ride out a blackout and reconnect."""
        run = run_schedule(replace(chaos_schedule(2, 0, scheme), events=(
            drop(0.01), crash_event(scheme, role))))
        assert not run.events_skipped
        assert run.ok, (scheme, role, run.violations)

    def test_scenario_converts_to_fuzz_schedule(self):
        """Every fault kind the generator draws reaches the runner intact:
        the schedules need no clipping, and carry the chaos run's
        deadline, key count and the sentinel's bug."""
        kinds = set()
        for index in range(30):
            schedule = chaos_schedule(7, index, "ssmr",
                                      inject_bug="no_dedup")
            kinds |= {event["kind"] for event in schedule.events}
            assert (events_of(normalize_schedule(schedule))
                    == events_of(schedule))
            assert schedule.inject_bug == "no_dedup"
            assert schedule.horizon_ms == 300.0
            assert schedule.deadline_ms == CHAOS_DEADLINE_MS
            assert schedule.num_keys == len(KEYS)
        assert kinds == {"crash", "delay", "drop", "duplicate",
                         "partition", "reorder"}

    def test_partition_window_passes(self):
        for scheme in CHAOS_SCHEMES:
            split = next(event
                         for event in chaos_schedule(0, 0, scheme).events
                         if event["kind"] == "partition")
            members = shape_nodes(scheme)["servers"]
            if scheme == "smr":
                assert (split["island_a"], split["island_b"]) == (
                    ["p0s0"], ["p0s1"])
            else:
                assert (split["island_a"], split["island_b"]) == (
                    list(members["p0"]), list(members["p1"]))
            run = run_schedule(replace(
                chaos_schedule(4, 0, scheme),
                events=(drop(0.01), dict(split, at=50.0, end=110.0))))
            assert run.ok, (scheme, run.violations)


class TestSentinel:
    """Prove the campaign can fail: with server-side dedup disabled, a
    client resend executes twice and the checkers must say so."""

    @staticmethod
    def heavy(scheme, inject_bug=None):
        return replace(chaos_schedule(3, 0, scheme, inject_bug=inject_bug),
                       events=(drop(0.12),))

    def test_dedup_off_is_caught(self):
        run = run_schedule(self.heavy("smr", "no_dedup"))
        assert not run.ok
        assert any("more than once" in violation
                   for violation in run.violations)
        assert any("not linearizable" in violation
                   for violation in run.violations)

    def test_same_run_with_dedup_is_clean(self):
        run = run_schedule(self.heavy("smr"))
        assert run.ok, run.violations
        assert run.resends > 0   # the faults did force retries

    def test_campaign_keeps_one_shrink_per_failing_run(self, tmp_path):
        """One index fails on several schemes: each failing run keeps its
        own shrink and artifact, keyed by its position in ``runs``."""
        campaign = run_campaign(
            3, [self.heavy(scheme, "no_dedup") for scheme in CHAOS_SCHEMES],
            shrink_probes=20, artifacts_dir=str(tmp_path))
        failing = [position for position, run in enumerate(campaign.runs)
                   if not run.ok]
        assert len(failing) > 1
        assert sorted(campaign.shrinks) == failing
        assert sorted(campaign.artifact_paths) == failing
        for position in failing:
            assert (campaign.shrinks[position].original.scheme
                    == campaign.runs[position].schedule.scheme)
        assert len(set(campaign.artifact_paths.values())) == len(failing)
        shrinks = [entry["shrink"]
                   for entry in campaign.to_dict()["schedules"]]
        assert [position for position, shrink in enumerate(shrinks)
                if shrink is not None] == failing


class TestReport:
    def test_report_mentions_every_scheme_and_verdict(self):
        report = chaos_campaign(1, 5).report("chaos")
        assert report.startswith("chaos campaign: seed=5")
        for scheme in CHAOS_SCHEMES:
            assert scheme in report
        assert "verdict" in report
        assert "no invariant violations" in report
