"""Tests for the schedule-driven runner.

Determinism is the load-bearing property — shrinking and replay both
re-run schedules and trust that identical schedules give identical
outcomes, byte for byte.
"""

import pytest

from repro.fuzz.generate import generate_schedule
from repro.fuzz.runner import run_schedule
from repro.fuzz.schedule import FaultSchedule


def crash_schedule(scheme, node, mode, seed=9):
    return FaultSchedule(
        seed=seed, index=0, scheme=scheme,
        events=(
            {"kind": "drop", "at": 0.0, "end": 300.0, "fraction": 0.01},
            {"kind": "crash", "at": 50.0, "node": node, "mode": mode,
             "duration": 90.0},
        ),
        horizon_ms=300.0)


class TestDeterminism:
    def test_same_schedule_byte_identical_outcome(self):
        schedule = generate_schedule(2, 3)
        first = run_schedule(schedule)
        second = run_schedule(schedule)
        assert first.to_dict() == second.to_dict()

    def test_determinism_survives_interleaved_other_runs(self):
        """Replay happens in a fresh process with different history; a
        run must not depend on what ran before it in this one."""
        schedule = generate_schedule(2, 4)
        first = run_schedule(schedule)
        run_schedule(generate_schedule(2, 5))   # unrelated run between
        second = run_schedule(schedule)
        assert first.to_dict() == second.to_dict()


class TestCrashVocabulary:
    @pytest.mark.parametrize("scheme,node", [
        ("smr", "p0s0"), ("ssmr", "p1s0"), ("dssmr", "p0s0"),
        ("dynastar", "p1s0")])
    def test_sequencer_blackout_is_survivable(self, scheme, node):
        result = run_schedule(crash_schedule(scheme, node, "blackout"))
        assert result.ok, (scheme, node, result.violations)
        assert result.ops_completed == result.ops_expected

    @pytest.mark.parametrize("scheme", ["dssmr", "dynastar"])
    def test_oracle_blackout_is_survivable(self, scheme):
        result = run_schedule(crash_schedule(scheme, "or0", "blackout"))
        assert result.ok, (scheme, result.violations)
        assert result.ops_completed == result.ops_expected

    def test_follower_restart_is_survivable(self):
        result = run_schedule(crash_schedule("ssmr", "p0s1", "restart"))
        assert result.ok, result.violations
        assert result.ops_completed == result.ops_expected

    def test_unknown_bug_rejected(self):
        schedule = FaultSchedule(seed=0, index=0, scheme="smr",
                                 inject_bug="gremlins")
        with pytest.raises(ValueError):
            run_schedule(schedule)


class TestBackfillRetry:
    """Schedules that once ended with one member stuck behind a log hole:
    its only backfill request, or the reply, was lost and the log then
    went quiet. A retired partition's follower stayed one fence short
    (plain), or an oracle replica behind on the location map
    (supervisor). The member now asks again until the hole closes."""

    @pytest.mark.parametrize("seed, index, supervisor", [
        (122, 10, False),     # dynastar, retired p2: the reply was lost
        (188, 13, False),     # dssmr, retired p2: the reply was lost
        (189, 12, False),     # dssmr, retired p2: the request was lost
        (196, 39, True),      # dynastar, blacked-out oracle replica
    ])
    def test_the_hole_closes(self, seed, index, supervisor):
        schedule = generate_schedule(seed, index, supervisor=supervisor)
        result = run_schedule(schedule)
        assert result.violations == ()
