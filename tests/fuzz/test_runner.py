"""Tests for the schedule-driven runner.

Determinism is the load-bearing property — shrinking and replay both
re-run schedules and trust that identical schedules give identical
outcomes, byte for byte.
"""

from dataclasses import replace

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

    @pytest.mark.parametrize("scheme,node", [
        ("smr", "p0s0"), ("dssmr", "or0"), ("dynastar", "or1")])
    def test_speaker_and_oracle_restart_on_a_durable_deployment(
            self, scheme, node):
        """Amnesia for every role once the deployment has disks: an
        oracle replica is looked up as a member, not as a server."""
        schedule = replace(crash_schedule(scheme, node, "restart"),
                           durability=True)
        result = run_schedule(schedule)
        assert result.events_skipped == ()
        assert result.ok, result.violations

    def test_speaker_restart_without_a_disk_is_skipped(self):
        result = run_schedule(crash_schedule("ssmr", "p0s0", "restart"))
        assert result.events_skipped == (
            "crash@50: restart is not a crash mode of a speaker replica "
            "without a disk",)

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


def run_named(seed, index, mode):
    flags = {} if mode == "plain" else {mode: True}
    return run_schedule(generate_schedule(seed, index, **flags))


class TestDurableTimestamps:
    """A speaker announced a timestamp on applying the propose, before
    its WAL held it. A whole-cluster power cycle then lost the propose at
    that group while the other destinations finalised and delivered the
    message, and the group held their timestamps for a message it never
    saw proposed. Announcing only once the propose is durable (with an
    immediate flush) closes it."""

    @pytest.mark.parametrize("seed, index", [
        (225, 10),    # dynastar: 22/24 ops, k4 mapped to p0, lives in p1
        (173, 20),    # dssmr: with one answer per group
        (199, 29),    # ssmr: with one answer per group, p0 applied the
                      # propose at 21 with durable_seq 18
    ])
    def test_no_timestamp_outruns_its_propose(self, seed, index):
        assert run_named(seed, index, "disk").violations == ()


class TestQuietTail:
    """A follower missed a group's last decides and the log then went
    quiet: no later decide revealed the hole, so backfill never armed
    (an oracle replica stuck behind the other, or a partition's replicas
    one entry apart). The speaker now announces its tail while the log is
    quiet, until every follower acknowledges it. 289 #4 is the race an
    acknowledgement that raised the floor would create: a backfill
    request delayed past the rise arrives below the floor."""

    @pytest.mark.parametrize("seed, index", [
        (281, 22),    # dynastar: or1 applied 28, or0 59
        (282, 37),    # dynastar: or1 applied 25, or0 41
        (141, 22),    # dynastar: with one answer per group, p1s1 at 8,
                      # p1s0 at 9
        (289, 4),     # dynastar: the below-floor race
    ])
    def test_the_trailing_hole_closes(self, seed, index):
        assert run_named(seed, index, "supervisor").violations == ()


class TestFallbackAcrossAJoin:
    """join(p2) evacuated k2 from p0 to p2 while two commands were in
    fallback to [p0, p1]; both partitions answered NOK "missing
    variables" and the history stopped being linearizable. A fallback
    that finds a variable on none of its partitions now gets ``retry``,
    and the client consults again."""

    def test_the_fallback_is_retried(self):
        assert run_named(285, 3, "plain").violations == ()


class TestReorderedLogControl:
    """An oracle follower asked for backfill from 62 and the request was
    delayed; a late decide closed the hole, the follower reported 64, and
    the request arrived below the floor that report raised. A log takes a
    member's reports and requests latest-first, so the overtaken request
    is dropped."""

    def test_an_overtaken_request_never_lands_below_the_floor(self):
        assert run_named(228, 0, "supervisor").violations == ()


class TestResendOfARetriedAttempt:
    """A DS-SMR attempt got ``retry`` at p1; its resend reached p1 after
    the variable came back and executed there, while the client had moved
    on to the next attempt: one increment applied twice. The ``retry`` is
    now kept in the session, so the resend is its duplicate."""

    def test_the_resend_does_not_execute(self):
        assert run_named(172, 31, "disk").violations == ()
