"""Tests for the campaign driver and its CI-facing guarantees:
byte-deterministic summaries, a clean verdict on the real protocols
(sequencer/oracle crashes included), artifacts on violation, and an
inconclusive linearizability verdict counted as a gap, not a pass."""

import json

import pytest

from repro.checkers import INCONCLUSIVE
from repro.fuzz.artifact import load_artifact
from repro.fuzz.campaign import Campaign, run_campaign
from repro.fuzz.generate import generate_schedule
from repro.fuzz.runner import ScheduleRunResult
from repro.fuzz.schedule import FaultSchedule
from repro.fuzz.shrink import shrink_schedule


def fuzz_campaign(num_schedules, seed, inject_bug=None, **kwargs):
    return run_campaign(seed, (generate_schedule(seed, index,
                                                 inject_bug=inject_bug)
                               for index in range(num_schedules)), **kwargs)


def canonical(campaign):
    return json.dumps(campaign.to_dict(), sort_keys=True,
                      separators=(",", ":"))


class TestDeterminism:
    def test_same_seed_byte_identical_summary_and_report(self):
        first = fuzz_campaign(4, 0)
        second = fuzz_campaign(4, 0)
        assert canonical(first) == canonical(second)
        assert first.report() == second.report()

    def test_different_seed_different_campaign(self):
        assert canonical(fuzz_campaign(2, 0)) != canonical(fuzz_campaign(2, 1))


class TestCleanBuild:
    def test_seeded_campaign_is_clean_and_covers_hard_victims(self):
        """A slice of the issue's 50-schedule acceptance campaign: the
        real protocols survive schedules that crash sequencers and
        oracle replicas."""
        campaign = fuzz_campaign(12, 0)
        assert campaign.ok, campaign.report()
        crashed = {event["node"]
                   for run in campaign.runs
                   for event in run.schedule.events
                   if event["kind"] == "crash"}
        assert any(node.endswith("s0") for node in crashed), \
            "campaign never crashed a sequencer"
        assert "no invariant violations" in campaign.report()
        assert "totals" not in campaign.to_dict()


class TestViolationPath:
    def test_injected_bug_found_shrunk_and_archived(self, tmp_path):
        campaign = fuzz_campaign(1, 5, inject_bug="no_dedup",
                                 artifacts_dir=str(tmp_path))
        assert not campaign.ok
        # The violating run was shrunk and its artifact written.
        assert 0 in campaign.shrinks
        assert (len(campaign.shrinks[0].minimal.events)
                < len(campaign.shrinks[0].original.events))
        path = campaign.artifact_paths[0]
        assert path.startswith(str(tmp_path / "repro-seed5-i0-"))
        artifact = load_artifact(path)
        assert artifact["schedule"]["inject_bug"] == "no_dedup"
        report = campaign.report()
        assert "FAIL" in report and "shrink" in report
        assert "artifact" in report

    def test_summary_json_counts_violations(self):
        campaign = fuzz_campaign(1, 5, inject_bug="no_dedup", shrink=False)
        summary = campaign.to_dict()
        assert summary["violations"] > 0
        assert summary["schedules"][0]["shrink"] is None


class TestInconclusive:
    """A Wing–Gong verdict that ran out of budget proves nothing: the run
    and the shrinker do not call it a violation, the campaign does not
    call it a pass."""

    RUN = ScheduleRunResult(
        schedule=FaultSchedule(seed=0, index=2, scheme="ssmr"),
        ops_completed=24, ops_expected=24, finished_at=711.0, timeouts=0,
        resends=0, messages_sent=900, linearizability=INCONCLUSIVE,
        violations=())

    def test_inconclusive_run_fails_the_campaign(self):
        assert self.RUN.ok
        campaign = Campaign(seed=0, runs=(self.RUN,))
        assert campaign.violations == []
        assert campaign.inconclusive == [self.RUN]
        assert not campaign.ok
        assert campaign.to_dict()["violations"] == 0
        report = campaign.report()
        assert "no invariant violations in 1 runs, 1 inconclusive" in report
        assert "[#2 ssmr] linearizability inconclusive" in report

    def test_shrinker_does_not_chase_it(self):
        with pytest.raises(ValueError):
            shrink_schedule(self.RUN.schedule, self.RUN)
