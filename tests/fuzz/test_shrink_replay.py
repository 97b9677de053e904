"""The issue's acceptance loop, as a test: inject a deliberate bug,
watch the fuzzer FIND it, SHRINK the schedule to strictly fewer events,
and REPLAY the saved artifact byte-identically.

Seed choice: any seed works. Arming ``inject_bug`` adds a deterministic
total-loss window on *reply* traffic to the generated schedule, which
forces the client resend-after-execute race the planted bug needs — so
the sentinel is reachable from every seed (historically only some seeds
produced the race from random background loss; seed 3 famously found
nothing). Seed 3 is used here precisely because it used to be the
counterexample.
"""

import pytest

from repro.canonical import canonical_json
from repro.fuzz.artifact import (load_artifact, make_artifact,
                                 replay_artifact, save_artifact)
from repro.fuzz.generate import generate_schedule
from repro.fuzz.runner import run_schedule
from repro.fuzz.shrink import shrink_schedule

SEED, INDEX = 3, 0


@pytest.fixture(scope="module")
def failing_run():
    schedule = generate_schedule(SEED, INDEX, inject_bug="no_dedup")
    run = run_schedule(schedule)
    assert run.violations, "any seed must trip the planted bug"
    return schedule, run


@pytest.fixture(scope="module")
def shrunk(failing_run):
    schedule, run = failing_run
    return shrink_schedule(schedule, run)


class TestFind:
    def test_planted_bug_is_caught(self, failing_run):
        _schedule, run = failing_run
        assert any("more than once" in v for v in run.violations)

    def test_violation_captures_trace_context(self, failing_run):
        _schedule, run = failing_run
        assert run.trace_notes


class TestShrink:
    def test_strictly_fewer_events(self, shrunk):
        assert len(shrunk.minimal.events) < len(shrunk.original.events)

    def test_minimal_schedule_still_fails(self, shrunk):
        assert shrunk.final_run.violations
        # The minimal repro still exhibits the planted bug itself (a
        # double execution), not some unrelated residual violation.
        assert any("more than once" in v
                   for v in shrunk.final_run.violations)
        assert (canonical_json(shrunk.final_run.schedule.to_dict())
                == canonical_json(shrunk.minimal.to_dict()))

    def test_shrink_is_deterministic(self, failing_run, shrunk):
        schedule, run = failing_run
        again = shrink_schedule(schedule, run)
        assert (canonical_json(again.minimal.to_dict())
                == canonical_json(shrunk.minimal.to_dict()))
        assert again.probes == shrunk.probes

    def test_workload_reduced_too(self, shrunk):
        original, minimal = shrunk.original, shrunk.minimal
        assert ((minimal.num_clients, minimal.ops_per_client,
                 minimal.horizon_ms)
                <= (original.num_clients, original.ops_per_client,
                    original.horizon_ms))

    def test_shrink_refuses_clean_run(self):
        schedule = generate_schedule(0, 0)
        run = run_schedule(schedule)
        assert run.ok
        with pytest.raises(ValueError):
            shrink_schedule(schedule, run)


class TestReplay:
    def test_artifact_round_trips_byte_identically(self, shrunk, tmp_path):
        artifact = make_artifact(shrunk.final_run, shrunk)
        path = tmp_path / "repro.json"
        save_artifact(artifact, str(path))
        loaded = load_artifact(str(path))
        assert loaded == artifact

        outcome = replay_artifact(loaded)
        assert outcome.identical, outcome.report()
        assert outcome.still_violating
        assert "IDENTICAL" in outcome.report()

    def test_artifact_records_shrink_history(self, shrunk):
        artifact = make_artifact(shrunk.final_run, shrunk)
        assert artifact["format"] == "repro-fuzz-repro/1"
        assert (artifact["shrink"]["minimal_events"]
                < artifact["shrink"]["original_events"])

    def test_artifact_requires_a_violation(self):
        run = run_schedule(generate_schedule(0, 0))
        with pytest.raises(ValueError):
            make_artifact(run)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else/1"}')
        with pytest.raises(ValueError):
            load_artifact(str(path))
