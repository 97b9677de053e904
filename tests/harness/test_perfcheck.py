"""Perf-regression gate tests (repro.harness.perf + the perfcheck CLI).

The suite's numbers are virtual-time functions of the seed, so the gate
is exact: a run compared against its own baseline always passes, a 20%
synthetic slowdown always fails, and two same-seed runs serialise to
byte-identical JSON (what CI's double-run comparison relies on).
"""

import json

import pytest

from repro.canonical import canonical_json
from repro.harness.perf import (BASELINE_FORMAT, PERF_SCHEMES,
                                compare_to_baseline, load_baseline,
                                run_perf_suite)


@pytest.fixture(scope="module")
def suite():
    return run_perf_suite()


class TestSuite:
    def test_covers_every_scheme_and_completes(self, suite):
        assert suite["format"] == BASELINE_FORMAT
        assert sorted(suite["schemes"]) == sorted(PERF_SCHEMES)
        for scheme, metrics in suite["schemes"].items():
            assert metrics["ops_completed"] == metrics["ops_expected"], \
                scheme
            assert metrics["throughput_ops_per_s"] > 0
            assert metrics["latency_p50_ms"] <= metrics["latency_p95_ms"] \
                <= metrics["latency_p99_ms"]

    def test_byte_identical_across_runs(self, suite):
        assert canonical_json(run_perf_suite()) == canonical_json(suite)

    def test_canonical_json_is_compact_and_sorted(self, suite):
        payload = canonical_json(suite)
        assert ": " not in payload and ", " not in payload
        assert json.loads(payload) == suite


class TestGate:
    def test_passes_against_itself(self, suite):
        assert compare_to_baseline(suite, suite) == []

    def test_fails_on_20_percent_slowdown(self, suite):
        slow = run_perf_suite(slowdown=1.2)
        failures = compare_to_baseline(slow, suite, tolerance=0.05)
        assert failures, "20% synthetic slowdown must trip the gate"

    def test_tolerance_is_honoured(self, suite):
        slow = run_perf_suite(slowdown=1.2)
        # A huge tolerance waves the same drift through.
        assert compare_to_baseline(slow, suite, tolerance=5.0) == []

    def test_incomplete_and_missing_schemes_fail(self, suite):
        broken = json.loads(canonical_json(suite))
        broken["schemes"]["smr"]["ops_completed"] = 0
        del broken["schemes"]["ssmr"]
        failures = compare_to_baseline(broken, suite)
        assert any("incomplete" in f for f in failures)
        assert any("ssmr" in f and "missing" in f for f in failures)

    def test_message_growth_beyond_tolerance_fails(self, suite):
        grown = json.loads(canonical_json(suite))
        base = suite["schemes"]["ssmr"]["messages_sent"]
        grown["schemes"]["ssmr"]["messages_sent"] = int(base * 1.04)
        assert compare_to_baseline(grown, suite) == []
        grown["schemes"]["ssmr"]["messages_sent"] = int(base * 1.06) + 1
        wal_base = suite["durability"]["wal_on"]["messages_sent"]
        grown["durability"]["wal_on"]["messages_sent"] = wal_base * 2
        failures = compare_to_baseline(grown, suite)
        assert len(failures) == 2
        assert failures[0].startswith("ssmr:") and "messages" in failures[0]
        assert failures[1].startswith("durability: WAL-on:")
        # Fewer messages than the baseline is never a regression.
        grown["schemes"]["ssmr"]["messages_sent"] = 0
        grown["durability"]["wal_on"]["messages_sent"] = 0
        assert compare_to_baseline(grown, suite) == []

    def test_foreign_baseline_format_rejected(self, suite):
        failures = compare_to_baseline(suite, {"format": "other/9"})
        assert failures and "format" in failures[0]

    def test_load_baseline_missing_file(self, tmp_path):
        assert load_baseline(str(tmp_path / "nope.json")) is None


class TestDurabilitySection:
    """The WAL overhead guard (satellite of the durability PR)."""

    def test_suite_carries_wal_on_run(self, suite):
        section = suite["durability"]
        assert section["scheme"] == "dssmr"
        wal_on = section["wal_on"]
        assert wal_on["ops_completed"] == wal_on["ops_expected"]
        # Arming the WAL costs latency; it must stay under the bound.
        assert 0.0 < section["overhead_ms"] <= section["bound_ms"]

    def test_wal_off_sections_are_untouched_by_durability_run(self, suite):
        """The scheme sections come from the exact pre-durability
        deployment: re-running without the durability section changes
        nothing (the zero-drift-when-disabled guarantee)."""
        again = run_perf_suite()
        assert canonical_json(again["schemes"]) == \
            canonical_json(suite["schemes"])

    def test_gate_trips_on_overhead_above_bound(self, suite):
        broken = json.loads(canonical_json(suite))
        broken["durability"]["overhead_ms"] = \
            suite["durability"]["bound_ms"] + 1.0
        failures = compare_to_baseline(broken, suite)
        assert any("overhead" in f for f in failures)

    def test_gate_skips_durability_for_old_baselines(self, suite):
        old = json.loads(canonical_json(suite))
        del old["durability"]   # pre-durability baseline on disk
        assert compare_to_baseline(suite, old) == []

    def test_missing_section_fails_against_new_baseline(self, suite):
        broken = json.loads(canonical_json(suite))
        broken["durability"] = None
        failures = compare_to_baseline(broken, suite)
        assert any("durability" in f and "missing" in f
                   for f in failures)


class TestCommittedBaseline:
    def test_repo_baseline_matches_current_code(self):
        """The committed baseline gates today's code at zero drift."""
        baseline = load_baseline("benchmarks/baselines/perf_smoke.json")
        assert baseline is not None, \
            "benchmarks/baselines/perf_smoke.json must be committed"
        current = run_perf_suite(seed=baseline["seed"])
        assert compare_to_baseline(current, baseline) == []


class TestCli:
    def test_perfcheck_gate_pass_and_fail(self, capsys):
        """The virtual-time gate both ways. The wall-clock substrate
        floors are gated where wall clock is measured (CI's perfcheck
        step), not here: on a shared host they flake."""
        from repro.cli import main

        assert main(["perfcheck", "--no-substrate"]) == 0
        assert "perf gate passed" in capsys.readouterr().out
        assert main(["perfcheck", "--no-substrate", "--slowdown", "1.2"]) \
            == 1
        assert "PERF GATE FAILED" in capsys.readouterr().out

    def test_perfcheck_smoke_is_byte_identical(self, capsys):
        from repro.cli import main

        assert main(["perfcheck", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["perfcheck", "--smoke"]) == 0
        assert capsys.readouterr().out == first

    def test_profile_smoke_is_byte_identical(self, capsys):
        from repro.cli import main

        assert main(["profile", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["profile", "--smoke"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert sorted(payload["schemes"]) == sorted(PERF_SCHEMES)
        for profile in payload["schemes"].values():
            assert profile["stage_sum_errors"] == []
