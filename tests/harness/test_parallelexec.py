"""Tests for the parallelexec campaign driver (smoke-sized)."""

from repro.canonical import canonical_json
from repro.harness.figures import FIGURES, verdicts
from repro.harness.parallelexec import (format_report, run_campaign,
                                        run_throughput)


def test_smoke_campaign_gates_and_is_deterministic():
    first = run_campaign(smoke=True)
    assert first["format"] == "repro-parallelexec/1"
    failed = [line for holds, line
              in verdicts(FIGURES["fig21"].claims, first) if not holds]
    assert not failed, failed
    assert first["equivalence"]["all_equal"]
    # Byte-determinism: CI runs the smoke campaign twice and compares
    # stdout; the same property must hold in-process.
    second = run_campaign(smoke=True)
    assert canonical_json(first) == canonical_json(second)


def test_smoke_report_renders():
    data = run_campaign(smoke=True)
    report = format_report(data)
    assert "parallel execution campaign" in report
    assert "speedup" in report
    assert "MISMATCH" not in report


def test_throughput_scales_with_workers_at_low_conflict():
    seq = run_throughput(0, 0.0, num_clients=16, duration_ms=1000.0)
    par = run_throughput(4, 0.0, num_clients=16, duration_ms=1000.0)
    assert par["completed"] > 2 * seq["completed"]
    assert par["utilization"] > 0.5


def test_full_conflict_cannot_beat_sequential():
    seq = run_throughput(0, 1.0, num_clients=16, duration_ms=1000.0)
    par = run_throughput(4, 1.0, num_clients=16, duration_ms=1000.0)
    # Every command writes the hot key: the scheduler serializes them in
    # delivery order, so extra workers add nothing (and lose nothing).
    assert par["completed"] == seq["completed"]
