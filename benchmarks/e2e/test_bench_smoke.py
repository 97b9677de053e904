"""Self-test of the benchmark command (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.__main__ import E2E_METRICS
from benchmarks.e2e.layers import LAYERS
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable] + BENCHMARK["command"][1:]
# Together these two run every layer: graph only works on the first, store
# only on the second.
SMOKE_WORKLOADS = ("dynastar-strong-post", "dssmr-weak-post-wal")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(COMMAND + list(args), cwd=cwd, text=True,
                          capture_output=True, timeout=120)


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """The full command, --smoke, on two workloads, twice."""
    runs = []
    for _ in range(2):
        out = tmp_path_factory.mktemp("bench")
        selected = [arg for name in SMOKE_WORKLOADS
                    for arg in ("--workload", name)]
        proc = run_bench("--smoke", "--out", str(out), *selected)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append({
            "stdout": proc.stdout,
            "e2e": json.loads((out / "e2e.json").read_text()),
            "layers": json.loads((out / "layers.json").read_text()),
            "traces": {name: json.loads(
                (out / f"trace-{name}.json").read_text())
                for name in SMOKE_WORKLOADS}})
    return runs


def test_manifest_names_the_workloads_of_the_table():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]


def test_every_manifest_metric_is_reported_with_its_unit(smoke_runs):
    for run in smoke_runs:
        for kind, key in (("e2e", "end_to_end"), ("layers", "per_layer")):
            for name in SMOKE_WORKLOADS:
                got = run[kind]["workloads"][name]["metrics"]
                want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                assert {n: got[n]["unit"] for n in got} == want
                for metric in want:
                    assert f"  {metric} " in run["stdout"]


def test_layers_account_for_all_host_time(smoke_runs):
    for run in smoke_runs:
        for name in SMOKE_WORKLOADS:
            metrics = run["layers"]["workloads"][name]["metrics"]
            fracs = [metrics[f"{layer}.host_frac"]["value"]
                     for layer in LAYERS]
            assert abs(sum(fracs) - 1.0) < 0.01
            assert metrics["trace.other_frac"]["value"] < 0.05
            assert metrics["trace.unresolved_boundaries"]["value"] == 0
            assert metrics["trace.virt_identical"]["value"] == 1
            functions = run["traces"][name]["functions"]
            assert any(f["callers"] for f in functions)


def test_workloads_stress_the_layers_they_were_chosen_for(smoke_runs):
    layers = smoke_runs[0]["layers"]["workloads"]
    dynastar = layers["dynastar-strong-post"]["metrics"]
    wal = layers["dssmr-weak-post-wal"]["metrics"]
    assert dynastar["graph.host_frac"]["value"] > 0.05
    assert dynastar["store.host_frac"]["value"] == 0
    assert wal["store.host_frac"]["value"] > 0.25
    assert wal["graph.host_frac"]["value"] < 0.02


def test_virtual_output_repeats_exactly(smoke_runs):
    first, second = smoke_runs
    for name in SMOKE_WORKLOADS:
        for kind in ("e2e", "layers"):
            a, b = (run[kind]["workloads"][name] for run in (first, second))
            assert a["virt_digest"] == b["virt_digest"]
            assert a["violations"] == b["violations"] == []
        for metric, (_unit, clock) in E2E_METRICS.items():
            if clock == "virtual":
                assert (first["e2e"]["workloads"][name]["metrics"][metric]
                        == second["e2e"]["workloads"][name]["metrics"][metric])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_driver_mode_ends_with_the_result_line(trace, key):
    proc = run_bench("--workload", "smr-post", "--seed", "3", "--seconds",
                     "1.2", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in BENCHMARK[key]})
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "smr-post", "--seed", "1", "--seconds",
                     "12", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
