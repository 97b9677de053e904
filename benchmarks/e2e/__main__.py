"""Command line of the end-to-end benchmark.

    python3 -m benchmarks.e2e [--seed N] [--workload NAME]... [--smoke]
                              [--out DIR] [--seconds S] [--trace {0,1}]

Without ``--trace`` both passes run on every selected workload and a report
is printed. With ``--trace 0`` (end-to-end pass) or ``--trace 1`` (traced
pass) exactly one workload runs and the last line of standard output is the
JSON result object the driver of BENCHMARK.json reads. The exit status is
non-zero on any failed check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.layers import BOUNDARIES, LAYERS
from benchmarks.e2e.workloads import (DEFAULT_SECONDS, SMOKE_SECONDS,
                                      WORKLOADS, spec_for, sub_seeds)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 120

# name -> (unit, clock); summarise_e2e() computes the values.
E2E_METRICS = {
    "tput_cmds_per_vs": ("cmds/s", "virtual"),
    "lat_p50_ms": ("ms", "virtual"),
    "lat_p99_ms": ("ms", "virtual"),
    "msgs_per_cmd": ("count", "virtual"),
    "host_cmds_per_s": ("cmds/s", "host"),
    "peak_rss_mb": ("MiB", "host"),
    "setup_s": ("s", "host"),
}

# Units of the per-layer metrics: three for every layer, the BOUNDARIES
# table by derivation, the rest by name. layer_metrics() computes the values.
PER_LAYER_UNITS = {"host_us_per_cmd": "us", "host_frac": "ratio",
                   "calls_per_cmd": "count"}
BOUNDARY_UNITS = {"calls/cmd": "count", "calls": "count",
                  "calls/untraced_s": "1/s", "layer_us/call": "us",
                  "cum_ms/call": "ms"}
OTHER_LAYER_UNITS = {
    "net.bytes_per_cmd": "B",
    "net.delivered_frac": "ratio",
    "smr.executed_per_cmd": "count",
    "smr.queue_peak": "count",
    "smr.reply_cache_hits": "count",
    "ssmr.exchange_pulls_per_kcmd": "count",
    "core.consults_per_kcmd": "count",
    "core.cache_hit_frac": "ratio",
    "core.moves_per_kcmd": "count",
    "core.retries_per_kcmd": "count",
    "core.fallbacks_per_kcmd": "count",
    "core.oracle_busy_frac": "ratio",
    "core.moves_last_quarter": "count",
    "graph.repartitions": "count",
    "graph.host_ms_per_repartition": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.other_frac": "ratio",
    "trace.unresolved_boundaries": "count",
    "trace.virt_identical": "count",
}

# The result line needs a number for every metric; a metric whose boundary
# function is gone is null everywhere else.
UNRESOLVED = -1.0


class BenchError(Exception):
    """A run that could not produce a result (as opposed to a failed check)."""


def run_child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh interpreter; never two at once."""
    spec = dict(spec_for(name, seed, seconds), trace=trace)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name}: child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def nearest_rank(ordered: list, percent: float) -> float:
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def summarise_e2e(runs: list) -> dict:
    """Pool one workload's untraced sub-seed runs into end-to-end metrics."""
    virtual = [run["virtual"] for run in runs]
    latencies = sorted(ms for run in runs for ms in run["latencies_ms"])
    completed = sum(v["completed"] for v in virtual)
    rates = [run["virtual"]["completed"] / run["host"]["run_s"]
             for run in runs]
    values = {
        "tput_cmds_per_vs":
            statistics.fmean(v["tput_cmds_per_vs"] for v in virtual),
        "lat_p50_ms": nearest_rank(latencies, 50),
        "lat_p99_ms": nearest_rank(latencies, 99),
        "msgs_per_cmd": sum(v["messages_sent"] for v in virtual) / completed,
        "host_cmds_per_s":
            completed / sum(run["host"]["run_s"] for run in runs),
        "peak_rss_mb":
            statistics.median(run["host"]["peak_rss_mb"] for run in runs),
        "setup_s": statistics.median(run["host"]["setup_s"] for run in runs),
    }
    digests = [run["virt_digest"] for run in runs]
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _clock) in E2E_METRICS.items()},
        "virt_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "sub_runs": [{"seed": run["seed"], "virt_digest": run["virt_digest"],
                      "host_cmds_per_s": rate, **run["host"]}
                     for run, rate in zip(runs, rates)],
        "lat_samples": len(latencies),
        "ops_attempted": sum(v["ops_attempted"] for v in virtual),
        "ops_failed": sum(v["ops_failed"] for v in virtual),
        "ops_unfinished": sum(v["ops_unfinished"] for v in virtual),
        "violations": [f"seed {run['seed']}: {violation}"
                       for run in runs for violation in run["violations"]],
    }


def layer_metrics(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from a traced run and the untraced run of its seed."""
    virtual = traced["virtual"]
    cmds = virtual["completed"]
    layers = traced["trace"]["layers"]
    total_s = sum(layer["self_s"] for layer in layers.values())
    values: dict = {}
    for name in LAYERS:
        values[f"{name}.host_us_per_cmd"] = layers[name]["self_s"] * 1e6 / cmds
        values[f"{name}.host_frac"] = layers[name]["self_s"] / total_s
        values[f"{name}.calls_per_cmd"] = layers[name]["calls"] / cmds

    boundaries = traced["trace"]["boundaries"]
    for metric, (target, how) in BOUNDARIES.items():
        record = boundaries[target]
        if record is None:
            values[metric] = None
        elif how == "calls":
            values[metric] = record["calls"]
        elif how == "calls/cmd":
            values[metric] = record["calls"] / cmds
        elif how == "calls/untraced_s":
            values[metric] = record["calls"] / untraced["host"]["run_s"]
        elif not record["calls"]:
            values[metric] = 0.0
        elif how == "layer_us/call":
            layer = metric.partition(".")[0]
            values[metric] = layers[layer]["self_s"] * 1e6 / record["calls"]
        else:  # cum_ms/call
            values[metric] = record["cum_s"] * 1e3 / record["calls"]

    kcmd = cmds / 1000.0
    routed = virtual["cache_hits"] + virtual["consults"]
    values.update({
        "net.bytes_per_cmd": virtual["bytes_sent"] / cmds,
        "net.delivered_frac":
            virtual["messages_delivered"] / virtual["messages_sent"],
        "smr.executed_per_cmd": virtual["executed"] / cmds,
        "smr.queue_peak": virtual["queue_peak"],
        "smr.reply_cache_hits": virtual["reply_cache_hits"],
        "ssmr.exchange_pulls_per_kcmd": virtual["exchange_pulls"] / kcmd,
        "core.consults_per_kcmd": virtual["consults"] / kcmd,
        "core.cache_hit_frac":
            virtual["cache_hits"] / routed if routed else 0.0,
        "core.moves_per_kcmd": virtual["moves"] / kcmd,
        "core.retries_per_kcmd": virtual["retries"] / kcmd,
        "core.fallbacks_per_kcmd": virtual["fallbacks"] / kcmd,
        "core.oracle_busy_frac": virtual["oracle_busy_frac"],
        "core.moves_last_quarter": virtual["moves_last_quarter"],
        "graph.repartitions": virtual["repartitions"],
        "graph.host_ms_per_repartition":
            (layers["graph"]["self_s"] * 1e3 / virtual["repartitions"]
             if virtual["repartitions"] else 0.0),
        "trace.overhead_ratio":
            traced["host"]["run_s"] / untraced["host"]["run_s"],
        "trace.other_frac": values["other.host_frac"],
        "trace.unresolved_boundaries":
            sum(1 for metric in BOUNDARIES if values[metric] is None),
        "trace.virt_identical":
            int(traced["virt_digest"] == untraced["virt_digest"]),
    })
    return values


def layer_unit(metric: str) -> str:
    if metric in BOUNDARIES:
        return BOUNDARY_UNITS[BOUNDARIES[metric][1]]
    if metric in OTHER_LAYER_UNITS:
        return OTHER_LAYER_UNITS[metric]
    return PER_LAYER_UNITS[metric.partition(".")[2]]


def summarise_traced(untraced: dict, traced: dict) -> dict:
    values = layer_metrics(untraced, traced)
    violations = [f"seed {traced['seed']}: {violation}"
                  for violation in traced["violations"]]
    if not values["trace.virt_identical"]:
        violations.append(
            f"seed {traced['seed']}: the traced run's virt_digest differs "
            f"from the untraced run's")
    virtual = traced["virtual"]
    return {
        "metrics": {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in values.items()},
        "seed": traced["seed"],
        "virt_digest": traced["virt_digest"],
        "ops_attempted": virtual["ops_attempted"],
        "ops_failed": virtual["ops_failed"],
        "ops_unfinished": virtual["ops_unfinished"],
        "violations": violations,
    }


def print_summary(name: str, title: str, summary: dict) -> None:
    print(f"== {name} [{title}] virt_digest {summary['virt_digest']}")
    for metric, entry in summary["metrics"].items():
        value = entry["value"]
        shown = "null (boundary gone)" if value is None else f"{value:.6g}"
        if metric in E2E_METRICS:
            clock = E2E_METRICS[metric][1]
        else:
            clock = ("host" if "host_" in metric or metric.startswith("trace.")
                     else "virtual")
        print(f"  {metric:34s} {shown:>14s} {entry['unit']:7s} {clock}")
    for sub in summary.get("sub_runs", ()):
        print(f"  seed {sub['seed']}: virt_digest {sub['virt_digest'][:16]} "
              f"host_cmds_per_s {sub['host_cmds_per_s']:.6g} "
              f"run_s {sub['run_s']:.3f}")
    if "lat_samples" in summary:
        print(f"  lat_samples {summary['lat_samples']}")
    failed = summary["ops_failed"] + summary["ops_unfinished"]
    print(f"  ops_attempted {summary['ops_attempted']}, ops_failed "
          f"{summary['ops_failed']}, unfinished {summary['ops_unfinished']}, "
          f"failed_frac {failed / summary['ops_attempted']:.6g}")
    for violation in summary["violations"]:
        print(f"  CHECK FAILED: {violation}")


def result_line(summary: dict) -> str:
    metrics = {
        name: {"value": UNRESOLVED if entry["value"] is None
               else entry["value"], "unit": entry["unit"]}
        for name, entry in summary["metrics"].items()}
    return json.dumps({
        "correct": not summary["violations"],
        "attempted": summary["ops_attempted"],
        "failed": summary["ops_failed"] + summary["ops_unfinished"],
        "metrics": metrics})


def write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: all six")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="host seconds one workload's end-to-end pass "
                             "measures on the reference box; scales every "
                             "virtual duration (default %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"same as --seconds {SMOKE_SECONDS}")
    parser.add_argument("--out", type=Path,
                        help="write e2e.json, layers.json, trace-*.json here")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one pass on one workload and print the "
                             "driver's result line")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.trace is not None and len(names) != 1:
        parser.error("--trace needs exactly one --workload")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; the benchmark runs the "
              f"program from source", file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    seeds = sub_seeds(args.seed)
    if args.trace == 1:
        seeds = seeds[:1]  # the untraced run the traced one is compared to

    try:
        # Round-robin over workloads so machine drift hits all alike.
        untraced: dict = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                untraced[name].append(run_child(name, seed, seconds, False))
        e2e, layers, traces = {}, {}, {}
        for name in names:
            if args.trace != 1:
                e2e[name] = summarise_e2e(untraced[name])
            if args.trace != 0:
                traced = run_child(name, seeds[0], seconds, trace=True)
                layers[name] = summarise_traced(untraced[name][0], traced)
                traces[name] = traced["trace"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, summary in e2e.items():
        print_summary(name, "end to end, untraced", summary)
    for name, summary in layers.items():
        print_summary(name, f"per layer, traced, seed {summary['seed']}",
                      summary)
    if args.out is not None:
        header = {"seed": args.seed, "seconds": seconds}
        args.out.mkdir(parents=True, exist_ok=True)
        if e2e:
            write_json(args.out / "e2e.json", dict(header, workloads=e2e))
        if layers:
            write_json(args.out / "layers.json",
                       dict(header, workloads=layers))
        for name, trace in traces.items():
            write_json(args.out / f"trace-{name}.json",
                       dict(header, workload=name, **trace))

    if args.trace is not None:
        print(result_line((layers if args.trace else e2e)[names[0]]))
    summaries = list(e2e.values()) + list(layers.values())
    return 1 if any(summary["violations"] for summary in summaries) else 0


if __name__ == "__main__":
    sys.exit(main())
