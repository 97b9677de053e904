#!/usr/bin/env python
"""Parameter sweep: explore scaling beyond the paper's configurations.

Runs a factorial grid (scheme × partition count) over a weak-locality
Chirper workload, prints one row per configuration, and exports
``sweep_results.csv`` for external plotting.

Run:  python examples/sweep_scaling.py        (~2-3 minutes)
"""

import csv
import itertools
from dataclasses import asdict

from repro.harness.experiment import (run_chirper_experiment,
                                      static_assignment_for)
from repro.harness.figures import FIGURE_EXECUTION
from repro.harness.metrics import ExperimentMetrics
from repro.harness.report import format_table
from repro.workload import clustered_graph

EDGE_CUT = 0.01
GRID = {"scheme": ["ssmr", "dssmr", "dynastar"], "num_partitions": [2, 4]}


def run_config(scheme, num_partitions):
    graph, planted = clustered_graph(n=80 * num_partitions,
                                     k=num_partitions, intra_degree=6,
                                     edge_cut_fraction=EDGE_CUT, seed=3)
    kwargs = {}
    if scheme == "ssmr":
        kwargs["initial_assignment"] = static_assignment_for(
            graph, num_partitions, planted)
    result = run_chirper_experiment(
        scheme, graph, num_partitions=num_partitions,
        clients_per_partition=6, duration_ms=3_000.0, warmup_ms=1_000.0,
        seed=5, execution=FIGURE_EXECUTION, **kwargs)
    return result.metrics


def main():
    print(f"sweeping scheme x partitions at {EDGE_CUT:.0%} edge-cut ...")
    rows, metrics = [], []
    for values in itertools.product(*GRID.values()):
        config = dict(zip(GRID, values))
        result = run_config(**config)
        columns = asdict(result)
        del columns["extra"]    # a dict, not a column
        rows.append({**config, **columns})
        metrics.append(result.row())
        print(f"  done: {config['scheme']} x{config['num_partitions']} "
              f"-> {result.throughput:.0f} ops/s")
    print()
    print(format_table(ExperimentMetrics.ROW_HEADERS, metrics))
    with open("sweep_results.csv", "w", newline="") as sink:
        writer = csv.DictWriter(sink, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print("\nwrote sweep_results.csv")
    best = max(rows, key=lambda row: row["throughput"])
    print(f"best configuration: {best['scheme']} with "
          f"{best['num_partitions']} partitions "
          f"({best['throughput']:.0f} ops/s)")


if __name__ == "__main__":
    main()
