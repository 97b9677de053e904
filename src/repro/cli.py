"""Command-line interface: run experiments and figures without writing code.

Examples::

    python -m repro figure fig1 --duration-ms 6000
    python -m repro experiment --scheme dssmr --partitions 4 \
        --edge-cut 0.05 --duration-ms 5000
    python -m repro partition --vertices 5000 --parts 4
    python -m repro list-figures
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import Optional, Sequence

from repro.canonical import canonical_json

SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")


def _run_flags(parser, *, seed: int, scheme: Optional[str] = None,
               schemes: Sequence[str] = SCHEMES,
               clients: Optional[int] = None, ops: Optional[int] = None,
               per: str = "") -> None:
    """The workload flags verbs share: ``--scheme`` (when the verb runs
    one scheme), ``--seed``, and ``--clients`` / ``--ops`` (when it
    drives closed-loop clients; ``per`` completes the ``--ops`` help)."""
    if scheme is not None:
        parser.add_argument("--scheme", default=scheme, choices=schemes)
    parser.add_argument("--seed", type=int, default=seed)
    if clients is not None:
        parser.add_argument("--clients", type=int, default=clients)
        parser.add_argument("--ops", type=int, default=ops,
                            help=f"operations per client{per}")


def _campaign_flags(parser, smoke: Optional[str] = None,
                    json_help: str = "print the canonical campaign JSON "
                                     "on stdout (report goes to stderr)",
                    out_help: str = "also write the canonical campaign "
                                    "JSON to PATH") -> None:
    """``--smoke`` / ``--json`` / ``--out``, declared once (see
    :func:`_emit`). ``smoke`` says what the verb's fixed smoke run is; a
    verb without one passes nothing and gets no ``--smoke``."""
    if smoke is not None:
        parser.add_argument("--smoke", action="store_true",
                            help=f"{smoke} on stdout (CI byte-compares "
                                 f"two same-seed runs)")
    parser.add_argument("--json", action="store_true", help=json_help)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help=out_help)


def _emit(args, report: str, data, out: Optional[str] = None) -> None:
    """The one campaign output shape.

    The report goes to stdout — or to stderr under ``--json`` /
    ``--smoke``, where stdout carries exactly the canonical JSON of
    ``data`` (the payload) and so stays byte-comparable. ``--out``
    receives ``out``, by default the payload.
    """
    payload = canonical_json(data)
    emit_json = args.json or getattr(args, "smoke", False)
    print(report, file=sys.stderr if emit_json else sys.stdout)
    if emit_json:
        print(payload)
    if args.out:
        with open(args.out, "w") as sink:
            sink.write((payload if out is None else out) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


def _exit_on_claims(claims, data) -> int:
    """Check ``claims`` on ``data``, the data of whatever parameters ran:
    one verdict line each on stderr, so stdout stays the figure or the
    canonical JSON. Exit status 1 if any claim fails."""
    from repro.harness.figures import verdicts

    checked = verdicts(claims, data)
    for _holds, line in checked:
        print(line, file=sys.stderr)
    return 0 if all(holds for holds, _line in checked) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DS-SMR reproduction: experiments and figures")
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("figure_id", help="fig1..fig21 (see list-figures)")
    figure.add_argument("--seed", type=int, default=None,
                        help="default: the figure's own")
    figure.add_argument("--duration-ms", type=float, default=None,
                        help="virtual run length per configuration "
                             "(figures that have one; default: the "
                             "figure's own)")

    sub.add_parser("list-figures", help="list reproducible figures")

    experiment = sub.add_parser(
        "experiment", help="one Chirper experiment configuration")
    _run_flags(experiment, seed=5, scheme="dssmr")
    experiment.add_argument("--partitions", type=int, default=2)
    experiment.add_argument("--users", type=int, default=200)
    experiment.add_argument("--edge-cut", type=float, default=0.0)
    experiment.add_argument("--clients-per-partition", type=int, default=8)
    experiment.add_argument("--duration-ms", type=float, default=5_000.0)

    partition = sub.add_parser(
        "partition", help="run the multilevel partitioner on a demo graph")
    partition.add_argument("--vertices", type=int, default=5_000)
    partition.add_argument("--parts", type=int, default=4)
    _run_flags(partition, seed=7)

    chaos = sub.add_parser(
        "chaos", help="seeded chaos campaign against every scheme")
    chaos.add_argument("--scenarios", type=int, default=10,
                       help="number of generated fault scenarios")
    _run_flags(chaos, seed=0, clients=3, ops=8, per=" per scenario")

    trace = sub.add_parser(
        "trace", help="traced workload: spans, latency breakdown, anomalies")
    _run_flags(trace, seed=7, scheme="dssmr", clients=3, ops=10)
    trace.add_argument("--partitions", type=int, default=2)
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the span stream as JSONL to PATH")
    trace.add_argument("--timelines", type=int, default=3,
                       help="print timelines of the N slowest commands")
    trace.add_argument("--k", type=float, default=3.0,
                       help="slow-command anomaly threshold (x p95)")

    profile = sub.add_parser(
        "profile", help="virtual-time profiler: attribute simulated cost "
                        "to a component/stage tree, folded stacks + table")
    _run_flags(profile, seed=7, scheme="dssmr", clients=3, ops=10)
    profile.add_argument("--partitions", type=int, default=2)
    profile.add_argument("--top", type=int, default=15,
                         help="rows in the self/total cost table")
    _campaign_flags(
        profile,
        smoke="profile all four schemes at the fixed smoke configuration "
              "and print the canonical JSON",
        json_help="print the canonical profile JSON on stdout (report "
                  "goes to stderr)",
        out_help="write the folded-stack text to PATH "
                 "(flamegraph.pl-compatible)")

    perfcheck = sub.add_parser(
        "perfcheck", help="perf-regression gate: run the seeded perf "
                          "suite and compare against a committed baseline")
    _run_flags(perfcheck, seed=7)
    perfcheck.add_argument("--baseline",
                           default="benchmarks/baselines/perf_smoke.json",
                           metavar="PATH")
    perfcheck.add_argument("--tolerance", type=float, default=0.05,
                           help="relative drift allowed before the gate "
                                "fails (throughput down / p95 up)")
    perfcheck.add_argument("--slowdown", type=float, default=1.0,
                           help="scale the execution cost model (test "
                                "knob: CI injects 1.2 and requires the "
                                "gate to FAIL)")
    perfcheck.add_argument("--substrate-baseline",
                           default="benchmarks/baselines/"
                                   "substrate_micro.json",
                           metavar="PATH",
                           help="wall-clock substrate floor file (event "
                                "heap + message delivery rates); gating "
                                "mode only — wall-clock numbers never "
                                "enter the canonical JSON")
    perfcheck.add_argument("--no-substrate", action="store_true",
                           help="skip the wall-clock substrate gate")
    perfcheck.add_argument("--update-baseline", action="store_true",
                           help="write the current metrics to --baseline "
                                "(and refreshed substrate floors to "
                                "--substrate-baseline) instead of gating")
    perfcheck.add_argument("--smoke", action="store_true",
                           help="print the canonical metrics JSON on "
                                "stdout without gating (CI byte-compares "
                                "two runs)")

    fuzz = sub.add_parser(
        "fuzz", help="deterministic fault-schedule fuzzer: generate, "
                     "run, shrink, replay")
    fuzz.add_argument("--schedules", type=int, default=10,
                      help="number of generated schedules to run")
    _run_flags(fuzz, seed=0, clients=3, ops=8, per=" per schedule")
    _campaign_flags(fuzz, smoke="small fixed campaign printing the "
                                "canonical JSON summary")
    fuzz.add_argument("--replay", default=None, metavar="ARTIFACT",
                      help="re-run a repro artifact and byte-compare the "
                           "outcome instead of fuzzing")
    fuzz.add_argument("--inject-bug", default=None,
                      choices=["no_dedup"],
                      help="test-only deliberate protocol bug; the "
                           "campaign must then FIND a violation")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip delta-debugging minimisation of "
                           "violating schedules")
    fuzz.add_argument("--artifacts", default=None, metavar="DIR",
                      help="write replayable repro artifacts for "
                           "violations into DIR")
    fuzz.add_argument("--supervisor", action="store_true",
                      help="run every schedule under the autonomous "
                           "recovery supervisor (repro.heal): crashes "
                           "get no harness restart and the generator "
                           "adds false-suspicion faults")
    fuzz.add_argument("--overload", action="store_true",
                      help="QoS fuzzing: clusters run with overload "
                           "control armed and the generator adds "
                           "overload-burst events (background open-loop "
                           "traffic surges)")
    fuzz.add_argument("--disk", action="store_true",
                      help="storage fuzzing: clusters run with durable "
                           "storage armed (repro.store) and the "
                           "generator adds torn-write, bit-rot, "
                           "slow-disk and power-loss events")
    fuzz.add_argument("--parallel", action="store_true",
                      help="parallel-execution fuzzing: every server "
                           "executes on a 4-worker conflict-aware pool "
                           "(repro.smr.parallel); the linearizability "
                           "checker fuzzes the sequential-equivalence "
                           "argument under faults")

    qos = sub.add_parser(
        "qos", help="overload campaign: offered-load sweep with QoS "
                    "(admission control + AIMD) off and on")
    _run_flags(qos, seed=0, scheme="ssmr")
    _campaign_flags(qos, smoke="short fixed sweep printing the canonical "
                               "JSON")

    durability = sub.add_parser(
        "durability", help="durable-storage campaign: WAL replay "
                           "equivalence, whole-cluster power loss, "
                           "torn-write/bit-rot recovery ladder")
    _run_flags(durability, seed=0)
    _campaign_flags(durability, smoke="short fixed campaign printing the "
                                      "canonical JSON")

    heal = sub.add_parser(
        "heal", help="self-healing campaign: crash every role, let the "
                     "recovery supervisor repair the cluster")
    heal.add_argument("--scenarios", type=int, default=4,
                      help="scenarios per scheme (each crashes a "
                           "follower, a sequencer and an oracle)")
    _run_flags(heal, seed=0, clients=3, ops=8, per=" per scenario")
    _campaign_flags(heal, smoke="small fixed campaign printing the "
                                "canonical JSON summary")

    parallelexec = sub.add_parser(
        "parallelexec", help="parallel-execution campaign: sequential "
                             "equivalence proof + worker/conflict "
                             "throughput sweep")
    _run_flags(parallelexec, seed=1)
    _campaign_flags(parallelexec, smoke="short fixed campaign printing "
                                        "the canonical JSON")

    reconfig = sub.add_parser(
        "reconfig", help="elastic reconfiguration smoke: crash-restart "
                         "recovery + live partition join under chaos")
    _run_flags(reconfig, seed=0, scheme="dssmr",
               schemes=("dssmr", "dynastar"), clients=4, ops=36)
    reconfig.add_argument("--no-chaos", action="store_true",
                          help="disable the background message faults")
    _campaign_flags(
        reconfig, json_help="print canonical metrics JSON on stdout",
        out_help="write the metrics JSON to PATH (the determinism "
                 "artifact CI byte-compares)")

    return parser


def cmd_figure(args) -> int:
    from repro.harness.figures import FIGURES

    entry = FIGURES.get(args.figure_id)
    if entry is None:
        print(f"unknown figure {args.figure_id!r}; "
              f"try: {', '.join(FIGURES)}", file=sys.stderr)
        return 2
    # Pass a flag only when given, so a bare run reproduces the figure's
    # own defaults; refuse one the figure cannot honour.
    accepted = inspect.signature(entry.function).parameters
    kwargs = {}
    for name in ("seed", "duration_ms"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            print(f"{args.figure_id} has no --{name.replace('_', '-')} "
                  f"to set", file=sys.stderr)
            return 2
        kwargs[name] = value
    figure = entry(**kwargs)
    print(figure)
    return _exit_on_claims(entry.claims, figure.data)


def cmd_list_figures(_args) -> int:
    from repro.harness.figures import FIGURES

    for figure_id, entry in FIGURES.items():
        doc = (entry.function.__doc__ or "").strip().splitlines()[0]
        print(f"{figure_id:6s} {doc}")
    return 0


def cmd_experiment(args) -> int:
    from repro.harness.experiment import (run_chirper_experiment,
                                          static_assignment_for)
    from repro.harness.figures import FIGURE_EXECUTION
    from repro.harness.metrics import ExperimentMetrics
    from repro.harness.report import format_sparkline, format_table
    from repro.workload import clustered_graph

    graph, planted = clustered_graph(
        n=args.users, k=max(args.partitions, 1), intra_degree=6,
        edge_cut_fraction=args.edge_cut, seed=3)
    kwargs = {}
    if args.scheme == "ssmr":
        kwargs["initial_assignment"] = static_assignment_for(
            graph, args.partitions, planted)
    result = run_chirper_experiment(
        args.scheme, graph, num_partitions=args.partitions,
        clients_per_partition=args.clients_per_partition,
        duration_ms=args.duration_ms, warmup_ms=args.duration_ms / 3,
        seed=args.seed, execution=FIGURE_EXECUTION, **kwargs)
    print(format_table(ExperimentMetrics.ROW_HEADERS,
                       [result.metrics.row()]))
    print(f"\ntput/s over time: {format_sparkline(result.throughput)}")
    print(f"moves/s over time: {format_sparkline(result.moves)}")
    return 0


def cmd_partition(args) -> int:
    from repro.graph import (MultilevelPartitioner, edge_cut_fraction,
                             imbalance)
    from repro.workload import holme_kim_graph

    graph = holme_kim_graph(args.vertices, m=3, triad_probability=0.7,
                            seed=args.seed)
    started = time.perf_counter()
    assignment = MultilevelPartitioner().partition(graph, args.parts)
    elapsed = time.perf_counter() - started
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
    print(f"parts: {args.parts}  time: {elapsed:.2f}s  "
          f"edge-cut: {edge_cut_fraction(graph, assignment):.1%}  "
          f"imbalance: {imbalance(graph, assignment, args.parts):.2%}")
    return 0


def cmd_chaos(args) -> int:
    from repro.fuzz import CHAOS_SCHEMES, chaos_schedule, run_campaign

    campaign = run_campaign(args.seed, (
        chaos_schedule(args.seed, index, scheme, num_clients=args.clients,
                       ops_per_client=args.ops)
        for index in range(args.scenarios) for scheme in CHAOS_SCHEMES))
    print(campaign.report("chaos"))
    return 0 if campaign.ok else 1


def cmd_trace(args) -> int:
    from repro.harness.tracerun import run_traced_workload
    from repro.obs import (command_timeline, dump_jsonl, find_anomalies,
                           latency_breakdown, stage_sum_errors)
    from repro.obs.report import slowest_traces

    run = run_traced_workload(args.scheme, seed=args.seed,
                              num_clients=args.clients,
                              ops_per_client=args.ops,
                              num_partitions=args.partitions)
    spans = run.spans
    if args.out:
        count = dump_jsonl(spans, args.out)
        print(f"wrote {count} span(s) to {args.out}")
    print(f"traced {run.completed}/{run.expected} command(s), "
          f"{len(spans)} span(s), scheme={run.scheme} seed={run.seed}")
    print()
    print(latency_breakdown(spans,
                            label=f"{run.scheme} seed={run.seed}"))
    errors = stage_sum_errors(spans)
    if errors:
        print(f"\nstage-sum mismatches in {len(errors)} command(s): "
              f"{', '.join(errors[:5])}")
    else:
        print("\nper-command stage sums match end-to-end latency exactly")
    anomalies = find_anomalies(spans, k=args.k)
    if anomalies:
        print("\nanomalies:")
        for flag in anomalies:
            print(f"  - {flag}")
    else:
        print("no anomalies flagged")
    if args.timelines:
        print("\nslowest command timeline(s):")
        for trace_id in slowest_traces(spans, args.timelines):
            print()
            print(command_timeline(spans, trace_id))
    return 0 if run.completed == run.expected and not errors else 1


def cmd_profile(args) -> int:
    from repro.harness.tracerun import run_traced_workload
    from repro.obs.profile import VirtualProfiler

    if args.smoke:
        schemes = SCHEMES
        clients, ops, partitions = 3, 10, 2
    else:
        schemes = (args.scheme,)
        clients, ops, partitions = args.clients, args.ops, args.partitions
    payload: dict = {"seed": args.seed, "schemes": {}}
    report: list[str] = []
    folded_sections: list[str] = []
    ok = True
    for scheme in schemes:
        profiler = VirtualProfiler(scheme=scheme)
        run = run_traced_workload(scheme, seed=args.seed,
                                  num_clients=clients, ops_per_client=ops,
                                  num_partitions=partitions, trace=True,
                                  profiler=profiler)
        errors = profiler.stage_sum_errors()
        ok = ok and run.completed == run.expected and not errors
        payload["schemes"][scheme] = profiler.to_dict()
        folded_sections.append(profiler.folded())
        report += [f"== {scheme}: {run.completed}/{run.expected} "
                   f"command(s), {profiler.total_cost():.1f}ms "
                   f"attributed ==", profiler.table(top=args.top)]
        if errors:
            report.append(f"stage-sum mismatches in {len(errors)} "
                          f"command(s): {', '.join(errors[:5])}")
        else:
            report.append("per-command stage sums match end-to-end "
                          "latency exactly")
        report.append("")
    _emit(args, "\n".join(report), payload,
          out="\n".join(folded_sections))
    return 0 if ok else 1


def cmd_perfcheck(args) -> int:
    from repro.harness.perf import (SUBSTRATE_SHAPES, compare_substrate,
                                    compare_to_baseline, load_baseline,
                                    make_substrate_baseline,
                                    run_perf_suite, run_substrate_micro)

    current = run_perf_suite(seed=args.seed, slowdown=args.slowdown)
    if args.update_baseline:
        with open(args.baseline, "w") as sink:
            json.dump(current, sink, sort_keys=True, indent=2)
            sink.write("\n")
        print(f"wrote baseline to {args.baseline}", file=sys.stderr)
        if not args.no_substrate:
            floors = make_substrate_baseline(run_substrate_micro())
            with open(args.substrate_baseline, "w") as sink:
                json.dump(floors, sink, sort_keys=True, indent=2)
                sink.write("\n")
            print(f"wrote substrate floors to {args.substrate_baseline}",
                  file=sys.stderr)
        return 0
    if args.smoke:
        # Canonical JSON on stdout, no gating: CI byte-compares two runs.
        print(canonical_json(current))
        return 0
    baseline = load_baseline(args.baseline)
    if baseline is None:
        print(f"no baseline at {args.baseline}; create one with "
              f"--update-baseline", file=sys.stderr)
        return 2
    failures = compare_to_baseline(current, baseline, args.tolerance)
    for scheme, metrics in sorted(current["schemes"].items()):
        base = baseline.get("schemes", {}).get(scheme, {})
        print(f"{scheme:9s} throughput {metrics['throughput_ops_per_s']:8.1f} "
              f"ops/s (baseline {base.get('throughput_ops_per_s', 0):8.1f})  "
              f"p95 {metrics['latency_p95_ms']:.3f}ms "
              f"(baseline {base.get('latency_p95_ms', 0):.3f}ms)")
    par = current.get("parallel")
    if par is not None:
        print(f"parallel  {par['speedup']:.3f}x at {par['workers']} "
              f"workers / {par['conflict']:.0%} conflict "
              f"(minimum {par['min_speedup']:.1f}x)")
    if not args.no_substrate:
        floors = load_baseline(args.substrate_baseline)
        if floors is not None:
            rates = run_substrate_micro()
            failures.extend(compare_substrate(rates, floors))
            print("substrate " + ", ".join(
                f"{rates[f'{shape}_per_s']:,.0f} {shape}/s (floor "
                f"{floors.get(f'{shape}_per_s_floor', 0):,.0f})"
                for shape in SUBSTRATE_SHAPES))
        else:
            print(f"no substrate floors at {args.substrate_baseline}; "
                  f"create them with --update-baseline", file=sys.stderr)
    if failures:
        print(f"\nPERF GATE FAILED ({len(failures)} regression(s), "
              f"tolerance {args.tolerance:.0%}):")
        for failure in failures:
            print(f"  - {failure}")
    else:
        print(f"\nperf gate passed (tolerance {args.tolerance:.0%})")
    return 1 if failures else 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import (generate_schedule, load_artifact,
                            replay_artifact, run_campaign)

    if args.replay:
        outcome = replay_artifact(load_artifact(args.replay))
        print(outcome.report())
        # Exit 0 only on a byte-identical reproduction: CI treats any
        # drift — even "still violating, different signature" — as news.
        return 0 if outcome.identical else 1

    campaign = run_campaign(args.seed, (
        generate_schedule(args.seed, index, num_clients=args.clients,
                          ops_per_client=args.ops,
                          inject_bug=args.inject_bug,
                          supervisor=args.supervisor,
                          overload=args.overload, disk=args.disk,
                          parallel=args.parallel)
        for index in range(6 if args.smoke else args.schedules)),
        shrink=not args.no_shrink, artifacts_dir=args.artifacts)
    _emit(args, campaign.report(), campaign.to_dict())
    if args.inject_bug:
        # With a deliberate bug the fuzzer must FIND it; a clean
        # campaign means the fuzzer lost its teeth.
        return 0 if not campaign.ok else 1
    return 0 if campaign.ok else 1


def cmd_qos(args) -> int:
    from repro.harness.figures import FIGURES
    from repro.harness.overload import (format_overload_report,
                                        run_overload_campaign)

    data = run_overload_campaign(seed=args.seed, smoke=args.smoke,
                                 scheme=args.scheme)
    _emit(args, format_overload_report(data), data)
    return _exit_on_claims(FIGURES["fig19"].claims, data)


def cmd_durability(args) -> int:
    from repro.harness.durability import (format_durability_report,
                                          run_durability_campaign)
    from repro.harness.figures import FIGURES

    data = run_durability_campaign(seed=args.seed, smoke=args.smoke)
    _emit(args, format_durability_report(data), data)
    return _exit_on_claims(FIGURES["fig20"].claims, data)


def cmd_heal(args) -> int:
    from repro.fuzz import HEAL_SCHEMES, generate_heal_schedule, run_campaign

    campaign = run_campaign(args.seed, (
        generate_heal_schedule(args.seed, index, scheme,
                               num_clients=args.clients,
                               ops_per_client=args.ops)
        for index in range(2 if args.smoke else args.scenarios)
        for scheme in HEAL_SCHEMES))
    _emit(args, campaign.report("self-healing"), campaign.to_dict())
    return 0 if campaign.ok else 1


def cmd_parallelexec(args) -> int:
    from repro.harness.figures import FIGURES
    from repro.harness.parallelexec import format_report, run_campaign

    data = run_campaign(seed=args.seed, smoke=args.smoke)
    _emit(args, format_report(data), data)
    return _exit_on_claims(FIGURES["fig21"].claims, data)


def cmd_reconfig(args) -> int:
    from repro.harness.elastic import (format_elastic_report,
                                       run_elastic_scenario)
    from repro.harness.figures import ELASTIC_CLAIMS

    data = run_elastic_scenario(seed=args.seed, scheme=args.scheme,
                                num_clients=args.clients,
                                ops_per_client=args.ops,
                                chaos=not args.no_chaos)
    _emit(args, format_elastic_report(data), data)
    return _exit_on_claims(ELASTIC_CLAIMS, data)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # One shape for every verb: ``cmd_<verb>(args)`` returns the exit
    # status; wall time goes to stderr so stdout stays byte-comparable.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    started = time.perf_counter()
    status = handler(args)
    print(f"\n(wall time: {time.perf_counter() - started:.1f}s)",
          file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
