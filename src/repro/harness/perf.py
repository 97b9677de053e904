"""Perf-regression suite: the engine behind ``python -m repro perfcheck``.

Runs the seeded fault-free workload of :mod:`repro.harness.tracerun`
against every scheme and condenses each run into a few headline metrics
(virtual-time throughput, latency percentiles, message/byte counts). The
numbers are pure functions of ``(seed, clients, ops, partitions,
slowdown)`` — virtual time, not wall time — so they are byte-stable
across machines and runs. That is what lets CI compare against a
committed baseline and fail on real drift without flakiness: any change
in the metrics is a change in protocol behaviour, never scheduler noise.

Baselines live in ``benchmarks/baselines/*.json`` (format
``repro-perf-baseline/1``). The gate checks throughput (lower is a
regression), p95 latency and messages sent (higher is a regression)
against a relative tolerance; ``slowdown`` scales the execution cost
model to prove the gate trips (CI injects a 20% synthetic slowdown and
requires failure).

The suite also carries a ``durability`` section: one extra dssmr run
with the write-ahead log armed. The regular (WAL-off) scheme sections
are produced by the exact pre-durability deployment, so a regenerated
baseline proves the WAL default costs nothing — the scheme sections stay
byte-identical — while the WAL-on run gates the absolute latency
overhead against :data:`repro.harness.durability.OVERHEAD_BOUND_MS`.
"""

from __future__ import annotations

import json
import math
import time
from typing import Optional

from repro.harness.durability import OVERHEAD_BOUND_MS
from repro.harness.tracerun import run_traced_workload
from repro.store import DurabilityConfig

BASELINE_FORMAT = "repro-perf-baseline/1"
DEFAULT_BASELINE_PATH = "benchmarks/baselines/perf_smoke.json"
DEFAULT_TOLERANCE = 0.05
PERF_SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")

#: Wall-clock substrate baseline (separate file: these numbers are NOT
#: byte-deterministic and must never enter the canonical perf payload).
SUBSTRATE_FORMAT = "repro-substrate-baseline/3"
DEFAULT_SUBSTRATE_BASELINE_PATH = \
    "benchmarks/baselines/substrate_micro.json"
#: Floors are committed at measured-rate / headroom, so the gate only
#: trips on a multiple-x substrate slowdown, never on machine variance.
SUBSTRATE_HEADROOM = 4.0


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


def _scheme_metrics(run) -> dict:
    """Headline metrics of one workload run (all virtual-time)."""
    latency = run.cluster.latency
    finished = run.finished_at
    if finished and finished > 0:
        throughput = run.completed / (finished / 1000.0)
    else:
        throughput = 0.0
    mean = latency.mean()
    return {
        "ops_completed": run.completed,
        "ops_expected": run.expected,
        "finished_at_ms": _round(finished) if finished else None,
        "throughput_ops_per_s": _round(throughput),
        "latency_mean_ms": _round(mean) if not math.isnan(mean) else None,
        "latency_p50_ms": _round(latency.percentile(50)),
        "latency_p95_ms": _round(latency.percentile(95)),
        "latency_p99_ms": _round(latency.percentile(99)),
        "messages_sent": run.cluster.network.messages_sent,
        "bytes_sent": run.cluster.network.bytes_sent,
    }


def run_perf_suite(seed: int = 7, num_clients: int = 3,
                   ops_per_client: int = 10, num_partitions: int = 2,
                   slowdown: float = 1.0,
                   schemes: tuple = PERF_SCHEMES) -> dict:
    """Run the workload per scheme; returns a baseline-format dict."""
    results = {}
    for scheme in schemes:
        run = run_traced_workload(
            scheme, seed=seed, num_clients=num_clients,
            ops_per_client=ops_per_client, num_partitions=num_partitions,
            trace=False, slowdown=slowdown)
        results[scheme] = _scheme_metrics(run)
    durability = None
    if "dssmr" in results:
        wal_run = run_traced_workload(
            "dssmr", seed=seed, num_clients=num_clients,
            ops_per_client=ops_per_client, num_partitions=num_partitions,
            trace=False, slowdown=slowdown, durability=DurabilityConfig())
        wal_on = _scheme_metrics(wal_run)
        off_mean = results["dssmr"]["latency_mean_ms"] or 0.0
        on_mean = wal_on["latency_mean_ms"] or 0.0
        durability = {
            "scheme": "dssmr",
            "wal_on": wal_on,
            # Absolute delta against the WAL-off dssmr run above (same
            # parameters) — base latencies are sub-millisecond, so a
            # relative bound would be meaningless.
            "overhead_ms": _round(on_mean - off_mean),
            "bound_ms": OVERHEAD_BOUND_MS,
        }
    parallel = None
    if "dssmr" in results:
        # Parallel-execution section: the scheme sections above run with
        # parallel=None (byte-identical to the pre-parallel deployment —
        # zero drift when off), and one executor-bound throughput pair
        # proves the engine's headline speedup. Virtual-time numbers, so
        # byte-stable like everything else in this payload. The sweep
        # keeps its own heavy cost model (the ``slowdown`` knob targets
        # the scheme gates; a uniformly slowed model would leave this
        # ratio unchanged anyway).
        from repro.harness.parallelexec import (GATE_CONFLICT,
                                                GATE_MIN_SPEEDUP,
                                                GATE_WORKERS,
                                                run_throughput)
        sweep_kwargs = dict(conflict=GATE_CONFLICT, seed=seed,
                            num_clients=16, duration_ms=1500.0)
        seq = run_throughput(0, **sweep_kwargs)
        par = run_throughput(GATE_WORKERS, **sweep_kwargs)
        speedup = (par["throughput_kcps"] / seq["throughput_kcps"]
                   if seq["throughput_kcps"] > 0 else 0.0)
        parallel = {
            "scheme": "dssmr",
            "workers": GATE_WORKERS,
            "conflict": GATE_CONFLICT,
            "seq_throughput_kcps": seq["throughput_kcps"],
            "par_throughput_kcps": par["throughput_kcps"],
            "speedup": _round(speedup, 3),
            "min_speedup": GATE_MIN_SPEEDUP,
            "utilization": par["utilization"],
            "stall_fraction": par["stall_fraction"],
        }
    return {
        "format": BASELINE_FORMAT,
        "seed": seed,
        "num_clients": num_clients,
        "ops_per_client": ops_per_client,
        "num_partitions": num_partitions,
        "slowdown": _round(slowdown),
        "schemes": results,
        "durability": durability,
        "parallel": parallel,
    }


def compare_to_baseline(current: dict, baseline: dict,
                        tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Gate check: list of regression descriptions (empty == pass).

    Throughput may not drop, and p95 latency and messages sent may not
    rise, by more than ``tolerance`` (relative) against the baseline, in
    every scheme section and in the durability section's WAL-on run.
    Incomplete runs (``ops_completed < ops_expected``) always fail.
    """
    failures: list[str] = []
    if baseline.get("format") != BASELINE_FORMAT:
        return [f"baseline format {baseline.get('format')!r} != "
                f"{BASELINE_FORMAT!r}"]
    for scheme, base in sorted(baseline.get("schemes", {}).items()):
        cur = current.get("schemes", {}).get(scheme)
        if cur is None:
            failures.append(f"{scheme}: missing from current run")
            continue
        if cur["ops_completed"] < cur["ops_expected"]:
            failures.append(
                f"{scheme}: incomplete run "
                f"({cur['ops_completed']}/{cur['ops_expected']} ops)")
        floor = base["throughput_ops_per_s"] * (1.0 - tolerance)
        if cur["throughput_ops_per_s"] < floor:
            failures.append(
                f"{scheme}: throughput {cur['throughput_ops_per_s']:.1f} "
                f"ops/s below floor {floor:.1f} "
                f"(baseline {base['throughput_ops_per_s']:.1f}, "
                f"tolerance {tolerance:.0%})")
        ceiling = base["latency_p95_ms"] * (1.0 + tolerance)
        if cur["latency_p95_ms"] > ceiling:
            failures.append(
                f"{scheme}: p95 latency {cur['latency_p95_ms']:.3f}ms "
                f"above ceiling {ceiling:.3f}ms "
                f"(baseline {base['latency_p95_ms']:.3f}ms, "
                f"tolerance {tolerance:.0%})")
        failures.extend(_message_growth(scheme, cur, base, tolerance))
    base_dur = baseline.get("durability")
    if base_dur is not None:
        cur_dur = current.get("durability")
        if cur_dur is None:
            failures.append("durability: missing from current run")
        else:
            on = cur_dur["wal_on"]
            if on["ops_completed"] < on["ops_expected"]:
                failures.append(
                    f"durability: incomplete WAL-on run "
                    f"({on['ops_completed']}/{on['ops_expected']} ops)")
            bound = base_dur.get("bound_ms", OVERHEAD_BOUND_MS)
            if cur_dur["overhead_ms"] > bound:
                failures.append(
                    f"durability: WAL latency overhead "
                    f"{cur_dur['overhead_ms']:.3f}ms above documented "
                    f"bound {bound:.3f}ms")
            ceiling = base_dur["wal_on"]["latency_p95_ms"] * (1.0 + tolerance)
            if on["latency_p95_ms"] > ceiling:
                failures.append(
                    f"durability: WAL-on p95 latency "
                    f"{on['latency_p95_ms']:.3f}ms above ceiling "
                    f"{ceiling:.3f}ms (baseline "
                    f"{base_dur['wal_on']['latency_p95_ms']:.3f}ms, "
                    f"tolerance {tolerance:.0%})")
            failures.extend(_message_growth(
                "durability: WAL-on", on, base_dur["wal_on"], tolerance))
    base_par = baseline.get("parallel")
    if base_par is not None:
        cur_par = current.get("parallel")
        if cur_par is None:
            failures.append("parallel: missing from current run")
        else:
            # The speedup gate is absolute (against the committed
            # minimum), not relative: the engine either delivers the
            # headline multiple or it regressed.
            minimum = base_par.get("min_speedup", cur_par["min_speedup"])
            if cur_par["speedup"] < minimum:
                failures.append(
                    f"parallel: speedup {cur_par['speedup']:.3f}x at "
                    f"{cur_par['workers']} workers / "
                    f"{cur_par['conflict']:.0%} conflict below minimum "
                    f"{minimum:.1f}x")
            floor = base_par["seq_throughput_kcps"] * (1.0 - tolerance)
            if cur_par["seq_throughput_kcps"] < floor:
                failures.append(
                    f"parallel: sequential-baseline throughput "
                    f"{cur_par['seq_throughput_kcps']:.4f} kcmd/ms below "
                    f"floor {floor:.4f} (baseline "
                    f"{base_par['seq_throughput_kcps']:.4f}, tolerance "
                    f"{tolerance:.0%})")
    return failures


def _message_growth(label: str, cur: dict, base: dict,
                    tolerance: float) -> list[str]:
    """A failure if ``cur`` sent more messages than ``base`` allows."""
    ceiling = base["messages_sent"] * (1.0 + tolerance)
    if cur["messages_sent"] <= ceiling:
        return []
    return [f"{label}: {cur['messages_sent']} messages sent above ceiling "
            f"{ceiling:.1f} (baseline {base['messages_sent']}, "
            f"tolerance {tolerance:.0%})"]


# -- wall-clock substrate gate ---------------------------------------------

#: The microbenchmark shapes; each has a ``<shape>_per_s`` rate and floor.
SUBSTRATE_SHAPES = ("events", "messages", "handled", "captures")


def run_substrate_micro(events: int = 200_000,
                        messages: int = 50_000,
                        captures: int = 1_000) -> dict:
    """Measure the simulation substrate's wall-clock rates.

    Four microbenchmarks over the hottest shapes: event-heap churn
    (``events``: a self-rescheduling ``schedule_callback`` chain — the
    shape of every network delivery and parallel-execution completion),
    delivery through the network into a bare endpoint's inbox
    (``messages``), the full path every protocol message takes
    (``handled``: ``ProtocolNode.send`` → delivery event → the
    destination node's kind handler), and the checkpoint a durable
    deployment takes every ``checkpoint_every`` entries (``captures``:
    ``PartitionCheckpointer.capture`` on one dssmr Chirper server holding
    100 users, 200 cached replies — one per client session, 200 sessions —
    and 200 outbound exchange payloads).
    Rates are per wall-clock second — machine-dependent, so they live in
    their own baseline file and never touch the canonical perf payload.
    """
    from repro.apps.chirper import ChirperStateMachine, user_key
    from repro.harness.cluster import Cluster, ClusterConfig
    from repro.net import FixedLatency, Network
    from repro.ordering import ProtocolNode
    from repro.sim import Environment, SeedStream
    from repro.smr.command import Command, Reply, ReplyStatus

    env = Environment()
    state = {"left": events}

    def tick():
        left = state["left"]
        if left:
            state["left"] = left - 1
            env.schedule_callback(0.01, tick)

    env.schedule_callback(0.0, tick)
    started = time.perf_counter()
    env.run()
    event_elapsed = time.perf_counter() - started

    env = Environment()
    net = Network(env, SeedStream(1), FixedLatency(0.05))
    net.register("b")
    started = time.perf_counter()
    for i in range(messages):
        net.send("a", "b", "k", payload=i)
    env.run()
    message_elapsed = time.perf_counter() - started
    assert net.messages_delivered == messages

    env = Environment()
    net = Network(env, SeedStream(1), FixedLatency(0.05))
    sender = ProtocolNode(env, net, "a")
    handled = []
    ProtocolNode(env, net, "b").on("k", handled.append)
    started = time.perf_counter()
    for i in range(messages):
        sender.send("b", "k", i)
    env.run()
    handled_elapsed = time.perf_counter() - started
    assert len(handled) == messages

    # The environment is never run: the exchange sends below only fill
    # the server's outbound cache.
    cluster = Cluster(ClusterConfig(
        scheme="dssmr", num_partitions=2, seed=1,
        state_machine_factory=ChirperStateMachine))
    here, peer = cluster.partitions
    server = cluster.servers[cluster.directory.members(here)[0]]
    for user in range(100):
        server.store.write(user_key(user), {
            "following": [(user + 1) % 100], "followers": [(user - 1) % 100],
            "timeline": [(f"post{n}", user, "x" * 40) for n in range(10)]})
    for index in range(200):
        cid, key = f"c{index}", user_key(index % 100)
        command = Command(op="post", cid=cid, client=f"client{index}",
                          seq=1, acked=1)
        server.replies.store(command, Reply(
            cid, ReplyStatus.OK, {"delivered": 3}, server.node.name,
            server.partition))
        server.exchange.send([peer], cid, {key: server.store.read(key)},
                             key=(index, cid))
    started = time.perf_counter()
    for _ in range(captures):
        server.checkpointer.capture("micro")
    capture_elapsed = time.perf_counter() - started

    return {
        "events": events,
        "events_per_s": _round(events / event_elapsed, 1),
        "messages": messages,
        "messages_per_s": _round(messages / message_elapsed, 1),
        "handled": messages,
        "handled_per_s": _round(messages / handled_elapsed, 1),
        "captures": captures,
        "captures_per_s": _round(captures / capture_elapsed, 1),
    }


def make_substrate_baseline(current: dict,
                            headroom: float = SUBSTRATE_HEADROOM) -> dict:
    """Derive the committed floor file from one measurement."""
    floors = {"format": SUBSTRATE_FORMAT, "headroom": headroom}
    for shape in SUBSTRATE_SHAPES:
        floors[shape] = current[shape]
        floors[f"{shape}_per_s_floor"] = _round(
            current[f"{shape}_per_s"] / headroom, 1)
    return floors


def compare_substrate(current: dict, baseline: dict) -> list[str]:
    """Substrate gate: list of slowdown descriptions (empty == pass)."""
    if baseline.get("format") != SUBSTRATE_FORMAT:
        return [f"substrate baseline format {baseline.get('format')!r} "
                f"!= {SUBSTRATE_FORMAT!r}"]
    failures = []
    for name in SUBSTRATE_SHAPES:
        rate = current[f"{name}_per_s"]
        floor = baseline[f"{name}_per_s_floor"]
        if rate < floor:
            failures.append(
                f"substrate: {name} rate {rate:,.0f}/s below committed "
                f"floor {floor:,.0f}/s ({baseline.get('headroom', 0):.0f}x "
                f"headroom baseline)")
    return failures


def load_baseline(path: str) -> Optional[dict]:
    """Parse a baseline file; None when it does not exist."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
