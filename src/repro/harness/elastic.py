"""Elastic reconfiguration scenarios: crash-recovery and live scale-out.

Two seeded, fully deterministic drivers on top of the chaos machinery:

* :func:`run_elastic_scenario` — the invariant-checked smoke: a DS-SMR
  cluster under light chaos runs a linearizability workload while a
  partitioned replica crash-restarts (checkpoint-install recovery,
  :mod:`repro.reconfig.recovery`) and a brand-new partition joins
  mid-run (:meth:`~repro.harness.cluster.Cluster.grow`). After healing
  and a cooldown, every shared invariant must hold — linearizability,
  exactly-once, convergence, placement, oracle accuracy and epoch
  agreement — and the emitted metrics JSON is byte-identical across
  same-seed runs (the CI smoke compares two runs with ``cmp``).
* :func:`run_scaleout_timeline` — the measurement behind figure E16:
  closed-loop clients saturate the deployment while a partition joins;
  the per-bucket completion timeline shows the throughput dip during
  bulk migration and the recovery past the old ceiling.
"""

from __future__ import annotations

import random

from repro.checkers import History, KvSequentialSpec, check_linearizable
from repro.harness.faults import make_crash_restart
from repro.harness.invariants import cluster_invariants
from repro.harness.kvbed import build_kv_cluster, kv_command, spawn_wave
from repro.harness.report import format_table
from repro.net import FailureInjector
from repro.smr import Command, ExecutionModel

#: Preloaded keys (spread over the two initial partitions).
ELASTIC_KEYS = tuple(f"k{i:02d}" for i in range(24))

#: Command-mix thresholds (get / incr / swap, see ``kvbed.MIX``): more
#: increments and fewer sums than the bed's default.
ELASTIC_MIX = (0.30, 0.70, 0.88)

DEADLINE_MS = 12_000.0
SETTLE_MS = 400.0
BUCKET_MS = 40.0


def _timeline(completions, end: float, bucket_ms: float = BUCKET_MS):
    """Completed-ops count per ``bucket_ms`` bucket of virtual time."""
    buckets = [0] * (int(end // bucket_ms) + 1)
    for at in completions:
        index = int(at // bucket_ms)
        if index < len(buckets):
            buckets[index] += 1
    return buckets


def format_elastic_report(data: dict) -> str:
    """The scenario's table; ``data`` is what
    :func:`run_elastic_scenario` returns."""
    metrics = data["metrics"]
    rows = [["ops", f"{data['ops']}/{data['ops_expected']}"],
            ["finished-ms", (f"{data['finished_at']:.0f}"
                             if data["finished_at"] is not None
                             else "stuck")],
            ["epoch", data["epoch"]],
            ["newcomer-keys", data["newcomer_keys"]],
            ["recovery", "installed" if metrics["reconfig.recoveries"]
             else "MISSING"],
            ["keys-migrated", metrics["reconfig.keys_migrated"]],
            ["checkpoints", metrics["reconfig.checkpoints"]],
            ["verdict", "FAIL" if data["violations"] else "ok"]]
    lines = [f"elastic scenario: seed={data['seed']} "
             f"scheme={data['scheme']}",
             "", format_table(["metric", "value"], rows)]
    if data["violations"]:
        lines.append("")
        lines.extend(f"  - {violation}" for violation in data["violations"])
    return "\n".join(lines)


def run_elastic_scenario(seed: int = 0, scheme: str = "dssmr",
                         num_clients: int = 4, ops_per_client: int = 36,
                         chaos: bool = True,
                         crash_at: float = 60.0,
                         recover_after: float = 80.0,
                         join_at: float = 220.0,
                         fault_end: float = 340.0) -> dict:
    """One full elastic scenario: crash-restart + live join under chaos.

    Returns the scrape; its canonical JSON is byte-stable across same-seed
    runs (the determinism artifact the CI smoke compares).
    ``figures.ELASTIC_CLAIMS`` are its verdict.
    """
    cluster = build_kv_cluster(scheme, seed, ("elastic", scheme),
                               ELASTIC_KEYS)
    env = cluster.env

    injector = FailureInjector(env, cluster.network,
                               cluster.seeds.child("elastic-faults"))
    if chaos:
        injector.drop_fraction(0.01)
        injector.delay_spikes(0.08, 8.0)
        injector.duplicate_fraction(0.05)
    env.schedule_callback(fault_end, injector.heal_all)

    victim = "p0s1"      # follower; the sequencer is a fixed point
    crash, restart = make_crash_restart(cluster, victim, "restart")
    injector.crash_restart_at(crash_at, victim, recover_after,
                              crash=crash, restart=restart)

    join_done = {"ack": None}

    def join_driver():
        yield env.timeout(join_at)
        join_done["ack"] = yield from cluster.grow("p2")

    env.process(join_driver(), name="elastic/join")

    # -- workload (same shape as the chaos campaign, paced so the
    # crash/recovery/join land mid-run) ------------------------------------
    history = History()
    wave = spawn_wave(cluster, num_clients, ops_per_client,
                      f"elastic/{seed}", keys=ELASTIC_KEYS, mix=ELASTIC_MIX,
                      think=(3.0, 9.0), history=history)

    end_marker = {"at": None}

    def driver():
        yield wave.done
        if env.now < fault_end + 10.0:
            yield env.timeout(fault_end + 10.0 - env.now)
        while join_done["ack"] is None:   # never under default timings
            yield env.timeout(20.0)
        # Cooldown: reads on a fresh client surface trailing log gaps.
        cooldown = cluster.new_client("cool")
        for key in ELASTIC_KEYS:
            yield from cooldown.run_command(
                Command(op="get", args={"key": key}, variables=(key,)))
        yield env.timeout(SETTLE_MS)
        end_marker["at"] = env.now

    env.process(driver(), name="elastic/driver")
    env.run(until=DEADLINE_MS)

    # -- invariants --------------------------------------------------------
    violations: list[str] = []
    if wave.completed != wave.expected or end_marker["at"] is None:
        violations.append(f"only {wave.completed}/{wave.expected} ops "
                          f"completed before the deadline")
    elif not check_linearizable(
            history, KvSequentialSpec({key: 0 for key in ELASTIC_KEYS})):
        violations.append("history is not linearizable")
    violations.extend(cluster_invariants(cluster))

    metrics = cluster.registry.scrape()
    wanted = [name for name in metrics
              if name.startswith(("reconfig.", "clients.", "oracle."))]
    end = end_marker["at"] or env.now
    return {
        "seed": seed, "scheme": scheme,
        "epoch": cluster.oracles[0].epoch if cluster.oracles else 0,
        "newcomer_keys": (len(cluster.servers["p2s0"].store.snapshot())
                          if "p2" in cluster.partitions else 0),
        "ops": wave.completed, "ops_expected": wave.expected,
        "finished_at": end_marker["at"],
        "timeline": _timeline(wave.completions, end),
        "metrics": {name: metrics[name] for name in sorted(wanted)},
        "violations": violations,
    }


def run_scaleout_timeline(seed: int = 7, elastic: bool = True,
                          duration_ms: float = 1_600.0,
                          join_at: float = 600.0,
                          num_clients: int = 12) -> dict:
    """Throughput timeline of a (possibly) scaling deployment (E16).

    Closed-loop clients saturate a 2-partition DS-SMR cluster; with
    ``elastic=True`` a third partition joins at ``join_at``. Returns the
    bucketed completion timeline plus before/during/after throughput.
    """
    keys = tuple(f"k{i:02d}" for i in range(48))
    cluster = build_kv_cluster(
        "dssmr", seed, ("fig16", "elastic" if elastic else "static"), keys,
        execution=ExecutionModel(base_ms=0.4, per_variable_ms=0.02))
    env = cluster.env

    completions: list[float] = []
    clients = [cluster.new_client(f"c{i}") for i in range(num_clients)]

    def loop(client, index):
        rng = random.Random(f"fig16/{seed}/{index}")
        while env.now < duration_ms:
            command = kv_command(rng, keys, ELASTIC_MIX)
            yield from client.run_command(command)
            completions.append(env.now)

    for index, client in enumerate(clients):
        env.process(loop(client, index), name=f"fig16/{client.name}")

    if elastic:
        def join_driver():
            yield env.timeout(join_at)
            yield from cluster.grow("p2")

        env.process(join_driver(), name="fig16/join")

    env.run(until=duration_ms + SETTLE_MS)

    def rate(start: float, end: float) -> float:
        span = (end - start) / 1000.0
        count = sum(1 for at in completions if start <= at < end)
        return count / span if span > 0 else 0.0

    dip_window = 160.0
    timeline = _timeline(completions, duration_ms)
    lo = int(join_at // BUCKET_MS)
    hi = min(int((join_at + dip_window) // BUCKET_MS), len(timeline))
    dip = (min(timeline[lo:hi]) / (BUCKET_MS / 1000.0)
           if lo < hi else 0.0)
    return {
        "elastic": elastic,
        "total_ops": len(completions),
        "timeline": timeline,
        "before": rate(200.0, join_at),
        "during": rate(join_at, join_at + dip_window),
        "dip": dip,
        "after": rate(duration_ms - 400.0, duration_ms),
        "keys_migrated": (cluster.reconfig.keys_migrated
                          if cluster.reconfig else 0),
        "epoch": cluster.oracles[0].epoch if cluster.oracles else 0,
    }
