"""Chaos campaign: randomized fault schedules against every scheme.

Each scenario is drawn from a seeded generator — a mix of message drops,
latency spikes, duplication, bounded reordering, a network partition window
and a crash-restart whose victim is drawn by *role*: followers die with
amnesia and recover through checkpoint-install recovery
(:mod:`repro.reconfig.recovery`), whatever the scheme; speakers
and oracle replicas suffer a network blackout and reconnect with their
in-memory ordering state intact (no recovery path can rebuild a
sequencer). The campaign runs each scenario against classic SMR, S-SMR
and DS-SMR deployments whose clients use the resilience layer
(:mod:`repro.resilience`), then checks the system's guarantees after the
network heals:

* every client request completed before the deadline;
* the recorded history is linearizable (Wing–Gong checker);
* the shared end-state invariants (:mod:`repro.harness.invariants`):
  exactly-once execution, replica convergence, unique placement, oracle
  map accuracy and configuration-epoch agreement.

Everything — fault schedule, workload, backoff jitter — derives from the
campaign seed, so ``run_campaign(n, seed)`` is fully deterministic: two
runs produce byte-identical reports. The CLI entry point is
``python -m repro chaos --scenarios N --seed S``.

Execution is shared with the fuzzer: a :class:`ChaosScenario` converts to
a :class:`~repro.fuzz.schedule.FaultSchedule` (:meth:`to_schedule`) and
:func:`run_scenario` delegates to :func:`repro.fuzz.runner.run_schedule`,
so both harnesses exercise the exact same build/inject/workload/check
path and any chaos scenario can be shrunk or replayed with the fuzzer's
tooling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.fuzz.generate import shape_nodes
from repro.fuzz.schedule import FaultSchedule
from repro.harness.faults import VICTIM_ROLES
from repro.harness.kvbed import KEYS, build_kv_cluster, spawn_wave
from repro.harness.report import format_table
from repro.net import FailureInjector
from repro.sim import SeedStream

#: Schemes every scenario is run against.
CHAOS_SCHEMES = ("smr", "ssmr", "dssmr")

#: Virtual-time bound of one scenario run (ms).
DEADLINE_MS = 8_000.0


# ---------------------------------------------------------------------------
# scenario generation


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded fault schedule (times in virtual ms).

    Optional faults are ``None`` when the scenario does not include them;
    ``crash`` is ``(time, partition_index, recover_time)`` and
    ``crash_role`` picks the victim position: a *follower* dies with
    amnesia and runs full recovery, a *speaker* (sequencer) or *oracle*
    replica suffers a network blackout and reconnects with state intact.
    """

    index: int
    fault_end: float
    drop_fraction: float
    delay: Optional[tuple] = None        # (fraction, spike_ms)
    duplicate: Optional[tuple] = None    # (fraction, extra_copies)
    reorder: Optional[tuple] = None      # (fraction, window_ms)
    partition_window: Optional[tuple] = None   # (start, end)
    crash: Optional[tuple] = None        # (time, partition_index, recover)
    crash_role: str = "follower"         # follower | speaker | oracle

    def describe(self) -> str:
        parts = [f"drop={self.drop_fraction:.3f}"]
        if self.delay:
            parts.append(f"delay({self.delay[0]:.2f},{self.delay[1]:.0f}ms)")
        if self.duplicate:
            parts.append(f"dup({self.duplicate[0]:.2f})")
        if self.reorder:
            parts.append(f"reorder({self.reorder[0]:.2f})")
        if self.partition_window:
            start, end = self.partition_window
            parts.append(f"split[{start:.0f},{end:.0f})")
        if self.crash:
            parts.append(f"crash({self.crash_role}:p{self.crash[1]}"
                         f"@{self.crash[0]:.0f})")
        return " ".join(parts)

    def _crash_victim(self, scheme: str) -> tuple[str, str]:
        """Resolve ``crash_role`` to ``(node, mode)`` for ``scheme``.

        Mirrors :func:`repro.harness.faults.select_victim` but works on
        the *static* deployment shape (:func:`shape_nodes`), so the
        schedule can be built before any cluster exists. The oracle role
        degrades to speaker on schemes without an oracle group.
        """
        shape = shape_nodes(scheme)
        _, partition_index, _ = self.crash
        role = self.crash_role
        if role == "oracle" and not shape["oracles"]:
            role = "speaker"
        if role == "oracle":
            pool = shape["oracles"]
            return pool[partition_index % len(pool)], "blackout"
        if role == "speaker":
            pool = shape["speakers"]
            return pool[partition_index % len(pool)], "blackout"
        pool = shape["followers"]
        return pool[partition_index % len(pool)], "restart"

    def to_schedule(self, scheme: str, seed: int,
                    num_clients: int = 3, ops_per_client: int = 8,
                    dedup: bool = True,
                    supervisor: bool = False) -> FaultSchedule:
        """The equivalent :class:`FaultSchedule` (the fuzzer's format).

        The conversion is what lets :func:`run_scenario` delegate to the
        shared schedule runner — and what makes any chaos scenario
        shrinkable and replayable with the fuzzer's tooling.
        """
        shape = shape_nodes(scheme)
        events: list[dict] = [{"kind": "drop", "at": 0.0,
                               "end": self.fault_end,
                               "fraction": self.drop_fraction}]
        if self.delay:
            events.append({"kind": "delay", "at": 0.0,
                           "end": self.fault_end,
                           "fraction": self.delay[0],
                           "spike_ms": self.delay[1]})
        if self.duplicate:
            events.append({"kind": "duplicate", "at": 0.0,
                           "end": self.fault_end,
                           "fraction": self.duplicate[0],
                           "copies": self.duplicate[1]})
        if self.reorder:
            events.append({"kind": "reorder", "at": 0.0,
                           "end": self.fault_end,
                           "fraction": self.reorder[0],
                           "window_ms": self.reorder[1]})
        if self.partition_window:
            start, end = self.partition_window
            if len(shape["partitions"]) > 1:
                island_a = list(shape["servers"][shape["partitions"][0]])
                island_b = list(shape["servers"][shape["partitions"][1]])
            else:   # classic SMR: cut the follower off from the sequencer
                members = shape["servers"][shape["partitions"][0]]
                island_a, island_b = [members[0]], list(members[1:])
            events.append({"kind": "partition", "at": start, "end": end,
                           "island_a": island_a, "island_b": island_b})
        if self.crash:
            crash_time, _, recover_time = self.crash
            node, mode = self._crash_victim(scheme)
            events.append({"kind": "crash", "at": crash_time,
                           "node": node, "mode": mode,
                           "duration": recover_time - crash_time})
        return FaultSchedule(
            seed=seed, index=self.index, scheme=scheme,
            events=tuple(events), horizon_ms=self.fault_end,
            deadline_ms=DEADLINE_MS, num_clients=num_clients,
            ops_per_client=ops_per_client, num_keys=len(KEYS),
            inject_bug=None if dedup else "no_dedup",
            supervisor=supervisor)


def generate_scenario(seed: int, index: int,
                      fault_end: float = 300.0) -> ChaosScenario:
    """Draw scenario ``index`` of campaign ``seed`` (pure function)."""
    rng = SeedStream(seed).child("scenario").stream(f"s{index}")
    drop_fraction = round(rng.uniform(0.005, 0.025), 4)
    delay = duplicate = reorder = partition_window = crash = None
    crash_role = "follower"
    if rng.random() < 0.5:
        delay = (round(rng.uniform(0.05, 0.20), 3),
                 round(rng.uniform(5.0, 20.0), 2))
    if rng.random() < 0.5:
        duplicate = (round(rng.uniform(0.05, 0.20), 3), 1)
    if rng.random() < 0.5:
        reorder = (round(rng.uniform(0.10, 0.30), 3),
                   round(rng.uniform(1.0, 4.0), 2))
    if rng.random() < 0.4:
        start = round(rng.uniform(40.0, 180.0), 1)
        partition_window = (start,
                            round(start + rng.uniform(30.0, 60.0), 1))
    if rng.random() < 0.4:
        time = round(rng.uniform(40.0, 150.0), 1)
        crash = (time, rng.randrange(2),
                 round(time + rng.uniform(50.0, 100.0), 1))
        crash_role = VICTIM_ROLES[rng.randrange(len(VICTIM_ROLES))]
    return ChaosScenario(index=index, fault_end=fault_end,
                         drop_fraction=drop_fraction, delay=delay,
                         duplicate=duplicate, reorder=reorder,
                         partition_window=partition_window, crash=crash,
                         crash_role=crash_role)


# ---------------------------------------------------------------------------
# one scenario run


@dataclass
class ScenarioResult:
    """Outcome of one (scenario, scheme) run."""

    scheme: str
    scenario: ChaosScenario
    ops_completed: int
    ops_expected: int
    finished_at: Optional[float]    # virtual ms; None if the run got stuck
    timeouts: int
    resends: int
    messages_sent: int
    violations: tuple[str, ...]
    # Trace context for failed runs: stuck commands, anomaly flags and the
    # slowest command's timeline — enough to start debugging without
    # re-running the scenario. Empty when the run passed.
    trace_notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def run_scenario(scheme: str, scenario: ChaosScenario, seed: int,
                 num_clients: int = 3, ops_per_client: int = 8,
                 dedup: bool = True,
                 supervisor: bool = False) -> ScenarioResult:
    """Run one scenario against one scheme and check every invariant.

    Delegates to the schedule runner shared with the fuzzer
    (:func:`repro.fuzz.runner.run_schedule`): one build/inject/workload/
    check path for both harnesses. With ``supervisor=True`` the scenario
    runs under the autonomous recovery supervisor (:mod:`repro.heal`)
    and crash events get no harness-driven restart.
    """
    # Imported here, not at module top: the runner imports the cluster
    # harness, whose package init imports this module — a cycle that only
    # resolves when neither side needs the other at import time.
    from repro.fuzz.runner import run_schedule

    schedule = scenario.to_schedule(scheme, seed, num_clients=num_clients,
                                    ops_per_client=ops_per_client,
                                    dedup=dedup, supervisor=supervisor)
    run = run_schedule(schedule)
    return ScenarioResult(
        scheme=scheme, scenario=scenario,
        ops_completed=run.ops_completed, ops_expected=run.ops_expected,
        finished_at=run.finished_at, timeouts=run.timeouts,
        resends=run.resends, messages_sent=run.messages_sent,
        violations=run.violations, trace_notes=run.trace_notes)


# ---------------------------------------------------------------------------
# campaign


@dataclass
class CampaignResult:
    """All scenario runs of one campaign, plus the printable report."""

    seed: int
    results: tuple[ScenarioResult, ...]

    @property
    def violations(self) -> list[tuple[ScenarioResult, str]]:
        return [(result, violation) for result in self.results
                for violation in result.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        schemes = sorted({result.scheme for result in self.results},
                         key=CHAOS_SCHEMES.index)
        scenarios = {result.scenario.index for result in self.results}
        rows = []
        for result in self.results:
            rows.append([
                result.scenario.index, result.scheme,
                result.scenario.describe(),
                f"{result.ops_completed}/{result.ops_expected}",
                (f"{result.finished_at:.0f}"
                 if result.finished_at is not None else "stuck"),
                result.timeouts, result.resends,
                "ok" if result.ok else "FAIL",
            ])
        table = format_table(
            ["#", "scheme", "faults", "ops", "done-ms",
             "timeouts", "resends", "verdict"], rows)
        lines = [f"chaos campaign: seed={self.seed}, "
                 f"{len(scenarios)} scenario(s) x "
                 f"{'/'.join(schemes)}", "", table, ""]
        if self.ok:
            lines.append(f"no invariant violations in "
                         f"{len(self.results)} runs")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            for result, violation in self.violations:
                lines.append(f"  - [{result.scheme} #"
                             f"{result.scenario.index}] {violation}")
            for result in self.results:
                if result.ok or not result.trace_notes:
                    continue
                lines.append(f"  trace context [{result.scheme} "
                             f"#{result.scenario.index}]:")
                for note in result.trace_notes:
                    for note_line in note.splitlines():
                        lines.append(f"    {note_line}")
        return "\n".join(lines)


def run_campaign(num_scenarios: int = 10, seed: int = 0,
                 schemes: Sequence[str] = CHAOS_SCHEMES,
                 num_clients: int = 3, ops_per_client: int = 8,
                 dedup: bool = True,
                 supervisor: bool = False) -> CampaignResult:
    """Run ``num_scenarios`` seeded scenarios against every scheme."""
    results = []
    for index in range(num_scenarios):
        scenario = generate_scenario(seed, index)
        for scheme in schemes:
            results.append(run_scenario(
                scheme, scenario, seed, num_clients=num_clients,
                ops_per_client=ops_per_client, dedup=dedup,
                supervisor=supervisor))
    return CampaignResult(seed=seed, results=tuple(results))


# ---------------------------------------------------------------------------
# overhead measurement (experiment E15)


def run_overhead_point(scheme: str, drop_fraction: float, seed: int,
                       num_clients: int = 4,
                       ops_per_client: int = 15) -> dict:
    """Throughput/latency of the resilience layer at one drop rate."""
    cluster = build_kv_cluster(scheme, seed,
                               (scheme, f"overhead{drop_fraction}"))
    if drop_fraction:
        injector = FailureInjector(cluster.env, cluster.network,
                                   cluster.seeds.child("overhead"))
        injector.drop_fraction(drop_fraction)
    wave = spawn_wave(cluster, num_clients, ops_per_client,
                      f"{seed}/{scheme}/overhead/{drop_fraction}")
    cluster.run(until=DEADLINE_MS * 4)
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
