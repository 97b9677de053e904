"""Self-healing acceptance campaign: crash every role, recover nothing.

``run_heal_campaign(n, seed)`` generates ``n`` scenarios per scheme in
which **every** victim role — a partition follower, a partition
sequencer (speaker) and, on dynamic schemes, an oracle replica — is
crashed, and the harness performs *no* recovery call of its own: the
schedules run with ``supervisor=True``, so the fuzz runner schedules the
crashes and walks away. Convergence (every client op completed, all
invariants intact) is then evidence that the accrual detector +
recovery supervisor loop did the healing autonomously.

The whole campaign is a pure function of ``(seed, n, schemes)`` and its
canonical JSON (:meth:`HealCampaignResult.to_dict`) is byte-identical
across runs — the CI smoke runs ``python -m repro heal --smoke`` twice
and ``cmp``s the outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.fuzz.generate import DEADLINE_MS, HORIZON_MS, shape_nodes
from repro.fuzz.schedule import FaultSchedule, normalize_schedule
from repro.harness.report import format_table
from repro.sim import SeedStream

#: Schemes the heal campaign exercises (both partitioned deployments;
#: dssmr adds the oracle role to the crash rota).
HEAL_SCHEMES = ("ssmr", "dssmr")

#: Crash windows per role (ms): staggered so the supervisor handles one
#: failure at a time, each with room to detect + repair before the next.
_ROLE_WINDOWS = {
    "follower": (30.0, 60.0),
    "speaker": (95.0, 130.0),
    "oracle": (160.0, 195.0),
}


def generate_heal_schedule(seed: int, index: int, scheme: str,
                           num_clients: int = 3,
                           ops_per_client: int = 8) -> FaultSchedule:
    """Draw heal scenario ``index`` for ``scheme`` (pure function).

    Every schedule crashes one node of *each* role the scheme has —
    follower by object-crash (amnesia), speaker and oracle by network
    blackout — plus light background loss, with ``supervisor=True`` so
    the runner performs no harness-driven recovery.
    """
    rng = SeedStream(seed).child("heal-gen").stream(f"{scheme}/s{index}")
    shape = shape_nodes(scheme)
    events: list[dict] = [{
        "kind": "drop", "at": 0.0, "end": HORIZON_MS,
        "fraction": round(rng.uniform(0.002, 0.01), 4),
    }]
    # Victims rotate with the scenario index and are drawn from distinct
    # partitions, so consecutive failures never gut one majority.
    rota = [("follower", shape["followers"], "restart"),
            ("speaker", shape["speakers"], "blackout")]
    if shape["oracles"]:
        rota.append(("oracle", shape["oracles"], "blackout"))
    for offset, (role, pool, mode) in enumerate(rota):
        node = pool[(index + offset) % len(pool)]
        lo, hi = _ROLE_WINDOWS[role]
        events.append({"kind": "crash", "at": round(rng.uniform(lo, hi), 1),
                       "node": node, "mode": mode,
                       # Unused under supervisor=True (the healer, not a
                       # timer, ends the outage); kept for replay tools.
                       "duration": 50.0})
    return normalize_schedule(FaultSchedule(
        seed=seed, index=index, scheme=scheme, events=tuple(events),
        horizon_ms=HORIZON_MS, deadline_ms=DEADLINE_MS,
        num_clients=num_clients, ops_per_client=ops_per_client,
        supervisor=True))


@dataclass
class HealCampaignResult:
    """All runs of one self-healing campaign, plus the MTTR rollup."""

    seed: int
    runs: tuple    # of repro.fuzz.runner.ScheduleRunResult

    @property
    def violations(self) -> list[tuple]:
        return [(run, violation) for run in self.runs
                for violation in run.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def totals(self) -> dict:
        """Campaign-wide MTTR accounting summed over every run."""
        keys = ("detections", "false_suspicions", "fences", "replaces",
                "reconnects", "suppressed", "deferred", "spare_joins")
        totals = {key: 0 for key in keys}
        mttr: list[float] = []
        for run in self.runs:
            heal = run.heal or {}
            for key in keys:
                totals[key] += heal.get(key, 0)
            for episode in heal.get("episodes", ()):
                if episode.get("closed_at") is not None \
                        and not episode.get("false_positive"):
                    mttr.append(episode["closed_at"]
                                - episode["opened_at"]
                                + episode["silent_ms"])
        totals["mttr_samples"] = len(mttr)
        totals["mttr_mean_ms"] = (round(sum(mttr) / len(mttr), 3)
                                  if mttr else None)
        totals["mttr_max_ms"] = round(max(mttr), 3) if mttr else None
        return totals

    def to_dict(self) -> dict:
        """Canonical campaign summary (the CI smoke byte-compares this)."""
        return {
            "seed": self.seed,
            "scenarios": [
                {
                    "index": run.schedule.index,
                    "scheme": run.schedule.scheme,
                    "digest": run.schedule.digest(),
                    "faults": run.schedule.describe(),
                    "run": run.to_dict(),
                }
                for run in self.runs
            ],
            "totals": self.totals(),
            "violations": len(self.violations),
        }

    def report(self) -> str:
        rows = []
        for run in self.runs:
            heal = run.heal or {}
            rows.append([
                run.schedule.index, run.schedule.scheme,
                run.schedule.describe(),
                f"{run.ops_completed}/{run.ops_expected}",
                (f"{run.finished_at:.0f}"
                 if run.finished_at is not None else "stuck"),
                heal.get("detections", 0),
                heal.get("replaces", 0),
                heal.get("reconnects", 0),
                heal.get("false_suspicions", 0),
                "ok" if run.ok else "FAIL",
            ])
        table = format_table(
            ["#", "scheme", "faults", "ops", "done-ms", "det",
             "repl", "reconn", "false+", "verdict"], rows)
        totals = self.totals()
        lines = [f"self-healing campaign: seed={self.seed}, "
                 f"{len(self.runs)} run(s), no harness recovery",
                 "", table, "",
                 f"totals: {totals['detections']} detection(s), "
                 f"{totals['replaces']} replace(s), "
                 f"{totals['reconnects']} reconnect(s), "
                 f"{totals['fences']} fence(s), "
                 f"{totals['false_suspicions']} false suspicion(s), "
                 f"{totals['suppressed']} suppressed"]
        if totals["mttr_mean_ms"] is not None:
            lines.append(f"MTTR: mean {totals['mttr_mean_ms']:.1f} ms, "
                         f"max {totals['mttr_max_ms']:.1f} ms over "
                         f"{totals['mttr_samples']} episode(s)")
        if self.ok:
            lines.append(f"no invariant violations in {len(self.runs)} "
                         f"runs")
        else:
            lines.append(f"{len(self.violations)} violation(s):")
            for run, violation in self.violations:
                lines.append(f"  - [#{run.schedule.index} "
                             f"{run.schedule.scheme}] {violation}")
        return "\n".join(lines)


def run_heal_campaign(num_scenarios: int = 4, seed: int = 0,
                      schemes: Sequence[str] = HEAL_SCHEMES,
                      num_clients: int = 3, ops_per_client: int = 8
                      ) -> HealCampaignResult:
    """Run ``num_scenarios`` all-roles-crash scenarios per scheme."""
    # Late import: the runner imports the cluster harness whose package
    # init pulls in chaos — at-import resolution would cycle through
    # repro.heal (paxos imports heal.timing).
    from repro.fuzz.runner import run_schedule

    runs = []
    for index in range(num_scenarios):
        for scheme in schemes:
            schedule = generate_heal_schedule(
                seed, index, scheme, num_clients=num_clients,
                ops_per_client=ops_per_client)
            runs.append(run_schedule(schedule))
    return HealCampaignResult(seed=seed, runs=tuple(runs))

