"""Fault campaigns: a seed plus a list of schedules — run, shrink, report.

``run_campaign(seed, schedules)`` runs every :class:`FaultSchedule`
through :func:`~repro.fuzz.runner.run_schedule` and — when a run
violates an invariant — shrinks the schedule to a minimal reproducer and
(optionally) writes the replay artifact to disk. ``repro fuzz``,
``repro chaos`` and ``repro heal`` differ only in the generator that
yields the schedules (:mod:`repro.fuzz.generate`); they share this one
result, its JSON and its report. A campaign is a pure function of its
schedules: the printable report and the canonical JSON summary are
byte-identical across runs, which is what the CI smokes check.

A campaign passes only when no run violates an invariant *and* every
run's linearizability verdict is conclusive: an ``inconclusive``
Wing–Gong verdict (checker budget exhausted) is a gap in the evidence,
not a pass — though, like the runner and the shrinker, the campaign
does not call it a violation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.checkers import INCONCLUSIVE
from repro.fuzz.artifact import make_artifact, save_artifact
from repro.fuzz.runner import ScheduleRunResult, run_schedule
from repro.fuzz.schedule import FaultSchedule
from repro.fuzz.shrink import ShrinkResult, shrink_schedule
from repro.harness.report import format_table

#: ClusterHealer counters a campaign sums over its runs.
HEAL_COUNTERS = ("detections", "false_suspicions", "fences", "replaces",
                 "reconnects", "suppressed", "deferred", "spare_joins")


def heal_totals(runs: Iterable[ScheduleRunResult]) -> dict:
    """Campaign-wide MTTR accounting summed over every run's ``heal``."""
    totals = {key: 0 for key in HEAL_COUNTERS}
    mttr: list[float] = []
    for run in runs:
        heal = run.heal or {}
        for key in HEAL_COUNTERS:
            totals[key] += heal.get(key, 0)
        for episode in heal.get("episodes", ()):
            if episode.get("closed_at") is not None \
                    and not episode.get("false_positive"):
                mttr.append(episode["closed_at"] - episode["opened_at"]
                            + episode["silent_ms"])
    totals["mttr_samples"] = len(mttr)
    totals["mttr_mean_ms"] = (round(sum(mttr) / len(mttr), 3)
                              if mttr else None)
    totals["mttr_max_ms"] = round(max(mttr), 3) if mttr else None
    return totals


@dataclass
class Campaign:
    """All runs of one campaign, plus shrink results and artifacts.

    ``shrinks`` and ``artifact_paths`` are keyed by position in ``runs``:
    chaos and heal run one schedule index against several schemes.
    """

    seed: int
    runs: tuple[ScheduleRunResult, ...]
    shrinks: dict[int, ShrinkResult] = field(default_factory=dict)
    artifact_paths: dict[int, str] = field(default_factory=dict)

    @property
    def violations(self) -> list[tuple[ScheduleRunResult, str]]:
        return [(run, violation) for run in self.runs
                for violation in run.violations]

    @property
    def inconclusive(self) -> list[ScheduleRunResult]:
        """Runs that passed every check but linearizability could not
        be decided within the checker's budget."""
        return [run for run in self.runs
                if run.ok and run.linearizability == INCONCLUSIVE]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.inconclusive

    @property
    def healed(self) -> bool:
        """Whether any run carries supervisor (MTTR) data."""
        return any(run.heal is not None for run in self.runs)

    def _shrink_dict(self, position: int) -> Optional[dict]:
        shrink = self.shrinks.get(position)
        if shrink is None:
            return None
        return {"minimal_digest": shrink.minimal.digest(),
                "minimal_events": len(shrink.minimal.events),
                "original_events": len(shrink.original.events),
                "probes": shrink.probes}

    def to_dict(self) -> dict:
        """Canonical campaign summary (the CI smokes byte-compare this)."""
        data = {
            "seed": self.seed,
            "schedules": [
                {
                    "index": run.schedule.index,
                    "digest": run.schedule.digest(),
                    "scheme": run.schedule.scheme,
                    "faults": run.schedule.describe(),
                    "run": run.to_dict(),
                    "shrink": self._shrink_dict(position),
                }
                for position, run in enumerate(self.runs)
            ],
            "violations": len(self.violations),
        }
        if self.healed:
            data["totals"] = heal_totals(self.runs)
        return data

    def report(self, title: str = "fuzz") -> str:
        rows = []
        for position, run in enumerate(self.runs):
            shrink = self.shrinks.get(position)
            rows.append([
                run.schedule.index, run.schedule.scheme,
                run.schedule.digest(),
                run.schedule.describe(),
                f"{run.ops_completed}/{run.ops_expected}",
                (f"{run.finished_at:.0f}"
                 if run.finished_at is not None else "stuck"),
                run.linearizability,
                ("ok" if run.ok else
                 f"FAIL->{len(shrink.minimal.events)}ev"
                 if shrink else "FAIL"),
            ])
        table = format_table(
            ["#", "scheme", "digest", "faults", "ops", "done-ms",
             "linearizable", "verdict"], rows)
        lines = [f"{title} campaign: seed={self.seed}, "
                 f"{len(self.runs)} schedule(s)", "", table, ""]
        if self.healed:
            totals = heal_totals(self.runs)
            lines.append(f"totals: {totals['detections']} detection(s), "
                         f"{totals['replaces']} replace(s), "
                         f"{totals['reconnects']} reconnect(s), "
                         f"{totals['fences']} fence(s), "
                         f"{totals['false_suspicions']} false "
                         f"suspicion(s), {totals['suppressed']} suppressed")
            if totals["mttr_mean_ms"] is not None:
                lines.append(f"MTTR: mean {totals['mttr_mean_ms']:.1f} ms, "
                             f"max {totals['mttr_max_ms']:.1f} ms over "
                             f"{totals['mttr_samples']} episode(s)")
        inconclusive = self.inconclusive
        if not self.violations:
            lines.append(f"no invariant violations in {len(self.runs)} "
                         f"runs, {len(inconclusive)} inconclusive")
        else:
            lines.append(f"{len(self.violations)} violation(s), "
                         f"{len(inconclusive)} inconclusive:")
            for run, violation in self.violations:
                lines.append(f"  - [#{run.schedule.index} "
                             f"{run.schedule.scheme}] {violation}")
        for run in inconclusive:
            lines.append(f"  - [#{run.schedule.index} "
                         f"{run.schedule.scheme}] linearizability "
                         f"inconclusive")
        for position, run in enumerate(self.runs):
            label = f"#{run.schedule.index} {run.schedule.scheme}"
            if position in self.shrinks:
                shrink = self.shrinks[position]
                lines.append(f"  shrink [{label}]: {shrink.summary()}")
                lines.append(f"    minimal: {shrink.minimal.describe()}")
            if position in self.artifact_paths:
                lines.append(f"  artifact [{label}]: "
                             f"{self.artifact_paths[position]}")
            if not run.ok and run.trace_notes:
                lines.append(f"  trace context [{label}]:")
                for note in run.trace_notes:
                    for note_line in note.splitlines():
                        lines.append(f"    {note_line}")
        return "\n".join(lines)


def run_campaign(seed: int, schedules: Iterable[FaultSchedule],
                 shrink: bool = True, shrink_probes: int = 120,
                 artifacts_dir: Optional[str] = None) -> Campaign:
    """Run every schedule; shrink and archive any violation.

    ``seed`` labels the campaign and names its artifacts
    (``repro-seed{seed}-i{index}-{digest}.json``, the digest of the
    shrunk schedule when ``shrink`` is on).
    """
    runs: list[ScheduleRunResult] = []
    shrinks: dict[int, ShrinkResult] = {}
    artifact_paths: dict[int, str] = {}
    for position, schedule in enumerate(schedules):
        run = run_schedule(schedule)
        runs.append(run)
        if run.ok:
            continue
        shrunk = None
        if shrink:
            shrunk = shrink_schedule(schedule, run,
                                     max_probes=shrink_probes)
            shrinks[position] = shrunk
        if artifacts_dir is not None:
            os.makedirs(artifacts_dir, exist_ok=True)
            if shrunk is not None:
                artifact = make_artifact(shrunk.final_run, shrunk)
                digest = shrunk.minimal.digest()
            else:
                artifact = make_artifact(run)
                digest = run.schedule.digest()
            path = os.path.join(
                artifacts_dir,
                f"repro-seed{seed}-i{schedule.index}-{digest}.json")
            save_artifact(artifact, path)
            artifact_paths[position] = path
    return Campaign(seed=seed, runs=tuple(runs), shrinks=shrinks,
                    artifact_paths=artifact_paths)
