"""Replayable repro artifacts: a violation, frozen as JSON.

An artifact bundles the (minimal) violating schedule with the full
recorded outcome of running it. Because a schedule determines its run
byte-for-byte, ``replay_artifact`` can re-execute the schedule and
compare the fresh outcome's canonical JSON against the recorded one —
a *byte-identical* match means the repro still reproduces; any drift
means the behaviour under that schedule changed (a fix landed, or a
regression).

Artifact schema (``format: repro-fuzz-repro/1``)::

    {
      "format": "repro-fuzz-repro/1",
      "schedule": { ...FaultSchedule.to_dict()... },
      "expected": { ...ScheduleRunResult.to_dict()... },
      "shrink":   { "probes": n, "kept": n,
                    "original_events": n, "minimal_events": n,
                    "summary": "..." }        # absent if never shrunk
    }

Files are written with sorted keys and a trailing newline so artifacts
are diff-friendly and byte-stable across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.canonical import canonical_json
from repro.fuzz.runner import ScheduleRunResult, run_schedule
from repro.fuzz.schedule import FaultSchedule
from repro.fuzz.shrink import ShrinkResult

ARTIFACT_FORMAT = "repro-fuzz-repro/1"


def make_artifact(run: ScheduleRunResult,
                  shrink: Optional[ShrinkResult] = None) -> dict:
    """Build the artifact dict for a violating run (optionally shrunk)."""
    if not run.violations:
        raise ValueError("artifacts record violations; this run passed")
    artifact = {
        "format": ARTIFACT_FORMAT,
        "schedule": run.schedule.to_dict(),
        "expected": run.to_dict(),
    }
    if shrink is not None:
        artifact["shrink"] = {
            "probes": shrink.probes,
            "kept": shrink.kept,
            "original_events": len(shrink.original.events),
            "minimal_events": len(shrink.minimal.events),
            "summary": shrink.summary(),
        }
    return artifact


def save_artifact(artifact: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        artifact = json.load(fh)
    fmt = artifact.get("format")
    if fmt != ARTIFACT_FORMAT:
        raise ValueError(f"not a fuzz repro artifact: format={fmt!r} "
                         f"(expected {ARTIFACT_FORMAT!r})")
    return artifact


@dataclass
class ReplayOutcome:
    """Result of re-running an artifact's schedule."""

    result: ScheduleRunResult     # the fresh run
    expected: dict                # the recorded run dict
    identical: bool               # canonical JSON byte-match
    still_violating: bool

    def report(self) -> str:
        lines = [f"schedule {self.result.schedule.digest()} "
                 f"[{self.result.schedule.scheme}]: "
                 f"{self.result.schedule.describe()}"]
        if self.identical:
            lines.append("replay: IDENTICAL — outcome matches the "
                         "recorded violation byte for byte")
        elif self.still_violating:
            lines.append("replay: DIVERGED but still violating — the "
                         "failure reproduces with a different signature")
        else:
            lines.append("replay: CLEAN — the recorded violation no "
                         "longer reproduces")
        for violation in self.result.violations:
            lines.append(f"  - {violation}")
        return "\n".join(lines)


def replay_artifact(artifact: dict) -> ReplayOutcome:
    """Re-run an artifact's schedule and byte-compare the outcome."""
    schedule = FaultSchedule.from_dict(artifact["schedule"])
    expected = artifact["expected"]
    result = run_schedule(schedule)
    return ReplayOutcome(result=result, expected=expected,
                         identical=(canonical_json(result.to_dict())
                                    == canonical_json(expected)),
                         still_violating=bool(result.violations))
