"""Deterministic fault-schedule fuzzer (``python -m repro fuzz``).

The fuzzer turns the simulator into a standing correctness weapon:

* :mod:`repro.fuzz.schedule` — the schedule model: one seeded, timed
  list of fault events (message faults, asymmetric partitions, crashes
  of *any* node including sequencers and oracle replicas, reconfig
  join/leave) plus the workload shape, all JSON-serialisable.
* :mod:`repro.fuzz.generate` — pure seeded generation: the fuzzer's
  full fault vocabulary over all schemes, the chaos campaign's fault
  mixes and the self-healing campaign's every-role crashes.
* :mod:`repro.fuzz.runner` — the schedule-driven runner: build a
  deployment, apply the schedule, run the linearizability workload,
  check every invariant.
* :mod:`repro.fuzz.shrink` — delta-debugging minimisation of violating
  schedules: drop events, shorten windows, reduce the workload, tighten
  the horizon — re-running deterministically at every step.
* :mod:`repro.fuzz.artifact` — replayable JSON repro artifacts
  (``python -m repro fuzz --replay <artifact>`` reproduces the recorded
  violation byte-identically).
* :mod:`repro.fuzz.campaign` — one campaign for all three generators
  (``repro fuzz``, ``repro chaos``, ``repro heal``): a seed plus a list
  of schedules, run, shrunk and archived, with a printable report and a
  canonical JSON summary (the CI smokes byte-compare two same-seed
  runs).
"""

from repro.fuzz.artifact import (load_artifact, make_artifact,
                                 replay_artifact, save_artifact)
from repro.fuzz.campaign import Campaign, heal_totals, run_campaign
from repro.fuzz.generate import (CHAOS_SCHEMES, HEAL_SCHEMES,
                                 chaos_schedule, generate_heal_schedule,
                                 generate_schedule)
from repro.fuzz.runner import ScheduleRunResult, run_schedule
from repro.fuzz.schedule import FaultSchedule, normalize_schedule
from repro.fuzz.shrink import ShrinkResult, shrink_schedule

__all__ = [
    "CHAOS_SCHEMES",
    "Campaign",
    "FaultSchedule",
    "HEAL_SCHEMES",
    "ScheduleRunResult",
    "ShrinkResult",
    "chaos_schedule",
    "generate_heal_schedule",
    "generate_schedule",
    "heal_totals",
    "load_artifact",
    "make_artifact",
    "normalize_schedule",
    "replay_artifact",
    "run_campaign",
    "run_schedule",
    "save_artifact",
    "shrink_schedule",
]
