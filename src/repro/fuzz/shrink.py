"""Delta-debugging minimisation of violating fault schedules.

Given a schedule whose run violates an invariant, ``shrink_schedule``
searches for a smaller schedule that *still* violates one, re-running
deterministically at every step:

1. **event removal** — ddmin-style: drop halves, then quarters, … then
   single events, keeping any subset that still fails;
2. **window shortening** — halve each message-fault window and each
   crash duration while the failure survives;
3. **workload reduction** — fewer clients, fewer ops per client, fewer
   keys;
4. **horizon tightening** — halve the fault horizon (normalisation
   clips the surviving events into it).

Every candidate is normalised before running, so a shrink step can
never manufacture an artefactual failure (e.g. a victim still dark at
the heal point). A run whose linearizability verdict is merely
``inconclusive`` does **not** count as failing — the shrinker only
chases real violations.

The result records every probe, so a repro artifact can show its own
shrink history (``schedules tried / failures kept``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.fuzz.runner import ScheduleRunResult, run_schedule
from repro.fuzz.schedule import (HEAL_MARGIN_MS, MIN_CRASH_MS,
                                 FaultSchedule, normalize_schedule)

#: Floors for workload reduction — below these the workload cannot
#: exercise the protocols (swap/sum need two keys; one client still
#: produces a checkable history).
MIN_CLIENTS = 1
MIN_OPS = 1
MIN_KEYS = 2
#: Shortest horizon the shrinker will try (ms) — must leave room for a
#: minimum-length crash plus the heal margin.
MIN_HORIZON_MS = MIN_CRASH_MS + HEAL_MARGIN_MS + 5.0


@dataclass
class ShrinkResult:
    """Outcome of one shrink search."""

    original: FaultSchedule
    minimal: FaultSchedule
    final_run: ScheduleRunResult   # the minimal schedule's failing run
    probes: int                    # schedules executed during the search
    kept: int                      # probes that still failed

    @property
    def events_removed(self) -> int:
        return len(self.original.events) - len(self.minimal.events)

    def summary(self) -> str:
        return (f"shrunk {len(self.original.events)} event(s) -> "
                f"{len(self.minimal.events)} in {self.probes} probe(s); "
                f"horizon {self.original.horizon_ms:.0f} -> "
                f"{self.minimal.horizon_ms:.0f} ms, workload "
                f"{self.original.num_clients}x{self.original.ops_per_client}"
                f" -> {self.minimal.num_clients}x"
                f"{self.minimal.ops_per_client}")


class _Prober:
    """Runs candidates, counting probes and caching the last failure."""

    def __init__(self, budget: int):
        self.budget = budget
        self.probes = 0
        self.kept = 0
        self.last_failure: ScheduleRunResult | None = None

    def fails(self, candidate: FaultSchedule) -> bool:
        if self.probes >= self.budget:
            return False
        self.probes += 1
        result = run_schedule(candidate)
        if result.violations:
            self.kept += 1
            self.last_failure = result
            return True
        return False


def _drop_events(schedule: FaultSchedule, prober: _Prober) -> FaultSchedule:
    """ddmin over the event list: try dropping chunks, halving the chunk
    size until single events; restart whenever a drop sticks."""
    events = list(schedule.events)
    chunk = max(len(events) // 2, 1)
    while chunk >= 1 and len(events) > 0:
        start, progressed = 0, False
        while start < len(events):
            candidate_events = events[:start] + events[start + chunk:]
            candidate = replace(schedule, events=tuple(candidate_events))
            if prober.fails(candidate):
                events = candidate_events
                progressed = True
                # Same position now holds the next chunk — do not advance.
            else:
                start += chunk
        if not progressed:
            chunk //= 2
    return replace(schedule, events=tuple(events))


def _shorten_windows(schedule: FaultSchedule,
                     prober: _Prober) -> FaultSchedule:
    """Halve each event's window/duration while the failure survives."""
    events = list(schedule.events)
    for index in range(len(events)):
        while True:
            event = events[index]
            shorter = dict(event)
            if "end" in event:
                length = event["end"] - event["at"]
                if length <= 10.0:
                    break
                shorter["end"] = round(event["at"] + length / 2, 2)
            elif event["kind"] == "crash":
                if event["duration"] <= 2 * MIN_CRASH_MS:
                    break
                shorter["duration"] = round(event["duration"] / 2, 2)
            else:
                break
            candidate_events = list(events)
            candidate_events[index] = shorter
            candidate = replace(schedule, events=tuple(candidate_events))
            if not prober.fails(candidate):
                break
            events = candidate_events
    return replace(schedule, events=tuple(events))


def _reduce_workload(schedule: FaultSchedule,
                     prober: _Prober) -> FaultSchedule:
    """Walk each workload dimension down while the failure survives."""
    for field, floor in (("num_clients", MIN_CLIENTS),
                         ("ops_per_client", MIN_OPS),
                         ("num_keys", MIN_KEYS)):
        while getattr(schedule, field) > floor:
            value = getattr(schedule, field)
            smaller = max(floor, value // 2 if value > 2 * floor
                          else value - 1)
            candidate = replace(schedule, **{field: smaller})
            if not prober.fails(candidate):
                break
            schedule = candidate
    return schedule


def _tighten_horizon(schedule: FaultSchedule,
                     prober: _Prober) -> FaultSchedule:
    """Halve the horizon while the failure survives (normalisation clips
    the events into the smaller window)."""
    while schedule.horizon_ms > 2 * MIN_HORIZON_MS:
        candidate = normalize_schedule(
            replace(schedule, horizon_ms=round(schedule.horizon_ms / 2, 1)))
        if not prober.fails(candidate):
            break
        schedule = candidate
    return schedule


def shrink_schedule(schedule: FaultSchedule, first_run: ScheduleRunResult,
                    max_probes: int = 120) -> ShrinkResult:
    """Minimise a violating schedule by delta debugging.

    ``first_run`` is the original failing run (so the search starts from
    a known failure without re-running it). ``max_probes`` bounds the
    total number of candidate executions; the search is greedy and keeps
    whatever minimum it reached when the budget runs out.
    """
    if not first_run.violations:
        raise ValueError("shrink_schedule needs a violating run to start "
                         "from")
    original = normalize_schedule(schedule)
    prober = _Prober(max_probes)
    prober.last_failure = first_run

    current = _drop_events(original, prober)
    current = _shorten_windows(current, prober)
    current = _reduce_workload(current, prober)
    current = _tighten_horizon(current, prober)
    # One more event pass: a reduced workload/horizon often unlocks drops
    # the first pass could not make.
    current = _drop_events(current, prober)
    current = normalize_schedule(current)

    final_run = prober.last_failure
    if final_run.schedule.digest() != current.digest():
        # The greedy walk's last failure is always the accepted minimum,
        # but guard against drift: re-run the minimum if they differ.
        final_run = run_schedule(current)
        prober.probes += 1
    return ShrinkResult(original=original, minimal=current,
                        final_run=final_run, probes=prober.probes,
                        kept=prober.kept)
