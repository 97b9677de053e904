"""The fault-schedule model: one timed, JSON-shaped fault plan.

A :class:`FaultSchedule` fully determines a run — deployment scheme,
workload shape, fault events and time horizon — so running it twice
produces byte-identical results, which is what makes shrinking and
replay artifacts possible.

Events are plain dicts (the JSON wire format, see
:meth:`~repro.net.failure.FailureInjector.apply_event` for the
message-level kinds). Node- and cluster-level kinds add:

* ``{"kind": "crash", "at": t, "node": name, "mode": m, "duration": d}``
  — ``mode`` is ``"restart"`` (amnesia + full recovery) or
  ``"blackout"`` (network cut + reconnect); which a node can take is
  :func:`~repro.harness.faults.crash_modes`'s rule: blackout for any
  node, restart for any replica of a durable deployment and for
  followers otherwise.
* ``{"kind": "join", "at": t, "partition": p}`` — live partition join
  (dynamic schemes; silently skipped elsewhere).
* ``{"kind": "leave", "at": t, "partition": p}`` — two-phase drain and
  retire of a previously joined partition.

Durable deployments (``durability=True``) add storage faults:

* ``{"kind": "disk_torn_write", "at": t, "node": n}`` — tear a seeded
  suffix off the node's newest durable file (a write that half-landed).
* ``{"kind": "disk_bitrot", "at": t, "node": n}`` — flip one seeded
  byte in a seeded durable file; surfaces as a CRC mismatch at the next
  cold start, never as silently wrong data.
* ``{"kind": "disk_slow", "at": t, "end": e, "node": n, "factor": f}``
  — multiply the node's fsync latency by ``f`` over the window.
* ``{"kind": "power_loss", "at": t, "duration": d}`` — the whole
  cluster loses power: every node object-crashes, every disk drops its
  un-fsynced bytes, and ``duration`` ms later the deployment cold
  starts from what the disks still hold.

Schedules are *normalised* before running: events outside the horizon
are dropped and crash durations are clamped so every victim is back
before the heal point. The runner and the shrinker both normalise, so a
shrink step that tightens the horizon can never manufacture a zombie
node (crashed at heal time) that would masquerade as a violation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Optional

from repro.canonical import canonical_json

#: Event kinds handled by the injector's declarative API.
MESSAGE_KINDS = ("drop", "delay", "duplicate", "reorder",
                 "partition", "partition_oneway")
#: Event kinds the runner handles against the deployment.
#: ``overload`` is an open-loop background traffic surge:
#: ``{"kind": "overload", "at": t, "end": e, "rate_per_s": r,
#: "clients": n}`` spawns ``n`` burst clients issuing read-only gets at
#: aggregate rate ``r`` over the window. Burst ops are excluded from the
#: completion and linearizability accounting (reads by design, so the
#: recorded history's spec is unaffected).
CLUSTER_KINDS = ("crash", "join", "leave", "overload",
                 "disk_torn_write", "disk_bitrot", "disk_slow",
                 "power_loss")

#: Minimum ms a clamped crash still keeps its victim down.
MIN_CRASH_MS = 5.0
#: Margin between the last recovery and the heal point.
HEAL_MARGIN_MS = 10.0


@dataclass(frozen=True)
class FaultSchedule:
    """One deterministic fuzz run: deployment, workload and fault plan."""

    seed: int
    index: int
    scheme: str
    events: tuple = ()
    horizon_ms: float = 300.0      # faults heal here
    deadline_ms: float = 9_000.0   # virtual-time budget of the whole run
    num_clients: int = 3
    ops_per_client: int = 8
    num_keys: int = 6
    # Test-only deliberate protocol bug (e.g. "no_dedup" disables the
    # server session tables, so client resends double-execute). Lives in
    # the schedule so a repro artifact replays the identical build.
    inject_bug: Optional[str] = None
    # Autonomous recovery: attach a ClusterHealer (repro.heal) and let
    # *it* drive crash recovery — the runner then schedules crash events
    # with no harness restart at all. Off by default so existing
    # schedules replay unchanged.
    supervisor: bool = False
    # Overload control (repro.qos): build the cluster with admission
    # control, adaptive batching and client AIMD windows armed. Off by
    # default so existing schedules replay unchanged.
    qos: bool = False
    # Durable storage (repro.store): every node gets a simulated disk
    # with a write-ahead log, crashes recover through the cold-start
    # ladder, and the disk_* / power_loss event kinds become live. Off
    # by default so existing schedules replay unchanged.
    durability: bool = False
    # Conflict-aware parallel execution (repro.smr.parallel): every
    # server executes on a 4-worker pool. The linearizability checker
    # then fuzzes the P-SMR equivalence argument under faults. Off by
    # default so existing schedules replay unchanged.
    parallel: bool = False

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "index": self.index,
            "scheme": self.scheme,
            "events": [dict(event) for event in self.events],
            "horizon_ms": self.horizon_ms,
            "deadline_ms": self.deadline_ms,
            "num_clients": self.num_clients,
            "ops_per_client": self.ops_per_client,
            "num_keys": self.num_keys,
            "inject_bug": self.inject_bug,
            "supervisor": self.supervisor,
            "qos": self.qos,
            "durability": self.durability,
            "parallel": self.parallel,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls(seed=data["seed"], index=data["index"],
                   scheme=data["scheme"],
                   events=tuple(dict(e) for e in data["events"]),
                   horizon_ms=data["horizon_ms"],
                   deadline_ms=data["deadline_ms"],
                   num_clients=data["num_clients"],
                   ops_per_client=data["ops_per_client"],
                   num_keys=data["num_keys"],
                   inject_bug=data.get("inject_bug"),
                   supervisor=data.get("supervisor", False),
                   qos=data.get("qos", False),
                   durability=data.get("durability", False),
                   parallel=data.get("parallel", False))

    def digest(self) -> str:
        """Ten-hex-digit schedule fingerprint for reports and filenames."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode()).hexdigest()[:10]

    def describe(self) -> str:
        """Compact single-line fault summary for reports."""
        parts = []
        for event in self.events:
            kind = event["kind"]
            if kind == "crash":
                parts.append(f"{event['mode']}({event['node']}"
                             f"@{event['at']:.0f}+{event['duration']:.0f})")
            elif kind in ("join", "leave"):
                parts.append(f"{kind}({event['partition']}"
                             f"@{event['at']:.0f})")
            elif kind == "overload":
                parts.append(f"burst({event['rate_per_s']:.0f}/s"
                             f"x{event['clients']}[{event['at']:.0f},"
                             f"{event['end']:.0f}))")
            elif kind in ("disk_torn_write", "disk_bitrot"):
                tag = "torn" if kind == "disk_torn_write" else "bitrot"
                parts.append(f"{tag}({event['node']}@{event['at']:.0f})")
            elif kind == "disk_slow":
                parts.append(f"slowdisk({event['node']}"
                             f"x{event['factor']:.0f}[{event['at']:.0f},"
                             f"{event['end']:.0f}))")
            elif kind == "power_loss":
                parts.append(f"power({event['at']:.0f}"
                             f"+{event['duration']:.0f})")
            elif kind in ("partition", "partition_oneway"):
                arrow = "~" if kind == "partition" else ">"
                parts.append(f"split{arrow}[{event['at']:.0f},"
                             f"{event['end']:.0f})")
            else:
                scope = ""
                if event.get("nodes"):
                    scope = "@" + "+".join(event["nodes"])
                if event.get("kinds"):
                    scope += ":" + "+".join(event["kinds"])
                parts.append(f"{kind}({event['fraction']:.3f}{scope}"
                             f"[{event['at']:.0f},{event['end']:.0f}))")
        if self.supervisor:
            parts.append("+supervisor")
        if self.qos:
            parts.append("+qos")
        if self.durability:
            parts.append("+durability")
        if self.parallel:
            parts.append("+parallel")
        return " ".join(parts) if parts else "no-faults"


def normalize_schedule(schedule: FaultSchedule) -> FaultSchedule:
    """Clamp events to the horizon so the heal point finds no open fault.

    * message-fault windows are clipped to ``[0, horizon)`` and dropped
      when empty;
    * crashes are dropped if they begin too close to the horizon, and
      their duration is clamped so recovery fires ``HEAL_MARGIN_MS``
      before the heal;
    * join/leave events past the horizon are dropped.

    Normalisation is idempotent and deterministic — the runner applies
    it on entry, so a schedule and its normal form behave identically.
    """
    horizon = schedule.horizon_ms
    events = []
    for event in schedule.events:
        event = dict(event)
        kind = event["kind"]
        if kind in MESSAGE_KINDS or kind in ("overload", "disk_slow"):
            # Windowed events (message faults, traffic bursts and disk
            # slowdowns) are clipped to the horizon and dropped when empty.
            if event["at"] >= horizon:
                continue
            event["end"] = min(event["end"], horizon)
            if event["end"] <= event["at"]:
                continue
        elif kind in ("crash", "power_loss"):
            latest_recover = horizon - HEAL_MARGIN_MS
            if event["at"] + MIN_CRASH_MS > latest_recover:
                continue
            event["duration"] = min(event["duration"],
                                    latest_recover - event["at"])
        elif kind in ("join", "leave", "disk_torn_write", "disk_bitrot"):
            if event["at"] >= horizon:
                continue
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        events.append(event)
    events.sort(key=lambda e: (e["at"], e["kind"],
                               json.dumps(e, sort_keys=True)))
    return replace(schedule, events=tuple(events))
