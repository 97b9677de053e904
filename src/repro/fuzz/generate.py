"""Seeded schedule generation: the three campaigns' fault vocabularies.

Every generator is a pure function of ``(seed, index[, scheme])``:
schedule ``index`` of campaign ``seed`` is always the same object,
whatever ran before — the property that lets a campaign be re-run,
resumed or replayed from just ``(seed, index)``. A campaign is a seed
plus the schedules one of them yields (:func:`repro.fuzz.campaign.
run_campaign`):

* :func:`generate_schedule` (``repro fuzz``) draws over the FULL
  vocabulary: nothing is exempt, so sequencers, Paxos leaders and oracle
  replicas are crash victims (in the first mode
  :func:`~repro.harness.faults.crash_modes` allows their role), partitions
  may be asymmetric (one-way reachability), and reconfiguration
  join/leave events interleave with the faults.
* :func:`chaos_schedule` (``repro chaos``) draws one hand-shaped fault
  mix per index — whole-phase drop/delay/duplicate/reorder, a fixed
  two-island partition window and one crash whose victim is drawn by
  *role* — and runs it against every scheme of :data:`CHAOS_SCHEMES`.
* :func:`generate_heal_schedule` (``repro heal``) crashes one node of
  every role with no harness recovery, so the supervisor must heal.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.fuzz.schedule import FaultSchedule, normalize_schedule
from repro.harness.faults import VICTIM_ROLES, crash_modes
from repro.harness.kvbed import KEYS
from repro.sim import SeedStream

#: Schemes the generator draws from.
GENERATOR_SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")

#: Fault horizon / total virtual-time budget of one generated run (ms).
HORIZON_MS = 300.0
DEADLINE_MS = 9_000.0


def shape_nodes(scheme: str) -> dict:
    """Node names of the fuzzer's fixed deployment shape for ``scheme``
    (2 partitions x 2 replicas, +2 oracle replicas on dynamic schemes;
    classic SMR collapses to one partition). Pure — no cluster needed."""
    partitions = ("p0",) if scheme == "smr" else ("p0", "p1")
    servers = {p: (f"{p}s0", f"{p}s1") for p in partitions}
    oracles = ("or0", "or1") if scheme in ("dssmr", "dynastar") else ()
    return {
        "partitions": partitions,
        "servers": servers,
        # Sorted members => s0 is each group's speaker/sequencer.
        "speakers": tuple(servers[p][0] for p in partitions),
        "followers": tuple(servers[p][1] for p in partitions),
        "oracles": oracles,
        "all": tuple(n for p in partitions for n in servers[p]) + oracles,
    }


def _window(rng, horizon: float, min_len: float = 20.0,
            max_len: float = 120.0) -> tuple[float, float]:
    start = round(rng.uniform(0.0, horizon - min_len - 20.0), 1)
    end = round(min(start + rng.uniform(min_len, max_len), horizon), 1)
    return start, end


def _crash_events(rng, shape: dict, horizon: float,
                  durable: bool) -> list[dict]:
    """Up to two crash events with distinct victims drawn over every
    role, each in its role's first :func:`crash_modes` mode."""
    candidates = [(n, crash_modes(role, durable)[0])
                  for role in VICTIM_ROLES for n in shape[f"{role}s"]]
    count = 0
    if rng.random() < 0.65:
        count = 1
        if rng.random() < 0.35:
            count = 2
    victims = rng.sample(candidates, min(count, len(candidates)))
    events = []
    for node, mode in victims:
        at = round(rng.uniform(30.0, horizon * 0.55), 1)
        duration = round(rng.uniform(40.0, 120.0), 1)
        events.append({"kind": "crash", "at": at, "node": node,
                       "mode": mode, "duration": duration})
    return events


def _partition_event(rng, shape: dict, horizon: float) -> Optional[dict]:
    if rng.random() >= 0.45:
        return None
    at, end = _window(rng, horizon, min_len=30.0, max_len=70.0)
    nodes = list(shape["all"])
    # A non-trivial random split; oracles may land on either side (or be
    # isolated entirely), unlike the chaos campaign's fixed islands.
    cut = rng.randint(1, len(nodes) - 1)
    island_a = sorted(rng.sample(nodes, cut))
    island_b = sorted(set(nodes) - set(island_a))
    if rng.random() < 0.4:
        return {"kind": "partition_oneway", "at": at, "end": end,
                "srcs": island_a, "dsts": island_b}
    return {"kind": "partition", "at": at, "end": end,
            "island_a": island_a, "island_b": island_b}


def _reconfig_events(rng, scheme: str, horizon: float) -> list[dict]:
    if scheme not in ("dssmr", "dynastar") or rng.random() >= 0.4:
        return []
    join_at = round(rng.uniform(40.0, horizon * 0.5), 1)
    events = [{"kind": "join", "at": join_at, "partition": "p2"}]
    if rng.random() < 0.4:
        leave_at = round(join_at + rng.uniform(80.0, 140.0), 1)
        events.append({"kind": "leave", "at": leave_at, "partition": "p2"})
    return events


def _supervisor_events(rng, shape: dict, horizon: float) -> list[dict]:
    """False-suspicion vocabulary, drawn only for supervisor-enabled
    schedules (plain campaigns keep their historical event streams).

    * a *delay-spiked* node: all of its traffic (heartbeats included)
      rides spikes long enough to look like death — the detector's
      hysteresis plus the healer's replace cooldown must keep it from
      being double-replaced;
    * a *drop-isolated* node: a total but temporary blackout-by-loss.
      The supervisor will (correctly, from its vantage) confirm it and
      heal; when the window ends, the wrongly-suspected incarnation must
      be fenced out rather than split-brain with its replacement.
    """
    events: list[dict] = []
    if rng.random() < 0.45:
        node = shape["all"][rng.randrange(len(shape["all"]))]
        at, end = _window(rng, horizon, min_len=40.0, max_len=90.0)
        events.append({"kind": "delay", "at": at, "end": end,
                       "fraction": 1.0,
                       "spike_ms": round(rng.uniform(40.0, 100.0), 1),
                       "nodes": [node]})
    if rng.random() < 0.45:
        node = shape["all"][rng.randrange(len(shape["all"]))]
        at, end = _window(rng, horizon, min_len=40.0, max_len=90.0)
        events.append({"kind": "drop", "at": at, "end": end,
                       "fraction": 1.0, "nodes": [node]})
    return events


def _overload_events(rng, horizon: float) -> list[dict]:
    """Traffic-burst vocabulary, drawn only for qos-enabled schedules.

    An open-loop read-only surge well above the sequencers' admission
    rate: the controllers must shed it (explicit OVERLOAD backpressure)
    while the foreground workload still completes — including under
    whatever partition/crash faults the schedule combines it with.
    """
    events: list[dict] = []
    count = 1 if rng.random() < 0.75 else 2
    for _ in range(count):
        at, end = _window(rng, horizon, min_len=30.0, max_len=80.0)
        events.append({"kind": "overload", "at": at, "end": end,
                       "rate_per_s": round(rng.uniform(2_000.0, 6_000.0)),
                       "clients": rng.randint(4, 8)})
    return events


def _disk_events(rng, shape: dict, horizon: float) -> list[dict]:
    """Storage-fault vocabulary, drawn only for durability-enabled
    schedules.

    Torn writes and bit rot are latent: they damage durable bytes that
    only matter when a later crash cold-starts the victim from disk —
    so they are biased early, before the crash events' window. A slow
    disk stretches fsync latency, stressing the group-commit barrier
    under load. A rare whole-cluster power loss replaces the usual
    crash faults entirely: every node must come back from its own disk
    with zero live peers.
    """
    events: list[dict] = []
    if rng.random() < 0.12:
        # Power loss subsumes every other crash: nothing else to draw.
        at = round(rng.uniform(40.0, horizon * 0.4), 1)
        duration = round(rng.uniform(40.0, 100.0), 1)
        return [{"kind": "power_loss", "at": at, "duration": duration}]
    if rng.random() < 0.5:
        node = shape["all"][rng.randrange(len(shape["all"]))]
        kind = ("disk_torn_write" if rng.random() < 0.5
                else "disk_bitrot")
        events.append({"kind": kind, "node": node,
                       "at": round(rng.uniform(10.0, horizon * 0.4), 1)})
    if rng.random() < 0.35:
        node = shape["all"][rng.randrange(len(shape["all"]))]
        at, end = _window(rng, horizon, min_len=40.0, max_len=100.0)
        events.append({"kind": "disk_slow", "at": at, "end": end,
                       "node": node,
                       "factor": round(rng.uniform(4.0, 20.0), 1)})
    return events


def generate_schedule(seed: int, index: int,
                      schemes: Sequence[str] = GENERATOR_SCHEMES,
                      num_clients: int = 3, ops_per_client: int = 8,
                      num_keys: int = 6,
                      inject_bug: Optional[str] = None,
                      supervisor: bool = False,
                      overload: bool = False,
                      disk: bool = False,
                      parallel: bool = False) -> FaultSchedule:
    """Draw schedule ``index`` of campaign ``seed`` (pure function)."""
    rng = SeedStream(seed).child("fuzz-gen").stream(f"s{index}")
    scheme = schemes[rng.randrange(len(schemes))]
    shape = shape_nodes(scheme)
    horizon = HORIZON_MS

    events: list[dict] = [{
        # Baseline background loss for the whole fault phase.
        "kind": "drop", "at": 0.0, "end": horizon,
        "fraction": round(rng.uniform(0.005, 0.02), 4),
    }]
    if rng.random() < 0.5:
        at, end = _window(rng, horizon)
        events.append({"kind": "delay", "at": at, "end": end,
                       "fraction": round(rng.uniform(0.05, 0.2), 3),
                       "spike_ms": round(rng.uniform(5.0, 20.0), 2)})
    if rng.random() < 0.5:
        at, end = _window(rng, horizon)
        events.append({"kind": "duplicate", "at": at, "end": end,
                       "fraction": round(rng.uniform(0.05, 0.2), 3),
                       "copies": 1})
    if rng.random() < 0.5:
        at, end = _window(rng, horizon)
        events.append({"kind": "reorder", "at": at, "end": end,
                       "fraction": round(rng.uniform(0.1, 0.3), 3),
                       "window_ms": round(rng.uniform(1.0, 4.0), 2)})
    partition = _partition_event(rng, shape, horizon)
    if partition is not None:
        events.append(partition)
    disk_events = _disk_events(rng, shape, horizon) if disk else []
    power = any(e["kind"] == "power_loss" for e in disk_events)
    events.extend(disk_events)
    if not power:
        # A whole-cluster power loss subsumes individual crashes and
        # would race a mid-flight join/leave; it rides alone.
        events.extend(_crash_events(rng, shape, horizon, disk))
        events.extend(_reconfig_events(rng, scheme, horizon))
    if supervisor and not power:
        events.extend(_supervisor_events(rng, shape, horizon))
    if overload:
        events.extend(_overload_events(rng, horizon))
    if inject_bug is not None:
        # Sentinel trigger: a planted bug is only observable if a client
        # actually resends a command its server already executed, which
        # random background loss produces on some seeds only. A total
        # drop window on *reply* traffic forces the resend-after-execute
        # race deterministically, so every seed reaches the sentinel —
        # while leaving request/ordering traffic to the random faults.
        events.append({"kind": "drop", "at": 0.0,
                       "end": min(90.0, horizon), "fraction": 1.0,
                       "kinds": ["reply"]})

    return normalize_schedule(FaultSchedule(
        seed=seed, index=index, scheme=scheme, events=tuple(events),
        horizon_ms=horizon, deadline_ms=DEADLINE_MS,
        num_clients=num_clients, ops_per_client=ops_per_client,
        num_keys=num_keys, inject_bug=inject_bug, supervisor=supervisor,
        qos=overload, durability=disk, parallel=parallel))


#: Schemes every chaos index is run against.
CHAOS_SCHEMES = ("smr", "ssmr", "dssmr")

#: Virtual-time bound of one chaos run (ms).
CHAOS_DEADLINE_MS = 8_000.0


def chaos_schedule(seed: int, index: int, scheme: str,
                   num_clients: int = 3, ops_per_client: int = 8,
                   inject_bug: Optional[str] = None) -> FaultSchedule:
    """Draw chaos index ``index`` of campaign ``seed`` for ``scheme``.

    The fault mix depends on ``(seed, index)`` only, so every scheme of
    one index rides the same faults: message faults span the whole fault
    phase, the partition window cuts partition 0 from partition 1 (on
    classic SMR, the sequencer from its follower), and the crash victim
    is drawn by role — a *follower* dies with amnesia and recovers, a
    *speaker* or *oracle* replica is blacked out and reconnects (the
    oracle role falls back to speaker on schemes without oracles).
    """
    rng = SeedStream(seed).child("scenario").stream(f"s{index}")
    shape = shape_nodes(scheme)
    events: list[dict] = [{"kind": "drop", "at": 0.0, "end": HORIZON_MS,
                           "fraction": round(rng.uniform(0.005, 0.025), 4)}]
    if rng.random() < 0.5:
        events.append({"kind": "delay", "at": 0.0, "end": HORIZON_MS,
                       "fraction": round(rng.uniform(0.05, 0.20), 3),
                       "spike_ms": round(rng.uniform(5.0, 20.0), 2)})
    if rng.random() < 0.5:
        events.append({"kind": "duplicate", "at": 0.0, "end": HORIZON_MS,
                       "fraction": round(rng.uniform(0.05, 0.20), 3),
                       "copies": 1})
    if rng.random() < 0.5:
        events.append({"kind": "reorder", "at": 0.0, "end": HORIZON_MS,
                       "fraction": round(rng.uniform(0.10, 0.30), 3),
                       "window_ms": round(rng.uniform(1.0, 4.0), 2)})
    if rng.random() < 0.4:
        start = round(rng.uniform(40.0, 180.0), 1)
        end = round(start + rng.uniform(30.0, 60.0), 1)
        first = shape["servers"][shape["partitions"][0]]
        if len(shape["partitions"]) > 1:
            island_a = list(first)
            island_b = list(shape["servers"][shape["partitions"][1]])
        else:
            island_a, island_b = [first[0]], list(first[1:])
        events.append({"kind": "partition", "at": start, "end": end,
                       "island_a": island_a, "island_b": island_b})
    if rng.random() < 0.4:
        at = round(rng.uniform(40.0, 150.0), 1)
        partition_index = rng.randrange(2)
        recover = round(at + rng.uniform(50.0, 100.0), 1)
        role = VICTIM_ROLES[rng.randrange(len(VICTIM_ROLES))]
        if role == "oracle" and not shape["oracles"]:
            role = "speaker"
        pool = shape[f"{role}s"]
        events.append({"kind": "crash", "at": at,
                       "node": pool[partition_index % len(pool)],
                       "mode": crash_modes(role, False)[0],
                       "duration": recover - at})
    return FaultSchedule(
        seed=seed, index=index, scheme=scheme, events=tuple(events),
        horizon_ms=HORIZON_MS, deadline_ms=CHAOS_DEADLINE_MS,
        num_clients=num_clients, ops_per_client=ops_per_client,
        num_keys=len(KEYS), inject_bug=inject_bug)


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
    rota = [role for role in VICTIM_ROLES if shape[f"{role}s"]]
    for offset, role in enumerate(rota):
        pool = shape[f"{role}s"]
        node = pool[(index + offset) % len(pool)]
        lo, hi = _ROLE_WINDOWS[role]
        events.append({"kind": "crash", "at": round(rng.uniform(lo, hi), 1),
                       "node": node, "mode": crash_modes(role, False)[0],
                       # Unused under supervisor=True (the healer, not a
                       # timer, ends the outage); kept for replay tools.
                       "duration": 50.0})
    return normalize_schedule(FaultSchedule(
        seed=seed, index=index, scheme=scheme, events=tuple(events),
        horizon_ms=HORIZON_MS, deadline_ms=DEADLINE_MS,
        num_clients=num_clients, ops_per_client=ops_per_client,
        supervisor=True))
