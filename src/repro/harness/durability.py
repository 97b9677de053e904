"""Durability campaign: crash-consistent cold start, proven end to end.

The experiment behind figure 20 and ``python -m repro durability``. Four
sections, every one seeded and byte-deterministic (the CLI byte-compares
two same-seed runs in CI):

* **Replay equivalence** — for every scheme, a chaos-style workload
  runs to completion (every replica, partition or oracle, captures a
  checkpoint half-way through it), the whole cluster loses power
  (every un-fsynced byte drops), cold-starts from disk alone with
  *zero* live peers — checkpoint install plus WAL suffix replay — and
  the replayed state — every partition member's store and execution
  order, every oracle replica's map — must hash-equal the live state it
  replaced:
  ``state == replay(checkpoint, wal)``, the fundamental WAL correctness
  property.
  A second workload wave then proves the revived cluster is live, and
  the end-state invariant suite must stay clean.
* **Power loss under live load** — the same whole-cluster power cycle,
  but *mid-workload* through the fuzzer's single execution path
  (:func:`~repro.fuzz.runner.run_schedule`): in-flight commands ride
  client retries across the outage and the recorded history must stay
  linearizable.
* **Fault ladder** — a follower's disk suffers a torn write *and* bit
  rot before an amnesia crash; its cold start must detect the damage
  (CRC, not trust), fall back to a peer state transfer
  (``peer_fallbacks`` rises), and converge to its speaker's exact
  state — corruption is never silently skipped.
* **Overhead & recovery time** — the same closed-loop workload with
  durability off and on (the fsync barrier's price, figure 20 left
  panel), and crash-to-converged recovery time of a cold local restart
  vs a full peer state transfer onto a blank disk (a replaced machine;
  right panel): the point of carrying a WAL is that restarting from
  local disk beats re-shipping the whole partition image.
"""

from __future__ import annotations

from repro.fuzz.runner import run_schedule
from repro.fuzz.schedule import FaultSchedule
from repro.harness.cluster import Cluster
from repro.harness.invariants import cluster_invariants
from repro.harness.kvbed import build_kv_cluster, spawn_wave
from repro.reconfig.checkpoint import state_checksum
from repro.store import DurabilityConfig, load_latest_checkpoint
from repro.store.wal import RECORD_HEADER, WAL_PREFIX

#: Schemes the replay-equivalence section proves.
SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")
SMOKE_SCHEMES = ("smr", "dssmr")

#: Documented ceiling on the WAL's added latency per command, in
#: virtual ms. The execution barrier waits for at most two fsyncs: the
#: rest of the flush already in flight, then the one that carries its
#: entry (each ``fsync_ms`` = 0.3 + its batch's bytes at 4096 bytes/ms).
#: A multi-partition command may pay that once per delivering group and
#: once more for its timestamp announcement. Figure 20 and the perf gate
#: assert the *measured* mean overhead stays under this bound.
OVERHEAD_BOUND_MS = 4.0


def _build(scheme: str, seed: int, tag: str,
           durability: bool = True, extra_keys: int = 0) -> Cluster:
    # Never-accessed ballast on partition 0: inflates the state image a
    # peer transfer must ship without perturbing the workload (the
    # recovery-time section sweeps this).
    return build_kv_cluster(
        scheme, seed, ("durability", tag),
        contents={f"x{index}": index for index in range(extra_keys)},
        assignment={f"x{index}": 0 for index in range(extra_keys)},
        durability=DurabilityConfig() if durability else None)


def _member_image(server) -> dict:
    return {"store": dict(server.store.items()),
            "executed": list(server.executed)}


def _oracle_image(oracle) -> dict:
    return {"location": oracle.location,
            "partition_sizes": oracle.partition_sizes,
            "map_version": oracle.map_version,
            "followed_moves": oracle.followed_moves,
            "epoch": oracle.epoch}


def _cluster_hash(cluster: Cluster) -> str:
    """One digest over every partition member's store and execution
    order and every oracle replica's map."""
    images = {name: _member_image(cluster.servers[name])
              for name in sorted(cluster.servers)}
    images.update((oracle.node.name, _oracle_image(oracle))
                  for oracle in cluster.oracles)
    return state_checksum(images)


# -- section 1: replay equivalence -------------------------------------------


def _replay_equivalence(scheme: str, seed: int, num_clients: int,
                        ops: int) -> dict:
    cluster = _build(scheme, seed, f"replay/{scheme}")
    first = spawn_wave(cluster, num_clients, ops, "w", prefix="w")
    # Half-way through the wave every replica captures a checkpoint, so
    # the cold start below installs it and replays only the suffix.
    while first.completed < first.expected // 2:
        cluster.run(until=cluster.env.now + 0.5)
    members = [*cluster.servers.values(), *cluster.oracles]
    for member in members:
        member.checkpointer.capture(reason="measurement")
    cluster.run(until=1_500.0)
    completed_first = first.done.triggered
    live_hash = _cluster_hash(cluster)

    cluster.power_fail()
    checkpoint_installs = sum(
        load_latest_checkpoint(cluster.disks.disk(m.node.name))[0]
        is not None for m in members)
    cluster.run(until=cluster.env.now + 50.0)
    cluster.power_restore()
    cluster.run(until=cluster.env.now + 1_000.0)
    replayed_hash = _cluster_hash(cluster)

    second = spawn_wave(cluster, 2, max(ops // 2, 3), "x", prefix="x")
    cluster.run(until=cluster.env.now + 1_500.0)
    violations = cluster_invariants(cluster)
    stats = cluster.disks.stats
    return {
        "scheme": scheme,
        "live_hash": live_hash,
        "replayed_hash": replayed_hash,
        "hash_equal": live_hash == replayed_hash,
        "first_wave_completed": completed_first,
        "second_wave_ops": second.completed,
        "second_wave_completed": second.done.triggered,
        "cold_starts": stats.cold_starts,
        "checkpoint_installs": checkpoint_installs,
        "peer_fallbacks": stats.peer_fallbacks,
        "records_replayed": stats.records_replayed,
        "violations": list(violations),
    }


# -- section 2: power loss under live load -----------------------------------


def _power_under_load(scheme: str, seed: int, num_clients: int,
                      ops: int) -> dict:
    schedule = FaultSchedule(
        seed=seed, index=0, scheme=scheme,
        events=(
            {"kind": "drop", "at": 0.0, "end": 300.0, "fraction": 0.01},
            {"kind": "power_loss", "at": 90.0, "duration": 60.0},
        ),
        num_clients=num_clients, ops_per_client=ops,
        durability=True)
    run = run_schedule(schedule)
    return {
        "scheme": scheme,
        "schedule": schedule.describe(),
        "ops_completed": run.ops_completed,
        "ops_expected": run.ops_expected,
        "linearizability": run.linearizability,
        "violations": list(run.violations),
        "ok": run.ok,
    }


# -- section 3: torn write + bit rot -> peer-fallback ladder ------------------


def _fault_ladder(scheme: str, seed: int, num_clients: int,
                  ops: int) -> dict:
    cluster = _build(scheme, seed, f"ladder/{scheme}")
    spawn_wave(cluster, num_clients, ops, "w", prefix="w")
    cluster.run(until=500.0)

    partition = cluster.partitions[0]
    members = list(cluster.directory.members(partition))
    speaker = cluster.directory.speaker(partition)
    victim = next(m for m in members if m != speaker)
    disk = cluster.disks.disk(victim)
    # Tear first, then rot the body of the first WAL record: replay reads
    # every record up to the first anomaly, so it must meet this CRC
    # failure. Rot drawn anywhere can land in the record the tear cuts
    # short, and replay then sees nothing but a clean torn tail.
    disk.tear_tail()
    first = disk.files(WAL_PREFIX + ".")[0]
    length = RECORD_HEADER.unpack_from(disk.read(first))[0]
    disk.inject_bitrot(first, (RECORD_HEADER.size,
                               RECORD_HEADER.size + length))
    cluster.servers[victim].crash()
    cluster.recover_server(victim)

    spawn_wave(cluster, 2, max(ops // 2, 3), "x", prefix="x")
    cluster.run(until=cluster.env.now + 2_000.0)
    violations = cluster_invariants(cluster)
    stats = cluster.disks.stats
    victim_hash = state_checksum(_member_image(cluster.servers[victim]))
    speaker_hash = state_checksum(_member_image(cluster.servers[speaker]))
    return {
        "scheme": scheme,
        "victim": victim,
        "peer_fallbacks": stats.peer_fallbacks,
        "corrupt_records": stats.corrupt_records,
        "torn_tails": stats.torn_tails,
        "converged": victim_hash == speaker_hash,
        "violations": list(violations),
    }


# -- section 4: overhead and recovery time -----------------------------------


def _overhead(scheme: str, seed: int, num_clients: int, ops: int) -> dict:
    """Mean client-observed command latency, durability off vs on.

    The WAL's price is the execution barrier: a command's reply waits
    for its log entry to be durable. Group commit bounds the wait to
    one commit window plus one (batched) fsync per delivering group.
    """
    latency = {}
    for durable in (False, True):
        cluster = _build(scheme, seed, f"overhead/{scheme}",
                         durability=durable)
        wave = spawn_wave(cluster, num_clients, ops, "w", prefix="w")
        cluster.run(until=4_000.0)
        key = "wal_on" if durable else "wal_off"
        latency[key] = (round(wave.latency_ms / wave.completed, 3)
                        if wave.done.triggered and wave.completed else None)
    off, on = latency["wal_off"], latency["wal_on"]
    overhead = round(on - off, 3) if off is not None and on is not None \
        else None
    return {
        "scheme": scheme,
        "mean_latency_ms_wal_off": off,
        "mean_latency_ms_wal_on": on,
        "overhead_ms": overhead,
        "bound_ms": OVERHEAD_BOUND_MS,
        "within_bound": (overhead is not None
                         and overhead <= OVERHEAD_BOUND_MS),
    }


def _converge_ms(cluster: Cluster, victim: str, speaker: str,
                 deadline_ms: float = 3_000.0):
    """Virtual ms until the victim's image matches its speaker's."""
    start = cluster.env.now
    step = 5.0
    while cluster.env.now - start < deadline_ms:
        cluster.run(until=cluster.env.now + step)
        victim_hash = state_checksum(
            _member_image(cluster.servers[victim]))
        speaker_hash = state_checksum(
            _member_image(cluster.servers[speaker]))
        if victim_hash == speaker_hash:
            return round(cluster.env.now - start, 3)
    return None


def _recovery_time(scheme: str, seed: int, num_clients: int, ops: int,
                   mode: str, extra_keys: int) -> dict:
    """Crash-to-converged time: cold local restart vs peer transfer.

    The steady-state deployment shape: a durable checkpoint exists (the
    periodic checkpointer fires every ``checkpoint_every`` entries; the
    short measurement wave forces one explicitly) so a cold local
    restart is checkpoint-install plus a short WAL suffix — flat in the
    state-image size. In ``peer_transfer`` mode the victim's disk is
    blank (a replaced machine), so the same recovery ladder ships the
    whole image from a peer in flow-controlled chunks, and that grows
    with it.
    """
    cluster = _build(scheme, seed, f"recovery/{scheme}/{mode}",
                     extra_keys=extra_keys)
    spawn_wave(cluster, num_clients, ops, "w", prefix="w")
    cluster.run(until=500.0)

    partition = cluster.partitions[0]
    speaker = cluster.directory.speaker(partition)
    victim = next(m for m in cluster.directory.members(partition)
                  if m != speaker)
    cluster.servers[victim].checkpointer.capture(reason="measurement")
    cluster.run(until=cluster.env.now + 20.0)   # let the capture fsync
    cluster.servers[victim].crash()
    if mode == "peer_transfer":
        cluster.disks.disk(victim).erase()
    cluster.recover_server(victim)
    converge = _converge_ms(cluster, victim, speaker)
    return {
        "scheme": scheme,
        "mode": mode,
        "extra_keys": extra_keys,
        "recovery_ms": converge,
        "violations": list(cluster_invariants(cluster)),
    }


# -- campaign ----------------------------------------------------------------


def run_durability_campaign(seed: int = 0, smoke: bool = False) -> dict:
    """Run every section; canonical, JSON-stable result dict. Figure 20's
    claims are its verdict."""
    schemes = SMOKE_SCHEMES if smoke else SCHEMES
    num_clients = 2 if smoke else 3
    ops = 5 if smoke else 10

    replay = [_replay_equivalence(s, seed, num_clients, ops)
              for s in schemes]
    power = [_power_under_load(s, seed, num_clients, ops)
             for s in (("dssmr",) if smoke else schemes)]
    ladder = [_fault_ladder(s, seed, num_clients, ops)
              for s in (("dssmr",) if smoke else ("smr", "dssmr"))]
    overhead = [_overhead(s, seed, num_clients, ops)
                for s in (("dssmr",) if smoke else ("ssmr", "dssmr"))]
    sizes = (0, 500) if smoke else (0, 500, 2000)
    recovery = [_recovery_time("dssmr", seed, num_clients, ops, mode,
                               extra_keys)
                for extra_keys in sizes
                for mode in ("cold_local", "peer_transfer")]
    return {
        "seed": seed,
        "smoke": smoke,
        "replay_equivalence": replay,
        "power_under_load": power,
        "fault_ladder": ladder,
        "overhead": overhead,
        "recovery_time": recovery,
    }


def format_durability_report(data: dict) -> str:
    lines = [f"durability campaign (seed {data['seed']}"
             f"{', smoke' if data['smoke'] else ''})", ""]
    lines.append("replay equivalence (power loss, zero live peers):")
    for r in data["replay_equivalence"]:
        lines.append(
            f"  {r['scheme']:9s} hash_equal={r['hash_equal']} "
            f"cold_starts={r['cold_starts']} "
            f"checkpoint_installs={r['checkpoint_installs']} "
            f"records_replayed={r['records_replayed']} "
            f"violations={len(r['violations'])}")
    lines.append("power loss under live load:")
    for p in data["power_under_load"]:
        lines.append(
            f"  {p['scheme']:9s} {p['ops_completed']}/{p['ops_expected']} "
            f"ops, {p['linearizability']}, "
            f"violations={len(p['violations'])}")
    lines.append("torn write + bit rot -> peer-fallback ladder:")
    for l in data["fault_ladder"]:
        lines.append(
            f"  {l['scheme']:9s} victim={l['victim']} "
            f"fallbacks={l['peer_fallbacks']} "
            f"converged={l['converged']} "
            f"violations={len(l['violations'])}")
    lines.append("WAL overhead (mean command latency):")
    for o in data["overhead"]:
        lines.append(
            f"  {o['scheme']:9s} off={o['mean_latency_ms_wal_off']}ms "
            f"on={o['mean_latency_ms_wal_on']}ms "
            f"overhead={o['overhead_ms']}ms "
            f"(bound {o['bound_ms']}ms)")
    lines.append("recovery time (crash -> converged with speaker):")
    for r in data["recovery_time"]:
        lines.append(f"  {r['mode']:13s} +{r['extra_keys']:4d} keys: "
                     f"{r['recovery_ms']}ms")
    return "\n".join(lines)
