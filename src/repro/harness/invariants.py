"""Reusable end-state invariant checks for a quiesced cluster.

Factored out of the chaos campaign so every harness that perturbs a
deployment — chaos scenarios, the elastic reconfiguration runner, tests —
checks the same guarantees:

* exactly-once execution on every live replica (no duplicated command ids);
* replicas of each partition converge on state and execution order;
* retired partitions are fully drained (hold no variables);
* each variable lives in exactly one partition, the oracle replicas agree
  on the location map, and the map matches the actual placement;
* every live epoch-aware component (partition servers and oracle replicas)
  agrees on the configuration epoch — the reconfiguration fence worked;
* no ordered log was asked for backfill below its floor (the compacted
  prefix was never needed).

Callers pass ``dead`` for replicas that are legitimately gone (crashed and
never recovered); those are excluded, everything else must hold.
"""

from __future__ import annotations

from typing import Iterable

from repro.reconfig.checkpoint import canonical_bytes


def _live_members(cluster, partition: str, dead: frozenset) -> list[str]:
    return [name for name in cluster.directory.members(partition)
            if name not in dead
            and not cluster.servers[name].node.crashed]


def cluster_invariants(cluster, dead: Iterable[str] = ()) -> list[str]:
    """Check every end-state guarantee; returns violations (empty = ok)."""
    dead = frozenset(dead)
    violations: list[str] = []

    # Exactly-once: no live replica executed a command id twice.
    for name in sorted(cluster.servers):
        if name in dead or cluster.servers[name].node.crashed:
            continue
        executed = cluster.servers[name].executed
        duplicated = len(executed) - len(set(executed))
        if duplicated:
            violations.append(f"{name} executed {duplicated} command(s) "
                              f"more than once")

    # Replica convergence within each live partition.
    for partition in cluster.partitions:
        live = _live_members(cluster, partition, dead)
        stores = {canonical_bytes(dict(cluster.servers[name].store.items()))
                  for name in live}
        if len(stores) > 1:
            violations.append(f"{partition} replicas diverge on state")
        orders = {tuple(cluster.servers[name].executed) for name in live}
        if len(orders) > 1:
            violations.append(f"{partition} replicas diverge on "
                              f"execution order")

    # Retired partitions must be drained empty.
    for partition in getattr(cluster, "retired_partitions", ()):
        for name in _live_members(cluster, partition, dead):
            leftover = len(cluster.servers[name].store)
            if leftover:
                violations.append(
                    f"retired partition {partition} still holds "
                    f"{leftover} variable(s) on {name}")

    # Oracle checks: unique placement, replica agreement, map accuracy.
    if cluster.oracles:
        placement: dict = {}
        for partition in cluster.partitions:
            live = _live_members(cluster, partition, dead)
            if not live:
                continue
            for key in cluster.servers[live[0]].store.keys():
                if key in placement:
                    violations.append(f"{key} present in both "
                                      f"{placement[key]} and {partition}")
                placement[key] = partition
        maps = {canonical_bytes(oracle.location)
                for oracle in cluster.oracles}
        if len(maps) > 1:
            violations.append("oracle replicas diverge on the location map")
        oracle_map = cluster.oracles[0].location
        for key, partition in sorted(placement.items(), key=str):
            if oracle_map.get(key) != partition:
                violations.append(
                    f"oracle maps {key} to {oracle_map.get(key)} "
                    f"but it lives in {partition}")
        for key in sorted(set(oracle_map) - set(placement), key=str):
            violations.append(f"oracle maps {key} to {oracle_map[key]} "
                              f"but no partition stores it")

    # Epoch agreement: the reconfiguration fence reached everyone.
    epochs: dict[str, int] = {}
    for oracle in cluster.oracles:
        if not oracle.node.crashed:
            epochs[oracle.node.name] = oracle.epoch
    known = (tuple(cluster.partitions)
             + tuple(getattr(cluster, "retired_partitions", ())))
    for partition in known:
        for name in _live_members(cluster, partition, dead):
            epochs[name] = cluster.servers[name].epoch
    if len(set(epochs.values())) > 1:
        detail = ", ".join(f"{name}={epoch}"
                           for name, epoch in sorted(epochs.items()))
        violations.append(f"configuration epochs diverge: {detail}")

    # Log compaction: nobody asked for backfill below a member's floor.
    owners = ([cluster.servers[name] for name in sorted(cluster.servers)]
              + list(cluster.oracles))
    for owner in owners:
        below = owner.log.below_floor_requests
        if below:
            violations.append(f"{owner.node.name} got {below} backfill "
                              f"request(s) below its log floor")

    return violations
