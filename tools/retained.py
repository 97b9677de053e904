#!/usr/bin/env python3
"""How much memory each history structure of a run still holds at its end.

Runs one sub-run of a ``benchmarks.e2e`` workload in this process (the
same deployment, clients and virtual duration as the benchmark's child,
whose building blocks it reuses) under ``tracemalloc``. At the end of the
run it clears one structure at a time, on every replica and oracle, and
prints the traced megabytes each clearing freed: what that structure held
alone. Objects it shares with the live state (a store value that is also
in a cached exchange message) stay and are not counted. On a durable
workload it then prints the bytes each node's simulated disk holds,
write-ahead log and checkpoints apart, and their sums per role.

    python tools/retained.py ssmr-hk-post
    python tools/retained.py dssmr-weak-post-wal --seed 101 --smoke

``--seed`` is the sub-run seed (``python3 -m benchmarks.e2e --seed 1``
runs sub-seeds 100..103); ``--smoke`` runs the benchmark's ``--smoke``
duration. Tracing slows the run about threefold.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.child import build_cluster, build_graph, start_clients  # noqa: E402
from benchmarks.e2e.workloads import (DEFAULT_SECONDS, SMOKE_SECONDS,  # noqa: E402
                                      WORKLOADS, spec_for)
from repro.ordering.floor import Retention  # noqa: E402
from repro.store.checkpoints import CKPT_PREFIX  # noqa: E402
from repro.store.wal import WAL_PREFIX  # noqa: E402


def _exchange_sent(replica) -> int:
    exchange = replica.exchange
    count = len(exchange._sent)
    exchange._sent.clear()
    exchange._kept = Retention()
    return count


def _my_ts(replica) -> int:
    amcast = replica.amcast
    count = len(amcast._my_ts)
    amcast._my_ts.clear()
    amcast._ts_kept = Retention()
    return count


def _delivered_uids(replica) -> int:
    count = len(replica.amcast._delivered_uids)
    replica.amcast._delivered_uids.clear()
    return count


def _executed(replica) -> int:
    count = len(replica.executed)
    replica.executed.clear()
    return count


def _log_uids(replica) -> int:
    log = replica.log
    count = len(log._applied_uids)
    log._applied_uids.clear()
    sequenced = getattr(log, "_sequenced_uids", None)
    if sequenced is not None:
        count += len(sequenced)
        sequenced.clear()
    return count


#: (name, clear one replica's structure and return its entry count)
STRUCTURES = (
    ("exchange._sent", _exchange_sent),
    ("amcast._my_ts", _my_ts),
    ("amcast._delivered_uids", _delivered_uids),
    ("executed", _executed),
    ("log uid sets", _log_uids),
)


def traced_mb() -> float:
    gc.collect()
    return tracemalloc.get_traced_memory()[0] / 1e6


def disk_bytes(disk, prefix: str) -> int:
    """Durable bytes of the files named ``prefix.*`` on ``disk``."""
    return sum(len(disk.read(path)) for path in disk.files(prefix + "."))


def print_disks(cluster) -> None:
    """Per node, then per role: WAL and checkpoint bytes on disk."""
    roles = {name: "partition" for name in cluster.servers}
    roles.update((oracle.node.name, "oracle") for oracle in cluster.oracles)
    totals: dict = {}
    print(f"{'disk':<24} {'wal KB':>9} {'ckpt KB':>9}")
    for name in sorted(roles):
        disk = cluster.disks.disk(name)
        held = (disk_bytes(disk, WAL_PREFIX), disk_bytes(disk, CKPT_PREFIX))
        role = totals.setdefault(roles[name], [0, 0])
        role[0] += held[0]
        role[1] += held[1]
        print(f"{name:<24} {held[0] / 1e3:>9.1f} {held[1] / 1e3:>9.1f}")
    for role, (wal, ckpt) in sorted(totals.items()):
        print(f"{role + ' replicas':<24} {wal / 1e3:>9.1f} {ckpt / 1e3:>9.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = spec_for(args.workload, args.seed,
                    SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    tracemalloc.start()
    graph = build_graph(spec)
    cluster = build_cluster(spec, graph)
    tally = {"issued": 0, "finished": 0}
    start_clients(spec, cluster, graph, tally)
    before_run = traced_mb()
    cluster.run(until=spec["vdur"] + spec["grace"])
    held = traced_mb()

    replicas = list(cluster.servers.values()) + list(cluster.oracles)
    print(f"{args.workload}, sub-seed {args.seed}, vdur "
          f"{spec['vdur']:g} ms: {tally['finished']} commands; traced "
          f"{before_run:.2f} MB before the run, {held:.2f} MB after")
    print(f"{'structure':<24} {'entries':>9} {'held MB':>9}")
    for name, clear in STRUCTURES:
        entries = sum(clear(replica) for replica in replicas)
        freed = held - traced_mb()
        held -= freed
        print(f"{name:<24} {entries:>9} {freed:>9.2f}")
    print(f"{'rest':<24} {'':>9} {held:>9.2f}")
    if cluster.disks is not None:
        print_disks(cluster)
    return 0


if __name__ == "__main__":
    sys.exit(main())
