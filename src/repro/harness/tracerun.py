"""Seeded traced workload runs: the driver behind ``python -m repro trace``.

Runs a fault-free workload (same command mix as the chaos campaign)
against one scheme with a :class:`~repro.obs.tracing.CommandTracer`
attached, and returns the cluster plus the collected spans. Everything
derives from ``(scheme, seed, clients, ops)``, so two identical
invocations produce byte-identical span streams — the property the trace
CLI's determinism check (and its test) relies on.

Tracing itself never perturbs the simulation: spans touch no RNG and
schedule no events, so ``trace=False`` yields the exact same virtual-time
results (the zero-overhead-when-disabled guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.harness.cluster import Cluster
from repro.harness.kvbed import build_kv_cluster, spawn_wave
from repro.obs import CommandTracer
from repro.smr import ExecutionModel

#: Virtual-time bound of one traced run (ms); fault-free runs finish far
#: earlier, the bound only catches a wedged deployment.
DEADLINE_MS = 20_000.0


@dataclass
class TraceRun:
    """Outcome of one traced workload run."""

    scheme: str
    seed: int
    completed: int
    expected: int
    finished_at: Optional[float]    # virtual ms; None if the run got stuck
    tracer: Optional[CommandTracer]
    cluster: Cluster
    profiler: object = None

    @property
    def spans(self):
        return self.tracer.spans if self.tracer is not None else []


def run_traced_workload(scheme: str, seed: int = 7, num_clients: int = 3,
                        ops_per_client: int = 10, num_partitions: int = 2,
                        trace: bool = True, profiler=None,
                        slowdown: float = 1.0,
                        durability=None, parallel=None) -> TraceRun:
    """Run the seeded workload against ``scheme``, collecting spans.

    ``trace=False`` runs the identical workload with the null tracer —
    used by the overhead test to show disabled tracing changes nothing.
    ``profiler`` attaches a :class:`~repro.obs.profile.VirtualProfiler`
    (cost attribution rides the same hook sites as tracing). ``slowdown``
    scales the execution cost model — the perf gate's synthetic
    regression knob (1.0 = the real model). ``durability`` (a
    :class:`~repro.store.DurabilityConfig`) arms the write-ahead log —
    the perf gate's WAL-overhead measurement; the default ``None`` runs
    the exact pre-durability deployment. ``parallel`` (a
    :class:`~repro.smr.ExecutionConfig`) arms conflict-aware parallel
    execution; the default ``None`` runs the sequential executors.
    """
    tracer = CommandTracer() if trace else None
    base = ExecutionModel()
    execution = ExecutionModel(base_ms=base.base_ms * slowdown,
                               per_variable_ms=base.per_variable_ms * slowdown)
    cluster = build_kv_cluster(
        scheme, seed, (scheme, "trace"), tracer=tracer, profiler=profiler,
        num_partitions=num_partitions, execution=execution,
        durability=durability, parallel=parallel)
    wave = spawn_wave(cluster, num_clients, ops_per_client,
                      f"{seed}/{scheme}/trace")
    cluster.run(until=DEADLINE_MS)
    return TraceRun(
        scheme=scheme, seed=seed, completed=wave.completed,
        expected=wave.expected, finished_at=wave.done_at, tracer=tracer,
        cluster=cluster, profiler=profiler)
