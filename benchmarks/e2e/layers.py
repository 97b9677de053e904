"""Fold a cProfile of ``cluster.run`` into per-layer host time and counts.

Layers are decided by file path, so refactors inside a package need no
change here. Time in code outside every layer (builtins, ``heapq``,
``copy.deepcopy``, ``json``, ``zlib``, dataclass-generated methods) is
charged to the layer of the function that called into it.
"""

from __future__ import annotations

import importlib
import os

LAYERS = ("sim", "net", "ordering", "smr", "ssmr", "core", "graph", "app",
          "store", "obs", "driver", "other")

# First match wins; the final entry catches the rest of the package.
LAYER_PATHS = (
    ("/repro/sim/", "sim"),
    ("/repro/net/", "net"),
    ("/repro/ordering/", "ordering"),
    ("/repro/smr/", "smr"),
    ("/repro/resilience.py", "smr"),
    ("/repro/ssmr/", "ssmr"),
    ("/repro/core/", "core"),
    ("/repro/graph/", "graph"),
    ("/repro/dynastar/", "graph"),
    ("/repro/apps/", "app"),
    ("/repro/store/", "store"),
    ("/repro/reconfig/", "store"),
    ("/repro/obs/", "obs"),
    ("/benchmarks/e2e/", "driver"),
    ("/repro/workload/", "driver"),
    ("/repro/harness/", "driver"),
    ("/repro/", "other"),
)

# Layer boundaries whose call counts (and, for two, cumulative time) feed a
# per-layer metric: metric -> (function, how the metric is derived from it).
# A function that no longer exists makes its metrics null and is counted in
# trace.unresolved_boundaries; it never fails the run.
BOUNDARIES = {
    "sim.events_per_cmd":
        ("repro.sim.core:Environment.step", "calls/cmd"),
    "sim.host_events_per_s":
        ("repro.sim.core:Environment.step", "calls/untraced_s"),
    "sim.channel_puts_per_cmd":
        ("repro.sim.channel:Channel.put", "calls/cmd"),
    "net.host_us_per_msg":
        ("repro.net.transport:Network.send", "layer_us/call"),
    "ordering.host_us_per_msg":
        ("repro.net.transport:Network.send", "layer_us/call"),
    "ordering.log_submits_per_cmd":
        ("repro.ordering.log:SequencerLog.submit", "calls/cmd"),
    # Clients start multicasts through MulticastClient; group members (the
    # dynastar oracle issuing moves) through AtomicMulticast.
    "ordering.amcasts_per_cmd":
        ("repro.ordering.atomic_multicast:MulticastClient.multicast",
         "calls/cmd"),
    "ordering.member_amcasts_per_cmd":
        ("repro.ordering.atomic_multicast:AtomicMulticast.multicast",
         "calls/cmd"),
    "graph.partition_calls":
        ("repro.graph.partitioner:MultilevelPartitioner.partition", "calls"),
    "app.applies_per_cmd":
        ("repro.apps.chirper.service:ChirperStateMachine.apply", "calls/cmd"),
    "app.host_us_per_apply":
        ("repro.apps.chirper.service:ChirperStateMachine.apply",
         "layer_us/call"),
    "store.wal_appends_per_cmd":
        ("repro.store.wal:WriteAheadLog.append", "calls/cmd"),
    "store.fsyncs_per_cmd":
        ("repro.store.disk:SimulatedDisk.fsync", "calls/cmd"),
    "store.checkpoints":
        ("repro.reconfig.checkpoint:PartitionCheckpointer.capture", "calls"),
    "store.host_ms_per_checkpoint":
        ("repro.reconfig.checkpoint:PartitionCheckpointer.capture",
         "cum_ms/call"),
    "obs.flight_records_per_cmd":
        ("repro.obs.flight:FlightRecorder.record", "calls/cmd"),
}


def layer_of(filename: str):
    """Layer of a source file, or None for code outside every layer."""
    path = "/" + filename.replace("\\", "/")
    for fragment, layer in LAYER_PATHS:
        if fragment in path:
            return layer
    return None


def _label(key) -> str:
    filename, line, name = key
    if not line:
        return name  # a builtin
    here = os.getcwd() + os.sep
    if filename.startswith(here):
        filename = filename[len(here):]
    return f"{filename}:{line}:{name}"


def fold(stats: dict) -> dict:
    """Fold ``pstats.Stats(...).stats`` into layers.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "functions": [...]}``.
    Each function's self time goes to its own layer. Self time of a
    function outside every layer is split over its callers edge by edge
    (cProfile keeps self time per caller); where the caller is itself
    outside every layer the share is passed up again, in proportion to the
    cumulative time of the caller's own incoming edges, until it reaches a
    layer. The sum over layers equals the profile's total exactly.
    """
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    own = {key: layer_of(key[0]) for key in stats}
    pending: dict = {}  # foreign function -> self time not yet attributed

    def charge(key, seconds: float) -> None:
        layer = own[key]
        if layer is not None:
            layers[layer]["self_s"] += seconds
        else:
            pending[key] = pending.get(key, 0.0) + seconds

    for key, (_cc, ncalls, self_s, _cum, callers) in stats.items():
        if own[key] is not None:
            layers[own[key]]["self_s"] += self_s
            layers[own[key]]["calls"] += ncalls
            continue
        for caller, (_ecc, _enc, edge_self, _ecum) in callers.items():
            charge(caller, edge_self)
            self_s -= edge_self
        layers["other"]["self_s"] += self_s  # calls the profile saw no caller for

    # Pass foreign-to-foreign shares up the call graph. Recursion (deepcopy)
    # makes cycles, so iterate; what is left after the rounds is "other".
    for _round in range(64):
        if not pending:
            break
        batch, pending = pending, {}
        for key, seconds in batch.items():
            callers = stats[key][4]
            weight = sum(edge[3] for edge in callers.values())
            if weight <= 0.0:
                layers["other"]["self_s"] += seconds
                continue
            for caller, edge in callers.items():
                charge(caller, seconds * edge[3] / weight)
    layers["other"]["self_s"] += sum(pending.values())

    functions = [
        {"name": _label(key), "layer": own[key], "calls": ncalls,
         "self_s": self_s, "cum_s": cum_s,
         "callers": [{"name": _label(caller), "calls": edge[1],
                      "self_s": edge[2], "cum_s": edge[3]}
                     for caller, edge in sorted(callers.items())]}
        for key, (_cc, ncalls, self_s, cum_s, callers)
        in sorted(stats.items())]
    return {"layers": layers, "functions": functions}


def resolve_boundaries(stats: dict) -> dict:
    """``{target: {"calls", "cum_s"} | None}`` for every boundary function.

    A target resolves through its code object to the profile's own record;
    a function that exists but was never called has zero calls. None means
    the module, class or method is gone.
    """
    resolved = {}
    for target, _how in BOUNDARIES.values():
        if target in resolved:
            continue
        module_name, _, qualname = target.partition(":")
        try:
            obj = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            code = obj.__code__
        except (ImportError, AttributeError):
            resolved[target] = None
            continue
        record = stats.get(
            (code.co_filename, code.co_firstlineno, code.co_name))
        resolved[target] = {
            "calls": record[1] if record else 0,
            "cum_s": record[3] if record else 0.0}
    return resolved
