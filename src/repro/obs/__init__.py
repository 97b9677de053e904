"""Deterministic observability: causal spans, metrics, latency reports.

The simulation's virtual clock is global and monotonic, which makes
tracing exact rather than statistical: every protocol stage a command
passes through — oracle consults, moves, ordering, queueing, execution,
exchange coordination, retry backoff — is bracketed by a :class:`Span`
with virtual start/end timestamps and a parent link to the command's
root span. Client-side *stage* spans partition a command's end-to-end
latency exactly (the client's code between yields takes zero virtual
time), so per-stage sums reconcile against the latency figures by
construction.

Five pieces:

* :mod:`repro.obs.tracing` — :class:`CommandTracer` collects spans;
  :data:`NULL_TRACER` is the disabled default (zero overhead: all
  instrumentation sites guard on ``tracer.enabled``).
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, process-scoped
  counters/gauges/histograms registered once and scraped by the harness
  into ``ExperimentMetrics.extra``.
* :mod:`repro.obs.report` — latency-breakdown tables, per-command
  timelines, anomaly detection and the JSONL event schema behind
  ``python -m repro trace``.
* :mod:`repro.obs.profile` — :class:`VirtualProfiler` attributes
  simulated CPU and network cost to a scheme × role × stage tree
  (folded-stack/flamegraph output); :data:`NULL_PROFILER` is the
  disabled default behind the same ``enabled`` guard idiom.
* :mod:`repro.obs.flight` — :class:`FlightRecorder`, the always-on
  bounded per-node ring of recent protocol events that chaos/fuzz/heal
  dump alongside invariant violations and MTTR episodes.

How each instrument reaches a component: the tracer, the profiler and
the flight recorder ride the :class:`~repro.net.Network` (``Cluster``
hands it the first two; it holds the null object for one it does not
get), and every component reads them from its ``ProtocolNode`` as
``node.tracer``, ``node.profiler`` and ``node.flight(...)`` — so a node
built late (recovered, cold-restarted, grown) reports like the rest.
Metrics are registered once on ``Cluster.registry`` and read at scrape.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.profile import (NULL_PROFILER, NullProfiler, VirtualProfiler,
                               classify_node)
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.report import (
    command_timeline,
    dump_jsonl,
    find_anomalies,
    latency_breakdown,
    span_to_json,
    stage_sum_errors,
)
from repro.obs.tracing import (
    CommandTracer,
    NULL_TRACER,
    NullTracer,
    STAGE_NAMES,
    Span,
    trace_id_of,
)

__all__ = [
    "CommandTracer",
    "FlightRecorder",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullProfiler",
    "NullTracer",
    "STAGE_NAMES",
    "Span",
    "VirtualProfiler",
    "classify_node",
    "command_timeline",
    "dump_jsonl",
    "find_anomalies",
    "latency_breakdown",
    "span_to_json",
    "stage_sum_errors",
    "trace_id_of",
]
