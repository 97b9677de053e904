"""Trace reports: JSONL emission, latency breakdown, timelines, anomalies.

The JSONL schema is one span per line, keys sorted::

    {"end": 3.2, "meta": {}, "name": "consult", "node": "c0",
     "parent": "cmd-c0-1#root", "span": "cmd-c0-1#0", "stage": true,
     "start": 1.1, "trace": "cmd-c0-1"}

Everything here is a pure function of the span list, so reports are as
deterministic as the simulation that produced the spans: the same seed
yields byte-identical JSONL and tables.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, TextIO, Union

from repro.canonical import canonical_json
from repro.obs.registry import Histogram
from repro.obs.tracing import ROOT_NAME, Span, spans_by_trace

#: Stage display order in breakdown tables (stages absent from a run are
#: simply omitted).
STAGE_ORDER = ("consult", "move", "execute", "retry-wait",
               "queue", "order", "exchange")


# ---------------------------------------------------------------------------
# JSONL emission


def span_to_json(span: Span) -> str:
    """Canonical one-line JSON encoding of a span (keys sorted)."""
    return canonical_json({
        "trace": span.trace,
        "span": span.span_id,
        "parent": span.parent,
        "name": span.name,
        "node": span.node,
        "start": span.start,
        "end": span.end,
        "stage": span.stage,
        "meta": span.meta,
    })


def dump_jsonl(spans: Iterable[Span],
               out: Union[str, TextIO]) -> int:
    """Write spans to ``out`` (path or file object); returns span count."""
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            return dump_jsonl(spans, fh)
    count = 0
    for span in spans:
        out.write(span_to_json(span))
        out.write("\n")
        count += 1
    return count


# ---------------------------------------------------------------------------
# latency breakdown


def stage_histograms(spans: Iterable[Span]) -> dict[str, Histogram]:
    """Per-stage duration histograms (client stage spans only)."""
    stats: dict[str, Histogram] = {}
    for span in spans:
        if span.stage:
            stats.setdefault(span.name, Histogram(span.name)) \
                .observe(span.duration)
    return stats


def _roots(spans: Iterable[Span]) -> list[Span]:
    return [s for s in spans if s.parent is None and s.name == ROOT_NAME]


def latency_breakdown(spans: Sequence[Span], label: str = "") -> str:
    """Mean/p95 per stage plus the end-to-end line, as a text table.

    Stage rows partition end-to-end latency: their ``total`` column sums
    to the end-to-end total (see :func:`stage_sum_errors` for the
    per-command check).
    """
    stats = stage_histograms(spans)
    roots = _roots(spans)
    e2e = Histogram("end-to-end")
    for root in roots:
        e2e.observe(root.duration)
    grand_total = e2e.total()
    rows = []
    ordered = [n for n in STAGE_ORDER if n in stats] + \
              [n for n in sorted(stats) if n not in STAGE_ORDER]
    for name in ordered:
        hist = stats[name]
        share = hist.total() / grand_total * 100 if grand_total else 0.0
        rows.append([name, hist.count, _ms(hist.mean()),
                     _ms(hist.percentile(95)), _ms(hist.total()),
                     f"{share:.1f}%"])
    rows.append(["end-to-end", e2e.count, _ms(e2e.mean()),
                 _ms(e2e.percentile(95)), _ms(grand_total), "100.0%"])
    title = f"latency breakdown — {label}\n" if label else ""
    return title + _format_table(
        ["stage", "count", "mean-ms", "p95-ms", "total-ms", "share"], rows)


def stage_sum_errors(spans: Sequence[Span],
                     tolerance: float = 1e-6) -> list[str]:
    """Trace ids whose stage-span durations do not sum to the root span.

    Empty on a correct instrumentation: every client-side wait is
    bracketed by exactly one stage span, and client code between yields
    takes no virtual time.
    """
    grouped = spans_by_trace(spans)
    bad = []
    for trace, members in grouped.items():
        root = next((s for s in members if s.parent is None
                     and s.name == ROOT_NAME), None)
        if root is None:
            continue
        staged = sum(s.duration for s in members if s.stage)
        if abs(staged - root.duration) > tolerance:
            bad.append(trace)
    return bad


# ---------------------------------------------------------------------------
# per-command timelines


def command_timeline(spans: Sequence[Span], trace: str) -> str:
    """Indented virtual-time timeline of one command's spans."""
    members = [s for s in spans if s.trace == trace]
    if not members:
        return f"{trace}: no spans recorded"
    root = next((s for s in members if s.parent is None), None)
    lines = []
    if root is not None:
        meta = " ".join(f"{k}={v}" for k, v in sorted(root.meta.items()))
        lines.append(f"{trace}  {root.duration:.3f}ms  "
                     f"(t={root.start:.3f}..{root.end:.3f})"
                     + (f"  {meta}" if meta else ""))
        origin = root.start
    else:
        lines.append(f"{trace}  (root span still open)")
        origin = min(s.start for s in members)
    children = sorted((s for s in members if s.parent is not None),
                      key=lambda s: (s.start, s.span_id))
    for span in children:
        tag = "stage " if span.stage else "server"
        notes = " ".join(f"{k}={v}" for k, v in sorted(span.meta.items()))
        lines.append(f"  [{tag}] t+{span.start - origin:9.3f}  "
                     f"{span.name:<10} {span.duration:8.3f}ms  {span.node}"
                     + (f"  {notes}" if notes else ""))
    return "\n".join(lines)


def slowest_traces(spans: Sequence[Span], n: int = 3) -> list[str]:
    """Trace ids of the ``n`` slowest completed commands, slowest first."""
    roots = _roots(spans)
    roots.sort(key=lambda s: (-s.duration, s.trace))
    return [s.trace for s in roots[:n]]


# ---------------------------------------------------------------------------
# anomaly detection


def find_anomalies(spans: Sequence[Span], k: float = 3.0,
                   retry_threshold: int = 3,
                   consult_share_threshold: float = 0.4) -> list[str]:
    """Flag outliers worth a human look.

    * commands slower than ``k`` × the p95 end-to-end latency;
    * retry storms — commands with ``retry_threshold``+ backoff waits or
      timed-out attempts;
    * an oracle hot-spot — the consult stage eating more than
      ``consult_share_threshold`` of all command latency.
    """
    flags: list[str] = []
    roots = _roots(spans)
    e2e = Histogram()
    for root in roots:
        e2e.observe(root.duration)
    if roots:
        cutoff = k * e2e.percentile(95)
        for root in sorted(roots, key=lambda s: s.trace):
            if root.duration > cutoff:
                flags.append(f"slow command {root.trace}: "
                             f"{root.duration:.3f}ms > {k:.1f}x p95 "
                             f"({e2e.percentile(95):.3f}ms)")
    grouped = spans_by_trace(spans)
    for trace in sorted(grouped):
        members = grouped[trace]
        retries = sum(1 for s in members if s.stage
                      and (s.name == "retry-wait" or s.meta.get("timeout")))
        if retries >= retry_threshold:
            flags.append(f"retry storm {trace}: {retries} "
                         f"timeout/backoff wait(s)")
    stats = stage_histograms(spans)
    total = sum(h.total() for h in stats.values())
    consult = stats.get("consult")
    if consult is not None and total > 0:
        share = consult.total() / total
        if share > consult_share_threshold:
            flags.append(f"oracle hot-spot: consult stage is "
                         f"{share * 100:.1f}% of total command latency")
    return flags


# ---------------------------------------------------------------------------
# helpers


def _ms(value: float) -> str:
    return "-" if isinstance(value, float) and math.isnan(value) \
        else f"{value:.3f}"


def _format_table(headers: Sequence[str],
                  rows: Iterable[Sequence]) -> str:
    """Minimal monospace table (kept local: repro.harness imports obs)."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(str(h).ljust(widths[i])
                       for i, h in enumerate(headers)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)
