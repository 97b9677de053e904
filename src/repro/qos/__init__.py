"""Overload control and quality of service.

Nothing in DS-SMR protects a single partition, sequencer or oracle from
offered load above its capacity: queues grow without bound, the retry
loop multiplies the overload, and goodput collapses instead of
plateauing. This package supplies the four classic mechanisms, all
deterministic (virtual time, no wall clocks, seeded RNG only at the
campaign layer):

* :class:`AdmissionController` — token-bucket rate limiting plus
  CoDel-style shedding on sustained queueing delay, applied at the
  *sequencer* so every replica sees the same admitted sequence. Sheds
  become explicit ``OVERLOAD`` replies (backpressure), never silent
  drops.
* :class:`AdaptiveBatcher` — replaces a fixed ``batch_window_ms``:
  the window widens with the observed executor queue depth, so light
  load keeps low latency and heavy load gets amortization.
* :class:`AimdWindow` — the client-side congestion window; shrinks
  multiplicatively on ``OVERLOAD``/timeout and grows additively on
  success, pacing both fresh sends and retry backoff.
* :func:`classify_entry` — priority classes: control traffic (moves,
  reconfiguration fences, final timestamps, hints) is never
  shed and sorts ahead of client commands inside a batch window.

The package is mechanism only — it imports no protocol layers above
``repro.smr.command``; the harness (:mod:`repro.harness.cluster`) wires
controllers into servers, and :mod:`repro.harness.overload` drives the
goodput campaigns behind ``python -m repro qos`` and fig19.
"""

from repro.qos.admission import AdmissionController, CoDelShedder, TokenBucket
from repro.qos.batcher import AdaptiveBatcher
from repro.qos.config import QosConfig
from repro.qos.congestion import AimdWindow
from repro.qos.priority import PRIO_CLIENT, PRIO_CONTROL, classify_entry

__all__ = [
    "AdaptiveBatcher",
    "AdmissionController",
    "AimdWindow",
    "CoDelShedder",
    "PRIO_CLIENT",
    "PRIO_CONTROL",
    "QosConfig",
    "TokenBucket",
    "classify_entry",
]
