"""Self-healing: φ-accrual failure detection + autonomous recovery.

The subsystem closes the detect → failover → state-transfer loop that
the harnesses used to script by hand:

* :mod:`repro.heal.timing` — one shared profile for every liveness
  timeout in the system (Paxos timers included).
* :mod:`repro.heal.detector` — the φ-accrual failure detector.
* :mod:`repro.heal.heartbeat` — per-node heartbeat emission.
* :mod:`repro.heal.supervisor` — leader-elected recovery supervisors
  ordering lease claims and recovery actions through their own Paxos log.
* :mod:`repro.heal.healer` — per-cluster wiring, exactly-once action
  execution, and the MTTR ledger.

The autonomous-recovery campaign behind ``python -m repro heal`` is a
fault campaign like any other: :func:`repro.fuzz.generate.
generate_heal_schedule` schedules run through
:func:`repro.fuzz.campaign.run_campaign`.

Import note: :mod:`repro.ordering.paxos` sources its timer defaults from
:mod:`repro.heal.timing`, so this ``__init__`` must not import anything
that needs :mod:`repro.ordering` at module load — the supervisor/healer
layers are exposed lazily instead.
"""

from repro.heal.detector import PHI_MAX, PhiAccrualDetector
from repro.heal.heartbeat import HEARTBEAT_KIND, HeartbeatEmitter
from repro.heal.timing import DEFAULT_TIMING, FAST_TIMING, TimingProfile

__all__ = [
    "PHI_MAX", "PhiAccrualDetector", "HEARTBEAT_KIND", "HeartbeatEmitter",
    "DEFAULT_TIMING", "FAST_TIMING", "TimingProfile",
    "HEAL_GROUP", "RecoverySupervisor", "ClusterHealer",
]

_LAZY = {
    "HEAL_GROUP": ("repro.heal.supervisor", "HEAL_GROUP"),
    "RecoverySupervisor": ("repro.heal.supervisor", "RecoverySupervisor"),
    "ClusterHealer": ("repro.heal.healer", "ClusterHealer"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    return getattr(importlib.import_module(module_name), attr)
