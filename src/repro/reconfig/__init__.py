"""Elastic reconfiguration: checkpoints, state transfer, join/leave.

The subsystem behind the scalable part of *dynamic scalable* SMR:

* :mod:`repro.reconfig.checkpoint` — deterministic, epoch-tagged
  snapshots of one partition replica (store + execution history +
  protocol state + oracle location-map slice);
* :mod:`repro.reconfig.transfer` — chunked, resumable bulk state
  transfer of those checkpoints over ``repro.net``, with flow control
  and per-chunk integrity checks;
* :mod:`repro.reconfig.manager` — the :class:`ReconfigurationManager`
  drives live partition joins (epoch fence + bulk rebalance onto the
  newcomer) and leaves (drain + redistribute + retire);
* :mod:`repro.reconfig.recovery` — crash-recovery of a replica by
  installing a peer checkpoint and replaying the ordered-log suffix
  (rung 2 of the recovery ladder, :mod:`repro.store.coldstart`).
"""

from repro.reconfig.checkpoint import (FrozenCheckpoint, PartitionCheckpoint,
                                       PartitionCheckpointer,
                                       canonical_bytes, state_checksum)
from repro.reconfig.manager import ReconfigError, ReconfigurationManager
from repro.reconfig.recovery import (PartitionRecovery,
                                     recover_partition_server)
from repro.reconfig.transfer import CheckpointHost, StateTransfer

__all__ = [
    "CheckpointHost",
    "FrozenCheckpoint",
    "PartitionCheckpoint",
    "PartitionCheckpointer",
    "PartitionRecovery",
    "ReconfigError",
    "ReconfigurationManager",
    "StateTransfer",
    "canonical_bytes",
    "recover_partition_server",
    "state_checksum",
]
