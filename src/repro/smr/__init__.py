"""Classic State Machine Replication (Section 3.1 of the paper).

Every replica holds the full service state and executes the same totally
ordered sequence of deterministic commands. Classic SMR = S-SMR at k = 1:
a deployment with ``scheme="smr"`` is one partition of
:class:`~repro.ssmr.SsmrServer` replicas (atomic broadcast is the
one-group case of :mod:`repro.ordering`'s atomic multicast, and a
single-partition command never exchanges signals), so this package holds
no replica or client of its own — only what every scheme shares: commands
and replies, state machines, the execution cost model, the ordered
executor loop, the worker pool and the client base class.
"""

from repro.smr.command import Command, CommandType, Reply, ReplyStatus
from repro.smr.state_machine import (
    KeyValueStateMachine,
    StateMachine,
    VariableStore,
)
from repro.smr.execution import ExecutionModel
from repro.smr.parallel import (ConflictScheduler, Dispatch, ExecutionConfig,
                                ParallelExecutionModel)
from repro.smr.executor import OrderedExecutor
from repro.smr.client import BaseClient

__all__ = [
    "BaseClient",
    "Command",
    "CommandType",
    "ConflictScheduler",
    "Dispatch",
    "ExecutionConfig",
    "ExecutionModel",
    "ParallelExecutionModel",
    "KeyValueStateMachine",
    "OrderedExecutor",
    "Reply",
    "ReplyStatus",
    "StateMachine",
    "VariableStore",
]
