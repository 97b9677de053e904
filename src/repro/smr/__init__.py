"""Classic State Machine Replication (Section 3.1 of the paper).

Every replica holds the full service state and executes the same totally
ordered sequence of deterministic commands, implemented here over the atomic
broadcast special case of :mod:`repro.ordering`. This package also defines
the command and state-machine abstractions shared by S-SMR and DS-SMR.
"""

from repro.smr.command import Command, CommandType, Reply, ReplyStatus, new_command_id
from repro.smr.state_machine import (
    KeyValueStateMachine,
    StateMachine,
    VariableStore,
)
from repro.smr.execution import ExecutionModel
from repro.smr.parallel import (ConflictScheduler, Dispatch, ExecutionConfig,
                                ParallelExecutionModel)
from repro.smr.executor import OrderedExecutor
from repro.smr.replica import SmrReplica
from repro.smr.recovery import (RecoveryHost, RecoveringReplica,
                                recover_replica)
from repro.smr.client import BaseClient, SmrClient
from repro.smr.probject import (ObjectDirectory, ObjectStateMachine,
                                PRObject, object_key)

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
    "ObjectDirectory",
    "ObjectStateMachine",
    "OrderedExecutor",
    "PRObject",
    "RecoveringReplica",
    "RecoveryHost",
    "Reply",
    "ReplyStatus",
    "SmrClient",
    "SmrReplica",
    "StateMachine",
    "VariableStore",
    "recover_replica",
    "new_command_id",
    "object_key",
]
