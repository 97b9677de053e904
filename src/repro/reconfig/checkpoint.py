"""Deterministic, epoch-tagged replica checkpoints.

A partition replica's state is *not* a pure function of its delivered
command sequence (unlike classic SMR): multi-partition execution couples it
to in-flight signal/variable exchanges, the Skeen multicast keeps pending
timestamp state, and the session table carries exactly-once obligations. A
checkpoint therefore captures everything a replacement replica needs to be
*behaviourally* identical from the capture point onward.

Each stateful component of a replica owns its part: one ``snapshot()``
(its state, by reference), one ``restore(state)``, and a ``TRANSIENT``
list of the attributes its snapshot leaves out. A checkpoint is a small
header plus ``components``, one snapshot per name
:meth:`~repro.smr.executor.OrderedExecutor.components` lists, in install
order: ``store``; ``replies`` (the session table); ``executor``
(execution history, settled key, epoch, queued deliveries and the
role's ``ROLE_STATE``); ``amcast`` (the atomic-multicast endpoint);
``exchange`` (the exchange buffer); ``log`` (the apply position,
bounding the log suffix to replay). Only the owning class knows its
snapshot's format: capture, install, transfer and checksum handle
``components`` generically. The oracle's store and history stay empty,
so the same checkpoint serves every group of a deployment.

Captures are synchronous in virtual time, hence consistent — and that
is also what makes a capture cheap. ``capture`` assembles the checkpoint
**by reference** from the live components and serialises it in **one**
:func:`~repro.store.checkpoints.freeze` pass. Nothing runs between the
assembly and the serialisation (``capture`` has no yields), so the bytes
are a point-in-time copy; no deep copy precedes them. The result is a
small :class:`FrozenCheckpoint` — the header fields plus ``payload`` —
and that payload *is* the snapshot: the durable store CRC-frames it
verbatim, and a consumer that needs fields calls ``thaw()`` for a
private :class:`PartitionCheckpoint` that shares no object with the
donor or with any other thaw.

Objects reachable twice (a store value that is also in the exchange's
outbound cache) thaw to the sharing the live donor already has. That is
harmless because of the contract every state machine keeps (see
:meth:`repro.smr.state_machine.StateMachine.apply`): **a value in the
store is replaced, never mutated in place** — the same contract
``SsmrServer._exec_access`` relies on when it ships a read value by
reference in an exchange message.

The checksum is computed on demand, by ``thaw()``, over a canonical
serialisation of the whole checkpoint (sorted dict keys, sorted sets,
objects by class name and fields), so equal states yield equal checksums
across runs and ``PYTHONHASHSEED`` values — the property behind the
byte-deterministic elastic scenarios and the state-transfer integrity
check. The periodic durable path never thaws and never pays for it:
CRC32 frames a durable image.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.store.checkpoints import freeze, thaw


def canonical_bytes(obj) -> bytes:
    """Stable byte serialisation: dicts sorted by key, sets sorted,
    objects by class name and fields."""
    return repr(_canonical(obj)).encode()


def _canonical(obj):
    if isinstance(obj, dict):
        return tuple(sorted(((repr(k), _canonical(v))
                             for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(v) for v in obj))
    if isinstance(obj, (str, int, float, Enum)) or not hasattr(
            obj, "__dict__"):
        return repr(obj)
    # A plain object's repr may carry its address: use what it holds.
    return type(obj).__qualname__, _canonical(vars(obj))


def state_checksum(obj) -> str:
    """Short deterministic digest of any checkpoint-able structure."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()[:16]


@dataclass
class PartitionCheckpoint:
    """One consistent snapshot of one replica (partition or oracle)."""

    partition: str
    replica: str
    epoch: int
    taken_at: float                  # virtual ms
    applied_count: int               # ordered-log apply position
    components: dict                 # component name -> its snapshot
    # Filled by ``FrozenCheckpoint.thaw``; empty inside a payload.
    checksum: str = ""

    def compute_checksum(self) -> str:
        """Digest of the header and every component."""
        return state_checksum({name: value for name, value
                               in vars(self).items() if name != "checksum"})


@dataclass(frozen=True)
class FrozenCheckpoint:
    """A captured checkpoint: header fields plus the serialised state."""

    partition: str
    replica: str
    epoch: int
    taken_at: float                  # virtual ms
    applied_count: int
    num_keys: int
    payload: bytes                   # frozen PartitionCheckpoint
    settled_key: Optional[tuple] = None

    def thaw(self) -> PartitionCheckpoint:
        """A private, checksummed copy of the captured state."""
        checkpoint = thaw(self.payload)
        checkpoint.checksum = checkpoint.compute_checksum()
        return checkpoint


class PartitionCheckpointer:
    """Captures checkpoints of one replica of any group.

    Attach one per replica (``PartitionCheckpointer(server)`` registers
    itself as ``server.checkpointer``); with a durable store a partition
    server then auto-captures on every ordered reconfiguration entry
    (epoch boundary), and the state-transfer host captures on demand for
    recovering peers. The checkpointer keeps no record itself:
    ``capture`` hands it to its caller and, when durability is armed, to
    the durable store.
    """

    def __init__(self, server):
        self.server = server
        self.captures = 0
        # Durable persistence (repro.store), attached by the harness when
        # durability is armed; None keeps checkpoints memory-only.
        self.store = None
        server.checkpointer = self

    def capture(self, reason: str = "manual") -> FrozenCheckpoint:
        """Freeze one consistent snapshot (synchronous in virtual time)."""
        server = self.server
        # Assembled by reference: the one serialisation below is the copy.
        state = PartitionCheckpoint(
            partition=server.group, replica=server.node.name,
            epoch=server.epoch, taken_at=server.env.now,
            applied_count=server.log.applied_count,
            components={name: component.snapshot() for name, component
                        in server.components().items()})
        checkpoint = FrozenCheckpoint(
            partition=state.partition, replica=state.replica,
            epoch=state.epoch, taken_at=state.taken_at,
            applied_count=state.applied_count, num_keys=len(server.store),
            payload=freeze(state), settled_key=server.settled_key)
        self.captures += 1
        if self.store is not None:
            self.store.save(checkpoint)
        if server.tracer.enabled:
            server.tracer.span(
                f"ckpt:{server.node.name}:{self.captures}", "checkpoint",
                server.node.name, server.env.now, server.env.now,
                epoch=checkpoint.epoch, keys=checkpoint.num_keys,
                reason=reason)
        return checkpoint
