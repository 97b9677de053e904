"""Deterministic, epoch-tagged partition checkpoints.

A partition replica's state is *not* a pure function of its delivered
command sequence (unlike classic SMR): multi-partition execution couples it
to in-flight signal/variable exchanges, the Skeen multicast keeps pending
timestamp state, and the session table carries exactly-once obligations. A
checkpoint therefore captures everything a replacement replica needs to be
*behaviourally* identical from the capture point onward:

* the variable store and the execution history (ids + the session
  table: per client, its watermark and unacknowledged replies), and the
  settled key: the delivery key (see :mod:`repro.ordering.floor`) the
  store is complete up to, which the installing replica reports for its
  group's delivery floor (the durable store reports it once fsynced);
* the atomic-multicast endpoint state (logical clock, delivered uids,
  own timestamps and the keys they are kept under, pending multi-group
  messages, and the other groups' delivery floors as this group's log
  ordered them, so that an install matches a replay);
* the exchange buffer (received signals/variables, done flags and the
  outbound cache that serves peers' pull requests, with the key each
  message is kept under);
* the delivery queue, including the command the executor is currently
  inside (its effects are not yet in the store, so it counts as queued);
* the ordered-log apply position, bounding the log suffix to replay;
* this partition's slice of the oracle's location map (every key in the
  store lives here — ownership *is* store contents);
* the role's own replicated state, the attributes its class names in
  ``ROLE_STATE``: a partition's applied reconfiguration rids, and for an
  oracle replica its location map, policy and reconfiguration
  bookkeeping. The oracle's store and history stay empty, so the same
  checkpoint serves every group of a deployment.

Captures are synchronous in virtual time, hence consistent — and that
is also what makes a capture cheap. ``capture`` assembles the checkpoint
**by reference** from the live server (store, session table, multicast
pendings, exchange buffers, queue) and serialises it in **one**
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
serialisation (sorted dict keys, sorted sets), so equal states yield
equal checksums across replicas, runs and ``PYTHONHASHSEED`` values —
the property behind the byte-deterministic elastic scenarios and the
state-transfer integrity check. The periodic durable path never thaws
and never pays for it: CRC32 frames a durable image.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.store.checkpoints import freeze, thaw


def canonical_bytes(obj) -> bytes:
    """Stable byte serialisation: dicts sorted by key, sets sorted."""
    return repr(_canonical(obj)).encode()


def _canonical(obj):
    if isinstance(obj, dict):
        return tuple(sorted(((repr(k), _canonical(v))
                             for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(repr(v) for v in obj))
    return repr(obj)


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
    store: dict
    executed: list
    replies: dict                    # ReplyCache.sessions
    applied_count: int               # ordered-log apply position
    amcast: dict                     # clock / delivered / my_ts / pending
    exchange: dict                   # signals / vars / done / sent
    queued: list                     # pending AmcastDelivery objects
    location_slice: dict = field(default_factory=dict)
    # The role's own replicated state (``OrderedExecutor.ROLE_STATE``):
    # a partition's applied reconfiguration rids, the oracle's map.
    role: dict = field(default_factory=dict)
    # Key of the newest delivery whose effects, and every earlier one's,
    # are in ``store`` (None before the first).
    settled_key: Optional[tuple] = None
    # Filled by ``FrozenCheckpoint.thaw``; empty inside a payload.
    checksum: str = ""

    @property
    def num_keys(self) -> int:
        return len(self.store)

    def compute_checksum(self) -> str:
        return state_checksum({
            "partition": self.partition,
            "epoch": self.epoch,
            "store": self.store,
            "executed": self.executed,
            "applied_count": self.applied_count,
            "location_slice": self.location_slice,
        })


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
        amcast = server.amcast
        exchange = server.exchange
        store = server.store
        # Assembled by reference: the one serialisation below is the copy.
        # Commands on the worker pool (repro.smr.parallel) and the one the
        # executor is inside count as queued work: their store effects
        # have not landed, so they are left out of the execution history
        # and their deliveries are re-queued ahead of the queue proper.
        state = PartitionCheckpoint(
            partition=server.group,
            replica=server.node.name,
            epoch=server.epoch,
            taken_at=server.env.now,
            store=store._data,
            executed=server.settled_history(),
            replies=server.replies.sessions,
            applied_count=server.log.applied_count,
            amcast={
                "clock": amcast._clock,
                "delivered_uids": sorted(amcast._delivered_uids),
                "my_ts": amcast._my_ts,
                "ts_kept": amcast._ts_kept.queues,
                "floors": amcast.floors,
                "pending": amcast._pending,
                "deliver_count": amcast._deliver_count,
            },
            exchange={
                "signals": {cid: sorted(senders) for cid, senders
                            in exchange._signals.items()},
                "vars": exchange._vars,
                "done": sorted(exchange._done),
                "sent": exchange._sent,
                "kept": exchange._kept.queues,
            },
            queued=server.pending_deliveries(),
            location_slice={key: server.group for key in store.keys()},
            role={name: getattr(server, name) for name in server.ROLE_STATE},
            settled_key=server.settled_key,
        )
        checkpoint = FrozenCheckpoint(
            partition=state.partition, replica=state.replica,
            epoch=state.epoch, taken_at=state.taken_at,
            applied_count=state.applied_count, num_keys=len(store),
            payload=freeze(state), settled_key=state.settled_key)
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
