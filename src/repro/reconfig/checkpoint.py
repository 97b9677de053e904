"""Deterministic, epoch-tagged partition checkpoints.

A partition replica's state is *not* a pure function of its delivered
command sequence (unlike classic SMR): multi-partition execution couples it
to in-flight signal/variable exchanges, the Skeen multicast keeps pending
timestamp state, and the reply cache carries exactly-once obligations. A
checkpoint therefore captures everything a replacement replica needs to be
*behaviourally* identical from the capture point onward:

* the variable store and the execution history (ids + reply cache);
* the atomic-multicast endpoint state (logical clock, delivered uids,
  own timestamps, pending multi-group messages);
* the exchange buffer (received signals/variables, done flags and the
  outbound cache that serves peers' pull requests);
* the delivery queue, including the command the executor is currently
  inside (its effects are not yet in the store, so it counts as queued);
* the ordered-log apply position, bounding the log suffix to replay;
* this partition's slice of the oracle's location map (every key in the
  store lives here — ownership *is* store contents).

Captures are synchronous in virtual time, hence consistent. The checksum
is computed over a canonical serialisation (sorted dict keys, sorted
sets), so equal states yield equal checksums across replicas, runs and
``PYTHONHASHSEED`` values — the property behind the byte-deterministic
elastic scenarios.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Optional


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
    """One consistent snapshot of one partition replica."""

    partition: str
    replica: str
    epoch: int
    taken_at: float                  # virtual ms
    store: dict
    executed: list
    replies: dict                    # cid -> cached Reply
    applied_count: int               # ordered-log apply position
    amcast: dict                     # clock / delivered / my_ts / pending
    exchange: dict                   # signals / vars / done / sent
    queued: list                     # pending AmcastDelivery objects
    location_slice: dict = field(default_factory=dict)
    # Reconfiguration entry rids already applied (re-delivery dedup must
    # survive recovery, or a replacement replica double-bumps its epoch).
    applied_reconfigs: list = field(default_factory=list)
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


class PartitionCheckpointer:
    """Captures checkpoints of one partition server.

    Attach one per server (``PartitionCheckpointer(server)`` registers
    itself as ``server.checkpointer``); the server then auto-captures on
    every ordered reconfiguration entry (epoch boundary), and the
    state-transfer host captures on demand for recovering peers. The last
    ``keep`` epoch-tagged checkpoints are retained for inspection.
    """

    def __init__(self, server, keep: int = 4):
        self.server = server
        self.keep = keep
        self.history: list[PartitionCheckpoint] = []
        self.captures = 0
        # Durable persistence (repro.store), attached by the harness when
        # durability is armed; None keeps checkpoints memory-only.
        self.store = None
        server.checkpointer = self

    def capture(self, reason: str = "manual") -> PartitionCheckpoint:
        """Take one consistent snapshot (synchronous in virtual time)."""
        server = self.server
        # Commands on the worker pool (repro.smr.parallel) and the one the
        # executor is inside count as queued work: their store effects
        # have not landed, so they are left out of the execution history
        # and their deliveries are re-queued ahead of the queue proper.
        executed = server.settled_history()
        queued = server.pending_deliveries()
        amcast = server.amcast
        exchange = server.exchange
        checkpoint = PartitionCheckpoint(
            partition=server.partition,
            replica=server.node.name,
            epoch=server.epoch,
            taken_at=server.env.now,
            store=server.store.snapshot(),
            executed=executed,
            replies=copy.deepcopy(server.replies._replies),
            applied_count=server.log.applied_count,
            amcast={
                "clock": amcast._clock,
                "delivered_uids": sorted(amcast._delivered_uids),
                "my_ts": dict(amcast._my_ts),
                "pending": copy.deepcopy(amcast._pending),
                "deliver_count": amcast._deliver_count,
                "delivery_log": list(amcast.delivery_log),
            },
            exchange={
                "signals": {cid: sorted(senders) for cid, senders
                            in exchange._signals.items()},
                "vars": copy.deepcopy(exchange._vars),
                "done": sorted(exchange._done),
                "sent": copy.deepcopy(exchange._sent),
            },
            queued=copy.deepcopy(queued),
            location_slice={key: server.partition
                            for key in server.store.keys()},
            applied_reconfigs=sorted(
                getattr(server, "applied_reconfigs", ())),
        )
        checkpoint.checksum = checkpoint.compute_checksum()
        self.captures += 1
        self.history.append(checkpoint)
        del self.history[:-self.keep]
        if self.store is not None:
            self.store.save(checkpoint)
        if server.tracer.enabled:
            server.tracer.span(
                f"ckpt:{server.node.name}:{self.captures}", "checkpoint",
                server.node.name, server.env.now, server.env.now,
                epoch=checkpoint.epoch, keys=checkpoint.num_keys,
                reason=reason)
        return checkpoint

    def latest(self) -> Optional[PartitionCheckpoint]:
        return self.history[-1] if self.history else None
