"""Wiring durable storage onto live replicas of every group.

``attach_durability(owner, farm)`` gives ``owner`` (any
:class:`~repro.smr.executor.OrderedExecutor` with a
``PartitionCheckpointer``: an ``SsmrServer``/``DssmrServer`` or an
``OracleReplica``) a write-ahead log on its own disk in ``farm`` and
hooks it into the ordered log: every applied position is appended
before execution, and the shared executor loop waits on
``owner.wal.sync_barrier(delivery.position)`` after measuring the
delivery's queue sojourn and before scheduling or executing it (and
therefore before replying), so acknowledged commands are always durable
somewhere. The WAL flushes as soon as its disk is idle and batches
whatever arrives during a flush into the next one, so that wait is at
most two fsyncs, and none when a flush covered the delivery's position
while it queued: appends after that position are not waited for.

Every owner also gets a
:class:`~repro.store.checkpoints.DurableCheckpointStore`: every captured
checkpoint is persisted and, once fsynced, truncates the WAL segments
behind it. A decide-callback counter triggers a periodic capture every
``checkpoint_every`` applied entries so replay stays bounded, the
oracle's as much as a partition's.
"""

from __future__ import annotations

from repro.store.checkpoints import DurableCheckpointStore
from repro.store.disk import DiskFarm
from repro.store.wal import WriteAheadLog


def attach_durability(owner, farm: DiskFarm) -> None:
    """Attach a WAL and a durable checkpoint store to ``owner``."""
    config = farm.config
    disk = farm.disk(owner.node.name)
    wal = WriteAheadLog(owner.node.env, disk, farm.stats,
                        segment_records=config.segment_records)
    owner.wal = wal
    owner.log.attach_wal(wal)
    checkpointer = owner.checkpointer
    store = DurableCheckpointStore(owner.node.env, disk, farm.stats,
                                   keep=config.keep_checkpoints, wal=wal)
    checkpointer.store = store
    owner.ckpt_store = store

    applied = {"count": 0}

    def periodic_capture(seq, entry) -> None:
        applied["count"] += 1
        if applied["count"] % config.checkpoint_every == 0:
            checkpointer.capture(reason="wal-periodic")

    owner.log.on_decide(periodic_capture)


def detach_durability(owner) -> None:
    """Stop the owner's durable machinery (its process is dead)."""
    wal = getattr(owner, "wal", None)
    if wal is not None:
        wal.close()
    store = getattr(owner, "ckpt_store", None)
    if store is not None:
        store.close()
