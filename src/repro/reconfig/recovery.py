"""Crash-recovery for the replicas of every scheme: the peer-transfer rung.

A partitioned replica's state is not a pure function of its delivered
commands — it is coupled to in-flight signal/variable exchanges, the
multicast's timestamp state and the session table — so classic
snapshot-and-replay is not enough, and a classic-SMR group is simply the
one-partition case with nothing in flight. A crashed replica comes back
through one recovery ladder (:mod:`repro.store.coldstart`, reached
through :meth:`~repro.harness.cluster.Cluster.recover_server`); this
module holds its pieces. Rung 2 — the only rung for a replica without
a disk — installs a peer's full
:class:`~repro.reconfig.checkpoint.PartitionCheckpoint` (fetched via
the chunked :class:`~repro.reconfig.transfer.StateTransfer`) and then
replays the ordered-log suffix past the checkpoint's apply position:

1. The crashed node is recovered in the network and a fresh server of
   the same class is constructed under the same name
   (:func:`respawn_gated`), with its executor *gated* and its log's
   automatic backfill *suspended* (otherwise it would pointlessly
   backfill history the checkpoint covers).
2. The transfer pulls a frozen checkpoint from the chosen peer; ordered
   traffic arriving meanwhile parks in the log's pending map.
3. Install (:func:`install_checkpoint`): every component of the
   replacement restores its own snapshot (see
   :mod:`repro.reconfig.checkpoint`). The multicast endpoint re-arms the
   self-heal timers of its unfinalised multi-group pendings, and its
   delivered uids stop the backfilled suffix from double-delivering
   commands the restored queue already carries; the log fast-forwards
   to the checkpoint position.
4. The replica's readable local WAL records are fed through the log,
   backfill resumes, a backfill request to the peer fetches the rest,
   and the executor gate opens (:func:`open_replacement`, on every
   rung).

A speaker without a write-ahead log cannot come back: the
fixed-sequencer log dies with its sequencer (use
:class:`~repro.ordering.paxos.PaxosLog` deployments when the speaker
itself must be recoverable). A durable one can: the ladder reconciles
its sequencer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.reconfig.checkpoint import PartitionCheckpoint, PartitionCheckpointer
from repro.reconfig.transfer import (CheckpointHost, StateTransfer,
                                     StateTransferStalled)
from repro.store.wal import wipe_wal


def install_checkpoint(server, checkpoint: PartitionCheckpoint) -> None:
    """Install a checkpoint's state into a gated replacement server.

    Atomic (no yields: one virtual instant); :func:`open_replacement`
    calls it on every rung that installs a checkpoint.
    The checkpoint's values become the server's live state, so it must
    be a private copy (a ``thaw()``, or a durable image just loaded).
    """
    for name, component in server.components().items():
        component.restore(checkpoint.components[name])


class PartitionRecovery:
    """Drives one replacement server from construction to caught-up.

    Tries the primary peer first and walks ``fallback_peers`` when a
    transfer stalls (source peer gone). With every source exhausted the
    recovery turns *terminal*: ``failed`` is set, a flight-recorder
    event is logged and ``on_failure`` fires so the heal supervisor can
    escalate to spare-join or abandon — no silent hang.
    """

    #: No transfer progress for this long means the source peer is gone.
    STALL_AFTER_MS = 500.0

    def __init__(self, server, peer_name: str,
                 fallback_peers: Sequence[str] = (),
                 stall_after_ms: Optional[float] = STALL_AFTER_MS,
                 on_failure=None, records=()):
        if server.started:
            raise ValueError("the replacement server must be constructed "
                             "with a start_gate (use "
                             "recover_partition_server)")
        self.server = server
        self.peer_name = peer_name
        self.peers = [peer_name] + [p for p in fallback_peers
                                    if p != peer_name]
        self.stall_after_ms = stall_after_ms
        self.on_failure = on_failure
        self.records = records
        self.transfer = StateTransfer(server.node)
        self.installed = False
        self.failed = False
        self.peers_tried: list[str] = []
        self.checkpoint: PartitionCheckpoint | None = None
        self._process = server.env.process(
            self._run(), name=f"{server.node.name}/recovery")

    def _run(self):
        for peer in self.peers:
            self.peer_name = peer
            self.peers_tried.append(peer)
            try:
                checkpoint = yield from self.transfer.fetch(
                    peer, stall_after_ms=self.stall_after_ms)
            except StateTransferStalled as stalled:
                self.server.node.flight(
                    "recovery",
                    f"transfer from {peer} stalled in {stalled.phase} "
                    f"phase; trying next peer")
                continue
            self._install(checkpoint)
            return
        self.failed = True
        self.server.node.flight(
            "recovery", f"state transfer failed: all "
            f"{len(self.peers)} source peer(s) gone")
        if self.on_failure is not None:
            self.on_failure(self)

    def _install(self, checkpoint: PartitionCheckpoint) -> None:
        self.checkpoint = checkpoint
        self.installed = True
        open_replacement(self.server, checkpoint, self.peer_name,
                         self.records)


def respawn_gated(crashed):
    """A fresh server of ``crashed``'s class under the same name: its
    executor gated, its log's backfill suspended, a checkpointer and a
    :class:`CheckpointHost` attached so it can later seed others."""
    replacement = crashed.respawn(crashed.env.event())
    replacement.log.suspend_backfill()
    PartitionCheckpointer(replacement)
    CheckpointHost(replacement)
    return replacement


def open_replacement(server, checkpoint, provider, records=()) -> None:
    """End a replacement's install window, on every rung: install
    ``checkpoint`` (None: the caller loaded the base image), feed every
    readable local WAL record (``records``, by position) through the
    ordered log (those below the installed position stay for peers to
    backfill from; ``records_replayed`` counts the others) into a fresh
    WAL on a durable replica, persist the result there (its next cold
    start loads it), resume backfill from ``provider`` and open the
    executor gate."""
    log = server.log
    if checkpoint is not None:
        install_checkpoint(server, checkpoint)
    records = sorted(dict(records).items())
    if server.wal is not None:
        # The old incarnation's records leave the disk only now, so a
        # transfer that runs out of sources finds them there again.
        wipe_wal(server.wal.disk, server.wal.prefix)
        server.wal.stats.records_replayed += sum(
            seq >= log.applied_count for seq, _ in records)
    log.replay(records)
    if server.checkpointer.store is not None:
        server.checkpointer.capture(reason="recovery")
    log.resume_backfill()
    log.request_backfill(provider=provider)
    server.start()


def recover_partition_server(crashed, peer, fallback_peers=(),
                             on_failure=None, records=()):
    """Bring a crashed replica back under the same name from a peer.

    ``crashed`` is the dead server object (any :class:`SsmrServer`
    subclass or an oracle replica); ``peer`` is a live replica of the
    *same group* with a checkpointer and :class:`CheckpointHost`
    attached, and ``fallback_peers`` names alternates to try if the
    transfer from ``peer`` stalls; ``records`` (the replica's readable
    local WAL records) are fed after the install. Returns the
    replacement server (same class, same name), already recovering; its
    ``recovery`` attribute exposes progress. The cluster-free rung 2 of
    the recovery ladder (:mod:`repro.store.coldstart`), which also
    re-arms a durable replica's disk and reconciles a durable speaker's
    sequencer.
    """
    if crashed.group != peer.group:
        raise ValueError(f"peer {peer.node.name} replicates "
                         f"{peer.group!r}, not {crashed.group!r}")
    name = crashed.node.name
    if crashed.directory.speaker(crashed.group) == name \
            and crashed.wal is None:
        raise ValueError(f"{name} is the group speaker; the ordered log "
                         "cannot survive its crash without a write-ahead "
                         "log (deploy PaxosLog for speaker fault "
                         "tolerance)")
    replacement = respawn_gated(crashed)
    replacement.recovery = PartitionRecovery(
        replacement, peer.node.name, fallback_peers=fallback_peers,
        on_failure=on_failure, records=records)
    return replacement
