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
3. Install (:func:`install_checkpoint`): store, execution history and
   settled key, session table, epoch, the role's own state
   (``ROLE_STATE``), multicast state (clock, delivered uids, own
   timestamps, learned delivery floors, pendings — unfinalised
   multi-group pendings re-arm their self-heal timers), exchange
   buffers and the checkpoint's queued deliveries. Delivered-uid
   install is what stops the backfilled suffix from double-delivering
   commands the queue already carries.
4. The log fast-forwards to the checkpoint position, backfill resumes,
   and an explicit backfill request to the peer fetches the suffix; the
   executor gate opens (:func:`open_replacement`, which the local
   replay rung ends with too).

A speaker without a write-ahead log cannot come back: the
fixed-sequencer log dies with its sequencer (use
:class:`~repro.ordering.paxos.PaxosLog` deployments when the speaker
itself must be recoverable). A durable one can: the ladder reconciles
its sequencer.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ordering.floor import Retention
from repro.reconfig.checkpoint import PartitionCheckpoint, PartitionCheckpointer
from repro.reconfig.transfer import (CheckpointHost, StateTransfer,
                                     StateTransferStalled)


def install_checkpoint(server, checkpoint: PartitionCheckpoint) -> None:
    """Install a checkpoint's state into a gated replacement server.

    Atomic (no yields: one virtual instant); :func:`open_replacement`
    calls it on every rung that installs a checkpoint.
    The checkpoint's values become the server's live state, so it must
    be a private copy (a ``thaw()``, or a durable image just loaded).
    """
    for key, value in checkpoint.store.items():
        server.store.write(key, value)
    server.executed = list(checkpoint.executed)
    server.settled_key = server._processed_key = checkpoint.settled_key
    server.replies.sessions = checkpoint.replies
    server.epoch = checkpoint.epoch
    server.install_role_state(checkpoint.role)
    amcast = server.amcast
    state = checkpoint.amcast
    amcast._clock = state["clock"]
    amcast._delivered_uids = set(state["delivered_uids"])
    amcast._my_ts = dict(state["my_ts"])
    amcast.floors = dict(state["floors"])
    amcast._ts_kept = Retention(state["ts_kept"])
    amcast._pending = dict(state["pending"])
    amcast._deliver_count = state["deliver_count"]
    if amcast.heal_interval_ms:
        for muid, pending in amcast._pending.items():
            if pending.final_ts is None and len(pending.groups) > 1:
                server.env.schedule_callback(
                    amcast.heal_interval_ms,
                    lambda m=muid: amcast._heal(m))
    exchange = server.exchange
    state = checkpoint.exchange
    exchange._signals = {cid: set(senders)
                         for cid, senders in state["signals"].items()}
    exchange._vars = dict(state["vars"])
    exchange._done = set(state["done"])
    exchange._sent = dict(state["sent"])
    exchange._kept = Retention(state["kept"])
    server.replace_queue(checkpoint.queued)


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
                 on_failure=None):
        if server._start_gate is None:
            raise ValueError("the replacement server must be constructed "
                             "with a start_gate (use "
                             "recover_partition_server)")
        self.server = server
        self.peer_name = peer_name
        self.peers = [peer_name] + [p for p in fallback_peers
                                    if p != peer_name]
        self.stall_after_ms = stall_after_ms
        self.on_failure = on_failure
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
        open_replacement(self.server, checkpoint, self.peer_name)


def respawn_gated(crashed):
    """A fresh server of ``crashed``'s class under the same name: its
    executor gated, its log's backfill suspended, a checkpointer and a
    :class:`CheckpointHost` attached so it can later seed others."""
    replacement = crashed.respawn(crashed.env.event())
    replacement.log.suspend_backfill()
    PartitionCheckpointer(replacement)
    CheckpointHost(replacement)
    return replacement


def open_replacement(server, checkpoint, provider, feed=()) -> None:
    """End a replacement's install window, on every rung: install
    ``checkpoint`` (None: the caller loaded the base image), feed the
    local WAL suffix ``feed`` through the ordered log, persist the
    result on a durable replica (its next cold start loads it), resume
    backfill from ``provider`` and open the executor gate."""
    log = server.log
    if checkpoint is not None:
        install_checkpoint(server, checkpoint)
        log.fast_forward(max(log.applied_count, checkpoint.applied_count))
    for seq, entry in feed:
        log._learn(seq, entry)
    if server.checkpointer.store is not None:
        server.checkpointer.capture(reason="recovery")
    log.resume_backfill()
    log.request_backfill(provider=provider)
    server._start_gate.succeed(None)


def recover_partition_server(crashed, peer, fallback_peers=(),
                             on_failure=None):
    """Bring a crashed replica back under the same name from a peer.

    ``crashed`` is the dead server object (any :class:`SsmrServer`
    subclass or an oracle replica); ``peer`` is a live replica of the
    *same group* with a checkpointer and :class:`CheckpointHost`
    attached, and ``fallback_peers`` names alternates to try if the
    transfer from ``peer`` stalls. Returns the replacement server (same
    class, same name), already recovering; its ``recovery`` attribute
    exposes progress. The cluster-free rung 2 of the recovery ladder
    (:mod:`repro.store.coldstart`), which also re-arms a durable
    replica's disk and reconciles a durable speaker's sequencer.
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
        on_failure=on_failure)
    return replacement
