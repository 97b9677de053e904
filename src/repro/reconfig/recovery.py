"""Crash-recovery for the replicas of every scheme.

A partitioned replica's state is not a pure function of its delivered
commands — it is coupled to in-flight signal/variable exchanges, the
multicast's timestamp state and the session table — so classic
snapshot-and-replay is not enough, and a classic-SMR group is simply the
one-partition case with nothing in flight. The recovery here installs a
peer's full :class:`~repro.reconfig.checkpoint.PartitionCheckpoint`
(fetched via the chunked :class:`~repro.reconfig.transfer.StateTransfer`)
and then replays the ordered-log suffix past the checkpoint's apply
position:

1. The crashed node is recovered in the network and a fresh server of
   the same class is constructed under the same name, with its executor
   *gated* and its log's automatic backfill *suspended* (otherwise it
   would pointlessly backfill history the checkpoint covers).
2. The transfer pulls a frozen checkpoint from the chosen peer; ordered
   traffic arriving meanwhile parks in the log's pending map.
3. Install: store, execution history and settled key, session table,
   epoch, the role's own state (``ROLE_STATE``), multicast state
   (clock, delivered uids, own timestamps, learned delivery floors,
   pendings — unfinalised multi-group pendings re-arm their self-heal
   timers), exchange buffers and the checkpoint's queued deliveries.
   Delivered-uid install is what stops the backfilled suffix from
   double-delivering commands the queue already carries.
4. The log fast-forwards to the checkpoint position, backfill resumes,
   and an explicit backfill request to the peer fetches the suffix; the
   executor gate opens.

Only non-speaker members recover this way: the fixed-sequencer log dies
with its sequencer (use :class:`~repro.ordering.paxos.PaxosLog`
deployments when the speaker itself must be recoverable).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ordering.floor import Retention
from repro.reconfig.checkpoint import PartitionCheckpoint, PartitionCheckpointer
from repro.reconfig.transfer import (CheckpointHost, StateTransfer,
                                     StateTransferStalled)


def install_checkpoint(server, checkpoint: PartitionCheckpoint) -> None:
    """Install a checkpoint's state into a gated replacement server.

    Atomic (no yields: one virtual instant). Shared by peer-transfer
    recovery and the durable cold-start ladder (:mod:`repro.store`);
    callers follow up with ``fast_forward``/backfill/gate themselves.
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
        server = self.server
        install_checkpoint(server, checkpoint)
        server.log.fast_forward(max(server.log.applied_count,
                                    checkpoint.applied_count))
        server.log.resume_backfill()
        server.log.request_backfill(provider=self.peer_name)
        self.checkpoint = checkpoint
        self.installed = True
        checkpointer = getattr(server, "checkpointer", None)
        if checkpointer is not None and checkpointer.store is not None:
            # Durable deployments persist the freshly installed state so
            # the local disk can cold-start this incarnation.
            checkpointer.capture(reason="recovery")
        server._start_gate.succeed(None)


def recover_partition_server(crashed, peer, fallback_peers=(),
                             on_failure=None):
    """Bring a crashed partition replica back under the same name.

    ``crashed`` is the dead server object (any :class:`SsmrServer`
    subclass); ``peer`` is a live replica of the *same partition* with a
    checkpointer and :class:`CheckpointHost` attached, and
    ``fallback_peers`` names alternates to try if the transfer from
    ``peer`` stalls. Returns the replacement server (same class, same
    name), already recovering; its ``recovery`` attribute exposes
    progress, and a fresh checkpointer and host are attached so the
    replacement can later seed others.
    """
    if crashed.partition != peer.partition:
        raise ValueError(f"peer {peer.node.name} replicates "
                         f"{peer.partition!r}, not {crashed.partition!r}")
    name = crashed.node.name
    if crashed.directory.speaker(crashed.partition) == name:
        raise ValueError(f"{name} is the group speaker; the ordered log "
                         "cannot survive its crash (deploy PaxosLog for "
                         "speaker fault tolerance)")
    replacement = crashed.respawn(crashed.env.event())
    replacement.log.suspend_backfill()
    PartitionCheckpointer(replacement)
    CheckpointHost(replacement)
    replacement.recovery = PartitionRecovery(
        replacement, peer.node.name, fallback_peers=fallback_peers,
        on_failure=on_failure)
    return replacement
