"""Crash-consistent cold start: the protocol-aware recovery ladder.

A durable deployment (:class:`~repro.harness.cluster.ClusterConfig` with
``durability`` set) can bring a crashed replica back **from its own
disk**, without any live peer — the capability peer-transfer recovery
(:mod:`repro.reconfig.recovery`) cannot provide. Every group climbs the
same ladder, the oracle's included: its replicas checkpoint and replay
a log suffix exactly as a partition's do. The ladder, per member:

1. **Read the local images.** The member's disk first suffers a
   power-fail (un-fsynced page-cache bytes are dropped or torn — cold
   start models a machine restart, the conservative interpretation of
   any crash), then the newest CRC-valid durable checkpoint is loaded
   and the WAL segments are scanned. A short read at the tail of the
   *last* segment is a torn write — "never happened", clean end of
   history; a CRC mismatch or mid-log truncation is *corruption* and
   ends the usable prefix there (never silently skipped).
2. **Gap check.** The surviving entries must continue the checkpoint's
   apply position without holes. Replayed history below the position is
   already covered by the checkpoint and is ignored.
3. **Local replay (rung 1).** Checkpoint installed atomically
   (:func:`~repro.reconfig.recovery.install_checkpoint`), the old WAL
   files wiped, a fresh WAL attached, and the surviving suffix fed back
   through the ordered log — each entry re-appends to the fresh WAL
   (replay *is* compaction) and re-executes through the normal decide →
   deliver → execute pipeline. Replay is deterministic because the
   atomic multicast's timestamp exchange itself rides the ordered log.
4. **Peer fallback (rung 2).** A gapped/corrupted prefix falls back to
   a full peer state transfer
   (:class:`~repro.reconfig.recovery.PartitionRecovery`, which itself
   walks fallback peers and turns terminal when all are gone).
   ``peer_fallbacks`` counts these.
5. **Unrecoverable suffix (rung 3).** With a gap and *no* live peer,
   the contiguous prefix is installed, the loss is flight-recorded, and
   the lost suffix is left to client resends. Because executors gate on
   the WAL's ``sync_barrier`` before executing, no reply was ever sent
   for a lost entry — losing it is externally unobservable.

A restarting *sequencer* additionally reconciles its next sequence
number and sequenced-uid set against the replayed history and any live
member's log positions and applied uids (the standard sequencer sync
round, collapsed to one virtual instant) so it can never hand out a
sequence number twice.

Whole-group power loss (:meth:`Cluster.power_fail` /
:meth:`Cluster.power_restore`) restores every member of a group
from the **union** of the members' surviving WALs — group commit means
different members fsynced to different depths, and any member's durable
record of a position is authoritative for all.
"""

from __future__ import annotations

from repro.reconfig.checkpoint import PartitionCheckpointer
from repro.reconfig.recovery import PartitionRecovery, install_checkpoint
from repro.reconfig.transfer import CheckpointHost
from repro.store.checkpoints import load_latest_checkpoint
from repro.store.durability import attach_durability, detach_durability
from repro.store.wal import replay_wal, wipe_wal


def _rebuild_server(crashed):
    """A fresh, gated server of the same class under the same name."""
    replacement = crashed.respawn(crashed.env.event())
    PartitionCheckpointer(replacement)
    CheckpointHost(replacement)
    replacement.log.suspend_backfill()
    return replacement


def _read_images(farm, name):
    """Power-fail the member's disk, then read its durable images."""
    disk = farm.disk(name)
    disk.power_fail()
    checkpoint, _ = load_latest_checkpoint(disk, farm.stats)
    replay = replay_wal(disk, stats=farm.stats)
    return disk, checkpoint, replay


def _contiguous_feed(entries, position):
    """(feed, lost): longest gapless run from ``position``, and the
    count of surviving entries stranded behind a gap."""
    suffix = sorted((seq, entry) for seq, entry in entries.items()
                    if seq >= position)
    feed = []
    for index, (seq, entry) in enumerate(suffix):
        if seq != position + index:
            break
        feed.append((seq, entry))
    return feed, len(suffix) - len(feed)


def _live_members(cluster, group, exclude):
    return [m for m in cluster.directory.members(group)
            if m != exclude and not cluster.member(m).node.crashed]


def _reconcile_sequencer(cluster, replacement, feed, extra_uids=()):
    """Sequencer sync round: never reuse a handed-out sequence number.

    The replayed WAL bounds what this member durably knows; live
    members' positions — applied, and learned but still pending — bound
    what the group may have seen beyond that (group commit lag), and
    their applied and pending uids are what it already ordered.
    Collapsed to one virtual instant — the real protocol would exchange
    two messages with each live member.
    """
    log = replacement.log
    if not hasattr(log, "restore_sequencer_state"):
        return
    next_seq = max((seq + 1 for seq, _ in feed), default=log.applied_count)
    next_seq = max(next_seq, log.applied_count)
    uids = {entry.get("uid") for _, entry in feed}
    uids.update(extra_uids)
    for member in _live_members(cluster, log.group, replacement.node.name):
        peer_log = cluster.member(member).log
        pending = peer_log._pending_apply
        next_seq = max([next_seq, peer_log.applied_count]
                       + [seq + 1 for seq in pending])
        uids.update(peer_log._applied_uids)
        uids.update(entry.get("uid") for entry in pending.values())
    uids.discard(None)
    log.restore_sequencer_state(next_seq, uids)


def _finish(cluster, replacement, provider=None):
    replacement.log.resume_backfill()
    replacement.log.request_backfill(provider=provider)
    replacement._start_gate.succeed(None)


def cold_start_member(cluster, name, entries=None, checkpoint=None,
                      status=None):
    """Run the recovery ladder for one member; returns the replacement.

    With ``entries``/``checkpoint`` given (the whole-group restore path)
    the local images are taken as read; otherwise they are read — after
    a power-fail of the member's disk — right here.
    """
    farm = cluster.disks
    crashed = cluster.member(name)
    detach_durability(crashed)
    if not crashed.node.crashed:
        crashed.crash()
    disk = farm.disk(name)
    if entries is None:
        disk, checkpoint, replay = _read_images(farm, name)
        entries = dict(replay.entries)
        status = replay.status

    replacement = _rebuild_server(crashed)
    position = checkpoint.applied_count if checkpoint is not None else 0
    feed, lost = _contiguous_feed(entries, position)
    peers = _live_members(cluster, replacement.log.group, name)

    # A gap strands surviving entries the feed cannot reach; a corrupt
    # scan ended the prefix early and everything beyond is unreadable.
    # Either way the local images are untrustworthy past the feed.
    degraded = bool(lost) or status == "corrupt"
    if degraded and peers:
        # Rung 2: the local images cannot reconstruct a contiguous
        # history — pull a full checkpoint from a peer.
        farm.stats.peer_fallbacks += 1
        wipe_wal(disk)
        attach_durability(replacement, farm)
        replacement.node.flight(
            "store", f"cold start: {lost} entr(ies) stranded past "
            f"{position + len(feed)} (wal {status}); falling back to "
            f"peer {peers[0]}")
        replacement.recovery = PartitionRecovery(
            replacement, peers[0], fallback_peers=peers[1:],
            on_failure=cluster._on_recovery_failure)
        cluster.replace_member(replacement)
        return replacement

    # Rung 1 (or rung 3 with the lost suffix flight-recorded): install
    # the local checkpoint and replay the surviving contiguous suffix.
    if degraded:
        replacement.node.flight(
            "store", f"cold start: history unreadable past "
            f"{position + len(feed)} (wal {status}, {lost} stranded) and "
            "no live peer — relying on client resends (no reply was ever "
            "sent for an entry that never reached the durable prefix)")
    wipe_wal(disk)
    attach_durability(replacement, farm)
    if checkpoint is not None:
        install_checkpoint(replacement, checkpoint)
        replacement.log.fast_forward(max(replacement.log.applied_count,
                                         position))
    else:
        # No durable checkpoint yet: replay starts from the preloaded
        # base image (preloads bypass the ordered log — a checkpoint,
        # when one exists, already contains their effects).
        replacement.load_state(
            cluster._base_images.get(replacement.log.group, {}))
    _reconcile_sequencer(cluster, replacement, feed)
    for seq, entry in feed:
        replacement.log._learn(seq, entry)
    # Persist the recovered baseline: the next cold start loads it
    # instead of re-replaying from the previous checkpoint.
    replacement.checkpointer.capture(reason="cold-start")
    farm.stats.cold_starts += 1
    replacement.node.flight(
        "store", f"cold start: checkpoint@{position} + {len(feed)} wal "
        f"entr(ies) (wal {status or 'clean'})")
    _finish(cluster, replacement, provider=peers[0] if peers else None)
    cluster.replace_member(replacement)
    return replacement


def cold_start_partition(cluster, partition):
    """Restore every member of group ``partition`` (a partition or the
    oracle group) after whole-group loss.

    Reads all members' images first and feeds each member the *union*
    of the surviving WAL entries: any member's durable record of a
    position is authoritative for the group, so asymmetric fsync depth
    (group commit) never manifests as divergent members. The
    most-advanced member restarts first — a gapped member's peer
    transfer then has a caught-up source.
    """
    farm = cluster.disks
    members = list(cluster.directory.members(partition))
    images = {}
    union: dict[int, dict] = {}
    for name in members:
        _, checkpoint, replay = _read_images(farm, name)
        images[name] = (checkpoint, replay)
        for seq, entry in replay.entries:
            union.setdefault(seq, entry)

    def advance(name):
        checkpoint, replay = images[name]
        position = checkpoint.applied_count if checkpoint else 0
        return max([position] + [seq + 1 for seq, _ in replay.entries])

    replacements = {}
    for name in sorted(members, key=advance, reverse=True):
        checkpoint, replay = images[name]
        replacements[name] = cold_start_member(
            cluster, name, entries=dict(union), checkpoint=checkpoint,
            status=replay.status)
    return replacements

