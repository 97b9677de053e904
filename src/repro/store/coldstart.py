"""The recovery ladder: one way back for every crashed replica.

:meth:`Cluster.recover_server <repro.harness.cluster.Cluster.recover_server>`
runs :func:`recover_member` for any replica of any group, durable or
not, the oracle's included (its replicas checkpoint and replay a log
suffix exactly as a partition's do). The ladder, per member:

1. **Read the local images** — only a durable replica
   (:class:`~repro.harness.cluster.ClusterConfig` with ``durability``
   set) has any. Its disk first suffers a power-fail (un-fsynced
   page-cache bytes are dropped or torn — recovery models a machine
   restart, the conservative interpretation of any crash), then the
   newest CRC-valid durable checkpoint is loaded and the WAL segments
   are scanned. A short read at the tail of the *last* segment is a
   torn write — "never happened", clean end of history; a CRC mismatch
   or mid-log truncation is *corruption* and ends the usable prefix
   there (never silently skipped). The surviving entries must continue
   the checkpoint's apply position without holes; history below the
   position is covered by the checkpoint and ignored.
2. **Local replay (rung 1)** — when the images *continue to what the
   live group still retains*: some local history, no gap, no
   corruption, and its end at or past every live member's log floor.
   The checkpoint is installed atomically (or the preloaded base image
   loaded when there is none yet), the old WAL files wiped, a fresh WAL
   attached, and the surviving suffix fed back through the ordered
   log — each entry re-appends to the fresh WAL (replay *is*
   compaction) and re-executes through the normal decide → deliver →
   execute pipeline. Replay is deterministic because the atomic
   multicast's timestamp exchange itself rides the ordered log.
3. **Peer transfer (rung 2)** — otherwise, when a live peer exists: a
   full peer state transfer
   (:func:`~repro.reconfig.recovery.recover_partition_server`, which
   walks fallback peers and turns terminal when all are gone). A
   replica without a disk, or with a blank one (a replaced machine),
   has no local history and always lands here; a replica without a
   disk and no live peer is an error, and so is a speaker without a
   disk. ``peer_fallbacks`` counts durable members that land here.
4. **Unrecoverable suffix (rung 3)** — a durable member with a gap and
   *no* live peer installs the contiguous prefix, flight-records the
   loss, and leaves the lost suffix to client resends. Because
   executors gate on the WAL's ``sync_barrier`` before executing, no
   reply was ever sent for a lost entry — losing it is externally
   unobservable.

On every rung a durable *sequencer* reconciles its next sequence
number and sequenced-uid set against its local images and any live
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

from repro.reconfig.recovery import (open_replacement,
                                     recover_partition_server,
                                     respawn_gated)
from repro.store.checkpoints import load_latest_checkpoint
from repro.store.durability import attach_durability, detach_durability
from repro.store.wal import replay_wal, wipe_wal


def _read_images(farm, name):
    """Power-fail the member's disk, then read its durable images:
    ``(checkpoint, entries, status)``."""
    disk = farm.disk(name)
    disk.power_fail()
    checkpoint, _ = load_latest_checkpoint(disk, farm.stats)
    replay = replay_wal(disk, stats=farm.stats)
    return checkpoint, dict(replay.entries), replay.status


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


def _reconcile_sequencer(cluster, replacement, position, feed):
    """Sequencer sync round: never reuse a handed-out sequence number.

    The local checkpoint and replayed WAL bound what this member
    durably knows; live members' positions — applied, and learned but
    still pending — bound what the group may have seen beyond that
    (group commit lag), and their applied and pending uids are what it
    already ordered. Collapsed to one virtual instant — the real
    protocol would exchange two messages with each live member.
    """
    log = replacement.log
    if not hasattr(log, "restore_sequencer_state"):
        return
    next_seq = max([position] + [seq + 1 for seq, _ in feed])
    uids = {entry.get("uid") for _, entry in feed}
    for member in _live_members(cluster, log.group, replacement.node.name):
        peer_next, peer_uids = cluster.member(member).log.learned()
        next_seq = max(next_seq, peer_next)
        uids.update(peer_uids)
    uids.discard(None)
    log.restore_sequencer_state(next_seq, uids)


def recover_member(cluster, name, images=None):
    """Run the recovery ladder for one crashed replica; returns the
    replacement, already in the crashed replica's slot.

    ``images`` — ``(checkpoint, entries, status)`` — are the local
    images taken as read (the whole-group restore path); otherwise a
    durable member's are read, after a power-fail of its disk, right
    here.
    """
    farm = cluster.disks
    crashed = cluster.member(name)
    group = crashed.group
    peers = _live_members(cluster, group, name)
    if farm is None and not peers:
        raise RuntimeError(f"no live peer left in {group!r} to recover "
                           f"{name} from (a durable deployment recovers "
                           "from its own disk)")
    detach_durability(crashed)
    if not crashed.node.crashed:
        crashed.crash()
    checkpoint, entries, status = None, {}, "clean"
    if images is not None:
        checkpoint, entries, status = images
    elif farm is not None:
        checkpoint, entries, status = _read_images(farm, name)
    position = checkpoint.applied_count if checkpoint is not None else 0
    feed, lost = _contiguous_feed(entries, position)
    end = position + len(feed)
    # A gap strands surviving entries the feed cannot reach; a corrupt
    # scan ended the prefix early and everything beyond is unreadable.
    # Either way the local images are untrustworthy past the feed.
    degraded = bool(lost) or status == "corrupt"
    retained = max((cluster.member(m).log.floor for m in peers), default=0)
    continues = ((checkpoint is not None or bool(entries))
                 and not degraded and end >= retained)

    # Rung 2 when the local images cannot reconstruct a history that
    # meets the live group's: pull a full checkpoint from a peer.
    transfer = bool(peers) and not continues
    if transfer:
        replacement = recover_partition_server(
            crashed, cluster.member(peers[0]), fallback_peers=peers[1:],
            on_failure=cluster.report_recovery_failure)
    else:
        replacement = respawn_gated(crashed)
    if farm is not None:
        wipe_wal(farm.disk(name))
        attach_durability(replacement, farm)
        _reconcile_sequencer(cluster, replacement, position, feed)
    if transfer:
        if farm is not None:
            farm.stats.peer_fallbacks += 1
            replacement.node.flight(
                "store", f"cold start: local history ends at {end} "
                f"({lost} entr(ies) stranded, wal {status}), group "
                f"retains from {retained}; falling back to peer "
                f"{peers[0]}")
    else:
        # Rung 1 (or rung 3 with the lost suffix flight-recorded):
        # install the local checkpoint and replay the surviving
        # contiguous suffix.
        if degraded:
            replacement.node.flight(
                "store", f"cold start: history unreadable past {end} "
                f"(wal {status}, {lost} stranded) and no live peer — "
                "relying on client resends (no reply was ever sent for "
                "an entry that never reached the durable prefix)")
        if checkpoint is None:
            # No durable checkpoint yet: replay starts from the
            # preloaded base image (preloads bypass the ordered log — a
            # checkpoint, when one exists, already contains their
            # effects).
            replacement.load_state(cluster.base_images.get(group, {}))
        farm.stats.cold_starts += 1
        replacement.node.flight(
            "store", f"cold start: checkpoint@{position} + {len(feed)} "
            f"wal entr(ies) (wal {status})")
        open_replacement(replacement, checkpoint,
                         peers[0] if peers else None, feed)
    cluster.replace_member(replacement)
    if name == cluster.directory.speaker(group):
        cluster.arm_qos(group)
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
        images[name] = _read_images(farm, name)
        for seq, entry in images[name][1].items():
            union.setdefault(seq, entry)

    def advance(name):
        checkpoint, entries, _ = images[name]
        position = checkpoint.applied_count if checkpoint else 0
        return max([position] + [seq + 1 for seq in entries])

    replacements = {}
    for name in sorted(members, key=advance, reverse=True):
        checkpoint, _, status = images[name]
        replacements[name] = recover_member(
            cluster, name, images=(checkpoint, dict(union), status))
    return replacements

