"""The recovery ladder: one way back for every crashed replica.

:meth:`Cluster.recover_server <repro.harness.cluster.Cluster.recover_server>`
runs :func:`recover_member` for any replica of any group, durable or
not, the oracle's included. A replacement is a checkpoint plus the
ordered suffix (arXiv 1512.08943); the rungs differ only in where the
checkpoint comes from. Per member:

1. **No live peer** (:meth:`~repro.harness.cluster.Cluster.live_peers`:
   not crashed, not cut off, executor started): the member stays down
   in :attr:`~repro.harness.cluster.Cluster.waiting` and looks again
   every :data:`RETRY_MS`. When the group's last member returns, a
   durable group restarts together (:func:`cold_start_partition`); a
   group without disks is lost (an error).
2. **Read the local images** (durable members only): power-fail the
   disk (a crash models a machine restart), load the newest CRC-valid
   checkpoint and every CRC-valid WAL record — a bad record is a hole,
   not the end of the log (:func:`~repro.store.wal.replay_wal`).
3. **Own checkpoint (rung 1)** when the images continue what the live
   group retains: some local history, no hole from the checkpoint on,
   and the gapless run reaching every live peer's log floor (no
   checkpoint yet: the preloaded base image).
4. **Peer checkpoint (rung 2)** otherwise, always without a disk or
   with a blank one: a state transfer
   (:func:`~repro.reconfig.recovery.recover_partition_server`); a
   durable member whose sources all fail goes back to step 1.

The local images stay on disk until a checkpoint is installed. Then
:func:`~repro.reconfig.recovery.open_replacement` wipes the WAL and feeds
every readable local record through the ordered log into the fresh WAL
(replay is compaction): records at or past the installed position
re-execute, those below it stay for peers behind it to backfill from,
and those past a hole wait until a peer backfills it. A durable
sequencer reconciles its counters on every rung, so it never hands out
a sequence number twice. A group restart feeds every member the
*union* of the members' WAL records: members fsync to different depths
(group commit), and any member's durable record of a position is
authoritative for all.
"""

from __future__ import annotations

from repro.reconfig.recovery import (open_replacement,
                                     recover_partition_server,
                                     respawn_gated)
from repro.store.checkpoints import load_latest_checkpoint
from repro.store.durability import attach_durability, detach_durability
from repro.store.wal import replay_wal

#: How often a member waiting for its group looks for a live peer (ms).
RETRY_MS = 50.0


def _read_images(farm, name):
    """Power-fail the member's disk, then read its durable images:
    ``(checkpoint, records, status)``."""
    disk = farm.disk(name)
    disk.power_fail()
    checkpoint, _ = load_latest_checkpoint(disk, farm.stats)
    replay = replay_wal(disk, stats=farm.stats)
    return checkpoint, dict(replay.entries), replay.status


def _take_down(replica) -> None:
    detach_durability(replica)
    if not replica.node.crashed:
        replica.crash()


def _reconcile_sequencer(cluster, replacement, position, records):
    """Sequencer sync round, collapsed to one virtual instant: resume
    past every readable local record and every position (applied or
    pending) a running member learned, and know their uids."""
    log = replacement.log
    if not hasattr(log, "restore_sequencer_state"):
        return
    next_seq = max([position] + [seq + 1 for seq in records])
    uids = {entry.get("uid") for entry in records.values()}
    for member in cluster.live_peers(replacement.node.name, serving=False):
        peer_next, peer_uids = cluster.member(member).log.learned()
        next_seq = max(next_seq, peer_next)
        uids.update(peer_uids)
    uids.discard(None)
    log.restore_sequencer_state(next_seq, uids)


def _wait_for_group(cluster, name):
    """Stay down until a peer is live, or restart with the group once
    every member is back (then return the replacement)."""
    crashed = cluster.member(name)
    _take_down(crashed)
    cluster.waiting.add(name)
    group = crashed.group
    if all(member in cluster.waiting
           for member in cluster.directory.members(group)):
        if cluster.disks is None:
            raise RuntimeError(f"every member of {group!r} is down and "
                               "none has a disk to restart from")
        return cold_start_partition(cluster, group)[name]
    crashed.node.flight("store", f"cold start: no live peer in {group}; "
                                 "waiting for a peer or the whole group")

    def retry() -> None:
        if name not in cluster.waiting or cluster.member(name) is not crashed:
            return
        if cluster.live_peers(name):
            recover_member(cluster, name)
        else:
            cluster.env.schedule_callback(RETRY_MS, retry)

    cluster.env.schedule_callback(RETRY_MS, retry)
    return None


def recover_member(cluster, name, images=None):
    """Run the recovery ladder for one crashed replica; returns the
    replacement, already in its slot, or None while it waits for its
    group. ``images`` (``(checkpoint, records, status)``) are given on a
    group restart; otherwise a durable member's are read here."""
    farm = cluster.disks
    crashed = cluster.member(name)
    group = crashed.group
    peers = cluster.live_peers(name)
    if images is None and not peers:
        return _wait_for_group(cluster, name)
    cluster.waiting.discard(name)
    _take_down(crashed)
    if images is None:
        images = (_read_images(farm, name) if farm is not None
                  else (None, {}, "clean"))
    checkpoint, records, status = images
    position = checkpoint.applied_count if checkpoint is not None else 0
    end = position
    while end in records:
        end += 1
    stranded = sum(seq > end for seq in records)
    retained = max((cluster.member(m).log.floor for m in peers), default=0)
    own = not peers or ((checkpoint is not None or bool(records))
                        and not stranded and end >= retained)

    if own:
        replacement = respawn_gated(crashed)
    else:
        def back_to_the_ladder(recovery):
            cluster.report_recovery_failure(recovery)
            if farm is not None and cluster.member(name) is recovery.server:
                recover_member(cluster, name)

        replacement = recover_partition_server(
            crashed, cluster.member(peers[0]), fallback_peers=peers[1:],
            on_failure=back_to_the_ladder, records=records)
    if farm is not None:
        attach_durability(replacement, farm)
        _reconcile_sequencer(cluster, replacement, position, records)
    if own:
        if checkpoint is None:
            # Preloads bypass the ordered log; a checkpoint holds them.
            replacement.load_state(cluster.base_images.get(group, {}))
        farm.stats.cold_starts += 1
        open_replacement(replacement, checkpoint,
                         peers[0] if peers else None, records)
    elif farm is not None:
        farm.stats.peer_fallbacks += 1
    if farm is not None:
        replacement.node.flight(
            "store", f"cold start ({'own' if own else 'peer'} checkpoint): "
            f"{len(records)} wal record(s) from {position}, gapless to "
            f"{end} (wal {status}), group retains from {retained}")
    cluster.replace_member(replacement)
    if name == cluster.directory.speaker(group):
        cluster.arm_qos(group)
    return replacement


def cold_start_partition(cluster, partition):
    """Restart every member of group ``partition`` together from the
    union of its members' WAL records, the most-advanced member first
    (from its own checkpoint: the others then have a caught-up peer)."""
    images = {name: _read_images(cluster.disks, name)
              for name in cluster.directory.members(partition)}
    union: dict[int, dict] = {}
    for _, records, _ in images.values():
        for seq, entry in records.items():
            union.setdefault(seq, entry)

    def advance(name):
        checkpoint, records, _ = images[name]
        position = checkpoint.applied_count if checkpoint else 0
        return max([position] + [seq + 1 for seq in records])

    replacements = {}
    for name in sorted(images, key=advance, reverse=True):
        checkpoint, _, status = images[name]
        replacements[name] = recover_member(
            cluster, name, images=(checkpoint, dict(union), status))
    return replacements
