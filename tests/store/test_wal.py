"""Tests for the segmented CRC-checksummed WAL (repro.store.wal)."""

import random

import pytest

from repro.sim import Environment
from repro.store import DurabilityConfig, WriteAheadLog, replay_wal
from repro.store.disk import SimulatedDisk, StoreStats
from repro.store.wal import encode_record, wipe_wal


@pytest.fixture
def env():
    return Environment()


def make_wal(env, seed=1, group_commit_ms=1.0, segment_records=4):
    disk = SimulatedDisk(env, "d0", random.Random(seed),
                         DurabilityConfig(), StoreStats())
    wal = WriteAheadLog(env, disk, disk.stats,
                        group_commit_ms=group_commit_ms,
                        segment_records=segment_records)
    return disk, wal


def fill(env, wal, count, start=0):
    for seq in range(start, start + count):
        wal.append(seq, {"uid": f"u{seq}"})
    env.run(until=env.now + 1_000)


class TestAppendReplay:
    def test_round_trip(self, env):
        disk, wal = make_wal(env)
        fill(env, wal, 10)
        replay = replay_wal(disk)
        assert replay.status == "clean"
        assert [seq for seq, _ in replay.entries] == list(range(10))
        assert replay.entries[3][1] == {"uid": "u3"}
        assert replay.max_seq == 9

    def test_segments_roll_over(self, env):
        disk, wal = make_wal(env, segment_records=4)
        fill(env, wal, 10)
        assert disk.files("wal.") == \
            ["wal.0000000000", "wal.0000000004", "wal.0000000008"]

    def test_duplicate_and_stale_appends_are_skipped(self, env):
        disk, wal = make_wal(env)
        assert wal.append(0, {"uid": "a"})
        assert not wal.append(0, {"uid": "a"})
        assert wal.append(1, {"uid": "b"})
        assert not wal.append(0, {"uid": "late"})
        env.run(until=1_000)
        assert len(replay_wal(disk).entries) == 2
        assert disk.stats.skipped_appends == 2

    def test_empty_log_replays_clean(self, env):
        disk, _wal = make_wal(env)
        replay = replay_wal(disk)
        assert replay.status == "clean"
        assert replay.entries == [] and replay.max_seq is None


class TestGroupCommit:
    def test_barrier_fires_only_after_fsync(self, env):
        _disk, wal = make_wal(env, group_commit_ms=1.0)
        wal.append(0, {"uid": "a"})
        barrier = wal.sync_barrier()
        assert not barrier.triggered
        env.run(until=100)
        assert barrier.triggered
        assert wal.durable_seq == 0

    def test_barrier_with_nothing_appended_is_immediate(self, env):
        _disk, wal = make_wal(env)
        assert wal.sync_barrier().triggered

    def test_one_flush_covers_a_batch(self, env):
        disk, wal = make_wal(env, group_commit_ms=1.0, segment_records=32)
        for seq in range(8):
            wal.append(seq, {"uid": f"u{seq}"})
        env.run(until=100)
        # All eight records buffered inside one commit window: one fsync.
        assert disk.stats.group_commits == 1
        assert wal.durable_seq == 7

    def test_urgent_barrier_pulls_the_group_commit_forward(self, env):
        disk, wal = make_wal(env, group_commit_ms=5.0, segment_records=32)
        wal.append(0, {"uid": "a"})
        fired = []
        wal.sync_barrier(urgent=True).callbacks.append(
            lambda _event: fired.append(env.now))
        env.run(until=100)
        # One fsync from now, not after the 5 ms window; the scheduled
        # commit it replaced never runs.
        assert fired and fired[0] < 1.0
        assert disk.stats.group_commits == 1

    def test_urgent_barrier_never_starts_a_second_flush(self, env):
        disk, wal = make_wal(env, group_commit_ms=1.0, segment_records=32)
        active, peak = [0], [0]
        fsync = disk.fsync

        def counted_fsync(path):
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield from fsync(path)
            active[0] -= 1

        disk.fsync = counted_fsync
        wal.append(0, {"uid": "a"})
        env.run(until=1.1)              # the group commit is fsyncing
        assert active[0] == 1
        wal.append(1, {"uid": "b"})
        fired = []
        wal.sync_barrier(urgent=True).callbacks.append(
            lambda _event: fired.append(env.now))
        env.run(until=100)
        assert peak[0] == 1
        # The next flush started as the first ended, not a window later.
        assert fired and fired[0] < 2.0
        assert disk.stats.group_commits == 2
        assert wal.durable_seq == 1

    def test_closed_wal_ignores_appends(self, env):
        disk, wal = make_wal(env)
        wal.close()
        assert not wal.append(0, {"uid": "a"})
        env.run(until=100)
        assert replay_wal(disk).entries == []


class TestTornVsCorrupt:
    def test_torn_tail_ends_the_log_cleanly(self, env):
        disk, wal = make_wal(env, segment_records=4)
        fill(env, wal, 6)
        # Bite a few bytes off the tail of the *last* segment: a torn
        # write — the record never finished hitting the platter.
        disk.tear_tail()
        replay = replay_wal(disk)
        assert replay.status == "torn"
        assert replay.torn_tail
        assert [seq for seq, _ in replay.entries] == list(range(5))

    def test_bitrot_is_corruption(self, env):
        disk, wal = make_wal(env, segment_records=32)
        fill(env, wal, 6)
        path = disk.files("wal.")[0]
        data = disk._durable[path]
        data[len(data) // 2] ^= 0x40
        replay = replay_wal(disk)
        assert replay.status == "corrupt"
        assert replay.corrupt_records == 1

    def test_truncation_in_non_final_segment_is_corruption(self, env):
        disk, wal = make_wal(env, segment_records=2)
        fill(env, wal, 6)           # three durable segments
        first = disk.files("wal.")[0]
        del disk._durable[first][-10:]
        replay = replay_wal(disk)
        assert replay.status == "corrupt"
        # The scan stops at the anomaly: later segments are unreadable.
        assert [seq for seq, _ in replay.entries] == [0]

    def test_replay_stops_at_first_anomaly(self, env):
        disk, wal = make_wal(env, segment_records=2)
        fill(env, wal, 6)
        middle = disk.files("wal.")[1]
        data = disk._durable[middle]
        data[4] ^= 0x40             # corrupt segment 2's first record
        replay = replay_wal(disk)
        assert replay.status == "corrupt"
        assert [seq for seq, _ in replay.entries] == [0, 1]


class TestMaintenance:
    def test_truncate_below_drops_whole_covered_segments(self, env):
        disk, wal = make_wal(env, segment_records=2)
        fill(env, wal, 8)
        dropped = wal.truncate_below(5)
        # Segments [0,2) and [2,4) lie wholly below 5; [4,6) straddles.
        assert dropped == 2
        assert [seq for seq, _ in replay_wal(disk).entries] == \
            list(range(4, 8))

    def test_wipe_wal_clears_durable_and_pending(self, env):
        disk, wal = make_wal(env)
        fill(env, wal, 3)
        wal.append(3, {"uid": "pending"})   # buffered, not yet flushed
        wipe_wal(disk)
        env.run(until=env.now + 100)
        assert replay_wal(disk).entries == []

    def test_encode_record_crc_covers_seq(self):
        a = encode_record(1, {"uid": "x"})
        b = encode_record(2, {"uid": "x"})
        # Same payload, different seq: different checksum bytes.
        assert a[4:8] != b[4:8]
