"""Tests for the segmented CRC-checksummed WAL (repro.store.wal)."""

import random

import pytest

from repro.sim import Environment
from repro.store import DurabilityConfig, WriteAheadLog, replay_wal
from repro.store.disk import SimulatedDisk, StoreStats
from repro.store.wal import RECORD_HEADER, encode_record, wipe_wal


@pytest.fixture
def env():
    return Environment()


def make_wal(env, seed=1, segment_records=4):
    disk = SimulatedDisk(env, "d0", random.Random(seed),
                         DurabilityConfig(), StoreStats())
    wal = WriteAheadLog(env, disk, disk.stats,
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
    @staticmethod
    def fsync_cost(*records):
        config = DurabilityConfig()
        return config.fsync_ms + sum(map(len, records)) / config.bytes_per_ms

    @staticmethod
    def counted_fsyncs(disk):
        """Wrap ``disk.fsync``; returns [in flight now, peak in flight]."""
        active = [0, 0]
        fsync = disk.fsync

        def counted_fsync(path):
            active[0] += 1
            active[1] = max(active[1], active[0])
            yield from fsync(path)
            active[0] -= 1

        disk.fsync = counted_fsync
        return active

    def test_barrier_fires_only_after_fsync(self, env):
        _disk, wal = make_wal(env)
        wal.append(0, {"uid": "a"})
        barrier = wal.sync_barrier(0)
        assert not barrier.triggered
        env.run(until=100)
        assert barrier.triggered
        assert wal.durable_seq == 0

    def test_barrier_with_nothing_appended_is_immediate(self, env):
        _disk, wal = make_wal(env)
        assert wal.sync_barrier(0).triggered

    def test_one_flush_covers_a_batch(self, env):
        disk, wal = make_wal(env, segment_records=32)
        for seq in range(8):
            wal.append(seq, {"uid": f"u{seq}"})
        env.run(until=100)
        # All eight records buffered before the flush began: one fsync.
        assert disk.stats.group_commits == 1
        assert wal.durable_seq == 7

    def test_barrier_on_an_idle_disk_fires_after_one_fsync(self, env):
        disk, wal = make_wal(env, segment_records=32)
        wal.append(0, {"uid": "a"})
        fired = []
        wal.sync_barrier(0).callbacks.append(
            lambda _event: fired.append(env.now))
        env.run(until=100)
        # The flush starts at once: no window, just the buffered bytes.
        assert fired == [pytest.approx(
            self.fsync_cost(encode_record(0, {"uid": "a"})))]
        assert disk.stats.fsyncs == disk.stats.group_commits == 1

    def test_append_during_a_flush_rides_the_next_one(self, env):
        disk, wal = make_wal(env, segment_records=32)
        first = self.fsync_cost(encode_record(0, {"uid": "a"}))
        second = self.fsync_cost(encode_record(1, {"uid": "b"}))
        fired = {}
        wal.append(0, {"uid": "a"})
        wal.sync_barrier(0).callbacks.append(
            lambda _event: fired.setdefault("a", env.now))
        env.run(until=first / 2)           # the first flush is fsyncing
        wal.append(1, {"uid": "b"})
        wal.sync_barrier(1).callbacks.append(
            lambda _event: fired.setdefault("b", env.now))
        env.run(until=first)
        assert wal.durable_seq == 0        # the first fsync missed "b"
        env.run(until=100)
        assert fired == {"a": pytest.approx(first),
                         "b": pytest.approx(first + second)}
        assert disk.stats.group_commits == 2
        assert wal.durable_seq == 1

    def test_a_position_the_flush_in_flight_covers_fires_as_it_ends(
            self, env):
        """A barrier waits for its own position: one the flush in flight
        covers fires when that flush ends, though later appends are not
        durable yet; a later position waits for the next flush."""
        _disk, wal = make_wal(env, segment_records=32)
        first = self.fsync_cost(encode_record(0, {"uid": "a"}))
        second = self.fsync_cost(encode_record(1, {"uid": "b"}))
        fired = {}
        wal.append(0, {"uid": "a"})
        env.run(until=first / 2)           # the first flush is fsyncing
        wal.append(1, {"uid": "b"})
        for position in (0, 1):
            wal.sync_barrier(position).callbacks.append(
                lambda _event, at=position: fired.setdefault(at, env.now))
        env.run(until=100)
        assert fired == {0: pytest.approx(first),
                         1: pytest.approx(first + second)}

    def test_a_durable_position_returns_a_triggered_barrier(self, env):
        _disk, wal = make_wal(env)
        wal.append(0, {"uid": "a"})
        env.run(until=100)
        wal.append(1, {"uid": "b"})
        assert wal.sync_barrier(0).triggered
        assert not wal.sync_barrier(1).triggered

    def test_a_position_never_appended_waits_for_the_newest_append(
            self, env):
        _disk, wal = make_wal(env)
        wal.append(0, {"uid": "a"})
        barrier = wal.sync_barrier(5)
        assert not barrier.triggered
        env.run(until=100)
        assert barrier.triggered and wal.durable_seq == 0

    def test_never_two_flushes_in_flight(self, env):
        disk, wal = make_wal(env, segment_records=1)
        active = self.counted_fsyncs(disk)
        wal.append(0, {"uid": "a"})
        env.run(until=0.1)                 # the first flush is fsyncing
        assert active[0] == 1
        for seq in range(1, 4):            # one new segment each
            wal.append(seq, {"uid": f"u{seq}"})
            wal.sync_barrier(seq)
        env.run(until=100)
        assert active[1] == 1
        # One flush for "a", one for the three segments behind it.
        assert disk.stats.group_commits == 2
        assert disk.stats.fsyncs == 4
        assert wal.durable_seq == 3

    def test_unwaited_append_still_becomes_durable(self, env):
        # The log's stable position and compaction floor read
        # durable_seq, so it must advance with no barrier asking.
        disk, wal = make_wal(env)
        wal.append(0, {"uid": "a"})
        env.run(until=100)
        assert wal.durable_seq == 0
        assert [seq for seq, _ in replay_wal(disk).entries] == [0]

    def test_closed_wal_ignores_appends(self, env):
        disk, wal = make_wal(env)
        wal.close()
        assert not wal.append(0, {"uid": "a"})
        env.run(until=100)
        assert replay_wal(disk).entries == []

    def test_closed_wal_starts_no_flush(self, env):
        disk, wal = make_wal(env)
        wal.append(0, {"uid": "a"})
        env.run(until=0.1)                 # the first flush is fsyncing
        wal.append(1, {"uid": "b"})
        wal.close()
        env.run(until=100)
        # The fsync in flight ends; no commit and no second flush follow.
        assert disk.stats.fsyncs == 1
        assert disk.stats.group_commits == 0
        assert wal.durable_seq is None


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
        # The rotted record is a hole; the intact ones around it stay.
        assert len(replay.entries) == 5

    def test_truncation_in_non_final_segment_is_corruption(self, env):
        disk, wal = make_wal(env, segment_records=2)
        fill(env, wal, 6)           # three durable segments
        first = disk.files("wal.")[0]
        del disk._durable[first][-10:]
        replay = replay_wal(disk)
        assert replay.status == "corrupt"
        # The cut record is a hole; the later segments stay readable.
        assert [seq for seq, _ in replay.entries] == [0, 2, 3, 4, 5]

    def test_replay_skips_a_bad_record_and_keeps_the_rest(self, env):
        disk, wal = make_wal(env, segment_records=2)
        fill(env, wal, 6)
        middle = disk.files("wal.")[1]
        data = disk._durable[middle]
        data[4] ^= 0x40             # corrupt segment 2's first record
        replay = replay_wal(disk)
        assert replay.status == "corrupt"
        assert replay.corrupt_records == 1
        assert [seq for seq, _ in replay.entries] == [0, 1, 3, 4, 5]

    def test_a_rotted_length_field_resyncs_on_the_next_record(self, env):
        """The scan finds the next intact record even when the bad one's
        own framing is what rotted."""
        disk, wal = make_wal(env, segment_records=32)
        fill(env, wal, 6)
        data = disk._durable[disk.files("wal.")[0]]
        length = RECORD_HEADER.unpack_from(data)[0]
        data[RECORD_HEADER.size + length + 1] ^= 0x40   # record 1's length
        replay = replay_wal(disk)
        assert replay.status == "corrupt"
        assert [seq for seq, _ in replay.entries] == [0, 2, 3, 4, 5]

    def test_a_bad_record_before_a_torn_tail_is_still_corruption(self, env):
        disk, wal = make_wal(env, segment_records=32)
        fill(env, wal, 6)
        disk._durable[disk.files("wal.")[0]][4] ^= 0x40
        disk.tear_tail()
        replay = replay_wal(disk)
        assert replay.torn_tail
        assert replay.status == "corrupt"
        assert [seq for seq, _ in replay.entries] == [1, 2, 3, 4]


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
