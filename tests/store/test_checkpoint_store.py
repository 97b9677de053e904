"""Tests for the durable checkpoint store (repro.store.checkpoints)."""

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional

import pytest

from repro.sim import Environment
from repro.store import (DurabilityConfig, DurableCheckpointStore,
                         WriteAheadLog, load_latest_checkpoint)
from repro.store.checkpoints import CKPT_HEADER, freeze
from repro.store.disk import SimulatedDisk, StoreStats


@dataclass
class FakeCheckpoint:
    """The state inside a payload (picklable stand-in)."""

    epoch: int
    applied_count: int
    store: dict = field(default_factory=dict)


@dataclass
class FakeFrozen:
    """Carries just what the store reads off a frozen record."""

    epoch: int
    applied_count: int
    payload: bytes
    settled_key: Optional[tuple] = None


def frozen(epoch, applied_count, store=None):
    return FakeFrozen(epoch, applied_count, freeze(
        FakeCheckpoint(epoch, applied_count, store or {})))


@pytest.fixture
def env():
    return Environment()


def make_store(env, keep=2, wal=None, seed=1):
    disk = SimulatedDisk(env, "d0", random.Random(seed),
                         DurabilityConfig(), StoreStats())
    return disk, DurableCheckpointStore(env, disk, disk.stats, keep=keep,
                                        wal=wal)


class TestSaveLoad:
    def test_round_trip(self, env):
        _disk, store = make_store(env)
        store.save(frozen(epoch=1, applied_count=7,
                                  store={"x": 3}))
        env.run(until=1_000)
        loaded, skipped = store.load_latest()
        assert skipped == 0
        assert loaded.applied_count == 7 and loaded.store == {"x": 3}

    def test_newest_valid_generation_wins(self, env):
        _disk, store = make_store(env)
        for count in (4, 9):
            store.save(frozen(epoch=1, applied_count=count))
            env.run(until=env.now + 1_000)
        loaded, _ = store.load_latest()
        assert loaded.applied_count == 9

    def test_unsynced_save_does_not_survive_power_fail(self, env):
        disk, store = make_store(env)
        store.save(frozen(epoch=1, applied_count=3))
        # Crash before the background fsync: the buffered checkpoint is
        # torn/dropped and must never load as valid.
        disk.power_fail()
        env.run(until=1_000)
        loaded, _ = load_latest_checkpoint(disk)
        assert loaded is None

    def test_crash_mid_save_keeps_previous_generation(self, env):
        disk, store = make_store(env)
        store.save(frozen(epoch=1, applied_count=3))
        env.run(until=1_000)                        # gen 1 durable
        store.save(frozen(epoch=1, applied_count=8))
        disk.power_fail()                           # gen 2 torn
        loaded, skipped = load_latest_checkpoint(disk)
        assert loaded is not None and loaded.applied_count == 3
        assert skipped <= 1


class TestFrozenPayloadOnDisk:
    def test_disk_bytes_are_header_plus_payload_and_round_trip(self):
        """The store frames a captured record's payload verbatim, and
        what it loads back is the state the record thaws to."""
        from repro.reconfig import canonical_bytes
        from tests.store.test_cold_start import (build_durable_cluster,
                                                 run_workload)

        cluster = build_durable_cluster()
        run_workload(cluster)
        server = cluster.servers["p0s1"]
        record = server.checkpointer.capture("test")
        cluster.run(until=cluster.env.now + 50)      # let the save fsync
        disk = cluster.disks.disk("p0s1")
        path = f"ckpt.{record.epoch:06d}.{record.applied_count:010d}"
        data = bytes(disk.read(path))
        assert data == CKPT_HEADER.pack(
            len(record.payload),
            zlib.crc32(record.payload) & 0xFFFFFFFF) + record.payload

        loaded, skipped = server.ckpt_store.load_latest()
        assert skipped == 0
        thawed = record.thaw()
        assert loaded.checksum == ""         # CRC32 frames a durable image
        loaded.checksum = thawed.checksum
        assert canonical_bytes(vars(loaded)) == canonical_bytes(vars(thawed))


class TestCorruption:
    def test_bitrotted_checkpoint_is_skipped_for_older(self, env):
        disk, store = make_store(env)
        for count in (4, 9):
            store.save(frozen(epoch=1, applied_count=count))
            env.run(until=env.now + 1_000)
        newest = disk.files("ckpt.")[-1]
        disk._durable[newest][10] ^= 0x40
        loaded, skipped = store.load_latest()
        assert skipped == 1
        assert loaded.applied_count == 4
        assert disk.stats.checkpoint_corrupt == 1

    def test_all_generations_corrupt_loads_none(self, env):
        disk, store = make_store(env)
        store.save(frozen(epoch=1, applied_count=4))
        env.run(until=1_000)
        disk._durable[disk.files("ckpt.")[0]][5] ^= 0x40
        loaded, skipped = store.load_latest()
        assert loaded is None and skipped == 1


class TestPruneAndTruncate:
    def test_keeps_at_most_keep_generations(self, env):
        disk, store = make_store(env, keep=2)
        for count in (2, 5, 9):
            store.save(frozen(epoch=1, applied_count=count))
            env.run(until=env.now + 1_000)
        assert len(disk.files("ckpt.")) == 2
        assert disk.stats.checkpoints_pruned == 1

    def test_fsynced_save_truncates_wal_behind_it(self, env):
        disk0 = SimulatedDisk(env, "d0", random.Random(1),
                              DurabilityConfig(), StoreStats())
        wal = WriteAheadLog(env, disk0, disk0.stats, segment_records=2)
        for seq in range(6):
            wal.append(seq, {"uid": f"u{seq}"})
        env.run(until=1_000)
        store = DurableCheckpointStore(env, disk0, disk0.stats, wal=wal)
        store.save(frozen(epoch=1, applied_count=4))
        env.run(until=env.now + 1_000)
        assert disk0.stats.segments_truncated == 2
