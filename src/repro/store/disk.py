"""Simulated crash-faithful disks.

A :class:`SimulatedDisk` models the two images that matter for crash
consistency: the *durable* image (what survives a power cut) and the
*pending* write buffer (bytes appended but not yet fsynced). ``append``
is free — it only extends the buffer — while ``fsync`` is a generator
that charges virtual time proportional to the buffered bytes before
committing them. On :meth:`power_fail` the buffer is torn: a seeded
prefix of each file's un-fsynced bytes may survive (possibly splitting
a record in half) and the rest is dropped, which is exactly the
behaviour a WAL's framing has to tolerate.

Fault hooks mirror the fuzz vocabulary: :meth:`inject_bitrot` flips a
seeded byte somewhere in the durable image and :meth:`tear_tail`
truncates a seeded suffix off the most recent durable file;
:meth:`erase` blanks the disk, as on a replaced machine.

A :class:`DiskFarm` owns one disk per node name. Disks outlive the
server *objects* that write to them — a crash-restarted replica gets a
fresh process but the same platters — and share one :class:`StoreStats`
counter block so metrics survive recovery churn too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.sim.core import Environment
from repro.sim.rng import SeedStream


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs for the durable-storage layer.

    ``fsync_ms`` is the fixed cost of one fsync; ``bytes_per_ms`` adds a
    throughput term; the WAL batches whatever arrives during one fsync
    into the next (see DESIGN.md). ``checkpoint_every`` bounds replay:
    every replica, partition or oracle, persists a checkpoint every that
    many applied entries and truncates WAL segments behind it, keeping
    ``keep_checkpoints`` generations.
    """

    fsync_ms: float = 0.3
    bytes_per_ms: float = 4096.0
    segment_records: int = 32
    checkpoint_every: int = 48
    keep_checkpoints: int = 2


class StoreStats:
    """Farm-wide storage counters (survive server replacement)."""

    FIELDS = (
        "appends", "bytes_appended", "fsyncs", "bytes_synced",
        "group_commits", "skipped_appends", "records_replayed",
        "corrupt_records", "torn_tails", "segments_truncated",
        "checkpoints_saved", "checkpoints_pruned", "checkpoint_corrupt",
        "cold_starts", "peer_fallbacks", "power_failures",
        "torn_writes", "bitrot_injected",
    )

    def __init__(self) -> None:
        for field in self.FIELDS:
            setattr(self, field, 0)

    def to_dict(self) -> dict:
        return {field: getattr(self, field) for field in self.FIELDS}


class SimulatedDisk:
    """One node's local disk: durable image + un-fsynced write buffer."""

    def __init__(self, env: Environment, name: str, rng: random.Random,
                 config: DurabilityConfig, stats: StoreStats):
        self.env = env
        self.name = name
        self.rng = rng
        self.config = config
        self.stats = stats
        self._durable: Dict[str, bytearray] = {}
        self._pending: Dict[str, bytearray] = {}
        #: >1.0 while a ``disk_slow`` fault window is active.
        self.slow_factor = 1.0

    # -- the normal I/O path -------------------------------------------------

    def append(self, path: str, data: bytes) -> None:
        """Buffered append: instantaneous, durable only after fsync."""
        self._pending.setdefault(path, bytearray()).extend(data)
        self.stats.appends += 1
        self.stats.bytes_appended += len(data)

    def fsync(self, path: str):
        """Generator: pay the fsync cost, then commit the buffered bytes.

        Only the bytes buffered *at call time* are committed — appends
        racing the fsync wait stay pending, like a real fsync.
        """
        count = len(self._pending.get(path, b""))
        cost = (self.config.fsync_ms
                + count / self.config.bytes_per_ms) * self.slow_factor
        yield self.env.timeout(cost)
        buffered = self._pending.get(path)
        if buffered is not None:
            take = min(count, len(buffered))
            if take:
                self._durable.setdefault(path, bytearray()).extend(
                    buffered[:take])
                del buffered[:take]
                self.stats.bytes_synced += take
            if not buffered:
                self._pending.pop(path, None)
        self.stats.fsyncs += 1

    def read(self, path: str) -> bytes:
        """The durable image only — what a post-crash reader sees."""
        return bytes(self._durable.get(path, b""))

    def files(self, prefix: str = "") -> list:
        """Sorted durable file names starting with ``prefix``."""
        return sorted(p for p in self._durable if p.startswith(prefix))

    def exists(self, path: str) -> bool:
        return path in self._durable or path in self._pending

    def delete(self, path: str) -> None:
        self._durable.pop(path, None)
        self._pending.pop(path, None)

    def erase(self, prefix: str = "") -> None:
        """Lose every file starting with ``prefix``, durable or buffered
        (by default all of them: a replaced machine)."""
        for files in (self._durable, self._pending):
            for path in [p for p in files if p.startswith(prefix)]:
                del files[path]

    # -- crash & fault surface -----------------------------------------------

    def power_fail(self) -> None:
        """Lose power: tear or drop every un-fsynced write buffer.

        For each file a seeded *prefix* of the buffered bytes survives
        (zero is allowed), so a record can land half-written — the torn
        tail the WAL replay must treat as "never written".
        """
        for path in sorted(self._pending):
            buffered = self._pending[path]
            keep = self.rng.randint(0, len(buffered))
            if keep:
                self._durable.setdefault(path, bytearray()).extend(
                    buffered[:keep])
            if 0 < keep < len(buffered):
                self.stats.torn_writes += 1
        self._pending.clear()

    def inject_bitrot(self, path: Optional[str] = None,
                      span: Optional[tuple] = None) -> Optional[str]:
        """Flip one seeded byte of a durable file (or None): of ``path``
        (default: a seeded file), within ``span`` = ``(start, end)``
        (default: anywhere)."""
        if path is None:
            files = [p for p in sorted(self._durable) if self._durable[p]]
            if not files:
                return None
            path = files[self.rng.randrange(len(files))]
        data = self._durable[path]
        offset = self.rng.randrange(*(span or (len(data),)))
        data[offset] ^= 0x40
        self.stats.bitrot_injected += 1
        return f"{path}@{offset}"

    def tear_tail(self) -> Optional[str]:
        """Truncate a seeded suffix off the newest durable file."""
        files = [p for p in sorted(self._durable) if self._durable[p]]
        if not files:
            return None
        path = files[-1]
        data = self._durable[path]
        cut = self.rng.randint(1, min(len(data), 48))
        del data[len(data) - cut:]
        if not data:
            self._durable.pop(path)
        self.stats.torn_writes += 1
        return f"{path}-{cut}B"


class DiskFarm:
    """One :class:`SimulatedDisk` per node name, shared stats."""

    def __init__(self, env: Environment, seeds: SeedStream,
                 config: DurabilityConfig):
        self.env = env
        self.config = config
        self.stats = StoreStats()
        self._seeds = seeds
        self.disks: Dict[str, SimulatedDisk] = {}

    def disk(self, name: str) -> SimulatedDisk:
        if name not in self.disks:
            self.disks[name] = SimulatedDisk(
                self.env, name, self._seeds.stream(name), self.config,
                self.stats)
        return self.disks[name]

    def power_fail_all(self) -> None:
        """The whole-cluster power cut: every buffer torn at once."""
        self.stats.power_failures += 1
        for name in sorted(self.disks):
            self.disks[name].power_fail()
