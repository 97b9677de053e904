"""Segmented, CRC-checksummed write-ahead log with group commit.

Record framing is ``<u32 payload_len><u32 crc32><u64 seq><payload>``
where the CRC covers ``seq`` *and* the pickled payload, so a flipped
byte anywhere in a record — length, checksum, sequence number or body —
is detected. Records append into segment files named
``wal.<start_seq>``; a new segment opens every ``segment_records``
appends so checkpoints can truncate whole durable segments behind them.

Durability is group-committed: ``append`` buffers the record on the
simulated disk and schedules one flush ``group_commit_ms`` later; the
flush fsyncs every dirty segment and fires the ``sync_barrier`` events
of all appends it made durable. Executors yield a barrier before
executing (and therefore before replying), so an acknowledged command
is always fsynced somewhere. An *urgent* barrier (a group speaker about
to announce a timestamp to other groups) pulls the pending group commit
forward to now, or to the end of the flush already in flight; it never
starts a second flush beside one.

Replay implements the torn-vs-corrupt distinction the recovery ladder
depends on: a *truncated* record at the tail of the **last** segment is
a torn write — bytes that never finished hitting the platter — and ends
the log cleanly, while a CRC mismatch anywhere, or truncation in a
non-final segment, is *corruption*: the log cannot be trusted past that
point and recovery must fall back to a peer for the suffix instead of
silently treating it as end-of-log.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.core import Environment, Event
from repro.store.disk import SimulatedDisk, StoreStats

#: ``<payload length, crc32(seq || payload), seq>``
RECORD_HEADER = struct.Struct("<IIQ")

#: Default file-name prefix for WAL segments.
WAL_PREFIX = "wal"


def _record_crc(seq: int, payload: bytes) -> int:
    return zlib.crc32(seq.to_bytes(8, "little") + payload) & 0xFFFFFFFF


def encode_record(seq: int, entry: dict) -> bytes:
    """One framed WAL record for ``entry`` at log position ``seq``."""
    payload = pickle.dumps(entry, protocol=4)
    return RECORD_HEADER.pack(len(payload), _record_crc(seq, payload),
                              seq) + payload


@dataclass
class WalReplay:
    """Outcome of scanning a disk's WAL segments after a crash."""

    #: Valid records in append order.
    entries: List[Tuple[int, dict]] = field(default_factory=list)
    #: ``clean`` | ``torn`` (truncated tail record — never written) |
    #: ``corrupt`` (CRC failure or mid-log truncation — data lost).
    status: str = "clean"
    corrupt_records: int = 0
    torn_tail: bool = False

    @property
    def max_seq(self) -> Optional[int]:
        return max((seq for seq, _ in self.entries), default=None)


def replay_wal(disk: SimulatedDisk, prefix: str = WAL_PREFIX,
               stats: Optional[StoreStats] = None) -> WalReplay:
    """Scan durable segments, CRC-checking every record.

    Stops at the first anomaly. The anomaly's position decides its
    meaning: a short read at the very tail of the final segment is a
    torn write (clean end of log); anything else is corruption.
    """
    replay = WalReplay()
    files = disk.files(prefix + ".")
    for index, path in enumerate(files):
        data = disk.read(path)
        last_file = index == len(files) - 1
        offset = 0
        anomaly = None
        while offset < len(data):
            if len(data) - offset < RECORD_HEADER.size:
                anomaly = "short"
                break
            length, crc, seq = RECORD_HEADER.unpack_from(data, offset)
            body_start = offset + RECORD_HEADER.size
            if len(data) - body_start < length:
                anomaly = "short"
                break
            payload = bytes(data[body_start:body_start + length])
            if _record_crc(seq, payload) != crc:
                anomaly = "crc"
                break
            try:
                entry = pickle.loads(payload)
            except Exception:
                anomaly = "crc"
                break
            replay.entries.append((seq, entry))
            offset = body_start + length
        if anomaly == "short" and last_file:
            replay.torn_tail = True
            replay.status = "torn"
            break
        if anomaly is not None:
            replay.corrupt_records += 1
            replay.status = "corrupt"
            break
    if stats is not None:
        stats.records_replayed += len(replay.entries)
        stats.corrupt_records += replay.corrupt_records
        stats.torn_tails += 1 if replay.torn_tail else 0
    return replay


def wipe_wal(disk: SimulatedDisk, prefix: str = WAL_PREFIX) -> None:
    """Delete every WAL segment (cold start compacts by re-appending)."""
    for path in list(disk.files(prefix + ".")):
        disk.delete(path)
    # Pending bytes of an old incarnation must not resurrect either.
    for path in [p for p in list(disk._pending) if p.startswith(prefix + ".")]:
        disk.delete(path)


class WriteAheadLog:
    """Group-committed segmented WAL on one simulated disk."""

    def __init__(self, env: Environment, disk: SimulatedDisk,
                 stats: StoreStats, group_commit_ms: float = 1.0,
                 segment_records: int = 32, prefix: str = WAL_PREFIX):
        self.env = env
        self.disk = disk
        self.stats = stats
        self.group_commit_ms = group_commit_ms
        self.segment_records = segment_records
        self.prefix = prefix
        self.closed = False
        self._appended_seq: Optional[int] = None
        self._durable_seq: Optional[int] = None
        self._segment: Optional[str] = None
        self._segment_count = 0
        self._dirty: Dict[str, bool] = {}
        self._barriers: List[Tuple[int, Event]] = []
        # Token of the scheduled group commit (None: none scheduled); a
        # pulled-forward flush clears it, so the timer finds it stale.
        self._flush_timer: Optional[object] = None
        self._in_flight = 0
        self._urgent = False

    # -- append / barrier ----------------------------------------------------

    def append(self, seq: int, entry: dict) -> bool:
        """Buffer one record; idempotent for already-appended positions."""
        if self.closed:
            return False
        if self._appended_seq is not None and seq <= self._appended_seq:
            self.stats.skipped_appends += 1
            return False
        if self._segment is None:
            self._segment = f"{self.prefix}.{seq:010d}"
            self._segment_count = 0
        self.disk.append(self._segment, encode_record(seq, entry))
        self._dirty[self._segment] = True
        self._appended_seq = seq
        self._segment_count += 1
        if self._segment_count >= self.segment_records:
            self._segment = None
        self._schedule_flush()
        return True

    def sync_barrier(self, urgent: bool = False) -> Event:
        """An event that fires once everything appended so far is durable.

        ``urgent`` flushes now instead of waiting out ``group_commit_ms``
        (after the flush in flight, if there is one).
        """
        event = self.env.event()
        if self._appended_seq is None or (
                self._durable_seq is not None
                and self._appended_seq <= self._durable_seq):
            event.succeed(None)
            return event
        self._barriers.append((self._appended_seq, event))
        self._schedule_flush()
        if urgent:
            self._urgent = True
            if not self._in_flight:
                self._launch_flush()
        return event

    @property
    def durable_seq(self) -> Optional[int]:
        return self._durable_seq

    # -- group commit --------------------------------------------------------

    def _schedule_flush(self) -> None:
        if self._flush_timer is not None or self.closed:
            return
        token = self._flush_timer = object()

        def due() -> None:
            if token is self._flush_timer:   # else it was pulled forward
                self._launch_flush()

        self.env.schedule_callback(self.group_commit_ms, due)

    def _launch_flush(self) -> None:
        self._in_flight += 1
        self.env.process(self._flush(), name=f"wal/{self.disk.name}/flush")

    def _flush(self):
        self._flush_timer = None
        self._urgent = False
        if self.closed:
            return
        target = self._appended_seq
        dirty = list(self._dirty)
        self._dirty = {}
        for path in dirty:
            yield from self.disk.fsync(path)
            if self.closed:
                return
        if target is not None:
            self._durable_seq = (target if self._durable_seq is None
                                 else max(self._durable_seq, target))
        self.stats.group_commits += 1
        still_waiting = []
        for seq, event in self._barriers:
            if self._durable_seq is not None and seq <= self._durable_seq:
                event.succeed(None)
            else:
                still_waiting.append((seq, event))
        self._barriers = still_waiting
        self._in_flight -= 1
        if self._dirty or self._barriers:
            self._schedule_flush()
            if self._urgent and not self._in_flight:
                self._launch_flush()

    # -- maintenance ---------------------------------------------------------

    def truncate_below(self, position: int) -> int:
        """Drop durable segments wholly below ``position`` (checkpointed)."""
        files = self.disk.files(self.prefix + ".")
        starts = [int(path.rsplit(".", 1)[1]) for path in files]
        dropped = 0
        for index, path in enumerate(files):
            next_start = (starts[index + 1] if index + 1 < len(starts)
                          else None)
            if (next_start is not None and next_start <= position
                    and path != self._segment):
                self.disk.delete(path)
                dropped += 1
        self.stats.segments_truncated += dropped
        return dropped

    def close(self) -> None:
        """Stop flushing; pending barriers never fire (owner is dead)."""
        self.closed = True
        self._barriers = []
        self._dirty = {}
