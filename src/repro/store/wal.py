"""Segmented, CRC-checksummed write-ahead log with group commit.

Record framing is ``<u32 payload_len><u32 crc32><u64 seq><payload>``
where the CRC covers ``seq`` *and* the pickled payload, so a flipped
byte anywhere in a record — length, checksum, sequence number or body —
is detected. Records append into segment files named
``wal.<start_seq>``; a new segment opens every ``segment_records``
appends so checkpoints can truncate whole durable segments behind them.

Durability is group-committed without a timer: ``append`` buffers the
record on the simulated disk and starts a flush at once unless one is
already in flight. A flush fsyncs every dirty segment and fires the
``sync_barrier`` events of every position it made durable; whatever was
appended while it ran rides the next flush, which starts the instant
this one ends. So the batch is whatever arrived during the previous
fsync, and there are never two flushes at once. A barrier names the
position it needs: an executor waits for the log position whose apply
delivered its command, before executing (and therefore before
replying), so an acknowledged command is always fsynced somewhere, and
it never waits for entries appended after that position.

Replay CRC-checks every record. A *truncated* record at the tail of the
**last** segment is a torn write — bytes that never finished hitting
the platter — and ends the log cleanly. Any other bad record (a CRC
mismatch, or truncation in a non-final segment) is *corruption*: that
record is a hole, and the scan resumes at the next intact record, so
what was fsynced after it stays readable. The recovery ladder feeds
every readable record and backfills the holes from a peer; the torn /
corrupt status only feeds the store stats and the flight recorder.
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
    corrupt_records: int = 0
    torn_tail: bool = False

    @property
    def status(self) -> str:
        """``corrupt`` (bad records skipped as holes), ``torn`` (a
        truncated tail record: never written) or ``clean``; for stats
        and the flight recorder, not for recovery decisions."""
        return ("corrupt" if self.corrupt_records
                else "torn" if self.torn_tail else "clean")

    @property
    def max_seq(self) -> Optional[int]:
        return max((seq for seq, _ in self.entries), default=None)


def _record_at(data, offset: int):
    """``(seq, entry, next_offset)`` of the intact record framed at
    ``offset``, ``"short"`` when the bytes end inside it, ``"bad"`` when
    its CRC (or payload) does not check."""
    if len(data) - offset < RECORD_HEADER.size:
        return "short"
    length, crc, seq = RECORD_HEADER.unpack_from(data, offset)
    body_start = offset + RECORD_HEADER.size
    if len(data) - body_start < length:
        return "short"
    payload = bytes(data[body_start:body_start + length])
    if _record_crc(seq, payload) != crc:
        return "bad"
    try:
        entry = pickle.loads(payload)
    except Exception:
        return "bad"
    return seq, entry, body_start + length


def replay_wal(disk: SimulatedDisk, prefix: str = WAL_PREFIX,
               stats: Optional[StoreStats] = None) -> WalReplay:
    """Scan durable segments, CRC-checking every record.

    A bad record is skipped: the scan resumes at the next offset that
    frames an intact record. Only a short read with nothing intact after
    it, at the tail of the final segment, is a torn write (clean end of
    log); every other anomaly is a corrupt record.
    """
    replay = WalReplay()
    files = disk.files(prefix + ".")
    for index, path in enumerate(files):
        data = disk.read(path)
        offset = 0
        while offset < len(data):
            record = _record_at(data, offset)
            if not isinstance(record, str):
                seq, entry, offset = record
                replay.entries.append((seq, entry))
                continue
            resume = next((start for start in range(offset + 1, len(data))
                           if not isinstance(_record_at(data, start), str)),
                          None)
            if (resume is None and record == "short"
                    and index == len(files) - 1):
                replay.torn_tail = True
            else:
                replay.corrupt_records += 1
            if resume is None:
                break
            offset = resume
    if stats is not None:
        stats.corrupt_records += replay.corrupt_records
        stats.torn_tails += 1 if replay.torn_tail else 0
    return replay


def wipe_wal(disk: SimulatedDisk, prefix: str = WAL_PREFIX) -> None:
    """Delete every WAL segment (cold start compacts by re-appending)."""
    # Pending bytes of an old incarnation must not resurrect either.
    disk.erase(prefix + ".")


class WriteAheadLog:
    """Eagerly group-committed segmented WAL on one simulated disk."""

    def __init__(self, env: Environment, disk: SimulatedDisk,
                 stats: StoreStats, segment_records: int = 32,
                 prefix: str = WAL_PREFIX):
        self.env = env
        self.disk = disk
        self.stats = stats
        self.segment_records = segment_records
        self.prefix = prefix
        self.closed = False
        self._appended_seq: Optional[int] = None
        self._durable_seq: Optional[int] = None
        self._segment: Optional[str] = None
        self._segment_count = 0
        self._dirty: Dict[str, bool] = {}
        self._barriers: List[Tuple[int, Event]] = []
        self._met = env.event().succeed()
        self._flushing = False

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
        self._start_flush()
        return True

    def sync_barrier(self, position: int) -> Event:
        """An event that fires once the log is durable through
        ``position``, or through the newest append if that is older (a
        position this WAL never appended, such as a delivery an install
        restored into the executor's queue).

        A barrier already met returns one shared event that triggered
        when the WAL opened: the caller can test ``triggered`` and go
        on without a wait.
        """
        if self._appended_seq is None:
            return self._met
        target = min(position, self._appended_seq)
        if self._durable_seq is not None and target <= self._durable_seq:
            return self._met
        event = self.env.event()
        self._barriers.append((target, event))
        self._start_flush()
        return event

    @property
    def durable_seq(self) -> Optional[int]:
        return self._durable_seq

    # -- group commit --------------------------------------------------------

    def _start_flush(self) -> None:
        if not self._flushing and not self.closed:
            self._flushing = True
            self.env.process(self._flush(),
                             name=f"wal/{self.disk.name}/flush")

    def _flush(self):
        # One flush per pass; a pass that ends with dirty segments or
        # waiting barriers goes straight into the next. Both imply an
        # append, so ``target`` is set and only grows pass to pass.
        while not self.closed and (self._dirty or self._barriers):
            target = self._appended_seq
            dirty = list(self._dirty)
            self._dirty = {}
            for path in dirty:
                yield from self.disk.fsync(path)
                if self.closed:
                    return
            self._durable_seq = target
            self.stats.group_commits += 1
            still_waiting = []
            for seq, event in self._barriers:
                if seq <= target:
                    event.succeed(None)
                else:
                    still_waiting.append((seq, event))
            self._barriers = still_waiting
        self._flushing = False

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
