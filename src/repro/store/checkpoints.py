"""Durable, epoch-tagged checkpoint store.

A checkpoint reaches this module already frozen: ``freeze`` is the one
serialisation pass (taken by the capture path, or by a recovery host
for an SMR snapshot) and ``thaw`` its inverse, a private copy sharing
nothing with the live state the bytes were taken from.

``save`` is callable from the synchronous capture path: it CRC-frames
the frozen record's ``payload`` verbatim, buffers it on the disk
immediately and spawns a background process to fsync it. Only after
the fsync completes does the store prune old checkpoint files and
truncate WAL segments behind the new checkpoint — a crash mid-save
therefore always leaves the previous checkpoint (and the WAL suffix it
needs) intact. Then, too, the checkpoint's settled key becomes the
store's ``durable_key``: the restore key a durable replica reports for
its group's delivery floor (:mod:`repro.ordering.floor`).

``load_latest_checkpoint`` walks the durable checkpoint files newest
first and CRC-verifies each; a bit-rotted checkpoint is skipped (and
counted) in favour of the next older generation, which is why the
store keeps ``keep_checkpoints`` of them. It returns the thawed
checkpoint with its ``checksum`` field empty: the CRC32 frame is the
integrity check of a durable image.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Optional, Tuple

from repro.sim.core import Environment
from repro.store.disk import SimulatedDisk, StoreStats
from repro.store.wal import WriteAheadLog

#: ``<payload length, crc32(payload)>``
CKPT_HEADER = struct.Struct("<II")

#: Default file-name prefix for checkpoint files.
CKPT_PREFIX = "ckpt"


def freeze(state) -> bytes:
    """Serialise ``state`` in one pass; the bytes are a point-in-time copy.

    The caller may assemble ``state`` by reference from live structures
    as long as nothing runs between the assembly and this call.
    """
    return pickle.dumps(state, protocol=4)


def thaw(payload: bytes):
    """A private copy of frozen state (only of bytes ``freeze`` wrote)."""
    return pickle.loads(payload)


def load_latest_checkpoint(disk: SimulatedDisk,
                           stats: Optional[StoreStats] = None,
                           prefix: str = CKPT_PREFIX
                           ) -> Tuple[Optional[object], int]:
    """Newest durable checkpoint that passes its CRC, plus skip count."""
    skipped = 0
    for path in reversed(disk.files(prefix + ".")):
        data = disk.read(path)
        try:
            if len(data) < CKPT_HEADER.size:
                raise ValueError("short header")
            length, crc = CKPT_HEADER.unpack_from(data, 0)
            payload = bytes(data[CKPT_HEADER.size:CKPT_HEADER.size + length])
            if len(payload) < length:
                raise ValueError("short payload")
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise ValueError("crc mismatch")
            checkpoint = thaw(payload)
        except Exception:
            skipped += 1
            if stats is not None:
                stats.checkpoint_corrupt += 1
            continue
        return checkpoint, skipped
    return None, skipped


class DurableCheckpointStore:
    """Persists frozen checkpoints and truncates the WAL behind them."""

    def __init__(self, env: Environment, disk: SimulatedDisk,
                 stats: StoreStats, keep: int = 2,
                 prefix: str = CKPT_PREFIX,
                 wal: Optional[WriteAheadLog] = None):
        self.env = env
        self.disk = disk
        self.stats = stats
        self.keep = keep
        self.prefix = prefix
        self.wal = wal
        self.closed = False
        # Settled key of the newest checkpoint whose fsync has completed.
        self.durable_key: Optional[tuple] = None

    def save(self, checkpoint) -> None:
        """Buffer the checkpoint now, fsync + prune + truncate async."""
        if self.closed:
            return
        path = (f"{self.prefix}.{checkpoint.epoch:06d}"
                f".{checkpoint.applied_count:010d}")
        if self.disk.exists(path):
            return
        payload = checkpoint.payload
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        self.disk.append(path, CKPT_HEADER.pack(len(payload), crc) + payload)
        self.env.process(
            self._persist(path, checkpoint.applied_count,
                          checkpoint.settled_key),
            name=f"ckpt/{self.disk.name}/{checkpoint.applied_count}")

    def _persist(self, path: str, position: int, key: Optional[tuple]):
        yield from self.disk.fsync(path)
        if self.closed:
            return
        self.stats.checkpoints_saved += 1
        if key is not None and (self.durable_key is None
                                or key > self.durable_key):
            self.durable_key = key
        files = self.disk.files(self.prefix + ".")
        while len(files) > self.keep:
            self.disk.delete(files.pop(0))
            self.stats.checkpoints_pruned += 1
        if self.wal is not None:
            self.wal.truncate_below(position)

    def load_latest(self) -> Tuple[Optional[object], int]:
        return load_latest_checkpoint(self.disk, self.stats, self.prefix)

    def close(self) -> None:
        self.closed = True
