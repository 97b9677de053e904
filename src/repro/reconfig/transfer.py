"""Chunked, resumable bulk state transfer over ``repro.net``.

Pull-based protocol between a :class:`CheckpointHost` (attached to a live
partition server) and a :class:`StateTransfer` client (a recovering or
bootstrapping replica):

1. The receiver requests transfer metadata under a fresh transfer id. The
   host *freezes* a checkpoint for that id — capture happens once, repeat
   requests are answered from the frozen copy, so every chunk of one
   transfer comes from the same consistent snapshot (this is what makes
   the transfer resumable: a retried metadata request never mixes two
   captures).
2. The receiver pulls chunks with a sliding window of at most ``window``
   outstanding requests (flow control); chunk 0 carries the control state
   (execution history, session table, multicast/exchange state, queued
   deliveries), chunks 1..N carry sorted slices of the variable store.
3. Every chunk carries a checksum over its canonical serialisation;
   corrupt or lost chunks are simply re-requested (per-chunk timers), and
   duplicates are dropped. On completion the reassembled checkpoint's
   checksum must match the frozen one, and the receiver releases the
   host's frozen copy.

Everything is driven by virtual-time timers and seeded networks, so
transfers are deterministic and the chunk/retry counters below are stable
across same-seed runs.
"""

from __future__ import annotations

from typing import Optional

from repro.net import Message
from repro.reconfig.checkpoint import (PartitionCheckpoint,
                                       state_checksum)
from repro.resilience import with_timeout

XFER_META_REQ = "reconfig/xfer-meta-req"
XFER_META = "reconfig/xfer-meta"
XFER_CHUNK_REQ = "reconfig/xfer-chunk-req"
XFER_CHUNK = "reconfig/xfer-chunk"
XFER_DONE = "reconfig/xfer-done"


class StateTransferStalled(RuntimeError):
    """A transfer made no progress for ``stall_after_ms``.

    Raised by :meth:`StateTransfer.fetch` instead of retrying forever,
    so callers (the recovery ladder, the heal supervisor) can try an
    alternate peer or escalate to spare-join/abandoned rather than
    silently hanging a replacement replica behind its start gate.
    """

    def __init__(self, peer: str, phase: str, waited_ms: float):
        super().__init__(
            f"state transfer from {peer} stalled in {phase} phase "
            f"({waited_ms:.0f}ms without progress)")
        self.peer = peer
        self.phase = phase
        self.waited_ms = waited_ms


class CheckpointHost:
    """Serves frozen checkpoints of one partition server, in chunks.

    Attach one to every server that should be able to seed recovering
    peers (the harness attaches one per partitioned server). Requires a
    :class:`~repro.reconfig.checkpoint.PartitionCheckpointer` on the
    server. A replacement server serves nothing until its own recovery
    has installed state.
    """

    def __init__(self, server, chunk_keys: int = 8):
        if chunk_keys < 1:
            raise ValueError("chunk_keys must be >= 1")
        self.server = server
        self.chunk_keys = chunk_keys
        self._frozen: dict[str, list[dict]] = {}
        self._meta: dict[str, dict] = {}
        self.transfers_started = 0
        self.chunks_served = 0
        server.checkpoint_host = self
        server.node.on(XFER_META_REQ, self._on_meta_request)
        server.node.on(XFER_CHUNK_REQ, self._on_chunk_request)
        server.node.on(XFER_DONE, self._on_done)

    def _freeze(self, transfer_id: str) -> None:
        if transfer_id in self._frozen:
            return
        if self.server.checkpointer is None:
            raise RuntimeError(f"{self.server.node.name} has no "
                               f"PartitionCheckpointer attached")
        # Thawed: the chunks travel by reference through the simulated
        # network and are installed as the receiver's live state, so they
        # must share nothing with the donor or its retained checkpoint.
        checkpoint = self.server.checkpointer.capture(
            reason=f"transfer:{transfer_id}").thaw()
        control = {
            "partition": checkpoint.partition,
            "replica": checkpoint.replica,
            "epoch": checkpoint.epoch,
            "taken_at": checkpoint.taken_at,
            "executed": checkpoint.executed,
            "replies": checkpoint.replies,
            "applied_count": checkpoint.applied_count,
            "amcast": checkpoint.amcast,
            "exchange": checkpoint.exchange,
            "queued": checkpoint.queued,
            "location_slice": checkpoint.location_slice,
            "applied_reconfigs": checkpoint.applied_reconfigs,
        }
        payloads = [{"control": control}]
        keys = sorted(checkpoint.store, key=str)
        for at in range(0, len(keys), self.chunk_keys):
            slice_keys = keys[at:at + self.chunk_keys]
            payloads.append({"store": {key: checkpoint.store[key]
                                       for key in slice_keys}})
        chunks = [{"transfer_id": transfer_id, "index": index,
                   "payload": payload,
                   "checksum": state_checksum(payload)}
                  for index, payload in enumerate(payloads)]
        self._frozen[transfer_id] = chunks
        self._meta[transfer_id] = {
            "transfer_id": transfer_id,
            "num_chunks": len(chunks),
            "checksum": checkpoint.checksum,
            "epoch": checkpoint.epoch,
            "partition": checkpoint.partition,
            "keys": checkpoint.num_keys,
        }
        self.transfers_started += 1

    def _on_meta_request(self, message: Message) -> None:
        if not self.server.started:
            # A replacement that has not installed its own state would
            # capture an empty store at position 0. Stay silent: the
            # requester's meta retry finds it installed, or its stall
            # rule moves it on to a fallback peer.
            return
        transfer_id = message.payload["transfer_id"]
        self._freeze(transfer_id)
        self.server.node.send(message.payload["reply_to"], XFER_META,
                              self._meta[transfer_id], size=160)

    def _on_chunk_request(self, message: Message) -> None:
        transfer_id = message.payload["transfer_id"]
        chunks = self._frozen.get(transfer_id)
        if chunks is None:
            return  # unknown/released transfer; the meta retry re-freezes
        chunk = chunks[message.payload["index"]]
        payload = chunk["payload"]
        items = len(payload.get("store", ())) or len(
            payload.get("control", {}).get("executed", ()))
        self.chunks_served += 1
        self.server.node.send(message.payload["reply_to"], XFER_CHUNK,
                              chunk, size=192 + 64 * items)

    def _on_done(self, message: Message) -> None:
        transfer_id = message.payload["transfer_id"]
        self._frozen.pop(transfer_id, None)
        self._meta.pop(transfer_id, None)


class StateTransfer:
    """Receiver endpoint: fetches one peer checkpoint at a time.

    Construct once per node (it owns the transfer message kinds), then
    drive ``checkpoint = yield from transfer.fetch(peer_name)`` from a
    process. Lost requests, lost chunks and corrupt chunks are recovered
    by per-chunk retry timers; at most ``window`` chunk requests are
    outstanding at any moment.
    """

    def __init__(self, node, window: int = 4,
                 chunk_timeout_ms: float = 40.0,
                 meta_timeout_ms: float = 40.0,
                 tracer=None):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.node = node
        self.env = node.env
        self.window = window
        self.chunk_timeout_ms = chunk_timeout_ms
        self.meta_timeout_ms = meta_timeout_ms
        self.tracer = tracer
        self._transfer_id: Optional[str] = None
        self._meta: Optional[dict] = None
        self._meta_event = None
        self._chunks: dict[int, dict] = {}
        self._outstanding: dict[int, float] = {}
        self._wake = None
        # Wire-level accounting (scraped into the reconfig metrics).
        self.chunks_received = 0
        self.duplicates = 0
        self.corrupt = 0
        self.retries = 0
        self.meta_retries = 0
        self.stalls = 0
        self._progress_at = 0.0
        node.on(XFER_META, self._on_meta)
        node.on(XFER_CHUNK, self._on_chunk)

    # -- inbound ------------------------------------------------------------

    def _on_meta(self, message: Message) -> None:
        meta = message.payload
        if meta["transfer_id"] != self._transfer_id or self._meta is not None:
            return
        self._meta = meta
        self._progress_at = self.env.now
        if self._meta_event is not None:
            event, self._meta_event = self._meta_event, None
            event.succeed(None)

    def _on_chunk(self, message: Message) -> None:
        chunk = message.payload
        if chunk["transfer_id"] != self._transfer_id:
            return
        index = chunk["index"]
        if index in self._chunks:
            self.duplicates += 1
            return
        if state_checksum(chunk["payload"]) != chunk["checksum"]:
            # Integrity failure: treat as lost, the timer re-requests.
            self.corrupt += 1
            self._outstanding.pop(index, None)
            return
        self._chunks[index] = chunk
        self._outstanding.pop(index, None)
        self.chunks_received += 1
        self._progress_at = self.env.now
        if self._wake is not None:
            wake, self._wake = self._wake, None
            wake.succeed(None)

    # -- driver -------------------------------------------------------------

    def fetch(self, peer: str, stall_after_ms: Optional[float] = None):
        """Generator: pull one full checkpoint from ``peer``.

        With ``stall_after_ms`` set, ``stall_after_ms`` of virtual time
        without any progress (no metadata, no new chunk) raises
        :class:`StateTransferStalled` — the terminal signal that the
        source peer is gone — after resetting the receiver so the next
        ``fetch`` can target an alternate peer.
        """
        if self._transfer_id is not None:
            raise RuntimeError("a transfer is already in progress on "
                               f"{self.node.name}")
        self._transfer_id = self.env.ids.new("xf", self.node.name)
        self._meta = None
        self._chunks = {}
        self._outstanding = {}
        started = self.env.now
        self._progress_at = started
        while self._meta is None:
            self._check_stall(peer, "meta", stall_after_ms)
            self._meta_event = self.env.event()
            self.node.send(peer, XFER_META_REQ,
                           {"transfer_id": self._transfer_id,
                            "reply_to": self.node.name}, size=96)
            fired, _ = yield from with_timeout(self.env, self._meta_event,
                                               self.meta_timeout_ms)
            if not fired:
                self._meta_event = None
                self.meta_retries += 1
        num_chunks = self._meta["num_chunks"]
        while len(self._chunks) < num_chunks:
            self._check_stall(peer, "chunk", stall_after_ms)
            now = self.env.now
            for index in [i for i, t in self._outstanding.items()
                          if now - t >= self.chunk_timeout_ms]:
                del self._outstanding[index]
                self.retries += 1
            budget = self.window - len(self._outstanding)
            if budget > 0:
                missing = [i for i in range(num_chunks)
                           if i not in self._chunks
                           and i not in self._outstanding]
                for index in missing[:budget]:
                    self.node.send(peer, XFER_CHUNK_REQ,
                                   {"transfer_id": self._transfer_id,
                                    "index": index,
                                    "reply_to": self.node.name}, size=96)
                    self._outstanding[index] = now
            self._wake = self.env.event()
            yield self.env.any_of([self._wake,
                                   self.env.timeout(self.chunk_timeout_ms)])
            self._wake = None
        checkpoint = self._assemble()
        self.node.send(peer, XFER_DONE,
                       {"transfer_id": self._transfer_id}, size=64)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.span(f"xfer:{self._transfer_id}", "state-transfer",
                             self.node.name, started, self.env.now,
                             chunks=num_chunks, retries=self.retries,
                             keys=checkpoint.num_keys)
        self._transfer_id = None
        return checkpoint

    def _check_stall(self, peer: str, phase: str,
                     stall_after_ms: Optional[float]) -> None:
        if stall_after_ms is None:
            return
        waited = self.env.now - self._progress_at
        if waited < stall_after_ms:
            return
        self.stalls += 1
        # Reset so a retry against another peer starts clean.
        self._transfer_id = None
        self._meta = None
        self._meta_event = None
        self._chunks = {}
        self._outstanding = {}
        self._wake = None
        raise StateTransferStalled(peer, phase, waited)

    def _assemble(self) -> PartitionCheckpoint:
        control = self._chunks[0]["payload"]["control"]
        store: dict = {}
        for index in range(1, len(self._chunks)):
            store.update(self._chunks[index]["payload"]["store"])
        checkpoint = PartitionCheckpoint(
            partition=control["partition"],
            replica=control["replica"],
            epoch=control["epoch"],
            taken_at=control["taken_at"],
            store=store,
            executed=list(control["executed"]),
            replies=control["replies"],
            applied_count=control["applied_count"],
            amcast=control["amcast"],
            exchange=control["exchange"],
            queued=control["queued"],
            location_slice=control["location_slice"],
            applied_reconfigs=control["applied_reconfigs"],
        )
        checkpoint.checksum = checkpoint.compute_checksum()
        if checkpoint.checksum != self._meta["checksum"]:
            raise RuntimeError(
                f"state transfer {self._transfer_id}: reassembled "
                f"checkpoint checksum {checkpoint.checksum} does not "
                f"match frozen {self._meta['checksum']}")
        return checkpoint
