"""Centralized (non-genuine) atomic multicast — the baseline primitive.

A single global sequencer orders *every* multicast message, assigning each
destination group a gapless per-group sequence number and fanning the
message out to all destination members. This satisfies all the Section-2.4
properties (the sequencer's global order projects onto consistent per-group
orders), but it is **not genuine**: even a single-group message travels
through the global sequencer, which becomes both a throughput bottleneck
(it can charge per-message CPU time) and a single point of failure.

The genuine Skeen-style protocol (:mod:`repro.ordering.atomic_multicast`)
involves only the destination groups, at the price of a timestamp exchange
for multi-group messages. Benchmark E13 compares the two primitives —
the trade-off that made the literature (and the paper's Paxos-based
multicast library) prefer genuine protocols for partitioned SMR.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.net import Message
from repro.ordering.atomic_multicast import AmcastDelivery
from repro.ordering.group import GroupDirectory
from repro.ordering.node import ProtocolNode
from repro.sim import Channel, Interrupted

SUBMIT = "cseq/submit"
DELIVER = "cseq/deliver"

DeliverCallback = Callable[[AmcastDelivery], None]


class GlobalSequencer:
    """The process that orders everything.

    ``service_time_ms`` models the sequencer's per-message CPU cost; with
    it set, the sequencer saturates under load — the bottleneck the genuine
    protocol avoids.
    """

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 service_time_ms: float = 0.0):
        self.node = node
        self.directory = directory
        self.service_time_ms = service_time_ms
        self._group_seq: dict[str, int] = {}
        self._seen_uids: set[str] = set()
        self.sequenced = 0
        self._queue = Channel(node.env, name=f"{node.name}/cseq")
        node.on(SUBMIT, self._queue.put)
        self._worker = node.env.process(self._serve(),
                                        name=f"{node.name}/cseq-worker")

    def _serve(self):
        try:
            while True:
                message: Message = yield self._queue.get()
                if self.service_time_ms > 0:
                    yield self.node.env.timeout(self.service_time_ms)
                self._sequence(message.payload, message.size)
        except Interrupted:
            return

    def _sequence(self, envelope: dict, size: int) -> None:
        uid = envelope["uid"]
        if uid in self._seen_uids:
            return
        self._seen_uids.add(uid)
        self.sequenced += 1
        groups = envelope["groups"]
        stamped = dict(envelope, seqs={})
        for group in groups:
            seq = self._group_seq.get(group, 0)
            self._group_seq[group] = seq + 1
            stamped["seqs"][group] = seq
        for member in self.directory.all_members(groups):
            self.node.send(member, DELIVER, stamped, size=size)


class CentralizedAtomicMulticast:
    """A group member's endpoint of the centralized multicast.

    Interface-compatible with
    :class:`~repro.ordering.atomic_multicast.AtomicMulticast`:
    ``multicast(groups, payload)`` and ``on_deliver(callback)``; deliveries
    arrive in the group's sequencer-assigned order, gaplessly.
    """

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 group: str, sequencer_name: str):
        self.node = node
        self.directory = directory
        self.group = group
        self.sequencer_name = sequencer_name
        self._next_seq = 0
        self._pending: dict[int, dict] = {}
        self._callbacks: list[DeliverCallback] = []
        self._deliver_count = 0
        self.delivery_log: list[str] = []
        node.on(DELIVER, self._on_deliver_message)

    def on_deliver(self, callback: DeliverCallback) -> None:
        self._callbacks.append(callback)

    def multicast(self, groups: Iterable[str], payload: Any,
                  size: int = 256, uid: Optional[str] = None) -> str:
        groups = tuple(sorted(set(groups)))
        if not groups:
            raise ValueError("amcast needs at least one destination group")
        uid = uid or self.node.env.ids.new("am", self.node.name)
        self.node.send(self.sequencer_name, SUBMIT, {
            "uid": uid, "groups": list(groups),
            "payload": payload, "origin": self.node.name,
        }, size=size + 64)
        return uid

    def _on_deliver_message(self, message: Message) -> None:
        envelope = message.payload
        seq = envelope["seqs"][self.group]
        if seq < self._next_seq or seq in self._pending:
            return  # duplicate
        self._pending[seq] = envelope
        while self._next_seq in self._pending:
            position = self._next_seq
            ready = self._pending.pop(position)
            self._next_seq += 1
            delivery = AmcastDelivery(
                uid=ready["uid"],
                payload=ready["payload"],
                groups=tuple(ready["groups"]),
                origin=ready["origin"],
                timestamp=(float(position), ready["uid"]),
                local_seq=self._deliver_count,
                position=position,
            )
            self._deliver_count += 1
            self.delivery_log.append(ready["uid"])
            for callback in list(self._callbacks):
                callback(delivery)


class CentralizedMulticastClient:
    """Initiator for processes outside all groups (clients)."""

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 sequencer_name: str):
        self.node = node
        self.directory = directory
        self.sequencer_name = sequencer_name

    def multicast(self, groups: Iterable[str], payload: Any,
                  size: int = 256, uid: Optional[str] = None) -> str:
        groups = tuple(sorted(set(groups)))
        if not groups:
            raise ValueError("amcast needs at least one destination group")
        uid = uid or self.node.env.ids.new("am", self.node.name)
        self.node.send(self.sequencer_name, SUBMIT, {
            "uid": uid, "groups": list(groups),
            "payload": payload, "origin": self.node.name,
        }, size=size + 64)
        return uid
