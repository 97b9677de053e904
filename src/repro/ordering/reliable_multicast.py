"""Reliable multicast (Section 2.3 of the paper).

Guarantees, among correct processes:

* *validity* — a message rmcast by a correct process is delivered by every
  correct destination;
* *agreement* — if one correct destination delivers, all correct
  destinations deliver;
* *integrity* — at-most-once delivery, and only of messages actually sent.

Implementation: the sender unicasts to every member of every destination
group. With ``relay=True`` each receiver re-forwards the message to the
other destinations on first delivery, which covers the case of a sender
crashing after reaching only a subset (this is the textbook eager-relay
algorithm). Duplicates are suppressed with a per-node delivered set, keyed
by a multicast id unique within the run.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.net import Message
from repro.ordering.group import GroupDirectory
from repro.ordering.node import ProtocolNode

KIND = "rmcast"

DeliverCallback = Callable[[Any, "Message"], None]


class ReliableMulticast:
    """Per-node reliable multicast endpoint.

    Example (inside a node's protocol code)::

        rmcast = ReliableMulticast(node, directory)
        rmcast.on_deliver(lambda payload, msg: ...)
        rmcast.multicast(["partition-1"], {"var": "x", "value": 3})
    """

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 relay: bool = False):
        self.node = node
        self.directory = directory
        self.relay = relay
        self._delivered: set[str] = set()
        self._callbacks: list[DeliverCallback] = []
        node.on(KIND, self._on_message)

    def on_deliver(self, callback: DeliverCallback) -> None:
        """Register a delivery callback ``callback(payload, message)``."""
        self._callbacks.append(callback)

    def multicast(self, groups: Iterable[str], payload: Any,
                  size: int = 256,
                  to: Optional[Iterable[str]] = None) -> str:
        """rmcast ``payload`` to all members of ``groups``, or only to the
        members listed in ``to``; returns the id."""
        groups = sorted(set(groups))
        uid = self.node.env.ids.new("rm", self.node.name)
        envelope = {"uid": uid, "groups": groups, "payload": payload}
        destinations = (self.directory.all_members(groups) if to is None
                        else to)
        for dst in destinations:
            self.node.send(dst, KIND, envelope, size=size)
        return uid

    def _on_message(self, message: Message) -> None:
        envelope = message.payload
        uid = envelope["uid"]
        if uid in self._delivered:
            return
        self._delivered.add(uid)
        if self.relay:
            size = max(message.size, 64)
            for dst in self.directory.all_members(envelope["groups"]):
                if dst != self.node.name:
                    self.node.send(dst, KIND, envelope, size=size)
        for callback in list(self._callbacks):
            callback(envelope["payload"], message)
