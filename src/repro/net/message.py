"""Network message representation.

Every payload travelling through the simulated network is wrapped in a
:class:`Message`. The ``size`` field (bytes) feeds the bandwidth term of the
latency model; protocol layers set it from their payload's logical size so
that, e.g., moving a large variable costs more than sending a signal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

# One id sequence: ``Network.send`` draws from it and passes the id along.
next_msg_id = itertools.count().__next__

# Default wire size used when a layer does not specify one: roughly a small
# RPC with headers.
DEFAULT_MESSAGE_SIZE = 256


@dataclass(slots=True)
class Message:
    """A message in flight between two simulated processes.

    Attributes:
        src: name of the sending node.
        dst: name of the receiving node.
        kind: protocol-level message type tag (e.g. ``"paxos/accept"``).
        payload: arbitrary protocol payload.
        size: wire size in bytes (drives the bandwidth latency term).
        msg_id: globally unique id, useful in logs and tests.
        sent_at: virtual time the message entered the network.
    """

    src: str
    dst: str
    kind: str
    payload: Any = None
    size: int = DEFAULT_MESSAGE_SIZE
    msg_id: int = field(default_factory=next_msg_id)
    sent_at: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(#{self.msg_id} {self.src}->{self.dst} "
                f"{self.kind!r} size={self.size})")
