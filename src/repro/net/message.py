"""Network message representation.

Every payload travelling through the simulated network is wrapped in a
:class:`Message`. The ``size`` field (bytes) feeds the bandwidth term of the
latency model; protocol layers set it from their payload's logical size so
that, e.g., moving a large variable costs more than sending a signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# Default wire size used when a layer does not specify one: roughly a small
# RPC with headers.
DEFAULT_MESSAGE_SIZE = 256


@dataclass(slots=True)
class Message:
    """A message in flight between two simulated processes.

    Only :meth:`Network.send <repro.net.transport.Network.send>` builds
    one, so every field is given.

    Attributes:
        src: name of the sending node.
        dst: name of the receiving node.
        kind: protocol-level message type tag (e.g. ``"paxos/accept"``).
        payload: arbitrary protocol payload.
        size: wire size in bytes (drives the bandwidth latency term).
        msg_id: unique within the run (``env.ids``), useful in logs and tests.
        sent_at: virtual time the message entered the network.
    """

    src: str
    dst: str
    kind: str
    payload: Any
    size: int
    msg_id: int
    sent_at: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(#{self.msg_id} {self.src}->{self.dst} "
                f"{self.kind!r} size={self.size})")
