"""Cluster flight recorder: bounded per-node rings of protocol events.

Reconfigurable-SMR practice leans on black-box event logs to debug
epoch-change and failover bugs: when an invariant trips, what you want
is *the last thing every node saw*, not a full trace. The flight
recorder is that black box — an always-on, bounded ring buffer per node
holding the most recent protocol events (message deliveries and drops,
crashes and recoveries, client retries, epoch fences, failure-detector
suspicions, oracle moves). Memory is O(nodes × capacity) no matter how
long the run; older events are evicted (and counted) as new ones arrive.

It lives on the :class:`~repro.net.transport.Network` (every component
reaches it through its node), records nothing but virtual timestamps and
short strings, touches no RNG and schedules no events — so it can stay
on in every chaos/fuzz/heal run without perturbing results, and its
:meth:`FlightRecorder.dump` is canonical (sorted nodes, rounded times)
so violation artifacts embedding it stay byte-deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

#: Default ring capacity per node. Sized so a dump of a whole deployment
#: stays a few KiB of JSON: deep enough to cover the settle window before
#: an invariant check, small enough to ride inside every repro artifact.
DEFAULT_CAPACITY = 48


class FlightRecorder:
    """Always-on bounded event rings, one per node."""

    def __init__(self, env, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._rings: dict[str, deque] = {}
        self.evicted: dict[str, int] = {}

    def record(self, node: str, kind: str, detail="") -> None:
        """Append one event to ``node``'s ring (evicting the oldest)."""
        ring = self._rings.get(node)
        if ring is None:
            ring = self._rings[node] = deque(maxlen=self.capacity)
        if len(ring) == self.capacity:
            self.evicted[node] = self.evicted.get(node, 0) + 1
        ring.append((self.env.now, kind, detail))

    # -- queries -----------------------------------------------------------

    def nodes(self) -> list[str]:
        return sorted(self._rings)

    def events(self, node: str) -> list[tuple]:
        """The retained ``(time, kind, detail)`` events of ``node``. The
        network records each delivery's message as its detail (most are
        evicted unread); it reads as ``"<kind> from <src>"``."""
        return [(at, kind, detail if isinstance(detail, str)
                 else f"{detail.kind} from {detail.src}")
                for at, kind, detail in self._rings.get(node, ())]

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    # -- postmortem dumps --------------------------------------------------

    def dump(self, nodes: Optional[Iterable[str]] = None) -> dict:
        """Canonical postmortem snapshot (sorted nodes, rounded times).

        ``nodes`` restricts the dump to the named nodes (unknown names
        yield empty rings — a crashed node that never logged is still
        listed, so the reader can tell "silent" from "omitted"); the
        default dumps every node that recorded anything.
        """
        names = sorted(nodes) if nodes is not None else self.nodes()
        return {
            "capacity": self.capacity,
            "nodes": {
                name: [{"at": round(at, 3), "kind": kind, "detail": detail}
                       for at, kind, detail in self.events(name)]
                for name in names
            },
            "evicted": {name: self.evicted[name]
                        for name in sorted(self.evicted)
                        if name in set(names)},
        }
