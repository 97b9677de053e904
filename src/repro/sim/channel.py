"""FIFO channels for inter-process communication inside the simulator.

A :class:`Channel` is an unbounded FIFO queue. ``put`` never blocks (the
network substrate models delay and backpressure explicitly); ``get`` returns
an event the caller yields on, which fires as soon as an item is available.
Items are matched to getters in strict FIFO order, preserving determinism.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.core import Environment, Event


class Channel:
    """Unbounded FIFO channel.

    Example::

        inbox = Channel(env)

        def consumer(env):
            while True:
                item = yield inbox.get()
                handle(item)
    """

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def pending_getters(self) -> int:
        """Number of processes currently blocked on :meth:`get`."""
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Enqueue ``item``, waking the oldest waiting getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` if available, else ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def items(self) -> list:
        """The queued items, oldest first (a copy; nothing is consumed)."""
        return list(self._items)

    def clear(self) -> None:
        """Drop all queued items (waiting getters stay blocked)."""
        self._items.clear()
