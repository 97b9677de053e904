"""Protocol node: a named network attachment with kind-based dispatch.

Every server, oracle replica and client in the system is a
:class:`ProtocolNode`. Protocol layers (multicast, logs, proxies) register
handlers for message kinds; the network calls the node's dispatch function
from the delivery event itself, so a message costs one kernel event.
Handlers run instantaneously in virtual time — layers that model CPU cost
(e.g. command execution) do so in their own processes.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.net import Message, Network
from repro.net.message import DEFAULT_MESSAGE_SIZE
from repro.sim import Environment

Handler = Callable[[Message], None]


class ProtocolNode:
    """A named node attached to the network with kind-based dispatch.

    Handlers run in the delivery event itself: two messages reaching a node
    at the same instant are handled in send order, each ahead of zero-delay
    events the other's handler scheduled. Messages buffered under ``name``
    before the node existed are handled first, in send order, at the instant
    it is created; deliveries meanwhile queue behind them.
    """

    def __init__(self, env: Environment, network: Network, name: str):
        self.env = env
        self.network = network
        self.name = name
        # Observers (repro.obs): the network carries the deployment's
        # command tracer and profiler, so every protocol layer reaches
        # them through its node with no constructor threading. Null
        # objects when disabled — hook sites guard on ``.enabled``.
        self.tracer = network.tracer
        self.profiler = network.profiler
        self.endpoint = network.register(name)
        self._handlers: dict[str, Handler] = {}
        self._default_handler: Optional[Handler] = None
        self._reconnect_hooks: list[Callable[[], None]] = []
        self._crashed = False
        if len(self.endpoint.inbox):
            self.endpoint.handler = None  # keep buffering until drained
            env.schedule_callback(0.0, self._drain_inbox)
        else:
            self.endpoint.handler = self._dispatch

    # -- wiring -----------------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for messages of ``kind``.

        Exactly one handler per kind: protocols own their message namespace.
        """
        if kind in self._handlers:
            raise ValueError(f"{self.name}: duplicate handler for {kind!r}")
        self._handlers[kind] = handler

    def on_default(self, handler: Handler) -> None:
        """Handler for messages with no registered kind."""
        self._default_handler = handler

    def on_reconnect(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` after every :meth:`reconnect` (blackout recovery).

        Protocol layers that buffer outbound work (e.g. the sequencer's
        batch window) use this to drain state they deliberately held
        while the node was unreachable.
        """
        self._reconnect_hooks.append(hook)

    # -- sending ------------------------------------------------------------

    def send(self, dst: str, kind: str, payload: Any = None,
             size: int = DEFAULT_MESSAGE_SIZE) -> None:
        """Send one message (no-op once crashed)."""
        if self._crashed:
            return
        self.network.send(self.name, dst, kind, payload, size)

    def send_all(self, dsts, kind: str, payload: Any = None,
                 size: int = DEFAULT_MESSAGE_SIZE) -> None:
        if self._crashed:
            return
        self.network.send_all(self.name, dsts, kind, payload, size)

    # -- observability -------------------------------------------------------

    def flight(self, kind: str, detail: str = "") -> None:
        """Log one protocol event into this node's flight-recorder ring."""
        self.network.flight.record(self.name, kind, detail)

    # -- lifecycle ------------------------------------------------------------

    @property
    def crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Crash-stop this node: stop dispatching and drop in-flight traffic."""
        if self._crashed:
            return
        self._crashed = True
        self.network.crash(self.name)
        # Unless a successor took over: later arrivals wait for one.
        if self.endpoint.handler == self._dispatch:
            self.endpoint.handler = None

    def reconnect(self) -> None:
        """Rejoin the network after a *network-level* blackout.

        ``Network.crash(name)`` drops the node's traffic but leaves it
        attached, state intact; this recovers the name and runs the
        :meth:`on_reconnect` hooks. No-op on an object-level crashed node:
        that one comes back only through the recovery modules.
        """
        if self._crashed:
            return
        self.network.recover(self.name)
        for hook in list(self._reconnect_hooks):
            hook()

    def _dispatch(self, message: Message) -> None:
        handler = self._handlers.get(message.kind, self._default_handler)
        if handler is None:
            raise RuntimeError(
                f"{self.name}: no handler for {message.kind!r}")
        handler(message)

    def _drain_inbox(self) -> None:
        inbox = self.endpoint.inbox
        while len(inbox) and not self._crashed:
            self._dispatch(inbox.try_get()[1])
        if not self._crashed:
            self.endpoint.handler = self._dispatch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else "up"
        return f"<ProtocolNode {self.name} {state}>"
