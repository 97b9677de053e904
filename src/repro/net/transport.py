"""Message transport: endpoints, delivery scheduling and fault rules.

The :class:`Network` owns one :class:`Endpoint` per node. ``send`` stamps
the message, consults the latency model and schedules delivery: one kernel
event that calls the endpoint's handler (or queues the message in its inbox
while none is attached). Quasi-reliable links: messages between correct
nodes are delivered exactly once, possibly reordered (latency is
per-message); failure injection can drop, delay, duplicate or reorder
messages, and disconnect nodes.

Fault rules are first-class and composable (all seed-deterministic):

* *drop rules* — predicates; a matching message is discarded at the source.
* *delay rules* — return extra latency (ms) added to a message's delivery.
* *duplicate rules* — return how many extra copies to deliver; each copy
  draws its own latency, so copies interleave with other traffic.
* *reorder rules* — matching messages are held in a bounded window and
  released in a seeded-shuffled order, which reorders them even on links
  with deterministic latency.

Every ``add_*_rule`` returns a remover, so failure injectors can install
rules for a time window and guarantee a clean network afterwards.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Optional

from repro.net.latency import FixedLatency, LatencyModel
from repro.net.message import DEFAULT_MESSAGE_SIZE, Message
from repro.obs.flight import FlightRecorder
from repro.obs.profile import NULL_PROFILER
from repro.obs.tracing import NULL_TRACER
from repro.sim import Channel, Environment, SeedStream

DropRule = Callable[[Message], bool]
DelayRule = Callable[[Message], float]      # extra delay in ms (0 = none)
DuplicateRule = Callable[[Message], int]    # number of extra copies


class _ReorderWindow:
    """Holds matching messages for up to ``window_ms`` and releases the
    batch in a shuffled order — bounded reordering."""

    def __init__(self, network: "Network", predicate: DropRule,
                 window_ms: float, rng: random.Random):
        self.network = network
        self.predicate = predicate
        self.window_ms = window_ms
        self.rng = rng
        self._held: list[tuple[Endpoint, Message]] = []
        self._flush_scheduled = False

    def capture(self, endpoint: Endpoint, message: Message,
                delay: float) -> bool:
        if not self.predicate(message):
            return False
        self._held.append((endpoint, message))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.network.env.schedule_callback(delay + self.window_ms,
                                               self._flush)
        return True

    def _flush(self) -> None:
        self._flush_scheduled = False
        batch, self._held = self._held, []
        self.rng.shuffle(batch)
        for endpoint, message in batch:
            self.network._deliver(endpoint, message)


class Endpoint:
    """A node's attachment point to the network.

    Deliveries call ``handler`` (a ``ProtocolNode`` attaches its dispatch
    function); while it is None — a destination registered on the fly by
    ``send``, a process reading ``receive()`` — they queue in ``inbox``.
    """

    def __init__(self, env: Environment, name: str):
        self.name = name
        self.inbox = Channel(env, name=f"{name}/inbox")
        self.handler: Optional[Callable[[Message], None]] = None

    def receive(self):
        """Event yielding the next inbound :class:`Message`."""
        return self.inbox.get()


class Network:
    """The simulated network connecting all nodes.

    Example::

        net = Network(env, seeds.child("net"))
        a = net.register("a")
        b = net.register("b")
        net.send("a", "b", kind="ping")
        msg = yield b.receive()
    """

    def __init__(self, env: Environment, seeds: SeedStream,
                 latency: Optional[LatencyModel] = None,
                 tracer=None, profiler=None):
        self.env = env
        self._next_message_id = env.ids.next_message
        self.latency = latency or FixedLatency(0.1)
        # The network carries the deployment's observers; every component
        # reaches them through its ProtocolNode, so threading happens here
        # once instead of through every constructor. tracer=None keeps
        # span collection disabled (NULL_TRACER, see repro.obs.tracing);
        # profiler=None keeps cost attribution disabled (NULL_PROFILER,
        # see repro.obs.profile).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        # The flight recorder is *always on* (bounded rings, virtual
        # timestamps only — it cannot perturb results): every delivery,
        # drop, crash and recovery leaves a trace for postmortems.
        self.flight = FlightRecorder(env)
        self._rng: random.Random = seeds.stream("latency")
        self._endpoints: dict[str, Endpoint] = {}
        self._crashed: set[str] = set()
        self._drop_rules: list[DropRule] = []
        self._delay_rules: list[DelayRule] = []
        self._duplicate_rules: list[DuplicateRule] = []
        self._reorder_windows: list[_ReorderWindow] = []
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0
        self.messages_reordered = 0
        self.bytes_sent = 0
        # Per-kind traffic accounting (message counts and bytes), used by
        # the message-complexity experiment.
        self.sent_by_kind: dict[str, int] = {}
        self.bytes_by_kind: dict[str, int] = {}

    # -- membership -------------------------------------------------------

    def register(self, name: str) -> Endpoint:
        """Create (or return) the endpoint for ``name``."""
        if name not in self._endpoints:
            self._endpoints[name] = Endpoint(self.env, name)
        return self._endpoints[name]

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._endpoints[name]
        except KeyError:
            raise KeyError(f"unknown node: {name!r}") from None

    def node_names(self) -> list[str]:
        return sorted(self._endpoints)

    # -- failure injection --------------------------------------------------

    def crash(self, name: str) -> None:
        """Mark ``name`` as crashed: it neither sends nor receives."""
        self._crashed.add(name)
        self.flight.record(name, "crash")

    def recover(self, name: str) -> None:
        if name in self._crashed:
            self.flight.record(name, "recover")
        self._crashed.discard(name)

    def is_crashed(self, name: str) -> bool:
        return name in self._crashed

    def add_drop_rule(self, rule: DropRule) -> Callable[[], None]:
        """Install a predicate dropping matching messages; returns a remover."""
        return self._install(self._drop_rules, rule)

    def add_delay_rule(self, rule: DelayRule) -> Callable[[], None]:
        """Install a rule adding extra latency (ms) to matching messages.

        Returns a remover. Multiple matching rules stack additively.
        """
        return self._install(self._delay_rules, rule)

    def add_duplicate_rule(self, rule: DuplicateRule) -> Callable[[], None]:
        """Install a rule returning how many *extra* copies of a matching
        message to deliver (each with its own latency draw); returns a
        remover."""
        return self._install(self._duplicate_rules, rule)

    def add_reorder_rule(self, predicate: DropRule, window_ms: float,
                         rng: Optional[random.Random] = None
                         ) -> Callable[[], None]:
        """Hold matching messages for up to ``window_ms`` and release each
        batch in a shuffled order (bounded reordering); returns a remover.

        Pass a dedicated seeded ``rng`` to keep the shuffle independent of
        the latency stream; campaigns rely on this for determinism.
        """
        if window_ms <= 0:
            raise ValueError("reorder window must be positive")
        window = _ReorderWindow(self, predicate, window_ms,
                                rng or random.Random(0))
        return self._install(self._reorder_windows, window)

    @staticmethod
    def _install(rules: list, rule) -> Callable[[], None]:
        rules.append(rule)

        def remove() -> None:
            if rule in rules:
                rules.remove(rule)

        return remove

    # -- sending ------------------------------------------------------------

    def send(self, src: str, dst: str, kind: str, payload: Any = None,
             size: int = DEFAULT_MESSAGE_SIZE) -> Optional[Message]:
        """Send a message; returns it, or None if it was dropped at the source.

        Unknown destinations are registered on the fly: their inbox buffers
        the message until the destination node attaches.
        """
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            endpoint = self.register(dst)
        message = Message(src, dst, kind, payload, size,
                          self._next_message_id(), self.env.now)
        self.messages_sent += 1
        self.bytes_sent += size
        self.sent_by_kind[kind] = self.sent_by_kind.get(kind, 0) + 1
        self.bytes_by_kind[kind] = self.bytes_by_kind.get(kind, 0) + size
        # Fault rules are the exception, not the rule: guard each class
        # so a fault-free send never pays for generator/loop setup.
        if src in self._crashed or (
                self._drop_rules and any(rule(message)
                                         for rule in self._drop_rules)):
            return None
        extra = 0.0
        if self._delay_rules:
            for rule in self._delay_rules:
                added = rule(message)
                if added:
                    extra += added
            if extra:
                self.messages_delayed += 1
        copies = 1
        if self._duplicate_rules:
            for rule in self._duplicate_rules:
                copies += int(rule(message) or 0)
            self.messages_duplicated += copies - 1
        for _ in range(copies):
            delay = self.latency.delay(src, dst, size, self._rng) + extra
            if self.profiler.enabled:
                self.profiler.net(kind, delay, size)
            if not (self._reorder_windows
                    and self._reordered(endpoint, message, delay)):
                self.env.schedule_callback(delay, self._deliver,
                                           endpoint, message)
        return message

    def send_all(self, src: str, dsts: Iterable[str], kind: str,
                 payload: Any = None,
                 size: int = DEFAULT_MESSAGE_SIZE) -> None:
        """Send the same logical message to several destinations."""
        for dst in sorted(set(dsts)):
            self.send(src, dst, kind, payload, size)

    def _reordered(self, endpoint: Endpoint, message: Message,
                   delay: float) -> bool:
        """Offer one delivery to the reorder windows; True if one holds it."""
        for window in self._reorder_windows:
            if window.capture(endpoint, message, delay):
                self.messages_reordered += 1
                return True
        return False

    def _deliver(self, endpoint: Endpoint, message: Message) -> None:
        # Crash may have happened while the message was in flight.
        crashed = endpoint.name in self._crashed
        self.flight.record(endpoint.name, "drop" if crashed else "deliver",
                           message)
        if crashed:
            return
        self.messages_delivered += 1
        if endpoint.handler is None:
            endpoint.inbox.put(message)
        else:
            endpoint.handler(message)
