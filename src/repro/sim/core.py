"""Core of the discrete-event simulation kernel.

The model is a small, deterministic subset of the process-interaction style
popularised by SimPy:

* An :class:`Environment` owns a virtual clock and a priority queue of
  pending events.
* An :class:`Event` is a one-shot occurrence that processes can wait on. It
  is *triggered* when given a value (or an exception) and *processed* once
  its callbacks have run.
* A :class:`Process` wraps a generator. Each ``yield`` suspends the process
  on an event; when the event fires, the generator is resumed with the
  event's value (or the exception is thrown into it). A process is itself an
  event that triggers when the generator returns, so processes can wait on
  each other.

The kernel is single-threaded and deterministic: events scheduled for the
same timestamp fire in scheduling order.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Iterator, Optional


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupted(Exception):
    """Thrown into a process that is interrupted (e.g. by failure injection).

    The ``cause`` attribute carries the value given to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail` makes
    it *triggered* and schedules its callbacks to run at the current virtual
    time. Processes wait on events by yielding them.
    """

    PENDING = object()

    # Events are the kernel's hottest allocation (every message delivery,
    # timeout and process step makes at least one); slots keep them small
    # and attribute access cheap.
    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event.PENDING
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value (or exception)."""
        return self._value is not Event.PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event triggered successfully."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event triggered with."""
        if self._value is Event.PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event has the exception thrown into it.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule_event(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` units of virtual time in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule_event(self, delay)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events.

    Events already processed at construction time count as satisfied (or,
    if they failed, fail the condition immediately); pending events register
    an observer callback.
    """

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        initial_failure: Optional[Event] = None
        satisfied = False
        for event in self._events:
            if not isinstance(event, Event):
                raise SimulationError(f"not an event: {event!r}")
            if event.processed:
                if event.ok:
                    satisfied = True
                elif initial_failure is None:
                    initial_failure = event
            else:
                self._pending += 1
                event.add_callback(self._observe)
        if initial_failure is not None:
            self.fail(initial_failure.value)
        else:
            self._check_after_setup(satisfied)

    def _observe(self, event: Event) -> None:
        raise NotImplementedError

    def _check_after_setup(self, satisfied: bool) -> None:
        raise NotImplementedError

    def _results(self) -> dict[Event, Any]:
        return {e: e.value for e in self._events if e.processed and e.ok}


class AnyOf(_Condition):
    """Triggers when any of the given events triggers.

    The value is a dict mapping the already-triggered events to their values.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
        else:
            self.succeed(self._results())

    def _check_after_setup(self, satisfied: bool) -> None:
        if satisfied or not self._events:
            self.succeed(self._results())


class AllOf(_Condition):
    """Triggers when all of the given events have triggered.

    The value is a dict mapping every event to its value.
    """

    __slots__ = ()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._results())

    def _check_after_setup(self, satisfied: bool) -> None:
        if self._pending == 0:
            self.succeed(self._results())


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine process driven by the environment.

    The wrapped generator yields :class:`Event` objects; the process resumes
    when each yielded event fires. The process is itself an event that
    triggers with the generator's return value, so ``yield other_process``
    waits for that process to finish.
    """

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str = ""):
        if not hasattr(generator, "send"):
            raise SimulationError(f"not a generator: {generator!r}")
        super().__init__(env)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Kick off the process at the current time.
        bootstrap = Event(env)
        bootstrap._ok = True
        bootstrap._value = None
        bootstrap.add_callback(self._step)
        env._schedule_event(bootstrap)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        Interrupting a finished process is a no-op, which makes failure
        injection code simpler.
        """
        if not self.is_alive:
            return
        event = Event(self.env)
        event._ok = False
        event._value = Interrupted(cause)
        event.add_callback(self._resume_interrupt)
        self.env._schedule_event(event)

    def _resume_interrupt(self, event: Event) -> None:
        # The process may have finished between scheduling and delivery.
        if self.is_alive:
            self._step(event)

    def _resume(self, event: Event) -> None:
        # Ignore stale wake-ups: if the process was interrupted while
        # waiting on this event, it has since moved on to a new target.
        if self._waiting_on is not event:
            return
        self._step(event)

    def _step(self, event: Event) -> None:
        """Advance the generator by one yield."""
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupted:
            # Process chose not to handle the interrupt: terminate quietly.
            self.succeed(None)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded a non-event: {target!r}")
        self._waiting_on = target
        target.add_callback(self._resume)


class RunIds:
    """Every id one run hands out, counted from zero for that run.

    ``new(kind, origin)`` names commands (``cmd``), multicasts (``am``,
    ``rm``), reconfiguration entries (``rcfg``) and state transfers
    (``xf``) as ``{kind}-{origin}-{n}``, one sequence per kind;
    ``next_message()`` numbers network messages. Ids break ``(timestamp,
    uid)`` ties in the ordering layer, so they belong to the run: two runs
    in one process never share a sequence.
    """

    __slots__ = ("next_message", "_counters")

    def __init__(self):
        # Bound once: Network.send draws one for every message.
        self.next_message = itertools.count().__next__
        self._counters: dict[str, Iterator[int]] = {}

    def new(self, kind: str, origin: str) -> str:
        """A fresh ``{kind}-{origin}-{n}`` id."""
        counter = self._counters.get(kind)
        if counter is None:
            counter = self._counters[kind] = itertools.count()
        return f"{kind}-{origin}-{next(counter)}"


class Environment:
    """A discrete-event simulation environment with a virtual clock.

    ``ids`` is the run's :class:`RunIds`: every node, client and network
    reaches it through the environment it was built on.

    Typical usage::

        env = Environment()

        def worker(env):
            yield env.timeout(5)
            return "done"

        proc = env.process(worker(env))
        env.run()
        assert env.now == 5
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        # Heap of (when, seq, fn, arg): fn is None for an Event (arg is the
        # event), else a bare callback called as fn(*arg).
        self._queue: list[tuple[float, int, Any, Any]] = []
        self._next_seq = 0
        self.ids = RunIds()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when any of ``events`` triggers."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event triggering when all of ``events`` have triggered."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------

    def _schedule_event(self, event: Event, delay: float = 0.0) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, None, event))

    def schedule_callback(self, delay: float,
                          callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` time units (no process
        needed). The call goes on the heap as it is — no :class:`Event`,
        no closure: this is the hottest scheduling shape in the simulator
        (every network delivery and parallel-execution completion)."""
        if delay < 0:
            raise SimulationError(f"negative callback delay: {delay}")
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._queue, (self._now + delay, seq, callback, args))

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Process the next queued event, advancing the clock."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        self._now, _seq, fn, event = heappop(self._queue)
        if fn is not None:
            fn(*event)  # a schedule_callback entry: ``event`` is its args
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not isinstance(
                event._value, Interrupted):
            # A failed event nobody waited on: surface it instead of
            # silently dropping the error.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue is empty or virtual time reaches ``until``."""
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        queue, step = self._queue, self.step
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return
            step()
        if until is not None:
            self._now = until

    def peek(self) -> float:
        """Time of the next event, or ``float('inf')`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")
