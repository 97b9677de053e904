"""Failure injection utilities.

Built on the :class:`~repro.net.transport.Network` hooks: crash/recover
nodes at given times, drop/delay/duplicate a random fraction of messages,
reorder traffic within bounded windows, or partition the network into
isolated islands for a time window. Used by the fault-tolerance tests and
by the fault campaigns (:mod:`repro.fuzz`) to check that the
protocols keep their guarantees under failures.

Every rule installer returns a remover, accepts an optional
``(start, end)`` activity window, and records what it installed so that
:meth:`FailureInjector.heal_all` can restore a clean, quiescent network
before invariant checking.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Sequence

from repro.net.message import Message
from repro.net.transport import Network
from repro.sim import Environment, SeedStream


class FailureInjector:
    """Schedules failures against a network.

    All schedules are set up before ``env.run()``; the injector registers
    callbacks on the simulation clock. :meth:`heal_all` removes every rule
    this injector installed, cancels its not-yet-fired schedules and
    recovers every node it crashed.
    """

    def __init__(self, env: Environment, network: Network,
                 seeds: SeedStream | None = None):
        self.env = env
        self.network = network
        seeds = seeds or SeedStream(0)
        self._rng: random.Random = seeds.stream("failure")
        self._reorder_rng: random.Random = seeds.stream("reorder")
        self._removers: list[Callable[[], None]] = []
        self._crashed_nodes: set[str] = set()
        self.restarts = 0
        # Bumped by heal_all(); scheduled actions from older generations
        # become no-ops, so a heal genuinely quiesces the injector.
        self._generation = 0

    # -- crashes ------------------------------------------------------------

    def crash_at(self, time: float, node: str) -> None:
        """Crash ``node`` at virtual time ``time``."""
        def crash() -> None:
            self._crashed_nodes.add(node)
            self.network.crash(node)

        self._at(time, crash)

    def recover_at(self, time: float, node: str) -> None:
        """Recover ``node`` at virtual time ``time``."""
        def recover() -> None:
            self._crashed_nodes.discard(node)
            self.network.recover(node)

        self._at(time, recover)

    def crash_restart_at(self, time: float, node: str, restart_delay: float,
                         crash: Callable[[], None] | None = None,
                         restart: Callable[[], None] | None = None) -> None:
        """Crash ``node`` at ``time`` and bring it back ``restart_delay``
        ms later.

        By default the crash and restart act at the network level only
        (drop traffic, then stop dropping) — enough for protocols whose
        replicas survive in memory. Protocol-aware harnesses pass
        ``crash``/``restart`` callables instead: the chaos campaign and
        the elastic scenarios crash the server object and drive a full
        checkpoint-install recovery (:mod:`repro.reconfig.recovery`).
        Both actions are generation-guarded, so :meth:`heal_all` cancels
        a restart that has not fired yet.
        """
        if restart_delay <= 0:
            raise ValueError("restart_delay must be positive")

        def do_crash() -> None:
            self._crashed_nodes.add(node)
            if crash is not None:
                crash()
            else:
                self.network.crash(node)

        def do_restart() -> None:
            self._crashed_nodes.discard(node)
            if restart is not None:
                restart()
            else:
                self.network.recover(node)
            self.restarts += 1

        self._at(time, do_crash)
        self._at(time + restart_delay, do_restart)

    # -- message-level faults ----------------------------------------------

    def drop_fraction(self, fraction: float,
                      kinds: Sequence[str] | None = None,
                      nodes: Sequence[str] | None = None,
                      start: Optional[float] = None,
                      end: Optional[float] = None) -> Callable[[], None]:
        """Drop a random ``fraction`` of messages (optionally only ``kinds``
        and/or only traffic touching ``nodes`` as source or destination).

        Without a window the rule is installed immediately; with
        ``(start, end)`` it is active only during that interval (mirroring
        :meth:`partition_between`). Returns a remover either way.
        """
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction out of range: {fraction}")
        kind_set = set(kinds) if kinds is not None else None
        node_set = set(nodes) if nodes is not None else None

        def rule(message: Message) -> bool:
            if kind_set is not None and message.kind not in kind_set:
                return False
            if node_set is not None and message.src not in node_set \
                    and message.dst not in node_set:
                return False
            return self._rng.random() < fraction

        return self._install(lambda: self.network.add_drop_rule(rule),
                             start, end)

    def delay_spikes(self, fraction: float, spike_ms: float,
                     kinds: Sequence[str] | None = None,
                     nodes: Sequence[str] | None = None,
                     start: Optional[float] = None,
                     end: Optional[float] = None) -> Callable[[], None]:
        """Add a latency spike of up to ``spike_ms`` to a random
        ``fraction`` of messages (optionally only ``kinds`` and/or only
        traffic touching ``nodes``); returns a remover."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction out of range: {fraction}")
        if spike_ms <= 0:
            raise ValueError("spike_ms must be positive")
        kind_set = set(kinds) if kinds is not None else None
        node_set = set(nodes) if nodes is not None else None

        def rule(message: Message) -> float:
            if kind_set is not None and message.kind not in kind_set:
                return 0.0
            if node_set is not None and message.src not in node_set \
                    and message.dst not in node_set:
                return 0.0
            if self._rng.random() >= fraction:
                return 0.0
            return spike_ms * (0.5 + 0.5 * self._rng.random())

        return self._install(lambda: self.network.add_delay_rule(rule),
                             start, end)

    def duplicate_fraction(self, fraction: float, copies: int = 1,
                           kinds: Sequence[str] | None = None,
                           start: Optional[float] = None,
                           end: Optional[float] = None
                           ) -> Callable[[], None]:
        """Deliver ``copies`` extra copies of a random ``fraction`` of
        messages; returns a remover."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction out of range: {fraction}")
        if copies < 1:
            raise ValueError("copies must be >= 1")
        kind_set = set(kinds) if kinds is not None else None

        def rule(message: Message) -> int:
            if kind_set is not None and message.kind not in kind_set:
                return 0
            return copies if self._rng.random() < fraction else 0

        return self._install(lambda: self.network.add_duplicate_rule(rule),
                             start, end)

    def reorder_fraction(self, fraction: float, window_ms: float,
                         kinds: Sequence[str] | None = None,
                         start: Optional[float] = None,
                         end: Optional[float] = None) -> Callable[[], None]:
        """Divert a random ``fraction`` of messages through a bounded
        reorder window of ``window_ms``; returns a remover."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction out of range: {fraction}")
        kind_set = set(kinds) if kinds is not None else None

        def predicate(message: Message) -> bool:
            if kind_set is not None and message.kind not in kind_set:
                return False
            return self._rng.random() < fraction

        return self._install(
            lambda: self.network.add_reorder_rule(predicate, window_ms,
                                                  rng=self._reorder_rng),
            start, end)

    def partition_between(self, start: float, end: float,
                          island_a: Iterable[str],
                          island_b: Iterable[str]) -> None:
        """Cut all links between two islands during ``[start, end)``."""
        if end <= start:
            raise ValueError("partition window must have positive length")
        set_a, set_b = set(island_a), set(island_b)

        def rule(message: Message) -> bool:
            crosses = ((message.src in set_a and message.dst in set_b)
                       or (message.src in set_b and message.dst in set_a))
            return crosses

        self._install(lambda: self.network.add_drop_rule(rule), start, end)

    def partition_oneway(self, start: float, end: float,
                         srcs: Iterable[str],
                         dsts: Iterable[str]) -> None:
        """Asymmetric partition: drop ``srcs``→``dsts`` traffic during
        ``[start, end)`` while the reverse direction keeps flowing.

        One-way reachability is the nastier failure mode — a node that can
        hear acknowledgements but not be heard (or vice versa) defeats
        protocols that infer liveness from one direction only — so the
        fuzzer schedules it alongside the symmetric split.
        """
        if end <= start:
            raise ValueError("partition window must have positive length")
        src_set, dst_set = set(srcs), set(dsts)

        def rule(message: Message) -> bool:
            return message.src in src_set and message.dst in dst_set

        self._install(lambda: self.network.add_drop_rule(rule), start, end)

    # -- schedule-driven API --------------------------------------------------

    #: Message-level fault kinds :meth:`apply_event` understands; node- and
    #: cluster-level kinds (crashes, joins/leaves) need a deployment handle
    #: and live in :mod:`repro.harness.faults` / :mod:`repro.fuzz.runner`.
    MESSAGE_EVENT_KINDS = ("drop", "delay", "duplicate", "reorder",
                          "partition", "partition_oneway")

    def apply_event(self, spec: dict) -> None:
        """Install one declarative timed fault from a schedule event.

        ``spec`` is a plain dict (JSON-shaped, the fuzzer's schedule wire
        format) with a ``kind`` from :data:`MESSAGE_EVENT_KINDS`, an
        activity window ``at``/``end``, and the kind's parameters::

            {"kind": "drop", "at": 20.0, "end": 120.0, "fraction": 0.02}
            {"kind": "drop", ..., "fraction": 1.0, "kinds": ["reply"]}
            {"kind": "drop", ..., "fraction": 1.0, "nodes": ["p0s1"]}
            {"kind": "delay", ..., "fraction": 0.1, "spike_ms": 12.0}
            {"kind": "duplicate", ..., "fraction": 0.1, "copies": 1}
            {"kind": "reorder", ..., "fraction": 0.2, "window_ms": 3.0}
            {"kind": "partition", ..., "island_a": [...], "island_b": [...]}
            {"kind": "partition_oneway", ..., "srcs": [...], "dsts": [...]}

        Everything installed this way is torn down by :meth:`heal_all`.
        """
        kind = spec["kind"]
        at, end = spec["at"], spec["end"]
        if kind == "drop":
            self.drop_fraction(spec["fraction"],
                               kinds=spec.get("kinds"),
                               nodes=spec.get("nodes"),
                               start=at, end=end)
        elif kind == "delay":
            self.delay_spikes(spec["fraction"], spec["spike_ms"],
                              kinds=spec.get("kinds"),
                              nodes=spec.get("nodes"),
                              start=at, end=end)
        elif kind == "duplicate":
            self.duplicate_fraction(spec["fraction"],
                                    copies=spec.get("copies", 1),
                                    start=at, end=end)
        elif kind == "reorder":
            self.reorder_fraction(spec["fraction"], spec["window_ms"],
                                  start=at, end=end)
        elif kind == "partition":
            self.partition_between(at, end, spec["island_a"],
                                   spec["island_b"])
        elif kind == "partition_oneway":
            self.partition_oneway(at, end, spec["srcs"], spec["dsts"])
        else:
            raise ValueError(f"not a message-level fault kind: {kind!r}")

    # -- healing -------------------------------------------------------------

    def heal_all(self) -> None:
        """Restore a clean network: remove every rule this injector
        installed, cancel its not-yet-fired schedules and recover every
        node it crashed.

        Campaign scenarios call this before the quiescent phase so that
        invariant checking runs against a fault-free network.
        """
        self._generation += 1
        removers, self._removers = self._removers, []
        for remove in removers:
            remove()
        crashed, self._crashed_nodes = self._crashed_nodes, set()
        for node in sorted(crashed):
            self.network.recover(node)

    # -- plumbing -------------------------------------------------------------

    def _install(self, installer: Callable[[], Callable[[], None]],
                 start: Optional[float],
                 end: Optional[float]) -> Callable[[], None]:
        """Install a rule now or inside a ``[start, end)`` window.

        Returns a remover that works in either mode (before the window
        opens it simply cancels the pending installation).
        """
        if (start is None) != (end is None):
            raise ValueError("start and end must be given together")
        if start is None:
            remover = installer()
            self._removers.append(remover)
            return self._tracked(remover)
        if end <= start:
            raise ValueError("fault window must have positive length")
        holder: list[Callable[[], None]] = []
        cancelled = [False]

        def install() -> None:
            if cancelled[0]:
                return
            remover = installer()
            holder.append(remover)
            self._removers.append(remover)

        def uninstall() -> None:
            cancelled[0] = True
            if holder:
                self._tracked(holder[0])()

        self._at(start, install)
        self._at(end, uninstall)
        return uninstall

    def _tracked(self, remover: Callable[[], None]) -> Callable[[], None]:
        """Wrap a remover so a manual removal also drops the heal_all ref."""
        def remove() -> None:
            remover()
            if remover in self._removers:
                self._removers.remove(remover)

        return remove

    def _at(self, time: float, action) -> None:
        delay = time - self.env.now
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: t={time}")
        generation = self._generation

        def fire() -> None:
            if generation == self._generation:
                action()

        self.env.schedule_callback(delay, fire)
