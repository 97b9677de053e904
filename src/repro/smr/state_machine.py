"""Application state machines and variable stores.

A :class:`StateMachine` is the deterministic application logic: it applies a
command against a :class:`VariableStore` and returns a reply value. The same
state machine class runs unchanged on classic SMR (full state), S-SMR and
DS-SMR (partitioned state) — mirroring the paper's Eyrie design where "the
developer programs for classical state machine replication" and the library
hides partitioning.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, Iterable, Optional

from repro.smr.command import Command

Key = Hashable


class VariableStore:
    """A mutable set of named state variables.

    For partitioned protocols each partition holds one store containing only
    its own variables; the server proxy materialises remote variables into a
    scratch overlay before execution (see :mod:`repro.ssmr.server`).
    """

    TRANSIENT: tuple[str, ...] = ()

    def __init__(self):
        self._data: dict[Key, Any] = {}

    def __contains__(self, key: Key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def missing(self, keys: Iterable[Key], elsewhere=()) -> list[Key]:
        """The ``keys`` held neither here nor in ``elsewhere`` (one pass:
        servers ask this before every access)."""
        data = self._data
        return [key for key in keys
                if key not in data and key not in elsewhere]

    def keys(self) -> Iterable[Key]:
        return self._data.keys()

    def items(self) -> Iterable[tuple[Key, Any]]:
        """Read-only view of the live variables (no copy; do not mutate)."""
        return self._data.items()

    def read(self, key: Key) -> Any:
        if key not in self._data:
            raise KeyError(f"variable not in store: {key!r}")
        return self._data[key]

    def write(self, key: Key, value: Any) -> None:
        self._data[key] = value

    def create(self, key: Key, value: Any = None) -> None:
        if key in self._data:
            raise KeyError(f"variable already exists: {key!r}")
        self._data[key] = value

    def delete(self, key: Key) -> None:
        if key not in self._data:
            raise KeyError(f"variable not in store: {key!r}")
        del self._data[key]

    def pop(self, key: Key) -> Any:
        """Remove and return a variable's value (used by move commands)."""
        return self._data.pop(key)

    def snapshot(self) -> dict:
        """The variables, by reference: values are replaced, never
        mutated, so a ``freeze`` of it is a point-in-time copy."""
        return self._data

    def restore(self, data: dict) -> None:
        """Adopt a snapshot (a private copy)."""
        self._data = data


class ExecutionView:
    """The store view a state machine executes against.

    Combines the partition's local store with an overlay of variables
    received from remote partitions. Writes go to the overlay *and*, for
    locally owned variables, to the local store — a write to a variable
    owned elsewhere takes effect at its owning partition when that partition
    executes the same command (deterministically producing the same value).
    """

    def __init__(self, local: VariableStore, remote: Optional[dict] = None):
        self._local = local
        self._remote = dict(remote or {})
        self._written: dict[Key, Any] = {}

    def __contains__(self, key: Key) -> bool:
        return key in self._written or key in self._remote or key in self._local

    def read(self, key: Key) -> Any:
        if key in self._written:
            return self._written[key]
        if key in self._local:
            return self._local.read(key)
        if key in self._remote:
            return self._remote[key]
        raise KeyError(f"variable not available to this execution: {key!r}")

    def write(self, key: Key, value: Any) -> None:
        self._written[key] = value
        if key in self._local:
            self._local.write(key, value)

    @property
    def written(self) -> dict:
        return dict(self._written)


class StateMachine(ABC):
    """Deterministic application logic."""

    @abstractmethod
    def apply(self, command: Command, view: ExecutionView) -> Any:
        """Execute ``command`` against ``view``; return the reply value.

        Must be deterministic: same command + same view contents => same
        writes and same reply on every replica. Must replace values, never
        mutate one it read in place: exchange messages and checkpoints
        (:mod:`repro.reconfig.checkpoint`) hold read values by reference.
        """

    def initial_value(self, key: Key, args: dict) -> Any:
        """Value a freshly created variable starts with (create commands)."""
        return args.get("value")


class KeyValueStateMachine(StateMachine):
    """A small key-value service; the default application for tests.

    Operations: ``get``, ``put``, ``append``, ``incr``, ``swap`` (reads two
    variables and exchanges them — a natural multi-partition command),
    ``sum`` (reads many variables).
    """

    def apply(self, command: Command, view: ExecutionView) -> Any:
        op, args = command.op, command.args
        if op == "get":
            return view.read(args["key"])
        if op == "put":
            view.write(args["key"], args["value"])
            return "ok"
        if op == "append":
            current = view.read(args["key"]) or []
            view.write(args["key"], current + [args["value"]])
            return "ok"
        if op == "incr":
            current = view.read(args["key"]) or 0
            view.write(args["key"], current + 1)
            return current + 1
        if op == "swap":
            a, b = args["a"], args["b"]
            va, vb = view.read(a), view.read(b)
            view.write(a, vb)
            view.write(b, va)
            return "ok"
        if op == "sum":
            return sum(view.read(k) or 0 for k in args["keys"])
        if op == "noop":
            return "ok"
        raise ValueError(f"unknown operation: {op!r}")
