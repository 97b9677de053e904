"""Unit tests for variable stores, execution views and the KV machine."""

import pytest

from repro.smr import Command, KeyValueStateMachine, VariableStore
from repro.smr.state_machine import ExecutionView


class TestVariableStore:
    def test_create_read_write_delete(self):
        store = VariableStore()
        store.create("x", 1)
        assert store.read("x") == 1
        store.write("x", 2)
        assert store.read("x") == 2
        store.delete("x")
        assert "x" not in store

    def test_create_existing_rejected(self):
        store = VariableStore()
        store.create("x")
        with pytest.raises(KeyError):
            store.create("x")

    def test_read_missing_rejected(self):
        with pytest.raises(KeyError):
            VariableStore().read("ghost")

    def test_delete_missing_rejected(self):
        with pytest.raises(KeyError):
            VariableStore().delete("ghost")

    def test_pop(self):
        store = VariableStore()
        store.create("x", 9)
        assert store.pop("x") == 9
        assert "x" not in store

    def test_snapshot_is_by_reference_and_restore_adopts(self):
        """A checkpoint freezes the live variables, and an install adopts
        its private copy: neither side copies."""
        store = VariableStore()
        store.create("x", [1])
        assert store.snapshot() is store.snapshot() == {"x": [1]}
        image = {"y": 2}
        store.restore(image)
        assert store.snapshot() is image
        assert store.read("y") == 2 and "x" not in store


class TestExecutionView:
    def test_reads_prefer_written_then_local_then_remote(self):
        local = VariableStore()
        local.create("a", 1)
        view = ExecutionView(local, remote={"b": 2})
        assert view.read("a") == 1
        assert view.read("b") == 2
        view.write("a", 10)
        view.write("b", 20)
        assert view.read("a") == 10
        assert view.read("b") == 20

    def test_writes_to_local_vars_persist(self):
        local = VariableStore()
        local.create("a", 1)
        view = ExecutionView(local)
        view.write("a", 5)
        assert local.read("a") == 5

    def test_writes_to_remote_vars_do_not_touch_local(self):
        local = VariableStore()
        view = ExecutionView(local, remote={"b": 2})
        view.write("b", 7)
        assert "b" not in local
        assert view.written == {"b": 7}

    def test_unavailable_read_raises(self):
        view = ExecutionView(VariableStore())
        with pytest.raises(KeyError):
            view.read("nope")

    def test_contains(self):
        local = VariableStore()
        local.create("a")
        view = ExecutionView(local, remote={"b": 1})
        assert "a" in view and "b" in view and "c" not in view


class TestKeyValueStateMachine:
    def _view(self, **values):
        store = VariableStore()
        for key, value in values.items():
            store.create(key, value)
        return store, ExecutionView(store)

    def test_get_put(self):
        sm = KeyValueStateMachine()
        store, view = self._view(x=1)
        assert sm.apply(Command(op="get", args={"key": "x"}), view) == 1
        sm.apply(Command(op="put", args={"key": "x", "value": 9}), view)
        assert store.read("x") == 9

    def test_incr(self):
        sm = KeyValueStateMachine()
        _store, view = self._view(n=None)
        assert sm.apply(Command(op="incr", args={"key": "n"}), view) == 1

    def test_swap(self):
        sm = KeyValueStateMachine()
        store, view = self._view(a=1, b=2)
        sm.apply(Command(op="swap", args={"a": "a", "b": "b"}), view)
        assert (store.read("a"), store.read("b")) == (2, 1)

    def test_sum_treats_none_as_zero(self):
        sm = KeyValueStateMachine()
        _store, view = self._view(a=1, b=None)
        assert sm.apply(Command(op="sum", args={"keys": ["a", "b"]}),
                        view) == 1

    def test_append(self):
        sm = KeyValueStateMachine()
        store, view = self._view(log=None)
        sm.apply(Command(op="append", args={"key": "log", "value": 7}), view)
        assert store.read("log") == [7]

    def test_unknown_op_rejected(self):
        sm = KeyValueStateMachine()
        _store, view = self._view()
        with pytest.raises(ValueError):
            sm.apply(Command(op="explode"), view)

    def test_determinism(self):
        """Two replicas applying the same command reach the same state."""
        sm = KeyValueStateMachine()
        states = []
        for _ in range(2):
            store, view = self._view(a=3, b=4)
            sm.apply(Command(op="swap", args={"a": "a", "b": "b"}), view)
            sm.apply(Command(op="incr", args={"key": "a"}), view)
            states.append(store.snapshot())
        assert states[0] == states[1]
