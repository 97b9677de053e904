"""Unit tests for the conflict-aware parallel execution engine."""

import pytest

from repro.sim import Environment
from repro.smr import Command
from repro.smr.execution import ExecutionModel
from repro.smr.parallel import (ConflictScheduler, ExecutionConfig,
                                ParallelExecutionModel)


def test_execution_config_validates_workers():
    assert ExecutionConfig().workers == 2
    assert ExecutionConfig(workers=8).workers == 8
    with pytest.raises(ValueError):
        ExecutionConfig(workers=0)
    with pytest.raises(ValueError):
        ExecutionConfig(workers=-1)


class TestConflictScheduler:

    def test_disjoint_commands_run_concurrently(self):
        sched = ConflictScheduler(workers=2)
        a = sched.plan(0.0, reads=("x",), writes=("x",), cost=5.0)
        b = sched.plan(0.0, reads=("y",), writes=("y",), cost=5.0)
        assert a.start == 0.0 and b.start == 0.0
        assert {a.core, b.core} == {0, 1}

    def test_waw_conflict_serializes_in_plan_order(self):
        sched = ConflictScheduler(workers=4)
        a = sched.plan(0.0, reads=("x",), writes=("x",), cost=5.0)
        b = sched.plan(0.0, reads=("x",), writes=("x",), cost=5.0)
        assert a.finish == 5.0
        assert b.start == 5.0          # waits for a's write
        assert b.stall == 5.0

    def test_raw_conflict_reader_waits_for_writer(self):
        sched = ConflictScheduler(workers=4)
        writer = sched.plan(0.0, reads=("x",), writes=("x",), cost=4.0)
        reader = sched.plan(0.0, reads=("x",), writes=(), cost=1.0)
        assert reader.start == writer.finish

    def test_war_conflict_writer_waits_for_reader(self):
        sched = ConflictScheduler(workers=4)
        reader = sched.plan(0.0, reads=("x",), writes=(), cost=3.0)
        writer = sched.plan(0.0, reads=("x",), writes=("x",), cost=1.0)
        assert writer.start == reader.finish

    def test_readers_share_cores(self):
        sched = ConflictScheduler(workers=2)
        a = sched.plan(0.0, reads=("x",), writes=(), cost=2.0)
        b = sched.plan(0.0, reads=("x",), writes=(), cost=2.0)
        assert a.start == 0.0 and b.start == 0.0

    def test_worker_starvation_queues_on_earliest_free_core(self):
        sched = ConflictScheduler(workers=2)
        sched.plan(0.0, reads=("a",), writes=("a",), cost=10.0)
        sched.plan(0.0, reads=("b",), writes=("b",), cost=2.0)
        c = sched.plan(0.0, reads=("c",), writes=("c",), cost=1.0)
        # Both cores busy; the earliest-free core (core 1, free at 2.0)
        # gets the third command even though it has no data conflict.
        assert c.core == 1
        assert c.start == 2.0
        assert c.stall == 2.0

    def test_core_tie_break_is_lowest_index(self):
        sched = ConflictScheduler(workers=3)
        d = sched.plan(0.0, reads=("x",), writes=(), cost=1.0)
        assert d.core == 0

    def test_barrier_clears_conflict_state(self):
        sched = ConflictScheduler(workers=2)
        sched.plan(0.0, reads=("x",), writes=("x",), cost=50.0)
        sched.note_barrier(60.0)
        after = sched.plan(60.0, reads=("x",), writes=("x",), cost=1.0)
        # The barrier lifted both the write lock and the busy core.
        assert after.start == 60.0

    def test_stats_accounting(self):
        sched = ConflictScheduler(workers=2)
        sched.plan(0.0, reads=("x",), writes=("x",), cost=5.0)
        sched.plan(0.0, reads=("x",), writes=("x",), cost=5.0)
        sched.note_serial(3.0)
        assert sched.commands == 2
        assert sum(sched.busy_ms) == 10.0   # per-core execution time
        assert sched.serial_ms == 3.0
        assert sched.stall_ms == 5.0


class TestParallelExecutionModel:

    def test_drain_waits_for_inflight_commands(self):
        env = Environment()
        pool = ParallelExecutionModel(env, ExecutionConfig(workers=2))
        command = Command(op="incr", args={"key": "x"}, variables=("x",),
                          writes=("x",))
        slot = pool.dispatch(command, cost=5.0)
        assert pool.pending
        assert pool.inflight_slot(command.cid) == slot
        drained = {"at": None}

        def barrier():
            yield from pool.drain()
            drained["at"] = env.now

        env.process(barrier())
        env.schedule_callback(slot.finish, pool.complete, command.cid)
        env.run()
        assert drained["at"] == slot.finish
        assert not pool.pending
        assert pool.scheduler.barriers == 1

    def test_conflict_sets_default_and_conservative(self):
        env = Environment()
        command = Command(op="get", args={"key": "x"}, variables=("x", "y"),
                          writes=("x",))
        pool = ParallelExecutionModel(env, ExecutionConfig(workers=2))
        reads, writes = pool.conflict_sets(command)
        assert tuple(reads) == ("x", "y")
        assert tuple(writes) == ("x",)
        strict = ParallelExecutionModel(
            env, ExecutionConfig(workers=2, conservative=True))
        reads, writes = strict.conflict_sets(command)
        assert tuple(writes) == ("x", "y")

    def test_inflight_deliveries_preserve_log_order(self):
        env = Environment()
        pool = ParallelExecutionModel(env, ExecutionConfig(workers=4))
        commands = [Command(op="incr", args={"key": k}, variables=(k,),
                            writes=(k,), cid=f"incr-{k}")
                    for k in ("a", "b", "c")]
        for i, command in enumerate(commands):
            pool.dispatch(command, cost=1.0, delivery=f"d{i}")
        assert pool.inflight_cids() == [c.cid for c in commands]
        assert pool.inflight_deliveries() == ["d0", "d1", "d2"]
        pool.complete(commands[0].cid)
        assert pool.inflight_deliveries() == ["d1", "d2"]


def test_per_read_ms_cost_knob():
    base = ExecutionModel()
    command = Command(op="sum", args={"keys": ["a", "b"]},
                      variables=("a", "b"), writes=())
    write = Command(op="incr", args={"key": "a"}, variables=("a",),
                    writes=("a",))
    # Default: byte-identical historical formula (per_read_ms unset).
    assert ExecutionModel().cost(command) == base.cost(command)
    priced = ExecutionModel(per_read_ms=0.05)
    # With the knob: base + writes * per_variable + reads * per_read.
    assert priced.cost(command) == pytest.approx(
        priced.base_ms + 2 * 0.05)
    assert priced.cost(write) == pytest.approx(
        priced.base_ms + priced.per_variable_ms)
