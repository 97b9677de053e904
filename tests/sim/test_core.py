"""Unit tests for the DES kernel (events, processes, conditions)."""

import pytest

from repro.sim import (AllOf, AnyOf, Environment, Event, Interrupted,
                       SimulationError, Timeout)


class TestEvent:
    def test_starts_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_carries_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        env.run()
        assert event.value == 42
        assert event.ok

    def test_double_trigger_rejected(self, env):
        event = env.event().succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("boom"))

    def test_value_before_trigger_rejected(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_fail_requires_exception(self, env):
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")

    def test_callback_after_processed_runs_immediately(self, env):
        event = env.event().succeed("x")
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_advances_clock(self, env):
        env.timeout(12.5)
        env.run()
        assert env.now == 12.5

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_zero_delay_fires_at_now(self, env):
        fired = []
        env.timeout(0).add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == [0.0]

    def test_ordering_is_fifo_for_equal_times(self, env):
        order = []
        for tag in "abc":
            env.timeout(5, tag).add_callback(
                lambda e: order.append(e.value))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"
        assert not p.is_alive

    def test_processes_wait_on_each_other(self, env):
        def inner(env):
            yield env.timeout(3)
            return 7

        def outer(env):
            value = yield env.process(inner(env))
            return value * 2

        p = env.process(outer(env))
        env.run()
        assert p.value == 14
        assert env.now == 3

    def test_yield_non_event_raises(self, env):
        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(SimulationError):
            env.run()

    def test_interrupt_delivers_cause(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupted as interrupt:
                log.append((env.now, interrupt.cause))

        p = env.process(sleeper(env))

        def killer(env):
            yield env.timeout(5)
            p.interrupt("reason")

        env.process(killer(env))
        env.run()
        assert log == [(5.0, "reason")]

    def test_interrupt_then_continue(self, env):
        """An interrupted process may keep running on new events."""
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupted:
                yield env.timeout(7)
                log.append(env.now)

        p = env.process(sleeper(env))
        env.process(_interrupt_at(env, p, 3))
        env.run()
        assert log == [10.0]

    def test_stale_wakeup_after_interrupt_ignored(self, env):
        """The event the process was waiting on must not resume it later."""
        log = []

        def sleeper(env):
            try:
                yield env.timeout(10)
                log.append("slept")
            except Interrupted:
                yield env.timeout(100)
                log.append("recovered")

        p = env.process(sleeper(env))
        env.process(_interrupt_at(env, p, 1))
        env.run()
        # The original t=10 timeout fires mid-recovery and must be ignored.
        assert log == ["recovered"]
        assert env.now == 101.0

    def test_interrupt_finished_process_is_noop(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        p.interrupt("late")
        env.run()  # must not raise

    def test_unhandled_interrupt_terminates_quietly(self, env):
        def sleeper(env):
            yield env.timeout(100)

        p = env.process(sleeper(env))
        env.process(_interrupt_at(env, p, 2))
        env.run()
        assert not p.is_alive


def _interrupt_at(env, process, when):
    def do(env):
        yield env.timeout(when)
        process.interrupt()
    return do(env)


class TestConditions:
    def test_any_of_fires_on_first(self, env):
        def proc(env):
            result = yield env.any_of([env.timeout(5, "fast"),
                                       env.timeout(9, "slow")])
            return sorted(result.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["fast"]
        assert env.now == 9  # remaining timeout still drains the queue

    def test_all_of_waits_for_every_event(self, env):
        def proc(env):
            result = yield env.all_of([env.timeout(2, "a"),
                                       env.timeout(4, "b")])
            return (env.now, sorted(result.values()))

        p = env.process(proc(env))
        env.run()
        assert p.value == (4.0, ["a", "b"])

    def test_empty_any_of_triggers_immediately(self, env):
        def proc(env):
            result = yield env.any_of([])
            return result

        p = env.process(proc(env))
        env.run()
        assert p.value == {}

    def test_all_of_with_already_processed_events(self, env):
        done = env.event().succeed("x")
        env.run()

        def proc(env):
            result = yield env.all_of([done, env.timeout(1, "y")])
            return sorted(result.values())

        p = env.process(proc(env))
        env.run()
        assert p.value == ["x", "y"]


class TestEnvironment:
    def test_run_until_stops_clock(self, env):
        env.timeout(100)
        env.run(until=30)
        assert env.now == 30
        env.run()
        assert env.now == 100

    def test_run_until_past_is_rejected(self, env):
        env.timeout(5)
        env.run()
        with pytest.raises(SimulationError):
            env.run(until=1)

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_peek_reports_next_event_time(self, env):
        env.timeout(7)
        assert env.peek() == 7.0
        env.run()
        assert env.peek() == float("inf")

    def test_schedule_callback(self, env):
        seen = []
        env.schedule_callback(4.0, lambda: seen.append(env.now))
        env.run()
        assert seen == [4.0]

    def test_callbacks_and_events_share_one_fifo_order(self, env):
        seen = []
        env.schedule_callback(2.0, seen.append, "callback-1")
        env.timeout(2.0).add_callback(lambda _e: seen.append("timeout"))
        env.schedule_callback(2.0, seen.append, "callback-2")
        env.schedule_callback(1.0, lambda a, b: seen.append(a + b), 1, 2)
        env.run()
        assert seen == [3, "callback-1", "timeout", "callback-2"]

    def test_negative_callback_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.schedule_callback(-1.0, lambda: None)

    def test_determinism_same_program_same_trace(self):
        def trace():
            env = Environment()
            log = []

            def worker(env, tag, delay):
                for _ in range(3):
                    yield env.timeout(delay)
                    log.append((env.now, tag))

            env.process(worker(env, "a", 1.5))
            env.process(worker(env, "b", 1.5))
            env.process(worker(env, "c", 2.0))
            env.run()
            return log

        assert trace() == trace()


class TestRunIds:
    def test_one_sequence_per_kind(self, env):
        assert [env.ids.new("cmd", "c0"), env.ids.new("cmd", "c1"),
                env.ids.new("am", "c0")] == ["cmd-c0-0", "cmd-c1-1",
                                             "am-c0-0"]

    def test_message_ids_count_from_zero(self, env):
        assert [env.ids.next_message() for _ in range(3)] == [0, 1, 2]

    def test_two_runs_number_independently(self):
        first, second = Environment(), Environment()
        first.ids.new("cmd", "c0")
        first.ids.next_message()
        assert second.ids.new("cmd", "c0") == "cmd-c0-0"
        assert second.ids.next_message() == 0
        assert first.ids.new("cmd", "c0") == "cmd-c0-1"
