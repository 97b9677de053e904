"""Tests for the asynchronous (multi-threaded-oracle) repartitioning.

Implements the paper's implementation-section mechanism: the oracle keeps
serving consults while a new partitioning is computed "in the background";
the new partitioning is identified by a unique id that is atomically
multicast to the oracle group, so every replica switches at the same point
of the delivered command sequence.
"""

from repro.dynastar import GraphTargetPolicy
from repro.reconfig import PartitionCheckpointer

from tests.core.conftest import DssmrStack, get, run_script


def async_stack(env, seed=1, interval=3):
    return DssmrStack(
        env, seed=seed,
        policy_factory=lambda: GraphTargetPolicy(
            ("p0", "p1"), repartition_interval=interval),
        oracle_issues_moves=True)


def enable_async(stack):
    for oracle in stack.oracles:
        oracle.async_repartition = True


def send_hints(stack, count, wait_ms=400):
    def proc(env):
        client = stack.client()
        for i in range(count):
            client.send_hint([f"a{i}", f"b{i}"], [(f"a{i}", f"b{i}")])
            yield stack.env.timeout(5)
        yield stack.env.timeout(wait_ms)

    stack.env.process(proc(stack.env))
    stack.run()


class TestAsyncRepartitioning:
    def test_activation_installs_ideal_on_all_replicas(self, env):
        stack = async_stack(env, interval=3)
        enable_async(stack)
        send_hints(stack, 4)
        policies = [oracle.policy for oracle in stack.oracles]
        assert policies[0].repartition_count >= 1
        assert policies[0].repartition_count == policies[1].repartition_count
        assert policies[0].ideal == policies[1].ideal

    def test_partitioning_ids_deduplicated(self, env):
        """Both replicas announce the same id; only one activation lands."""
        stack = async_stack(env, interval=3)
        enable_async(stack)
        send_hints(stack, 4)
        # Exactly one activation per computed partitioning.
        assert stack.oracles[0].repartitions.total == \
            stack.oracles[0].policy.repartition_count

    def test_background_cpu_charged_separately(self, env):
        stack = async_stack(env, interval=2)
        enable_async(stack)
        send_hints(stack, 3)
        oracle = stack.oracles[0]
        assert oracle.busy_background.total_busy() > 0

    def test_oracle_keeps_serving_during_computation(self, env):
        """A consult delivered while the background computation runs is
        answered before the activation lands (the whole point of the
        async mode)."""
        stack = async_stack(env, interval=2)
        enable_async(stack)
        # Inflate the workload graph so the computed cost is large.
        for oracle in stack.oracles:
            oracle.policy.REPARTITION_COST_PER_ELEMENT = 50.0
        stack.preload({"x": 1}, {"x": "p0"})
        timeline = []

        def proc(env):
            client = stack.client()
            client.send_hint(["x", "q"], [("x", "q")])
            client.send_hint(["x", "q"], [("x", "q")])  # triggers compute
            yield env.timeout(10)   # computation (>=100ms) is now running
            started = env.now
            reply = yield from client.run_command(get("x"))
            timeline.append((env.now - started, reply.status.value,
                             stack.oracles[0].policy.repartition_count))

        stack.env.process(proc(stack.env))
        stack.run()
        elapsed, status, repartitions_at_reply = timeline[0]
        assert status == "ok"
        assert elapsed < 50  # answered while the computation was in flight
        assert repartitions_at_reply == 0

    def test_sync_mode_unaffected(self, env):
        stack = async_stack(env, interval=3)   # async NOT enabled
        send_hints(stack, 4)
        assert stack.oracles[0].policy.repartition_count >= 1
        assert not stack.oracles[0]._pending_ideals

    def test_majority_policy_ignores_async_flag(self, env):
        stack = DssmrStack(env)
        for oracle in stack.oracles:
            oracle.async_repartition = (oracle.async_repartition
                                        or hasattr(oracle.policy,
                                                   "ingest_hint"))
        assert all(not oracle.async_repartition
                   for oracle in stack.oracles)
        run_script(stack, [])

    def test_installed_pending_ideal_is_announced_again(self, env):
        """A checkpoint taken mid-computation carries the pending ideal
        but not the timer that would announce it; installing one
        announces it again, so the partitioning still activates."""
        stack = async_stack(env, interval=3)
        enable_async(stack)
        stack.preload({"x": 1}, {"x": "p0"})
        ideal = {"x": "p1"}
        for oracle in stack.oracles:
            state = oracle.snapshot()
            state["role"].update(_pending_ideals={0: dict(ideal)},
                                 _next_partitioning_id=1)
            oracle.restore(state)
        stack.run()
        for oracle in stack.oracles:
            assert not oracle._pending_ideals
            assert oracle.policy.ideal == ideal

    def test_a_capture_during_a_repartition_holds_the_hint_once(self, env):
        """Sync mode ingests a hint, then charges the repartition's CPU
        time. A checkpoint taken meanwhile has the hint in its policy,
        so it must not also queue it: an install would ingest it twice."""
        stack = async_stack(env, interval=2)   # async NOT enabled
        oracle = stack.oracles[0]
        oracle.policy.REPARTITION_COST_PER_ELEMENT = 50.0
        PartitionCheckpointer(oracle)
        captured = []

        def proc(env):
            client = stack.client()
            client.send_hint(["x", "q"], [("x", "q")])
            client.send_hint(["x", "q"], [("x", "q")])  # due: repartitions
            yield env.timeout(10)   # the repartition (>=100ms) is running
            captured.append(oracle.checkpointer.capture().thaw())

        stack.env.process(proc(stack.env))
        stack.run()
        executor = captured[0].components["executor"]
        assert executor["role"]["policy"].repartition_count == 1
        assert executor["role"]["policy"].workload.hints_ingested == 2
        assert not [delivery for delivery in executor["queued"]
                    if "hint" in delivery.payload]
