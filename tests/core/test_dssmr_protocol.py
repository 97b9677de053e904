"""Integration tests for the DS-SMR protocol (Algorithms 2–4)."""

from repro.core import DssmrClient
from repro.smr import Command, CommandType, ReplyStatus

from tests.core.conftest import (DssmrStack, create, delete, get, ksum, put,
                                 run_script, swap)


class TestCreateDelete:
    def test_create_then_read(self, stack):
        replies = run_script(stack, [create("x", 7), get("x")])
        assert [r.status for r in replies] == [ReplyStatus.OK, ReplyStatus.OK]
        assert replies[1].value == 7

    def test_duplicate_create_rejected(self, stack):
        replies = run_script(stack, [create("x"), create("x")])
        assert replies[0].status is ReplyStatus.OK
        assert replies[1].status is ReplyStatus.NOK

    def test_creates_balance_across_partitions(self, stack):
        script = [create(f"k{i}") for i in range(8)]
        run_script(stack, script)
        locations = stack.var_locations()
        per_partition = {p: sum(1 for v in locations.values() if v == p)
                         for p in stack.partitions}
        assert per_partition["p0"] == per_partition["p1"] == 4

    def test_oracle_and_partition_agree_on_location(self, stack):
        run_script(stack, [create(f"k{i}") for i in range(6)])
        oracle_view = dict(stack.oracles[0].location)
        assert oracle_view == stack.var_locations()

    def test_delete_then_access_nok(self, stack):
        replies = run_script(stack, [create("x", 1), delete("x"), get("x")])
        assert replies[1].value == "deleted"
        assert replies[2].status is ReplyStatus.NOK

    def test_delete_missing_nok(self, stack):
        replies = run_script(stack, [delete("ghost")])
        assert replies[0].status is ReplyStatus.NOK

    def test_recreate_after_delete(self, stack):
        replies = run_script(stack, [create("x", 1), delete("x"),
                                     create("x", 2), get("x")])
        assert [r.status for r in replies] == [ReplyStatus.OK] * 4
        assert replies[3].value == 2

    def test_oracle_replicas_converge(self, stack):
        run_script(stack, [create(f"k{i}") for i in range(5)])
        assert stack.oracles[0].location == stack.oracles[1].location
        assert stack.oracles[0].partition_sizes == \
            stack.oracles[1].partition_sizes


class TestMovesAndAccess:
    def _setup_split_vars(self, stack):
        """x on p0, y on p1 (forced via explicit preload)."""
        stack.preload({"x": 1, "y": 2}, {"x": "p0", "y": "p1"})

    def test_multi_partition_access_triggers_move(self, stack):
        self._setup_split_vars(stack)
        replies = run_script(stack, [swap("x", "y")])
        assert replies[0].status is ReplyStatus.OK
        locations = stack.var_locations()
        assert locations["x"] == locations["y"]
        assert stack.oracles[0].moves_issued.total >= 1

    def test_values_survive_the_move(self, stack):
        self._setup_split_vars(stack)
        replies = run_script(stack, [swap("x", "y"), get("x"), get("y")])
        assert replies[1].value == 2
        assert replies[2].value == 1

    def test_no_variable_lost_or_duplicated(self, stack):
        self._setup_split_vars(stack)
        run_script(stack, [swap("x", "y"), ksum("x", "y")])
        locations = stack.var_locations()
        assert sorted(locations) == ["x", "y"]
        assert stack.stores_consistent()

    def test_subsequent_access_single_partition(self, stack):
        """After the move, the same variable set needs no more moves."""
        self._setup_split_vars(stack)
        replies = []

        def proc(env):
            client = stack.client()
            replies.append((yield from client.run_command(swap("x", "y"))))
            moves_after_first = stack.oracles[0].moves_issued.total
            replies.append((yield from client.run_command(swap("x", "y"))))
            replies.append(moves_after_first)

        stack.env.process(proc(stack.env))
        stack.run()
        assert replies[0].status is ReplyStatus.OK
        assert replies[1].status is ReplyStatus.OK
        assert stack.oracles[0].moves_issued.total == replies[2]

    def test_oracle_location_tracks_moves(self, stack):
        self._setup_split_vars(stack)
        run_script(stack, [swap("x", "y")])
        assert stack.oracles[0].location == stack.var_locations()


class TestCache:
    def test_cache_hit_skips_oracle(self, stack):
        stack.preload({"x": 1}, {"x": "p0"})
        counts = []

        def proc(env):
            client = stack.client()
            yield from client.run_command(get("x"))
            consults_after_first = client.consult_count
            yield from client.run_command(get("x"))
            counts.extend([consults_after_first, client.consult_count,
                           client.cache_hits])

        stack.env.process(proc(stack.env))
        stack.run()
        assert counts[0] == 1      # first access consults
        assert counts[1] == 1      # second does not
        assert counts[2] == 1      # ... because it hit the cache

    def test_stale_cache_causes_retry_then_succeeds(self, env):
        stack = DssmrStack(env, seed=5)
        stack.preload({"x": 1, "y": 2}, {"x": "p0", "y": "p1"})
        out = []

        def mover(env):
            client = stack.client()
            yield from client.run_command(get("x"))        # cache: x -> p0
            # Another client gathers x and y (possibly onto p1).
            other = stack.client()
            yield from other.run_command(swap("x", "y"))
            # If x moved, the cached route is stale -> retry path.
            reply = yield from client.run_command(get("x"))
            out.append((reply.status, reply.value, client.retry_count))

        stack.env.process(mover(env))
        stack.run()
        status, value, _retries = out[0]
        assert status is ReplyStatus.OK
        assert value == 2  # post-swap value

    def test_cache_disabled_always_consults(self, env):
        stack = DssmrStack(env, use_cache=False)
        stack.preload({"x": 1}, {"x": "p0"})
        counts = []

        def proc(env):
            client = stack.client()
            yield from client.run_command(get("x"))
            yield from client.run_command(get("x"))
            counts.append(client.consult_count)

        stack.env.process(proc(env))
        stack.run()
        assert counts == [2]


class TestRetryAndFallback:
    def test_contended_swaps_all_terminate(self, env):
        """Two clients fighting over overlapping variable sets: every
        command terminates (retry + fallback guarantee)."""
        stack = DssmrStack(env, seed=9, max_retries=2)
        stack.preload({"x": 1, "y": 2, "z": 3},
                      {"x": "p0", "y": "p1", "z": "p0"})
        finished = []

        def fighter(env, a, b, tag):
            client = stack.client()
            for _ in range(6):
                reply = yield from client.run_command(swap(a, b))
                assert reply.status is ReplyStatus.OK
            finished.append(tag)

        stack.env.process(fighter(stack.env, "x", "y", "xy"))
        stack.env.process(fighter(stack.env, "y", "z", "yz"))
        stack.run(until=60_000)
        assert sorted(finished) == ["xy", "yz"]
        assert stack.stores_consistent()

    def test_fallback_execution_correct(self, env):
        """With max_retries=0 every contended command falls back to S-SMR
        mode immediately after one retry — results must stay correct."""
        stack = DssmrStack(env, seed=11, max_retries=0)
        stack.preload({"x": 0, "y": 0}, {"x": "p0", "y": "p1"})
        replies = []

        def proc(env):
            client = stack.client()
            for _ in range(4):
                replies.append(
                    (yield from client.run_command(ksum("x", "y"))))

        stack.env.process(proc(stack.env))
        stack.run(until=60_000)
        assert all(r.status is ReplyStatus.OK for r in replies)
        assert all(r.value == 0 for r in replies)

    def test_fallback_counts_metric(self, env):
        stack = DssmrStack(env, seed=13, max_retries=0)
        stack.preload({"x": 1, "y": 2}, {"x": "p0", "y": "p1"})
        counts = []

        def proc(env):
            client = stack.client()
            # max_retries=0: the first multi-partition attempt still goes
            # through the move path; contention is needed for fallback, so
            # run two clients hammering the same keys.
            for _ in range(5):
                yield from client.run_command(swap("x", "y"))
            counts.append(client.fallback_count)

        stack.env.process(proc(stack.env))
        stack.run(until=60_000)
        assert counts[0] >= 0  # metric exists and is non-negative


    def test_fallback_missing_everywhere_is_retried(self, env):
        """x lives on p2, outside the client's view (a join the client
        has not heard of), and the client's cache still says p0. p0
        answers ``retry``; the fallback to [p0, p1] finds x on neither,
        and both answer ``retry`` instead of NOK "missing variables",
        execute nothing and keep the verdict in the session. The client
        consults again and runs the command where x is."""
        stack = DssmrStack(env, seed=3, partitions=("p0", "p1", "p2"))
        stack.preload({"x": 5}, {"x": "p2"})
        client = DssmrClient(env, stack.network, stack.directory, "c0",
                             ("p0", "p1"), max_retries=0)
        client.location_cache["x"] = "p0"
        replies = []

        def proc(env):
            replies.append((yield from client.run_command(get("x"))))

        stack.env.process(proc(stack.env))
        stack.run(until=10_000)
        (reply,) = replies
        assert (reply.status, reply.value, reply.partition) == \
            (ReplyStatus.OK, 5, "p2")
        assert (client.fallback_count, client.retry_count) == (1, 2)
        for name in ("p0s0", "p0s1", "p1s0", "p1s1"):
            server = stack.servers[name]
            assert server.executed == []
            (_seq, retry), = server.replies.sessions["c0"][1].values()
            assert retry.status is ReplyStatus.RETRY


class TestExactlyOnce:
    def test_writes_not_double_applied_under_retries(self, env):
        """incr through contention: the final value equals the number of
        OK replies — no double application through retry/fallback paths."""
        stack = DssmrStack(env, seed=17, max_retries=1)
        stack.preload({"n": 0, "a": 0, "b": 0},
                      {"n": "p0", "a": "p1", "b": "p1"})
        oks = []

        def incrementer(env):
            client = stack.client()
            for _ in range(5):
                reply = yield from client.run_command(
                    Command(op="incr", args={"key": "n"}, variables=("n",)))
                if reply.status is ReplyStatus.OK:
                    oks.append(reply.value)

        def mover(env):
            # Read-only multi-partition sums drag n between partitions
            # (moves) without ever writing it.
            client = stack.client()
            for other in ("a", "b", "a", "b", "a"):
                yield from client.run_command(ksum("n", other))

        stack.env.process(incrementer(stack.env))
        stack.env.process(mover(stack.env))
        stack.run(until=120_000)
        locations = stack.var_locations()
        member = stack.directory.members(locations["n"])[0]
        final = stack.servers[member].store.read("n")
        assert final == len(oks) == 5
