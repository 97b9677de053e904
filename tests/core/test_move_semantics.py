"""Focused tests on move-command semantics (Algorithm 3, Task 2/3)."""

from repro.core import ORACLE_GROUP
from repro.smr import Command, CommandType, ReplyStatus

from tests.core.conftest import DssmrStack, get, ksum, put, run_script, swap


class TestMoveMechanics:
    def test_move_preserves_values_through_many_hops(self, stack):
        """A variable dragged back and forth many times keeps its value."""
        stack.preload({"v": 42, "a": 0, "b": 0},
                      {"v": "p0", "a": "p1", "b": "p0"})
        script = []
        for _ in range(4):
            script.append(ksum("v", "a"))   # may drag v to p1 (or a over)
            script.append(ksum("v", "b"))   # and back toward p0
        script.append(get("v"))
        replies = run_script(stack, script)
        assert replies[-1].status is ReplyStatus.OK
        assert replies[-1].value == 42

    def test_writes_travel_with_moves(self, stack):
        stack.preload({"v": 0, "w": 0}, {"v": "p0", "w": "p1"})
        replies = run_script(stack, [
            put("v", 7),
            ksum("v", "w"),     # gathers v and w somewhere
            get("v"),
        ])
        assert replies[1].value == 7
        assert replies[2].value == 7

    def test_source_partition_forgets_moved_variables(self, stack):
        stack.preload({"x": 1, "y": 2}, {"x": "p0", "y": "p1"})
        run_script(stack, [swap("x", "y")])
        locations = stack.var_locations()
        gathered = locations["x"]
        other = "p1" if gathered == "p0" else "p0"
        member = stack.directory.members(other)[0]
        assert "x" not in stack.servers[member].store
        assert "y" not in stack.servers[member].store

    def test_replicas_of_each_partition_agree_after_moves(self, stack):
        stack.preload({"x": 1, "y": 2, "z": 3},
                      {"x": "p0", "y": "p1", "z": "p0"})
        run_script(stack, [swap("x", "y"), ksum("y", "z"),
                           swap("x", "z")])
        assert stack.stores_consistent()

    def test_move_counters_on_servers(self, stack):
        stack.preload({"x": 1, "y": 2}, {"x": "p0", "y": "p1"})
        run_script(stack, [ksum("x", "y")])
        total_out = sum(s.moves_out.total for s in stack.servers.values())
        total_in = sum(s.moves_in.total for s in stack.servers.values())
        # Each replica of the source ships; each replica of the dest
        # installs once. Replicas double-count symmetrically.
        assert total_out > 0
        assert total_in > 0

    def test_concurrent_swaps_over_shared_variable_converge(self, env):
        """x is contended by two move-inducing command streams; afterwards
        all variables exist exactly once and values are consistent."""
        stack = DssmrStack(env, seed=23)
        stack.preload({"x": 10, "y": 20, "z": 30},
                      {"x": "p0", "y": "p1", "z": "p1"})
        done = []

        def fighter(env, other, tag):
            client = stack.client()
            for _ in range(5):
                reply = yield from client.run_command(swap("x", other))
                assert reply.status is ReplyStatus.OK
            done.append(tag)

        stack.env.process(fighter(stack.env, "y", "a"))
        stack.env.process(fighter(stack.env, "z", "b"))
        stack.run(until=120_000)
        assert sorted(done) == ["a", "b"]
        locations = stack.var_locations()
        assert sorted(locations) == ["x", "y", "z"]
        # Multiset of values preserved through all the swapping.
        values = []
        for key, partition in locations.items():
            member = stack.directory.members(partition)[0]
            values.append(stack.servers[member].store.read(key))
        assert sorted(values) == [10, 20, 30]

    @staticmethod
    def _move_back_and_forth(stack, second_issuer):
        """Move v p1 -> p0 (c0's command 1), back p0 -> p1 (command 2 of
        ``second_issuer``), then deliver a resend of the first move."""
        stack.preload({"v": 42}, {"v": "p1"})
        client = stack.client()

        def move(cid, issuer, seq, source, dest, uid):
            command = Command(op="move", ctype=CommandType.MOVE,
                              variables=("v",), cid=cid, client=issuer,
                              seq=seq, acked=seq,
                              args={"sources": [source], "dest": dest})
            dests = sorted({ORACLE_GROUP, source, dest})
            client.mcast.multicast(dests, {"command": command,
                                           "dests": dests}, uid=uid)
            stack.run(until=stack.env.now + 1_000)

        move("c1:m1", "c0", 1, "p1", "p0", "am:c1:m1")
        assert stack.var_locations() == {"v": "p0"}
        move("c2:m1", second_issuer, 2, "p0", "p1", "am:c2:m1")
        assert stack.var_locations() == {"v": "p1"}
        move("c1:m1", "c0", 1, "p1", "p0", "am:c1:m1:r2")   # the resend
        assert stack.var_locations() == {"v": "p1"}
        assert stack.stores_consistent()
        assert stack.servers["p1s1"].store.read("v") == 42
        assert [oracle.location["v"] for oracle in stack.oracles] \
            == ["p1", "p1"]

    def test_redelivered_move_does_not_take_the_variable_again(self, stack):
        """A client that times out re-multicasts its move under a fresh
        uid. If the variable has come back to the source in between, the
        stale copy must be a no-op at all three participants: a source
        that shipped again would lose the value and an oracle that
        relocated again would point at a partition that never installs
        it. (Found by ``fuzz --disk``: "oracle maps k5 to p0 but no
        partition stores it".) Here the move back is the issuer's next
        command, so both partitions classify the resend stale and the
        source pops nothing; the oracle skips it by ``followed_moves``."""
        self._move_back_and_forth(stack, second_issuer="c0")
        for name in ("p0s0", "p1s0"):
            assert stack.servers[name].replies.stale == 1
            assert stack.servers[name].replies.hits == 0

    def test_duplicate_move_resends_the_cached_transfer(self, stack):
        """The same resend while its issuer's session is still open (the
        move back came from another client): both partitions classify it
        a duplicate; the source re-sends its cached transfer from the
        exchange buffer without popping, the destination re-acknowledges
        from the session."""
        self._move_back_and_forth(stack, second_issuer="c9")
        for name in ("p0s0", "p1s0"):
            assert stack.servers[name].replies.stale == 0
            assert stack.servers[name].replies.hits == 1
