"""Unit tests for protocol node dispatch and the direct delivery path."""

import pytest

from repro.net import FixedLatency, Network
from repro.ordering import ProtocolNode
from repro.sim import SeedStream

from tests.conftest import make_network


class TestDispatch:
    def test_handler_routing(self, env):
        network = make_network(env)
        a = ProtocolNode(env, network, "a")
        b = ProtocolNode(env, network, "b")
        seen = []
        b.on("ping", lambda m: seen.append(("ping", m.payload)))
        b.on("pong", lambda m: seen.append(("pong", m.payload)))
        a.send("b", "ping", 1)
        a.send("b", "pong", 2)
        env.run(until=100)
        assert sorted(seen) == [("ping", 1), ("pong", 2)]

    def test_duplicate_handler_rejected(self, env):
        network = make_network(env)
        node = ProtocolNode(env, network, "n")
        node.on("k", lambda m: None)
        with pytest.raises(ValueError):
            node.on("k", lambda m: None)

    def test_default_handler(self, env):
        network = make_network(env)
        a = ProtocolNode(env, network, "a")
        b = ProtocolNode(env, network, "b")
        seen = []
        b.on_default(lambda m: seen.append(m.kind))
        a.send("b", "mystery")
        env.run(until=100)
        assert seen == ["mystery"]

    def test_unhandled_kind_raises(self, env):
        network = make_network(env)
        a = ProtocolNode(env, network, "a")
        ProtocolNode(env, network, "b")
        a.send("b", "nobody-listens")
        with pytest.raises(RuntimeError):
            env.run(until=100)

    def test_crash_stops_dispatch_and_sends(self, env):
        network = make_network(env)
        a = ProtocolNode(env, network, "a")
        b = ProtocolNode(env, network, "b")
        seen = []
        b.on("k", lambda m: seen.append(m.payload))
        a.send("b", "k", "before")
        env.run(until=100)
        b.crash()
        a.send("b", "k", "after")
        a.crash()
        a.send("b", "k", "from-crashed")
        env.run(until=200)
        assert seen == ["before"]
        assert a.crashed and b.crashed

    def test_send_all(self, env):
        network = make_network(env)
        a = ProtocolNode(env, network, "a")
        seen = []
        for name in ("b", "c"):
            node = ProtocolNode(env, network, name)
            node.on("k", lambda m, n=name: seen.append(n))
        a.send_all(["b", "c"], "k")
        env.run(until=100)
        assert sorted(seen) == ["b", "c"]


def fixed_network(env, delay_ms=1.0):
    """Deterministic latency: arrival order is send order."""
    return Network(env, SeedStream(1), FixedLatency(delay_ms))


class TestDelivery:
    def test_messages_sent_before_the_node_exists_are_handled_in_order(
            self, env):
        network = fixed_network(env)
        network.send("a", "late", "k", 1)
        env.run(until=1.0)
        assert len(network.endpoint("late").inbox) == 1
        seen = []

        def attach():
            ProtocolNode(env, network, "late").on(
                "k", lambda m: seen.append(m.payload))

        # The node attaches at t=2, ahead of two deliveries due at that
        # same instant: they queue behind the message buffered at t=1.
        env.schedule_callback(1.0, attach)
        network.send("a", "late", "k", 2)
        network.send("a", "late", "k", 3)
        env.run()
        assert seen == [1, 2, 3]
        assert len(network.endpoint("late").inbox) == 0
        network.send("a", "late", "k", 4)
        env.run()
        assert seen == [1, 2, 3, 4]

    def test_in_flight_message_dropped_and_successor_gets_its_first(
            self, env):
        network = fixed_network(env)
        a = ProtocolNode(env, network, "a")
        old = ProtocolNode(env, network, "b")
        seen_old, seen_new = [], []
        old.on("k", lambda m: seen_old.append(m.payload))
        a.send("b", "k", "in-flight")
        old.crash()
        env.run()
        assert network.messages_delivered == 0
        network.recover("b")
        a.send("b", "k", "between")  # nobody attached: buffered
        env.run()
        new = ProtocolNode(env, network, "b")
        new.on("k", lambda m: seen_new.append(m.payload))
        a.send("b", "k", "first")
        env.run()
        assert seen_old == []
        assert seen_new == ["between", "first"]

    def test_node_crashed_before_draining_leaves_the_buffer(self, env):
        network = fixed_network(env)
        network.send("a", "b", "k", "buffered")
        env.run()
        doomed = ProtocolNode(env, network, "b")
        doomed.on("k", lambda m: pytest.fail("crashed node dispatched"))
        doomed.crash()
        env.run()
        network.recover("b")
        seen = []
        ProtocolNode(env, network, "b").on(
            "k", lambda m: seen.append(m.payload))
        env.run()
        assert seen == ["buffered"]

    def test_reconnect_after_blackout(self, env):
        network = fixed_network(env)
        a = ProtocolNode(env, network, "a")
        b = ProtocolNode(env, network, "b")
        seen, reconnected_at = [], []
        b.on("k", lambda m: seen.append(m.payload))
        b.on_reconnect(lambda: reconnected_at.append(env.now))
        network.crash("b")
        a.send("b", "k", "lost")
        env.run(until=10)
        b.reconnect()
        assert not network.is_crashed("b")
        a.send("b", "k", "after")
        env.run(until=20)
        assert seen == ["after"]
        assert reconnected_at == [10]
        b.crash()
        b.reconnect()  # object-level crash: gone for good
        assert network.is_crashed("b") and reconnected_at == [10]

    def test_bare_endpoint_receive_still_yields(self, env):
        network = fixed_network(env)
        a = ProtocolNode(env, network, "a")
        bare = network.register("bare")
        got = []

        def reader():
            while True:
                message = yield bare.receive()
                got.append(message.payload)

        env.process(reader())
        a.send("bare", "k", 1)
        a.send("bare", "k", 2)
        env.run()
        assert got == [1, 2]

    def test_handler_exception_surfaces_from_run(self, env):
        network = fixed_network(env)
        a = ProtocolNode(env, network, "a")
        b = ProtocolNode(env, network, "b")

        def boom(message):
            raise ValueError(message.payload)

        b.on("k", boom)
        a.send("b", "k", "bad")
        with pytest.raises(ValueError, match="bad"):
            env.run()

    def test_same_instant_handlers_run_in_send_order(self, env):
        """Two messages reaching one node at the same instant: handlers
        run in send order, ahead of zero-delay events the first handler
        scheduled."""
        network = fixed_network(env)
        a = ProtocolNode(env, network, "a")
        b = ProtocolNode(env, network, "b")
        order = []

        def first(message):
            order.append("first")
            env.schedule_callback(0.0, order.append, "scheduled by first")

        b.on("one", first)
        b.on("two", lambda m: order.append("second"))
        a.send("b", "one")
        a.send("b", "two")
        env.run()
        assert order == ["first", "second", "scheduled by first"]
        assert env.now == 1.0
