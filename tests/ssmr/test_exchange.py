"""Unit tests for the signal/variable exchange buffer."""

from types import SimpleNamespace

import pytest

from repro.ordering import GroupDirectory, ProtocolNode, ReliableMulticast
from repro.ssmr.exchange import ExchangeBuffer

from tests.conftest import make_network

# The delivery key the sends below are kept under; no floor ever rises
# here, so every sent message stays cached.
KEY = (1, "am-1")


def build_pair(env, speakers=None):
    """Two partitions of two members. With ``speakers`` the stack is
    speaker-only and only they transmit (servers pass their
    ``AtomicMulticast``); with ``None`` every member transmits to every
    member, as with ``speaker_only=False``."""
    network = make_network(env)
    directory = GroupDirectory({"p0": ["a0", "a1"], "p1": ["b0", "b1"]})
    buffers = {}
    for member, partition in [("a0", "p0"), ("a1", "p0"),
                              ("b0", "p1"), ("b1", "p1")]:
        node = ProtocolNode(env, network, member)
        rmcast = ReliableMulticast(node, directory)
        buffers[member] = ExchangeBuffer(
            env, rmcast, partition, amcast=SimpleNamespace(
                speaker_only=speakers is not None,
                announcing=speakers is None or member in speakers,
                floors={}, on_floor=lambda callback: None))
    return buffers


def network_of(buffers):
    return buffers["a0"].rmcast.node.network


class TestExchangeBuffer:
    def test_send_and_wait(self, env):
        buffers = build_pair(env)
        received = []

        def waiter(env):
            yield from buffers["b0"].wait("c1", {"p0"})
            received.append(buffers["b0"].collect("c1"))

        env.process(waiter(env))
        buffers["a0"].send(["p1"], "c1", {"x": 42}, key=KEY)
        env.run(until=1_000)
        assert received == [{"x": 42}]

    def test_duplicate_sender_partition_ignored(self, env):
        buffers = build_pair(env)
        # Both replicas of p0 send (as replicas built with
        # speaker_only=False do); p1 sees one signal for partition p0 and
        # the first values win.
        buffers["a0"].send(["p1"], "c1", {"x": 1}, key=KEY)
        buffers["a1"].send(["p1"], "c1", {"x": 2}, key=KEY)
        env.run(until=1_000)
        received = []

        def waiter(env):
            yield from buffers["b0"].wait("c1", {"p0"})
            received.append(buffers["b0"].collect("c1"))

        env.process(waiter(env))
        env.run(until=2_000)
        assert received[0]["x"] in (1, 2)
        assert len(received) == 1

    def test_wait_for_multiple_partitions(self, env):
        buffers = build_pair(env)
        # a0 (p0) waits for itself? No — p1 waits for p0 AND ... use b0
        # waiting for p0 only; then test two-source waiting via a0 waiting
        # on p1's send plus p0's own replica? Simplest: b0 waits for p0,
        # then a0 waits for p1.
        done = []

        def waiter(env):
            yield from buffers["a0"].wait("c2", {"p1"})
            done.append(True)

        env.process(waiter(env))
        env.run(until=100)
        assert not done
        buffers["b0"].send(["p0"], "c2", {}, key=KEY)
        env.run(until=1_000)
        assert done

    def test_done_flag(self, env):
        buffers = build_pair(env)
        buffers["a0"].send(["p1"], "c3", {}, done=True, key=KEY)
        env.run(until=1_000)
        assert buffers["b0"].any_done("c3")
        buffers["b0"].collect("c3")
        assert not buffers["b0"].any_done("c3")

    def test_values_arriving_before_wait_are_buffered(self, env):
        buffers = build_pair(env)
        buffers["a0"].send(["p1"], "c4", {"y": 9}, key=KEY)
        env.run(until=1_000)
        received = []

        def waiter(env):
            yield from buffers["b1"].wait("c4", {"p0"})
            received.append(buffers["b1"].collect("c4"))

        env.process(waiter(env))
        env.run(until=2_000)
        assert received == [{"y": 9}]

    def test_double_wait_same_cid_rejected(self, env):
        buffers = build_pair(env)

        def waiter(env):
            yield from buffers["b0"].wait("c5", {"p0"})

        env.process(waiter(env))
        env.run(until=10)

        def second(env):
            with pytest.raises(RuntimeError):
                yield from buffers["b0"].wait("c5", {"p0"})

        env.process(second(env))
        env.run(until=20)

    def test_empty_groups_noop(self, env):
        buffers = build_pair(env)
        buffers["a0"].send([], "c6", {"x": 1}, key=KEY)   # must not raise
        env.run(until=100)


class TestOneVoice:
    """A group speaks and listens once: every member caches, the speaker
    transmits to the peer speakers and relays to its followers, any
    member answers a pull to every member of the puller's group."""

    def test_follower_caches_but_does_not_transmit(self, env):
        buffers = build_pair(env, speakers={"a0", "b0"})
        buffers["a1"].send(["p1"], "c1", {"x": 1}, key=KEY)
        env.run(until=100)
        assert network_of(buffers).messages_sent == 0
        assert buffers["a1"]._sent["c1"]["vars"] == {"x": 1}
        buffers["a0"].send(["p1"], "c1", {"x": 1}, key=KEY)
        env.run(until=200)
        # Speaker to speaker: p1's follower hears it only from b0's relay.
        assert network_of(buffers).sent_by_kind == {"rmcast": 1}
        assert buffers["b0"].collect("c1") == {"x": 1}
        assert buffers["b1"].collect("c1") == {}

    def test_speaker_relays_one_bundle_to_its_followers(self, env):
        buffers = build_pair(env, speakers={"a0", "b0"})
        wire = []   # (src, dst, from) of every exchange message

        def tap(message):
            payload = message.payload["payload"]
            wire.append((message.src, message.dst, payload["from"]))

        network_of(buffers).add_drop_rule(tap)
        received = {}

        def waiter(member):
            yield from buffers[member].wait("c1", {"p0"})
            received[member] = (env.now, buffers[member].any_done("c1"),
                                buffers[member].collect("c1"))

        for member in ("b0", "b1"):
            env.process(waiter(member))
        for member in ("a0", "a1"):
            buffers[member].send(["p1"], "c1", {"x": 1}, done=True,
                                 key=KEY)
        env.run(until=100)
        assert wire == [("a0", "b0", "p0"), ("b0", "b1", ["p0"])]
        # The bundle carries the merged variables and the done flag.
        assert received["b0"][1:] == received["b1"][1:] == (True, {"x": 1})
        assert received["b0"][0] < received["b1"][0]   # one hop later
        assert [buffer.pulls_sent for buffer in buffers.values()] == \
            [0, 0, 0, 0]

    def test_pull_is_served_by_a_follower_that_never_transmitted(self, env):
        buffers = build_pair(env, speakers={"b0"})   # p0 has no voice left
        buffers["a1"].send(["p1"], "c1", {"x": 7}, key=KEY)
        received = []

        def waiter(env):
            yield from buffers["b0"].wait("c1", {"p0"})
            received.append((env.now, buffers["b0"].collect("c1")))

        env.process(waiter(env))
        env.run(until=1_000)
        (at, variables), = received
        assert variables == {"x": 7}
        assert 60.0 < at <= 62.0          # retry_ms + one round trip
        assert buffers["a1"].pulls_served == 1
        assert buffers["a0"].pulls_served == 0   # nothing cached there

    def test_resend_carries_and_is_charged_for_the_original_variables(
            self, env):
        buffers = build_pair(env)
        wire = []   # (size, variables) of every exchange message sent

        def tap(message):
            payload = message.payload["payload"]
            if payload["kind"] == "ssmr-exchange":
                wire.append((message.size, payload["vars"]))

        network_of(buffers).add_drop_rule(tap)
        original = (128 + 64 * 2, {"x": 1, "y": 2})
        buffers["a0"].send(["p1"], "c1", {"x": 1, "y": 2}, key=KEY)
        # The client-retry exchange: nothing left to ship, done flag set.
        buffers["a0"].send(["p1"], "c1", {}, done=True, key=KEY)
        assert wire == [original] * 4     # 2 sends x 2 members of p1
        # A pull answer is the same message at the same price.
        del wire[:]
        buffers["b0"].rmcast.multicast(["p0"], {
            "kind": "ssmr-exchange-pull", "cid": "c1", "reply_to": "p1"})
        env.run(until=100)
        assert wire == [original] * 2     # a0's answer; a1 holds nothing
