"""Integration tests for S-SMR (Algorithm 1): partitioned execution with
signal/variable exchange."""

import pytest

from repro.ordering import (AmcastDelivery, GroupDirectory, PaxosLog,
                            ProtocolNode, SequencerLog)
from repro.smr import Command, ExecutionModel, KeyValueStateMachine, ReplyStatus
from repro.smr.executor import REPLY_KIND
from repro.ssmr import SsmrClient, SsmrServer, StaticOracle, StaticPartitionMap

from tests.conftest import make_network


def build_ssmr(env, seed=1, replicas=2,
               assignment={"x": 0, "y": 1, "z": 0, "w": 1}):
    network = make_network(env, seed=seed)
    partitions = ["p0", "p1"]
    directory = GroupDirectory({
        p: [f"{p}s{j}" for j in range(replicas)] for p in partitions})
    pmap = StaticPartitionMap(partitions, assignment=assignment)
    servers = {}
    initial = {"x": 1, "y": 2, "z": 3, "w": 4}
    for partition in partitions:
        contents = {k: initial[k] for k in
                    pmap.variables_in(partition, initial)}
        for member in directory.members(partition):
            server = SsmrServer(env, network, directory, partition, member,
                                KeyValueStateMachine(),
                                execution=ExecutionModel(base_ms=0.05))
            server.load_state(contents)
            servers[member] = server
    client = SsmrClient(env, network, directory, "c0", StaticOracle(pmap))
    return network, directory, servers, client


def run_commands(env, client, commands, results):
    def proc(env):
        for command in commands:
            reply = yield from client.run_command(command)
            results.append(reply)
    env.process(proc(env))


class TestSinglePartition:
    def test_local_get(self, env):
        _net, _dir, servers, client = build_ssmr(env)
        results = []
        run_commands(env, client, [
            Command(op="get", args={"key": "x"}, variables=("x",))],
            results)
        env.run(until=10_000)
        assert results[0].value == 1
        assert results[0].partition == "p0"
        assert client.multi_partition_commands == 0

    def test_write_applies_on_both_replicas(self, env):
        _net, _dir, servers, client = build_ssmr(env)
        results = []
        run_commands(env, client, [
            Command(op="put", args={"key": "x", "value": 42},
                    variables=("x",), writes=("x",))], results)
        env.run(until=10_000)
        assert servers["p0s0"].store.read("x") == 42
        assert servers["p0s1"].store.read("x") == 42


class TestMultiPartition:
    def test_cross_partition_read(self, env):
        _net, _dir, _servers, client = build_ssmr(env)
        results = []
        run_commands(env, client, [
            Command(op="sum", args={"keys": ["x", "y"]},
                    variables=("x", "y"))], results)
        env.run(until=10_000)
        assert results[0].value == 3
        assert client.multi_partition_commands == 1

    def test_cross_partition_swap_updates_both_sides(self, env):
        _net, _dir, servers, client = build_ssmr(env)
        results = []
        run_commands(env, client, [
            Command(op="swap", args={"a": "x", "b": "y"},
                    variables=("x", "y"), writes=("x", "y"))], results)
        env.run(until=10_000)
        assert results[0].status is ReplyStatus.OK
        assert servers["p0s0"].store.read("x") == 2
        assert servers["p1s0"].store.read("y") == 1
        # Replicas within each partition agree.
        assert servers["p0s0"].store.snapshot() == \
            servers["p0s1"].store.snapshot()
        assert servers["p1s0"].store.snapshot() == \
            servers["p1s1"].store.snapshot()

    def test_multi_partition_counts_on_servers(self, env):
        _net, _dir, servers, client = build_ssmr(env)
        results = []
        run_commands(env, client, [
            Command(op="sum", args={"keys": ["x", "y"]},
                    variables=("x", "y"))], results)
        env.run(until=10_000)
        assert servers["p0s0"].multi_partition_count == 1
        assert servers["p1s0"].multi_partition_count == 1

    def test_missing_variable_nok(self, env):
        _net, _dir, _servers, client = build_ssmr(env)
        results = []
        run_commands(env, client, [
            Command(op="get", args={"key": "ghost"}, variables=("ghost",))],
            results)
        env.run(until=10_000)
        assert results[0].status is ReplyStatus.NOK

    def test_interleaving_preserves_linearizable_values(self, env):
        """Concurrent swaps and reads across partitions: final state must
        reflect some serial order (here: swap count parity)."""
        _net, _dir, servers, client = build_ssmr(env, seed=7)
        from repro.ordering import GroupDirectory  # noqa: F401
        results = []

        def swapper(env):
            for _ in range(4):
                yield from client.run_command(
                    Command(op="swap", args={"a": "x", "b": "y"},
                            variables=("x", "y"), writes=("x", "y")))

        env.process(swapper(env))
        env.run(until=30_000)
        # 4 swaps: x and y are back to their initial values.
        assert servers["p0s0"].store.read("x") == 1
        assert servers["p1s0"].store.read("y") == 2


class TestOrderingAcrossPartitions:
    def test_two_clients_disjoint_and_joint_commands(self, env):
        net, directory, servers, client_a = build_ssmr(env, seed=11)
        pmap = StaticPartitionMap(["p0", "p1"],
                                  assignment={"x": 0, "y": 1, "z": 0,
                                              "w": 1})
        client_b = SsmrClient(env, net, directory, "c1", StaticOracle(pmap))
        done = []

        def loop(client, ops):
            for command in ops:
                yield from client.run_command(command)
            done.append(client.name)

        ops_a = [Command(op="incr", args={"key": "x"}, variables=("x",))
                 for _ in range(3)]
        ops_a.append(Command(op="sum", args={"keys": ["x", "y"]},
                             variables=("x", "y")))
        ops_b = [Command(op="incr", args={"key": "y"}, variables=("y",))
                 for _ in range(3)]
        env.process(loop(client_a, ops_a))
        env.process(loop(client_b, ops_b))
        env.run(until=30_000)
        assert sorted(done) == ["c0", "c1"]
        assert servers["p0s0"].store.read("x") == 4
        assert servers["p1s1"].store.read("y") == 5


def build_wide(env, k, **server_options):
    """``k`` partitions x 2 replicas holding one key each, and one ``sum``
    over all k keys — a single access that involves every partition."""
    network = make_network(env)
    partitions = [f"p{i}" for i in range(k)]
    directory = GroupDirectory({p: [f"{p}s0", f"{p}s1"] for p in partitions})
    keys = {f"k{i}": i for i in range(k)}
    servers = {}
    for key, index in keys.items():
        for member in directory.members(partitions[index]):
            servers[member] = SsmrServer(
                env, network, directory, partitions[index], member,
                KeyValueStateMachine(),
                execution=ExecutionModel(base_ms=0.05), **server_options)
            servers[member].load_state({key: index})
    client = SsmrClient(env, network, directory, "c0", StaticOracle(
        StaticPartitionMap(partitions, assignment=keys)))
    command = Command(op="sum", args={"keys": list(keys)},
                      variables=tuple(keys))
    return network, servers, client, command


def kinds(network) -> dict:
    """Messages sent so far, folded over groups: ``log/p1/decide`` counts
    as ``decide``."""
    folded = {}
    for kind, count in network.sent_by_kind.items():
        kind = kind.rsplit("/", 1)[-1]
        folded[kind] = folded.get(kind, 0) + count
    return folded


class TestOneVoice:
    """Each group speaks once per multi-partition command: its speaker
    announces the timestamp, transmits the exchange and answers the
    client, every member caches the exchange and the reply, any member
    answers a pull."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_message_budget_of_one_access(self, env, k):
        network, servers, client, command = build_wide(env, k)
        results = []
        run_commands(env, client, [command], results)
        # Before the logs have been quiet for a tail announcement.
        env.run(until=SequencerLog.TAIL_QUIET_MS - 10)
        assert results[0].value == sum(range(k))
        assert kinds(network) == {
            "submit": k + k * (k - 1),    # client proposes + timestamps
            "decide": k * k,              # k entries per group, 1 follower
            "rmcast": 2 * k * (k - 1),    # speaker -> both peer members
            "reply": k,                   # one per group: the speaker's
        }
        assert sum(kinds(network).values()) == 4 * k * k - k
        for server in servers.values():
            assert server.replies.sessions, server.node.name
        # Then each quiet log announces its tail once to its follower,
        # which is there and says so.
        env.run(until=10_000)
        assert {kind: count for kind, count in kinds(network).items()
                if kind.startswith("tail")} == {"tail": k, "tail-ack": k}
        for server in servers.values():
            uids = [entry["uid"]
                    for entry in server.log.decided_entries.values()]
            assert len(uids) == k         # one propose, k-1 timestamps
            own = f":{server.partition}:{server.partition}"
            assert not [uid for uid in uids
                        if uid.startswith("ts:") and uid.endswith(own)]

    def test_dropped_speaker_exchange_is_pulled_from_any_member(self, env):
        network, servers, client, command = build_wide(env, 2)
        transmitted = set()

        def lose_p0_to_p1s1(message):
            if message.kind != "rmcast":
                return False
            if message.payload["payload"]["kind"] != "ssmr-exchange":
                return False
            if message.sent_at < 50:
                transmitted.add(message.src)
            return (message.src, message.dst) == ("p0s0", "p1s1")

        remove = network.add_drop_rule(lose_p0_to_p1s1)
        run_commands(env, client, [command], [])
        env.run(until=50)
        assert transmitted == {"p0s0", "p1s0"}        # followers are silent
        assert [len(s.executed) for s in servers.values()] == [1, 1, 1, 0]
        remove()
        env.run(until=70)            # retry_ms (60) + a round trip (<= 2)
        assert len(servers["p1s1"].executed) == 1
        assert servers["p1s1"].exchange.pulls_sent == 1
        # The pull went to the group; the follower, which never
        # transmitted, answered from its cache beside the speaker.
        assert servers["p0s1"].exchange.pulls_served == 1
        assert servers["p0s0"].exchange.pulls_served == 1

    def test_every_member_transmits_without_speaker_only(self, env):
        network, servers, client, command = build_wide(
            env, 2, log_factory=PaxosLog, speaker_only=False)
        senders = set()
        network.add_drop_rule(lambda message: senders.add(message.src)
                              if message.kind == "rmcast" else None)
        results = []
        run_commands(env, client, [command], results)
        env.run(until=10_000)
        assert results[0].value == 1
        assert senders == set(servers)
        assert kinds(network)["rmcast"] == 8   # 4 members x 2 peer members
        assert kinds(network)["reply"] == 4    # every member answers


class TestSessions:
    """Two one-replica partitions fed ordered deliveries directly, so each
    group's view of client c0's session can be set up on its own."""

    def test_stale_at_one_group_and_duplicate_at_the_other_both_proceed(
            self, env):
        network = make_network(env)
        directory = GroupDirectory({"a": ["a0"], "b": ["b0"]})
        servers = {g: SsmrServer(env, network, directory, g, f"{g}0",
                                 KeyValueStateMachine(),
                                 execution=ExecutionModel(base_ms=0.05))
                   for g in ("a", "b")}
        servers["a"].load_state({"x": 1})
        servers["b"].load_state({"y": 2})
        replies = []
        ProtocolNode(env, network, "c0").on(
            REPLY_KIND, lambda message: replies.append(
                (message.payload.sender, message.payload.cid,
                 message.payload.attempt)))
        uids = iter(range(1, 100))

        def deliver(dests, command, groups=None, attempt=1):
            for group in groups or dests:
                n = next(uids)
                servers[group]._enqueue(AmcastDelivery(
                    uid=f"u{n}", payload={"command": command,
                                          "dests": dests,
                                          "attempt": attempt},
                    groups=tuple(dests), origin="c0", timestamp=(n, ""),
                    local_seq=n))
            env.run(until=env.now + 50.0)

        def command(seq, op, args, variables):
            return Command(op=op, args=args, variables=variables,
                           writes=variables if op == "swap" else (),
                           cid=f"c0:{seq}", client="c0", seq=seq, acked=seq)

        first = command(1, "sum", {"keys": ["x", "y"]}, ("x", "y"))
        deliver(["a", "b"], first)
        # c0's next command reaches group a only.
        deliver(["a"], command(2, "get", {"key": "x"}, ("x",)))
        # A resend of the first: stale at a, a duplicate at b, which
        # joins the exchange with the done flag and re-sends its reply.
        deliver(["a", "b"], first, attempt=2)
        assert servers["a"].replies.stale == 1
        assert servers["b"].replies.hits == 1
        # Neither executor waits on the other: the next two-partition
        # command runs on both.
        deliver(["a", "b"], command(3, "swap", {"a": "x", "b": "y"},
                                    ("x", "y")))
        assert servers["a"].executed == ["c0:1", "c0:2", "c0:3"]
        assert servers["b"].executed == ["c0:1", "c0:3"]
        assert (servers["a"].store.read("x"),
                servers["b"].store.read("y")) == (2, 1)
        assert sorted(replies) == [
            ("a0", "c0:1", 1), ("a0", "c0:2", 1), ("a0", "c0:3", 1),
            ("b0", "c0:1", 1), ("b0", "c0:1", 2), ("b0", "c0:3", 1)]
