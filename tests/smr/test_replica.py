"""Integration tests for classic SMR: full replication over atomic
broadcast — one S-SMR partition (classic SMR = S-SMR at k = 1)."""

from repro.ordering import GroupDirectory
from repro.smr import (Command, CommandType, ExecutionModel,
                       KeyValueStateMachine, ReplyStatus)
from repro.ssmr import (SsmrClient, SsmrServer, StaticOracle,
                        StaticPartitionMap)

from tests.conftest import make_network


def build_smr(env, replicas=3, seed=1, network=None, **server_options):
    network = network or make_network(env, seed=seed)
    directory = GroupDirectory({"smr": [f"r{i}" for i in range(replicas)]})
    nodes = [SsmrServer(env, network, directory, "smr", f"r{i}",
                        KeyValueStateMachine(),
                        execution=ExecutionModel(base_ms=0.05),
                        **server_options)
             for i in range(replicas)]
    return network, directory, nodes


def smr_client(env, network, directory, name):
    return SsmrClient(env, network, directory, name,
                      StaticOracle(StaticPartitionMap(["smr"])))


class TestClassicSmr:
    def test_command_executes_on_all_replicas(self, env):
        net, directory, replicas = build_smr(env)
        for replica in replicas:
            replica.load_state({"x": 0})
        client = smr_client(env, net, directory, "c0")
        results = []

        def run(env):
            reply = yield from client.run_command(
                Command(op="incr", args={"key": "x"}, variables=("x",)))
            results.append(reply)

        env.process(run(env))
        env.run(until=10_000)
        assert results[0].status is ReplyStatus.OK
        assert results[0].value == 1
        for replica in replicas:
            assert replica.store.read("x") == 1

    def test_replicas_execute_same_order(self, env):
        net, directory, replicas = build_smr(env, seed=3)
        for replica in replicas:
            replica.load_state({"x": 0})
        clients = [smr_client(env, net, directory, f"c{i}")
                   for i in range(4)]

        def run(client):
            for _ in range(5):
                yield from client.run_command(
                    Command(op="incr", args={"key": "x"}, variables=("x",)))

        for client in clients:
            env.process(run(client))
        env.run(until=60_000)
        orders = [replica.executed for replica in replicas]
        assert orders[0] == orders[1] == orders[2]
        assert len(orders[0]) == 20
        for replica in replicas:
            assert replica.store.read("x") == 20

    def test_create_and_delete(self, env):
        net, directory, replicas = build_smr(env)
        client = smr_client(env, net, directory, "c0")
        results = []

        def run(env):
            reply = yield from client.run_command(
                Command(op="create", ctype=CommandType.CREATE,
                        variables=("k",), args={"value": 5}))
            results.append(reply.value)
            reply = yield from client.run_command(
                Command(op="get", args={"key": "k"}, variables=("k",)))
            results.append(reply.value)
            reply = yield from client.run_command(
                Command(op="delete", ctype=CommandType.DELETE,
                        variables=("k",)))
            results.append(reply.value)

        env.process(run(env))
        env.run(until=10_000)
        assert results == ["created", 5, "deleted"]

    def test_nok_on_missing_variable(self, env):
        net, directory, _replicas = build_smr(env)
        client = smr_client(env, net, directory, "c0")
        results = []

        def run(env):
            reply = yield from client.run_command(
                Command(op="get", args={"key": "ghost"},
                        variables=("ghost",)))
            results.append(reply.status)

        env.process(run(env))
        env.run(until=10_000)
        assert results == [ReplyStatus.NOK]

    def test_latency_recorded(self, env):
        net, directory, replicas = build_smr(env)
        replicas[0].load_state({"x": 0})
        replicas[1].load_state({"x": 0})
        replicas[2].load_state({"x": 0})
        client = smr_client(env, net, directory, "c0")

        def run(env):
            yield from client.run_command(
                Command(op="get", args={"key": "x"}, variables=("x",)))

        env.process(run(env))
        env.run(until=10_000)
        assert client.latency.count == 1
        assert client.latency.mean() > 0

    def test_adding_replicas_does_not_scale_throughput(self, env):
        """The motivation for the whole paper, in miniature: classic SMR
        executes every command everywhere, so the execution cost model
        bounds throughput regardless of replica count."""
        import math
        tput = {}
        for replicas in (1, 3):
            from repro.sim import Environment
            local_env = Environment()
            net, directory, nodes = build_smr(local_env, replicas=replicas)
            for node in nodes:
                node.load_state({"x": 0})
            clients = [smr_client(local_env, net, directory, f"c{i}")
                       for i in range(20)]
            end = 2_000.0

            def loop(client, env=local_env):
                while env.now < end:
                    yield from client.run_command(
                        Command(op="incr", args={"key": "x"},
                                variables=("x",)))

            for client in clients:
                local_env.process(loop(client))
            local_env.run(until=end)
            completed = sum(c.latency.count for c in clients)
            tput[replicas] = completed
        # Within 25%: replication does not add capacity.
        assert math.isclose(tput[1], tput[3], rel_tol=0.25)


def test_scheme_smr_is_scheme_ssmr_with_one_partition():
    """Classic SMR = S-SMR at k = 1: the same seeded command stream gives
    the same executions, state, latencies and message count."""
    from repro.harness.kvbed import build_kv_cluster, spawn_wave

    def run(scheme, **config):
        cluster = build_kv_cluster(scheme, 5, ("equivalence", "k1"),
                                   **config)
        wave = spawn_wave(cluster, 3, 12, "equivalence")
        cluster.run(until=60_000)
        assert wave.completed == wave.expected == 36
        return {
            "executed": {name: list(server.executed)
                         for name, server in cluster.servers.items()},
            "stores": {name: server.store.snapshot()
                       for name, server in cluster.servers.items()},
            "latencies": list(cluster.latency.completions.values),
            "completions": wave.completions,
            "messages_sent": cluster.network.messages_sent,
        }

    # The bed's default of two partitions is forced to one for "smr".
    assert run("smr") == run("ssmr", num_partitions=1)
