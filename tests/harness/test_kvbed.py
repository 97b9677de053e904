"""Tests for the key-value test bed (repro.harness.kvbed).

Every campaign smoke runs on this bed, so its contract is byte-identity:
the command mix, the seed derivation, the key deal and the client wave
must keep producing exactly what the per-campaign copies they replaced
produced. The goldens below were recorded from those copies.
"""

import random

import pytest

from repro.checkers import History
from repro.harness.elastic import ELASTIC_KEYS, ELASTIC_MIX
from repro.harness.kvbed import (KEYS, MIX, build_kv_cluster, kv_command,
                                 spawn_wave)
from repro.resilience import RetryPolicy

# 20 draws from random.Random("kvbed/golden") through the deleted
# chaos._random_access / runner._workload_command (identical) and
# elastic._random_access, as "<op> <variables...>".
CHAOS_GOLDEN = [
    "swap k3 k0", "swap k5 k1", "get k3", "incr k5", "incr k2", "incr k0",
    "swap k0 k1", "incr k3", "get k0", "get k1", "swap k0 k4", "incr k3",
    "get k4", "sum k4 k0", "get k4", "swap k0 k5", "swap k0 k2", "get k0",
    "incr k2", "incr k5"]
ELASTIC_GOLDEN = [
    "incr k14", "sum k01 k23", "sum k04 k02", "swap k10 k20",
    "swap k10 k13", "get k04", "get k20", "get k06", "incr k13", "get k00",
    "get k06", "swap k03 k16", "incr k14", "get k19", "swap k16 k00",
    "get k19", "swap k00 k21", "get k03", "get k01", "get k19"]


def draw(keys, mix, count=20):
    rng = random.Random("kvbed/golden")
    return [kv_command(rng, keys, mix) for _ in range(count)]


class TestKvCommand:
    def test_default_mix_matches_the_chaos_and_fuzz_copies(self):
        commands = draw(KEYS, MIX)
        assert [f"{c.op} {' '.join(c.variables)}"
                for c in commands] == CHAOS_GOLDEN

    def test_elastic_mix_matches_the_elastic_copy(self):
        commands = draw(ELASTIC_KEYS, ELASTIC_MIX)
        assert [f"{c.op} {' '.join(c.variables)}"
                for c in commands] == ELASTIC_GOLDEN

    def test_command_shapes(self):
        for command in draw(KEYS, MIX):
            first = command.variables[0]
            expected = {
                "get": ({"key": first}, ()),
                "incr": ({"key": first}, (first,)),
                "swap": (dict(zip("ab", command.variables)),
                         command.variables),
                "sum": ({"keys": list(command.variables)}, ()),
            }[command.op]
            assert (command.args, command.writes) == expected

    @pytest.mark.parametrize("mix, op", [
        ((1.0, 1.0, 1.0), "get"), ((0.0, 1.0, 1.0), "incr"),
        ((0.0, 0.0, 1.0), "swap"), ((0.0, 0.0, 0.0), "sum")])
    def test_mix_thresholds_are_cumulative(self, mix, op):
        assert {c.op for c in draw(KEYS, mix)} == {op}


class TestBuildKvCluster:
    @pytest.mark.parametrize("scheme", ["ssmr", "dssmr", "dynastar"])
    def test_keys_are_dealt_round_robin(self, scheme):
        cluster = build_kv_cluster(scheme, 1, (scheme, "deal"))
        assert cluster.partitions == ("p0", "p1")
        for index, key in enumerate(KEYS):
            assert cluster.partition_map.partition_of(key) == f"p{index % 2}"
            for member in cluster.directory.members(f"p{index % 2}"):
                assert cluster.servers[member].store.snapshot()[key] == 0

    def test_deal_follows_the_partition_count(self):
        cluster = build_kv_cluster("ssmr", 1, ("ssmr", "deal3"),
                                   num_partitions=3)
        assert [cluster.partition_map.partition_of(key) for key in KEYS] \
            == ["p0", "p1", "p2", "p0", "p1", "p2"]

    def test_smr_is_dealt_onto_its_one_partition(self):
        # The bed's default of two partitions does not reach the deal:
        # classic SMR is S-SMR with ``num_partitions`` forced to 1.
        cluster = build_kv_cluster("smr", 1, ("smr", "deal"),
                                   assignment={"x0": 0})
        assert set(cluster.config.initial_assignment.values()) == {0}
        assert cluster.partitions == ("p0",)
        assert set(cluster.servers["p0s0"].store.snapshot()) == set(KEYS)

    def test_qos_campaign_runs_on_smr(self):
        # At the parent the overload harness dealt keys over two
        # partitions for classic SMR too and crashed on the assignment.
        from repro.harness.overload import run_overload_point
        point = run_overload_point(0.5, False, scheme="smr",
                                   duration_ms=60.0, drain_ms=60.0)
        assert point["completed"] == point["arrivals"] > 0

    def test_assignment_and_contents_overlay_the_deal(self):
        cluster = build_kv_cluster(
            "dssmr", 1, ("dssmr", "overlay"),
            contents={"k1": 7, "x0": 9}, assignment={"k1": 0, "x0": 0})
        image = cluster.servers["p0s0"].store.snapshot()
        assert image == {"k0": 0, "k1": 7, "k2": 0, "k4": 0, "x0": 9}

    def test_retry_policy_default_and_explicit_none(self):
        resilient = build_kv_cluster("dssmr", 1, ("dssmr", "retry"))
        assert isinstance(resilient.config.retry_policy, RetryPolicy)
        plain = build_kv_cluster("dssmr", 1, ("dssmr", "retry"),
                                 retry_policy=None)
        assert plain.config.retry_policy is None

    def test_seed_path_names_the_run(self):
        seeds = {build_kv_cluster("ssmr", seed, path).config.seed
                 for seed in (1, 2)
                 for path in (("ssmr", "a"), ("ssmr", "b"), ("x", "a"))}
        assert len(seeds) == 6


def run_wave(**wave_kwargs):
    cluster = build_kv_cluster("dssmr", 4, ("dssmr", "wave"))
    history = History()
    wave = spawn_wave(cluster, 3, 5, "kvbed/wave", history=history,
                      **wave_kwargs)
    fired = []

    def waiter():
        yield wave.done
        fired.append(cluster.env.now)

    cluster.env.process(waiter())
    cluster.run(until=5_000.0)
    return cluster, wave, history, fired


class TestSpawnWave:
    def test_same_run_twice_in_one_process_is_identical(self):
        images = []
        for _ in range(2):
            cluster, wave, _history, _fired = run_wave()
            images.append((
                wave.completions, wave.done_at, wave.latency_ms,
                cluster.network.messages_sent,
                {name: (server.store.snapshot(), list(server.executed))
                 for name, server in sorted(cluster.servers.items())}))
        assert images[0] == images[1]

    def test_interleaved_runs_equal_their_solo_runs(self):
        """Ids belong to the run: building B after A and running B first
        changes nothing in either run."""
        def build(scheme, seed):
            cluster = build_kv_cluster(scheme, seed, (scheme, "wave"))
            return cluster, spawn_wave(cluster, 3, 5, "kvbed/wave")

        def image(cluster, wave):
            cluster.run(until=5_000.0)
            return (wave.completions, wave.latency_ms,
                    cluster.network.messages_sent,
                    {name: (server.store.snapshot(), list(server.executed))
                     for name, server in sorted(cluster.servers.items())})

        solo_a = image(*build("dssmr", 4))
        solo_b = image(*build("ssmr", 5))
        a, b = build("dssmr", 4), build("ssmr", 5)
        assert image(*b) == solo_b
        assert image(*a) == solo_a

    def test_wave_records_what_the_clients_did(self):
        cluster, wave, history, fired = run_wave()
        assert wave.expected == 15
        assert wave.completed == wave.expected == len(history)
        assert fired == [wave.done_at]    # done fired exactly once
        assert sorted(c.name for c in cluster.clients) == ["c0", "c1", "c2"]
        assert wave.completions == [op.responded_at for op in history]
        assert wave.latency_ms == pytest.approx(
            sum(op.responded_at - op.invoked_at for op in history))
        # The last client ends after its final think pause (<= 1 ms).
        last_reply = max(wave.completions)
        assert last_reply <= wave.done_at <= last_reply + 1.0

    def test_without_think_time_done_fires_at_the_last_reply(self):
        _cluster, wave, history, _fired = run_wave(think=(0.0, 0.0))
        assert wave.done_at == max(op.responded_at for op in history)

    def test_prefix_names_the_clients(self):
        cluster = build_kv_cluster("ssmr", 4, ("ssmr", "prefix"))
        spawn_wave(cluster, 2, 1, "w", prefix="w")
        assert [c.name for c in cluster.clients] == ["w0", "w1"]

    def test_unfinished_wave_reports_partial_progress(self):
        cluster = build_kv_cluster("dssmr", 4, ("dssmr", "wave"))
        wave = spawn_wave(cluster, 3, 5, "kvbed/wave")
        cluster.run(until=3.0)
        assert 0 < wave.completed < wave.expected
        assert wave.done_at is None and not wave.done.triggered
