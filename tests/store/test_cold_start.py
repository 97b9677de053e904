"""Cluster-level tests for the recovery ladder
(repro.store.coldstart via Cluster.recover_server / power cycle)."""

import pytest

from repro.harness import build_cluster, cluster_invariants
from repro.reconfig.checkpoint import state_checksum
from repro.smr import Command, CommandType
from repro.store import DurabilityConfig
from repro.store.checkpoints import load_latest_checkpoint
from repro.store.wal import WAL_PREFIX, replay_wal


def incr(key):
    return Command(op="incr", args={"key": key}, variables=(key,),
                   writes=(key,))


def build_durable_cluster(seed=3, scheme="dssmr", **durability_kwargs):
    cluster = build_cluster(
        scheme=scheme, num_partitions=2, replicas_per_partition=2,
        seed=seed, initial_assignment={f"k{i}": i % 2 for i in range(4)},
        durability=DurabilityConfig(**durability_kwargs))
    cluster.preload({f"k{i}": 0 for i in range(4)})
    return cluster


def run_workload(cluster, count=8, name="c0"):
    """``count`` increments over k0..k3 for 5 s; returns how many were
    answered."""
    client = cluster.new_client(name)
    done = [0]

    def proc(env):
        for index in range(count):
            key = f"k{index % 4}"
            yield from client.run_command(incr(key))
            done[0] += 1

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)
    return done[0]


def images(cluster):
    return {name: {"store": server.store.snapshot(),
                   "executed": list(server.executed)}
            for name, server in sorted(cluster.servers.items())}


class TestPowerCycle:
    def test_full_cluster_power_loss_restores_from_local_disk(self):
        """Every partition comes back from its own disks — zero live
        peers exist after a whole-cluster power failure."""
        cluster = build_durable_cluster()
        run_workload(cluster)
        live = state_checksum(images(cluster))

        cluster.power_fail()
        cluster.run(until=cluster.env.now + 50)
        cluster.power_restore()
        cluster.run(until=cluster.env.now + 2_000)

        assert state_checksum(images(cluster)) == live
        assert cluster.disks.stats.cold_starts >= 4
        assert cluster_invariants(cluster) == []

    def test_cluster_serves_fresh_commands_after_restore(self):
        cluster = build_durable_cluster(seed=5)
        run_workload(cluster)
        before = cluster.servers["p0s0"].store.read("k0")
        cluster.power_fail()
        cluster.run(until=cluster.env.now + 50)
        cluster.power_restore()
        cluster.run(until=cluster.env.now + 2_000)
        run_workload(cluster, count=4, name="c1")
        assert cluster.servers["p0s0"].store.read("k0") == before + 1
        assert cluster_invariants(cluster) == []


class TestLadder:
    def test_clean_follower_restarts_without_peer_fallback(self):
        cluster = build_durable_cluster()
        run_workload(cluster)
        cluster.servers["p0s1"].crash()
        cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 1_000)
        stats = cluster.disks.stats
        assert stats.cold_starts == 1
        assert stats.peer_fallbacks == 0
        assert cluster.servers["p0s1"].store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_speaker_cold_restart_reconciles_sequencer(self):
        """The restarting sequencer must never reuse a sequence number:
        traffic after the restart keeps the history linearizable."""
        cluster = build_durable_cluster(seed=7)
        run_workload(cluster)
        cluster.servers["p0s0"].crash()
        cluster.recover_server("p0s0")
        cluster.run(until=cluster.env.now + 1_000)
        run_workload(cluster, count=6, name="c2")
        assert cluster_invariants(cluster) == []

    def test_corrupt_wal_falls_back_to_peer(self):
        """Rung 2: a CRC failure means the local history cannot be
        trusted past the anomaly — recovery must pull a peer's state
        instead of silently replaying the readable prefix."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        disk = cluster.disks.disk("p0s1")
        segment = disk.files("wal.")[0]
        disk._durable[segment][8] ^= 0x40
        cluster.servers["p0s1"].crash()
        cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 2_000)
        stats = cluster.disks.stats
        assert stats.peer_fallbacks == 1
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_corrupt_speaker_falls_back_and_keeps_sequencing(self):
        """A durable speaker whose WAL is corrupt takes rung 2 too, and
        its sequencer is reconciled there as on rung 1: it resumes past
        every number it handed out, so its partition keeps ordering
        (a fresh sequencer at 0 left p0 answering none of 6)."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        disk = cluster.disks.disk("p0s0")
        segment = disk.files("wal.")[0]
        disk._durable[segment][8] ^= 0x40
        cluster.servers["p0s0"].crash()
        replacement = cluster.recover_server("p0s0")
        cluster.run(until=cluster.env.now + 1_000)
        assert cluster.disks.stats.peer_fallbacks == 1
        assert replacement.recovery.installed
        assert replacement.log._next_seq >= replacement.log.applied_count
        assert run_workload(cluster, count=6, name="c2") == 6
        assert cluster_invariants(cluster) == []

    def test_blank_disk_behind_a_compacted_log_takes_a_peer_transfer(
            self):
        """A replaced machine's blank disk holds no history that meets
        the group's log floor: rung 2, not a replay from position 0
        (which asked the speaker for entries below its floor and left
        the member diverged at 0 applied)."""
        cluster = build_durable_cluster(seed=9, checkpoint_every=16)
        run_workload(cluster, count=600)
        speaker = cluster.servers["p0s0"]
        assert speaker.log.floor > 0
        cluster.servers["p0s1"].crash()
        cluster.disks.disk("p0s1").erase()
        replacement = cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 2_000)
        assert cluster.disks.stats.peer_fallbacks == 1
        assert replacement.log.applied_count == speaker.log.applied_count
        assert replacement.store.snapshot() == speaker.store.snapshot()
        assert speaker.log.below_floor_requests == 0
        assert cluster_invariants(cluster) == []

    def test_torn_tail_is_not_corruption(self):
        """Rung 1 still applies to a torn tail: the half-written record
        never happened (no reply was sent for it), so the local prefix
        is complete and no peer transfer is needed."""
        cluster = build_durable_cluster(seed=11)
        run_workload(cluster)
        disk = cluster.disks.disk("p0s1")
        disk.tear_tail()
        cluster.servers["p0s1"].crash()
        cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 2_000)
        assert cluster.disks.stats.peer_fallbacks == 0
        assert cluster.servers["p0s1"].store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_corrupt_wal_with_no_live_peer_installs_prefix(self):
        """Rung 3: corruption and nobody to fall back to. The readable
        prefix is installed instead of hanging or silently completing —
        un-replied suffix commands are left to client resends."""
        cluster = build_durable_cluster(seed=13)
        run_workload(cluster)
        cluster.power_fail()
        disk = cluster.disks.disk("p0s1")
        segment = disk.files("wal.")[0]
        disk._durable[segment][8] ^= 0x40
        fallbacks_before = cluster.disks.stats.peer_fallbacks
        replacement = cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 500)
        # No peer was alive: the ladder landed on rung 3, not rung 2.
        assert cluster.disks.stats.peer_fallbacks == fallbacks_before
        assert replacement._start_gate.triggered
        # The preloaded base image survived even with the log unreadable.
        assert set(replacement.store.snapshot()) >= {"k0", "k2"}


class TestCompactedLogColdStart:
    def test_lagging_fsync_keeps_the_suffix_at_the_speaker(self):
        """A WAL-armed member reports the position it can cold-start to
        from its own disk — the one after its last fsynced entry — not
        its applied position. With the follower's fsyncs far behind its
        log, a power failure then loses a long applied suffix, and rung 1
        must still find every entry of it at the speaker."""
        # One WAL segment holds the whole un-fsynced suffix, so the power
        # failure tears its tail (rung 1) instead of gapping the log.
        cluster = build_durable_cluster(scheme="ssmr", seed=5,
                                        segment_records=1_024)
        speaker = cluster.servers["p0s0"].log
        every = speaker.STABLE_EVERY
        run_workload(cluster, count=200)
        disk = cluster.disks.disk("p0s1")
        disk.slow_factor = 100_000.0   # a 30 s fsync
        # Half the keys live on p0: 3 * every entries in its log.
        run_workload(cluster, count=6 * every, name="c1")
        follower = cluster.servers["p0s1"]
        assert follower.log.applied_count == speaker.applied_count
        fsynced = follower.wal.durable_seq + 1
        assert follower.log.applied_count - fsynced > every
        assert speaker.floor > 0

        disk.slow_factor = 1.0
        cluster.servers["p0s1"].crash()
        replacement = cluster.recover_server("p0s1")
        run_workload(cluster, count=4, name="c2")
        assert cluster.disks.stats.peer_fallbacks == 0
        assert replacement.log.applied_count == speaker.applied_count
        assert replacement.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert speaker.below_floor_requests == 0
        assert cluster_invariants(cluster) == []


def build_oracle_cluster(scheme, seed=3):
    """Two partitions, durable, a checkpoint every 16 applied entries."""
    return build_durable_cluster(seed=seed, scheme=scheme,
                                 checkpoint_every=16)


def oracle_workload(cluster, rounds, name):
    """Creates, cross-partition sums (moves) and increments: traffic
    that changes the oracle's map. Returns the count of answered
    commands (a one-item list, updated as they are)."""
    client = cluster.new_client(name)
    done = [0]

    def proc(env):
        for turn in range(rounds):
            key = f"{name}-{turn}"
            for command in (
                    Command(op="create", ctype=CommandType.CREATE,
                            variables=(key,), args={"value": 0}),
                    Command(op="sum",
                            args={"keys": [key, f"k{(turn + 1) % 4}"]},
                            variables=(key, f"k{(turn + 1) % 4}")),
                    incr(f"k{turn % 4}")):
                yield from client.run_command(command)
                done[0] += 1

    cluster.env.process(proc(cluster.env))
    return done


def oracle_image(oracle):
    return {"location": dict(oracle.location),
            "map_version": oracle.map_version,
            "followed_moves": set(oracle.followed_moves),
            "epoch": oracle.epoch}


@pytest.mark.parametrize("scheme", ["dssmr", "dynastar"])
class TestOracleColdStart:
    def test_power_cycle_restores_the_oracle_from_its_checkpoint(
            self, scheme):
        """The oracle checkpoints like a partition: its WAL is truncated
        behind the checkpoint, a power cycle replays only the suffix,
        and the map comes back as it was."""
        cluster = build_oracle_cluster(scheme)
        done = oracle_workload(cluster, 30, "c0")
        cluster.run(until=5_000)
        assert done == [90]
        assert cluster.moves_total() > 0
        live = {oracle.node.name: oracle_image(oracle)
                for oracle in cluster.oracles}
        applied = {oracle.node.name: oracle.log.applied_count
                   for oracle in cluster.oracles}

        cluster.power_fail()
        for name in applied:
            disk = cluster.disks.disk(name)
            checkpoint, _ = load_latest_checkpoint(disk)
            assert checkpoint is not None and checkpoint.applied_count > 0
            segments = disk.files(WAL_PREFIX + ".")
            assert min(int(path.split(".")[1]) for path in segments) > 0
            assert len(replay_wal(disk).entries) < applied[name]
        cluster.run(until=cluster.env.now + 50)
        cluster.power_restore()
        cluster.run(until=cluster.env.now + 2_000)

        for oracle in cluster.oracles:
            assert oracle_image(oracle) == live[oracle.node.name]
        assert cluster.disks.stats.peer_fallbacks == 0
        assert cluster_invariants(cluster) == []

    def test_oracle_cold_restart_mid_run(self, scheme):
        """One oracle replica restarts from its own clean disk while the
        other keeps serving: no peer transfer, and it converges."""
        cluster = build_oracle_cluster(scheme, seed=5)
        done = oracle_workload(cluster, 30, "c0")
        cluster.run(until=cluster.env.now + 60)
        assert 0 < done[0] < 90
        cluster.member("or1").crash()
        replacement = cluster.recover_server("or1")
        assert replacement in cluster.oracles
        cluster.run(until=cluster.env.now + 5_000)
        assert done == [90]
        assert cluster.disks.stats.peer_fallbacks == 0
        assert oracle_image(cluster.member("or1")) == \
            oracle_image(cluster.member("or0"))
        assert cluster_invariants(cluster) == []

    def test_oracle_without_a_disk_recovers_from_its_peer(self, scheme):
        """The same entry point brings back an oracle replica of a
        deployment without durability: rung 2, from the other oracle."""
        cluster = build_cluster(
            scheme=scheme, num_partitions=2, replicas_per_partition=2,
            seed=5, initial_assignment={f"k{i}": i % 2 for i in range(4)})
        cluster.preload({f"k{i}": 0 for i in range(4)})
        done = oracle_workload(cluster, 30, "c0")
        cluster.run(until=cluster.env.now + 60)
        cluster.member("or1").crash()
        replacement = cluster.recover_server("or1")
        cluster.run(until=cluster.env.now + 5_000)
        assert done == [90]
        assert replacement.recovery.installed
        assert oracle_image(cluster.member("or1")) == \
            oracle_image(cluster.member("or0"))
        assert cluster_invariants(cluster) == []
