"""Cluster-level tests for the recovery ladder
(repro.store.coldstart via Cluster.recover_server / power cycle)."""

import pytest

from repro.harness import build_cluster, cluster_invariants
from repro.net import FailureInjector
from repro.reconfig.checkpoint import state_checksum
from repro.smr import Command, CommandType
from repro.store import DurabilityConfig
from repro.store.checkpoints import load_latest_checkpoint
from repro.store.wal import RECORD_HEADER, WAL_PREFIX, replay_wal


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

    def test_corrupt_member_with_no_live_peer_waits_for_its_group(self):
        """No live peer: the damaged member stays down instead of
        installing its readable prefix alone (a prefix no live member
        vouches for), and the group restarts together from the union of
        its members' images when its last member returns."""
        cluster = build_durable_cluster(seed=13)
        run_workload(cluster)
        live = state_checksum(images(cluster))
        cluster.power_fail()
        disk = cluster.disks.disk("p0s1")
        segment = disk.files("wal.")[0]
        disk._durable[segment][8] ^= 0x40
        assert cluster.recover_server("p0s1") is None
        cluster.run(until=cluster.env.now + 500)
        assert cluster.waiting == {"p0s1"}
        assert cluster.member("p0s1").node.crashed
        for name in ("p1s0", "p1s1", "or0", "or1", "p0s0"):
            cluster.recover_server(name)
        assert cluster.waiting == set()
        cluster.run(until=cluster.env.now + 2_000)
        assert state_checksum(images(cluster)) == live
        assert run_workload(cluster, count=4, name="c1") == 4
        assert cluster_invariants(cluster) == []


def blackout(cluster, name):
    cluster.network.crash(name)


def reconnect(cluster, name):
    cluster.member(name).node.reconnect()


def rot_record(disk, seq):
    """Flip a payload byte of the WAL record at position ``seq``."""
    for path in disk.files(WAL_PREFIX + "."):
        data, offset = disk._durable[path], 0
        while offset < len(data):
            length, _, at = RECORD_HEADER.unpack_from(data, offset)
            if at == seq:
                data[offset + RECORD_HEADER.size + length // 2] ^= 0x40
                return
            offset += RECORD_HEADER.size + length
    raise AssertionError(f"no durable record at {seq}")


def p0_values(cluster):
    return {name: cluster.servers[name].store.snapshot()
            for name in ("p0s0", "p0s1")}


class TestGroupRecovery:
    """Regression shapes of a speaker restarting with amnesia (the crash
    ``fuzz --disk`` draws for every role): each failed before every
    rung fed every readable record, a member without a live peer waited
    for its group, and a speaker behind its own log asked its peers."""

    def test_damaged_member_returning_first_restarts_with_its_group(self):
        """Both members down, the damaged one back first: it waits, and
        the group restarts from the union when the other returns —
        instead of installing its prefix and serving it to the intact
        member as the group's history."""
        cluster = build_durable_cluster(seed=13)
        run_workload(cluster)
        cluster.member("p0s0").crash()
        cluster.member("p0s1").crash()
        disk = cluster.disks.disk("p0s0")
        disk._durable[disk.files("wal.")[0]][8] ^= 0x40
        cluster.recover_server("p0s0")
        cluster.run(until=cluster.env.now + 200)
        cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 1_000)
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert stores["p0s0"]["k0"] == 2 and stores["p0s0"]["k2"] == 2
        assert run_workload(cluster, count=8, name="c1") == 8
        assert cluster_invariants(cluster) == []

    def test_an_answered_record_past_a_bad_one_survives_a_transfer(self):
        """The speaker answered an entry its follower never received,
        then crashed with a bad record below it. The transfer installs
        the follower's checkpoint, then the speaker's own readable
        records past it: the entry is applied, and the reconciled
        sequencer numbers new entries past it instead of over it."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        blackout(cluster, "p0s1")
        assert run_workload(cluster, count=1, name="c1") == 1   # k0 + 1
        speaker = cluster.member("p0s0")
        answered = speaker.log.applied_count
        assert cluster.member("p0s1").log.applied_count < answered
        speaker.crash()
        disk = cluster.disks.disk("p0s0")
        disk._durable[disk.files("wal.")[0]][8] ^= 0x40
        reconnect(cluster, "p0s1")
        replacement = cluster.recover_server("p0s0")
        assert replacement.log._next_seq >= answered
        cluster.run(until=cluster.env.now + 1_000)
        assert cluster.disks.stats.peer_fallbacks == 1
        assert replacement.store.read("k0") == 3
        assert run_workload(cluster, count=8, name="c2") == 8
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert stores["p0s0"]["k0"] == 5
        assert cluster_invariants(cluster) == []

    def test_an_answered_record_past_a_bad_one_outlives_a_failed_transfer(
            self):
        """As above, but the only source dies mid-transfer. The speaker's
        disk still holds its readable records (the WAL is wiped only at
        an install), so the group restart's union carries the answered
        entry and the sequencer numbers past it."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        blackout(cluster, "p0s1")
        assert run_workload(cluster, count=1, name="c1") == 1   # k0 + 1
        speaker = cluster.member("p0s0")
        answered = speaker.log.applied_count
        speaker.crash()
        disk = cluster.disks.disk("p0s0")
        disk._durable[disk.files("wal.")[0]][8] ^= 0x40
        reconnect(cluster, "p0s1")
        replacement = cluster.recover_server("p0s0")
        cluster.member("p0s1").crash()
        cluster.run(until=cluster.env.now + 1_500)
        assert replacement.recovery.failed and not replacement.started
        assert "p0s0" in cluster.waiting
        assert max(seq for seq, _ in replay_wal(disk).entries) \
            == answered - 1
        cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 1_000)
        assert cluster.member("p0s0").log._next_seq >= answered
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert stores["p0s0"]["k0"] == 3
        assert run_workload(cluster, count=8, name="c2") == 8
        assert p0_values(cluster)["p0s0"]["k0"] == 5
        assert cluster_invariants(cluster) == []

    def test_a_member_whose_only_peer_is_cut_off_waits_for_it(self):
        """A peer cut off the network is not live: a durable member
        waits for it to reconnect instead of running one stalled
        transfer (and one reported failure) after another."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        cluster.member("p0s1").crash()
        cluster.disks.disk("p0s1").erase()
        blackout(cluster, "p0s0")
        assert cluster.recover_server("p0s1") is None
        cluster.run(until=cluster.env.now + 2_000)
        assert cluster.recovery_failures == []
        assert cluster.member("p0s1").node.crashed
        reconnect(cluster, "p0s0")
        cluster.run(until=cluster.env.now + 1_000)
        assert cluster.member("p0s1").started
        assert cluster.disks.stats.peer_fallbacks == 1
        assert run_workload(cluster, count=8, name="c1") == 8
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert cluster_invariants(cluster) == []

    def test_own_checkpoint_keeps_the_records_below_it_for_peers(self):
        """A speaker restarting from its own checkpoint keeps its WAL
        records below the checkpoint, so a follower that fell behind
        that position can still backfill from it."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        blackout(cluster, "p0s1")
        assert run_workload(cluster, count=8, name="c1") == 8
        speaker = cluster.member("p0s0")
        speaker.checkpointer.capture(reason="test")
        cluster.run(until=cluster.env.now + 100)
        follower = cluster.member("p0s1")
        checkpoint, _ = load_latest_checkpoint(cluster.disks.disk("p0s0"))
        assert follower.log.applied_count < checkpoint.applied_count
        speaker.crash()
        reconnect(cluster, "p0s1")
        replacement = cluster.recover_server("p0s0")
        assert cluster.disks.stats.peer_fallbacks == 0
        assert run_workload(cluster, count=4, name="c2") == 4
        assert follower.log.applied_count == replacement.log.applied_count
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert cluster_invariants(cluster) == []

    def test_a_speaker_behind_its_log_keeps_asking_its_peers(self):
        """A speaker that restarts behind its follower asks it for the
        rest once; when that request is lost, its backfill retries must
        ask the follower again (a speaker's default target was itself,
        so no retry ever left)."""
        cluster = build_durable_cluster(scheme="ssmr", seed=5,
                                        segment_records=1_024)
        run_workload(cluster, count=40)
        disk = cluster.disks.disk("p0s0")
        disk.slow_factor = 100_000.0   # the speaker's fsyncs lag
        run_workload(cluster, count=40, name="c1")
        speaker, follower = cluster.member("p0s0"), cluster.member("p0s1")
        assert speaker.wal.durable_seq + 1 < follower.log.applied_count
        speaker.crash()
        disk.slow_factor = 1.0
        injector = FailureInjector(cluster.env, cluster.network,
                                   cluster.seeds.child("test"))
        lost = injector.drop_fraction(1.0, kinds=["log/p0/backfill-req"])
        cluster.env.schedule_callback(200, lost)
        replacement = cluster.recover_server("p0s0")
        assert cluster.disks.stats.peer_fallbacks == 0
        assert replacement.log.applied_count < follower.log.applied_count
        assert run_workload(cluster, count=8, name="c2") == 8
        assert replacement.log.applied_count == follower.log.applied_count
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert cluster_invariants(cluster) == []

    def test_a_stale_member_returning_first_waits_for_the_newer_one(self):
        """The follower goes down, the speaker orders on alone and goes
        down too. The follower returns first, its disk clean but stale:
        it waits instead of serving its own history, and the group
        restarts from the union when the speaker returns. (Serving it
        alone made the speaker, whose WAL holds a torn record, take the
        stale state as the group's.)"""
        cluster = build_durable_cluster(seed=9, checkpoint_every=16)
        run_workload(cluster, count=4)
        cluster.disks.disk("p0s0").tear_tail()
        run_workload(cluster, count=36, name="c1")
        cluster.member("p0s1").crash()
        run_workload(cluster, count=40, name="c2")
        cluster.member("p0s0").crash()
        cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 200)
        assert cluster.member("p0s1").node.crashed
        cluster.recover_server("p0s0")
        cluster.run(until=cluster.env.now + 1_000)
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert stores["p0s0"]["k0"] == 20 and stores["p0s0"]["k2"] == 20
        assert run_workload(cluster, count=8, name="c3") == 8
        assert cluster_invariants(cluster) == []

    def test_a_torn_record_inside_the_log_is_a_hole_not_its_end(self):
        """A speaker's write tore and its WAL went on appending after
        the torn record. The scan skips it and reads on, so the speaker
        restarts from its own checkpoint past the hole with the records
        after it, instead of taking a peer transfer."""
        cluster = build_durable_cluster(seed=9, checkpoint_every=16)
        run_workload(cluster, count=4)
        disk = cluster.disks.disk("p0s0")
        disk.tear_tail()
        run_workload(cluster, count=36, name="c1")
        replay = replay_wal(disk)
        assert replay.status == "corrupt"
        assert max(seq for seq, _ in replay.entries) >= 16
        cluster.member("p0s0").crash()
        replacement = cluster.recover_server("p0s0")
        assert cluster.disks.stats.peer_fallbacks == 0
        assert run_workload(cluster, count=8, name="c2") == 8
        assert replacement.log.applied_count == \
            cluster.member("p0s1").log.applied_count
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert cluster_invariants(cluster) == []

    def test_a_position_no_disk_holds_is_never_numbered_again(self):
        """The follower is down while the speaker answers alone; the
        speaker goes down too, and a bit flips in the only copy of an
        answered record. The group restarts together, but no member
        holds that position: both stop at it, the readable records past
        it wait, and the sequencer numbers past all of them instead of
        re-using their positions for new commands. (A two-member
        sequencer group answers from one durable copy; with that copy
        gone the group cannot order past the hole.)"""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        cluster.member("p0s1").crash()
        assert run_workload(cluster, count=8, name="c1") == 8
        speaker = cluster.member("p0s0")
        answered = speaker.log.applied_count
        hole = cluster.member("p0s1").log.applied_count + 1
        speaker.crash()
        rot_record(cluster.disks.disk("p0s0"), hole)
        cluster.recover_server("p0s1")
        cluster.recover_server("p0s0")
        cluster.run(until=cluster.env.now + 500)
        for name in ("p0s0", "p0s1"):
            log = cluster.member(name).log
            assert log.applied_count == hole
            assert hole + 1 in log._pending_apply
        assert cluster.member("p0s0").log._next_seq >= answered

    def test_a_transfer_that_runs_out_of_sources_waits_for_the_group(
            self):
        """The only source dies mid-transfer: the replacement is not a
        live peer (it never started), goes back to the ladder, and the
        group restarts together when the source returns — instead of
        the source taking its own checkpoint beside an empty zombie."""
        cluster = build_durable_cluster(seed=9)
        run_workload(cluster)
        cluster.member("p0s1").crash()
        cluster.disks.disk("p0s1").erase()
        zombie = cluster.recover_server("p0s1")
        cluster.member("p0s0").crash()
        cluster.run(until=cluster.env.now + 1_500)
        assert zombie.recovery.failed and not zombie.started
        cluster.recover_server("p0s0")
        cluster.run(until=cluster.env.now + 1_000)
        assert cluster.member("p0s1").started
        stores = p0_values(cluster)
        assert stores["p0s0"] == stores["p0s1"]
        assert stores["p0s0"]["k0"] == 2
        assert run_workload(cluster, count=8, name="c1") == 8
        assert cluster_invariants(cluster) == []


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
