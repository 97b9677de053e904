"""Tests for partitioned-replica crash recovery (checkpoint install +
ordered-log suffix replay)."""

import pytest

from repro.harness import build_cluster, cluster_invariants
from repro.reconfig import canonical_bytes, recover_partition_server
from repro.smr import Command

from tests.reconfig.test_checkpoint import build_loaded_cluster


def incr(key):
    return Command(op="incr", args={"key": key}, variables=(key,),
                   writes=(key,))


def continuous_load(cluster, name, count=15, pause=4.0):
    client = cluster.new_client(name)
    replies = []

    def proc(env):
        for index in range(count):
            reply = yield from client.run_command(incr(f"k{index % 4}"))
            replies.append(reply.value)
            yield env.timeout(pause)

    cluster.env.process(proc(cluster.env))
    return replies


class TestPartitionRecovery:
    def test_recovery_catches_up_under_load(self):
        cluster = build_loaded_cluster()
        replies = continuous_load(cluster, "load")
        env = cluster.env

        def chaos(env):
            yield env.timeout(10)
            cluster.servers["p0s1"].crash()
            yield env.timeout(25)        # misses part of the workload
            cluster.recover_server("p0s1")

        env.process(chaos(env))
        cluster.run(until=env.now + 20_000)
        assert len(replies) == 15
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert recovered.executed == cluster.servers["p0s0"].executed
        assert len(recovered.executed) == len(set(recovered.executed))
        assert cluster_invariants(cluster) == []

    def test_recovered_replica_serves_multi_partition_commands(self):
        """After recovery the replica participates in cross-partition
        exchanges again (its exchange state was part of the checkpoint)."""
        cluster = build_loaded_cluster()
        env = cluster.env

        def chaos(env):
            yield env.timeout(5)
            cluster.servers["p0s1"].crash()
            yield env.timeout(20)
            cluster.recover_server("p0s1")

        env.process(chaos(env))
        cluster.run(until=env.now + 5_000)
        client = cluster.new_client("multi")
        replies = []

        def proc(env):
            reply = yield from client.run_command(
                Command(op="sum", args={"keys": ["k0", "k1"]},
                        variables=("k0", "k1")))
            replies.append(reply.value)

        env.process(proc(env))
        cluster.run(until=env.now + 5_000)
        assert replies
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.executed == cluster.servers["p0s0"].executed
        assert cluster_invariants(cluster) == []

    def test_repeated_crash_recover_cycles(self):
        cluster = build_loaded_cluster()
        replies = continuous_load(cluster, "load", count=20)
        env = cluster.env

        def chaos(env):
            for cycle in range(3):
                yield env.timeout(8)
                cluster.servers["p0s1"].crash()
                yield env.timeout(12)
                cluster.recover_server("p0s1")

        env.process(chaos(env))
        cluster.run(until=env.now + 30_000)
        assert len(replies) == 20
        recovered = cluster.servers["p0s1"]
        assert recovered.recovery.installed
        assert recovered.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert recovered.executed == cluster.servers["p0s0"].executed
        assert cluster_invariants(cluster) == []

    def test_recovery_then_join(self):
        """A freshly recovered replica still delivers the next epoch
        fence — recovery restores multicast participation, not just
        state."""
        cluster = build_loaded_cluster()
        env = cluster.env

        def chaos(env):
            yield env.timeout(5)
            cluster.servers["p1s1"].crash()
            yield env.timeout(20)
            cluster.recover_server("p1s1")
            yield env.timeout(50)
            yield from cluster.grow("p2")

        env.process(chaos(env))
        cluster.run(until=env.now + 20_000)
        recovered = cluster.servers["p1s1"]
        assert recovered.recovery.installed
        assert recovered.epoch == 1
        assert cluster.servers["p2s0"].store.snapshot()
        assert cluster_invariants(cluster) == []

    def test_speaker_recovery_rejected(self):
        """The group speaker doubles as the sequencer: its loss is not
        recoverable under a sequencer log (Paxos is the FT story)."""
        cluster = build_loaded_cluster()
        cluster.servers["p0s0"].crash()
        with pytest.raises(ValueError):
            recover_partition_server(cluster.servers["p0s0"],
                                     cluster.servers["p0s1"])

    def test_cross_partition_peer_rejected(self):
        cluster = build_loaded_cluster()
        cluster.servers["p0s1"].crash()
        with pytest.raises(ValueError):
            recover_partition_server(cluster.servers["p0s1"],
                                     cluster.servers["p1s0"])


class TestTerminalRecovery:
    """Satellite of the durability PR: a transfer with every source
    peer gone turns *terminal* — failed flag, flight record, failure
    hook — instead of hanging forever."""

    def test_all_sources_gone_marks_failed_and_fires_hook(self):
        cluster = build_loaded_cluster()
        cluster.servers["p0s1"].crash()
        replacement = cluster.recover_server("p0s1")
        # The only source (p0s0, the speaker) dies before answering.
        cluster.servers["p0s0"].crash()
        cluster.run(until=cluster.env.now + 3_000)
        recovery = replacement.recovery
        assert recovery.failed and not recovery.installed
        assert recovery.peers_tried == ["p0s0"]
        assert cluster.recovery_failures == [recovery]

    def test_hooks_receive_the_terminal_recovery(self):
        cluster = build_loaded_cluster()
        seen = []
        cluster.recovery_failure_hooks.append(seen.append)
        cluster.servers["p0s1"].crash()
        replacement = cluster.recover_server("p0s1")
        cluster.servers["p0s0"].crash()
        cluster.run(until=cluster.env.now + 3_000)
        assert seen == [replacement.recovery]

    def test_live_fallback_peer_prevents_terminal(self):
        """Three replicas: the primary source dies mid-transfer, but a
        fallback peer completes it — no terminal failure."""
        from repro.harness import build_cluster

        cluster = build_cluster(scheme="dssmr", num_partitions=2,
                                replicas_per_partition=3, seed=3,
                                initial_assignment={f"k{i}": i % 2
                                                    for i in range(4)})
        cluster.preload({f"k{i}": 0 for i in range(4)})
        run_workload_terminal(cluster)
        cluster.servers["p0s1"].crash()
        replacement = cluster.recover_server("p0s1")
        # recover_server picks the first live member as primary source;
        # kill exactly that one.
        primary = replacement.recovery.peer_name
        cluster.servers[primary].crash()
        cluster.run(until=cluster.env.now + 5_000)
        recovery = replacement.recovery
        assert recovery.installed and not recovery.failed
        assert len(recovery.peers_tried) == 2
        assert cluster.recovery_failures == []


def run_workload_terminal(cluster, count=8, name="c0"):
    client = cluster.new_client(name)

    def proc(env):
        for index in range(count):
            key = f"k{index % 4}"
            yield from client.run_command(incr(key))

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)


class TestTransferredCheckpointIsPrivate:
    """The checkpoint a replacement installs becomes its live state (its
    ``_Pending`` records and ``_vars[cid]`` dicts keep changing), so it
    must share nothing with the record the donor captured."""

    @staticmethod
    def image(checkpoint):
        return canonical_bytes(checkpoint.components)

    def recover_under_three_partition_load(self, recover_after):
        cluster = build_cluster(
            scheme="ssmr", num_partitions=3, replicas_per_partition=2,
            seed=3, initial_assignment={f"k{i}": i % 3 for i in range(6)})
        cluster.preload({f"k{i}": i for i in range(6)})
        env = cluster.env

        def load(client, offset):
            for index in range(300):
                keys = tuple(f"k{(index + offset + d) % 6}"
                             for d in range(3))
                yield from client.run_command(Command(
                    op="sum", args={"keys": list(keys)}, variables=keys))

        for offset in range(4):
            env.process(load(cluster.new_client(f"m{offset}"), offset))

        donor = cluster.servers["p0s0"]
        captured = []
        capture = donor.checkpointer.capture

        def recording_capture(reason="manual"):
            record = capture(reason)
            captured.append((record, self.image(record.thaw())))
            return record

        donor.checkpointer.capture = recording_capture

        def chaos(env):
            yield env.timeout(5)
            cluster.servers["p0s1"].crash()
            yield env.timeout(recover_after)
            cluster.recover_server("p0s1")

        env.process(chaos(env))
        cluster.run(until=5_000)
        recovery = cluster.servers["p0s1"].recovery
        assert recovery.installed
        assert cluster_invariants(cluster) == []
        (record, at_capture), = captured
        assert record.replica == donor.node.name
        return record, at_capture, recovery.checkpoint

    def test_replacement_progress_leaves_the_donor_record_alone(self):
        installed_moved_on = 0
        for recover_after in (20.0, 20.7):
            record, at_capture, installed = \
                self.recover_under_three_partition_load(recover_after)
            assert self.image(record.thaw()) == at_capture, recover_after
            installed_moved_on += self.image(installed) != at_capture
        # The check above means something only if some transfer caught a
        # multi-partition command mid-flight, so that the replacement
        # kept writing into the objects it installed.
        assert installed_moved_on


class TestCompactedLogRecovery:
    """A crashed follower pins its group's log floor at its last report,
    so the entries its replacement will backfill stay retained."""

    def test_replacement_backfills_above_the_pinned_floor(self):
        cluster = build_cluster(scheme="smr", replicas_per_partition=3,
                                seed=3, initial_assignment={
                                    f"k{i}": 0 for i in range(4)})
        cluster.preload({f"k{i}": 0 for i in range(4)})
        every = cluster.servers["p0s0"].log.STABLE_EVERY
        speaker = cluster.servers["p0s0"].log

        def run_commands(count, name):
            replies = continuous_load(cluster, name, count=count, pause=0.0)
            cluster.run(until=cluster.env.now + 5_000)
            assert len(replies) == count

        run_commands(100, "before")
        crashed = cluster.servers["p0s2"]
        crashed.crash()
        pinned = crashed.log.stable_position   # >= its last report
        assert speaker.floor > 0
        run_commands(3 * every + 10, "during")
        assert speaker.applied_count - pinned >= 3 * every
        assert cluster.servers["p0s1"].log.applied_count == \
            speaker.applied_count
        assert speaker.floor <= pinned       # the dead member holds it
        assert len(speaker.decided_entries) >= 3 * every

        replacement = cluster.recover_server("p0s2")
        run_commands(20, "after")
        assert replacement.recovery.installed
        assert replacement.log.applied_count == speaker.applied_count
        assert replacement.store.snapshot() == \
            cluster.servers["p0s0"].store.snapshot()
        assert speaker.floor > pinned        # its replacement reported
        for name in ("p0s0", "p0s1", "p0s2"):
            assert cluster.servers[name].log.below_floor_requests == 0
        assert cluster_invariants(cluster) == []

    def test_lost_install_window_report_is_resent(self):
        """The transfer peer lags the crashed incarnation's last report.
        The replacement's install-window report is lost, and the peer
        crosses that report while the transfer is in flight: only the
        resent report keeps the floor at or below the checkpoint."""
        cluster = build_cluster(scheme="smr", replicas_per_partition=3,
                                seed=3, initial_assignment={
                                    f"k{i}": 0 for i in range(4)})
        cluster.preload({f"k{i}": 0 for i in range(4)})
        net, env = cluster.network, cluster.env
        speaker = cluster.servers["p0s0"].log
        peer = cluster.servers["p0s1"]
        replies = continuous_load(cluster, "warm", count=100, pause=0.0)
        cluster.run(until=env.now + 5_000)
        assert len(replies) == 100

        # The peer's decides lag by 200 ms while the crash victim runs on.
        lag = net.add_delay_rule(
            lambda m: 200.0 if (m.dst == "p0s1"
                                and m.kind.endswith("/decide")) else 0.0)
        replies = continuous_load(cluster, "lagging", count=100, pause=0.0)
        while len(replies) < 100:
            cluster.run(until=env.now + 1)
        lag()
        crashed = cluster.servers["p0s2"]
        assert crashed.log.applied_count == 200
        assert peer.log.applied_count == 100
        crashed.crash()

        lost = []

        def lose_first_report(message):
            if lost or message.src != "p0s2" \
                    or not message.kind.endswith("/stable"):
                return False
            lost.append(message.payload["position"])
            return True

        net.add_drop_rule(lose_first_report)
        # A slow transfer: the peer catches up and reports past the
        # checkpoint it froze before the install.
        net.add_delay_rule(
            lambda m: 150.0 if (m.src == "p0s1" and m.dst == "p0s2"
                                and "xfer" in m.kind) else 0.0)
        replacement = recover_partition_server(crashed, peer)
        cluster.servers["p0s2"] = replacement
        cluster.run(until=env.now + 100)
        assert lost == [0] and not replacement.recovery.installed
        replies = continuous_load(cluster, "after", count=100, pause=2.0)
        cluster.run(until=env.now + 5_000)
        assert len(replies) == 100
        assert replacement.recovery.checkpoint.applied_count == 100
        assert replacement.log.applied_count == speaker.applied_count == 300
        for name in ("p0s0", "p0s1", "p0s2"):
            assert cluster.servers[name].log.below_floor_requests == 0
        assert cluster_invariants(cluster) == []
