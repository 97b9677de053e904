"""Tests for the ordered logs (sequencer and Multi-Paxos)."""

import pytest

from repro.net import FailureInjector
from repro.ordering import (GroupDirectory, LogClient, PaxosLog,
                            ProtocolNode, SequencerLog)
from repro.sim import SeedStream

from tests.conftest import make_network


def build_logs(env, log_cls, members=("m0", "m1", "m2"), seed=1,
               latency=(0.05, 1.0)):
    network = make_network(env, seed=seed, low_ms=latency[0],
                           high_ms=latency[1])
    directory = GroupDirectory({"g": list(members)})
    logs = {}
    for member in members:
        node = ProtocolNode(env, network, member)
        log = log_cls(node, directory, "g")
        log.applied = []
        log.on_decide(lambda seq, entry, l=log: l.applied.append(
            (seq, entry["uid"])))
        logs[member] = log
    return network, directory, logs


@pytest.mark.parametrize("log_cls", [SequencerLog, PaxosLog])
class TestOrderedLogContract:
    def test_all_members_apply_same_sequence(self, env, log_cls):
        _net, _dir, logs = build_logs(env, log_cls)
        for i in range(10):
            logs["m1"].submit({"uid": f"e{i}"})
        env.run(until=30_000)
        reference = logs["m0"].applied
        assert len(reference) == 10
        for log in logs.values():
            assert log.applied == reference

    def test_duplicate_uid_applied_once(self, env, log_cls):
        _net, _dir, logs = build_logs(env, log_cls)
        entry = {"uid": "dup"}
        logs["m0"].submit(dict(entry))
        logs["m1"].submit(dict(entry))
        logs["m2"].submit(dict(entry))
        env.run(until=30_000)
        assert [uid for _seq, uid in logs["m0"].applied] == ["dup"]

    def test_missing_uid_rejected(self, env, log_cls):
        _net, _dir, logs = build_logs(env, log_cls)
        with pytest.raises(ValueError):
            logs["m0"].submit({"payload": 1})

    def test_client_submission(self, env, log_cls):
        net, directory, logs = build_logs(env, log_cls)
        client_node = ProtocolNode(env, net, "client")
        client = LogClient(client_node, directory,
                           broadcast=log_cls is PaxosLog)
        client.submit("g", {"uid": "from-client"})
        env.run(until=30_000)
        assert [uid for _seq, uid in logs["m0"].applied] == ["from-client"]

    def test_interleaved_submitters_agree(self, env, log_cls):
        _net, _dir, logs = build_logs(env, log_cls, seed=7)

        def submitter(env, log, prefix):
            for i in range(5):
                yield env.timeout(0.7)
                log.submit({"uid": f"{prefix}{i}"})

        env.process(submitter(env, logs["m0"], "a"))
        env.process(submitter(env, logs["m2"], "b"))
        env.run(until=30_000)
        assert len(logs["m0"].applied) == 10
        assert logs["m0"].applied == logs["m1"].applied == logs["m2"].applied


class TestPaxosFaultTolerance:
    def test_leader_crash_mid_stream(self, env):
        net, _dir, logs = build_logs(env, PaxosLog, seed=11)
        nodes = {m: log.node for m, log in logs.items()}

        def submitter(env):
            for i in range(12):
                yield env.timeout(30)
                logs["m1"].submit({"uid": f"x{i}"})

        def crasher(env):
            yield env.timeout(100)
            nodes["m0"].crash()   # m0 is rank 0, the initial leader

        env.process(submitter(env))
        env.process(crasher(env))
        env.run(until=120_000)
        survivors = [logs["m1"], logs["m2"]]
        assert survivors[0].applied == survivors[1].applied
        applied_uids = {uid for _seq, uid in survivors[0].applied}
        assert applied_uids == {f"x{i}" for i in range(12)}

    def test_message_loss_recovered(self, env):
        net, _dir, logs = build_logs(env, PaxosLog, seed=13)
        injector = FailureInjector(env, net, SeedStream(5))
        injector.drop_fraction(0.10)
        for i in range(8):
            logs["m2"].submit({"uid": f"y{i}"})
        env.run(until=120_000)
        assert logs["m0"].applied == logs["m1"].applied == logs["m2"].applied
        assert len(logs["m0"].applied) == 8

    def test_no_progress_without_majority(self, env):
        _net, _dir, logs = build_logs(env, PaxosLog, seed=17)
        logs["m1"].node.crash()
        logs["m2"].node.crash()
        logs["m0"].submit({"uid": "stuck"})
        env.run(until=5_000)
        assert logs["m0"].applied == []

    def test_follower_crash_harmless(self, env):
        _net, _dir, logs = build_logs(env, PaxosLog, seed=19)
        logs["m2"].node.crash()
        for i in range(5):
            logs["m0"].submit({"uid": f"z{i}"})
        env.run(until=60_000)
        assert len(logs["m0"].applied) == 5
        assert logs["m0"].applied == logs["m1"].applied


class TestSequencerSpecifics:
    def test_sequencer_is_group_speaker(self, env):
        _net, directory, logs = build_logs(env, SequencerLog)
        assert logs["m0"].sequencer == directory.speaker("g") == "m0"

    def test_applied_count_property(self, env):
        _net, _dir, logs = build_logs(env, SequencerLog)
        logs["m0"].submit({"uid": "a"})
        env.run()
        assert logs["m1"].applied_count == 1


class TestLogBackfill:
    def test_gap_triggers_backfill(self, env):
        """A member that misses a decision fills the hole via backfill."""
        net, _directory, logs = build_logs(env, SequencerLog, seed=9)
        # Drop exactly the decide messages to m2 for a window, creating a
        # hole that only backfill can repair.
        remove = net.add_drop_rule(
            lambda m: m.dst == "m2" and m.kind == "log/g/decide")
        logs["m0"].submit({"uid": "lost"})
        env.run(until=10)
        remove()
        logs["m0"].submit({"uid": "after"})
        env.run(until=10_000)
        assert [uid for _seq, uid in logs["m2"].applied] == \
            ["lost", "after"]

    def test_lost_backfill_reply_is_retried(self, env):
        """The log goes quiet after the hole opens, so only a retry of
        the backfill request can close it."""
        net, _directory, logs = build_logs(env, SequencerLog, seed=9)
        lost = []

        def lose_once(message):
            if message.dst != "m2" or lost.count(message.kind) >= 1:
                return False
            if message.kind in ("log/g/decide", "log/g/backfill"):
                lost.append(message.kind)
                return True
            return False

        net.add_drop_rule(lose_once)
        logs["m0"].submit({"uid": "lost"})
        env.run(until=10)
        logs["m0"].submit({"uid": "after"})
        env.run(until=10_000)
        assert lost == ["log/g/decide", "log/g/backfill"]
        assert [uid for _seq, uid in logs["m2"].applied] == \
            ["lost", "after"]

    def test_trailing_hole_on_a_quiet_log_is_backfilled(self, env):
        """m2 misses the last decide and nothing follows it: only the
        speaker's tail announcement reveals the hole."""
        net, _directory, logs = build_logs(env, SequencerLog, seed=9)
        net.add_drop_rule(lambda m: m.dst == "m2" and m.kind == "log/g/decide"
                          and m.payload["entries"][0]["uid"] == "last")
        logs["m0"].submit({"uid": "first"})
        env.run(until=10)
        logs["m0"].submit({"uid": "last"})
        env.run(until=10_000)
        assert [uid for _seq, uid in logs["m2"].applied] == ["first", "last"]
        assert net.sent_by_kind["log/g/backfill"] == 1

    def test_an_answer_carries_only_what_the_asker_lacks(self, env):
        """Both followers miss the decide of position 1 and hold 2..4
        pending. m2 has nothing m1 lacks, so it sends m1 no answer; the
        speaker's answers carry position 1 alone."""
        net, _directory, logs = build_logs(env, SequencerLog,
                                           latency=(0.1, 0.1))
        net.add_drop_rule(lambda m: m.kind == "log/g/decide"
                          and m.payload["seq"] == 1)
        answers = []
        net.add_drop_rule(
            lambda m: answers.append((m.src, m.dst, sorted(
                m.payload["entries"]))) if m.kind == "log/g/backfill"
            else None)
        for index in range(5):
            logs["m0"].submit({"uid": f"e{index}"})
        env.run(until=1.0)
        logs["m1"].request_backfill(provider="m2")
        env.run(until=1_000)
        assert sorted(answers) == [("m0", "m1", [1]), ("m0", "m2", [1])]
        for log in logs.values():
            assert [uid for _seq, uid in log.applied] == \
                [f"e{index}" for index in range(5)]

    def test_tail_is_announced_only_on_a_quiet_log(self, env):
        """No tail while decides flow; once quiet, one announcement and
        one acknowledgement per follower, and then silence."""
        net, _directory, logs = build_logs(env, SequencerLog)
        quiet = SequencerLog.TAIL_QUIET_MS
        submit_stream(env, logs, 100, gap_ms=quiet / 4)   # 25 periods
        env.run(until=25 * quiet)
        assert "log/g/tail" not in net.sent_by_kind
        env.run(until=100 * quiet)
        assert net.sent_by_kind["log/g/tail"] == 2
        assert net.sent_by_kind["log/g/tail-ack"] == 2

    def test_fast_forward_validation(self, env):
        _net, _directory, logs = build_logs(env, SequencerLog)
        logs["m0"].submit({"uid": "a"})
        env.run(until=100)
        with pytest.raises(ValueError):
            logs["m1"].fast_forward(0)

    def test_fast_forward_applies_the_run_that_was_waiting(self, env):
        """Entries past the snapshot learned while it was in flight are
        applied by the fast-forward itself; left pending, every later
        copy of them is dropped as a duplicate and the log stalls until
        newer traffic arrives (fuzz: a recovered replica ends a prefix
        behind its peer, "replicas diverge on execution order")."""
        _net, _directory, logs = build_logs(env, SequencerLog)
        log = logs["m1"]
        for seq in (2, 3):              # 0 and 1 are in the snapshot
            log._learn(seq, {"uid": f"e{seq}"})
        assert log.applied == []
        log.fast_forward(2)
        assert log.applied == [(2, "e2"), (3, "e3")]
        assert log.applied_count == 4


def submit_stream(env, logs, count, gap_ms=0.2):
    """Submit ``count`` entries, one every ``gap_ms``, from each member in
    turn."""
    members = sorted(logs)

    def proc(env):
        for index in range(count):
            yield env.timeout(gap_ms)
            logs[members[index % len(members)]].submit({"uid": f"e{index}"})

    env.process(proc(env))


class TestCompaction:
    """A member keeps decided entries only at or above the group's floor:
    the lowest stable position any member has reported."""

    def test_retained_entries_stay_bounded(self, env):
        net, _dir, logs = build_logs(env, SequencerLog)
        every = SequencerLog.STABLE_EVERY
        peak = dict.fromkeys(logs, 0)

        def sample(env):
            while True:
                yield env.timeout(1.0)
                for member, log in logs.items():
                    peak[member] = max(peak[member], len(log.decided_entries))

        submit_stream(env, logs, 1000)
        env.process(sample(env))
        env.run(until=1_000)
        # One more entry: its decide carries the settled floor.
        logs["m0"].submit({"uid": "last"})
        env.run(until=2_000)
        for member, log in logs.items():
            assert log.applied_count == 1001
            assert log.floor == 960          # every member reported 960
            assert min(log.decided_entries) == log.floor
            # The report granularity plus the one entry in flight.
            assert len(log.decided_entries) <= every + 1
            # Throughout: one report interval behind, plus the interval
            # the floor needs to move.
            assert peak[member] <= 2 * every
            assert log.below_floor_requests == 0
        # Two followers, one report per STABLE_EVERY applied positions.
        assert net.sent_by_kind["log/g/stable"] == 2 * (1000 // every)

    def test_dropped_decide_after_compaction_is_backfilled(self, env):
        net, _dir, logs = build_logs(env, SequencerLog, seed=5)
        dropped = []

        def drop_one_decide(message):
            if (dropped or message.dst != "m2"
                    or message.kind != "log/g/decide"
                    or logs["m0"].floor == 0):
                return False
            dropped.append(message.payload["seq"])
            return True

        net.add_drop_rule(drop_one_decide)
        submit_stream(env, logs, 300)
        env.run(until=5_000)
        assert dropped and dropped[0] >= SequencerLog.STABLE_EVERY
        reference = logs["m0"].applied
        assert len(reference) == 300
        for log in logs.values():
            assert log.applied == reference
            assert log.below_floor_requests == 0
        assert net.sent_by_kind["log/g/backfill"] >= 1

    def test_request_overtaken_by_its_senders_report_is_dropped(self, env):
        """m2's decide for position 70 is late, so m2 asks for backfill
        from 70; the request is later still. The late decide closes the
        hole, m2 moves on and reports, and the floor passes 70 before the
        request lands. The request asks for entries m2 has applied: the
        speaker drops it instead of finding it below the floor."""
        net, _dir, logs = build_logs(env, SequencerLog, seed=5,
                                     latency=(0.1, 0.1))
        net.add_delay_rule(
            lambda m: 60.0 if m.dst == "m2" and m.kind == "log/g/decide"
            and m.payload["seq"] == 70 else 0.0)
        requests = []

        def hold_request(message):
            if message.kind != "log/g/backfill-req":
                return 0.0
            requests.append(message.payload["from_seq"])
            return 500.0

        net.add_delay_rule(hold_request)
        submit_stream(env, logs, 300)
        env.run(until=5_000)
        assert requests == [70]
        assert logs["m0"].floor > 70
        for log in logs.values():
            assert log.applied_count == 300
            assert log.below_floor_requests == 0
        assert "log/g/backfill" not in net.sent_by_kind

    def test_late_entries_below_the_floor_are_not_recorded(self, env):
        """Duplicate decides and backfill replies arrive through _learn:
        they must not rebuild the dropped prefix."""
        _net, _dir, logs = build_logs(env, SequencerLog)
        submit_stream(env, logs, 200)
        env.run(until=1_000)
        log = logs["m1"]
        assert log.floor > 0
        retained = dict(log.decided_entries)
        for seq in range(log.floor):
            log._learn(seq, {"uid": f"e{seq}"})
        assert log.decided_entries == retained
        assert log.applied_count == 200

    def test_paxos_log_keeps_floor_zero_and_sends_no_reports(self, env):
        net, _dir, logs = build_logs(env, PaxosLog)
        for index in range(2 * PaxosLog.STABLE_EVERY):
            logs["m1"].submit({"uid": f"p{index}"})
        env.run(until=30_000)
        for log in logs.values():
            assert log.applied_count == 2 * PaxosLog.STABLE_EVERY
            assert log.floor == 0
            assert len(log.decided_entries) == log.applied_count
        assert not [kind for kind in net.sent_by_kind
                    if kind.endswith("/stable")]
