"""Exactly-once sessions end to end: the server-side table stays bounded
by the issuers, survives recovery, and retires late copies of finished
commands (see :class:`repro.resilience.ReplyCache`)."""

from __future__ import annotations

import pytest

from repro.core import ORACLE_GROUP, DssmrClient
from repro.harness.kvbed import build_kv_cluster, spawn_wave
from repro.ordering import AmcastDelivery, MulticastClient, ProtocolNode
from repro.resilience import RetryPolicy
from repro.smr import Command, CommandType, ReplyStatus
from repro.store import DurabilityConfig

from tests.core.conftest import DssmrStack, get
from tests.reconfig.test_checkpoint import build_loaded_cluster


@pytest.mark.parametrize("scheme, clients, ops", [
    ("smr", 8, 640),
    ("dssmr", 4, 150),
])
def test_session_tables_stay_bounded_by_the_issuers(scheme, clients, ops):
    """A per-command cache keeps one reply per command executed; a
    session table keeps the unacknowledged ones: at most a root reply and
    a move per issuer."""
    cluster = build_kv_cluster(scheme, 1, ("sessions", scheme))
    wave = spawn_wave(cluster, clients, ops, f"sessions/{scheme}",
                      think=(0.0, 0.2))
    cluster.run(until=120_000)
    assert wave.completed == clients * ops
    for replica in [*cluster.servers.values(), *cluster.oracles]:
        assert len(replica.replies) <= 2 * clients, replica.node.name
    # Client side: nothing outlives its command (fresh-uid counters live
    # in the open session entry).
    assert [client.session.open for client in cluster.clients] == \
        [{}] * clients


def deliver_duplicate(server, command, partition):
    """Hand ``server`` one more ordered copy of ``command`` (attempt 2)."""
    server._enqueue(AmcastDelivery(
        uid=f"dup:{command.cid}",
        payload={"command": command, "dests": [partition], "attempt": 2},
        groups=(partition,), origin=command.client, timestamp=(10 ** 9, ""),
        local_seq=10 ** 9))


def run_incrs(cluster, name, count):
    """A closed-loop client incrementing k0 (on p0); returns its commands."""
    client = cluster.new_client(name)
    issued = []

    def proc(env):
        for _ in range(count):
            command = Command(op="incr", args={"key": "k0"},
                              variables=("k0",), writes=("k0",))
            issued.append(command)
            yield from client.run_command(command)

    cluster.env.process(proc(cluster.env))
    cluster.run(until=cluster.env.now + 5_000)
    return issued


def session_view(server) -> dict:
    """The session table without the replying replica's name."""
    return {client: (acked, {
        cid: (seq, reply.status, reply.value)
        for cid, (seq, reply) in replies.items()})
        for client, (acked, replies) in server.replies.sessions.items()}


class TestSessionsSurviveRecovery:
    def assert_replacement_answers_from_the_installed_session(
            self, cluster, last):
        replacement, peer = cluster.servers["p0s1"], cluster.servers["p0s0"]
        assert session_view(replacement) == session_view(peer)
        assert last in replacement.replies
        executed, value = list(replacement.executed), \
            replacement.store.read("k0")
        replies = cluster.network.sent_by_kind["reply"]
        deliver_duplicate(replacement, last, "p0")
        cluster.run(until=cluster.env.now + 100)
        assert replacement.replies.hits == 1
        assert cluster.network.sent_by_kind["reply"] == replies + 1
        assert (replacement.executed, replacement.store.read("k0")) == \
            (executed, value)

    def test_peer_transfer_installs_the_session_table(self):
        cluster = build_loaded_cluster()
        last = run_incrs(cluster, "c9", 6)[-1]
        cluster.servers["p0s1"].crash()
        cluster.recover_server("p0s1")
        cluster.run(until=cluster.env.now + 2_000)
        assert cluster.servers["p0s1"].recovery.installed
        self.assert_replacement_answers_from_the_installed_session(
            cluster, last)

    def test_cold_start_rebuilds_the_session_table(self):
        cluster = build_kv_cluster(
            "dssmr", 3, ("sessions", "cold"), durability=DurabilityConfig())
        last = run_incrs(cluster, "c9", 6)[-1]
        cluster.servers["p0s1"].crash()
        cluster.cold_restart_server("p0s1")
        cluster.run(until=cluster.env.now + 1_000)
        stats = cluster.disks.stats
        assert (stats.cold_starts, stats.peer_fallbacks) == (1, 0)
        self.assert_replacement_answers_from_the_installed_session(
            cluster, last)


class TestLateCopyOfAnAbandonedAttempt:
    """DS-SMR attempt 1 of ``incr x`` goes to p1 and its first copy is
    held up for 2 s. The resend finds x moved to p0 and gets ``retry``;
    attempt 2 runs on p0; then x is moved back to p1. Per-command dedup
    cannot stop the late copy there: p1 only ever answered ``retry``, so
    it has no reply for the command and x is local again — it ran twice.
    Once the client's next command has reached p1, the copy is stale."""

    def test_the_late_copy_is_stale_after_the_clients_next_command(
            self, env):
        stack = DssmrStack(env)
        stack.preload({"x": 0}, {"x": "p1"})
        client = DssmrClient(env, stack.network, stack.directory, "c0",
                             stack.partitions, retry_policy=RetryPolicy())
        stack.network.add_delay_rule(
            lambda message: 2_000.0
            if message.kind == "log/p1/submit"
            and message.payload.get("muid") == "am:inc:a1" else 0.0)
        mover = MulticastClient(ProtocolNode(env, stack.network, "mv"),
                                stack.directory)

        def move(seq, source, dest):
            command = Command(op="move", ctype=CommandType.MOVE,
                              variables=("x",), cid=f"mv:{seq}",
                              client="mv", seq=seq, acked=seq,
                              args={"sources": [source], "dest": dest})
            dests = sorted({ORACLE_GROUP, source, dest})
            mover.multicast(dests, {"command": command, "dests": dests},
                            uid=f"am:mv:{seq}")

        replies = []

        def script(env):
            command = Command(op="incr", args={"key": "x"},
                              variables=("x",), writes=("x",), cid="inc")
            replies.append((yield from client.run_command(command)))
            yield env.timeout(1_000.0 - env.now)   # x is back on p1
            replies.append((yield from client.run_command(get("x"))))

        env.schedule_callback(20.0, move, 1, "p1", "p0")
        env.schedule_callback(400.0, move, 2, "p0", "p1")
        env.process(script(env))
        stack.run(until=10_000)

        first, second = replies
        assert (first.status, first.partition, first.value) == \
            (ReplyStatus.OK, "p0", 1)
        assert (second.status, second.partition, second.value) == \
            (ReplyStatus.OK, "p1", 1)
        assert client.retry_count >= 1
        for name in ("p1s0", "p1s1"):
            server = stack.servers[name]
            assert server.store.read("x") == 1
            assert "inc" not in server.executed
            assert server.replies.stale == 1
