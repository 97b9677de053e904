"""The ordered-executor contract, run against every role that subclasses it.

Each test builds one executor alone in its group and feeds it deliveries
directly (no ordering layer in the way), so the stage order of the shared
loop — sojourn -> WAL barrier -> schedule -> apply -> reply cache -> reply —
is pinned on ``SsmrServer`` (which also serves classic SMR),
``DssmrServer`` and ``OracleReplica`` alike.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import ORACLE_GROUP, DssmrServer, OracleReplica
from repro.core.oracle import PROPHECY_KIND
from repro.core.prophecy import ProphecyStatus
from repro.net import FixedLatency, Network
from repro.ordering import (AmcastDelivery, GroupDirectory, MulticastClient,
                            ProtocolNode, ReliableMulticast)
from repro.qos import classify_entry
from repro.sim import SeedStream
from repro.smr import (Command, CommandType, ExecutionConfig, ExecutionModel,
                       KeyValueStateMachine, ParallelExecutionModel,
                       ReplyStatus)
from repro.smr.executor import REPLY_KIND, OrderedExecutor
from repro.ssmr import SsmrServer
from repro.ssmr.exchange import ExchangeBuffer

LATENCY_MS = 0.1
FSYNC_MS = 5.0
STORE_BACKED = (SsmrServer, DssmrServer)
ALL_ROLES = STORE_BACKED + (OracleReplica,)


class RecordingQos:
    """Admission stand-in: records sojourn feedback, sheds on demand."""

    def __init__(self, journal, shed=None):
        self.journal = journal
        self.shed = shed

    def note_sojourn(self, now, sojourn_ms):
        self.journal.append(("sojourn", now, sojourn_ms))

    def admit(self, now, sheddable=True):
        return self.shed if sheddable else None


class SlowWal:
    """WAL stand-in whose barrier resolves ``FSYNC_MS`` after the request."""

    def __init__(self, env, journal):
        self.env = env
        self.journal = journal

    def sync_barrier(self, position):
        event = self.env.event()
        self.journal.append(("barrier", self.env.now))
        self.env.schedule_callback(FSYNC_MS, self._resolve, event)
        return event

    def _resolve(self, event):
        self.journal.append(("durable", self.env.now))
        event.succeed(None)


class Rig:
    """One executor of ``role`` alone in its group, a client endpoint that
    records what it is sent, and a stand-in member of partition ``p0`` for
    the oracle's create/delete signal exchange."""

    def __init__(self, env, role, **options):
        self.env = env
        self.role = role
        self.network = Network(env, SeedStream(1), FixedLatency(LATENCY_MS))
        self.group = ORACLE_GROUP if role is OracleReplica else "g"
        self.directory = GroupDirectory({self.group: ["x0"],
                                         "p0": ["p0s0"]})
        if role is OracleReplica:
            self.executor = OracleReplica(env, self.network, self.directory,
                                          "x0", ("p0",), **options)
            self.executor.load_state({"x": "p0"})
            peer = ProtocolNode(env, self.network, "p0s0")
            self.partition = ExchangeBuffer(
                env, ReliableMulticast(peer, self.directory), "p0",
                amcast=SimpleNamespace(speaker_only=True, announcing=True,
                                       floors={},
                                       on_floor=lambda callback: None))
        else:
            self.executor = role(env, self.network, self.directory, self.group,
                                 "x0", KeyValueStateMachine(),
                                 execution=ExecutionModel(base_ms=0.05),
                                 **options)
            self.executor.load_state({"x": 0})
        self.received = []   # (arrival time, kind, payload)
        self.client = ProtocolNode(env, self.network, "c0")
        self.client.on_default(lambda message: self.received.append(
            (env.now, message.kind, message.payload)))
        self._uids = 0

    # -- commands ---------------------------------------------------------

    def command(self, cid="c0:1", acked=1) -> Command:
        """A command whose application is visible in the replica state.

        Client ``c0`` numbers its commands by the cid suffix; with the
        default ``acked`` it has all of them open at once (open loop).
        """
        seq = int(cid.rsplit(":", 1)[1])
        if self.role is OracleReplica:
            # Our signal, kept under a key no floor ever passes here.
            self.partition.send([ORACLE_GROUP], cid, {}, key=(seq, cid))
            return Command(op="create", ctype=CommandType.CREATE,
                           variables=(f"k{seq}",), args={"partition": "p0"},
                           cid=cid, client="c0", seq=seq, acked=acked)
        return Command(op="incr", args={"key": "x"}, variables=("x",),
                       writes=("x",), cid=cid, client="c0", seq=seq,
                       acked=acked)

    def applications(self) -> int:
        """How many times ``command()`` has been applied."""
        if self.role is OracleReplica:
            return self.executor.map_version - 1   # preload made one change
        return self.executor.store.read("x")

    def envelope(self, command, attempt=1) -> dict:
        return {"command": command, "dests": [self.group],
                "attempt": attempt}

    def deliver(self, command, attempt=1) -> None:
        """Hand the executor one ordered delivery, as the multicast would."""
        self._uids += 1
        self.executor._enqueue(AmcastDelivery(
            uid=f"u{self._uids}", payload=self.envelope(command, attempt),
            groups=(self.group,), origin="c0", timestamp=(self._uids, ""),
            local_seq=self._uids))

    def replies(self) -> list:
        return [payload for _at, kind, payload in self.received
                if kind == REPLY_KIND]


@pytest.fixture(params=ALL_ROLES, ids=lambda role: role.__name__)
def rig(request, env):
    return Rig(env, request.param)


@pytest.fixture(params=STORE_BACKED, ids=lambda role: role.__name__)
def store_rig(request, env):
    return Rig(env, request.param)


def test_every_role_is_an_ordered_executor():
    for role in ALL_ROLES:
        assert issubclass(role, OrderedExecutor)
        assert "_execute_loop" not in vars(role)


def test_sojourn_is_fed_before_the_barrier_and_excludes_fsync(rig):
    env, executor = rig.env, rig.executor
    journal = []
    executor.attach_qos(RecordingQos(journal))
    executor.wal = SlowWal(env, journal)
    env.schedule_callback(1.0, rig.deliver, rig.command())
    env.run(until=1.0 + FSYNC_MS - 0.1)
    # Dequeued at once: zero sojourn, reported before the fsync wait
    # starts; nothing is applied or answered while the barrier is open.
    assert journal == [("sojourn", 1.0, 0.0), ("barrier", 1.0)]
    assert rig.applications() == 0
    assert rig.received == []
    env.run(until=100.0)
    assert journal[-1] == ("durable", 1.0 + FSYNC_MS)
    assert rig.applications() == 1
    [reply] = rig.replies()
    assert reply.status is ReplyStatus.OK


def test_a_delivery_behind_another_reports_its_queueing_time(rig):
    journal = []
    rig.executor.attach_qos(RecordingQos(journal))
    rig.deliver(rig.command("c0:1"))
    rig.deliver(rig.command("c0:2"))
    rig.env.run(until=100.0)
    (_, first_at, first), (_, second_at, second) = journal
    assert (first_at, first) == (0.0, 0.0)
    assert second_at > 0.0 and second == second_at


def test_shed_entry_gets_one_overload_reply_and_one_flight_record(rig):
    executor = rig.executor
    executor.attach_qos(RecordingQos([], shed="rate"),
                        classify=classify_entry)
    MulticastClient(rig.client, rig.directory).multicast(
        [rig.group], rig.envelope(rig.command(), attempt=3))
    rig.env.run(until=100.0)
    [reply] = rig.replies()
    assert reply.status is ReplyStatus.OVERLOAD
    assert (reply.value, reply.attempt, reply.partition) == \
        ("rate", 3, rig.group)
    assert [event for event in rig.network.flight.events("x0")
            if event[1] == "qos"] == [(0.1, "qos", "shed c0:1 (rate)")]
    assert rig.applications() == 0


def test_shed_consult_is_answered_with_an_overload_prophecy(env):
    rig = Rig(env, OracleReplica)
    rig.executor.attach_qos(RecordingQos([], shed="codel"),
                            classify=classify_entry)
    consult = Command(op="consult", ctype=CommandType.CONSULT,
                      variables=("x",), args={"inner_ctype": "access"},
                      cid="c0:1", client="c0", seq=1, acked=1)
    MulticastClient(rig.client, rig.directory).multicast(
        [rig.group], rig.envelope(consult))
    env.run(until=100.0)
    [(_, kind, payload)] = rig.received
    assert kind == PROPHECY_KIND and payload["cid"] == "c0:1"
    assert payload["prophecy"].status is ProphecyStatus.OVERLOAD
    assert payload["prophecy"].reason == "codel"


def test_duplicate_delivery_resends_the_cached_reply(rig):
    command = rig.command()
    rig.deliver(command, attempt=1)
    rig.env.run(until=50.0)
    rig.deliver(command, attempt=2)
    rig.env.run(until=100.0)
    first, second = rig.replies()
    assert (first.attempt, second.attempt) == (1, 2)
    assert first.status is second.status is ReplyStatus.OK
    assert first.value == second.value
    assert rig.applications() == 1
    assert rig.executor.replies.hits == 1


def test_open_loop_commands_delivered_out_of_order_each_execute_once(rig):
    """Seq 5 and 6 in flight together (watermark 5), delivered 6 then 5,
    then resent: both are fresh once and duplicates after."""
    sixth, fifth = rig.command("c0:6", acked=5), rig.command("c0:5", acked=5)
    for command in (sixth, fifth):
        rig.deliver(command)
    rig.env.run(until=50.0)
    for command in (sixth, fifth):
        rig.deliver(command, attempt=2)
    rig.env.run(until=100.0)
    assert rig.applications() == 2
    assert [(r.cid, r.attempt) for r in rig.replies()] == \
        [("c0:6", 1), ("c0:5", 1), ("c0:6", 2), ("c0:5", 2)]
    assert (rig.executor.replies.hits, rig.executor.replies.stale) == (2, 0)


def test_a_resend_after_the_clients_next_command_is_stale(rig):
    """Before the client's next command a resend is a duplicate answered
    from the session; after it, the resend is stale: no execution, no
    reply, no exchange — nothing leaves the replica."""
    executor, network = rig.executor, rig.network
    first = rig.command("c0:1")
    rig.deliver(first)
    rig.env.run(until=50.0)
    rig.deliver(first, attempt=2)
    rig.env.run(until=100.0)
    assert len(rig.replies()) == 2 and executor.replies.hits == 1
    rig.deliver(rig.command("c0:2", acked=2))
    rig.env.run(until=150.0)
    assert rig.applications() == 2 and len(rig.replies()) == 3
    sent = network.messages_sent
    rig.deliver(first, attempt=3)
    rig.env.run(until=200.0)
    assert network.messages_sent == sent
    assert rig.applications() == 2 and len(rig.replies()) == 3
    assert (executor.replies.hits, executor.replies.stale) == (1, 1)
    assert executor.executed == ([] if rig.role is OracleReplica
                                 else ["c0:1", "c0:2"])
    assert len(executor.replies) == 1     # only c0:2 is retained


def test_duplicate_of_a_command_on_a_worker_core_resends_at_its_finish(
        store_rig):
    rig, executor = store_rig, store_rig.executor
    executor.attach_parallel(
        ParallelExecutionModel(rig.env, ExecutionConfig(workers=2)))
    command = rig.command()
    rig.deliver(command, attempt=1)
    rig.deliver(command, attempt=2)
    rig.env.run(until=0.01)     # first dequeue: dispatched onto a core
    finish = executor.parallel.inflight_slot(command.cid).finish
    rig.env.run(until=100.0)
    assert [(at, reply.attempt) for at, _kind, reply in rig.received] == \
        [(finish + LATENCY_MS, 1), (finish + LATENCY_MS, 2)]
    assert rig.applications() == 1
    assert executor.executed == [command.cid]


def test_crash_mid_barrier_stops_the_loop_without_executing(rig):
    env, executor = rig.env, rig.executor
    executor.wal = SlowWal(env, [])
    rig.deliver(rig.command())
    env.schedule_callback(FSYNC_MS / 2, executor.crash)
    env.run(until=100.0)
    assert rig.applications() == 0
    assert executor.executed == []
    assert rig.received == []


def test_start_gate_holds_the_store_untouched(env):
    # The oracle takes no gate: nothing rebuilds it behind one.
    for role in STORE_BACKED:
        gate = env.event()
        rig = Rig(env, role, start_gate=gate)
        rig.deliver(rig.command())
        env.run(until=env.now + 50.0)
        assert rig.applications() == 0 and rig.received == []
        assert [d.uid for d in rig.executor.pending_deliveries()] == ["u1"]
        gate.succeed(None)
        env.run(until=env.now + 50.0)
        assert rig.applications() == 1 and len(rig.replies()) == 1


def test_pending_deliveries_lists_cores_then_current_then_queue(store_rig):
    rig, executor = store_rig, store_rig.executor
    executor.attach_parallel(
        ParallelExecutionModel(rig.env, ExecutionConfig(workers=2)))
    pooled = rig.command("c0:1")
    serial = Command(op="create", ctype=CommandType.CREATE, variables=("k",),
                     args={"value": 1, "partition": "g"}, cid="c0:2",
                     client="c0", seq=2, acked=1)
    rig.deliver(pooled)
    rig.deliver(serial)
    rig.deliver(rig.command("c0:3"))
    rig.env.run(until=0.01)     # u1 on a core, u2 waits for it to drain
    assert [d.uid for d in executor.pending_deliveries()] == \
        ["u1", "u2", "u3"]
    assert executor.settled_history() == []
    assert executor.executed == ["c0:1"]


def test_replace_queue_drops_the_stamps_of_what_it_drops(env):
    gate = env.event()
    rig = Rig(env, SsmrServer, start_gate=gate)
    rig.executor.attach_qos(RecordingQos([]))
    for cid in ("c0:1", "c0:2", "c0:3"):
        rig.deliver(rig.command(cid))
    kept = rig.executor.pending_deliveries()[1:]
    rig.executor.replace_queue(kept)
    assert [d.uid for d in rig.executor.pending_deliveries()] == ["u2", "u3"]
    assert sorted(rig.executor._enqueue_times) == ["u2", "u3"]
    gate.succeed(None)
    env.run(until=100.0)
    assert rig.executor.executed == ["c0:2", "c0:3"]
    assert rig.executor._enqueue_times == {}
