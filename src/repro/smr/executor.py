"""The ordered executor every replica role runs.

Algorithm 1 (S-SMR server, which at one partition is the classic SMR
replica), Algorithm 3 (DS-SMR server proxy) and Algorithm 4 (the oracle)
all sit on the same loop: take the
next atomically-multicast delivery, execute it, reply. P-SMR describes it
as one deliver -> schedule -> execute pipeline; :class:`OrderedExecutor`
is that pipeline, written once. A role subclasses it and supplies what it
does with one delivery.
"""

from __future__ import annotations

from typing import Optional

from repro.net import Network
from repro.obs.tracing import trace_id_of
from repro.ordering import (AmcastDelivery, AtomicMulticast, GroupDirectory,
                            ProtocolNode, SequencerLog)
from repro.resilience import STALE, ReplyCache
from repro.sim import Channel, Environment, Interrupted
from repro.smr.command import Command, Reply, ReplyStatus
from repro.smr.execution import ExecutionModel
from repro.smr.parallel import ParallelExecutionModel
from repro.smr.state_machine import StateMachine, VariableStore

REPLY_KIND = "reply"


def delivery_command(payload) -> Optional[Command]:
    """The command inside an amcast delivery payload, if any.

    Payloads are client envelopes (dicts carrying ``command``) or control
    messages (hints, activations, reconfiguration fences) with no
    command.
    """
    if isinstance(payload, dict):
        command = payload.get("command")
        if isinstance(command, Command):
            return command
    return None


def delivery_attempt(payload: dict) -> int:
    """The client's attempt number (1 when the envelope carries none)."""
    return payload.get("attempt", 1)


class OrderedExecutor:
    """One replica of one group: ordered intake, sequential execution.

    Owns the node, the group's ordered log and atomic-multicast endpoint,
    the delivery queue, the session table (``replies``, a
    :class:`~repro.resilience.ReplyCache`) and the executor process. Each
    delivery passes the stages in this order:

    1. **intake** (:meth:`_enqueue`, in the delivery event): *order* span,
       enqueue stamp, queue-depth peak.
    2. **start gate**: a replacement replica executes nothing until its
       recovery opens the gate.
    3. **dequeue + sojourn**: the time spent behind earlier deliveries
       feeds CoDel (``qos``) and the *queue* span.
    4. **WAL barrier** (``wal``): the log position that delivered the
       entry (:attr:`~repro.ordering.atomic_multicast.AmcastDelivery.position`)
       is fsynced before its effects or reply can be observed; entries
       appended after it are not waited for, and a barrier already met
       is not yielded.
    5. **schedule** (``parallel``): a pool-eligible command takes a slot
       on a worker core and the loop moves on; anything else waits for
       the pool to drain.
    6. **apply**: :meth:`_handle_delivery`, the role's algorithm, which
       first classifies the command against its issuer's session (stale,
       duplicate or fresh).
    7. **session -> reply**: a returned reply is stored in the issuer's
       session, recorded in ``executed`` and sent.
    8. **settle**: once its effects and those of every earlier delivery
       are in the state, its key becomes :attr:`settled_key`, which the
       replica reports for its group's delivery floor (see
       :meth:`restore_key` and :mod:`repro.ordering.floor`).

    ``qos``, ``wal`` and ``parallel`` are ``None`` until the harness
    attaches them; an absent subsystem costs one ``None`` check.

    A role overrides :meth:`_handle_delivery`, :meth:`_respawn_options`
    and, where it differs, :meth:`_pool_eligible`, :meth:`_apply_local`
    and :meth:`_overload_message`, builds an ``exchange``
    (:class:`~repro.ssmr.exchange.ExchangeBuffer`), and names the
    attributes of its own replicated state in :attr:`ROLE_STATE` so that
    its :meth:`snapshot` carries them. The oracle's replicated state is
    its location map, so its ``store`` and ``executed`` stay empty and
    nothing attaches a pool to it.

    The three loops this class replaced had drifted; what was decided:

    * Sojourn is measured before the WAL barrier (S-SMR's order), so CoDel
      and the *queue* span see queueing only, never group-commit wait.
    * A pooled command gets the loop's *queue* span up to its dequeue; the
      wait for a core is profiled as ``exec.queue`` (S-SMR's shape).
    * Duplicates are detected by the session table alone; the checkpoint
      a replacement installs carries ``executed`` and the table.
    * A barriered command charges ``execution.cost`` to the scheduler's
      serial account before it is handled (S-SMR's accounting).
    * A pooled command finishing stores its reply, frees its slot, then
      sends (S-SMR's order): the send is the last observable act.
    """

    #: Attributes of the role's own replicated state, beyond what every
    #: executor shares: :meth:`snapshot` carries them by name.
    ROLE_STATE: tuple[str, ...] = ()
    #: Attributes :meth:`snapshot` leaves out: wiring, the other
    #: components (each snapshots itself), attached subsystems, metrics,
    #: and what the harness attaches.
    TRANSIENT: tuple[str, ...] = (
        "env", "group", "directory", "node", "log", "amcast",
        "state_machine", "execution", "store", "replies", "tracer",
        "queue_peak", "qos", "wal", "checkpointer", "_enqueue_times",
        "_processed_key", "_start_gate", "_executor", "checkpoint_host",
        "ckpt_store", "recovery", "rmcast", "exchange")

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, group: str, name: str,
                 state_machine: Optional[StateMachine] = None,
                 execution: Optional[ExecutionModel] = None,
                 log_factory=SequencerLog,
                 speaker_only: bool = True,
                 dedup: bool = True,
                 start_gate=None):
        self.env = env
        self.group = group
        self.directory = directory
        self.node = ProtocolNode(env, network, name)
        self.log = log_factory(self.node, directory, group)
        self.amcast = AtomicMulticast(self.node, directory, self.log,
                                      speaker_only=speaker_only)
        self.state_machine = state_machine
        self.execution = execution or ExecutionModel()
        self.store = VariableStore()
        self.executed: list[str] = []  # command ids, in execution order
        # The exactly-once session table. dedup=False (test-only) disables
        # it so the chaos sentinel can prove the checkers catch double
        # execution.
        self.replies = ReplyCache(enabled=dedup)
        self.tracer = self.node.tracer
        self.queue_peak = 0
        # Opt-in subsystems, attached by the harness: overload control
        # (repro.qos), write-ahead log (repro.store), worker pool
        # (repro.smr.parallel).
        self.qos = None
        self.wal = None
        self.parallel = None
        # Attached by repro.reconfig.PartitionCheckpointer (None without).
        self.checkpointer = None
        self._enqueue_times: dict[str, float] = {}
        self._deliveries = Channel(env, name=f"{name}/deliveries")
        # The delivery the executor is inside: a checkpoint captured
        # meanwhile must count it as not-yet-executed work.
        self._current_delivery = None
        # Keys of the newest delivery whose effects, and those of every
        # delivery before it, are in the state; and of the newest one
        # processed or dispatched to the pool.
        self.settled_key = None
        self._processed_key = None
        # Configuration epoch: bumped by every ordered reconfiguration
        # entry (partition join / leave-begin); see repro.reconfig.
        self.epoch = 0
        self.log.report_restore_key(self.restore_key)
        self.amcast.on_deliver(self._enqueue)
        self._start_gate = start_gate
        self._executor = env.process(self._execute_loop(),
                                     name=f"{name}/executor")

    # -- lifecycle ------------------------------------------------------------

    def crash(self) -> None:
        self.node.crash()
        self._executor.interrupt("crash")

    @property
    def started(self) -> bool:
        """Whether the executor runs: built without a start gate, or the
        gate opened (a replacement replica's state is installed)."""
        return self._start_gate is None or self._start_gate.triggered

    def load_state(self, contents: dict) -> None:
        """Install this replica's share of the initial service state."""
        for key, value in contents.items():
            self.store.write(key, value)

    def respawn(self, start_gate) -> "OrderedExecutor":
        """A fresh instance of this class under the same name.

        Same constructor options, a fresh worker pool of the same
        ``ExecutionConfig``, executor held behind ``start_gate`` until the
        caller has installed state: a checkpoint, or the base image
        (:meth:`load_state`) a replay from position 0 starts from.
        """
        network = self.node.network
        network.recover(self.node.name)
        replacement = type(self)(
            env=self.env, network=network, directory=self.directory,
            name=self.node.name, log_factory=type(self.log),
            dedup=self.replies.enabled, start_gate=start_gate,
            **self._respawn_options())
        if self.parallel is not None:
            replacement.attach_parallel(
                ParallelExecutionModel(self.env, self.parallel.config))
        return replacement

    def _respawn_options(self) -> dict:
        """Constructor options beyond the ones every role shares, as the
        role was first built."""
        raise NotImplementedError

    def start(self) -> None:
        """Open the start gate: the replacement's state is installed."""
        self._start_gate.succeed(None)

    # -- checkpointing (repro.reconfig.checkpoint) ----------------------------

    def components(self) -> dict:
        """The stateful parts of this replica by checkpoint name, in the
        order a checkpoint installs them."""
        return {"store": self.store, "replies": self.replies,
                "executor": self, "amcast": self.amcast,
                "exchange": self.exchange, "log": self.log}

    def snapshot(self) -> dict:
        """The executor's own state, by reference; commands whose effects
        have not landed are queued work, not history."""
        return {"executed": self.settled_history(),
                "settled_key": self.settled_key, "epoch": self.epoch,
                "queued": self.pending_deliveries(),
                "role": {name: getattr(self, name)
                         for name in self.ROLE_STATE}}

    def restore(self, state: dict) -> None:
        """Adopt a snapshot (a private copy) into a gated replacement."""
        self.executed = list(state["executed"])
        self.settled_key = self._processed_key = state["settled_key"]
        self.epoch = state["epoch"]
        for name, value in state["role"].items():
            setattr(self, name, value)
        self.replace_queue(state["queued"])

    # -- delivery intake ------------------------------------------------------

    def _enqueue(self, delivery: AmcastDelivery) -> None:
        """Queue an ordered delivery for the executor.

        Emits the *order* span (client submit -> total-order delivery) and
        stamps the enqueue time for the sojourn measurement. A direct
        handoff to a waiting executor counts as depth 1.
        """
        if self.tracer.enabled:
            command = delivery_command(delivery.payload)
            sent = self.tracer.sent_at(command.cid) if command else None
            if sent is not None:
                self._account(command, "order", sent, uid=delivery.uid)
        if (self.tracer.enabled or self.node.profiler.enabled
                or self.qos is not None):
            self._enqueue_times[delivery.uid] = self.env.now
        if self._deliveries.pending_getters:
            # Handed straight to the waiting executor, whose process only
            # resumes later in this instant: it is inside this delivery
            # already, and a checkpoint taken before then must say so.
            self._current_delivery = delivery
        self._deliveries.put(delivery)
        depth = len(self._deliveries) or 1
        if depth > self.queue_peak:
            self.queue_peak = depth

    def queue_depth(self) -> int:
        """Current executor-queue depth (the adaptive batching signal)."""
        return len(self._deliveries)

    def pending_deliveries(self) -> list:
        """Deliveries whose effects are not in the state yet, in log order:
        on worker cores, then the one the executor is inside, then queued."""
        pending = (self.parallel.inflight_deliveries()
                   if self.parallel is not None else [])
        if self._current_delivery is not None:
            pending.append(self._current_delivery)
        pending.extend(self._deliveries.items())
        return pending

    def settled_history(self) -> list:
        """``executed`` without the commands still on worker cores.

        Those are appended at dispatch but reach the store only at their
        finish times; they are a contiguous tail (the sequential path
        drains the pool first), so what remains is a consistent prefix.
        """
        if self.parallel is None or not self.parallel.pending:
            return list(self.executed)
        inflight = set(self.parallel.inflight_cids())
        return [cid for cid in self.executed if cid not in inflight]

    @property
    def delivery_key(self):
        """The key of the delivery the executor is inside."""
        return self._current_delivery.timestamp

    def restore_key(self):
        """The key this replica reports for its group's delivery floor.

        Its settled key; with a WAL, the key of its newest fsynced
        checkpoint instead (None until the first), since a cold start
        re-executes everything after that.
        """
        if self.wal is None:
            return self.settled_key
        return self.checkpointer.store.durable_key

    def _effects_applied(self) -> None:
        """The current delivery's state effects are all in; its handler
        only charges time from here on. A checkpoint captured meanwhile
        counts it as executed, not queued, so an install cannot apply it
        twice."""
        self._current_delivery = None

    def _settle(self, key) -> None:
        """The delivery at ``key`` is processed (or on the pool)."""
        self._processed_key = key
        if self.parallel is None or not self.parallel.pending:
            self.settled_key = key

    def replace_queue(self, deliveries) -> None:
        """Replace the queued deliveries (recovery install)."""
        deliveries = list(deliveries)
        self._deliveries.clear()
        for delivery in deliveries:
            self._deliveries.put(delivery)
        kept = {delivery.uid for delivery in deliveries}
        self._enqueue_times = {uid: at for uid, at
                               in self._enqueue_times.items() if uid in kept}

    # -- overload control (repro.qos) -----------------------------------------

    def attach_qos(self, admission, batcher=None, classify=None) -> None:
        """Attach overload control to this replica.

        Admission decisions happen inside the sequencer log (meaningful
        on the group speaker only — the one process that sees client
        entries before they are ordered, so the admitted sequence stays
        identical on every member); the executor loop feeds each
        dequeued delivery's queue sojourn to the CoDel controller.
        """
        self.qos = admission
        if hasattr(self.log, "attach_qos"):
            self.log.attach_qos(admission=admission, batcher=batcher,
                                on_shed=self._shed_reply, classify=classify)

    def _shed_reply(self, entry: dict, reason: str) -> None:
        """Backpressure for a shed entry: explicit OVERLOAD, not silence."""
        payload = entry.get("payload")
        command = delivery_command(payload)
        if command is None or not command.client:
            return
        kind, message = self._overload_message(
            command, delivery_attempt(payload), reason)
        self.node.send(command.client, kind, message, size=96)
        self.node.flight("qos", f"shed {command.cid} ({reason})")

    def _overload_message(self, command: Command, attempt: int,
                          reason: str) -> tuple:
        """(kind, payload) answering a shed ``command``."""
        return REPLY_KIND, self._make_reply(command, ReplyStatus.OVERLOAD,
                                            reason, attempt)

    # -- parallel execution (repro.smr.parallel) ------------------------------

    def attach_parallel(self, pool) -> None:
        """Arm the conflict-aware worker pool (see repro.smr.parallel)."""
        self.parallel = pool

    def _pool_eligible(self, envelope, command: Command) -> bool:
        """May ``command`` bypass the serial path onto a worker core?"""
        return False

    def _dispatch_parallel(self, command: Command, attempt: int,
                           delivery: AmcastDelivery) -> None:
        """Dispatch one eligible command onto the worker pool.

        The slot is fully determined at dispatch (costs are
        deterministic), so apply + reply run as a callback at the finish
        time and the executor immediately dequeues the next entry — this
        is what lets non-conflicting commands overlap. ``executed`` is
        appended now, in log order, keeping the cross-replica
        execution-order invariant independent of finish interleavings;
        a state capture before the finish filters the cid back out (see
        :meth:`settled_history`). The session is classified now too, in
        log order; the reply is stored at the finish.
        """
        env = self.env
        pool = self.parallel
        if self._answered(command, attempt):
            return
        running = self.replies.enabled and pool.inflight_slot(command.cid)
        if running:
            # A client resend raced the original, which is still on a
            # core: its reply does not exist yet, so re-send it when the
            # original lands.
            env.schedule_callback(running.finish - env.now,
                                  self._resend_landed, command, attempt)
            return
        if self._declined(command, attempt):
            return
        slot = pool.dispatch(command, self.execution.cost(command),
                             delivery=delivery)
        self.executed.append(command.cid)
        if self.node.profiler.enabled and slot.stall > 0:
            self.node.profiler.account(self.node.name, "exec.queue",
                                       slot.stall)
        env.schedule_callback(slot.finish - env.now, self._complete_parallel,
                              command, attempt, slot)

    def _complete_parallel(self, command: Command, attempt: int,
                           slot) -> None:
        """A pooled command reached its finish time: apply and reply."""
        if self.node.crashed:
            return
        reply = self._apply_local(command)
        reply.attempt = attempt
        if self.tracer.enabled:
            self.tracer.span(trace_id_of(command.cid), "execute",
                             self.node.name, slot.start, self.env.now,
                             core=slot.core)
        if self.node.profiler.enabled:
            self.node.profiler.account(self.node.name,
                                       f"exec.run.c{slot.core}", slot.cost)
        self.replies.store(command, reply)
        self.parallel.complete(command.cid)
        if not self.parallel.pending:
            self.settled_key = self._processed_key
        self._send_reply(command, reply)

    def _resend_landed(self, command: Command, attempt: int) -> None:
        if not self.node.crashed:
            self._answered(command, attempt)

    def _declined(self, command: Command, attempt: int) -> bool:
        """Answer a fresh pool-eligible command without running it?
        (DS-SMR's ``retry`` when its variables moved away.)"""
        return False

    # -- executor -------------------------------------------------------------

    def _execute_loop(self):
        env = self.env
        try:
            if self._start_gate is not None:
                yield self._start_gate
            while True:
                delivery: AmcastDelivery = yield self._deliveries.get()
                payload = delivery.payload
                command = delivery_command(payload)
                if self._enqueue_times:
                    enqueued = self._enqueue_times.pop(delivery.uid, None)
                    if enqueued is not None:
                        if self.qos is not None:
                            self.qos.note_sojourn(env.now,
                                                  env.now - enqueued)
                        if command is not None and env.now > enqueued:
                            self._account(command, "queue", enqueued)
                self._current_delivery = delivery
                if self.wal is not None:
                    # Durability barrier: the log position that delivered
                    # this entry must be fsynced before its effects (and
                    # reply) can be observed by anyone (see repro.store).
                    # Later appends play no part in it.
                    barrier = self.wal.sync_barrier(delivery.position)
                    if not barrier.triggered:
                        yield barrier
                if self.parallel is not None:
                    if (command is not None
                            and self._pool_eligible(payload, command)):
                        # The pool tracks the delivery from here on.
                        self._dispatch_parallel(
                            command, delivery_attempt(payload), delivery)
                        self._current_delivery = None
                        self._settle(delivery.timestamp)
                        continue
                    # Everything else serializes against the whole pool.
                    yield from self.parallel.drain()
                    if command is not None:
                        self.parallel.scheduler.note_serial(
                            self.execution.cost(command))
                reply = yield from self._handle_delivery(delivery)
                if reply is not None:
                    self._commit(command, reply, payload)
                self._current_delivery = None
                self._settle(delivery.timestamp)
        except Interrupted:
            return

    def _handle_delivery(self, delivery: AmcastDelivery):
        """Generator: execute one delivery (the role's algorithm).

        Returns the reply of a command executed here for the loop to
        store and send, or None when there is nothing to commit (a
        control entry, a stale copy, a duplicate answered from the
        session, a retry).
        """
        raise NotImplementedError

    def _apply_local(self, command: Command) -> Reply:
        """Apply ``command`` to the local store, charging no time."""
        raise NotImplementedError

    # -- stage accounting and replies -----------------------------------------

    def _account(self, command: Command, stage: str, start: float,
                 **attrs) -> None:
        """Span + profiler sample for ``stage`` over [start, now]."""
        now = self.env.now
        if self.tracer.enabled:
            self.tracer.span(trace_id_of(command.cid), stage,
                             self.node.name, start, now, **attrs)
        if self.node.profiler.enabled:
            self.node.profiler.account(self.node.name, stage, now - start)

    def _make_reply(self, command: Command, status: ReplyStatus, value,
                    attempt: int = 1) -> Reply:
        return Reply(cid=command.cid, status=status, value=value,
                     sender=self.node.name, partition=self.group,
                     attempt=attempt)

    def _commit(self, command: Command, reply: Reply, envelope) -> None:
        """Store, record and send the reply of a command executed here."""
        reply.attempt = delivery_attempt(envelope)
        self.replies.store(command, reply)
        self.executed.append(command.cid)
        if self._answers(envelope):
            self._send_reply(command, reply)

    def _answers(self, envelope) -> bool:
        """Does this group send the fresh reply of ``envelope``'s command?
        (Every group that executes one, unless a role says otherwise.)"""
        return True

    def _answered(self, command: Command, attempt: int) -> bool:
        """Classify ``command`` against its issuer's session: True when
        it needs nothing more, being stale (ignored) or a duplicate (the
        stored reply is re-sent, tagged ``attempt``)."""
        verdict = self.replies.classify(command, attempt)
        if verdict is None:
            return False
        if verdict is not STALE:
            self._send_reply(command, verdict)
        return True

    def _send_reply(self, command: Command, reply: Reply) -> None:
        """Answer the issuer, if this replica speaks for its group.

        Every member executes and keeps the reply in the session; only
        the speaker sends it (``AtomicMulticast.announcing``), as it
        alone sends the group's timestamps and exchanges."""
        if command.client and self.amcast.announcing:
            self.node.send(command.client, REPLY_KIND, reply, size=128)
