"""S-SMR partition server (Algorithm 1 of the paper).

Each server replicates one partition. Commands arrive via atomic multicast
and are executed sequentially. For a multi-partition command the involved
partitions (i) reliably multicast a *signal* plus the values of the
command's variables they hold to the other involved partitions, and
(ii) wait for the signal (and variables) of every other involved partition
before replying — the coordination that makes multi-partition executions
linearizable, and the overhead that motivates dynamic repartitioning.

Implementation notes:

* Signals and variable values travel in one reliable-multicast message per
  (command, partition) pair — same semantics as sending them separately,
  half the messages.
* A partition speaks once: every replica caches that message, only the
  replica whose ``amcast.announcing`` is true (the speaker, unless built
  with ``speaker_only=False``) transmits it, and any replica answers a
  peer's pull from its cache (see :mod:`repro.ssmr.exchange`).
* Ownership is determined by *store contents* rather than the static map,
  which lets the exact same execution path serve as DS-SMR's fallback mode
  (where variables migrate between partitions).
* Replies are kept per client session (:class:`~repro.resilience.ReplyCache`)
  until the client acknowledges them, giving exactly-once execution when
  a client re-multicasts a command (DS-SMR retries).
"""

from __future__ import annotations

from typing import Optional

from repro.net import Network
from repro.ordering import (AmcastDelivery, GroupDirectory, ReliableMulticast,
                            SequencerLog)
from repro.resilience import STALE
from repro.sim import Environment
from repro.smr.command import Command, CommandType, Reply, ReplyStatus
from repro.smr.execution import ExecutionModel
from repro.smr.executor import OrderedExecutor, delivery_attempt
from repro.smr.state_machine import ExecutionView, StateMachine
from repro.ssmr.exchange import ExchangeBuffer


class SsmrServer(OrderedExecutor):
    """One replica of one S-SMR partition."""

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, partition: str, name: str,
                 state_machine: StateMachine,
                 execution: Optional[ExecutionModel] = None,
                 log_factory=SequencerLog,
                 speaker_only: bool = True,
                 dedup: bool = True,
                 start_gate=None,
                 tracer=None):
        super().__init__(env, network, directory, partition, name,
                         state_machine, execution=execution,
                         log_factory=log_factory, speaker_only=speaker_only,
                         dedup=dedup, start_gate=start_gate, tracer=tracer)
        self.partition = partition
        self.rmcast = ReliableMulticast(self.node, directory)
        self.exchange = ExchangeBuffer(
            env, self.rmcast, partition,
            transmits=lambda: self.amcast.announcing)
        self.multi_partition_count = 0
        # Configuration epoch: bumped by every ordered reconfiguration
        # entry (partition join / leave-begin); see repro.reconfig.
        self.epoch = 0
        # Entry rids already applied: the manager retries entries under
        # fresh multicast uids when an oracle ack is lost, so the ordered
        # log can legitimately deliver the same fence twice — only the
        # first delivery may bump the epoch (the oracle side dedups by
        # caching its acks; this is the server-side counterpart).
        self.applied_reconfigs: set[str] = set()
        # Attached by repro.reconfig.PartitionCheckpointer (None without).
        self.checkpointer = None

    def _respawn_options(self) -> dict:
        return {"speaker_only": self.amcast.speaker_only}

    # -- parallel execution (repro.smr.parallel) ------------------------------

    def _pool_eligible(self, envelope, command: Command) -> bool:
        """Single-partition accesses addressed to this partition alone:
        no signal exchange, no store-shape change, no epoch fence."""
        return (command.ctype is CommandType.ACCESS
                and len(envelope["dests"]) == 1)

    # -- executor -------------------------------------------------------------

    def _handle_delivery(self, delivery: AmcastDelivery):
        envelope = delivery.payload
        if "reconfig" in envelope:
            self._apply_reconfig(envelope["reconfig"])
            return None
        command: Command = envelope["command"]
        dests = envelope["dests"]
        cached = self.replies.classify(command, delivery_attempt(envelope))
        if cached is STALE:
            # The client finished this command: every peer destination
            # delivered it already and waits for nothing from us.
            return None
        if cached is not None:
            # Already executed here (the client re-multicast after a lost
            # race). We must still take part in the signal exchange — with
            # the done flag, so peers skip execution instead of applying
            # the command a second time — and then resend the cached reply,
            # re-tagged with the current attempt so the client accepts it.
            others = [d for d in dests if d != self.partition]
            if command.ctype is CommandType.ACCESS and others:
                self.exchange.send(others, command.cid, {}, done=True)
            self._send_reply(command, cached)
            return None
        if command.ctype is CommandType.ACCESS:
            if len(dests) > 1:
                return (yield from self._exec_access(command, dests))
            # Addressed to this partition alone: no exchange — classic
            # SMR's whole algorithm, and every command of a one-partition
            # deployment. Inline, not a nested generator: this is the hot
            # path of every scheme.
            start = self.env.now
            yield self.env.timeout(self.execution.cost(command))
            self._account(command, "execute", start)
            return self._apply_local(command)
        if command.ctype is CommandType.CREATE:
            return (yield from self._exec_create(command))
        if command.ctype is CommandType.DELETE:
            return (yield from self._exec_delete(command))
        raise ValueError(f"{self.node.name}: unexpected command type "
                         f"{command.ctype.value!r}")

    # -- reconfiguration (repro.reconfig) -----------------------------------

    def _apply_reconfig(self, spec: dict) -> None:
        """Apply an ordered reconfiguration entry (epoch fence).

        Join and leave-begin entries bump the configuration epoch on every
        group — delivered through the ordered logs, so all replicas of all
        partitions fence identically — and trigger an epoch-tagged
        checkpoint when a :class:`~repro.reconfig.PartitionCheckpointer`
        is attached. Leave-commit entries are oracle-side cleanup and do
        not change the epoch. Re-deliveries of an already-applied entry
        (manager retries under a fresh multicast uid) are no-ops — the
        fuzzer's minimal repro for skipping this check is a single join
        under background message loss.
        """
        if spec.get("kind") in ("join", "leave_begin"):
            rid = spec.get("rid")
            if rid is not None:
                if rid in self.applied_reconfigs:
                    return
                self.applied_reconfigs.add(rid)
            self.epoch += 1
            self.node.flight("epoch",
                             f"{spec['kind']} -> epoch {self.epoch}")
            if self.checkpointer is not None:
                self.checkpointer.capture(reason=spec["kind"])

    # -- command execution (Algorithm 1) -----------------------------------

    def _exec_access(self, command: Command, dests):
        """A multi-partition access: signal + variable exchange."""
        others = [d for d in dests if d != self.partition]
        self.multi_partition_count += 1
        local_vars = {key: self.store.read(key)
                      for key in command.variables if key in self.store}
        self.exchange.send(others, command.cid, local_vars)
        start = self.env.now
        yield self.env.timeout(self.execution.cost(command))
        self._account(command, "execute", start)
        start = self.env.now
        yield from self.exchange.wait(command.cid, set(others))
        self._account(command, "exchange", start, peers=len(others))
        # A done-marked exchange (peer cache hit on a client resend)
        # carries the peer's merged original variables, so execution
        # proceeds with the same inputs either way. Whether *we*
        # execute is decided only by our own session check above —
        # replicas of a partition see exchange messages at different
        # times under faults, so a decision based on `any_done` here
        # diverges between them (found by fuzzing: a one-way
        # partition made one p0 replica defer a command to its
        # resend slot while the other executed it at the original
        # slot). Exactly-once is already local: the executor is
        # sequential and the client's session catches re-deliveries.
        return self._apply_local(command, self.exchange.collect(command.cid))

    def _apply_local(self, command: Command, remote_vars=()) -> Reply:
        """Apply an access whose cost is already charged: the tail of
        both access paths, and what a worker core runs at its finish."""
        missing = self.store.missing(command.variables, remote_vars)
        if missing:
            return self._missing_reply(command, missing)
        view = ExecutionView(self.store, remote_vars)
        try:
            value = self.state_machine.apply(command, view)
        except KeyError as error:
            # The command's declared variable set was not a superset of
            # what it actually read (the oracle-footnote contract). All
            # replicas fail identically (deterministic apply), so replying
            # NOK keeps replicas consistent.
            return self._make_reply(command, ReplyStatus.NOK,
                                    f"undeclared variable access: {error}")
        return self._make_reply(command, ReplyStatus.OK, value)

    def _missing_reply(self, command: Command, missing: list) -> Reply:
        """The answer to an access of variables no destination holds."""
        return self._make_reply(command, ReplyStatus.NOK,
                                f"missing variables: {missing[:3]}")

    def _exec_create(self, command: Command):
        """Static S-SMR create: the owning partition installs the variable."""
        key = command.variables[0]
        if key in self.store:
            return self._make_reply(command, ReplyStatus.NOK, "exists")
        self.store.create(
            key, self.state_machine.initial_value(key, command.args))
        start = self.env.now
        yield self.env.timeout(self.execution.cost(command))
        self._account(command, "execute", start)
        return self._make_reply(command, ReplyStatus.OK, "created")

    def _exec_delete(self, command: Command):
        key = command.variables[0]
        if key not in self.store:
            return self._make_reply(command, ReplyStatus.NOK, "missing")
        self.store.delete(key)
        start = self.env.now
        yield self.env.timeout(self.execution.cost(command))
        self._account(command, "execute", start)
        return self._make_reply(command, ReplyStatus.OK, "deleted")
