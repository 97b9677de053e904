"""Classic SMR replica: full state, totally ordered execution.

Commands arrive through atomic broadcast (single-group atomic multicast) and
are executed sequentially by the shared :class:`OrderedExecutor` loop, which
charges the execution cost model. Every replica sends the reply; clients
deduplicate. This is the non-scalable baseline the paper starts from: adding
replicas never increases throughput because each replica executes every
command.
"""

from __future__ import annotations

from typing import Optional

from repro.net import Network
from repro.ordering import AmcastDelivery, GroupDirectory, SequencerLog
from repro.sim import Environment
from repro.smr.command import Command, CommandType, Reply, ReplyStatus
from repro.smr.execution import ExecutionModel
from repro.smr.executor import (OrderedExecutor, delivery_attempt,
                                delivery_command)
from repro.smr.state_machine import ExecutionView, StateMachine


class SmrReplica(OrderedExecutor):
    """One replica of a classically replicated state machine."""

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, group: str, name: str,
                 state_machine: StateMachine,
                 execution: Optional[ExecutionModel] = None,
                 log_factory=SequencerLog,
                 start_gate=None,
                 dedup: bool = True,
                 tracer=None):
        super().__init__(env, network, directory, group, name, state_machine,
                         execution=execution, log_factory=log_factory,
                         dedup=dedup, start_gate=start_gate, tracer=tracer)

    def _pool_eligible(self, envelope, command: Command) -> bool:
        # Creates/deletes change the store's key set: they serialize.
        return command.ctype is CommandType.ACCESS

    def _handle_delivery(self, delivery: AmcastDelivery):
        command = delivery_command(delivery.payload)
        # Already executed: a client resend, or recovery-snapshot overlap
        # with backfilled log entries. Re-executing would double-apply the
        # command's writes; resend the cached reply instead (the resend's
        # reply may have been the message that was lost).
        if self._resend_cached(command, delivery_attempt(delivery.payload)):
            return None
        start = self.env.now
        yield self.env.timeout(self.execution.cost(command))
        reply = self._apply_local(command)
        self._account(command, "execute", start)
        return reply

    def _apply_local(self, command: Command) -> Reply:
        try:
            if command.ctype is CommandType.CREATE:
                key = command.variables[0]
                self.store.create(
                    key, self.state_machine.initial_value(key, command.args))
                value = "created"
            elif command.ctype is CommandType.DELETE:
                self.store.delete(command.variables[0])
                value = "deleted"
            else:
                value = self.state_machine.apply(
                    command, ExecutionView(self.store))
            status = ReplyStatus.OK
        except KeyError as error:
            status, value = ReplyStatus.NOK, str(error)
        return self._make_reply(command, status, value)
