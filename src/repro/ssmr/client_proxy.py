"""S-SMR client proxy.

Consults the client-local static oracle for the partitions a command
accesses and atomically multicasts the command to them. The command travels
inside an envelope carrying ``dests`` so every receiving partition knows who
else is involved (needed for the signal exchange of Algorithm 1). With a
:class:`~repro.resilience.RetryPolicy`, lost requests/replies are resent
under fresh multicast uids; servers deduplicate by the client's session.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net import Network
from repro.ordering import GroupDirectory
from repro.resilience import RetryPolicy
from repro.sim import Environment, LatencyRecorder
from repro.smr.client import BaseClient
from repro.smr.command import Command, Reply
from repro.ssmr.oracle import StaticOracle


class SsmrClient(BaseClient):
    """Client of an S-SMR deployment."""

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, name: str, oracle: StaticOracle,
                 latency: Optional[LatencyRecorder] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None):
        super().__init__(env, network, directory, name, latency,
                         retry_policy=retry_policy, rng=rng)
        self.oracle = oracle
        self.multi_partition_commands = 0

    def run_command(self, command: Command):
        """Generator: execute one command; returns the :class:`Reply`."""
        start = self.begin_command(command)
        dests = sorted(self.oracle.partitions_for(command))
        if len(dests) > 1:
            self.multi_partition_commands += 1

        def send(attempt: int) -> None:
            envelope = {"command": command, "dests": dests,
                        "attempt": attempt}
            self.mcast.multicast(dests, envelope,
                                 size=command.payload_size(),
                                 uid=self.next_uid(command,
                                                   f"am:{command.cid}"))

        reply: Reply = yield from self.resilient_request(command.cid, send)
        self.end_command(command, start, reply, partitions=len(dests))
        return reply
