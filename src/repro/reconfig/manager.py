"""Live partition join/leave, driven by ordered reconfiguration entries.

The :class:`ReconfigurationManager` is a privileged client (think operator
tooling): it atomically multicasts a reconfiguration entry to the oracle
group *and every partition group*, so the configuration epoch bump is a
fence in every ordered log — all replicas of all groups agree on exactly
which commands executed before and after the membership change. The
oracle replicas apply the entry deterministically and acknowledge with a
migration plan (batched moves); the manager then issues those moves one
by one through the ordinary DS-SMR move machinery — sources ship values
over reliable multicast, destinations install and acknowledge, the oracle
updates its map — with timeout-driven resends under fresh multicast uids.
The manager is the moves' issuer: it numbers them like a client numbers
its commands (:class:`~repro.resilience.SessionIssuer`), and participants
deduplicate by that session, so resends are exactly-once. A join and a
leave may run at once, so the watermark is the oldest open move, not the
newest.

* **join**: the new partition's group must already exist (empty servers,
  held or running); the entry adds it to the oracle's membership, bumps
  the epoch, and the plan fills the newcomer to its fair share from the
  most-loaded donors.
* **leave**: a *leave-begin* entry fences the partition out of the
  membership (consults stop routing to it) and plans a full drain; once
  the moves ran, *leave-commit* entries retire it — re-planning any keys
  that raced onto it in the meantime — until the oracle reports it empty.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net import Message, Network
from repro.ordering import GroupDirectory, MulticastClient, ProtocolNode
from repro.resilience import (RequestTimeout, RetryPolicy, SessionIssuer,
                              with_timeout)
from repro.sim import Environment
from repro.smr.command import Command, CommandType, Reply
from repro.smr.executor import REPLY_KIND
from repro.core.oracle import ORACLE_GROUP, RECONFIG_ACK_KIND


class ReconfigError(RuntimeError):
    """The oracle rejected a reconfiguration entry (bad membership)."""


class ReconfigurationManager:
    """Drives live partition joins and leaves for one deployment."""

    #: Leave-commit rounds before giving up on a drain that never empties.
    MAX_COMMIT_ATTEMPTS = 50

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, name: str = "rm0",
                 retry_policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None):
        self.env = env
        self.directory = directory
        self.node = ProtocolNode(env, network, name)
        self.mcast = MulticastClient(self.node, directory)
        self.retry_policy = retry_policy or RetryPolicy()
        self._rng = rng or random.Random(0)
        self.tracer = self.node.tracer
        self._ack_waits: dict[str, object] = {}
        self._reply_waits: dict[str, object] = {}
        self._uid_counts: dict[str, int] = {}
        self.session = SessionIssuer()
        # Metrics (scraped by the harness into the reconfig gauges).
        self.joins = 0
        self.leaves = 0
        self.keys_migrated = 0
        self.batches_sent = 0
        self.move_resends = 0
        self.entry_resends = 0
        self.epoch = 0              # last epoch acknowledged by the oracle
        self.node.on(RECONFIG_ACK_KIND, self._on_ack)
        self.node.on(REPLY_KIND, self._on_reply)

    # -- inbound ------------------------------------------------------------

    def _on_ack(self, message: Message) -> None:
        event = self._ack_waits.pop(message.payload["rid"], None)
        if event is not None:       # first replica's ack wins; rest drop
            event.succeed(message.payload)

    def _on_reply(self, message: Message) -> None:
        reply: Reply = message.payload
        event = self._reply_waits.pop(reply.cid, None)
        if event is not None:
            event.succeed(reply)

    def _next_uid(self, base: str) -> str:
        count = self._uid_counts.get(base, 0)
        self._uid_counts[base] = count + 1
        return base if count == 0 else f"{base}#r{count}"

    # -- ordered reconfiguration entries ------------------------------------

    def _all_groups(self) -> list[str]:
        """Oracle + every partition group: the epoch fence must appear in
        every ordered log so all replicas bump identically."""
        return sorted(self.directory.groups())

    def _ordered_entry(self, kind: str, partition: str):
        """Generator: amcast one reconfiguration entry, await an oracle ack.

        Retries under fresh uids; the oracle caches join/leave-begin acks,
        so a re-delivered entry yields the original plan.
        """
        rid = self.env.ids.new("rcfg", self.node.name)
        spec = {"kind": kind, "partition": partition, "rid": rid,
                "manager": self.node.name}
        policy = self.retry_policy
        sends = 0
        while True:
            sends += 1
            if sends > 1:
                self.entry_resends += 1
            event = self.env.event()
            self._ack_waits[rid] = event
            self.mcast.multicast(self._all_groups(), {"reconfig": spec},
                                 size=192, uid=self._next_uid(f"am:{rid}"))
            fired, ack = yield from with_timeout(
                self.env, event, policy.timeout_ms if policy else None)
            if fired:
                break
            self._ack_waits.pop(rid, None)
            if policy.gives_up(sends):
                raise RequestTimeout(rid, sends)
            yield self.env.timeout(policy.backoff_ms(sends, self._rng))
        if "error" in ack:
            raise ReconfigError(f"{kind} {partition}: {ack['error']}")
        self.epoch = max(self.epoch, ack.get("epoch", 0))
        return ack

    # -- bulk migration -----------------------------------------------------

    def _run_batches(self, batches: list[dict]):
        """Generator: issue the plan's moves through the DS-SMR machinery."""
        for batch in batches:
            yield from self._run_move(batch)

    def _run_move(self, batch: dict):
        move = Command(op="move", ctype=CommandType.MOVE,
                       variables=tuple(batch["variables"]),
                       args={"sources": [batch["source"]],
                             "dest": batch["dest"],
                             "notify": self.node.name},
                       cid=batch["cid"], client=self.node.name)
        self.session.begin(move)
        dests = sorted({ORACLE_GROUP, batch["source"], batch["dest"]})
        envelope = {"command": move, "dests": dests}
        policy = self.retry_policy
        sends = 0
        while True:
            sends += 1
            if sends > 1:
                self.move_resends += 1
            event = self.env.event()
            self._reply_waits[move.cid] = event
            self.mcast.multicast(dests, envelope,
                                 size=move.payload_size(),
                                 uid=self._next_uid(f"am:{move.cid}"))
            fired, _ = yield from with_timeout(
                self.env, event, policy.timeout_ms if policy else None)
            if fired:
                break
            self._reply_waits.pop(move.cid, None)
            if policy.gives_up(sends):
                raise RequestTimeout(move.cid, sends)
            yield self.env.timeout(policy.backoff_ms(sends, self._rng))
        self.session.finish(move)
        self.batches_sent += 1
        self.keys_migrated += len(batch["variables"])

    # -- public API ---------------------------------------------------------

    def join(self, partition: str):
        """Generator: add ``partition`` to the deployment and rebalance.

        The partition's server group must already be registered in the
        directory (with its replicas attached to the network) — the epoch
        fence and the bulk moves are addressed to it.
        """
        started = self.env.now
        ack = yield from self._ordered_entry("join", partition)
        yield from self._run_batches(ack["batches"])
        self.joins += 1
        if self.tracer.enabled:
            self.tracer.span(f"reconfig:join:{partition}", "reconfig",
                             self.node.name, started, self.env.now,
                             kind="join", partition=partition,
                             epoch=ack["epoch"], keys=ack["keys"])
        return ack

    def leave(self, partition: str):
        """Generator: drain ``partition`` and retire it from the deployment.

        Runs leave-begin, migrates the planned keys, then leave-commit
        rounds (each re-planning stragglers) until the oracle confirms
        the partition holds nothing.
        """
        started = self.env.now
        ack = yield from self._ordered_entry("leave_begin", partition)
        yield from self._run_batches(ack["batches"])
        keys = ack["keys"]
        for _attempt in range(self.MAX_COMMIT_ATTEMPTS):
            commit = yield from self._ordered_entry("leave_commit", partition)
            if commit["drained"]:
                break
            yield from self._run_batches(commit["batches"])
            keys += commit["keys"]
        else:
            raise ReconfigError(f"leave {partition}: drain never converged "
                                f"after {self.MAX_COMMIT_ATTEMPTS} commits")
        self.leaves += 1
        if self.tracer.enabled:
            self.tracer.span(f"reconfig:leave:{partition}", "reconfig",
                             self.node.name, started, self.env.now,
                             kind="leave", partition=partition,
                             epoch=self.epoch, keys=keys)
        return {"epoch": self.epoch, "keys": keys}
