"""DS-SMR client proxy (Algorithm 2 of the paper + the location cache).

The proxy hides partitioning from the application: it consults the oracle
(or the local cache), triggers moves for multi-partition commands, retries
when a partition replies that variables moved away, and falls back to
S-SMR-style all-partition execution after ``max_retries`` attempts so that
every command terminates.

Two retry layers coexist and must not be confused:

* *algorithm attempts* — Algorithm 2's do/while iterations (re-consult
  after a ``retry`` reply, fall back after ``max_retries``); these change
  the attempt tag on the command envelope.
* *network resends* — timeout-driven re-multicasts of the *same* logical
  step under fresh uids (:class:`~repro.resilience.RetryPolicy`); servers
  deduplicate by the client's session, so resends are exactly-once. A
  lost oracle notification for a synchronous move is recovered by
  re-consulting: the consult is idempotent and reports the post-move
  locations.

Metrics counted per client (and aggregated by the harness): consults, cache
hits, retries, moves initiated and fallbacks — the quantities behind the
motivation and oracle-load figures.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net import Message, Network
from repro.ordering import GroupDirectory
from repro.resilience import RequestTimeout, RetryPolicy, with_timeout
from repro.sim import Environment, LatencyRecorder
from repro.smr.client import BaseClient
from repro.smr.command import Command, CommandType, Reply, ReplyStatus
from repro.core.oracle import ORACLE_GROUP, PROPHECY_KIND
from repro.core.prophecy import Prophecy, ProphecyStatus


class DssmrClient(BaseClient):
    """Client of a DS-SMR deployment."""

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, name: str,
                 partitions: tuple[str, ...],
                 max_retries: int = 3,
                 use_cache: bool = True,
                 latency: Optional[LatencyRecorder] = None,
                 broadcast_submit: bool = False,
                 retry_policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None,
                 tracer=None):
        super().__init__(env, network, directory, name, latency,
                         broadcast_submit=broadcast_submit,
                         retry_policy=retry_policy, rng=rng, tracer=tracer)
        self.partitions = tuple(partitions)
        self.max_retries = max_retries
        self.use_cache = use_cache
        self.location_cache: dict = {}
        # Last configuration epoch observed in a prophecy; a newer epoch
        # flushes the location cache (entries may point at partitions the
        # reconfiguration drained). See repro.reconfig.
        self.config_epoch = 0
        self.epoch_flushes = 0
        self._prophecy_waits: dict[str, object] = {}
        # Metrics.
        self.consult_count = 0
        self.cache_hits = 0
        self.retry_count = 0
        self.fallback_count = 0
        self.moves_initiated = 0
        self.node.on(PROPHECY_KIND, self._on_prophecy)

    # -- prophecy plumbing -----------------------------------------------------

    def _on_prophecy(self, message: Message) -> None:
        payload = message.payload
        event = self._prophecy_waits.pop(payload["cid"], None)
        if event is not None:
            event.succeed(payload["prophecy"])

    def _consult(self, command: Command, attempt: int):
        """Generator: ask the oracle about ``command``; returns the prophecy.

        Consults are idempotent at the oracle (pure recompute + resend), so
        a timed-out consult is simply re-multicast under a fresh uid.
        """
        self.consult_count += 1
        consult_cid = f"{command.cid}:c{attempt}"
        consult = Command(op="consult", ctype=CommandType.CONSULT,
                          variables=command.variables,
                          args={"inner_ctype": command.ctype.value},
                          cid=consult_cid, client=self.name,
                          seq=command.seq, acked=command.acked)
        policy = self.retry_policy
        sends = 0
        while True:
            sends += 1
            event = self.env.event()
            self._prophecy_waits[consult_cid] = event
            if self.tracer.enabled:
                self.tracer.mark_send(consult_cid, self.env.now)
            wait_start = self.env.now
            self.mcast.multicast([ORACLE_GROUP],
                                 {"command": consult},
                                 size=consult.payload_size(),
                                 uid=self.next_uid(command,
                                                   f"am:{consult_cid}"))
            if sends > 1:
                self.resends += 1
            fired, prophecy = yield from with_timeout(
                self.env, event, policy.timeout_ms if policy else None)
            if fired:
                if prophecy.status is ProphecyStatus.OVERLOAD:
                    # Consult shed by the oracle's admission control —
                    # explicit backpressure on the prophecy channel.
                    self.trace_stage(consult_cid, "consult", wait_start,
                                     overload=True)
                    self.overload_replies += 1
                    self._note_congestion()
                    self.node.flight("qos", f"{consult_cid} overload "
                                            f"({prophecy.reason})")
                    if policy is not None and policy.gives_up(sends):
                        raise RequestTimeout(consult_cid, sends)
                    yield from self.acquire_retry(consult_cid)
                    backoff_start = self.env.now
                    yield self.env.timeout(self.overload_backoff_ms(sends))
                    self.trace_stage(consult_cid, "retry-wait",
                                     backoff_start)
                    continue
                self.trace_stage(consult_cid, "consult", wait_start)
                self._note_success()
                return prophecy
            self.trace_stage(consult_cid, "consult", wait_start, timeout=True)
            self._prophecy_waits.pop(consult_cid, None)
            self.timeouts += 1
            self._note_congestion()
            if policy.gives_up(sends):
                raise RequestTimeout(consult_cid, sends)
            yield from self.acquire_retry(consult_cid)
            backoff_start = self.env.now
            yield self.env.timeout(policy.backoff_ms(sends, self._rng))
            self.trace_stage(consult_cid, "retry-wait", backoff_start)

    # -- main entry point -----------------------------------------------------

    def run_command(self, command: Command):
        """Generator: execute one command; returns the final :class:`Reply`.

        Implements the do/while loop of Algorithm 2, including the cache
        fast path and the S-SMR fallback.
        """
        self.begin_command(command)
        start = self.env.now
        self.tracer.begin_trace(command.cid, self.name, start, op=command.op)
        attempt = 0
        fell_back = False
        reconsult = False
        while True:
            attempt += 1
            if attempt > self.max_retries + 1 and not reconsult:
                reply = yield from self._fallback(command, attempt)
                if reply.status is not ReplyStatus.RETRY:
                    fell_back = True
                    break
                # The variables left every partition of our view (a
                # concurrent join or move): consult once more before the
                # next fallback, which also ends the command if they are
                # gone for good.
                self.retry_count += 1
                self._invalidate_cache(command)
                reconsult = True
                continue
            reconsult = False
            route = yield from self._route(command, attempt)
            if route is None:
                # Routing could not converge (concurrent moves kept the
                # variables apart through a full round of re-consults);
                # burn an algorithm attempt so the do/while eventually
                # reaches the fallback and the command still terminates.
                self.retry_count += 1
                self._invalidate_cache(command)
                continue
            if isinstance(route, Reply):
                reply = route       # terminal answer from the oracle
                break
            reply = yield from self._attempt(command, route, attempt)
            if reply.status is not ReplyStatus.RETRY:
                break
            self.retry_count += 1
            self._invalidate_cache(command)
        self.session.finish(command)
        if (reply.status is ReplyStatus.OK
                and command.ctype is CommandType.ACCESS
                and not fell_back and reply.partition):
            # A fallback execution leaves variables spread across
            # partitions, so its reply must not populate the cache.
            for key in command.variables:
                self.location_cache[key] = reply.partition
        self.latency.record(self.env.now, self.env.now - start)
        self.tracer.end_trace(command.cid, self.env.now,
                              status=reply.status.value, attempts=attempt,
                              fallback=fell_back)
        self.profile_command(command.cid, start)
        return reply

    # -- routing: cache or oracle ------------------------------------------------

    def _route(self, command: Command, attempt: int):
        """Generator: decide dests; returns envelope info, a terminal
        Reply, or ``None`` when routing did not converge within a bounded
        number of consult rounds (the caller burns an attempt, so the
        fallback stays reachable and every command terminates)."""
        if (self.use_cache and command.ctype is CommandType.ACCESS
                and command.variables):
            cached = {self.location_cache.get(key)
                      for key in command.variables}
            if None not in cached and len(cached) == 1:
                self.cache_hits += 1
                return {"dests": [cached.pop()]}
        rounds = 0
        while True:
            rounds += 1
            if rounds > self.max_retries + 1:
                return None
            prophecy = yield from self._consult(command, attempt)
            if prophecy.epoch > self.config_epoch:
                self.config_epoch = prophecy.epoch
                self.location_cache.clear()
                self.epoch_flushes += 1
            if prophecy.status is ProphecyStatus.NOK:
                return Reply(cid=command.cid, status=ReplyStatus.NOK,
                             value=prophecy.reason, sender=ORACLE_GROUP)
            if prophecy.status is ProphecyStatus.OK:
                return Reply(cid=command.cid, status=ReplyStatus.OK,
                             value=prophecy.reason, sender=ORACLE_GROUP)
            self.location_cache.update(prophecy.tuples)
            if command.ctype in (CommandType.CREATE, CommandType.DELETE):
                return {"dests": [prophecy.target or
                                  next(iter(prophecy.partitions))],
                        "with_oracle": True}
            dests = sorted(prophecy.partitions)
            if len(dests) <= 1:
                return {"dests": dests}
            # Multi-partition access: gather everything at the target first.
            target = prophecy.target
            if prophecy.sync:
                # The oracle already issued the move; wait for the
                # destination partition's acknowledgement. If it is lost,
                # re-consult: the oracle reports the post-move locations,
                # so the loop converges without re-issuing the move.
                policy = self.retry_policy
                event = self.wait_reply(prophecy.move_cid)
                wait_start = self.env.now
                fired, _ = yield from with_timeout(
                    self.env, event,
                    policy.timeout_ms if policy else None)
                if not fired:
                    self.trace_stage(prophecy.move_cid, "move", wait_start,
                                     sync=True, timeout=True)
                    self.cancel_wait(prophecy.move_cid)
                    self.timeouts += 1
                    continue
                self.trace_stage(prophecy.move_cid, "move", wait_start,
                                 sync=True)
                for key in command.variables:
                    self.location_cache[key] = target
                return {"dests": [target]}
            yield from self._move(command, prophecy, target, attempt)
            return {"dests": [target]}

    def _move(self, command: Command, prophecy: Prophecy, target: str,
              attempt: int):
        """Generator: client-issued move of the command's variables."""
        variables = tuple(v for v, p in prophecy.tuples.items()
                          if p != target)
        sources = sorted({p for p in prophecy.tuples.values()
                          if p != target})
        move_cid = f"{command.cid}:m{attempt}"
        move = Command(op="move", ctype=CommandType.MOVE,
                       variables=variables,
                       args={"sources": sources, "dest": target,
                             "notify": self.name},
                       cid=move_cid, client=self.name,
                       seq=command.seq, acked=command.acked)
        self.moves_initiated += len(variables)
        dests = sorted({ORACLE_GROUP, target, *sources})

        def send(_sends: int) -> None:
            self.mcast.multicast(dests, {"command": move, "dests": dests},
                                 size=move.payload_size(),
                                 uid=self.next_uid(command,
                                                   f"am:{move_cid}"))

        # Destination partition confirms the variables arrived; moves are
        # deduplicated by the client's session at every participant, so
        # resends are exactly-once.
        yield from self.send_with_retries(move_cid, send, stage="move")
        for key in variables:
            self.location_cache[key] = target

    # -- attempts ------------------------------------------------------------------

    def _attempt(self, command: Command, route: dict, attempt: int):
        """Generator: one multicast of the command itself."""
        dests = list(route["dests"])
        groups = sorted(set(dests) | ({ORACLE_GROUP}
                                      if route.get("with_oracle") else set()))
        if command.ctype in (CommandType.CREATE, CommandType.DELETE):
            command.args = dict(command.args, partition=dests[0])
        envelope = {"command": command, "dests": dests, "attempt": attempt}

        def send(_sends: int) -> None:
            self.mcast.multicast(groups, envelope,
                                 size=command.payload_size(),
                                 uid=self.next_uid(
                                     command, f"am:{command.cid}:a{attempt}"))

        reply: Reply = yield from self.send_with_retries(
            command.cid, send, expected_attempt=attempt)
        return reply

    def _fallback(self, command: Command, attempt: int):
        """Generator: S-SMR-style execution across all partitions."""
        self.fallback_count += 1
        dests = sorted(self.partitions)
        envelope = {"command": command, "dests": dests, "mode": "fallback",
                    "attempt": attempt}

        def send(_sends: int) -> None:
            self.mcast.multicast(dests, envelope,
                                 size=command.payload_size(),
                                 uid=self.next_uid(
                                     command, f"am:{command.cid}:a{attempt}"))

        reply: Reply = yield from self.send_with_retries(
            command.cid, send, expected_attempt=attempt)
        return reply

    # -- cache ---------------------------------------------------------------------

    def _invalidate_cache(self, command: Command) -> None:
        for key in command.variables:
            self.location_cache.pop(key, None)

    # -- reconfiguration ------------------------------------------------------------

    def update_partitions(self, partitions) -> None:
        """Install the post-reconfiguration partition view.

        Called by the harness once a join/leave completes; the fallback
        path multicasts to ``self.partitions``, so a stale view would
        miss the newcomer (or address a retired partition) there. Cached
        locations pointing at a removed partition are dropped.
        """
        partitions = tuple(partitions)
        removed = set(self.partitions) - set(partitions)
        self.partitions = partitions
        if removed:
            for key in [k for k, p in self.location_cache.items()
                        if p in removed]:
                del self.location_cache[key]

    # -- hints (used by graph-partitioned oracle deployments) ---------------------

    def send_hint(self, vertices, edges) -> None:
        """Inform the oracle's workload graph (fire-and-forget, ordered)."""
        hint_cid = self.env.ids.new("cmd", self.name)
        self.mcast.multicast([ORACLE_GROUP], {
            "hint": {"vertices": list(vertices),
                     "edges": [list(edge) for edge in edges]},
        }, size=96 + 16 * len(edges), uid=f"am:{hint_cid}")
