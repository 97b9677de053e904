"""DS-SMR partition server proxy (Algorithm 3 of the paper).

Extends the S-SMR server with the dynamic-partitioning behaviours:

* **access** — executes only if *all* the command's variables are stored
  locally; otherwise replies ``retry`` (the variables moved away since the
  client consulted). Commands arriving with ``mode="fallback"`` take the
  S-SMR multi-partition path instead, which is how termination is
  guaranteed after repeated retries; a variable that none of the
  fallback's partitions holds (a concurrent move or join took it
  elsewhere) gets ``retry`` too.
* **move** — a source partition ships its share of the moved variables to
  the destination partition via reliable multicast and forgets them; the
  destination waits for one transfer message per source, installs the
  values, and acknowledges to the client that triggered the move.
* **create / delete** — executed in coordination with the oracle: partition
  and oracle exchange signals so creates and deletes serialize correctly
  against each other (Task 2/3 of the oracle algorithm).
"""

from __future__ import annotations

from repro.ordering import AmcastDelivery
from repro.resilience import STALE
from repro.sim import Counter
from repro.smr.command import Command, CommandType, Reply, ReplyStatus
from repro.smr.executor import REPLY_KIND, delivery_attempt
from repro.ssmr.server import SsmrServer
from repro.core.oracle import ORACLE_GROUP


class DssmrServer(SsmrServer):
    """One replica of one DS-SMR partition."""

    TRANSIENT = SsmrServer.TRANSIENT + ("retries_sent", "moves_in",
                                        "moves_out")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.retries_sent = Counter(f"{self.node.name}/retries")
        self.moves_in = Counter(f"{self.node.name}/moves-in")
        self.moves_out = Counter(f"{self.node.name}/moves-out")

    def _handle_delivery(self, delivery: AmcastDelivery):
        envelope = delivery.payload
        command = envelope.get("command")
        ctype = getattr(command, "ctype", None)  # a reconfig fence has none
        if ctype is CommandType.MOVE:
            return (yield from self._exec_move(command))
        if ctype is CommandType.ACCESS and envelope.get("mode") != "fallback":
            # The single-partition fast path (inline, like S-SMR's).
            attempt = delivery_attempt(envelope)
            if (self._answered(command, attempt)
                    or self._retry_if_moved(command, attempt)):
                return None
            start = self.env.now
            yield self.env.timeout(self.execution.cost(command))
            self._account(command, "execute", start)
            return self._apply_local(command)
        # Reconfig fences, create/delete and fallback accesses reuse the
        # S-SMR machinery, with the oracle joining the signal exchange for
        # create/delete.
        reply = yield from super()._handle_delivery(delivery)
        if reply is not None and reply.status is ReplyStatus.RETRY:
            # A fallback that executed nothing: not recorded as executed.
            reply.attempt = delivery_attempt(envelope)
            self._answer_retry(command, reply, self._answers(envelope))
            return None
        return reply

    # -- parallel execution (repro.smr.parallel) ------------------------------

    def _pool_eligible(self, envelope, command: Command) -> bool:
        """Non-fallback accesses (always single-partition).

        Fallback-mode accesses take the S-SMR multi-partition machinery
        and serialize; moves, creates/deletes and reconfig fences mutate
        the store key-set (or the epoch) and serialize too.
        """
        return (command.ctype is CommandType.ACCESS
                and envelope.get("mode") != "fallback")

    def _declined(self, command: Command, attempt: int) -> bool:
        # Sound at dispatch time: moves (and creates/deletes) barrier on a
        # drained pool, so the store key-set cannot change while work is
        # in flight.
        return self._retry_if_moved(command, attempt)

    # -- access (single-partition fast path) ---------------------------------

    def _retry_if_moved(self, command: Command, attempt: int) -> bool:
        """Reply ``retry`` if variables moved away since the client
        consulted; True when it did."""
        missing = self.store.missing(command.variables)
        if missing:
            self.retries_sent.increment(self.env.now)
            self._answer_retry(command, self._make_reply(
                command, ReplyStatus.RETRY, {"missing": missing}, attempt))
        return bool(missing)

    def _answer_retry(self, command: Command, reply: Reply,
                      answer: bool = True) -> None:
        """Keep a ``retry`` verdict in the issuer's session, and send it
        when ``answer``: a later copy of the same attempt is then its
        duplicate, and never runs here should the variables come back."""
        self.replies.store(command, reply)
        if answer:
            self._send_reply(command, reply)

    # -- access (fallback) -------------------------------------------------------

    def _missing_reply(self, command: Command, missing: list) -> Reply:
        # Only a fallback gets here (the fast path checked first): every
        # destination took part, so the variables live on a partition
        # outside the client's view.
        self.retries_sent.increment(self.env.now)
        return self._make_reply(command, ReplyStatus.RETRY,
                                {"missing": missing})

    # -- move --------------------------------------------------------------------

    def _exec_move(self, command: Command):
        sources = set(command.args["sources"])
        dest = command.args["dest"]
        notify = command.args.get("notify")
        cached = self.replies.classify(command)
        if cached is STALE:
            # Its issuer has the destination's acknowledgement, so every
            # participant already ran the move.
            return
        if self.partition in sources:
            # Ship whatever we still hold (possibly nothing, if an earlier
            # move already took these variables) and forget it — once,
            # recorded in the issuer's session. A re-delivery (the issuer
            # re-multicast the move after a timeout) only repeats the
            # cached transfer: the destination ignores it, so a variable
            # that has come back since would be popped here and installed
            # nowhere.
            shipped = {}
            if cached is None:
                for key in command.variables:
                    if key in self.store:
                        shipped[key] = self.store.pop(key)
                self.replies.store(command, self._make_reply(
                    command, ReplyStatus.OK, {"shipped": len(shipped)}))
            self.moves_out.increment(self.env.now, len(shipped))
            self.exchange.send([dest], command.cid, shipped,
                               key=self.delivery_key)
            start = self.env.now
            yield self.env.timeout(self.execution.base_ms)
            self._account(command, "move", start, role="source",
                          shipped=len(shipped))
            self.node.flight("move",
                             f"shipped {len(shipped)} var(s) to {dest}")
        elif self.partition == dest:
            if cached is None:
                start = self.env.now
                yield from self.exchange.wait(command.cid, sources)
                received = self.exchange.collect(command.cid)
                for key, value in received.items():
                    self.store.write(key, value)
                self.moves_in.increment(self.env.now, len(received))
                yield self.env.timeout(self.execution.base_ms)
                self._account(command, "move", start, role="dest",
                              received=len(received))
                self.node.flight("move",
                                 f"installed {len(received)} var(s)")
                cached = self._make_reply(command, ReplyStatus.OK,
                                          {"moved": len(received)})
                self.replies.store(command, cached)
            if notify and self.amcast.announcing:
                self.node.send(notify, REPLY_KIND, cached, size=128)

    # -- create / delete (coordinated with the oracle) -----------------------

    def _oracle_verdict(self, command: Command):
        """Signal exchange with the oracle (both sides send, then wait);
        the oracle's signal carries the verdict of the create/create or
        create/delete race."""
        self.exchange.send([ORACLE_GROUP], command.cid, {},
                           key=self.delivery_key)
        start = self.env.now
        yield from self.exchange.wait(command.cid, {ORACLE_GROUP})
        self._account(command, "exchange", start, peers=1)
        return self.exchange.collect(command.cid).get("verdict")

    def _exec_create(self, command: Command):
        if (yield from self._oracle_verdict(command)) != "ok":
            return self._make_reply(command, ReplyStatus.NOK, "exists")
        return (yield from super()._exec_create(command))

    def _exec_delete(self, command: Command):
        if (yield from self._oracle_verdict(command)) != "ok":
            return self._make_reply(command, ReplyStatus.NOK, "missing")
        return (yield from super()._exec_delete(command))
