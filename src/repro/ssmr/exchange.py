"""Signal/variable exchange buffer shared by partitions and the oracle.

Implements the ``rcvd_signals`` / ``rcvd_variables`` bookkeeping of
Algorithms 1–4: participants in a multi-partition step reliably multicast
one message carrying their signal and their share of the variables, and
wait until every expected peer's signal has arrived. Used by S-SMR
multi-partition execution, the DS-SMR fallback and move transfers, and
create/delete coordination with the oracle.

A group speaks once and listens once when its stack is built speaker-only
(``AtomicMulticast.speaker_only``, the default; the owners pass their
``amcast`` endpoint in):

* every member of the sending group *caches* its outbound exchange, but
  only its speaker (the member whose ``announcing`` is true) *transmits*
  it, and only to the speaker of each destination group;
* a speaker whose :meth:`ExchangeBuffer.wait` ends *relays* one bundle to
  its group's other members: the expected groups, listed in ``from``, and
  the variables merged from all of them. A follower takes a bundle as one
  signal from each group it lists.

An exchange among k groups of r members thus costs k(k−1) + k(r−1)
messages where the speaker transmitting to every member cost r·k(k−1).
With ``speaker_only=False`` every member transmits to every member of the
destination groups, as the paper's Algorithm 1 has every server do, and
nothing is relayed (see DESIGN.md).

Loss recovery is pull-based: a waiter that has not heard from an expected
peer within ``retry_ms`` multicasts a pull request to that peer's group,
and *any* member holding the cached message — the followers that never
transmitted included — re-sends it to every member of the puller's group,
because the puller may be a follower whose bundle was lost (receivers
deduplicate by sending group, so redundant copies are harmless). Without
this, one dropped signal or bundle, or a speaker that crashed before
sending, blocks a partition's executor forever.

The cache is bounded by delivery floors (:mod:`repro.ordering.floor`):
each message is kept under the delivery key of the delivery that sent it
and dropped once every destination group's floor is at or past that key.
Such a group has executed the command in every state its members could
restore, so it never pulls the message again. A group whose floor stays
unset (a :class:`~repro.ordering.paxos.PaxosLog` group) keeps every
message sent to it.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.ordering import ReliableMulticast
from repro.ordering.floor import Key, Retention
from repro.sim import Environment

EXCHANGE = "ssmr-exchange"
EXCHANGE_PULL = "ssmr-exchange-pull"


class ExchangeBuffer:
    """Per-node buffer of exchange messages, keyed by command id.

    ``amcast`` is the group's atomic multicast endpoint, or anything with
    what this uses of it: ``speaker_only`` picks the routing above,
    ``announcing`` says whether this member speaks for the group, and
    ``floors`` / ``on_floor`` give the other groups' delivery floors.
    """

    #: Attributes :meth:`snapshot` leaves out: wiring, counters, and the
    #: waiters of a dead executor.
    TRANSIENT = ("env", "rmcast", "local_name", "retry_ms", "amcast",
                 "_waiters", "pulls_sent", "pulls_served")

    def __init__(self, env: Environment, rmcast: ReliableMulticast,
                 local_name: str, retry_ms: Optional[float] = 60.0, *,
                 amcast):
        self.env = env
        self.rmcast = rmcast
        self.local_name = local_name  # partition (or "oracle") we speak for
        self.retry_ms = retry_ms      # None: legacy block-forever waits
        self.amcast = amcast
        self._signals: dict[str, set[str]] = {}
        self._vars: dict[str, dict] = {}
        self._done: set[str] = set()
        self._waiters: dict[str, object] = {}
        # Outbound cid -> payload: the pull/resend cache, each message
        # kept until every destination's floor passes its key (_kept).
        self._sent: dict[str, dict] = {}
        self._kept = Retention()
        self.pulls_sent = 0
        self.pulls_served = 0
        rmcast.on_deliver(self._on_rmcast)
        amcast.on_floor(self._release)

    def snapshot(self) -> dict:
        """The received and cached exchanges, by reference."""
        return {"signals": {cid: sorted(senders) for cid, senders
                            in self._signals.items()},
                "vars": self._vars, "done": sorted(self._done),
                "sent": self._sent, "kept": self._kept.queues}

    def restore(self, state: dict) -> None:
        """Adopt a snapshot (a private copy)."""
        self._signals = {cid: set(senders)
                         for cid, senders in state["signals"].items()}
        self._vars = state["vars"]
        self._done = set(state["done"])
        self._sent = state["sent"]
        self._kept = Retention(state["kept"])

    def send(self, groups: Iterable[str], cid: str, variables: dict,
             done: bool = False, *, key: Key) -> None:
        """Signal (plus our share of the variables) to ``groups``.

        Every member caches the message for the pull path, under ``key``,
        the delivery key of the delivery that sends it; only the group's
        transmitting member puts it on the wire.

        ``done=True`` marks that this participant already executed the
        command (reply-cache hit): receivers must not re-execute it, which
        would double-apply its writes.
        """
        groups = sorted(set(groups))
        if not groups:
            return
        payload = {
            "kind": EXCHANGE,
            "cid": cid,
            "from": self.local_name,
            "vars": variables,
            "done": done,
        }
        cached = self._sent.get(cid)
        if cached is not None:
            # A re-delivery (client resend) repeats the exchange, usually
            # with no variables left to ship. Merge so the cache — and the
            # resend itself — still carries the original transfer.
            payload["vars"] = {**cached["vars"], **variables}
            payload["done"] = done or cached["done"]
        if self._kept.keep(cid, key, groups, self.amcast.floors):
            self._sent[cid] = payload
        else:
            self._sent.pop(cid, None)   # every destination is past it
        if not self.amcast.announcing:
            return
        to = None
        if self.amcast.speaker_only:
            to = [self.rmcast.directory.speaker(group) for group in groups]
        self._transmit(groups, payload, to)

    def _release(self, group: str, floor: Key) -> None:
        """``group`` rose to ``floor``: drop what no destination needs."""
        for cid in self._kept.release(group, floor):
            del self._sent[cid]

    def _transmit(self, groups: Iterable[str], payload: dict,
                  to: Optional[list] = None) -> None:
        self.rmcast.multicast(groups, payload,
                              size=128 + 64 * len(payload["vars"]), to=to)

    def _on_rmcast(self, payload, message) -> None:
        if not isinstance(payload, dict):
            return
        if payload.get("kind") == EXCHANGE_PULL:
            self._serve_pull(payload)
            return
        if payload.get("kind") != EXCHANGE:
            return
        cid = payload["cid"]
        senders = payload["from"]
        if isinstance(senders, str):
            senders = (senders,)    # one group's own exchange, not a bundle
        signals = self._signals.setdefault(cid, set())
        if signals.issuperset(senders):
            # Duplicate: several members answered a pull, a client-retry
            # resend, a bundle after a pulled copy, or (speaker_only=False)
            # the sender's other replicas.
            return
        signals.update(senders)
        self._vars.setdefault(cid, {}).update(payload["vars"])
        if payload.get("done"):
            self._done.add(cid)
        waiter = self._waiters.pop(cid, None)
        if waiter is not None:
            waiter.succeed(None)

    def _serve_pull(self, payload: dict) -> None:
        cached = self._sent.get(payload["cid"])
        if cached is None:
            return  # we have not executed the command yet; nothing to resend
        self.pulls_served += 1
        self._transmit([payload["reply_to"]], cached)

    def wait(self, cid: str, expected: set[str]):
        """Generator: block until signals from all ``expected`` arrived.

        With ``retry_ms`` set, a lost peer message is recovered by pulling
        the peer's cached exchange for ``cid``. A speaker-only speaker
        then relays what it heard to its followers.
        """
        while not expected.issubset(self._signals.get(cid, set())):
            if cid in self._waiters:
                raise RuntimeError(f"two executors waiting on {cid}")
            event = self.env.event()
            self._waiters[cid] = event
            if self.retry_ms is None:
                yield event
                continue
            timer = self.env.timeout(self.retry_ms)
            yield self.env.any_of([event, timer])
            if not event.triggered:
                self._waiters.pop(cid, None)
                missing = expected - self._signals.get(cid, set())
                for group in sorted(missing):
                    self.pulls_sent += 1
                    self.rmcast.multicast([group], {
                        "kind": EXCHANGE_PULL,
                        "cid": cid,
                        "reply_to": self.local_name,
                    }, size=96)
        if self.amcast.speaker_only and self.amcast.announcing:
            self._relay(cid, expected)

    def _relay(self, cid: str, expected: set[str]) -> None:
        """Bundle what the speaker heard for ``cid`` to its followers."""
        me = self.rmcast.node.name
        followers = [member for member
                     in self.rmcast.directory.members(self.local_name)
                     if member != me]
        if followers:
            self._transmit([self.local_name], {
                "kind": EXCHANGE,
                "cid": cid,
                "from": sorted(expected),
                "vars": self._vars.get(cid, {}),
                "done": cid in self._done,
            }, followers)

    def any_done(self, cid: str) -> bool:
        """True if any participant reported it already executed ``cid``."""
        return cid in self._done

    def collect(self, cid: str) -> dict:
        """Variables received for ``cid``; clears the buffers for it."""
        self._signals.pop(cid, None)
        self._done.discard(cid)
        return self._vars.pop(cid, {})
