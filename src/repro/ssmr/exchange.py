"""Signal/variable exchange buffer shared by partitions and the oracle.

Implements the ``rcvd_signals`` / ``rcvd_variables`` bookkeeping of
Algorithms 1–4: participants in a multi-partition step reliably multicast
one message carrying their signal and their share of the variables, and
wait until every expected peer's signal has arrived. Used by S-SMR
multi-partition execution, DS-SMR moves, and create/delete coordination
with the oracle.

A group speaks once: every member of the sending group *caches* its
outbound exchange, but only the member for which ``transmits()`` is true —
the owners wire it to ``AtomicMulticast.announcing``, i.e. the group's
speaker unless the stack was built with ``speaker_only=False`` —
*transmits* it. (The paper's Algorithm 1 has every server multicast its
signal and receivers drop the copies; see DESIGN.md.)

Loss recovery is pull-based: a waiter that has not heard from an expected
peer within ``retry_ms`` multicasts a pull request to that peer's group,
and *any* member holding the cached message — the followers that never
transmitted included — re-sends it (receivers deduplicate by sending
group, so redundant copies are harmless). Without this, one dropped
signal, or a speaker that crashed before sending, blocks a partition's
executor forever.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.ordering import ReliableMulticast
from repro.sim import Environment

EXCHANGE = "ssmr-exchange"
EXCHANGE_PULL = "ssmr-exchange-pull"


class ExchangeBuffer:
    """Per-node buffer of exchange messages, keyed by command id."""

    def __init__(self, env: Environment, rmcast: ReliableMulticast,
                 local_name: str, retry_ms: Optional[float] = 60.0, *,
                 transmits: Callable[[], bool]):
        self.env = env
        self.rmcast = rmcast
        self.local_name = local_name  # partition (or "oracle") we speak for
        self.retry_ms = retry_ms      # None: legacy block-forever waits
        self.transmits = transmits    # does this member speak for the group?
        self._signals: dict[str, set[str]] = {}
        self._vars: dict[str, dict] = {}
        self._done: set[str] = set()
        self._waiters: dict[str, object] = {}
        # Outbound cid -> payload: the pull/resend cache; pruning waits
        # for destination checkpoint watermarks.
        self._sent: dict[str, dict] = {}
        self.pulls_sent = 0
        self.pulls_served = 0
        rmcast.on_deliver(self._on_rmcast)

    def send(self, groups: Iterable[str], cid: str, variables: dict,
             done: bool = False) -> None:
        """Signal (plus our share of the variables) to ``groups``.

        Every member caches the message for the pull path; only the
        group's transmitting member puts it on the wire.

        ``done=True`` marks that this participant already executed the
        command (reply-cache hit): receivers must not re-execute it, which
        would double-apply its writes.
        """
        groups = list(groups)
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
        self._sent[cid] = payload
        if self.transmits():
            self._transmit(groups, payload)

    def _transmit(self, groups: Iterable[str], payload: dict) -> None:
        self.rmcast.multicast(groups, payload,
                              size=128 + 64 * len(payload["vars"]))

    def _on_rmcast(self, payload, message) -> None:
        if not isinstance(payload, dict):
            return
        if payload.get("kind") == EXCHANGE_PULL:
            self._serve_pull(payload)
            return
        if payload.get("kind") != EXCHANGE:
            return
        cid = payload["cid"]
        sender = payload["from"]
        signals = self._signals.setdefault(cid, set())
        if sender in signals:
            # Duplicate: several members answered a pull, a client-retry
            # resend, or (speaker_only=False) the sender's other replicas.
            return
        signals.add(sender)
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
        the peer's cached exchange for ``cid``.
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

    def any_done(self, cid: str) -> bool:
        """True if any participant reported it already executed ``cid``."""
        return cid in self._done

    def collect(self, cid: str) -> dict:
        """Variables received for ``cid``; clears the buffers for it."""
        self._signals.pop(cid, None)
        self._done.discard(cid)
        return self._vars.pop(cid, {})
