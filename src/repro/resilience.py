"""Request-level resilience: timeouts, retry/backoff and reply dedup.

The protocols in this repository are safe under message loss (ordered logs
deduplicate by uid, servers by client session), but a client that never resends
a lost request — or never re-elicits a lost reply — blocks forever. This
module holds the pieces every client/server stack shares:

* :class:`RetryPolicy` — per-request virtual-time timeout plus capped
  exponential backoff with jitter, drawn from the simulation's seeded RNG
  so chaos campaigns stay bit-for-bit reproducible.
* :func:`with_timeout` — generator helper racing a reply event against a
  timeout, the building block of every resilient wait.
* :class:`SessionIssuer` and :class:`ReplyCache` — the two halves of an
  exactly-once *session* per issuer (RIFL-style): the issuer numbers its
  commands and tells every server the oldest one it has not finished;
  a server keeps only the replies of unfinished commands, re-sends them
  (re-tagged with the caller's current attempt) when a retry re-delivers
  an executed command, and ignores copies of finished ones.

Clients tag every resend with an attempt number and servers echo it, so a
straggling reply from an abandoned attempt can never answer a newer one
(see :class:`~repro.smr.command.Reply`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.sim import Environment, Event


class RequestTimeout(Exception):
    """A request exhausted its retry budget without receiving a reply."""

    def __init__(self, cid: str, attempts: int):
        super().__init__(f"request {cid!r} timed out after "
                         f"{attempts} attempt(s)")
        self.cid = cid
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff knobs of one client's resilient request loop.

    ``timeout_ms`` is the per-attempt virtual-time wait for a reply;
    ``backoff_base_ms * backoff_factor^(attempt-1)`` (capped at
    ``backoff_max_ms``) is slept between attempts, shrunk by up to
    ``jitter`` (a fraction of the backoff) drawn from the client's seeded
    RNG so that synchronised clients desynchronise deterministically.
    ``max_attempts == 0`` retries forever — the right default for chaos
    campaigns where every injected fault eventually heals.

    ``budget_ratio`` arms a retry *budget* (default ``None`` = off, the
    historical behaviour): each success deposits ``budget_ratio``
    withdrawal rights, each retry withdraws one, so sustained retries
    are capped at that fraction of the recent success rate and the
    retry loop cannot multiply offered load during overload. See
    :class:`RetryBudget`.
    """

    timeout_ms: float = 50.0
    backoff_base_ms: float = 5.0
    backoff_factor: float = 2.0
    backoff_max_ms: float = 200.0
    jitter: float = 0.5
    max_attempts: int = 0
    budget_ratio: Optional[float] = None

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")
        if self.budget_ratio is not None and not 0 < self.budget_ratio <= 1:
            raise ValueError("budget_ratio must be in (0, 1]")

    def make_budget(self) -> Optional["RetryBudget"]:
        """Build this policy's retry budget, or None when disabled."""
        if self.budget_ratio is None:
            return None
        return RetryBudget(ratio=self.budget_ratio)

    def backoff_ms(self, attempt: int,
                   rng: Optional[random.Random] = None) -> float:
        """Backoff before attempt ``attempt + 1`` (attempts count from 1)."""
        base = min(self.backoff_max_ms,
                   self.backoff_base_ms
                   * self.backoff_factor ** max(0, attempt - 1))
        if self.jitter <= 0 or rng is None:
            return base
        return base * (1.0 - self.jitter * rng.random())

    def gives_up(self, attempts: int) -> bool:
        """True when ``attempts`` completed attempts exhaust the budget."""
        return bool(self.max_attempts) and attempts >= self.max_attempts


class RetryBudget:
    """Token budget capping retries at a fraction of recent successes.

    The resilient request loop is an overload amplifier: every timeout
    resends, so offered load grows exactly when the system is slowest.
    The budget (the Finagle-style construction) breaks the feedback:
    successes deposit ``ratio`` tokens, each retry withdraws one, and
    the balance is capped so old quiet periods cannot bankroll a retry
    storm. A small time-based reserve (``reserve_per_s``, virtual time)
    keeps a fully-failed client probing slowly instead of livelocking —
    a denied withdrawal is a *wait*, never a permanent give-up.
    """

    def __init__(self, ratio: float = 0.2, cap: float = 10.0,
                 reserve_per_s: float = 2.0):
        if not 0 < ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = ratio
        self.cap = float(cap)
        self.reserve_per_s = reserve_per_s
        # Start full: cold-start retries (first request lost before any
        # success) must not be starved.
        self.balance = float(cap)
        self._last_refill = 0.0
        self.granted = 0
        self.denied = 0

    def note_success(self) -> None:
        self.balance = min(self.cap, self.balance + self.ratio)

    def allow(self, now: float) -> bool:
        """Withdraw one retry right at virtual time ``now``."""
        if self.reserve_per_s > 0 and now > self._last_refill:
            self.balance = min(
                self.cap,
                self.balance
                + (now - self._last_refill) * self.reserve_per_s / 1000.0)
        self._last_refill = max(self._last_refill, now)
        if self.balance >= 1.0:
            self.balance -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False


def with_timeout(env: Environment, event: Event,
                 timeout_ms: Optional[float]):
    """Generator: wait on ``event`` for at most ``timeout_ms``.

    Returns ``(fired, value)``; with ``timeout_ms=None`` it degenerates to
    a plain wait (legacy block-forever behaviour).
    """
    if timeout_ms is None:
        value = yield event
        return True, value
    timer = env.timeout(timeout_ms)
    yield env.any_of([event, timer])
    if event.triggered:
        return True, event.value
    return False, None


class SessionIssuer:
    """The issuer half of exactly-once sessions.

    :meth:`begin` stamps a root command with the next sequence number
    (from 1) and with ``acked``, the lowest sequence number not finished
    yet: the command's own for a closed-loop issuer, the oldest in flight
    for an open-loop one. :meth:`finish` is called on the command's
    final reply, and only then. A command abandoned any other way (a
    :class:`RequestTimeout`) stays open and pins the watermark, because a
    copy of it may still execute.

    ``open`` maps each open sequence number to a scratch dict the caller
    may use for per-command state (the clients keep their fresh-uid
    counters there), so that state lives exactly as long as the command.
    Sequence numbers are handed out in increasing order and a dict keeps
    insertion order, so the first key is the lowest open one.
    """

    def __init__(self):
        self.last = 0
        self.open: dict[int, dict] = {}

    def begin(self, command) -> None:
        self.last += 1
        command.seq = self.last
        self.open[self.last] = {}
        command.acked = next(iter(self.open))

    def finish(self, command) -> None:
        del self.open[command.seq]


#: :meth:`ReplyCache.classify`'s verdict on a copy of a finished command.
STALE = "stale"


class ReplyCache:
    """Per-server exactly-once session table: one session per issuer.

    ``sessions`` maps an issuer to ``[acked, {cid: (seq, reply)}]``: its
    watermark and the replies of its commands at or above it. A session
    is a two-item list, not an object, because every checkpoint pickles
    the whole table and plain lists pickle at about the cost of the
    replies alone.

    Every command with an issuer (``Command.client``) carries the issuer's
    sequence number ``seq`` and watermark ``acked`` (see
    :class:`SessionIssuer`). :meth:`classify` runs once per delivery, in
    log order: it raises the issuer's watermark to the command's
    ``acked``, drops the replies below it, then answers

    * :data:`STALE` when ``seq < acked``: the issuer already holds the
      final reply, so nothing runs, replies or joins an exchange;
    * the cached reply, re-tagged with the delivery's attempt number (so
      the client's stale-attempt filter accepts it), for a duplicate;
    * None for a fresh command, which the caller executes.

    A cached ``retry`` verdict (DS-SMR: the variables were not here)
    answers the attempt it was given to and earlier ones, so a late or
    resent copy of an abandoned attempt never executes once the
    variables come back; a later attempt is fresh.

    :meth:`store` drops a reply below the watermark: a pooled command can
    finish after its issuer moved on. The table is O(issuers × commands
    each has in flight), not O(commands executed).

    **Why stale is safe at partitions.** An issuer finishes command ``s``
    only on a final reply, and by then every partition that is a
    destination of ``s`` has delivered a copy of it: a multi-partition
    access replies only after every peer's exchange, and a peer sends its
    exchange when it executes; a client move's destination replies only
    after every source has shipped; a partition's create or delete waits
    for the oracle's verdict; and a DS-SMR attempt is left only on a
    reply to that attempt. Replicas follow their group's log, so every
    later command of that issuer follows ``s`` there, and no replica ever
    waits on a group that classified the same delivery as stale. The
    oracle follows moves without taking part in their exchange, so it
    tracks moves in its own ``followed_moves`` instead (see
    :class:`~repro.core.oracle.OracleReplica`).

    A command without an issuer (the oracle's own moves) is always fresh:
    it is multicast under one uid and the ordered logs deliver it once.
    ``enabled=False`` makes the whole table inert, stale test included —
    a **test-only** switch that lets the chaos campaign prove its
    checkers catch duplicate execution.
    """

    #: Attributes :meth:`snapshot` leaves out: the switch and counters.
    TRANSIENT = ("enabled", "hits", "stale")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.sessions: dict[str, list] = {}
        self.hits = 0
        self.stale = 0

    def snapshot(self) -> dict:
        """The session table, by reference."""
        return self.sessions

    def restore(self, sessions: dict) -> None:
        """Adopt a snapshot (a private copy)."""
        self.sessions = sessions

    def _session(self, command) -> list:
        """The issuer's session, its watermark raised to ``command.acked``."""
        if not command.seq:
            raise ValueError(f"{command.cid!r} from {command.client!r} "
                             "carries no session sequence number")
        session = self.sessions.get(command.client)
        if session is None:
            session = self.sessions[command.client] = [0, {}]
        acked = command.acked
        if acked > session[0]:
            session[0] = acked
            if session[1]:
                session[1] = {cid: entry for cid, entry in session[1].items()
                              if entry[0] >= acked}
        return session

    def classify(self, command, attempt: int = 1):
        """:data:`STALE`, the re-tagged cached reply, or None (fresh)."""
        if not self.enabled or not command.client:
            return None
        acked, replies = self._session(command)
        if command.seq < acked:
            self.stale += 1
            return STALE
        entry = replies.get(command.cid)
        if entry is None:
            return None
        reply = entry[1]
        if reply.status == "retry" and attempt > reply.attempt:
            return None
        self.hits += 1
        return replace(reply, attempt=attempt)

    def store(self, command, reply) -> None:
        if not self.enabled or not command.client:
            return
        acked, replies = self._session(command)
        if command.seq >= acked:
            replies[command.cid] = (command.seq, reply)

    def __contains__(self, command) -> bool:
        session = self.sessions.get(command.client)
        return (self.enabled and session is not None
                and command.cid in session[1])

    def __len__(self) -> int:
        """Retained replies, over every session."""
        return sum(len(replies) for _, replies in self.sessions.values())
