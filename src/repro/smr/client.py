"""Clients: submit commands and wait for replies.

:class:`BaseClient` holds the machinery shared by every protocol's client
proxy — reply matching by command id, first-reply-wins deduplication (all
replicas of a partition reply), attempt-tagged retry with timeout/backoff
(:mod:`repro.resilience`), and latency recording. The scheme clients
(:class:`~repro.ssmr.SsmrClient`, which also serves classic SMR, and
:class:`~repro.core.DssmrClient`) add routing on top.

Retry semantics: a resend must use a *fresh* multicast uid — the ordered
logs deduplicate by uid, so re-sending the original uid can never re-elicit
a lost reply. Servers deduplicate by the client's exactly-once session
instead: every command carries the client's sequence number and
acknowledged watermark (:class:`~repro.resilience.SessionIssuer`), so a
resent command is executed at most once, its cached reply is re-sent,
re-tagged with the attempt number the client is currently waiting for,
and a copy of a command the client already finished is ignored.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.net import Message, Network
from repro.obs.tracing import NULL_TRACER, trace_id_of
from repro.ordering import GroupDirectory, MulticastClient, ProtocolNode
from repro.resilience import (RequestTimeout, RetryPolicy, SessionIssuer,
                              with_timeout)
from repro.sim import Environment, Event, LatencyRecorder
from repro.smr.command import Command, Reply, ReplyStatus
from repro.smr.executor import REPLY_KIND


class BaseClient:
    """A client process endpoint with reply matching and retries."""

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, name: str,
                 latency: Optional[LatencyRecorder] = None,
                 broadcast_submit: bool = False,
                 retry_policy: Optional[RetryPolicy] = None,
                 rng: Optional[random.Random] = None,
                 tracer=None):
        self.env = env
        self.directory = directory
        self.node = ProtocolNode(env, network, name)
        # broadcast_submit=True sends submissions to every group member
        # instead of the speaker only — needed when speakers may crash
        # (Paxos-backed deployments under failure injection).
        self.mcast = MulticastClient(self.node, directory,
                                     broadcast_submit=broadcast_submit)
        self.latency = latency if latency is not None else LatencyRecorder(name)
        # tracer=None disables span collection (see repro.obs.tracing);
        # every emission site guards on tracer.enabled, so the disabled
        # path does no bookkeeping at all. The profiler rides on the
        # network (see repro.obs.profile) under the same guard idiom.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = self.node.profiler
        # retry_policy=None keeps the legacy block-forever behaviour.
        self.retry_policy = retry_policy
        # Overload control (repro.qos): the AIMD congestion window is
        # attached by the harness when QoS is enabled; the retry budget
        # arms itself from the policy's default-off knob.
        self.congestion = None
        self.retry_budget = (retry_policy.make_budget()
                             if retry_policy is not None else None)
        self.overload_replies = 0
        self._rng = rng if rng is not None else random.Random(0)
        self._waiting: dict[str, tuple[Event, Optional[int]]] = {}
        # Sequence numbers and the watermark; each open command's scratch
        # dict holds its fresh-uid counters (see next_uid).
        self.session = SessionIssuer()
        self.timeouts = 0
        self.resends = 0
        self.node.on(REPLY_KIND, self._on_reply)

    @property
    def name(self) -> str:
        return self.node.name

    def claim_cid(self, command: Command) -> None:
        """Name a workload command (empty ``cid``) from this run's ids.

        Called by :meth:`begin_command`, before the command is stamped
        with this client's name: a workload command's id reads
        ``cmd-anon-<n>``.
        """
        if not command.cid:
            command.cid = self.env.ids.new("cmd", command.client or "anon")

    def begin_command(self, command: Command) -> None:
        """Name ``command``, make this client its issuer and open its
        session stamp (first thing in every ``run_command``)."""
        self.claim_cid(command)
        command.client = self.name
        self.session.begin(command)

    def _on_reply(self, message: Message) -> None:
        reply: Reply = message.payload
        waiting = self._waiting.get(reply.cid)
        if waiting is None:
            # Answered already: another partition's reply to a
            # multi-partition command, the answer to a resend, or (with
            # speaker_only=False) another replica's copy. Drop it.
            return
        event, expected_attempt = waiting
        if expected_attempt is not None and reply.attempt != expected_attempt:
            # A straggler from a previous attempt (e.g. a late copy's
            # retry verdict): it must not answer the current attempt.
            return
        del self._waiting[reply.cid]
        event.succeed(reply)

    def wait_reply(self, cid: str, attempt: Optional[int] = None) -> Event:
        """Event firing with the first :class:`Reply` for ``cid``.

        With ``attempt`` set, only replies echoing that attempt number
        match; replies from older attempts are discarded.
        """
        if cid in self._waiting:
            raise ValueError(f"already waiting for {cid}")
        event = self.env.event()
        self._waiting[cid] = (event, attempt)
        return event

    def cancel_wait(self, cid: str) -> None:
        self._waiting.pop(cid, None)

    # -- tracing -------------------------------------------------------------

    def trace_stage(self, cid: str, name: str, start: float, **meta) -> None:
        """Emit one client *stage* span covering ``[start, now)``.

        Stage spans partition a command's end-to-end latency: every wait
        the client performs while running a command is bracketed by
        exactly one of them (consult, move, execute, retry-wait). The
        profiler taps the same funnel, which is what makes its per-stage
        attributed costs sum exactly to each command's e2e latency.
        """
        if self.tracer.enabled:
            self.tracer.span(trace_id_of(cid), name, self.name, start,
                             self.env.now, stage=True, **meta)
        if self.profiler.enabled:
            self.profiler.stage(trace_id_of(cid), name,
                                self.env.now - start)

    def profile_command(self, cid: str, start: float) -> None:
        """Record a finished command's end-to-end latency (profiler tap).

        Called by every scheme's ``run_command`` next to its
        ``end_trace`` — the reconciliation target the stage costs
        recorded through :meth:`trace_stage` must add up to.
        """
        if self.profiler.enabled:
            self.profiler.command(trace_id_of(cid), self.env.now - start)

    # -- overload control (repro.qos) ----------------------------------------

    def pace(self):
        """Generator: claim an AIMD send slot before issuing a fresh command.

        No-op without an attached congestion window. Open-loop drivers
        call this so client pressure tracks the window rather than the
        raw arrival process.
        """
        if self.congestion is None:
            return
        delay = self.congestion.reserve(self.env.now)
        if delay > 0:
            yield self.env.timeout(delay)

    def _note_success(self) -> None:
        if self.congestion is not None:
            self.congestion.on_success()
        if self.retry_budget is not None:
            self.retry_budget.note_success()

    def _note_congestion(self) -> None:
        if self.congestion is not None:
            self.congestion.on_congestion(self.env.now)

    def overload_backoff_ms(self, attempt: int) -> float:
        """Backoff after an ``OVERLOAD`` reply: window-scaled, jittered."""
        if self.congestion is not None:
            base = self.congestion.backoff_ms()
        elif self.retry_policy is not None:
            return self.retry_policy.backoff_ms(attempt, self._rng)
        else:
            base = 5.0
        return base * (1.0 - 0.5 * self._rng.random())

    def acquire_retry(self, cid: str):
        """Generator: wait until the retry budget grants a withdrawal.

        No-op when the budget knob is off. A denied withdrawal sleeps
        one max-backoff and asks again — the time-based reserve refill
        guarantees eventual progress, so this never gives up.
        """
        if self.retry_budget is None:
            return
        while not self.retry_budget.allow(self.env.now):
            wait = (self.retry_policy.backoff_max_ms
                    if self.retry_policy is not None else 50.0)
            self.node.flight("retry-budget", f"{cid} deferred")
            budget_start = self.env.now
            yield self.env.timeout(wait)
            self.trace_stage(cid, "retry-wait", budget_start)

    # -- resilient requests --------------------------------------------------

    def next_uid(self, command: Command, base: str) -> str:
        """Fresh multicast uid for a resend of the request behind ``base``.

        The first send keeps ``base`` itself (byte-compatible with the
        non-resilient protocol); resends append ``:r{n}`` so the ordered
        logs treat them as new entries while servers still deduplicate by
        session. The counters live with ``command``'s open session entry
        (a consult or move shares its command's ``seq``), so a base reused
        across send loops of one command (DS-SMR re-consults) keeps
        counting, and they are gone once the command finishes.
        """
        counters = self.session.open[command.seq]
        n = counters.get(base, 0) + 1
        counters[base] = n
        return base if n == 1 else f"{base}:r{n}"

    def resilient_request(self, cid: str,
                          send: Callable[[int], None],
                          stage: str = "execute"):
        """Generator: run ``send(attempt)`` until a reply for ``cid`` lands.

        ``send`` multicasts the request tagged with the given attempt
        number (and must use a fresh uid per call, see :meth:`next_uid`).
        With no :class:`RetryPolicy` this is a single send and an unbounded
        wait; with one, timed-out attempts are resent after capped
        exponential backoff with jitter. Raises :class:`RequestTimeout`
        once the policy's attempt budget is exhausted.

        Reply waits are traced as ``stage`` spans and inter-attempt
        backoff as ``retry-wait`` spans (see :meth:`trace_stage`).
        """
        return self._send_until_reply(cid, send, stage, True, None)

    def send_with_retries(self, cid: str, send: Callable[[int], None],
                          expected_attempt: Optional[int] = None,
                          stage: str = "execute"):
        """Generator: like :meth:`resilient_request`, but the request's
        attempt tag is fixed by the caller — resends repeat the same
        logical attempt under fresh uids (DS-SMR's algorithm attempts are
        protocol-level; network resends must not consume them), and
        ``send`` is handed the transmission count, not a tag."""
        return self._send_until_reply(cid, send, stage, False,
                                      expected_attempt)

    def _send_until_reply(self, cid: str, send: Callable[[int], None],
                          stage: str, tag_advances: bool,
                          fixed_tag: Optional[int]):
        """The one timeout / OVERLOAD / budget / backoff loop.

        ``send(n)`` makes the n-th transmission. The reply must echo
        attempt ``n`` when ``tag_advances``, else ``fixed_tag`` (None
        matches any attempt).
        """
        policy = self.retry_policy
        sends = 0
        while True:
            sends += 1
            event = self.wait_reply(
                cid, attempt=sends if tag_advances else fixed_tag)
            if self.tracer.enabled:
                self.tracer.mark_send(cid, self.env.now)
            wait_start = self.env.now
            send(sends)
            if sends > 1:
                self.resends += 1
            fired, reply = yield from with_timeout(
                self.env, event, policy.timeout_ms if policy else None)
            if fired:
                if reply.status is not ReplyStatus.OVERLOAD:
                    self.trace_stage(cid, stage, wait_start)
                    self._note_success()
                    return reply
                # Explicit backpressure: the sequencer shed this attempt
                # before ordering it. Shrink the congestion window and
                # back off harder than a plain retry.
                self.trace_stage(cid, stage, wait_start, overload=True)
                self.overload_replies += 1
                self.node.flight("qos", f"{cid} overload ({reply.value})")
            else:
                self.trace_stage(cid, stage, wait_start, timeout=True)
                self.cancel_wait(cid)
                self.timeouts += 1
                self.node.flight(
                    "retry", f"{cid} {'attempt' if tag_advances else 'send'}"
                    f" {sends} timed out")
            self._note_congestion()
            if policy is not None and policy.gives_up(sends):
                raise RequestTimeout(cid, sends)
            yield from self.acquire_retry(cid)
            backoff_start = self.env.now
            yield self.env.timeout(
                self.overload_backoff_ms(sends) if fired
                else policy.backoff_ms(sends, self._rng))
            self.trace_stage(cid, "retry-wait", backoff_start)
