"""Per-group ordered logs.

A *group log* gives the members of one server group a shared, gapless,
totally ordered sequence of entries — the building block both for atomic
broadcast within a group and for the Skeen-style atomic multicast across
groups (:mod:`repro.ordering.atomic_multicast`).

Interface contract (for every implementation):

* :meth:`GroupLog.submit` — propose an entry (a dict with a unique ``uid``);
  entries from correct submitters are eventually decided.
* decide callbacks fire on every member, in sequence order, starting from
  sequence 0 with no gaps, and each ``uid`` is applied at most once.

Two implementations: :class:`SequencerLog` (fixed sequencer — minimal
message cost, used for the large-scale benchmarks) and
:class:`~repro.ordering.paxos.PaxosLog` (leader-based Multi-Paxos — crash
fault tolerant, used by the failure-injection tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional

from repro.net import Message
from repro.ordering.group import GroupDirectory
from repro.ordering.node import ProtocolNode

DecideCallback = Callable[[int, dict], None]


def submit_kind(group: str) -> str:
    """Message kind used to submit an entry to ``group``'s log."""
    return f"log/{group}/submit"


class GroupLog(ABC):
    """One member's endpoint of a group's ordered log.

    Besides ordering, a log retains the decided entries at or above its
    :attr:`floor` and answers *backfill* requests from them — the
    mechanism recovering replicas use to close the gap between an
    installed checkpoint and live traffic (see
    :mod:`repro.reconfig.recovery`). A member that detects a hole in its
    own sequence — entries pending past it, or a tail announced beyond
    it — asks the group's speaker for backfill, and asks again every
    ``BACKFILL_DELAY_MS`` until the hole closes. A request names the
    positions its sender holds pending; the answer carries only the
    others, and one with nothing to carry is not sent, so two members
    stuck behind the same hole do not trade what they both hold.

    The floor is the group's *stable position*: the lowest
    :attr:`stable_position` any member has reported. Every member can
    resume from at or above it, so no backfill request ever reaches
    below it. :class:`SequencerLog` raises it from its members' reports;
    a log that never does (:class:`~repro.ordering.paxos.PaxosLog`)
    keeps floor 0 and retains every entry.

    The same reports carry each member's *restore key*, and
    :attr:`key_floor` is their minimum: the group's delivery floor (see
    :mod:`repro.ordering.floor`). A log without reports leaves it unset.

    A member's reports and backfill requests are taken latest-first: one
    that arrives after a later one from the same member (by message id,
    which orders a member's sends across its incarnations) is dropped. A
    request overtaken by its sender's next report asks for entries that
    sender has since applied, and only that reordering could land a
    request below a floor the report raised.
    """

    BACKFILL_DELAY_MS = 50.0
    #: Applied positions between two stable-position reports.
    STABLE_EVERY = 64
    #: Attributes :meth:`snapshot` leaves out: a checkpoint carries the
    #: apply position only, and the entries past it come back by backfill.
    TRANSIENT = ("node", "directory", "group", "_decide_callbacks",
                 "_pending_apply", "_applied_uids", "decided_entries",
                 "_floor", "below_floor_requests", "_backfill_scheduled",
                 "_backfill_suspended", "_known_tail", "_control_seen",
                 "_wal", "_key_floor", "_restore_key")

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 group: str):
        if node.name not in directory.members(group):
            raise ValueError(
                f"{node.name} is not a member of group {group!r}")
        self.node = node
        self.directory = directory
        self.group = group
        self._decide_callbacks: list[DecideCallback] = []
        self._next_apply = 0
        self._pending_apply: dict[int, dict] = {}
        self._applied_uids: set[str] = set()
        self.decided_entries: dict[int, dict] = {}
        self._floor = 0
        # Backfill requests from below the floor: a protocol error, since
        # every member resumes at or above the floor.
        self.below_floor_requests = 0
        self._backfill_scheduled = False
        self._backfill_suspended = False
        # The end of the log as last announced by the speaker: a member
        # behind it has a hole no later decide may reveal.
        self._known_tail = 0
        # Per member: id of the newest report or backfill request taken.
        self._control_seen: dict[str, int] = {}
        self._wal = None
        self._key_floor = None
        self._restore_key: Callable[[], Optional[tuple]] = lambda: None
        node.on(f"log/{group}/backfill-req", self._on_backfill_request)
        node.on(f"log/{group}/backfill", self._on_backfill)

    def on_decide(self, callback: DecideCallback) -> None:
        """Register ``callback(seq, entry)``, called in order, exactly once."""
        self._decide_callbacks.append(callback)

    def attach_wal(self, wal) -> None:
        """Append every applied position to ``wal`` (see :mod:`repro.store`).

        The append happens before the decide callbacks run — i.e. before
        execution — so the ordered history on disk is always at least as
        long as what the state machine has seen.
        """
        self._wal = wal

    def report_restore_key(self, source: Callable[[], Optional[tuple]]
                           ) -> None:
        """Send ``source()``, the owner's restore key, with every report
        of this member's stable position."""
        self._restore_key = source

    def when_durable(self, position: int,
                     action: Callable[[], None]) -> None:
        """Run ``action()`` once ``position`` is durable here.

        At once without a WAL; with one, after the flush that covers
        ``position`` (see :meth:`~repro.store.wal.WriteAheadLog.sync_barrier`).
        The wait never ends if the member dies first (its WAL is closed).
        """
        if self._wal is None:
            action()
            return
        barrier = self._wal.sync_barrier(position)
        if barrier.triggered:
            action()
        else:
            barrier.callbacks.append(lambda _event: action())

    @abstractmethod
    def submit(self, entry: dict) -> None:
        """Propose ``entry`` (must contain a unique ``'uid'`` key)."""

    # -- shared apply machinery -------------------------------------------

    def _learn(self, seq: int, entry: dict) -> None:
        """Record that ``entry`` was decided at ``seq``; apply when gapless."""
        if seq >= self._floor:
            self.decided_entries.setdefault(seq, entry)
        if seq < self._next_apply or seq in self._pending_apply:
            return
        self._pending_apply[seq] = entry
        start = self._next_apply
        while self._next_apply in self._pending_apply:
            ready = self._pending_apply.pop(self._next_apply)
            seq_now = self._next_apply
            self._next_apply += 1
            if self._wal is not None:
                self._wal.append(seq_now, ready)
            uid = ready.get("uid")
            if uid is not None:
                if uid in self._applied_uids:
                    continue  # duplicate decision of a resubmitted entry
                self._applied_uids.add(uid)
            if ready.get("noop"):
                continue
            for callback in list(self._decide_callbacks):
                callback(seq_now, ready)
        if self._next_apply // self.STABLE_EVERY != start // self.STABLE_EVERY:
            self._report_stable()
        if self._pending_apply:
            self._schedule_backfill()

    @property
    def _behind(self) -> bool:
        """Whether a known hole separates this member from the log's end:
        entries pending past it, or an announced tail beyond it."""
        return bool(self._pending_apply) or self._next_apply < self._known_tail

    @property
    def applied_count(self) -> int:
        """Number of log positions applied so far (including no-ops)."""
        return self._next_apply

    def learned(self) -> tuple:
        """One past the highest position learned, applied or pending, and
        the uids of the entries learned."""
        pending = self._pending_apply
        return (max([self._next_apply, *(seq + 1 for seq in pending)]),
                self._applied_uids.union(entry.get("uid")
                                         for entry in pending.values()))

    # -- stable position and floor -------------------------------------------

    @property
    def floor(self) -> int:
        """Lowest retained position: entries below it are dropped."""
        return self._floor

    @property
    def stable_position(self) -> int:
        """The position this member can resume from after a crash.

        Its applied position — or, with a WAL attached, the one after the
        highest position fsynced: a power-failed member cold-starts from
        its own disk to exactly there (:mod:`repro.store.coldstart`) and
        asks a peer for the rest.
        """
        if self._wal is None:
            return self._next_apply
        durable = self._wal.durable_seq
        return 0 if durable is None else durable + 1

    @property
    def key_floor(self) -> Optional[tuple]:
        """The group's delivery floor, where this member keeps it (the
        sequencer of a :class:`SequencerLog`); None when unset."""
        return self._key_floor

    def _report_stable(self) -> None:
        """Tell the group this member's stable position and restore key
        (no-op here)."""

    def _raise_floor(self, floor: int) -> None:
        """Drop retained entries below ``floor``; the floor never falls."""
        if floor <= self._floor:
            return
        self._floor = floor
        for seq in [s for s in self.decided_entries if s < floor]:
            del self.decided_entries[seq]

    # -- recovery support ----------------------------------------------------

    def snapshot(self) -> int:
        """The apply position: a checkpoint covers everything below it."""
        return self._next_apply

    def restore(self, position: int) -> None:
        """Skip to a checkpoint's apply position, unless already past."""
        self.fast_forward(max(self._next_apply, position))

    def replay(self, entries) -> None:
        """Feed ``(seq, entry)`` pairs decided before a crash (a local
        WAL's readable records) through the apply path; those below the
        apply position are only retained."""
        for seq, entry in entries:
            self._learn(seq, entry)

    def fast_forward(self, position: int) -> None:
        """Skip positions below ``position`` (covered by a state snapshot)."""
        if position < self._next_apply:
            raise ValueError("cannot fast-forward backwards")
        self._next_apply = position
        for seq in [s for s in self._pending_apply if s < position]:
            del self._pending_apply[seq]
        # Entries learned while the snapshot was in flight may already
        # continue it; apply that run now — a later copy of ``position``
        # would be dropped as "already pending" and the run would sit
        # there until some newer entry happened to arrive.
        ready = self._pending_apply.pop(position, None)
        if ready is not None:
            self._learn(position, ready)

    def suspend_backfill(self) -> None:
        """Hold automatic gap backfill (recovery install window).

        A replacement replica's log starts at position 0 and would
        otherwise backfill the whole history from the speaker before the
        state snapshot arrives — wasted traffic, and the early entries
        would be re-applied below the snapshot's fast-forward position.

        The replacement reports its stable position (0) at once, and
        again every ``BACKFILL_DELAY_MS`` until the window closes. That
        replaces the crashed incarnation's last report and holds the
        group's floor where it is until the install: the checkpoint a
        peer captures meanwhile sits at or above that floor, while the
        crashed incarnation may have been ahead of the peer.
        """
        self._backfill_suspended = True
        self._report_stable()
        self._schedule_backfill()

    def resume_backfill(self) -> None:
        """End the install window and report the installed position."""
        self._backfill_suspended = False
        self._report_stable()
        if self._behind:
            self._schedule_backfill()

    def request_backfill(self, provider: Optional[str] = None) -> None:
        """Ask ``provider`` (default: the group speaker; on the speaker,
        every other member) for the decided entries from our next-apply
        position onward that we do not hold pending already."""
        speaker = self.directory.speaker(self.group)
        if provider is None and speaker == self.node.name:
            targets = self.directory.members(self.group)
        else:
            targets = [provider or speaker]
        held = sorted(self._pending_apply)
        for target in targets:
            if target != self.node.name:
                self.node.send(target, f"log/{self.group}/backfill-req",
                               {"from_seq": self._next_apply, "held": held,
                                "reply_to": self.node.name},
                               size=96 + 8 * len(held))

    def _schedule_backfill(self) -> None:
        if self._backfill_scheduled:
            return
        self._backfill_scheduled = True

        def fire() -> None:
            self._backfill_scheduled = False
            if self.node.crashed:
                return
            if self._backfill_suspended:
                # The install-window report is one unacknowledged send:
                # repeat it until the window closes.
                self._report_stable()
                self._schedule_backfill()
            elif self._behind:
                self.request_backfill()
                # A lost request or reply on a log that then goes quiet
                # would otherwise leave the hole open for good.
                self._schedule_backfill()

        self.node.env.schedule_callback(self.BACKFILL_DELAY_MS, fire)

    def _latest(self, message: Message) -> bool:
        """Take ``message`` (a report or backfill request) only if no later
        one from its sender was taken already."""
        if message.msg_id < self._control_seen.get(message.src, -1):
            return False
        self._control_seen[message.src] = message.msg_id
        return True

    def _on_backfill_request(self, message: Message) -> None:
        if not self._latest(message):
            return
        from_seq = message.payload["from_seq"]
        if from_seq < self._floor:
            self.below_floor_requests += 1
            self.node.flight(
                "log", f"{self.group}: backfill from {from_seq} for "
                f"{message.payload['reply_to']} is below floor "
                f"{self._floor}; answering with what is retained")
        held = set(message.payload["held"])
        entries = {seq: entry
                   for seq, entry in self.decided_entries.items()
                   if seq >= from_seq and seq not in held}
        if entries:
            size = 128 + sum(64 + e.get("size", 0)
                             for e in entries.values())
            self.node.send(message.payload["reply_to"],
                           f"log/{self.group}/backfill",
                           {"entries": entries}, size=size)

    def _on_backfill(self, message: Message) -> None:
        for seq, entry in sorted(message.payload["entries"].items()):
            self._learn(int(seq), entry)


class SequencerLog(GroupLog):
    """Fixed-sequencer ordered log.

    The group's deterministic speaker assigns sequence numbers and fans the
    decision out to all members. Not tolerant to sequencer crashes — the
    fault-tolerant log is :class:`~repro.ordering.paxos.PaxosLog`. The DSN
    testbed used a Paxos-based multicast library; the sequencer variant
    preserves the same ordering semantics at lower simulation cost.

    **Batching** (the classic ordered-log throughput optimisation): with
    ``batch_window_ms > 0`` the sequencer buffers submissions for up to
    that long and fans them out as one decision message carrying the whole
    batch — each entry still gets its own consecutive sequence number, so
    nothing above the log can tell the difference except the message count
    (benchmark E14 quantifies it) and the added latency.

    **Compaction.** A follower sends the sequencer one ``log/{g}/stable``
    report of its :attr:`~GroupLog.stable_position` (and restore key) every
    ``STABLE_EVERY`` applied positions, and a replacement one when its
    recovery install starts (repeated until it ends) and one when it
    ends; the sequencer counts its own position the same way, without a
    message. The floor is the minimum over the group's members (a member
    that never reported counts as 0), so a crashed follower pins it at
    its last report until its replacement reports. The sequencer drops
    entries below the floor and puts it in every decide, and the
    followers drop the same prefix. It keeps the delivery floor the same
    way, over the reported restore keys: a member whose report carries
    none (it never reported, or is a replacement still installing) holds
    the floor where it is.

    **Quiet tail.** A follower that missed the last decides of a log
    that then goes quiet sees no later decide, so nothing reveals its
    hole. Once no decide has left for a whole ``TAIL_QUIET_MS`` period,
    the sequencer sends ``log/{g}/tail`` (its next sequence number) to
    every follower that has not acknowledged that tail, and repeats
    every period while the log stays quiet. A follower at the tail
    answers ``log/{g}/tail-ack``; one behind it backfills. One timer per
    group, and no message while decides flow. The acknowledgement is
    not a stable report: the floor still rises only on those, so no
    backfill request in flight can find itself below a floor the
    handshake raised.
    """

    # Wire size of log control traffic (entry payloads ride on top).
    CONTROL_SIZE = 128
    STABLE_SIZE = 64
    TAIL_SIZE = 64
    #: Decide-free time after which the sequencer announces its tail.
    TAIL_QUIET_MS = GroupLog.BACKFILL_DELAY_MS

    #: The recovery ladder reconciles the sequencer's counters instead.
    TRANSIENT = GroupLog.TRANSIENT + (
        "sequencer", "batch_window_ms", "_is_sequencer", "_next_seq",
        "_sequenced_uids", "_batch", "_flush_scheduled", "_stable",
        "_restore_keys", "_tail_acked", "_tail_armed", "_tail_mark",
        "decisions_sent", "_admission", "_batcher", "_on_shed", "_classify")

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 group: str, batch_window_ms: float = 0.0):
        super().__init__(node, directory, group)
        if batch_window_ms < 0:
            raise ValueError("batch_window_ms must be >= 0")
        self.sequencer = directory.speaker(group)
        self.batch_window_ms = batch_window_ms
        self._is_sequencer = node.name == self.sequencer
        self._next_seq = 0
        self._sequenced_uids: set[str] = set()
        self._batch: list[dict] = []
        self._flush_scheduled = False
        self._stable: dict[str, int] = {}   # sequencer: member -> report
        self._restore_keys: dict[str, Optional[tuple]] = {}   # the same
        self._tail_acked: dict[str, int] = {}   # sequencer: member -> tail
        self._tail_armed = False
        self._tail_mark = 0   # decisions_sent when the tail timer was armed
        self.decisions_sent = 0   # decision messages (for E14)
        # Overload control (repro.qos), attached by the harness; all None
        # by default so the pre-QoS hot path is untouched.
        self._admission = None
        self._batcher = None
        self._on_shed = None
        self._classify = None
        node.on(submit_kind(group), self._on_submit)
        node.on(f"log/{group}/decide", self._on_decide)
        node.on(f"log/{group}/stable", self._on_stable)
        node.on(f"log/{group}/tail", self._on_tail)
        node.on(f"log/{group}/tail-ack", self._on_tail_ack)
        # A batch held across a blackout must drain once we are back.
        node.on_reconnect(self.flush_pending)

    def attach_qos(self, admission=None, batcher=None, on_shed=None,
                   classify=None) -> None:
        """Attach overload control (see :mod:`repro.qos`).

        ``admission`` decides, per client entry arriving at the
        sequencer, whether to order or shed it; shed entries are handed
        to ``on_shed(entry, reason)`` so the owning server can send the
        client an explicit ``OVERLOAD`` reply. ``batcher`` replaces the
        fixed ``batch_window_ms`` with a queue-depth-adaptive window.
        ``classify(entry) -> (priority, sheddable)`` marks control
        traffic: never shed, and sorted ahead of client entries when a
        batch flushes (reordering is only legal *before* ordering).
        """
        self._admission = admission
        self._batcher = batcher
        self._on_shed = on_shed
        self._classify = classify

    def restore_sequencer_state(self, next_seq: int, uids) -> None:
        """Rebuild sequencer counters after a durable cold start.

        A power-lost speaker resurrects from its own disk: the replayed
        WAL tells it the highest sequence number it ever handed out and
        which uids it already ordered, so resent client commands dedup
        instead of being sequenced twice. No-op on non-sequencers.
        """
        if not self._is_sequencer:
            return
        self._next_seq = max(self._next_seq, int(next_seq))
        self._sequenced_uids.update(uids)

    def submit(self, entry: dict) -> None:
        if "uid" not in entry:
            raise ValueError("log entries must carry a 'uid'")
        if self._is_sequencer:
            self._sequence(entry)
        else:
            self.node.send(self.sequencer, submit_kind(self.group), entry,
                           size=self.CONTROL_SIZE + entry.get("size", 0))

    def _on_submit(self, message: Message) -> None:
        if not self._is_sequencer:
            # Stale client view; forward to the real sequencer.
            self.node.send(self.sequencer, submit_kind(self.group),
                           message.payload, size=message.size)
            return
        self._sequence(message.payload)

    def _sequence(self, entry: dict) -> None:
        uid = entry["uid"]
        if uid in self._sequenced_uids:
            return
        if self._admission is not None:
            priority, sheddable = self._classify(entry)
            reason = self._admission.admit(self.node.env.now,
                                           sheddable=sheddable)
            if reason is not None:
                # Shed before recording the uid so a resubmission of the
                # same entry gets a fresh admission decision.
                if self._on_shed is not None:
                    self._on_shed(entry, reason)
                return
        self._sequenced_uids.add(uid)
        window = (self._batcher.window_ms() if self._batcher is not None
                  else self.batch_window_ms)
        if window <= 0 and not self._batch:
            self._flush([entry])
            return
        # Entries held from an earlier window (blackout) stay ahead of
        # new arrivals: everything drains through one ordered batch.
        self._batch.append(entry)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.node.env.schedule_callback(window, self._flush_batch)

    def _flush_batch(self) -> None:
        self._flush_scheduled = False
        if not self._batch:
            return
        if self.node.crashed or self.node.network.is_crashed(self.node.name):
            # Unreachable mid-window: flushing now would fan the decision
            # into dropped links and strand the batch on the members.
            # Hold it — flush_pending drains it on reconnect, and any new
            # submission re-arms the window.
            return
        self._drain_batch()

    def flush_pending(self) -> None:
        """Flush the open batch immediately, if any.

        The batching window is a throughput optimisation, not a
        durability boundary: a sequencer drained out of the
        configuration mid-window, or returning from a network blackout,
        must not strand the entries buffered in ``_batch``. Harness
        drain paths and the node's reconnect hook call this; the
        already-scheduled window callback then finds an empty batch and
        no-ops.
        """
        if self._batch and not self.node.crashed:
            self._drain_batch()

    def _drain_batch(self) -> None:
        batch, self._batch = self._batch, []
        if self._classify is not None:
            # Stable sort: control entries first, FIFO within a class.
            batch.sort(key=lambda entry: self._classify(entry)[0])
        self._flush(batch)

    def _flush(self, entries: list[dict]) -> None:
        first_seq = self._next_seq
        self._next_seq += len(entries)
        decision = {"seq": first_seq, "entries": entries,
                    "floor": self._floor}
        size = self.CONTROL_SIZE + sum(e.get("size", 0) for e in entries)
        self.decisions_sent += 1
        if self.node.profiler.enabled:
            # Sequencing is instantaneous in virtual time; the profiler
            # records it as a count-only mark so the table still shows
            # how many entries each group's sequencer ordered (the fan-out
            # cost itself lands in the net subtree per decide message).
            self.node.profiler.mark(self.node.name, "sequence",
                                    len(entries))
        for member in self.directory.members(self.group):
            if member == self.node.name:
                continue
            self.node.send(member, f"log/{self.group}/decide", decision,
                           size=size)
        self._arm_tail()
        for offset, entry in enumerate(entries):
            self._learn(first_seq + offset, entry)

    def _on_decide(self, message: Message) -> None:
        decision = message.payload
        self._raise_floor(decision["floor"])
        for offset, entry in enumerate(decision["entries"]):
            self._learn(decision["seq"] + offset, entry)

    # -- quiet tail ------------------------------------------------------------

    def _arm_tail(self) -> None:
        if not self._tail_armed:
            self._tail_armed = True
            self._tail_mark = self.decisions_sent
            self.node.env.schedule_callback(self.TAIL_QUIET_MS,
                                            self._tail_due)

    def _tail_due(self) -> None:
        self._tail_armed = False
        if self.node.crashed:
            return
        if self.decisions_sent != self._tail_mark:
            self._arm_tail()    # busy: look again one quiet period later
            return
        tail = self._next_seq
        behind = [member for member in self.directory.members(self.group)
                  if member != self.node.name
                  and self._tail_acked.get(member, 0) < tail]
        for member in behind:
            self.node.send(member, f"log/{self.group}/tail", {"tail": tail},
                           size=self.TAIL_SIZE)
        if behind:
            self._arm_tail()

    def _on_tail(self, message: Message) -> None:
        tail = message.payload["tail"]
        if self._next_apply >= tail:
            self.node.send(message.src, f"log/{self.group}/tail-ack",
                           {"tail": tail}, size=self.TAIL_SIZE)
        else:
            self._known_tail = max(self._known_tail, tail)
            self._schedule_backfill()

    def _on_tail_ack(self, message: Message) -> None:
        tail = message.payload["tail"]
        if tail > self._tail_acked.get(message.src, 0):
            self._tail_acked[message.src] = tail

    # -- compaction ----------------------------------------------------------

    def _report_stable(self) -> None:
        if self._is_sequencer:
            self._record_stable(self.node.name, self.stable_position,
                                self._restore_key())
        else:
            self.node.send(self.sequencer, f"log/{self.group}/stable",
                           {"position": self.stable_position,
                            "key": self._restore_key()},
                           size=self.STABLE_SIZE)

    def _on_stable(self, message: Message) -> None:
        if self._latest(message):
            self._record_stable(message.src, message.payload["position"],
                                message.payload["key"])

    def _record_stable(self, member: str, position: int,
                       key: Optional[tuple]) -> None:
        members = self.directory.members(self.group)
        self._stable[member] = position
        self._raise_floor(min(self._stable.get(m, 0) for m in members))
        self._restore_keys[member] = key
        keys = [self._restore_keys.get(m) for m in members]
        if None not in keys:
            lowest = min(keys)
            if self._key_floor is None or lowest > self._key_floor:
                self._key_floor = lowest


class LogClient:
    """Submission helper for processes outside a group (e.g. clients).

    Sends the entry to the group's speaker; with ``broadcast=True`` it sends
    to every member instead, which survives speaker/leader crashes at the
    cost of extra messages (members deduplicate by uid).
    """

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 broadcast: bool = False):
        self.node = node
        self.directory = directory
        self.broadcast = broadcast

    def submit(self, group: str, entry: dict, size: int = 256) -> None:
        if "uid" not in entry:
            raise ValueError("log entries must carry a 'uid'")
        if self.broadcast:
            targets: tuple[str, ...] = self.directory.members(group)
        else:
            targets = (self.directory.speaker(group),)
        for target in targets:
            self.node.send(target, submit_kind(group), entry, size=size)
