"""Genuine atomic multicast (Section 2.4 of the paper).

Skeen-style timestamp protocol layered on per-group ordered logs:

1. *Propose* — the initiator submits the message to the ordered log of every
   destination group. When a group applies the propose entry it advances its
   logical clock and assigns the message a local timestamp.
2. *Timestamp exchange* — the group's speaker submits the local timestamp to
   the log of every *other* destination group; its own members recorded it
   when they applied the propose, so a k-group message costs k(k−1)
   timestamp entries. Applying a timestamp entry bumps the local clock to
   at least that value, which is what makes the final order acyclic. With
   a write-ahead log the speaker announces only once the propose is
   durable on its disk (:meth:`GroupLog.when_durable`).
3. *Finalise & deliver* — once timestamps from all destination groups are
   known, the final timestamp is their maximum. A group member delivers the
   pending message with the smallest ``(timestamp, uid)`` key once that
   message is final; a pending non-final message with a smaller provisional
   key blocks delivery (its final timestamp can only grow, never shrink
   below the provisional one).

Because every step is driven by applying ordered-log entries, all members of
a group make identical delivery decisions — the group behaves as one logical
process, which is exactly the abstraction the SMR layers above need.
Single-group messages (atomic broadcast) finalise immediately at proposal
time and pay no timestamp exchange.

Properties delivered (tested in ``tests/ordering`` and property-tested with
hypothesis): validity, uniform agreement, integrity, atomic order and prefix
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.ordering.group import GroupDirectory
from repro.ordering.log import GroupLog, LogClient
from repro.ordering.node import ProtocolNode

DeliverCallback = Callable[["AmcastDelivery"], None]

# Self-heal pull request: a group stuck on a non-final message asks another
# destination group's speaker for its missing timestamp announcement.
AM_TS_PULL = "am-ts-pull"


@dataclass
class AmcastDelivery:
    """A message delivered by atomic multicast to one group member."""

    uid: str
    payload: Any
    groups: tuple[str, ...]
    origin: str                # node that multicast the message
    timestamp: tuple[float, str]  # final (timestamp, uid) order key
    local_seq: int             # per-member delivery index


@dataclass
class _Pending:
    groups: tuple[str, ...]
    payload: Any = None
    origin: str = ""
    size: int = 0
    proposed: bool = False
    local_ts: int = 0
    group_ts: dict = field(default_factory=dict)   # group -> ts
    final_ts: Optional[int] = None

    @property
    def current_ts(self) -> int:
        return self.final_ts if self.final_ts is not None else self.local_ts


class AtomicMulticast:
    """One group member's endpoint of the atomic multicast protocol.

    Construct with the member's ordered log. ``speaker_only=True`` (default)
    makes the group speak with one voice: only its designated speaker emits
    timestamp announcements, and the layers above read :attr:`announcing`
    to let only that member transmit the group's signal/variable exchanges
    (``repro.ssmr.exchange``). Set it to False when the speaker may crash,
    in which case every member announces and transmits, and the logs and
    receivers deduplicate.
    """

    TS_SIZE = 96  # wire size of a timestamp announcement

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 log: GroupLog, speaker_only: bool = True,
                 heal_interval_ms: Optional[float] = 40.0):
        self.node = node
        self.directory = directory
        self.log = log
        self.group = log.group
        self.speaker_only = speaker_only
        # A multi-group message still non-final after this long triggers a
        # self-heal round (re-propose + timestamp pull); None disables.
        # Without it, one dropped propose or timestamp announcement blocks
        # the whole delivery queue of a destination group forever.
        self.heal_interval_ms = heal_interval_ms
        self._log_client = LogClient(node, directory,
                                     broadcast=not speaker_only)
        self._pending: dict[str, _Pending] = {}
        self._clock = 0
        self._delivered_uids: set[str] = set()
        # Own group's timestamp per multi-group muid, kept past delivery so
        # other groups can pull a lost announcement at any time.
        self._my_ts: dict[str, int] = {}
        self._callbacks: list[DeliverCallback] = []
        self._deliver_count = 0
        self.heals = 0
        self.ts_pulls = 0
        log.on_decide(self._apply)
        node.on(AM_TS_PULL, self._on_ts_pull)

    # -- API ------------------------------------------------------------------

    def on_deliver(self, callback: DeliverCallback) -> None:
        self._callbacks.append(callback)

    def multicast(self, groups: Iterable[str], payload: Any,
                  size: int = 256, uid: Optional[str] = None) -> str:
        """Atomically multicast ``payload`` to ``groups``; returns the uid."""
        groups = tuple(sorted(set(groups)))
        if not groups:
            raise ValueError("amcast needs at least one destination group")
        uid = uid or self.node.env.ids.new("am", self.node.name)
        entry = _propose_entry(uid, groups, payload, self.node.name, size)
        for group in groups:
            if group == self.group:
                self.log.submit(entry)
            else:
                self._log_client.submit(group, entry, size=size + 128)
        return uid

    # -- log application (replicated deterministic state machine) -----------

    def _apply(self, seq: int, entry: dict) -> None:
        kind = entry["kind"]
        if kind == "am-propose":
            self._apply_propose(entry)
        elif kind == "am-ts":
            self._apply_ts(entry)
        else:
            raise ValueError(f"unknown amcast log entry kind: {kind!r}")

    def _apply_propose(self, entry: dict) -> None:
        muid = entry["muid"]
        if muid in self._delivered_uids:
            return
        state = self._pending.setdefault(muid, _Pending(groups=()))
        # The pending record may predate the propose (a timestamp from a
        # faster remote group can be applied first), so fill it in fully.
        state.groups = tuple(entry["groups"])
        state.payload = entry["payload"]
        state.origin = entry["origin"]
        state.size = entry["size"]
        state.proposed = True
        self._clock_tick()
        state.local_ts = self._clock
        if len(state.groups) == 1:
            state.final_ts = state.local_ts
        else:
            state.group_ts[self.group] = state.local_ts
            self._my_ts[muid] = state.local_ts
            self._announce_ts(muid, state)
            self._maybe_finalize(state)
            if self.heal_interval_ms:
                self.node.env.schedule_callback(
                    self.heal_interval_ms, lambda: self._heal(muid))
        self._try_deliver()

    @property
    def announcing(self) -> bool:
        """Whether this member speaks for its group on the wire."""
        return (not self.speaker_only
                or self.directory.speaker(self.group) == self.node.name)

    def _announce_ts(self, muid: str, state: _Pending) -> None:
        if not self.announcing:
            return
        groups = [group for group in state.groups if group != self.group]
        ts = state.local_ts
        self.log.when_durable(lambda: self._submit_ts(groups, muid, ts))

    def _submit_ts(self, groups, muid: str, ts: int) -> None:
        """Order this group's timestamp for ``muid`` in ``groups``' logs.

        Called only once the propose is durable here: a timestamp that
        other groups finalise on must survive a power cycle of this one,
        or they deliver a message this group never saw proposed.
        """
        if self.node.crashed:
            return
        for group in groups:
            self._log_client.submit(group, {
                "uid": f"ts:{muid}:{self.group}:{group}",
                "kind": "am-ts",
                "muid": muid,
                "from_group": self.group,
                "ts": ts,
            }, size=self.TS_SIZE)

    def _apply_ts(self, entry: dict) -> None:
        muid = entry["muid"]
        ts = entry["ts"]
        self._clock_bump(ts)
        if muid in self._delivered_uids:
            return
        state = self._pending.setdefault(muid, _Pending(groups=()))
        state.group_ts[entry["from_group"]] = ts
        self._maybe_finalize(state)
        self._try_deliver()

    def _maybe_finalize(self, state: _Pending) -> None:
        if not state.proposed or state.final_ts is not None:
            return
        if all(group in state.group_ts for group in state.groups):
            state.final_ts = max(state.group_ts.values())

    # -- self-heal under message loss --------------------------------------
    #
    # A multi-group message wedges a destination group if (a) the propose to
    # some other group was lost — that group never announces, the message
    # never finalises, and it blocks every later delivery here — or (b) a
    # timestamp announcement to *us* was lost. The announcing member
    # periodically (i) re-proposes the full entry to the other groups and
    # (ii) pulls missing timestamps from their speakers. Log entries keep
    # their original uids, so every redundant copy deduplicates and the
    # heal is idempotent.

    def _heal(self, muid: str) -> None:
        state = self._pending.get(muid)
        if (state is None or state.final_ts is not None
                or not state.proposed or not self.announcing):
            return
        self.heals += 1
        entry = _propose_entry(muid, state.groups, state.payload,
                               state.origin, state.size)
        for group in state.groups:
            if group == self.group or group in state.group_ts:
                continue  # its announcement arrived, so it has the propose
            self._log_client.submit(group, entry, size=state.size + 128)
            self.ts_pulls += 1
            self.node.send(self.directory.speaker(group), AM_TS_PULL,
                           {"muid": muid, "reply_group": self.group},
                           size=64)
        self.node.env.schedule_callback(self.heal_interval_ms,
                                        lambda: self._heal(muid))

    def _on_ts_pull(self, message) -> None:
        if not self.announcing:
            return
        muid = message.payload["muid"]
        ts = self._my_ts.get(muid)
        if ts is None:
            return  # never saw the propose; the puller's re-propose fixes that
        # Pulls come from other groups only: _heal skips its own.
        groups = [message.payload["reply_group"]]
        self.log.when_durable(lambda: self._submit_ts(groups, muid, ts))

    # -- logical clock ----------------------------------------------------

    def _clock_tick(self) -> None:
        self._clock += 1

    def _clock_bump(self, ts: int) -> None:
        self._clock = max(self._clock, ts)

    # -- delivery -----------------------------------------------------------

    def _try_deliver(self) -> None:
        while True:
            head = None   # smallest (current_ts, muid) among proposed
            for muid, state in self._pending.items():
                if state.proposed:
                    key = (state.current_ts, muid)
                    if head is None or key < head[0]:
                        head = (key, state)
            if head is None:
                return
            (_, muid), state = head
            if state.final_ts is None:
                return  # the head of the queue is not final yet
            del self._pending[muid]
            self._delivered_uids.add(muid)
            delivery = AmcastDelivery(
                uid=muid,
                payload=state.payload,
                groups=state.groups,
                origin=state.origin,
                timestamp=(state.final_ts, muid),
                local_seq=self._deliver_count,
            )
            self._deliver_count += 1
            for callback in list(self._callbacks):
                callback(delivery)


def _propose_entry(muid: str, groups: tuple[str, ...], payload: Any,
                   origin: str, size: int) -> dict:
    return {
        "uid": f"prop:{muid}",
        "kind": "am-propose",
        "muid": muid,
        "groups": list(groups),
        "payload": payload,
        "origin": origin,
        "size": size,
    }


class MulticastClient:
    """Atomic multicast initiator for processes outside all groups.

    Clients in the paper's protocols amcast commands to partitions and the
    oracle; they never deliver, so this helper only implements the propose
    step.
    """

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 broadcast_submit: bool = False):
        self.node = node
        self.directory = directory
        self._log_client = LogClient(node, directory,
                                     broadcast=broadcast_submit)

    def multicast(self, groups: Iterable[str], payload: Any,
                  size: int = 256, uid: Optional[str] = None) -> str:
        groups = tuple(sorted(set(groups)))
        if not groups:
            raise ValueError("amcast needs at least one destination group")
        uid = uid or self.node.env.ids.new("am", self.node.name)
        entry = _propose_entry(uid, groups, payload, self.node.name, size)
        for group in groups:
            self._log_client.submit(group, entry, size=size + 128)
        return uid
