"""Genuine atomic multicast (Section 2.4 of the paper).

Skeen-style timestamp protocol layered on per-group ordered logs:

1. *Propose* — the initiator submits the message to the ordered log of every
   destination group. When a group applies the propose entry it advances its
   logical clock and assigns the message a local timestamp.
2. *Timestamp exchange* — the group's speaker sends the local timestamp
   straight to the speaker of every *other* destination group as one
   ``am-ts`` message, so a k-group message costs k(k−1) messages and no
   log entry. The receiving speaker keeps what it hears in a local
   ``_heard`` table, neither replicated nor checkpointed. With a
   write-ahead log the speaker announces only once the propose's log
   position is durable on its disk (:meth:`GroupLog.when_durable`);
   entries appended after it play no part in the wait.
3. *Finalise & deliver* — once a speaker has applied the propose and heard
   from every other destination group, it orders one ``am-final`` entry
   carrying the maximum of the timestamps in its own group's log. Applying
   it bumps the local clock to at least that value, which is what makes
   the final order acyclic, and makes the message final. A group member
   delivers the pending message with the smallest ``(timestamp, uid)`` key
   once that message is final; a pending non-final message with a smaller
   provisional key blocks delivery (its final timestamp can only grow,
   never shrink below the provisional one). Every delivery one apply
   releases carries that entry's log position
   (:attr:`AmcastDelivery.position`): the prefix that decided it.

Delivery floors (:mod:`repro.ordering.floor`) ride the same two steps: a
speaker puts its group's floor in every ``am-ts`` it sends, and the
receiving speaker writes the floors it has heard into the next ``am-final``
entry it orders, so every member of its group learns them at one log
position. A member keeps its own timestamp for a message, to answer
``am-ts-pull``, until every other destination's floor is past the
message's delivery key.

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

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.ordering.floor import Retention, past
from repro.ordering.group import GroupDirectory
from repro.ordering.log import GroupLog, LogClient
from repro.ordering.node import ProtocolNode

DeliverCallback = Callable[["AmcastDelivery"], None]
# ``callback(group, floor)``: this group learned that ``group`` rose to
# ``floor``.
FloorCallback = Callable[[str, tuple], None]

# One group's timestamp for a multi-group message, sent speaker to speaker.
AM_TS = "am-ts"
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
    # The log position whose apply delivered the message: the delivery
    # is decided by positions at or below it, so that prefix is what
    # must be durable before its effects are observed. -1 for one made
    # outside any log.
    position: int = -1


@dataclass
class _Pending:
    groups: tuple[str, ...]
    payload: Any
    origin: str
    size: int
    local_ts: int
    final_ts: Optional[int] = None

    @property
    def current_ts(self) -> int:
        return self.final_ts if self.final_ts is not None else self.local_ts


class AtomicMulticast:
    """One group member's endpoint of the atomic multicast protocol.

    Construct with the member's ordered log. ``speaker_only=True`` (default)
    makes the group speak with one voice: only its designated speaker
    announces the group's timestamps, hears the other groups' and orders
    the final one, and the layers above read :attr:`announcing` to let only
    that member transmit the group's signal/variable exchanges
    (``repro.ssmr.exchange``). Set it to False when the speaker may crash,
    in which case every member announces, hears, orders and transmits, and
    the logs and receivers deduplicate.
    """

    TS_SIZE = 96  # wire size of a timestamp announcement
    #: Attributes :meth:`snapshot` leaves out: wiring, callbacks, counters
    #: and the announcing member's ``_heard`` tables, which the
    #: self-heal's pulls rebuild.
    TRANSIENT = ("node", "directory", "log", "group", "speaker_only",
                 "heal_interval_ms", "_log_client", "_heard",
                 "_floors_heard", "_callbacks", "_floor_callbacks", "heals",
                 "ts_pulls")

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
        # Own group's timestamp per multi-group muid, kept past delivery
        # until every other destination's floor passes the delivery key
        # (``_ts_kept``): until then another group may pull it.
        self._my_ts: dict[str, int] = {}
        self._ts_kept = Retention()
        # The other groups' delivery floors, as this group's log ordered
        # them (replicated and checkpointed).
        self.floors: dict[str, tuple] = {}
        # Announcing member only: muid -> {other group: its timestamp},
        # until the message's final entry is applied here; and the floors
        # heard above those this group's log ordered, for the next final
        # entry to carry.
        self._heard: dict[str, dict[str, int]] = {}
        self._floors_heard: dict[str, tuple] = {}
        self._callbacks: list[DeliverCallback] = []
        self._floor_callbacks: list[FloorCallback] = []
        self._deliver_count = 0
        self.heals = 0
        self.ts_pulls = 0
        log.on_decide(self._apply)
        node.on(AM_TS, self._on_ts)
        node.on(AM_TS_PULL, self._on_ts_pull)

    # -- API ------------------------------------------------------------------

    def on_deliver(self, callback: DeliverCallback) -> None:
        self._callbacks.append(callback)

    def on_floor(self, callback: FloorCallback) -> None:
        """Register ``callback(group, floor)``, called as this group's log
        raises another group's floor."""
        self._floor_callbacks.append(callback)

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

    # -- checkpointing (repro.reconfig.checkpoint) ----------------------------

    def snapshot(self) -> dict:
        """The endpoint's replicated state, by reference."""
        return {"clock": self._clock,
                "delivered_uids": sorted(self._delivered_uids),
                "my_ts": self._my_ts, "ts_kept": self._ts_kept.queues,
                "floors": self.floors, "pending": self._pending,
                "deliver_count": self._deliver_count}

    def restore(self, state: dict) -> None:
        """Adopt a snapshot (a private copy), re-arming self-heals."""
        self._clock = state["clock"]
        self._delivered_uids = set(state["delivered_uids"])
        self._my_ts = state["my_ts"]
        self.floors = state["floors"]
        self._ts_kept = Retention(state["ts_kept"])
        self._pending = state["pending"]
        self._deliver_count = state["deliver_count"]
        if self.heal_interval_ms:
            for muid, pending in self._pending.items():
                if pending.final_ts is None and len(pending.groups) > 1:
                    self.node.env.schedule_callback(
                        self.heal_interval_ms, self._heal, muid)

    # -- log application (replicated deterministic state machine) -----------

    def _apply(self, seq: int, entry: dict) -> None:
        kind = entry["kind"]
        if kind == "am-propose":
            self._apply_propose(seq, entry)
        elif kind == "am-final":
            self._apply_final(entry)
        else:
            raise ValueError(f"unknown amcast log entry kind: {kind!r}")

    def _apply_propose(self, seq: int, entry: dict) -> None:
        muid = entry["muid"]
        if muid in self._delivered_uids:
            return
        self._clock_tick()
        state = self._pending[muid] = _Pending(
            groups=tuple(entry["groups"]), payload=entry["payload"],
            origin=entry["origin"], size=entry["size"],
            local_ts=self._clock)
        if len(state.groups) == 1:
            state.final_ts = state.local_ts
        else:
            self._my_ts[muid] = state.local_ts
            self._announce_ts(muid, state, seq)
            if self.heal_interval_ms:
                self.node.env.schedule_callback(
                    self.heal_interval_ms, self._heal, muid)
            # Every other group may have been heard from already.
            self._submit_final(muid, state)
        self._try_deliver()

    def _apply_final(self, entry: dict) -> None:
        floors = entry.get("floors")
        if floors:
            for group, floor in floors.items():
                if not past(self.floors.get(group), floor):
                    self._raise_floor(group, floor)
        muid = entry["muid"]
        ts = entry["ts"]
        self._clock_bump(ts)
        self._heard.pop(muid, None)
        state = self._pending.get(muid)
        if state is None:
            return   # delivered already
        state.final_ts = ts
        self._try_deliver()

    @property
    def announcing(self) -> bool:
        """Whether this member speaks for its group on the wire."""
        return (not self.speaker_only
                or self.directory.speaker(self.group) == self.node.name)

    def _announce_ts(self, muid: str, state: _Pending,
                     position: int) -> None:
        """Announce ``muid``'s timestamp once its propose, applied at
        ``position``, is durable here."""
        if not self.announcing:
            return
        groups = [group for group in state.groups if group != self.group]
        ts = state.local_ts
        self.log.when_durable(position,
                              lambda: self._send_ts(groups, muid, ts))

    def _send_ts(self, groups, muid: str, ts: int) -> None:
        """Send this group's timestamp for ``muid`` to ``groups``.

        Called only once the propose is durable here: a timestamp that
        other groups finalise on must survive a power cycle of this one,
        or they deliver a message this group never saw proposed.
        """
        if self.node.crashed:
            return
        payload = {"muid": muid, "from_group": self.group, "ts": ts,
                   "floor": self.log.key_floor}
        for group in groups:
            targets = ((self.directory.speaker(group),) if self.speaker_only
                       else self.directory.members(group))
            for target in targets:
                self.node.send(target, AM_TS, payload, size=self.TS_SIZE)

    def _on_ts(self, message) -> None:
        group, floor = message.payload["from_group"], message.payload["floor"]
        if floor is not None and not past(
                self._floors_heard.get(group, self.floors.get(group)), floor):
            self._floors_heard[group] = floor
        muid = message.payload["muid"]
        if muid in self._delivered_uids:
            return
        state = self._pending.get(muid)
        if state is not None and state.final_ts is not None:
            return   # late or duplicate: the final entry is applied
        heard = self._heard.setdefault(muid, {})
        heard[message.payload["from_group"]] = message.payload["ts"]
        if state is not None:
            self._submit_final(muid, state)

    def _submit_final(self, muid: str, state: _Pending) -> None:
        """Order ``muid``'s final timestamp in this group's log once every
        other destination group has been heard from.

        Every member that submits it submits it under the same uid, so
        the log keeps one copy. The entry also carries the floors heard
        that this group's log has not ordered yet. A crashed member
        submits nothing: on the sequencer a submit is applied in place.
        """
        if self.node.crashed:
            return
        heard = self._heard.get(muid, {})
        others = [group for group in state.groups if group != self.group]
        if any(group not in heard for group in others):
            return
        ts = max(state.local_ts, *(heard[group] for group in others))
        entry = {"uid": f"fin:{muid}:{self.group}", "kind": "am-final",
                 "muid": muid, "ts": ts}
        if self._floors_heard:
            entry["floors"] = dict(self._floors_heard)
        self.log.submit(entry)

    # -- self-heal under message loss --------------------------------------
    #
    # A multi-group message wedges a destination group if (a) the propose to
    # some other group was lost — that group never announces, the message
    # never finalises, and it blocks every later delivery here — (b) a
    # timestamp announcement to *us* was lost, or (c) our own final entry
    # was lost on its way to the log. The announcing member periodically
    # (i) re-proposes the full entry to the groups it has not heard from
    # and pulls their timestamps from their speakers, or, once it has heard
    # from all of them, (ii) resubmits the final entry. Log entries keep
    # their original uids, so every redundant copy deduplicates and the
    # heal is idempotent.

    def _heal(self, muid: str) -> None:
        state = self._pending.get(muid)
        if (state is None or state.final_ts is not None
                or not self.announcing):
            return
        self.heals += 1
        heard = self._heard.get(muid, {})
        missing = [group for group in state.groups
                   if group != self.group and group not in heard]
        if not missing:
            self._submit_final(muid, state)   # lost on its way to the log
        else:
            entry = _propose_entry(muid, state.groups, state.payload,
                                   state.origin, state.size)
            for group in missing:
                self._log_client.submit(group, entry, size=state.size + 128)
                self.ts_pulls += 1
                self.node.send(self.directory.speaker(group), AM_TS_PULL,
                               {"muid": muid, "reply_group": self.group},
                               size=64)
        self.node.env.schedule_callback(self.heal_interval_ms, self._heal,
                                        muid)

    def _on_ts_pull(self, message) -> None:
        if not self.announcing:
            return
        muid = message.payload["muid"]
        ts = self._my_ts.get(muid)
        if ts is None:
            return  # never saw the propose; the puller's re-propose fixes that
        # Pulls come from other groups only: _heal skips its own. The
        # propose's position is not kept, so wait for the newest applied.
        groups = [message.payload["reply_group"]]
        self.log.when_durable(self.log.applied_count - 1,
                              lambda: self._send_ts(groups, muid, ts))

    # -- delivery floors ------------------------------------------------------

    def _raise_floor(self, group: str, floor: tuple) -> None:
        self.floors[group] = floor
        heard = self._floors_heard.get(group)
        if heard is not None and past(floor, heard):
            del self._floors_heard[group]   # ordered now
        for muid in self._ts_kept.release(group, floor):
            self._my_ts.pop(muid, None)
        for callback in self._floor_callbacks:
            callback(group, floor)

    # -- logical clock ----------------------------------------------------

    def _clock_tick(self) -> None:
        self._clock += 1

    def _clock_bump(self, ts: int) -> None:
        self._clock = max(self._clock, ts)

    # -- delivery -----------------------------------------------------------

    def _try_deliver(self) -> None:
        # Called from a decide callback: every delivery this apply
        # releases shares its position.
        position = self.log.applied_count - 1
        while True:
            head = None   # smallest (current_ts, muid) among pending
            for muid, state in self._pending.items():
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
            key = (state.final_ts, muid)
            if len(state.groups) > 1 and not self._ts_kept.keep(
                    muid, key, [group for group in state.groups
                                if group != self.group], self.floors):
                self._my_ts.pop(muid, None)
            delivery = AmcastDelivery(
                uid=muid,
                payload=state.payload,
                groups=state.groups,
                origin=state.origin,
                timestamp=key,
                local_seq=self._deliver_count,
                position=position,
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
