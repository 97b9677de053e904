"""Multi-Paxos ordered log (crash fault tolerant).

A from-scratch Multi-Paxos where every group member plays proposer,
acceptor and learner. Leadership rotates by round: the leader of round ``r``
is ``members[r % n]``. A new leader runs phase 1 once for the whole log
(single ballot for all instances — the classic Multi-Paxos optimisation),
adopts the highest-ballot accepted values it hears about, fills holes with
no-ops, and then streams phase-2 ``accept`` messages for submissions.

Liveness machinery:

* leader heartbeats + per-member timeout-based suspicion drive round
  changes;
* members resubmit entries they have forwarded until the entry is applied;
* members with a gap periodically ask the leader for the missing decision
  (covers decide messages lost to injected drops).

Safety rests only on ballot comparison and majority quorums, so the log
stays correct under message loss, reordering and up to ``⌈n/2⌉-1`` member
crashes.
"""

from __future__ import annotations

from typing import Optional

from repro.heal.timing import DEFAULT_TIMING, TimingProfile
from repro.net import Message
from repro.ordering.group import GroupDirectory
from repro.ordering.log import GroupLog, submit_kind
from repro.ordering.node import ProtocolNode

Ballot = tuple[int, int]  # (round, member rank); compared lexicographically


class PaxosLog(GroupLog):
    """One member's endpoint of a Multi-Paxos replicated log.

    Sends no stable-position reports and keeps floor 0: ``decided_entries``
    (like ``decided`` and ``accepted``) retains every entry, and the heal
    supervisor's lease group, which orders through this log, carries no
    report traffic.
    """

    # Liveness timers come from the shared profile (repro.heal.timing);
    # the class attributes keep the historical spelling and defaults, and
    # a per-instance ``timing`` overrides them (e.g. FAST_TIMING in tests).
    HEARTBEAT_MS = DEFAULT_TIMING.paxos_heartbeat_ms
    SUSPECT_MS = DEFAULT_TIMING.paxos_suspect_ms
    RETRY_MS = DEFAULT_TIMING.paxos_retry_ms
    CONTROL_SIZE = 128
    #: Acceptor, proposer and retry state is not carried by a checkpoint.
    TRANSIENT = GroupLog.TRANSIENT + (
        "HEARTBEAT_MS", "SUSPECT_MS", "RETRY_MS", "members", "rank",
        "majority", "promised", "accepted", "round", "leading", "ballot",
        "next_instance", "_promises", "_inflight", "_queue",
        "_proposed_uids", "decided", "_tracked", "_last_heartbeat")

    def __init__(self, node: ProtocolNode, directory: GroupDirectory,
                 group: str, timing: Optional[TimingProfile] = None):
        super().__init__(node, directory, group)
        if timing is not None:
            self.HEARTBEAT_MS = timing.paxos_heartbeat_ms
            self.SUSPECT_MS = timing.paxos_suspect_ms
            self.RETRY_MS = timing.paxos_retry_ms
        self.members = directory.members(group)
        self.rank = self.members.index(node.name)
        self.majority = len(self.members) // 2 + 1

        # Acceptor state.
        self.promised: Optional[Ballot] = None
        self.accepted: dict[int, tuple[Ballot, dict]] = {}

        # Leader / proposer state.
        self.round = 0
        self.leading = False
        self.ballot: Optional[Ballot] = None
        self.next_instance = 0
        self._promises: dict[str, dict[int, tuple[Ballot, dict]]] = {}
        self._inflight: dict[int, dict] = {}   # instance -> proposal record
        self._queue: list[dict] = []           # entries awaiting proposal
        self._proposed_uids: set[str] = set()
        self.decided: dict[int, dict] = {}

        # Client-side retry state: uid -> entry we are responsible for.
        self._tracked: dict[str, dict] = {}
        self._last_heartbeat = node.env.now

        prefix = f"paxos/{group}"
        node.on(submit_kind(group), self._on_submit)
        node.on(f"{prefix}/prepare", self._on_prepare)
        node.on(f"{prefix}/promise", self._on_promise)
        node.on(f"{prefix}/accept", self._on_accept)
        node.on(f"{prefix}/accepted", self._on_accepted)
        node.on(f"{prefix}/decide", self._on_decide)
        node.on(f"{prefix}/heartbeat", self._on_heartbeat)
        node.on(f"{prefix}/catchup", self._on_catchup)

        if self._leader_of_round(0) == node.name:
            self._start_phase1()
        self._schedule(self.HEARTBEAT_MS, self._heartbeat_tick)
        self._schedule(self.SUSPECT_MS, self._suspect_tick)
        self._schedule(self.RETRY_MS, self._retry_tick)

    # -- helpers ------------------------------------------------------------

    def _leader_of_round(self, round_number: int) -> str:
        return self.members[round_number % len(self.members)]

    @property
    def leader(self) -> str:
        """The member this node currently believes is leader."""
        return self._leader_of_round(self.round)

    def _schedule(self, delay: float, fn) -> None:
        def guarded() -> None:
            if not self.node.crashed:
                fn()
        self.node.env.schedule_callback(delay, guarded)

    def _bcast(self, kind_suffix: str, payload: dict,
               size: int | None = None) -> None:
        kind = f"paxos/{self.group}/{kind_suffix}"
        size = size if size is not None else self.CONTROL_SIZE
        for member in self.members:
            if member != self.node.name:
                self.node.send(member, kind, payload, size=size)

    # -- submission ------------------------------------------------------------

    def submit(self, entry: dict) -> None:
        if "uid" not in entry:
            raise ValueError("log entries must carry a 'uid'")
        self._tracked[entry["uid"]] = entry
        self._route_to_leader(entry)

    def _route_to_leader(self, entry: dict) -> None:
        if self.leading:
            self._propose(entry)
        else:
            self.node.send(self.leader, submit_kind(self.group), entry,
                           size=self.CONTROL_SIZE + entry.get("size", 0))

    def _on_submit(self, message: Message) -> None:
        entry = message.payload
        self._tracked.setdefault(entry["uid"], entry)
        if self.leading:
            self._propose(entry)
        # If not leading, the retry timer re-routes it later.

    # -- phase 1 ------------------------------------------------------------

    def _start_phase1(self) -> None:
        self.ballot = (self.round, self.rank)
        self._promises = {}
        self.leading = False
        # Self-promise.
        if self.promised is None or self.ballot >= self.promised:
            self.promised = self.ballot
            self._promises[self.node.name] = dict(self.accepted)
        self._bcast("prepare", {"ballot": self.ballot})
        self._check_phase1()

    def _on_prepare(self, message: Message) -> None:
        ballot = tuple(message.payload["ballot"])
        if self.promised is None or ballot >= self.promised:
            self.promised = ballot
            self.node.send(message.src, f"paxos/{self.group}/promise",
                           {"ballot": ballot, "accepted": dict(self.accepted)},
                           size=self.CONTROL_SIZE)
            # A higher ballot means someone else is taking over.
            if self.leading and ballot > self.ballot:
                self.leading = False

    def _on_promise(self, message: Message) -> None:
        if tuple(message.payload["ballot"]) != self.ballot or self.leading:
            return
        self._promises[message.src] = message.payload["accepted"]
        self._check_phase1()

    def _check_phase1(self) -> None:
        if self.leading or len(self._promises) < self.majority:
            return
        self.leading = True
        # Adopt the highest-ballot accepted value per instance.
        adopted: dict[int, dict] = {}
        for accepted_map in self._promises.values():
            for instance, (ballot, entry) in accepted_map.items():
                instance = int(instance)
                current = adopted.get(instance)
                if current is None or tuple(ballot) > current[0]:
                    adopted[instance] = (tuple(ballot), entry)
        highest = max(list(adopted) + list(self.decided) + [-1])
        self.next_instance = highest + 1
        self._inflight = {}
        for instance in range(self.next_instance):
            if instance in self.decided:
                continue
            if instance in adopted:
                entry = adopted[instance][1]
            else:
                entry = {"uid": f"noop-{self.group}-{instance}",
                         "noop": True}
            self._send_accepts(instance, entry)
        # Flush queued client entries.
        queue, self._queue = self._queue, []
        for entry in queue:
            self._propose(entry)

    # -- phase 2 ------------------------------------------------------------

    def _propose(self, entry: dict) -> None:
        uid = entry["uid"]
        if uid in self._proposed_uids or uid in self._applied_uids:
            return
        if not self.leading:
            self._queue.append(entry)
            return
        self._proposed_uids.add(uid)
        instance = self.next_instance
        self.next_instance += 1
        self._send_accepts(instance, entry)

    def _send_accepts(self, instance: int, entry: dict) -> None:
        record = {"entry": entry, "acks": {self.node.name}}
        self._inflight[instance] = record
        # Self-accept.
        self.accepted[instance] = (self.ballot, entry)
        payload = {"ballot": self.ballot, "instance": instance,
                   "entry": entry}
        self._bcast("accept", payload,
                    size=self.CONTROL_SIZE + entry.get("size", 0))
        self._check_decided(instance)

    def _on_accept(self, message: Message) -> None:
        ballot = tuple(message.payload["ballot"])
        if self.promised is not None and ballot < self.promised:
            return
        self.promised = ballot
        instance = message.payload["instance"]
        self.accepted[instance] = (ballot, message.payload["entry"])
        self.node.send(message.src, f"paxos/{self.group}/accepted",
                       {"ballot": ballot, "instance": instance},
                       size=self.CONTROL_SIZE)

    def _on_accepted(self, message: Message) -> None:
        if not self.leading:
            return
        if tuple(message.payload["ballot"]) != self.ballot:
            return
        instance = message.payload["instance"]
        record = self._inflight.get(instance)
        if record is None:
            return
        record["acks"].add(message.src)
        self._check_decided(instance)

    def _check_decided(self, instance: int) -> None:
        record = self._inflight.get(instance)
        if record is None or len(record["acks"]) < self.majority:
            return
        entry = record["entry"]
        del self._inflight[instance]
        self._decide(instance, entry)
        self._bcast("decide", {"instance": instance, "entry": entry},
                    size=self.CONTROL_SIZE + entry.get("size", 0))

    def _on_decide(self, message: Message) -> None:
        self._decide(message.payload["instance"], message.payload["entry"])

    def _decide(self, instance: int, entry: dict) -> None:
        if instance not in self.decided:
            self.decided[instance] = entry
        self._tracked.pop(entry.get("uid"), None)
        self._learn(instance, entry)

    # -- liveness timers ------------------------------------------------------

    def _heartbeat_tick(self) -> None:
        if self.leading:
            self._bcast("heartbeat", {"round": self.round})
        self._schedule(self.HEARTBEAT_MS, self._heartbeat_tick)

    def _on_heartbeat(self, message: Message) -> None:
        their_round = message.payload["round"]
        if their_round >= self.round:
            if their_round > self.round:
                self.round = their_round
                self.leading = False
            self._last_heartbeat = self.node.env.now

    def _suspect_tick(self) -> None:
        stale = self.node.env.now - self._last_heartbeat > self.SUSPECT_MS
        if not self.leading and stale:
            self.round += 1
            self._last_heartbeat = self.node.env.now
            if self.leader == self.node.name:
                self._start_phase1()
        self._schedule(self.SUSPECT_MS, self._suspect_tick)

    def _retry_tick(self) -> None:
        for uid, entry in list(self._tracked.items()):
            if uid in self._applied_uids:
                del self._tracked[uid]
            else:
                self._route_to_leader(entry)
        # Retransmit phase-2 accepts for stalled in-flight instances: a
        # dropped accept/accepted message must not wedge the instance (and
        # with it, gapless application of everything behind it).
        if self.leading:
            for instance, record in list(self._inflight.items()):
                entry = record["entry"]
                self._bcast("accept",
                            {"ballot": self.ballot, "instance": instance,
                             "entry": entry},
                            size=self.CONTROL_SIZE + entry.get("size", 0))
        # Gap-fill: ask the leader for the lowest missing decision.
        if self._pending_apply and not self.leading:
            missing = self._next_apply
            self.node.send(self.leader, f"paxos/{self.group}/catchup",
                           {"instance": missing, "from": self.node.name},
                           size=self.CONTROL_SIZE)
        self._schedule(self.RETRY_MS, self._retry_tick)

    def _on_catchup(self, message: Message) -> None:
        instance = message.payload["instance"]
        entry = self.decided.get(instance)
        if entry is not None:
            self.node.send(message.payload["from"],
                           f"paxos/{self.group}/decide",
                           {"instance": instance, "entry": entry},
                           size=self.CONTROL_SIZE + entry.get("size", 0))
