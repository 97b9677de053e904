"""Cluster-side executor and MTTR ledger for the self-healing loop.

One :class:`ClusterHealer` per deployment wires everything together:

* attaches a :class:`~repro.heal.heartbeat.HeartbeatEmitter` to every
  monitored node (partition replicas, oracle replicas, and the
  supervisors themselves);
* builds the supervisor group on a *private* heal-group directory, so
  the cluster's own :class:`~repro.ordering.GroupDirectory` — and with
  it the invariant checkers and reconfiguration machinery — never sees
  the heal group;
* executes decided recovery actions exactly once (all supervisors apply
  the same ordered log and forward every action here; the healer dedups
  by action uid);
* keeps the MTTR books: suspicion episodes from confirmation to the
  first heartbeat of the recovered node, detection latency, false
  positives, fence/replace/reconnect counts, and per-partition
  unavailability windows — all surfaced through the cluster's
  :class:`~repro.obs.MetricsRegistry` and a canonical :meth:`snapshot`.

Safety guards baked into execution:

* **Fence before replace.** If a confirmed victim's server object is in
  fact still alive (wrong suspicion), it is object-crashed *first*, so
  the replacement is the only holder of the name — a healed-but-fenced
  node can never split-brain with its replacement.
* **Replace cooldown.** A node is fenced-and-replaced at most once per
  ``replace_cooldown_ms``; re-confirmations inside the window (e.g. a
  delay-spiked but alive replica, or a replacement whose state transfer
  is still riding out a partition) are suppressed, never double-replaced.
* **Reconnect is probe-safe.** The reconnect action only touches nodes
  the network actually has marked crashed; on anything else it is a
  no-op, so it can never disturb a healthy node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.harness.faults import reconnect_victim
from repro.heal.heartbeat import HeartbeatEmitter
from repro.heal.supervisor import HEAL_GROUP, RecoverySupervisor
from repro.heal.timing import DEFAULT_TIMING, TimingProfile
from repro.ordering.group import GroupDirectory


@dataclass
class Episode:
    """One suspicion episode: confirmation → first heartbeat back."""

    victim: str
    role: str
    group: str
    opened_at: float      # confirmation time
    silent_ms: float      # silence accrued before confirmation
    action: Optional[str] = None
    action_at: Optional[float] = None
    attempts: int = 0
    closed_at: Optional[float] = None
    false_positive: bool = False

    def to_dict(self) -> dict:
        return {
            "victim": self.victim, "role": self.role, "group": self.group,
            "opened_at": round(self.opened_at, 3),
            "silent_ms": round(self.silent_ms, 3),
            "action": self.action,
            "attempts": self.attempts,
            "closed_at": (round(self.closed_at, 3)
                          if self.closed_at is not None else None),
            "false_positive": self.false_positive,
        }


class ClusterHealer:
    """Autonomous failure detection + recovery for one cluster."""

    def __init__(self, cluster, timing: TimingProfile = DEFAULT_TIMING,
                 num_supervisors: int = 3,
                 spare_partition: Optional[str] = None):
        self.cluster = cluster
        self.env = cluster.env
        self.timing = timing
        self.spare_partition = spare_partition

        # Role map: node name -> (role, group). Built before the
        # supervisors so they can prime their detectors from it.
        self.roles: dict[str, tuple[str, str]] = {}
        for partition in cluster.partitions:
            speaker = cluster.directory.speaker(partition)
            for member in cluster.directory.members(partition):
                role = "speaker" if member == speaker else "follower"
                self.roles[member] = (role, partition)
        for oracle in cluster.oracles:
            name = oracle.node.name
            self.roles[name] = ("oracle",
                                cluster.directory.group_of(name) or "oracle")
        names = tuple(f"h{i}" for i in range(num_supervisors))
        for name in names:
            self.roles[name] = ("supervisor", HEAL_GROUP)

        # Private heal-group directory + supervisor nodes on the existing
        # switched topology (alternating switches, like server groups).
        self.directory = GroupDirectory({HEAL_GROUP: list(names)})
        for index, name in enumerate(names):
            cluster.topology.attach(name, index % 2)
        self.supervisors = [
            RecoverySupervisor(self.env, cluster.network, self.directory,
                               name, self, timing)
            for name in names]

        # Heartbeats from every monitored node to every supervisor.
        self.emitters: dict[str, HeartbeatEmitter] = {}
        for peer, (role, group) in sorted(self.roles.items()):
            if role == "supervisor":
                continue
            self._emit_from(cluster.member(peer).node, role, group)
        for supervisor in self.supervisors:
            self._emit_from(supervisor.node, "supervisor", HEAL_GROUP)

        # MTTR ledger.
        self.episodes: list[Episode] = []
        self._open: dict[str, Episode] = {}
        self._replaced_at: dict[str, float] = {}
        self._executed_uids: set[str] = set()
        self._lease_epochs: set[int] = set()
        self.leases: list[tuple[int, str]] = []
        self._window_open: dict[str, float] = {}
        self._window_total: dict[str, float] = {}
        self._window_count: dict[str, int] = {}
        self.timeline: list[tuple[float, str]] = []
        self._spare_joined = False
        self.stopped = False

        reg = cluster.registry
        self.detections = reg.counter("heal.detections")
        self.false_suspicions = reg.counter("heal.false_suspicions")
        self.fences = reg.counter("heal.fences")
        self.replaces = reg.counter("heal.replaces")
        self.reconnects = reg.counter("heal.reconnects")
        self.suppressed = reg.counter("heal.suppressed")
        self.deferred = reg.counter("heal.deferred")
        self.spare_joins = reg.counter("heal.spare_joins")
        self.recovery_failures = reg.counter("heal.recovery_failures")
        self.detect_hist = reg.histogram("heal.detect_ms")
        self.repair_hist = reg.histogram("heal.repair_ms")
        self.mttr_hist = reg.histogram("heal.mttr_ms")
        self.unavail_hist = reg.histogram("heal.unavailability_ms")
        reg.gauge("heal.epoch", lambda: max(
            (s.epoch for s in self.supervisors), default=0))

        # A peer state transfer turning terminal (every source peer gone)
        # must escalate, never hang: the cluster fans terminal recovery
        # failures out to these hooks.
        cluster.recovery_failure_hooks.append(self._on_recovery_failure)

    # -- wiring ----------------------------------------------------------

    def _emit_from(self, node, role: str, group: str) -> None:
        old = self.emitters.get(node.name)
        if old is not None:
            old.stop()
        self.emitters[node.name] = HeartbeatEmitter(
            self.env, node, role, group,
            [s.node.name for s in self.supervisors],
            self.timing.heartbeat_interval_ms)

    def monitor_partition(self, partition: str) -> None:
        """Start monitoring a partition added after construction."""
        speaker = self.cluster.directory.speaker(partition)
        for member in self.cluster.directory.members(partition):
            role = "speaker" if member == speaker else "follower"
            self.roles[member] = (role, partition)
            self._emit_from(self.cluster.member(member).node, role,
                            partition)
            for supervisor in self.supervisors:
                supervisor.monitor(member)

    def stop(self) -> None:
        """Tear the healing loop down (ends all of its timers)."""
        if self.stopped:
            return
        self.stopped = True
        for emitter in self.emitters.values():
            emitter.stop()
        for supervisor in self.supervisors:
            supervisor.stop()

    def spare_available(self) -> bool:
        return (self.spare_partition is not None
                and not self._spare_joined
                and self.cluster.reconfig is not None)

    # -- episode bookkeeping (called by supervisors) ----------------------

    def _note(self, now: float, text: str) -> None:
        self.timeline.append((now, text))

    def note_confirmed(self, victim: str, role: str, group: str,
                       now: float, phi: float, silent_ms: float,
                       supervisor: str) -> None:
        if self.stopped or victim in self._open:
            return
        episode = Episode(victim=victim, role=role, group=group,
                          opened_at=now, silent_ms=silent_ms)
        self._open[victim] = episode
        self.episodes.append(episode)
        self.detections.inc()
        self.detect_hist.observe(silent_ms)
        self._note(now, f"{supervisor} confirmed {victim} ({role}) "
                        f"phi={phi:.1f} after {silent_ms:.1f}ms silence")
        self.cluster.network.flight.record(
            victim, "suspected",
            f"by {supervisor} phi={phi:.1f} after {silent_ms:.1f}ms")
        # Unavailability window: from estimated failure onset (last
        # heartbeat heard) until the group's last open episode closes.
        if group in self.cluster.partitions and group not in self._window_open:
            self._window_open[group] = now - silent_ms

    def note_alive(self, victim: str, now: float) -> None:
        episode = self._open.pop(victim, None)
        if episode is None:
            return
        episode.closed_at = now
        if episode.action is None:
            episode.false_positive = True
            self.false_suspicions.inc()
            self._note(now, f"{victim} reappeared untouched "
                            f"(false suspicion)")
        else:
            repair = now - episode.opened_at
            self.repair_hist.observe(repair)
            self.mttr_hist.observe(episode.silent_ms + repair)
            self._note(now, f"{victim} healthy again {repair:.1f}ms after "
                            f"confirmation (action={episode.action})")
        self.cluster.network.flight.record(
            victim, "healed",
            f"action={episode.action or 'none'} "
            f"false_positive={episode.false_positive}")
        group = episode.group
        if group in self._window_open and not any(
                e.group == group for e in self._open.values()):
            start = self._window_open.pop(group)
            span = now - start
            self._window_total[group] = (
                self._window_total.get(group, 0.0) + span)
            self._window_count[group] = self._window_count.get(group, 0) + 1
            self.unavail_hist.observe(span)

    def note_lease(self, epoch: int, holder: str, now: float) -> None:
        if epoch in self._lease_epochs:
            return
        self._lease_epochs.add(epoch)
        self.leases.append((epoch, holder))
        self._note(now, f"lease epoch {epoch} -> {holder}")

    def _on_recovery_failure(self, recovery) -> None:
        """Escalate a terminal state transfer (all source peers gone).

        With a spare partition available the victim is abandoned in
        favour of spare capacity (the same escalation the supervisors
        reach after repeated replace attempts); otherwise the victim is
        marked abandoned so the supervisors stop retrying a recovery
        that can no longer succeed.
        """
        if self.stopped:
            return
        now = self.env.now
        victim = recovery.server.node.name
        self.recovery_failures.inc()
        self._note(now, f"recovery of {victim} terminal: sources "
                        f"{', '.join(recovery.peers_tried)} all gone")
        episode = self._open.get(victim)
        if self.spare_available():
            self._execute_spare_join(victim, episode, now)
        else:
            for supervisor in self.supervisors:
                supervisor.on_abandoned(victim)

    # -- action execution (decided log entries) ---------------------------

    def execute(self, entry: dict, now: float) -> None:
        """Run a decided recovery action exactly once."""
        if self.stopped or entry["uid"] in self._executed_uids:
            return
        self._executed_uids.add(entry["uid"])
        victim, action = entry["victim"], entry["action"]
        episode = self._open.get(victim)
        if action == "replace":
            self._execute_replace(victim, episode, now)
        elif action == "reconnect":
            self._execute_reconnect(victim, episode, now)
        elif action == "spare_join":
            self._execute_spare_join(victim, episode, now)

    def _execute_replace(self, victim: str, episode, now: float) -> None:
        cluster = self.cluster
        server = cluster.servers.get(victim)
        if server is None:
            return
        last = self._replaced_at.get(victim)
        if (last is not None
                and now - last < self.timing.replace_cooldown_ms):
            # Hard guard against double-replacing a slow-but-alive node:
            # one fence+replace per cooldown window, full stop.
            self.suppressed.inc()
            self._note(now, f"replace {victim} suppressed (cooldown)")
            return
        if not cluster.live_peers(victim):
            # No live peer to recover from; leave the episode open so the
            # holder retries after action_retry_ms.
            self.deferred.inc()
            self._note(now, f"replace {victim} deferred (no live peer)")
            return
        if not server.node.crashed:
            # Wrong suspicion or blackout: fence the old incarnation out
            # before a replacement takes over the name.
            self.fences.inc()
            self._note(now, f"fencing live {victim} before replacement")
            server.crash()
        replacement = cluster.recover_server(victim)
        self._replaced_at[victim] = now
        self.replaces.inc()
        if episode is not None:
            episode.action = "replace"
            episode.action_at = now
            episode.attempts += 1
        role, group_name = self.roles[victim]
        self._emit_from(replacement.node, role, group_name)
        for supervisor in self.supervisors:
            supervisor.on_replaced(victim)
        self._note(now, f"replaced {victim} (checkpoint-install recovery)")

    def _execute_reconnect(self, victim: str, episode, now: float) -> None:
        if episode is not None:
            episode.action = "reconnect"
            episode.action_at = now
            episode.attempts += 1
        if not self.cluster.network.is_crashed(victim):
            # Nothing to reconnect — the node is either healthy (wrong
            # suspicion; never disturb it) or object-dead (escalation to
            # spare_join will kick in after enough attempts).
            self._note(now, f"reconnect {victim}: no-op (not blacked out)")
            return
        reconnect_victim(self.cluster, victim)
        self.reconnects.inc()
        self._note(now, f"reconnected {victim}")

    def _execute_spare_join(self, victim: str, episode, now: float) -> None:
        if not self.spare_available():
            return
        self._spare_joined = True
        self.spare_joins.inc()
        if episode is not None:
            episode.action = "spare_join"
            episode.action_at = now
            episode.attempts += 1
        spare = self.spare_partition
        self._note(now, f"{victim} unrecoverable: joining spare "
                        f"partition {spare}")
        # Stop retrying actions against the abandoned victim; capacity
        # now comes from the spare instead.
        for supervisor in self.supervisors:
            supervisor.on_abandoned(victim)

        def join():
            yield from self.cluster.grow(spare)
            self.monitor_partition(spare)
            self._note(self.env.now, f"spare partition {spare} joined")

        self.env.process(join(), name=f"heal/join-{spare}")

    # -- reporting --------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> dict:
        """Canonical, JSON-stable summary for run results and smokes."""
        now = self.env.now if now is None else now
        unavailability = {group: round(total, 3)
                          for group, total in
                          sorted(self._window_total.items())}
        for group, start in sorted(self._window_open.items()):
            unavailability[group] = round(
                unavailability.get(group, 0.0) + (now - start), 3)
        return {
            "detections": self.detections.value,
            "false_suspicions": self.false_suspicions.value,
            "fences": self.fences.value,
            "replaces": self.replaces.value,
            "reconnects": self.reconnects.value,
            "suppressed": self.suppressed.value,
            "deferred": self.deferred.value,
            "spare_joins": self.spare_joins.value,
            "recovery_failures": self.recovery_failures.value,
            "leases": [[epoch, holder] for epoch, holder in self.leases],
            "episodes": [e.to_dict() for e in self.episodes],
            "unavailability_ms": unavailability,
            # An empty histogram summarises to NaNs, which are not valid
            # JSON — collapse to the bare count instead.
            "mttr_ms": ({key: round(value, 3)
                         for key, value in
                         sorted(self.mttr_hist.summary().items())}
                        if self.mttr_hist.count else {"count": 0}),
        }

    def format_timeline(self) -> list[str]:
        """The detection→recovery timeline, one formatted line per event."""
        return [f"[{t:8.1f}ms] {text}" for t, text in self.timeline]
