"""The replicated DS-SMR oracle (Algorithm 4 of the paper).

The oracle is a replicated service in its own server group. It maintains the
dynamic variable→partition mapping and answers consults:

* **Task 1 — consult.** For a create, pick the new variable's partition
  (policy) and tell the client where to multicast. For an access, return the
  involved partitions; when they span several partitions, pick the gather
  destination (policy) and — if the oracle is configured to issue moves
  itself (the graph-partitioned extension) — atomically multicast the move
  and tell the client to synchronise on it.
* **Task 2 — create.** Update the mapping and exchange a signal with the
  creating partition (the linearizability coordination of multi-partition
  commands, specialised to {oracle, partition}).
* **Task 3 — move.** Update the mapping; no coordination needed — a move
  cannot interleave with a create, and racing moves merely cause client
  retries. Each move is followed once (``followed_moves``).
* **Tasks 5/6 — hints & repartitioning.** Ingest workload hints and
  periodically recompute an ideal partitioning (policy; deterministic on
  every replica because hints arrive through the ordered log).

The oracle replica charges simulated CPU time per request into a
:class:`~repro.sim.monitor.BusyTracker` — the measurement behind the
"oracle CPU load" experiment.
"""

from __future__ import annotations

import copy
from typing import Optional

from repro.net import Network
from repro.obs.tracing import trace_id_of
from repro.ordering import (AmcastDelivery, GroupDirectory, ReliableMulticast,
                            SequencerLog)
from repro.resilience import STALE
from repro.sim import BusyTracker, Counter, Environment
from repro.smr.command import Command, CommandType, ReplyStatus
from repro.smr.executor import OrderedExecutor, delivery_attempt
from repro.core.policy import MajorityTargetPolicy, OraclePolicy
from repro.core.prophecy import Prophecy, ProphecyStatus
from repro.ssmr.exchange import ExchangeBuffer

ORACLE_GROUP = "oracle"
PROPHECY_KIND = "prophecy"
# Oracle -> ReconfigurationManager acknowledgement of an ordered
# reconfiguration entry (see repro.reconfig.manager).
RECONFIG_ACK_KIND = "reconfig/ack"


class OracleReplica(OrderedExecutor):
    """One replica of the DS-SMR partitioning oracle."""

    ROLE_STATE = ("partitions", "location", "partition_sizes",
                  "map_version", "followed_moves", "policy", "draining",
                  "retired", "_reconfig_acks", "_commit_attempts",
                  "_next_partitioning_id", "_pending_ideals")
    TRANSIENT = OrderedExecutor.TRANSIENT + (
        "_first_build", "oracle_issues_moves", "async_repartition", "busy",
        "busy_background", "consults", "moves_issued", "repartitions",
        "reconfigs", "evacuations")

    #: Simulated CPU cost of oracle request handling, in ms.
    CONSULT_COST = 0.02
    PER_VARIABLE_COST = 0.004

    def __init__(self, env: Environment, network: Network,
                 directory: GroupDirectory, name: str,
                 partitions: tuple[str, ...],
                 policy: Optional[OraclePolicy] = None,
                 oracle_issues_moves: bool = False,
                 async_repartition: bool = False,
                 log_factory=SequencerLog,
                 speaker_only: bool = True,
                 dedup: bool = True,
                 start_gate=None):
        super().__init__(env, network, directory, ORACLE_GROUP, name,
                         log_factory=log_factory, speaker_only=speaker_only,
                         dedup=dedup, start_gate=start_gate)
        self.partitions = tuple(partitions)
        self.rmcast = ReliableMulticast(self.node, directory)
        self.exchange = ExchangeBuffer(env, self.rmcast, ORACLE_GROUP,
                                       amcast=self.amcast)
        self.policy = policy or MajorityTargetPolicy()
        # What a respawned replica starts from: its log replays every
        # entry past the base image (or a checkpoint replaces both).
        self._first_build = {"partitions": self.partitions,
                             "policy": copy.deepcopy(self.policy)}
        self.oracle_issues_moves = oracle_issues_moves
        # Asynchronous repartitioning (paper, implementation section): the
        # oracle is "multi-threaded, and can service requests while
        # computing a new partitioning concurrently"; replicas switch to
        # the new partitioning consistently by atomically multicasting its
        # unique id. Requires a policy with ingest/compute/install split
        # (the graph-partitioned policy).
        self.async_repartition = (async_repartition
                                  and hasattr(self.policy, "ingest_hint"))
        # Ideals computed but not yet activated, by partitioning id; at
        # most one is in flight.
        self._next_partitioning_id = 0
        self._pending_ideals: dict[int, dict] = {}

        # The dynamic mapping: variable key -> partition name, plus the
        # incrementally maintained variable count per partition.
        self.location: dict = {}
        self.partition_sizes: dict[str, int] = {p: 0 for p in self.partitions}
        # Bumped on every ordered map change; replica-consistent because
        # all changes happen in ordered-delivery execution. Oracle-issued
        # move ids embed it so a re-consult against a *changed* map issues
        # a genuinely new move instead of colliding with (and being
        # uid-deduplicated against) the one issued for the old map — the
        # fuzzer's minimal repro for that livelock is a sequencer blackout
        # that delays one consult until a concurrent client has moved one
        # of its variables away again.
        self.map_version = 0
        # Move cids already followed (see _follow_move). Replicated map
        # state, not a reply cache: a move's first copy can reach the
        # oracle after its issuer's next command, so no session watermark
        # may retire it. It grows by one cid per move over the run, and
        # checkpoints carry it.
        self.followed_moves: set[str] = set()

        # Elastic reconfiguration state (repro.reconfig), beside the
        # configuration epoch: partitions draining out, partitions fully
        # retired, cached acknowledgements for re-delivered
        # reconfiguration entries, and the per-partition leave-commit
        # attempt counter (each commit retry re-plans the leftover keys
        # under fresh move ids).
        self.draining: set[str] = set()
        self.retired: set[str] = set()
        self._reconfig_acks: dict[tuple[str, str], dict] = {}
        self._commit_attempts: dict[str, int] = {}

        # Metrics.
        self.busy = BusyTracker(f"{name}/busy")
        self.busy_background = BusyTracker(f"{name}/busy-background")
        self.consults = Counter(f"{name}/consults")
        self.moves_issued = Counter(f"{name}/moves")
        self.repartitions = Counter(f"{name}/repartitions")
        self.reconfigs = Counter(f"{name}/reconfigs")
        self.evacuations = Counter(f"{name}/evacuations")

    # -- lifecycle ------------------------------------------------------------

    def load_state(self, contents: dict) -> None:
        """Install the initial mapping: variable key -> partition."""
        for key, partition in contents.items():
            self._relocate(key, partition)

    def _respawn_options(self) -> dict:
        return dict(self._first_build,
                    policy=copy.deepcopy(self._first_build["policy"]),
                    oracle_issues_moves=self.oracle_issues_moves,
                    async_repartition=self.async_repartition,
                    speaker_only=self.amcast.speaker_only)

    def restore(self, state: dict) -> None:
        super().restore(state)
        # The background computation of a pending ideal died with the
        # replica that started it; its result did not. Re-announcing it
        # is harmless: every replica announces under one uid.
        for partitioning_id in self._pending_ideals:
            self.env.schedule_callback(
                0.0, self._announce_partitioning, partitioning_id)

    def _relocate(self, key, partition) -> None:
        """Point ``key`` at ``partition``, keeping the size counters true."""
        old = self.location.get(key)
        if old == partition:
            return
        self.map_version += 1
        if old is not None:
            self.partition_sizes[old] = self.partition_sizes.get(old, 1) - 1
        self.location[key] = partition
        # get() tolerates a late relocation onto a retired partition (its
        # size entry was dropped at leave-commit; evacuation moves it off).
        self.partition_sizes[partition] = \
            self.partition_sizes.get(partition, 0) + 1

    def _forget(self, key) -> None:
        old = self.location.pop(key, None)
        if old is not None:
            self.map_version += 1
            self.partition_sizes[old] = self.partition_sizes.get(old, 1) - 1

    # -- overload control (repro.qos) ----------------------------------------

    def _overload_message(self, command: Command, attempt: int,
                          reason: str) -> tuple:
        """Consult floods are the oracle's overload mode: a shed consult
        is answered on the consult reply channel, with an ``OVERLOAD``
        prophecy; everything else gets the ``OVERLOAD`` reply."""
        if command.ctype is not CommandType.CONSULT:
            return super()._overload_message(command, attempt, reason)
        prophecy = Prophecy(status=ProphecyStatus.OVERLOAD, reason=reason,
                            epoch=self.epoch)
        return PROPHECY_KIND, {"cid": command.cid, "prophecy": prophecy}

    # -- executor ---------------------------------------------------------------

    def _handle_delivery(self, delivery: AmcastDelivery):
        started = self.env.now
        yield from self._run_task(delivery)
        if self.env.now > started:
            self.busy.add_busy(started, self.env.now - started)
            # Mirrors the BusyTracker: the whole handler (consult,
            # create/delete signal exchange, reconfig planning, hint
            # ingestion) is the oracle's "execute" stage.
            if self.node.profiler.enabled:
                self.node.profiler.account(self.node.name, "execute",
                                           self.env.now - started)

    def _run_task(self, delivery: AmcastDelivery):
        envelope = delivery.payload
        if "hint" in envelope:
            yield from self._task_hint(envelope["hint"])
            return
        if "activate_partitioning" in envelope:
            self._task_activate(envelope["activate_partitioning"])
            return
        if "reconfig" in envelope:
            yield from self._task_reconfig(envelope["reconfig"])
            return
        command: Command = envelope["command"]
        attempt = delivery_attempt(envelope)
        cost = self.CONSULT_COST + self.PER_VARIABLE_COST * len(
            command.variables)
        exec_start = self.env.now
        yield self.env.timeout(cost)
        if self.tracer.enabled:
            self.tracer.span(trace_id_of(command.cid), "execute",
                             self.node.name, exec_start, self.env.now,
                             task=command.ctype.value)
        if command.ctype is CommandType.CONSULT:
            self._task_consult(command)
        elif command.ctype is CommandType.CREATE:
            yield from self._task_create(command, attempt)
        elif command.ctype is CommandType.DELETE:
            yield from self._task_delete(command, attempt)
        elif command.ctype is CommandType.MOVE:
            self._task_move(command)
        else:
            raise ValueError(
                f"oracle cannot execute {command.ctype.value!r} commands")

    # -- Task 1: consult ----------------------------------------------------

    def _task_consult(self, command: Command) -> None:
        if self.replies.classify(command) is STALE:
            return      # its command finished: nobody awaits the prophecy
        self.consults.increment(self.env.now)
        inner_ctype = command.args["inner_ctype"]
        if inner_ctype == "create":
            prophecy = self._consult_create(command)
        else:
            prophecy = self._consult_access(command)
        self._send_prophecy(command, prophecy)

    def _consult_create(self, command: Command) -> Prophecy:
        key = command.variables[0]
        if key in self.location:
            return Prophecy(status=ProphecyStatus.NOK,
                            reason="variable already exists")
        target = self.policy.partition_for_create(key, self.location,
                                                  self.partitions,
                                                  self.partition_sizes)
        return Prophecy(status=ProphecyStatus.LOCATIONS,
                        tuples={key: target}, target=target)

    def _consult_access(self, command: Command) -> Prophecy:
        missing = [v for v in command.variables if v not in self.location]
        if missing:
            return Prophecy(status=ProphecyStatus.NOK,
                            reason=f"unknown variables: {missing[:3]}")
        tuples = {v: self.location[v] for v in command.variables}
        dests = set(tuples.values())
        if len(dests) <= 1:
            return Prophecy(status=ProphecyStatus.LOCATIONS, tuples=tuples)
        target = self.policy.target_for_access(command.variables,
                                               self.location, self.partitions,
                                               self.partition_sizes)
        prophecy = Prophecy(status=ProphecyStatus.LOCATIONS, tuples=tuples,
                            target=target)
        if self.oracle_issues_moves:
            # The map version distinguishes re-consults of the same command
            # against a changed map (new move needed, new id) from plain
            # resends of the same consult (same version, same id — the
            # ordered logs then deduplicate the duplicate move).
            move_cid = f"{command.cid}:omove:v{self.map_version}"
            self._issue_move(command, tuples, target, move_cid)
            prophecy.sync = True
            prophecy.move_cid = move_cid
        return prophecy

    def _issue_move(self, command: Command, tuples: dict, target: str,
                    move_cid: str) -> None:
        """Oracle-issued move (graph-partitioned mode, Algorithm 4 Task 1).

        The move has no issuer session (``client`` is empty; the
        consulting client is only notified). It needs none: every oracle
        replica multicasts it under one uid, so the ordered logs deliver
        it once. And it must have none: a client that times out waiting
        for the acknowledgement re-consults and may finish its command
        elsewhere while this move is still undelivered at a source, so a
        watermark could turn the source's first copy stale while the
        destination waits for its shipment.
        """
        variables = tuple(v for v, p in tuples.items() if p != target)
        sources = sorted({p for v, p in tuples.items() if p != target})
        move = Command(op="move", ctype=CommandType.MOVE,
                       variables=variables,
                       args={"sources": sources, "dest": target,
                             "notify": command.client},
                       cid=move_cid)
        dests = [ORACLE_GROUP, target] + sources
        envelope = {"command": move, "dests": sorted(set(dests))}
        if self.tracer.enabled and self.tracer.sent_at(move_cid) is None:
            # First replica to issue wins the mark: the move's *order*
            # span measures from the earliest issue to delivery.
            self.tracer.mark_send(move_cid, self.env.now)
        # Every oracle replica multicasts with the same uid; the ordered
        # logs deduplicate, so exactly one move is ordered.
        self.amcast.multicast(sorted(set(dests)), envelope,
                              size=move.payload_size(), uid=f"am:{move_cid}")
        self.moves_issued.increment(self.env.now, len(variables))
        self.node.flight("move", f"issued {move_cid} -> {target}")

    # -- Task 2: create / delete ----------------------------------------------

    def _task_create(self, command: Command, attempt: int = 1):
        # A re-delivered create/delete (client resend) must not re-run
        # Task 2 — the verdict would flip ("exists"/"missing") and race
        # the partition's cached reply — so the oracle keeps sessions too.
        # A stale copy is safe to skip: the partition it pairs with waited
        # for this replica group's verdict before its client could finish.
        if self._answered(command, attempt):
            return
        key = command.variables[0]
        partition = command.args["partition"]
        # The verdict rides on the signal: a create that lost the race
        # against another create must still unblock the waiting partition,
        # which only installs the variable on an "ok" verdict.
        verdict = "nok" if key in self.location else "ok"
        self.exchange.send([partition], command.cid, {"verdict": verdict},
                           key=self.delivery_key)
        yield from self.exchange.wait(command.cid, {partition})
        self.exchange.collect(command.cid)
        if verdict == "ok":
            self._relocate(key, partition)
            self.policy.on_create(key, partition)
            # A create consulted before a leave fence may land on a
            # draining/retired partition; move it to a live one.
            self._maybe_evacuate(command.cid, (key,), partition)
            self._reply(command, ReplyStatus.OK, "created", attempt)
        else:
            self._reply(command, ReplyStatus.NOK, "exists", attempt)

    def _task_delete(self, command: Command, attempt: int = 1):
        if self._answered(command, attempt):
            return
        key = command.variables[0]
        partition = command.args["partition"]
        current = self.location.get(key)
        verdict = "ok" if current == partition else "nok"
        self.exchange.send([partition], command.cid, {"verdict": verdict},
                           key=self.delivery_key)
        yield from self.exchange.wait(command.cid, {partition})
        self.exchange.collect(command.cid)
        if verdict == "ok":
            self._forget(key)
            self.policy.on_delete(key)
            self._reply(command, ReplyStatus.OK, "deleted", attempt)
        else:
            self._reply(command, ReplyStatus.NOK, "missing", attempt)

    # -- Task 3: move -----------------------------------------------------------

    def _task_move(self, command: Command) -> None:
        moved = self._follow_move(command)
        if not self.oracle_issues_moves:
            self.moves_issued.increment(self.env.now,
                                        len(command.variables))
        # A client-issued move whose target was consulted before a leave
        # fence may gather variables on a draining/retired partition.
        if moved:
            self._maybe_evacuate(command.cid, tuple(moved),
                                 command.args["dest"])

    def _follow_move(self, command: Command) -> list:
        """Point the map at the move's destination; returns the keys moved.

        Only the first delivery of a move counts, here as at its sources
        and its destination: a client that timed out re-multicasts the
        move under a fresh uid, and by then the variable may have come
        back — relocating it again would point the map at a partition
        that ignores the stale copy and never installs the value.

        The partitions tell copies apart by the issuer's session; the
        oracle cannot. It follows a move but takes no part in its
        exchange, so the issuer's acknowledgement says nothing about the
        oracle, and Skeen order need not respect the client's real-time
        order across groups: its next consult can reach the oracle
        *before* the move's first copy. Classifying that copy stale would
        strand the map, so the oracle keeps ``followed_moves`` instead.
        """
        if command.cid in self.followed_moves:
            return []
        self.followed_moves.add(command.cid)
        dest = command.args["dest"]
        sources = set(command.args.get("sources", ()))
        moved = []
        for key in command.variables:
            location = self.location.get(key)
            if location is None:
                continue
            if sources and location not in sources and location != dest:
                # The variable moved elsewhere after this move was issued
                # (the move raced a concurrent move): the planned source
                # no longer holds it and ships nothing, so relocating the
                # map entry would strand the value — the map must keep
                # following the ordered move log, not the stale plan.
                continue
            self._relocate(key, dest)
            moved.append(key)
        return moved

    # -- Task 4: elastic reconfiguration (repro.reconfig) -----------------------

    #: Keys per bulk-migration move during join/leave rebalancing.
    RECONFIG_BATCH = 4

    def _task_reconfig(self, spec: dict):
        """Apply an ordered join / leave-begin / leave-commit entry.

        Every oracle replica applies the entry at the same log position,
        so the epoch bump, the membership change and the migration plan
        are identical on all replicas. The plan (batched moves sourced
        from the epoch checkpoints the partitions capture on the same
        entry) is acknowledged to the driving
        :class:`~repro.reconfig.ReconfigurationManager`, which issues the
        moves; re-deliveries (manager retries under loss) resend the
        cached acknowledgement instead of re-planning.
        """
        kind = spec["kind"]
        partition = spec["partition"]
        yield self.env.timeout(self.CONSULT_COST)
        if kind == "join":
            ack = self._reconfig_join(partition)
        elif kind == "leave_begin":
            ack = self._reconfig_leave_begin(partition)
        elif kind == "leave_commit":
            ack = self._reconfig_leave_commit(partition)
        else:
            ack = {"error": f"unknown reconfig kind {kind!r}"}
        self._send_reconfig_ack(spec.get("manager"), spec.get("rid"),
                                kind, partition, ack)

    def _reconfig_join(self, partition: str) -> dict:
        cached = self._reconfig_acks.get(("join", partition))
        if cached is not None:
            return cached
        if partition in self.partitions:
            return {"error": f"{partition} is already a member"}
        self.retired.discard(partition)
        self.partitions = tuple(list(self.partitions) + [partition])
        self.partition_sizes.setdefault(partition, 0)
        self.epoch += 1
        self._sync_policy_partitions()
        batches = self._plan_join(partition)
        self.reconfigs.increment(self.env.now)
        ack = {"epoch": self.epoch, "batches": batches,
               "keys": sum(len(b["variables"]) for b in batches)}
        self._reconfig_acks[("join", partition)] = ack
        return ack

    def _reconfig_leave_begin(self, partition: str) -> dict:
        cached = self._reconfig_acks.get(("leave_begin", partition))
        if cached is not None:
            return cached
        if partition not in self.partitions:
            return {"error": f"{partition} is not a member"}
        remaining = tuple(p for p in self.partitions if p != partition)
        if not remaining:
            return {"error": "cannot drain the last partition"}
        self.partitions = remaining
        self.draining.add(partition)
        self.epoch += 1
        self._sync_policy_partitions()
        batches = self._plan_drain(partition, attempt=0)
        self.reconfigs.increment(self.env.now)
        ack = {"epoch": self.epoch, "batches": batches,
               "keys": sum(len(b["variables"]) for b in batches)}
        self._reconfig_acks[("leave_begin", partition)] = ack
        return ack

    def _reconfig_leave_commit(self, partition: str) -> dict:
        leftover = self.partition_sizes.get(partition, 0)
        if partition in self.partitions:
            return {"error": f"{partition} has no pending leave"}
        if leftover == 0:
            self.draining.discard(partition)
            self.retired.add(partition)
            self.partition_sizes.pop(partition, None)
            return {"epoch": self.epoch, "drained": True, "batches": [],
                    "keys": 0}
        # Keys ordered onto the draining partition after the first drain
        # plan (in-flight creates/moves): re-plan them under fresh move
        # ids; the manager retries the commit once they migrated.
        attempt = self._commit_attempts.get(partition, 0) + 1
        self._commit_attempts[partition] = attempt
        batches = self._plan_drain(partition, attempt)
        return {"epoch": self.epoch, "drained": False, "batches": batches,
                "keys": sum(len(b["variables"]) for b in batches)}

    def _plan_join(self, newcomer: str) -> list[dict]:
        """Deterministic rebalance plan: fill the newcomer to its fair
        share with sorted key batches taken from the most-loaded donors."""
        donors = [p for p in self.partitions
                  if p != newcomer and p not in self.draining]
        total = sum(self.partition_sizes.get(p, 0) for p in donors)
        fair = total // (len(donors) + 1)
        keys_by: dict[str, list] = {p: [] for p in donors}
        for key, p in self.location.items():
            if p in keys_by:
                keys_by[p].append(key)
        batches: list[dict] = []
        remaining = fair
        index = 0
        for donor in sorted(donors,
                            key=lambda p: (-self.partition_sizes.get(p, 0),
                                           p)):
            if remaining <= 0:
                break
            surplus = max(0, self.partition_sizes.get(donor, 0) - fair)
            take = min(surplus, remaining)
            if take <= 0:
                continue
            keys = sorted(keys_by[donor], key=str)[:take]
            remaining -= len(keys)
            for at in range(0, len(keys), self.RECONFIG_BATCH):
                chunk = keys[at:at + self.RECONFIG_BATCH]
                batches.append({
                    "cid": f"rcfg:e{self.epoch}:{donor}:{index}",
                    "variables": list(chunk),
                    "source": donor,
                    "dest": newcomer,
                })
                index += 1
        return batches

    def _plan_drain(self, partition: str, attempt: int) -> list[dict]:
        """Redistribute everything on ``partition`` round-robin over the
        live partitions, in sorted key batches (deterministic)."""
        targets = sorted(p for p in self.partitions
                         if p not in self.draining)
        keys = sorted((k for k, p in self.location.items()
                       if p == partition), key=str)
        batches: list[dict] = []
        for index, at in enumerate(range(0, len(keys),
                                         self.RECONFIG_BATCH)):
            chunk = keys[at:at + self.RECONFIG_BATCH]
            batches.append({
                "cid": f"rcfg:e{self.epoch}:c{attempt}:{partition}:{index}",
                "variables": list(chunk),
                "source": partition,
                "dest": targets[index % len(targets)],
            })
        return batches

    def _sync_policy_partitions(self) -> None:
        """Repartitioning policies track the live partition set (the
        graph policy sizes its ideal cut by it); stateless policies take
        the partitions as call arguments and need no update."""
        setter = getattr(self.policy, "set_partitions", None)
        if setter is not None:
            setter(self.partitions)

    def _maybe_evacuate(self, trigger_cid: str, keys: tuple,
                        partition: str) -> None:
        """Move keys that landed on a draining/retired partition to the
        least-loaded live one (deterministic supplementary move).

        Every replica issues the move with the same uid, so the ordered
        logs deduplicate — the same trick as :meth:`_issue_move`. That
        makes it exactly-once without an issuer session: it has no
        ``client``, and no partition keeps a session entry for it.
        """
        if partition in self.partitions and partition not in self.draining \
                and partition not in self.retired:
            return
        live = [p for p in self.partitions if p not in self.draining]
        if not live or partition in live:
            return
        dest = min(live, key=lambda p: (self.partition_sizes.get(p, 0), p))
        move_cid = f"{trigger_cid}:evac"
        move = Command(op="move", ctype=CommandType.MOVE,
                       variables=tuple(keys),
                       args={"sources": [partition], "dest": dest,
                             "notify": None},
                       cid=move_cid, client=None)
        dests = sorted({ORACLE_GROUP, dest, partition})
        self.amcast.multicast(dests, {"command": move, "dests": dests},
                              size=move.payload_size(),
                              uid=f"am:{move_cid}")
        self.evacuations.increment(self.env.now, len(keys))

    def _send_reconfig_ack(self, manager, rid, kind: str, partition: str,
                           body: dict) -> None:
        if not manager or not self.amcast.announcing:
            return
        payload = dict(body, rid=rid, kind=kind, partition=partition)
        size = 256 + 32 * sum(len(b["variables"])
                              for b in body.get("batches", ()))
        self.node.send(manager, RECONFIG_ACK_KIND, payload, size=size)

    # -- Tasks 5/6: hints and repartitioning ------------------------------------

    def _task_hint(self, hint: dict):
        vertices = hint.get("vertices", ())
        edges = hint.get("edges", ())
        if not self.async_repartition:
            repartition_cost = self.policy.on_hint(vertices, edges,
                                                   self.location)
            # The cost is known only once the hint is in: what is left
            # is CPU time, during which a checkpoint must not queue the
            # hint to be applied again.
            self._effects_applied()
            if repartition_cost:
                self.repartitions.increment(self.env.now)
                yield self.env.timeout(float(repartition_cost))
            else:
                yield self.env.timeout(self.CONSULT_COST)
            return
        # Asynchronous mode: ingest on the critical path, compute off it.
        yield self.env.timeout(self.CONSULT_COST)
        due = self.policy.ingest_hint(vertices, edges)
        if due and not self._pending_ideals:
            self._start_background_repartition()

    def _start_background_repartition(self) -> None:
        partitioning_id = self._next_partitioning_id
        self._next_partitioning_id += 1
        ideal, cost = self.policy.compute_ideal(self.location)
        self._pending_ideals[partitioning_id] = ideal
        self.busy_background.add_busy(self.env.now, float(cost))
        # The "background thread" finishes after `cost` ms and announces
        # the new partitioning's id; all replicas announce the same id with
        # the same multicast uid, so the logs deduplicate to one activation.
        self.env.schedule_callback(
            float(cost),
            lambda: self._announce_partitioning(partitioning_id))

    def _announce_partitioning(self, partitioning_id: int) -> None:
        if self.node.crashed:
            return
        self.amcast.multicast(
            [ORACLE_GROUP], {"activate_partitioning": partitioning_id},
            size=96, uid=f"am:activate:{partitioning_id}")

    def _task_activate(self, partitioning_id: int) -> None:
        ideal = self._pending_ideals.pop(partitioning_id, None)
        if ideal is None:
            return  # already activated (duplicate) or unknown id
        self.policy.install_ideal(ideal)
        self.repartitions.increment(self.env.now)

    # -- replies -------------------------------------------------------------

    def _send_prophecy(self, command: Command, prophecy: Prophecy) -> None:
        prophecy.epoch = self.epoch
        if command.client and self.amcast.announcing:
            self.node.send(command.client, PROPHECY_KIND,
                           {"cid": command.cid, "prophecy": prophecy},
                           size=128 + 32 * len(prophecy.tuples))

    def _reply(self, command: Command, status: ReplyStatus,
               value, attempt: int = 1) -> None:
        reply = self._make_reply(command, status, value, attempt)
        self.replies.store(command, reply)
        self._send_reply(command, reply)
