"""Cluster builder: assemble a full deployment of any scheme.

``build_cluster`` wires up the simulation environment, the two-switch
network, the server groups (plus the oracle group for the dynamic schemes),
and returns a :class:`Cluster` handle that creates clients, preloads state
and exposes the metrics the experiments need.

Schemes:

* ``"smr"``      — classic SMR: S-SMR with one partition (one group,
  full replication; ``num_partitions`` is forced to 1).
* ``"ssmr"``     — S-SMR with a static partition map.
* ``"dssmr"``    — DS-SMR with the decentralised majority policy
  (client-issued moves), the paper's core protocol.
* ``"dynastar"`` — DS-SMR with the graph-partitioned oracle policy
  (oracle-issued moves + workload hints), the draft's extension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import (DssmrClient, DssmrServer, MajorityTargetPolicy,
                        ORACLE_GROUP, OracleReplica)
from repro.dynastar import GraphTargetPolicy
from repro.net import Network, SwitchedClusterLatency, paper_cluster_topology
from repro.obs import MetricsRegistry
from repro.ordering import GroupDirectory
from repro.qos import (AdaptiveBatcher, AdmissionController, AimdWindow,
                       QosConfig, classify_entry)
from repro.reconfig import (CheckpointHost, PartitionCheckpointer,
                            ReconfigurationManager)
from repro.resilience import RetryPolicy
from repro.sim import Environment, LatencyRecorder, SeedStream
from repro.smr import (ExecutionConfig, ExecutionModel,
                       KeyValueStateMachine, ParallelExecutionModel,
                       StateMachine)
from repro.ssmr import SsmrClient, SsmrServer, StaticOracle, StaticPartitionMap
from repro.store import DiskFarm, DurabilityConfig, attach_durability
from repro.store.coldstart import cold_start_partition, recover_member
from repro.store.durability import detach_durability

SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")


@dataclass
class ClusterConfig:
    """Parameters of a deployment."""

    scheme: str = "dssmr"
    num_partitions: int = 2
    replicas_per_partition: int = 2
    oracle_replicas: int = 2
    seed: int = 1
    max_retries: int = 3
    use_cache: bool = True
    repartition_interval: int = 200
    # Asynchronous (multi-threaded-oracle) repartitioning, dynastar only.
    async_repartition: bool = False
    # Override the graph policy's simulated repartition cost (ms per graph
    # element); None keeps the policy default. Used by the E12 ablation.
    repartition_cost_per_element: Optional[float] = None
    execution: ExecutionModel = field(default_factory=ExecutionModel)
    state_machine_factory: Callable[[], StateMachine] = KeyValueStateMachine
    # Static assignment for the ssmr scheme and for preloading: maps
    # variable key -> partition index. Unmapped keys fall back to hashing.
    initial_assignment: Optional[dict] = None
    # Client-side timeout/retry/backoff (see repro.resilience); None keeps
    # the legacy block-forever clients. The fuzz runner sets a policy on
    # every schedule it runs, chaos_schedule's included.
    retry_policy: Optional[RetryPolicy] = None
    # Server-side request deduplication (session tables). Disabling it is a
    # test-only switch for the chaos sentinel: with dedup off, client
    # resends execute twice and the checkers must catch it.
    dedup: bool = True
    # Overload control (repro.qos): None builds no controller objects and
    # keeps every hot path in its pre-QoS shape (the perf gate pins the
    # default path to the committed baseline). A QosConfig arms
    # sequencer-side admission + adaptive batching on every group speaker
    # and an AIMD congestion window on every client.
    qos: Optional[QosConfig] = None
    # Durable storage (repro.store): None builds no disks and keeps every
    # hot path in its pre-durability shape (the perf gate pins that). A
    # DurabilityConfig arms a simulated disk per server with a
    # group-committed write-ahead log, durable checkpoints, and the
    # cold-start rungs of the recovery ladder (recover_server,
    # power_fail / power_restore).
    durability: Optional[DurabilityConfig] = None
    # Parallel execution (repro.smr.parallel): None keeps every executor
    # on the sequential code path, byte-identical to pre-parallel runs
    # (the perf gate pins that). An ExecutionConfig arms a conflict-aware
    # worker pool per server: non-conflicting single-partition accesses
    # overlap on the configured number of simulated cores.
    parallel: Optional[ExecutionConfig] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; "
                             f"pick one of {SCHEMES}")
        if self.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if self.scheme == "smr":
            self.num_partitions = 1


class Cluster:
    """A running deployment plus its measurement instruments."""

    def __init__(self, config: ClusterConfig, tracer=None, profiler=None):
        self.config = config
        self.env = Environment()
        self.seeds = SeedStream(config.seed)
        self.partitions = tuple(f"p{i}"
                                for i in range(config.num_partitions))
        self._client_counter = itertools.count()

        groups: dict[str, list[str]] = {}
        for partition in self.partitions:
            groups[partition] = [
                f"{partition}s{j}"
                for j in range(config.replicas_per_partition)]
        self._dynamic = config.scheme in ("dssmr", "dynastar")
        if self._dynamic:
            groups[ORACLE_GROUP] = [f"or{j}"
                                    for j in range(config.oracle_replicas)]
        self.directory = GroupDirectory(groups)

        server_names = [m for p in self.partitions
                        for m in self.directory.members(p)]
        oracle_names = (self.directory.members(ORACLE_GROUP)
                        if self._dynamic else ())
        self.topology = paper_cluster_topology(server_names, oracle_names)
        # The network carries the observers to every node (see repro.obs).
        self.network = Network(self.env, self.seeds.child("net"),
                               SwitchedClusterLatency(self.topology),
                               tracer=tracer, profiler=profiler)

        self.partition_map = StaticPartitionMap(
            self.partitions, assignment=config.initial_assignment)

        # Durable storage (repro.store): one simulated disk per server,
        # created lazily by the farm so disks survive server replacement
        # — that persistence *is* the durability being modelled.
        self.disks: Optional[DiskFarm] = None
        if config.durability is not None:
            self.disks = DiskFarm(self.env, self.seeds.child("disks"),
                                  config.durability)
        # Each group's preloaded base image, by group: a cold start
        # without a checkpoint re-seeds it before replaying a WAL (see
        # repro.store.coldstart): preloads bypass the ordered log, so
        # replay alone cannot reconstruct them.
        self.base_images: dict = {}
        # Terminal recovery failures (every source peer gone): recorded
        # here and fanned out to hooks (the heal supervisor escalates).
        self.recovery_failures: list = []
        self.recovery_failure_hooks: list = []
        # Members back to a group with no live peer, waiting.
        self.waiting: set[str] = set()

        self.servers: dict[str, object] = {}
        self.oracles: list[OracleReplica] = []
        self._build_servers()

        # Overload control (repro.qos): one admission controller and one
        # adaptive batcher per group, armed on the group's speaker (the
        # sequencer — the only process that sees client entries before
        # they are ordered, so the admitted sequence is replica-consistent
        # by construction).
        self.qos_admission: dict[str, AdmissionController] = {}
        self.qos_batchers: dict[str, AdaptiveBatcher] = {}
        self.arm_qos()

        # Elastic reconfiguration (repro.reconfig): every replica got a
        # checkpointer + checkpoint host above (pure handler registration
        # — inert until a reconfiguration or recovery runs); dynamic
        # schemes also get the manager that drives joins/leaves.
        self.reconfig: Optional[ReconfigurationManager] = None
        self.retired_partitions: tuple[str, ...] = ()
        if self._dynamic:
            self.reconfig = ReconfigurationManager(
                self.env, self.network, self.directory, "rm0",
                retry_policy=config.retry_policy,
                rng=self.seeds.child("reconfig").stream("rm0"))

        # Shared measurement: virtual time is global and monotonic, so one
        # recorder serves every client.
        self.latency = LatencyRecorder("cluster")
        self.clients: list = []
        self.registry = MetricsRegistry()
        self._register_metrics()

    # -- construction ------------------------------------------------------

    def _build_servers(self) -> None:
        config = self.config
        for partition in self.partitions:
            for name in self.directory.members(partition):
                self.servers[name] = self._make_server(partition, name)
        if self._dynamic:
            policy_factory = self._policy_factory()
            for name in self.directory.members(ORACLE_GROUP):
                oracle = OracleReplica(
                    self.env, self.network, self.directory, name,
                    self.partitions, policy=policy_factory(),
                    oracle_issues_moves=config.scheme == "dynastar",
                    async_repartition=config.async_repartition,
                    dedup=config.dedup)
                self.oracles.append(self._equip(oracle))

    def _make_server(self, partition: str, name: str):
        config = self.config
        state_machine = config.state_machine_factory()
        server_class = DssmrServer if self._dynamic else SsmrServer
        server = server_class(self.env, self.network, self.directory,
                              partition, name, state_machine,
                              execution=config.execution,
                              dedup=config.dedup)
        self._equip(server)
        if config.parallel is not None:
            server.attach_parallel(
                ParallelExecutionModel(self.env, config.parallel))
        return server

    def _equip(self, replica):
        """What every replica of every group carries: a checkpointer, a
        checkpoint host and, on a durable deployment, a WAL and a
        durable checkpoint store."""
        PartitionCheckpointer(replica)
        CheckpointHost(replica)
        if self.disks is not None:
            attach_durability(replica, self.disks)
        return replica

    def member(self, name: str):
        """The replica named ``name``: a partition server or an oracle."""
        if name in self.servers:
            return self.servers[name]
        for oracle in self.oracles:
            if oracle.node.name == name:
                return oracle
        raise KeyError(f"no such node in this deployment: {name!r}")

    def live_peers(self, name: str, serving: bool = True) -> list[str]:
        """The other members of ``name``'s group that are not crashed
        and, with ``serving``, can serve a recovery: not cut off the
        network, executor started (an installing replacement, or one
        whose transfer ran out of sources, is no source)."""
        group = self.member(name).group
        return [member for member in self.directory.members(group)
                if member != name and not self.member(member).node.crashed
                and (not serving or (self.member(member).started
                                     and not self.network.is_crashed(member)))]

    def replace_member(self, replacement) -> None:
        """Put ``replacement`` in the slot of the replica it replaces."""
        name = replacement.node.name
        if name in self.servers:
            self.servers[name] = replacement
        else:
            self.oracles[self.oracles.index(self.member(name))] = replacement

    def arm_qos(self, *groups: str) -> None:
        """Arm overload control on the current speaker of each of
        ``groups``, by default every group, the oracle's included (a
        no-op without ``ClusterConfig.qos``). Every path that builds or
        replaces a speaker calls this."""
        if self.config.qos is None:
            return
        if not groups:
            groups = (*self.partitions,
                      *((ORACLE_GROUP,) if self._dynamic else ()))
        for group in groups:
            self._attach_qos(group,
                             self.member(self.directory.speaker(group)))

    def _attach_qos(self, group: str, owner) -> None:
        """Arm one group's overload control on its speaker replica."""
        qcfg = self.config.qos
        admission = AdmissionController(qcfg, name=owner.node.name)
        batcher = AdaptiveBatcher(min_window_ms=qcfg.min_batch_window_ms,
                                  max_window_ms=qcfg.max_batch_window_ms,
                                  depth_per_ms=qcfg.batch_depth_per_ms,
                                  depth_fn=owner.queue_depth)
        owner.attach_qos(admission, batcher=batcher,
                         classify=classify_entry)
        self.qos_admission[group] = admission
        self.qos_batchers[group] = batcher

    def _register_metrics(self) -> None:
        """Register the deployment's scrape-time gauges (see repro.obs).

        Gauges read the live component counters at scrape time, so
        registration happens once here and the rest of the codebase keeps
        its existing plumbing. Dict-valued gauges are flattened by
        ``MetricsRegistry.scrape`` as ``name.key``.
        """
        reg = self.registry
        net = self.network
        reg.gauge("net.messages_sent", lambda: net.messages_sent)
        reg.gauge("net.messages_delivered", lambda: net.messages_delivered)
        reg.gauge("net.bytes_sent", lambda: net.bytes_sent)
        reg.gauge("net.sent_by_kind", lambda: dict(net.sent_by_kind))
        reg.gauge("queue.peak", lambda: {
            name: server.queue_peak
            for name, server in sorted(self.servers.items())})
        reg.gauge("oracle.queue_peak", lambda: sum(
            o.queue_peak for o in self.oracles))
        reg.gauge("replies.cache_hits", lambda: sum(
            s.replies.hits for s in self.servers.values())
            + sum(o.replies.hits for o in self.oracles))
        reg.gauge("exchange.pulls_sent", lambda: sum(
            s.exchange.pulls_sent for s in self.servers.values()))
        reg.gauge("exchange.pulls_served", lambda: sum(
            s.exchange.pulls_served for s in self.servers.values()))
        reg.gauge("oracle.consults", lambda: sum(
            o.consults.total for o in self.oracles))
        reg.gauge("oracle.moves_issued", lambda: self.moves_total())
        reg.gauge("oracle.repartitions", lambda: sum(
            o.repartitions.total for o in self.oracles))
        reg.gauge("clients.count", lambda: len(self.clients))
        reg.gauge("clients.timeouts", lambda: sum(
            c.timeouts for c in self.clients))
        reg.gauge("clients.resends", lambda: sum(
            c.resends for c in self.clients))
        reg.gauge("clients.consults", self.total_consults)
        reg.gauge("clients.cache_hits", self.total_cache_hits)
        reg.gauge("clients.retries", self.total_retries)
        reg.gauge("clients.fallbacks", self.total_fallbacks)
        reg.gauge("reconfig.epoch", lambda: (
            self.oracles[0].epoch if self.oracles else 0))
        reg.gauge("reconfig.reconfigs", lambda: sum(
            o.reconfigs.total for o in self.oracles))
        reg.gauge("reconfig.evacuations", lambda: sum(
            o.evacuations.total for o in self.oracles))
        reg.gauge("reconfig.joins", lambda: (
            self.reconfig.joins if self.reconfig else 0))
        reg.gauge("reconfig.leaves", lambda: (
            self.reconfig.leaves if self.reconfig else 0))
        reg.gauge("reconfig.keys_migrated", lambda: (
            self.reconfig.keys_migrated if self.reconfig else 0))
        reg.gauge("reconfig.batches_sent", lambda: (
            self.reconfig.batches_sent if self.reconfig else 0))
        reg.gauge("reconfig.move_resends", lambda: (
            self.reconfig.move_resends if self.reconfig else 0))
        reg.gauge("reconfig.checkpoints", lambda: sum(
            s.checkpointer.captures for s in self.servers.values()))
        reg.gauge("reconfig.transfer_chunks", lambda: sum(
            s.recovery.transfer.chunks_received
            for s in self.servers.values()
            if getattr(s, "recovery", None) is not None))
        reg.gauge("reconfig.transfer_retries", lambda: sum(
            s.recovery.transfer.retries + s.recovery.transfer.meta_retries
            for s in self.servers.values()
            if getattr(s, "recovery", None) is not None))
        reg.gauge("reconfig.recoveries", lambda: sum(
            1 for s in self.servers.values()
            if getattr(s, "recovery", None) is not None
            and s.recovery.installed))
        if self.config.qos is not None:
            # qos.* gauges only exist on QoS-enabled deployments, so the
            # scrape output of every pre-existing campaign is unchanged.
            reg.gauge("qos.admitted", lambda: sum(
                a.admitted for a in self.qos_admission.values()))
            reg.gauge("qos.shed", lambda: sum(
                a.shed for a in self.qos_admission.values()))
            reg.gauge("qos.shed_rate", lambda: sum(
                a.shed_rate for a in self.qos_admission.values()))
            reg.gauge("qos.shed_codel", lambda: sum(
                a.shed_codel for a in self.qos_admission.values()))
            reg.gauge("qos.control_bypass", lambda: sum(
                a.bypassed for a in self.qos_admission.values()))
            reg.gauge("qos.batch_window_ms", lambda: {
                group: round(b.last_window_ms, 4)
                for group, b in sorted(self.qos_batchers.items())})
            reg.gauge("qos.overload_replies", lambda: sum(
                getattr(c, "overload_replies", 0) for c in self.clients))
            reg.gauge("qos.aimd_window_min", lambda: round(min(
                (c.congestion.window for c in self.clients
                 if getattr(c, "congestion", None) is not None),
                default=0.0), 3))
            reg.gauge("qos.retry_budget_denied", lambda: sum(
                c.retry_budget.denied for c in self.clients
                if getattr(c, "retry_budget", None) is not None))
        if self.config.durability is not None:
            # store.* gauges only exist on durable deployments, so the
            # scrape output of every pre-existing campaign is unchanged.
            reg.gauge("store", lambda: self.disks.stats.to_dict())
            reg.gauge("store.recovery_failures",
                      lambda: len(self.recovery_failures))
        if self.config.parallel is not None:
            # exec.* gauges only exist on parallel-enabled deployments,
            # so the scrape output of every sequential campaign is
            # unchanged.
            reg.gauge("exec", self.exec_stats)

    def _policy_factory(self):
        config = self.config
        if config.scheme == "dynastar":
            def make_policy():
                policy = GraphTargetPolicy(
                    self.partitions,
                    repartition_interval=config.repartition_interval)
                if config.repartition_cost_per_element is not None:
                    policy.REPARTITION_COST_PER_ELEMENT = \
                        config.repartition_cost_per_element
                return policy
            return make_policy
        return MajorityTargetPolicy

    # -- state loading --------------------------------------------------------

    def preload(self, initial_values: dict) -> None:
        """Install initial state before the run starts.

        Variables are placed according to the static partition map (i.e.
        ``config.initial_assignment``, with hash fallback); the dynamic
        schemes' oracles learn the same placement as their base image.
        """
        images: dict[str, dict] = {p: {} for p in self.partitions}
        location: dict = {}
        for key, value in initial_values.items():
            partition = self.partition_map.partition_of(key)
            images[partition][key] = value
            location[key] = partition
        if self._dynamic:
            images[ORACLE_GROUP] = location
        for group, image in images.items():
            for name in self.directory.members(group):
                self.member(name).load_state(image)
        self.base_images = images

    # -- clients -----------------------------------------------------------------

    def new_client(self, name: Optional[str] = None):
        """Create a protocol client proxy appropriate for the scheme."""
        config = self.config
        name = name or f"c{next(self._client_counter)}"
        # Each client's backoff jitter has its own seeded stream, so
        # retries desynchronise deterministically.
        rng = self.seeds.child("clients").stream(name)
        if not self._dynamic:
            client = SsmrClient(self.env, self.network, self.directory, name,
                                StaticOracle(self.partition_map),
                                latency=self.latency,
                                retry_policy=config.retry_policy, rng=rng)
        else:
            client = DssmrClient(self.env, self.network, self.directory,
                                 name, self.partitions,
                                 max_retries=config.max_retries,
                                 use_cache=config.use_cache,
                                 latency=self.latency,
                                 retry_policy=config.retry_policy, rng=rng)
        if config.qos is not None:
            qcfg = config.qos
            client.congestion = AimdWindow(
                initial=qcfg.aimd_initial, min_window=qcfg.aimd_min,
                max_window=qcfg.aimd_max, increase=qcfg.aimd_increase,
                decrease=qcfg.aimd_decrease, rtt_ms=qcfg.aimd_rtt_ms,
                cooldown_ms=qcfg.aimd_cooldown_ms)
        self.clients.append(client)
        return client

    # -- execution ------------------------------------------------------------------

    def run(self, until: float) -> None:
        """Advance the simulation to virtual time ``until`` (ms)."""
        self.env.run(until=until)

    # -- elastic reconfiguration (repro.reconfig) -----------------------------------

    def grow(self, partition: str):
        """Generator: live-join a new partition and rebalance onto it.

        Registers the group, builds its replicas (executor live but idle —
        nothing routes to them until the oracle admits the partition),
        then drives the ordered join through the manager. Clients learn
        the widened partition set once the join completes, so fallback
        executions cover the newcomer.
        """
        if self.reconfig is None:
            raise RuntimeError("elastic reconfiguration needs a dynamic "
                               "scheme (dssmr or dynastar)")
        members = [f"{partition}s{j}"
                   for j in range(self.config.replicas_per_partition)]
        self.directory.add_group(partition, members)
        base = len(self.servers)
        for offset, name in enumerate(members):
            self.topology.attach(name, (base + offset) % 2)
            server = self._make_server(partition, name)
            # Fresh groups start at the *current* configuration epoch:
            # they only deliver fences ordered after their creation.
            server.epoch = self.reconfig.epoch
            self.servers[name] = server
        self.arm_qos(partition)
        ack = yield from self.reconfig.join(partition)
        self.partitions = tuple(list(self.partitions) + [partition])
        for client in self.clients:
            if hasattr(client, "update_partitions"):
                client.update_partitions(self.partitions)
        return ack

    def shrink(self, partition: str):
        """Generator: drain ``partition`` and retire it from the deployment.

        The retired replicas stay up (they keep delivering epoch fences)
        but hold no variables and receive no commands.
        """
        if self.reconfig is None:
            raise RuntimeError("elastic reconfiguration needs a dynamic "
                               "scheme (dssmr or dynastar)")
        result = yield from self.reconfig.leave(partition)
        # A batch open on the drained partition's sequencer must not be
        # stranded mid-window: flush it now that no new traffic will
        # re-arm the window (the LogSequencer batching edge).
        for name in self.directory.members(partition):
            log = getattr(self.servers.get(name), "log", None)
            if log is not None and hasattr(log, "flush_pending"):
                log.flush_pending()
        self.partitions = tuple(p for p in self.partitions
                                if p != partition)
        self.retired_partitions = tuple(
            list(self.retired_partitions) + [partition])
        for client in self.clients:
            if hasattr(client, "update_partitions"):
                client.update_partitions(self.partitions)
        return result

    def recover_server(self, name: str):
        """Crash-recover replica ``name`` (a partition server or an
        oracle replica) under the same name through the one recovery
        ladder (:mod:`repro.store.coldstart`). Returns the replacement,
        or None while the replica waits for a live peer or its group
        (:attr:`waiting`). A transfer that exhausts every live peer
        lands in :attr:`recovery_failures` (and the registered hooks).
        """
        return recover_member(self, name)

    def report_recovery_failure(self, recovery) -> None:
        """A state transfer ran out of source peers: surface it."""
        self.recovery_failures.append(recovery)
        for hook in list(self.recovery_failure_hooks):
            hook(recovery)

    # -- durable storage (repro.store) -----------------------------------------

    def power_fail(self) -> None:
        """Full-cluster power loss: every server and oracle crashes and
        every disk drops (or tears) its un-fsynced writes."""
        if self.disks is None:
            raise RuntimeError("power_fail needs a durable deployment "
                               "(set ClusterConfig.durability)")
        for replica in ([self.servers[name] for name in sorted(self.servers)]
                        + self.oracles):
            detach_durability(replica)
            if not replica.node.crashed:
                replica.crash()
        self.disks.power_fail_all()

    def power_restore(self) -> None:
        """Cold-start every partition — and the oracle group — from disk.

        No peer has live state after :meth:`power_fail`, so each group
        restores from its members' checkpoints and the union of their
        durable WALs (see :mod:`repro.store.coldstart`). Retired
        partitions stay down: they hold no variables and serve no
        traffic.
        """
        if self.disks is None:
            raise RuntimeError("power_restore needs a durable deployment "
                               "(set ClusterConfig.durability)")
        for group in (*self.partitions,
                      *((ORACLE_GROUP,) if self._dynamic else ())):
            cold_start_partition(self, group)

    # -- metrics access ------------------------------------------------------------

    @property
    def oracle(self) -> Optional[OracleReplica]:
        return self.oracles[0] if self.oracles else None

    def moves_total(self) -> int:
        """Total variables moved between partitions (0 for static schemes)."""
        if not self.oracles:
            return 0
        return self.oracles[0].moves_issued.total

    def moves_series(self):
        if not self.oracles:
            return None
        return self.oracles[0].moves_issued.events

    def total_retries(self) -> int:
        return sum(getattr(c, "retry_count", 0) for c in self.clients)

    def total_consults(self) -> int:
        return sum(getattr(c, "consult_count", 0) for c in self.clients)

    def total_cache_hits(self) -> int:
        return sum(getattr(c, "cache_hits", 0) for c in self.clients)

    def total_fallbacks(self) -> int:
        return sum(getattr(c, "fallback_count", 0) for c in self.clients)

    def exec_stats(self) -> dict:
        """Aggregate ``exec.*`` snapshot over every armed worker pool.

        Core utilization is busy time over wall time summed across cores
        and servers; the conflict-stall fraction is scheduler wait over
        (wait + run). Both are virtual-time exact, hence deterministic.
        """
        pools = [server.parallel for name, server
                 in sorted(self.servers.items())
                 if getattr(server, "parallel", None) is not None]
        if not pools:
            return {}
        now = self.env.now
        stats = [pool.stats(now) for pool in pools]
        busy = sum(s["busy_ms"] for s in stats)
        serial = sum(s["serial_ms"] for s in stats)
        stall = sum(s["stall_ms"] for s in stats)
        span = now * sum(s["workers"] for s in stats)
        run = busy + serial
        return {
            "workers": stats[0]["workers"],
            "commands": sum(s["commands"] for s in stats),
            "barriers": sum(s["barriers"] for s in stats),
            "busy_ms": round(busy, 6),
            "serial_ms": round(serial, 6),
            "stall_ms": round(stall, 6),
            "utilization": round(busy / span, 6) if span > 0 else 0.0,
            "stall_fraction": (round(stall / (stall + run), 6)
                               if stall + run > 0 else 0.0),
        }


def build_cluster(tracer=None, profiler=None, **kwargs) -> Cluster:
    """Convenience: ``build_cluster(scheme="dssmr", num_partitions=4, ...)``."""
    return Cluster(ClusterConfig(**kwargs), tracer=tracer, profiler=profiler)
