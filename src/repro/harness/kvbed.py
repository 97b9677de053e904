"""The key-value test bed every campaign instantiates.

Chaos, fuzz, heal, trace, durability, reconfig, parallelexec, qos and
figures 15–17 all check or measure the protocols on the same tiny
deployment — 2 partitions x 2 replicas of the key-value state machine,
keys ``k0…`` dealt round-robin, resilient clients issuing a get / incr /
swap / sum mix — stated once, here:

* :func:`kv_command` — the command mix;
* :func:`build_kv_cluster` — the seeded, preloaded cluster; its
  ``Environment`` owns the run's ids, so a run depends on its own seeds
  and never on what ran earlier in the process;
* :func:`spawn_wave` — the closed-loop "``ops`` commands per client"
  workload and the :class:`Wave` record of what it did.

Open-loop arrival processes and duration-bound loops that issue their
own commands build through the bed but keep their loops: a shared loop
would have to branch on which caller it serves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.harness.cluster import Cluster, ClusterConfig
from repro.resilience import RetryPolicy
from repro.sim import Event, SeedStream
from repro.smr import Command, ReplyStatus

#: Keys preloaded into the default bed (spread over both partitions).
KEYS = tuple(f"k{i}" for i in range(6))

#: Cumulative thresholds of the command mix: get / incr / swap; the
#: remainder are two-key sums.
MIX = (0.30, 0.65, 0.85)


def kv_command(rng: random.Random, keys: Sequence[str] = KEYS,
               mix: tuple = MIX) -> Command:
    """The linearizability workload mix: reads, increments, swaps, sums."""
    get, incr, swap = mix
    kind = rng.random()
    if kind < get:
        key = rng.choice(keys)
        return Command(op="get", args={"key": key}, variables=(key,))
    if kind < incr:
        key = rng.choice(keys)
        return Command(op="incr", args={"key": key}, variables=(key,),
                       writes=(key,))
    if kind < swap:
        a, b = rng.sample(keys, 2)
        return Command(op="swap", args={"a": a, "b": b}, variables=(a, b),
                       writes=(a, b))
    picked = rng.sample(keys, 2)
    return Command(op="sum", args={"keys": picked}, variables=tuple(picked))


def build_kv_cluster(scheme: str, seed: int, seed_path: tuple,
                     keys: Sequence[str] = KEYS, *,
                     contents: Optional[dict] = None,
                     assignment: Optional[dict] = None,
                     tracer=None, profiler=None, **config) -> Cluster:
    """Build and preload the bed for one run.

    The cluster seed is drawn from ``SeedStream(seed)`` at ``seed_path``
    = ``(child, stream)``, so every campaign keeps its own seed
    namespace. ``keys`` are dealt round-robin over the partitions and
    preloaded with 0; ``assignment`` and ``contents`` add to or override
    that deal and those values. ``config`` passes through to :class:`ClusterConfig`; it
    defaults to 2 partitions x 2 replicas and ``RetryPolicy()`` clients
    (an explicit ``retry_policy=None`` keeps block-forever clients).
    """
    child, stream = seed_path
    config.setdefault("num_partitions", 2)
    config.setdefault("replicas_per_partition", 2)
    config.setdefault("retry_policy", RetryPolicy())
    cluster_config = ClusterConfig(
        scheme=scheme,
        seed=SeedStream(seed).child(child).stream(stream).randrange(2 ** 31),
        **config)
    # Dealt over the partitions the deployment really has: classic SMR
    # is forced to one, whatever ``num_partitions`` says.
    cluster_config.initial_assignment = {
        key: i % cluster_config.num_partitions
        for i, key in enumerate(keys)}
    cluster_config.initial_assignment.update(assignment or {})
    cluster = Cluster(cluster_config, tracer=tracer, profiler=profiler)
    initial = {key: 0 for key in keys}
    initial.update(contents or {})
    cluster.preload(initial)
    return cluster


@dataclass
class Wave:
    """What one closed-loop client wave did (see :func:`spawn_wave`)."""

    done: Event                     # fires once, when the last client ends
    expected: int                   # clients x ops
    done_at: Optional[float] = None   # virtual ms at which ``done`` fired
    latency_ms: float = 0.0         # summed invoke-to-reply time
    completions: list = field(default_factory=list)   # reply times, in order

    @property
    def completed(self) -> int:
        return len(self.completions)


def spawn_wave(cluster: Cluster, num_clients: int, ops_per_client: int,
               tag: str, *, prefix: str = "c",
               keys: Sequence[str] = KEYS, mix: tuple = MIX,
               think: tuple = (0.0, 1.0), history=None) -> Wave:
    """Start ``num_clients`` closed-loop clients of ``ops_per_client``
    :func:`kv_command` s each and return their :class:`Wave`.

    Clients are named ``{prefix}{index}`` and client ``index`` draws its
    commands and think times (uniform over ``think`` ms, after every
    reply) from ``random.Random(f"{tag}/{index}")``. Every operation is
    recorded in ``history`` (a :class:`~repro.checkers.History`) when one
    is given. The caller runs the simulation.
    """
    env = cluster.env
    wave = Wave(done=env.event(), expected=num_clients * ops_per_client)
    clients = [cluster.new_client(f"{prefix}{i}")
               for i in range(num_clients)]
    running = num_clients

    def loop(client, index):
        nonlocal running
        rng = random.Random(f"{tag}/{index}")
        for _ in range(ops_per_client):
            command = kv_command(rng, keys, mix)
            invoked = env.now
            reply = yield from client.run_command(command)
            if history is not None:
                result = reply.value \
                    if reply.status is not ReplyStatus.NOK \
                    else str(reply.value)
                history.record(client.name, command.op, command.args,
                               result, invoked, env.now)
            wave.latency_ms += env.now - invoked
            wave.completions.append(env.now)
            yield env.timeout(rng.uniform(*think))
        running -= 1
        if not running:
            wave.done_at = env.now
            wave.done.succeed(None)

    for index, client in enumerate(clients):
        env.process(loop(client, index), name=f"wave/{client.name}")
    return wave
