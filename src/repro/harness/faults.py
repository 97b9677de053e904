"""Shared fault-victim helpers: who can crash, and how they come back.

Every fault harness — the schedule runner behind the fuzz, chaos and heal
campaigns (:mod:`repro.fuzz`), the elastic scenario and fig17 — needs the
same two closure pairs for
:meth:`~repro.net.failure.FailureInjector.crash_restart_at`:

* **restart** (amnesia) — the victim object dies and a replacement is
  rebuilt under the same name through the one recovery ladder
  (:meth:`~repro.harness.cluster.Cluster.recover_server`), whatever the
  scheme. Drawn only for non-speaker partition replicas: without a
  write-ahead log, recovery cannot resurrect an ordering endpoint's
  sequencer state.
* **blackout** — the victim is cut off at the network level (drops all
  traffic both ways) and later reconnects with its in-memory state
  intact (:meth:`~repro.ordering.ProtocolNode.reconnect`). Valid for
  *any* node — sequencers, Paxos leaders and oracle replicas included —
  which is exactly the fault class the chaos campaign used to exempt.

Victim *roles* name the interesting positions in a deployment
independently of scheme and shape: :func:`select_victim` resolves a role
to the concrete node and crash mode of a live cluster (the chaos
generator resolves its drawn role on the static shape instead, before
any cluster exists).
"""

from __future__ import annotations

#: Crash-victim roles a scenario/schedule generator may draw.
VICTIM_ROLES = ("follower", "speaker", "oracle")


def _node_of(cluster, name: str):
    """The :class:`ProtocolNode` behind ``name`` (server or oracle)."""
    return cluster.member(name).node


def select_victim(cluster, role: str,
                  partition_index: int = 0) -> tuple[str, str]:
    """Resolve a victim role to ``(node_name, crash_mode)``.

    ``crash_mode`` is ``"restart"`` (amnesia + full recovery) for
    followers and ``"blackout"`` (network cut + reconnect) for speakers
    and oracle replicas. The ``oracle`` role degrades to ``speaker`` on
    schemes without an oracle group, so scheme-agnostic scenarios stay
    runnable everywhere.
    """
    if role not in VICTIM_ROLES:
        raise ValueError(f"unknown victim role {role!r}; "
                         f"pick one of {VICTIM_ROLES}")
    if role == "oracle" and not cluster.oracles:
        role = "speaker"
    if role == "oracle":
        # The oracle group's own speaker: consults and moves stall until
        # the reconnect, the hardest oracle fault the protocols must ride.
        names = sorted(o.node.name for o in cluster.oracles)
        return names[partition_index % len(names)], "blackout"
    partition = cluster.partitions[partition_index % len(cluster.partitions)]
    members = cluster.directory.members(partition)
    speaker = cluster.directory.speaker(partition)
    if role == "speaker":
        return speaker, "blackout"
    followers = [name for name in members if name != speaker]
    if not followers:    # single-replica partition: only a blackout works
        return speaker, "blackout"
    return followers[-1], "restart"


def crash_victim(cluster, victim: str) -> None:
    """Amnesia-crash server ``victim`` (object-level: the process dies)."""
    cluster.servers[victim].crash()


def blackout_victim(cluster, victim: str) -> None:
    """Cut ``victim`` off the network; its in-memory state survives."""
    node = _node_of(cluster, victim)
    cluster.network.crash(node.name)


def reconnect_victim(cluster, victim: str) -> None:
    """End a blackout: rejoin the network and run the reconnect hooks."""
    _node_of(cluster, victim).reconnect()


def make_crash_restart(cluster, victim: str, mode: str):
    """The ``(crash, restart)`` closure pair for
    :meth:`~repro.net.failure.FailureInjector.crash_restart_at`."""
    if mode == "restart":
        return (lambda: crash_victim(cluster, victim),
                lambda: cluster.recover_server(victim))
    if mode == "blackout":
        return (lambda: blackout_victim(cluster, victim),
                lambda: reconnect_victim(cluster, victim))
    raise ValueError(f"unknown crash mode {mode!r}")
