"""Shared fault-victim helpers: who can crash, and how they come back.

Every fault harness — the schedule runner behind the fuzz, chaos and heal
campaigns (:mod:`repro.fuzz`), the elastic scenario and fig17 — needs the
same two closure pairs for
:meth:`~repro.net.failure.FailureInjector.crash_restart_at`:

* **restart** (amnesia) — the victim object dies and a replacement is
  rebuilt under the same name through the one recovery ladder
  (:meth:`~repro.harness.cluster.Cluster.recover_server`), whatever the
  scheme and role.
* **blackout** — the victim is cut off at the network level (drops all
  traffic both ways) and later reconnects with its in-memory state
  intact (:meth:`~repro.ordering.ProtocolNode.reconnect`).

One rule, :func:`crash_modes`, says which a replica can take; every
generator and the runner ask it.

Victim *roles* name the interesting positions in a deployment
independently of scheme and shape: :func:`select_victim` resolves a role
to the concrete node and crash mode of a live cluster (the chaos
generator resolves its drawn role on the static shape instead, before
any cluster exists).
"""

from __future__ import annotations

#: Crash-victim roles a scenario/schedule generator may draw.
VICTIM_ROLES = ("follower", "speaker", "oracle")


def crash_modes(role: str, durable: bool) -> tuple[str, ...]:
    """The crash modes a replica of ``role`` can take, amnesia first:
    ``restart`` for every replica of a durable deployment and for
    followers otherwise (without a write-ahead log a sequencer's state
    cannot be rebuilt), ``blackout`` for any replica."""
    if durable or role == "follower":
        return ("restart", "blackout")
    return ("blackout",)


def role_of(cluster, name: str) -> str:
    """The victim role of replica ``name`` in ``cluster``."""
    if any(oracle.node.name == name for oracle in cluster.oracles):
        return "oracle"
    if name == cluster.directory.speaker(cluster.directory.group_of(name)):
        return "speaker"
    return "follower"


def select_victim(cluster, role: str,
                  partition_index: int = 0) -> tuple[str, str]:
    """Resolve a victim role to ``(node_name, crash_mode)``, the mode
    being the victim's first :func:`crash_modes` entry. The ``oracle``
    role degrades to ``speaker`` on schemes without an oracle group, and
    ``follower`` to ``speaker`` in a single-replica partition, so
    scheme-agnostic scenarios stay runnable everywhere.
    """
    if role not in VICTIM_ROLES:
        raise ValueError(f"unknown victim role {role!r}; "
                         f"pick one of {VICTIM_ROLES}")
    if role == "oracle" and cluster.oracles:
        names = sorted(o.node.name for o in cluster.oracles)
        victim = names[partition_index % len(names)]
    else:
        partition = cluster.partitions[
            partition_index % len(cluster.partitions)]
        speaker = cluster.directory.speaker(partition)
        followers = [name for name in cluster.directory.members(partition)
                     if name != speaker]
        victim = followers[-1] if role == "follower" and followers \
            else speaker
    return victim, crash_modes(role_of(cluster, victim),
                               cluster.disks is not None)[0]


def crash_victim(cluster, victim: str) -> None:
    """Amnesia-crash replica ``victim`` (object-level: the process dies)."""
    cluster.member(victim).crash()


def blackout_victim(cluster, victim: str) -> None:
    """Cut ``victim`` off the network; its in-memory state survives."""
    cluster.network.crash(victim)


def reconnect_victim(cluster, victim: str) -> None:
    """End a blackout: rejoin the network and run the reconnect hooks."""
    cluster.member(victim).node.reconnect()


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
