"""Crash-recovery for classic SMR replicas: snapshot + log catch-up.

The paper's protocols assume crash-stop, but operating a replicated system
needs a way to re-add replicas. For classic SMR this is clean — a replica's
state is a pure function of the delivered command sequence — so recovery
is: fetch a peer's snapshot (store, executed position, reply cache),
install it, and resume applying from that position (the ordered log's
catch-up machinery fills the gap). The reply cache rides along because it
is the executor's only duplicate filter: a client resend of a command the
snapshot covers is answered from it instead of being executed again.

For the *partitioned* protocols recovery is substantially subtler (a
recovering replica can miss in-flight signal/variable exchanges addressed
to its group) and is out of scope here, as it is for the paper; the
fault-tolerance story for partitions is Paxos majorities
(:mod:`repro.ordering.paxos`).

Usage::

    replica.crash()
    ...
    recovered = recover_replica(crashed=replica, peer=live_replica)
    # `recovered` is `replica.respawn(gate)`: a fresh SmrReplica under the
    # same name with the same options (tracer, dedup, pool), caught up.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.net import Message
from repro.smr.executor import delivery_command
from repro.smr.replica import SmrReplica
from repro.store.checkpoints import freeze, thaw

SNAPSHOT_REQUEST = "recovery/request"
SNAPSHOT_RESPONSE = "recovery/snapshot"

_recovery_counter = itertools.count()


class RecoveryHost:
    """Serves state snapshots to recovering peers.

    Attach one to every replica that should be able to help others
    recover. The snapshot is taken synchronously in the dispatch handler,
    so it is consistent: it reflects exactly the commands executed so far
    (command application is atomic in virtual time).
    """

    def __init__(self, replica: SmrReplica):
        self.replica = replica
        self.snapshots_served = 0
        replica.node.on(SNAPSHOT_REQUEST, self._on_request)

    def _on_request(self, message: Message) -> None:
        replica = self.replica
        # The snapshot position is the number of commands *executed*, not
        # log positions delivered: the peer's executor lags its log by the
        # queued deliveries, and those commands' effects are not yet in the
        # snapshotted store. (In classic SMR over a sequencer log every log
        # position is one command, so the two units coincide.)
        # Commands still on worker cores are not in the store yet either:
        # `settled_history` leaves them out and the peer re-fetches them
        # via the log's backfill protocol. The reply cache rides along so
        # the replacement answers resends of covered commands from it
        # instead of executing them a second time.
        # One freeze/thaw round trip over the live structures is the copy
        # (nothing runs in between; see repro.reconfig.checkpoint).
        executed = replica.settled_history()
        snapshot = thaw(freeze({
            "store": replica.store._data,
            "executed": executed,
            "replies": replica.replies._replies,
            "applied_count": len(executed),
        }))
        snapshot["request_id"] = message.payload["request_id"]
        # Size scales with the state: recovery is not free on the wire.
        size = 256 + 64 * len(snapshot["store"])
        replica.node.send(message.payload["reply_to"], SNAPSHOT_RESPONSE,
                          snapshot, size=size)
        self.snapshots_served += 1


class RecoveringReplica:
    """A replacement replica that bootstraps from a peer's snapshot.

    Wraps a fresh :class:`SmrReplica` (same name as the crashed one, after
    ``network.recover(name)``); commands delivered by the log while the
    snapshot is in flight are buffered by the replica's delivery channel
    and deduplicated against the snapshot's executed set after install.

    The snapshot request is retried every ``retry_ms`` until the response
    arrives: either message may be lost, and an un-retried request would
    leave the replacement replica gated forever. The request id stays the
    same across retries, so late duplicate responses install at most once.

    The chosen peer is not a single point of failure: after
    ``attempts_per_peer`` unanswered requests the recovery rotates to the
    next name in ``fallback_peers`` (wrapping around), so a peer that
    crashes between the request and its snapshot reply only delays the
    install instead of hanging it forever.
    """

    def __init__(self, replica: SmrReplica, peer_name: str,
                 retry_ms: Optional[float] = 60.0,
                 fallback_peers: Sequence[str] = (),
                 attempts_per_peer: int = 3):
        if replica._start_gate is None:
            raise ValueError("the replacement replica must be constructed "
                             "with a start_gate (use recover_replica)")
        if attempts_per_peer < 1:
            raise ValueError("attempts_per_peer must be >= 1")
        self.replica = replica
        self.peers = [peer_name] + [p for p in fallback_peers
                                    if p != peer_name]
        self._peer_index = 0
        self.installed = False
        self.attempts = 0
        self.retry_ms = retry_ms
        self.attempts_per_peer = attempts_per_peer
        self._request_id = f"rec-{next(_recovery_counter)}"
        self._gate = replica._start_gate
        replica.node.on(SNAPSHOT_RESPONSE, self._on_snapshot)
        self._send_request()

    @property
    def peer_name(self) -> str:
        """The peer currently being asked for a snapshot."""
        return self.peers[self._peer_index]

    def _send_request(self) -> None:
        if self.installed:
            return
        if self.attempts and self.attempts % self.attempts_per_peer == 0 \
                and len(self.peers) > 1:
            self._peer_index = (self._peer_index + 1) % len(self.peers)
            self.replica.node.flight(
                "recovery", f"snapshot unanswered; rotating to "
                f"{self.peer_name}")
        self.attempts += 1
        self.replica.node.send(self.peer_name, SNAPSHOT_REQUEST, {
            "request_id": self._request_id,
            "reply_to": self.replica.node.name,
        }, size=128)
        if self.retry_ms is not None:
            self.replica.env.schedule_callback(self.retry_ms,
                                               self._send_request)

    def _on_snapshot(self, message: Message) -> None:
        snapshot = message.payload
        if self.installed or snapshot["request_id"] != self._request_id:
            return
        replica = self.replica
        for key, value in snapshot["store"].items():
            replica.store.write(key, value)
        replica.executed = list(snapshot["executed"])
        replica.replies._replies.update(snapshot["replies"])
        # Drop queued deliveries the snapshot already covers.
        covered = set(replica.executed)
        replica.replace_queue(
            d for d in replica.pending_deliveries()
            if delivery_command(d.payload).cid not in covered)
        # Positions below the snapshot are covered by the installed state;
        # anything between the snapshot and live traffic comes via the
        # log's backfill protocol.
        replica.log.fast_forward(max(replica.log.applied_count,
                                     snapshot["applied_count"]))
        replica.log.request_backfill(provider=self.peer_name)
        self.installed = True
        self._gate.succeed(None)


def recover_replica(crashed: SmrReplica, peer: SmrReplica,
                    state_machine=None,
                    fallback_peers: Sequence[str] = ()) -> SmrReplica:
    """Bring a crashed classic-SMR replica back under the same name.

    Returns the replacement :class:`SmrReplica`; it serves commands once
    a peer's snapshot is installed and the log catch-up completes. The
    peer (and any ``fallback_peers``, tried in rotation if the primary
    stops answering) must have a :class:`RecoveryHost` attached.
    """
    replacement = crashed.respawn(crashed.env.event())
    if state_machine is not None:
        replacement.state_machine = state_machine
    replacement.recovery = RecoveringReplica(
        replacement, peer.node.name, fallback_peers=fallback_peers)
    return replacement
