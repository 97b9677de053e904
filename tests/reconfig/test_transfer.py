"""Tests for chunked, resumable state transfer (host + receiver)."""

import copy

import pytest

from repro.net import FailureInjector
from repro.reconfig import StateTransfer
from repro.reconfig.transfer import (XFER_CHUNK, XFER_CHUNK_REQ,
                                     XFER_META, XFER_META_REQ)
from repro.sim import SeedStream

from tests.reconfig.test_checkpoint import build_loaded_cluster


def fetch_between(cluster, receiver="p1s0", peer="p0s0", **kwargs):
    """Drive one transfer from ``peer`` to ``receiver``'s node."""
    transfer = StateTransfer(cluster.servers[receiver].node, **kwargs)
    result = {}

    def proc(env):
        result["checkpoint"] = yield from transfer.fetch(peer)

    cluster.env.process(proc(cluster.env))
    cluster.run(until=60_000)
    return transfer, result.get("checkpoint")


class TestStateTransfer:
    def test_basic_fetch(self):
        cluster = build_loaded_cluster()
        source = cluster.servers["p0s0"]
        transfer, checkpoint = fetch_between(cluster)
        assert checkpoint is not None
        assert checkpoint.partition == "p0"
        assert checkpoint.components["store"] == source.store.snapshot()
        assert checkpoint.components["executor"]["executed"] == list(
            source.executed)
        assert checkpoint.checksum == checkpoint.compute_checksum()
        assert transfer.chunks_received >= 2   # control + >=1 store chunk
        assert transfer.duplicates == 0
        assert transfer.corrupt == 0

    def test_applied_reconfigs_travel_with_the_checkpoint(self):
        """The epoch arrives with the rids that produced it: a replacement
        that got the epoch alone bumps it again when the manager's retry
        of the same fence is delivered (fuzz: "configuration epochs
        diverge ... p0s1=2")."""
        cluster = build_loaded_cluster()
        source = cluster.servers["p0s0"]
        source.epoch = 1
        source.applied_reconfigs.add("rcfg-rm0-0")
        _transfer, checkpoint = fetch_between(cluster)
        assert checkpoint.epoch == 1
        assert checkpoint.components["executor"]["role"] == {
            "applied_reconfigs": {"rcfg-rm0-0"}}

    def test_chunking_respects_chunk_keys(self):
        cluster = build_loaded_cluster()
        host = cluster.servers["p0s0"].checkpoint_host
        host.chunk_keys = 1
        keys = len(cluster.servers["p0s0"].store.snapshot())
        transfer, checkpoint = fetch_between(cluster)
        assert checkpoint is not None
        # One control chunk plus one chunk per key.
        assert transfer.chunks_received == keys + 1

    def test_frozen_copy_survives_concurrent_writes(self):
        """All chunks of one transfer come from the same capture even if
        the host keeps executing commands mid-transfer."""
        from tests.reconfig.test_checkpoint import run_workload

        cluster = build_loaded_cluster()
        cluster.servers["p0s0"].checkpoint_host.chunk_keys = 1
        transfer = StateTransfer(cluster.servers["p1s0"].node,
                                 window=1, chunk_timeout_ms=200.0)
        result = {}

        def proc(env):
            result["checkpoint"] = yield from transfer.fetch("p0s0")

        cluster.env.process(proc(cluster.env))
        run_workload(cluster, count=10, name="c7")
        checkpoint = result["checkpoint"]
        assert checkpoint is not None
        assert checkpoint.checksum == checkpoint.compute_checksum()

    def test_release_on_done(self):
        cluster = build_loaded_cluster()
        host = cluster.servers["p0s0"].checkpoint_host
        fetch_between(cluster)
        assert host.transfers_started == 1
        assert not host._frozen and not host._meta

    def test_lost_chunks_are_retried(self):
        cluster = build_loaded_cluster(seed=5)
        injector = FailureInjector(cluster.env, cluster.network,
                                   SeedStream(2))
        injector.drop_fraction(0.4, kinds=[XFER_CHUNK, XFER_CHUNK_REQ])
        source = cluster.servers["p0s0"]
        transfer, checkpoint = fetch_between(cluster,
                                             chunk_timeout_ms=10.0)
        assert checkpoint is not None
        assert checkpoint.components["store"] == source.store.snapshot()
        assert transfer.retries > 0

    def test_lost_meta_is_retried(self):
        cluster = build_loaded_cluster(seed=7)
        dropped = []

        def rule(message):
            if message.kind in (XFER_META_REQ, XFER_META) \
                    and len(dropped) < 3:
                dropped.append(message.kind)
                return True
            return False

        cluster.network.add_drop_rule(rule)
        transfer, checkpoint = fetch_between(cluster, meta_timeout_ms=10.0)
        assert checkpoint is not None
        assert transfer.meta_retries >= 1
        # Repeated meta requests reuse the frozen capture (resumability).
        assert cluster.servers["p0s0"].checkpoint_host \
            .transfers_started == 1

    def test_duplicated_chunks_are_dropped(self):
        cluster = build_loaded_cluster(seed=11)
        # Many small chunks, every response tripled: duplicates of early
        # chunks arrive while later ones are still outstanding.
        cluster.servers["p0s0"].checkpoint_host.chunk_keys = 1
        injector = FailureInjector(cluster.env, cluster.network,
                                   SeedStream(3))
        injector.duplicate_fraction(1.0, copies=3, kinds=[XFER_CHUNK])
        source = cluster.servers["p0s0"]
        transfer, checkpoint = fetch_between(cluster, window=2)
        assert checkpoint is not None
        assert checkpoint.components["store"] == source.store.snapshot()
        assert transfer.duplicates > 0

    def test_corrupt_chunk_is_rerequested(self):
        """A chunk whose payload does not match its checksum is discarded
        and pulled again — the transfer still completes correctly."""
        cluster = build_loaded_cluster(seed=13)
        corrupted = []
        original = {}

        def corrupt_once(message):
            # Chunk payloads travel by reference in the simulated network,
            # so corrupt the first copy and restore on the re-request.
            if message.kind == XFER_CHUNK and message.payload["index"] == 1:
                if not corrupted:
                    original["payload"] = message.payload["payload"]
                    message.payload["payload"] = {"store": {"evil": 666}}
                    corrupted.append(1)
                elif message.payload["payload"] != original["payload"]:
                    message.payload["payload"] = original["payload"]
            return False

        cluster.network.add_drop_rule(corrupt_once)
        source = cluster.servers["p0s0"]
        transfer, checkpoint = fetch_between(cluster,
                                             chunk_timeout_ms=10.0)
        assert corrupted
        assert transfer.corrupt == 1
        assert checkpoint is not None
        assert checkpoint.components["store"] == source.store.snapshot()
        assert "evil" not in checkpoint.components["store"]

    def test_one_transfer_at_a_time(self):
        cluster = build_loaded_cluster()
        transfer = StateTransfer(cluster.servers["p1s0"].node)
        first = transfer.fetch("p0s0")
        next(first)                    # transfer now in progress
        with pytest.raises(RuntimeError):
            next(transfer.fetch("p0s0"))

    def test_validation(self):
        cluster = build_loaded_cluster()
        with pytest.raises(ValueError):
            StateTransfer(cluster.servers["p1s1"].node, window=0)


#: One changed field per component, as a new snapshot.
FORGERIES = {
    "store": lambda store: {**store, next(iter(store)): "forged"},
    "replies": lambda sessions: {**sessions, "forged-client": [0, {}]},
    "executor": lambda state: {**state, "epoch": 7},
    "amcast": lambda state: {**state, "clock": 10_000},
    "exchange": lambda state: {**state, "done": ["forged-cid"]},
    "log": lambda position: position + 1,
}


def forge(chunks, component):
    """A copy of frozen chunks with one field of ``component`` changed
    (the store's in its first slice)."""
    chunks = copy.deepcopy(chunks)
    if component == "store":
        holder, name = chunks[1]["payload"], "store"
    else:
        holder = chunks[0]["payload"]["control"]["components"]
        name = component
    holder[name] = FORGERIES[component](holder[name])
    return dict(enumerate(chunks))


@pytest.mark.parametrize("component", sorted(FORGERIES))
def test_the_whole_checksum_covers_every_component(component):
    """Reassembly fails when one field of any component changed after
    the host froze it: the whole-checkpoint checksum covers them all."""
    cluster = build_loaded_cluster()
    host = cluster.servers["p0s0"].checkpoint_host
    host._freeze("xf-probe")
    transfer = StateTransfer(cluster.servers["p1s0"].node)
    transfer._transfer_id = "xf-probe"
    transfer._meta = host._meta["xf-probe"]
    frozen = host._frozen["xf-probe"]
    transfer._chunks = dict(enumerate(copy.deepcopy(frozen)))
    assert transfer._assemble().checksum == transfer._meta["checksum"]
    transfer._chunks = forge(frozen, component)
    with pytest.raises(RuntimeError, match="does not match frozen"):
        transfer._assemble()
