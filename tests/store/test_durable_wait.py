"""What the executor's durability wait guarantees now that it covers
only the log position that delivered a command (``AmcastDelivery.
position``), not every append before it."""

import pytest

from repro.harness import cluster_invariants
from repro.harness.kvbed import build_kv_cluster, spawn_wave
from repro.smr import Command
from repro.smr.executor import REPLY_KIND, delivery_command
from repro.ssmr.exchange import EXCHANGE
from repro.store import DurabilityConfig

SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")


def build(scheme, tag):
    return build_kv_cluster(scheme, 7, ("durable-wait", tag),
                            durability=DurabilityConfig())


def members(cluster):
    return [*cluster.servers.values(), *cluster.oracles]


def track_positions(cluster):
    """``(member, cid) -> position`` of the first delivery of each
    command at each member."""
    positions = {}
    for member in members(cluster):
        name = member.node.name

        def record(delivery, name=name):
            command = delivery_command(delivery.payload)
            if command is not None:
                positions.setdefault((name, command.cid), delivery.position)

        member.amcast.on_deliver(record)
    return positions


def caused_cid(kind, payload):
    """The command a reply or an exchange message answers, else None."""
    if kind == REPLY_KIND:
        return payload.cid
    if kind == "rmcast" and isinstance(payload["payload"], dict) \
            and payload["payload"].get("kind") == EXCHANGE:
        return payload["payload"]["cid"]
    return None


def tap_sends(cluster, observe):
    """Call ``observe(src, cid)`` before every reply or exchange message
    a replica puts on the wire."""
    network = cluster.network
    send = network.send
    names = {member.node.name for member in members(cluster)}

    def tapped(src, dst, kind, payload=None, *args, **kwargs):
        if src in names:
            cid = caused_cid(kind, payload)
            if cid is not None:
                observe(src, cid)
        return send(src, dst, kind, payload, *args, **kwargs)

    network.send = tapped


@pytest.mark.parametrize("scheme", SCHEMES)
def test_nothing_leaves_a_member_before_its_delivering_position_is_durable(
        scheme):
    cluster = build(scheme, f"tap/{scheme}")
    positions = track_positions(cluster)
    checked = []

    def observe(src, cid):
        position = positions[(src, cid)]
        durable = cluster.member(src).wal.durable_seq
        assert durable is not None and durable >= position, \
            (src, cid, position, durable)
        checked.append(cid)

    tap_sends(cluster, observe)
    wave = spawn_wave(cluster, 4, 12, "w")
    cluster.run(until=2_000)
    assert wave.done.triggered
    assert len(checked) >= wave.expected
    assert cluster_invariants(cluster) == []


def incr(key):
    return Command(op="incr", args={"key": key}, variables=(key,),
                   writes=(key,))


def test_a_reply_past_undurable_appends_survives_a_group_power_cut():
    """The speaker replies once the command's position is durable while
    later appends are still in flight; the whole group loses power right
    then. After the restart the command's effect is there, and every
    acknowledged increment is applied exactly once."""
    cluster = build("smr", "cut")
    speaker = cluster.servers["p0s0"]
    positions = track_positions(cluster)
    cut = {}

    def observe(src, cid):
        if cut or src != speaker.node.name:
            return
        wal = speaker.wal
        if speaker.log.applied_count - 1 > wal.durable_seq:
            cut.update(cid=cid, position=positions[(src, cid)],
                       durable=wal.durable_seq,
                       applied=speaker.log.applied_count)
            cluster.env.schedule_callback(0.0, cluster.power_fail)

    tap_sends(cluster, observe)
    issued = {}
    clients = [cluster.new_client(f"c{index}") for index in range(6)]

    def loop(client, index):
        for round_ in range(10):
            key = f"k{(index + round_) % 4}"
            issued[key] = issued.get(key, 0) + 1
            yield from client.run_command(incr(key))

    for index, client in enumerate(clients):
        cluster.env.process(loop(client, index))
    while not cut:
        cluster.run(until=cluster.env.now + 1.0)
    cluster.run(until=cluster.env.now + 0.5)
    assert speaker.node.crashed
    assert cut["position"] <= cut["durable"] < cut["applied"] - 1

    cluster.power_restore()
    cluster.run(until=cluster.env.now + 50)
    restarted = cluster.servers["p0s0"]
    assert cut["cid"] in restarted.executed
    cluster.run(until=cluster.env.now + 5_000)
    for name in ("p0s0", "p0s1"):
        server = cluster.servers[name]
        assert len(server.executed) == len(set(server.executed))
        assert {key: server.store.read(key) for key in issued} == issued
    assert cluster_invariants(cluster) == []
