"""One benchmark run in a fresh interpreter.

``python3 -m benchmarks.e2e.child '<spec json>'`` builds one deployment from
the spec (see ``workloads.spec_for``), runs it closed-loop, checks the end
state and prints one JSON line. The parent spawns one child per run:
module-level id counters in ``repro`` make a second run in the same process
differ from the first.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import resource
import sys
import time

from repro.apps.chirper import ChirperClient, ChirperStateMachine, user_key
from repro.harness.cluster import Cluster, ClusterConfig
from repro.store import DurabilityConfig
from repro.workload import (MixedWorkload, PostWorkload, clustered_graph,
                            holme_kim_graph)

from benchmarks.e2e import layers


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def build_graph(spec: dict):
    shape = spec["graph"]
    if shape["kind"] == "holme_kim":
        return holme_kim_graph(spec["users"], shape["m"],
                               shape["triad_probability"], seed=spec["seed"])
    graph, _planted = clustered_graph(
        n=spec["users"], k=spec["partitions"],
        intra_degree=shape["intra_degree"],
        edge_cut_fraction=shape["edge_cut_fraction"], seed=spec["seed"])
    return graph


def build_cluster(spec: dict, graph) -> Cluster:
    config = ClusterConfig(
        scheme=spec["scheme"], num_partitions=spec["partitions"],
        seed=spec["seed"], state_machine_factory=ChirperStateMachine,
        durability=DurabilityConfig() if spec["durable"] else None,
        **spec["config"])
    cluster = Cluster(config)
    # Social edges are mutual follow relations, as in the paper.
    cluster.preload({
        user_key(u): {"following": sorted(graph.neighbours(u)),
                      "followers": sorted(graph.neighbours(u)),
                      "timeline": []}
        for u in graph.vertices()})
    return cluster


def client_loop(env, client: ChirperClient, stream, vdur: float, tally: dict):
    """Closed loop: the next command is issued when the last one returned."""
    for op in stream:
        if env.now >= vdur:
            return
        tally["issued"] += 1
        if op.op == "post":
            yield from client.post(op.user, op.text)
        else:
            yield from client.timeline(op.user)
        tally["finished"] += 1


def start_clients(spec: dict, cluster: Cluster, graph, tally: dict) -> list:
    if spec["mix"] is None:
        workload = PostWorkload(graph, seed=spec["seed"])
    else:
        workload = MixedWorkload(graph, seed=spec["seed"],
                                 weights=spec["mix"])
    social_view = {u: set(graph.neighbours(u)) for u in graph.vertices()}
    # The graph-partitioned oracle learns the social graph from hints.
    hint_mode = "all" if spec["scheme"] == "dynastar" else "none"
    clients = []
    count = spec["clients_per_partition"] * spec["partitions"]
    for index in range(count):
        client = ChirperClient(cluster.new_client(), social_view=social_view,
                               hint_mode=hint_mode)
        clients.append(client)
        cluster.env.process(
            client_loop(cluster.env, client, workload.stream(index),
                        spec["vdur"], tally),
            name=f"bench-client-{index}")
    return clients


def virtual_metrics(spec: dict, cluster: Cluster, clients: list,
                    tally: dict) -> tuple:
    """Everything measured on the virtual clock: a pure function of the seed.

    Returns the sorted latencies of the measured window and the metrics.
    """
    warm, vdur = spec["warm"], spec["vdur"]
    done = cluster.latency.completions
    window = sorted(v for t, v in zip(done.times, done.values)
                    if warm <= t < vdur)
    if not window:
        raise RuntimeError("no command completed in the measured window")
    completed = sum(c.ops_completed for c in clients)
    scrape = cluster.registry.scrape()
    network = cluster.network
    moves = cluster.moves_series()
    oracle = cluster.oracle
    return window, {
        "tput_cmds_per_vs": len(window) / (vdur - warm) * 1000.0,
        "lat_samples": len(window),
        "lat_sha256": hashlib.sha256(canonical(window).encode()).hexdigest(),
        "msgs_per_cmd": network.messages_sent / completed,
        "completed": completed,
        "ops_attempted": tally["issued"],
        "ops_failed": sum(c.ops_failed for c in clients),
        "ops_unfinished": tally["issued"] - tally["finished"],
        "messages_sent": network.messages_sent,
        "messages_delivered": network.messages_delivered,
        "bytes_sent": network.bytes_sent,
        "sent_by_kind": dict(network.sent_by_kind),
        "executed": sum(len(s.executed) for s in cluster.servers.values()),
        "queue_peak": max(scrape[name] for name in scrape
                          if name.startswith("queue.peak.")),
        "reply_cache_hits": scrape["replies.cache_hits"],
        "exchange_pulls": scrape["exchange.pulls_sent"],
        "repartitions": scrape["oracle.repartitions"],
        "consults": cluster.total_consults(),
        "cache_hits": cluster.total_cache_hits(),
        "retries": cluster.total_retries(),
        "fallbacks": cluster.total_fallbacks(),
        "moves": cluster.moves_total(),
        "moves_last_quarter": 0 if moves is None else sum(
            int(n) for t, n in zip(moves.times, moves.values)
            if 0.75 * vdur <= t < vdur),
        "oracle_busy_frac": (0.0 if oracle is None
                             else oracle.busy.busy_fraction(0.0, vdur)),
    }


def check_end_state(spec: dict, cluster: Cluster, virtual: dict) -> list:
    """The benchmark's own end-state check; returns violations.

    ``repro.harness.invariants.cluster_invariants`` cannot be used: it
    hashes store values, and Chirper values are dicts.
    """
    violations = []
    if virtual["ops_failed"]:
        violations.append(f"{virtual['ops_failed']} operation(s) failed")
    if virtual["ops_unfinished"]:
        violations.append(f"{virtual['ops_unfinished']} operation(s) "
                          f"unfinished after the grace period")
    placement: dict = {}
    for partition in cluster.partitions:
        members = cluster.directory.members(partition)
        for name in members:
            executed = cluster.servers[name].executed
            if len(executed) != len(set(executed)):
                violations.append(f"{name} executed a command id twice")
        stores = [cluster.servers[name].store.snapshot() for name in members]
        if len({canonical(store) for store in stores}) > 1:
            violations.append(f"{partition} replicas diverge on state")
        if len({canonical(cluster.servers[name].executed)
                for name in members}) > 1:
            violations.append(f"{partition} replicas diverge on "
                              f"execution order")
        for key in stores[0]:
            if key in placement:
                violations.append(f"{key} lives in both {placement[key]} "
                                  f"and {partition}")
            placement[key] = partition
    expected = {user_key(u) for u in range(spec["users"])}
    if set(placement) != expected:
        violations.append(f"{len(expected - set(placement))} user variable(s) "
                          f"lost, {len(set(placement) - expected)} unexpected")
    for oracle in cluster.oracles:
        if canonical(oracle.location) != canonical(placement):
            violations.append(f"oracle {oracle.node.name} location map "
                              f"differs from the actual placement")
    return violations


def run(spec: dict) -> dict:
    graph = build_graph(spec)
    cluster = build_cluster(spec, graph)
    tally = {"issued": 0, "finished": 0}
    clients = start_clients(spec, cluster, graph, tally)
    until = spec["vdur"] + spec["grace"]

    profile = cProfile.Profile() if spec["trace"] else None
    setup_s = time.process_time()
    if profile is not None:
        profile.enable()
    cluster.run(until=until)
    if profile is not None:
        profile.disable()
    run_s = time.process_time() - setup_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    window, virtual = virtual_metrics(spec, cluster, clients, tally)
    result = {
        "seed": spec["seed"],
        "virtual": virtual,
        "virt_digest": hashlib.sha256(
            canonical(virtual).encode()).hexdigest(),
        "violations": check_end_state(spec, cluster, virtual),
        "latencies_ms": window,
        "host": {"setup_s": setup_s, "run_s": run_s,
                 "peak_rss_mb": peak_rss_mb},
    }
    if profile is not None:
        stats = pstats.Stats(profile).stats
        result["trace"] = layers.fold(stats)
        result["trace"]["boundaries"] = layers.resolve_boundaries(stats)
    return result


if __name__ == "__main__":
    print(canonical(run(json.loads(sys.argv[1]))))
