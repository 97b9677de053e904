"""QoS, durability and parallel execution armed together, per scheme.

Every opt-in subsystem was verified alone, behind its own fuzz flag; this
is the first run that sets all three on one ``ClusterConfig``. The fuzz
runner supplies the closed-loop workload, the traced history, the
linearizability verdict and ``cluster_invariants``; with no fault events
the schedule is a plain run. One point of the feature lattice ROADMAP
item 4 asks for, not the lattice.
"""

import json

import pytest

from repro.fuzz.runner import _build_cluster, run_schedule
from repro.fuzz.schedule import FaultSchedule
from repro.obs.tracing import CommandTracer

SCHEMES = ("smr", "ssmr", "dssmr", "dynastar")


def all_features(scheme: str) -> FaultSchedule:
    return FaultSchedule(seed=1, index=0, scheme=scheme,
                         qos=True, durability=True, parallel=True)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_schedule_arms_all_three_on_every_executor(scheme):
    cluster = _build_cluster(all_features(scheme), ("k0", "k1"),
                             CommandTracer())
    config = cluster.config
    assert None not in (config.qos, config.durability, config.parallel)
    for server in cluster.servers.values():
        assert server.wal is not None and server.parallel is not None
    speakers = [cluster.servers[cluster.directory.speaker(p)]
                for p in cluster.partitions]
    assert all(speaker.qos is not None for speaker in speakers)
    for oracle in cluster.oracles:
        assert oracle.wal is not None


@pytest.mark.parametrize("scheme", SCHEMES)
def test_all_features_together_complete_clean_and_repeatably(scheme):
    result = run_schedule(all_features(scheme))
    assert result.ops_completed == result.ops_expected
    assert result.violations == ()        # includes cluster_invariants
    assert result.linearizability == "linearizable"
    again = run_schedule(all_features(scheme))
    assert json.dumps(result.to_dict(), sort_keys=True) == \
        json.dumps(again.to_dict(), sort_keys=True)
