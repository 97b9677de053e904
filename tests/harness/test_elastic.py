"""Tests for the elastic reconfiguration scenario runner."""

import json

from repro.canonical import canonical_json
from repro.harness import (format_elastic_report, run_elastic_scenario,
                           run_scaleout_timeline)
from repro.harness.figures import ELASTIC_CLAIMS, verdicts


def failed_claims(result):
    return [line for holds, line in verdicts(ELASTIC_CLAIMS, result)
            if not holds]


class TestElasticScenario:
    def test_scenario_passes_all_invariants(self):
        result = run_elastic_scenario(seed=0, num_clients=3,
                                      ops_per_client=24)
        assert not failed_claims(result), result["violations"]
        assert result["ops"] == result["ops_expected"] == 72
        assert result["epoch"] == 1
        assert result["newcomer_keys"] > 0
        assert result["metrics"]["reconfig.recoveries"] == 1
        assert result["metrics"]["reconfig.keys_migrated"] > 0
        assert result["metrics"]["reconfig.checkpoints"] > 0
        assert result["metrics"]["reconfig.transfer_chunks"] > 0

    def test_same_seed_runs_are_byte_identical(self):
        """The determinism contract behind the CI smoke: metrics JSON,
        timeline and report are byte-equal across same-seed runs."""
        first = run_elastic_scenario(seed=2, num_clients=3,
                                     ops_per_client=24)
        second = run_elastic_scenario(seed=2, num_clients=3,
                                      ops_per_client=24)
        assert canonical_json(first) == canonical_json(second)
        assert format_elastic_report(first) == format_elastic_report(second)
        assert first["timeline"] == second["timeline"]

    def test_different_seeds_differ(self):
        first = run_elastic_scenario(seed=0, num_clients=3,
                                     ops_per_client=24)
        second = run_elastic_scenario(seed=1, num_clients=3,
                                      ops_per_client=24)
        assert not failed_claims(first) and not failed_claims(second)
        assert canonical_json(first) != canonical_json(second)

    def test_metrics_json_is_valid_and_sorted(self):
        result = run_elastic_scenario(seed=0, num_clients=2,
                                      ops_per_client=12)
        payload = json.loads(canonical_json(result))
        assert payload["epoch"] == 1
        assert payload["scheme"] == "dssmr"
        keys = list(payload["metrics"])
        assert keys == sorted(keys)

    def test_no_chaos_variant(self):
        result = run_elastic_scenario(seed=4, num_clients=2,
                                      ops_per_client=12, chaos=False)
        assert not failed_claims(result), result["violations"]
        assert result["metrics"]["reconfig.recoveries"] == 1


class TestScaleoutTimeline:
    def test_elastic_beats_static_after_join(self):
        elastic = run_scaleout_timeline(seed=7, duration_ms=900.0,
                                        join_at=350.0, num_clients=8)
        static = run_scaleout_timeline(seed=7, elastic=False,
                                       duration_ms=900.0, join_at=350.0,
                                       num_clients=8)
        assert elastic["epoch"] == 1
        assert elastic["keys_migrated"] > 0
        assert static["epoch"] == 0
        assert static["keys_migrated"] == 0
        assert elastic["after"] > static["after"]
        assert sum(elastic["timeline"]) == elastic["total_ops"]
