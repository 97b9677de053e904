"""Tests for the durability campaign (``python -m repro durability``)."""

import json

import pytest

from repro.harness.durability import (OVERHEAD_BOUND_MS, _fault_ladder,
                                      format_durability_report,
                                      run_durability_campaign)
from repro.harness.figures import FIGURES, verdicts


def canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def failed_claims(data):
    return [line for holds, line in verdicts(FIGURES["fig20"].claims, data)
            if not holds]


@pytest.fixture(scope="module")
def smoke():
    return run_durability_campaign(seed=0, smoke=True)


class TestSmokeCampaign:
    def test_every_claim_holds(self, smoke):
        assert not failed_claims(smoke)

    def test_replay_hashes_match(self, smoke):
        for result in smoke["replay_equivalence"]:
            assert result["hash_equal"], result["scheme"]
            assert result["violations"] == []

    def test_ladder_fell_back_to_a_peer(self, smoke):
        assert all(l["peer_fallbacks"] >= 1
                   for l in smoke["fault_ladder"])

    def test_overhead_within_documented_bound(self, smoke):
        for entry in smoke["overhead"]:
            assert entry["overhead_ms"] <= OVERHEAD_BOUND_MS

    def test_byte_identical_across_runs(self, smoke):
        again = run_durability_campaign(seed=0, smoke=True)
        assert canonical(again) == canonical(smoke)

    def test_report_renders(self, smoke):
        report = format_durability_report(smoke)
        assert "replay" in report.lower()
        assert "overhead" in report.lower()


class TestCli:
    def test_durability_smoke_is_byte_identical(self, capsys):
        from repro.cli import main

        assert main(["durability", "--smoke"]) == 0
        first = capsys.readouterr().out
        assert main(["durability", "--smoke"]) == 0
        assert capsys.readouterr().out == first
        assert not failed_claims(json.loads(first))


class TestFaultLadder:
    def test_smr_bitrot_is_read_not_torn_off(self):
        """The full campaign's smr ladder (3 clients x 10 ops): replay
        must meet the rotted record, so cold start falls back to a peer."""
        ladder = _fault_ladder("smr", 0, 3, 10)
        assert ladder["peer_fallbacks"] >= 1
        assert ladder["corrupt_records"] == 1
        assert ladder["converged"] and ladder["violations"] == []
