"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.scheme == "dssmr"
        assert args.partitions == 2

    def test_figure_args(self):
        args = build_parser().parse_args(
            ["figure", "fig5", "--seed", "3"])
        assert args.figure_id == "fig5"
        assert args.seed == 3

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenarios == 10
        assert args.seed == 0

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scheme == "dssmr"
        assert args.seed == 7
        assert args.out is None


class TestCommands:
    def test_list_figures(self, capsys):
        assert main(["list-figures"]) == 0
        out = capsys.readouterr().out
        for figure_id in ("fig1", "fig10"):
            assert figure_id in out

    def test_unknown_figure_fails(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_partition_command(self, capsys):
        assert main(["partition", "--vertices", "300", "--parts", "2"]) == 0
        out = capsys.readouterr().out
        assert "edge-cut" in out
        assert "300 vertices" in out

    def test_experiment_command_small(self, capsys):
        code = main(["experiment", "--scheme", "dssmr", "--partitions", "2",
                     "--users", "60", "--duration-ms", "400",
                     "--clients-per-partition", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tput/s" in out

    def test_figure_command_partitioner_only(self, capsys):
        assert main(["figure", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "multilevel" in out

    def test_chaos_command(self, capsys):
        assert main(["chaos", "--scenarios", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign" in out
        assert "no invariant violations" in out
        # The report itself is deterministic: run-to-run identical.
        assert main(["chaos", "--scenarios", "2", "--seed", "0"]) == 0
        assert capsys.readouterr().out == out

    def test_trace_command(self, capsys, tmp_path):
        out_path = str(tmp_path / "spans.jsonl")
        code = main(["trace", "--scheme", "dssmr", "--seed", "7",
                     "--clients", "2", "--ops", "4", "--out", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "latency breakdown" in out
        assert "end-to-end" in out
        assert "stage sums match end-to-end latency exactly" in out
        with open(out_path, encoding="utf-8") as fh:
            first_jsonl = fh.read()
        assert first_jsonl.count("\n") > 0
        # Byte-identical on re-run: stdout and the JSONL span stream.
        assert main(["trace", "--scheme", "dssmr", "--seed", "7",
                     "--clients", "2", "--ops", "4", "--out",
                     out_path]) == 0
        assert capsys.readouterr().out == out
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == first_jsonl


class TestFuzzCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.schedules == 10
        assert args.seed == 0
        assert args.smoke is False
        assert args.replay is None
        assert args.inject_bug is None
        assert args.no_shrink is False

    def test_smoke_json_is_byte_deterministic(self, capsys):
        assert main(["fuzz", "--smoke"]) == 0
        first = capsys.readouterr()
        # stdout carries exactly the canonical campaign JSON; the human
        # report goes to stderr.
        assert first.out.startswith("{") and '"schedules"' in first.out
        assert "fuzz campaign" in first.err
        assert main(["fuzz", "--smoke"]) == 0
        assert capsys.readouterr().out == first.out

    def test_clean_campaign_report_mode(self, capsys):
        assert main(["fuzz", "--schedules", "2", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign" in out
        assert "no invariant violations" in out

    def test_injected_bug_find_archive_replay(self, capsys, tmp_path):
        """The full acceptance loop through the CLI: plant the bug,
        find + shrink + archive, then --replay reproduces it."""
        artifacts = tmp_path / "artifacts"
        assert main(["fuzz", "--schedules", "1", "--seed", "5",
                     "--inject-bug", "no_dedup",
                     "--artifacts", str(artifacts)]) == 0
        out = capsys.readouterr().out
        assert "violation" in out and "shrink" in out
        written = list(artifacts.glob("repro-*.json"))
        assert len(written) == 1
        assert main(["fuzz", "--replay", str(written[0])]) == 0
        assert "IDENTICAL" in capsys.readouterr().out


class TestReconfigCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["reconfig"])
        assert args.scheme == "dssmr"
        assert args.seed == 0
        assert args.json is False
        assert args.out is None

    def test_reconfig_command(self, capsys, tmp_path):
        out_path = str(tmp_path / "metrics.json")
        argv = ["reconfig", "--seed", "0", "--clients", "2",
                "--ops", "10", "--json", "--out", out_path]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "elastic scenario" in captured.err
        assert "verdict" in captured.err
        with open(out_path, encoding="utf-8") as fh:
            first = fh.read()
        # stdout carries exactly the canonical metrics JSON.
        assert captured.out.strip() == first.strip()
        assert '"epoch":1' in first
        # Byte-identical on re-run.
        assert main(argv) == 0
        assert capsys.readouterr().out == captured.out
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == first

    def test_reconfig_report_mode(self, capsys):
        assert main(["reconfig", "--seed", "1", "--clients", "2",
                     "--ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "elastic scenario" in out
        assert "ok" in out


class TestQosCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["qos"])
        assert args.seed == 0
        assert args.scheme == "ssmr"
        assert args.smoke is False
        assert args.json is False
        assert args.out is None

    def test_fuzz_overload_flag(self):
        assert build_parser().parse_args(["fuzz"]).overload is False
        assert build_parser().parse_args(
            ["fuzz", "--overload"]).overload is True

    def test_smoke_json_is_byte_deterministic(self, capsys, tmp_path):
        out_path = str(tmp_path / "qos.json")
        argv = ["qos", "--smoke", "--json", "--out", out_path]
        assert main(argv) == 0
        first = capsys.readouterr()
        # stdout carries exactly the canonical campaign JSON; the human
        # report goes to stderr.
        assert first.out.startswith("{") and '"points"' in first.out
        assert "overload campaign" in first.err
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == first.out
        assert main(argv) == 0
        assert capsys.readouterr().out == first.out


class CannedFigure:
    """What a fake figure function returns: its text and no data."""

    data: dict = {}

    def __str__(self):
        return "canned figure"


class TestFigureFlags:
    """``figure`` passes --seed / --duration-ms through when — and only
    when — they are given and the figure has them (it used to replace
    them from two hand-kept id lists)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.harness import figures
        calls = []

        def timeline(seed=5, duration_ms=1_600.0, join_at=600.0):
            calls.append(("fig16", seed, duration_ms))
            return CannedFigure()

        def scaling(sizes=(), k=4, seed=7):
            calls.append(("fig5", seed))
            return CannedFigure()

        def overload(seed=0):
            calls.append(("fig19", seed))
            return CannedFigure()

        for figure_id, fake in [("fig16", timeline), ("fig5", scaling),
                                ("fig19", overload)]:
            monkeypatch.setitem(figures.FIGURES, figure_id,
                                figures.Figure(fake, ()))
        return calls

    def test_duration_reaches_a_figure_that_has_one(self, calls, capsys):
        assert main(["figure", "fig16", "--duration-ms", "800"]) == 0
        assert calls == [("fig16", 5, 800.0)]

    def test_seed_reaches_the_partitioner_figures(self, calls):
        assert main(["figure", "fig5", "--seed", "3"]) == 0
        assert calls == [("fig5", 3)]

    def test_bare_run_keeps_the_figures_own_seed(self, calls):
        assert main(["figure", "fig19"]) == 0
        assert calls == [("fig19", 0)]

    def test_committed_results_seeds_are_the_defaults(self):
        import inspect

        from repro.harness.figures import FIGURES
        defaults = {figure_id: inspect.signature(FIGURES[figure_id].function)
                    .parameters["seed"].default
                    for figure_id in ("fig18", "fig19", "fig20", "fig21")}
        assert defaults == {"fig18": 7, "fig19": 0, "fig20": 0, "fig21": 1}

    def test_flag_the_figure_cannot_honour_exits_2(self, calls, capsys):
        assert main(["figure", "fig19", "--duration-ms", "500"]) == 2
        assert "--duration-ms" in capsys.readouterr().err
        assert calls == []

    def test_stdout_is_the_figure_alone(self, calls, capsys):
        assert main(["figure", "fig19", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "canned figure\n"
        assert "wall time" in captured.err

    def test_help_names_every_figure(self, capsys):
        from repro.harness.figures import FIGURES
        with pytest.raises(SystemExit):
            main(["figure", "--help"])
        assert f"fig1..fig{len(FIGURES)}" in capsys.readouterr().out


class TestFigureClaims:
    """``figure`` checks the entry's claims on the data that ran: one
    verdict line per claim on stderr, exit 1 when any fails, and stdout
    stays the figure alone."""

    @pytest.fixture
    def stub(self, monkeypatch):
        from repro.harness import figures
        figure = figures.FigureData("fig19", "stub", "canned figure",
                                    {"tail_ratio": 0.95})

        def register(*claims):
            monkeypatch.setitem(figures.FIGURES, "fig19", figures.Figure(
                lambda seed=0: figure, claims))
            return figure
        return register

    @staticmethod
    def claim(name, holds):
        from repro.harness.figures import Claim
        return Claim(name, "a sentence the claim pins", holds)

    def test_false_claim_exits_1_and_is_named(self, stub, capsys):
        figure = stub(
            self.claim("tail_ratio >= 0.9", lambda d: d["tail_ratio"] >= 0.9),
            self.claim("tail_ratio <= 0.5", lambda d: d["tail_ratio"] <= 0.5))
        assert main(["figure", "fig19"]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{figure}\n"
        verdicts = [line for line in captured.err.splitlines()
                    if line.startswith("claim")]
        assert len(verdicts) == 2
        assert "ok" in verdicts[0] and "tail_ratio >= 0.9" in verdicts[0]
        assert "FAILED" in verdicts[1] and "tail_ratio <= 0.5" in verdicts[1]
        assert "a sentence the claim pins" in verdicts[1]

    def test_a_claim_that_raises_fails(self, stub, capsys):
        stub(self.claim("raises", lambda d: d["missing"] > 0))
        assert main(["figure", "fig19", "--seed", "3"]) == 1
        assert "FAILED  raises" in capsys.readouterr().err

    def test_all_true_claims_exit_0(self, stub, capsys):
        figure = stub(self.claim("tail_ratio >= 0.9",
                                 lambda d: d["tail_ratio"] >= 0.9))
        assert main(["figure", "fig19"]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"{figure}\n"
        assert "claim ok      tail_ratio >= 0.9" in captured.err
        assert "FAILED" not in captured.err


# A canned campaign result; the claims the verbs check on it are stubbed.
CANNED = {"seed": 0, "rows": [1.5, "é", None]}


class CannedCampaign:
    ok = True

    def report(self, title="fuzz"):
        return "canned report"

    def to_dict(self):
        return CANNED


# verb -> (module, attribute, canned stand-in) for the campaign runner
# and, where the report is a function of the result dict, its formatter.
CAMPAIGN_VERBS = {
    "fuzz": [("repro.fuzz", "run_campaign",
              lambda *_, **__: CannedCampaign())],
    "heal": [("repro.fuzz", "run_campaign",
              lambda *_, **__: CannedCampaign())],
    "qos": [("repro.harness.overload", "run_overload_campaign",
             lambda **_: CANNED),
            ("repro.harness.overload", "format_overload_report",
             lambda _data: "canned report")],
    "durability": [("repro.harness.durability", "run_durability_campaign",
                    lambda **_: CANNED),
                   ("repro.harness.durability", "format_durability_report",
                    lambda _data: "canned report")],
    "parallelexec": [("repro.harness.parallelexec", "run_campaign",
                      lambda **_: CANNED),
                     ("repro.harness.parallelexec", "format_report",
                      lambda _data: "canned report")],
    "reconfig": [("repro.harness.elastic", "run_elastic_scenario",
                  lambda **_: CANNED),
                 ("repro.harness.elastic", "format_elastic_report",
                  lambda _data: "canned report")],
}

# The verbs that exit on claims -> the FIGURES entry whose claims they
# check, or None for the elastic scenario's own ``ELASTIC_CLAIMS``.
CLAIM_VERBS = {"qos": "fig19", "durability": "fig20",
               "parallelexec": "fig21", "reconfig": None}


def stub_campaign(monkeypatch, verb, *claims):
    """Replace ``verb``'s campaign with the canned one, checked by
    ``claims`` alone."""
    import importlib

    from repro.harness import figures
    for module, attribute, stand_in in CAMPAIGN_VERBS[verb]:
        monkeypatch.setattr(importlib.import_module(module), attribute,
                            stand_in, raising=False)
    if verb not in CLAIM_VERBS:
        return
    figure_id = CLAIM_VERBS[verb]
    if figure_id is None:
        monkeypatch.setattr(figures, "ELASTIC_CLAIMS", claims)
    else:
        monkeypatch.setitem(figures.FIGURES, figure_id, figures.Figure(
            figures.FIGURES[figure_id].function, claims))


# reconfig has no --smoke: it is checked by TestCampaignClaims only.
@pytest.mark.parametrize("verb", sorted(set(CAMPAIGN_VERBS) - {"reconfig"}))
class TestCampaignShape:
    """Every campaign verb emits through one shape: --smoke / --json put
    exactly one canonical JSON line on stdout and the report on stderr;
    --out holds the same bytes; wall time never reaches stdout."""

    @pytest.fixture(autouse=True)
    def canned(self, verb, monkeypatch):
        stub_campaign(monkeypatch, verb)

    def test_smoke_stdout_is_one_canonical_line(self, verb, capsys,
                                                tmp_path):
        import json
        out_path = tmp_path / "campaign.json"
        assert main([verb, "--smoke", "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.endswith("\n")
        line = captured.out[:-1]
        assert json.loads(line) == CANNED
        assert json.dumps(json.loads(line), sort_keys=True,
                          separators=(",", ":")) == line
        assert "canned report" in captured.err
        assert "wall time" in captured.err
        assert out_path.read_text() == captured.out

    def test_json_flag_equals_smoke_output(self, verb, capsys):
        assert main([verb, "--smoke"]) == 0
        smoke = capsys.readouterr().out
        assert main([verb, "--json"]) == 0
        assert capsys.readouterr().out == smoke

    def test_report_mode_prints_the_report_on_stdout(self, verb, capsys):
        assert main([verb]) == 0
        captured = capsys.readouterr()
        assert captured.out == "canned report\n"
        assert "wall time" in captured.err


@pytest.mark.parametrize("verb", sorted(CLAIM_VERBS))
class TestCampaignClaims:
    """qos, durability, parallelexec and reconfig exit on their figure's
    claims, checked on the data that ran, like ``figure`` does."""

    def test_failing_claim_exits_1_beside_the_json(self, verb, monkeypatch,
                                                   capsys):
        from repro.canonical import canonical_json
        from repro.harness.figures import Claim
        stub_campaign(
            monkeypatch, verb,
            Claim("seed == 0", "a sentence", lambda d: d["seed"] == 0),
            Claim("seed == 1", "a sentence the claim pins",
                  lambda d: d["seed"] == 1))
        assert main([verb, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == canonical_json(CANNED) + "\n"
        verdicts = [line for line in captured.err.splitlines()
                    if line.startswith("claim")]
        assert verdicts == [
            "claim ok      seed == 0",
            "claim FAILED  seed == 1 — a sentence the claim pins"]

    def test_holding_claims_exit_0(self, verb, monkeypatch, capsys):
        from repro.harness.figures import Claim
        stub_campaign(monkeypatch, verb,
                      Claim("seed == 0", "a sentence",
                            lambda d: d["seed"] == 0))
        assert main([verb]) == 0
        captured = capsys.readouterr()
        assert captured.out == "canned report\n"
        assert "claim ok      seed == 0" in captured.err
