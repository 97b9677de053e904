"""The paper's figures, regenerated and checked: one case per
:data:`repro.harness.figures.FIGURES` entry.

Each case runs the figure at its one parameter set (the function's keyword
defaults; no arguments are passed), times it with pytest-benchmark (one
round — these are simulations, not microbenchmarks), archives the text
under ``benchmarks/results/`` where EXPERIMENTS.md links to it, and fails
unless every claim of the figure holds. All 21 take about 9 minutes::

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py \\
        --benchmark-disable -q
"""

from pathlib import Path

import pytest

from repro.harness.figures import FIGURES

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure(benchmark, figure_id):
    entry = FIGURES[figure_id]
    figure = benchmark.pedantic(entry, rounds=1, iterations=1)
    text = str(figure)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{figure_id}.txt").write_text(text + "\n")
    failed = [line for holds, line in entry.verdicts(figure.data)
              if not holds]
    assert not failed, "\n".join(failed)
