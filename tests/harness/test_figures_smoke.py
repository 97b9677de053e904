"""Smoke tests for the figure experiment definitions.

The benchmark runs every figure at its one parameter set and checks its
claims; here the slow figures run at minimal scale so a refactor that
breaks a figure's plumbing is caught by ``pytest tests/`` in seconds, and
the figures that take about a second run at full scale with their claims.
"""

import pytest

from repro.harness import figures


class TestFigureSmoke:
    def test_fig5_partitioner_scaling(self):
        figure = figures.figure5_partitioner_scaling(sizes=(300, 600), k=2)
        assert len(figure.data) == 2
        assert "edge-cut" in figure.report

    def test_fig6_oracle_load_small(self):
        figure = figures.figure6_oracle_load(duration_ms=800.0,
                                             partition_counts=(2,),
                                             users_per_partition=30,
                                             clients_per_partition=2)
        assert 2 in figure.data
        assert len(figure.data[2]) > 0

    def test_fig9_retry_fallback_small(self):
        figure = figures.figure9_retry_fallback(duration_ms=600.0,
                                                num_partitions=2,
                                                users_per_partition=30,
                                                clients_per_partition=2,
                                                retry_limits=(0, 2))
        assert set(figure.data) == {0, 2}

    def test_fig12_async_oracle_small(self):
        figure = figures.figure12_async_oracle(duration_ms=1_000.0,
                                               num_partitions=2,
                                               n_users=60,
                                               clients_per_partition=2,
                                               repartition_interval=30)
        assert set(figure.data) == {False, True}

    def test_figure_data_str(self):
        figure = figures.figure10_partitioner_ablation(n=200, k=2)
        text = str(figure)
        assert figure.figure_id in text
        assert figure.title in text

    def test_registry_covers_all_figures(self):
        registry = figures.FIGURES
        assert list(registry) == [f"fig{n}" for n in range(1, 22)]
        for name, entry in registry.items():
            assert entry.function.__doc__, f"{name} lacks a docstring"
            assert entry.claims, f"{name} pins no claim"
            names = [claim.name for claim in entry.claims]
            assert len(set(names)) == len(names), f"{name}: {names}"
            assert all(claim.sentence.strip() for claim in entry.claims)


class TestFigureClaims:
    """The figures that run in about a second, at their one parameter set
    (the function defaults, as ``repro figure`` and the benchmark run
    them): every claim holds."""

    @pytest.mark.parametrize("figure_id", ["fig10", "fig13", "fig14",
                                           "fig15", "fig17", "fig18",
                                           "fig20"])
    def test_fast_figure_holds_its_claims(self, figure_id):
        entry = figures.FIGURES[figure_id]
        verdicts = entry.verdicts(entry().data)
        assert all(holds for holds, _line in verdicts), \
            [line for holds, line in verdicts if not holds]
