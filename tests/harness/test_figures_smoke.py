"""Smoke tests for the figure experiment definitions (tiny parameters).

The benchmarks run the figures at full (simulator-)scale; these smoke
tests run them at minimal scale so a refactor that breaks a figure's
plumbing is caught by ``pytest tests/`` in seconds.
"""

import pytest

from repro.harness import figures


class TestFigureSmoke:
    def test_fig5_partitioner_scaling(self):
        figure = figures.figure5_partitioner_scaling(sizes=(300, 600), k=2)
        assert len(figure.data) == 2
        assert "edge-cut" in figure.report

    def test_fig10_partitioner_ablation(self):
        figure = figures.figure10_partitioner_ablation(n=400, k=2)
        assert figure.data["multilevel"][0] < figure.data["hash"][0]

    def test_fig13_multicast_comparison(self):
        figure = figures.figure13_multicast_comparison(message_count=40,
                                                       group_count=2)
        assert all(outcome["completed"] > 0
                   for outcome in figure.data.values())

    def test_fig14_batching(self):
        figure = figures.figure14_batching(entry_count=40, submitters=2,
                                           windows=(0.0, 2.0))
        assert figure.data[2.0]["decisions"] < figure.data[0.0]["decisions"]

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

    def test_fig15_chaos_overhead_small(self):
        figure = figures.figure15_chaos_overhead(drop_rates=(0.0, 0.02),
                                                 schemes=("smr",),
                                                 num_clients=2,
                                                 ops_per_client=4)
        assert set(figure.data) == {("smr", 0.0), ("smr", 0.02)}
        assert figure.data[("smr", 0.0)]["completed"] == 8

    def test_registry_covers_all_figures(self):
        registry = figures.FIGURES
        assert list(registry) == [f"fig{n}" for n in range(1, 22)]
        for name, fn in registry.items():
            assert fn.__doc__, f"{name} lacks a docstring"
