"""E11 — message complexity per command (protocol overhead accounting).

Quantifies the overhead argument behind the paper: multi-partition
commands multiply network messages (cross-group ordering, signals, variable
exchange), which is why turning them into single-partition commands pays.
"""

from repro.harness.figures import figure11_message_complexity

from benchmarks.conftest import run_figure


def test_fig11_message_complexity(benchmark):
    figure = run_figure(benchmark, figure11_message_complexity,
                        duration_ms=3_000.0, num_partitions=2,
                        users_per_partition=100, clients_per_partition=6)
    data = figure.data
    for scheme in ("ssmr", "dssmr", "dynastar"):
        strong_msgs, strong_bytes = data[("strong", scheme)]
        weak_msgs, weak_bytes = data[("weak", scheme)]
        # Weak locality costs clearly more traffic per command.
        assert weak_msgs > 1.5 * strong_msgs
        # One bound of the six is relaxed: dynastar's bytes stand at 1.47x
        # (were 1.51x) since a group transmits each exchange once, which
        # made the multi-partition command — the numerator — cheaper.
        assert weak_bytes > (1.4 if scheme == "dynastar" else 1.5) * strong_bytes
    # Single-partition S-SMR commands cost only a handful of messages.
    assert data[("strong", "ssmr")][0] < 6
