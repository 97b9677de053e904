#!/usr/bin/env python3
"""The fuzzer's base rate over a seed range: failing / total schedules.

One fuzz seed is a sample; the rate over a fixed seed range is the gate
(ROADMAP item 3): any failing schedule exits 1, after the failing
``(seed, index, scheme)`` list is printed. A schedule fails when its run
violates an invariant or when its linearizability verdict is
``inconclusive`` (the checker's budget ran out): a verdict that proves
nothing is a gap, not a pass. To compare two trees, run the same seed
range on both. Each seed runs the schedules of
``python -m repro fuzz --schedules 40 --no-shrink --seed N [MODE]``, one
``generate_schedule`` + ``run_schedule`` each; runs own their ids, so
seeds run back to back in one interpreter exactly as they would alone.

    python tools/fuzz_rate.py --seeds 100..299
    python tools/fuzz_rate.py --seeds 100..299 --supervisor
    python tools/fuzz_rate.py --seeds 100..299 --disk --tree ../other-checkout

``--tree`` runs another checkout's ``src/`` (default: the one this file
sits in); a checkout whose id counters live at module scope must run its
own copy of this tool instead.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

SCHEDULES = 40


def seed_range(text: str) -> range:
    """``100..199`` (inclusive) or a single seed."""
    first, _, last = text.partition("..")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        metavar="A..B")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--supervisor", action="store_true")
    mode.add_argument("--disk", action="store_true")
    parser.add_argument("--tree", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    flags = [flag for flag in ("supervisor", "disk") if getattr(args, flag)]

    sys.path.insert(0, str(args.tree.resolve() / "src"))
    from repro.checkers import INCONCLUSIVE
    from repro.fuzz import generate_schedule, run_schedule

    total: Counter = Counter()
    failed: Counter = Counter()
    failing = []
    for seed in args.seeds:
        for index in range(SCHEDULES):
            run = run_schedule(generate_schedule(
                seed, index, **{flag: True for flag in flags}))
            scheme = run.schedule.scheme
            total[scheme] += 1
            if run.violations or run.linearizability == INCONCLUSIVE:
                failed[scheme] += 1
                failing.append((seed, index, scheme, run.ok))

    label = flags[0] if flags else "plain"
    inconclusive = sum(ok for *_, ok in failing)
    print(f"{label}: {sum(failed.values())} / {sum(total.values())} "
          f"schedules fail, {inconclusive} of them inconclusive (seeds "
          f"{args.seeds[0]}..{args.seeds[-1]}, {SCHEDULES} schedules each)")
    for scheme in sorted(total):
        print(f"  {scheme:9s} {failed[scheme]} / {total[scheme]}")
    for seed, index, scheme, ok in failing:
        print(f"  failing: seed {seed} #{index} {scheme}"
              f"{' (inconclusive)' if ok else ''}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
