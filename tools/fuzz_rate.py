#!/usr/bin/env python3
"""The fuzzer's base rate over a seed range: failing / total schedules.

One fuzz seed is a coin, not a gate (ROADMAP item 6e): a few known
schedules in ten thousand still fail. To judge a change, run the same seed
range on both trees and compare the numbers and the failing
``(seed, index, scheme)`` lists. Each seed is one

    python -m repro fuzz --schedules 40 --no-shrink --json --seed N [MODE]

child (about 1 s); its canonical JSON is read from stdout whatever the
exit status.

    python tools/fuzz_rate.py --seeds 100..199
    python tools/fuzz_rate.py --seeds 100..199 --supervisor
    python tools/fuzz_rate.py --seeds 100..199 --disk --tree /root/scratch/parent

``--tree`` runs another checkout's ``src/`` (default: the one this file
sits in). Exit status 0 whatever the rate: this reports, it does not gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SCHEDULES = 40


def seed_range(text: str) -> range:
    """``100..199`` (inclusive) or a single seed."""
    first, _, last = text.partition("..")
    return range(int(first), int(last or first) + 1)


def run_seed(tree: Path, seed: int, mode: list) -> list:
    """The ``schedules`` list of one campaign."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fuzz", "--schedules",
         str(SCHEDULES), "--no-shrink", "--json", "--seed", str(seed),
         *mode],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"seed {seed}: fuzz exited {proc.returncode}")
    return json.loads(proc.stdout)["schedules"]


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
    flags = [flag for flag in ("--supervisor", "--disk")
             if getattr(args, flag[2:])]

    tree = args.tree.resolve()
    total: Counter = Counter()
    failed: Counter = Counter()
    failing = []
    for seed in args.seeds:
        for schedule in run_seed(tree, seed, flags):
            scheme = schedule["scheme"]
            total[scheme] += 1
            if schedule["run"]["violations"]:
                failed[scheme] += 1
                failing.append((seed, schedule["index"], scheme))

    label = flags[0][2:] if flags else "plain"
    print(f"{label}: {sum(failed.values())} / {sum(total.values())} "
          f"schedules fail (seeds {args.seeds[0]}..{args.seeds[-1]}, "
          f"{SCHEDULES} schedules each)")
    for scheme in sorted(total):
        print(f"  {scheme:9s} {failed[scheme]} / {total[scheme]}")
    for entry in failing:
        print(f"  failing: seed {entry[0]} #{entry[1]} {entry[2]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
