#!/usr/bin/env python3
"""Compare the CI smoke artifacts of the working tree with another revision.

A second run of a smoke against *itself* proves determinism, not that a
refactor left behaviour alone. This script extracts ``<git-rev>`` into a
temporary directory, runs the one list of smokes (``SMOKES``) there and in
the working tree — same arguments, same relative ``--out`` paths, both
sides of one smoke side by side — and prints one ``same`` / ``DIFFERS``
line per artifact (stdout, exit status, every file written). Wall-clock
chatter goes to stderr in every command and is not compared. The last
entry, ``e2e-digests``, runs ``python3 -m benchmarks.e2e --smoke`` in both
trees and keeps only the ``virt_digest`` of each workload and sub-run: the
host numbers beside them are noise.

    python tools/smoke_diff.py HEAD~1            # the whole list, ~4 min
    python tools/smoke_diff.py main --only trace --only profile
    python tools/smoke_diff.py --self            # CI's determinism step

``--self`` puts the working tree on both sides: every smoke runs twice
and must repeat byte for byte. Exit status 1 on any difference; the
outputs are then kept for ``diff``.
"""

from __future__ import annotations

import argparse
import filecmp
import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional


class Smoke(NamedTuple):
    """One command to run on both trees, as arguments of ``python``."""

    argv: list
    # Run from the tree's root (a program that finds ``src/`` relative to
    # its own checkout) instead of the per-side scratch directory.
    in_tree: bool = False
    # Regex; stdout is cut down to its matches, one per line, before the
    # comparison.
    keep: Optional[str] = None


def repro(*args: str, keep: Optional[str] = None) -> Smoke:
    """``python -m repro ...``; paths are relative to a per-side scratch
    directory, so both sides echo the same path."""
    return Smoke(["-m", "repro", *args], keep=keep)


# The text of a figure. Before every verb's wall time moved to stderr,
# ``figure`` printed a blank line and ``(wall time: ...)`` on stdout;
# keeping the other non-empty lines compares across that change.
FIGURE_TEXT = r"^(?!\(wall time: ).+$"

SMOKES = {
    "chaos": repro("chaos", "--scenarios", "5", "--seed", "0"),
    "fuzz": repro("fuzz", "--smoke"),
    "fuzz-parallel": repro("fuzz", "--smoke", "--parallel"),
    # The nightly fuzz modes no other smoke covers.
    "fuzz-supervisor": repro("fuzz", "--smoke", "--supervisor"),
    "fuzz-disk": repro("fuzz", "--smoke", "--disk"),
    "fuzz-overload": repro("fuzz", "--smoke", "--overload"),
    "heal": repro("heal", "--smoke"),
    "trace": repro("trace", "--scheme", "dssmr", "--seed", "7",
                   "--out", "spans.jsonl"),
    "profile": repro("profile", "--smoke"),
    "perfcheck": repro("perfcheck", "--smoke"),
    "qos": repro("qos", "--smoke", "--json"),
    "durability": repro("durability", "--smoke"),
    "parallelexec": repro("parallelexec", "--smoke"),
    "reconfig": repro("reconfig", "--seed", "0", "--json",
                      "--out", "metrics.json"),
    # Figures: stdout is the figure's text, the exit status carries its
    # claims. Message complexity: messages per command of every scheme.
    "fig11": repro("figure", "fig11", keep=FIGURE_TEXT),
    # The three figures that run on the key-value test bed.
    "fig15": repro("figure", "fig15", keep=FIGURE_TEXT),
    "fig16": repro("figure", "fig16", keep=FIGURE_TEXT),
    "fig17": repro("figure", "fig17", keep=FIGURE_TEXT),
    # The figures that take under a second: partitioner quality, the
    # multicast and batching ablations, cost attribution, durability.
    "fig10": repro("figure", "fig10", keep=FIGURE_TEXT),
    "fig13": repro("figure", "fig13", keep=FIGURE_TEXT),
    "fig14": repro("figure", "fig14", keep=FIGURE_TEXT),
    "fig18": repro("figure", "fig18", keep=FIGURE_TEXT),
    "fig20": repro("figure", "fig20", keep=FIGURE_TEXT),
    # Parallel execution (about 20 s): the full sweep behind the
    # parallelexec smoke's claims.
    "fig21": repro("figure", "fig21", keep=FIGURE_TEXT),
    # Host numbers are noise; only the virtual-time digests are compared.
    "e2e-digests": Smoke(["-m", "benchmarks.e2e", "--smoke"], in_tree=True,
                         keep=r"^.*virt_digest [0-9a-f]+"),
}


def extract_revision(repo: Path, rev: str, dest: Path) -> None:
    """Unpack ``rev``'s tree into ``dest`` (no worktree is registered)."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def start(tree: Path, smoke: Smoke, workdir: Path) -> subprocess.Popen:
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    with open(workdir / "stdout", "wb") as stdout:
        return subprocess.Popen(
            [sys.executable, *smoke.argv],
            cwd=tree if smoke.in_tree else workdir, env=env,
            stdout=stdout, stderr=subprocess.DEVNULL)


def keep_matches(stdout: Path, pattern: str) -> None:
    """Cut ``stdout`` down to the matches of ``pattern``, one per line."""
    matches = re.findall(pattern, stdout.read_text(), flags=re.MULTILINE)
    stdout.write_text("".join(match + "\n" for match in matches))


def compare(name: str, base: Path, ours: Path) -> int:
    """Print one line per artifact of smoke ``name``; return the number
    that differ."""
    differing = 0
    for artifact in sorted({p.name for side in (base, ours)
                            for p in side.iterdir()}):
        left, right = base / artifact, ours / artifact
        same = (left.exists() and right.exists()
                and filecmp.cmp(left, right, shallow=False))
        print(f"{'same   ' if same else 'DIFFERS'}  {name}/{artifact}")
        differing += not same
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?",
                        help="git revision to compare against")
    parser.add_argument("--self", dest="twice", action="store_true",
                        help="compare two runs of the working tree "
                             "instead of a revision")
    parser.add_argument("--only", action="append", choices=sorted(SMOKES),
                        help="run only this smoke (repeatable)")
    options = parser.parse_args(argv)
    if options.twice == (options.rev is not None):
        parser.error("give a revision or --self")

    repo = Path(__file__).resolve().parent.parent
    scratch = Path(tempfile.mkdtemp(prefix="smoke-diff-"))
    if options.twice:
        base, against = repo, "a second run of the working tree"
    else:
        base, against = scratch / "tree", options.rev
        extract_revision(repo, options.rev, base)
    differing = 0
    for name in options.only or SMOKES:
        smoke = SMOKES[name]
        sides = {"base": base, "ours": repo}
        runs = {side: start(tree, smoke, scratch / side / name)
                for side, tree in sides.items()}
        for side, process in runs.items():
            (scratch / side / name / "exit").write_text(
                f"{process.wait()}\n")
            if smoke.keep:
                keep_matches(scratch / side / name / "stdout", smoke.keep)
        differing += compare(name, scratch / "base" / name,
                             scratch / "ours" / name)
    if differing:
        print(f"{differing} artifact(s) differ from {against}; "
              f"outputs kept in {scratch}/base and {scratch}/ours")
        return 1
    shutil.rmtree(scratch)
    print(f"every smoke artifact equals {against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
