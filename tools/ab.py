"""Compare the benchmark of the working tree's ``src/`` with that of a revision.

    python3 tools/ab.py REV --workload NAME [--pairs 10] [--seconds S] [--seed 0]

The script builds two temporary trees.  Each holds the working tree's
``bench/`` and ``BENCHMARK.json`` and the ``src/`` of one side: ``REV``,
extracted with ``git archive``, or the working tree.  It then runs
``bench/run.py --trace 0`` in both trees ``--pairs`` times, each run as
long as ``--seconds`` (by default the ``run_seconds`` of
``BENCHMARK.json``, the run length the benchmark's gate uses), alternating
which side goes first, so that a drift of the host's speed falls on both
sides alike.  Every run has bytecode writing off, so each one compiles
``src/`` as a run in a fresh checkout does.

For each end-to-end metric that ``BENCHMARK.json`` lists it prints each
side's median and quartiles, the ratio of the medians (working tree over
``REV``), how many pairs the working tree won, and under it the verdict
the benchmark's gate applies (``verdict``).  It also prints the raw
set-up medians the bench reports (wall seconds of the ``--setup-probe``
interpreters), which the host's speed does not rescale.  It exits 1 when a
run fails, and 2 when a run's result is not ``"correct": true``.  It uses
only the standard library.  A pair of 30 s runs takes about 75 s on a
2-core host.

Every speed claim compares two sides this way, from clean copies and over
alternated pairs, so that one side's lucky run does not decide it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# the raw set-up median in the bench's report, in wall seconds
SETUP_LINE = re.compile(r"^# setup_s ([0-9.e+-]+) s,", re.MULTILINE)


def build_tree(rev: str | None, tree: Path) -> Path:
    """Fill ``tree`` with the working tree's bench and ``src/`` of ``rev``
    (None: the working tree's)."""
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "bench", tree / "bench", ignore=ignore)
    shutil.copy2(ROOT / "BENCHMARK.json", tree)
    if rev is None:
        shutil.copytree(ROOT / "src", tree / "src", ignore=ignore)
    else:
        archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                                 cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree


def bench(tree: Path, args) -> tuple[dict, str]:
    """One bench run in ``tree``: its result line and its whole output."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if done.returncode != 0:
        sys.exit(f"bench failed in {tree}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is better; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The gate's verdict on one metric, from each side's runs in pair order:

    - ``gain shown``: the change is better in at least 9 of 10 pairs (a tie
      counts for neither side), and its median beats the parent's by more
      than the parent's interquartile distance;
    - ``worse beyond bound``: the change's median is worse than the
      parent's by more than ``bound``, a share of the parent's median;
    - ``unresolved``: the parent's interquartile distance exceeds that
      share, and some change run does not beat every parent run;
    - otherwise ``within bound``."""
    sign = 1 if better == "higher" else -1   # turns "better" into "greater"
    low, mid, high = statistics.quantiles(parent, n=4, method="inclusive")
    gain = sign * (statistics.median(change) - mid)
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gain > high - low:
        return "gain shown"
    if -gain > bound * mid:
        return "worse beyond bound"
    if high - low > bound * mid and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def spread(values: list[float]) -> str:
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"{mid:.6g} [{low:.6g}, {high:.6g}]"


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    runs = {side: [] for side in SIDES}
    setups = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: build_tree(rev, Path(tmp) / side) for side, rev in zip(SIDES, (args.rev, None))}
        for pair in range(args.pairs):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                result, output = bench(trees[side], args)
                if result["correct"] is not True:
                    print(output, end="")
                    print(f"a result of the {side} side is not correct", file=sys.stderr)
                    return 2
                runs[side].append({name: entry["value"] for name, entry in result["metrics"].items()})
                setups[side].append(float(SETUP_LINE.search(output).group(1)))
            print(f"pair {pair + 1}: " + ", ".join(
                f"{side} ops_per_s {runs[side][-1]['ops_per_s']:.6g}" for side in SIDES),
                flush=True)
    print(f"{args.workload} seed={args.seed}: {args.pairs} pairs of {args.seconds:g} s runs, "
          f"median [quartiles]; change is the working tree, parent is {args.rev}")
    for metric in benchmark["end_to_end"]:
        name, better = metric["name"], metric["better"]
        parent, change = ([run[name] for run in runs[side]] for side in SIDES)
        print(f"{name}: parent {spread(parent)}, change {spread(change)}, "
              f"ratio {statistics.median(change) / statistics.median(parent):.4f}, "
              f"change better in {wins(parent, change, better)} of {args.pairs} pairs "
              f"({better} is better)")
        print(f"  verdict: {verdict(parent, change, better, metric['bound'])}")
    print("raw setup medians (s): " + ", ".join(
        f"{side} {spread(setups[side])}" for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
