"""Compare two checkouts' benchmark results over alternating pairs of runs.

A script that needs nothing beyond the standard library:

    python tests/benchpairs.py OLD_ROOT NEW_ROOT --workload W --pairs N --seconds S
                               [--seed K] [--save FILE]

Each root is a checkout whose own ``perfbench/run.py`` runs the workload at
``--trace 0``, from that root, so each side builds what it runs from its
own ``src``.  The runs alternate, old first in odd pairs and new first in
even ones, so host drift falls on both sides alike.  A run that exits
non-zero, whose last line of output is not a JSON result, or whose result
counts a failed check, stops the script with exit code 1.

For every end-to-end metric that NEW_ROOT's ``BENCHMARK.json`` declares,
it prints both medians, the change of the median in %, both sides'
quartiles and how many pairs the new side won, by the metric's own
``better``.  Its verdict is "better" or "worse" only when that side wins
at least nine tenths of the pairs, ties counting for neither, and the
medians differ by more than the old side's IQR; otherwise it is
"unresolved".  The line also says whether the new median is worse than the
old one by more than the metric's ``bound``, a fraction of the old median.
With ``--save``, the new side's result of the last pair is
stored under the workload's name in FILE, a JSON object that keeps the
other workloads already in it, the layout of the ``BENCH_<pr>.json`` files.
Pytest does not collect this file, as its name does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


class RunRefused(Exception):
    """A benchmark run that cannot count: it failed, or a check of it did."""


def result_of(stdout: str, label: str) -> dict:
    """The JSON result a run printed last; a last line that is not one, or
    one with a failed check, is refused."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunRefused(f"{label}: printed no result")
    try:
        result = json.loads(lines[-1])
        failed = result["failed"]
    except (json.JSONDecodeError, KeyError, TypeError):
        raise RunRefused(f"{label}: last line is not a result") from None
    if failed > 0:
        raise RunRefused(f"{label}: {result['failed']} of {result['attempted']} checks failed")
    return result


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run of ``root``'s own benchmark, from ``root``."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    label = f"{root} {workload}"
    if done.returncode != 0:
        raise RunRefused(f"{label}: exit code {done.returncode}: {done.stderr.strip()[-500:]}")
    return result_of(done.stdout, label)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile, each within the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def verdict(wins: int, losses: int, pairs: int, gain: float, old_iqr: float) -> str:
    """"better" or "worse" when that side wins nine tenths of the pairs and
    the medians differ, ``gain`` being the new side's, by more than the old
    side's IQR; "unresolved" otherwise."""
    if 10 * wins >= 9 * pairs and gain > old_iqr:
        return "better"
    if 10 * losses >= 9 * pairs and -gain > old_iqr:
        return "worse"
    return "unresolved"


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> list[str]:
    """One line per declared metric over ``(old result, new result)`` pairs."""
    lines = []
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        old = [o["metrics"][name]["value"] for o, _ in pairs]
        new = [n["metrics"][name]["value"] for _, n in pairs]
        sign = -1 if metric["better"] == "lower" else 1  # a gain is positive
        wins = sum(sign * (n - o) > 0 for o, n in zip(old, new))
        losses = sum(sign * (n - o) < 0 for o, n in zip(old, new))
        (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
        gain = sign * (n2 - o2)
        change = (n2 - o2) / o2 * 100 if o2 else float("nan")
        bound = metric["bound"]
        past = "past" if -gain > bound * abs(o2) else "within"
        lines.append(f"{name}: {o2:.4g} -> {n2:.4g} {unit} ({change:+.1f}%), "
                     f"wins {wins}/{len(pairs)}; quartiles old [{o1:.4g}, {o3:.4g}] "
                     f"(IQR {o3 - o1:.3g}), new [{n1:.4g}, {n3:.4g}] (IQR {n3 - n1:.3g}); "
                     f"{verdict(wins, losses, len(pairs), gain, o3 - o1)}, "
                     f"{past} its {bound:.0%} bound")
    return lines


def save(path: Path, workload: str, result: dict) -> None:
    """Store ``result`` under ``workload`` in the JSON object at ``path``."""
    table = json.loads(path.read_text()) if path.exists() else {}
    table[workload] = result
    path.write_text(json.dumps(table, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_root", type=Path)
    ap.add_argument("new_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--save", type=Path)
    args = ap.parse_args(argv)
    declared = json.loads((args.new_root / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    try:
        for i in range(args.pairs):
            sides = {}
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for side in order:
                root = args.old_root if side == "old" else args.new_root
                sides[side] = run_once(root, args.workload, args.seed, args.seconds)
            pairs.append((sides["old"], sides["new"]))
            walls = [sides[s]["metrics"]["wall_s"]["value"] for s in ("old", "new")]
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): wall_s "
                  f"{walls[0]:.4g} -> {walls[1]:.4g}", flush=True)
    except RunRefused as refused:
        print(f"benchpairs: refused {refused}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {len(pairs)} pairs, "
          f"{args.old_root} -> {args.new_root}:")
    for line in summarize(pairs, declared):
        print(f"  {line}")
    if args.save and pairs:
        save(args.save, args.workload, pairs[-1][1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
