"""Alternated benchmark runs of two checkouts, summed up metric by metric.

Usage (from the root of a checkout):

    python3 tools/ab_pairs.py --parent DIR --change DIR --workload W --seeds 1-10 [--claim M]

For each seed it runs the ``command`` of ``BENCHMARK.json`` with ``--workload W
--seed N --seconds S --trace 0``, S its ``run_seconds``, in both checkouts, one
after the other: the parent first on odd seeds and the change first on even
ones, so that a slow stretch of a shared host falls on both sides alike.
``--seeds`` takes a range of at least two seeds, such as ``1-10``.

A run's result is the last line of its standard output.  If any run is not
``correct`` or has failed operations, the script prints which and exits 1
without a summary.  Otherwise it prints one line per end-to-end metric of
``BENCHMARK.json``: the parent's median [quartiles, as ``benchmarks/baseline.py``
takes them] -> the change's median, the change in percent, and the seeds on
which the change did better (and on which the two read the same, if any).  A
metric whose change median is worse than the parent's by more than its ``bound``
(a fraction of the parent's median) is marked PAST BOUND, and the script then
exits 2.

``--claim M`` tests a claimed gain on metric M.  The claim is met when the change
did better on at least 9 of every 10 pairs (a pair that reads the same counts for
neither side) and its median is better than the parent's by more than the
parent's quartile spread.  The script prints CLAIM MET or CLAIM NOT MET with
those figures, and exits 3 if the claim is not met (2 still wins when a metric
is past its bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from baseline import summarise  # noqa: E402


def parse_seeds(text: str) -> list:
    """The seeds of ``text``, a range ``a-b`` of at least two."""
    first, _, last = text.partition("-")
    if len(seeds := list(range(int(first), int(last or first) + 1))) < 2:
        raise ValueError(f"fewer than two seeds in {text!r}")
    return seeds


def run_once(spec: dict, checkout, workload: str, seed: int) -> str:
    """The result line of one run of the benchmark ``spec`` in ``checkout``."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def alternated(parent, change, seeds: list, run) -> tuple:
    """(parent result lines, change result lines), one each per seed from
    ``run(checkout, seed)``, the parent run first on odd seeds and the change
    first on even ones."""
    results = ([], [])
    for seed in seeds:
        for side in (0, 1) if seed % 2 else (1, 0):
            line = run((parent, change)[side], seed)
            results[side].append(line)
            print(f"seed {seed} {('parent', 'change')[side]}: {line}", file=sys.stderr)
    return results


def summary(parent_lines: list, change_lines: list, metrics: list) -> tuple:
    """One line per metric of ``metrics`` (entries of BENCHMARK.json's ``end_to_end``: name,
    better, bound) from the result lines of paired runs, and the names of the metrics past
    their bound; ValueError if a run is not correct or has failed operations."""
    runs = [[json.loads(line) for line in lines] for lines in (parent_lines, change_lines)]
    if len(runs[0]) != len(runs[1]):
        raise ValueError(f"{len(runs[0])} parent runs against {len(runs[1])} change runs")
    bad = [f"{side} run {k + 1}: correct={r['correct']}, failed={r['failed']}"
           for side, rs in zip(("parent", "change"), runs) for k, r in enumerate(rs)
           if not r["correct"] or r["failed"]]
    if bad:
        raise ValueError("; ".join(bad))
    lines, past = [], []
    for metric in metrics:
        name = metric["name"]
        old, new = ([r["metrics"][name]["value"] for r in rs] for rs in runs)
        was, now = summarise(old, None), statistics.median(new)
        sign = 1 if metric["better"] == "higher" else -1
        if sign * (now - was["median"]) < -metric["bound"] * abs(was["median"]):
            past.append(name)
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        tied = sum(a == b for a, b in zip(old, new))
        delta = f"{100 * (now - was['median']) / was['median']:+.1f}%" if was["median"] else "n/a"
        lines.append(f"{name}: {was['median']:.4g} [{was['q1']:.4g}-{was['q3']:.4g}] -> "
                     f"{now:.4g}, {delta}, won {won}/{len(old)}"
                     + (f", tied {tied}" if tied else "")
                     + (f", PAST BOUND {metric['bound']:.0%}" if name in past else ""))
    return lines, past


def claim(parent_lines: list, change_lines: list, metric: dict) -> tuple:
    """(met, line) for a claimed gain on ``metric`` (an entry of BENCHMARK.json's
    ``end_to_end``) from the result lines of paired runs."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    old, new = ([json.loads(line)["metrics"][name]["value"] for line in lines]
                for lines in (parent_lines, change_lines))
    was, now = summarise(old, None), statistics.median(new)
    won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    gap, spread = sign * (now - was["median"]), was["q3"] - was["q1"]
    met = 10 * won >= 9 * len(old) and gap > spread
    return met, (f"CLAIM {'MET' if met else 'NOT MET'}: {name} won {won}/{len(old)} "
                 f"(9 of 10 needed), gap {gap:.4g} against the parent's quartile spread "
                 f"{spread:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's checkout")
    parser.add_argument("--change", required=True, type=Path, help="the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="such as 1-10")
    parser.add_argument("--claim", metavar="METRIC", help="an end-to-end metric claimed to gain")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claimed = [m for m in spec["end_to_end"] if m["name"] == args.claim]
    if args.claim and not claimed:
        parser.error(f"--claim: {args.claim!r} is not an end-to-end metric of BENCHMARK.json")
    parent, change = alternated(args.parent, args.change, args.seeds,
                                lambda checkout, seed: run_once(spec, checkout, args.workload, seed))
    try:
        lines, past = summary(parent, change, spec["end_to_end"])
    except ValueError as err:
        print(f"no summary: {err}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}: parent [quartiles] -> change")
    print("\n".join(lines))
    met = True
    if claimed:
        met, line = claim(parent, change, claimed[0])
        print(line)
    return 2 if past else 0 if met else 3


if __name__ == "__main__":
    sys.exit(main())
