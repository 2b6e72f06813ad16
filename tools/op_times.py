"""In-process times of one workload's operations, label by label, checkout against checkout.

Usage (from the root of a checkout):

    python3 tools/op_times.py --workload W --seed N [--passes 5] [--rounds 2] NAME=DIR ...

Each ``NAME=DIR`` names a checkout, such as ``parent=../a change=. control=../b``
(a control, an identical copy of the first, shows the noise).  In each round every
checkout runs once, in a fresh interpreter that builds the operations as that
checkout's ``benchmarks/run.py`` does, from that checkout's sources.  It makes one
untimed pass over every operation (the warm-up), then ``--passes`` timed ones,
and keeps each operation's best time.  The checkouts run in the order given on
odd rounds and in reverse on even ones, so a slow stretch of a shared host falls
on all alike.  Outputs are not checked; ``benchmarks/run.py`` does that.

It prints one line per operation label: the number of operations with that
label, then for each checkout the median over them of the best time over all
rounds, in microseconds, and its change against the first checkout, then for
each checkout the median over them of the minor page faults per timed call
(``ru_minflt``, read outside the timed region, as a mean over the rounds).  The
last line, ``all``, does the same over every operation: the in-process
counterpart of the benchmark's ``op_p50_ms``, without its correction for the
host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_checkout(text: str) -> tuple:
    """(name, directory) of ``NAME=DIR``."""
    name, sep, path = text.partition("=")
    if not (sep and name and path):
        raise ValueError(f"expected NAME=DIR, got {text!r}")
    return name, Path(path).resolve()


def round_order(checkouts: list, round_no: int) -> list:
    """The checkouts in the order they run in round ``round_no`` (from 1): as given on odd
    rounds, reversed on even ones."""
    return list(checkouts) if round_no % 2 else list(reversed(checkouts))


def child(checkout: Path, workload: str, seed: int, passes: int) -> list:
    """[label, best seconds, mean minor page faults per call] of each operation of
    ``workload`` at ``seed``, in run order, built and run from ``checkout``."""
    sys.path.insert(0, str(checkout / "benchmarks"))
    import run  # first: it pins the BLAS threads before numpy loads

    blocks = run.build_ops(run.import_thermowork(), workload, seed)[0]
    ops = [op for block in blocks for op in block]
    for op in ops:
        op.call()
    best, faults = [float("inf")] * len(ops), [0] * len(ops)
    for _ in range(passes):
        for k, op in enumerate(ops):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            op.call()
            best[k] = min(best[k], time.perf_counter() - t0)
            faults[k] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return [[op.label, t, f / passes] for op, t, f in zip(ops, best, faults)]


def run_child(checkout: Path, workload: str, seed: int, passes: int) -> list:
    """child() in a fresh interpreter with no PYTHONPATH, so it imports ``checkout``'s code."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(checkout),
           "--workload", workload, "--seed", str(seed), "--passes", str(passes)]
    out = subprocess.run(cmd, cwd=checkout, env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.splitlines()[-1])


def table(names: list, runs: dict) -> list:
    """Lines of the table from ``runs``: name -> the child() results of each round.  An
    operation's time is its best over the rounds, its faults their mean over the rounds."""
    labels = [row[0] for row in runs[names[0]][0]]
    for name in names:
        if any([row[0] for row in r] != labels for r in runs[name]):
            raise ValueError(f"{name} ran other operations than {names[0]}")
    best = {name: [min(r[k][1] for r in runs[name]) for k in range(len(labels))]
            for name in names}
    faults = {name: [statistics.mean(r[k][2] for r in runs[name]) for k in range(len(labels))]
              for name in names}
    by_label = {}
    for k, label in enumerate(labels):
        by_label.setdefault(label, []).append(k)
    width = max(map(len, [*by_label, "label"]))
    lines = [f"{'label':<{width}}  {'ops':>4}  " + "  ".join(f"{n + ' us':>16}" for n in names)
             + "  " + "  ".join(f"{n + ' faults':>14}" for n in names)]
    for label, ks in [*sorted(by_label.items()), ("all", range(len(labels)))]:
        medians = [statistics.median(best[name][k] for k in ks) * 1e6 for name in names]
        cells = [f"{medians[0]:16.1f}"] + [f"{m:8.1f} {100 * (m / medians[0] - 1):+6.1f}%"
                                           for m in medians[1:]]
        cells += [f"{statistics.median(faults[name][k] for k in ks):14.1f}" for name in names]
        lines.append(f"{label:<{width}}  {len(ks):>4}  " + "  ".join(cells))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=5, help="timed passes per run")
    parser.add_argument("--rounds", type=int, default=2, help="runs of each checkout")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("checkouts", nargs="*", metavar="NAME=DIR")
    args = parser.parse_args(argv)
    if args.passes < 1 or args.rounds < 1:
        parser.error("--passes and --rounds must be at least 1")
    if args.child:
        print(json.dumps(child(args.child, args.workload, args.seed, args.passes)))
        return 0
    try:
        checkouts = [parse_checkout(text) for text in args.checkouts]
    except ValueError as err:
        parser.error(str(err))
    if not checkouts or len({name for name, _ in checkouts}) != len(checkouts):
        parser.error("give at least one checkout, each under its own name")
    runs = {name: [] for name, _ in checkouts}
    for round_no in range(1, args.rounds + 1):
        for name, path in round_order(checkouts, round_no):
            runs[name].append(run_child(path, args.workload, args.seed, args.passes))
            print(f"round {round_no}: {name} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}: median of each operation's best time over "
          f"{args.rounds} rounds of {args.passes} passes")
    print("\n".join(table([name for name, _ in checkouts], runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
