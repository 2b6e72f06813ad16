"""Repeat the benchmark over seeds and summarise it as a BENCH_<n>.json file.

Usage (from the root of a checkout):

    python3 benchmarks/baseline.py --out benchmarks/BENCH_0.json

For every workload in BENCHMARK.json this runs ``run.py`` once for each of
the seeds 1 to 10 with ``--trace 0`` and once with ``--trace 1`` (seed 1),
one run at a time.  For
each end-to-end metric it records every value, the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["facts"] = next(json.loads(x)["facts"] for x in lines if x.startswith('{"facts"'))
    out["info"] = next(json.loads(x)["info"] for x in lines if x.startswith('{"info"'))
    out["wall_s"] = wall
    return out


def summarise(values: list, bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("nan")
    out = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}
    if bound is not None:
        out["bound"] = bound
        out["spread_within_third_of_bound"] = spread < bound / 3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(spec, workload, seed, seconds, 0)
            runs.append(run)
            print(workload, seed, {k: round(v["value"], 4) for k, v in run["metrics"].items()},
                  f"failed={run['failed']}", f"wall={run['wall_s']:.1f}s", flush=True)
        entry = {
            "facts": runs[0]["facts"],
            "seeds": [r["facts"]["seed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "passes": [r["info"]["passes"] for r in runs],
            "inputs": [r["info"]["inputs"] for r in runs],
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for r in runs],
                                           bounds.get(name))
                           for name in runs[0]["metrics"]},
        }
        traced = run_once(spec, workload, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, "failed": traced["failed"],
                              "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        result["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" bound {s.get('bound')}", flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
