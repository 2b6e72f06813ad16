"""sha256 digests of the outputs of every benchmark operation.

Usage (from the root of a checkout):

    python3 tools/output_digest.py [--workload NAME ...] [--seed N ...]

For each workload (by default all three) and seed (by default 1, 2 and 3) it
builds the operations as ``benchmarks/run.py`` does, from this checkout's
sources, and runs each operation once, in order.  Each output is serialized
as JSON with sorted keys, through its own ``to_json`` where it has one.  It
prints one sha256 per workload, over that workload's outputs at every seed,
and one over all outputs.  Two trees that print the same total gave every
verdict, witness, work value and report the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import run  # noqa: E402  (first: it pins the BLAS threads before numpy loads)

import numpy as np  # noqa: E402

SEEDS = (1, 2, 3)


def _plain(value):
    """``value`` as JSON data: its to_json where it has one, numpy values as Python ones."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def digests(workloads, seeds) -> dict:
    """{workload: (sha256 hex digest, outputs)} and the same over all under "total"."""
    tw = run.import_thermowork()
    total, out = hashlib.sha256(), {}
    for workload in workloads:
        sha, count = hashlib.sha256(), 0
        for seed in seeds:
            for block in run.build_ops(tw, workload, seed)[0]:
                for op in block:
                    line = (json.dumps(op.call(), sort_keys=True, default=_plain) + "\n").encode()
                    sha.update(line)
                    total.update(line)
                    count += 1
        out[workload] = sha.hexdigest(), count
    out["total"] = total.hexdigest(), sum(count for _, count in out.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS,
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="an input seed (repeatable; default: 1, 2 and 3)")
    args = parser.parse_args(argv)
    for name, (digest, count) in digests(args.workload or run.WORKLOADS,
                                         args.seed or SEEDS).items():
        print(f"{name} {digest} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
