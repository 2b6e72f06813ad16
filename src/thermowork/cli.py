"""Command-line front end: scenarios, checkers, oracle queries, divergences.

Exit codes: 0 success, 1 usage or IO error, 2 a checker found a violation,
3 an Undetermined verdict where a decision was required.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    classical_from_json,
    classical_to_object,
    object_from_json,
)
from .divergences import BetaContext, delta_F_alpha
from .feasibility import _BUDGET, _as_classical, decide_catalytic, decide_free
from .quantifiers import (
    SUPERADD_TOL,
    CheckReport,
    MeanEnergy,
    RenyiFreeEnergy,
    WbitSet,
    WdetQuantifier,
    WorkQuantifier,
    check_axiom1_cycle,
    check_free_nonpositivity,
    check_lemma2,
    check_superadditivity,
)
from .sampling import random_classical_object, random_gibbs_stochastic, rng_from_seed
from .scenarios import SCENARIOS

HEADER = ("# thermowork | conventions: k_B = 1, beta in inverse energy units, "
          "all logarithms natural (values in nats)")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_UNDETERMINED = 3


def _output_dir(args, config: dict | None = None) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    if config and config.get("output_dir"):
        return Path(config["output_dir"])
    env = os.environ.get("THERMOWORK_OUTPUT_DIR")
    return Path(env) if env else Path("thermowork-out")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise SystemExit2(f"malformed JSON in {path}: line {err.lineno}, column {err.colno}")
    except OSError as err:
        raise SystemExit2(f"cannot read {path}: {err}")


class SystemExit2(Exception):
    """Usage/IO failure carrying a message; mapped to exit code 1."""


def _validate_run_config(cfg, path: str) -> dict:
    if not isinstance(cfg, dict):
        raise SystemExit2(f"{path} must hold a JSON object, got {type(cfg).__name__}")
    if "seed" not in cfg:
        raise SystemExit2("config must carry an explicit seed (no wall-clock default)")
    if cfg.get("schema", 1) != 1:
        raise SystemExit2(f"unsupported config schema {cfg.get('schema')}")
    if "tolerances" in cfg:
        raise SystemExit2('a run config takes no "tolerances" block: each tolerance is a '
                          "module constant, listed in the README's Conventions table")
    blocks = cfg.get("scenarios", [])
    if not isinstance(blocks, list) or not all(isinstance(b, dict) for b in blocks):
        raise SystemExit2(f'"scenarios" in {path} must be a list of JSON objects')
    beta = cfg.get("beta", 1.0)  # float() takes no null, list or object
    if not isinstance(beta, (int, float, str)) or not float(beta) > 0:
        raise SystemExit2(f"beta must be a positive number, got {json.dumps(beta)}")
    return cfg


def _scenario_blocks(args, cfg: dict | None) -> list:
    """Merge config-file blocks and command-line flags into scenario configs."""
    flags = {}
    for key in ("beta", "delta", "d", "epsilon", "alpha", "seed", "levels",
                "spacing", "grid_steps"):
        value = getattr(args, key, None)
        if value is not None:
            flags[key] = value
    if cfg is not None:
        defaults = {"beta": 1.0, **{k: cfg[k] for k in ("beta", "seed") if k in cfg}}
        blocks = cfg.get("scenarios", [])
        if args.name != "all":
            blocks = [b for b in blocks if b.get("name") == args.name]
            if not blocks:
                blocks = [{"name": args.name}]
        merged = []
        for block in blocks:
            body = dict(defaults)
            body.update({k: v for k, v in block.items() if k != "name"})
            body.update(flags)
            merged.append((block.get("name", args.name), body))
        return merged
    if args.name == "all":
        raise SystemExit2("scenario all requires --config")
    body = {"beta": 1.0, "seed": 0}
    body.update(flags)
    return [(args.name, body)]


def _run_scenario(name: str, body: dict, outdir: Path):
    if name not in SCENARIOS:
        raise SystemExit2(f"unknown scenario {name!r}; choices: {sorted(SCENARIOS)}")
    report = SCENARIOS[name](body)
    target = report.write(outdir)
    meta = {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S"), "argv_name": name}
    (target / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    return report, target


def cmd_scenario(args) -> int:
    print(HEADER)
    cfg = _validate_run_config(_load_json(args.config), args.config) if args.config else None
    outdir = _output_dir(args, cfg)
    results = [_run_scenario(name, body, outdir) for name, body in _scenario_blocks(args, cfg)]
    breached = False
    for report, target in results:
        print(f"scenario {report.scenario_name}: report written to {target}")
        for key, entry in report.derived.items():
            print(f"  {key} = {entry['value']}  [{entry['op']}]")
        for verdict in report.verdicts:
            print(f"  verdict {verdict['label']}: {verdict['status']}")
        for breach in report.breaches:
            breached = True
            print(f"  BREACH: {breach['description']}")
    return EXIT_VIOLATION if breached else EXIT_OK


def _build_quantifier(args, ctx: BetaContext):
    kind = args.quantifier
    if kind == "dfalpha":
        alpha = 1.0 if args.alpha is None else float(args.alpha)
        return WorkQuantifier(RenyiFreeEnergy(alpha, ctx))
    if kind == "mean":
        return WorkQuantifier(MeanEnergy(ctx))
    if kind == "wdet":
        return WdetQuantifier(WbitSet(args.epsilon, args.delta))
    raise SystemExit2(f"unknown quantifier {kind!r}")


def _sample_free_pairs(args, rng):
    """Qubit pairs inside the epsilon ball around the energy eigenstates."""
    pairs = []
    eps, delta = args.epsilon, args.delta
    levels = np.array([0.0, delta])
    anchors = [ClassicalObject([1.0, 0.0], levels), ClassicalObject([0.0, 1.0], levels)]
    states = list(anchors)
    for _ in range(args.samples):
        t = rng.uniform(0.0, eps) if eps > 0 else 0.0
        states.append(ClassicalObject([1.0 - t, t], levels))
        states.append(ClassicalObject([t, 1.0 - t], levels))
    for src in anchors:
        for dst in states:
            pairs.append((src, dst))
    return pairs


def cmd_check(args) -> int:
    if args.samples < 1:
        raise SystemExit2(f"--samples must be at least 1, got {args.samples}")
    if args.checker in ("lemma2", "superadd") and args.quantifier == "wdet":
        raise SystemExit2(f"check {args.checker} needs a monotone: --quantifier dfalpha or mean")
    print(HEADER)
    ctx = BetaContext(args.beta)
    rng = rng_from_seed(args.seed)
    outdir = _output_dir(args)
    outdir.mkdir(parents=True, exist_ok=True)
    quantifier = _build_quantifier(args, ctx)
    if args.checker == "axiom1":
        reports = []
        for _ in range(args.samples):
            cycle = [random_classical_object(rng, 2) for _ in range(4)]
            cycle.append(cycle[0])
            reports.append(check_axiom1_cycle(quantifier, cycle))
        report = _merge_reports("axiom1_cycle", reports)
    elif args.checker == "lemma2":
        mono = quantifier.monotone
        transitions, pairs, objects = [], [], []
        for _ in range(args.samples):
            src = random_classical_object(rng, 3)
            g_map = random_gibbs_stochastic(rng, src.energies, args.beta)
            transitions.append((src, ClassicalObject(g_map @ src.probs, src.energies)))
            pairs.append((random_classical_object(rng, 2), random_classical_object(rng, 2)))
            objects.append(random_classical_object(rng, 3))
        report = check_lemma2(mono, ctx, transitions, pairs, objects)
    elif args.checker == "superadd":
        mono = quantifier.monotone
        report = CheckReport(checker="superadditivity", samples=args.samples,
                             tolerances={"gap": SUPERADD_TOL})
        worst = math.inf
        for _ in range(args.samples):
            probs = rng.dirichlet(np.ones(4))
            obj = classical_to_object(ClassicalObject(probs, np.zeros(4)))
            ni = NonInteractingObject(obj, (2, 2),
                                      (HamiltonianClass(np.zeros((2, 2))),) * 2)
            res = check_superadditivity(mono, ni)
            worst = min(worst, res["gap"])
            if not res["holds"]:
                report.violations.append({"kind": "superadditivity", "gap": res["gap"],
                                          "witness": [float(x) for x in probs]})
        report.details["min_gap"] = worst
    elif args.checker == "free-nonpos":
        restriction = WbitSet(args.epsilon, args.delta)
        pairs = _sample_free_pairs(args, rng)
        oracle = lambda s, d: decide_free(s, d, ctx)
        report = check_free_nonpositivity(quantifier, restriction, oracle, pairs)
    else:
        raise SystemExit2(f"unknown checker {args.checker!r}")
    (outdir / f"check-{args.checker}.json").write_text(
        json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n")
    (outdir / f"check-{args.checker}.csv").write_text(report.csv_summary())
    print(f"check {args.checker}: samples={report.samples} skipped={report.skipped} "
          f"violations={len(report.violations)}")
    for v in report.violations[:5]:
        print(f"  violation: {json.dumps(v)[:200]}")
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _merge_reports(name: str, reports) -> CheckReport:
    merged = CheckReport(checker=name, samples=0)
    for rep in reports:
        merged.samples += rep.samples
        merged.skipped += rep.skipped
        merged.violations.extend(rep.violations)
        merged.tolerances.update(rep.tolerances)
    return merged


def _load_object(path: str):
    """A classical object if the document has a classical block, else a thermal one."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SystemExit2(f"{path} must hold a JSON object, got {type(doc).__name__}")
    try:
        if "classical" in doc or "probs" in doc:
            return classical_from_json(doc)
        return object_from_json(doc)
    except (KeyError, TypeError, ValueError) as err:
        raise SystemExit2(f"{path} does not hold a valid object: {err}")


def cmd_feasible(args) -> int:
    print(HEADER)
    src = _as_classical(_load_object(args.src))
    dst = _as_classical(_load_object(args.dst))
    ctx = BetaContext(args.beta)
    if args.catalytic:
        verdict = decide_catalytic(src, dst, ctx, max_cat_dim=args.max_cat_dim,
                                   grid_steps=args.grid_steps)
    else:
        verdict = decide_free(src, dst, ctx)
    print(json.dumps(verdict.to_json(), sort_keys=True, indent=2))
    if verdict.is_undetermined:
        return EXIT_UNDETERMINED
    return EXIT_OK


def cmd_divergence(args) -> int:
    print(HEADER)
    obj = _load_object(args.object)
    ctx = BetaContext(args.beta)
    value = delta_F_alpha(obj, ctx, float(args.alpha))
    print(f"delta_F_alpha(alpha={args.alpha}, beta={args.beta}) = {value!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermowork",
        description="Operational work quantifiers and feasibility oracles "
                    "for finite-dimensional thermodynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scenario", help="run a scripted scenario")
    sc.add_argument("name", help=f"one of {sorted(SCENARIOS)} or 'all' with --config")
    sc.add_argument("--config", help="JSON run config (schema 1)")
    sc.add_argument("--beta", type=float, default=None)
    sc.add_argument("--delta", type=float, default=None)
    sc.add_argument("--d", type=int, default=None)
    sc.add_argument("--epsilon", type=float, default=None)
    sc.add_argument("--alpha", default=None)
    sc.add_argument("--levels", type=int, default=None)
    sc.add_argument("--spacing", type=float, default=None)
    sc.add_argument("--grid-steps", dest="grid_steps", type=int, default=None)
    sc.add_argument("--seed", type=int, default=None)
    sc.add_argument("--output-dir", dest="output_dir", default=None)
    sc.set_defaults(func=cmd_scenario)

    ck = sub.add_parser("check", help="run an axiom checker sweep")
    ck.add_argument("checker", choices=["axiom1", "lemma2", "superadd", "free-nonpos"])
    ck.add_argument("--quantifier", choices=["dfalpha", "mean", "wdet"], default="dfalpha")
    ck.add_argument("--alpha", default=None)
    ck.add_argument("--epsilon", type=float, default=0.0)
    ck.add_argument("--delta", type=float, default=1.0)
    ck.add_argument("--beta", type=float, default=1.0)
    ck.add_argument("--seed", type=int, default=0)
    ck.add_argument("--samples", type=int, default=100)
    ck.add_argument("--output-dir", dest="output_dir", default=None)
    ck.set_defaults(func=cmd_check)

    fe = sub.add_parser("feasible", help="decide a classical transition")
    fe.add_argument("--src", required=True)
    fe.add_argument("--dst", required=True)
    fe.add_argument("--beta", type=float, required=True)
    fe.add_argument("--catalytic", action="store_true")
    fe.add_argument("--max-cat-dim", dest="max_cat_dim", type=int, default=_BUDGET[0])
    fe.add_argument("--grid-steps", dest="grid_steps", type=int, default=_BUDGET[1])
    fe.set_defaults(func=cmd_feasible)

    dv = sub.add_parser("divergence", help="evaluate a free-energy difference")
    dv.add_argument("--alpha", default="1")
    dv.add_argument("--object", required=True)
    dv.add_argument("--beta", type=float, required=True)
    dv.set_defaults(func=cmd_divergence)

    vs = sub.add_parser("version", help="print the version")
    vs.set_defaults(func=lambda args: print(__version__) or EXIT_OK)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:  # argparse's usage error exits 2, a violation's code here
        if err.code:
            return EXIT_USAGE
        raise
    try:
        result = args.func(args)
        return EXIT_OK if result is None else int(result)
    except SystemExit2 as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
