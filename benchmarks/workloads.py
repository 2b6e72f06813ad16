"""Operations of the three workloads and the checks on their outputs.

Each operation is one call into the public API of thermowork.  The call
looks the function up on its module when it runs, so the traced run sees
the wrapped function.  Each check runs outside the timed region and returns
``(failure, undecided)``: a reason string when the output is wrong (None
when it is right), and whether the operation ended without a decisive
certificate.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import reference as ref

BETA = inputs.BETA
GRID_STEPS = 32
# Tolerance of a re-computed margin or work value against the library's.
RECHECK_TOL = 1e-9


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def _status(verdict) -> str:
    return verdict.status.value


def _kind(verdict):
    return verdict.witness.get("kind") if verdict.witness else None


def _monotone_witness_failure(tw, verdict, src_o, dst_o, ref_values) -> str | None:
    """A monotone_increase witness: recompute delta_F_alpha at its alpha with
    the library and with the reference (``ref_values(alpha)`` gives the
    source's and the target's); all must agree and show the increase."""
    w = verdict.witness
    alpha = float(w["alpha"])
    f_src = tw.divergences.delta_F_alpha(src_o, BETA, alpha)
    f_dst = tw.divergences.delta_F_alpha(dst_o, BETA, alpha)
    if abs(f_src - w["src_value"]) > RECHECK_TOL or abs(f_dst - w["dst_value"]) > RECHECK_TOL:
        return f"monotone witness at alpha={alpha:g} does not recompute"
    r_src, r_dst = ref_values(alpha)
    if abs(r_src - f_src) > 1e-7 * (1.0 + abs(r_src)) or abs(r_dst - f_dst) > 1e-7 * (1.0 + abs(r_dst)):
        return f"delta_F_alpha at alpha={alpha:g} differs from the reference"
    if r_dst <= r_src:
        return f"reference finds no increase at alpha={alpha:g}"
    return None


# ---------------------------------------------------------------------------
# catalytic-search
# ---------------------------------------------------------------------------

def catalytic_ops(tw, blocks) -> list:
    out = []
    for block in blocks:
        ops = []
        for src, dst, cat_dim, expected in block:
            src_o, dst_o = tw.core.ClassicalObject(*src), tw.core.ClassicalObject(*dst)

            def call(src_o=src_o, dst_o=dst_o, cat_dim=cat_dim):
                return tw.feasibility.decide_catalytic(src_o, dst_o, BETA, max_cat_dim=cat_dim,
                                                       grid_steps=GRID_STEPS)

            def check(v, src=src, dst=dst, src_o=src_o, dst_o=dst_o, expected=expected):
                return _check_catalytic(tw, v, src, dst, src_o, dst_o, expected), v.is_undetermined

            ops.append(Op(f"decide_catalytic[d={len(src[0])},cat={cat_dim}]", call, check))
        out.append(ops)
    return out


def _check_catalytic(tw, v, src, dst, src_o, dst_o, expected) -> str | None:
    kind = _kind(v)
    if v.is_feasible and kind == "curve_dominance":
        if ref.majorization_deficit(src, dst, BETA) > RECHECK_TOL:
            return "direct Feasible but the reference curve check fails"
        allowed = ("free", "ambiguous")
    elif v.is_infeasible and kind == "monotone_increase":
        failure = _monotone_witness_failure(
            tw, v, src_o, dst_o,
            lambda a: (ref.delta_f(*src, BETA, a), ref.delta_f(*dst, BETA, a)))
        if failure:
            return failure
        allowed = ("separated", "ambiguous")
    elif v.is_feasible and kind == "catalyst":
        if not tw.feasibility.revalidate_catalyst(v, src_o, dst_o, BETA):
            return "catalyst witness does not re-validate"
        cat = (np.asarray(v.witness["catalyst_probs"], dtype=float),
               np.asarray(v.witness["catalyst_energies"], dtype=float))
        if ref.majorization_deficit(ref.tensor(src, cat), ref.tensor(dst, cat), BETA) > RECHECK_TOL:
            return "reference curve check rejects the catalyst"
        allowed = ("hard", "ambiguous")
    elif v.is_undetermined:
        allowed = ("hard", "ambiguous")
    else:
        return f"unexpected verdict {_status(v)} with witness kind {kind!r}"
    if expected not in allowed:
        return f"{_status(v)} ({kind}) disagrees with reference class {expected!r}"
    return None


# ---------------------------------------------------------------------------
# large-oracles
# ---------------------------------------------------------------------------

def _thermo_object(tw, state_ham):
    rho, h = state_ham
    return tw.core.ThermoObject(rho, tw.core.HamiltonianClass(h))


def large_ops(tw, blocks) -> list:
    out = []
    for block in blocks:
        ops = []
        for name, src, dst, forward in block:
            quantum = name.endswith("quantum")
            make = _thermo_object if quantum else (lambda tw, x: tw.core.ClassicalObject(*x))
            src_o, dst_o = make(tw, src), make(tw, dst)
            fn = "catalytic_necessary" if quantum else name

            def call(fn=fn, src_o=src_o, dst_o=dst_o):
                return getattr(tw.feasibility, fn)(src_o, dst_o, BETA)

            checker = _LARGE_CHECKS[name]
            memo = {}

            def check(v, checker=checker, src=src, dst=dst, src_o=src_o, dst_o=dst_o,
                      forward=forward, memo=memo):
                return checker(tw, v, src, dst, src_o, dst_o, forward, memo), v.is_undetermined

            d = len(src[0])
            ops.append(Op(f"{name}[d={d},{'forward' if forward else 'reverse'}]", call, check))
        out.append(ops)
    return out


def _check_free(tw, v, src, dst, src_o, dst_o, forward, memo) -> str | None:
    if forward:
        if not v.is_feasible or _kind(v) != "curve_dominance":
            return f"{_status(v)} on a pair feasible by construction"
        return None
    if not v.is_infeasible or _kind(v) != "curve_crossing":
        deficit = ref.majorization_deficit(src, dst, BETA)
        return f"{_status(v)} where the reference deficit is {deficit:.3e}"
    w = v.witness
    sx, sy = ref.curve(*src, BETA)
    dx, dy = ref.curve(*dst, BETA)
    at_x = float(np.interp(w["x"], dx, dy) - np.interp(w["x"], sx, sy))
    if at_x <= 0.0 or abs(at_x - w["deficit"]) > 1e-8:
        return f"crossing witness at x={w['x']:.6g} does not recompute ({at_x:.3e})"
    return None


def _check_lp(tw, v, src, dst, src_o, dst_o, forward, memo) -> str | None:
    if forward:
        if not v.is_feasible:
            return f"{_status(v)} on a pair feasible by construction"
        if not tw.feasibility.revalidate_gibbs_stochastic(v, src_o, dst_o, BETA):
            return "Gibbs-stochastic witness does not re-validate"
        if not ref.check_gibbs_stochastic(v.witness["matrix"], src, dst, BETA):
            return "reference rejects the Gibbs-stochastic matrix"
        return None
    if not v.is_infeasible:
        return f"{_status(v)} on the reverse of a strictly irreversible pair"
    if not v.witness.get("gap", 0.0) > 0.0:
        return "Infeasible LP verdict with a non-positive phase-1 gap"
    if "farkas" in v.witness and not ref.check_farkas(v.witness["farkas"], src, dst, BETA):
        return "Farkas vector does not satisfy the constraints"
    return None


def _check_necessary(tw, v, src, dst, src_o, dst_o, forward, memo) -> str | None:
    quantum = np.ndim(src[0]) == 2
    f = ref.sandwiched_delta_f if quantum else ref.delta_f
    grid = tuple(a for a in ref.ALPHA_GRID if a >= 0.5) if quantum else ref.ALPHA_GRID

    def values(a):
        return f(*src, BETA, a), f(*dst, BETA, a)

    if v.is_undetermined:
        if "best_gap" not in memo:  # the same pair comes back every pass
            memo["best_gap"] = max(d - s for s, d in map(values, grid))
        best = memo["best_gap"]
        if best > ref.AMBIGUOUS:
            return f"Undetermined, but the reference gap reaches {best:.3e}"
        return None
    if v.is_infeasible and _kind(v) == "monotone_increase":
        if forward:
            return "Infeasible on a pair feasible by construction"
        return _monotone_witness_failure(tw, v, src_o, dst_o, values)
    return f"unexpected verdict {_status(v)} with witness kind {_kind(v)!r}"


_LARGE_CHECKS = {
    "decide_free": _check_free,
    "gibbs_stochastic_feasible": _check_lp,
    "catalytic_necessary": _check_necessary,
    "catalytic_necessary_quantum": _check_necessary,
}


# ---------------------------------------------------------------------------
# work-quantify
# ---------------------------------------------------------------------------

def _restriction(tw, name):
    q = tw.quantifiers
    return {
        "Unrestricted": lambda: q.Unrestricted(),
        "EpsilonDet": lambda: q.EpsilonDet(0.1, 1.0),
        "WbitSet": lambda: q.WbitSet(0.1, 1.0),
        "MeanLadder": lambda: q.MeanLadder(4, 0.5),
    }[name]()


def work_ops(tw, blocks) -> list:
    ctx = tw.divergences.BetaContext(BETA)
    values = {}  # (block, fuel, alpha, restriction) -> certified work value
    scenario_json = {}  # scenario name -> report.json text of its first round
    out = []
    for b, block in enumerate(blocks):
        ops = []
        for item in block:
            if item[0] == "work":
                _, fuel, alpha, rname, side = item
                quantifier = tw.quantifiers.WorkQuantifier(tw.quantifiers.RenyiFreeEnergy(alpha, ctx))
                restriction = _restriction(tw, rname)
                fuel_o = tw.core.ClassicalObject(*fuel)
                key = (b, fuel[1][1], alpha, rname)

                def call(side=side, quantifier=quantifier, restriction=restriction, fuel_o=fuel_o):
                    fn = tw.quantifiers.work_value if side == "value" else tw.quantifiers.work_cost
                    return fn(quantifier, restriction, fuel_o, BETA, grid=GRID_STEPS)

                def check(res, side=side, fuel=fuel, alpha=alpha, quantifier=quantifier,
                          restriction=restriction, key=key):
                    return _check_work(tw, res, side, fuel, alpha, quantifier, restriction,
                                       key, values)

                a = "inf" if math.isinf(alpha) else f"{alpha:g}"
                ops.append(Op(f"work_{side}[{rname},alpha={a}]", call, check))
            elif item[0] == "sweep":
                ops.append(_sweep_op(tw, ctx, item[1], item[2]))
            else:
                ops.append(_scenario_op(tw, item[1], scenario_json))
        out.append(ops)
    return out


def _check_work(tw, res, side, fuel, alpha, quantifier, restriction, key, values):
    bound = res["value"] if side == "value" else res["cost"]
    cert = res["certificate"]
    if not math.isfinite(bound):
        if cert is not None or bound != (-math.inf if side == "value" else math.inf):
            return f"work {side} {bound} with a certificate", True
        failure = None
    else:
        failure = _certificate_failure(tw, cert, side, fuel, alpha, quantifier, restriction)
        if failure is None and bound != (cert.work if side == "value" else -cert.work):
            failure = f"work {side} {bound} differs from its certificate's W {cert.work}"
    if side == "value":
        values[key] = bound
    elif failure is None and key in values and values[key] > bound + RECHECK_TOL:
        failure = f"work value {values[key]} exceeds work cost {bound}"
    return failure, not math.isfinite(bound)


def _certificate_failure(tw, cert, side, fuel, alpha, quantifier, restriction) -> str | None:
    a, b = cert.src, cert.dst
    if not (restriction.contains(a) and restriction.contains(b)):
        return "certified storage object outside the restriction set"
    if quantifier.work(a, b) != cert.work:
        return "certificate W does not recompute"
    w_ref = (ref.delta_f(b.probs, b.energies, BETA, alpha)
             - ref.delta_f(a.probs, a.energies, BETA, alpha))
    if abs(w_ref - cert.work) > 1e-7 * (1.0 + abs(w_ref)):
        return f"certificate W {cert.work} differs from the reference {w_ref}"
    gibbs = (ref.gibbs(fuel[1], BETA), fuel[1])
    src_m, dst_m = (fuel, gibbs) if side == "value" else (gibbs, fuel)
    joint_src = ref.tensor(src_m, (a.probs, a.energies))
    joint_dst = ref.tensor(dst_m, (b.probs, b.energies))
    verdict = cert.feasibility
    kind = _kind(verdict)
    if not verdict.is_feasible:
        return f"certificate carries a {_status(verdict)} verdict"
    if kind == "catalyst":
        objs = [tw.core.ClassicalObject(*x) for x in (joint_src, joint_dst)]
        if not tw.feasibility.revalidate_catalyst(verdict, objs[0], objs[1], BETA):
            return "certificate catalyst does not re-validate"
        cat = (np.asarray(verdict.witness["catalyst_probs"], dtype=float),
               np.asarray(verdict.witness["catalyst_energies"], dtype=float))
        joint_src, joint_dst = ref.tensor(joint_src, cat), ref.tensor(joint_dst, cat)
    elif kind != "curve_dominance":
        return f"certificate witness kind {kind!r} cannot be re-validated"
    if ref.majorization_deficit(joint_src, joint_dst, BETA) > RECHECK_TOL:
        return "reference curve check rejects the certified joint transition"
    return None


def _sweep_op(tw, ctx, alpha, samples) -> Op:
    quantifier = tw.quantifiers.WorkQuantifier(tw.quantifiers.RenyiFreeEnergy(alpha, ctx))
    restriction = tw.quantifiers.WbitSet(0.1, 1.0)
    pairs = [(tw.core.ClassicalObject(*s), tw.core.ClassicalObject(*d)) for s, d in samples]
    classes = [ref.classify_pair(s, d, BETA) for s, d in samples]

    def oracle(s, d):
        return tw.feasibility.decide_catalytic(s, d, BETA)

    def call():
        return tw.quantifiers.check_free_nonpositivity(quantifier, restriction, oracle, pairs)

    def check(report):
        n = len(pairs)
        if not report.passed:
            return f"Renyi monotone flagged: {report.violations[:1]}", False
        if report.samples != n:
            return f"{report.samples} of {n} wbit samples counted", False
        lo, hi = classes.count("separated"), n - classes.count("free")
        if not lo <= report.skipped <= hi:
            return f"{report.skipped} skipped, reference allows {lo}..{hi}", False
        return None, False

    return Op(f"check_free_nonpositivity[alpha={alpha:g}]", call, check)


def _scenario_op(tw, name, first_json) -> Op:
    config = inputs.SCENARIO_CONFIGS[name]

    def call():
        return tw.scenarios.SCENARIOS[name](copy.deepcopy(config))

    def check(report):
        doc = report.to_json()
        text = json.dumps(doc, sort_keys=True)
        undecided = any(v.get("status") == "Undetermined" for v in doc["verdicts"])
        if first_json.setdefault(name, text) != text:
            return "report.json differs from the first round", undecided
        if doc["breaches"]:
            return f"scenario breach: {doc['breaches'][0]['description']}", undecided
        return None, undecided

    return Op(f"scenario[{name}]", call, check)


OPERATIONS = {
    "catalytic-search": catalytic_ops,
    "large-oracles": large_ops,
    "work-quantify": work_ops,
}


def build(tw, workload: str, rng) -> tuple:
    """Blocks of operations for one workload, inputs drawn from ``rng``, and
    facts about the inputs (the share of hard pairs in catalytic-search)."""
    blocks, about = inputs.GENERATORS[workload](rng)
    return OPERATIONS[workload](tw, blocks), about
