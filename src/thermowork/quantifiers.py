"""Work quantifiers of monotone-difference form, and the machinery around them.

A work quantifier assigns a value W(p -> q) = M(q) - M(p) to transitions of
the work-storage device, for a monotone M with M(empty) = 0.  This module
provides the monotone family (Renyi free energies, mean energy, finite
lookup tables), restriction sets of allowed work-storage objects, checkers
for the operational axioms, and certified-lower-bound optimizers for the
work of transition, work value and work cost.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ClassicalObject,
    EMPTY_CLASSICAL,
    HamiltonianClass,
    NonInteractingObject,
    ThermoObject,
    classical_gibbs,
    classical_tensor,
    classical_to_json,
    gibbs_state,
    partial_trace,
    trace_norm,
)
from .divergences import BetaContext, INF, _check_alphas, _Rows, as_beta, delta_F_alpha
from .feasibility import (
    MONOTONE_TOL,
    FeasibilityVerdict,
    Status,
    _as_classical,
    _decide_pairs,
    _json_safe,
    decide_catalytic,
    thermo_majorizes,
)

CYCLE_TOL_PER_STEP = 1e-10
ADDITIVITY_TOL = 1e-9
POSITIVITY_TOL = 1e-10
SUPERADD_TOL = 1e-9
FREE_WORK_TOL = 1e-10


def _is_empty(obj) -> bool:
    if isinstance(obj, (ThermoObject, ClassicalObject)):
        return obj.dim == 1
    return False


# ---------------------------------------------------------------------------
# Monotones and the quantifiers they induce
# ---------------------------------------------------------------------------

class Monotone:
    """A function M on objects with M(empty) = 0, candidate work monotone."""

    name = "monotone"

    def __call__(self, obj) -> float:
        raise NotImplementedError

    def _values(self, objs) -> np.ndarray:
        """M of each object, NaN where M raises ValueError or KeyError."""
        m = np.empty(len(objs))
        for k, c in enumerate(objs):
            try:
                m[k] = self(c)
            except (ValueError, KeyError):
                m[k] = np.nan
        return m


@dataclass(frozen=True)
class RenyiFreeEnergy(Monotone):
    """M(p) = (1/beta) S_alpha(rho || Gibbs): the canonical monotone family."""

    alpha: float
    ctx: BetaContext

    def __post_init__(self):
        _check_alphas((self.alpha,))

    @property
    def name(self) -> str:
        a = "inf" if math.isinf(self.alpha) else f"{self.alpha:g}"
        return f"delta_F_{a}"

    def __call__(self, obj) -> float:
        if isinstance(obj, NonInteractingObject):
            obj = obj.obj
        return delta_F_alpha(obj, self.ctx, self.alpha)

    def _values(self, objs) -> np.ndarray:
        """For classical objects one table, each value that of self(c) to the bit."""
        if not all(isinstance(c, ClassicalObject) for c in objs):
            return super()._values(objs)
        return _Rows(objs, as_beta(self.ctx)).free((self.alpha,))[:, 0]


@dataclass(frozen=True)
class MeanEnergy(Monotone):
    """Mean energy above the Gibbs mean; additive, with M(empty) = 0."""

    ctx: BetaContext

    name = "mean_energy"

    def __call__(self, obj) -> float:
        beta = as_beta(self.ctx)
        if isinstance(obj, NonInteractingObject):
            obj = obj.obj
        if isinstance(obj, ClassicalObject):
            g = _Rows([obj], beta).gibbs()[0]
            return float(np.dot(obj.probs - g, obj.energies))
        omega = gibbs_state(obj.hamiltonian, beta)
        h = obj.hamiltonian.matrix
        return float(np.real(np.trace((obj.state - omega.state) @ h)))


class CustomTable(Monotone):
    """Lookup-table monotone over a finite object list.

    Validated at load: the empty object must map to 0 (it is added with
    value 0 when absent).  Lookup is by object equality.
    """

    def __init__(self, entries, name: str = "custom"):
        self.name = name
        self.entries = list(entries)
        for obj, value in self.entries:
            if _is_empty(obj) and abs(value) > 1e-12:
                raise ValueError(f"M(empty) must be 0, table has {value}")
        if not any(_is_empty(obj) for obj, _ in self.entries):
            self.entries.append((EMPTY_CLASSICAL, 0.0))

    def __call__(self, obj) -> float:
        if _is_empty(obj):
            return 0.0
        for entry, value in self.entries:
            if type(entry) is type(obj) and entry == obj:
                return float(value)
        raise KeyError("object not in custom monotone table")


@dataclass(frozen=True)
class WorkQuantifier:
    """W(p -> q) = M(q) - M(p): the only form compatible with the axioms."""

    monotone: Monotone

    @property
    def name(self) -> str:
        return f"W[{self.monotone.name}]"

    def work(self, src, dst) -> float:
        m_src = self.monotone(src)
        m_dst = self.monotone(dst)
        if math.isinf(m_src) and math.isinf(m_dst):
            raise ValueError("work undefined: both monotone values are infinite")
        return m_dst - m_src

    __call__ = work


def work(quantifier: WorkQuantifier, src, dst) -> float:
    return quantifier.work(src, dst)


# ---------------------------------------------------------------------------
# Restriction sets of allowed work-storage objects
# ---------------------------------------------------------------------------

class RestrictionSet:
    """A set P of allowed work-storage objects; always contains the empty object."""

    def contains(self, obj) -> bool:
        raise NotImplementedError

    def candidates(self, anchors=(), grid: int = 32) -> list:
        """Finite discretization of P used by the transition optimizers."""
        raise NotImplementedError


def _eigenstate_distances(obj) -> tuple:
    """(gap, distance to the ground state, distance to the excited state) of
    a qubit object, distances in trace norm."""
    if not isinstance(obj, (ClassicalObject, ThermoObject)):
        raise TypeError(f"unsupported object type {type(obj).__name__}")
    if obj.dim != 2:
        raise ValueError("wbit states are qubits")
    if isinstance(obj, ClassicalObject):  # ground: the first of equal energies, as np.argsort's
        e0, e1 = obj.energies.tolist()
        ground, gap = (0, e1 - e0) if e0 <= e1 else (1, e0 - e1)
        p_ground = obj.probs.tolist()[ground]
        return gap, 2.0 * (1.0 - p_ground), 2.0 * p_ground
    evals, evecs = np.linalg.eigh(obj.hamiltonian.matrix)
    ground = np.outer(evecs[:, 0], evecs[:, 0].conj())
    excited = np.outer(evecs[:, 1], evecs[:, 1].conj())
    return (float(evals[1] - evals[0]), trace_norm(obj.state - ground),
            trace_norm(obj.state - excited))


def _qubit_distances(obj, delta: float):
    """Trace-norm distances of a qubit object to the two energy eigenstates,
    or None if the object is not a qubit with Hamiltonian diag(0, delta).  A
    classical qubit's gap is tested by np.isclose's rule (atol 1e-9, rtol 1e-5)
    on floats."""
    if isinstance(obj, ClassicalObject):
        e0, e1 = obj.energies.tolist() if obj.dim == 2 else (0.0, math.nan)  # nan: no match
        gap = abs(e1 - e0)
        ok = gap == delta or math.isfinite(delta) and abs(gap - delta) <= 1e-9 + 1e-5 * abs(delta)
    else:
        ok = (isinstance(obj, ThermoObject) and obj.dim == 2
              and obj.hamiltonian == HamiltonianClass(np.diag([0.0, delta])))
    return _eigenstate_distances(obj)[1:] if ok else None


@functools.cache
def _epsilon_grid(epsilon: float, delta: float, grid: int, closed: bool) -> tuple:
    """Classical qubit states within epsilon of an energy eigenstate, built once.

    The boundary states at distance exactly 2 epsilon belong to the closed
    (wbit) ball only.
    """
    out = [ClassicalObject([1.0, 0.0], [0.0, delta]),
           ClassicalObject([0.0, 1.0], [0.0, delta])]
    if epsilon > 0:
        ts = np.linspace(0.0, epsilon, max(2, grid // 4), endpoint=False)[1:].tolist()
        for t in ts + ([epsilon] if closed else []):
            out += [ClassicalObject([1.0 - t, t], [0.0, delta]),
                    ClassicalObject([t, 1.0 - t], [0.0, delta])]
    return tuple(out)


@functools.cache
def _qubit_ladder(delta: float, grid: int) -> tuple:
    """Classical qubit states with energies (0, delta) and populations on a grid, built once."""
    return tuple(ClassicalObject([1.0 - t, t], [0.0, delta]) for t in np.linspace(0.0, 1.0, grid))


@dataclass(frozen=True)
class Unrestricted(RestrictionSet):
    """All objects are allowed; the optimum is to hand the object over."""

    beta: float = 1.0
    qubit_delta: float = 1.0

    def contains(self, obj) -> bool:
        return True

    def candidates(self, anchors=(), grid: int = 32) -> list:
        out = [EMPTY_CLASSICAL]
        for a in map(_as_classical, anchors):
            out += [a, classical_gibbs(a.energies, self.beta)]
        return out + list(_qubit_ladder(self.qubit_delta, grid))


@dataclass(frozen=True)
class _EpsilonBall(RestrictionSet):
    """Qubits with H = delta |1><1| within 2 epsilon of an energy eigenstate;
    the class attribute ``closed`` says whether the boundary belongs to it."""

    epsilon: float
    delta: float

    closed = False

    def __post_init__(self):
        if not 0 <= self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in [0, 1/2), got {self.epsilon}")

    def contains(self, obj) -> bool:
        if _is_empty(obj):
            return True
        dists = _qubit_distances(obj, self.delta)
        if dists is None:
            return False
        d = min(dists)
        radius = 2.0 * self.epsilon
        return d <= 1e-12 or (d <= radius + 1e-12 if self.closed else d < radius)

    def candidates(self, anchors=(), grid: int = 32) -> list:
        return [EMPTY_CLASSICAL, *_epsilon_grid(self.epsilon, self.delta, grid, self.closed)]


class EpsilonDet(_EpsilonBall):
    """Qubits with H = delta |1><1| within (strictly) 2 epsilon of an eigenstate."""


class WbitSet(_EpsilonBall):
    """The wbit set: like EpsilonDet but with the closed 2-epsilon ball."""

    closed = True


@dataclass(frozen=True)
class MeanLadder(RestrictionSet):
    """Fixed ladder Hamiltonian (levels at 0, s, 2s, ...), arbitrary states."""

    levels: int
    spacing: float

    def energies(self) -> np.ndarray:
        return self.spacing * np.arange(self.levels)

    def contains(self, obj) -> bool:
        if _is_empty(obj):
            return True
        if isinstance(obj, ClassicalObject):
            return obj.dim == self.levels and bool(np.allclose(
                obj.energies - np.min(obj.energies), self.energies(), atol=1e-9))
        if isinstance(obj, ThermoObject):
            return obj.hamiltonian == HamiltonianClass(np.diag(self.energies()))
        return False

    def candidates(self, anchors=(), grid: int = 32) -> list:
        return [EMPTY_CLASSICAL, *_eigenstates(self.levels, self.spacing)]


@functools.cache
def _eigenstates(levels: int, spacing: float) -> tuple:
    """The energy eigenstates of the ladder with ``levels`` levels ``spacing`` apart, built once."""
    return tuple(ClassicalObject(probs, spacing * np.arange(levels)) for probs in np.eye(levels))


@dataclass(frozen=True)
class FiniteList(RestrictionSet):
    """An explicit finite list of allowed objects (the empty object is implied)."""

    objects: tuple

    def contains(self, obj) -> bool:
        return _is_empty(obj) or any(
            type(o) is type(obj) and o == obj for o in self.objects)

    def candidates(self, anchors=(), grid: int = 32) -> list:
        return [EMPTY_CLASSICAL] + list(self.objects)


# ---------------------------------------------------------------------------
# Records and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionRecord:
    """A work-storage transition with its work value and feasibility evidence."""

    src: object
    dst: object
    work: float
    feasibility: FeasibilityVerdict

    def to_json(self) -> dict:
        def describe(obj):
            if isinstance(obj, ClassicalObject):
                return classical_to_json(obj)
            return {"dim": obj.dim}
        return _json_safe({
            "src": describe(self.src),
            "dst": describe(self.dst),
            "work": self.work,
            "feasibility": self.feasibility.to_json(),
        })


@dataclass(frozen=True)
class AssistedSequence:
    """Steps of the work-storage device with the assistant chain that closes."""

    steps: tuple
    assistants: tuple

    def __post_init__(self):
        if len(self.steps) != len(self.assistants):
            raise ValueError("one assistant pair per step required")
        first = self.assistants[0][0]
        last = self.assistants[-1][1]
        if not _classical_close(first, last, 1e-10):
            raise ValueError("assistant chain does not close")


def _classical_close(a: ClassicalObject, b: ClassicalObject, tol: float) -> bool:
    return (a.dim == b.dim
            and bool(np.allclose(a.probs, b.probs, atol=tol, rtol=0))
            and bool(np.allclose(a.energies, b.energies, atol=tol, rtol=0)))


@dataclass
class CheckReport:
    """Outcome of one checker sweep, serializable to JSON and CSV."""

    checker: str
    samples: int
    violations: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    skipped: int = 0
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return _json_safe({
            "checker": self.checker,
            "samples": self.samples,
            "skipped": self.skipped,
            "violations": self.violations,
            "tolerances": self.tolerances,
            "passed": self.passed,
            "details": self.details,
        })

    def csv_summary(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["checker", "samples", "skipped", "violations", "passed"])
        writer.writerow([self.checker, self.samples, self.skipped,
                         len(self.violations), self.passed])
        return buf.getvalue()


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------

def check_axiom1_cycle(quantifier, cycle, tol_per_step: float = CYCLE_TOL_PER_STEP) -> CheckReport:
    """Sum the work around a closed cycle of work-storage objects.

    For any monotone-difference quantifier the sum telescopes to zero; a
    sum beyond n * tol flags a non-difference (hence axiom-violating)
    quantifier.
    """
    cycle = list(cycle)
    if len(cycle) < 2 or not (cycle[0] == cycle[-1]):
        raise ValueError("cycle must close (last object equal to first)")
    steps = list(zip(cycle[:-1], cycle[1:]))
    works = [quantifier(a, b) for a, b in steps]
    total = float(np.sum(works))
    tol = len(steps) * tol_per_step
    report = CheckReport(
        checker="axiom1_cycle",
        samples=len(steps),
        tolerances={"per_step": tol_per_step, "cycle_sum": tol},
        details={"cycle_sum": total, "step_works": works},
    )
    if abs(total) > tol:
        report.violations.append({"kind": "nonzero_cycle_sum", "sum": total, "tol": tol})
    return report


def check_additive_monotonicity(monotone: Monotone, srcs, dsts, oracle,
                                tol: float = MONOTONE_TOL) -> CheckReport:
    """Batch monotonicity: if the tensored batch transition is certified
    feasible, the summed monotone must not increase.

    Batches whose oracle verdict is not Feasible are skipped and counted as
    untested rather than asserted.
    """
    srcs, dsts = list(srcs), list(dsts)
    if len(srcs) != len(dsts):
        raise ValueError("need matching source and destination batches")
    joint_src, joint_dst = (functools.reduce(classical_tensor, batch[1:], batch[0])
                            for batch in (srcs, dsts))
    verdict = oracle(joint_src, joint_dst)
    report = CheckReport(
        checker="additive_monotonicity",
        samples=len(srcs),
        tolerances={"monotone": tol},
        details={"oracle_status": verdict.status.value},
    )
    if not verdict.is_feasible:
        report.skipped = len(srcs)
        report.details["untested"] = True
        return report
    m_src = float(np.sum([monotone(s) for s in srcs]))
    m_dst = float(np.sum([monotone(d) for d in dsts]))
    report.details.update({"sum_src": m_src, "sum_dst": m_dst})
    if m_dst > m_src + tol:
        report.violations.append({
            "kind": "batch_monotone_increase",
            "sum_src": m_src,
            "sum_dst": m_dst,
            "witness": verdict.to_json(),
        })
    return report


def check_lemma2(monotone: Monotone, ctx, transitions=(), pairs=(), objects=(),
                 oracle=None) -> CheckReport:
    """Monotonicity on certified transitions, additivity on tensor pairs,
    and positivity on single objects."""
    beta = as_beta(ctx)
    oracle = oracle or (lambda s, d: decide_catalytic(s, d, beta))
    transitions, pairs, objects = list(transitions), list(pairs), list(objects)
    report = CheckReport(
        checker="lemma2",
        samples=len(transitions) + len(pairs) + len(objects),
        tolerances={"monotone": MONOTONE_TOL, "additivity": ADDITIVITY_TOL,
                    "positivity": POSITIVITY_TOL},
    )
    for src, dst in transitions:
        verdict = oracle(src, dst)
        if not verdict.is_feasible:
            report.skipped += 1
            continue
        if monotone(dst) > monotone(src) + MONOTONE_TOL:
            report.violations.append({
                "kind": "monotone_increase",
                "src_value": monotone(src), "dst_value": monotone(dst),
            })
    for p, q in pairs:
        lhs = monotone(classical_tensor(p, q))
        rhs = monotone(p) + monotone(q)
        if abs(lhs - rhs) > ADDITIVITY_TOL:
            report.violations.append({"kind": "additivity", "joint": lhs, "sum": rhs})
    for p in objects:
        if monotone(p) < -POSITIVITY_TOL:
            report.violations.append({"kind": "negativity", "value": monotone(p)})
    return report


def check_superadditivity(monotone: Monotone, p_ab: NonInteractingObject,
                          tol: float = SUPERADD_TOL) -> dict:
    """Gap M(p_AB) - M(p_A) - M(p_B); holds when the gap is not below -tol."""
    if len(p_ab.partition) != 2:
        raise ValueError("superadditivity check requires a bipartite object")
    joint = monotone(p_ab)
    m_a = monotone(partial_trace(p_ab, [0]))
    m_b = monotone(partial_trace(p_ab, [1]))
    gap = joint - m_a - m_b
    return {"holds": bool(gap >= -tol), "gap": float(gap)}


def check_free_nonpositivity(quantifier, restriction: RestrictionSet, oracle,
                             samples, tol: float = FREE_WORK_TOL) -> CheckReport:
    """No work may be stored by a certified free or catalytic free transition.

    For every sampled pair inside the restriction set whose transition the
    oracle certifies Feasible, asserts W <= tol and collects violations with
    their witnesses.
    """
    name = quantifier.name if hasattr(quantifier, "name") else getattr(
        quantifier, "__name__", "work")
    report = CheckReport(
        checker="free_nonpositivity",
        samples=0,
        tolerances={"work": tol},
        details={"quantifier": name},
    )
    for src, dst in samples:
        if not (restriction.contains(src) and restriction.contains(dst)):
            continue
        report.samples += 1
        verdict = oracle(src, dst)
        if not verdict.is_feasible:
            report.skipped += 1
            continue
        w = quantifier(src, dst)
        if w > tol:
            report.violations.append({
                "kind": "positive_work_on_free_transition",
                "work": float(w),
                "src": _json_safe(getattr(src, "probs", None)),
                "dst": _json_safe(getattr(dst, "probs", None)),
                "witness": verdict.to_json(),
            })
    return report


# ---------------------------------------------------------------------------
# Work of transition, value and cost
# ---------------------------------------------------------------------------

def work_of_transition(quantifier: WorkQuantifier, restriction: RestrictionSet,
                       src_m, dst_m, ctx, oracle=None, grid: int = 32) -> dict:
    """Certified lower bound on the optimal work storable while the fuel
    goes from src_m to dst_m.

    Maximizes W over a finite discretization of the restriction set, subject
    to oracle-certified feasibility of the joint (uncorrelated-final)
    transition.  The result is a lower bound on the true supremum, never
    claimed exact.  Returns -inf with an explanation when nothing in the
    grid certifies.

    The default oracle screens the candidate table as arrays: a pair's curve
    check runs only where the screen, read on the target's breakpoints with
    slack above MAJORIZE_TOL, may accept, and the screen keeps every pair
    the exact check accepts, so the exact check still decides each pair and
    ``tested`` and the certificate are those of a pair-by-pair search.  Pairs
    _decide_pairs skips get their Infeasible entries in bulk.
    """
    beta = as_beta(ctx)
    src_m = _as_classical(src_m)
    dst_m = _as_classical(dst_m)
    cands = restriction.candidates(anchors=(src_m, dst_m), grid=grid)
    m = quantifier.monotone._values(cands)
    with np.errstate(invalid="ignore"):  # inf - inf: work undefined
        works = (m[None, :] - m[:, None]).ravel()  # row: storage before, column: after
    order = np.flatnonzero(np.isfinite(works))
    order = order[np.argsort(-works[order], kind="stable")]
    i, j = np.divmod(order, len(cands))
    if oracle is None:
        verdicts = _decide_pairs(src_m, dst_m, cands, i, j, beta)
    else:
        verdicts = enumerate(oracle(classical_tensor(src_m, cands[a]),
                                    classical_tensor(dst_m, cands[b])) for a, b in zip(i, j))
    ws, tested = works[order].tolist(), []
    refuted = Status.INFEASIBLE.value  # read once: an Enum's value costs a descriptor call
    for n, verdict in verdicts:
        tested += [{"work": w, "status": refuted} for w in ws[len(tested):n]]
        tested.append({"work": ws[n], "status": verdict.status.value})
        if verdict.is_feasible:
            record = TransitionRecord(cands[i[n]], cands[j[n]], ws[n], verdict)
            return {"lower_bound": ws[n], "certificate": record, "tested": tested,
                    "explanation": "best certified value over the discretization"}
    tested += [{"work": w, "status": refuted} for w in ws[len(tested):]]
    return {"lower_bound": -INF, "certificate": None, "tested": tested,
            "explanation": "no certified feasible transition in the discretization"}


def work_value(quantifier: WorkQuantifier, restriction: RestrictionSet, p_m,
               ctx, oracle=None, grid: int = 32) -> dict:
    """Certified lower bound on the work extractable from the fuel object."""
    beta = as_beta(ctx)
    omega = classical_gibbs(_as_classical(p_m).energies, beta)
    res = work_of_transition(quantifier, restriction, p_m, omega, beta, oracle=oracle, grid=grid)
    return {"value": res["lower_bound"], "certificate": res["certificate"],
            "bound_direction": "lower", "tested": res["tested"]}


def work_cost(quantifier: WorkQuantifier, restriction: RestrictionSet, p_m,
              ctx, oracle=None, grid: int = 32) -> dict:
    """Upper-bound-flavored estimate of the work needed to create the fuel.

    Negative of the certified lower bound on the reverse work of transition;
    +inf when nothing in the grid certifies.
    """
    beta = as_beta(ctx)
    omega = classical_gibbs(_as_classical(p_m).energies, beta)
    res = work_of_transition(quantifier, restriction, omega, p_m, beta, oracle=oracle, grid=grid)
    cost = -res["lower_bound"]
    return {"cost": cost, "certificate": res["certificate"],
            "bound_direction": "upper", "tested": res["tested"]}


def second_law_check(quantifier: WorkQuantifier, restriction: RestrictionSet,
                     p_m, ctx, oracle=None, grid: int = 32,
                     tol: float = MONOTONE_TOL) -> dict:
    """Evaluate value and cost and verify value <= cost."""
    val = work_value(quantifier, restriction, p_m, ctx, oracle=oracle, grid=grid)
    cst = work_cost(quantifier, restriction, p_m, ctx, oracle=oracle, grid=grid)
    ok = val["value"] <= cst["cost"] + tol
    return {"value": val, "cost": cst, "second_law_ok": bool(ok)}


def correlated_second_law_bounds(monotone: Monotone, p_ma: NonInteractingObject,
                                 tol: float = MONOTONE_TOL) -> dict:
    """Bounds from the explicit hand-over protocols with correlations allowed.

    Creating the fuel by splitting a stored correlated pair bounds the cost
    above by M(p_MA) - M(p_A); handing the fuel over bounds the value below
    by M(p_M).  A breach (value above cost) certifies a second-law violation
    for non-super-additive monotones.
    """
    if len(p_ma.partition) != 2:
        raise ValueError("correlated bounds require a bipartite object")
    p_m = partial_trace(p_ma, [0])
    p_a = partial_trace(p_ma, [1])
    cost_upper = monotone(p_ma) - monotone(p_a)
    value_lower = monotone(p_m)
    return {
        "cost_upper": float(cost_upper),
        "value_lower": float(value_lower),
        "breach": bool(value_lower > cost_upper + tol),
    }


# ---------------------------------------------------------------------------
# Deterministic work on near-eigenstate qubits (the wbit reading)
# ---------------------------------------------------------------------------

class WdetUndefinedError(ValueError):
    """The wbit work function is a partial function; neither branch applied."""


def wdet_value(obj) -> float:
    """f = gap for states nearer the excited state, 0 nearer the ground state
    (1-norm, strict radii); undefined exactly in between."""
    gap, dist_ground, dist_excited = _eigenstate_distances(obj)
    if dist_excited < 1.0:
        return gap
    if dist_ground < 1.0:
        return 0.0
    raise WdetUndefinedError(
        f"state is equidistant from both eigenstates (distances "
        f"{dist_ground:.3f}/{dist_excited:.3f}); f is undefined")


def wdet_quantifier(src, dst, restriction: RestrictionSet | None = None) -> float:
    """Energy-difference work read from near-eigenstate qubits.

    Not of monotone-difference form for epsilon > 0; checkers exist to catch
    exactly that.
    """
    if restriction is not None:
        for obj in (src, dst):
            if not restriction.contains(obj):
                raise ValueError("object outside the configured wbit set")
    return wdet_value(dst) - wdet_value(src)


class WdetQuantifier:
    """Callable wrapper so wdet can be fed to the checkers."""

    name = "wdet"

    def __init__(self, restriction: RestrictionSet | None = None):
        self.restriction = restriction

    def __call__(self, src, dst) -> float:
        return wdet_quantifier(src, dst, self.restriction)


# ---------------------------------------------------------------------------
# Swap-catalyst realization of cyclic sequences
# ---------------------------------------------------------------------------

def swap_cycle_sequence(objects, ctx) -> tuple:
    """Realize a closed cycle of classical objects as a free sequence.

    The assistant starts as the tensor product of the intermediate objects;
    each step is a relabeling of tensor factors, so every joint transition
    is certified free by the majorization oracle.  Returns the assisted
    sequence together with the per-step verdicts.
    """
    beta = as_beta(ctx)
    cycle = list(objects)
    if len(cycle) < 2 or not _classical_close(cycle[0], cycle[-1], 1e-10):
        raise ValueError("cycle must close (last object equal to first)")
    n = len(cycle)
    cs = [functools.reduce(classical_tensor, cycle[:k - 1] + cycle[k:n - 1], EMPTY_CLASSICAL)
          for k in range(1, n)]
    assistants = [(cs[k], cs[(k + 1) % (n - 1)]) for k in range(n - 1)]
    steps = list(zip(cycle[:-1], cycle[1:]))
    verdicts = []
    for (src, dst), (c_a, c_b) in zip(steps, assistants):
        verdicts.append(thermo_majorizes(classical_tensor(src, c_a),
                                         classical_tensor(dst, c_b), beta))
    seq = AssistedSequence(tuple(steps), tuple(assistants))
    return seq, verdicts
