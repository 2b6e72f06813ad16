"""Deciding free and catalytic transitions between classical objects.

For commuting (classical) objects at fixed inverse temperature the
reachability order of thermal operations is decided exactly by curve
dominance (thermomajorization) and, equivalently, by feasibility of a
Gibbs-stochastic linear program.  Catalytic reachability is attacked from
both sides: free-energy monotones give sound infeasibility certificates,
and a brute-force grid search over small catalysts gives sound feasibility
certificates.  Quantum (non-commuting) inputs only get monotone
certificates or explicit thermal-operation constructions; their general
reachability problem is out of scope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    ThermoObject,
    _ptrace_matrix,
    check_unitary,
    check_tensor_dim,
    classical_tensor,
    gibbs_state,
    gibbs_weights,
    local_sum,
    object_to_classical,
    partial_trace,
    tensor,
)
from .divergences import (
    INF,
    _check_alpha,
    as_beta,
    classical_renyi_divergences,
    renyi_divergences,
)

MAJORIZE_TOL = 1e-10
LP_FEAS_TOL = 1e-9
MONOTONE_TOL = 1e-9
COMMUTATION_TOL = 1e-9
MAX_CAT_DIM = 4
MAX_GRID_STEPS = 64
#: The catalyst search confirms a catalyst with _curve_dominance unless its
#: screened deficit exceeds MAJORIZE_TOL by more than this (see _screen).
_SCREEN_SLACK = 1e-8
#: Joint levels per object screened at once, which bounds the screen's arrays.
_SCREEN_LEVELS = 1 << 16

#: Default alpha grid for monotone certificates: log-spaced plus the two
#: dedicated limit points.
DEFAULT_ALPHA_GRID = tuple(np.logspace(-2, 2, 40)) + (1.0, INF)


class Status(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    UNDETERMINED = "Undetermined"


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return _json_safe(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Feasible / Infeasible / Undetermined, with a machine-checkable witness.

    Decisive verdicts always carry a witness; Undetermined never does.
    """

    status: Status
    witness: dict | None = None

    def __post_init__(self):
        if self.status is Status.UNDETERMINED and self.witness is not None:
            raise ValueError("Undetermined verdicts must not carry a witness")
        if self.status is not Status.UNDETERMINED and self.witness is None:
            raise ValueError(f"{self.status.value} verdicts must carry a witness")

    @property
    def is_feasible(self) -> bool:
        return self.status is Status.FEASIBLE

    @property
    def is_infeasible(self) -> bool:
        return self.status is Status.INFEASIBLE

    @property
    def is_undetermined(self) -> bool:
        return self.status is Status.UNDETERMINED

    def to_json(self) -> dict:
        return {"status": self.status.value, "witness": _json_safe(self.witness)}


def feasible(witness: dict) -> FeasibilityVerdict:
    return FeasibilityVerdict(Status.FEASIBLE, witness)


def infeasible(witness: dict) -> FeasibilityVerdict:
    return FeasibilityVerdict(Status.INFEASIBLE, witness)


UNDETERMINED = FeasibilityVerdict(Status.UNDETERMINED, None)


@dataclass(frozen=True)
class ThermoCurve:
    """Piecewise-linear concave curve from (0,0) to (1,1).

    x-coordinates are partial sums of Gibbs weights taken in order of
    descending probability-to-Gibbs ratio; y-coordinates the matching
    partial sums of probabilities.
    """

    breakpoints: tuple

    def __post_init__(self):
        points = np.array(self.breakpoints, dtype=float).reshape(-1, 2)
        points.flags.writeable = False
        object.__setattr__(self, "_points", points)

    @classmethod
    def _from_points(cls, points: np.ndarray) -> ThermoCurve:  # keeps points, read-only
        points.flags.writeable = False
        curve = object.__new__(cls)
        object.__setattr__(curve, "_points", points)
        return curve

    def __getattr__(self, name):  # breakpoints of a curve from _from_points, made when read
        if name != "breakpoints":
            raise AttributeError(name)
        object.__setattr__(self, name, tuple(map(tuple, self._points.tolist())))
        return self.breakpoints

    def xs(self) -> np.ndarray:
        return self._points[:, 0]

    def ys(self) -> np.ndarray:
        return self._points[:, 1]

    def value(self, x) -> np.ndarray:
        return np.interp(x, self.xs(), self.ys())

    def is_concave(self, tol: float = 1e-12) -> bool:
        xs, ys = self.xs(), self.ys()
        slopes = np.diff(ys) / np.maximum(np.diff(xs), 1e-300)
        return bool(np.all(np.diff(slopes) <= tol))

    def to_csv_rows(self) -> list:
        return [f"{x!r},{y!r}" for x, y in self.breakpoints]


def _as_classical(obj) -> ClassicalObject:
    if isinstance(obj, ClassicalObject):
        return obj
    if isinstance(obj, ThermoObject):
        return object_to_classical(obj)
    raise TypeError(f"expected a classical or diagonal object, got {type(obj).__name__}")


def thermo_curve(c: ClassicalObject, ctx) -> ThermoCurve:
    """Thermomajorization curve of a classical object at inverse temperature beta."""
    c = _as_classical(c)
    return _curve(c.probs, c.gibbs_weights(as_beta(ctx)))


def _curve(probs: np.ndarray, g: np.ndarray) -> ThermoCurve:
    """thermo_curve of the levels with probabilities ``probs`` and Gibbs weights ``g``.

    Sorted by descending ratio, a run takes each next ratio r with (r0 - r <= tol0) |
    (r == r0) for its first ratio r0 (np.isclose, rtol 1e-9, atol 1e-12).  A ratio not
    tied so with its predecessor is not with a larger r0 either, save by rounding at the
    edge; so the walk starts only at tied ratios, and runs on until the rule fails."""
    # Gibbs weights that underflow to 0 give p/0 = inf, subnormal ones overflow p/g to inf,
    # and 0/0 = nan sorts last; inf - inf below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = probs / g
        order = (-ratios).argsort(kind="stable")
        rs = ratios[order]
        tol = np.where(np.isfinite(rs), 1e-12 + 1e-9 * np.abs(rs), 0.0)
        tied = (rs[:-1] - rs[1:] <= tol[:-1]) | (rs[1:] == rs[:-1])
    gs, ps = g[order], probs[order]
    joins = tied.nonzero()[0]
    if len(joins):
        rs, tol, taken, stop = rs.tolist(), tol.tolist(), [], 1  # levels below stop are decided
        for k in (joins + 1).tolist():
            if k >= stop:
                first = k - 1  # stop - 1, or a level not tied with its predecessor
                while k < len(rs) and (rs[first] - rs[k] <= tol[first] or rs[k] == rs[first]):
                    taken.append(k)
                    k += 1
                stop = k + 1
        starts = np.delete(np.arange(len(rs)), taken)
        gs, ps = np.add.reduceat(gs, starts), np.add.reduceat(ps, starts)
    points = np.zeros((len(gs) + 1, 2))
    np.add.accumulate(gs, out=points[1:, 0])
    np.add.accumulate(ps, out=points[1:, 1])
    if abs(points[-1, 0] - 1) < 1e-9 and abs(points[-1, 1] - 1) < 1e-9:  # close to (1, 1)
        points[-1] = 1.0
    return ThermoCurve._from_points(points)


def thermo_majorizes(src, dst, ctx) -> FeasibilityVerdict:
    """Curve-dominance test: Feasible iff the source curve lies on or above
    the target curve at every breakpoint of either (tolerance 1e-10).

    Boundary equality counts as Feasible; the Infeasible witness carries the
    first crossing point.
    """
    beta = as_beta(ctx)
    return _curve_dominance(thermo_curve(src, beta), thermo_curve(dst, beta))


def _curve_dominance(src_c: ThermoCurve, dst_c: ThermoCurve) -> FeasibilityVerdict:
    xs = np.unique(np.concatenate([src_c.xs(), dst_c.xs()]))
    sv = src_c.value(xs)
    dv = dst_c.value(xs)
    deficit = dv - sv
    bad = deficit > MAJORIZE_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        return infeasible({
            "kind": "curve_crossing",
            "x": float(xs[k]),
            "src_y": float(sv[k]),
            "dst_y": float(dv[k]),
            "deficit": float(deficit[k]),
        })
    return feasible({
        "kind": "curve_dominance",
        "min_margin": float(np.min(sv - dv)),
        "checked_points": int(len(xs)),
    })


class _Prepared:
    """An object with what the deciders ask of it, each computed once: its
    Gibbs weights alone and beside a catalyst of each dimension (for a quantum
    object its Gibbs state), its curve, its free energy at each order asked
    for, and its curve in tensor with each catalyst.  Free energies come from
    one batch per fill_free call, classical_renyi_divergences for a classical
    object and renyi_divergences for a quantum one, equal to delta_F_alpha's
    values to the bit."""

    def __init__(self, obj, beta: float):
        self.obj, self.beta = obj, beta
        self._gibbs, self._free, self._joint = {}, {}, {}

    def gibbs(self, cat_dim: int = 1) -> np.ndarray:
        """Gibbs weights of a classical object in tensor with a catalyst of
        ``cat_dim`` levels at zero energy, level i * cat_dim + k; the Gibbs
        state of a quantum object."""
        if cat_dim not in self._gibbs:
            if isinstance(self.obj, ClassicalObject):
                energies = self.obj.energies
                self._gibbs[cat_dim] = gibbs_weights(
                    energies if cat_dim == 1 else np.repeat(energies, cat_dim), self.beta)
            else:
                self._gibbs[cat_dim] = gibbs_state(self.obj.hamiltonian, self.beta).state
        return self._gibbs[cat_dim]

    @functools.cached_property
    def curve(self) -> ThermoCurve:
        return _curve(self.obj.probs, self.gibbs())

    def delta_F(self, alpha: float) -> float:
        return float(self.fill_free((alpha,))[0])

    def fill_free(self, grid) -> np.ndarray:
        """delta_F at the orders of ``grid``, those not yet known computed in one batch."""
        missing = [alpha for alpha in grid if alpha not in self._free]
        if missing:
            if isinstance(self.obj, ClassicalObject):
                values = classical_renyi_divergences(self.obj.probs, self.gibbs(), missing)
            else:
                values = renyi_divergences(self.obj.state, self.gibbs(), missing)
            self._free.update((alpha, v / self.beta) for alpha, v in zip(missing, values))
        return np.array([self._free[alpha] for alpha in grid])

    def with_catalyst(self, comp: tuple, cat: ClassicalObject) -> ThermoCurve:
        if comp not in self._joint:
            self._joint[comp] = _curve(np.outer(self.obj.probs, cat.probs).ravel(),
                                       self.gibbs(cat.dim))
        return self._joint[comp]


def _stack_constraints(src: ClassicalObject, dst: ClassicalObject, beta: float):
    """a_eq as a CSC matrix, column i * ds + j for G[i, j] holding 1 (column
    stochasticity, row j), the Gibbs weight (row ds + i) and the probability
    (row ds + dd + i) of level j, each without its zeros, as scipy keeps a
    dense array's nonzeros; and b_eq."""
    from scipy import sparse

    ds, dd = src.dim, dst.dim
    i, j = np.divmod(np.arange(dd * ds, dtype=np.int32), ds)  # scipy's index type
    rows = np.stack([j, ds + i, ds + dd + i], axis=1)
    data = np.stack([np.ones(dd * ds), np.tile(src.gibbs_weights(beta), dd),
                     np.tile(src.probs, dd)], axis=1)
    kept = data != 0.0
    indptr = np.cumsum(np.concatenate(([0], np.add.reduce(kept, 1))), dtype=np.int32)
    a_eq = sparse.csc_array((data[kept], rows[kept], indptr), shape=(ds + 2 * dd, dd * ds))
    b_eq = np.concatenate([np.ones(ds), dst.gibbs_weights(beta), dst.probs])
    return a_eq, b_eq


def gibbs_stochastic_feasible(src, dst, ctx) -> FeasibilityVerdict:
    """LP feasibility of a Gibbs-stochastic map taking src to dst.

    Searches for a column-stochastic G >= 0 with G g_src = g_dst and
    G p_src = p_dst.  Feasible verdicts carry G; Infeasible verdicts carry
    the phase-1 gap together with a Farkas certificate when one validates.
    Solver failures yield Undetermined, never a silently wrong answer.
    scipy is imported on the first call.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    beta = as_beta(ctx)
    src = _as_classical(src)
    dst = _as_classical(dst)
    a_eq, b_eq = _stack_constraints(src, dst, beta)
    m, n = a_eq.shape
    # Phase-1 form: minimize the total slack of A x + s+ - s- = b over
    # x, s+, s- >= 0; a zero optimum certifies feasibility of A x = b, x >= 0.
    eye = sparse.eye_array(m, format="csc")
    a_full = sparse.hstack([a_eq, eye, -eye], format="csc")
    cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
    res = linprog(cost, A_eq=a_full, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:  # iteration cap or numerical trouble: refuse to guess
        return UNDETERMINED
    gap = float(res.fun)
    if gap <= LP_FEAS_TOL:
        g_mat = np.clip(res.x[:n].reshape(dst.dim, src.dim), 0.0, None)
        return feasible({
            "kind": "gibbs_stochastic_map",
            "matrix": g_mat,
            "phase1_gap": gap,
        })
    witness = {"kind": "lp_phase1_gap", "gap": gap}
    marg = getattr(getattr(res, "eqlin", None), "marginals", None)
    if marg is not None:
        for sign in (1.0, -1.0):
            y = sign * np.asarray(marg, dtype=float)
            if float(np.max(a_eq.T @ y)) <= 1e-7 and float(b_eq @ y) >= 0.5 * gap:
                witness["farkas"] = y
                break
    return infeasible(witness)


def revalidate_gibbs_stochastic(verdict: FeasibilityVerdict, src, dst, ctx,
                                tol: float = 1e-8) -> bool:
    """Check an LP witness against the constraints it claims to satisfy."""
    if not verdict.is_feasible:
        return False
    beta = as_beta(ctx)
    src = _as_classical(src)
    dst = _as_classical(dst)
    g_mat = np.asarray(verdict.witness["matrix"], dtype=float)
    if g_mat.shape != (dst.dim, src.dim) or np.min(g_mat) < -tol:
        return False
    ok_cols = np.allclose(g_mat.sum(axis=0), 1.0, atol=tol, rtol=0)
    ok_gibbs = np.allclose(g_mat @ src.gibbs_weights(beta), dst.gibbs_weights(beta), atol=tol, rtol=0)
    ok_probs = np.allclose(g_mat @ src.probs, dst.probs, atol=tol, rtol=0)
    return bool(ok_cols and ok_gibbs and ok_probs)


@dataclass(frozen=True)
class ThermalOperationSpec:
    """A bath Hamiltonian and a global unitary commuting with H_S + H_B."""

    bath_hamiltonian: HamiltonianClass
    unitary: np.ndarray

    def __post_init__(self):
        u = check_unitary(self.unitary, "ThermalOperationSpec.unitary").copy()
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)

    def validate_for(self, system_hamiltonian: HamiltonianClass) -> np.ndarray:
        d_s = system_hamiltonian.dim
        d_b = self.bath_hamiltonian.dim
        if self.unitary.shape[0] != d_s * d_b:
            raise ValueError(
                f"unitary dimension {self.unitary.shape[0]} != system*bath {d_s * d_b}"
            )
        h_tot = local_sum([system_hamiltonian.matrix, self.bath_hamiltonian.matrix])
        comm = self.unitary @ h_tot - h_tot @ self.unitary
        dev = float(np.max(np.abs(comm)))
        if dev > COMMUTATION_TOL:
            raise ValueError(f"unitary does not conserve energy: |[U, H]| = {dev:.3e}")
        return h_tot


def apply_thermal_operation(p: ThermoObject, spec: ThermalOperationSpec, ctx) -> ThermoObject:
    """Contract with a Gibbs bath: Tr_B[U (rho (x) omega_B) U+].

    The system Hamiltonian is unchanged.  Specs violating the unitarity or
    energy-conservation tolerances are rejected.
    """
    beta = as_beta(ctx)
    spec.validate_for(p.hamiltonian)
    omega_b = gibbs_state(spec.bath_hamiltonian, beta).state
    joint = spec.unitary @ np.kron(p.state, omega_b) @ spec.unitary.conj().T
    out = _ptrace_matrix(joint, (p.dim, spec.bath_hamiltonian.dim), [0])
    out = 0.5 * (out + out.conj().T)
    out /= np.real(np.trace(out))
    return ThermoObject(out, p.hamiltonian)


def catalytic_necessary(src, dst, ctx, alpha_grid=None) -> FeasibilityVerdict:
    """Monotone-based infeasibility certificate for catalytic free transitions.

    If any free-energy difference on the alpha grid increases from src to
    dst, the transition is certainly infeasible; otherwise Undetermined
    (this is a necessary-condition check only).

    Classical inputs may use the whole grid (classical Renyi divergences obey
    data processing for every alpha >= 0).  For non-commuting inputs the
    sandwiched divergence obeys data processing only from alpha = 1/2 up, so
    smaller grid points are dropped to keep the certificate sound.  A NaN or
    negative order anywhere in the grid raises ValueError.
    """
    beta = as_beta(ctx)
    grid = _order_grid(alpha_grid)
    try:
        _as_classical(src)
        _as_classical(dst)
    except (ValueError, TypeError):
        grid = tuple(a for a in grid if a >= 0.5)
    return _monotone_increase(_Prepared(src, beta), _Prepared(dst, beta), grid)


def _order_grid(alpha_grid) -> tuple:
    """The order grid, every order checked before any is evaluated."""
    if alpha_grid is None:
        return DEFAULT_ALPHA_GRID
    grid = tuple(alpha_grid)
    for alpha in grid:
        _check_alpha(alpha)
    return grid


def _monotone_increase(src: _Prepared, dst: _Prepared, grid) -> FeasibilityVerdict:
    for orders in (grid[:1], grid) if grid else ():  # most refutations come at the first
        f_src, f_dst = src.fill_free(orders), dst.fill_free(orders)
        refuted, k = _raised(f_src, f_dst)
        if refuted:
            return _increase(orders[k], f_src[k], f_dst[k])
    return UNDETERMINED


def _raised(f_src: np.ndarray, f_dst: np.ndarray):
    """Whether delta_F rises from f_src to f_dst at an order (last axis), and the first."""
    raised = f_dst > f_src + MONOTONE_TOL
    return raised.any(axis=-1), raised.argmax(axis=-1)


def _increase(alpha: float, f_src: float, f_dst: float) -> FeasibilityVerdict:
    return infeasible({
        "kind": "monotone_increase",
        "monotone": "delta_F_alpha",
        "alpha": alpha,
        "gap": float(f_dst - f_src),
        "src_value": float(f_src),
        "dst_value": float(f_dst),
    })


def _descending_compositions(total: int, parts: int):
    """Strictly positive weakly-decreasing integer compositions, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total - parts + 1, (total + parts - 1) // parts - 1, -1):
        for rest in _descending_compositions(total - first, parts - 1):
            if rest[0] <= first:
                yield (first,) + rest


@functools.cache
def _catalysts(cat_dim: int, grid_steps: int) -> tuple:
    """(composition, catalyst) pairs of the catalyst search, in search order."""
    return tuple((comp, ClassicalObject(np.array(comp, dtype=float) / grid_steps,
                                        np.zeros(cat_dim)))
                 for comp in _descending_compositions(grid_steps, cat_dim))


@functools.cache
def _catalyst_probs(cat_dim: int, grid_steps: int) -> np.ndarray:
    """The probabilities of _catalysts(cat_dim, grid_steps), one row per catalyst."""
    probs = np.array([cat.probs for _, cat in _catalysts(cat_dim, grid_steps)])
    probs.flags.writeable = False
    return probs


def _check_cost_guards(max_cat_dim: int, grid_steps: int) -> None:
    if not 1 <= max_cat_dim <= MAX_CAT_DIM:
        raise ValueError(f"max_cat_dim {max_cat_dim} outside cost guard 1..{MAX_CAT_DIM}")
    if not 1 <= grid_steps <= MAX_GRID_STEPS:
        raise ValueError(f"grid_steps {grid_steps} outside cost guard 1..{MAX_GRID_STEPS}")


def catalytic_bruteforce(src, dst, ctx, max_cat_dim: int = 2,
                         grid_steps: int = 32) -> FeasibilityVerdict:
    """Grid search for a catalyst making dst (x) c thermomajorized by src (x) c.

    Catalyst Hamiltonians are trivial (all levels at zero energy) and
    probabilities live on a simplex grid with the given denominator.  Finds
    Feasible with the first working catalyst in enumeration order, or
    Undetermined once the grid is exhausted; the grid is not exhaustive, so
    it never claims Infeasible.  All catalysts of one dimension are screened
    as one array first, and only those the screen keeps get the exact check.
    """
    beta = as_beta(ctx)
    _check_cost_guards(max_cat_dim, grid_steps)
    src, dst = _Prepared(_as_classical(src), beta), _Prepared(_as_classical(dst), beta)
    direct = _curve_dominance(src.curve, dst.curve)
    if direct.is_feasible:
        return feasible({
            "kind": "catalyst",
            "catalyst_probs": [1.0],
            "catalyst_energies": [0.0],
            "note": "no catalyst needed",
            "direct": direct.witness,
        })
    return _bruteforce(src, dst, max_cat_dim, grid_steps)


def _bruteforce(src: _Prepared, dst: _Prepared, max_cat_dim: int,
                grid_steps: int) -> FeasibilityVerdict:
    """The catalyst search of catalytic_bruteforce, once the direct check has failed."""
    for cat_dim in range(2, max_cat_dim + 1):
        check_tensor_dim(src.obj.dim * cat_dim)
        check_tensor_dim(dst.obj.dim * cat_dim)
        catalysts = _catalysts(cat_dim, grid_steps)
        for index in _screen(src, dst, cat_dim, grid_steps):
            comp, cat = catalysts[index]
            verdict = _curve_dominance(src.with_catalyst(comp, cat), dst.with_catalyst(comp, cat))
            if verdict.is_feasible:
                return feasible({
                    "kind": "catalyst",
                    "catalyst_probs": cat.probs,
                    "catalyst_energies": cat.energies,
                    "joint_margin": verdict.witness["min_margin"],
                })
    return UNDETERMINED


def _screen(src: _Prepared, dst: _Prepared, cat_dim: int, grid_steps: int):
    """Indices of the catalysts of _catalysts(cat_dim, grid_steps) that
    _curve_dominance may accept, in enumeration order, screened a chunk at a time.

    Each joint curve is built as an array with every level its own breakpoint,
    and the source curve is read at the target's breakpoints.  Between two
    breakpoints of either exact (tie-merged) curve both exact curves are linear,
    so an accepted catalyst has deficit at most MAJORIZE_TOL everywhere.  A
    screened curve sorts its levels by the same ratios (equal ratios in any
    order, which leaves the curve as it is), so it differs from the exact one
    only inside a run of merged ties, where it lies above the run's chord by at
    most the run's ratio spread (1e-12 + 1e-9 r) times its Gibbs mass, about
    1e-9, plus rounding of order levels * 1e-16.  _SCREEN_SLACK covers both.
    """
    cats = _catalyst_probs(cat_dim, grid_steps)
    rows = max(1, _SCREEN_LEVELS // (cat_dim * max(src.obj.dim, dst.obj.dim)))
    for start in range(0, len(cats), rows):
        chunk = cats[start:start + rows, None, :]
        (xs, ys), (xd, yd) = (_joint_curves((p.obj.probs[:, None] * chunk).reshape(len(chunk), -1),
                                            p.gibbs(cat_dim)) for p in (src, dst))
        deficit = np.max(yd - _interp_rows(xd, xs, ys), axis=1)
        yield from (start + np.flatnonzero(~(deficit > MAJORIZE_TOL + _SCREEN_SLACK))).tolist()


def _joint_curves(joint: np.ndarray, g: np.ndarray):
    """Curves of the rows of ``joint`` with Gibbs weights ``g`` (one row, or one
    per row), every level its own breakpoint, padding levels (0 and 0) last:
    arrays xs, ys of shape (rows, levels + 1), snapped to (1, 1) as thermo_curve."""
    n, rows = len(joint), np.arange(len(joint))[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as in _curve
        order = np.argsort(-(joint / g), axis=1)  # equal ratios in any order: same curve
    xs, ys = np.zeros((n, joint.shape[1] + 1)), np.zeros((n, joint.shape[1] + 1))
    np.cumsum(g[order] if g.ndim == 1 else g[rows, order], axis=1, out=xs[:, 1:])
    np.cumsum(joint[rows, order], axis=1, out=ys[:, 1:])
    end = (np.abs(xs[:, -1] - 1) < 1e-9) & (np.abs(ys[:, -1] - 1) < 1e-9)
    xs[end, -1] = ys[end, -1] = 1.0
    return xs, ys


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[r], xp[r], fp[r]) for every row r of nondecreasing rows with
    xp[r, 0] <= x[r, 0]."""
    n, k = xp.shape
    rows = np.arange(n)[:, None]
    merged = np.argsort(np.concatenate([xp, x], axis=1), axis=1, kind="stable")
    pos = np.empty_like(merged)
    pos[rows, merged] = np.arange(merged.shape[1])
    # before the t-th query come the t earlier queries and the points of xp <= it
    count = pos[:, k:] - np.arange(x.shape[1])
    j = np.minimum(count, k - 1) - 1  # xp[j] <= x < xp[j + 1] where count < k
    x0, x1, y0, y1 = xp[rows, j], xp[rows, j + 1], fp[rows, j], fp[rows, j + 1]
    with np.errstate(divide="ignore", invalid="ignore"):  # x1 == x0 only where count == k
        inside = y0 + (y1 - y0) * ((x - x0) / (x1 - x0))
    return np.where(count < k, inside, fp[:, -1:])


def revalidate_catalyst(verdict: FeasibilityVerdict, src, dst, ctx) -> bool:
    """Re-run the majorization check behind a catalyst witness."""
    if not verdict.is_feasible or verdict.witness.get("kind") != "catalyst":
        return False
    beta = as_beta(ctx)
    cat = ClassicalObject(np.asarray(verdict.witness["catalyst_probs"], dtype=float),
                          np.asarray(verdict.witness["catalyst_energies"], dtype=float))
    src = _as_classical(src)
    dst = _as_classical(dst)
    if cat.dim == 1:
        return thermo_majorizes(src, dst, beta).is_feasible
    return thermo_majorizes(classical_tensor(src, cat),
                            classical_tensor(dst, cat), beta).is_feasible


def correlated_catalytic_check(src_ab, ctx, dst=None) -> FeasibilityVerdict:
    """Certify decorrelation as a correlated-catalytic free transition.

    The decorrelation p_AB -> p_A (x) p_B is always reachable when the
    catalyst may end correlated with the system (it keeps its marginal).
    Arbitrary target pairs are not decided here: anything other than the
    marginal product yields Undetermined.
    """
    if not isinstance(src_ab, NonInteractingObject) or len(src_ab.partition) != 2:
        raise ValueError("correlated_catalytic_check requires a bipartite non-interacting object")
    beta = as_beta(ctx)
    p_a = partial_trace(src_ab, [0])
    p_b = partial_trace(src_ab, [1])
    product = tensor(p_a, p_b)
    if dst is None or dst == product:
        already_product = src_ab.obj == product
        return feasible({
            "kind": "marginal-preserving",
            "transition": "decorrelation",
            "identity": bool(already_product),
        })
    return UNDETERMINED


def decide_catalytic(src, dst, ctx, max_cat_dim: int = 2, grid_steps: int = 32,
                     alpha_grid=None) -> FeasibilityVerdict:
    """Cheapest-first pipeline for catalytic reachability.

    Order: direct free check (sound for Feasible, since free transitions are
    catalytic with a trivial catalyst), then monotone certificates (sound
    for Infeasible), then brute-force catalyst search (sound for Feasible).
    First decisive verdict wins; exhausted searches yield Undetermined.
    Non-diagonal quantum inputs only pass through the monotone stage.  A NaN
    or negative order anywhere in ``alpha_grid`` raises ValueError.
    """
    beta = as_beta(ctx)
    grid = _order_grid(alpha_grid)
    try:
        src_c = _as_classical(src)
        dst_c = _as_classical(dst)
    except (ValueError, TypeError):
        return catalytic_necessary(src, dst, beta, grid)
    return _decide(_Prepared(src_c, beta), _Prepared(dst_c, beta), max_cat_dim, grid_steps,
                   grid)


def _decide(src: _Prepared, dst: _Prepared, max_cat_dim: int = 2, grid_steps: int = 32,
            grid: tuple = DEFAULT_ALPHA_GRID) -> FeasibilityVerdict:
    """decide_catalytic on prepared classical objects and a checked order grid."""
    direct = _curve_dominance(src.curve, dst.curve)
    if direct.is_feasible:
        return direct
    necessary = _monotone_increase(src, dst, grid)
    if necessary.is_infeasible:
        return necessary
    _check_cost_guards(max_cat_dim, grid_steps)
    return _bruteforce(src, dst, max_cat_dim, grid_steps)


def _decide_pairs(src_m: ClassicalObject, dst_m: ClassicalObject, cands: list, pairs: list,
                  beta: float):
    """_decide on src_m (x) cands[i] and dst_m (x) cands[j] for each (i, j) of
    ``pairs``, lazily, from one row per joint object: its curve as in _screen
    and its free energies on DEFAULT_ALPHA_GRID, the values _Prepared computes.
    _curve_dominance, the only judge of the direct stage, checks the pairs the
    screen keeps, which by _screen's argument include every pair it accepts;
    a pair is refuted at the first order where the rows show an increase, and
    the others are searched with _decide's default budget."""
    rows = [_tensor_rows(base, cands, beta) for base in (src_m, dst_m)]
    (xs, ys), (xd, yd) = (_joint_curves(*row) for row in rows)
    fs, fd = (np.array(classical_renyi_divergences(p, g, DEFAULT_ALPHA_GRID)) / beta
              for p, g in rows)

    @functools.cache
    def prepare(side, k):  # src_m (x) cands[k] on side 0, dst_m (x) cands[k] on side 1
        return _Prepared(classical_tensor((src_m, dst_m)[side], cands[k]), beta)

    step = max(1, _SCREEN_LEVELS // (xs.shape[1] + xd.shape[1] + len(DEFAULT_ALPHA_GRID)))
    for start in range(0, len(pairs), step):
        i, j = (list(column) for column in zip(*pairs[start:start + step]))
        dropped = np.max(yd[j] - _interp_rows(xd[j], xs[i], ys[i]), axis=1) > (
            MAJORIZE_TOL + _SCREEN_SLACK)
        raised, first = _raised(fs[i], fd[j])
        for a, b, drop, refuted, k in zip(i, j, dropped.tolist(), raised.tolist(), first.tolist()):
            verdict = UNDETERMINED if drop else _curve_dominance(prepare(0, a).curve,
                                                                 prepare(1, b).curve)
            if not verdict.is_feasible:
                verdict = (_increase(DEFAULT_ALPHA_GRID[k], fs[a, k], fd[b, k]) if refuted
                           else _bruteforce(prepare(0, a), prepare(1, b), 2, 32))
            yield verdict


def _tensor_rows(base: ClassicalObject, objs: list, beta: float):
    """Probabilities and Gibbs weights of base (x) c for each c of ``objs``, one
    row each, zero-padded: the arrays of classical_tensor and gibbs_weights,
    computed for all objects of one dimension at once."""
    width = base.dim * max(c.dim for c in objs)
    check_tensor_dim(width)
    probs, gibbs = np.zeros((2, len(objs), width))
    for dim in {c.dim for c in objs}:
        at = [k for k, c in enumerate(objs) if c.dim == dim]
        cp = np.array([objs[k].probs for k in at])[:, None, :]
        energies = (base.energies[:, None] + np.array([objs[k].energies for k in at])[:, None, :]
                    ).reshape(len(at), -1)
        w = np.exp(-beta * (energies - energies.min(axis=1, keepdims=True)))
        probs[at, :base.dim * dim] = (base.probs[:, None] * cp).reshape(len(at), -1)
        gibbs[at, :base.dim * dim] = w / np.add.reduce(w, 1, keepdims=True)
    return probs, gibbs


def decide_free(src, dst, ctx) -> FeasibilityVerdict:
    """Exact decision for classical free transitions (no catalyst)."""
    return thermo_majorizes(_as_classical(src), _as_classical(dst), as_beta(ctx))
