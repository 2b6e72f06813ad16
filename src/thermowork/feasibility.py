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
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ClassicalObject,
    HamiltonianClass,
    MAX_TENSOR_DIM as _TENSOR_CAP,
    NonInteractingObject,
    ThermoObject,
    _gibbs_matrix,
    _ptrace_matrix,
    check_unitary,
    check_tensor_dim,
    classical_tensor,
    gibbs_weights,
    local_sum,
    object_to_classical,
    partial_trace,
    tensor,
)
from .divergences import (
    INF,
    _check_alphas,
    as_beta,
    _sandwiched,
    classical_renyi_divergences,
)

MAJORIZE_TOL = 1e-10
LP_FEAS_TOL = 1e-9
_LP_CHECK_TOL = 10 * math.sqrt(1e-9)  # linprog's result check, at its tol of 1e-9
MONOTONE_TOL = 1e-9
COMMUTATION_TOL = 1e-9
MAX_CAT_DIM = 4
MAX_GRID_STEPS = 64
#: The catalyst search confirms a catalyst with _curve_dominance unless its
#: screened deficit exceeds MAJORIZE_TOL by more than this (see _screen).
_SCREEN_SLACK = 1e-8
#: Joint levels of both sides screened at once, which bounds the screen's arrays.
_SCREEN_LEVELS = 1 << 16
#: Pairs in the first chunk _decide_pairs screens; each next chunk is twice as large.
_FIRST_PAIRS = 128

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


def _classified(src, dst):
    """(src, dst) as classical objects, or None where either is not diagonal."""
    try:
        return _as_classical(src), _as_classical(dst)
    except (ValueError, TypeError):
        return None


def thermo_curve(c: ClassicalObject, ctx) -> ThermoCurve:
    """Thermomajorization curve of a classical object at inverse temperature beta."""
    return _Prepared(_as_classical(c), as_beta(ctx)).curve


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
    src, dst = _pair(_as_classical(src), _as_classical(dst), as_beta(ctx))
    return _curve_dominance(src.curve, dst.curve)


def _curve_dominance(src_c: ThermoCurve, dst_c: ThermoCurve) -> FeasibilityVerdict:
    xs = np.concatenate((src_c.xs(), dst_c.xs()))
    xs.sort()
    xs = np.concatenate((xs[:1], xs[1:][xs[1:] != xs[:-1]]))  # np.unique's, without its wrappers
    sv, dv = src_c.value(xs), dst_c.value(xs)
    deficit = dv - sv
    bad = deficit > MAJORIZE_TOL
    if bad.any():
        k = int(bad.argmax())
        return infeasible({
            "kind": "curve_crossing",
            "x": float(xs[k]),
            "src_y": float(sv[k]),
            "dst_y": float(dv[k]),
            "deficit": float(deficit[k]),
        })
    return feasible({
        "kind": "curve_dominance",
        "min_margin": float((sv - dv).min()),
        "checked_points": len(xs),
    })


class _Prepared:
    """An object with what the deciders ask of it, each computed once: its Gibbs weights alone
    and beside a catalyst of each dimension (for a quantum object its Gibbs state and the state's
    eigh), its curve and its free energy at each order asked for, one batch per fill_free call
    (one for quantum twins), equal to delta_F_alpha's values to the bit.  _pair's twins share the
    Gibbs part, if their Hamiltonians are equal bit for bit (== allows a tolerance and shifts)."""

    def __init__(self, obj, beta: float):
        self.obj, self.beta = obj, beta
        self._gibbs, self._free = {}, {}

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
                sigma = _gibbs_matrix(self.obj.hamiltonian, self.beta)
                self._gibbs[cat_dim], self._gibbs["eigh"] = sigma, np.linalg.eigh(sigma)
        return self._gibbs[cat_dim]

    @functools.cached_property
    def curve(self) -> ThermoCurve:
        return _curve(self.obj.probs, self.gibbs())

    def fill_free(self, grid, twin=None) -> np.ndarray:
        """delta_F at ``grid``, the orders not yet known computed in one batch (a twin's too)."""
        missing = [alpha for alpha in grid if alpha not in self._free]
        if missing:
            if isinstance(self.obj, ClassicalObject):
                values = classical_renyi_divergences(self.obj.probs, self.gibbs(), missing)
            else:
                states = [self.obj.state, twin.obj.state] if twin else [self.obj.state]
                values, *rest = _sandwiched(states, self.gibbs(), self._gibbs["eigh"],
                                            _check_alphas(missing))
                for row in rest:  # the twin's
                    twin._free.update((alpha, v / self.beta) for alpha, v in zip(missing, row))
            for alpha, v in zip(missing, values):
                self._free[alpha] = v / self.beta
        return np.array([self._free[alpha] for alpha in grid])


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
    scipy's HiGHS gets the model and options of ``linprog(method="highs")``,
    so it returns linprog's vertex, checked by linprog's rule, without
    linprog's Python glue.  Presolve is off only where no coefficient was dropped
    and none, nor any right-hand side, is under 10x HiGHS's primal feasibility
    tolerance: with a slack pair per row it then removes nothing, and HiGHS
    solves an unreduced model as passed.  scipy is imported on the first call.
    """
    from scipy.optimize._highspy import _core as highs

    beta = as_beta(ctx)
    src = _as_classical(src)
    dst = _as_classical(dst)
    a_eq, b_eq = _stack_constraints(src, dst, beta)
    m, n = a_eq.shape
    # Phase-1 form: minimize the total slack of A x + s+ - s- = b over
    # x, s+, s- >= 0; a zero optimum certifies feasibility of A x = b, x >= 0.
    # Column n + k is s+ of row k (+1), column n + m + k its s- (-1).  HiGHS
    # copies the numpy arrays in one go; integrality 0 means continuous.
    cols, rows = n + 2 * m, np.arange(m, dtype=np.int32)
    model = (cols, m, a_eq.nnz + 2 * m, int(highs.MatrixFormat.kColwise),
             int(highs.ObjSense.kMinimize), 0.0, np.concatenate([np.zeros(n), np.ones(2 * m)]),
             np.zeros(cols), np.full(cols, np.inf), b_eq, b_eq,
             np.concatenate([a_eq.indptr[:-1], a_eq.nnz + np.arange(2 * m, dtype=np.int32)]),
             np.concatenate([a_eq.indices, rows, rows]),
             np.concatenate([a_eq.data, np.ones(m), -np.ones(m)]), np.zeros(cols, np.int32))
    options = highs.HighsOptions()
    floor = 10 * options.primal_feasibility_tolerance
    unreducible = a_eq.nnz == 3 * n and min(a_eq.data.min(), b_eq.min()) >= floor
    options.presolve = "off" if unreducible else "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    solver = highs._Highs()
    solver.passOptions(options)
    error = highs.HighsStatus.kError
    if (solver.passModel(*model) == error or solver.run() == error
            or solver.getModelStatus() != highs.HighsModelStatus.kOptimal):
        return UNDETERMINED  # iteration cap or numerical trouble: refuse to guess
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    gap = float(solver.getInfo().objective_function_value)
    # linprog's check of a solution: no NaN, x >= -tol and |b - A x| <= tol
    if (math.isnan(gap) or not np.all(x >= -_LP_CHECK_TOL)
            or not np.all(np.abs(b_eq - np.array(solution.row_value)) <= _LP_CHECK_TOL)):
        return UNDETERMINED
    if gap <= LP_FEAS_TOL:
        g_mat = np.clip(x[:n].reshape(dst.dim, src.dim), 0.0, None)
        return feasible({
            "kind": "gibbs_stochastic_map",
            "matrix": g_mat,
            "phase1_gap": gap,
        })
    witness = {"kind": "lp_phase1_gap", "gap": gap}
    duals = np.array(solution.row_dual)  # linprog's eqlin marginals
    for sign in (1.0, -1.0):
        y = sign * duals
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
    omega_b = _gibbs_matrix(spec.bath_hamiltonian, beta)
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
    return _necessary(src, dst, as_beta(ctx), _order_grid(alpha_grid), _classified(src, dst))


def _necessary(src, dst, beta: float, grid: tuple, classical) -> FeasibilityVerdict:
    """catalytic_necessary on a checked grid, ``classical`` the pair's _classified."""
    return _monotone_increase(*_pair(src, dst, beta),
                              grid if classical else tuple(a for a in grid if a >= 0.5))


def _pair(src, dst, beta: float) -> tuple:
    """_Prepared src and dst, twins if their Hamiltonians are equal bit for bit, not just by ==."""
    first, second = _Prepared(src, beta), _Prepared(dst, beta)
    h, g = (memoryview(x.hamiltonian.matrix if isinstance(x, ThermoObject) else x.energies)
            .cast("B").cast("Q") for x in (src, dst))  # 8-byte words: no copy, no temporary
    if type(src) is type(dst) and h == g:
        second._gibbs = first._gibbs
    return first, second


def _order_grid(alpha_grid) -> tuple:
    """The order grid, every order checked before any is evaluated."""
    if alpha_grid is None:
        return DEFAULT_ALPHA_GRID
    grid = tuple(alpha_grid)
    _check_alphas(grid)
    return grid


def _monotone_increase(src: _Prepared, dst: _Prepared, grid) -> FeasibilityVerdict:
    for orders in (grid[:1], grid) if grid else ():  # most refutations come at the first
        f_src, f_dst = _pair_free(src, dst, orders)
        refuted, k = _raised(f_src, f_dst)
        if refuted:
            return _increase(orders[k], f_src[k], f_dst[k])
    return UNDETERMINED


def _pair_free(src: _Prepared, dst: _Prepared, orders) -> list:
    """delta_F of both sides at ``orders``; quantum twins in one two-state call, a classical
    pair's grid in one two-row call, zero-padded: levels outside the support keep the bytes."""
    if len(orders) == 1 or not all(isinstance(x.obj, ClassicalObject) for x in (src, dst)):
        twin = dst if isinstance(src.obj, ThermoObject) and src._gibbs is dst._gibbs else None
        return [src.fill_free(orders, twin), dst.fill_free(orders)]
    p, q = np.zeros((2, 2, max(src.obj.dim, dst.obj.dim)))
    for k, side in enumerate((src, dst)):
        p[k, :side.obj.dim], q[k, :side.obj.dim] = side.obj.probs, side.gibbs()
    return [np.array(values) / src.beta for values in classical_renyi_divergences(p, q, orders)]


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


def _compositions(total: int, parts: int) -> np.ndarray:
    """The compositions of total into parts nonnegative integers, one row each, in
    lexicographic order: stars and bars, as itertools.combinations places the bars."""
    bars = np.array(list(itertools.combinations(range(total + parts - 1), parts - 1)), dtype=int)
    return np.diff(bars.reshape(len(bars), parts - 1), axis=1, prepend=-1,
                   append=total + parts - 1) - 1


@functools.cache
def _catalyst_probs(cat_dim: int, grid_steps: int) -> np.ndarray:
    """Probabilities of the search's catalysts (levels at zero energy), one row each in
    search order: the partitions of grid_steps into cat_dim positive parts, descending."""
    parts = _compositions(grid_steps - cat_dim, cat_dim)[::-1] + 1
    probs = parts[(parts[:, :-1] >= parts[:, 1:]).all(axis=1)] / grid_steps
    probs.flags.writeable = False
    return probs


@functools.cache
def _catalyst_table(lo: int, top: int, grid_steps: int):
    """The catalysts of dimensions lo..top in search order, each zero-padded to top
    levels, and (dimension, index in _catalyst_probs) of each row."""
    blocks = [_catalyst_probs(k, grid_steps) for k in range(lo, top + 1)]
    table = np.concatenate([np.pad(b, ((0, 0), (0, top - b.shape[1]))) for b in blocks])
    table.flags.writeable = False
    return table, [(b.shape[1], index) for b in blocks for index in range(len(b))]


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
    it never claims Infeasible.  The catalysts of every dimension are screened
    as one table first, and only those the screen keeps get the exact check.
    """
    beta = as_beta(ctx)
    _check_cost_guards(max_cat_dim, grid_steps)
    src, dst = _pair(_as_classical(src), _as_classical(dst), beta)
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
    return _search(lambda k: (src.obj.probs[None], src.gibbs(k)[None],
                              dst.obj.probs[None], dst.gibbs(k)[None]),
                   [(src.obj.dim, dst.obj.dim)], max_cat_dim, grid_steps)[0]


def _search(rows, dims: list, max_cat_dim: int, grid_steps: int) -> list:
    """_bruteforce's verdicts on pairs 0, 1, ... (dims[n] source and target levels) up to
    the first Feasible, rows(cat_dim) giving their rows: catalysts of dimension 2 up to the
    tensor cap of the open pairs screened as one table, confirmed in order on their own rows."""
    found, upto, lo, got = [], len(dims), 2, {}  # got: rows(cat_dim) by cat_dim
    while upto and lo <= max_cat_dim:
        sides = [max(side_dims) for side_dims in zip(*dims[:upto])]  # source, then target
        top = min(max_cat_dim, _TENSOR_CAP // max(sides))
        for d in sides:
            check_tensor_dim(d * lo)  # raises where the cap allows no dimension from lo
        got[top] = rows(top)
        for n, cat_dim, index in _screen(*(x[:upto] for x in got[top]), lo, top, grid_steps):
            sp, sg, dp, dg = got.get(cat_dim) or got.setdefault(cat_dim, rows(cat_dim))
            cat = _catalyst_probs(cat_dim, grid_steps)[index]
            verdict = _curve_dominance(*(
                _curve(np.outer(p[n, :d], cat).ravel(), g[n, :d * cat_dim])
                for p, g, d in ((sp, sg, dims[n][0]), (dp, dg, dims[n][1]))))
            if verdict.is_feasible:
                upto, found = n, [feasible({
                    "kind": "catalyst",
                    "catalyst_probs": cat,
                    "catalyst_energies": np.zeros(cat_dim),
                    "joint_margin": verdict.witness["min_margin"],
                })]
                break
        lo = top + 1
    return [UNDETERMINED] * upto + found


def _screen(sp: np.ndarray, sg: np.ndarray, dp: np.ndarray, dg: np.ndarray, lo: int, top: int,
            grid_steps: int):
    """(pair, dimension, index) of the catalysts of _catalyst_table(lo, top, grid_steps)
    that _curve_dominance may accept, for pairs of source and target rows of zero-padded
    probabilities (sp, dp) and Gibbs weights beside top catalyst levels (sg, dg), pair
    by pair in search order, _SCREEN_LEVELS joint levels of both sides at once.

    Each joint curve is an array with every level its own breakpoint, and the source
    curve is read at the target's breakpoints.  Between two breakpoints of either exact
    (tie-merged) curve both are linear, so an accepted catalyst has deficit at most
    MAJORIZE_TOL everywhere.  A screened curve sorts its levels by the same ratios (ties
    in any order, zero padding last), so it exceeds the exact one only inside a run of
    merged ties, by at most the run's ratio spread (1e-12 + 1e-9 r) times its Gibbs mass.
    A catalyst of k < top levels, zero-padded, beside Gibbs weights k / top times those
    beside k levels has ratios top / k times theirs: each side's curve is the k-level one
    with x scaled by k / top, then flat at its end, so the deficit is the k-level one
    rescaled, 0 on the tail.  _SCREEN_SLACK covers the ties and rounding (1e-16 a level)."""
    table, where = _catalyst_table(lo, top, grid_steps)
    if sp.shape[1] != dp.shape[1]:  # both sides to one width, padding last
        w = max(sp.shape[1], dp.shape[1])
        sp, sg, dp, dg = (np.pad(x, ((0, 0), (0, n - x.shape[1])))
                          for x, n in zip((sp, sg, dp, dg), (w, w * top) * 2))
    levels = sp.shape[1] * top
    rows = max(1, _SCREEN_LEVELS // (2 * levels))  # joint rows per side
    k = min(rows, len(table)) or 1  # catalysts per chunk; an empty table gives no chunk
    pairs = min(len(sp), rows // k)  # pairs per chunk
    for p0, c0 in itertools.product(range(0, len(sp), pairs), range(0, len(table), k)):
        at, chunk = slice(p0, p0 + pairs), table[c0:c0 + k]
        joint = np.concatenate((sp[at], dp[at]))[:, None, :, None] * chunk[:, None, :]
        xs, ys = _joint_curves(joint.reshape(-1, levels),
                               np.repeat(np.concatenate((sg[at], dg[at])), len(chunk), axis=0))
        half = len(xs) // 2  # source rows, then target rows
        kept = np.flatnonzero(~_dropped(xs[:half], ys[:half], xs[half:], ys[half:])).tolist()
        yield from ((p0 + x // len(chunk), *where[c0 + x % len(chunk)]) for x in kept)


def _dropped(xs: np.ndarray, ys: np.ndarray, xd: np.ndarray, yd: np.ndarray) -> np.ndarray:
    """Whether the screen drops each row: the target curve (xd, yd) rises above the
    source curve (xs, ys) at some breakpoint by more than MAJORIZE_TOL + _SCREEN_SLACK."""
    return (yd - _interp_rows(xd, xs, ys)).max(axis=1) > MAJORIZE_TOL + _SCREEN_SLACK


def _joint_curves(joint: np.ndarray, g: np.ndarray):
    """Curves of the rows of ``joint`` with Gibbs weights ``g`` (one row, or one
    per row), every level its own breakpoint, padding levels (0 and 0) last:
    arrays xs, ys of shape (rows, levels + 1), snapped to (1, 1) as thermo_curve."""
    n, rows = len(joint), np.arange(len(joint))[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as in _curve
        order = (-(joint / g)).argsort(axis=1)  # equal ratios in any order: same curve
    xs, ys = np.zeros((n, joint.shape[1] + 1)), np.zeros((n, joint.shape[1] + 1))
    (g[order] if g.ndim == 1 else g[rows, order]).cumsum(axis=1, out=xs[:, 1:])
    joint[rows, order].cumsum(axis=1, out=ys[:, 1:])
    end = (np.abs(xs[:, -1] - 1) < 1e-9) & (np.abs(ys[:, -1] - 1) < 1e-9)
    xs[end, -1] = ys[end, -1] = 1.0
    return xs, ys


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """np.interp(x[r], xp[r], fp[r]) for every row r of nondecreasing rows with
    xp[r, 0] <= x[r, 0]."""
    n, k = xp.shape
    merged = np.concatenate([xp, x], axis=1).argsort(axis=1, kind="stable")
    # a row's t-th query is its t-th entry >= k (the sort is stable), and before it
    # come the t earlier queries and the points of xp <= it
    count = (merged >= k).nonzero()[1].reshape(x.shape) - np.arange(x.shape[1])
    # flat index j of xp[j] <= x < xp[j + 1] where count < k
    j = np.minimum(count, k - 1) - 1 + np.arange(0, n * k, k)[:, None]
    x0, x1, y0, y1 = xp.take(j), xp.take(j + 1), fp.take(j), fp.take(j + 1)
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
    return thermo_majorizes(classical_tensor(_as_classical(src), cat),
                            classical_tensor(_as_classical(dst), cat), beta).is_feasible


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
    beta, grid, classical = as_beta(ctx), _order_grid(alpha_grid), _classified(src, dst)
    if classical is None:
        return _necessary(src, dst, beta, grid, None)
    return _decide(*_pair(*classical, beta), max_cat_dim, grid_steps, grid)


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


def _decide_pairs(src_m: ClassicalObject, dst_m: ClassicalObject, cands: list, i: np.ndarray,
                  j: np.ndarray, beta: float):
    """(n, _decide's verdict) on src_m (x) cands[i[n]] and dst_m (x) cands[j[n]],
    lazily in order of n, from one row per joint object, both sides in one table: its
    curve as in _screen and its free energies at alpha = 0.01 and inf (a full-grid
    call's values, by the kernel's repr contract).  Pairs are screened in chunks of
    _FIRST_PAIRS pairs, each next one twice as large up to _SCREEN_LEVELS joint levels,
    so a caller that stops at pair n has screened at most 2 n + _FIRST_PAIRS pairs.
    _curve_dominance checks the pairs the screen keeps.  A pair the screen drops and
    either order refutes is Infeasible, as one Renyi second law suffices: it is
    skipped.  At seed 1 of the work-quantify benchmark the chunks up to the certified
    pairs hold 44,832 of 65,480 pairs, and of those the two orders skip 36,373 of the
    36,389 the whole grid does.  A pair the direct check fails gets the grid for its
    two rows: its first refuting order, or the search with _decide's budget.  The
    dropped pairs neither order refutes are settled at the first of a chunk, by one
    grid batch for both sides and one screen."""
    width, half = max(src_m.dim, dst_m.dim) * max(c.dim for c in cands), len(cands)
    joint, gibbs = (np.concatenate(x) for x in zip(*(  # source rows, then target rows
        _tensor_rows(base, cands, beta, width=width) for base in (src_m, dst_m))))
    rows = [(joint[:half], gibbs[:half]), (joint[half:], gibbs[half:])]
    dims = [np.array([base.dim * c.dim for c in cands]) for base in (src_m, dst_m)]
    (xs, ys), f = _joint_curves(joint, gibbs), np.array(classical_renyi_divergences(
        joint, gibbs, (DEFAULT_ALPHA_GRID[0], INF))) / beta
    xs, ys, xd, yd, fs, fd = xs[:half], ys[:half], xs[half:], ys[half:], f[:half], f[half:]
    curve = functools.cache(lambda side, k: _curve(*(x[k, :dims[side][k]] for x in rows[side])))

    def settle(at) -> dict:  # _decide's verdicts on kept pairs ``at``, direct check failed
        n, s, d = ns[at], a[at], b[at]
        (us, bs), (ud, bd) = (np.unique(x, return_inverse=True) for x in (s, d))
        f = np.array(classical_renyi_divergences(joint[u := np.r_[us, half + ud]], gibbs[u],
                                                 DEFAULT_ALPHA_GRID)) / beta  # both sides at once
        f_src, f_dst = f[:len(us)][bs], f[len(us):][bd]
        refuted, first = _raised(f_src, f_dst)
        out = {int(n[m]): _increase(DEFAULT_ALPHA_GRID[k], f_src[m, k], f_dst[m, k])
               for m, k in enumerate(first.tolist()) if refuted[m]}
        n, s, d = n[~refuted].tolist(), s[~refuted], d[~refuted]
        out.update(zip(n, _search(lambda k: (*_tensor_rows(src_m, [cands[x] for x in s], beta, k),
                                             *_tensor_rows(dst_m, [cands[x] for x in d], beta, k)),
                                  list(zip(dims[0][s].tolist(), dims[1][d].tolist())), 2, 32)))
        return out

    step, starts = max(1, _SCREEN_LEVELS // (xs.shape[1] + xd.shape[1] + 2)), [0]
    while starts[-1] < len(i):  # chunks of _FIRST_PAIRS pairs, doubling up to step
        starts.append(starts[-1] + min(step, _FIRST_PAIRS << len(starts) - 1))
    for start, stop in zip(starts, starts[1:]):
        a, b = i[start:stop], j[start:stop]
        dropped = _dropped(xs[a], ys[a], xd[b], yd[b])
        kept = np.flatnonzero(~(dropped & _raised(fs[a], fd[b])[0]))
        ns, a, b, drops, settled = kept + start, a[kept], b[kept], dropped[kept], {}
        for at, (n, s, d, drop) in enumerate(zip(*(x.tolist() for x in (ns, a, b, drops)))):
            if drop and n not in settled:  # settle this chunk's open pairs from here on
                try:
                    settled = settle(at + np.flatnonzero(drops[at:]))
                except ValueError:  # a later pair's own error waits until it is reached
                    settled = settle([at])
            verdict = settled[n] if drop else _curve_dominance(curve(0, s), curve(1, d))
            yield n, verdict if drop or verdict.is_feasible else settle([at])[n]


def _tensor_rows(base: ClassicalObject, objs: list, beta: float, cat_dim: int = 1,
                 width: int = 1):
    """Probabilities of base (x) c for each c of ``objs`` and their Gibbs weights beside
    ``cat_dim`` zero-energy catalyst levels, one row each zero-padded to at least ``width``
    levels: the arrays of classical_tensor and _Prepared.gibbs, computed for all objects
    of one dimension at once."""
    dims = [c.dim for c in objs]
    check_tensor_dim(base.dim * max(dims))
    width = max(width, base.dim * max(dims))
    probs, gibbs = np.zeros((len(objs), width)), np.zeros((len(objs), width * cat_dim))
    for dim in set(dims):
        at = [k for k, d in enumerate(dims) if d == dim]
        cp = np.array([objs[k].probs for k in at])[:, None, :]
        energies = (base.energies[:, None] + np.array([objs[k].energies for k in at])[:, None, :]
                    ).reshape(len(at), -1)
        probs[at, :base.dim * dim] = (base.probs[:, None] * cp).reshape(len(at), -1)
        gibbs[at, :base.dim * dim * cat_dim] = gibbs_weights(np.repeat(energies, cat_dim, 1), beta)
    return probs, gibbs


def decide_free(src, dst, ctx) -> FeasibilityVerdict:
    """Exact decision for classical free transitions (no catalyst)."""
    return thermo_majorizes(_as_classical(src), _as_classical(dst), as_beta(ctx))
