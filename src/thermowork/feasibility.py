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
import operator
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
    local_sum,
    object_to_classical,
    partial_trace,
    tensor,
)
from .divergences import INF, _check_alphas, _Rows, _sandwiched, as_beta

MAJORIZE_TOL = 1e-10
LP_FEAS_TOL = 1e-9
_LP_CHECK_TOL = 10 * math.sqrt(1e-9)  # linprog's result check, at its tol of 1e-9
MONOTONE_TOL = 1e-9
COMMUTATION_TOL = 1e-9
MAX_CAT_DIM = 4
MAX_GRID_STEPS = 64
#: The catalyst budget (max_cat_dim, grid_steps) of every decider and of the CLI, unless given.
_BUDGET = (2, 32)
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
    partial sums of probabilities.  thermo_curve builds it from _curve's array.
    """

    breakpoints: tuple

    def __post_init__(self):
        points = np.fromiter(itertools.chain.from_iterable(self.breakpoints), float).reshape(-1, 2)
        points.flags.writeable = False
        object.__setattr__(self, "_points", points)

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


def _checked(obj):
    """obj, if a classical or quantum object; TypeError on anything else."""
    if not isinstance(obj, (ClassicalObject, ThermoObject)):
        raise TypeError(f"expected a classical or diagonal object, got {type(obj).__name__}")
    return obj


def _as_classical(obj) -> ClassicalObject:
    return obj if isinstance(_checked(obj), ClassicalObject) else object_to_classical(obj)


def _classified(src, dst):
    """(src, dst) as classical objects, or None where either is not diagonal."""
    try:
        return _as_classical(src), _as_classical(dst)
    except (ValueError, TypeError):
        return None


def thermo_curve(c: ClassicalObject, ctx) -> ThermoCurve:
    """Thermomajorization curve of a classical object at inverse temperature beta."""
    points = _row_curve(_Rows([_as_classical(c)], as_beta(ctx)), 0)
    return ThermoCurve(tuple(zip(*points.T.tolist())))


def _row_curve(rows: _Rows, n: int) -> np.ndarray:
    """_curve of row n of the table ``rows``, on the row's own levels."""
    return _curve(rows.probs[n, :rows.dims[n]], rows.gibbs()[n, :rows.dims[n]])


#: Rows of at most this many levels take _curve's list path, which sums a merged run as
#: np.add.reduceat does up to 8 levels: its first level plus the sum of the rest added one by
#: one.  From 9 levels on numpy sums the rest in 8 pairwise accumulators, and the bytes differ.
_LIST_LEVELS = 8


def _curve(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """thermo_curve's (x, y) rows, read-only, for probabilities ``probs`` and Gibbs weights ``g``.

    Rows of at most _LIST_LEVELS levels are built on Python floats, with the bytes of the
    array code below, which builds the longer ones."""
    if len(probs) <= _LIST_LEVELS:
        return _listed_curve(probs.tolist(), g.tolist())
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
        starts = np.delete(np.arange(len(rs)), _joined(rs.tolist(), (joins + 1).tolist()))
        gs, ps = np.add.reduceat(gs, starts), np.add.reduceat(ps, starts)
    points = np.zeros((len(gs) + 1, 2))
    np.add.accumulate(gs, out=points[1:, 0])
    np.add.accumulate(ps, out=points[1:, 1])
    if abs(points[-1, 0] - 1) < 1e-9 and abs(points[-1, 1] - 1) < 1e-9:  # close to (1, 1)
        points[-1] = 1.0
    points.flags.writeable = False
    return points


def _joined(rs: list, joins) -> list:
    """The levels of the descending ratios ``rs`` that join the run before them.

    A run takes each next ratio r with (r0 - r <= tol0) | (r == r0) for its first ratio r0
    (np.isclose, rtol 1e-9, atol 1e-12; tol0 = 0 where r0 is not finite).  A ratio not
    tied so with its predecessor is not with a larger r0 either, save by rounding at the
    edge; so a walk may start only at the levels ``joins`` tied with their predecessor (any
    superset, such as every level, gives the same runs), and runs on until the rule fails."""
    taken, stop = [], 1  # levels below stop are decided
    for k in joins:
        if k >= stop:
            r0 = rs[k - 1]  # at stop - 1, or at a level not tied with its predecessor
            tol = 1e-12 + 1e-9 * abs(r0) if math.isfinite(r0) else 0.0
            while k < len(rs) and (r0 - rs[k] <= tol or rs[k] == r0):
                taken.append(k)
                k += 1
            stop = k + 1
    return taken


def _listed_curve(ps: list, gs: list) -> np.ndarray:
    """_curve's array for at most _LIST_LEVELS levels, from Python floats."""
    # numpy's p / g: p/0 = inf, 0/0 = nan (Gibbs weights are never -0.0), overflow to inf
    rs = [p / q if q else p * math.inf for p, q in zip(ps, gs)]
    # argsort(-ratios, kind="stable"): descending, ties in index order, nan last
    order = sorted(range(len(rs)), key=[(r != r, -r) for r in rs].__getitem__)
    rs, gs, ps = [rs[k] for k in order], [gs[k] for k in order], [ps[k] for k in order]
    taken = _joined(rs, range(1, len(rs)))
    if taken:  # np.add.reduceat of the runs; a run of one level keeps its value, -0.0 too
        ends = [k for k in range(1, len(rs)) if k not in taken] + [len(rs)]
        gs, ps = ([v[s] + functools.reduce(operator.add, v[s + 1:e]) if e - s > 1 else v[s]
                   for s, e in zip([0] + ends, ends)] for v in (gs, ps))
    flat = [0.0, 0.0, *itertools.chain.from_iterable(
        zip(itertools.accumulate(gs), itertools.accumulate(ps)))]
    if abs(flat[-2] - 1) < 1e-9 and abs(flat[-1] - 1) < 1e-9:  # close to (1, 1)
        flat[-2:] = 1.0, 1.0
    points = np.array(flat).reshape(-1, 2)
    points.flags.writeable = False
    return points


def thermo_majorizes(src, dst, ctx) -> FeasibilityVerdict:
    """Curve-dominance test: Feasible iff the source curve lies on or above
    the target curve at every breakpoint of either (tolerance 1e-10).

    Boundary equality counts as Feasible; the Infeasible witness carries the
    first crossing point.
    """
    rows = _Rows([_as_classical(src), _as_classical(dst)], as_beta(ctx))
    return _curve_dominance(_row_curve(rows, 0), _row_curve(rows, 1))


def _curve_dominance(src_c: np.ndarray, dst_c: np.ndarray) -> FeasibilityVerdict:
    """thermo_majorizes on two _curve breakpoint arrays."""
    xs = np.concatenate((src_c[:, 0], dst_c[:, 0]))
    xs.sort()
    xs = np.concatenate((xs[:1], xs[1:][xs[1:] != xs[:-1]]))  # np.unique's, without its wrappers
    sv, dv = (np.interp(xs, c[:, 0], c[:, 1]) for c in (src_c, dst_c))
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
    """A quantum object with its Gibbs state and the state's eigh, those of ``twin`` if given."""

    def __init__(self, obj, beta: float, twin=None):
        self.obj, self.beta = obj, beta
        self.sigma = _gibbs_matrix(obj.hamiltonian, beta) if twin is None else twin.sigma
        self.eigh = np.linalg.eigh(self.sigma) if twin is None else twin.eigh

    def free(self, orders) -> np.ndarray:
        """delta_F at ``orders``, one row, in one kernel call, delta_F_alpha's to the bit."""
        return np.array(_sandwiched([self.obj.state], self.sigma, self.eigh,
                                    _check_alphas(orders))) / self.beta


def _stack_constraints(src: ClassicalObject, dst: ClassicalObject, beta: float):
    """a_eq as a CSC matrix, column i * ds + j for G[i, j] holding 1 (column
    stochasticity, row j), the Gibbs weight (row ds + i) and the probability
    (row ds + dd + i) of level j, each without its zeros, as scipy keeps a
    dense array's nonzeros; and b_eq."""
    from scipy import sparse

    ds, dd = src.dim, dst.dim
    g = _Rows([src, dst], beta).gibbs()
    i, j = np.divmod(np.arange(dd * ds, dtype=np.int32), ds)  # scipy's index type
    rows = np.stack([j, ds + i, ds + dd + i], axis=1)
    data = np.stack([np.ones(dd * ds), np.tile(g[0, :ds], dd), np.tile(src.probs, dd)], axis=1)
    kept = data != 0.0
    indptr = np.cumsum(np.concatenate(([0], np.add.reduce(kept, 1))), dtype=np.int32)
    a_eq = sparse.csc_array((data[kept], rows[kept], indptr), shape=(ds + 2 * dd, dd * ds))
    b_eq = np.concatenate([np.ones(ds), g[1, :dd], dst.probs])
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
    if not verdict.is_feasible or verdict.witness.get("kind") != "gibbs_stochastic_map":
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

    Classical and diagonal inputs are checked in their classical form on the whole
    grid (classical Renyi divergences obey data processing for every alpha >= 0).
    For non-commuting inputs the sandwiched divergence obeys data processing only
    from alpha = 1/2 up, so smaller grid points are dropped to keep the certificate
    sound.  A NaN or negative order anywhere in the grid raises ValueError.
    """
    return _necessary(src, dst, as_beta(ctx), _order_grid(alpha_grid), _classified(src, dst))


def _necessary(src, dst, beta: float, grid: tuple, classical) -> FeasibilityVerdict:
    """catalytic_necessary on a checked grid, ``classical`` the pair's _classified: _stages with
    a budget of one catalyst level, which searches nothing (catalysts start at two) nor rows."""
    if classical:
        return _pair_stages(_Rows(classical, beta), grid, 1, _BUDGET[1])
    src, dst = _pair(src, dst, beta)
    return _stages(lambda orders, live: _pair_free(src, dst, orders), None, [()],
                   tuple(a for a in grid if a >= 0.5), 1, _BUDGET[1])[0]


def _pair(src, dst, beta: float) -> tuple:
    """src and dst for _pair_free: a classical one as a one-row _Rows, a quantum one as _Prepared,
    twins (Hamiltonians equal bit for bit, not just by ==) sharing one Gibbs state."""
    src, dst = _checked(src), _checked(dst)
    if isinstance(src, ClassicalObject) or isinstance(dst, ClassicalObject):
        return tuple(_Rows([x], beta) if isinstance(x, ClassicalObject) else _Prepared(x, beta)
                     for x in (src, dst))
    h, g = (memoryview(x.hamiltonian.matrix).cast("B").cast("Q")
            for x in (src, dst))  # 8-byte words: no copy, no temporary
    first = _Prepared(src, beta)
    return first, _Prepared(dst, beta, first if type(src) is type(dst) and h == g else None)


def _order_grid(alpha_grid) -> tuple:
    """The order grid, every order checked before any is evaluated."""
    if alpha_grid is None:
        return DEFAULT_ALPHA_GRID
    grid = tuple(alpha_grid)
    _check_alphas(grid)
    return grid


def _pair_free(src, dst, orders) -> np.ndarray:
    """delta_F at ``orders`` of _pair's src in row 0 and dst in row 1, delta_F_alpha's to the
    bit: quantum twins in one two-state _sandwiched call, any other pair one call per side."""
    if isinstance(dst, _Prepared) and getattr(src, "sigma", None) is dst.sigma:  # quantum twins
        values = _sandwiched([src.obj.state, dst.obj.state], src.sigma, src.eigh,
                             _check_alphas(orders))
        return np.array(values) / src.beta
    return np.concatenate((src.free(orders), dst.free(orders)))


def _stages(free, rows, dims: list, grid: tuple, max_cat_dim: int, grid_steps: int) -> list:
    """Verdicts of every decider's stages after the direct check on pairs 0, 1, ... up to the
    first Feasible, dims[n] the levels of pair n's source and target.  The Renyi second laws:
    Infeasible at the first order of ``grid`` where delta_F rises, grid[:1] first (most
    refutations come there), then grid[1:] on the open pairs, each order once; free(orders,
    open) gives delta_F of the open pairs' sources, a row each, then of their targets.  Then
    _search on the pairs no order refutes, rows(cat_dim, open) giving their rows."""
    verdicts, live = [UNDETERMINED] * len(dims), range(len(dims))
    for orders in (grid[:1], grid[1:]):
        if orders and live:
            f = free(orders, live)
            f_src, f_dst = f[:len(live)], f[len(live):]
            raised = f_dst > f_src + MONOTONE_TOL
            for m, k in enumerate(raised.argmax(axis=1).tolist()):  # k = 0 where none rises
                if raised[m, k]:
                    f0, f1 = f_src.item(m, k), f_dst.item(m, k)
                    verdicts[live[m]] = infeasible({
                        "kind": "monotone_increase", "monotone": "delta_F_alpha",
                        "alpha": orders[k], "gap": f1 - f0, "src_value": f0, "dst_value": f1})
            live = [n for n in live if verdicts[n] is UNDETERMINED]
    if not live:
        return verdicts
    found = _search(lambda k: rows(k, live), [dims[n] for n in live], max_cat_dim, grid_steps)
    for n, verdict in zip(live, found):
        verdicts[n] = verdict
    return verdicts if len(found) == len(live) else verdicts[:live[len(found) - 1] + 1]


def _pair_stages(rows: _Rows, grid: tuple, max_cat_dim: int, grid_steps: int) -> FeasibilityVerdict:
    """_stages on the one pair of a two-row table, its source in row 0."""
    return _stages(lambda orders, live: rows.free(orders),
                   lambda k, live: (rows.probs[:1], rows.gibbs(k)[:1],
                                    rows.probs[1:], rows.gibbs(k)[1:]),
                   [tuple(rows.dims)], grid, max_cat_dim, grid_steps)[0]


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


def catalytic_bruteforce(src, dst, ctx, max_cat_dim: int = _BUDGET[0],
                         grid_steps: int = _BUDGET[1]) -> FeasibilityVerdict:
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
    rows = _Rows([_as_classical(src), _as_classical(dst)], beta)
    direct = _curve_dominance(_row_curve(rows, 0), _row_curve(rows, 1))
    if direct.is_feasible:
        return feasible({
            "kind": "catalyst",
            "catalyst_probs": [1.0],
            "catalyst_energies": [0.0],
            "note": "no catalyst needed",
            "direct": direct.witness,
        })
    return _pair_stages(rows, (), max_cat_dim, grid_steps)


def _search(rows, dims: list, max_cat_dim: int, grid_steps: int) -> list:
    """The catalyst search's verdicts on pairs 0, 1, ... (dims[n] source and target levels) up
    to the first Feasible, rows(cat_dim) giving their rows: catalysts of dimension 2 up to the
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
    that _curve_dominance may accept, for pairs of source and target rows of probabilities
    (sp, dp) zero-padded to one width and Gibbs weights beside top catalyst levels (sg, dg),
    pair by pair in search order, _SCREEN_LEVELS joint levels of both sides at once.

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
    """Curves of the rows of ``joint`` with Gibbs weights ``g``, a row each, every
    level its own breakpoint, padding levels (0 and 0) last: arrays xs, ys of
    shape (rows, levels + 1), snapped to (1, 1) as thermo_curve."""
    n, rows = len(joint), np.arange(len(joint))[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # as in _curve
        order = (-(joint / g)).argsort(axis=1)  # equal ratios in any order: same curve
    xs, ys = np.zeros((n, joint.shape[1] + 1)), np.zeros((n, joint.shape[1] + 1))
    g[rows, order].cumsum(axis=1, out=xs[:, 1:])
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


def decide_catalytic(src, dst, ctx, max_cat_dim: int = _BUDGET[0], grid_steps: int = _BUDGET[1],
                     alpha_grid=None) -> FeasibilityVerdict:
    """Cheapest-first pipeline for catalytic reachability.

    Order: direct free check (sound for Feasible, since free transitions are
    catalytic with a trivial catalyst), then monotone certificates (sound
    for Infeasible), then brute-force catalyst search (sound for Feasible).
    First decisive verdict wins; exhausted searches yield Undetermined.
    Non-diagonal quantum inputs only pass through the monotone stage.  A NaN
    or negative order anywhere in ``alpha_grid``, or a catalyst budget outside
    the cost guards, raises ValueError whatever stage would decide.
    """
    beta, grid, classical = as_beta(ctx), _order_grid(alpha_grid), _classified(src, dst)
    _check_cost_guards(max_cat_dim, grid_steps)
    if classical is None:
        return _necessary(src, dst, beta, grid, None)
    return _decide(_Rows(classical, beta), max_cat_dim, grid_steps, grid)


def _decide(rows: _Rows, max_cat_dim: int = _BUDGET[0], grid_steps: int = _BUDGET[1],
            grid: tuple = DEFAULT_ALPHA_GRID) -> FeasibilityVerdict:
    """decide_catalytic on a two-row table of a classical pair, a checked order grid and budget."""
    direct = _curve_dominance(_row_curve(rows, 0), _row_curve(rows, 1))
    return direct if direct.is_feasible else _pair_stages(rows, grid, max_cat_dim, grid_steps)


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
    skipped.  The other pairs the direct check fails go through _stages with _decide's grid
    and budget (a kept pair alone, the dropped ones from a chunk's first open one on as one
    batch), the first order read from the table and the rest once per distinct row."""
    table, half = _Rows(cands, beta, (src_m, dst_m)), len(cands)  # source rows, then target rows
    xs, ys = _joint_curves(table.probs, table.gibbs())
    f = table.free((DEFAULT_ALPHA_GRID[0], INF))
    curve = functools.cache(functools.partial(_row_curve, table))
    xs, ys, xd, yd, fs, fd = xs[:half], ys[:half], xs[half:], ys[half:], f[:half], f[half:]

    def settle(at) -> dict:  # _decide's verdicts on kept pairs ``at``, direct check failed
        n, s, d = ns[at], a[at], b[at]

        def free(orders, live):  # the screen's first order, else each distinct row once
            if orders == DEFAULT_ALPHA_GRID[:1]:
                return np.concatenate((fs[s[live], :1], fd[d[live], :1]))
            (us, bs), (ud, bd) = (np.unique(x[live], return_inverse=True) for x in (s, d))
            return table.free(orders, np.r_[us, half + ud])[np.r_[bs, len(us) + bd]]

        return dict(zip(n.tolist(), _stages(
            free, lambda k, live: table.pairs(s[live], half + d[live], k),
            [(table.dims[x], table.dims[half + y]) for x, y in zip(s.tolist(), d.tolist())],
            DEFAULT_ALPHA_GRID, *_BUDGET)))

    step, starts = max(1, _SCREEN_LEVELS // (xs.shape[1] + xd.shape[1] + 2)), [0]
    while starts[-1] < len(i):  # chunks of _FIRST_PAIRS pairs, doubling up to step
        starts.append(starts[-1] + min(step, _FIRST_PAIRS << len(starts) - 1))
    for start, stop in zip(starts, starts[1:]):
        a, b = i[start:stop], j[start:stop]
        dropped = _dropped(xs[a], ys[a], xd[b], yd[b])
        kept = np.flatnonzero(~(dropped & (fd[b] > fs[a] + MONOTONE_TOL).any(axis=1)))
        ns, a, b, drops, settled = kept + start, a[kept], b[kept], dropped[kept], {}
        for at, (n, s, d, drop) in enumerate(zip(*(x.tolist() for x in (ns, a, b, drops)))):
            if drop and n not in settled:  # settle this chunk's open pairs from here on
                try:
                    settled = settle(at + np.flatnonzero(drops[at:]))
                except ValueError:  # a later pair's own error waits until it is reached
                    settled = settle([at])
            verdict = settled[n] if drop else _curve_dominance(curve(s), curve(half + d))
            yield n, verdict if drop or verdict.is_feasible else settle([at])[n]


def decide_free(src, dst, ctx) -> FeasibilityVerdict:
    """Exact decision for classical free transitions (no catalyst)."""
    return thermo_majorizes(_as_classical(src), _as_classical(dst), as_beta(ctx))
