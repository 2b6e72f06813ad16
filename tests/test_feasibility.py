import functools
import itertools
import json
import math
import operator
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermowork.core import (
    MAX_TENSOR_DIM,
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    ThermoObject,
    classical_gibbs,
    classical_tensor,
    classical_to_object,
    gibbs_state,
    gibbs_weights,
    is_gibbs,
    partial_trace,
    tensor,
)
from thermowork.divergences import INF, _Rows, delta_F_alpha
from thermowork import divergences, feasibility
from thermowork.feasibility import (
    DEFAULT_ALPHA_GRID,
    MAX_CAT_DIM,
    MAX_GRID_STEPS,
    FeasibilityVerdict,
    Status,
    ThermalOperationSpec,
    ThermoCurve,
    UNDETERMINED,
    apply_thermal_operation,
    catalytic_bruteforce,
    catalytic_necessary,
    correlated_catalytic_check,
    decide_catalytic,
    decide_free,
    gibbs_stochastic_feasible,
    revalidate_catalyst,
    revalidate_gibbs_stochastic,
    thermo_curve,
    thermo_majorizes,
)
from thermowork.feasibility import _catalyst_probs, _curve, _interp_rows, _LIST_LEVELS, _Prepared
from thermowork.feasibility import _pair, _row_curve, _screen, _search
from thermowork.quantifiers import (
    EpsilonDet,
    MeanEnergy,
    FiniteList,
    RenyiFreeEnergy,
    WorkQuantifier,
    work_value,
)
from thermowork.sampling import (
    random_classical_object,
    random_density_matrix,
    random_energy_conserving_unitary,
    random_gibbs_stochastic,
    random_hamiltonian,
    rng_from_seed,
)
from test_divergences import _mp_delta_f, _mp_renyi
from test_golden_verdicts import corpus as golden_corpus

JP_SRC = ClassicalObject([0.5, 0.25, 0.25, 0.0], np.zeros(4))
JP_DST = ClassicalObject([0.4, 0.4, 0.1, 0.1], np.zeros(4))


def _loop_curve(c, beta):
    """Breakpoints grouped element by element: the reference for thermo_curve."""
    g = c.gibbs_weights(beta)
    ratios = c.probs / g
    order = np.argsort(-ratios, kind="stable")
    points, acc_x, acc_y, i = [(0.0, 0.0)], 0.0, 0.0, 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and np.isclose(ratios[order[j + 1]], ratios[order[i]],
                                                rtol=1e-9, atol=1e-12):
            j += 1
        acc_x += float(np.sum(g[order[i:j + 1]]))
        acc_y += float(np.sum(c.probs[order[i:j + 1]]))
        points.append((acc_x, acc_y))
        i = j + 1
    if abs(acc_x - 1) < 1e-9 and abs(acc_y - 1) < 1e-9:
        points[-1] = (1.0, 1.0)
    return points


def _lifted_curve(probs, g) -> np.ndarray:
    """The breakpoints of the former _curve, which found the end of the run from
    every level by binary lifting and then walked from run end to run end: the
    reference the one-pass curve must equal to the bit."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = probs / g
        order = np.argsort(-ratios, kind="stable")
        rs, n = ratios[order], len(ratios)
        tol = np.where(np.isfinite(rs), 1e-12 + 1e-9 * np.abs(rs), 0.0)
        end = np.arange(1, n + 1)
        for step in 2 ** np.arange((n - 1).bit_length())[::-1]:
            x = rs[np.minimum(end + step - 1, n - 1)]
            end = np.where((end + step <= n) & ((rs - x <= tol) | (x == rs)), end + step, end)
    ends, starts = end.tolist(), [0]
    while ends[starts[-1]] < n:
        starts.append(ends[starts[-1]])
    xs = np.concatenate(([0.0], np.cumsum(np.add.reduceat(g[order], starts))))
    ys = np.concatenate(([0.0], np.cumsum(np.add.reduceat(probs[order], starts))))
    if abs(xs[-1] - 1) < 1e-9 and abs(ys[-1] - 1) < 1e-9:
        xs[-1] = ys[-1] = 1.0
    return np.array(tuple(zip(xs.tolist(), ys.tolist()))).reshape(-1, 2)


def _scatter_interp_rows(x, xp, fp):
    """_interp_rows with each query's position read by scattering the inverse
    permutation, and 2-D gathers: the reference for its bytes."""
    n, k = xp.shape
    rows = np.arange(n)[:, None]
    merged = np.concatenate([xp, x], axis=1).argsort(axis=1, kind="stable")
    pos = np.empty_like(merged)
    pos[rows, merged] = np.arange(merged.shape[1])
    count = pos[:, k:] - np.arange(x.shape[1])
    j = np.minimum(count, k - 1) - 1
    x0, x1, y0, y1 = xp[rows, j], xp[rows, j + 1], fp[rows, j], fp[rows, j + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = y0 + (y1 - y0) * ((x - x0) / (x1 - x0))
    return np.where(count < k, inside, fp[:, -1:])


def _tol(r: float) -> float:
    """The tie tolerance of ratio r (np.isclose, rtol 1e-9, atol 1e-12)."""
    return 1e-12 + 1e-9 * abs(r)


def _chain(top: float, length: int, step) -> np.ndarray:
    """``length`` ratios from ``top``, each ``step`` of the one before it."""
    ratios = [top]
    for _ in range(length - 1):
        ratios.append(step(ratios[-1]))
    return np.array(ratios)


def _loop_constraints(src, dst, beta):
    """LP constraint rows built one at a time: the reference for _stack_constraints."""
    ds, dd = src.dim, dst.dim
    rows, rhs = [], []
    for j in range(ds):
        row = np.zeros(dd * ds)
        row[j::ds] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for vec, target in ((src.gibbs_weights(beta), dst.gibbs_weights(beta)),
                        (src.probs, dst.probs)):
        for i in range(dd):
            row = np.zeros(dd * ds)
            row[i * ds:(i + 1) * ds] = vec
            rows.append(row)
            rhs.append(target[i])
    return np.array(rows), np.array(rhs)


def _linprog_verdict(src, dst, beta) -> FeasibilityVerdict:
    """The LP oracle through ``linprog(method="highs")``: the reference for the
    direct HiGHS call in gibbs_stochastic_feasible, which must match it byte
    for byte.  A scipy upgrade that changes linprog's model or options shows
    here."""
    from scipy import sparse
    from scipy.optimize import linprog

    a_eq, b_eq = feasibility._stack_constraints(src, dst, beta)
    m, n = a_eq.shape
    eye = sparse.eye_array(m, format="csc")
    a_full = sparse.hstack([a_eq, eye, -eye], format="csc")
    cost = np.concatenate([np.zeros(n), np.ones(2 * m)])
    res = linprog(cost, A_eq=a_full, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        return UNDETERMINED
    gap = float(res.fun)
    if gap <= feasibility.LP_FEAS_TOL:
        g_mat = np.clip(res.x[:n].reshape(dst.dim, src.dim), 0.0, None)
        return feasibility.feasible({"kind": "gibbs_stochastic_map", "matrix": g_mat,
                                     "phase1_gap": gap})
    witness = {"kind": "lp_phase1_gap", "gap": gap}
    for sign in (1.0, -1.0):
        y = sign * np.asarray(res.eqlin.marginals, dtype=float)
        if float(np.max(a_eq.T @ y)) <= 1e-7 and float(b_eq @ y) >= 0.5 * gap:
            witness["farkas"] = y
            break
    return feasibility.infeasible(witness)


def _thermalized_image(rng, src: ClassicalObject, beta: float, layers: int = 3):
    """dst = G p for a random Gibbs-stochastic G: layers of two-level partial
    thermalizations on disjoint level pairs, then a full thermalization of
    weight in [0.1, 0.3], so the reverse pair is strictly infeasible."""
    g = src.gibbs_weights(beta)
    p = src.probs.copy()
    d = len(p)
    for _ in range(layers):
        perm = rng.permutation(d)
        i, j = perm[0:d - 1:2], perm[1:d:2]
        a = rng.uniform(0.0, 1.0, len(i)) * np.minimum(1.0, g[j] / g[i])
        b = a * g[i] / g[j]
        pi, pj = p[i].copy(), p[j].copy()
        p[i] = (1.0 - a) * pi + b * pj
        p[j] = a * pi + (1.0 - b) * pj
    lam = rng.uniform(0.1, 0.3)
    p = (1.0 - lam) * p + lam * g
    return ClassicalObject(p / p.sum(), src.energies)


#: One spoiled solver result per check that gibbs_stochastic_feasible keeps from
#: linprog: (solver method, field of its result or None for the result itself,
#: the spoiled value from the old one, whether the verdicts stay decisive).
#: linprog's tolerance on x and on the residual is 10 * sqrt(1e-9) ~ 3.2e-4.
_LP_FAULTS = {
    "not optimal": ("getModelStatus", None, lambda status: type(status).kIterationLimit, False),
    "residual above tolerance": ("getSolution", "row_value", lambda v: [r + 1e-3 for r in v],
                                 False),
    "residual below tolerance": ("getSolution", "row_value", lambda v: [r + 1e-4 for r in v],
                                 True),
    "negative x": ("getSolution", "col_value", lambda v: [-1e-3] + v[1:], False),
    "nan in x": ("getSolution", "col_value", lambda v: [math.nan] + v[1:], False),
    "nan objective": ("getInfo", "objective_function_value", lambda v: math.nan, False),
}


def _recording_highs(monkeypatch) -> list:
    """Make every HiGHS solver record (options.presolve, the model arrays) in
    the returned list when it is handed its model."""
    from scipy.optimize._highspy import _core

    handed = []

    class Recording(_core._Highs):
        def passOptions(self, options):
            self.presolve = options.presolve
            return super().passOptions(options)

        def passModel(self, *model):
            handed.append((self.presolve, model))
            return super().passModel(*model)

    monkeypatch.setattr(_core, "_Highs", Recording)
    return handed


def _presolve_corpus() -> list:
    """(src, dst, beta) shaped like the LP's traffic, with values at and under
    presolve's reach: the golden LP pairs; random pairs at three temperatures,
    with Gibbs sources and targets, trivial Hamiltonians, a catalyst, energies
    up to 12, entries set to 1e-6..1e-5 and target levels set to 1e-8 and 1e-7
    (before renormalizing); and benchmark-shaped pairs at d = 16 and 32 in
    both directions."""
    import test_golden_verdicts as golden

    cases = [(src, dst, beta) for _, src, dst, beta in golden.corpus()
             if src.dim * dst.dim <= golden.LP_MAX_DIM ** 2]
    rng = rng_from_seed(21)

    def with_level(obj, value):
        probs = obj.probs.copy()
        probs[rng.integers(obj.dim)] = value
        return ClassicalObject(probs / probs.sum(), obj.energies)

    cat = random_classical_object(rng, 2)
    for beta in (0.3, 1.0, 3.0):
        for _ in range(12):
            src, dst = (random_classical_object(rng, int(rng.integers(1, 9)), energy_scale=2.0)
                        for _ in range(2))
            hot = random_classical_object(rng, int(rng.integers(2, 9)), energy_scale=12.0)
            flat = ClassicalObject(dst.probs, np.zeros(dst.dim))
            cases += [(src, dst, beta), (classical_gibbs(src.energies, beta), dst, beta),
                      (src, classical_gibbs(dst.energies, beta), beta),
                      (ClassicalObject(src.probs, np.zeros(src.dim)), flat, beta),
                      (classical_tensor(src, cat), classical_tensor(dst, cat), beta),
                      (hot, src, beta), (src, hot, beta),
                      (with_level(src, rng.uniform(1e-6, 1e-5)), dst, beta),
                      (src, with_level(dst, rng.uniform(1e-6, 1e-5)), beta),
                      (src, with_level(dst, 1e-7), beta), (src, with_level(dst, 1e-8), beta)]
    for d in (16, 32):
        for _ in range(2):
            src = random_classical_object(rng, d, energy_scale=3.0)
            dst = _thermalized_image(rng, src, 1.0)
            cases += [(src, dst, 1.0), (dst, src, 1.0)]
    return cases


class TestVerdictInvariants:
    def test_decisive_requires_witness(self):
        with pytest.raises(ValueError):
            FeasibilityVerdict(Status.FEASIBLE, None)
        with pytest.raises(ValueError):
            FeasibilityVerdict(Status.INFEASIBLE, None)

    def test_undetermined_forbids_witness(self):
        with pytest.raises(ValueError):
            FeasibilityVerdict(Status.UNDETERMINED, {"x": 1})
        assert UNDETERMINED.witness is None

    def test_json_sanitizes_infinities(self):
        v = FeasibilityVerdict(Status.INFEASIBLE, {"gap": float("inf"), "alpha": 2.0})
        doc = v.to_json()
        assert doc["witness"]["gap"] == "inf"


class TestThermoCurve:
    def test_gibbs_vector_gives_diagonal(self):
        curve = thermo_curve(classical_gibbs([0.0, 1.0, 2.0], 1.0), 1.0)
        assert curve.breakpoints == ((0.0, 0.0), (1.0, 1.0))

    def test_pure_ground_first_breakpoint(self):
        curve = thermo_curve(ClassicalObject([1.0, 0.0], [0.0, 1.0]), 1.0)
        x_expected = 1.0 / (1.0 + math.exp(-1.0))
        assert curve.breakpoints[1][0] == pytest.approx(x_expected, abs=1e-12)
        assert curve.breakpoints[1][1] == pytest.approx(1.0)

    def test_concave_on_random_instances(self):
        rng = rng_from_seed(0)
        for _ in range(200):
            d = int(rng.integers(2, 7))
            c = random_classical_object(rng, d, energy_scale=2.0)
            assert thermo_curve(c, float(rng.uniform(0.3, 3.0))).is_concave()

    def test_endpoints(self):
        rng = rng_from_seed(1)
        for _ in range(20):
            c = random_classical_object(rng, 4)
            curve = thermo_curve(c, 1.0)
            assert curve.breakpoints[0] == (0.0, 0.0)
            assert curve.breakpoints[-1] == (1.0, 1.0)

    def test_matches_element_by_element_grouping(self):
        rng = rng_from_seed(11)
        objects = [random_classical_object(rng, int(rng.integers(1, 9)), energy_scale=3.0)
                   for _ in range(200)]
        objects += [ClassicalObject(np.r_[0.0, np.full(d, 1.0 / d)], np.r_[0.0, np.ones(d)])
                    for d in range(1, 40)]
        objects += [classical_tensor(random_classical_object(rng, 3),
                                     ClassicalObject(np.full(k, 1.0 / k), np.zeros(k)))
                    for k in range(2, 10)]
        # neighbours within the tolerance, ends 1000 times beyond it: runs of two
        objects.append(ClassicalObject((1 + 0.9e-9 * (np.arange(1024) - 511.5)) / 1024,
                                       np.zeros(1024)))
        for c in objects:
            want = np.array(_loop_curve(c, 1.0))
            got = np.array(thermo_curve(c, 1.0).breakpoints)
            assert got.shape == want.shape
            # a run of 8 or more tied terms may be summed in another order
            assert np.max(np.abs(got - want)) <= 1e-15

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_uniform_trivial_catalyst_keeps_breakpoints(self, k):
        rng = rng_from_seed(k)
        u = ClassicalObject(np.full(k, 1.0 / k), np.zeros(k))
        for _ in range(50):
            c = random_classical_object(rng, int(rng.integers(2, 6)), energy_scale=2.0)
            beta = float(rng.uniform(0.3, 3.0))
            want = np.array(thermo_curve(c, beta).breakpoints)
            for joint in (classical_tensor(c, u), classical_tensor(u, c)):
                got = np.array(thermo_curve(joint, beta).breakpoints)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12

    def test_xs_ys_are_breakpoint_columns(self):
        curve = thermo_curve(ClassicalObject([0.5, 0.3, 0.2], [0.0, 1.0, 0.5]), 1.0)
        assert curve.xs().tolist() == [x for x, _ in curve.breakpoints]
        assert curve.ys().tolist() == [y for _, y in curve.breakpoints]

    def test_underflowed_gibbs_weight_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = thermo_curve(ClassicalObject([0.5, 0.5, 0.0], [0.0, 800.0, 900.0]), 1.0)
        # the 0/0 level sorts last
        assert curve.breakpoints == ((0.0, 0.0), (0.0, 0.5), (1.0, 1.0), (1.0, 1.0))

    def test_subnormal_gibbs_weight_raises_no_warning(self):
        # exp(-720) / Z is subnormal, so p / g overflows to inf
        energies = [0.0, 1.0, 720.0]
        src = ClassicalObject([0.5, 0.3, 0.2], energies)
        dst = ClassicalObject([0.6, 0.2, 0.2], energies)
        jp_energies = [0.0, 0.0, 0.0, 0.0, 720.0]  # and the catalyst screen divides the same way
        jp_src = ClassicalObject(np.r_[0.9 * JP_SRC.probs, 0.1], jp_energies)
        jp_dst = ClassicalObject(np.r_[0.9 * JP_DST.probs, 0.1], jp_energies)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermo_majorizes(src, dst, 1.0).is_feasible
            assert decide_catalytic(src, dst, 1.0).is_feasible
            verdict = decide_catalytic(jp_src, jp_dst, 1.0, grid_steps=64)
        assert verdict.witness["kind"] == "catalyst"

    def test_csv_rows(self):
        curve = thermo_curve(ClassicalObject([1.0, 0.0], [0.0, 1.0]), 1.0)
        rows = curve.to_csv_rows()
        assert len(rows) == len(curve.breakpoints)
        assert all("," in row for row in rows)

    def test_breakpoints_parse_to_the_same_bytes_and_malformed_ones_raise(self):
        rng = rng_from_seed(9)
        for d in (1, 2, 5, 64, 1024):
            c = random_classical_object(rng, d, energy_scale=2.0)
            points = _row_curve(_Rows([c], 1.0), 0)
            assert not points.flags.writeable
            curve = thermo_curve(c, 1.0)
            assert curve.breakpoints == tuple(map(tuple, points.tolist()))
            want = np.array(curve.breakpoints, dtype=float).reshape(-1, 2)
            assert curve.xs().tobytes() + curve.ys().tobytes() == want.T.tobytes()
        for given in (((0, 0), (1, 1)), ([0.0, 0.0], [0.5, 1.0]), tuple(np.eye(2))):
            got = ThermoCurve(given)
            assert np.c_[got.xs(), got.ys()].tobytes() == np.array(given, float).tobytes()
        for bad, error in ((((0.0, 0.0), (1.0,)), ValueError), ((("a", "b"),), ValueError),
                           (((0.0, 1j),), TypeError), (((0.0, 0.0), 1.0), TypeError)):
            with pytest.raises(error):
                ThermoCurve(bad)


class TestOnePassCurve:
    """_curve against the former binary-lifting build, breakpoint bytes equal."""

    @staticmethod
    def _same(probs, g):
        probs, g = np.asarray(probs, dtype=float), np.asarray(g, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = _curve(probs, g)
        curve = ThermoCurve(tuple(map(tuple, points.tolist())))
        want = _lifted_curve(probs, g)
        assert not points.flags.writeable
        assert points.shape == want.shape and points.tobytes() == want.tobytes()
        got = np.array(curve.breakpoints).reshape(-1, 2)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert curve.xs().tobytes() == want[:, 0].tobytes()
        assert curve.ys().tobytes() == want[:, 1].tobytes()
        return curve

    @pytest.mark.parametrize("top", [1e-6, 0.37, 1.0, 3.3, 1e4])
    def test_gaps_at_the_tolerance_and_one_ulp_around_it(self, top):
        exact = lambda r: r - _tol(r)  # noqa: E731
        steps = [exact, lambda r: np.nextafter(exact(r), -np.inf),
                 lambda r: np.nextafter(exact(r), np.inf)]
        rng = rng_from_seed(3)
        for step in steps:
            for length in (2, 3, 9, 64):
                ratios = _chain(top, length, step)
                self._same(ratios, np.ones(length))  # the ratios are the probabilities
                self._same(ratios[::-1], np.ones(length))
                mixed = _chain(top, length, lambda r: steps[int(rng.integers(3))](r))
                self._same(mixed, np.ones(length))
                self._same(mixed / length, np.full(length, 1.0 / length))

    def test_walk_goes_past_the_end_of_a_chain(self):
        # second is 1 ulp below first, and so is its tolerance below first's; last is not
        # tied with second, but its difference to first rounds (half to even) down onto
        # first's tolerance, so the run of first takes last too
        first, second, last = 1.009742059657091e-12, 1.0097420596570908e-12, 9.742058647348738e-15
        assert not second - last <= _tol(second) and first - last <= _tol(first)
        for ratios in ([first, second, last], [2.0, first, second, last, 0.0],
                       [last, second, first]):
            assert len(self._same(ratios, np.ones(len(ratios))).breakpoints) == len(ratios) - 1

    @pytest.mark.parametrize("length", [2, 3, 5, 31, 256, 1024])
    def test_near_tie_chains_in_both_directions(self, length):
        for factor in (0.3, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5):
            down = _chain(1.0, length, lambda r: r - factor * _tol(r))
            up = _chain(1.0, length, lambda r: r + factor * _tol(r))
            for ratios in (down, down[::-1], up, up[::-1]):
                g = np.full(length, 1.0 / length)
                self._same(ratios * g / np.sum(ratios * g), g)
                self._same(ratios, np.ones(length))
        # a chain each neighbour of which is tied, its ends 1000 tolerances apart
        self._same((1 + 0.9e-9 * (np.arange(length) - length / 2)) / length,
                   np.full(length, 1.0 / length))

    def test_exact_ties_inf_and_zero_over_zero_levels(self):
        rng = rng_from_seed(5)
        for _ in range(300):
            d = int(rng.integers(1, 12))
            probs = rng.choice([0.0, 0.1, 0.2, 0.2 + 1e-13, 0.3], d)
            g = np.where(rng.random(d) < 0.3, rng.choice([0.0, 5e-324, 1e-310], d),
                         rng.choice([0.1, 0.2, 0.3], d))
            self._same(probs, g)
        underflow = ClassicalObject([0.5, 0.2, 0.2, 0.1, 0.0], [0.0, 800.0, 900.0, 900.0, 950.0])
        self._same(underflow.probs, underflow.gibbs_weights(1.0))

    def test_rows_on_both_sides_of_the_list_bound(self):
        # rows of 1-12 levels: the list path up to _LIST_LEVELS, the array path above it
        rng = rng_from_seed(9)
        for _ in range(400):
            d = int(rng.integers(1, 13))
            quarters = rng.multinomial(4, np.full(d, 1 / d)) / 4
            for probs in (quarters, rng.dirichlet(np.ones(d))):
                # energy 800 underflows its Gibbs weight to 0: p/0 = inf and 0/0 = nan
                g = gibbs_weights(rng.choice([0.0, 1.0, 2.0, 800.0], d), 1.0)
                self._same(probs, g)
                self._same(np.full(d, -0.0), g)  # a run of -0.0 sums to -0.0
                self._same(g, g)  # every level tied, one run
                g[int(rng.integers(d))] = rng.choice([5e-324, 1e-310])  # p/g overflows
                self._same(probs, g)
                self._same(g, g)

    def test_numpy_sums_a_run_of_up_to_8_levels_as_the_list_path_does(self):
        # _listed_curve sums a merged run as np.add.reduceat does: its first level plus the
        # rest added one by one (the rest of [-0.0, -0.0] is -0.0, not 0.0 + -0.0)
        rng = rng_from_seed(10)
        for n in range(2, _LIST_LEVELS + 1):
            for _ in range(500):
                a = rng.random(n) * 10.0 ** rng.integers(-8, 9, n)
                a[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
                if rng.random() < 0.05:
                    a[:] = -0.0
                want = a[0] + functools.reduce(operator.add, a[1:].tolist())
                assert np.add.reduceat(a, [0])[0].tobytes() == np.float64(want).tobytes(), (
                    f"np.add.reduceat no longer sums a run of {n} levels as _curve's list path "
                    f"does, on {a.tolist()}: lower _LIST_LEVELS ({_LIST_LEVELS}) below {n}")

    def test_one_level(self):
        for probs, g in (([1.0], [1.0]), ([1.0], [0.0]), ([0.0], [0.0]), ([0.3], [0.7])):
            assert len(self._same(probs, g).breakpoints) == 2

    def test_tied_catalyst_products(self):
        rng = rng_from_seed(6)
        for k in (2, 3, 4):
            for row in _catalyst_probs(k, 16)[:20]:
                cat = ClassicalObject(row, np.zeros(k))
                c = random_classical_object(rng, int(rng.integers(2, 6)), energy_scale=2.0)
                rows = _Rows([c], 1.0)
                self._same(np.outer(c.probs, cat.probs).ravel(), rows.gibbs(k)[0])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(1e-8, 1e8), st.lists(st.sampled_from([0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3]),
                                           min_size=0, max_size=40),
           st.lists(st.sampled_from(["gibbs", "inf", "nan"]), max_size=4), st.randoms())
    def test_agrees_with_binary_lifting(self, top, gaps, extra, random):
        ratios = [top]
        for gap in gaps:
            ratios.append(ratios[-1] - gap * _tol(ratios[-1]))
        g = [1.0] * len(ratios)
        probs = list(ratios)
        for kind in extra:  # a level of zero Gibbs weight, with or without probability
            probs.append({"gibbs": top, "inf": 1.0, "nan": 0.0}[kind])
            g.append(1.0 if kind == "gibbs" else 0.0)
        order = list(range(len(probs)))
        random.shuffle(order)
        self._same(np.array(probs)[order], np.array(g)[order])

    def test_curve_from_arrays_equals_one_from_its_breakpoints(self):
        rng = rng_from_seed(8)
        objects = [random_classical_object(rng, d, energy_scale=2.0) for d in (1, 2, 3, 7, 64)]
        objects += [classical_tensor(random_classical_object(rng, 3),
                                     ClassicalObject(np.full(3, 1 / 3), np.zeros(3))),
                    ClassicalObject([0.5, 0.5, 0.0], [0.0, 800.0, 900.0])]
        for c in objects:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                built, again = thermo_curve(c, 1.0), thermo_curve(c, 1.0)
            rebuilt = ThermoCurve(built.breakpoints)
            assert again == rebuilt and rebuilt == again  # compared before either is read
            assert built == rebuilt and hash(built) == hash(rebuilt) == hash(again)
            assert repr(built) == repr(rebuilt)
            assert built.breakpoints is built.breakpoints  # made once
            for a, b in ((built.xs(), rebuilt.xs()), (built.ys(), rebuilt.ys())):
                assert a.tobytes() == b.tobytes() and a.dtype == b.dtype
                assert not a.flags.writeable and not b.flags.writeable
            assert built.to_csv_rows() == rebuilt.to_csv_rows()


class TestThermoMajorizes:
    def test_anything_reaches_its_gibbs(self):
        rng = rng_from_seed(2)
        for _ in range(50):
            c = random_classical_object(rng, 4)
            beta = float(rng.uniform(0.3, 2.0))
            omega = classical_gibbs(c.energies, beta)
            assert thermo_majorizes(c, omega, beta).is_feasible

    @pytest.mark.parametrize("d,expected", [(2, Status.INFEASIBLE), (3, Status.FEASIBLE),
                                            (4, Status.FEASIBLE)])
    def test_ground_reset_threshold(self, d, expected):
        # feasible exactly when d majorizes past exp(beta*delta) = e
        energies = np.concatenate([[0.0], np.ones(d)])
        ground = ClassicalObject(np.eye(d + 1)[0], energies)
        uniform = ClassicalObject(np.concatenate([[0.0], np.full(d, 1.0 / d)]), energies)
        assert thermo_majorizes(ground, uniform, 1.0).status == expected

    def test_gibbs_cannot_leave_gibbs(self):
        omega = classical_gibbs([0.0, 1.0], 1.0)
        target = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        verdict = thermo_majorizes(omega, target, 1.0)
        assert verdict.is_infeasible
        assert "x" in verdict.witness

    def test_infeasible_witness_names_first_crossing(self):
        energies = np.array([0.0, 1.0])
        verdict = thermo_majorizes(ClassicalObject([1.0, 0.0], energies),
                                   ClassicalObject([0.0, 1.0], energies), 1.0)
        assert verdict.is_infeasible
        g1 = math.exp(-1.0) / (1.0 + math.exp(-1.0))
        assert verdict.witness["x"] == pytest.approx(g1, abs=1e-12)

    def test_boundary_equality_counts_feasible(self):
        c = random_classical_object(rng_from_seed(3), 3)
        assert thermo_majorizes(c, c, 1.0).is_feasible

    def test_composability_transitivity(self):
        rng = rng_from_seed(4)
        checked = 0
        for _ in range(200):
            beta = float(rng.uniform(0.5, 2.0))
            energies = np.sort(rng.uniform(0, 2, size=3))
            p = ClassicalObject(rng.dirichlet(np.ones(3)), energies)
            g1 = random_gibbs_stochastic(rng, energies, beta)
            g2 = random_gibbs_stochastic(rng, energies, beta)
            q = ClassicalObject(g1 @ p.probs, energies)
            r = ClassicalObject(g2 @ q.probs, energies)
            if (thermo_majorizes(p, q, beta).is_feasible
                    and thermo_majorizes(q, r, beta).is_feasible):
                checked += 1
                assert thermo_majorizes(p, r, beta).is_feasible
        assert checked >= 150

    def test_factor_swap_is_free(self):
        rng = rng_from_seed(5)
        for _ in range(20):
            a = random_classical_object(rng, 2)
            b = random_classical_object(rng, 3)
            ab = classical_tensor(a, b)
            ba = classical_tensor(b, a)
            assert thermo_majorizes(ab, ba, 1.0).is_feasible
            assert thermo_majorizes(ba, ab, 1.0).is_feasible


class TestGibbsStochasticLP:
    def test_identity_transition(self):
        c = ClassicalObject([0.6, 0.3, 0.1], [0.0, 0.5, 1.5])
        verdict = gibbs_stochastic_feasible(c, c, 1.0)
        assert verdict.is_feasible
        assert revalidate_gibbs_stochastic(verdict, c, c, 1.0)

    def test_thermalizing_map(self):
        rng = rng_from_seed(6)
        for _ in range(10):
            c = random_classical_object(rng, 4)
            omega = classical_gibbs(c.energies, 1.0)
            verdict = gibbs_stochastic_feasible(c, omega, 1.0)
            assert verdict.is_feasible
            assert revalidate_gibbs_stochastic(verdict, c, omega, 1.0)

    def test_other_feasible_kinds_do_not_revalidate(self):
        # only a gibbs_stochastic_map witness carries a matrix to check
        c = ClassicalObject([0.8, 0.2], [0.0, 1.0])
        omega = classical_gibbs(c.energies, 1.0)
        for verdict, src, dst in ((thermo_majorizes(c, omega, 1.0), c, omega),
                                  (decide_catalytic(c, omega, 1.0), c, omega),
                                  (catalytic_bruteforce(c, omega, 1.0), c, omega),
                                  (catalytic_bruteforce(JP_SRC, JP_DST, 1.0, grid_steps=64),
                                   JP_SRC, JP_DST)):
            assert verdict.is_feasible and verdict.witness["kind"] != "gibbs_stochastic_map"
            assert revalidate_gibbs_stochastic(verdict, src, dst, 1.0) is False

    def test_infeasible_carries_certificate(self):
        omega = classical_gibbs([0.0, 1.0], 1.0)
        target = ClassicalObject([0.95, 0.05], [0.0, 1.0])
        verdict = gibbs_stochastic_feasible(omega, target, 1.0)
        assert verdict.is_infeasible
        assert verdict.witness["gap"] > 1e-9
        if "farkas" in verdict.witness:
            y = np.asarray(verdict.witness["farkas"], dtype=float)
            a_eq, b_eq = _constraints_for(omega, target, 1.0)
            assert float(np.max(a_eq.T @ y)) <= 1e-7
            assert float(b_eq @ y) > 0

    def test_constraints_match_row_by_row_build(self):
        rng = rng_from_seed(12)
        for _ in range(50):
            src = random_classical_object(rng, int(rng.integers(1, 7)))
            dst = random_classical_object(rng, int(rng.integers(1, 7)))
            a_eq, b_eq = _constraints_for(src, dst, 0.7)
            for got, want in zip((a_eq.toarray(), b_eq), _loop_constraints(src, dst, 0.7)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_agreement_with_curve_oracle(self):
        rng = rng_from_seed(7)
        for _ in range(60):
            d = int(rng.integers(2, 6))
            beta = float(rng.uniform(0.3, 2.0))
            energies = np.sort(rng.uniform(0, 2, size=d))
            src = ClassicalObject(rng.dirichlet(np.ones(d)), energies)
            if rng.uniform() < 0.5:
                dst = ClassicalObject(rng.dirichlet(np.ones(d)), energies)
            else:
                g_map = random_gibbs_stochastic(rng, energies, beta)
                dst = ClassicalObject(g_map @ src.probs, energies)
            curve = thermo_majorizes(src, dst, beta)
            lp = gibbs_stochastic_feasible(src, dst, beta)
            assert curve.status == lp.status, (src.probs, dst.probs, energies, beta)

    def test_tracing_is_gibbs_stochastic(self):
        rng = rng_from_seed(8)
        for _ in range(100):
            p = random_classical_object(rng, 2)
            q = random_classical_object(rng, 3)
            joint = classical_tensor(p, q)
            verdict = gibbs_stochastic_feasible(joint, p, 1.0)
            assert verdict.is_feasible

    def test_solver_gets_the_csc_of_the_dense_constraints(self, monkeypatch):
        # the phase-1 matrix handed to HiGHS is the CSC scipy builds from the dense
        # array, as linprog would hand it; a zero probability and a Gibbs weight
        # that underflows to 0 leave no explicit zero behind
        from scipy.sparse import csc_array

        handed = _recording_highs(monkeypatch)
        energies = [0.0, 1.0, 1e4]  # exp(-1e4) underflows to 0
        cases = [(ClassicalObject([0.5, 0.5, 0.0], energies),
                  ClassicalObject([0.0, 1.0, 0.0], energies), 1.0),
                 (ClassicalObject([0.0, 0.2, 0.8], energies),
                  ClassicalObject([1.0, 0.0], [0.0, 2.0]), 1.0),
                 (ClassicalObject([1.0], [0.0]), ClassicalObject([0.3, 0.7], [0.0, 0.1]), 2.0)]
        rng = rng_from_seed(13)
        cases += [(random_classical_object(rng, int(rng.integers(1, 7))),
                   random_classical_object(rng, int(rng.integers(1, 7))), 0.8) for _ in range(20)]
        dropped = 0
        for src, dst, beta in cases:
            gibbs_stochastic_feasible(src, dst, beta)
            a_eq, b_eq = _loop_constraints(src, dst, beta)
            m = len(a_eq)
            want = csc_array(np.hstack([a_eq, np.eye(m), -np.eye(m)]))
            model = handed.pop()[1]
            cols, rows, nnz = model[:3]
            row_lower, row_upper, start, index, value, integrality = model[9:]
            assert (rows, cols) == want.shape
            # HiGHS takes the column starts without the closing nnz
            indptr = np.append(start, np.int32(nnz))
            for mine, theirs in ((indptr, want.indptr), (index, want.indices), (value, want.data)):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
            assert integrality.shape == (cols,) and not integrality.any()
            assert row_lower.tobytes() == row_upper.tobytes() == b_eq.tobytes()
            dropped += want.nnz < 3 * a_eq.shape[1] + 2 * m
        assert dropped >= 2

    def test_presolve_is_off_only_where_it_reduces_nothing(self, monkeypatch):
        # HiGHS solves a model its presolve does not reduce exactly as passed, so
        # skipping presolve keeps the vertex only where presolve would find nothing
        from scipy.optimize._highspy import _core

        highs = _core._Highs
        handed = _recording_highs(monkeypatch)
        for src, dst, beta in _presolve_corpus():
            gibbs_stochastic_feasible(src, dst, beta)
        reduced = {"off": 0, "on": 0}  # models presolve reduces, by the option sent
        for presolve, model in handed:
            options = _core.HighsOptions()
            options.output_flag = options.log_to_console = False
            solver = highs()
            solver.passOptions(options)
            solver.passModel(*model)
            solver.presolve()
            reduced[presolve] += (solver.getModelPresolveStatus()
                                  != _core.HighsPresolveStatus.kNotReduced)
        offs = sum(presolve == "off" for presolve, _ in handed)
        assert reduced["off"] == 0, reduced
        # the corpus reaches both sides of the rule
        assert offs >= len(handed) // 2 and reduced["on"] >= 10, (offs, reduced, len(handed))
        del handed[:]
        levels = [0.0, 0.5, 1.0]
        src = ClassicalObject([0.2, 0.3, 0.5], levels)
        for dst in (ClassicalObject([0.1, 0.4, 0.5], levels),  # control: nothing small
                    ClassicalObject([0.0, 0.5, 0.5], levels),  # a zero probability
                    ClassicalObject([1e-8, 0.5, 0.5 - 1e-8], levels)):  # a target level at 1e-8
            gibbs_stochastic_feasible(src, dst, 1.0)
        # a Gibbs weight that underflows to 0
        gibbs_stochastic_feasible(ClassicalObject([0.2, 0.3, 0.5], [0.0, 1.0, 1e4]),
                                  ClassicalObject([0.4, 0.6], [0.0, 1.0]), 1.0)
        assert [presolve for presolve, _ in handed] == ["off", "on", "on", "on"]

    def test_verdicts_without_presolve_are_those_of_linprog(self, monkeypatch):
        # the zero-free traffic that skips presolve still gets linprog's verdict,
        # witness bytes included
        handed = _recording_highs(monkeypatch)
        rng = rng_from_seed(22)
        cases = []
        for d in (16, 32):
            src = random_classical_object(rng, d, energy_scale=3.0)
            dst = _thermalized_image(rng, src, 1.0)
            cases += [(src, dst, 1.0), (dst, src, 1.0)]
        energies = np.sort(rng.uniform(0.0, 2.0, 8))
        cases.append((classical_gibbs(energies, 1.0), random_classical_object(rng, 8), 1.0))
        uniform = ClassicalObject(np.full(6, 1 / 6), np.zeros(6))
        other = ClassicalObject(random_classical_object(rng, 6).probs, np.zeros(6))
        cases += [(uniform, other, 1.0), (other, uniform, 1.0)]
        got = [gibbs_stochastic_feasible(src, dst, beta) for src, dst, beta in cases]
        assert [presolve for presolve, _ in handed] == ["off"] * len(cases)
        for verdict, (src, dst, beta) in zip(got, cases):
            want = _linprog_verdict(src, dst, beta)
            assert json.dumps(verdict.to_json()) == json.dumps(want.to_json())
        assert {verdict.status for verdict in got} == {Status.FEASIBLE, Status.INFEASIBLE}

    def test_verdicts_are_those_of_linprog(self, capfd):
        # the direct HiGHS call gives linprog's verdict, witness bytes included,
        # and like linprog it logs nothing
        import test_golden_verdicts as golden

        cases = [(src, dst, beta) for _, src, dst, beta in golden.corpus()
                 if src.dim * dst.dim <= golden.LP_MAX_DIM ** 2]
        energies = [0.0, 1.0, 1e4]  # exp(-1e4) underflows to 0
        cases += [(ClassicalObject([0.5, 0.5, 0.0], energies),
                   ClassicalObject([0.0, 1.0, 0.0], energies), 1.0),
                  (ClassicalObject([0.5, 0.5, 0.0], energies),
                   ClassicalObject([0.2, 0.3, 0.5], energies), 1.0),
                  (ClassicalObject([0.0, 0.2, 0.8], energies),
                   ClassicalObject([1.0, 0.0], [0.0, 2.0]), 1.0),
                  (ClassicalObject([1.0], [0.0]), ClassicalObject([0.3, 0.7], [0.0, 0.1]), 2.0),
                  (ClassicalObject([0.3, 0.7], [0.0, 0.1]), ClassicalObject([1.0], [0.0]), 2.0),
                  (ClassicalObject([1.0], [0.0]), ClassicalObject([1.0], [5.0]), 1.0)]
        rng = rng_from_seed(15)
        cases += [(random_classical_object(rng, int(rng.integers(1, 7))),
                   random_classical_object(rng, int(rng.integers(1, 7))), 0.8) for _ in range(20)]
        src = random_classical_object(rng, 64, energy_scale=3.0)
        dst = _thermalized_image(rng, src, 1.0)
        cases += [(src, dst, 1.0), (dst, src, 1.0)]
        statuses = []
        for src, dst, beta in cases:
            got = gibbs_stochastic_feasible(src, dst, beta)
            want = _linprog_verdict(src, dst, beta)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            statuses.append(got.status)
        assert set(statuses) == {Status.FEASIBLE, Status.INFEASIBLE}
        assert statuses[-2:] == [Status.FEASIBLE, Status.INFEASIBLE]
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("fault", sorted(_LP_FAULTS))
    def test_a_solve_that_fails_linprog_checks_is_undetermined(self, monkeypatch, fault):
        from scipy.optimize._highspy import _core

        c = ClassicalObject([0.6, 0.3, 0.1], [0.0, 0.5, 1.5])
        pairs = [(c, c), (classical_gibbs(c.energies, 1.0), c)]  # feasible, infeasible
        assert [gibbs_stochastic_feasible(*pair, 1.0).status for pair in pairs] == [
            Status.FEASIBLE, Status.INFEASIBLE]
        method, field, spoil, decisive = _LP_FAULTS[fault]
        solve = getattr(_core._Highs, method)

        def spoiled(highs):
            out = solve(highs)
            if field is None:
                return spoil(out)
            setattr(out, field, spoil(getattr(out, field)))
            return out

        monkeypatch.setattr(_core, "_Highs", type("Spoiled", (_core._Highs,), {method: spoiled}))
        got = [gibbs_stochastic_feasible(*pair, 1.0).status for pair in pairs]
        assert got == ([Status.FEASIBLE, Status.INFEASIBLE] if decisive
                       else [Status.UNDETERMINED] * 2)


def _constraints_for(src, dst, beta):
    from thermowork.feasibility import _stack_constraints
    return _stack_constraints(src, dst, beta)


class TestThermalOperations:
    def test_identity_leaves_state(self):
        p = classical_to_object(ClassicalObject([0.7, 0.3], [0.0, 1.0]))
        bath = HamiltonianClass(np.diag([0.0, 1.0]))
        spec = ThermalOperationSpec(bath, np.eye(4))
        out = apply_thermal_operation(p, spec, 1.0)
        assert out == p

    def test_swap_with_thermal_copy_thermalizes(self):
        h = np.diag([0.0, 1.0])
        p = classical_to_object(ClassicalObject([1.0, 0.0], [0.0, 1.0]))
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        spec = ThermalOperationSpec(HamiltonianClass(h), swap)
        out = apply_thermal_operation(p, spec, 1.0)
        assert is_gibbs(out, 1.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            ThermalOperationSpec(HamiltonianClass(np.diag([0.0, 1.0])),
                                 np.ones((4, 4)))

    def test_rejects_energy_nonconserving(self):
        bath = HamiltonianClass(np.diag([0.0, 2.0]))  # off-resonant
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[j * 2 + i, i * 2 + j] = 1.0
        spec = ThermalOperationSpec(bath, swap)
        p = classical_to_object(ClassicalObject([0.7, 0.3], [0.0, 1.0]))
        with pytest.raises(ValueError, match="conserve"):
            apply_thermal_operation(p, spec, 1.0)

    def test_free_energy_never_increases(self):
        rng = rng_from_seed(9)
        beta = 1.0
        h_sys = np.diag([0.0, 1.0])
        h_bath = np.diag([0.0, 1.0, 2.0])  # resonant ladder: degenerate joint spectrum
        h_tot = np.kron(h_sys, np.eye(3)) + np.kron(np.eye(2), h_bath)
        for _ in range(100):
            u = random_energy_conserving_unitary(rng, h_tot)
            spec = ThermalOperationSpec(HamiltonianClass(h_bath), u)
            probs = rng.dirichlet(np.ones(2))
            p = classical_to_object(ClassicalObject(probs, [0.0, 1.0]))
            out = apply_thermal_operation(p, spec, beta)
            assert delta_F_alpha(out, beta, 1.0) <= delta_F_alpha(p, beta, 1.0) + 1e-9


def _quantum_pairs() -> list:
    """Non-commuting (src, dst, beta) pairs, d = 2..32: from and to the Gibbs
    state and between random states."""
    rng = rng_from_seed(29)
    pairs = []
    for d in (2, 3, 4, 8, 16, 32):
        ham = random_hamiltonian(rng, d, scale=float(rng.uniform(0.3, 3.0)))
        beta = float(rng.uniform(0.4, 2.0))
        gibbs = gibbs_state(ham, beta)
        states = [ThermoObject(random_density_matrix(rng, d, rank), ham) for rank in (d, 1, d)]
        pairs += [(gibbs, states[0], beta), (states[0], gibbs, beta),
                  (states[0], states[2], beta), (states[2], states[0], beta),
                  (states[1], states[0], beta)]
    return pairs


def _loop_necessary(src, dst, beta, grid) -> dict:
    """catalytic_necessary of non-commuting objects, one delta_F_alpha call per
    order and object: the JSON the batched monotone stage must reproduce."""
    for alpha in DEFAULT_ALPHA_GRID if grid is None else grid:
        if alpha < 0.5:
            continue
        f_src, f_dst = delta_F_alpha(src, beta, alpha), delta_F_alpha(dst, beta, alpha)
        if f_dst > f_src + feasibility.MONOTONE_TOL:
            return FeasibilityVerdict(Status.INFEASIBLE, {
                "kind": "monotone_increase", "monotone": "delta_F_alpha", "alpha": alpha,
                "gap": float(f_dst - f_src), "src_value": float(f_src),
                "dst_value": float(f_dst)}).to_json()
    return UNDETERMINED.to_json()


def _mp_sandwiched(rho, sigma, alpha: float) -> float:
    """The sandwiched Renyi divergence at a finite order alpha != 1, with 40
    digits, over the eigenvalues of the sandwich above 1e-14."""
    with mpmath.workdps(40):
        lam, vecs = mpmath.eighe(mpmath.matrix(np.asarray(sigma).tolist()))
        exponent = (1 - mpmath.mpf(alpha)) / (2 * mpmath.mpf(alpha))
        sand = vecs * mpmath.diag([x ** exponent for x in lam]) * vecs.H
        mu, _ = mpmath.eighe(sand * mpmath.matrix(np.asarray(rho).tolist()) * sand)
        total = mpmath.fsum(m ** alpha for m in mu if m > 1e-14)
        return float(mpmath.log(total) / (mpmath.mpf(alpha) - 1))


class TestSandwichedLargeOrders:
    def test_order_100_is_finite_and_below_order_inf(self):
        # sum mu ** 100 overflows a float for the d = 8 non-Gibbs objects
        objects = {id(obj): (obj, beta) for src, dst, beta in _quantum_pairs()[15:20]
                   for obj in (src, dst)}
        checked = 0
        for obj, beta in objects.values():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                top = delta_F_alpha(obj, beta, INF)
                value = delta_F_alpha(obj, beta, 100.0)
                batch = _Prepared(obj, beta).free(DEFAULT_ALPHA_GRID)[0]
            if top < 1.0:  # the Gibbs state, whose values are rounding
                continue
            want = _mp_sandwiched(obj.state, gibbs_state(obj.hamiltonian, beta).state, 100.0)
            assert math.isfinite(value) and value <= top
            assert value == pytest.approx(want / beta, rel=1e-12)
            assert batch[DEFAULT_ALPHA_GRID.index(100.0)] == value
            checked += 1
        assert checked == 3


class TestCatalyticNecessary:
    def test_gibbs_target_never_flagged(self):
        rng = rng_from_seed(10)
        for _ in range(20):
            c = random_classical_object(rng, 3)
            omega = classical_gibbs(c.energies, 1.0)
            assert catalytic_necessary(c, omega, 1.0).is_undetermined

    def test_leaving_gibbs_is_flagged_at_every_alpha(self):
        omega = classical_gibbs([0.0, 1.0], 1.0)
        target = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        for alpha in (0.5, 1.0, 2.0, float("inf")):
            verdict = catalytic_necessary(omega, target, 1.0, alpha_grid=[alpha])
            assert verdict.is_infeasible
            assert verdict.witness["alpha"] == alpha

    def test_jonathan_plenio_pair_passes_monotones(self):
        assert catalytic_necessary(JP_SRC, JP_DST, 1.0).is_undetermined

    def test_gibbs_weight_above_the_support_cut_gives_no_certificate(self):
        # the second Gibbs weight, e^-30 / (1 + e^-30) = 9.4e-14, is in the support
        # of the reference at every order, relative entropy included
        energies = [0.0, 30.0]
        src = ClassicalObject([1.0, 0.0], energies)
        dst = ClassicalObject([1.0 - 5e-14, 5e-14], energies)
        assert thermo_majorizes(src, dst, 1.0).is_feasible
        assert gibbs_stochastic_feasible(src, dst, 1.0).is_feasible
        assert catalytic_necessary(src, dst, 1.0).is_undetermined
        assert math.isfinite(delta_F_alpha(dst, 1.0, 1.0))

    def test_default_grid_contains_limits(self):
        assert 1.0 in DEFAULT_ALPHA_GRID
        assert float("inf") in DEFAULT_ALPHA_GRID

    def test_quantum_verdicts_match_a_per_order_loop(self):
        grids = [None, [2.0, 0.3, INF, 0.5, 1.0, 0.0, 7.5]]
        kinds = set()
        for n, (src, dst, beta) in enumerate(_quantum_pairs()):
            for grid in grids:
                with np.errstate(over="ignore"):  # sum mu ** 100 overflows at d = 8
                    got = catalytic_necessary(src, dst, beta, alpha_grid=grid).to_json()
                    want = _loop_necessary(src, dst, beta, grid)
                assert json.dumps(got) == json.dumps(want), n
                kinds.add((got["status"], (got["witness"] or {}).get("alpha")))
        assert len(kinds) >= 4  # undetermined, and refuted at several orders

    def test_quantum_inputs_drop_small_alpha_certificates(self):
        # data processing below alpha = 1/2 is unsound for non-commuting
        # states, so those grid points must not produce Infeasible verdicts
        plus = np.full((2, 2), 0.5)
        ham = HamiltonianClass(np.diag([0.0, 1.0]))
        src = ThermoObject(plus, ham)
        dst = ThermoObject(np.diag([0.0, 1.0]).astype(complex), ham)
        assert catalytic_necessary(src, dst, 1.0, alpha_grid=[0.01]).is_undetermined
        assert catalytic_necessary(src, dst, 1.0, alpha_grid=[2.0]).is_infeasible


class TestCatalyticBruteforce:
    def test_direct_transition_needs_no_catalyst(self):
        c = ClassicalObject([0.8, 0.2], [0.0, 1.0])
        omega = classical_gibbs(c.energies, 1.0)
        verdict = catalytic_bruteforce(c, omega, 1.0)
        assert verdict.is_feasible
        assert verdict.witness["catalyst_probs"] == [1.0]

    def test_jonathan_plenio_catalyst_found(self):
        verdict = catalytic_bruteforce(JP_SRC, JP_DST, 1.0, max_cat_dim=2, grid_steps=64)
        assert verdict.is_feasible
        probs = np.asarray(verdict.witness["catalyst_probs"], dtype=float)
        assert len(probs) == 2
        assert abs(probs[0] - 0.6) < 0.05
        assert revalidate_catalyst(verdict, JP_SRC, JP_DST, 1.0)

    def test_no_catalyst_witness_revalidates_as_the_direct_check(self):
        cases, decided = golden_corpus(), 0
        for name, src, dst, beta in cases:
            direct = thermo_majorizes(src, dst, beta).is_feasible
            verdict = catalytic_bruteforce(src, dst, beta, max_cat_dim=2, grid_steps=4)
            if verdict.is_feasible and verdict.witness.get("note") == "no catalyst needed":
                assert direct and revalidate_catalyst(verdict, src, dst, beta), name
                decided += 1
            forged = FeasibilityVerdict(Status.FEASIBLE, {
                "kind": "catalyst", "catalyst_probs": [1.0], "catalyst_energies": [0.0]})
            assert revalidate_catalyst(forged, src, dst, beta) is direct, name
        assert 0 < decided < len(cases)

    def test_never_claims_infeasible(self):
        omega = classical_gibbs([0.0, 1.0], 1.0)
        target = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        assert catalytic_bruteforce(omega, target, 1.0, grid_steps=8).is_undetermined

    def test_cost_guard(self):
        with pytest.raises(ValueError, match="guard"):
            catalytic_bruteforce(JP_SRC, JP_DST, 1.0, max_cat_dim=5)
        with pytest.raises(ValueError, match="guard"):
            catalytic_bruteforce(JP_SRC, JP_DST, 1.0, grid_steps=100)

    @pytest.mark.parametrize("budget", [{"grid_steps": 0}, {"grid_steps": -3},
                                        {"max_cat_dim": 0}, {"max_cat_dim": -1}])
    def test_empty_budget_is_refused(self, budget):
        # no catalyst to try: the search would report Undetermined having tested nothing
        with pytest.raises(ValueError, match="guard"):
            catalytic_bruteforce(JP_SRC, JP_DST, 1.0, **budget)
        with pytest.raises(ValueError, match="guard"):
            decide_catalytic(JP_SRC, JP_DST, 1.0, **budget)

    @pytest.mark.parametrize("budget", [{"max_cat_dim": 9}, {"max_cat_dim": 0},
                                        {"grid_steps": 0}, {"grid_steps": 65}])
    def test_budget_is_checked_whatever_stage_would_decide(self, budget):
        c = ClassicalObject([0.8, 0.2], [0.0, 1.0])
        omega = classical_gibbs(c.energies, 1.0)
        plus = ThermoObject(np.full((2, 2), 0.5), HamiltonianClass(np.diag([0.0, 1.0])))
        pairs = [(c, omega), (omega, c), (JP_SRC, JP_DST),
                 (plus, gibbs_state(plus.hamiltonian, 1.0))]
        # with the default budget: decided directly, by a monotone and by the search
        assert [decide_catalytic(s, d, 1.0).witness["kind"] for s, d in pairs[:3]] == [
            "curve_dominance", "monotone_increase", "catalyst"]
        for src, dst in pairs:
            with pytest.raises(ValueError, match="cost guard"):
                decide_catalytic(src, dst, 1.0, **budget)

    @pytest.mark.parametrize(("max_cat_dim", "grid_steps"), [(2, 1), (3, 2), (4, 3), (4, 1)])
    def test_grid_without_catalysts_of_a_dimension_is_exhausted(self, max_cat_dim, grid_steps):
        # no partition of grid_steps into max_cat_dim positive parts: nothing to try there
        assert _catalyst_probs(max_cat_dim, grid_steps).shape == (0, max_cat_dim)
        verdict = catalytic_bruteforce(JP_SRC, JP_DST, 1.0, max_cat_dim, grid_steps)
        assert verdict.is_undetermined
        assert decide_catalytic(JP_SRC, JP_DST, 1.0, max_cat_dim, grid_steps).is_undetermined


class TestPipeline:
    def test_order_necessary_beats_bruteforce(self):
        omega = classical_gibbs([0.0, 1.0], 1.0)
        target = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        verdict = decide_catalytic(omega, target, 1.0)
        assert verdict.is_infeasible
        assert verdict.witness["kind"] == "monotone_increase"

    def test_jp_pair_resolved_catalytically(self):
        verdict = decide_catalytic(JP_SRC, JP_DST, 1.0, grid_steps=64)
        assert verdict.is_feasible
        assert verdict.witness["kind"] == "catalyst"

    def test_free_feasible_short_circuits(self):
        c = ClassicalObject([0.8, 0.2], [0.0, 1.0])
        omega = classical_gibbs(c.energies, 1.0)
        assert decide_catalytic(c, omega, 1.0).witness["kind"] == "curve_dominance"

    def test_quantum_inputs_route_to_monotones(self):
        plus = np.full((2, 2), 0.5)
        p = ThermoObject(plus, HamiltonianClass(np.diag([0.0, 1.0])))
        excited = ThermoObject(np.diag([0.0, 1.0]), HamiltonianClass(np.diag([0.0, 1.0])))
        verdict = decide_catalytic(p, excited, 1.0)
        assert verdict.status in (Status.INFEASIBLE, Status.UNDETERMINED)

    def test_every_decider_refuses_a_non_interacting_object_with_one_type_error(self):
        obj = classical_to_object(ClassicalObject([0.4, 0.1, 0.1, 0.4], np.zeros(4)))
        zero = HamiltonianClass(np.zeros((2, 2)))
        ni = NonInteractingObject(obj, (2, 2), (zero, zero))
        message = "expected a classical or diagonal object, got NonInteractingObject"
        for decider in (thermo_majorizes, decide_free, decide_catalytic, catalytic_necessary):
            for src, dst in ((ni, obj), (obj, ni), (ni, ni)):
                with pytest.raises(TypeError, match=message):
                    decider(src, dst, 1.0)

    def test_decide_free_matches_majorization(self):
        rng = rng_from_seed(11)
        for _ in range(10):
            a = random_classical_object(rng, 3)
            b = random_classical_object(rng, 3)
            b = ClassicalObject(b.probs, a.energies)
            assert decide_free(a, b, 1.0).status == thermo_majorizes(a, b, 1.0).status


class TestCorrelatedCatalytic:
    def _bipartite(self, joint, da=2, db=2):
        probs = np.asarray(joint, dtype=float).ravel()
        obj = classical_to_object(ClassicalObject(probs, np.zeros(da * db)))
        zero = HamiltonianClass(np.zeros((da, da))), HamiltonianClass(np.zeros((db, db)))
        return NonInteractingObject(obj, (da, db), zero)

    def test_product_input_identity_witness(self):
        p = np.outer([0.3, 0.7], [0.6, 0.4])
        verdict = correlated_catalytic_check(self._bipartite(p), 1.0)
        assert verdict.is_feasible
        assert verdict.witness["identity"] is True

    def test_correlated_input_decorrelates(self):
        verdict = correlated_catalytic_check(self._bipartite([0.4, 0.1, 0.1, 0.4]), 1.0)
        assert verdict.is_feasible
        assert verdict.witness["kind"] == "marginal-preserving"
        assert verdict.witness["identity"] is False

    def test_arbitrary_target_undetermined(self):
        src = self._bipartite([0.4, 0.1, 0.1, 0.4])
        other = classical_to_object(ClassicalObject([0.7, 0.1, 0.1, 0.1], np.zeros(4)))
        assert correlated_catalytic_check(src, 1.0, dst=other).is_undetermined

    def test_decorrelation_never_raises_free_energy(self):
        rng = rng_from_seed(12)
        beta = 1.0
        for _ in range(100):
            joint = rng.dirichlet(np.ones(4))
            ni = self._bipartite(joint)
            before = delta_F_alpha(ni.obj, beta, 1.0)
            product = tensor(partial_trace(ni, [0]), partial_trace(ni, [1]))
            after = delta_F_alpha(product, beta, 1.0)
            assert after <= before + 1e-9


class TestAssistedComposition:
    def test_mapping_time_to_space_on_swap_instances(self):
        rng = rng_from_seed(13)
        beta = 1.0
        for _ in range(20):
            p = random_classical_object(rng, 2)
            q = random_classical_object(rng, 2)
            c = random_classical_object(rng, 2)
            # p -> c assisted by (c, p); q -> p assisted by (p, q) [both swaps]
            first = thermo_majorizes(classical_tensor(p, c), classical_tensor(c, p), beta)
            second = thermo_majorizes(classical_tensor(q, p), classical_tensor(p, q), beta)
            assert first.is_feasible and second.is_feasible
            # composite: p (x) q -> c (x) p assisted by (c, q)
            composite = thermo_majorizes(
                classical_tensor(classical_tensor(p, q), c),
                classical_tensor(classical_tensor(c, p), q), beta)
            assert composite.is_feasible


def _loop_accepts(src, dst, beta, cat_dim, grid_steps):
    """Indices of the catalysts of one dimension that the per-catalyst check
    accepts: the reference for the screen."""
    cats = [ClassicalObject(row, np.zeros(cat_dim)) for row in _catalyst_probs(cat_dim, grid_steps)]
    return [i for i, cat in enumerate(cats)
            if thermo_majorizes(classical_tensor(src, cat), classical_tensor(dst, cat),
                                beta).is_feasible]


def _pair_screen(src, dst, beta, cat_dim, grid_steps) -> list:
    """The catalysts _screen keeps for one pair."""
    return [index for _, index in _table_screen(src, dst, beta, cat_dim, grid_steps, cat_dim)]


def _table_screen(src, dst, beta, top, grid_steps, lo=2) -> list:
    """The (dimension, index) of the catalysts of dimensions lo..top that the one-table
    _screen keeps for one pair."""
    rows = _Rows([src, dst], beta).pairs([0], [1], top)
    return [(k, index) for _, k, index in _screen(*rows, lo, top, grid_steps)]


def _loop_decide(src, dst, beta, max_cat_dim, grid_steps):
    """decide_catalytic with one scalar order and one catalyst at a time: the
    reference for the batched orders and the screened catalyst search."""
    direct = thermo_majorizes(src, dst, beta)
    if direct.is_feasible:
        return direct
    for alpha in DEFAULT_ALPHA_GRID:
        necessary = catalytic_necessary(src, dst, beta, alpha_grid=[alpha])
        if necessary.is_infeasible:
            return necessary
    return _loop_search(src, dst, beta, max_cat_dim, grid_steps)


def _loop_search(src, dst, beta, max_cat_dim, grid_steps):
    """The catalyst search one dimension and one catalyst at a time."""
    for cat_dim in range(2, max_cat_dim + 1):
        for row in _catalyst_probs(cat_dim, grid_steps):
            cat = ClassicalObject(row, np.zeros(cat_dim))
            joint = thermo_majorizes(classical_tensor(src, cat), classical_tensor(dst, cat), beta)
            if joint.is_feasible:
                return FeasibilityVerdict(Status.FEASIBLE, {
                    "kind": "catalyst",
                    "catalyst_probs": cat.probs,
                    "catalyst_energies": cat.energies,
                    "joint_margin": joint.witness["min_margin"],
                })
    return UNDETERMINED


#: (max_cat_dim, grid_steps) of the screen comparisons, cycled over the corpus.
SCREEN_SETTINGS = ((2, 8), (3, 16), (4, 8), (2, 64), (3, 32), (4, 16))


def _setting(n: int, src) -> tuple:
    return (2, 8) if src.dim > 64 else SCREEN_SETTINGS[n % len(SCREEN_SETTINGS)]


def _screen_corpus() -> list:
    """(name, src, dst, beta): the golden pairs, random energies, near-tie
    chains and Gibbs weights that underflow to 0."""
    cases = list(golden_corpus())
    rng = rng_from_seed(31)
    for i in range(30):
        d = int(rng.integers(2, 6))
        cases.append((f"random-{i}", random_classical_object(rng, d, energy_scale=3.0),
                       random_classical_object(rng, d, energy_scale=3.0), 1.0))
    for d in (2, 8, 64):
        for gap in (0.3e-9, 0.9e-9, 2e-9):  # neighbouring ratios within and past the tie tolerance
            energies = rng.uniform(0.0, 2.0, size=d) if d > 2 else np.zeros(d)
            gibbs = classical_gibbs(energies, 1.0)
            probs = gibbs.probs * (1 + gap * (np.arange(d) - (d - 1) / 2))
            chain = ClassicalObject(probs / probs.sum(), energies)
            cases.append((f"chain-d{d}-{gap}", gibbs, chain, 1.0))
            cases.append((f"chain-d{d}-{gap}-reverse", chain, gibbs, 1.0))
    hard = 0
    while hard < 12:  # trivial Hamiltonian, not majorized, no monotone refutes: catalyst search
        d = int(rng.integers(3, 5))
        src = ClassicalObject(rng.dirichlet(np.ones(d)), np.zeros(d))
        dst = ClassicalObject(rng.dirichlet(np.ones(d)), np.zeros(d))
        if (not thermo_majorizes(src, dst, 1.0).is_feasible
                and catalytic_necessary(src, dst, 1.0).is_undetermined):
            cases.append((f"hard-{hard}", src, dst, 1.0))
            hard += 1
    # one run of two ties, 5e-10 above its chord: accepted, with an untied deficit of 2.5e-10
    tied = ClassicalObject([0.5 * (1 + 5e-10), 0.5 * (1 - 5e-10)], np.zeros(2))
    cases.append(("tied-pair", classical_gibbs(np.zeros(2), 1.0), tied, 1.0))
    tied_jp = ClassicalObject([0.4 * (1 + 5e-10), 0.4 * (1 - 5e-10), 0.1, 0.1], np.zeros(4))
    cases.append(("jonathan-plenio-near-tie", JP_SRC, tied_jp, 1.0))
    for i in range(8):
        d = int(rng.integers(2, 5))
        energies = np.concatenate([rng.uniform(0.0, 1.0, size=d), [rng.uniform(745.0, 820.0)]])
        src_p, dst_p = rng.dirichlet(np.ones(d + 1)), rng.dirichlet(np.ones(d + 1))
        if i % 2:
            src_p[-1] = dst_p[-1] = 0.0
        cases.append((f"underflow-{i}", ClassicalObject(src_p / src_p.sum(), energies),
                      ClassicalObject(dst_p / dst_p.sum(), energies), 1.0))
    return cases


class TestOrderGrid:
    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_invalid_order_anywhere_in_grid_is_refused(self, bad):
        omega = classical_gibbs([0.0, 1.0], 1.0)
        target = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        # the first order decides, so an early exit never reaches the second
        assert catalytic_necessary(omega, target, 1.0, alpha_grid=[0.5]).is_infeasible
        with pytest.raises(ValueError, match="alpha"):
            catalytic_necessary(omega, target, 1.0, alpha_grid=[0.5, bad])
        with pytest.raises(ValueError, match="alpha"):
            decide_catalytic(omega, target, 1.0, alpha_grid=[0.5, bad])
        with pytest.raises(ValueError, match="alpha"):
            decide_catalytic(target, omega, 1.0, alpha_grid=[bad])  # decided directly

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_quantum_inputs_refuse_invalid_orders(self, bad):
        # the grid is cut to alpha >= 1/2 for non-commuting inputs; a bad order
        # must not vanish in the cut
        ham = HamiltonianClass(np.diag([0.0, 1.0]))
        src = ThermoObject(np.full((2, 2), 0.5), ham)
        dst = ThermoObject(np.diag([0.0, 1.0]).astype(complex), ham)
        with pytest.raises(ValueError, match="alpha"):
            catalytic_necessary(src, dst, 1.0, alpha_grid=[2.0, bad])
        with pytest.raises(ValueError, match="alpha"):
            decide_catalytic(src, dst, 1.0, alpha_grid=[2.0, bad])


class TestPreparedFreeEnergies:
    ORDERS = DEFAULT_ALPHA_GRID + (0.0, 0.5, 2.0, 3.0)

    def _objects(self):
        rng = rng_from_seed(41)
        objs = [random_classical_object(rng, d, energy_scale=scale)
                for d in (1, 2, 3, 4, 7, 16, 64, 255, 1024) for scale in (0.5, 5.0)]
        energies = np.array([0.0, 0.5, 800.0])
        objs += [ClassicalObject([0.5, 0.5, 0.0], energies),
                 ClassicalObject([0.5, 0.3, 0.2], energies)]
        return objs

    def test_batch_matches_delta_F_alpha_bit_for_bit(self):
        for obj in self._objects():
            rows = _Rows([obj], 1.0)
            batch = rows.free(self.ORDERS)[0]  # every order from the batch
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = [repr(delta_F_alpha(obj, 1.0, alpha)) for alpha in self.ORDERS]
            assert [repr(float(v)) for v in batch] == want
            assert [repr(float(rows.free((alpha,))[0, 0])) for alpha in self.ORDERS] == want

    def test_overflowed_power_sum_is_finite(self):
        # p ** 100 underflows to 0 and q ** -99 overflows on some levels: the power
        # sum is NaN, and the log domain gives the value
        obj = random_classical_object(rng_from_seed(42), 1024)
        want = _mp_renyi(obj.probs, obj.gibbs_weights(1.0), 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert delta_F_alpha(obj, 1.0, 100.0) == pytest.approx(want, rel=1e-12)
        rows = _Rows([obj], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows.free(DEFAULT_ALPHA_GRID)
        assert DEFAULT_ALPHA_GRID[39] == 100.0
        assert float(rows.free((100.0,))[0, 0]) == pytest.approx(want, rel=1e-12)

    def test_quantum_objects_fill_every_order_in_one_batch(self):
        ham = HamiltonianClass(np.diag([0.0, 1.0]))
        obj = ThermoObject(np.full((2, 2), 0.5), ham)
        prep = _Prepared(obj, 1.0)
        want = [repr(delta_F_alpha(obj, 1.0, alpha)) for alpha in self.ORDERS]
        assert [repr(float(v)) for v in prep.free(self.ORDERS)[0]] == want
        assert [repr(float(prep.free((alpha,))[0, 0])) for alpha in self.ORDERS] == want


class TestCatalystScreen:
    def test_screen_keeps_every_catalyst_the_loop_accepts(self):
        accepted = screened = total = 0
        for n, (name, src, dst, beta) in enumerate(_screen_corpus()):
            cat_dim, steps = _setting(n, src)
            want = _loop_accepts(src, dst, beta, cat_dim, steps)
            got = _pair_screen(src, dst, beta, cat_dim, steps)
            assert set(want) <= set(got), name
            assert got == sorted(set(got)), name
            accepted, screened = accepted + len(want), screened + len(got)
            total += len(_catalyst_probs(cat_dim, steps))
        assert 0 < accepted <= screened < total

    def test_decide_matches_the_per_catalyst_loop(self):
        for n, (name, src, dst, beta) in enumerate(_screen_corpus()):
            cat_dim, steps = _setting(n, src)
            got = decide_catalytic(src, dst, beta, max_cat_dim=cat_dim, grid_steps=steps)
            want = _loop_decide(src, dst, beta, cat_dim, steps)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()), name

    def test_table_screen_keeps_every_catalyst_the_loop_accepts(self, monkeypatch):
        accepted = screened = total = 0
        for n, (name, src, dst, beta) in enumerate(_screen_corpus()):
            top, steps = _setting(n, src)
            want = {(k, index) for k in range(2, top + 1)
                    for index in _loop_accepts(src, dst, beta, k, steps)}
            got = _table_screen(src, dst, beta, top, steps)
            assert want <= set(got), name
            assert got == sorted(set(got)), name  # in search order
            with monkeypatch.context() as m:
                m.setattr(feasibility, "_SCREEN_LEVELS", 1)  # one catalyst per chunk
                assert _table_screen(src, dst, beta, top, steps) == got, name
            accepted, screened = accepted + len(want), screened + len(got)
            total += sum(len(_catalyst_probs(k, steps)) for k in range(2, top + 1))
        assert 0 < accepted <= screened < total

    def test_bruteforce_finds_the_first_catalyst_of_the_per_dimension_loop(self, monkeypatch):
        bases, cands = self._table()
        pairs = [(name, src, dst, beta, *_setting(n, src))
                 for n, (name, src, dst, beta) in enumerate(_screen_corpus())]
        pairs += [(f"table-{a}-{b}", classical_tensor(bases[0], cands[a]),
                   classical_tensor(bases[1], cands[b]), 1.0, top, 16)
                  for a, b in itertools.product(range(len(cands)), repeat=2) for top in (3, 4)]
        cases, found = [], set()
        for name, src, dst, beta, top, steps in pairs:
            if not thermo_majorizes(src, dst, beta).is_feasible:
                want = _loop_search(src, dst, beta, top, steps)
                cases.append((name, src, dst, beta, top, steps, json.dumps(want.to_json())))
                if want.is_feasible:
                    found.add(len(want.witness["catalyst_probs"]))
        assert found == {2, 3}
        for levels in (feasibility._SCREEN_LEVELS, 1):
            monkeypatch.setattr(feasibility, "_SCREEN_LEVELS", levels)
            for name, src, dst, beta, top, steps, want in cases:
                got = catalytic_bruteforce(src, dst, beta, max_cat_dim=top, grid_steps=steps)
                assert json.dumps(got.to_json()) == want, (name, levels)

    def test_slack_covers_merged_ties(self):
        # the exact check merges the two tied levels and accepts; every level
        # on its own gives a deficit above MAJORIZE_TOL
        tied = ClassicalObject([0.5 * (1 + 5e-10), 0.5 * (1 - 5e-10)], np.zeros(2))
        gibbs = classical_gibbs(np.zeros(2), 1.0)
        assert thermo_majorizes(gibbs, tied, 1.0).is_feasible
        assert tied.probs[0] - 0.5 > feasibility.MAJORIZE_TOL
        assert _pair_screen(gibbs, tied, 1.0, 2, 8) == [0, 1, 2, 3]

    def test_chunks_keep_enumeration_order(self, monkeypatch):
        rng = rng_from_seed(45)
        pairs = [(JP_SRC, JP_DST)] + [(random_classical_object(rng, 3),
                                       random_classical_object(rng, 3)) for _ in range(10)]
        whole = [_pair_screen(s, d, 1.0, 3, 32) for s, d in pairs]
        verdicts = [catalytic_bruteforce(s, d, 1.0, 3, 32).to_json() for s, d in pairs]
        monkeypatch.setattr(feasibility, "_SCREEN_LEVELS", 1)  # one catalyst per chunk
        assert [_pair_screen(s, d, 1.0, 3, 32) for s, d in pairs] == whole
        assert [catalytic_bruteforce(s, d, 1.0, 3, 32).to_json() for s, d in pairs] == verdicts
        assert any(whole)

    @staticmethod
    def _table():
        """Source and target bases and the candidates of a FiniteList, joint rows of 2
        to 8 levels: base (x) JP_SRC reaches base (x) JP_DST with a qubit catalyst,
        and base (x) the third object the fourth with a qutrit one only."""
        rng = rng_from_seed(46)
        objs = (JP_SRC, JP_DST, ClassicalObject([0.2735, 0.3535, 0.2923, 0.0807], np.zeros(4)),
                ClassicalObject([0.0995, 0.307, 0.3404, 0.2531], np.zeros(4)),
                ClassicalObject([0.5, 0.5], [0.0, 0.3]),
                ClassicalObject(rng.dirichlet(np.ones(4)), np.zeros(4)))
        base = ClassicalObject([0.8, 0.2], [0.0, 0.2])
        return (base, base), FiniteList(objs).candidates()

    @pytest.mark.parametrize(("cat_dim", "steps"), [(2, 32), (3, 16)])
    def test_screen_of_several_pairs_keeps_every_catalyst_the_loop_accepts(self, monkeypatch,
                                                                          cat_dim, steps):
        bases, cands = self._table()
        i, j = np.divmod(np.arange(len(cands) ** 2), len(cands))
        table, n = _Rows(cands, 1.0, bases), len(cands)
        sp, sg, dp, dg = table.pairs(range(n), range(n, 2 * n), cat_dim)
        assert sp.shape[1] == 8
        levels, joint_curves = [], feasibility._joint_curves

        def counted(joint, g):  # joint levels of one side, all rows
            levels.append(joint.size)
            return joint_curves(joint, g)

        monkeypatch.setattr(feasibility, "_joint_curves", counted)
        got = list(_screen(sp[i], sg[i], dp[j], dg[j], cat_dim, cat_dim, steps))
        assert got == sorted(set(got))  # pair by pair, in enumeration order
        assert levels and max(levels) <= feasibility._SCREEN_LEVELS
        accepted = 0
        for n, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
            want = _loop_accepts(classical_tensor(bases[0], cands[a]),
                                 classical_tensor(bases[1], cands[b]), 1.0, cat_dim, steps)
            assert set(want) <= {index for m, _, index in got if m == n}, n
            accepted += len(want)
        assert 0 < accepted <= len(got) < len(i) * len(_catalyst_probs(cat_dim, steps))
        monkeypatch.setattr(feasibility, "_SCREEN_LEVELS", 64)
        levels.clear()
        assert list(_screen(sp[i], sg[i], dp[j], dg[j], cat_dim, cat_dim, steps)) == got
        assert len(levels) > 2 and max(levels) <= 64

    def test_search_of_several_pairs_finds_each_first_catalyst(self, monkeypatch):
        bases, cands = self._table()
        pairs = list(itertools.product(range(len(cands)), repeat=2))
        want = []
        for a, b in pairs:
            src, dst = classical_tensor(bases[0], cands[a]), classical_tensor(bases[1], cands[b])
            want.append(next((_catalyst_probs(cat_dim, 16)[index].tolist() for cat_dim in (2, 3)
                              for index in _loop_accepts(src, dst, 1.0, cat_dim, 16)[:1]), None))

        def search():  # every pair, resumed after each pair found Feasible
            out, table = [], _Rows(cands, 1.0, bases)
            while len(out) < len(pairs):
                rest = pairs[len(out):]
                src, dst = [a for a, _ in rest], [len(cands) + b for _, b in rest]
                out += _search(lambda k: table.pairs(src, dst, k),
                               [(2 * cands[a].dim, 2 * cands[b].dim) for a, b in rest], 3, 16)
            return [v.witness["catalyst_probs"].tolist() if v.is_feasible else None for v in out]

        assert search() == want
        assert None in want and any(w and len(w) == 3 for w in want)  # Undetermined, a qutrit
        monkeypatch.setattr(feasibility, "_SCREEN_LEVELS", 1)  # one joint row per chunk
        assert search() == want

    def test_memory_is_bounded_at_the_cost_guards(self):
        big = random_classical_object(rng_from_seed(43), 1024, energy_scale=5.0)
        mixed = ClassicalObject(0.7 * big.probs + 0.3 * big.gibbs_weights(1.0), big.energies)
        assert len(_catalyst_probs(MAX_CAT_DIM, MAX_GRID_STEPS)) == 1906
        tracemalloc.start()
        try:
            verdict = catalytic_bruteforce(mixed, big, 1.0, max_cat_dim=MAX_CAT_DIM,
                                           grid_steps=MAX_GRID_STEPS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.is_undetermined
        # one chunk holds 2**16 joint levels per object; all 1906 catalysts at
        # once would take 1906 * 4097 * 8 bytes = 62 MB for each array
        assert 1e6 < peak < 32e6

    def test_tensor_cap_still_applies(self):
        pad = np.zeros(2045)
        src = ClassicalObject(np.concatenate([JP_SRC.probs, pad]), np.zeros(2049))
        dst = ClassicalObject(np.concatenate([JP_DST.probs, pad]), np.zeros(2049))
        with pytest.raises(ValueError, match="tensor product dimension 4098 exceeds cap 4096"):
            catalytic_bruteforce(src, dst, 1.0)

    @staticmethod
    def _padded(obj, dim):
        """obj with zero-probability levels at zero energy up to ``dim`` levels."""
        return ClassicalObject(np.concatenate([obj.probs, np.zeros(dim - obj.dim)]), np.zeros(dim))

    def test_cap_refuses_a_dimension_only_after_the_smaller_ones_found_nothing(self):
        src, dst = self._padded(JP_SRC, 1400), self._padded(JP_DST, 1400)
        assert 2 * src.dim <= MAX_TENSOR_DIM < 3 * src.dim
        verdict = catalytic_bruteforce(src, dst, 1.0, max_cat_dim=3)
        assert verdict.is_feasible and len(verdict.witness["catalyst_probs"]) == 2
        assert revalidate_catalyst(verdict, src, dst, 1.0)
        assert decide_catalytic(src, dst, 1.0, max_cat_dim=3).to_json() == verdict.to_json()
        # no catalyst of any dimension: the support cannot shrink
        with pytest.raises(ValueError, match="tensor product dimension 4200 exceeds cap 4096"):
            catalytic_bruteforce(dst, src, 1.0, max_cat_dim=3)

    def test_cap_of_several_pairs_binds_only_the_pairs_still_open(self):
        bases, cands = self._table()
        small = [classical_tensor(bases[0], cands[k]) for k in (3, 4)]  # a qutrit catalyst only
        big = [self._padded(p, 1400) for p in (JP_SRC, JP_DST)]
        one = ClassicalObject([1.0], [0.0])

        def search(pairs):  # _search on pairs of objects, as one table of rows
            n, objs = len(pairs), [s for s, _ in pairs] + [d for _, d in pairs]
            table = _Rows(objs, 1.0, (one,))
            return _search(lambda k: table.pairs(range(n), range(n, 2 * n), k),
                           [(s.dim, d.dim) for s, d in pairs], 3, 16)

        want = catalytic_bruteforce(*small, 1.0, max_cat_dim=3, grid_steps=16)
        assert len(want.witness["catalyst_probs"]) == 3
        got = search([tuple(small), tuple(big)])  # the big pair is found at dimension 2 first
        assert [v.to_json() for v in got] == [want.to_json()]
        assert [v.to_json() for v in search([tuple(big)])] == [
            catalytic_bruteforce(*big, 1.0, max_cat_dim=3, grid_steps=16).to_json()]
        with pytest.raises(ValueError, match="tensor product dimension 4200 exceeds cap 4096"):
            search([tuple(small[::-1]), tuple(big[::-1])])  # neither has a catalyst

    def test_no_runtime_warning_from_the_array_paths(self):
        jp_src, jp_dst = JP_SRC.probs, JP_DST.probs
        underflow = np.array([0.0, 0.0, 0.0, 0.0, 800.0])  # Gibbs weight exp(-800) = 0
        rare = np.array([0.0, 0.0, 0.0, 0.0, 9.0])  # Gibbs weight ~3e-5: q ** -99 overflows
        pairs = [
            (np.concatenate([jp_src, [0.0]]), np.concatenate([jp_dst, [0.0]]), underflow),
            (np.concatenate([0.9 * jp_src, [0.1]]), np.concatenate([0.9 * jp_dst, [0.1]]),
             underflow),
            (np.concatenate([0.999 * jp_src, [1e-3]]), np.concatenate([0.999 * jp_dst, [1e-3]]),
             rare),
            (np.concatenate([(1 - 1e-5) * jp_src, [1e-5]]),
             np.concatenate([(1 - 1e-5) * jp_dst, [1e-5]]), rare),  # 0 * inf
        ]
        pairs = [(ClassicalObject(s, e), ClassicalObject(d, e)) for s, d, e in pairs]
        for src, _ in pairs[2:]:
            with warnings.catch_warnings():  # nor does the one-order formula at alpha = 100
                warnings.simplefilter("error")
                delta_F_alpha(src, 1.0, 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [decide_catalytic(s, d, 1.0, grid_steps=64) for s, d in pairs]
        assert [v.witness["kind"] for v in verdicts] == ["catalyst"] * 4

    def test_interp_rows_matches_np_interp(self):
        rng = rng_from_seed(44)
        for _ in range(50):
            n, k, m = (int(v) for v in rng.integers(1, 12, size=3))
            steps = rng.random((n, k)) * (rng.random((n, k)) < 0.7)  # some vertical segments
            xp = np.concatenate([np.zeros((n, 1)), np.cumsum(steps, axis=1)], axis=1)
            fp = np.concatenate([np.zeros((n, 1)), np.cumsum(rng.random((n, k)), axis=1)], axis=1)
            hits = xp[np.arange(n)[:, None], rng.integers(0, k + 1, size=(n, 3))]
            x = np.sort(np.concatenate([rng.random((n, m)) * (xp[:, -1:] + 0.5), hits], axis=1),
                        axis=1)
            want = np.array([np.interp(x[r], xp[r], fp[r]) for r in range(n)])
            assert np.allclose(_interp_rows(x, xp, fp), want, rtol=1e-12, atol=1e-12)

    def test_interp_rows_keeps_the_bytes_of_the_scatter_formulation(self):
        rng = rng_from_seed(45)
        past = edges = flat = 0  # queries past the last point, on a point, on a zero-width step
        for _ in range(200):
            n, k, m = (int(v) for v in rng.integers(1, 14, size=3))
            steps = rng.random((n, k)) * (rng.random((n, k)) < 0.7)  # zero steps: ties in xp
            xp = np.concatenate([np.zeros((n, 1)), np.cumsum(steps, axis=1)], axis=1)
            fp = np.concatenate([np.zeros((n, 1)), np.cumsum(rng.random((n, k)), axis=1)], axis=1)
            hits = xp[np.arange(n)[:, None], rng.integers(0, k + 1, size=(n, 3))]
            beyond = xp[:, -1:] + rng.random((n, 2))
            x = np.sort(np.concatenate([rng.random((n, m)) * (xp[:, -1:] + 0.5), hits, beyond],
                                       axis=1), axis=1)
            assert _interp_rows(x, xp, fp).tobytes() == _scatter_interp_rows(x, xp, fp).tobytes()
            past += int((x > xp[:, -1:]).sum())
            edges += sum(np.isin(x[r], xp[r]).sum() for r in range(n))
            flat += sum(np.isin(x[r], xp[r][1:][np.diff(xp[r]) == 0]).sum() for r in range(n))
        assert past and edges and flat


def _unshared(src, dst, beta):
    """_pair without its sharing: the reference every pair must decide as."""
    return tuple(_Rows([x], beta) if isinstance(x, ClassicalObject) else _Prepared(x, beta)
                 for x in (src, dst))


def _twins(first, second) -> bool:
    """Whether the sides of a _pair share one Gibbs state."""
    return isinstance(first, _Prepared) and isinstance(second, _Prepared) and (
        second.sigma is first.sigma)


def _decisions(src, dst, beta) -> str:
    """JSON text of the verdicts of every public decider that prepares a pair."""
    calls = [catalytic_necessary, decide_catalytic]
    if isinstance(src, ClassicalObject):
        calls += [thermo_majorizes, catalytic_bruteforce]
    with np.errstate(over="ignore"):  # sum mu ** 100 overflows at d = 8
        return json.dumps([f(src, dst, beta).to_json() for f in calls])


def _one_ulp_up(ham: HamiltonianClass) -> HamiltonianClass:
    m = np.array(ham.matrix)
    m[0, 0] = np.nextafter(m[0, 0].real, np.inf)
    return HamiltonianClass(m)


class TestPreparedTwins:
    def _hamiltonians(self):
        """d = 1..32, and degenerate spectra: all levels equal, and levels in
        equal pairs in a random basis."""
        rng = rng_from_seed(47)
        hams = [random_hamiltonian(rng, d, scale=float(rng.uniform(0.3, 3.0))) for d in range(1, 33)]
        for d in (1, 2, 5, 16, 32):
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            basis = np.linalg.qr(z)[0]
            levels = np.repeat(rng.uniform(0.0, 3.0, size=(d + 1) // 2), 2)[:d]
            hams += [HamiltonianClass(np.zeros((d, d))),
                     HamiltonianClass((basis * levels) @ basis.conj().T)]
        return hams

    def _classical_pairs(self):
        rng = rng_from_seed(48)
        pairs = [(JP_SRC, JP_DST, 1.0)]
        for d in (1, 2, 3, 4, 7, 64):
            energies = rng.uniform(0.0, 3.0, size=d)
            src, dst = (ClassicalObject(rng.dirichlet(np.ones(d)), energies) for _ in range(2))
            pairs += [(src, dst, 1.0), (dst, src, 0.7), (src, classical_gibbs(energies, 1.3), 1.3)]
        return pairs

    def test_gibbs_state_is_that_of_gibbs_state_to_the_bit(self):
        degenerate = 0
        for ham in self._hamiltonians():
            obj = ThermoObject(np.eye(ham.dim) / ham.dim, ham)
            for beta in (0.3, 1.0, 4.0):
                assert _Prepared(obj, beta).sigma.tobytes() == gibbs_state(ham, beta).state.tobytes()
            degenerate += ham.dim > 1 and bool(np.any(np.diff(ham.eigenvalues()) < 1e-9))
        assert degenerate >= 8

    def test_twins_share_and_fill_free_as_alone(self):
        orders = DEFAULT_ALPHA_GRID + (0.0, 0.5, 2.0, 3.0)
        for src, dst, beta in _quantum_pairs():
            first, second = _pair(src, dst, beta)
            assert _twins(first, second)
            alone = _Prepared(dst, beta)
            with np.errstate(over="ignore"):
                assert [repr(v) for v in second.free(orders)[0]] == [
                    repr(v) for v in alone.free(orders)[0]]
        for src, dst, beta in self._classical_pairs():  # a two-row table, its target row
            rows, alone = _Rows([src, dst], beta), _Rows([dst], beta)
            assert [repr(v) for v in rows.free(orders)[1]] == [
                repr(v) for v in alone.free(orders)[0]]
            for k in (1, 2, 4):
                assert rows.gibbs(k)[1].tobytes() == alone.gibbs(k)[0].tobytes()

    def test_twins_decide_as_an_unshared_pair(self, monkeypatch):
        pairs = _quantum_pairs() + self._classical_pairs()
        shared = [_decisions(*pair) for pair in pairs]
        monkeypatch.setattr(feasibility, "_pair", _unshared)
        assert [_decisions(*pair) for pair in pairs] == shared

    def test_nearly_equal_hamiltonians_are_not_twins(self, monkeypatch):
        rng = rng_from_seed(49)
        cases = []
        for d in (2, 3, 8):  # one ulp apart: equal as HamiltonianClass has it
            ham = random_hamiltonian(rng, d)
            near = _one_ulp_up(ham)
            assert near == ham and near.matrix.tobytes() != ham.matrix.tobytes()
            rho = random_density_matrix(rng, d)
            cases += [(ThermoObject(rho, ham), ThermoObject(random_density_matrix(rng, d), near)),
                      (ThermoObject(rho, ham), gibbs_state(near, 1.0))]
        for d in (2, 3, 4):  # shifted by a constant, or one ulp apart: equal as == has it
            energies = rng.uniform(0.0, 3.0, size=d)
            probs = rng.dirichlet(np.ones(d))
            for other in (energies + 1.5, np.nextafter(energies, np.inf)):
                assert ClassicalObject(probs, other) == ClassicalObject(probs, energies)
                cases += [(ClassicalObject(probs, energies),
                           ClassicalObject(rng.dirichlet(np.ones(d)), other)),
                          (ClassicalObject(probs, other), classical_gibbs(energies, 1.0))]
        cases.append((JP_SRC, ClassicalObject(JP_DST.probs, JP_DST.energies + 1.0)))
        for src, dst in cases:
            assert not _twins(*_pair(src, dst, 1.0))
        decided = [_decisions(src, dst, 1.0) for src, dst in cases]
        monkeypatch.setattr(feasibility, "_pair", _unshared)
        assert [_decisions(src, dst, 1.0) for src, dst in cases] == decided

    def test_a_shared_hamiltonian_is_decomposed_once(self, monkeypatch):
        # one eigh of H and one of the Gibbs state; one eigvalsh per order and side, counted
        # as the matrices each call decomposes
        rng = rng_from_seed(50)
        ham = random_hamiltonian(rng, 16)
        rho = random_density_matrix(rng, 16)
        src = ThermoObject(rho, ham)
        dst = ThermoObject(0.5 * rho + 0.5 * gibbs_state(ham, 1.0).state, ham)  # a Gibbs-preserving image
        orders = sum(alpha >= 0.5 for alpha in DEFAULT_ALPHA_GRID)
        calls = {"eigh": 0, "eigvalsh": []}

        def eigh(*args, _f=np.linalg.eigh, **kwargs):
            calls["eigh"] += 1
            return _f(*args, **kwargs)

        def eigvalsh(a, *args, _f=np.linalg.eigvalsh, **kwargs):
            calls["eigvalsh"].append(math.prod(np.shape(a)[:-2]))
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        # each round: one call per chunk of both sides' sandwiches (a chunk holds 64
        # matrices of 16 x 16), then one for each state at alpha = 1
        for s, t, status, eigvalsh, per_call in (
                (dst, src, Status.INFEASIBLE, 2, [2]),
                (src, dst, Status.UNDETERMINED, 2 * orders, [2, 2 * (orders - 2), 1, 1])):
            calls.update(eigh=0, eigvalsh=[])
            assert catalytic_necessary(s, t, 1.0).status is status
            assert calls["eigh"] == 2 and sum(calls["eigvalsh"]) == eigvalsh
            assert calls["eigvalsh"] == per_call
        assert 2 * orders == 50

    def test_a_signed_zero_makes_no_twins(self):
        plus = HamiltonianClass(np.diag([0.0, 1.0]))
        m = np.array(plus.matrix)
        m[0, 1] = m[1, 0] = -0.0
        minus = HamiltonianClass(m)  # equal to plus by value, not bit for bit
        assert np.array_equal(minus.matrix, plus.matrix)
        assert minus.matrix.tobytes() != plus.matrix.tobytes()
        cases = [(ThermoObject(np.eye(2) / 2, plus), gibbs_state(minus, 1.0)),
                 (ClassicalObject([0.5, 0.5], [0.0, 1.0]), ClassicalObject([0.3, 0.7], [-0.0, 1.0]))]
        for src, dst in cases:
            assert not _twins(*_pair(src, dst, 1.0))

    def test_twins_are_found_without_copying_the_hamiltonians(self, monkeypatch):
        rng = rng_from_seed(52)
        z = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        src, dst = (ThermoObject(random_density_matrix(rng, 256), HamiltonianClass(z + z.conj().T))
                    for _ in range(2))
        assert src.hamiltonian.matrix is not dst.hamiltonian.matrix
        twins = []  # the twin each side is made with; no Gibbs state is made
        with monkeypatch.context() as patch:
            patch.setattr(feasibility, "_Prepared",
                          lambda obj, beta, twin=None: twins.append(twin) or obj)
            tracemalloc.start()
            try:
                _pair(src, dst, 1.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert twins[0] is None and twins[1] is src and _twins(*_pair(src, dst, 1.0))
        assert peak < src.hamiltonian.matrix.nbytes  # 1 MB; a copy of each takes 2 MB

    def test_a_forward_check_holds_a_few_matrices_at_a_time(self):
        # at d = 128 one sandwich fills the 256 KB a chunk may take, so the kernel holds one
        # order of one state at a time: the twins' 48 sandwiches at once would take 50 matrices
        rng = rng_from_seed(54)
        ham = random_hamiltonian(rng, 128, scale=0.125)
        rho = random_density_matrix(rng, 128)
        src = ThermoObject(rho, ham)
        dst = ThermoObject(0.5 * rho + 0.5 * gibbs_state(ham, 1.0).state, ham)
        matrix = rho.nbytes
        tracemalloc.start()
        try:
            verdict = catalytic_necessary(src, dst, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.status is Status.UNDETERMINED  # every order computed, none leaks
        assert np.linalg.eigvalsh(gibbs_state(ham, 1.0).state)[0] > 1e-12
        assert peak < 8 * matrix  # 7.3: the Gibbs state, its eigh, the support, a chunk's four

    def test_the_two_state_twin_call_is_delta_f_alpha_per_side(self, monkeypatch):
        # 48 orders other than 0 and 1 take 2, 6, 16 and 24 chunks at d = 16, 32, 48 and 64
        # for twins; rank-1 states have negative sandwich eigenvalues; a Gibbs level at
        # exp(-40) or below is in the kernel
        orders = [0.0, 0.2, 1 / 3, 0.5, 1.0, 2.0, 3.0, 150.0, INF, *DEFAULT_ALPHA_GRID]
        rng = rng_from_seed(53)
        pairs = []
        for d, beta in itertools.product((1, 2, 3, 8, 16, 32, 48, 64), (0.5, 1.0, 2.0)):
            ham = random_hamiltonian(rng, d, scale=float(rng.uniform(0.3, 3.0)))
            pairs.append((*(ThermoObject(random_density_matrix(rng, d, rank), ham)
                            for rank in (1, d)), beta))
        for d, beta in itertools.product((2, 3, 8), (0.5, 1.0, 2.0)):
            basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
            ham = HamiltonianClass((basis * np.r_[rng.uniform(0.0, 1.0, d - 1), 80.0]) @ basis.conj().T)
            inside = basis[:, :-1] @ random_density_matrix(rng, d - 1) @ basis[:, :-1].conj().T
            out = ThermoObject(inside / np.real(np.trace(inside)), ham)
            pairs += [(out, ThermoObject(random_density_matrix(rng, d), ham), beta)]
        stacks, matrices = [], []

        def sandwiched(rhos, *args, _f=feasibility._sandwiched):
            stacks.append(len(rhos))
            return _f(rhos, *args)

        def eigvalsh(a, _f=np.linalg.eigvalsh):
            matrices.append(math.prod(np.shape(a)[:-2]))
            return _f(a)

        monkeypatch.setattr(feasibility, "_sandwiched", sandwiched)
        leaked = kept = 0
        low = sum(0.0 < a < 1.0 for a in orders)  # the orders a leaking state is sandwiched at
        for n, (src, dst, beta) in enumerate(pairs):
            want = [[repr(delta_F_alpha(side, beta, a)) for a in orders] for side in (src, dst)]
            leak = [w[4] == "inf" for w in want]  # orders[4] is 1
            sandwiches = {_pair: 2 * (low if all(leak) else 48),
                          _unshared: sum(low if x else 48 for x in leak)}
            for prepare, sizes in ((_pair, [2]), (_unshared, [1, 1])):
                stacks.clear()
                matrices.clear()
                with monkeypatch.context() as m:
                    m.setattr(np.linalg, "eigvalsh", eigvalsh)
                    got = feasibility._pair_free(*prepare(src, dst, beta), orders)
                assert [list(map(repr, f.tolist())) for f in got] == want
                assert stacks == sizes
                # one sandwich per side and order other than 0 and 1 (48 of them; below 1
                # only, if every state of the call leaks into the kernel), and at each order
                # 1 (orders[4] and one in the grid) the state of each side that does not leak
                assert sum(matrices) == sandwiches[prepare] + 2 * leak.count(False)
            if len(pairs) - n <= 9:  # the kernel pairs
                kept += want[0][orders.index(INF)] != "inf"
                leaked += want[1][orders.index(INF)] == "inf"
        assert kept == leaked == 9


class TestRowTable:
    def test_a_searched_pair_makes_one_gibbs_call_per_catalyst_dimension(self, monkeypatch):
        # trivial Hamiltonians a constant apart: equal by ==, not bit for bit, so not twins
        src = ClassicalObject([0.6, 0.21, 0.19], np.zeros(3))
        dst = ClassicalObject([0.45, 0.41, 0.14], np.ones(3))
        shapes = []

        def counted(energies, beta, _f=divergences.gibbs_weights):
            shapes.append(np.shape(energies))
            return _f(energies, beta)

        monkeypatch.setattr(divergences, "gibbs_weights", counted)
        # the direct check, every order and the catalyst search leave it open
        assert decide_catalytic(src, dst, 1.0).is_undetermined
        assert shapes == [(2, 3), (2, 6)]  # both rows alone, then beside a qubit catalyst

    def test_objects_past_the_tensor_cap_are_read_alone(self):
        # the cap bounds tensor products: one object of more levels is decided as it is,
        # and only the catalyst search, which tensors it, refuses it.  The pair above, each
        # side beside a zero-energy Gibbs state of n levels, is left open as that pair is.
        n = MAX_TENSOR_DIM // 3 + 1
        src, dst = (ClassicalObject(np.kron(p, np.full(n, 1.0 / n)), np.full(3 * n, e))
                    for p, e in (([0.6, 0.21, 0.19], 0.0), ([0.45, 0.41, 0.14], 1.0)))
        assert len(thermo_curve(src, 1.0).breakpoints) == 4  # one segment per ratio
        assert thermo_majorizes(src, dst, 1.0).is_infeasible
        assert catalytic_necessary(src, dst, 1.0).is_undetermined
        with pytest.raises(ValueError, match=f"dimension {6 * n} exceeds cap"):
            decide_catalytic(src, dst, 1.0)
        m = RenyiFreeEnergy(2.0, 1.0)
        assert [repr(float(v)) for v in m._values([src, dst])] == [repr(m(src)), repr(m(dst))]
        assert MeanEnergy(1.0)(src) == float(np.dot(src.probs - src.gibbs_weights(1.0),
                                                     src.energies))


class TestClassicalPairGrid:
    @staticmethod
    def _pairs():
        """Large-oracles-shaped classical pairs at beta = 1: twins at d = 1024, unequal
        dimensions (1024 and 700, 3 and 5) each way, one side a Gibbs object, and twins
        whose supports differ in size."""
        rng = rng_from_seed(130)
        energies = {d: rng.uniform(0.0, 3.0, d) for d in (3, 5, 700, 1024)}
        obj = {d: ClassicalObject(rng.dirichlet(np.ones(d)), e) for d, e in energies.items()}
        twin = ClassicalObject(rng.dirichlet(np.ones(1024)), energies[1024])
        gibbs = classical_gibbs(energies[700], 1.0)
        holes = ClassicalObject([0.5, 0.0, 0.3, 0.0, 0.2], energies[5])
        return [(obj[1024], twin), (obj[1024], obj[700]), (obj[700], obj[1024]),
                (obj[3], obj[5]), (obj[5], obj[3]), (obj[1024], gibbs), (holes, obj[5])]

    def test_the_two_row_grid_call_is_delta_f_alpha_per_side(self):
        grid = list(DEFAULT_ALPHA_GRID) + [0.0, 0.5, 2.0, 150.0]
        for src, dst in self._pairs():
            for side, values in zip((src, dst), _Rows([src, dst], 1.0).free(grid)):
                assert list(map(repr, values.tolist())) == [
                    repr(delta_F_alpha(side, 1.0, a)) for a in grid]

    def test_a_pair_reaching_the_grid_makes_two_kernel_calls(self, monkeypatch):
        # one two-row call at the first order, then one for the rest of the grid
        calls = []

        def counted(p, q, alphas, _f=divergences.classical_renyi_divergences):
            calls.append((np.ndim(p), len(alphas)))
            return _f(p, q, alphas)

        monkeypatch.setattr(divergences, "classical_renyi_divergences", counted)
        rng = rng_from_seed(51)
        energies = rng.uniform(0.0, 3.0, 4)
        src = ClassicalObject(rng.dirichlet(np.ones(4)), energies)
        mixed = ClassicalObject(0.5 * src.probs + 0.5 * src.gibbs_weights(1.0), energies)
        for s, t in ((src, mixed), (src, classical_gibbs(rng.uniform(0.0, 3.0, 6), 1.0))):
            calls.clear()
            assert catalytic_necessary(s, t, 1.0).status is Status.UNDETERMINED
            assert calls == [(2, 1), (2, len(DEFAULT_ALPHA_GRID) - 1)]


class TestSideBySidePairs:
    @staticmethod
    def _pairs():
        """(src, dst, beta) with no shared Gibbs part: a classical object against a quantum one
        with a non-diagonal state, each way, at d = 2, 3 and 4, and quantum pairs whose
        Hamiltonians differ, or are equal by == but one ulp apart."""
        rng = rng_from_seed(131)
        pairs = []
        for d in (2, 3, 4):
            ham = random_hamiltonian(rng, d, scale=float(rng.uniform(0.3, 3.0)))
            energies = rng.uniform(0.0, 3.0, d)
            near = 0.9 * gibbs_state(ham, 1.0).state + 0.1 * random_density_matrix(rng, d)
            quantum = [ThermoObject(random_density_matrix(rng, d), ham), ThermoObject(near, ham),
                       ThermoObject(random_density_matrix(rng, d, 1), HamiltonianClass(np.diag(energies)))]
            classical = [ClassicalObject(rng.dirichlet(np.ones(d)), energies),
                         ClassicalObject(np.eye(d)[-1], energies)]
            for c, q in itertools.product(classical, quantum):
                pairs += [(c, q, 1.0), (q, c, 1.0)]
            other = random_hamiltonian(rng, d)
            pairs += [(quantum[0], ThermoObject(random_density_matrix(rng, d), other), 0.7),
                      (quantum[1], ThermoObject(quantum[0].state, _one_ulp_up(ham)), 1.0),
                      (ThermoObject(quantum[0].state, _one_ulp_up(ham)), quantum[1], 1.0)]
        return pairs

    def test_catalytic_necessary_is_the_per_order_loop(self):
        statuses = set()
        for src, dst, beta in self._pairs():
            want = _loop_necessary(src, dst, beta, None)
            assert json.dumps(catalytic_necessary(src, dst, beta).to_json()) == json.dumps(want)
            statuses.add(want["status"])
        assert statuses == {"Infeasible", "Undetermined"}

    def test_each_side_is_delta_f_alpha_in_one_call(self, monkeypatch):
        orders = [a for a in DEFAULT_ALPHA_GRID if a >= 0.5] + [0.5, 2.0, 3.0, 150.0]
        stacks = []

        def sandwiched(rhos, *args, _f=feasibility._sandwiched):
            stacks.append(len(rhos))
            return _f(rhos, *args)

        monkeypatch.setattr(feasibility, "_sandwiched", sandwiched)
        for src, dst, beta in self._pairs():
            first, second = _pair(src, dst, beta)
            assert not _twins(first, second)
            stacks.clear()
            got = feasibility._pair_free(first, second, orders)
            for side, values in zip((src, dst), got):
                assert list(map(repr, values.tolist())) == [
                    repr(delta_F_alpha(side, beta, a)) for a in orders]
            assert stacks == [1] * sum(isinstance(x, ThermoObject) for x in (src, dst))


class TestDiagonalQuantumPairs:
    def test_a_diagonal_pair_is_checked_in_its_classical_form(self):
        # the sandwiched kernel drops sandwich eigenvalues below 1e-14, which at orders near
        # 0.01 carry most of the power sum: taken as quantum objects, thermomajorized pairs
        # would be refuted there
        rng = rng_from_seed(132)
        majorized = 0
        for _ in range(300):
            d = int(rng.integers(2, 5))
            energies = rng.uniform(0.0, 3.0, d)
            src, dst = (ClassicalObject(rng.dirichlet(np.ones(d)), energies) for _ in range(2))
            as_quantum = [classical_to_object(x) for x in (src, dst)]
            want = catalytic_necessary(src, dst, 1.0).to_json()
            assert json.dumps(catalytic_necessary(*as_quantum, 1.0).to_json()) == json.dumps(want)
            assert json.dumps(catalytic_necessary(src, as_quantum[1], 1.0).to_json()) == json.dumps(want)
            if thermo_majorizes(src, dst, 1.0).is_feasible:
                majorized += 1
                assert want["status"] == "Undetermined"
        assert majorized > 50


class TestGibbsUnderflow:
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_a_gibbs_weight_of_exp_minus_40_is_in_the_support(self):
        # thermo_majorizes decides this pair Feasible, so no monotone may rise; the Gibbs
        # weight e^-40 / Z under the target's 1e-12 is no reason for an infinite gap
        energies = [0.0, 31.0, 40.0]
        src = ClassicalObject([0.0, 1.0, 0.0], energies)
        dst = ClassicalObject([1 - 1e-12, 0.0, 1e-12], energies)
        assert thermo_majorizes(src, dst, 1.0).is_feasible
        for alpha in DEFAULT_ALPHA_GRID:
            gap = _mp_delta_f(dst.probs, energies, alpha) - _mp_delta_f(src.probs, energies, alpha)
            assert gap < -18.0  # D_inf of the target is 40 - 27.6 against 31 for the source
        assert catalytic_necessary(src, dst, 1.0).status is Status.UNDETERMINED


class TestClassifiedOnce:
    def test_a_non_diagonal_pair_is_classified_once(self, monkeypatch):
        ham = HamiltonianClass(np.diag([0.0, 1.0]))
        plus = ThermoObject(np.full((2, 2), 0.5), ham)
        diagonal = ThermoObject(np.diag([0.3, 0.7]).astype(complex), ham)
        calls = []

        def counted(p, _f=feasibility.object_to_classical):
            calls.append(p)
            return _f(p)

        monkeypatch.setattr(feasibility, "object_to_classical", counted)
        for src, dst, want in ((plus, diagonal, [plus]), (diagonal, plus, [diagonal, plus])):
            calls.clear()
            decide_catalytic(src, dst, 1.0)
            assert calls == want


class TestStageRunner:
    """Every decider runs its stages after the direct check through feasibility._stages."""

    @staticmethod
    def _record(monkeypatch) -> dict:
        """Wrap _stages to log each run (pairs, grid, budget, calls of its free and rows
        callbacks), and log the grid, search and kernel calls made outside a run."""
        log, run = {"runs": [], "inside": False, "outside": []}, feasibility._stages

        def stages(free, rows, dims, grid, max_cat_dim, grid_steps):
            entry = {"pairs": len(dims), "grid": grid, "max_cat_dim": max_cat_dim,
                     "free": 0, "rows": 0}
            log["runs"].append(entry)

            def counted(key, fn):
                def call(*args):
                    entry[key] += 1
                    return fn(*args)
                return call

            log["inside"] = True
            try:
                return run(counted("free", free), counted("rows", rows), dims, grid,
                           max_cat_dim, grid_steps)
            finally:
                log["inside"] = False

        def watched(name, fn):
            def call(*args):
                if not log["inside"]:
                    log["outside"].append((name, args))
                return fn(*args)
            return call

        monkeypatch.setattr(feasibility, "_stages", stages)
        for module, name in ((feasibility, "_search"), (feasibility, "_pair_free"),
                             (divergences, "classical_renyi_divergences"),
                             (feasibility, "_sandwiched")):
            monkeypatch.setattr(module, name, watched(name, getattr(module, name)))
        return log

    def test_every_entry_point_reaches_the_grid_and_the_search_only_through_it(self, monkeypatch):
        c = ClassicalObject([0.8, 0.2], [0.0, 1.0])
        omega = classical_gibbs(c.energies, 1.0)
        plus = ThermoObject(np.full((2, 2), 0.5), HamiltonianClass(np.diag([0.0, 1.0])))
        excited = ThermoObject(np.diag([0.0, 1.0]).astype(complex), plus.hamiltonian)
        half = tuple(a for a in DEFAULT_ALPHA_GRID if a >= 0.5)
        # call, witness kind, and of its one run (grid, budget, free calls, whether searched)
        cases = [
            (lambda: decide_catalytic(c, omega, 1.0), "curve_dominance", None),
            (lambda: decide_catalytic(omega, c, 1.0), "monotone_increase",
             (DEFAULT_ALPHA_GRID, 2, 1, False)),
            (lambda: decide_catalytic(JP_SRC, JP_DST, 1.0, 3, 16), "catalyst",
             (DEFAULT_ALPHA_GRID, 3, 2, True)),
            (lambda: decide_catalytic(plus, excited, 1.0), "monotone_increase",
             (half, 1, 1, False)),
            (lambda: catalytic_necessary(omega, c, 1.0), "monotone_increase",
             (DEFAULT_ALPHA_GRID, 1, 1, False)),
            # every order passes, and a budget of one level builds no catalyst rows
            (lambda: catalytic_necessary(JP_SRC, JP_DST, 1.0), None,
             (DEFAULT_ALPHA_GRID, 1, 2, False)),
            (lambda: catalytic_necessary(plus, excited, 1.0), "monotone_increase",
             (half, 1, 1, False)),
            (lambda: catalytic_bruteforce(c, omega, 1.0), "catalyst", None),
            # an empty grid: no free energies
            (lambda: catalytic_bruteforce(JP_SRC, JP_DST, 1.0, 2, 64), "catalyst",
             ((), 2, 0, True)),
        ]
        log = self._record(monkeypatch)
        for call, kind, run in cases:
            log["runs"].clear()
            verdict = call()
            assert (verdict.witness or {}).get("kind") == kind
            assert log["outside"] == []
            assert [(r["pairs"], r["grid"], r["max_cat_dim"], r["free"], r["rows"] > 0)
                    for r in log["runs"]] == ([(1, *run)] if run else [])

    def test_work_of_transition_default_oracle_runs_its_batches_through_it(self, monkeypatch):
        fuel = ClassicalObject([0.2, 0.8], [0.0, 2.0])
        quantifier = WorkQuantifier(RenyiFreeEnergy(1.0, 1.0))
        want = work_value(quantifier, EpsilonDet(0.1, 1.0), fuel, 1.0, grid=32)
        log = self._record(monkeypatch)
        got = work_value(quantifier, EpsilonDet(0.1, 1.0), fuel, 1.0, grid=32)
        assert json.dumps(got["tested"]) == json.dumps(want["tested"])
        assert got["certificate"].to_json() == want["certificate"].to_json()
        # outside a run only the monotone's order on the fuel and the screen's two orders,
        # on the whole candidate table
        assert [(name, tuple(args[2])) for name, args in log["outside"]] == [
            ("classical_renyi_divergences", (1.0,)),
            ("classical_renyi_divergences", (DEFAULT_ALPHA_GRID[0], INF))]
        assert [(r["grid"], r["max_cat_dim"]) for r in log["runs"]] == [(DEFAULT_ALPHA_GRID, 2)]
        assert log["runs"][0]["pairs"] > 1 and log["runs"][0]["free"] == 2
        assert log["runs"][0]["rows"] > 0
