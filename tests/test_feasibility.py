import json
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermowork.core import (
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    ThermoObject,
    classical_gibbs,
    classical_tensor,
    classical_to_object,
    gibbs_state,
    is_gibbs,
    partial_trace,
    tensor,
)
from thermowork.divergences import INF, delta_F_alpha
from thermowork import feasibility
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
from thermowork.feasibility import _catalysts, _curve, _interp_rows, _Prepared, _screen
from thermowork.sampling import (
    random_classical_object,
    random_density_matrix,
    random_energy_conserving_unitary,
    random_gibbs_stochastic,
    random_hamiltonian,
    rng_from_seed,
)
from test_divergences import _mp_renyi
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


class TestOnePassCurve:
    """_curve against the former binary-lifting build, breakpoint bytes equal."""

    @staticmethod
    def _same(probs, g):
        probs, g = np.asarray(probs, dtype=float), np.asarray(g, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = _curve(probs, g)
        want = _lifted_curve(probs, g)
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

    def test_one_level(self):
        for probs, g in (([1.0], [1.0]), ([1.0], [0.0]), ([0.0], [0.0]), ([0.3], [0.7])):
            assert len(self._same(probs, g).breakpoints) == 2

    def test_tied_catalyst_products(self):
        rng = rng_from_seed(6)
        for k in (2, 3, 4):
            for comp, cat in _catalysts(k, 16)[:20]:
                c = random_classical_object(rng, int(rng.integers(2, 6)), energy_scale=2.0)
                prep = _Prepared(c, 1.0)
                self._same(np.outer(c.probs, cat.probs).ravel(), prep.gibbs(k))

    @settings(max_examples=300, deadline=None)
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
        # the phase-1 matrix handed to linprog is the CSC scipy builds from the dense
        # array, so HiGHS sees the same problem; a zero probability and a Gibbs
        # weight that underflows to 0 leave no explicit zero behind
        import scipy.optimize
        from scipy.sparse import csc_array

        handed, linprog = [], scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda c, **kw: handed.append(kw["A_eq"]) or linprog(c, **kw))
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
            a_eq = _loop_constraints(src, dst, beta)[0]
            m = len(a_eq)
            want = csc_array(np.hstack([a_eq, np.eye(m), -np.eye(m)]))
            got = handed.pop()
            assert got.format == "csc" and got.shape == want.shape
            for part in ("indptr", "indices", "data"):
                mine, theirs = getattr(got, part), getattr(want, part)
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
            dropped += want.nnz < 3 * a_eq.shape[1] + 2 * m
        assert dropped >= 2


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
                batch = _Prepared(obj, beta).fill_free(DEFAULT_ALPHA_GRID)
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
    return [i for i, (_, cat) in enumerate(_catalysts(cat_dim, grid_steps))
            if thermo_majorizes(classical_tensor(src, cat), classical_tensor(dst, cat),
                                beta).is_feasible]


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
    for cat_dim in range(2, max_cat_dim + 1):
        for _, cat in _catalysts(cat_dim, grid_steps):
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
            prep = _Prepared(obj, 1.0)
            prep.fill_free(self.ORDERS)
            assert set(prep._free) == set(self.ORDERS)  # every order from the batch
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = [repr(delta_F_alpha(obj, 1.0, alpha)) for alpha in self.ORDERS]
            assert [repr(prep.delta_F(alpha)) for alpha in self.ORDERS] == want

    def test_overflowed_power_sum_is_finite(self):
        # p ** 100 underflows to 0 and q ** -99 overflows on some levels: the power
        # sum is NaN, and the log domain gives the value
        obj = random_classical_object(rng_from_seed(42), 1024)
        want = _mp_renyi(obj.probs, obj.gibbs_weights(1.0), 100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert delta_F_alpha(obj, 1.0, 100.0) == pytest.approx(want, rel=1e-12)
        prep = _Prepared(obj, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prep.fill_free(DEFAULT_ALPHA_GRID)
        assert DEFAULT_ALPHA_GRID[39] == 100.0
        assert prep.delta_F(100.0) == pytest.approx(want, rel=1e-12)

    def test_quantum_objects_fill_every_order_in_one_batch(self):
        ham = HamiltonianClass(np.diag([0.0, 1.0]))
        obj = ThermoObject(np.full((2, 2), 0.5), ham)
        prep = _Prepared(obj, 1.0)
        prep.fill_free(self.ORDERS)
        assert set(prep._free) == set(self.ORDERS)
        assert [repr(prep.delta_F(alpha)) for alpha in self.ORDERS] == [
            repr(delta_F_alpha(obj, 1.0, alpha)) for alpha in self.ORDERS]


class TestCatalystScreen:
    def test_screen_keeps_every_catalyst_the_loop_accepts(self):
        accepted = screened = total = 0
        for n, (name, src, dst, beta) in enumerate(_screen_corpus()):
            cat_dim, steps = _setting(n, src)
            want = _loop_accepts(src, dst, beta, cat_dim, steps)
            got = list(_screen(_Prepared(src, beta), _Prepared(dst, beta), cat_dim, steps))
            assert set(want) <= set(got), name
            assert got == sorted(set(got)), name
            accepted, screened = accepted + len(want), screened + len(got)
            total += len(_catalysts(cat_dim, steps))
        assert 0 < accepted <= screened < total

    def test_decide_matches_the_per_catalyst_loop(self):
        for n, (name, src, dst, beta) in enumerate(_screen_corpus()):
            cat_dim, steps = _setting(n, src)
            got = decide_catalytic(src, dst, beta, max_cat_dim=cat_dim, grid_steps=steps)
            want = _loop_decide(src, dst, beta, cat_dim, steps)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json()), name

    def test_slack_covers_merged_ties(self):
        # the exact check merges the two tied levels and accepts; every level
        # on its own gives a deficit above MAJORIZE_TOL
        tied = ClassicalObject([0.5 * (1 + 5e-10), 0.5 * (1 - 5e-10)], np.zeros(2))
        gibbs = classical_gibbs(np.zeros(2), 1.0)
        assert thermo_majorizes(gibbs, tied, 1.0).is_feasible
        assert tied.probs[0] - 0.5 > feasibility.MAJORIZE_TOL
        assert list(_screen(_Prepared(gibbs, 1.0), _Prepared(tied, 1.0), 2, 8)) == [0, 1, 2, 3]

    def test_chunks_keep_enumeration_order(self, monkeypatch):
        rng = rng_from_seed(45)
        pairs = [(JP_SRC, JP_DST)] + [(random_classical_object(rng, 3),
                                       random_classical_object(rng, 3)) for _ in range(10)]
        whole = [list(_screen(_Prepared(s, 1.0), _Prepared(d, 1.0), 3, 32)) for s, d in pairs]
        verdicts = [catalytic_bruteforce(s, d, 1.0, 3, 32).to_json() for s, d in pairs]
        monkeypatch.setattr(feasibility, "_SCREEN_LEVELS", 1)  # one catalyst per chunk
        assert [list(_screen(_Prepared(s, 1.0), _Prepared(d, 1.0), 3, 32))
                for s, d in pairs] == whole
        assert [catalytic_bruteforce(s, d, 1.0, 3, 32).to_json() for s, d in pairs] == verdicts
        assert any(whole)

    def test_memory_is_bounded_at_the_cost_guards(self):
        big = random_classical_object(rng_from_seed(43), 1024, energy_scale=5.0)
        mixed = ClassicalObject(0.7 * big.probs + 0.3 * big.gibbs_weights(1.0), big.energies)
        assert len(_catalysts(MAX_CAT_DIM, MAX_GRID_STEPS)) == 1906
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
