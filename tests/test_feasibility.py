import math
import warnings

import numpy as np
import pytest

from thermowork.core import (
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    ThermoObject,
    classical_gibbs,
    classical_tensor,
    classical_to_object,
    is_gibbs,
    partial_trace,
    tensor,
)
from thermowork.divergences import delta_F_alpha
from thermowork.feasibility import (
    DEFAULT_ALPHA_GRID,
    FeasibilityVerdict,
    Status,
    ThermalOperationSpec,
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
from thermowork.sampling import (
    random_classical_object,
    random_energy_conserving_unitary,
    random_gibbs_stochastic,
    rng_from_seed,
)

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

    def test_csv_rows(self):
        curve = thermo_curve(ClassicalObject([1.0, 0.0], [0.0, 1.0]), 1.0)
        rows = curve.to_csv_rows()
        assert len(rows) == len(curve.breakpoints)
        assert all("," in row for row in rows)


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
            for got, want in zip(_constraints_for(src, dst, 0.7), _loop_constraints(src, dst, 0.7)):
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

    def test_default_grid_contains_limits(self):
        assert 1.0 in DEFAULT_ALPHA_GRID
        assert float("inf") in DEFAULT_ALPHA_GRID

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
