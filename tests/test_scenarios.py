import json
import math

import numpy as np
import pytest

from thermowork.core import ClassicalObject, HamiltonianClass, classical_gibbs
from thermowork.divergences import delta_F_alpha
from thermowork.feasibility import _compositions
from thermowork.scenarios import (
    LadderResolutionError,
    LadderStep,
    SCENARIOS,
    TwoPointProcess,
    identity_step,
    raise_step,
    run_cyclic_free_sequence,
    run_fig1,
    run_irreversibility,
    run_lifted_weight,
    run_two_point_measurement,
    run_wbit_violation,
    superadditivity_violation_search,
    thermal_exchange_step,
)
from thermowork.sampling import random_classical_object, random_unitary, rng_from_seed


class TestFig1:
    def test_d3_feasible_with_gibbs_probability(self):
        report = run_fig1(1.0, 1.0, 3)
        assert report.verdicts[0]["status"] == "Feasible"
        p_g = report.derived["gibbs_ground_probability"]["value"]
        assert p_g == pytest.approx(1.0 / (1.0 + 3 * math.exp(-1.0)), abs=1e-12)
        assert p_g == pytest.approx(0.4754, abs=5e-4)

    def test_d2_infeasible_with_crossing(self):
        report = run_fig1(1.0, 1.0, 2)
        verdict = report.verdicts[0]
        assert verdict["status"] == "Infeasible"
        assert "x" in verdict["witness"]

    def test_degenerate_gap_always_feasible(self):
        # at delta = 0 the reset is plain majorization onto a uniform target,
        # free for every d >= 1 (d = 1 is a relabeling)
        for d in (1, 2, 5):
            report = run_fig1(1.0, 0.0, d)
            assert report.verdicts[0]["status"] == "Feasible"

    def test_flip_is_monotone_in_d(self):
        statuses = [run_fig1(1.0, 1.0, d).verdicts[0]["status"] for d in range(1, 17)]
        flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
        assert flips == 1
        assert statuses[0] == "Infeasible" and statuses[-1] == "Feasible"
        threshold = math.exp(1.0)
        for d, status in enumerate(statuses, start=1):
            assert status == ("Feasible" if d > threshold else "Infeasible")

    def test_free_energy_drops_when_feasible(self):
        report = run_fig1(1.0, 1.0, 4)
        assert report.derived["delta_F1_drop"]["value"] > 0

    def test_curves_exported(self):
        report = run_fig1(1.0, 1.0, 3)
        assert report.tables["curve_source"][0] == "x,y"
        assert len(report.tables["curve_source"]) >= 3


class TestWbitViolation:
    def test_violation_found_at_small_gaps(self):
        report = run_wbit_violation(1.0, 0.1)
        assert report.derived["violation_found"]["value"] is True
        best = report.derived["largest_feasible_delta"]["value"]
        # independent closed form: feasible iff exp(-beta delta) >= 1 - epsilon
        threshold = math.log(1.0 / 0.9)
        assert 0 < best <= threshold + 1e-12
        assert report.derived["wdet_work_on_free_transition"]["value"] == best

    def test_no_violation_at_zero_epsilon(self):
        report = run_wbit_violation(1.0, 0.0)
        assert report.derived["violation_found"]["value"] is False

    def test_threshold_grows_with_epsilon(self):
        grid = np.linspace(1e-3, 0.8, 120)
        small = run_wbit_violation(1.0, 0.1, grid)
        large = run_wbit_violation(1.0, 0.49, grid)
        assert (large.derived["largest_feasible_delta"]["value"]
                > small.derived["largest_feasible_delta"]["value"])

    def test_scan_matches_analytic_threshold(self):
        epsilon, beta = 0.3, 1.3
        grid = np.linspace(1e-4, 0.5, 200)
        report = run_wbit_violation(beta, epsilon, grid)
        best = report.derived["largest_feasible_delta"]["value"]
        analytic = math.log(1.0 / (1.0 - epsilon)) / beta
        spacing = grid[1] - grid[0]
        assert analytic - spacing <= best <= analytic + 1e-12


class TestIrreversibility:
    def test_gap_for_full_rank_fuel(self):
        p_m = ClassicalObject([0.7, 0.3], [0.0, 1.0])
        report = run_irreversibility(1.0, p_m)
        assert report.derived["work_value"]["value"] == pytest.approx(0.0, abs=1e-12)
        assert report.derived["all_positive_candidates_infeasible"]["value"] is True
        df1 = report.derived["cost_lower_bound_delta_F1"]["value"]
        assert df1 > 0
        assert report.derived["work_cost_estimate"]["value"] >= df1
        assert report.derived["strict_gap"]["value"] is True

    def test_rejects_gibbs_fuel(self):
        with pytest.raises(ValueError, match="Gibbs"):
            run_irreversibility(1.0, classical_gibbs([0.0, 1.0], 1.0))

    def test_rejects_rank_deficient_fuel(self):
        with pytest.raises(ValueError, match="full rank"):
            run_irreversibility(1.0, ClassicalObject([1.0, 0.0], [0.0, 1.0]))

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_gap_persists_across_temperatures(self, beta):
        p_m = ClassicalObject([0.7, 0.3], [0.0, 1.0])
        report = run_irreversibility(beta, p_m)
        assert report.derived["strict_gap"]["value"] is True


def _recursive_grid(grid_steps: int, n: int) -> np.ndarray:
    """The simplex grid as the search built it before: a recursive generator of
    compositions, one array per state."""
    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in comps(total - head, parts - 1):
                yield (head,) + rest
    return np.array([np.array(c, dtype=float) / grid_steps
                     for c in comps(grid_steps, n)]).reshape(-1, n)


class TestSuperadditivitySearch:
    @pytest.mark.parametrize(("grid_steps", "n"),
                             [(16, 4), (8, 9), (5, 2), (3, 16), (12, 1), (1, 1)])
    def test_grid_is_the_recursive_enumeration(self, grid_steps, n):
        got = _compositions(grid_steps, n) / grid_steps
        assert got.shape == (math.comb(grid_steps + n - 1, n - 1), n)
        assert got.tobytes() == _recursive_grid(grid_steps, n).tobytes()

    def test_alpha2_witness_and_breach(self):
        report = superadditivity_violation_search(2.0, grid_steps=16)
        assert report.derived["witness_found"]["value"] is True
        assert report.derived["min_gap"]["value"] < -1e-6
        assert report.derived["breach"]["value"] is True
        assert report.derived["breach_margin_equals_gap"]["value"] is True

    def test_alpha1_finds_nothing(self):
        report = superadditivity_violation_search(1.0, grid_steps=12)
        assert report.derived["witness_found"]["value"] is False
        assert report.derived["min_gap"]["value"] >= -1e-9

    def test_budget_recorded_for_random_fallback(self):
        report = superadditivity_violation_search(2.0, dims=(4, 4), grid_steps=16,
                                                  seed=5, budget=300)
        assert report.derived["states_tested"]["value"] == 300

    def test_known_witness_is_on_grid(self):
        # the grid at 16 steps contains (8, 4, 4, 0)/16, which violates order-2
        report = superadditivity_violation_search(2.0, grid_steps=16, budget=10000)
        witness = np.asarray(report.derived["witness_probs"]["value"], dtype=float)
        gap = report.derived["min_gap"]["value"]
        joint = witness.reshape(2, 2)
        purity_joint = float(np.sum(joint ** 2))
        pa = joint.sum(axis=1)
        pb = joint.sum(axis=0)
        direct = math.log(purity_joint / (np.sum(pa ** 2) * np.sum(pb ** 2)))
        assert gap == pytest.approx(direct, abs=1e-12)


class TestLiftedWeight:
    def test_identity_protocol_stores_nothing(self):
        report = run_lifted_weight(8, 1.0, [identity_step(8)] * 3, 1.0)
        for row in report.tables["steps"][1:]:
            assert float(row.split(",")[2]) == pytest.approx(0.0, abs=1e-14)
        assert report.derived["monotone_ok"]["value"] is True

    def test_assisted_raise_stores_one_spacing(self):
        spacing = 0.7
        report = run_lifted_weight(8, spacing, [raise_step(8)], 1.0)
        w = float(report.tables["steps"][1].split(",")[2])
        assert w == pytest.approx(spacing, abs=1e-12)

    def test_thermal_exchange_never_raises_weight(self):
        report = run_lifted_weight(8, 1.0, [thermal_exchange_step(8, 1.0)] * 2, 1.0)
        for row in report.tables["steps"][1:]:
            _, _, w_mean, balance, assisted, ok = row.split(",")
            assert float(w_mean) <= 1e-9
            assert abs(float(balance)) <= 1e-9
            assert ok == "True"
        assert report.derived["monotone_ok"]["value"] is True

    def test_non_covariant_unitary_rejected(self):
        bad = np.diag([1.0, -1.0] + [1.0] * 6)
        with pytest.raises(ValueError, match="covariant"):
            run_lifted_weight(8, 1.0, [LadderStep(bad, label="bad")], 1.0)

    def test_eigenstate_step_work_matches_free_energy_quantifier(self):
        levels, spacing, beta = 8, 1.0, 1.0
        energies = spacing * np.arange(levels)
        x = levels // 2
        before = np.zeros(levels)
        before[x] = 1.0
        after = np.zeros(levels)
        after[x + 1] = 1.0
        df_work = (delta_F_alpha(ClassicalObject(after, energies), beta, 1.0)
                   - delta_F_alpha(ClassicalObject(before, energies), beta, 1.0))
        report = run_lifted_weight(levels, spacing, [raise_step(levels)], beta)
        w_mean = float(report.tables["steps"][1].split(",")[2])
        assert w_mean == pytest.approx(df_work, abs=1e-9)

    def test_cyclic_ladder_tag_present(self):
        report = run_lifted_weight(8, 1.0, [identity_step(8)], 1.0)
        assert any("cyclic ladder" in note for note in report.notes)


def _qubit_process(u, rho, ladder_energies=None):
    h = HamiltonianClass(np.diag([0.0, 1.0]))
    if ladder_energies is None:
        ladder_energies = np.array([-1.0, 0.0, 1.0])
    probs = np.zeros(len(ladder_energies))
    probs[int(np.argmin(np.abs(ladder_energies)))] = 1.0
    return TwoPointProcess(h, u, rho, ClassicalObject(probs, ladder_energies))


class TestTwoPointMeasurement:
    def test_identity_process_is_delta_at_zero(self):
        report = run_two_point_measurement(_qubit_process(np.eye(2), np.diag([0.3, 0.7])))
        rows = report.tables["work_distribution"][1:]
        assert len(rows) == 1
        w, prob = rows[0].split(",")[:2]
        assert float(w) == 0.0
        assert float(prob) == pytest.approx(1.0, abs=1e-12)

    def test_dephased_plus_bit_flip(self):
        x_gate = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = run_two_point_measurement(_qubit_process(x_gate, np.eye(2) / 2))
        rows = {float(r.split(",")[0]): float(r.split(",")[1])
                for r in report.tables["work_distribution"][1:]}
        assert rows[1.0] == pytest.approx(0.5, abs=1e-12)
        assert rows[-1.0] == pytest.approx(0.5, abs=1e-12)

    def test_normalization_on_random_processes(self):
        rng = rng_from_seed(0)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            energies = np.sort(rng.uniform(0, 3, size=d))
            energies += np.arange(d) * 1e-3  # enforce non-degeneracy
            h = HamiltonianClass(np.diag(energies))
            u = random_unitary(rng, d)
            rho = np.diag(rng.dirichlet(np.ones(d)))
            diffs = (energies[:, None] - energies[None, :]).ravel()
            ladder = np.unique(np.concatenate([[0.0], diffs]))
            probs = np.zeros(len(ladder))
            probs[int(np.argmin(np.abs(ladder)))] = 1.0
            proc = TwoPointProcess(h, u, rho, ClassicalObject(probs, ladder))
            report = run_two_point_measurement(proc)
            assert report.derived["total_probability"]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_ladder_work_equals_energy_difference_exactly(self):
        x_gate = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = run_two_point_measurement(_qubit_process(x_gate, np.diag([0.2, 0.8])))
        for row in report.tables["work_distribution"][1:]:
            parts = row.split(",")
            assert float(parts[0]) == float(parts[4])  # bit-exact, not approx

    def test_mixed_average_flagged_outside_pure_set(self):
        x_gate = np.array([[0.0, 1.0], [1.0, 0.0]])
        report = run_two_point_measurement(_qubit_process(x_gate, np.eye(2) / 2))
        assert report.derived["averaged_state_outside_pure_ladder_set"]["value"] is True
        identity = run_two_point_measurement(_qubit_process(np.eye(2), np.diag([0.3, 0.7])))
        assert identity.derived["averaged_state_outside_pure_ladder_set"]["value"] is False

    def test_coarse_ladder_raises_resolution_error(self):
        x_gate = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(LadderResolutionError, match="not representable"):
            run_two_point_measurement(
                _qubit_process(x_gate, np.eye(2) / 2, np.array([-0.5, 0.0, 0.5])))

    def test_degenerate_spectrum_rejected(self):
        h = HamiltonianClass(np.diag([0.0, 0.0]))
        with pytest.raises(ValueError, match="non-degenerate"):
            run_two_point_measurement(TwoPointProcess(
                h, np.eye(2), np.eye(2) / 2,
                ClassicalObject([1.0, 0.0], [0.0, 1.0])))


class TestCyclicFreeSequence:
    def test_three_cycle(self):
        rng = rng_from_seed(1)
        cycle = [random_classical_object(rng, 2) for _ in range(3)]
        report = run_cyclic_free_sequence(cycle, 1.0)
        assert report.derived["all_steps_certified_free"]["value"] is True
        assert abs(report.derived["total_delta_F1_work"]["value"]) <= 3e-10

    def test_two_cycle_catalyst_dimension(self):
        rng = rng_from_seed(2)
        a, b = random_classical_object(rng, 2), random_classical_object(rng, 2)
        report = run_cyclic_free_sequence([a, b], 1.0)
        assert report.derived["catalyst_dim"]["value"] == 2

    def test_eight_cycle(self):
        rng = rng_from_seed(3)
        cycle = [random_classical_object(rng, 2) for _ in range(8)]
        report = run_cyclic_free_sequence(cycle, 1.0)
        assert report.derived["all_steps_certified_free"]["value"] is True
        assert abs(report.derived["total_delta_F1_work"]["value"]) <= 8e-10


class TestReportPlumbing:
    def test_write_and_reload(self, tmp_path):
        report = run_fig1(1.0, 1.0, 3)
        target = report.write(tmp_path)
        doc = json.loads((target / "report.json").read_text())
        assert doc["scenario_name"] == "fig1"
        assert doc["schema"] == 1
        assert (target / "curve_source.csv").exists()

    def test_reports_are_byte_identical(self, tmp_path):
        a = superadditivity_violation_search(2.0, grid_steps=8, seed=3)
        b = superadditivity_violation_search(2.0, grid_steps=8, seed=3)
        pa = a.write(tmp_path / "one") / "report.json"
        pb = b.write(tmp_path / "two") / "report.json"
        assert pa.read_bytes() == pb.read_bytes()

    def test_every_derived_value_has_provenance(self):
        report = run_fig1(1.0, 1.0, 3)
        for entry in report.derived.values():
            assert entry["op"]

    def test_scenario_registry_dispatch(self):
        report = SCENARIOS["fig1"]({"beta": 1.0, "delta": 1.0, "d": 3})
        assert report.scenario_name == "fig1"
        report = SCENARIOS["two-point"]({"beta": 1.0})
        assert report.derived["total_probability"]["value"] == pytest.approx(1.0, abs=1e-12)
