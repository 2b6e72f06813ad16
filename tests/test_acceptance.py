"""Acceptance suite: every criterion checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion pass/fail lines printed by conftest).
"""

import json
import math
import time

import numpy as np
import pytest

from thermowork.core import (
    EMPTY_CLASSICAL,
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    classical_gibbs,
    classical_is_gibbs,
    classical_tensor,
    classical_to_object,
    gibbs_state,
)
from thermowork.divergences import BetaContext, INF, delta_F_alpha
from thermowork.feasibility import (
    catalytic_bruteforce,
    decide_catalytic,
    decide_free,
    gibbs_stochastic_feasible,
    revalidate_catalyst,
    thermo_majorizes,
)
from thermowork.quantifiers import (
    CustomTable,
    EpsilonDet,
    RenyiFreeEnergy,
    WbitSet,
    WdetQuantifier,
    WorkQuantifier,
    check_additive_monotonicity,
    check_axiom1_cycle,
    check_free_nonpositivity,
    check_superadditivity,
    correlated_second_law_bounds,
    work_cost,
    work_of_transition,
)
from thermowork.sampling import random_gibbs_stochastic, rng_from_seed
from thermowork.scenarios import SCENARIOS, run_fig1, run_wbit_violation

ALPHAS = (0.5, 1.0, 2.0, INF)
JP_SRC = ClassicalObject([0.5, 0.25, 0.25, 0.0], np.zeros(4))
JP_DST = ClassicalObject([0.4, 0.4, 0.1, 0.1], np.zeros(4))


def _random_full_rank(rng, d):
    probs = rng.dirichlet(np.ones(d)) * 0.9 + 0.1 / d
    return probs / probs.sum()


def test_criterion_01_fig1_verdict_flips_once():
    """Ground -> uniform-excited reset flips Infeasible -> Feasible once,
    consistently with d > exp(beta * delta); runtime < 1 s."""
    start = time.monotonic()
    statuses = []
    for d in range(1, 17):
        report = run_fig1(1.0, 1.0, d)
        statuses.append(report.verdicts[0]["status"])
    elapsed = time.monotonic() - start
    flips = [i for i, (a, b) in enumerate(zip(statuses, statuses[1:])) if a != b]
    assert len(flips) == 1
    threshold = math.exp(1.0)  # ~2.718, not an integer, so no boundary case here
    for d, status in zip(range(1, 17), statuses):
        expected = "Feasible" if d > threshold else "Infeasible"
        assert status == expected, f"d={d}: {status}"
    assert elapsed < 1.0, f"scan took {elapsed:.2f} s"


def test_criterion_02_gibbs_ground_probability():
    """p_g = 1/(1 + d e^(-beta delta)) reproduced to 1e-12 on 20 triples."""
    rng = rng_from_seed(202)
    for _ in range(20):
        beta = float(rng.uniform(0.2, 3.0))
        delta = float(rng.uniform(0.1, 2.5))
        d = int(rng.integers(1, 9))
        ham = np.diag(np.concatenate([[0.0], np.full(d, delta)]))
        ground_prob = float(gibbs_state(ham, beta).state[0, 0].real)
        formula = 1.0 / (1.0 + d * math.exp(-beta * delta))
        assert abs(ground_prob - formula) <= 1e-12


def test_criterion_03_oracle_equivalence():
    """thermo_majorizes and the Gibbs-stochastic map oracle agree on 300 random
    same-Hamiltonian instances (dims 2..6), zero disagreements, < 30 s."""
    start = time.monotonic()
    rng = rng_from_seed(303)
    disagreements = 0
    for k in range(300):
        d = int(rng.integers(2, 7))
        beta = float(rng.uniform(0.3, 2.5))
        energies = np.sort(rng.uniform(0.0, 2.0, size=d))
        src = ClassicalObject(rng.dirichlet(np.ones(d)), energies)
        if k % 2 == 0:
            dst = ClassicalObject(rng.dirichlet(np.ones(d)), energies)
        else:
            g_map = random_gibbs_stochastic(rng, energies, beta)
            dst = ClassicalObject(g_map @ src.probs, energies)
        curve = thermo_majorizes(src, dst, beta)
        lp = gibbs_stochastic_feasible(src, dst, beta)
        if curve.status != lp.status:
            disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_04_difference_form_characterization():
    """Difference-form quantifiers pass all checkers; a constructed
    non-difference quantifier is caught."""
    rng = rng_from_seed(404)
    ctx = BetaContext(1.0)
    oracle = lambda s, d: decide_catalytic(s, d, 1.0)

    for alpha in ALPHAS:
        quantifier = WorkQuantifier(RenyiFreeEnergy(alpha, ctx))
        # cycle sums telescope: 100 random 4-cycles
        for _ in range(100):
            cycle = [ClassicalObject(rng.dirichlet(np.ones(2)), [0.0, 1.0])
                     for _ in range(4)]
            cycle.append(cycle[0])
            report = check_axiom1_cycle(quantifier, cycle)
            assert report.passed
        # additive monotonicity on certified batches, incl. the swap batch
        p = ClassicalObject([0.6, 0.25, 0.15], np.zeros(3))
        q = ClassicalObject([0.5, 0.4, 0.1], np.zeros(3))
        report = check_additive_monotonicity(quantifier.monotone, [p, q], [q, p], oracle)
        assert report.passed and not report.skipped
        src = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        report = check_additive_monotonicity(
            quantifier.monotone, [src], [classical_gibbs([0.0, 1.0], 1.0)], oracle)
        assert report.passed and not report.skipped
        # no work from certified free transitions
        pairs = []
        for _ in range(25):
            energies = np.array([0.0, float(rng.uniform(0.3, 1.5))])
            a = ClassicalObject(rng.dirichlet(np.ones(2)), energies)
            g_map = random_gibbs_stochastic(rng, energies, 1.0)
            pairs.append((a, ClassicalObject(g_map @ a.probs, energies)))
        from thermowork.quantifiers import Unrestricted
        report = check_free_nonpositivity(
            quantifier, Unrestricted(beta=1.0), lambda s, d: decide_free(s, d, 1.0), pairs)
        assert report.passed and report.samples == 25

    # converse direction: a corrupted pairwise table is not a difference of
    # any monotone, so some cycle has a nonzero sum
    objs = [ClassicalObject(rng.dirichlet(np.ones(2)), [0.0, 1.0]) for _ in range(3)]
    base = RenyiFreeEnergy(1.0, ctx)

    def corrupted(src, dst):
        w = base(dst) - base(src)
        if src is objs[0] and dst is objs[1]:
            w += 5e-4
        return w

    report = check_axiom1_cycle(corrupted, [objs[0], objs[1], objs[2], objs[0]])
    assert not report.passed

    # and a table violating additive monotonicity is caught by a checker
    src = ClassicalObject([0.9, 0.1], [0.0, 1.0])
    omega = classical_gibbs([0.0, 1.0], 1.0)
    bad = CustomTable([(src, 0.1), (omega, 0.6)], name="inflating")
    report = check_additive_monotonicity(bad, [src], [omega], oracle)
    assert not report.passed


def test_criterion_05_renyi_monotones_on_certified_transitions():
    """Delta F_alpha never increases across 500 certified free or catalytic
    free classical transitions, alpha in {0.5, 1, 2, inf}, tolerance 1e-8."""
    rng = rng_from_seed(505)
    violations = 0
    certified = 0
    while certified < 495:
        d = int(rng.integers(2, 6))
        beta = float(rng.uniform(0.3, 2.5))
        energies = np.sort(rng.uniform(0.0, 2.0, size=d))
        src = ClassicalObject(rng.dirichlet(np.ones(d)), energies)
        g_map = random_gibbs_stochastic(rng, energies, beta)
        dst = ClassicalObject(g_map @ src.probs, energies)
        if not thermo_majorizes(src, dst, beta).is_feasible:
            continue
        certified += 1
        for alpha in ALPHAS:
            if delta_F_alpha(dst, beta, alpha) > delta_F_alpha(src, beta, alpha) + 1e-8:
                violations += 1
    # top up with certified catalytic transitions (the JP pair at several betas)
    for beta in (0.5, 1.0, 2.0, 4.0, 8.0):
        verdict = catalytic_bruteforce(JP_SRC, JP_DST, beta, grid_steps=64)
        assert verdict.is_feasible
        certified += 1
        for alpha in ALPHAS:
            if delta_F_alpha(JP_DST, beta, alpha) > delta_F_alpha(JP_SRC, beta, alpha) + 1e-8:
                violations += 1
    assert certified >= 500
    assert violations == 0


def test_criterion_06_catalysis_oracle():
    """The trivial-Hamiltonian pair is infeasible freely but feasible with a
    brute-forced 2-level catalyst whose witness re-validates; < 60 s."""
    start = time.monotonic()
    assert thermo_majorizes(JP_SRC, JP_DST, 1.0).is_infeasible
    verdict = catalytic_bruteforce(JP_SRC, JP_DST, 1.0, max_cat_dim=2, grid_steps=64)
    assert verdict.is_feasible
    probs = np.asarray(verdict.witness["catalyst_probs"], dtype=float)
    assert probs.shape == (2,)
    assert revalidate_catalyst(verdict, JP_SRC, JP_DST, 1.0)
    assert time.monotonic() - start < 60.0


def test_criterion_07_irreversibility_under_p0():
    """Under the eigenstate-only restriction, 10 full-rank non-Gibbs fuels
    have work value 0 (positive candidates all certified infeasible) and a
    work-cost bound at least their von Neumann free energy."""
    rng = rng_from_seed(707)
    ctx = BetaContext(1.0)
    quantifier = WorkQuantifier(RenyiFreeEnergy(1.0, ctx))
    restriction = EpsilonDet(0.0, 1.0)
    done = 0
    while done < 10:
        d = int(rng.integers(2, 5))
        energies = np.sort(rng.uniform(0.0, 1.5, size=d))
        p_m = ClassicalObject(_random_full_rank(rng, d), energies)
        if classical_is_gibbs(p_m, 1.0):
            continue
        done += 1
        omega = classical_gibbs(energies, 1.0)
        res = work_of_transition(quantifier, restriction, p_m, omega, 1.0)
        assert res["lower_bound"] == pytest.approx(0.0, abs=1e-12)
        positives = [t for t in res["tested"] if t["work"] > 1e-12]
        assert positives
        assert all(t["status"] == "Infeasible" for t in positives)
        df1 = delta_F_alpha(p_m, 1.0, 1.0)
        assert df1 > 0
        cost = work_cost(quantifier, restriction, p_m, 1.0)
        assert cost["cost"] >= df1 - 1e-12


def test_criterion_08_epsilon_deterministic_violation():
    """At epsilon = 0.1 the scan finds a gap storing positive deterministic
    work on a certified free transition; at epsilon = 0 the same grid is clean."""
    grid = np.logspace(-3, math.log10(0.2), 64)
    hot = run_wbit_violation(1.0, 0.1, grid)
    assert hot.derived["violation_found"]["value"] is True
    best = hot.derived["largest_feasible_delta"]["value"]
    assert best > 0
    # re-certify the reported transition and its stored work independently
    energies = np.array([0.0, best])
    src = ClassicalObject([1.0, 0.0], energies)
    dst = ClassicalObject([0.1, 0.9], energies)
    assert decide_free(src, dst, 1.0).is_feasible
    w = WdetQuantifier(WbitSet(0.1, best))(src, dst)
    assert w == pytest.approx(best, abs=1e-12)
    cold = run_wbit_violation(1.0, 0.0, grid)
    assert cold.derived["violation_found"]["value"] is False


def test_criterion_09_superadditivity_and_breach():
    """Delta F_1 is super-additive within 1e-9 on 500 random bipartite
    classical states; order 2 has a witness whose second-law breach margin
    equals |gap| within 1e-9."""
    rng = rng_from_seed(909)
    ctx = BetaContext(1.0)
    df1 = RenyiFreeEnergy(1.0, ctx)
    for _ in range(500):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        e_a = np.sort(rng.uniform(0, 1.5, size=da))
        e_b = np.sort(rng.uniform(0, 1.5, size=db))
        joint_probs = rng.dirichlet(np.ones(da * db))
        energies = (e_a[:, None] + e_b[None, :]).ravel()
        obj = classical_to_object(ClassicalObject(joint_probs, energies))
        ni = NonInteractingObject(obj, (da, db),
                                  (HamiltonianClass(np.diag(e_a)), HamiltonianClass(np.diag(e_b))))
        assert check_superadditivity(df1, ni)["gap"] >= -1e-9
    # order-2 witness and the induced correlated second-law breach
    df2 = RenyiFreeEnergy(2.0, ctx)
    witness = ClassicalObject([0.5, 0.25, 0.25, 0.0], np.zeros(4))
    ni = NonInteractingObject(classical_to_object(witness), (2, 2),
                              (HamiltonianClass(np.zeros((2, 2))),) * 2)
    gap = check_superadditivity(df2, ni)["gap"]
    assert gap < -1e-6
    bounds = correlated_second_law_bounds(df2, ni)
    assert bounds["breach"]
    assert (bounds["value_lower"] - bounds["cost_upper"]) == pytest.approx(-gap, abs=1e-9)


def test_criterion_10_free_energy_proposition_suite():
    """Normalization, extensivity (1e-9), strong generalized super-additivity
    (1e-8) on 100 instances each; certified catalytic images of Gibbs objects
    are Gibbs within 1e-8."""
    rng = rng_from_seed(1010)
    beta = 1.0
    # normalization
    for _ in range(100):
        energies = np.sort(rng.uniform(0, 2, size=int(rng.integers(2, 5))))
        assert delta_F_alpha(classical_gibbs(energies, beta), beta, 1.0) <= 1e-12
    assert delta_F_alpha(EMPTY_CLASSICAL, beta, 1.0) == 0.0
    # extensivity
    for _ in range(100):
        a = ClassicalObject(rng.dirichlet(np.ones(2)), np.sort(rng.uniform(0, 1, 2)))
        b = ClassicalObject(rng.dirichlet(np.ones(3)), np.sort(rng.uniform(0, 1, 3)))
        joint = delta_F_alpha(classical_tensor(a, b), beta, 1.0)
        assert abs(joint - delta_F_alpha(a, beta, 1.0) - delta_F_alpha(b, beta, 1.0)) <= 1e-9
    # strong generalized super-additivity under maps acting on A alone
    for _ in range(100):
        da, db = 2, 3
        e_a = np.sort(rng.uniform(0, 1, da))
        e_b = np.sort(rng.uniform(0, 1, db))
        table = rng.dirichlet(np.ones(da * db)).reshape(da, db)
        g_a = rng.dirichlet(np.ones(da), size=da).T  # column-stochastic on A
        table_f = g_a @ table
        energies = (e_a[:, None] + e_b[None, :]).ravel()

        def df(t, e):
            return delta_F_alpha(ClassicalObject(np.ravel(t), np.ravel(e)), beta, 1.0)

        lhs = df(table_f.sum(axis=1), e_a) - df(table.sum(axis=1), e_a)
        rhs = df(table_f, energies) - df(table, energies)
        assert lhs >= rhs - 1e-8
    # Gibbs objects map to Gibbs objects under certified catalytic transitions
    for _ in range(40):
        d = int(rng.integers(2, 5))
        energies = np.sort(rng.uniform(0, 2, size=d))
        omega = classical_gibbs(energies, beta)
        if rng.uniform() < 0.5:
            g_map = random_gibbs_stochastic(rng, energies, beta)
            dst = ClassicalObject(g_map @ omega.probs, energies)
        else:
            dst = ClassicalObject(rng.dirichlet(np.ones(d)), energies)
        verdict = decide_catalytic(omega, dst, beta, grid_steps=16)
        if verdict.is_feasible:
            assert classical_is_gibbs(dst, beta), "certified image of Gibbs is not Gibbs"


def test_criterion_11_two_point_measurement():
    """P_W normalizes to 1e-10 on 100 random processes, the identity process
    is a point mass at zero, and ladder work reproduces w bit-exactly."""
    from thermowork.sampling import random_unitary
    from thermowork.scenarios import TwoPointProcess, run_two_point_measurement

    rng = rng_from_seed(1111)
    for k in range(100):
        d = int(rng.integers(2, 5))
        energies = np.sort(rng.uniform(0, 3, size=d)) + np.arange(d) * 1e-3
        h = HamiltonianClass(np.diag(energies))
        u = np.eye(d) if k == 0 else random_unitary(rng, d)
        rho = np.diag(rng.dirichlet(np.ones(d)))
        evals = np.linalg.eigvalsh(h.matrix)
        ladder = np.unique(np.concatenate([[0.0], (evals[:, None] - evals[None, :]).ravel()]))
        probs = np.zeros(len(ladder))
        probs[int(np.argmin(np.abs(ladder)))] = 1.0
        report = run_two_point_measurement(
            TwoPointProcess(h, u, rho, ClassicalObject(probs, ladder)))
        assert report.derived["total_probability"]["value"] == pytest.approx(1.0, abs=1e-10)
        rows = report.tables["work_distribution"][1:]
        if k == 0:
            assert len(rows) == 1 and float(rows[0].split(",")[0]) == 0.0
        for row in rows:
            parts = row.split(",")
            assert float(parts[0]) == float(parts[4])  # exact equality demanded


def test_criterion_12_determinism_and_wall_clock(tmp_path):
    """Two runs of the full scenario suite with one seed produce byte-identical
    reports, well inside the five-minute budget."""
    configs = {
        "fig1": {"beta": 1.0, "delta": 1.0, "d": 3},
        "wbit-violation": {"beta": 1.0, "epsilon": 0.1},
        "irreversibility": {"beta": 1.0, "probs": [0.7, 0.3], "energies": [0.0, 1.0]},
        "superadditivity-search": {"alpha": 2.0, "beta": 1.0, "seed": 42, "grid_steps": 16},
        "lifted-weight": {"beta": 1.0, "levels": 8, "spacing": 1.0},
        "two-point": {"beta": 1.0},
        "cyclic-sequence": {"beta": 1.0, "cycle": [
            {"probs": [0.9, 0.1], "energies": [0.0, 1.0]},
            {"probs": [0.3, 0.7], "energies": [0.0, 1.0]},
            {"probs": [0.5, 0.5], "energies": [0.0, 1.0]},
            {"probs": [0.9, 0.1], "energies": [0.0, 1.0]},
        ]},
    }
    start = time.monotonic()
    payloads = {}
    for attempt in ("one", "two"):
        for name, cfg in configs.items():
            report = SCENARIOS[name](dict(cfg))
            target = report.write(tmp_path / attempt)
            payloads.setdefault(name, []).append((target / "report.json").read_bytes())
    elapsed = time.monotonic() - start
    for name, (first, second) in payloads.items():
        assert first == second, f"{name} reports differ between runs"
    assert elapsed < 300.0, f"scenario suite took {elapsed:.1f} s"
