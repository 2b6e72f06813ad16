import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermowork.core import (
    EMPTY,
    EMPTY_CLASSICAL,
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    classical_gibbs,
    classical_tensor,
    classical_to_object,
)
from thermowork.divergences import BetaContext, INF, delta_F_alpha
from thermowork import feasibility
from thermowork.feasibility import (
    DEFAULT_ALPHA_GRID,
    MONOTONE_TOL,
    UNDETERMINED,
    decide_catalytic,
    decide_free,
    thermo_majorizes,
)
from thermowork.feasibility import _decide, _decide_pairs, _dropped, _joint_curves, _Prepared
from thermowork.feasibility import _tensor_rows
from thermowork.quantifiers import (
    AssistedSequence,
    CustomTable,
    EpsilonDet,
    FiniteList,
    MeanEnergy,
    MeanLadder,
    RenyiFreeEnergy,
    Unrestricted,
    WbitSet,
    WdetQuantifier,
    WdetUndefinedError,
    WorkQuantifier,
    check_additive_monotonicity,
    check_axiom1_cycle,
    check_free_nonpositivity,
    check_lemma2,
    check_superadditivity,
    correlated_second_law_bounds,
    second_law_check,
    swap_cycle_sequence,
    wdet_quantifier,
    work_cost,
    work_of_transition,
    work_value,
    wdet_value,
)
from thermowork.quantifiers import _qubit_distances
from thermowork.sampling import random_classical_object, random_gibbs_stochastic, rng_from_seed

CTX = BetaContext(1.0)
DF1 = WorkQuantifier(RenyiFreeEnergy(1.0, CTX))
DF2 = WorkQuantifier(RenyiFreeEnergy(2.0, CTX))


def bipartite_trivial(joint_probs, da=2, db=2):
    obj = classical_to_object(ClassicalObject(np.asarray(joint_probs, dtype=float),
                                              np.zeros(da * db)))
    zeros = (HamiltonianClass(np.zeros((da, da))), HamiltonianClass(np.zeros((db, db))))
    return NonInteractingObject(obj, (da, db), zeros)


class TestMonotones:
    def test_renyi_vanishes_on_empty(self):
        for alpha in (0.5, 1.0, 2.0, INF):
            assert RenyiFreeEnergy(alpha, CTX)(EMPTY) == pytest.approx(0.0, abs=1e-14)
            assert RenyiFreeEnergy(alpha, CTX)(EMPTY_CLASSICAL) == pytest.approx(0.0, abs=1e-14)

    def test_mean_energy_vanishes_on_empty_and_gibbs(self):
        m = MeanEnergy(CTX)
        assert m(EMPTY) == pytest.approx(0.0, abs=1e-14)
        assert m(classical_gibbs([0.0, 1.0], 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_mean_energy_additive_with_zero_gap(self):
        rng = rng_from_seed(0)
        m = MeanEnergy(CTX)
        for _ in range(50):
            joint = rng.dirichlet(np.ones(4))
            ni = bipartite_trivial(joint)
            res = check_superadditivity(m, ni)
            assert res["holds"]
            assert res["gap"] == pytest.approx(0.0, abs=1e-10)

    def test_custom_table_validates_empty(self):
        with pytest.raises(ValueError, match="empty"):
            CustomTable([(EMPTY_CLASSICAL, 0.7)])
        table = CustomTable([(classical_gibbs([0.0, 1.0], 1.0), 0.3)])
        assert table(EMPTY_CLASSICAL) == 0.0

    @pytest.mark.parametrize("alpha", [math.nan, -1.0])
    def test_renyi_refuses_invalid_order(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            RenyiFreeEnergy(alpha, CTX)

    def test_custom_table_raises_on_unknown(self):
        table = CustomTable([])
        with pytest.raises(KeyError):
            table(classical_gibbs([0.0, 1.0], 1.0))


class TestWork:
    def test_identity_transition_is_zero(self):
        c = ClassicalObject([0.7, 0.3], [0.0, 1.0])
        assert DF1.work(c, c) == 0.0

    def test_work_from_empty_equals_monotone(self):
        rng = rng_from_seed(1)
        for _ in range(10):
            c = random_classical_object(rng, 3)
            assert DF1.work(EMPTY_CLASSICAL, c) == pytest.approx(
                RenyiFreeEnergy(1.0, CTX)(c), abs=1e-14)

    def test_ground_to_gibbs_value(self):
        ground = ClassicalObject([1.0, 0.0], [0.0, 1.0])
        omega = classical_gibbs([0.0, 1.0], 1.0)
        assert DF1.work(ground, omega) == pytest.approx(-math.log(1 + math.exp(-1)), abs=1e-12)

    def test_antisymmetry_and_chaining(self):
        rng = rng_from_seed(2)
        a, b, c = (random_classical_object(rng, 3) for _ in range(3))
        assert DF2.work(a, b) == pytest.approx(-DF2.work(b, a), abs=1e-12)
        assert DF2.work(a, b) + DF2.work(b, c) == pytest.approx(DF2.work(a, c), abs=1e-12)


class TestRestrictionSets:
    def test_all_kinds_contain_empty(self):
        sets = [Unrestricted(), EpsilonDet(0.1, 1.0), WbitSet(0.1, 1.0),
                MeanLadder(4, 0.5), FiniteList((classical_gibbs([0.0, 1.0], 1.0),))]
        for s in sets:
            assert s.contains(EMPTY)
            assert s.contains(EMPTY_CLASSICAL)

    def test_epsilon_det_membership(self):
        p0 = EpsilonDet(0.0, 1.0)
        assert p0.contains(ClassicalObject([1.0, 0.0], [0.0, 1.0]))
        assert p0.contains(ClassicalObject([0.0, 1.0], [0.0, 1.0]))
        assert not p0.contains(ClassicalObject([0.9, 0.1], [0.0, 1.0]))
        p_eps = EpsilonDet(0.2, 1.0)
        assert p_eps.contains(ClassicalObject([0.9, 0.1], [0.0, 1.0]))
        assert not p_eps.contains(ClassicalObject([0.7, 0.3], [0.0, 1.0]))
        # the closed wbit ball includes the 2-epsilon boundary state
        assert WbitSet(0.25, 1.0).contains(ClassicalObject([0.75, 0.25], [0.0, 1.0]))

    def test_epsilon_det_rejects_wrong_hamiltonian(self):
        p = EpsilonDet(0.1, 1.0)
        assert not p.contains(ClassicalObject([1.0, 0.0], [0.0, 2.0]))
        assert not p.contains(ClassicalObject([1.0, 0.0, 0.0], [0.0, 1.0, 2.0]))

    def test_mean_ladder_membership(self):
        ladder = MeanLadder(3, 0.5)
        assert ladder.contains(ClassicalObject([0.2, 0.3, 0.5], [0.0, 0.5, 1.0]))
        assert not ladder.contains(ClassicalObject([0.5, 0.5], [0.0, 0.5]))

    def test_candidates_are_members(self):
        for s in [EpsilonDet(0.1, 1.0), WbitSet(0.1, 1.0), MeanLadder(4, 0.5)]:
            for cand in s.candidates():
                assert s.contains(cand)

    def test_ball_membership_keeps_the_allclose_rule_at_its_edges(self):
        def allclose_distances(obj, delta):  # the rule on np.sort, np.allclose and np.argsort
            e = np.sort(obj.energies - np.min(obj.energies))
            if not (obj.dim == 2 and np.allclose(e, [0.0, delta], atol=1e-9)):
                return None
            p_ground = float(obj.probs[np.argsort(obj.energies)[0]])
            return 2.0 * (1.0 - p_ground), 2.0 * p_ground

        def allclose_contains(ball, obj):
            dists = allclose_distances(obj, ball.delta)
            if dists is None:
                return False
            d, radius = min(dists), 2.0 * ball.epsilon
            return d <= 1e-12 or (d <= radius + 1e-12 if ball.closed else d < radius)

        seen = set()
        for delta, epsilon in itertools.product((1.0, 0.5, 3.7, 1e-3, 0.0), (0.0, 0.1, 0.25)):
            edge = delta + 1e-9 + 1e-5 * delta  # and one ulp either side of it
            edges = [np.nextafter(edge, -INF), edge, np.nextafter(edge, INF)]
            energy_pairs = [(0.0, delta), (delta, 0.0), (2.0, 2.0), (5.0, 5.0 + delta),
                            (5.0 + delta, 5.0), (0.0, delta + 1.0),
                            *((0.0, e) for e in edges), *((e, 0.0) for e in edges)]
            for (e0, e1), ground in itertools.product(energy_pairs, (1.0, 0.9, 1 - epsilon, 0.5)):
                for probs in ([ground, 1.0 - ground], [1.0 - ground, ground]):
                    obj = ClassicalObject(probs, [e0, e1])
                    assert _qubit_distances(obj, delta) == allclose_distances(obj, delta)
                    for ball in (EpsilonDet(epsilon, delta), WbitSet(epsilon, delta)):
                        want = allclose_contains(ball, obj)
                        assert ball.contains(obj) == want, (ball, probs, e0, e1)
                        seen.add(want)
            ladder = ClassicalObject([0.5, 0.5, 0.0], [0.0, delta, 2.0 * delta])
            assert not EpsilonDet(epsilon, delta).contains(ladder)
            for probs in ([1.0 - epsilon, epsilon], [0.5, 0.5]):  # quantum qubits: unchanged
                classical = ClassicalObject(probs, [0.0, delta])
                for ball in (EpsilonDet(epsilon, delta), WbitSet(epsilon, delta)):
                    assert ball.contains(classical_to_object(classical)) == ball.contains(classical)
        for delta in (INF, math.nan):
            obj = ClassicalObject([1.0, 0.0], [0.0, 1.0])
            assert _qubit_distances(obj, delta) is allclose_distances(obj, delta) is None
        assert seen == {True, False}


    def test_fixed_candidates_are_built_once_and_listed_fresh(self):
        fuel = ClassicalObject([0.3, 0.7], [0.0, 1.0])
        for restriction, fixed in ((Unrestricted(), 32), (MeanLadder(4, 0.5), 4),
                                   (EpsilonDet(0.1, 1.0), 16)):
            first = restriction.candidates(anchors=(fuel,), grid=32)
            first.append(fuel)
            second = restriction.candidates(anchors=(fuel,), grid=32)
            assert len(second) == len(first) - 1  # a fresh list each call
            assert all(a is b for a, b in zip(first[-1 - fixed:-1], second[-fixed:]))


class TestAxiom1Cycle:
    def test_two_cycle_vanishes(self):
        c = ClassicalObject([0.7, 0.3], [0.0, 1.0])
        omega = classical_gibbs([0.0, 1.0], 1.0)
        report = check_axiom1_cycle(DF1, [c, omega, c])
        assert report.passed
        assert abs(report.details["cycle_sum"]) <= 2e-10

    def test_random_six_cycle(self):
        rng = rng_from_seed(3)
        cycle = [random_classical_object(rng, 2) for _ in range(6)]
        cycle.append(cycle[0])
        report = check_axiom1_cycle(DF2, cycle)
        assert report.passed
        assert abs(report.details["cycle_sum"]) <= 6e-10

    def test_corrupted_table_detected(self):
        rng = rng_from_seed(4)
        objs = [random_classical_object(rng, 2) for _ in range(3)]
        values = {id(o): RenyiFreeEnergy(1.0, CTX)(o) for o in objs}

        def corrupted(src, dst):
            w = values[id(dst)] - values[id(src)]
            if src is objs[0] and dst is objs[1]:
                w += 1e-3  # one perturbed entry: no longer a difference
            return w

        report = check_axiom1_cycle(corrupted, [objs[0], objs[1], objs[2], objs[0]])
        assert not report.passed
        assert report.violations[0]["kind"] == "nonzero_cycle_sum"

    def test_rejects_open_cycle(self):
        a = ClassicalObject([0.7, 0.3], [0.0, 1.0])
        b = ClassicalObject([0.4, 0.6], [0.0, 1.0])
        with pytest.raises(ValueError, match="close"):
            check_axiom1_cycle(DF1, [a, b])


class TestAdditiveMonotonicity:
    def oracle(self, s, d):
        return decide_catalytic(s, d, 1.0)

    def test_single_feasible_pair(self):
        src = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        dst = classical_gibbs([0.0, 1.0], 1.0)
        report = check_additive_monotonicity(RenyiFreeEnergy(1.0, CTX), [src], [dst], self.oracle)
        assert report.passed and not report.skipped

    def test_swap_trick_batch(self):
        # individually infeasible, jointly a swap: the sum still cannot rise
        p = ClassicalObject([0.6, 0.25, 0.15], np.zeros(3))
        q = ClassicalObject([0.5, 0.4, 0.1], np.zeros(3))
        assert thermo_majorizes(p, q, 1.0).is_infeasible
        assert thermo_majorizes(q, p, 1.0).is_infeasible
        report = check_additive_monotonicity(
            RenyiFreeEnergy(2.0, CTX), [p, q], [q, p], self.oracle)
        assert report.passed and not report.skipped
        assert report.details["sum_src"] == pytest.approx(report.details["sum_dst"], abs=1e-12)

    def test_identity_batch_is_equality(self):
        rng = rng_from_seed(5)
        batch = [random_classical_object(rng, 2) for _ in range(3)]
        report = check_additive_monotonicity(RenyiFreeEnergy(1.0, CTX), batch, batch, self.oracle)
        assert report.passed
        assert report.details["sum_src"] == pytest.approx(report.details["sum_dst"])

    def test_undetermined_batch_skipped(self):
        src = classical_gibbs([0.0, 1.0], 1.0)
        dst = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        # swap src/dst roles so the oracle cannot decide quickly: use a pair
        # that needs a catalyst beyond the grid
        report = check_additive_monotonicity(
            RenyiFreeEnergy(1.0, CTX), [dst], [ClassicalObject([0.89, 0.11], [0.0, 1.0])],
            lambda s, d: decide_catalytic(s, d, 1.0, max_cat_dim=2, grid_steps=4))
        assert report.skipped or report.passed  # skipped batches are reported untested

    def test_violation_detected_for_bad_monotone(self):
        src = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        dst = classical_gibbs([0.0, 1.0], 1.0)
        bad = CustomTable([(src, 0.1), (dst, 0.5)], name="bad")
        report = check_additive_monotonicity(bad, [src], [dst], self.oracle)
        assert not report.passed


class TestLemma2:
    def test_renyi_passes_all_three(self):
        rng = rng_from_seed(6)
        transitions, pairs, objects = [], [], []
        for _ in range(100):
            energies = np.sort(rng.uniform(0, 2, size=3))
            src = ClassicalObject(rng.dirichlet(np.ones(3)), energies)
            g_map = random_gibbs_stochastic(rng, energies, 1.0)
            transitions.append((src, ClassicalObject(g_map @ src.probs, energies)))
            pairs.append((random_classical_object(rng, 2), random_classical_object(rng, 2)))
            objects.append(random_classical_object(rng, 3))
        report = check_lemma2(RenyiFreeEnergy(2.0, CTX), CTX, transitions, pairs, objects)
        assert report.passed

    def test_catches_nonadditive_table(self):
        a = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        b = ClassicalObject([0.2, 0.8], [0.0, 1.0])
        joint = classical_tensor(a, b)
        bad = CustomTable([(a, 0.5), (b, 0.25), (joint, 1.5)], name="nonadditive")
        report = check_lemma2(bad, CTX, pairs=[(a, b)])
        assert not report.passed
        assert report.violations[0]["kind"] == "additivity"

    def test_generators_are_checked_like_lists(self):
        a = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        b = ClassicalObject([0.2, 0.8], [0.0, 1.0])
        heat = (a, ClassicalObject([0.0, 1.0], [0.0, 1.0]))  # not free: skipped
        mono = RenyiFreeEnergy(2.0, CTX)
        as_lists = check_lemma2(mono, CTX, [heat], [(a, b)], [a])
        as_gens = check_lemma2(mono, CTX, (t for t in [heat]), (p for p in [(a, b)]),
                               (o for o in [a]))
        assert (as_lists.samples, as_lists.skipped) == (3, 1)
        assert (as_gens.samples, as_gens.skipped) == (3, 1)
        bad = CustomTable([(a, 0.5), (b, 0.25), (classical_tensor(a, b), 1.5)])
        assert not check_lemma2(bad, CTX, pairs=(p for p in [(a, b)])).passed


class TestSuperadditivity:
    def test_product_state_zero_gap(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4]).ravel()
        res = check_superadditivity(RenyiFreeEnergy(1.0, CTX), bipartite_trivial(joint))
        assert res["holds"]
        assert res["gap"] == pytest.approx(0.0, abs=1e-10)

    def test_df1_gap_is_mutual_information(self):
        joint = np.array([0.4, 0.1, 0.1, 0.4])
        res = check_superadditivity(RenyiFreeEnergy(1.0, CTX), bipartite_trivial(joint))
        table = joint.reshape(2, 2)
        mi = float(sum(table[i, j] * math.log(table[i, j] / (table[i].sum() * table[:, j].sum()))
                       for i in range(2) for j in range(2)))
        assert res["gap"] == pytest.approx(mi, abs=1e-10)
        assert res["holds"]

    def test_df2_violated_on_known_witness(self):
        res = check_superadditivity(RenyiFreeEnergy(2.0, CTX),
                                    bipartite_trivial([0.5, 0.25, 0.25, 0.0]))
        assert not res["holds"]
        assert res["gap"] < -1e-6


class TestWorkOfTransition:
    def test_unrestricted_hand_over(self):
        p = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        omega = classical_gibbs(p.energies, 1.0)
        res = work_of_transition(DF1, Unrestricted(beta=1.0), p, omega, 1.0, grid=8)
        assert res["lower_bound"] == pytest.approx(delta_F_alpha(p, 1.0, 1.0), abs=1e-9)
        assert res["certificate"].feasibility.is_feasible

    def test_finite_list_only_empty(self):
        p = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        res = work_of_transition(DF1, FiniteList(()), p, p, 1.0)
        assert res["lower_bound"] == 0.0

    def test_p0_blocks_positive_work(self):
        p = ClassicalObject([0.7, 0.3], [0.0, 1.0])
        omega = classical_gibbs(p.energies, 1.0)
        res = work_of_transition(DF1, EpsilonDet(0.0, 1.0), p, omega, 1.0)
        assert res["lower_bound"] == pytest.approx(0.0, abs=1e-12)
        positives = [t for t in res["tested"] if t["work"] > 1e-12]
        assert positives and all(t["status"] == "Infeasible" for t in positives)

    def test_ladder_extraction_bounded_by_fuel_free_energy(self):
        fuel = ClassicalObject([0.0, 1.0], [0.0, 1.0])
        omega = classical_gibbs(fuel.energies, 1.0)
        res = work_of_transition(DF1, MeanLadder(4, 0.4), fuel, omega, 1.0)
        assert res["lower_bound"] > 0
        assert res["lower_bound"] <= delta_F_alpha(fuel, 1.0, 1.0) + 1e-9
        assert res["certificate"].feasibility.is_feasible


    @staticmethod
    def outcome(res, key):
        cert = res["certificate"]
        return res[key], res["tested"], None if cert is None else cert.to_json()

    @pytest.mark.parametrize("restriction", [Unrestricted(), EpsilonDet(0.1, 1.0),
                                             WbitSet(0.1, 1.0), MeanLadder(4, 0.5)],
                             ids=["Unrestricted", "EpsilonDet", "WbitSet", "MeanLadder"])
    def test_prepared_objects_match_a_per_pair_oracle(self, restriction):
        fuel = ClassicalObject([0.3, 0.7], [0.0, 1.0])  # some pairs reach the catalyst search
        for alpha in (0.5, 1.0, 2.0, INF):
            quantifier = WorkQuantifier(RenyiFreeEnergy(alpha, CTX))
            for fn, key in ((work_value, "value"), (work_cost, "cost")):
                want = fn(quantifier, restriction, fuel, 1.0,
                          oracle=lambda s, d: decide_catalytic(s, d, 1.0), grid=8)
                got = fn(quantifier, restriction, fuel, 1.0, grid=8)
                assert self.outcome(got, key) == self.outcome(want, key)

    def test_candidates_outside_a_custom_table_are_skipped(self):
        q1, q2, q3 = (ClassicalObject([p, 1.0 - p], [0.0, 1.0]) for p in (0.9, 0.6, 0.3))
        quantifier = WorkQuantifier(CustomTable([(q1, 0.4), (q2, 0.1)]))  # KeyError on q3
        fuel = ClassicalObject([0.8, 0.2], [0.0, 1.0])
        omega = classical_gibbs(fuel.energies, 1.0)
        args = (quantifier, FiniteList((q1, q2, q3)), fuel, omega, 1.0)
        # every pair of the empty object, q1 and q2, and none with q3
        assert len(work_of_transition(*args, oracle=lambda s, d: UNDETERMINED)["tested"]) == 9
        want = work_of_transition(*args, oracle=lambda s, d: decide_catalytic(s, d, 1.0))
        assert self.outcome(work_of_transition(*args), "lower_bound") == self.outcome(
            want, "lower_bound")


class TestCandidateTable:
    """The default path screens a whole candidate table as arrays; a per-pair
    decide_catalytic oracle decides the same pairs one at a time."""

    FUELS = (ClassicalObject([0.2, 0.8], [0.0, 2.0]),  # pairs reach the catalyst search
             ClassicalObject([0.3, 0.7], [0.0, 1.0]),
             ClassicalObject([0.5, 0.3, 0.2], [0.0, 0.7, 1.5]))  # 12-level ladder rows

    @staticmethod
    def dump(res, key):
        cert = res["certificate"]
        return json.dumps([res[key], res["tested"], None if cert is None else cert.to_json()])

    def test_table_matches_a_per_pair_oracle(self):
        ladder = MeanLadder(4, 0.5)  # joint rows of 8 and 12 levels, past numpy's 8-way unroll
        assert {classical_tensor(fuel, c).dim for fuel in self.FUELS
                for c in ladder.candidates(anchors=(fuel,))} == {2, 3, 8, 12}
        searched = 0  # pairs that reach the catalyst search
        for restriction in (Unrestricted(), EpsilonDet(0.1, 1.0), WbitSet(0.1, 1.0), ladder):
            for fuel, alpha in itertools.product(self.FUELS, (0.5, 1.0, 2.0, INF)):
                quantifier = WorkQuantifier(RenyiFreeEnergy(alpha, CTX))
                for fn, key in ((work_value, "value"), (work_cost, "cost")):
                    want = fn(quantifier, restriction, fuel, 1.0, grid=32,
                              oracle=lambda s, d: decide_catalytic(s, d, 1.0))
                    got = fn(quantifier, restriction, fuel, 1.0, grid=32)
                    assert self.dump(got, key) == self.dump(want, key), (restriction, alpha)
                    searched += sum(t["status"] == "Undetermined" for t in got["tested"])
        assert searched > 0

    @pytest.mark.parametrize(("restriction", "hard"), [(EpsilonDet(0.1, 1.0), True),
                                                       (MeanLadder(4, 0.5), False)],
                             ids=["EpsilonDet", "MeanLadder"])
    def test_every_pair_is_decided_as_by_decide(self, restriction, hard, monkeypatch):
        # drained past the first Feasible pair, which work_of_transition never reaches
        ends = (DEFAULT_ALPHA_GRID[0], INF)
        interior = 0  # pairs the screen drops that only an order inside the grid refutes
        orders, searched = set(), 0  # with nothing dropped: refuting orders, searched pairs
        for fuel in self.FUELS:
            omega = classical_gibbs(fuel.energies, 1.0)
            cands = restriction.candidates(anchors=(fuel, omega), grid=32)
            i, j = np.divmod(np.arange(len(cands) ** 2), len(cands))
            yielded = [(n, v.to_json()) for n, v in _decide_pairs(fuel, omega, cands, i, j, 1.0)]
            got = dict(yielded)
            assert list(got) == sorted(got) and len(got) == len(yielded)
            statuses = [v["status"] for v in got.values()]
            assert statuses.index("Feasible") + 1 < len(statuses)  # pairs after it decided too
            skipped, wants = 0, []
            for n, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
                src, dst = (_Prepared(classical_tensor(x, cands[k]), 1.0)
                            for x, k in ((fuel, a), (omega, b)))
                want = _decide(src, dst).to_json()
                wants.append(json.dumps(want))
                if n in got:
                    assert json.dumps(got[n]) == wants[n], n
                else:  # skipped: refuted by a monotone
                    skipped += 1
                    assert want["status"] == "Infeasible"
                    assert want["witness"]["kind"] == "monotone_increase"
                if (want["witness"] or {}).get("kind") == "monotone_increase" and not np.any(
                        dst.fill_free(ends) > src.fill_free(ends) + MONOTONE_TOL):
                    curves = [_joint_curves(p.obj.probs[None], p.gibbs()) for p in (src, dst)]
                    interior += bool(_dropped(*curves[0], *curves[1])[0])
            assert skipped > 0
            with monkeypatch.context() as patch:  # the screen drops nothing: every pair yielded
                patch.setattr(feasibility, "_SCREEN_SLACK", 1.0)
                every = [v for _, v in _decide_pairs(fuel, omega, cands, i, j, 1.0)]
            assert [json.dumps(v.to_json()) for v in every] == wants
            orders |= {v.witness["alpha"] for v in every if v.is_infeasible}
            searched += sum(v.is_undetermined or v.witness["kind"] == "catalyst" for v in every)
        if hard:  # orders inside the grid refute, dropped pairs included; the search runs
            assert interior > 0 and orders - set(ends) and searched > 0

    def test_chunk_sizes_are_invisible(self, monkeypatch):
        # the first chunk of one pair, of the default size and of the whole list
        yielded = searched = 0
        for restriction, fuel in itertools.product(
                (Unrestricted(), EpsilonDet(0.1, 1.0), WbitSet(0.1, 1.0), MeanLadder(4, 0.5)),
                self.FUELS):
            omega = classical_gibbs(fuel.energies, 1.0)
            cands = restriction.candidates(anchors=(fuel, omega), grid=32)
            works = DF1.monotone._values(cands)
            order = np.argsort(works[None, :] - works[:, None], axis=None, kind="stable")[::-1]
            i, j = np.divmod(order, len(cands))
            for src, dst in ((fuel, omega), (omega, fuel)):
                runs = []
                for first in (1, feasibility._FIRST_PAIRS, len(i)):
                    with monkeypatch.context() as patch:
                        patch.setattr(feasibility, "_FIRST_PAIRS", first)
                        runs.append([(n, v.to_json())
                                     for n, v in _decide_pairs(src, dst, cands, i, j, 1.0)])
                assert runs[0] == runs[1] == runs[2], (restriction, fuel)
                yielded += len(runs[0])
                searched += sum(v["status"] == "Undetermined" or v["witness"]["kind"] == "catalyst"
                                for _, v in runs[0])
        assert yielded > 0 and searched > 0

    def test_the_screen_stops_at_the_chunk_of_the_certified_pair(self, monkeypatch):
        screened, dropped = [], feasibility._dropped
        monkeypatch.setattr(feasibility, "_dropped",
                            lambda xs, *args: screened.append(len(xs)) or dropped(xs, *args))
        fuel = ClassicalObject([0.7, 0.3], [0.0, 1.0])  # the README's
        for fn in (work_value, work_cost):
            screened.clear()
            res = fn(DF1, Unrestricted(), fuel, 1.0, grid=32)
            pairs = len(Unrestricted().candidates(anchors=(fuel, fuel), grid=32)) ** 2
            assert len(res["tested"]) <= sum(screened) < pairs

    def test_a_pair_past_the_tensor_cap_raises_only_when_reached(self):
        # both pairs are dropped and open, so they are settled together; the second
        # needs a catalyst search past the tensor cap, which must not cost the first
        jp = [ClassicalObject(p, np.zeros(4))
              for p in ([0.5, 0.25, 0.25, 0.0], [0.4, 0.4, 0.1, 0.1])]
        wide = [ClassicalObject(np.outer(c.probs, np.full(525, 1 / 525)).ravel(), np.zeros(2100))
                for c in jp]
        verdicts = _decide_pairs(EMPTY_CLASSICAL, EMPTY_CLASSICAL, jp + wide, np.array([0, 2]),
                                 np.array([1, 3]), 1.0)
        n, verdict = next(verdicts)
        assert n == 0 and verdict.witness["kind"] == "catalyst"
        with pytest.raises(ValueError, match="tensor product dimension 4200 exceeds cap 4096"):
            next(verdicts)

    def test_tensor_rows_are_the_prepared_arrays(self):
        padded = 0
        for restriction in (Unrestricted(), EpsilonDet(0.1, 1.0), WbitSet(0.1, 1.0),
                            MeanLadder(4, 0.5)):
            for fuel, beta in itertools.product(self.FUELS, (1.0, 2.5)):
                omega = classical_gibbs(fuel.energies, beta)
                cands = restriction.candidates(anchors=(fuel, omega), grid=32)
                for base, cat_dim in itertools.product((fuel, omega), range(1, 5)):
                    probs, gibbs = _tensor_rows(base, cands, beta, cat_dim)
                    assert gibbs.shape == (len(cands), probs.shape[1] * cat_dim)
                    for k, c in enumerate(cands):
                        joint = classical_tensor(base, c)
                        w = joint.dim * cat_dim
                        want = _Prepared(joint, beta).gibbs(cat_dim)
                        assert probs[k, :joint.dim].tobytes() == joint.probs.tobytes()
                        assert gibbs[k, :w].tobytes() == want.tobytes()
                        assert not probs[k, joint.dim:].any() and not gibbs[k, w:].any()
                        padded += w < gibbs.shape[1]
        assert padded > 0

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from((0.0, 0.5, 1.0, 2.0, INF)) | st.floats(1e-2, 1e2),
           st.floats(0.1, 10.0), st.integers(1, 4).flatmap(
               lambda d: st.tuples(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d),
                                   st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d))))
    def test_batched_monotone_values_are_its_calls(self, alpha, beta, fuel):
        weights, energies = (np.array(x) for x in fuel)
        if not weights.sum() > 0:
            return
        fuel = ClassicalObject(weights / weights.sum(), energies)
        m = RenyiFreeEnergy(alpha, BetaContext(beta))
        anchors = (fuel, classical_gibbs(fuel.energies, 1.0))
        q1, q2 = (ClassicalObject([p, 1.0 - p], [0.0, 1.0]) for p in (0.9, 0.6))
        for restriction in (Unrestricted(), EpsilonDet(0.1, 1.0), WbitSet(0.1, 1.0),
                            MeanLadder(4, 0.5), FiniteList((q1, fuel, q2))):
            cands = restriction.candidates(anchors=anchors, grid=32)
            assert [repr(float(v)) for v in m._values(cands)] == [repr(m(c)) for c in cands]

    def test_custom_table_with_a_skipped_candidate(self):
        q1, q2, q3 = (ClassicalObject([p, 1.0 - p], [0.0, 1.0]) for p in (0.9, 0.6, 0.3))
        quantifier = WorkQuantifier(CustomTable([(q1, 0.4), (q2, 0.1)]))  # KeyError on q3
        for fuel in self.FUELS:
            omega = classical_gibbs(fuel.energies, 1.0)
            for src, dst in ((fuel, omega), (omega, fuel)):
                args = (quantifier, FiniteList((q1, q2, q3)), src, dst, 1.0)
                want = work_of_transition(*args, oracle=lambda s, d: decide_catalytic(s, d, 1.0))
                got = work_of_transition(*args)
                assert len(got["tested"]) == 9 or got["certificate"] is not None
                assert self.dump(got, "lower_bound") == self.dump(want, "lower_bound")


class TestWorkValueAndCost:
    def test_gibbs_input_is_worthless_and_free(self):
        omega = classical_gibbs([0.0, 1.0], 1.0)
        res = second_law_check(DF1, Unrestricted(beta=1.0), omega, 1.0, grid=8)
        assert res["value"]["value"] == pytest.approx(0.0, abs=1e-9)
        assert res["cost"]["cost"] == pytest.approx(0.0, abs=1e-9)
        assert res["second_law_ok"]

    def test_unrestricted_reversible(self):
        p = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        df1 = delta_F_alpha(p, 1.0, 1.0)
        val = work_value(DF1, Unrestricted(beta=1.0), p, 1.0, grid=8)
        cst = work_cost(DF1, Unrestricted(beta=1.0), p, 1.0, grid=8)
        assert val["value"] == pytest.approx(df1, abs=1e-9)
        assert cst["cost"] == pytest.approx(df1, abs=1e-9)

    def test_p0_irreversibility_gap(self):
        p = ClassicalObject([0.7, 0.3], [0.0, 1.0])
        df1 = delta_F_alpha(p, 1.0, 1.0)
        restriction = EpsilonDet(0.0, 1.0)
        val = work_value(DF1, restriction, p, 1.0)
        cst = work_cost(DF1, restriction, p, 1.0)
        assert val["value"] == pytest.approx(0.0, abs=1e-12)
        assert cst["cost"] >= df1 - 1e-12
        assert cst["cost"] > val["value"]

    def test_second_law_on_random_instances(self):
        rng = rng_from_seed(7)
        for _ in range(5):
            p = random_classical_object(rng, 2)
            res = second_law_check(DF1, EpsilonDet(0.0, 1.0), p, 1.0, grid=8)
            assert res["second_law_ok"]


class TestCorrelatedBounds:
    def test_product_additive_equality(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4]).ravel()
        res = correlated_second_law_bounds(RenyiFreeEnergy(1.0, CTX), bipartite_trivial(joint))
        assert res["cost_upper"] == pytest.approx(res["value_lower"], abs=1e-10)
        assert not res["breach"]

    def test_df1_never_breaches(self):
        rng = rng_from_seed(8)
        for _ in range(50):
            res = correlated_second_law_bounds(
                RenyiFreeEnergy(1.0, CTX), bipartite_trivial(rng.dirichlet(np.ones(4))))
            assert not res["breach"]

    def test_df2_breaches_on_witness(self):
        ni = bipartite_trivial([0.5, 0.25, 0.25, 0.0])
        gap = check_superadditivity(RenyiFreeEnergy(2.0, CTX), ni)["gap"]
        res = correlated_second_law_bounds(RenyiFreeEnergy(2.0, CTX), ni)
        assert res["breach"]
        assert res["value_lower"] - res["cost_upper"] == pytest.approx(-gap, abs=1e-12)


class TestWdet:
    def test_pure_transition_pays_the_gap(self):
        ground = ClassicalObject([1.0, 0.0], [0.0, 0.7])
        excited = ClassicalObject([0.0, 1.0], [0.0, 0.7])
        assert wdet_quantifier(ground, excited) == pytest.approx(0.7)

    def test_identity_is_zero(self):
        c = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        assert wdet_quantifier(c, c) == 0.0

    def test_undefined_midpoint(self):
        with pytest.raises(WdetUndefinedError):
            wdet_value(ClassicalObject([0.5, 0.5], [0.0, 1.0]))

    def test_membership_enforced(self):
        far = ClassicalObject([0.6, 0.4], [0.0, 1.0])
        with pytest.raises(ValueError, match="wbit"):
            wdet_quantifier(far, far, WbitSet(0.1, 1.0))


class TestFreeNonpositivity:
    def _pairs(self, epsilon, delta):
        states = [ClassicalObject([1.0, 0.0], [0.0, delta]),
                  ClassicalObject([0.0, 1.0], [0.0, delta])]
        if epsilon > 0:
            states.append(ClassicalObject([epsilon, 1.0 - epsilon], [0.0, delta]))
            states.append(ClassicalObject([1.0 - epsilon, epsilon], [0.0, delta]))
        return [(s, d) for s in states for d in states]

    def oracle(self, s, d):
        return decide_free(s, d, 1.0)

    def test_renyi_quantifiers_never_flag(self):
        report = check_free_nonpositivity(DF1, WbitSet(0.1, 1.0), self.oracle,
                                          self._pairs(0.1, 1.0))
        assert report.passed

    def test_wdet_clean_at_zero_epsilon(self):
        report = check_free_nonpositivity(WdetQuantifier(), WbitSet(0.0, 1.0),
                                          self.oracle, self._pairs(0.0, 1.0))
        assert report.passed
        assert report.samples > 0

    def test_wdet_violated_at_small_gap(self):
        report = check_free_nonpositivity(WdetQuantifier(), WbitSet(0.1, 0.05),
                                          self.oracle, self._pairs(0.1, 0.05))
        assert not report.passed
        v = report.violations[0]
        assert v["work"] == pytest.approx(0.05, abs=1e-12)
        assert "witness" in v


class TestSwapCycle:
    def test_three_cycle_certified(self):
        rng = rng_from_seed(9)
        cycle = [random_classical_object(rng, 2) for _ in range(3)]
        cycle.append(cycle[0])
        seq, verdicts = swap_cycle_sequence(cycle, 1.0)
        assert all(v.is_feasible for v in verdicts)
        total = sum(DF1.work(s, d) for s, d in seq.steps)
        assert abs(total) <= 3e-10

    def test_two_cycle_catalyst_is_intermediate(self):
        a = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        b = ClassicalObject([0.3, 0.7], [0.0, 1.0])
        seq, verdicts = swap_cycle_sequence([a, b, a], 1.0)
        assert all(v.is_feasible for v in verdicts)
        cat = seq.assistants[0][0]
        assert np.allclose(cat.probs, b.probs)

    def test_chain_closure_enforced(self):
        a = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        b = ClassicalObject([0.3, 0.7], [0.0, 1.0])
        with pytest.raises(ValueError, match="close"):
            AssistedSequence(((a, b),), ((a, b),))

    def test_eight_cycle_within_guard(self):
        rng = rng_from_seed(10)
        cycle = [random_classical_object(rng, 2) for _ in range(8)]
        cycle.append(cycle[0])
        seq, verdicts = swap_cycle_sequence(cycle, 1.0)
        assert all(v.is_feasible for v in verdicts)
        total = sum(DF1.work(s, d) for s, d in seq.steps)
        assert abs(total) <= 8e-10
