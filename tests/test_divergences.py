import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thermowork import divergences
from thermowork.core import (
    EMPTY,
    MAX_TENSOR_DIM,
    ClassicalObject,
    HamiltonianClass,
    ThermoObject,
    gibbs_state,
    is_gibbs,
    tensor,
)
from thermowork.divergences import (
    EIG_ZERO,
    BetaContext,
    INF,
    _POW_SAFE,
    _support_values,
    classical_renyi_divergence,
    classical_renyi_divergences,
    delta_F_1_via_energy,
    delta_F_alpha,
    mutual_information,
    relative_entropy,
    renyi_divergence,
    renyi_divergences,
    von_neumann_entropy,
)
from thermowork.feasibility import DEFAULT_ALPHA_GRID
from thermowork.sampling import (
    random_channel,
    random_density_matrix,
    random_object,
    rng_from_seed,
)

ALPHAS = [0.5, 1.0, 2.0, INF]


def _mp_renyi(p, q, alpha) -> float:
    """The classical Renyi divergence at a finite order alpha != 1, with 50
    digits, over the levels where p and q exceed 1e-14."""
    with mpmath.workdps(50):
        total = mpmath.fsum(mpmath.mpf(a) ** alpha * mpmath.mpf(b) ** (1 - mpmath.mpf(alpha))
                            for a, b in zip(p, q) if min(a, b) > 1e-14)
        return float(mpmath.log(total) / (mpmath.mpf(alpha) - 1))


def _mp_delta_f(probs, energies, alpha) -> float:
    """delta_F_alpha of a classical object at beta = 1, with 50 digits, its Gibbs weights
    taken from the energies in mpmath: the reference no Gibbs underflow reaches."""
    with mpmath.workdps(50):
        weights = [mpmath.exp(-mpmath.mpf(e)) for e in energies]
        z = mpmath.fsum(weights)
        levels = [(mpmath.mpf(p), w / z) for p, w in zip(probs, weights) if p > 0]
        if alpha == 1.0:
            return float(mpmath.fsum(p * mpmath.log(p / g) for p, g in levels))
        if alpha == INF:
            return float(mpmath.log(max(p / g for p, g in levels)))
        a = mpmath.mpf(alpha)
        return float(mpmath.log(mpmath.fsum(p ** a * g ** (1 - a) for p, g in levels)) / (a - 1))


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        for d in (2, 3, 7):
            assert von_neumann_entropy(np.eye(d) / d) == pytest.approx(math.log(d))

    def test_direct_evaluation(self):
        probs = np.array([0.5, 0.25, 0.25])
        expected = -float(np.sum(probs * np.log(probs)))  # = 1.5 ln 2
        assert expected == pytest.approx(1.5 * math.log(2))
        assert von_neumann_entropy(np.diag(probs)) == pytest.approx(expected, abs=1e-12)


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = rng_from_seed(0)
        rho = random_density_matrix(rng, 3)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_mixed(self):
        assert relative_entropy(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(math.log(2))

    def test_support_violation_is_infinite(self):
        rho = np.diag([0.5, 0.5, 0.0])
        sigma = np.diag([1.0, 0.0, 0.0])
        assert relative_entropy(rho, sigma) == INF


class TestRenyiDivergence:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 2.0, 5.0, INF])
    def test_identical_arguments_vanish(self, alpha):
        rng = rng_from_seed(1)
        rho = random_density_matrix(rng, 3)
        assert renyi_divergence(rho, rho, alpha) == pytest.approx(0.0, abs=1e-9)

    def test_alpha_two_classical_value(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        expected = math.log(float(np.sum(p ** 2 / q)))  # = ln 2
        assert expected == pytest.approx(math.log(2))
        assert classical_renyi_divergence(p, q, 2.0) == pytest.approx(expected, abs=1e-12)
        assert renyi_divergence(np.diag(p), np.diag(q), 2.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.9, 2.0, 3.5, INF])
    def test_commuting_matches_classical_formula(self, alpha):
        rng = rng_from_seed(2)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            quantum = renyi_divergence(np.diag(p), np.diag(q), alpha)
            classical = classical_renyi_divergence(p, q, alpha)
            assert quantum == pytest.approx(classical, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, INF])
    def test_additivity_on_products(self, alpha):
        rng = rng_from_seed(3)
        for _ in range(50):
            p1, q1 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
            p2, q2 = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
            joint = classical_renyi_divergence(np.kron(p1, p2), np.kron(q1, q2), alpha)
            parts = (classical_renyi_divergence(p1, q1, alpha)
                     + classical_renyi_divergence(p2, q2, alpha))
            assert joint == pytest.approx(parts, abs=1e-9)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_data_processing(self, alpha):
        rng = rng_from_seed(4)
        for _ in range(100):
            d = 3
            rho = random_density_matrix(rng, d)
            sigma = random_density_matrix(rng, d)
            channel = random_channel(rng, d, env=2)
            before = renyi_divergence(rho, sigma, alpha)
            after = renyi_divergence(channel(rho), channel(sigma), alpha)
            assert after <= before + 1e-8

    def test_monotone_in_alpha_commuting(self):
        rng = rng_from_seed(5)
        grid = np.linspace(0.05, 6.0, 20)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            values = [classical_renyi_divergence(p, q, a) for a in grid]
            assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))

    def test_alpha_zero_support_overlap(self):
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.2, 0.3, 0.5])
        assert classical_renyi_divergence(p, q, 0.0) == pytest.approx(-math.log(0.5))
        assert renyi_divergence(np.diag(p), np.diag(q), 0.0) == pytest.approx(-math.log(0.5), abs=1e-10)

    def test_orthogonal_supports_infinite(self):
        p = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        for alpha in (0.5, 1.0, 2.0, INF):
            assert renyi_divergence(p, q, alpha) == INF

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            renyi_divergence(np.eye(2) / 2, np.eye(2) / 2, -0.5)


class TestBatchedClassicalRenyi:
    ORDERS = [0.0, 0.01, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 100.0, INF, 0.3]

    def test_matches_scalar_formula_bit_for_bit(self):
        rng = rng_from_seed(17)
        cases = [(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))) for d in range(1, 7)]
        cases += [
            (np.array([0.5, 0.5]), np.array([1.0, 0.0])),  # support outside the reference
            (np.array([1.0, 0.0]), np.array([0.0, 1.0])),  # disjoint supports
            (np.full(4, 0.25), np.array([0.5, 0.5 - 1e-6, 1e-6, 0.0])),  # overflow at 100
        ]
        for p, q in cases:
            with np.errstate(all="ignore"):
                want = [repr(classical_renyi_divergence(p, q, a)) for a in self.ORDERS]
            assert [repr(v) for v in classical_renyi_divergences(p, q, self.ORDERS)] == want

    @pytest.mark.parametrize("bad", [float("nan"), -0.5])
    def test_rejects_invalid_order(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            classical_renyi_divergences([0.5, 0.5], [0.5, 0.5], [1.0, bad])

    def test_relative_entropy_keeps_a_reference_weight_above_the_support_cut(self):
        # Gibbs weights at E = (0, 30), beta = 1: the second, 9.4e-14, is in the support
        p = np.array([0.5, 0.5])
        q = np.array([1.0, math.exp(-30.0)]) / (1.0 + math.exp(-30.0))
        below, at, above = classical_renyi_divergences(p, q, [0.99, 1.0, 1.01])
        assert below < at < above
        assert at == pytest.approx(15.0 + math.log1p(math.exp(-30.0)) - math.log(2.0), rel=1e-12)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0),
                              st.one_of(st.floats(0.0, 1.0),
                                        st.floats(1e-14, 1e-12, exclude_min=True))),
                    min_size=1, max_size=6))
    def test_batch_is_the_one_order_formula_and_nondecreasing(self, levels):
        # reference weights in (1e-14, 1e-12] are in the support at every order
        p, q = (np.array(column) for column in zip(*levels))
        if not p.sum() > 0:
            return
        p = p / p.sum()
        grid = sorted(DEFAULT_ALPHA_GRID + (0.0, 0.5, 2.0))
        values = classical_renyi_divergences(p, q, grid)
        assert [repr(v) for v in values] == [repr(classical_renyi_divergence(p, q, a))
                                             for a in grid]
        # nondecreasing at every order, power sums that overflow included
        assert all(b >= a or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                   for a, b in zip(values, values[1:]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda d: st.lists(
        st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                           st.one_of(st.just(0.0), st.floats(0.0, 1.0),
                                     st.floats(1e-14, 1e-12, exclude_min=True))),
                 min_size=d, max_size=d),
        min_size=1, max_size=6)))
    def test_rows_are_one_row_calls(self, rows):
        # up to 12 levels, across numpy's 8-way unrolled sum; tiny reference weights
        # make the power sums at the larger orders overflow
        p, q = (np.array([[level[k] for level in row] for row in rows]) for k in (0, 1))
        grid = DEFAULT_ALPHA_GRID + (0.0, 0.5, 2.0, 150.0, 1e4, 0.3)
        got = classical_renyi_divergences(p, q, grid)
        assert [[repr(v) for v in row] for row in got] == [
            [repr(v) for v in classical_renyi_divergences(p_row, q_row, grid)]
            for p_row, q_row in zip(p, q)]

    @pytest.mark.parametrize("d", [16, 40])
    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    @pytest.mark.parametrize("holes", [False, True])
    def test_rows_of_any_memory_layout_are_one_row_calls(self, holes, layout, d):
        # every level in both supports, or each row without one level of p, a different
        # one per row; past 8 levels numpy's sum is pairwise along a contiguous row, so a
        # row read across the memory order would add in another order
        rng, grid = rng_from_seed(d), DEFAULT_ALPHA_GRID + (0.0,)
        wide = [rng.dirichlet(np.ones(2 * d), size=5) + 1e-3 for _ in range(2)]
        if holes:
            wide[0][range(5), [0, 6, 12, 18, 24]] = 0.0
        p, q = (np.asfortranarray(a[:, :d]) if layout == "fortran" else a[:, ::2] for a in wide)
        assert not (p.flags.c_contiguous or q.flags.c_contiguous)
        got = classical_renyi_divergences(p, q, grid)
        assert [[repr(v) for v in row] for row in got] == [
            [repr(v) for v in classical_renyi_divergences(p_row.tolist(), q_row.tolist(), grid)]
            for p_row, q_row in zip(p, q)]

    @pytest.mark.parametrize("p, q, leak", [
        ([0.5, 0.0, 0.3, 0.2], [0.1, 0.4, 0.2, 0.3], False),  # a level outside the support of p
        ([0.5, 0.1, 0.3, 0.1], [0.3, 0.0, 0.4, 0.3], True),  # a reference weight of 0
    ])
    def test_one_row_with_a_level_outside_the_support(self, p, q, leak):
        grid = [0.0, 0.3, 0.5, 0.9, 1.0, 2.0, 3.0, 100.0, INF]
        inside = [k for k in range(len(p)) if min(p[k], q[k]) > 0.0]
        support = classical_renyi_divergences([p[k] for k in inside], [q[k] for k in inside], grid)
        mass = sum(b for a, b in zip(p, q) if a > 0.0)
        want = [-math.log(mass) if alpha == 0.0 else INF if leak and alpha >= 1.0 else v
                for alpha, v in zip(grid, support)]
        assert [repr(v) for v in classical_renyi_divergences(p, q, grid)] == [repr(v) for v in want]
        # the same row in a batch whose other row has full support
        batch = classical_renyi_divergences([p, [0.25] * 4], [q, [0.25] * 4], grid)
        assert [repr(v) for v in batch[0]] == [repr(v) for v in want]

    def test_zero_levels_and_zero_rows(self):
        grid = DEFAULT_ALPHA_GRID + (0.0,)
        one = classical_renyi_divergences(np.empty(0), np.empty(0), grid)
        # no level in the support: +inf at every order, 1 included
        assert one == [INF] * len(grid)
        assert classical_renyi_divergences(np.empty((3, 0)), np.empty((3, 0)), grid) == [one] * 3
        for levels in (0, 3):
            assert classical_renyi_divergences(np.empty((0, levels)), np.empty((0, levels)),
                                               grid) == []

    @pytest.mark.parametrize("p, q", [
        ([1.0], [3.68e-13]),
        ([0.5, 0.5], [1.0 - 3.68e-13, 3.68e-13]),
        ([0.25, 0.25, 0.25, 0.25], [0.5, 0.5 - 2e-6, 1e-6, 1e-6]),
    ])
    def test_overflowed_power_sums_match_an_mpmath_reference(self, p, q):
        # q ** (1 - alpha) overflows from alpha ~ 30 on; the log domain keeps the value
        grid = [a for a in DEFAULT_ALPHA_GRID if 1.0 < a < INF] + [150.0, 1e4]
        values = classical_renyi_divergences(p, q, grid)
        for alpha, value in zip(grid, values):
            assert value == pytest.approx(_mp_renyi(p, q, alpha), rel=1e-12), alpha
        if p == [1.0]:  # the value of every order, alpha = inf included
            assert values[grid.index(DEFAULT_ALPHA_GRID[39])] == pytest.approx(28.63, abs=5e-3)


def _levels(kind: str, rng, rows: int, levels: int) -> np.ndarray:
    """Support levels in (EIG_ZERO, 1]: all just above EIG_ZERO, all 1.0, or each
    one of those two or log-uniform in between."""
    tiny = np.nextafter(EIG_ZERO, 1.0)
    if kind != "mixed":
        return np.full((rows, levels), tiny if kind == "tiny" else 1.0)
    between = np.maximum(10.0 ** rng.uniform(-14.0, 0.0, (rows, levels)), tiny)
    return np.choose(rng.integers(0, 3, (rows, levels)), [np.full((rows, levels), tiny),
                                                          np.ones((rows, levels)), between])


class TestLargeOrdersByLogSumExp:
    LOW = [a for a in DEFAULT_ALPHA_GRID if a <= _POW_SAFE and a != 1.0] + [float(_POW_SAFE)]
    STRADDLE = [_POW_SAFE - 1e-9, float(_POW_SAFE), _POW_SAFE + 1e-9, 100.0, 1e4]

    @staticmethod
    def _large_oracles_row():
        """A d = 1024 row shaped as large-oracles draws it: Dirichlet p with its
        smallest entry near 1e-8, Gibbs weights of energies uniform in [0, 3]."""
        rng = rng_from_seed(130)
        p = rng.dirichlet(np.ones(1024))
        g = np.exp(-rng.uniform(0.0, 3.0, 1024))
        return p, g / g.sum()

    def test_the_bound_is_where_a_power_of_eig_zero_leaves_the_normal_floats(self):
        tiny = np.finfo(float).tiny
        assert _POW_SAFE == 21
        assert EIG_ZERO ** _POW_SAFE > tiny > EIG_ZERO ** (_POW_SAFE + 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, MAX_TENSOR_DIM), st.integers(1, 3),
           st.sampled_from(["tiny", "one", "mixed"]), st.sampled_from(["tiny", "one", "mixed"]),
           st.integers(0, 2 ** 32 - 1))
    @example(MAX_TENSOR_DIM, 2, "tiny", "one", 0)
    @example(MAX_TENSOR_DIM, 2, "one", "tiny", 0)
    @example(MAX_TENSOR_DIM, 3, "mixed", "mixed", 1)
    def test_power_sums_up_to_the_bound_stay_normal(self, levels, rows, p_kind, q_kind, seed):
        # every order up to the bound, batched and one by one (scalar exponents),
        # needs no log-sum-exp and raises no floating-point flag
        rng = rng_from_seed(seed)
        pb, qb = _levels(p_kind, rng, rows, levels), _levels(q_kind, rng, rows, levels)
        refused = AssertionError("a power sum left (0, inf)")
        with np.errstate(under="raise", over="raise", invalid="raise"), \
                mock.patch.object(divergences, "_log_sums", side_effect=refused):
            for orders in [self.LOW, [0.5, 2.0]] + [[a] for a in self.LOW]:
                values = _support_values(pb, qb, orders)
                assert all(math.isfinite(v) for row in values for v in row), orders

    def test_large_orders_match_an_mpmath_reference(self):
        p, q = self._large_oracles_row()
        assert p.min() < 1e-7
        high = [a for a in DEFAULT_ALPHA_GRID if _POW_SAFE < a < INF]
        assert len(high) == 7
        values = classical_renyi_divergences(p, q, DEFAULT_ALPHA_GRID)
        for alpha in high:
            value = values[DEFAULT_ALPHA_GRID.index(alpha)]
            assert value == pytest.approx(_mp_renyi(p, q, alpha), rel=1e-12), alpha

    def test_orders_straddling_the_bound_are_one_order_calls(self):
        p, q = self._large_oracles_row()
        rows = (np.stack([p, p[::-1]]), np.stack([q, q]))
        grid = self.STRADDLE + list(DEFAULT_ALPHA_GRID)
        for p_row, q_row, values in zip(*rows, classical_renyi_divergences(*rows, grid)):
            want = [repr(classical_renyi_divergence(p_row, q_row, a)) for a in grid]
            assert [repr(v) for v in values] == want
            assert [repr(v) for v in classical_renyi_divergences(p_row, q_row, grid)] == want
            backwards = classical_renyi_divergences(p_row, q_row, grid[::-1])
            assert [repr(v) for v in backwards] == want[::-1]


def _leak(rho, s_vecs, kernel) -> float:
    proj = s_vecs[:, kernel] @ s_vecs[:, kernel].conj().T
    return float(np.real(np.trace(rho @ proj))) if kernel.any() else 0.0


def _sandwiched_reference(rho, sigma, alpha) -> float:
    """The sandwiched divergence of one order with its own decomposition of
    sigma: the per-order formulas the batch must reproduce to the bit."""
    alpha = float(alpha)
    s_evals, s_vecs = np.linalg.eigh(sigma)
    kernel = s_evals < 1e-12
    sup = ~kernel
    if alpha >= 1.0 and _leak(rho, s_vecs, kernel) > 1e-12:
        return INF
    if alpha == 1.0:
        r_evals = np.linalg.eigvalsh(rho)
        pos = r_evals[r_evals > 1e-14]
        overlaps = np.real(np.einsum("ij,jk,ki->i", s_vecs[:, sup].conj().T, rho, s_vecs[:, sup]))
        return float(np.sum(pos * np.log(pos))) - float(np.sum(overlaps * np.log(s_evals[sup])))
    if alpha == 0.0:
        r_evals, r_vecs = np.linalg.eigh(rho)
        keep = r_evals > 1e-12
        mass = float(np.real(np.trace((r_vecs[:, keep] @ r_vecs[:, keep].conj().T) @ sigma)))
        return INF if mass <= 0.0 else -math.log(mass)
    exponent = -0.5 if alpha == INF else (1.0 - alpha) / (2.0 * alpha)
    sand = (s_vecs[:, sup] * (s_evals[sup] ** exponent)) @ s_vecs[:, sup].conj().T
    mu = np.linalg.eigvalsh(sand @ rho @ sand)
    if alpha == INF:
        return math.log(float(np.max(mu)))
    pos = mu[mu > 1e-14]
    total = float(np.sum(pos ** alpha))
    if 0.0 < total < INF:
        return math.log(total) / (alpha - 1.0)
    if not len(pos):
        return INF
    t = alpha * np.log(pos)  # an overflowed power sum, by log-sum-exp
    return (float(t.max()) + math.log(float(np.exp(t - t.max()).sum()))) / (alpha - 1.0)


class TestBatchedSandwichedRenyi:
    ORDERS = [a for a in DEFAULT_ALPHA_GRID if a >= 0.5] + [0.0, 1.0, INF, 0.5, 2.0]

    def _pairs(self):
        """Non-commuting pairs, d = 1..32, with a reference of full rank, with
        a kernel the state leaks into, and with a kernel it stays out of."""
        rng = rng_from_seed(23)
        for d in (1, 2, 3, 5, 8, 16, 32):
            yield random_density_matrix(rng, d), random_density_matrix(rng, d)
            if d > 1:
                sigma = random_density_matrix(rng, d, rank=d - 1)
                yield random_density_matrix(rng, d), sigma
                s_evals, s_vecs = np.linalg.eigh(sigma)
                inside = s_vecs[:, s_evals > 1e-12]
                rho = inside @ random_density_matrix(rng, d - 1) @ inside.conj().T
                yield rho / np.real(np.trace(rho)), sigma

    def test_batch_is_one_order_calls_to_the_bit(self):
        leaked = kept = 0
        for rho, sigma in self._pairs():
            with np.errstate(over="ignore"):
                values = renyi_divergences(rho, sigma, self.ORDERS)
                want = [repr(_sandwiched_reference(rho, sigma, a)) for a in self.ORDERS]
                assert [repr(v) for v in values] == want
                assert [repr(renyi_divergence(rho, sigma, a)) for a in self.ORDERS] == want
            assert repr(relative_entropy(rho, sigma)) == repr(values[self.ORDERS.index(1.0)])
            leaked += values[-1] == INF
            kept += values[-1] < INF and np.linalg.eigvalsh(sigma)[0] < 1e-12
        assert leaked >= 5 and kept >= 5  # both kernel cases are exercised

    @pytest.mark.parametrize("bad", [float("nan"), -0.5, float("-inf")])
    def test_rejects_invalid_order(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            renyi_divergences(np.eye(2) / 2, np.eye(2) / 2, [1.0, bad])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            renyi_divergences(np.eye(2) / 2, np.eye(3) / 3, [2.0])


class TestDeltaF:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, INF])
    def test_gibbs_object_vanishes(self, alpha):
        h = np.diag([0.0, 0.7, 1.9])
        g = gibbs_state(h, 1.2)
        assert delta_F_alpha(g, 1.2, alpha) == pytest.approx(0.0, abs=1e-10)

    def test_empty_object_vanishes(self):
        for alpha in (0.5, 1.0, 2.0, INF):
            assert delta_F_alpha(EMPTY, 1.0, alpha) == pytest.approx(0.0, abs=1e-14)

    def test_pure_state_flat_hamiltonian(self):
        for d in (2, 4, 8):
            rho = np.zeros((d, d))
            rho[0, 0] = 1.0
            p = ThermoObject(rho, HamiltonianClass(np.zeros((d, d))))
            assert delta_F_alpha(p, 1.0, 1.0) == pytest.approx(math.log(d), abs=1e-12)

    def test_hamiltonian_shift_invariance(self):
        probs = np.array([0.6, 0.4])
        for shift in (0.0, 3.0, -2.0):
            c = ClassicalObject(probs, np.array([shift, 1.0 + shift]))
            assert delta_F_alpha(c, 1.0, 2.0) == pytest.approx(
                delta_F_alpha(ClassicalObject(probs, np.array([0.0, 1.0])), 1.0, 2.0),
                abs=1e-12)

    def test_nonnegative_and_zero_iff_gibbs(self):
        rng = rng_from_seed(6)
        beta = 1.0
        for _ in range(50):
            p = random_object(rng, 3)
            value = delta_F_alpha(p, beta, 2.0)
            assert value >= -1e-12
            if value <= 1e-10:
                assert is_gibbs(p, beta)
        g = gibbs_state(np.diag([0.0, 1.0, 2.5]), beta)
        assert is_gibbs(g, beta)
        assert delta_F_alpha(g, beta, 2.0) <= 1e-10

    def test_accepts_beta_context(self):
        c = ClassicalObject([0.9, 0.1], [0.0, 1.0])
        assert delta_F_alpha(c, BetaContext(2.0), 1.0) == pytest.approx(
            delta_F_alpha(c, 2.0, 1.0))


class TestGibbsUnderflow:
    """A Gibbs weight at or below 1e-14 is a level of the support all the same."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("gap, value", [(32.5, 31.11), (1000.0, 998.61)])
    def test_a_tiny_gibbs_weight_keeps_delta_f_finite(self, gap, value):
        want = _mp_delta_f([0.5, 0.5], [0.0, gap], 2.0)
        assert want == pytest.approx(value, abs=0.005)
        got = delta_F_alpha(ClassicalObject([0.5, 0.5], [0.0, gap]), 1.0, 2.0)
        assert got == pytest.approx(want, rel=1e-12)


class TestDeltaF1ViaEnergy:
    def test_gibbs_vanishes(self):
        g = gibbs_state(np.diag([0.0, 1.0]), 1.0)
        assert delta_F_1_via_energy(g, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_flat_hamiltonian(self):
        p = ThermoObject(np.eye(3) / 3, HamiltonianClass(np.zeros((3, 3))))
        assert delta_F_1_via_energy(p, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_pure_ground_qubit_both_routes(self):
        # (1/beta) S((1,0) || gibbs) = ln(1 + e^(-1)) at beta = delta = 1
        expected = math.log(1.0 + math.exp(-1.0))
        ground = ClassicalObject([1.0, 0.0], [0.0, 1.0])
        via_divergence = delta_F_alpha(ground, 1.0, 1.0)
        via_energy = delta_F_1_via_energy(ground, 1.0)
        assert via_divergence == pytest.approx(expected, abs=1e-12)
        assert via_energy == pytest.approx(via_divergence, abs=1e-9)

    def test_agreement_on_random_objects(self):
        rng = rng_from_seed(7)
        for _ in range(30):
            p = random_object(rng, 3)
            beta = float(rng.uniform(0.4, 2.5))
            assert delta_F_1_via_energy(p, beta) == pytest.approx(
                delta_F_alpha(p, beta, 1.0), abs=1e-9)


class TestMutualInformation:
    def test_product_state(self):
        rng = rng_from_seed(8)
        a = random_density_matrix(rng, 2)
        b = random_density_matrix(rng, 3)
        assert mutual_information(np.kron(a, b), (2, 3)) == pytest.approx(0.0, abs=1e-10)

    def test_perfect_classical_correlation(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5])
        assert mutual_information(rho, (2, 2)) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_on_random_states(self):
        rng = rng_from_seed(9)
        for _ in range(200):
            rho = random_density_matrix(rng, 4)
            assert mutual_information(rho, (2, 2)) >= -1e-10

    def test_entropy_identity(self):
        # S(rho_AB || rho_A x rho_B) = S(A) + S(B) - S(AB)
        rng = rng_from_seed(10)
        for _ in range(25):
            rho = random_density_matrix(rng, 6)
            resh = rho.reshape(2, 3, 2, 3)
            rho_a = np.trace(resh, axis1=1, axis2=3)
            rho_b = np.trace(resh, axis1=0, axis2=2)
            identity = (von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
                        - von_neumann_entropy(rho))
            assert mutual_information(rho, (2, 3)) == pytest.approx(identity, abs=1e-9)


class TestFreeEnergyPropositions:
    def test_extensivity(self):
        rng = rng_from_seed(11)
        for _ in range(100):
            p = random_object(rng, 2)
            q = random_object(rng, 2)
            beta = float(rng.uniform(0.4, 2.5))
            joint = delta_F_alpha(tensor(p, q), beta, 1.0)
            parts = delta_F_alpha(p, beta, 1.0) + delta_F_alpha(q, beta, 1.0)
            assert joint == pytest.approx(parts, abs=1e-9)

    def test_superadditivity_of_df1(self):
        rng = rng_from_seed(12)
        beta = 1.0
        for _ in range(100):
            joint_probs = rng.dirichlet(np.ones(4))
            e_a = np.sort(rng.uniform(0, 1, size=2))
            e_b = np.sort(rng.uniform(0, 1, size=2))
            energies = (e_a[:, None] + e_b[None, :]).ravel()
            table = joint_probs.reshape(2, 2)
            joint = ClassicalObject(joint_probs, energies)
            p_a = ClassicalObject(table.sum(axis=1), e_a)
            p_b = ClassicalObject(table.sum(axis=0), e_b)
            gap = (delta_F_alpha(joint, beta, 1.0)
                   - delta_F_alpha(p_a, beta, 1.0) - delta_F_alpha(p_b, beta, 1.0))
            assert gap >= -1e-8

    def test_strong_generalized_superadditivity(self):
        rng = rng_from_seed(13)
        beta = 1.0
        da, db = 2, 2

        def df1(mat, ham):
            return relative_entropy(mat, gibbs_state(ham, beta).state) / beta

        for _ in range(100):
            rho = random_density_matrix(rng, da * db)
            h_a = np.diag(np.sort(rng.uniform(0, 1, size=da)))
            h_b = np.diag(np.sort(rng.uniform(0, 1, size=db)))
            channel = random_channel(rng, da, env=2)
            rho_f = sum(np.kron(k, np.eye(db)) @ rho @ np.kron(k, np.eye(db)).conj().T
                        for k in channel.kraus)
            h_joint = np.kron(h_a, np.eye(db)) + np.kron(np.eye(da), h_b)
            rho_a_i = np.trace(rho.reshape(da, db, da, db), axis1=1, axis2=3)
            rho_a_f = np.trace(rho_f.reshape(da, db, da, db), axis1=1, axis2=3)
            lhs = df1(rho_a_f, h_a) - df1(rho_a_i, h_a)
            rhs = df1(rho_f, h_joint) - df1(rho, h_joint)
            assert lhs >= rhs - 1e-8



def _parameter_entry_points():
    """(name, call(beta, alpha)) for each public entry point that takes an
    inverse temperature or a Renyi order; the names of those that take an order."""
    from thermowork import core, feasibility, quantifiers

    c = ClassicalObject([0.6, 0.4], [0.0, 1.0])
    d = ClassicalObject([0.3, 0.7], [0.0, 1.0])
    ham = HamiltonianClass(np.diag([0.0, 1.0]))
    q = ThermoObject(np.full((2, 2), 0.5), ham)
    rho, sigma = np.full((2, 2), 0.5), np.eye(2) / 2
    calls = {
        "gibbs_weights": lambda b, a: core.gibbs_weights([0.0, 1.0], b),
        "gibbs_state": lambda b, a: gibbs_state(ham, b),
        "classical_gibbs": lambda b, a: core.classical_gibbs([0.0, 1.0], b),
        "BetaContext": lambda b, a: BetaContext(b),
        "thermo_curve": lambda b, a: feasibility.thermo_curve(c, b),
        "thermo_majorizes": lambda b, a: feasibility.thermo_majorizes(c, d, b),
        "decide_free": lambda b, a: feasibility.decide_free(c, d, b),
        "gibbs_stochastic_feasible": lambda b, a: feasibility.gibbs_stochastic_feasible(c, d, b),
        "catalytic_bruteforce": lambda b, a: feasibility.catalytic_bruteforce(c, d, b),
        # these take an order as well
        "delta_F_alpha classical": lambda b, a: delta_F_alpha(c, b, a),
        "delta_F_alpha quantum": lambda b, a: delta_F_alpha(q, b, a),
        "RenyiFreeEnergy": lambda b, a: quantifiers.RenyiFreeEnergy(a, b)(c),
        "catalytic_necessary classical": lambda b, a: feasibility.catalytic_necessary(
            c, d, b, alpha_grid=[a]),
        "catalytic_necessary quantum": lambda b, a: feasibility.catalytic_necessary(
            q, q, b, alpha_grid=[a]),
        "decide_catalytic": lambda b, a: feasibility.decide_catalytic(c, d, b, alpha_grid=[a]),
        # these take an order only
        "renyi_divergence": lambda b, a: renyi_divergence(rho, sigma, a),
        "renyi_divergences": lambda b, a: renyi_divergences(rho, sigma, [a]),
        "classical_renyi_divergence": lambda b, a: classical_renyi_divergence(c.probs, d.probs, a),
        "classical_renyi_divergences": lambda b, a: classical_renyi_divergences(
            c.probs, d.probs, [a]),
    }
    names = list(calls)
    beta_takers = names[:names.index("renyi_divergence")]
    order_takers = names[names.index("delta_F_alpha classical"):]
    return calls, beta_takers, order_takers


_CALLS, _BETA_TAKERS, _ORDER_TAKERS = _parameter_entry_points()


@pytest.mark.parametrize("name", _BETA_TAKERS)
@pytest.mark.parametrize("beta", [float("nan"), INF, -INF, 0.0, -1.0])
def test_entry_points_refuse_an_invalid_beta(name, beta):
    with pytest.raises(ValueError, match="beta"):
        _CALLS[name](beta, 2.0)


@pytest.mark.parametrize("name", _ORDER_TAKERS)
@pytest.mark.parametrize("alpha", [float("nan"), -INF, -1.0, -1e-300])
def test_entry_points_refuse_an_invalid_order(name, alpha):
    # alpha = 0 (the support overlap) and alpha = inf (the max-relative entropy)
    # are orders of the family, so only NaN and negative orders are refused
    with pytest.raises(ValueError, match="alpha"):
        _CALLS[name](1.0, alpha)
