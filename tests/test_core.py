import json

import numpy as np
import pytest

from thermowork.core import (
    EMPTY,
    ClassicalObject,
    HamiltonianClass,
    NonInteractingObject,
    ThermoObject,
    check_unitary,
    classical_from_json,
    classical_gibbs,
    classical_tensor,
    classical_to_object,
    gibbs_state,
    gibbs_weights,
    is_gibbs,
    non_interacting,
    object_from_json,
    object_to_classical,
    object_to_json,
    partial_trace,
    tensor,
    trace_norm,
)
from thermowork.sampling import random_gibbs_stochastic, random_object, rng_from_seed


def qubit(p0: float, delta: float = 1.0) -> ThermoObject:
    return ThermoObject(np.diag([p0, 1.0 - p0]), HamiltonianClass(np.diag([0.0, delta])))


class TestHamiltonianClass:
    def test_canonical_representative_has_zero_minimum(self):
        h = HamiltonianClass(np.diag([2.0, 5.0]))
        assert np.allclose(h.matrix, np.diag([0.0, 3.0]))
        assert h.canonical_shift == pytest.approx(2.0)

    def test_shift_equivalence_random(self):
        rng = rng_from_seed(7)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mat = 0.5 * (z + z.conj().T)
            lam = float(rng.normal(scale=10.0))
            assert HamiltonianClass(mat) == HamiltonianClass(mat + lam * np.eye(d))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HamiltonianClass(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_original_matrix_round_trips(self):
        mat = np.diag([1.0, 4.0, 2.0])
        h = HamiltonianClass(mat)
        assert np.allclose(h.original_matrix(), mat)


class TestThermoObject:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            ThermoObject(np.diag([0.6, 0.6]), HamiltonianClass(np.zeros((2, 2))))

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError, match="positive"):
            ThermoObject(np.diag([1.2, -0.2]), HamiltonianClass(np.zeros((2, 2))))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            ThermoObject(np.eye(2) / 2, HamiltonianClass(np.zeros((3, 3))))

    def test_equality_mod_hamiltonian_shift(self):
        a = ThermoObject(np.eye(2) / 2, HamiltonianClass(np.diag([0.0, 1.0])))
        b = ThermoObject(np.eye(2) / 2, HamiltonianClass(np.diag([5.0, 6.0])))
        assert a == b


class TestTensor:
    def test_empty_object_is_identity(self):
        p = qubit(0.3)
        assert tensor(p, EMPTY) == p
        assert tensor(EMPTY, p) == p

    def test_pure_ground_pair_energies(self):
        delta = 1.0
        p = qubit(1.0, delta)
        joint = tensor(p, p)
        assert np.isclose(joint.state[0, 0], 1.0)
        evals = np.sort(joint.hamiltonian.eigenvalues())
        assert np.allclose(evals, [0.0, delta, delta, 2 * delta])

    def test_tensor_of_gibbs_is_gibbs_of_sum(self):
        rng = rng_from_seed(3)
        for _ in range(20):
            ha = np.diag(rng.uniform(0, 2, size=3))
            hb = np.diag(rng.uniform(0, 2, size=2))
            beta = float(rng.uniform(0.3, 3.0))
            joint = tensor(gibbs_state(ha, beta), gibbs_state(hb, beta))
            expected = gibbs_state(np.kron(ha, np.eye(2)) + np.kron(np.eye(3), hb), beta)
            assert np.max(np.abs(joint.state - expected.state)) <= 1e-10

    def test_swap_preserves_spectra(self):
        rng = rng_from_seed(11)
        p = random_object(rng, 2)
        q = random_object(rng, 3)
        pq = tensor(p, q)
        qp = tensor(q, p)
        assert np.allclose(np.linalg.eigvalsh(pq.state), np.linalg.eigvalsh(qp.state))
        assert np.allclose(pq.hamiltonian.eigenvalues(), qp.hamiltonian.eigenvalues())

    def test_associativity_up_to_reindexing(self):
        rng = rng_from_seed(12)
        p, q, r = (random_object(rng, 2) for _ in range(3))
        left = tensor(tensor(p, q), r)
        right = tensor(p, tensor(q, r))
        assert left == right

    def test_dimension_cap(self):
        big = ThermoObject(np.eye(70) / 70, HamiltonianClass(np.zeros((70, 70))))
        with pytest.raises(ValueError, match="cap"):
            tensor(big, big)


class TestPartialTrace:
    def test_projection_on_products(self):
        rng = rng_from_seed(5)
        for _ in range(100):
            p = random_object(rng, 2)
            q = random_object(rng, 2)
            ni = non_interacting(p, q)
            back = partial_trace(ni, [0])
            assert np.max(np.abs(back.state - p.state)) <= 1e-10
            assert back.hamiltonian == p.hamiltonian

    def test_trace_out_everything_gives_empty(self):
        p = non_interacting(qubit(0.2), qubit(0.9))
        assert partial_trace(p, []) == EMPTY

    def test_correlated_diagonal_marginal(self):
        state = np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex)
        ham = HamiltonianClass(np.zeros((4, 4)))
        ni = NonInteractingObject(ThermoObject(state, ham), (2, 2),
                                  (HamiltonianClass(np.zeros((2, 2))),) * 2)
        marg = partial_trace(ni, [0])
        assert np.allclose(np.diag(marg.state), [0.5, 0.5])

    def test_rejects_interacting_object(self):
        ham = np.zeros((4, 4))
        ham[0, 3] = ham[3, 0] = 0.5  # genuinely two-body coupling
        obj = ThermoObject(np.eye(4) / 4, HamiltonianClass(ham))
        with pytest.raises(ValueError, match="interacting"):
            NonInteractingObject.from_total(obj, (2, 2))

    def test_from_total_recovers_locals(self):
        p = qubit(0.3, 1.0)
        q = qubit(0.8, 2.0)
        ni = NonInteractingObject.from_total(tensor(p, q), (2, 2))
        assert ni.local_hamiltonians[0] == p.hamiltonian
        assert ni.local_hamiltonians[1] == q.hamiltonian


class TestGibbs:
    def test_zero_hamiltonian_maximally_mixed(self):
        for d in (2, 3, 5):
            g = gibbs_state(np.zeros((d, d)), 2.0)
            assert np.allclose(g.state, np.eye(d) / d)

    def test_spiked_hamiltonian_ground_probability(self):
        # unique ground state plus d-fold degenerate level at delta
        for beta, delta, d in [(1.0, 1.0, 3), (2.0, 0.5, 5), (0.7, 2.0, 1)]:
            h = np.diag([0.0] + [delta] * d)
            g = gibbs_state(h, beta)
            z = 1.0 + d * np.exp(-beta * delta)
            assert np.isclose(g.state[0, 0].real, 1.0 / z, atol=1e-12, rtol=0)

    def test_infinite_temperature_limit(self):
        g = gibbs_state(np.diag([0.0, 1.0, 2.0]), 1e-9)
        assert np.max(np.abs(g.state - np.eye(3) / 3)) < 1e-6

    def test_trace_one_exactly(self):
        rng = rng_from_seed(9)
        for _ in range(20):
            h = rng.normal(size=(4, 4))
            g = gibbs_state(0.5 * (h + h.T), float(rng.uniform(0.2, 4)))
            assert abs(np.trace(g.state).real - 1.0) <= 1e-12

    def test_rows_are_each_their_own_weights_to_the_bit(self):
        rng = rng_from_seed(10)
        for d in (1, 2, 3, 7, 64):
            rows = rng.uniform(0.0, 5.0, size=(6, d))
            rows[1, -1] = rows[2, 0] = 5000.0  # a weight that underflows to 0
            rows[3] = 0.0
            for beta in (0.3, 1.0, 2.5):
                weights = gibbs_weights(rows, beta)
                assert weights.shape == rows.shape
                assert (weights == 0.0).any() or d == 1
                for row, w in zip(rows, weights):
                    assert w.tobytes() == gibbs_weights(row, beta).tobytes()

    def test_shift_invariance(self):
        h = np.diag([0.0, 1.0])
        a = gibbs_state(h, 1.3)
        b = gibbs_state(h + 7.0 * np.eye(2), 1.3)
        assert np.allclose(a.state, b.state)


class TestClassical:
    def test_pure_point_maps_to_projector(self):
        obj = classical_to_object(ClassicalObject([1.0, 0.0], [0.0, 1.0]))
        assert np.allclose(obj.state, np.diag([1.0, 0.0]))
        assert np.allclose(obj.hamiltonian.matrix, np.diag([0.0, 1.0]))

    def test_gibbs_vector_commutes_with_hamiltonian(self):
        c = classical_gibbs([0.0, 1.0, 3.0], 0.8)
        obj = classical_to_object(c)
        h = obj.hamiltonian.matrix
        assert np.max(np.abs(obj.state @ h - h @ obj.state)) < 1e-14

    def test_round_trip(self):
        c = ClassicalObject([0.2, 0.5, 0.3], [1.0, 2.0, 4.0])
        back = object_to_classical(classical_to_object(c))
        assert np.allclose(back.probs, c.probs)
        assert np.allclose(back.energies, c.energies)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            ClassicalObject([1.1, -0.1], [0.0, 1.0])

    def test_clamps_tiny_negative(self):
        c = ClassicalObject([1.0, -1e-13, 1e-13], [0.0, 1.0, 2.0])
        assert c.probs[1] == 0.0

    def test_rejects_empty_object(self):
        with pytest.raises(ValueError, match="at least one level"):
            ClassicalObject([], [])

    def test_classical_tensor_layout_matches_kron(self):
        a = ClassicalObject([0.3, 0.7], [0.0, 1.0])
        b = ClassicalObject([0.9, 0.1], [0.0, 2.0])
        joint = classical_tensor(a, b)
        assert np.allclose(joint.probs, np.kron(a.probs, b.probs))
        assert np.allclose(joint.energies, [0.0, 2.0, 1.0, 3.0])


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_classical_object_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ClassicalObject([bad, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            ClassicalObject([0.5, 0.5], [0.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrices_reject_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            HamiltonianClass(np.diag([0.0, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            ThermoObject(np.diag([bad, 1.0]), HamiltonianClass(np.zeros((2, 2))))
        with pytest.raises(ValueError, match="non-finite"):
            check_unitary(np.diag([1.0, bad]), "u")


class TestIsGibbs:
    def test_gibbs_state_is_gibbs(self):
        assert is_gibbs(gibbs_state(np.diag([0.0, 1.0]), 1.0), 1.0)

    def test_pure_excited_is_not(self):
        assert not is_gibbs(qubit(0.0), 1.0)

    def test_gibbs_stochastic_image_of_gibbs_stays_gibbs(self):
        rng = rng_from_seed(21)
        for _ in range(20):
            energies = np.sort(rng.uniform(0, 2, size=4))
            beta = float(rng.uniform(0.5, 2.0))
            g = classical_gibbs(energies, beta)
            g_map = random_gibbs_stochastic(rng, energies, beta)
            image = ClassicalObject(g_map @ g.probs, energies)
            assert is_gibbs(classical_to_object(image), beta)


class TestSerialization:
    def test_round_trip_preserves_object(self):
        rng = rng_from_seed(2)
        p = random_object(rng, 3)
        doc = json.loads(json.dumps(object_to_json(p)))
        back = object_from_json(doc)
        assert back == p
        assert trace_norm(back.state - p.state) < 1e-12

    def test_classical_block_present_for_diagonal(self):
        doc = object_to_json(classical_to_object(ClassicalObject([0.4, 0.6], [0.0, 2.0])))
        assert doc["classical"]["probs"] == [0.4, 0.6]
        back = classical_from_json(doc)
        assert np.allclose(back.energies, [0.0, 2.0])

    def test_no_classical_block_for_coherent_state(self):
        plus = np.full((2, 2), 0.5)
        doc = object_to_json(ThermoObject(plus, HamiltonianClass(np.diag([0.0, 1.0]))))
        assert "classical" not in doc


class TestObjectToClassical:
    MESSAGE = "^object is not diagonal in the computational basis$"

    def test_a_non_diagonal_state_is_refused_before_the_hamiltonian_is_built(self, monkeypatch):
        def unbuilt(self):
            raise AssertionError("original_matrix was built")

        monkeypatch.setattr(HamiltonianClass, "original_matrix", unbuilt)
        obj = ThermoObject(np.full((2, 2), 0.5), HamiltonianClass(np.diag([0.0, 1.0])))
        with pytest.raises(ValueError, match=self.MESSAGE):
            object_to_classical(obj)

    def test_a_non_diagonal_hamiltonian_is_refused(self):
        obj = ThermoObject(np.diag([0.5, 0.5]), HamiltonianClass(np.array([[0.0, 1.0], [1.0, 0.0]])))
        with pytest.raises(ValueError, match=self.MESSAGE):
            object_to_classical(obj)

    def test_a_one_level_object_converts(self):
        back = object_to_classical(classical_to_object(ClassicalObject([1.0], [7.5])))
        assert (back.probs.tolist(), back.energies.tolist()) == ([1.0], [7.5])

    @pytest.mark.parametrize("off, refused",
                             [(1e-10j, False), (1.01e-10j, True), (-1.01e-10, True)])
    def test_off_diagonal_moduli_count_against_the_tolerance_and_the_diagonal_never(
            self, off, refused):
        ham = HamiltonianClass(np.diag([0.0, 20.0, 35.0, 50.0]))
        state = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        state[0, 3], state[3, 0] = off, np.conj(off)
        if refused:
            with pytest.raises(ValueError, match=self.MESSAGE):
                object_to_classical(ThermoObject(state, ham))
        else:
            back = object_to_classical(ThermoObject(state, ham))
            assert back.probs.tolist() == [0.4, 0.3, 0.2, 0.1]
