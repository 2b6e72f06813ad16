"""Seeded generators for random states, channels and classical objects.

Everything here is driven by an explicit numpy Generator so that checker
sweeps and scenario searches are reproducible bit-for-bit from a seed.
"""

from __future__ import annotations

import numpy as np

from .core import ClassicalObject, HamiltonianClass, ThermoObject, gibbs_weights

#: Eigenvalues within this of each other are degenerate: the blocks of
#: random_energy_conserving_unitary, the spectrum run_two_point_measurement refuses.
_DEGENERACY_TOL = 1e-9


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density_matrix(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    rank = d if rank is None else rank
    z = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = z @ z.conj().T
    return rho / np.real(np.trace(rho))


def random_hamiltonian(rng: np.random.Generator, d: int, scale: float = 1.0) -> HamiltonianClass:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HamiltonianClass(scale * 0.5 * (z + z.conj().T))


def random_object(rng: np.random.Generator, d: int, scale: float = 1.0) -> ThermoObject:
    return ThermoObject(random_density_matrix(rng, d), random_hamiltonian(rng, d, scale))


def random_probs(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.dirichlet(np.ones(d))

def random_classical_object(rng: np.random.Generator, d: int,
                            energy_scale: float = 1.0) -> ClassicalObject:
    energies = np.sort(rng.uniform(0.0, energy_scale, size=d))
    return ClassicalObject(random_probs(rng, d), energies)


def random_channel(rng: np.random.Generator, d: int, env: int = 2):
    """A CPTP map on d dimensions from a random isometry plus partial trace.

    The returned callable carries its Kraus operators as ``channel.kraus``.
    """
    u = random_unitary(rng, d * env)
    v = u[:, :d]
    kraus = [np.ascontiguousarray(v.reshape(d, env, d)[:, k, :]) for k in range(env)]

    def channel(rho: np.ndarray) -> np.ndarray:
        return sum(k @ rho @ k.conj().T for k in kraus)

    channel.kraus = kraus
    return channel


def random_gibbs_stochastic(rng: np.random.Generator, energies, beta: float,
                            n_mixes: int = 3) -> np.ndarray:
    """Random column-stochastic matrix fixing the Gibbs vector of ``energies``.

    Built from two-level partial thermalizations composed with a global
    partial-thermalizing mix, all of which preserve the Gibbs distribution.
    """
    e = np.asarray(energies, dtype=float)
    d = len(e)
    g = gibbs_weights(e, beta)
    mat = np.eye(d)
    for _ in range(n_mixes):
        i, j = rng.choice(d, size=2, replace=False)
        s = rng.uniform(0.0, 1.0)
        block = np.eye(d)
        tot = g[i] + g[j]
        block[i, i] = 1 - s + s * g[i] / tot
        block[j, i] = s * g[j] / tot
        block[i, j] = s * g[i] / tot
        block[j, j] = 1 - s + s * g[j] / tot
        mat = block @ mat
    t = rng.uniform(0.0, 0.5)
    mat = (1 - t) * mat + t * np.outer(g, np.ones(d))
    return mat


def random_energy_conserving_unitary(rng: np.random.Generator, h_total: np.ndarray,
                                     degeneracy_tol: float = _DEGENERACY_TOL) -> np.ndarray:
    """Haar-random unitary commuting with a Hermitian operator.

    Blocks of the spectrum within ``degeneracy_tol`` of each other are mixed
    by independent Haar unitaries; a spectrum with no degeneracies yields
    only diagonal phases.
    """
    evals, vecs = np.linalg.eigh(np.asarray(h_total, dtype=complex))
    d = len(evals)
    blocks = np.zeros((d, d), dtype=complex)
    start = 0
    for i in range(1, d + 1):
        if i == d or evals[i] - evals[start] > degeneracy_tol:
            blocks[start:i, start:i] = random_unitary(rng, i - start)
            start = i
    return vecs @ blocks @ vecs.conj().T
