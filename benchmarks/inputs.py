"""Seeded input generation for the three workloads, in plain numpy.

The library's own sampling module is not used, so a change to the library
cannot change the inputs.  Every generator takes a ``numpy.random.Generator``
built from the benchmark's ``--seed``; the same seed gives the same inputs.
Classical objects are ``(probs, energies)`` pairs of float arrays.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref

BETA = 1.0

# Jonathan & Plenio, PRL 83, 3566 (1999): needs a catalyst, found at dimension 2.
JP_PAIR = ((np.array([0.5, 0.25, 0.25, 0.0]), np.zeros(4)),
           (np.array([0.4, 0.4, 0.1, 0.1]), np.zeros(4)))

# catalytic-search, per block: unfiltered random pairs, hard pairs by the
# catalyst dimension searched, and the JP pair.  The hard pairs' own
# dimensions are fixed, because a dimension-3 search costs about half again
# as much at d = 4 as at d = 3, and a random mix would move the 90th
# percentile from seed to seed.  The counts put the median among the cheap
# pairs and the 90th percentile among the d = 3 dimension-3 searches.
RANDOM_PAIRS = 36
HARD_PAIR_DIMS = {2: (3, 4), 3: (3, 3, 3, 3, 4, 4, 4)}
CATALYTIC_BLOCKS = 12

ORDERS = (0.5, 1.0, 2.0, math.inf)


def random_pair(rng):
    """Unfiltered pair, d = 2..4, trivial or random (shared) energies."""
    d = int(rng.integers(2, 5))
    e = np.zeros(d) if rng.random() < 0.5 else rng.uniform(0.0, 2.0, d)
    return (rng.dirichlet(np.ones(d)), e), (rng.dirichlet(np.ones(d)), e.copy())


def hard_pair(rng, d: int, stats):
    """Trivial-Hamiltonian pair of dimension d that the direct check and
    every order of the default grid leave open, so the catalyst search runs."""
    while True:
        src = (rng.dirichlet(np.ones(d)), np.zeros(d))
        dst = (rng.dirichlet(np.ones(d)), np.zeros(d))
        stats["candidates"] += 1
        if ref.classify_pair(src, dst, BETA) == "hard":
            stats["hard"] += 1
            return src, dst


def catalytic_inputs(rng):
    """Blocks of (src, dst, max_cat_dim, reference class) tuples, and how
    many random trivial-Hamiltonian candidates were drawn to find the hard
    pairs."""
    stats = {"candidates": 0, "hard": 0}
    blocks = []
    for _ in range(CATALYTIC_BLOCKS):
        ops = [random_pair(rng) + (2 + k % 2,) for k in range(RANDOM_PAIRS)]
        for cat_dim, dims in HARD_PAIR_DIMS.items():
            ops.extend(hard_pair(rng, d, stats) + (cat_dim,) for d in dims)
        ops.append(JP_PAIR + (2,))
        order = rng.permutation(len(ops))
        blocks.append([ops[i] + (ref.classify_pair(ops[i][0], ops[i][1], BETA),)
                       for i in order])
    return blocks, {"hard_pairs": stats["hard"], "hard_pair_candidates": stats["candidates"],
                    "hard_pair_share": stats["hard"] / stats["candidates"]}


# ---------------------------------------------------------------------------
# large-oracles
# ---------------------------------------------------------------------------

def gibbs_stochastic_image(rng, probs, energies, layers: int = 3):
    """dst = G p for a random Gibbs-stochastic G.

    G is a product of layers of two-level partial thermalizations on random
    disjoint level pairs (each keeps the Gibbs vector fixed), mixed with a
    full thermalization of weight lam in [0.1, 0.3], so the reverse
    transition is strictly infeasible.
    """
    g = ref.gibbs(energies, BETA)
    p = np.array(probs, dtype=float)
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
    return p / p.sum()


def classical_large(rng, d: int):
    e = rng.uniform(0.0, 3.0, d)
    p = rng.dirichlet(np.ones(d))
    return (p, e), (gibbs_stochastic_image(rng, p, e), e.copy())


def quantum_large(rng, d: int):
    """Non-commuting (rho, H) and its partial thermalization toward Gibbs."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T)
    w = np.linalg.eigvalsh(h)
    h = 3.0 * (h - w[0] * np.eye(d)) / (w[-1] - w[0])
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = z @ z.conj().T
    rho = 0.8 * rho / np.real(np.trace(rho)) + 0.2 * np.eye(d) / d
    lam = rng.uniform(0.1, 0.4)
    out = (1.0 - lam) * rho + lam * ref.gibbs_matrix(h, BETA)
    rho, out = (0.5 * (m + m.conj().T) for m in (rho, out))
    return (rho / np.real(np.trace(rho)), h), (out / np.real(np.trace(out)), h)


# (operation, dimension, forward pairs, reverse pairs) per block.  The 25
# operations of a block put the median on one operation type and the 90th
# percentile inside the group of the slowest types, not on a boundary.
LARGE_BLOCK = (
    ("decide_free", 64, 1, 1), ("decide_free", 256, 1, 1), ("decide_free", 1024, 1, 1),
    ("gibbs_stochastic_feasible", 16, 1, 1), ("gibbs_stochastic_feasible", 32, 1, 1),
    ("gibbs_stochastic_feasible", 64, 1, 1),
    ("catalytic_necessary", 1024, 2, 2),
    ("catalytic_necessary_quantum", 8, 1, 1), ("catalytic_necessary_quantum", 16, 2, 1),
    ("catalytic_necessary_quantum", 32, 2, 2),
)
LARGE_BLOCKS = 8


def large_inputs(rng):
    """Blocks of (operation, src, dst, forward) tuples; forward pairs are
    feasible by construction, reverse pairs are forward pairs swapped."""
    blocks = []
    for _ in range(LARGE_BLOCKS):
        ops = []
        for name, d, n_forward, n_reverse in LARGE_BLOCK:
            make = quantum_large if name.endswith("quantum") else classical_large
            for k in range(max(n_forward, n_reverse)):
                src, dst = make(rng, d)
                if k < n_forward:
                    ops.append((name, src, dst, True))
                if k < n_reverse:
                    ops.append((name, dst, src, False))
        blocks.append([ops[i] for i in rng.permutation(len(ops))])
    return blocks


# ---------------------------------------------------------------------------
# work-quantify
# ---------------------------------------------------------------------------

RESTRICTIONS = ("Unrestricted", "EpsilonDet", "WbitSet", "MeanLadder")
# A block holds both fuels at half of the orders (the halves cost about the
# same), a sweep at every order and one round of the scenarios.  A pass of
# four blocks covers every order twice, with eight fuels.  In a block, 18 of
# the 43 operations take under 30 ms and 10 (the rich fuel's values and the
# unrestricted costs) over 300 ms, so the median and the 90th percentile fall
# inside groups of similar operations rather than on a gap between them.
ORDER_HALVES = ((0.5, 2.0), (1.0, math.inf))
WORK_BLOCKS = 4


def qubit_fuels(rng):
    """One modest fuel, whose cost every restriction can pay, and one rich
    fuel, whose cost exceeds what the two epsilon-ball sets can supply.  The
    ranges are narrow because the search cost grows with the fuel's work."""
    def qubit(excited, gap):
        return np.array([1.0 - excited, excited]), np.array([0.0, gap])
    return (qubit(rng.uniform(0.22, 0.28), rng.uniform(0.75, 0.85)),
            qubit(rng.uniform(0.78, 0.82), rng.uniform(1.9, 2.1)))


def wbit_samples(rng, n: int = 12, epsilon: float = 0.1):
    """Qubit pairs (H = diag(0, 1)) inside the closed epsilon wbit ball."""
    def near_eigenstate():
        t = rng.uniform(0.0, epsilon)
        return np.array([1.0 - t, t]) if rng.random() < 0.5 else np.array([t, 1.0 - t])
    e = np.array([0.0, 1.0])
    return [((near_eigenstate(), e), (near_eigenstate(), e.copy())) for _ in range(n)]


def work_inputs(rng):
    """Blocks of ("work", fuel, alpha, restriction, "value"|"cost"),
    ("sweep", alpha, samples) and ("scenario", name) tuples."""
    blocks = []
    for k in range(WORK_BLOCKS):
        ops = []
        for fuel in qubit_fuels(rng):
            for alpha in ORDER_HALVES[k % 2]:
                for r in RESTRICTIONS:
                    ops.append(("work", fuel, alpha, r, "value"))
                    ops.append(("work", fuel, alpha, r, "cost"))
        ops.extend(("sweep", alpha, wbit_samples(rng)) for alpha in ORDERS)
        ops.extend(("scenario", name) for name in SCENARIO_CONFIGS)
        blocks.append(ops)
    return blocks


#: The acceptance suite's configuration of every scenario.
SCENARIO_CONFIGS = {
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

#: workload -> generator of (blocks, facts about the inputs)
GENERATORS = {
    "catalytic-search": catalytic_inputs,
    "large-oracles": lambda rng: (large_inputs(rng), {}),
    "work-quantify": lambda rng: (work_inputs(rng), {}),
}
