"""Entropies, Renyi divergences and the free-energy family built on them.

All values are in nats; beta carries inverse energy units.  The quantum
divergence implemented is the sandwiched (minimal) Renyi divergence, which
reduces to the classical formula (1/(alpha-1)) ln sum p^alpha q^(1-alpha)
on commuting inputs.  alpha = 1 and alpha = inf use dedicated formulas
(relative entropy and max-relative entropy) rather than numerical limits.
alpha = 0 is exposed for diagnostics only.

Every classical divergence goes through classical_renyi_divergences, with one
support rule for every order: entries at or below EIG_ZERO count as zeros,
both in p and in the reference q.  The quantum divergences take the kernel of
the reference from its eigenvalues below SUPPORT_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClassicalObject, _ptrace_matrix, classical_to_object, gibbs_state

INF = float("inf")
# Eigenvalues below this are treated as exact zeros in entropy sums.
EIG_ZERO = 1e-14
# Reference eigenvalues below this define the kernel in quantum support tests.
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class BetaContext:
    """Fixed inverse temperature of the free heat baths (k_B = 1)."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


def as_beta(ctx) -> float:
    """Accept a BetaContext or a bare positive float."""
    beta = ctx.beta if isinstance(ctx, BetaContext) else float(ctx)
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if math.isnan(alpha) or alpha < 0:
        raise ValueError(f"alpha must lie in [0, inf], got {alpha}")
    return alpha


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum lambda ln lambda in nats."""
    evals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    evals = evals[evals > EIG_ZERO]
    return float(-np.sum(evals * np.log(evals)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy Tr(rho ln rho - rho ln sigma), the order-1 case
    of renyi_divergences.

    Returns +inf when the state has support outside the support of the
    reference (kernel defined by eigenvalues of sigma below 1e-12).
    """
    return renyi_divergences(rho, sigma, (1.0,))[0]


def classical_renyi_divergence(p, q, alpha: float) -> float:
    """Classical Renyi divergence (1/(alpha-1)) ln sum p^alpha q^(1-alpha), the
    one-order case of classical_renyi_divergences."""
    return classical_renyi_divergences(p, q, (alpha,))[0]


@np.errstate(over="ignore", invalid="ignore")
def classical_renyi_divergences(p, q, alphas) -> list:
    """Classical Renyi divergence of p from q at each order of ``alphas``; for
    (rows, levels) arrays p and q a list per row, each as its one-row call.

    One support rule holds at every order: levels where p > EIG_ZERO and q >
    EIG_ZERO count, and from alpha = 1 up a level with p > EIG_ZERO and q at
    or below it makes the divergence +inf.  alpha = 0, 1 and inf have their
    own formulas; every other order is a power sum with its own math.log, or
    log-sum-exp where the sum is inf, NaN or 0.  No order warns.  Several
    orders other than 0.5 and 2 share one power sum; otherwise each keeps a
    scalar exponent (numpy's sqrt, square and reciprocal paths).  Rows go in
    groups of one support size, each row's support levels moved to the front,
    so a row adds the same terms in the same order as its one-row call.
    """
    listed = [_check_alpha(alpha) for alpha in alphas]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    p2, q2 = (p, q) if p.ndim == 2 else (p[None], q[None])
    both = np.minimum(p2, q2) > EIG_ZERO
    counts = (np.add.reduce(p2 > EIG_ZERO, 1).tolist()
              if listed and max(listed) >= 1 and not both.all() else None)
    values = [None] * len(p2)
    for at, (pb, qb) in _compacted(both, p2, q2):
        for r, row in zip(at, _support_values(pb, qb, listed)):
            if counts and counts[r] > pb.shape[1]:  # p has a level outside the support of q
                row = [INF if alpha >= 1.0 else v for alpha, v in zip(listed, row)]
            values[r] = row
    if 0.0 in listed:
        for at, (qp,) in _compacted(p2 > EIG_ZERO, q2):
            for r, mass in zip(at, np.add.reduce(qp, 1).tolist()):
                values[r] = [(INF if mass <= 0.0 else -math.log(mass)) if alpha == 0.0 else v
                             for alpha, v in zip(listed, values[r])]
    return values if p.ndim == 2 else values[0]


def _compacted(mask: np.ndarray, *arrays) -> list:
    """(rows, arrays) for each number of levels where ``mask`` holds: the rows
    with that many, of each array, with those levels moved to the front."""
    if len(mask) == 1:
        return [((0,), [a[mask][None] for a in arrays])]
    sizes = np.add.reduce(mask, 1)
    return [(at.tolist(), [a[at][mask[at]].reshape(len(at), size) for a in arrays])
            for size, at in ((s, np.flatnonzero(sizes == s)) for s in set(sizes.tolist()))]


def _support_values(pb: np.ndarray, qb: np.ndarray, listed: list) -> list:
    """The values at the orders of ``listed`` (0 at order 0), a list for each
    row of pb, qb: the levels in both supports."""
    powered = [alpha for alpha in listed if alpha not in (0.0, 1.0, INF)]
    if len(powered) > 1 and 0.5 not in powered and 2.0 not in powered:
        a = np.array(powered)[:, None]
        sums = np.add.reduce(pb[:, None] ** a * qb[:, None] ** (1.0 - a), 2).tolist()
    else:
        sums = zip(*[np.add.reduce(pb ** alpha * qb ** (1.0 - alpha), 1).tolist()
                     for alpha in powered]) if powered else [()] * len(pb)
    values = [[math.log(t) / (alpha - 1.0) if 0.0 < t < INF else _log_domain(pb[r], qb[r], alpha)
               for alpha, t in zip(powered, row)] for r, row in enumerate(sums)]
    if len(powered) < len(listed):
        columns = {0.0: [0.0] * len(pb)}
        if 1.0 in listed:
            columns[1.0] = np.add.reduce(pb * (np.log(pb) - np.log(qb)), 1).tolist()
        if INF in listed:
            columns[INF] = (np.log(np.maximum.reduce(pb / qb, 1)).tolist() if pb.shape[1]
                            else [INF] * len(pb))
        for k in [k for k, alpha in enumerate(listed) if alpha in columns]:
            for row, v in zip(values, columns[listed[k]]):
                row.insert(k, v)  # in order of k, so each lands at its index
    return values


def _log_domain(pb: np.ndarray, qb: np.ndarray, alpha: float) -> float:
    """(1/(alpha-1)) ln sum pb^alpha qb^(1-alpha) by log-sum-exp; +inf on no level."""
    if not len(pb):
        return INF
    t = alpha * np.log(pb) + (1.0 - alpha) * np.log(qb)
    top = float(t.max())
    return (top + math.log(float(np.exp(t - top).sum()))) / (alpha - 1.0)


def renyi_divergence(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha, in nats, the one-order case
    of renyi_divergences.

    alpha = 1 is the relative entropy, alpha = inf the max-relative entropy
    ln min{lam : rho <= lam sigma}; alpha = 0 is the diagnostic support
    overlap -ln Tr(P_rho sigma).  +inf follows the support conventions of
    the sandwiched divergence.
    """
    return renyi_divergences(rho, sigma, (alpha,))[0]


@np.errstate(over="ignore")
def renyi_divergences(rho: np.ndarray, sigma: np.ndarray, alphas) -> list:
    """Sandwiched Renyi divergence of rho from sigma at each order of ``alphas``.

    sigma is decomposed once, and its kernel (eigenvalues below SUPPORT_TOL),
    support leak and support eigenvectors serve every order; each order then
    costs its own sandwich and eigvalsh, so a value is that of its one-order
    call to the bit.  From alpha = 1 up (and at inf) a leak of rho into the
    kernel makes the divergence +inf.  A power sum of inf or 0 goes by log-sum-exp.
    """
    listed = [_check_alpha(alpha) for alpha in alphas]
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    s_evals, s_vecs = np.linalg.eigh(sigma)
    kernel = s_evals < SUPPORT_TOL
    leaks = bool(kernel.any()) and float(np.real(np.trace(
        rho @ (s_vecs[:, kernel] @ s_vecs[:, kernel].conj().T)))) > SUPPORT_TOL
    lam, vecs = s_evals[~kernel], s_vecs[:, ~kernel]
    values = []
    for alpha in listed:
        if alpha >= 1.0 and leaks:
            values.append(INF)
        elif alpha == 1.0:
            r_evals = np.linalg.eigvalsh(rho)
            pos = r_evals[r_evals > EIG_ZERO]
            overlaps = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, rho, vecs))
            values.append(float(np.sum(pos * np.log(pos))) - float(np.sum(overlaps * np.log(lam))))
        elif alpha == 0.0:
            r_evals, r_vecs = np.linalg.eigh(rho)
            sup = r_evals > SUPPORT_TOL
            mass = float(np.real(np.trace((r_vecs[:, sup] @ r_vecs[:, sup].conj().T) @ sigma)))
            values.append(INF if mass <= 0.0 else -math.log(mass))
        else:
            exponent = -0.5 if alpha == INF else (1.0 - alpha) / (2.0 * alpha)
            sand = (vecs * (lam ** exponent)) @ vecs.conj().T
            mu = np.linalg.eigvalsh(sand @ rho @ sand)
            if alpha == INF:
                top = float(np.max(mu))
                values.append(math.log(top) if top > 0.0 else INF)
            else:
                pos = mu[mu > EIG_ZERO]
                total = float(np.sum(pos ** alpha))
                values.append(math.log(total) / (alpha - 1.0) if 0.0 < total < INF
                              else _log_domain(pos, np.ones_like(pos), alpha))
    return values


def delta_F_alpha(p, ctx, alpha: float) -> float:
    """Free-energy difference to the Gibbs object:
    (1/beta) S_alpha(rho || omega_{H,beta}).

    Nonnegative for alpha > 0, zero exactly on Gibbs objects, and invariant
    under identity shifts of the Hamiltonian.  Accepts thermal or classical
    objects; classical inputs use the classical formula directly.
    """
    beta = as_beta(ctx)
    alpha = _check_alpha(alpha)
    if isinstance(p, ClassicalObject):
        return classical_renyi_divergence(p.probs, p.gibbs_weights(beta), alpha) / beta
    omega = gibbs_state(p.hamiltonian, beta)
    return renyi_divergence(p.state, omega.state, alpha) / beta


def delta_F_1_via_energy(p, ctx) -> float:
    """Von Neumann free-energy difference via Tr(rho H) - S(rho)/beta.

    Cross-checks the divergence form: agrees with delta_F_alpha(p, ctx, 1)
    up to numerical error.
    """
    beta = as_beta(ctx)
    if isinstance(p, ClassicalObject):
        p = classical_to_object(p)
    ham = p.hamiltonian.matrix
    omega = gibbs_state(p.hamiltonian, beta)
    f_state = float(np.real(np.trace(p.state @ ham))) - von_neumann_entropy(p.state) / beta
    f_gibbs = float(np.real(np.trace(omega.state @ ham))) - von_neumann_entropy(omega.state) / beta
    return f_state - f_gibbs


def mutual_information(rho_ab: np.ndarray, partition) -> float:
    """Mutual information S(rho_AB || rho_A (x) rho_B) of a bipartite state."""
    rho_ab = np.asarray(rho_ab, dtype=complex)
    da, db = (int(d) for d in partition)
    if rho_ab.shape != (da * db, da * db):
        raise ValueError(f"state shape {rho_ab.shape} does not match partition ({da}, {db})")
    rho_a = _ptrace_matrix(rho_ab, (da, db), [0])
    rho_b = _ptrace_matrix(rho_ab, (da, db), [1])
    return relative_entropy(rho_ab, np.kron(rho_a, rho_b))

