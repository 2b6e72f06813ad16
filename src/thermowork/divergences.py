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
    """Quantum relative entropy Tr(rho ln rho - rho ln sigma).

    Returns +inf when the state has support outside the support of the
    reference (kernel defined by eigenvalues of sigma below 1e-12).
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    s_evals, s_vecs = np.linalg.eigh(sigma)
    kernel = s_evals < SUPPORT_TOL
    if _support_leak(rho, s_vecs, kernel) > SUPPORT_TOL:
        return INF
    r_evals = np.linalg.eigvalsh(rho)
    pos = r_evals[r_evals > EIG_ZERO]
    tr_rho_ln_rho = float(np.sum(pos * np.log(pos)))
    sup = ~kernel
    overlaps = np.real(np.einsum("ij,jk,ki->i", s_vecs[:, sup].conj().T, rho, s_vecs[:, sup]))
    tr_rho_ln_sigma = float(np.sum(overlaps * np.log(s_evals[sup])))
    return tr_rho_ln_rho - tr_rho_ln_sigma


def classical_renyi_divergence(p, q, alpha: float) -> float:
    """Classical Renyi divergence (1/(alpha-1)) ln sum p^alpha q^(1-alpha), the
    one-order case of classical_renyi_divergences."""
    return classical_renyi_divergences(p, q, (alpha,))[0]


@np.errstate(over="ignore", invalid="ignore")
def classical_renyi_divergences(p, q, alphas) -> list:
    """Classical Renyi divergence of p from q at each order of ``alphas``.

    One support rule holds at every order: a level is in the support of p
    where p > EIG_ZERO and in that of q where q > EIG_ZERO, and from alpha = 1
    up a level in the support of p but not of q makes the divergence +inf.
    alpha = 0, 1 and inf have their own formulas.  Every other order is a
    power sum over the levels in both supports with its own math.log; a sum
    that overflows gives inf or NaN, without a RuntimeWarning.  Two or more
    orders other than 0.5 and 2 share one (orders, levels) power sum; 0.5, 2
    and a lone order keep a scalar exponent, with which numpy computes
    x ** 0.5, x ** 2 and x ** -1 by sqrt, square and reciprocal, not pow.
    """
    listed = [_check_alpha(alpha) for alpha in alphas]
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    both = np.minimum(p, q) > EIG_ZERO
    pb, qb = p[both], q[both]
    leak = max(listed, default=0.0) >= 1.0 and np.count_nonzero(p > EIG_ZERO) > len(pb)
    shared = [a for a in listed if a not in (0.0, 0.5, 1.0, 2.0, INF)]
    sums = {}
    if len(shared) > 1:
        a = np.array(shared)[:, None]
        sums = dict(zip(shared, (pb ** a * qb ** (1.0 - a)).sum(axis=1).tolist()))
    values = []
    for alpha in listed:
        if leak and alpha >= 1.0:
            values.append(INF)
        elif alpha == 0.0:
            mass = float(q[p > EIG_ZERO].sum())
            values.append(INF if mass <= 0.0 else -math.log(mass))
        elif alpha == 1.0:
            values.append(float((pb * (np.log(pb) - np.log(qb))).sum()))
        elif alpha == INF:
            values.append(float(np.log((pb / qb).max())) if len(pb) else INF)
        else:
            total = sums.get(alpha)
            if total is None:
                total = float((pb ** alpha * qb ** (1.0 - alpha)).sum())
            values.append(INF if total <= 0.0 else math.log(total) / (alpha - 1.0))
    return values


def _support_leak(rho: np.ndarray, s_vecs: np.ndarray, kernel: np.ndarray) -> float:
    if not np.any(kernel):
        return 0.0
    proj = s_vecs[:, kernel] @ s_vecs[:, kernel].conj().T
    return float(np.real(np.trace(rho @ proj)))


def renyi_divergence(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha, in nats.

    alpha = 1 is the relative entropy, alpha = inf the max-relative entropy
    ln min{lam : rho <= lam sigma}; alpha = 0 is the diagnostic support
    overlap -ln Tr(P_rho sigma).  +inf follows the support conventions of
    the sandwiched divergence.
    """
    alpha = _check_alpha(alpha)
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    if alpha == 1.0:
        return relative_entropy(rho, sigma)
    s_evals, s_vecs = np.linalg.eigh(sigma)
    kernel = s_evals < SUPPORT_TOL
    if alpha == 0.0:
        r_evals, r_vecs = np.linalg.eigh(rho)
        sup = r_evals > SUPPORT_TOL
        mass = float(np.real(np.trace((r_vecs[:, sup] @ r_vecs[:, sup].conj().T) @ sigma)))
        return INF if mass <= 0.0 else -math.log(mass)
    if math.isinf(alpha):
        if _support_leak(rho, s_vecs, kernel) > SUPPORT_TOL:
            return INF
        sup = ~kernel
        half_inv = (s_vecs[:, sup] * (s_evals[sup] ** -0.5)) @ s_vecs[:, sup].conj().T
        lam = float(np.max(np.linalg.eigvalsh(half_inv @ rho @ half_inv)))
        return math.log(lam) if lam > 0.0 else INF
    exponent = (1.0 - alpha) / (2.0 * alpha)
    if alpha > 1.0 and _support_leak(rho, s_vecs, kernel) > SUPPORT_TOL:
        return INF
    sup = ~kernel
    sand = (s_vecs[:, sup] * (s_evals[sup] ** exponent)) @ s_vecs[:, sup].conj().T
    inner = sand @ rho @ sand
    mu = np.linalg.eigvalsh(inner)
    mu = mu[mu > EIG_ZERO]
    total = float(np.sum(mu ** alpha))
    if total <= 0.0:
        return INF
    return math.log(total) / (alpha - 1.0)


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

