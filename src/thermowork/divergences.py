"""Entropies, Renyi divergences and the free-energy family built on them.

All values are in nats; beta carries inverse energy units.  The quantum
divergence implemented is the sandwiched (minimal) Renyi divergence, which
reduces to the classical formula (1/(alpha-1)) ln sum p^alpha q^(1-alpha)
on commuting inputs.  alpha = 1 and alpha = inf use dedicated formulas
(relative entropy and max-relative entropy) rather than numerical limits.
alpha = 0 is exposed for diagnostics only.

Every classical divergence goes through classical_renyi_divergences, with one support
rule for every order: entries at or below EIG_ZERO count as zeros, both in p and in the
reference q; orders above _POW_SAFE go by log-sum-exp.  A classical object's free energies,
delta_F_alpha's and the deciders' alike, come from one row table, _Rows.  The quantum
divergences take the kernel of the reference from its eigenvalues below SUPPORT_TOL.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (ClassicalObject, _gibbs_matrix, _ptrace_matrix, check_tensor_dim,
                   classical_to_object, gibbs_weights)

INF = float("inf")
# Eigenvalues below this are treated as exact zeros in entropy sums.
EIG_ZERO = 1e-14
# Reference eigenvalues below this define the kernel in quantum support tests.
SUPPORT_TOL = 1e-12
#: The largest order whose power-sum terms on p, q in (EIG_ZERO, 1] stay normal floats.
_POW_SAFE = math.floor(math.log(np.finfo(float).tiny) / math.log(EIG_ZERO))


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


def _check_alphas(alphas) -> list:
    """The orders as floats, checked in one pass; ValueError names the first bad one."""
    listed = list(map(float, alphas))
    if not all(map((0.0).__le__, listed)):  # False at NaN too
        bad = next(alpha for alpha in listed if not alpha >= 0)
        raise ValueError(f"alpha must lie in [0, inf], got {bad}")
    return listed


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum lambda ln lambda in nats."""
    evals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    evals = evals[evals > EIG_ZERO]
    return float(-np.sum(evals * np.log(evals)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy Tr(rho ln rho - rho ln sigma), the order-1 case
    of renyi_divergences.

    Returns +inf when the state has support outside the support of the
    reference (kernel defined by eigenvalues of sigma below SUPPORT_TOL).
    """
    return renyi_divergences(rho, sigma, (1.0,))[0]


def classical_renyi_divergence(p, q, alpha: float) -> float:
    """Classical Renyi divergence (1/(alpha-1)) ln sum p^alpha q^(1-alpha), the
    one-order case of classical_renyi_divergences."""
    return classical_renyi_divergences(p, q, (alpha,))[0]


@np.errstate(over="ignore", under="ignore", invalid="ignore")
def classical_renyi_divergences(p, q, alphas) -> list:
    """Classical Renyi divergence of p from q at each order of ``alphas``; for
    (rows, levels) arrays p and q a list per row, each as its one-row call.

    One support rule holds at every order: levels where p > EIG_ZERO and q > EIG_ZERO
    count, and from alpha = 1 up a level with p > EIG_ZERO and q at or below it makes the
    divergence +inf; a row with no level in both supports is +inf at every order but 0.
    alpha = 0, 1 and inf have their own formulas.  Up to _POW_SAFE an order is a power sum
    with its own math.log; several such orders other than 0.5 and 2 share one power sum,
    otherwise each keeps a scalar exponent (numpy's sqrt, square and reciprocal paths).
    Larger orders, and a power sum still inf, NaN or 0, go by log-sum-exp.  No order warns.
    Rows with full support go in as one group, unchanged and C-contiguous, others by
    support size, support first: a row adds its terms as in its one-row call.
    """
    listed = _check_alphas(alphas)
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
    """(rows, arrays) for each number of levels where ``mask`` holds: those rows of each
    array, those levels in front; if it holds everywhere, all rows as they are, C-contiguous."""
    if mask.all():
        return [(range(len(mask)), [np.ascontiguousarray(a) for a in arrays])]
    sizes = np.add.reduce(mask, 1)
    if len(distinct := set(sizes.tolist())) == 1:  # one group: no rows to pick
        return [(range(len(mask)), [a[mask].reshape(len(mask), *distinct) for a in arrays])]
    return [(at.tolist(), [a[at][mask[at]].reshape(len(at), size) for a in arrays])
            for size, at in ((s, np.flatnonzero(sizes == s)) for s in distinct)]


def _support_values(pb: np.ndarray, qb: np.ndarray, listed: list) -> list:
    """The values at the orders of ``listed`` (0 at order 0), a list for each
    row of pb, qb: the levels in both supports.  With no such level every other order is +inf."""
    if not pb.shape[1]:
        return [[0.0 if alpha == 0.0 else INF for alpha in listed] for _ in range(len(pb))]
    low = [alpha for alpha in listed if alpha <= _POW_SAFE and alpha not in (0.0, 1.0)]
    if len(low) > 1 and 0.5 not in low and 2.0 not in low:
        a, step = np.array(low)[:, None], max(1, (1 << 15) // (len(low) * pb.shape[1]))
        sums = [s for k in range(0, len(pb), step) for s in np.add.reduce(  # temporaries <= 256 KB
            pb[k:k + step, None] ** a * qb[k:k + step, None] ** (1.0 - a), 2).tolist()]
    else:
        sums = zip(*[np.add.reduce(pb ** alpha * qb ** (1.0 - alpha), 1).tolist()
                     for alpha in low]) if low else [()] * len(pb)
    values = [[math.log(t) / (alpha - 1.0) if 0.0 < t < INF
               else _log_sums(pb[r:r + 1], qb[r:r + 1], [alpha]).item()
               for alpha, t in zip(low, row)] for r, row in enumerate(sums)]
    if len(low) < len(listed):
        columns = {0.0: [0.0] * len(pb)}
        if high := [alpha for alpha in listed if _POW_SAFE < alpha < INF]:
            columns.update(zip(high, _log_sums(pb, qb, high).T.tolist()))
        if 1.0 in listed:
            columns[1.0] = np.add.reduce(pb * (np.log(pb) - np.log(qb)), 1).tolist()
        if INF in listed:
            columns[INF] = np.log(np.maximum.reduce(pb / qb, 1)).tolist()
        for k in [k for k, alpha in enumerate(listed) if alpha in columns]:
            for row, v in zip(values, columns[listed[k]]):
                row.insert(k, v)  # in order of k, so each lands at its index
    return values


def _log_sums(pb: np.ndarray, qb: np.ndarray, orders: list) -> np.ndarray:
    """Renyi divergences of pb from qb, (rows, orders), by log-sum-exp; +inf on no level."""
    if not pb.shape[1]:
        return np.full((len(pb), len(orders)), INF)
    t = np.array(orders)[:, None] * np.log(pb / qb)[:, None] + np.log(qb)[:, None]
    top = np.maximum.reduce(t, 2)  # each row and order shifted by its largest term
    sums = np.add.reduce(np.exp(t - top[..., None]), 2)
    logs = np.fromiter(map(math.log, sums.ravel().tolist()), float, sums.size).reshape(sums.shape)
    return (top + logs) / (np.array(orders) - 1.0)


def renyi_divergence(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha, in nats, the one-order case
    of renyi_divergences.

    alpha = 1 is the relative entropy, alpha = inf the max-relative entropy
    ln min{lam : rho <= lam sigma}; alpha = 0 is the diagnostic support
    overlap -ln Tr(P_rho sigma).  +inf follows the support conventions of
    the sandwiched divergence.
    """
    return renyi_divergences(rho, sigma, (alpha,))[0]


def renyi_divergences(rho: np.ndarray, sigma: np.ndarray, alphas) -> list:
    """Sandwiched Renyi divergence of rho from sigma at each order of ``alphas``.

    sigma = V diag(lam) V^dagger is decomposed once, and its kernel (eigenvalues below
    SUPPORT_TOL), support leak and support eigenvectors serve every order.  rho is rotated
    once onto the support, rho' = V^dagger rho V, and the sandwich sigma^x rho sigma^x of
    every order but 0 and 1 is (lam^x rho') lam^x, two diagonal scalings with the same
    eigenvalues on the support; the rotation and eigvalsh are stacked calls, which work
    matrix by matrix, so a value is that of its one-order call to the bit.  From alpha = 1
    up (and at inf) a leak of rho into the kernel makes the divergence +inf.  A power sum of
    inf or 0 goes by log-sum-exp.
    """
    listed = _check_alphas(alphas)
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return _sandwiched([rho], sigma, np.linalg.eigh(sigma), listed)[0]


def _powers(base: np.ndarray, exponents: list) -> np.ndarray:
    """base ** exponents[k] in row k (of base too, if 2-D), with the bits of its scalar call."""
    out = base ** np.array(exponents)[:, None]
    for k in [k for k, e in enumerate(exponents) if e in (-1.0, 0.0, 0.5, 1.0, 2.0)]:
        out[k] = (base if base.ndim == 1 else base[k]) ** exponents[k]
    return out


@np.errstate(over="ignore", invalid="ignore")
def _sandwiched(rhos: list, sigma: np.ndarray, decomposed, listed: list) -> list:
    """renyi_divergences at checked orders for each state of the list ``rhos``, given
    ``decomposed``, the eigh of sigma: a group of states is rotated onto its support once."""
    s_evals, s_vecs = decomposed
    kernel = s_evals < SUPPORT_TOL
    projector = s_vecs[:, kernel] @ s_vecs[:, kernel].conj().T if kernel.any() else None
    leaks = [projector is not None and float(np.real(np.trace(rho @ projector))) > SUPPORT_TOL
             for rho in rhos]  # +inf from order 1 up: no sandwich there if every state leaks
    lam, vecs = (s_evals[~kernel], s_vecs[:, ~kernel]) if kernel.any() else decomposed
    in_stack = [alpha not in (0.0, 1.0) and (alpha < 1.0 or not all(leaks)) for alpha in listed]
    generic = [alpha for alpha, stacked in zip(listed, in_stack) if stacked]
    table = _powers(lam, [-0.5 if alpha == INF else (1.0 - alpha) / (2.0 * alpha) for alpha in generic])
    mu, r = np.empty((len(rhos), len(generic), len(lam))), len(lam)
    n = min(len(rhos), max(1, (1 << 14) // (r * r)))  # states per group, orders per chunk:
    step = max(1, (1 << 14) // (n * r * r))  # 2 ** 14 complex entries (256 KB), or one matrix
    for s in range(0, len(rhos), n):  # states outside: one group's rho' is live at a time
        rotated = (vecs.conj().T @ np.array(rhos[s:s + n]) @ vecs)[:, None]
        for k in range(0, len(generic), step):
            scale = table[k:k + step]  # sigma^x rho sigma^x = V ((lam^x rho') lam^x) V^dagger
            mu[s:s + n, k:k + step] = np.linalg.eigvalsh(scale[:, :, None] * rotated * scale[:, None])
    full, tops = (mu[..., 0] > EIG_ZERO).tolist(), mu[..., -1].tolist()  # eigvalsh ascends
    sums = np.add.reduce(_powers(mu.reshape(-1, r), generic * len(rhos)), 1).reshape(mu.shape[:2])
    values = []
    for s, rho in enumerate(rhos):
        row, k = [], -1
        for alpha, stacked in zip(listed, in_stack):
            k += stacked  # the order's row in mu
            if alpha >= 1.0 and leaks[s]:
                row.append(INF)
            elif alpha == 1.0:
                r_evals = np.linalg.eigvalsh(rho)
                pos = r_evals[r_evals > EIG_ZERO]
                overlaps = np.real(np.einsum("ij,jk,ki->i", vecs.conj().T, rho, vecs))
                row.append(float(np.sum(pos * np.log(pos))) - float(np.sum(overlaps * np.log(lam))))
            elif alpha == 0.0:
                r_evals, r_vecs = np.linalg.eigh(rho)
                sup = r_evals > SUPPORT_TOL
                mass = float(np.real(np.trace((r_vecs[:, sup] @ r_vecs[:, sup].conj().T) @ sigma)))
                row.append(INF if mass <= 0.0 else -math.log(mass))
            elif alpha == INF:
                row.append(math.log(tops[s][k]) if tops[s][k] > 0.0 else INF)
            else:
                pos = mu[s, k] if full[s][k] else mu[s, k][mu[s, k] > EIG_ZERO]
                total = float(sums[s, k] if full[s][k] else np.sum(pos ** alpha))
                row.append(math.log(total) / (alpha - 1.0) if 0.0 < total < INF
                           else _log_sums(pos[None], np.ones((1, len(pos))), [alpha]).item())
        values.append(row)
    return values


class _Rows:
    """The one source of classical rows and their free energies: row m * len(objs) + k holds the
    probabilities of bases[m] (x) objs[k] (objs[k] alone where bases[m] is None), zero-padded to
    the widest row, and gibbs(cat_dim) their Gibbs weights beside cat_dim zero-energy catalyst
    levels (level i * cat_dim + k), one gibbs_weights call per base and object dimension, once."""

    def __init__(self, objs, beta: float, bases=(None,)):
        dims = [c.dim for c in objs]
        self.dims = dims if bases == (None,) else [b.dim * dim for b in bases for dim in dims]
        if bases != (None,):  # the cap is on tensor products, not on an object alone
            check_tensor_dim(max(self.dims))
        self.beta, self._gibbs = beta, {}
        if bases == (None,) and dims.count(dims[0]) == len(dims):  # one group, no grouping loop
            self._rows, self.probs = [slice(None)], np.array([c.probs for c in objs])
            self._energies = [np.array([c.energies for c in objs])]
            self._gibbs[1] = gibbs_weights(self._energies[0], beta)
            return
        self._rows, self._energies, at_dim = [], [], {}
        self.probs = np.zeros((len(self.dims), max(self.dims)))
        for k, dim in enumerate(dims):
            at_dim.setdefault(dim, []).append(k)
        for m, base in enumerate(bases):
            for at in at_dim.values():
                p = np.array([objs[k].probs for k in at])
                e = np.array([objs[k].energies for k in at])
                if base is not None:
                    p = (base.probs[:, None] * p[:, None, :]).reshape(len(at), -1)
                    e = (base.energies[:, None] + e[:, None, :]).reshape(len(at), -1)
                self._rows.append([m * len(dims) + k for k in at])
                self._energies.append(e)
                self.probs[self._rows[-1], :p.shape[1]] = p

    def gibbs(self, cat_dim: int = 1) -> np.ndarray:
        if cat_dim not in self._gibbs:
            g = self._gibbs[cat_dim] = np.zeros((len(self.dims), max(self.dims) * cat_dim))
            for rows, e in zip(self._rows, self._energies):
                g[rows, :e.shape[1] * cat_dim] = gibbs_weights(
                    e if cat_dim == 1 else np.repeat(e, cat_dim, 1), self.beta)
        return self._gibbs[cat_dim]

    def free(self, orders, rows=slice(None)) -> np.ndarray:
        """delta_F of ``rows`` at ``orders`` in one kernel call, a row each, (rows, orders)."""
        return np.divide(classical_renyi_divergences(self.probs[rows], self.gibbs()[rows],
                                                     orders), self.beta)

    def pairs(self, src, dst, cat_dim: int) -> tuple:
        """The probabilities and gibbs(cat_dim) of rows ``src``, then of ``dst``, one width."""
        w, g = max(self.dims[n] for n in itertools.chain(src, dst)), self.gibbs(cat_dim)
        return self.probs[src, :w], g[src, :w * cat_dim], self.probs[dst, :w], g[dst, :w * cat_dim]


def delta_F_alpha(p, ctx, alpha: float) -> float:
    """Free-energy difference to the Gibbs object:
    (1/beta) S_alpha(rho || omega_{H,beta}).

    Nonnegative for alpha > 0, zero exactly on Gibbs objects, and invariant
    under identity shifts of the Hamiltonian.  Accepts thermal or classical
    objects; a classical one is read from its one-row _Rows table.
    """
    beta = as_beta(ctx)
    if isinstance(p, ClassicalObject):
        return _Rows([p], beta).free((alpha,)).item()
    return renyi_divergence(p.state, _gibbs_matrix(p.hamiltonian, beta), alpha) / beta


def delta_F_1_via_energy(p, ctx) -> float:
    """Von Neumann free-energy difference via Tr(rho H) - S(rho)/beta.

    Cross-checks the divergence form: agrees with delta_F_alpha(p, ctx, 1)
    up to numerical error.
    """
    beta = as_beta(ctx)
    if isinstance(p, ClassicalObject):
        p = classical_to_object(p)
    ham = p.hamiltonian.matrix
    omega = _gibbs_matrix(p.hamiltonian, beta)
    f_state = float(np.real(np.trace(p.state @ ham))) - von_neumann_entropy(p.state) / beta
    f_gibbs = float(np.real(np.trace(omega @ ham))) - von_neumann_entropy(omega) / beta
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

