"""Independent numpy reference for the checks the benchmark makes.

Nothing here imports thermowork.  The thermomajorization test follows the
curve construction of Horodecki & Oppenheim (arXiv:1111.3834) but evaluates
both curves on the union of their breakpoints with ``np.interp`` instead of
grouping tied ratios; the divergences are computed in the log domain.  The
benchmark uses these functions to pick its hard inputs and to judge every
verdict the library returns.
"""

from __future__ import annotations

import math

import numpy as np

#: The library's default order grid, copied so that a change to the library
#: cannot change which pairs count as hard.
ALPHA_GRID = tuple(np.logspace(-2, 2, 40)) + (1.0, math.inf)

#: A margin inside this band counts as undecidable by floating point; the
#: check then accepts either verdict.
AMBIGUOUS = 1e-7
#: Both curves meet at x = 0 and x = 1, so the deficit is never negative; a
#: free transition shows only rounding error.
FREE_DEFICIT = 1e-12


def log_gibbs(energies, beta: float) -> np.ndarray:
    """log of the normalised Gibbs weights exp(-beta E)/Z."""
    x = -beta * np.asarray(energies, dtype=float)
    m = np.max(x)
    return x - (m + math.log(np.sum(np.exp(x - m))))


def gibbs(energies, beta: float) -> np.ndarray:
    return np.exp(log_gibbs(energies, beta))


def curve(probs, energies, beta: float):
    """Breakpoints (x, y) of the thermomajorization curve, from (0, 0)."""
    p = np.asarray(probs, dtype=float)
    lg = log_gibbs(energies, beta)
    with np.errstate(divide="ignore"):
        log_ratio = np.log(p) - lg
    order = np.argsort(-log_ratio, kind="stable")
    xs = np.concatenate([[0.0], np.cumsum(np.exp(lg[order]))])
    ys = np.concatenate([[0.0], np.cumsum(p[order])])
    return xs / xs[-1], ys


def majorization_deficit(src, dst, beta: float) -> float:
    """max over x of dst_curve(x) - src_curve(x), never below 0 since the
    curves meet at both ends; 0 (up to rounding) iff src -> dst is free.

    ``src`` and ``dst`` are (probs, energies) pairs.
    """
    sx, sy = curve(*src, beta)
    dx, dy = curve(*dst, beta)
    xs = np.union1d(sx, dx)
    return float(np.max(np.interp(xs, dx, dy) - np.interp(xs, sx, sy)))


def tensor(a, b):
    """Tensor product of two classical (probs, energies) pairs."""
    return (np.outer(a[0], b[0]).ravel(),
            (np.asarray(a[1])[:, None] + np.asarray(b[1])[None, :]).ravel())


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m))))


def delta_f(probs, energies, beta: float, alpha: float) -> float:
    """(1/beta) D_alpha(p || Gibbs), classical Renyi divergence in nats."""
    p = np.asarray(probs, dtype=float)
    lg = log_gibbs(energies, beta)
    sup = p > 1e-14
    lp, lg_s = np.log(p[sup]), lg[sup]
    if alpha == 1.0:
        d = float(np.sum(p[sup] * (lp - lg_s)))
    elif math.isinf(alpha):
        d = float(np.max(lp - lg_s))
    else:
        d = _logsumexp(alpha * lp + (1.0 - alpha) * lg_s) / (alpha - 1.0)
    return d / beta


def _delta_f_grid(probs, energies, beta: float, alphas: np.ndarray) -> np.ndarray:
    """delta_f at finite orders other than 1, in one array expression."""
    p = np.asarray(probs, dtype=float)
    sup = p > 1e-14
    lp, lg = np.log(p[sup]), log_gibbs(energies, beta)[sup]
    x = alphas[:, None] * lp[None, :] + (1.0 - alphas)[:, None] * lg[None, :]
    m = np.max(x, axis=1)
    return (m + np.log(np.sum(np.exp(x - m[:, None]), axis=1))) / (alphas - 1.0) / beta


_GRID_BULK = np.array([a for a in ALPHA_GRID if math.isfinite(a) and a != 1.0])


def monotone_gaps(src, dst, beta: float) -> np.ndarray:
    """delta_F_alpha(dst) - delta_F_alpha(src) for every order on the default grid."""
    bulk = _delta_f_grid(*dst, beta, _GRID_BULK) - _delta_f_grid(*src, beta, _GRID_BULK)
    ends = [delta_f(*dst, beta, a) - delta_f(*src, beta, a) for a in (1.0, math.inf)]
    return np.concatenate([bulk, ends])


def classify_pair(src, dst, beta: float) -> str:
    """Reference verdict of the direct and monotone stages of a catalytic decision.

    Returns ``free`` (src thermomajorizes dst), ``separated`` (some order on
    the grid increases), ``hard`` (neither, with margin) or ``ambiguous``.
    """
    deficit = majorization_deficit(src, dst, beta)
    if deficit <= FREE_DEFICIT:
        return "free"
    if deficit < AMBIGUOUS:
        return "ambiguous"
    best_gap = float(np.max(monotone_gaps(src, dst, beta)))
    if best_gap > AMBIGUOUS:
        return "separated"
    if best_gap < -AMBIGUOUS:
        return "hard"
    return "ambiguous"


# ---------------------------------------------------------------------------
# Quantum (non-commuting) objects
# ---------------------------------------------------------------------------

def sandwiched_delta_f(rho: np.ndarray, ham: np.ndarray, beta: float, alpha: float) -> float:
    """(1/beta) times the sandwiched Renyi divergence of rho to the Gibbs state of ham."""
    e, v = np.linalg.eigh(ham)
    lg = log_gibbs(e, beta)

    def sigma_pow(s):
        return (v * np.exp(s * lg)) @ v.conj().T

    if alpha == 1.0:
        log_sigma = (v * lg) @ v.conj().T
        w = np.linalg.eigvalsh(rho)
        w = w[w > 1e-14]
        d = float(np.sum(w * np.log(w))) - float(np.real(np.trace(rho @ log_sigma)))
    elif math.isinf(alpha):
        half = sigma_pow(-0.5)
        d = math.log(float(np.max(np.linalg.eigvalsh(half @ rho @ half))))
    else:
        s = sigma_pow((1.0 - alpha) / (2.0 * alpha))
        mu = np.linalg.eigvalsh(s @ rho @ s)
        mu = mu[mu > 1e-14]
        d = _logsumexp(alpha * np.log(mu)) / (alpha - 1.0)
    return d / beta


def gibbs_matrix(ham: np.ndarray, beta: float) -> np.ndarray:
    e, v = np.linalg.eigh(ham)
    return (v * gibbs(e, beta)) @ v.conj().T


# ---------------------------------------------------------------------------
# The Gibbs-stochastic linear program
# ---------------------------------------------------------------------------

def check_gibbs_stochastic(matrix, src, dst, beta: float, tol: float = 1e-8) -> bool:
    """G >= 0, column sums 1, G g_src = g_dst and G p_src = p_dst."""
    g = np.asarray(matrix, dtype=float)
    if g.shape != (len(dst[0]), len(src[0])) or np.min(g) < -tol:
        return False
    return bool(np.allclose(g.sum(axis=0), 1.0, atol=tol, rtol=0)
                and np.allclose(g @ gibbs(src[1], beta), gibbs(dst[1], beta), atol=tol, rtol=0)
                and np.allclose(g @ src[0], dst[0], atol=tol, rtol=0))


def check_farkas(y, src, dst, beta: float) -> bool:
    """A Farkas vector y for A x = b, x >= 0: A^T y <= 0 and b . y > 0.

    Rows of A are ordered as the witness documents them: one column-sum row
    per source level, then one Gibbs row and one state row per target level.
    """
    y = np.asarray(y, dtype=float)
    ds, dd = len(src[0]), len(dst[0])
    if y.shape != (ds + 2 * dd,):
        return False
    y_col, y_gibbs, y_state = y[:ds], y[ds:ds + dd], y[ds + dd:]
    g_src, g_dst = gibbs(src[1], beta), gibbs(dst[1], beta)
    at_y = y_col[None, :] + y_gibbs[:, None] * g_src[None, :] + y_state[:, None] * src[0][None, :]
    b_y = float(np.sum(y_col) + y_gibbs @ g_dst + y_state @ dst[0])
    scale = max(1.0, float(np.max(np.abs(y))))
    return float(np.max(at_y)) <= 1e-6 * scale and b_y > 0.0
