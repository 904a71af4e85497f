"""Closed-form information calculus for multivariate Gaussians.

Implements relative entropy, relative Fisher information, quadratic
Wasserstein distance (Bures form), Schur-complement conditionals and the
averaged conditional divergence that drives the block entropy estimates.
Relative entropy D(p||q) is E_p[log(dp/dq)] in nats; relative Fisher
information is I(p||q) = E_p[|grad log(dp/dq)|^2].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from .model import BlockPartition, GibbsModel

_EIG_CLAMP = 1e-14
_INVERSE_TOL = 1e-8

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Gaussian law N(mean, cov) with cached derived factors."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError("mean must be a vector")
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise ValueError(f"cov must be {n}x{n}, got {cov.shape}")
        scale = max(1.0, float(np.abs(cov).max()))
        if float(np.abs(cov - cov.T).max()) > 1e-8 * scale:
            raise ValueError("cov must be symmetric")
        cov = 0.5 * (cov + cov.T)
        cov.flags.writeable = False
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        self.chol  # positive definiteness check at construction

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def chol(self) -> np.ndarray:
        try:
            chol = np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            raise ValueError("cov must be positive definite")
        chol.flags.writeable = False
        return chol

    @cached_property
    def precision(self) -> np.ndarray:
        prec = cho_solve((self.chol, True), np.eye(self.dim))
        prec = 0.5 * (prec + prec.T)
        defect = float(np.abs(prec @ self.cov - np.eye(self.dim)).max())
        if defect > _INVERSE_TOL:
            raise ValueError(
                f"covariance too ill-conditioned to invert (defect {defect:.3g})")
        prec.flags.writeable = False
        return prec

    @cached_property
    def log_det_cov(self) -> float:
        return float(2.0 * np.sum(np.log(np.diag(self.chol))))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density, vectorized over rows of x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        diff = x - self.mean
        z = solve_triangular(self.chol, diff.T, lower=True)
        quad = np.sum(z * z, axis=0)
        return -0.5 * (self.dim * _LOG_2PI + self.log_det_cov + quad)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self.chol.T


@lru_cache(maxsize=8)
def gaussian_target(model: GibbsModel) -> GaussianDist:
    """Stationary Gaussian N(m, K^-1) of a quartic-free model.

    Memoized per model: the model and the returned law are read-only.
    """
    if not model.is_gaussian:
        raise ValueError("model has a quartic term; its law is not Gaussian")
    cov = np.linalg.inv(model.precision)
    return GaussianDist(mean=np.array(model.mean), cov=0.5 * (cov + cov.T))


def _check_same_dim(p: GaussianDist, q: GaussianDist) -> int:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return p.dim


def marginal(g: GaussianDist, indices) -> GaussianDist:
    """Marginal law on a subset of coordinates, in the given order."""
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0:
        raise ValueError("marginal needs at least one coordinate")
    if idx.min() < 0 or idx.max() >= g.dim or len(set(idx.tolist())) != idx.size:
        raise ValueError("marginal indices must be distinct and in range")
    return GaussianDist(g.mean[idx], g.cov[np.ix_(idx, idx)])


def block_conditional(precision: np.ndarray, idx: np.ndarray,
                      rest: np.ndarray) -> tuple:
    """(cov, gain) of the law of coordinates idx given the values xbar of
    rest, the other coordinates, under precision P: cov = inv(P_idx,idx)
    and the mean is m_idx + gain (xbar - m_rest), gain = -cov P_idx,rest."""
    rows = precision[idx]
    cov = np.linalg.inv(rows[:, idx])
    cov = 0.5 * (cov + cov.T)
    return cov, -cov @ rows[:, rest]


def conditional(g: GaussianDist, part: BlockPartition, k: int,
                xbar) -> GaussianDist:
    """Conditional law of block k given the remaining coordinates.

    xbar lists the conditioning values on the complement of block k in
    ascending index order; see block_conditional.
    """
    if part.dim != g.dim:
        raise ValueError("partition does not match distribution dimension")
    rest = part.complement(k)
    if rest.size == 0:
        return g
    xbar = np.asarray(xbar, dtype=float)
    if xbar.shape != (rest.size,):
        raise ValueError(f"conditioning vector must have length {rest.size}")
    idx = part.block(k)
    cov_c, gain = block_conditional(g.precision, idx, rest)
    mean_c = g.mean[idx] + gain @ (xbar - g.mean[rest])
    return GaussianDist(mean_c, cov_c)


def kl(p: GaussianDist, q: GaussianDist) -> float:
    """Relative entropy D(p||q) in nats."""
    n = _check_same_dim(p, q)
    diff = p.mean - q.mean
    val = 0.5 * (float(np.sum(q.precision * p.cov)) - n
                 + float(diff @ q.precision @ diff)
                 + q.log_det_cov - p.log_det_cov)
    return max(val, 0.0)


def fisher(p: GaussianDist, q: GaussianDist) -> float:
    """Relative Fisher information I(p||q) = E_p |grad log(dp/dq)|^2.

    For Gaussians the score difference is affine, giving
    tr((Lq - Lp) Sp (Lq - Lp)) + |Lq (mp - mq)|^2 with L the precisions.
    """
    _check_same_dim(p, q)
    s = q.precision - p.precision
    term_cov = float(np.sum((s @ p.cov) * s))
    v = q.precision @ (p.mean - q.mean)
    return max(term_cov + float(v @ v), 0.0)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    w = np.clip(w, _EIG_CLAMP, None)
    return (vecs * np.sqrt(w)) @ vecs.T


def w2(p: GaussianDist, q: GaussianDist) -> float:
    """Quadratic Wasserstein distance W2(p, q) in Bures closed form.

    Arguments are ordered canonically first, so the result is exactly
    symmetric in (p, q).
    """
    _check_same_dim(p, q)
    key_p = (p.mean.tobytes(), p.cov.tobytes())
    key_q = (q.mean.tobytes(), q.cov.tobytes())
    if key_p == key_q:
        return 0.0
    if key_q < key_p:
        p, q = q, p
    root_q = _psd_sqrt(q.cov)
    inner = root_q @ p.cov @ root_q
    w = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    cross = 2.0 * float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    diff = p.mean - q.mean
    sq = float(diff @ diff) + float(np.trace(p.cov) + np.trace(q.cov)) - cross
    return float(np.sqrt(max(sq, 0.0)))


def weighted_w2(p: GaussianDist, q: GaussianDist, part: BlockPartition,
                rho) -> float:
    """Block-weighted W2: coordinate i is scaled by sqrt(rho_k(i)).

    Equals the plain W2 distance between the laws of D x under p and q
    with D = diag(sqrt(rho_k(i))), since scaling is a linear map.
    """
    _check_same_dim(p, q)
    if part.dim != p.dim:
        raise ValueError("partition does not match distribution dimension")
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (part.n,):
        raise ValueError(f"need one weight per block, got shape {rho.shape}")
    if np.any(rho <= 0):
        raise ValueError("block weights must be positive")
    scale = np.sqrt(rho[part.coordinate_block])
    outer = np.outer(scale, scale)
    ps = GaussianDist(scale * p.mean, outer * p.cov)
    qs = GaussianDist(scale * q.mean, outer * q.cov)
    return w2(ps, qs)


def avg_conditional_kl(p: GaussianDist, q: GaussianDist,
                       part: BlockPartition, k: int) -> float:
    """E_{xbar ~ p} [ D( p(.|xbar) || q(.|xbar) ) ] for block k.

    Both conditionals are Gaussian with xbar-independent covariances and
    affine means a + G xbar, so the average is available in closed form:
    the mean-shift term decomposes into a constant offset plus a linear
    image of the p-marginal fluctuation on the conditioning block.
    """
    _check_same_dim(p, q)
    if part.dim != p.dim:
        raise ValueError("partition does not match distribution dimension")
    idx = part.block(k)
    rest = part.complement(k)
    if rest.size == 0:
        return kl(p, q)

    cov_p, gain_p = block_conditional(p.precision, idx, rest)
    cov_q, gain_q = block_conditional(q.precision, idx, rest)
    prec_q_ii = q.precision[np.ix_(idx, idx)]

    offset = (p.mean[idx] - q.mean[idx]) - gain_q @ (p.mean[rest] - q.mean[rest])
    gain_diff = gain_p - gain_q
    cov_rest = p.cov[np.ix_(rest, rest)]

    sign_p, logdet_p = np.linalg.slogdet(cov_p)
    sign_q, logdet_q = np.linalg.slogdet(cov_q)
    if sign_p <= 0 or sign_q <= 0:
        raise ValueError("conditional covariances must be positive definite")

    val = 0.5 * (float(np.sum(prec_q_ii * cov_p)) - idx.size
                 + logdet_q - logdet_p
                 + float(offset @ prec_q_ii @ offset)
                 + float(np.sum((prec_q_ii @ gain_diff) * (gain_diff @ cov_rest))))
    return max(val, 0.0)
