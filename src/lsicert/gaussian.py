"""Closed-form information calculus for multivariate Gaussians.

Implements relative entropy, relative Fisher information, quadratic
Wasserstein distance (Bures form), Schur-complement conditionals and the
averaged conditional divergence that drives the block entropy estimates.
The conditionals and divergences of all blocks are taken in one pass,
with one batched inverse per block size.  Relative entropy D(p||q) is
E_p[log(dp/dq)] in nats; relative Fisher information is
I(p||q) = E_p[|grad log(dp/dq)|^2].
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


def tril_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverses of a stack (..., n, n) of invertible lower-triangular
    matrices, by blocks: with L = [[A, 0], [B, D]], the inverse is
    [[A^-1, 0], [-D^-1 B A^-1, D^-1]].  About n^3/3 flops where a
    general LU inverse takes about 2 n^3; the only scratch beyond the
    output is one (..., n - n//2, n//2) product."""
    out = np.zeros_like(chol, dtype=float)
    _tril_inverse_into(chol, out)
    return out


def _tril_inverse_into(chol, out) -> None:
    n = chol.shape[-1]
    if n == 1:
        np.divide(1.0, chol, out=out)
        return
    h = n // 2
    _tril_inverse_into(chol[..., :h, :h], out[..., :h, :h])
    _tril_inverse_into(chol[..., h:, h:], out[..., h:, h:])
    low = out[..., h:, :h]
    np.matmul(chol[..., h:, :h], out[..., :h, :h], out=low)
    np.matmul(out[..., h:, h:], low, out=low)
    low *= -1.0


def _check_same_dim(p: GaussianDist, q: GaussianDist) -> int:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return p.dim


def _blockdiag_matmul(diag, mat, part: BlockPartition) -> np.ndarray:
    """blockdiag(diag) @ mat by one (n, s, s) @ (n, s, m) product per size s."""
    out = np.empty((part.dim, mat.shape[1]))
    for _, idx in part.size_groups:
        out[idx] = diag[idx[:, :, None], idx[:, None, :]] @ mat[idx]
    return out


def block_conditionals(precision: np.ndarray, part: BlockPartition) -> tuple:
    """(cov, gain, logdet) of every block conditional under precision P.

    With B = blockdiag(P_kk), cov = B^-1 and gain = -B^-1 (P - B) (zero on
    the diagonal blocks): given the other coordinates, block k has
    covariance cov_kk, log det logdet[k] and mean m_k + (gain (x - m))_k.
    """
    if precision.shape != (part.dim, part.dim):
        raise ValueError("partition does not match distribution dimension")
    cov = np.zeros_like(precision)
    logdet = np.empty(part.n)
    for ks, idx in part.size_groups:
        inv = np.linalg.inv(precision[idx[:, :, None], idx[:, None, :]])
        inv = 0.5 * (inv + inv.transpose(0, 2, 1))
        sign, logdet[ks] = np.linalg.slogdet(inv)
        if np.any(sign <= 0):
            raise ValueError("conditional covariances must be positive definite")
        cov[idx[:, :, None], idx[:, None, :]] = inv
    owner = part.coordinate_block
    cross = np.where(owner[:, None] == owner, 0.0, precision)
    return cov, _blockdiag_matmul(-cov, cross, part), logdet


@lru_cache(maxsize=8)
def memo_conditionals(source, part: BlockPartition) -> tuple:
    """Read-only block_conditionals of a model's or a fixed law's precision."""
    out = block_conditionals(source.precision, part)
    for arr in out:
        arr.flags.writeable = False
    return out


def conditional(g: GaussianDist, part: BlockPartition, k: int,
                xbar) -> GaussianDist:
    """Conditional law of block k given the remaining coordinates.

    xbar lists the conditioning values on the complement of block k in
    ascending index order; see block_conditionals.
    """
    cov, gain, _ = block_conditionals(g.precision, part)
    rest = part.complement(k)
    if rest.size == 0:
        return g
    xbar = np.asarray(xbar, dtype=float)
    if xbar.shape != (rest.size,):
        raise ValueError(f"conditioning vector must have length {rest.size}")
    idx = part.block(k)
    mean_c = g.mean[idx] + gain[np.ix_(idx, rest)] @ (xbar - g.mean[rest])
    return GaussianDist(mean_c, cov[np.ix_(idx, idx)])


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


def avg_conditional_kl(p: GaussianDist, q: GaussianDist,
                       part: BlockPartition) -> np.ndarray:
    """E_{xbar ~ p} [ D( p(.|xbar) || q(.|xbar) ) ] for every block k.

    The conditional means differ by a + M (x - mu_p), with a = B_q^-1 Q
    (mu_p - mu_q) and M = G_p - G_q (see block_conditionals), so block k's
    term is half of tr(Q_kk P_kk^-1) - |k| + log det P_kk - log det Q_kk
    + (a' B_q a)_k + the block-k trace of B_q M Sigma_p M'.
    """
    cov_p, gain_p, logdet_p = block_conditionals(p.precision, part)
    cov_q, gain_q, logdet_q = memo_conditionals(q, part)
    shift = q.precision @ (p.mean - q.mean)  # B_q a
    gain_diff = gain_p - gain_q
    rows = (np.sum(q.precision * cov_p, axis=1) + (cov_q @ shift) * shift
            + np.sum(_blockdiag_matmul(q.precision, gain_diff, part)
                     * (gain_diff @ p.cov), axis=1))
    sums = np.bincount(part.coordinate_block, weights=rows, minlength=part.n)
    vals = 0.5 * (sums - np.asarray(part.sizes) + logdet_q - logdet_p)
    return np.maximum(vals, 0.0)
