"""Closed-form information calculus for multivariate Gaussians.

Implements relative entropy, quadratic Wasserstein distance,
Schur-complement conditionals and the averaged conditional divergence
that drives the block entropy estimates.  W2 takes the Bures form
through the Cholesky factor L of the second covariance: the eigenvalues
of Sigma_q^1/2 Sigma_p Sigma_q^1/2 are those of L' Sigma_p L, so one
eigvalsh gives the cross term.  The conditionals and divergences of all
blocks are taken in one pass, with one batched inverse per block size.
A precision is L^-T L^-1 from the Cholesky factor L, with L^-1 from one
LAPACK dtrtri per law (tril_inverse), except for the target N(m, K^-1)
of a model, whose precision is K itself.

A GaussianStack holds T laws as (T, d) means and (T, d, d) covariances,
each checked as a GaussianDist is; `kl`, `w2`, `avg_conditional_kl` and
`block_conditionals` take such a leading trial axis and compute every
row as they compute a single law, so a row of a stack equals the call
on that one law bit for bit.  Relative entropy D(p||q) is
E_p[log(dp/dq)] in nats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dtrtri

from .model import BlockPartition, GibbsModel, per_object, symmetrized

_INVERSE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class GaussianStack:
    """T Gaussian laws N(means[t], covs[t]) with batched derived factors.

    Entries must be finite, each covariance symmetric to 1e-8 of its
    largest entry (model.symmetrized keeps or copies it) and positive
    definite; a derived precision P is refused when P C misses I by over
    _INVERSE_TOL (gaussian_target gives its law K instead).
    """

    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covs, dtype=float)
        if means.ndim != 2 or not len(means):
            raise ValueError("means must be (trials, dim), at least one law")
        t, n = means.shape
        if covs.shape != (t, n, n):
            raise ValueError(f"covs must be {t}x{n}x{n}, got {covs.shape}")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(covs))):
            raise ValueError("means and covs must be finite")
        covs, asym = symmetrized(covs, 1e-8)
        if np.any(asym):
            raise ValueError("cov must be symmetric")
        for name, arr in (("means", means), ("covs", covs)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        self.chols  # positive definiteness check at construction

    @classmethod
    def of(cls, law) -> GaussianStack:
        """law itself if it is a stack, else the stack of one law."""
        return law if isinstance(law, cls) else law.stack

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def law(self, t: int) -> GaussianDist:
        return GaussianDist(self.means[t], self.covs[t])

    @cached_property
    def chols(self) -> np.ndarray:
        try:
            chols = np.linalg.cholesky(self.covs)
        except np.linalg.LinAlgError:
            raise ValueError("cov must be positive definite")
        chols.flags.writeable = False
        return chols

    @cached_property
    def precisions(self) -> np.ndarray:
        """L^-T L^-1 from the Cholesky factors, by tril_inverse; about
        two stacks at the peak, the precisions and one for P C - I.  The
        product P is symmetrized as P' + P in a contiguous copy of P':
        P + P' takes a ufunc buffer of up to one more stack, and P += P'
        also an overlap copy of P."""
        inv = tril_inverse(self.chols)
        prod = inv.swapaxes(-1, -2) @ inv
        del inv
        prec = prod.swapaxes(-1, -2).copy()
        prec += prod
        del prod
        prec *= 0.5
        resid = prec @ self.covs
        diag = np.arange(self.dim)
        resid[:, diag, diag] -= 1.0
        defect = float(np.abs(resid, out=resid).max())
        if defect > _INVERSE_TOL:
            raise ValueError(
                f"covariance too ill-conditioned to invert (defect {defect:.3g})")
        prec.flags.writeable = False
        return prec

    @cached_property
    def log_dets(self) -> np.ndarray:
        diag = np.diagonal(self.chols, axis1=1, axis2=2)
        return 2.0 * np.sum(np.log(diag), axis=1)


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Gaussian law N(mean, cov): a view of its GaussianStack of one, which
    makes the checks and holds the derived factors."""

    mean: np.ndarray
    cov: np.ndarray
    stack: GaussianStack = field(init=False, repr=False)

    def __post_init__(self):
        stack = GaussianStack([self.mean], [self.cov])
        for name, val in (("stack", stack), ("mean", stack.means[0]),
                          ("cov", stack.covs[0])):
            object.__setattr__(self, name, val)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def chol(self) -> np.ndarray:
        return self.stack.chols[0]

    @property
    def precision(self) -> np.ndarray:
        return self.stack.precisions[0]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.standard_normal((n, self.dim)) @ self.chol.T
        x += self.mean
        return x


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a . b over leading axes, rounded as the 1-d `a @ b` is."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _matvec(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Row-wise mat @ vec over leading axes, rounded as the 1-d case is."""
    return np.matmul(mat, vec[..., :, None])[..., 0]


def _unstack(vals: np.ndarray, *laws):
    """vals for stacked arguments, its one float for single laws."""
    if any(isinstance(law, GaussianStack) for law in laws):
        return vals
    return float(vals[0])


@per_object
def gaussian_target(model: GibbsModel) -> GaussianDist:
    """Stationary Gaussian N(m, K^-1) of a quartic-free model, whose
    precision is K itself, not the inverse of its computed covariance.

    Memoized on the model, so freed with it; both are read-only.
    """
    if not model.is_gaussian:
        raise ValueError("model has a quartic term: not a Gaussian model")
    cov = np.linalg.inv(model.precision)
    target = GaussianDist(mean=np.array(model.mean), cov=0.5 * (cov + cov.T))
    target.stack.__dict__["precisions"] = model.precision[None]
    return target


def tril_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverses of a stack (..., n, n) of lower-triangular matrices, one
    LAPACK dtrtri per matrix (backward stable, about n^3/3 flops where a
    general LU inverse takes about 2 n^3).  np.linalg.LinAlgError when a
    matrix has a zero diagonal entry."""
    flat = chol.reshape(-1, *chol.shape[-2:])
    out = np.empty(flat.shape)
    for t, mat in enumerate(flat):
        out[t], info = dtrtri(mat, lower=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"triangular matrix {t} has a zero diagonal entry")
    return out.reshape(chol.shape)


def _check_same_dim(p, q) -> int:
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return p.dim


def _blockdiag_matmul(diag, mat, part: BlockPartition) -> np.ndarray:
    """blockdiag(diag) @ mat over any leading axes.  Every row starts as
    diag_rr mat_r, which is the product on a size-1 block (a 1 x 1 inner
    dimension rounds once either way); the rows of each block size s > 1
    are then replaced by one (n, s, s) @ (n, s, m) product."""
    out = np.diagonal(diag, axis1=-2, axis2=-1)[..., None] * mat
    for _, idx in part.size_groups:
        if idx.shape[1] > 1:
            out[..., idx, :] = (diag[..., idx[:, :, None], idx[:, None, :]]
                                @ mat[..., idx, :])
    return out


def block_conditionals(precision: np.ndarray, part: BlockPartition) -> tuple:
    """(cov, gain, logdet) of every block conditional under precision P,
    over any leading axes of P.

    With B = blockdiag(P_kk), cov = B^-1 and gain = -B^-1 (P - B) (zero on
    the diagonal blocks): given the other coordinates, block k has
    covariance cov_kk, log det logdet[k] and mean m_k + (gain (x - m))_k.
    """
    if precision.shape[-2:] != (part.dim, part.dim):
        raise ValueError("partition does not match distribution dimension")
    cov = np.zeros_like(precision)
    logdet = np.empty(precision.shape[:-2] + (part.n,))
    for ks, idx in part.size_groups:
        block = (..., idx[:, :, None], idx[:, None, :])
        inv = np.linalg.inv(precision[block])
        inv = 0.5 * (inv + inv.swapaxes(-1, -2))
        sign, logdet[..., ks] = np.linalg.slogdet(inv)
        if np.any(sign <= 0):
            raise ValueError("conditional covariances must be positive definite")
        cov[block] = inv
    owner = part.coordinate_block
    cross = np.where(owner[:, None] == owner, 0.0, precision)
    return cov, _blockdiag_matmul(-cov, cross, part), logdet


@per_object
def memo_conditionals(source, part: BlockPartition) -> tuple:
    """Read-only block_conditionals of a model's or a fixed law's precision."""
    out = block_conditionals(source.precision, part)
    for arr in out:
        arr.flags.writeable = False
    return out


def kl(p, q):
    """Relative entropy D(p||q) in nats; one value per law when p or q is
    a GaussianStack."""
    ps, qs = GaussianStack.of(p), GaussianStack.of(q)
    n = _check_same_dim(ps, qs)
    diff = ps.means - qs.means
    quad = _dot(np.matmul(diff[:, None, :], qs.precisions)[:, 0], diff)
    val = 0.5 * (np.sum(qs.precisions * ps.covs, axis=(1, 2)) - n + quad
                 + qs.log_dets - ps.log_dets)
    return _unstack(np.maximum(val, 0.0), p, q)


def w2(p, q):
    """Quadratic Wasserstein distance W2(p, q); one value per law when p
    or q is a GaussianStack.

    Each pair is put in a canonical order (x, y) first, so the result is
    exactly symmetric in (p, q).  With Sigma_y = L L', the Bures cross
    term 2 tr (Sigma_y^1/2 Sigma_x Sigma_y^1/2)^1/2 is twice the sum of the
    square roots of the eigenvalues of L' Sigma_x L.
    """
    ps, qs = GaussianStack.of(p), GaussianStack.of(q)
    _check_same_dim(ps, qs)
    size = max(len(ps), len(qs))
    keys_p = [(m.tobytes(), c.tobytes()) for m, c in zip(ps.means, ps.covs)]
    keys_q = [(m.tobytes(), c.tobytes()) for m, c in zip(qs.means, qs.covs)]
    keys_p, keys_q = (keys * (size // len(keys)) for keys in (keys_p, keys_q))
    same = np.array([kp == kq for kp, kq in zip(keys_p, keys_q)])
    swap = np.array([kq < kp for kp, kq in zip(keys_p, keys_q)])
    pick = swap[:, None, None]
    cov_x = np.where(pick, qs.covs, ps.covs)
    cov_y = np.where(pick, ps.covs, qs.covs)
    chol_y = np.where(pick, ps.chols, qs.chols)
    inner = chol_y.swapaxes(1, 2) @ cov_x @ chol_y
    w = np.linalg.eigvalsh(0.5 * (inner + inner.swapaxes(1, 2)))
    cross = 2.0 * np.sum(np.sqrt(np.clip(w, 0.0, None)), axis=1)
    diff = np.where(swap[:, None], qs.means - ps.means, ps.means - qs.means)
    traces = (np.trace(cov_x, axis1=1, axis2=2)
              + np.trace(cov_y, axis1=1, axis2=2))
    sq = _dot(diff, diff) + traces - cross
    return _unstack(np.where(same, 0.0, np.sqrt(np.maximum(sq, 0.0))), p, q)


def avg_conditional_kl(p, q: GaussianDist,
                       part: BlockPartition) -> np.ndarray:
    """E_{xbar ~ p} [ D( p(.|xbar) || q(.|xbar) ) ] for every block k; a
    (T, n) array when p is a GaussianStack of T laws.

    The conditional means differ by a + M (x - mu_p), with a = B_q^-1 Q
    (mu_p - mu_q) and M = G_p - G_q (see block_conditionals), so block k's
    term is half of tr(Q_kk P_kk^-1) - |k| + log det P_kk - log det Q_kk
    + (a' B_q a)_k + the block-k trace of B_q M Sigma_p M'.
    """
    ps = GaussianStack.of(p)
    cov_p, gain_p, logdet_p = block_conditionals(ps.precisions, part)
    cov_q, gain_q, logdet_q = memo_conditionals(q, part)
    shift = _matvec(q.precision, ps.means - q.mean)  # B_q a
    gain_diff = gain_p - gain_q
    rows = (np.sum(q.precision * cov_p, axis=2) + _matvec(cov_q, shift) * shift
            + np.sum(_blockdiag_matmul(q.precision, gain_diff, part)
                     * (gain_diff @ ps.covs), axis=2))
    sums = np.zeros((len(ps), part.n))
    np.add.at(sums, (slice(None), part.coordinate_block), rows)
    vals = np.maximum(
        0.5 * (sums - np.asarray(part.sizes) + logdet_q - logdet_p), 0.0)
    return vals if isinstance(p, GaussianStack) else vals[0]
