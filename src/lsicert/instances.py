"""Reference and random model instances for experiments and verification.

Generators take an explicit numpy Generator so every instance stream is
reproducible from a single seed.  The stream is fixed by the order of the
draws, not by how the drawn numbers are then combined: a random certified
model draws its dimension and interaction norm (when not given), its
partition, then block by block the eigenvalues and the matrix to
orthogonalize, then the cross part and the mean.  Blocks of one size
share one QR and one eigensolve, and each stacked block equals the one
random_spd draws alone.
"""

from __future__ import annotations

import numbers

import numpy as np

from .gaussian import GaussianDist, GaussianStack
from .model import BlockPartition, GibbsModel


def model_2d() -> GibbsModel:
    """Two singleton blocks with coupling -0.5 and unit diagonal.

    The reference example: block constants (1, 1), interaction margin
    0.5 and certified constant 0.5, which equals the smallest precision
    eigenvalue.
    """
    return GibbsModel(
        partition=BlockPartition(((0,), (1,))),
        precision=np.array([[1.0, -0.5], [-0.5, 1.0]]),
        mean=np.zeros(2),
        quartic=np.zeros(2),
    )


def _spd(evals: np.ndarray, raw: np.ndarray) -> np.ndarray:
    """V diag(evals) V' over any leading axes, with V the orthogonal factor
    of the QR of raw, its column signs fixed by diag R."""
    q, r = np.linalg.qr(raw)
    vecs = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    mat = (vecs * evals[..., None, :]) @ vecs.swapaxes(-1, -2)
    return 0.5 * (mat + mat.swapaxes(-1, -2))


def random_spd(rng: np.random.Generator, n: int, lo: float = 0.3,
               hi: float = 3.0) -> np.ndarray:
    """Random SPD matrix with eigenvalues log-uniform on [lo, hi]."""
    evals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    return _spd(evals, rng.standard_normal((n, n)))


def random_gaussians(rng: np.random.Generator, trials: int,
                     dim: int) -> GaussianStack:
    """trials laws N(mean, random_spd), the mean drawn first, with the
    draws of each trial (mean, eigenvalues, matrix to orthogonalize) taken
    trial by trial.  The QR, sign fix, product and Cholesky then run once
    on the stack; each law equals, bit for bit, the one that drawing
    N(rng.normal(...), random_spd(rng, ...)) trial by trial gives."""
    means = np.empty((trials, dim))
    evals = np.empty((trials, dim))
    raw = np.empty((trials, dim, dim))
    for t in range(trials):
        means[t] = rng.normal(scale=2.0, size=dim)
        evals[t] = np.exp(rng.uniform(np.log(0.3), np.log(3.0), size=dim))
        rng.standard_normal(out=raw[t])
    covs = _spd(evals, raw)
    covs.flags.writeable = False  # built here: the stack keeps it
    return GaussianStack(means, covs)


def random_gaussian(rng: np.random.Generator, dim: int) -> GaussianDist:
    return random_gaussians(rng, 1, dim).law(0)


def random_partition(rng: np.random.Generator, dim: int) -> BlockPartition:
    """Partition of a random permutation of 0..dim-1 into blocks of 1 to 3."""
    perm = rng.permutation(dim)
    blocks = []
    i = 0
    while i < dim:
        size = int(rng.integers(1, 4))
        size = min(size, dim - i)
        blocks.append(tuple(int(v) for v in perm[i:i + size]))
        i += size
    return BlockPartition(tuple(blocks))


def random_certified_model(rng: np.random.Generator, dim: int | None = None,
                           target_norm: float | None = None) -> GibbsModel:
    """Gaussian model with a guaranteed positive interaction margin.

    Block-diagonal curvature is drawn first; the cross-block part is then
    rescaled so that ||A|| at rho = 0 hits target_norm, a real number in
    [0, 1), refused with ValueError before anything is drawn.  Since the
    quadratic form of the cross part is bounded by (1 - delta) times the
    block curvature, the assembled precision matrix is positive definite
    by construction.  Needs dim >= 2, as the model has two blocks or more.

    The draws, in order: dim and target_norm when not given, the
    partition, then for each block in block order its log-uniform
    eigenvalues on [0.5, 2.5] and its standard normal matrix, then the
    cross part and the mean.  The blocks of one size are then factored in
    one _spd call and their constants rho_k read from one eigvalsh, so
    the model equals, bit for bit, the one drawn with random_spd block by
    block and rho_k read from a block-diagonal model.
    """
    if dim is not None and dim < 2:
        raise ValueError(f"a certified model needs dim >= 2, got {dim}")
    if target_norm is not None and not (
            isinstance(target_norm, numbers.Real)
            and not isinstance(target_norm, bool) and 0 <= target_norm < 1):
        raise ValueError("target_norm must be a real number in [0, 1), "
                         f"got {target_norm!r}")
    if dim is None:
        dim = int(rng.integers(2, 9))
    if target_norm is None:
        target_norm = float(rng.uniform(0.1, 0.9))
    part = random_partition(rng, dim)
    while part.n < 2:
        part = random_partition(rng, dim)
    lo, hi = np.log(0.5), np.log(2.5)
    draws = [(np.exp(rng.uniform(lo, hi, size=s)), rng.standard_normal((s, s)))
             for s in part.sizes]
    prec = np.zeros((dim, dim))
    rho_k = np.empty(part.n)
    for ks, idx in part.size_groups:
        blocks = _spd(np.array([draws[k][0] for k in ks]),
                      np.array([draws[k][1] for k in ks]))
        prec[idx[:, :, None], idx[:, None, :]] = blocks
        rho_k[ks] = np.linalg.eigvalsh(blocks)[:, 0]
    if not rho_k.min() > 0:
        raise ValueError("a drawn diagonal block is not positive definite")

    cross = rng.standard_normal((dim, dim))
    cross = 0.5 * (cross + cross.T)
    cross[part.coordinate_block[:, None] == part.coordinate_block] = 0.0
    mean = rng.normal(scale=1.0, size=dim)
    scale = 1.0 / np.sqrt(rho_k[part.coordinate_block])
    raw_norm = np.linalg.norm(scale[:, None] * cross * scale[None, :], 2)
    if raw_norm > 0:
        cross *= target_norm / raw_norm
    return GibbsModel(partition=part, precision=prec + cross, mean=mean,
                      quartic=np.zeros(dim))


def random_quartic_model(rng: np.random.Generator,
                         dim: int | None = None) -> GibbsModel:
    """Certified-structure model with a non-trivial quartic term."""
    base = random_certified_model(rng, dim=dim)
    quartic = rng.uniform(0.01, 0.3, size=base.dim)
    return GibbsModel(partition=base.partition, precision=base.precision,
                      mean=base.mean, quartic=quartic)
