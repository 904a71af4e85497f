"""Reference and random model instances for experiments and verification.

Generators take an explicit numpy Generator so every instance stream is
reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianDist, GaussianStack
from .model import BlockPartition, GibbsModel

from . import criteria


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
    rescaled so that ||A|| at rho = 0 hits target_norm < 1.  Since the
    quadratic form of the cross part is bounded by (1 - delta) times the
    block curvature, the assembled precision matrix is positive definite
    by construction.  Needs dim >= 2, as the model has two blocks or more.
    """
    if dim is not None and dim < 2:
        raise ValueError(f"a certified model needs dim >= 2, got {dim}")
    if dim is None:
        dim = int(rng.integers(2, 9))
    if target_norm is None:
        target_norm = float(rng.uniform(0.1, 0.9))
    part = random_partition(rng, dim)
    while part.n < 2:
        part = random_partition(rng, dim)
    prec = np.zeros((dim, dim))
    for k in range(part.n):
        idx = part.block(k)
        prec[np.ix_(idx, idx)] = random_spd(rng, idx.size, lo=0.5, hi=2.5)

    cross = rng.standard_normal((dim, dim))
    cross = 0.5 * (cross + cross.T)
    cross[part.coordinate_block[:, None] == part.coordinate_block] = 0.0
    base = GibbsModel(partition=part, precision=prec,
                      mean=rng.normal(scale=1.0, size=dim),
                      quartic=np.zeros(dim))
    rho_k = criteria.block_lsi_constants(base)
    scale = 1.0 / np.sqrt(rho_k[part.coordinate_block])
    raw_norm = np.linalg.norm(scale[:, None] * cross * scale[None, :], 2)
    if raw_norm > 0:
        cross *= target_norm / raw_norm
    return GibbsModel(partition=part, precision=prec + cross,
                      mean=base.mean, quartic=np.zeros(dim))


def random_attractive_chain(rng: np.random.Generator,
                            n: int | None = None) -> GibbsModel:
    """Singleton-block tridiagonal model with non-positive couplings.

    Diagonal entries in [1, 2] and couplings in [-0.4, 0] keep the
    interaction norm at most 0.8, so the certificate exists and the
    certified constant is exactly the smallest precision eigenvalue.
    """
    if n is None:
        n = int(rng.integers(2, 9))
    diag = rng.uniform(1.0, 2.0, size=n)
    off = rng.uniform(-0.4, 0.0, size=n - 1)
    prec = np.diag(diag)
    prec += np.diag(off, k=1) + np.diag(off, k=-1)
    part = BlockPartition(tuple((i,) for i in range(n)))
    return GibbsModel(partition=part, precision=prec,
                      mean=rng.normal(scale=1.0, size=n),
                      quartic=np.zeros(n))


def random_quartic_model(rng: np.random.Generator,
                         dim: int | None = None) -> GibbsModel:
    """Certified-structure model with a non-trivial quartic term."""
    base = random_certified_model(rng, dim=dim)
    quartic = rng.uniform(0.01, 0.3, size=base.dim)
    return GibbsModel(partition=base.partition, precision=base.precision,
                      mean=base.mean, quartic=quartic)
