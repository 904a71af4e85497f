"""Reference computations that the tests hold the package against.

Bisection on both certificate thresholds and the interaction matrix
A^rho, the sorted-sample coupling for one-dimensional W2, a random
attractive chain whose certified constant is known exactly, and the
block-by-block draw of the random certified and quartic models that
pins the instance stream.

The bisections read nothing the certificates compute: the block
constants rho_k (one eigvalsh per diagonal block), the cross-block norms
kappa (one operator norm per pair of blocks) and the cross-block part C
of K (K with each diagonal block zeroed) come from model.precision and
model.partition.blocks alone.  An error in criteria.block_lsi_constants,
criteria.cross_block_norms or GibbsModel.cross therefore moves a
certificate away from its oracle.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from lsicert.criteria import block_lsi_constants
from lsicert.instances import random_partition, random_spd
from lsicert.model import BlockPartition, GibbsModel


def _block_constants(model: GibbsModel) -> np.ndarray:
    """rho_k: the least eigenvalue of each diagonal block of K."""
    prec = model.precision
    return np.array([np.linalg.eigvalsh(prec[np.ix_(b, b)])[0]
                     for b in model.partition.blocks])


def _per_coordinate(model: GibbsModel, values) -> np.ndarray:
    """values[k] at every coordinate of block k."""
    out = np.empty(len(model.precision))
    for b, v in zip(model.partition.blocks, values):
        out[list(b)] = v
    return out


def _cross(model: GibbsModel) -> np.ndarray:
    """C: K with each diagonal block zeroed."""
    cross = np.array(model.precision)
    for b in model.partition.blocks:
        cross[np.ix_(b, b)] = 0.0
    return cross


def _block_norms(model: GibbsModel) -> np.ndarray:
    """kappa: the operator norm of each cross block K_kl, zero diagonal."""
    prec, blocks = model.precision, model.partition.blocks
    kappa = np.zeros((len(blocks), len(blocks)))
    for k, ell in combinations(range(len(blocks)), 2):
        kappa[k, ell] = kappa[ell, k] = np.linalg.norm(
            prec[np.ix_(blocks[k], blocks[ell])], 2)
    return kappa


def _interaction(cross: np.ndarray, rho_coord: np.ndarray,
                 rho: float) -> np.ndarray:
    gaps = rho_coord - rho
    if np.any(gaps <= 0):
        raise ValueError(f"rho = {rho} is not below every block constant")
    return cross / np.sqrt(np.outer(gaps, gaps))


def _bisect_largest(feasible, rho_min: float) -> float | None:
    """Largest rho in (0, rho_min] with feasible(rho), for a feasible set
    that is an interval starting at 0; None when no positive rho is
    feasible.  Sixty halvings resolve rho to rho_min * 2^-60.  rho_min
    itself is never evaluated, as the scalings are singular there;
    feasibility just below it stands for the supremum.
    """
    if rho_min <= 0:
        return None
    hi = rho_min * (1.0 - 1e-13)
    if feasible(hi):
        return rho_min
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo if lo > 0 else None


def build_A_rho(model: GibbsModel, rho: float) -> np.ndarray:
    """Interaction matrix A^rho, the reference for the closed form.

    Entry (i, j) with i in block k and j in block l != k is the cross
    Hessian entry divided by sqrt((rho_k - rho)(rho_l - rho)); diagonal
    blocks are zero.  ValueError unless rho is below every block constant.
    """
    return _interaction(_cross(model),
                        _per_coordinate(model, _block_constants(model)), rho)


def bisect_rho_marton(model: GibbsModel) -> float | None:
    """Interaction-matrix certificate by bisection on ||A^rho|| <= 1."""
    rho_k = _block_constants(model)
    cross, rho_coord = _cross(model), _per_coordinate(model, rho_k)
    return _bisect_largest(
        lambda r: np.linalg.norm(_interaction(cross, rho_coord, r), 2) <= 1.0,
        float(rho_k.min()))


def bisect_rho_or(model: GibbsModel) -> float | None:
    """Block-matrix certificate by bisection on the Perron form
    lambda_max(S kappa S) <= 1, S = diag((rho_k - rho)^-1/2)."""
    rho_k = _block_constants(model)
    kappa = _block_norms(model)

    def feasible(r: float) -> bool:
        scale = 1.0 / np.sqrt(rho_k - r)
        scaled = scale[:, None] * kappa * scale[None, :]
        return np.linalg.eigvalsh(scaled)[-1] <= 1.0

    return _bisect_largest(feasible, float(rho_k.min()))


def w2_empirical_1d(samples_p, samples_q) -> float:
    """Empirical 1-d W2 via the sorted-sample (quantile) coupling."""
    sp = np.sort(np.asarray(samples_p, dtype=float).ravel())
    sq = np.sort(np.asarray(samples_q, dtype=float).ravel())
    if sp.size != sq.size:
        raise ValueError("sample sets must have equal size")
    if sp.size == 0:
        raise ValueError("sample sets must be non-empty")
    return float(np.sqrt(np.mean((sp - sq) ** 2)))


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


def random_certified_model_loop(rng: np.random.Generator,
                                dim: int | None = None,
                                target_norm: float | None = None
                                ) -> GibbsModel:
    """instances.random_certified_model drawn block by block: one
    random_spd per diagonal block, a validated block-diagonal model, and
    its block_lsi_constants to scale the cross part."""
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
    rho_k = block_lsi_constants(base)
    scale = 1.0 / np.sqrt(rho_k[part.coordinate_block])
    raw_norm = np.linalg.norm(scale[:, None] * cross * scale[None, :], 2)
    if raw_norm > 0:
        cross *= target_norm / raw_norm
    return GibbsModel(partition=part, precision=prec + cross,
                      mean=base.mean, quartic=np.zeros(dim))


def random_quartic_model_loop(rng: np.random.Generator,
                              dim: int | None = None) -> GibbsModel:
    """instances.random_quartic_model on random_certified_model_loop."""
    base = random_certified_model_loop(rng, dim=dim)
    return GibbsModel(partition=base.partition, precision=base.precision,
                      mean=base.mean,
                      quartic=rng.uniform(0.01, 0.3, size=base.dim))
