"""Reference computations that the tests hold the package against.

Grid quadrature of divergence and Fisher information, Fisher information
of two Gaussians in closed form, the dense block Gibbs update and its
entropy drop, bisection on both certificate thresholds and the
interaction matrix A^rho, the sorted-sample coupling for one-dimensional
W2, a random attractive chain whose certified constant is known exactly,
and the block-by-block draw of the random certified and quartic models
that pins the instance stream.

The quadrature takes its densities as callables (scipy.stats in the
tests), so it shares no code with the closed forms.  The block update
L_k is built as a d x d matrix from K and the partition alone, with no
use of the package's block conditionals or of the push that
gibbs.verify_contraction runs.

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
from lsicert.gaussian import (GaussianDist, avg_conditional_kl,
                              gaussian_target, kl)
from lsicert.instances import random_partition, random_spd
from lsicert.model import BlockPartition, GibbsModel

MASS_DEFECT_LIMIT = 1e-4
_TINY = 1e-300


class QuadratureError(ValueError):
    """A density's mass on the quadrature grid is off 1 by more than
    MASS_DEFECT_LIMIT."""


def _integral(vals: np.ndarray, axes) -> float:
    """Trapezoid rule over every axis of a grid of values."""
    for ax in reversed(axes):
        vals = np.trapezoid(vals, ax, axis=-1)
    return float(vals)


def _on_grid(p_density, q_density, box, pts_per_dim: int) -> tuple:
    """(axes, p, q): both densities on a grid of pts_per_dim points a side
    over a box of 1 to 3 sides, each refused with QuadratureError unless
    it integrates to 1 within MASS_DEFECT_LIMIT there."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if not 1 <= len(box) <= 3 or pts_per_dim < 8 \
            or any(hi <= lo for lo, hi in box):
        raise ValueError("need 1 to 3 box sides of positive length and at "
                         "least 8 points per dimension")
    axes = [np.linspace(lo, hi, pts_per_dim) for lo, hi in box]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vals = []
    for label, density in (("p", p_density), ("q", q_density)):
        val = np.asarray(density(points.reshape(-1, len(box))),
                         dtype=float).reshape(points.shape[:-1])
        mass = _integral(val, axes)
        if abs(mass - 1.0) > MASS_DEFECT_LIMIT:
            raise QuadratureError(
                f"{label} density integrates to {mass:.8g} on the box; "
                f"enlarge the box or refine the grid")
        vals.append(val)
    return axes, *vals


def _log_ratio(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, _TINY)) - np.log(np.maximum(q, _TINY))


def quad_kl(p_density, q_density, box, pts_per_dim: int) -> float:
    """Trapezoid quadrature of D(p||q) = integral p log(p/q) on a box;
    densities are callables on an (npts, d) array of points."""
    axes, p, q = _on_grid(p_density, q_density, box, pts_per_dim)
    return _integral(np.where(p > _TINY, p * _log_ratio(p, q), 0.0), axes)


def quad_fisher(p_density, q_density, box, pts_per_dim: int) -> float:
    """Trapezoid quadrature of I(p||q) = integral p |grad log(p/q)|^2, the
    gradient by central differences on the grid (exact for Gaussian
    pairs, whose log ratio is quadratic)."""
    axes, p, q = _on_grid(p_density, q_density, box, pts_per_dim)
    grads = np.reshape(np.gradient(_log_ratio(p, q), *axes),
                       (len(axes), *p.shape))
    return _integral(p * np.sum(grads ** 2, axis=0), axes)


def fisher(p: GaussianDist, q: GaussianDist) -> float:
    """I(p||q) = E_p |grad log(dp/dq)|^2 in closed form: the score
    difference S (x - m_p) + L_q (m_p - m_q), S = L_q - L_p with L the
    precisions, is affine, so I = tr(S Sigma_p S) + |L_q (m_p - m_q)|^2."""
    prec_q = np.linalg.inv(q.cov)
    s = prec_q - np.linalg.inv(p.cov)
    v = prec_q @ (p.mean - q.mean)
    return max(float(np.sum((s @ p.cov) * s) + v @ v), 0.0)


def block_update(model: GibbsModel, k: int) -> tuple:
    """(lin, offset, noise) of the block-k Gibbs update x -> lin x +
    offset + xi, xi ~ N(0, noise): x_k is redrawn from N(m_k - K_kk^-1
    K_k,rest (x_rest - m_rest), K_kk^-1), so lin is the identity with
    block k's rows -K_kk^-1 K_k,. and zeros on block k."""
    prec, idx = model.precision, list(model.partition.block(k))
    cond_cov = np.linalg.inv(prec[np.ix_(idx, idx)])
    lin = np.eye(model.dim)
    lin[idx] = -cond_cov @ prec[idx]
    lin[np.ix_(idx, idx)] = 0.0
    noise = np.zeros_like(lin)
    noise[np.ix_(idx, idx)] = cond_cov
    return lin, model.mean - lin @ model.mean, noise


def block_image(p: GaussianDist, model: GibbsModel, k: int) -> GaussianDist:
    """p Gamma_k, the law of the block-k update of a draw from p."""
    lin, offset, noise = block_update(model, k)
    return GaussianDist(lin @ p.mean + offset, lin @ p.cov @ lin.T + noise)


def entropy_drop(p: GaussianDist, model: GibbsModel, k: int) -> tuple:
    """(lhs, rhs) of the entropy-drop identity of the block-k update:
    lhs = D(p||q) - D(p Gamma_k||q) and rhs = E[D(p^k(.|xbar) ||
    q^k(.|xbar))], the averaged conditional divergence of block k."""
    q = gaussian_target(model)
    return (kl(p, q) - kl(block_image(p, model, k), q),
            float(avg_conditional_kl(p, q, model.partition)[k]))


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
