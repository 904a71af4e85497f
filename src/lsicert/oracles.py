"""Independent estimators used to cross-check the closed-form calculus.

The interaction matrix A^rho and bisection on the two certificate
thresholds, grid quadrature for
divergence and Fisher information (dimensions 1 to 3), the sorted-sample
coupling for one-dimensional W2, the conditional law of one block as a
reference for the batched conditionals, and closed-form checkers for the
transport inequality and the per-block mean-shift comparison.  The
estimators take a different route than the main modules, so agreement
with them is evidence of correctness.
"""

from __future__ import annotations

import numpy as np

from .criteria import (
    CertificateError,
    Check,
    CriteriaReport,
    block_lsi_constants,
    cross_block_norms,
)
from .gaussian import (GaussianDist, GaussianStack, _dot, _matvec,
                       block_conditionals, gaussian_target, kl,
                       memo_conditionals, w2)
from .model import BlockPartition, GibbsModel

MASS_DEFECT_LIMIT = 1e-4
_TINY = 1e-300


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
    blocks are zero.  Requires rho below every block constant.
    """
    gaps = block_lsi_constants(model)[model.partition.coordinate_block] - rho
    if np.any(gaps <= 0):
        raise CertificateError(
            f"rho = {rho} is not below every block constant")
    return model.cross / np.sqrt(np.outer(gaps, gaps))


def bisect_rho_marton(model: GibbsModel) -> float | None:
    """Interaction-matrix certificate by bisection on ||A^rho|| <= 1."""
    return _bisect_largest(
        lambda r: np.linalg.norm(build_A_rho(model, r), 2) <= 1.0,
        float(block_lsi_constants(model).min()))


def bisect_rho_or(model: GibbsModel) -> float | None:
    """Block-matrix certificate by bisection on the Perron form
    lambda_max(S kappa S) <= 1, S = diag((rho_k - rho)^-1/2)."""
    rho_k = block_lsi_constants(model)
    kappa = cross_block_norms(model)

    def feasible(r: float) -> bool:
        scale = 1.0 / np.sqrt(rho_k - r)
        scaled = scale[:, None] * kappa * scale[None, :]
        return np.linalg.eigvalsh(scaled)[-1] <= 1.0

    return _bisect_largest(feasible, float(rho_k.min()))


class QuadratureError(ValueError):
    """Quadrature setup failed its self-check (mass defect too large)."""


class QuadValue(float):
    """Float carrying the quadrature's self-reported mass defect."""

    def __new__(cls, value: float, mass_defect: float):
        obj = super().__new__(cls, value)
        obj.mass_defect = float(mass_defect)
        return obj


def _grid_eval(density, box, pts_per_dim):
    box = [(float(lo), float(hi)) for lo, hi in box]
    d = len(box)
    if d < 1 or d > 3:
        raise ValueError("quadrature supports dimensions 1 to 3")
    if pts_per_dim < 8:
        raise ValueError("need at least 8 points per dimension")
    if any(hi <= lo for lo, hi in box):
        raise ValueError("box sides must have positive length")
    axes = [np.linspace(lo, hi, pts_per_dim) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = np.asarray(density(points), dtype=float).reshape(mesh[0].shape)
    weights = np.ones(mesh[0].shape)
    for axis, ax in enumerate(axes):
        w1 = np.full(pts_per_dim, ax[1] - ax[0])
        w1[0] *= 0.5
        w1[-1] *= 0.5
        shape = [1] * d
        shape[axis] = pts_per_dim
        weights = weights * w1.reshape(shape)
    return axes, vals, weights


def _check_mass(weights, vals, label) -> float:
    mass = float(np.sum(weights * vals))
    defect = abs(mass - 1.0)
    if defect > MASS_DEFECT_LIMIT:
        raise QuadratureError(
            f"{label} density integrates to {mass:.8g} on the box "
            f"(defect {defect:.3g}); enlarge the box or refine the grid")
    return defect


def quad_kl(p_density, q_density, box, pts_per_dim: int) -> QuadValue:
    """Trapezoid quadrature of D(p||q) = integral p log(p/q) on a box.

    Densities are callables on an (npts, d) array of points.  Both are
    integrated as a self-check; the defect of p is attached to the result.
    """
    axes, pvals, weights = _grid_eval(p_density, box, pts_per_dim)
    _, qvals, _ = _grid_eval(q_density, box, pts_per_dim)
    defect = _check_mass(weights, pvals, "p")
    _check_mass(weights, qvals, "q")
    ratio = np.log(np.maximum(pvals, _TINY)) - np.log(np.maximum(qvals, _TINY))
    integrand = np.where(pvals > _TINY, pvals * ratio, 0.0)
    return QuadValue(float(np.sum(weights * integrand)), defect)


def quad_fisher(p_density, q_density, box, pts_per_dim: int) -> QuadValue:
    """Trapezoid quadrature of I(p||q) = integral p |grad log(p/q)|^2.

    The log-ratio gradient is taken by central differences on the same
    grid (exact for Gaussian pairs, whose log ratio is quadratic).
    """
    axes, pvals, weights = _grid_eval(p_density, box, pts_per_dim)
    _, qvals, _ = _grid_eval(q_density, box, pts_per_dim)
    defect = _check_mass(weights, pvals, "p")
    _check_mass(weights, qvals, "q")
    logratio = np.log(np.maximum(pvals, _TINY)) - np.log(np.maximum(qvals, _TINY))
    grads = np.gradient(logratio, *axes)
    if len(box) == 1:
        grads = [grads]
    sq = np.zeros_like(pvals)
    for g in grads:
        sq += g * g
    return QuadValue(float(np.sum(weights * pvals * sq)), defect)


def w2_empirical_1d(samples_p, samples_q) -> float:
    """Empirical 1-d W2 via the sorted-sample (quantile) coupling."""
    sp = np.sort(np.asarray(samples_p, dtype=float).ravel())
    sq = np.sort(np.asarray(samples_q, dtype=float).ravel())
    if sp.size != sq.size:
        raise ValueError("sample sets must have equal size")
    if sp.size == 0:
        raise ValueError("sample sets must be non-empty")
    return float(np.sqrt(np.mean((sp - sq) ** 2)))


def conditional(g: GaussianDist, part: BlockPartition, k: int,
                xbar) -> GaussianDist:
    """Conditional law of block k given the remaining coordinates, read
    from block_conditionals: a reference for its gains and covariances.

    xbar lists the conditioning values on the complement of block k in
    ascending index order.
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


def transport_check(p, model: GibbsModel, report: CriteriaReport):
    """Check W2(p, q)^2 <= (2/rho) D(p||q) with the certified rho.

    p is one law, or a GaussianStack whose laws are checked in one pass,
    one Check each.
    """
    if report.rho_marton is None:
        raise CertificateError("report carries no certified constant")
    q = gaussian_target(model)
    laws = GaussianStack.of(p)
    w2sq = w2(laws, q) ** 2
    bound = 2.0 / report.rho_marton * kl(laws, q)
    checks = tuple(Check.within_rounding("transport", "", a, b)
                   for a, b in zip(w2sq, bound))
    return checks if isinstance(p, GaussianStack) else checks[0]


def prop4_check(model: GibbsModel, report: CriteriaReport, z, u) -> tuple:
    """Evaluate the two-sided mean-shift inequality at points z, u.

    For Gaussian conditionals with shifted conditioning points, the
    conditional mean shift of block k is Delta_k = -(K_II)^-1 K_IJ
    (z - u)_J, giving lhs = sum rho_k |Delta_k|^2, mid = sum Delta_k'
    K_II Delta_k (twice the summed conditional divergences), and the
    interaction bound rhs = (1 - delta)^2 sum rho_k |(z - u)_k|^2.
    Returns the checks lhs <= mid (param w2_vs_kl) and mid <= rhs
    (param kl_vs_quadratic).  Rows z, u of (T, dim) arrays are checked in
    one pass and give one such pair per row.
    """
    if not model.is_gaussian:
        raise ValueError("closed-form check needs a Gaussian model")
    if report.delta <= 0:
        raise CertificateError("report carries no interaction margin")
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if z.shape != u.shape or z.ndim not in (1, 2) \
            or z.shape[-1] != model.dim:
        raise ValueError("points must have the model dimension")
    weight = np.asarray(report.rho_k)[model.partition.coordinate_block]
    diff = np.atleast_2d(z - u)
    shift = _matvec(memo_conditionals(model, model.partition)[1], diff)
    lhs = _dot(shift, weight * shift)
    diag_blocks = model.precision - model.cross
    mid = _dot(np.matmul(shift[:, None, :], diag_blocks)[:, 0], shift)
    rhs = (1.0 - report.delta) ** 2 * _dot(diff, weight * diff)
    pairs = tuple((Check.within_rounding("prop4", "w2_vs_kl", a, b),
                   Check.within_rounding("prop4", "kl_vs_quadratic", b, c))
                  for a, b, c in zip(lhs, mid, rhs))
    return pairs if z.ndim == 2 else pairs[0]
