"""Independent estimators used to cross-check the closed-form calculus.

Grid quadrature for divergence and Fisher information (dimensions 1 to
3), and closed-form checkers for the transport inequality (at a rho) and
the per-block mean-shift comparison (at rho_k and delta), which refuse
bad constants before any work, as gibbs.verify_theorem1 does.  The
quadrature takes its densities as callables, so a reference density
(scipy.stats in the tests) shares no code with the closed forms.  The
bisections on both certificate thresholds, which the tests hold the
certificates against, live with the tests (tests/reference.py) and read
no constant the certificates compute.
"""

from __future__ import annotations

import numpy as np

from .criteria import CertificateError, Check, _checked_rho, _checked_rho_k
from .gaussian import (GaussianStack, _dot, _matvec, gaussian_target, kl,
                       memo_conditionals, w2)
from .model import GibbsModel

MASS_DEFECT_LIMIT = 1e-4
_TINY = 1e-300


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


def transport_check(p, model: GibbsModel, rho: float):
    """Check W2(p, q)^2 <= (2/rho) D(p||q) at the constant rho.

    p is one law, or a GaussianStack whose laws are checked in one pass,
    one Check each.
    """
    rho = _checked_rho(rho)
    q = gaussian_target(model)
    laws = GaussianStack.of(p)
    w2sq = w2(laws, q) ** 2
    bound = 2.0 / rho * kl(laws, q)
    checks = tuple(Check.within_rounding("transport", "", a, b)
                   for a, b in zip(w2sq, bound))
    return checks if isinstance(p, GaussianStack) else checks[0]


def prop4_check(model: GibbsModel, rho_k, delta: float, z, u) -> tuple:
    """Evaluate the two-sided mean-shift inequality at points z, u.

    For Gaussian conditionals with shifted conditioning points, the
    conditional mean shift of block k is Delta_k = -(K_II)^-1 K_IJ
    (z - u)_J, giving lhs = sum rho_k |Delta_k|^2, mid = sum Delta_k'
    K_II Delta_k (twice the summed conditional divergences), and the
    interaction bound rhs = (1 - delta)^2 sum rho_k |(z - u)_k|^2.
    Returns the checks lhs <= mid (param w2_vs_kl) and mid <= rhs
    (param kl_vs_quadratic).  Rows z, u of (T, dim) arrays are checked in
    one pass and give one such pair per row.  delta = 1 - ||A0|| is in
    (0, 1]: CertificateError at most 0, ValueError above 1 or not finite.
    """
    if not model.is_gaussian:
        raise ValueError("closed-form check needs a Gaussian model")
    rho_k = _checked_rho_k(model, rho_k)
    if not (np.isfinite(delta) and delta <= 1):
        raise ValueError(f"delta must be finite and at most 1, got {delta!r}")
    if not delta > 0:
        raise CertificateError("delta <= 0")
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    if z.shape != u.shape or z.ndim not in (1, 2) \
            or z.shape[-1] != model.dim:
        raise ValueError("points must have the model dimension")
    weight = rho_k[model.partition.coordinate_block]
    diff = np.atleast_2d(z - u)
    shift = _matvec(memo_conditionals(model, model.partition)[1], diff)
    lhs = _dot(shift, weight * shift)
    diag_blocks = model.precision - model.cross
    mid = _dot(np.matmul(shift[:, None, :], diag_blocks)[:, 0], shift)
    rhs = (1.0 - delta) ** 2 * _dot(diff, weight * diff)
    pairs = tuple((Check.within_rounding("prop4", "w2_vs_kl", a, b),
                   Check.within_rounding("prop4", "kl_vs_quadratic", b, c))
                  for a, b, c in zip(lhs, mid, rhs))
    return pairs if z.ndim == 2 else pairs[0]
