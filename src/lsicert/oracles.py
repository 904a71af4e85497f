"""Closed-form checkers for the transport inequality and the per-block
mean-shift comparison.

transport_check takes a rho and prop4_check the block constants rho_k
and the margin delta; both refuse bad constants before any work, as
gibbs.verify_theorem1 does.  The independent estimators that the tests
hold the closed forms against (grid quadrature of divergence and Fisher
information, Gaussian Fisher information, the dense block update and
its entropy drop, bisections on both certificate thresholds) live with
the tests, in tests/reference.py.
"""

from __future__ import annotations

import numpy as np

from .criteria import CertificateError, Check, _checked_rho, _checked_rho_k
from .gaussian import (GaussianStack, _dot, _matvec, gaussian_target, kl,
                       memo_conditionals, w2)
from .model import GibbsModel


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
