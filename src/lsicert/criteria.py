"""Spectral certificates for block log-Sobolev constants.

Two sufficient criteria are implemented for a block Gibbs model with
per-block curvature constants rho_k:

* an interaction-matrix criterion (Marton): with A^rho the cross-block
  Hessian rescaled by 1/sqrt((rho_k - rho)(rho_l - rho)), the measure
  satisfies a log-Sobolev inequality with constant rho whenever
  sup ||A^rho|| <= 1;
* a block-matrix criterion (Otto-Reznikoff): the n x n matrix with
  diagonal rho_k and off-diagonal -kappa_kl (largest singular values of
  the cross blocks) minus rho * I stays positive semidefinite.

The quartic Hessian term is diagonal, so the cross-block Hessian is the
off-block part C of K at every point and both thresholds have closed
forms: with D0 = diag(rho_k(i)), ||A^rho|| <= 1 iff D0 +- C >= rho I, so
the certificates are least eigenvalues of D0 +- C and of
diag(rho_k) - kappa, rounded down by the eigensolver's error bound.  The
module also reports exact symbol extrema and finite-section spectra for
banded Toeplitz couplings.

Each certificate has one routine (solve_rho_marton, otto_reznikoff) and
criteria_report is built from both; the block constants they share are
computed once per model and kept on it (model.per_object).

Every extreme eigenvalue of a whole matrix here (the certificates, the
A0 diagnostics and the two Toeplitz sections) comes from
model.extreme_eigvalsh.  On the nearest-neighbour chains whose constants
must hold uniformly in the size m these matrices are banded, and a
narrow band of width b takes two O(m^2 b) banded solves in place of one
O(m^3) dense eigvalsh (the crossover is stated there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .model import (DENSE_BYTE_BUDGET, GibbsModel, extreme_eigvalsh,
                    per_object, toeplitz_matrix)


class CertificateError(Exception):
    """No certificate exists along the attempted route."""


# Slack of a closed-form comparison, for rounding only.
ROUNDING_SLACK = 1e-9


@dataclass(frozen=True)
class Check:
    """One verdict issued by a verifier: whether value <= bound holds,
    within a tolerance that is the verifier's own.  The fields are the
    columns of a `verify` table row (holds is its verdict)."""

    check: str
    param: str
    value: float
    bound: float
    tolerance: float
    holds: bool

    @classmethod
    def within_rounding(cls, check: str, param: str, value, bound) -> "Check":
        """The closed-form comparison value <= bound, up to ROUNDING_SLACK."""
        value, bound = float(value), float(bound)
        return cls(check, param, value, bound, ROUNDING_SLACK,
                   value <= bound + ROUNDING_SLACK)


@dataclass(frozen=True)
class CriteriaReport:
    """Certificates and diagnostics for one model.

    rho_marton / rho_or are None when the corresponding criterion yields
    no positive constant; certified is True exactly when rho_marton is
    present.
    """

    rho_k: tuple
    delta: float
    norm_A0: float
    rho_marton: float | None
    rho_or: float | None
    lambda_max_A0: float
    certified: bool
    flags: tuple

    def __post_init__(self):
        if abs(self.norm_A0 - (1.0 - self.delta)) > 1e-9:
            raise ValueError("delta must equal 1 - norm_A0")
        if self.rho_marton is not None:
            if self.rho_marton > min(self.rho_k) * (1 + 1e-12):
                raise ValueError("certified constant exceeds min block constant")


@per_object
def block_lsi_constants(model: GibbsModel) -> np.ndarray:
    """Per-block curvature constants: smallest eigenvalue of each diagonal
    precision block, read-only and computed once per model.

    For models with a quartic term this is still a valid lower bound on
    the conditional curvature, since the quartic Hessian contribution is
    diagonal and non-negative.  Blocks of one size are stacked and share
    one batched eigvalsh call.
    """
    out = np.empty(model.partition.n)
    for ks, idx in model.partition.size_groups:
        subs = model.precision[idx[:, :, None], idx[:, None, :]]
        out[ks] = np.linalg.eigvalsh(subs)[:, 0]
    out.flags.writeable = False
    return out


def _lambda_min_lower(mat: np.ndarray) -> float:
    """Least eigenvalue rounded down by the eigensolver's a-priori error
    bound n * eps * max(|lambda_min|, |lambda_max|), so rounding never
    inflates a certificate.  Both extremes come from
    model.extreme_eigvalsh: the banded solver on a narrow band, a dense
    eigvalsh otherwise."""
    lo, hi = extreme_eigvalsh(mat)
    return float(lo - len(mat) * np.finfo(float).eps * max(abs(lo), abs(hi)))


def _positive_block_constants(model: GibbsModel) -> np.ndarray:
    rho_k = block_lsi_constants(model)
    if rho_k.min() <= 0:
        raise CertificateError(
            "a diagonal precision block is not positive definite")
    return rho_k


def solve_rho_marton(model: GibbsModel) -> float:
    """Largest rho certified by the interaction-matrix criterion.

    With D0 = diag(rho_k(i)) and C the cross-block Hessian,
    ||A^rho|| <= 1 holds exactly when D0 - rho I +- C is positive
    semidefinite, so the certificate is min(lambda_min(D0 - C),
    lambda_min(D0 + C)).  That never exceeds min_k rho_k, the diagonal of
    both matrices, which is returned exactly when C = 0.  Raises
    CertificateError when the certificate is not positive.
    """
    rho_k = _positive_block_constants(model)
    rho_coord = rho_k[model.partition.coordinate_block]
    if not model.cross.any():
        return float(rho_coord.min())
    d0 = np.diag(rho_coord)
    rho = min(_lambda_min_lower(d0 - model.cross),
              _lambda_min_lower(d0 + model.cross))
    if rho <= 0:
        raise CertificateError(
            f"no certificate: lambda_min(D0 +- C) = {rho:.6g} <= 0")
    return rho


def cross_block_norms(model: GibbsModel) -> np.ndarray:
    """Symmetric matrix of largest singular values of the cross blocks.

    Only block pairs with a nonzero cross entry are evaluated; every
    other pair has kappa = 0 exactly.  The coupled pairs are grouped by
    block shape, each group's cross blocks are gathered into one
    (pairs, a, b) stack by a single fancy index, and one batched
    np.linalg.norm(stack, 2) call gives their norms: the same LAPACK SVD
    per matrix as np.linalg.norm(block, 2), so the same values.
    """
    part = model.partition
    owner = part.coordinate_block
    rows, cols = np.nonzero(model.precision)
    first, second = owner[rows], owner[cols]
    coupled = first < second  # K is symmetric, so each pair appears once
    pairs = np.unique(first[coupled] * part.n + second[coupled])
    ks, ls = np.divmod(pairs, part.n)
    sizes = np.asarray(part.sizes)
    shapes = np.stack([sizes[ks], sizes[ls]], axis=1)
    kappa = np.zeros((part.n, part.n))
    for shape in np.unique(shapes, axis=0):
        sel = np.all(shapes == shape, axis=1)
        row_idx = np.array([part.blocks[k] for k in ks[sel]])
        col_idx = np.array([part.blocks[k] for k in ls[sel]])
        stack = model.precision[row_idx[:, :, None], col_idx[:, None, :]]
        kappa[ks[sel], ls[sel]] = np.linalg.norm(stack, 2, axis=(1, 2))
    return kappa + kappa.T


def otto_reznikoff(model: GibbsModel) -> float:
    """Largest rho certified by the block-matrix criterion:
    lambda_min(diag(rho_k) - kappa), or min_k rho_k exactly when kappa = 0.

    Raises CertificateError when diag(rho_k) - kappa is not positive
    definite.
    """
    rho_k = _positive_block_constants(model)
    kappa = cross_block_norms(model)
    if not kappa.any():
        return float(rho_k.min())
    rho = _lambda_min_lower(np.diag(rho_k) - kappa)
    if rho <= 0:
        raise CertificateError(
            "block criterion infeasible at rho = 0: diag(rho_k) - kappa "
            "is not positive definite")
    return rho


def criteria_report(model: GibbsModel) -> CriteriaReport:
    """Evaluate both criteria and collect certificates plus diagnostics.

    The certificates come from solve_rho_marton and otto_reznikoff; they
    and A0 read block constants and a cross-block Hessian computed once
    per model.  A block that is not positive definite raises
    CertificateError before either criterion runs.
    """
    rho_k = _positive_block_constants(model)
    rho_min = float(rho_k.min())
    scale = 1.0 / np.sqrt(rho_k[model.partition.coordinate_block])
    lo_a0, hi_a0 = extreme_eigvalsh(
        scale[:, None] * model.cross * scale[None, :])
    norm0 = max(abs(lo_a0), abs(hi_a0))
    flags = []
    try:
        rho_marton = solve_rho_marton(model)
        if rho_marton >= rho_min * (1.0 - 1e-12):
            flags.append("rho_marton_supremum")
    except CertificateError:
        rho_marton = None
        flags.append("no_certificate")
    try:
        rho_or = otto_reznikoff(model)
        if rho_or >= rho_min * (1.0 - 1e-12):
            flags.append("rho_or_supremum")
    except CertificateError:
        rho_or = None
        flags.append("or_infeasible")

    return CriteriaReport(
        rho_k=tuple(float(r) for r in rho_k),
        delta=1.0 - norm0,
        norm_A0=norm0,
        rho_marton=rho_marton,
        rho_or=rho_or,
        lambda_max_A0=hi_a0,
        certified=rho_marton is not None,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class ToeplitzSpectrumReport:
    """Exact symbol extrema and finite-section spectra for a banded coupling.

    Reports the same quantities for the matrix itself and for its
    entrywise absolute value; note documents when the largest symbol
    value understates the operator norm.
    """

    m: int
    diag: float
    band: tuple
    max_symbol: float
    min_symbol: float
    sup_abs_symbol: float
    lambda_max_bm: float
    lambda_min_bm: float
    svd_norm_bm: float
    abs_max_symbol: float
    abs_min_symbol: float
    abs_sup_abs_symbol: float
    abs_lambda_max_bm: float
    abs_lambda_min_bm: float
    abs_svd_norm_bm: float
    note: str


def _symbol_extrema(diag: float, band: dict):
    """Exact (max, min, sup|.|) of f(theta) = diag + 2 sum_j b_j cos(j theta).

    With x = cos(theta), f is the Chebyshev series diag + sum_j 2 b_j T_j(x)
    on [-1, 1], so its extrema lie at x = +-1 or at a real root of f'.
    Every root is projected onto [-1, 1]; the projections are points of
    the domain, so they can only add admissible candidates.
    """
    coef = np.zeros(max(band, default=0) + 1)
    coef[0] = diag
    for off, coeff in band.items():
        coef[off] = 2.0 * coeff
    roots = chebyshev.chebroots(chebyshev.chebder(coef))
    cand = np.concatenate(([-1.0, 1.0], np.clip(roots.real, -1.0, 1.0)))
    sym = chebyshev.chebval(cand, coef)
    return float(sym.max()), float(sym.min()), float(np.abs(sym).max())


def toeplitz_spectrum_report(m: int, diag: float,
                             band: dict) -> ToeplitzSpectrumReport:
    """Exact symbol extrema and finite-section spectra.

    The symbol of diag*I + sum_j b_j (E_j + E_-j) is
    f(theta) = diag + 2 sum_j b_j cos(j theta); the finite sections have
    eigenvalues strictly inside (min f, max f) while their operator norms
    converge to sup |f|.
    """
    if m < 4:
        raise ValueError("finite sections below size 4 are not informative")
    # the section, its abs and either a dense eigvalsh's working copy or
    # extreme_eigvalsh's m x m boolean bandwidth mask: at most three m x m
    # float arrays at once, charged as four
    need = 4 * m * m * 8
    if need > DENSE_BYTE_BUDGET:
        raise ValueError(f"a {m}x{m} section needs {need} bytes of dense "
                         f"arrays, over the {DENSE_BYTE_BUDGET}-byte budget")
    band = {int(k): float(v) for k, v in band.items()}
    if not np.all(np.isfinite([diag, *band.values()])):
        raise ValueError("diag and band coefficients must be finite")
    mat = toeplitz_matrix(m, diag, band)  # rejects offsets outside 1..m-1

    abs_band = {k: abs(v) for k, v in band.items()}
    with np.errstate(all="ignore"):
        max_sym, min_sym, sup_abs = _symbol_extrema(diag, band)
        amax_sym, amin_sym, asup_abs = _symbol_extrema(abs(diag), abs_band)
    if not np.all(np.isfinite([max_sym, min_sym, amax_sym, amin_sym])):
        raise ValueError("the symbol overflows: coefficients too large")

    lo, hi = extreme_eigvalsh(mat)
    alo, ahi = extreme_eigvalsh(np.abs(mat))

    note = ""
    if sup_abs > max_sym + 1e-12:
        note = (
            f"sup|symbol| = {sup_abs:.6g} exceeds the largest symbol value "
            f"{max_sym:.6g}: the symbol attains {min_sym:.6g} < "
            f"-{max_sym:.6g}, so finite-section operator norms converge to "
            f"{sup_abs:.6g} while the largest eigenvalues converge to "
            f"{max_sym:.6g}. A coupling bound quoted as the largest symbol "
            f"value understates the operator norm."
        )

    return ToeplitzSpectrumReport(
        m=m, diag=float(diag), band=tuple(sorted(band.items())),
        max_symbol=max_sym, min_symbol=min_sym, sup_abs_symbol=sup_abs,
        lambda_max_bm=hi, lambda_min_bm=lo,
        svd_norm_bm=max(abs(lo), abs(hi)),
        abs_max_symbol=amax_sym, abs_min_symbol=amin_sym,
        abs_sup_abs_symbol=asup_abs,
        abs_lambda_max_bm=ahi, abs_lambda_min_bm=alo,
        abs_svd_norm_bm=max(abs(alo), abs(ahi)), note=note)
