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

Each certificate has one routine (solve_rho_marton, otto_reznikoff), as
do the A0 diagnostics (a0_extremes), and criteria_report is built from
all three; the block constants they share are computed once per model
and kept on it (model.per_object).  `verify` calls only the routines
whose constants its suite checks.  The block-matrix criterion's kappa
reads a 1 x 1 cross block as |K_kl| and takes one batched SVD per shape
for every other block shape (cross_block_norms).

Every extreme eigenvalue of a whole matrix here (the certificates, the
A0 diagnostics and the two Toeplitz sections) comes from
model.extreme_eigvalsh.  On the nearest-neighbour chains whose constants
must hold uniformly in the size m these matrices are banded, and a
narrow band of width b takes two O(m^2 b) banded solves in place of one
O(m^3) dense eigvalsh (the crossover is stated there).  A chain spec's K
is kept in band storage (model.LowerBand), and on its singleton
partition every such matrix is formed on the band in O(m b) memory
(_chain_band), as are the Toeplitz sections (model.toeplitz_section).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .model import (GibbsModel, LowerBand, charge, extreme_eigvalsh,
                    per_chunk, per_object, toeplitz_band, toeplitz_section)


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


def _checked_rho(rho) -> float:
    """A verifier's rho as a float; ValueError unless finite and positive."""
    if rho is None or not 0 < rho < np.inf:
        raise ValueError(f"rho must be finite and positive, got {rho!r}")
    return float(rho)


def _checked_rho_k(model: GibbsModel, rho_k) -> np.ndarray:
    """A verifier's rho_k as an array; ValueError unless it holds one
    finite positive value per block."""
    rho_k = np.asarray(rho_k, dtype=float)
    if rho_k.shape != (model.partition.n,) \
            or not np.all((rho_k > 0) & (rho_k < np.inf)):
        raise ValueError(f"rho_k must be finite and positive, one per block,"
                         f" got {rho_k!r}")
    return rho_k


@dataclass(frozen=True)
class CriteriaReport:
    """Certificates and diagnostics for one model.

    rho_marton / rho_or are None when the corresponding criterion yields
    no positive constant.
    """

    rho_k: tuple
    norm_A0: float
    rho_marton: float | None
    rho_or: float | None
    lambda_max_A0: float
    flags: tuple

    @property
    def delta(self) -> float:
        """The interaction margin 1 - ||A0||."""
        return 1.0 - self.norm_A0

    @property
    def certified(self) -> bool:
        """Whether the interaction-matrix criterion gives a constant."""
        return self.rho_marton is not None

    def __post_init__(self):
        if self.rho_marton is not None:
            if self.rho_marton > min(self.rho_k) * (1 + 1e-12):
                raise ValueError("certified constant exceeds min block constant")


@per_object
def block_lsi_constants(model: GibbsModel) -> np.ndarray:
    """Per-block curvature constants: smallest eigenvalue of each diagonal
    precision block, read-only and computed once per model.

    For models with a quartic term this is still a valid lower bound on
    the conditional curvature, since the quartic Hessian contribution is
    diagonal and non-negative.  A 1 x 1 block's constant is its diagonal
    entry, the bits eigvalsh returns for it, read off the band on a band
    model; larger blocks of one size are stacked and share one batched
    eigvalsh call.
    """
    out = np.empty(model.partition.n)
    for ks, idx in model.partition.size_groups:
        if idx.shape[1] == 1:
            diagonal = np.diagonal(model.precision) if model.band is None \
                else model.band.rows[0]
            out[ks] = diagonal[idx[:, 0]]
            continue
        subs = model.precision[idx[:, :, None], idx[:, None, :]]
        out[ks] = np.linalg.eigvalsh(subs)[:, 0]
    out.flags.writeable = False
    return out


def _chain_band(model: GibbsModel) -> LowerBand | None:
    """K's LowerBand when the model keeps one and block k is coordinate k
    for every k, as on every chain document: then C is K off its diagonal,
    and D0 +- C, diag(rho_k) - kappa and A0 are formed on the band, each
    entry by the operations the dense route applies to it.  Else None, and
    they are formed from the dense K, which a band model with any other
    partition builds on demand."""
    if model.band is not None and model.partition.ordered_singletons:
        return model.band
    return None


def _on_band(diagonal: np.ndarray, below: np.ndarray) -> LowerBand:
    """The LowerBand with diagonal on row 0 and the rows below it."""
    return LowerBand(np.vstack([diagonal, below]))


def _lambda_min_lower(mat: np.ndarray) -> float:
    """Least eigenvalue rounded down by the eigensolver's a-priori error
    bound n * eps * max(|lambda_min|, |lambda_max|), so rounding never
    inflates a certificate.  Both extremes come from
    model.extreme_eigvalsh: the banded solver on a LowerBand or a narrow
    band, a dense eigvalsh otherwise."""
    lo, hi = extreme_eigvalsh(mat)
    return float(lo - mat.shape[0] * np.finfo(float).eps
                 * max(abs(lo), abs(hi)))


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
    CertificateError when the certificate is not positive, "delta <= 0"
    (||A0|| >= 1) once the blocks are positive definite.
    """
    rho_k = _positive_block_constants(model)
    rho_coord = rho_k[model.partition.coordinate_block]
    band = _chain_band(model)
    if band is not None and len(band.rows) > 1:
        # rho_i -+ 0 is rho_i on the diagonal; below it 0 -+ K_ij
        pair = [_on_band(rho_coord, op(0.0, band.rows[1:]))
                for op in (np.subtract, np.add)]
    elif band is None and model.cross.any():
        d0 = np.diag(rho_coord)
        pair = (d0 - model.cross, d0 + model.cross)
    else:  # C = 0
        return float(rho_coord.min())
    rho = min(map(_lambda_min_lower, pair))
    if rho <= 0:
        raise CertificateError("delta <= 0")
    return rho


def cross_block_norms(model: GibbsModel) -> np.ndarray:
    """Symmetric matrix of largest singular values of the cross blocks.

    A 1 x 1 cross block's norm is |K_kl|, the bits its LAPACK SVD gives,
    read without one.  Singleton blocks in coordinate order, as on every
    chain document, therefore give kappa = |K| with a zero diagonal, one
    m x m array in all.

    Every other partition, permuted singletons included, evaluates only
    block pairs with a nonzero cross entry; every other pair has
    kappa = 0 exactly.  Which pairs k < l are coupled is read once from
    K's nonzeros, one CHUNK_BYTES row block at a time, into an n x n
    boolean.  For each ordered pair of size groups of
    partition.size_groups the coupled pairs, k from the first group and
    l from the second, are gathered into one (pairs, a, b) stack of
    cross blocks K_kl, each in its own k < l orientation, and one
    batched np.linalg.svd(stack, compute_uv=False) call gives their
    largest singular values: the same LAPACK SVD per matrix as
    np.linalg.norm(block, 2), so the same values.  Blocks are not padded
    to a common shape: padding moves the singular values in the last
    bits.
    """
    part = model.partition
    if part.ordered_singletons:
        kappa = np.abs(model.precision)
        np.fill_diagonal(kappa, 0.0)
        return kappa
    owner = part.coordinate_block
    coupled = np.zeros((part.n, part.n), dtype=bool)
    step = per_chunk(8 * part.dim)
    for lo in range(0, part.dim, step):
        rows, cols = np.nonzero(model.precision[lo:lo + step])
        coupled[owner[rows + lo], owner[cols]] = True
    coupled = np.triu(coupled, 1)  # K is symmetric: the pairs k < l
    kappa = np.zeros((part.n, part.n))
    for ks, row_idx in part.size_groups:
        for ls, col_idx in part.size_groups:
            k, ell = np.nonzero(coupled[ks[:, None], ls])
            if not k.size:
                continue
            stack = model.precision[row_idx[k, :, None], col_idx[ell, None, :]]
            k, ell = ks[k], ls[ell]
            kappa[k, ell] = kappa[ell, k] = (
                np.abs(stack[:, 0, 0]) if stack.shape[1:] == (1, 1)
                else np.linalg.svd(stack, compute_uv=False)[:, 0])
    return kappa


def otto_reznikoff(model: GibbsModel) -> float:
    """Largest rho certified by the block-matrix criterion:
    lambda_min(diag(rho_k) - kappa), or min_k rho_k exactly when kappa = 0.

    Raises CertificateError when diag(rho_k) - kappa is not positive
    definite.
    """
    rho_k = _positive_block_constants(model)
    band = _chain_band(model)
    if band is not None:
        if len(band.rows) == 1:
            return float(rho_k.min())
        # kappa_kl = |K_kl|, below the diagonal
        mat = _on_band(rho_k, np.subtract(0.0, np.abs(band.rows[1:])))
    else:
        kappa = cross_block_norms(model)
        if not kappa.any():
            return float(rho_k.min())
        # diag(rho_k) - kappa in kappa's own buffer; subtracting from +0.0
        # gives the bits of the off-diagonal 0 - kappa (negation would give
        # -0.0 where kappa is 0)
        mat = np.subtract(0.0, kappa, out=kappa)
        np.fill_diagonal(mat, rho_k)
    rho = _lambda_min_lower(mat)
    if rho <= 0:
        raise CertificateError(
            "block criterion infeasible at rho = 0: diag(rho_k) - kappa "
            "is not positive definite")
    return rho


@per_object
def a0_extremes(model: GibbsModel) -> tuple:
    """(||A0||, lambda_max(A0)) of A0 = D0^-1/2 C D0^-1/2, the interaction
    matrix at rho = 0, once per model; prop4 reads delta = 1 - ||A0||."""
    scale = 1.0 / np.sqrt(_positive_block_constants(model)[
        model.partition.coordinate_block])
    band = _chain_band(model)
    if band is None:
        a0 = scale[:, None] * model.cross * scale[None, :]
    else:
        # (s_i K_ij) s_j below the diagonal, (s_i 0) s_i = 0 on it
        m = len(scale)
        below = np.zeros_like(band.rows[1:])
        for k, row in enumerate(band.rows[1:], start=1):
            below[k - 1, :m - k] = scale[k:] * row[:m - k] * scale[:m - k]
        a0 = _on_band(np.zeros(m), below)
    lo, hi = extreme_eigvalsh(a0)
    return max(abs(lo), abs(hi)), hi


def criteria_report(model: GibbsModel) -> CriteriaReport:
    """Evaluate both criteria and collect certificates plus diagnostics.

    The certificates come from solve_rho_marton and otto_reznikoff, the
    A0 diagnostics from a0_extremes; all read block constants computed
    once per model.  A block that is not positive definite raises
    CertificateError before either criterion runs.
    """
    rho_k = _positive_block_constants(model)
    rho_min = float(rho_k.min())
    norm0, hi_a0 = a0_extremes(model)
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
        norm_A0=norm0,
        rho_marton=rho_marton,
        rho_or=rho_or,
        lambda_max_A0=hi_a0,
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


def _section_spectrum(m: int, diag: float, band: dict) -> tuple:
    """(max, min, sup|.|) of the symbol of diag*I + sum_j b_j (E_j + E_-j)
    and (lambda_max, lambda_min, norm) of its m x m section, which is
    model.toeplitz_section's band storage when the banded solver takes it,
    else the one m x m float array it keeps.  The section is built first,
    so an offset outside 1..m-1 is refused before the symbol's Chebyshev
    companion matrix is."""
    mat = toeplitz_section(m, diag, band)
    with np.errstate(all="ignore"):
        max_sym, min_sym, sup_abs = _symbol_extrema(diag, band)
    if not np.all(np.isfinite([max_sym, min_sym])):
        raise ValueError("the symbol overflows: coefficients too large")
    lo, hi = extreme_eigvalsh(mat)
    return max_sym, min_sym, sup_abs, hi, lo, max(abs(lo), abs(hi))


def toeplitz_spectrum_report(m: int, diag: float,
                             band: dict) -> ToeplitzSpectrumReport:
    """Exact symbol extrema and finite-section spectra.

    The symbol of diag*I + sum_j b_j (E_j + E_-j) is
    f(theta) = diag + 2 sum_j b_j cos(j theta); the finite sections have
    eigenvalues strictly inside (min f, max f) while their operator norms
    converge to sup |f|.  _section_spectrum reports the band and then its
    entrywise absolute value, one section at a time.
    """
    if m < 4:
        raise ValueError("finite sections below size 4 are not informative")
    # one dense section and a dense eigvalsh's working copy; a section the
    # banded solver takes is built in band storage, O(m b)
    charge(f"a {m}x{m} section", 2 * m * m * 8)
    band = toeplitz_band(band)
    if not np.all(np.isfinite([diag, *band.values()])):
        raise ValueError("diag and band coefficients must be finite")
    plain = _section_spectrum(m, diag, band)
    absolute = _section_spectrum(m, abs(diag),
                                 {k: abs(v) for k, v in band.items()})
    max_sym, min_sym, sup_abs = plain[:3]

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

    return ToeplitzSpectrumReport(m, float(diag), tuple(sorted(band.items())),
                                  *plain, *absolute, note)
