"""Expected values for every benchmark op, computed without lsicert.

Each function here works from the numbers the benchmark wrote into a
model file (or passed on a command line) and uses numpy/scipy directly,
so agreement with lsicert's output is evidence that the output is right.
Only numbers are compared: flags, `certified` and output digests are
left alone, since a more exact certificate may legitimately change them.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.polynomial import chebyshev
from scipy.linalg import toeplitz

RHO_RTOL = 1e-8
# The seed's certificates come from bisection to an absolute 1e-10 (the
# CLI's default --tol), so a certificate near zero may miss RHO_RTOL alone.
RHO_ATOL = 1e-10
VALUE_ATOL = 1e-9


def strict_json(text: str):
    """Parse RFC 8259 JSON; NaN and Infinity raise ValueError."""
    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def toeplitz_dense(m: int, diag: float, band: dict) -> np.ndarray:
    col = np.zeros(m)
    col[0] = diag
    for off, coeff in band.items():
        col[int(off)] = coeff
    return toeplitz(col)


def criteria_expected(prec: np.ndarray, blocks) -> dict:
    """Block constants and both certificates by closed form.

    With D0 = diag(rho_k(i)) and C the off-block part of K, the
    interaction criterion holds at rho iff D0 +- C >= rho I, and the
    block criterion is lambda_min(diag rho_k - kappa) with kappa the
    largest singular values of the cross blocks.
    """
    prec = np.asarray(prec, dtype=float)
    n = prec.shape[0]
    owner = np.empty(n, dtype=int)
    cross = prec.copy()
    rho_k = []
    for k, blk in enumerate(blocks):
        idx = np.asarray(blk, dtype=int)
        owner[idx] = k
        rho_k.append(float(np.linalg.eigvalsh(prec[np.ix_(idx, idx)])[0]))
        cross[np.ix_(idx, idx)] = 0.0
    rho_k = np.asarray(rho_k)
    rho_min = float(rho_k.min())
    d0 = rho_k[owner]
    scale = 1.0 / np.sqrt(d0)
    a0_eigs = np.linalg.eigvalsh(scale[:, None] * cross * scale[None, :])
    norm_a0 = float(np.abs(a0_eigs).max())

    rho_marton = None
    if norm_a0 < 1.0:
        lo_minus = float(np.linalg.eigvalsh(np.diag(d0) - cross)[0])
        lo_plus = float(np.linalg.eigvalsh(np.diag(d0) + cross)[0])
        rho_marton = min(lo_minus, lo_plus, rho_min)

    nb = len(blocks)
    kappa = np.zeros((nb, nb))
    for k in range(nb):
        for ell in range(k + 1, nb):
            sub = cross[np.ix_(np.asarray(blocks[k]), np.asarray(blocks[ell]))]
            kappa[k, ell] = kappa[ell, k] = \
                float(np.linalg.svd(sub, compute_uv=False)[0])
    lo_block = float(np.linalg.eigvalsh(np.diag(rho_k) - kappa)[0])
    rho_or = min(lo_block, rho_min) if lo_block > 0 else None
    return {"rho_k": rho_k.tolist(), "delta": 1.0 - norm_a0,
            "lambda_max_A0": float(a0_eigs[-1]),
            "rho_marton": rho_marton, "rho_or": rho_or}


def _close(got, want, rtol=0.0, atol=VALUE_ATOL) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isfinite(got)
            and abs(got - want) <= atol + rtol * abs(want))


def check_criteria(rc: int, text: str, want: dict) -> list:
    """Problems with one `lsicert criteria` run; empty when it is right."""
    probs = []
    expect_rc = 0 if want["rho_marton"] is not None else 3
    if rc != expect_rc:
        probs.append(f"exit code {rc}, expected {expect_rc}")
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return probs + [f"output is not strict JSON: {exc}"]
    got_k = doc.get("rho_k")
    if not isinstance(got_k, list) or len(got_k) != len(want["rho_k"]) or \
            not all(_close(g, w, RHO_RTOL) for g, w in zip(got_k, want["rho_k"])):
        probs.append("rho_k differs from the block eigenvalues")
    if not _close(doc.get("delta"), want["delta"]):
        probs.append(f"delta {doc.get('delta')!r}, expected {want['delta']!r}")
    lam = doc.get("lambda_max_A0")
    if lam is not None and not _close(lam, want["lambda_max_A0"]):
        probs.append(f"lambda_max_A0 {lam!r}, expected {want['lambda_max_A0']!r}")
    for key in ("rho_marton", "rho_or"):
        got, exp = doc.get(key), want[key]
        if exp is None:
            if got is not None:
                probs.append(f"{key} {got!r}, expected no certificate")
        elif got is None or not _close(got, exp, RHO_RTOL, RHO_ATOL):
            probs.append(f"{key} {got!r}, expected {exp!r}")
    return probs


def symbol_extrema(diag: float, band: dict):
    """Exact (max, min, sup|.|) of f(t) = diag + 2 sum_j b_j cos(j t).

    With x = cos t, f is the Chebyshev series diag + sum_j 2 b_j T_j(x)
    on [-1, 1]; its extrema sit at the endpoints or at real roots of f'.
    """
    coef = np.zeros(max(int(k) for k in band) + 1)
    coef[0] = diag
    for off, b in band.items():
        coef[int(off)] = 2.0 * b
    roots = chebyshev.chebroots(chebyshev.chebder(coef))
    crit = [r.real for r in np.atleast_1d(roots)
            if abs(r.imag) < 1e-12 and -1.0 <= r.real <= 1.0]
    vals = chebyshev.chebval(np.array([-1.0, 1.0] + crit), coef)
    hi, lo = float(vals.max()), float(vals.min())
    return hi, lo, max(abs(hi), abs(lo))


def toeplitz_expected(m: int, diag: float, band: dict) -> dict:
    mat = toeplitz_dense(m, diag, band)
    out = {}
    for prefix, sign_mat, d, b in (
            ("", mat, diag, band),
            ("abs_", np.abs(mat), abs(diag), {k: abs(v) for k, v in band.items()})):
        ev = np.linalg.eigvalsh(sign_mat)
        hi, lo, sup = symbol_extrema(d, b)
        out.update({
            f"{prefix}max_symbol": hi, f"{prefix}min_symbol": lo,
            f"{prefix}sup_abs_symbol": sup,
            f"{prefix}lambda_max_bm": float(ev[-1]),
            f"{prefix}lambda_min_bm": float(ev[0]),
            f"{prefix}svd_norm_bm": float(np.abs(ev).max()),
        })
    return out


def check_toeplitz(rc: int, text: str, want: dict) -> list:
    probs = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return probs + [f"output is not strict JSON: {exc}"]
    for key, exp in want.items():
        scale = max(1.0, abs(exp))
        if not _close(doc.get(key), exp, atol=VALUE_ATOL * scale):
            probs.append(f"{key} {doc.get(key)!r}, expected {exp!r}")
    return probs


def check_verify(rc: int, text: str, rows: int) -> list:
    """Every row of a `lsicert verify` table passes; the count is right."""
    probs = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return probs + ["empty table"]
    header = lines[0].split(",")
    if "verdict" not in header:
        return probs + ["table has no verdict column"]
    col = header.index("verdict")
    body = [ln.split(",") for ln in lines[1:]]
    if len(body) != rows:
        probs.append(f"{len(body)} rows, expected {rows}")
    for cells in body:
        if len(cells) != len(header) or cells[col] != "pass":
            probs.append(f"row not passing: {','.join(cells)}")
            break
        try:
            finite = all(math.isfinite(float(c)) for c in cells[2:col] if c)
        except ValueError:
            finite = False
        if not finite:
            probs.append(f"bad number in row {','.join(cells)}")
            break
    return probs
