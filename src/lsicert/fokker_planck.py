"""Entropy flow of the overdamped Langevin diffusion toward the target.

For Gaussian models the time-t law of the diffusion started at a Gaussian
is Gaussian with closed-form moments, so divergence and Fisher
information along the flow are exact.  A trace takes one Cholesky
C_t = L_t L_t' per time node and one triangular inverse of it, in chunks
of nodes: log det C_t = 2 sum log diag L_t, and the Fisher covariance
term tr((K - C_t^-1) C_t (K - C_t^-1)) = ||L_t' K - L_t^-1||_F^2 because
L_t' C_t^-1 = L_t^-1.  The module also checks the de
Bruijn dissipation identity dD/dt = -I on grids, exponential entropy
decay under a certified constant, and runs an Euler-Maruyama particle
simulator that covers quartic models as well.  The simulator draws its
noise on one worker thread, in stream order: while the calling thread
takes the gradient of one block of rows and updates it, the worker fills
the noise of the blocks after it.  The worker calls only numpy, and it
is stopped before the simulator returns.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .criteria import Check
from .gaussian import GaussianDist, tril_inverse
from .model import (GibbsModel, _is_integer, extreme_eigvalsh, grad_potential,
                    per_object)

DISSIPATION_REL_TOL = 1e-5
INTEGRAL_REL_TOL = 1e-4
DECAY_SLACK = 1e-9
DECAY_ATOL = 1e-12
COARSE_SPACING = 0.1
_STABILITY_FRACTION = 0.1
# Size of one chunk of evolved covariances in _trace_arrays.
_TRACE_CHUNK_BYTES = 1 << 20
# Size of one block of particle rows in langevin_particles: its step
# temporaries stay in cache and come from the allocator's free lists.
_PARTICLE_CHUNK_BYTES = 256 << 10
# Blocks of noise in flight on the worker: the caller holds one while it
# updates, so a ring of three keeps two draws queued and the worker busy.
_NOISE_RING = 3


class StepSizeError(ValueError):
    """Euler-Maruyama step too large for the curvature bound."""


@per_object
def _precision_eigh(model: GibbsModel):
    w, vecs = np.linalg.eigh(model.precision)
    w.flags.writeable = False
    vecs.flags.writeable = False
    return w, vecs


def gaussian_fp_evolve(p0: GaussianDist, model: GibbsModel,
                       t: float) -> GaussianDist:
    """Law of the diffusion at time t for a Gaussian model.

    With K = U diag(w) U' and E = exp(-K t), the moments are
    mean_t = m + E (mean_0 - m) and cov_t = E (cov_0 - K^-1) E + K^-1.
    """
    if not model.is_gaussian:
        raise ValueError("closed-form evolution needs a Gaussian model")
    if p0.dim != model.dim:
        raise ValueError("initial law dimension does not match model")
    if t < 0:
        raise ValueError("time must be non-negative")
    if t == 0:
        return p0
    w, vecs = _precision_eigh(model)
    decay = np.exp(-w * t)
    expm = (vecs * decay) @ vecs.T
    kinv = (vecs / w) @ vecs.T
    mean = model.mean + expm @ (p0.mean - model.mean)
    cov = expm @ (p0.cov - kinv) @ expm + kinv
    return GaussianDist(mean, 0.5 * (cov + cov.T))


@dataclass(frozen=True, eq=False)
class EntropyTrace:
    """Divergence and Fisher information along the flow on a time grid.

    lsi_bound carries exp(-2 rho t) D(p0||q) when a decay rate rho is
    attached, else None.
    """

    times: np.ndarray
    kl_values: np.ndarray
    fisher_values: np.ndarray
    lsi_bound: np.ndarray | None
    rho: float | None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        kls = np.asarray(self.kl_values, dtype=float)
        fis = np.asarray(self.fisher_values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("trace needs at least two grid nodes")
        if kls.shape != times.shape or fis.shape != times.shape:
            raise ValueError("trace arrays must share the grid shape")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be strictly increasing")
        if np.any(kls < 0):
            raise ValueError("divergence values must be non-negative")
        rises = np.diff(kls) - 1e-9 * (1.0 + kls[:-1])
        if np.any(rises > 0):
            raise ValueError("divergence must be non-increasing along the flow")
        for arr in (times, kls, fis):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "kl_values", kls)
        object.__setattr__(self, "fisher_values", fis)
        if self.lsi_bound is not None:
            bound = np.asarray(self.lsi_bound, dtype=float)
            if bound.shape != times.shape:
                raise ValueError("bound array must share the grid shape")
            bound.flags.writeable = False
            object.__setattr__(self, "lsi_bound", bound)


def _trace_arrays(p0: GaussianDist, model: GibbsModel, times: np.ndarray):
    """Vectorized divergence/Fisher arrays along the flow.

    Works in the eigenbasis of K, where the evolution acts diagonally;
    both information functionals are invariant under the rotation, and
    K becomes W = diag(w).  Each evolved covariance C_t = L_t L_t' is
    factored once: log det C_t = 2 sum log diag L_t, and since
    L_t' C_t^-1 = L_t^-1 the Fisher covariance term
    tr((W - C_t^-1) C_t (W - C_t^-1)) is ||L_t' W - L_t^-1||_F^2.
    The grid is taken in chunks of _TRACE_CHUNK_BYTES of covariances,
    so memory is O(chunk d^2 + T d) for T nodes.
    """
    w, vecs = _precision_eigh(model)
    d = model.dim
    mu0 = vecs.T @ (p0.mean - model.mean)
    shifted = vecs.T @ p0.cov @ vecs - np.diag(1.0 / w)
    logdet_q = -float(np.sum(np.log(w)))

    decay = np.exp(-np.outer(times, w))
    means = decay * mu0
    quad = np.einsum('ti,i,ti->t', means, w, means)
    term_mean = np.einsum('ti,i,i,ti->t', means, w, w, means)
    traces, logdets, fis = (np.empty(times.size) for _ in range(3))
    diag = np.arange(d)
    step = max(1, _TRACE_CHUNK_BYTES // (8 * d * d))
    for lo in range(0, times.size, step):
        dec = decay[lo:lo + step]
        covs = dec[:, :, None] * dec[:, None, :]
        covs *= shifted
        covs[:, diag, diag] += 1.0 / w
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            raise ValueError("evolved covariance lost positive definiteness")
        traces[lo:lo + step] = covs[:, diag, diag] @ w
        logdets[lo:lo + step] = 2.0 * np.sum(np.log(chol[:, diag, diag]), 1)
        np.multiply(np.swapaxes(chol, 1, 2), w, out=covs)  # L' W
        covs -= tril_inverse(chol)
        fis[lo:lo + step] = np.einsum('tij,tij->t', covs, covs)
    kls = 0.5 * (traces - d + quad + logdet_q - logdets)
    return np.maximum(kls, 0.0), np.maximum(fis + term_mean, 0.0)


def entropy_trace(p0: GaussianDist, model: GibbsModel, times,
                  rho: float | None = None) -> EntropyTrace:
    """Evaluate the flow on a grid; attach the decay bound when rho given."""
    if not model.is_gaussian:
        raise ValueError("closed-form traces need a Gaussian model")
    times = np.asarray(times, dtype=float)
    kls, fis = _trace_arrays(p0, model, times)
    bound = None
    if rho is not None:
        bound = np.exp(-2.0 * float(rho) * times) * kls[0]
    return EntropyTrace(times=times, kl_values=kls, fisher_values=fis,
                        lsi_bound=bound, rho=rho)


def dissipation_check(p0: GaussianDist, model: GibbsModel, times,
                      rho: float | None = None) -> tuple:
    """(trace, checks): one entropy trace and the checks read from it.

    max_residual compares centered time differences of D against -I at
    interior nodes, with tolerance (and bound) 1e-5 (1 + max I); it
    fails on grids coarser than 0.1, which are not trusted.
    integral_identity_rel_err is |D0 - D_T - int I| / max(D0, 1e-12)
    with a trapezoid integral, bounded by INTEGRAL_REL_TOL.  With rho,
    exp_decay_max_excess is max(D_t - exp(-2 rho t) D0 (1 + DECAY_SLACK)),
    against 0 within DECAY_ATOL.
    """
    trace = entropy_trace(p0, model, times, rho=rho)
    t = trace.times
    dvals = trace.kl_values
    slopes = (dvals[2:] - dvals[:-2]) / (t[2:] - t[:-2])
    residuals = np.abs(slopes + trace.fisher_values[1:-1])
    max_res = float(residuals.max()) if residuals.size else 0.0
    tol = DISSIPATION_REL_TOL * (1.0 + float(trace.fisher_values.max()))
    coarse = bool(np.diff(t).max() > COARSE_SPACING)
    integral = float(np.trapezoid(trace.fisher_values, t))
    rel_err = float(abs(dvals[0] - dvals[-1] - integral)
                    / max(dvals[0], 1e-12))
    checks = [
        Check("dissipation", "max_residual", max_res, tol, tol,
              bool(max_res <= tol and not coarse)),
        Check("dissipation", "integral_identity_rel_err", rel_err,
              INTEGRAL_REL_TOL, INTEGRAL_REL_TOL,
              bool(rel_err <= INTEGRAL_REL_TOL)),
    ]
    if rho is not None:
        excess = float(np.max(dvals - trace.lsi_bound * (1.0 + DECAY_SLACK)))
        checks.append(Check("dissipation", "exp_decay_max_excess", excess,
                            0.0, DECAY_ATOL, bool(excess <= DECAY_ATOL)))
    return trace, tuple(checks)


def curvature_bound(model: GibbsModel, p0: GaussianDist) -> float:
    """Conservative bound on the potential Hessian over the sampled region.

    Gaussian part is lam_max(K); the quartic part is evaluated at a radius
    covering the initial law (mean plus six standard deviations) and the
    model location.  Heuristic for quartic models, exact for Gaussian.
    """
    lam_gauss = extreme_eigvalsh(model.precision)[1]
    if model.is_gaussian:
        return lam_gauss
    radius = (np.abs(p0.mean) + np.abs(model.mean)
              + 6.0 * np.sqrt(np.diag(p0.cov)) + 1.0)
    quart = float(np.max(12.0 * model.quartic * radius ** 2))
    return max(lam_gauss, 0.0) + quart


@dataclass(frozen=True, eq=False)
class LangevinCheckpoint:
    """Empirical moments at one step, with closed-form references and
    5 (MC + discretization) tolerance bands when the model is Gaussian."""

    step: int
    t: float
    emp_mean: np.ndarray
    emp_cov: np.ndarray
    closed_mean: np.ndarray | None
    closed_cov: np.ndarray | None
    mean_band: np.ndarray | None
    cov_band: np.ndarray | None
    within_bands: bool | None


@dataclass(frozen=True, eq=False)
class LangevinResult:
    particles: np.ndarray
    checkpoints: tuple
    dt: float
    steps: int
    seed: int


def langevin_particles(model: GibbsModel, p0: GaussianDist, dt: float,
                       steps: int, n: int, seed: int,
                       checkpoints=None) -> LangevinResult:
    """Euler-Maruyama particles X <- X - grad V dt + sqrt(2 dt) xi.

    Requires a finite dt below a tenth of the inverse curvature bound,
    and integer counts and checkpoints, the latter in [0, steps].  Steps update the particles
    in place, one block of rows at a time.  The noise is drawn on one
    worker thread, in stream order, up to _NOISE_RING blocks ahead of
    the update: the stream and the particles are those of one draw per
    step.  A failed draw raises here, and the worker is stopped before
    the call returns or raises.  At each checkpoint step the empirical
    moments are recorded; for Gaussian models they are compared against
    the closed-form moments within tolerance bands of five times the
    Monte Carlo plus discretization scale.
    """
    if not (_is_integer(n) and n >= 1_000):
        raise ValueError("need an integer count of at least 1000 particles")
    if not (_is_integer(steps) and steps >= 1):
        raise ValueError("need an integer count of at least one step")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("step size must be positive and finite")
    if p0.dim != model.dim:
        raise ValueError("initial law dimension does not match model")
    lam = curvature_bound(model, p0)
    if lam > 0 and dt > _STABILITY_FRACTION / lam:
        raise StepSizeError(
            f"dt = {dt} exceeds {_STABILITY_FRACTION}/{lam:.6g}, the "
            "stability fraction of the curvature bound")
    marks = list(checkpoints) if checkpoints is not None else [steps]
    if not all(_is_integer(c) for c in marks):
        raise ValueError("checkpoints must be integers")
    marks = sorted({int(c) for c in marks})
    if marks and (marks[0] < 0 or marks[-1] > steps):
        raise ValueError("checkpoints must lie in [0, steps]")

    rng = np.random.default_rng(seed)
    x = p0.sample(rng, n)
    recorded = []
    if 0 in marks:
        recorded.append(_checkpoint(model, p0, x, 0, 0.0, lam, dt, n))
    root = np.sqrt(2.0 * dt)
    rows = max(1, _PARTICLE_CHUNK_BYTES // (8 * model.dim))
    blocks = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    # rows of each draw, in stream order
    sizes = (hi - lo for _ in range(steps) for lo, hi in blocks)
    ring = [np.empty((min(rows, n), model.dim)) for _ in range(_NOISE_RING)]
    pending = deque()  # (future, ring slot), one per draw in flight
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="noise")
    try:
        for buf, k in zip(ring, sizes):
            pending.append((pool.submit(_scaled_normals, rng, buf[:k], root),
                            buf))
        for step in range(1, steps + 1):
            for lo, hi in blocks:
                xs = x[lo:hi]
                grad = grad_potential(model, xs)
                grad *= dt  # in place, in the order of x - grad dt + root noise
                xs -= grad
                future, buf = pending.popleft()
                xs += future.result()
                k = next(sizes, 0)
                if k:
                    pending.append((pool.submit(_scaled_normals, rng,
                                                buf[:k], root), buf))
            if step in marks:
                recorded.append(_checkpoint(model, p0, x, step, step * dt,
                                            lam, dt, n))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return LangevinResult(particles=x, checkpoints=tuple(recorded),
                          dt=float(dt), steps=int(steps), seed=int(seed))


def _scaled_normals(rng: np.random.Generator, buf: np.ndarray,
                    root: float) -> np.ndarray:
    """Fill buf with root * N(0, 1) draws; runs on the noise worker, so it
    calls nothing but numpy."""
    rng.standard_normal(out=buf)
    buf *= root
    return buf


def _checkpoint(model, p0, x, step, t, lam, dt, n) -> LangevinCheckpoint:
    emp_mean = x.mean(axis=0)
    emp_cov = np.cov(x, rowvar=False).reshape(model.dim, model.dim)
    if not model.is_gaussian:
        return LangevinCheckpoint(step=step, t=t, emp_mean=emp_mean,
                                  emp_cov=emp_cov, closed_mean=None,
                                  closed_cov=None, mean_band=None,
                                  cov_band=None, within_bands=None)
    ref = gaussian_fp_evolve(p0, model, t)
    diag = np.diag(ref.cov)
    se_mean = np.sqrt(diag / n)
    disc_mean = lam ** 2 * dt * t * float(np.abs(p0.mean - model.mean).max())
    mean_band = 5.0 * (se_mean + disc_mean)
    se_cov = np.sqrt((np.outer(diag, diag) + ref.cov ** 2) / n)
    disc_cov = lam * dt * (float(diag.max()) + float(np.diag(p0.cov).max()))
    cov_band = 5.0 * (se_cov + disc_cov)
    within = bool(np.all(np.abs(emp_mean - ref.mean) <= mean_band)
                  and np.all(np.abs(emp_cov - ref.cov) <= cov_band))
    return LangevinCheckpoint(step=step, t=t, emp_mean=emp_mean,
                              emp_cov=emp_cov, closed_mean=ref.mean,
                              closed_cov=ref.cov, mean_band=mean_band,
                              cov_band=cov_band, within_bands=within)
