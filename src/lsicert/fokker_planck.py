"""Entropy flow of the overdamped Langevin diffusion toward the target.

For Gaussian models the flow moves a law's deviation from the target q =
N(m, K^-1), from gaussian_target, as a block Gibbs update does: with
E_t = exp(-K t), N(m + y, K^-1 + Delta) goes to N(m + E_t y, K^-1 +
E_t Delta E_t), so divergence and Fisher information are exact.  Both
split into a mean part, O(d) per time node, and a covariance part that
depends only on Delta.  When Delta = 0 exactly, the trace is its mean
part alone, O(T d) for T nodes; this is the case of `lsicert verify
dissipation`, which starts at N(m + 1, K^-1).  Otherwise a trace takes
one Cholesky C_t = L_t L_t' per time node and one triangular inverse of
it (LAPACK dtrtri, by gaussian.tril_inverse), in chunks of nodes:
log det C_t = 2 sum log diag L_t, and the Fisher covariance term
tr((K - C_t^-1) C_t (K - C_t^-1)) = ||L_t' K - L_t^-1||_F^2 because
L_t' C_t^-1 = L_t^-1.  The module also checks the de Bruijn dissipation
identity dD/dt = -I on grids and exponential entropy decay under a
certified constant, anchored at the grid's first node, and runs an
Euler-Maruyama particle simulator that covers quartic models as well.
The simulator updates the particles in place, block of rows by block of
rows, and draws each block's noise into one block-sized buffer just
before adding it; the blocks are taken in row order, so the stream gives
every particle the normals of one whole-step draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .criteria import Check, _checked_rho
from .gaussian import (GaussianDist, _check_same_dim, gaussian_target,
                       tril_inverse)
from .model import (GibbsModel, _is_integer, charge, extreme_eigvalsh,
                    grad_potential, per_object)

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

    The flow moves the deviation from the target q = N(m, K^-1): with
    E = exp(-K t), N(m + y, K^-1 + Delta) goes to N(m + E y, K^-1 +
    E Delta E), so q itself is returned bit for bit.
    """
    q = gaussian_target(model)
    _check_same_dim(p0, q)
    if t < 0:
        raise ValueError("time must be non-negative")
    if t == 0:
        return p0
    w, vecs = _precision_eigh(model)
    expm = (vecs * np.exp(-w * t)) @ vecs.T
    pushed = expm @ (p0.cov - q.cov) @ expm
    return GaussianDist(q.mean + expm @ (p0.mean - q.mean),
                        q.cov + 0.5 * (pushed + pushed.T))


@dataclass(frozen=True, eq=False)
class EntropyTrace:
    """Divergence and Fisher information along the flow on a time grid.

    lsi_bound carries exp(-2 rho t) D(p0||q) when entropy_trace is given
    a decay rate rho, else None.
    """

    times: np.ndarray
    kl_values: np.ndarray
    fisher_values: np.ndarray
    lsi_bound: np.ndarray | None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        kls = np.asarray(self.kl_values, dtype=float)
        fis = np.asarray(self.fisher_values, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("trace needs at least two grid nodes")
        if kls.shape != times.shape or fis.shape != times.shape:
            raise ValueError("trace arrays must share the grid shape")
        if not all(np.all(np.isfinite(arr)) for arr in (times, kls, fis)):
            raise ValueError("grid times, divergence and Fisher values "
                             "must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("grid times must be strictly increasing")
        if np.any(kls < 0):
            raise ValueError("divergence values must be non-negative")
        if np.any(fis < 0):
            raise ValueError("Fisher information values must be non-negative")
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
            if not np.all(np.isfinite(bound)):
                raise ValueError("bound values must be finite")
            bound.flags.writeable = False
            object.__setattr__(self, "lsi_bound", bound)


def _trace_arrays(p0: GaussianDist, q: GaussianDist, model: GibbsModel,
                  times: np.ndarray):
    """Vectorized divergence/Fisher arrays along the flow.

    Works in the eigenbasis of K, where the evolution acts diagonally;
    both information functionals are invariant under the rotation, and
    K becomes W = diag(w).  Each splits exactly into a mean part (quad
    for 2 D, term_mean for I) and a covariance part that depends only on
    S = V' Delta V, Delta = cov_0 - K^-1 the deviation from the target's
    covariance, and is second order in S.  When Delta = 0 exactly, as
    from a start with the target's covariance, the covariance part is 0
    and the trace is the mean part alone, O(T d).  Otherwise each
    evolved covariance C_t = L_t L_t' is factored once: log det C_t =
    2 sum log diag L_t, and since L_t' C_t^-1 = L_t^-1 the Fisher
    covariance term tr((W - C_t^-1) C_t (W - C_t^-1)) is
    ||L_t' W - L_t^-1||_F^2.  The grid is taken in chunks of
    _TRACE_CHUNK_BYTES of covariances, so memory is O(chunk d^2 + T d)
    for T nodes.
    """
    w, vecs = _precision_eigh(model)
    d = model.dim
    mu0 = vecs.T @ (p0.mean - q.mean)
    decay = np.exp(-np.outer(times, w))
    means = decay * mu0
    quad = np.einsum('ti,i,ti->t', means, w, means)
    term_mean = np.einsum('ti,i,i,ti->t', means, w, w, means)
    delta = p0.cov - q.cov
    if not delta.any():
        return np.maximum(0.5 * quad, 0.0), np.maximum(term_mean, 0.0)

    shifted = vecs.T @ delta @ vecs
    logdet_q = -float(np.sum(np.log(w)))
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
    """Evaluate the flow on a grid; attach the decay bound when rho given.

    The grid must be one-dimensional with at least two nodes, each
    finite and non-negative, p0 must have the model's dimension and a
    given rho must be finite and positive (ValueError before any work).
    A node is charged 2 d + 16 floats (tracemalloc reads 2 d + 6 on the
    mean-only trace, 2 d + 12 with a covariance part, at d = 1 to 32).
    The bound exp(-2 rho (t - t_0)) D(p_t0||q) is anchored at the grid's
    first node t_0, where the trace's first divergence is read.
    """
    q = gaussian_target(model)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise ValueError("trace needs at least two grid nodes")
    charge(f"a trace of {times.size} nodes in dimension {model.dim}",
           8 * (2 * model.dim + 16) * times.size)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("grid times must be finite and non-negative")
    _check_same_dim(p0, q)
    rho = None if rho is None else _checked_rho(rho)
    kls, fis = _trace_arrays(p0, q, model, times)
    bound = None if rho is None \
        else np.exp(-2.0 * rho * (times - times[0])) * kls[0]
    return EntropyTrace(times=times, kl_values=kls, fisher_values=fis,
                        lsi_bound=bound)


def _interior_slopes(t: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """d vals/dt at the interior nodes of the grid t: the derivative at
    each of the quartic through the five nodes around it (through all
    nodes of a shorter grid), the window kept inside the grid.  The
    weights are the derivatives there of the Lagrange basis on the node
    offsets o_k, L_j'(0) = (-1)^w sum_l prod_{k != j, l} o_k /
    prod_{k != j} (o_j - o_k) for a window of w nodes, so uneven grids
    keep fourth order.  Built one window column at a time: O(n) memory."""
    n = len(t)
    w = min(5, n)
    mid = np.arange(1, n - 1)
    first = np.clip(mid - 2, 0, n - w)
    offs = [t[first + j] - t[mid] for j in range(w)]
    slopes = np.zeros(len(mid))
    for j in range(w):
        rest = offs[:j] + offs[j + 1:]
        tips = sum(prod(rest[:l] + rest[l + 1:]) for l in range(w - 1))
        spans = prod(offs[j] - o for o in rest)
        slopes += (-1) ** w * tips / spans * vals[first + j]
    return slopes


def dissipation_check(p0: GaussianDist, model: GibbsModel, times,
                      rho: float | None = None) -> tuple:
    """(trace, checks): one entropy trace and the checks read from it.

    max_residual compares dD/dt with -I at interior nodes, with
    tolerance (and bound) 1e-5 (1 + max I); it fails on grids coarser
    than 0.1, which are not trusted.  dD/dt is the derivative of the
    quartic through the five nodes around each node (_interior_slopes):
    its O(h^4) error stays far below the tolerance on the CLI's grid
    (spacing 0.001), where a centered difference's O(h^2) error, third
    derivative of D times h^2 / 6, could exceed it.
    integral_identity_rel_err is |D0 - D_T - int I| / max(D0, 1e-12)
    with a trapezoid integral, bounded by INTEGRAL_REL_TOL.  With rho,
    exp_decay_max_excess is max(D_t - exp(-2 rho t) D0 (1 + DECAY_SLACK)),
    against 0 within DECAY_ATOL.
    """
    trace = entropy_trace(p0, model, times, rho=rho)
    t = trace.times
    dvals = trace.kl_values
    residuals = np.abs(_interior_slopes(t, dvals)
                       + trace.fisher_values[1:-1])
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
    and integer counts and checkpoints, the latter in [0, steps].  Steps
    update the particles in place, one block of rows at a time: the
    block's drift, then its noise, drawn into one reused block-sized
    buffer (a working set of about 2 n d floats, the particles and a
    checkpoint's centered copy; 2.5 n d floats and steps n d operations
    are charged).  The blocks are taken in row order, so
    the stream and the particles are those of one draw per step.  At
    each checkpoint step the empirical moments are recorded; for Gaussian
    models they are compared against the closed-form moments within
    tolerance bands of five times the Monte Carlo plus discretization
    scale.
    """
    if not (_is_integer(n) and n >= 1_000):
        raise ValueError("need an integer count of at least 1000 particles")
    if not (_is_integer(steps) and steps >= 1):
        raise ValueError("need an integer count of at least one step")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("step size must be positive and finite")
    _check_same_dim(p0, model)
    charge(f"a cloud of {n} particles in dimension {model.dim} over "
           f"{steps} steps", 20 * int(n) * model.dim,
           int(steps) * int(n) * model.dim)  # Python ints: no wraparound
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
    noise = np.empty((min(rows, n), model.dim))
    for step in range(1, steps + 1):
        for lo in range(0, n, rows):
            xs = x[lo:lo + rows]
            grad = grad_potential(model, xs)
            grad *= dt  # in place, in the order of x - grad dt + root noise
            xs -= grad
            buf = noise[:len(xs)]
            rng.standard_normal(out=buf)
            buf *= root
            xs += buf
        if step in marks:
            recorded.append(_checkpoint(model, p0, x, step, step * dt,
                                        lam, dt, n))
    return LangevinResult(particles=x, checkpoints=tuple(recorded),
                          dt=float(dt), steps=int(steps), seed=int(seed))


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
