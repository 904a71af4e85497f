"""Block Gibbs resampling as an exact operator on Gaussian mixtures.

Resampling one block from its conditional maps a Gaussian law to a
Gaussian law through an affine update, so the weighted block sampler maps
finite Gaussian mixtures to finite Gaussian mixtures exactly.  This gives
closed-form entropy drops per block and Monte Carlo estimates of the
mixture-to-target divergence along the sampler trajectory.

A block update is idempotent (Gamma_k Gamma_k = Gamma_k), so each mixture
component carries its collapsed block word: the index of the component it
started from, then the blocks applied to it with repeats collapsed.
Components with equal words are the same law and are merged by summing
their weights, which keeps the mixture exact at n sum_{j<m} (n-1)^j
components after m sweeps of an n-block sampler instead of n^m.

Mixture densities take the Gram form: each weighted component log
density is a row of coefficients times phi(y) = [y_i y_j (i <= j), y, 1],
y = x - centre, one product per chunk of points.  This rounds to about
eps ||P_c|| (|y| + |mean_c - centre|)^2 for precision P_c, so components
share a centre while ||P_c||_F |mean_c - centre|^2 <= _CENTRE_SPREAD.
The Monte Carlo divergence adds the target as one more row.

A mixture holds its weights, its words and one GaussianStack of
component laws, which checks every covariance and holds the batched
Cholesky factors and log determinants: a sweep pushes the components of
each block in one batch and stacks the image once, and the Gram form
reads the stack as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .criteria import CertificateError, Check, CriteriaReport
from .gaussian import (_LOG_2PI, GaussianDist, GaussianStack, _dot,
                       avg_conditional_kl, gaussian_target, kl,
                       memo_conditionals, tril_inverse)
from .model import GibbsModel, per_object

DEFAULT_COMPONENT_CAP = 100_000
# Largest storage a swept mixture may take; checked before any component
# is built.
MIXTURE_BYTE_BUDGET = 1 << 30
# Size of the larger of the (components x features) and (features x rows)
# working blocks of one row chunk of the Gram-form mixture density.
_LOGPDF_CHUNK_BYTES = 1 << 20
# Bounds the rounding of the Gram form (see the module docstring).
_CENTRE_SPREAD = 64.0
MIN_MC_SAMPLES = 1_000


class MixtureCapError(RuntimeError):
    """Exact mixture tracking would exceed the component cap or the
    byte budget."""


def _component_bytes(dim: int) -> int:
    """Upper bound on the peak bytes per component of the larger mixture:
    6 d^2 in _image (the source stack's covs and chols, the gathered covs,
    which the image stack keeps, then three push temporaries or, once
    they are freed, the image's Cholesky factors), charged as 7 d^2, or
    5 d^2 in kl_mixture_mc (the stack's covs and chols, and _gram_form's
    stacked factor, inverse and precision) plus d (d+1) for a quadratic
    row and the coefficients; 7 d + 9 more for vectors and scalars."""
    return (7 * dim * dim + 7 * dim + 9) * 8


def _charged_bytes(count: int, dim: int, nsamples=MIN_MC_SAMPLES) -> int:
    """Bytes charged for count components and nsamples Monte Carlo draws:
    the per-component peak, the density's working blocks of at most
    2 _LOGPDF_CHUNK_BYTES, and 3 d + 2 floats a draw."""
    return (count * _component_bytes(dim) + 2 * _LOGPDF_CHUNK_BYTES
            + nsamples * (3 * dim + 2) * 8)


def _check_budget(count: int, dim: int, nsamples=MIN_MC_SAMPLES) -> None:
    if count > DEFAULT_COMPONENT_CAP:
        raise MixtureCapError(f"mixture would have more than "
                              f"{DEFAULT_COMPONENT_CAP} components")
    size = _charged_bytes(count, dim, nsamples)
    if size > MIXTURE_BYTE_BUDGET:
        raise MixtureCapError(
            f"{count} components in dimension {dim} and {nsamples} samples "
            f"need {size} bytes, budget is {MIXTURE_BYTE_BUDGET}")


def collapsed_word_count(n_blocks: int, sweeps: int) -> int:
    """Distinct component laws after `sweeps` sweeps from one Gaussian:
    n (n-1)^j collapsed words with j + 1 block letters, summed over
    j < sweeps until the sum passes DEFAULT_COMPONENT_CAP."""
    total = 0
    for j in range(sweeps):
        total += n_blocks * (n_blocks - 1) ** j
        if total > DEFAULT_COMPONENT_CAP or n_blocks == 1:
            break
    return total


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Finite Gaussian mixture with positive normalized weights: component
    c is law c of the GaussianStack laws, which checks every covariance
    and holds the batched Cholesky factors and log determinants.

    words[c] is the collapsed block word of component c under one model's
    sampler: its origin component, then the blocks applied since.  None
    means every component is its own origin, with no block applied yet.
    """

    weights: np.ndarray
    laws: GaussianStack
    words: tuple | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        count = len(self.laws)
        if weights.ndim != 1 or weights.size != count:
            raise ValueError("need one weight per component")
        if self.words is not None and len(self.words) != count:
            raise ValueError("need one word per component")
        if np.any(weights <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        if count > DEFAULT_COMPONENT_CAP:
            raise MixtureCapError(
                f"{count} components exceed the cap {DEFAULT_COMPONENT_CAP}")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        if self.words is not None:
            object.__setattr__(self, "words", tuple(map(tuple, self.words)))

    @classmethod
    def from_components(cls, weights, comps) -> "GaussianMixture":
        """Mixture of the GaussianDists comps, stacked."""
        comps = tuple(comps)
        return cls(weights, GaussianStack(np.stack([g.mean for g in comps]),
                                          np.stack([g.cov for g in comps])))

    @classmethod
    def single(cls, g: GaussianDist) -> "GaussianMixture":
        return cls(np.array([1.0]), g.stack)

    @property
    def dim(self) -> int:
        return self.laws.dim

    @property
    def n_components(self) -> int:
        return len(self.laws)

    @cached_property
    def components(self) -> tuple:
        """The components as GaussianDists, built on first access."""
        return tuple(self.laws.law(c) for c in range(self.n_components))

    @cached_property
    def _gram(self) -> tuple:
        return _gram_form(self.laws.means, self.laws.chols,
                          self.laws.log_dets, np.log(self.weights))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density, vectorized over rows of x."""
        return _gram_logsumexp(*self._gram, x, target=False)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws: each component maps its rows of one normal draw into
        its columns of a (d, n) block; returns the block's transpose."""
        counts = rng.multinomial(n, self.weights)
        z = rng.standard_normal((n, self.dim))
        out = np.empty((self.dim, n))
        stops, drawn = np.cumsum(counts), np.flatnonzero(counts)
        for chol, lo, hi in zip(self.laws.chols[drawn],
                                (stops - counts)[drawn].tolist(),
                                stops[drawn].tolist()):
            np.matmul(chol, z[lo:hi].T, out=out[:, lo:hi])
        out += np.repeat(self.laws.means.T, counts, axis=1)
        return out.T


def _gram_form(means, chols, log_dets, log_weights) -> tuple:
    """(coef, groups): row r of coef @ phi(x - centre) is log_weights[c]
    + log N(x; means[c], chols[c] chols[c]') for the component c at row r,
    log_dets[c] being its log det cov (see module docstring).

    groups = ((centre, start, stop), ...) in row order; each centre is the
    mean of the first component left and takes every component left within
    the spread bound, in order, so row 0 is component 0.
    """
    n, dim = means.shape
    inv = tril_inverse(chols)
    prec = np.swapaxes(inv, 1, 2) @ inv
    scale = np.sqrt(np.einsum("cij,cij->c", prec, prec))
    shift, groups = np.empty_like(means), []
    order, rest = np.empty(0, dtype=int), np.arange(n)
    while rest.size:
        spread = scale[rest] * np.sum((means[rest] - means[rest[0]]) ** 2, 1)
        near = rest[spread <= _CENTRE_SPREAD]
        shift[near] = means[near] - means[rest[0]]
        groups.append((means[rest[0]], order.size, order.size + near.size))
        order, rest = np.append(order, near), rest[spread > _CENTRE_SPREAD]
    lin = np.einsum("cij,cj->ci", prec, shift)
    iu, ju = np.triu_indices(dim)
    quad = prec[order[:, None], iu, ju] * np.where(iu == ju, -0.5, -1.0)
    const = log_weights - 0.5 * (dim * _LOG_2PI + np.sum(lin * shift, axis=1)
                                 + log_dets)
    return np.hstack([quad, lin[order], const[order, None]]), tuple(groups)


def _gram_logsumexp(coef, groups, x, target: bool) -> np.ndarray:
    """Log-sum-exp of the rows of a _gram_form at the rows of x; with
    target set, of rows 1.. minus row 0."""
    xt = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float)).T)
    dim, n_pts = xt.shape
    if dim != groups[0][0].size:
        raise ValueError("points must have the mixture dimension")
    step = max(1, _LOGPDF_CHUNK_BYTES // (8 * max(coef.shape)))
    # terms, features and y blocks shared by every chunk, a short tail
    # using their left columns; the ones row of the features is set once
    bufs = [np.empty((rows, min(step, n_pts)))
            for rows in (coef.shape[0], coef.shape[1], dim)]
    bufs[1][-1] = 1.0
    out = np.empty(n_pts)
    for start in range(0, n_pts, step):
        chunk = xt[:, start:start + step]
        terms, feat, y = (buf[:, :chunk.shape[1]] for buf in bufs)
        for centre, lo, hi in groups:
            np.subtract(chunk, centre[:, None], out=y)
            for i in range(dim):
                row = i * dim - i * (i - 1) // 2
                np.multiply(y[i], y[i:], out=feat[row:row + dim - i])
            feat[-1 - dim:-1] = y
            np.matmul(coef[lo:hi], feat, out=terms[lo:hi])
        mix = terms[1:] if target else terms
        top = mix.max(axis=0)
        mix -= top
        np.exp(mix, out=mix)
        vals = top + np.log(mix.sum(axis=0))
        out[start:start + step] = vals - terms[0] if target else vals
    return out


@per_object
def _block_update_map(model: GibbsModel, k: int):
    """Affine map (lin, offset, noise_cov) of the block-k Gibbs update.

    Resampling block k from the target conditional sends a point y to
    lin y + offset plus Gaussian noise supported on block k.
    """
    idx = model.partition.block(k)
    cov, gain, _ = memo_conditionals(model, model.partition)
    lin = np.eye(model.dim)
    lin[idx] = gain[idx]
    offset = np.zeros(model.dim)
    rest = model.partition.complement(k)
    offset[idx] = model.mean[idx] - gain[np.ix_(idx, rest)] @ model.mean[rest]
    noise = np.zeros_like(cov)
    noise[idx] = cov[idx]
    for arr in (lin, offset, noise):
        arr.flags.writeable = False
    return lin, offset, noise


def _push(means, covs, lin, offset, noise) -> tuple:
    """(means, covs) of the stacked Gaussians N(means[c], covs[c]) sent
    through the affine update (lin, offset, noise), symmetrised."""
    out = lin @ covs @ lin.T
    out += noise
    out = out + np.swapaxes(out, 1, 2)
    out *= 0.5
    return (lin @ means[..., None])[..., 0] + offset, out


def _require_gaussian(model: GibbsModel):
    if not model.is_gaussian:
        raise ValueError(
            "exact Gibbs updates need a Gaussian model (zero quartic term)")


def _check_mixture(p: GaussianMixture, model: GibbsModel) -> None:
    _require_gaussian(model)
    if p.dim != model.dim:
        raise ValueError("mixture dimension does not match model")


def _image(p: GaussianMixture, model: GibbsModel, moves) -> GaussianMixture:
    """Merged mixture of the moves (k, c, weight): component c of p sent
    through the block-k update, carrying that weight.

    Each move is keyed by its collapsed word.  A component whose word
    already ends in k is its own image and its rows are copied; equal keys
    sum their weights in first-seen order, and the other keys of each
    block k are pushed through its update in one batch.  The image is
    stacked once, keeping the gathered covariances, which every push
    leaves exactly symmetric; a copied row is factored to the bits it
    had.  Raises MixtureCapError before any push when the merged mixture
    would exceed DEFAULT_COMPONENT_CAP or the byte budget.
    """
    words = p.words or tuple((c,) for c in range(p.n_components))
    weights, sources = {}, {}
    for k, c, weight in moves:
        word = words[c]
        kept = len(word) > 1 and word[-1] == k
        key = word if kept else word + (k,)
        weights[key] = weights.get(key, 0.0) + weight
        if kept or key not in sources:
            sources[key] = (k, c, kept)
    _check_budget(len(weights), p.dim)
    ks, cs, kept = np.array(list(sources.values()), dtype=int).reshape(-1, 3).T
    means, covs = p.laws.means[cs], p.laws.covs[cs]
    for k in np.unique(ks[kept == 0]):
        rows = np.flatnonzero((ks == k) & (kept == 0))
        update = _block_update_map(model, int(k))
        means[rows], covs[rows] = _push(means[rows], covs[rows], *update)
    covs.flags.writeable = False  # gathered here: the stack keeps it
    return GaussianMixture(np.fromiter(weights.values(), float),
                           GaussianStack(means, covs), words=tuple(weights))


def apply_gibbs_block(p: GaussianMixture, model: GibbsModel,
                      k: int) -> GaussianMixture:
    """Image of the mixture p under the exact block-k Gibbs update."""
    _check_mixture(p, model)
    return _image(p, model, ((k, c, w) for c, w in enumerate(p.weights)))


def apply_weighted_gibbs(p: GaussianMixture, model: GibbsModel,
                         rho) -> GaussianMixture:
    """One sweep of the weighted block sampler: block k with weight rho_k/R.

    The image is the exact merged mixture: every component goes through
    every block, components are keyed by collapsed block word, and equal
    keys are summed, in block-major order.  Raises MixtureCapError instead
    of exceeding DEFAULT_COMPONENT_CAP or MIXTURE_BYTE_BUDGET.
    """
    _check_mixture(p, model)
    rho = np.asarray(rho, dtype=float)
    part = model.partition
    if rho.shape != (part.n,):
        raise ValueError(f"need one weight per block, got shape {rho.shape}")
    if np.any(rho <= 0):
        raise ValueError("block weights must be positive")
    share = rho / rho.sum()
    moves = ((k, c, share[k] * w) for k in range(part.n)
             for c, w in enumerate(p.weights))
    return _image(p, model, moves)


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    std_error: float
    nsamples: int
    seed: int


def kl_mixture_mc(p: GaussianMixture, q: GaussianDist, nsamples: int,
                  seed: int) -> MCEstimate:
    """Monte Carlo estimate of D(p||q) with both densities exact.

    Samples x ~ p and averages log p(x) - log q(x), one Gram-form pass;
    the reported standard error is the sample std over sqrt(nsamples).
    """
    if nsamples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} samples")
    if p.dim != q.dim:
        raise ValueError("dimension mismatch between mixture and target")
    rng = np.random.default_rng(seed)
    x = p.sample(rng, nsamples)
    form = _gram_form(np.vstack([q.mean, p.laws.means]),
                      np.concatenate([q.chol[None], p.laws.chols]),
                      np.append(q.log_det_cov, p.laws.log_dets),
                      np.append(0.0, np.log(p.weights)))
    vals = _gram_logsumexp(*form, x, target=True)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(nsamples))
    return MCEstimate(estimate=est, std_error=se, nsamples=int(nsamples),
                      seed=int(seed))


def verify_theorem1(p, model: GibbsModel, report: CriteriaReport):
    """Check D(p||q) <= (1/rho) sum_k rho_k E[D(p^k(.|xbar) || q^k(.|xbar))].

    rho is the certified constant from the report; every term is closed
    form, so the comparison carries only ROUNDING_SLACK.  p is one law, or
    a GaussianStack whose laws are checked in one pass, one Check each.
    """
    if report.rho_marton is None:
        raise CertificateError("report carries no certified constant")
    q = gaussian_target(model)
    laws = GaussianStack.of(p)
    lhs = kl(laws, q)
    terms = avg_conditional_kl(laws, q, model.partition)
    rhs = _dot(terms, np.asarray(report.rho_k)) / report.rho_marton
    checks = tuple(Check.within_rounding("theorem1", "", a, b)
                   for a, b in zip(lhs, rhs))
    return checks if isinstance(p, GaussianStack) else checks[0]


@dataclass(frozen=True)
class EntropyDropCheck:
    lhs: float
    rhs: float
    gap: float


def entropy_drop_identity(p: GaussianDist, model: GibbsModel,
                          k: int) -> EntropyDropCheck:
    """Exact identity: the entropy drop of the block-k update equals the
    averaged conditional divergence of that block.

    lhs = D(p||q) - D(p Gamma_k||q), rhs = E[D(p^k || q^k)], gap = lhs - rhs.
    """
    _require_gaussian(model)
    q = gaussian_target(model)
    update = _block_update_map(model, k)
    means, covs = _push(p.mean[None], p.cov[None], *update)
    image = GaussianDist(means[0], covs[0])
    lhs = kl(p, q) - kl(image, q)
    rhs = float(avg_conditional_kl(p, q, model.partition)[k])
    return EntropyDropCheck(lhs=lhs, rhs=rhs, gap=lhs - rhs)


def verify_contraction(p0: GaussianDist, model: GibbsModel,
                       report: CriteriaReport, steps: int, nsamples: int,
                       seed: int) -> tuple:
    """Track the sweep trajectory and compare divergence against the
    geometric bound (1 - rho/R)^m D(p0||q).

    Returns one check per step m, param "step=m".  Step 0 is exact;
    later steps are Monte Carlo estimates with tolerance 3 SE, holding
    when estimate - 3 SE <= bound.  The exact law after m sweeps has
    collapsed_word_count(n_blocks, m) components; when they, with the
    nsamples draws, exceed DEFAULT_COMPONENT_CAP or MIXTURE_BYTE_BUDGET,
    MixtureCapError is raised before the first sweep.
    """
    if report.rho_marton is None:
        raise CertificateError("report carries no certified constant")
    _require_gaussian(model)
    _check_budget(collapsed_word_count(model.partition.n, steps), model.dim,
                  nsamples)
    rho = float(report.rho_marton)
    rho_k = np.asarray(report.rho_k, dtype=float)
    total = float(rho_k.sum())
    factor = 1.0 - rho / total
    q = gaussian_target(model)
    d0 = kl(p0, q)

    rng = np.random.default_rng(seed)
    rows = [Check("gibbs", "step=0", d0, d0, 0.0, True)]
    mix = GaussianMixture.single(p0)
    for m in range(1, steps + 1):
        mix = apply_weighted_gibbs(mix, model, rho_k)
        est = kl_mixture_mc(mix, q, nsamples, int(rng.integers(0, 2 ** 62)))
        bound = factor ** m * d0
        tol = 3.0 * est.std_error
        rows.append(Check("gibbs", f"step={m}", est.estimate, bound, tol,
                          bool(est.estimate - tol <= bound)))
    return tuple(rows)
