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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .criteria import ROUNDING_SLACK, CertificateError, Check, CriteriaReport
from .gaussian import (_LOG_2PI, GaussianDist, avg_conditional_kl,
                       gaussian_target, kl, memo_conditionals, tril_inverse)
from .model import GibbsModel

DEFAULT_COMPONENT_CAP = 100_000
# Largest storage a swept mixture may take; checked before any component
# is built.
MIXTURE_BYTE_BUDGET = 1 << 30
# Size of the larger of the (components x features) and (features x rows)
# working blocks of one row chunk of the Gram-form mixture density.
_LOGPDF_CHUNK_BYTES = 4 << 20
# Bounds the rounding of the Gram form (see the module docstring).
_CENTRE_SPREAD = 64.0
MIN_MC_SAMPLES = 1_000


class MixtureCapError(RuntimeError):
    """Exact mixture tracking would exceed the component cap or the
    byte budget."""


def _component_bytes(dim: int) -> int:
    """Peak bytes of one component: cov, chol, and in _gram_form its
    stacked factor, inverse, precision and d (d+1)/2 + d + 1 coefficients."""
    return (5 * dim * dim + dim * (dim + 1) // 2 + dim + 1) * 8


def _check_budget(count: int, dim: int, cap: int) -> None:
    if count > cap:
        raise MixtureCapError(
            f"mixture would have {count} components, cap is {cap}")
    size = count * _component_bytes(dim)
    if size > MIXTURE_BYTE_BUDGET:
        raise MixtureCapError(
            f"mixture of {count} components in dimension {dim} needs "
            f"{size} bytes, budget is {MIXTURE_BYTE_BUDGET}")


def collapsed_word_count(n_blocks: int, sweeps: int) -> int:
    """Distinct component laws after `sweeps` sweeps from one Gaussian:
    n (n-1)^j collapsed words with j + 1 block letters, summed over
    j < sweeps."""
    return n_blocks * sum((n_blocks - 1) ** j for j in range(sweeps))


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Finite Gaussian mixture with positive normalized weights.

    words[c] is the collapsed block word of component c under one model's
    sampler: its origin component, then the blocks applied since.  None
    means every component is its own origin, with no block applied yet.
    """

    weights: np.ndarray
    components: tuple
    words: tuple | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        comps = tuple(self.components)
        if weights.ndim != 1 or weights.size != len(comps):
            raise ValueError("need one weight per component")
        if self.words is not None and len(self.words) != len(comps):
            raise ValueError("need one word per component")
        if weights.size == 0:
            raise ValueError("mixture needs at least one component")
        if np.any(weights <= 0):
            raise ValueError("mixture weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        dims = {c.dim for c in comps}
        if len(dims) != 1:
            raise ValueError("mixture components must share one dimension")
        if len(comps) > DEFAULT_COMPONENT_CAP:
            raise MixtureCapError(
                f"{len(comps)} components exceed the cap {DEFAULT_COMPONENT_CAP}")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "components", comps)
        if self.words is not None:
            object.__setattr__(self, "words", tuple(map(tuple, self.words)))

    @classmethod
    def single(cls, g: GaussianDist) -> "GaussianMixture":
        return cls(weights=np.array([1.0]), components=(g,))

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def _gram(self) -> tuple:
        return _gram_form(self.components, np.log(self.weights))

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        """Log density, vectorized over rows of x."""
        return _gram_logsumexp(*self._gram, x, target=False)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws: each component maps its rows of one normal draw."""
        counts = rng.multinomial(n, self.weights)
        z = rng.standard_normal((n, self.dim))
        for c, rows in zip(self.components, np.split(z, np.cumsum(counts))):
            np.matmul(rows, c.chol.T, out=rows)
            rows += c.mean
        return z


def _gram_form(dists, log_weights) -> tuple:
    """(coef, groups): row r of coef @ phi(x - centre) is log_weights[c]
    + log N(x; dists[c]) for the dist c at row r (see module docstring).

    groups = ((centre, start, stop), ...) in row order; each centre is the
    mean of the first dist left and takes every dist left within the
    spread bound, in order, so row 0 is dists[0].
    """
    dim, n = dists[0].dim, len(dists)
    inv = tril_inverse(np.stack([g.chol for g in dists]))
    prec = np.swapaxes(inv, 1, 2) @ inv
    scale = np.sqrt(np.einsum("cij,cij->c", prec, prec))
    means = np.stack([g.mean for g in dists])
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
                                 + [g.log_det_cov for g in dists])
    return np.hstack([quad, lin[order], const[order, None]]), tuple(groups)


def _gram_logsumexp(coef, groups, x, target: bool) -> np.ndarray:
    """Log-sum-exp of the rows of a _gram_form at the rows of x; with
    target set, of rows 1.. minus row 0."""
    xt = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=float)).T)
    dim, n_pts = xt.shape
    if dim != groups[0][0].size:
        raise ValueError("points must have the mixture dimension")
    step = max(1, _LOGPDF_CHUNK_BYTES // (8 * max(coef.shape)))
    out = np.empty(n_pts)
    for start in range(0, n_pts, step):
        chunk = xt[:, start:start + step]
        terms = np.empty((coef.shape[0], chunk.shape[1]))
        feat = np.ones((coef.shape[1], chunk.shape[1]))
        for centre, lo, hi in groups:
            y = chunk - centre[:, None]
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


@lru_cache(maxsize=128)
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


def _push_gaussian(g: GaussianDist, lin, offset, noise) -> GaussianDist:
    mean = lin @ g.mean + offset
    cov = lin @ g.cov @ lin.T + noise
    return GaussianDist(mean, 0.5 * (cov + cov.T))


def _require_gaussian(model: GibbsModel):
    if not model.is_gaussian:
        raise ValueError(
            "exact Gibbs updates need a Gaussian model (zero quartic term)")


def _check_mixture(p: GaussianMixture, model: GibbsModel) -> None:
    _require_gaussian(model)
    if p.dim != model.dim:
        raise ValueError("mixture dimension does not match model")


def _image(p: GaussianMixture, model: GibbsModel, moves,
           cap: int = DEFAULT_COMPONENT_CAP) -> GaussianMixture:
    """Merged mixture of the moves (k, c, weight): component c of p sent
    through the block-k update, carrying that weight.

    Each move is keyed by its collapsed word.  A component whose word
    already ends in k is its own image and is kept as is; equal keys sum
    their weights in first-seen order, and every other key is pushed
    through the update once.  Raises MixtureCapError before any push when
    the merged mixture would exceed cap or the byte budget.
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
    _check_budget(len(weights), p.dim, cap)
    comps = tuple(
        p.components[c] if kept
        else _push_gaussian(p.components[c], *_block_update_map(model, k))
        for k, c, kept in sources.values())
    return GaussianMixture(weights=np.fromiter(weights.values(), float),
                           components=comps, words=tuple(weights))


def apply_gibbs_block(p: GaussianMixture, model: GibbsModel,
                      k: int) -> GaussianMixture:
    """Image of the mixture p under the exact block-k Gibbs update."""
    _check_mixture(p, model)
    return _image(p, model, ((k, c, w) for c, w in enumerate(p.weights)))


def apply_weighted_gibbs(p: GaussianMixture, model: GibbsModel, rho,
                         cap: int = DEFAULT_COMPONENT_CAP) -> GaussianMixture:
    """One sweep of the weighted block sampler: block k with weight rho_k/R.

    The image is the exact merged mixture: every component goes through
    every block, components are keyed by collapsed block word, and equal
    keys are summed, in block-major order.  Raises MixtureCapError instead
    of exceeding cap or MIXTURE_BYTE_BUDGET.
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
    return _image(p, model, moves, cap=cap)


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
    form = _gram_form((q,) + p.components, np.append(0.0, np.log(p.weights)))
    vals = _gram_logsumexp(*form, x, target=True)
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / np.sqrt(nsamples))
    return MCEstimate(estimate=est, std_error=se, nsamples=int(nsamples),
                      seed=int(seed))


def verify_theorem1(p: GaussianDist, model: GibbsModel,
                    report: CriteriaReport) -> Check:
    """Check D(p||q) <= (1/rho) sum_k rho_k E[D(p^k(.|xbar) || q^k(.|xbar))].

    rho is the certified constant from the report; every term is closed
    form, so the comparison carries only ROUNDING_SLACK.
    """
    if report.rho_marton is None:
        raise CertificateError("report carries no certified constant")
    q = gaussian_target(model)
    lhs = kl(p, q)
    terms = avg_conditional_kl(p, q, model.partition)
    rhs = float(np.asarray(report.rho_k) @ terms) / report.rho_marton
    return Check("theorem1", "", lhs, rhs, ROUNDING_SLACK,
                 bool(lhs <= rhs + ROUNDING_SLACK))


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
    image = _push_gaussian(p, *_block_update_map(model, k))
    lhs = kl(p, q) - kl(image, q)
    rhs = float(avg_conditional_kl(p, q, model.partition)[k])
    return EntropyDropCheck(lhs=lhs, rhs=rhs, gap=lhs - rhs)


def _subsample_sweep(p: GaussianMixture, model: GibbsModel, rho, cap: int,
                     rng: np.random.Generator) -> GaussianMixture:
    """Approximate sweep image: component paths sampled by weight, as
    many as both cap and the byte budget allow."""
    part = model.partition
    share = rho / rho.sum()
    budget = MIXTURE_BYTE_BUDGET // _component_bytes(model.dim)
    paths = max(1, min(cap, budget))
    ks = rng.choice(part.n, size=paths, p=share)
    cs = rng.choice(p.n_components, size=paths, p=p.weights)
    flat, counts = np.unique(ks * p.n_components + cs, return_counts=True)
    moves = ((*divmod(int(code), p.n_components), cnt / paths)
             for code, cnt in zip(flat, counts))
    return _image(p, model, moves, cap=cap)


def verify_contraction(p0: GaussianDist, model: GibbsModel,
                       report: CriteriaReport, steps: int, nsamples: int,
                       seed: int, cap: int = DEFAULT_COMPONENT_CAP,
                       mc_fallback: bool = False) -> tuple:
    """Track the sweep trajectory and compare divergence against the
    geometric bound (1 - rho/R)^m D(p0||q).

    Returns one check per step m, param "step=m".  Step 0 is exact;
    later steps are Monte Carlo estimates with tolerance 3 SE, holding
    when estimate - 3 SE <= bound.  The exact law after m sweeps has
    collapsed_word_count(n_blocks, m) components.  When that would
    exceed cap or MIXTURE_BYTE_BUDGET, mc_fallback=True switches to a
    sampled component-path approximation, and the param of every step
    from then on reads "step=m:sampled_law"; otherwise MixtureCapError
    is raised before the first sweep.
    """
    if report.rho_marton is None:
        raise CertificateError("report carries no certified constant")
    _require_gaussian(model)
    if not mc_fallback:
        _check_budget(collapsed_word_count(model.partition.n, steps),
                      model.dim, cap)
    rho = float(report.rho_marton)
    rho_k = np.asarray(report.rho_k, dtype=float)
    total = float(rho_k.sum())
    factor = 1.0 - rho / total
    q = gaussian_target(model)
    d0 = kl(p0, q)

    rng = np.random.default_rng(seed)
    mc_seeds = rng.integers(0, 2 ** 62, size=max(steps, 1))
    rows = [Check("gibbs", "step=0", d0, d0, 0.0, True)]
    mix = GaussianMixture.single(p0)
    law = ""
    for m in range(1, steps + 1):
        try:
            mix = apply_weighted_gibbs(mix, model, rho_k, cap=cap)
        except MixtureCapError:
            if not mc_fallback:
                raise
            mix = _subsample_sweep(mix, model, rho_k, cap, rng)
            law = ":sampled_law"
        est = kl_mixture_mc(mix, q, nsamples, int(mc_seeds[m - 1]))
        bound = factor ** m * d0
        tol = 3.0 * est.std_error
        rows.append(Check("gibbs", f"step={m}{law}", est.estimate, bound, tol,
                          bool(est.estimate - tol <= bound)))
    return tuple(rows)
