"""Block Gibbs resampling as an exact operator on Gaussian mixtures.

Resampling one block from its conditional maps a Gaussian law to a
Gaussian law through an affine update, so the weighted block sampler maps
finite Gaussian mixtures to finite Gaussian mixtures exactly.  This gives
closed-form entropy drops per block and a closed-form upper bound on the
mixture-to-target divergence along the sampler trajectory.

A block update is idempotent (Gamma_k Gamma_k = Gamma_k), so each mixture
component carries its collapsed block word: the index of the component it
started from, then the blocks applied to it with repeats collapsed.
Components with equal words are the same law and are merged by summing
their weights, which keeps the mixture exact at n sum_{j<m} (n-1)^j
components after m sweeps of an n-block sampler instead of n^m.

A mixture holds its weights, its words and one GaussianStack of
component laws, which checks every covariance and holds the batched
Cholesky factors and log determinants: a sweep pushes the components of
each block in one batch and stacks the image once, and `kl` reads the
stack as it is.

The contraction check enumerates the mixture only when it must.  From a
p0 whose covariance is bit-equal to the target's K^-1, which every
`lsicert verify ... gibbs` run starts from, each update keeps K^-1 and
moves the means linearly, so it tracks their second moment alone; the
CLI's `gibbs` suite therefore exercises only the mean dynamics.

The verifiers take the constants they check, rho_k and rho, and refuse
any that is not finite and positive (one rho_k per block) before any
work; a rho above the true constant is no input error: its check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .criteria import Check, _checked_rho, _checked_rho_k
from .gaussian import (GaussianDist, GaussianStack, _dot, avg_conditional_kl,
                       gaussian_target, kl, memo_conditionals)
from .model import GibbsModel, per_object

DEFAULT_COMPONENT_CAP = 100_000
# Largest storage a swept mixture may take; checked before any component
# is built.
MIXTURE_BYTE_BUDGET = 1 << 30


class MixtureCapError(RuntimeError):
    """Exact mixture tracking would exceed the component cap or the
    byte budget."""


def _component_bytes(dim: int) -> int:
    """Upper bound on the peak bytes per component of the larger mixture:
    6 d^2 in _image (the source stack's covs and chols, the gathered covs,
    which the image stack keeps, then three push temporaries or, once
    they are freed, the image's Cholesky factors), charged as 7 d^2; the
    closed-form `kl` of the image holds 3 d^2 (the stack's covs and chols
    and one product with the target precision).  7 d + 9 more for
    vectors and scalars."""
    return (7 * dim * dim + 7 * dim + 9) * 8


def _check_budget(count: int, dim: int) -> None:
    if count > DEFAULT_COMPONENT_CAP:
        raise MixtureCapError(f"mixture would have more than "
                              f"{DEFAULT_COMPONENT_CAP} components")
    size = count * _component_bytes(dim)
    if size > MIXTURE_BYTE_BUDGET:
        raise MixtureCapError(
            f"{count} components in dimension {dim} need {size} bytes, "
            f"budget is {MIXTURE_BYTE_BUDGET}")


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
    rho = _checked_rho_k(model, rho)
    share = rho / rho.sum()
    moves = ((k, c, share[k] * w) for k in range(model.partition.n)
             for c, w in enumerate(p.weights))
    return _image(p, model, moves)


def verify_theorem1(p, model: GibbsModel, rho_k, rho: float):
    """Check D(p||q) <= (1/rho) sum_k rho_k E[D(p^k(.|xbar) || q^k(.|xbar))].

    Every term is closed form, so the comparison carries only
    ROUNDING_SLACK.  p is one law, or a GaussianStack whose laws are
    checked in one pass, one Check each.
    """
    rho_k, rho = _checked_rho_k(model, rho_k), _checked_rho(rho)
    q = gaussian_target(model)
    laws = GaussianStack.of(p)
    lhs = kl(laws, q)
    terms = avg_conditional_kl(laws, q, model.partition)
    rhs = _dot(terms, rho_k) / rho
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


def verify_contraction(p0: GaussianDist, model: GibbsModel, rho_k,
                       rho: float, steps: int) -> tuple:
    """Track the sweep trajectory and compare U_m = sum_c w_c D(p_c||q)
    over the step-m mixture's components against the geometric bound
    (1 - rho/R)^m D(p0||q), R = sum_k rho_k the sampler's total weight.

    D(.||q) is convex, so D(p_m||q) <= U_m; the entropy-drop identity and
    Theorem 1 give U_{m+1} <= (1 - rho/R) U_m component by component, so
    every row is closed form and carries only ROUNDING_SLACK.  Returns one
    check per step m, param "step=m"; step 0 is D(p0||q) against itself.

    When p0.cov is bit-equal to q.cov = K^-1, every component has that
    covariance (the update fixes it) and differs only in its mean, so
    U_m = 1/2 tr(K S_m) with S_0 = y y', y = p0.mean - m, and S_{m+1} =
    sum_k (rho_k/R) L_k S_m L_k', L_k the linear part of the block-k
    update: O(steps n d^3), no component is built, and the values agree
    with the enumeration to rounding.  Any other p0 is enumerated: the
    exact law after m sweeps, with collapsed_word_count(n_blocks, m)
    components.  On both paths, when that count exceeds
    DEFAULT_COMPONENT_CAP or MIXTURE_BYTE_BUDGET, MixtureCapError is
    raised before any row is computed.
    """
    rho_k, rho = _checked_rho_k(model, rho_k), _checked_rho(rho)
    _require_gaussian(model)
    _check_budget(collapsed_word_count(model.partition.n, steps), model.dim)
    factor = 1.0 - rho / float(rho_k.sum())
    q = gaussian_target(model)
    d0 = kl(p0, q)

    rows = [Check("gibbs", "step=0", d0, d0, 0.0, True)]
    if np.array_equal(p0.cov, q.cov):
        share = rho_k / rho_k.sum()
        lins = [_block_update_map(model, k)[0]
                for k in range(model.partition.n)]
        y = p0.mean - q.mean
        moment = np.outer(y, y)
        for m in range(1, steps + 1):
            moment = sum(s * (lin @ moment @ lin.T)
                         for s, lin in zip(share, lins))
            value = max(0.5 * float(np.sum(model.precision * moment)), 0.0)
            rows.append(Check.within_rounding("gibbs", f"step={m}", value,
                                              factor ** m * d0))
        return tuple(rows)
    mix = GaussianMixture.single(p0)
    for m in range(1, steps + 1):
        mix = apply_weighted_gibbs(mix, model, rho_k)
        rows.append(Check.within_rounding("gibbs", f"step={m}",
                                          mix.weights @ kl(mix.laws, q),
                                          factor ** m * d0))
    return tuple(rows)
