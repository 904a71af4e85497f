"""Block Gibbs resampling as a linear map on deviations from the target.

Resampling block k from its target conditional is an affine update that
leaves the target q = N(m, K^-1) fixed, so it moves a Gaussian law's
deviation from q linearly (Amit 1991): N(m + y, K^-1 + Delta) goes to
N(m + L_k y, K^-1 + L_k Delta L_k'), L_k the identity but on block k's
rows, the conditional mean's gain.  L_k is never built: one push rewrites
block k's rows, then its columns, O(s_k d^2).  Such a law has divergence
D = 1/2 tr(K (Delta + y y')) - 1/2 log det(I + K Delta) from q.

After m sweeps from p0 the sampler's law is a mixture of such laws, one
per collapsed block word, as a block update is idempotent (L_k L_k =
L_k): n sum_{j<m} (n-1)^j words after m sweeps of n blocks, not n^m.
They grow as a tree: each step extends the newest words by every block
but their last, and a word is pushed and its log determinant taken once,
when it is made.  From a start with the target's covariance, as every
`lsicert verify ... gibbs` run takes, every deviation is 0 and no word
is grown, so such a mean-only sweep is charged for its moment, rows and
pushes alone.

The verifiers take the constants they check, rho_k and rho, and refuse
any that is not finite and positive (one rho_k per block) before any
work; a rho above the true constant is no input error: its check fails.
"""

from __future__ import annotations

import numpy as np

from .criteria import Check, _checked_rho, _checked_rho_k
from .gaussian import (GaussianDist, GaussianStack, _check_same_dim, _dot,
                       avg_conditional_kl, gaussian_target, kl,
                       memo_conditionals)
from .model import ROW_BYTES, GibbsModel, _is_integer, charge

DEFAULT_COMPONENT_CAP = 100_000
# A block push is charged d^2 + _PUSH_OPS operations, _PUSH_OPS standing
# for its fixed interpreter cost (about 13 us).
_PUSH_OPS = 4096


def _sweep_floats(dim: int, words: int) -> int:
    """Floats a sweep that grows `words` words holds at its peak: 9 d^2
    for the moment, a push's copy, the weighted sum's temporaries and the
    block conditionals (8.2 measured at m = 256), and 2 d^2 + 24 per word
    for its deviation, log determinant and tree entries (tracemalloc:
    1.27-1.33 d^2 at d = 8 and 32, under 7 floats at d = 2)."""
    return 9 * dim * dim + words * (2 * dim * dim + 24)


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


def _push(mat: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """L_k mat L_k' over any leading axes of mat: L_k is the identity but
    on block k's rows idx, which hold rows, the conditional mean's gain."""
    out = mat.copy()
    out[..., idx, :] = rows @ mat
    out[..., :, idx] = out @ rows.T
    return out


def _grow(last: np.ndarray, deltas: np.ndarray, pairs,
          precision: np.ndarray) -> tuple:
    """(blocks, sources, grown, logdets): each word, of last block last[i]
    and deviation deltas[i], extended by every block k but its last, block
    by block: grown[j] = L_k deltas[sources[j]] L_k' for k = blocks[j], and
    logdets[j] = log det(I + K grown[j]), taken right after k's push."""
    sources = [np.flatnonzero(last != k) for k in range(len(pairs))]
    bounds = np.cumsum([0, *map(len, sources)])
    blocks = np.repeat(np.arange(len(pairs)), np.diff(bounds))
    grown = np.empty((len(blocks), *deltas.shape[1:]))
    logdets, diag = np.empty(len(blocks)), np.arange(len(precision))
    for (idx, rows), src, lo, hi in zip(pairs, sources, bounds, bounds[1:]):
        grown[lo:hi] = _push(deltas[src], idx, rows)
        shifted = precision @ grown[lo:hi]
        shifted[:, diag, diag] += 1.0
        logdets[lo:hi] = np.linalg.slogdet(shifted)[1]
        del shifted  # freed before the next push, which sets the peak
    return blocks, np.concatenate(sources), grown, logdets


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


def verify_contraction(p0: GaussianDist, model: GibbsModel, rho_k,
                       rho: float, steps: int) -> tuple:
    """Track the sweep trajectory and compare U_m = sum_w w_w D(p_w||q)
    over the step-m mixture's components against the geometric bound
    (1 - rho/R)^m D(p0||q), R = sum_k rho_k the sampler's total weight.

    D(.||q) is convex, so D(p_m||q) <= U_m; the entropy-drop identity and
    Theorem 1 give U_{m+1} <= (1 - rho/R) U_m component by component, so
    every row is closed form and carries only ROUNDING_SLACK.  Returns one
    check per step m = 0..steps, param "step=m"; step 0 is D(p0||q)
    against itself.  steps must be an integer of at least 1.

    U_m = 1/2 tr(K S_m) - 1/2 sum_w w_w log det(I + K Delta_w), S_0 =
    Delta_0 + y y' (y = p0.mean - m, Delta_0 = p0.cov - K^-1) and S_{m+1}
    = sum_k (rho_k/R) L_k S_m L_k'.  Before any row the run is charged
    _sweep_floats for its words, collapsed_word_count(n, steps) of them
    when Delta_0 != 0 (at most DEFAULT_COMPONENT_CAP) and none when
    Delta_0 = 0, plus ROW_BYTES a row, and steps n (d^2 + _PUSH_OPS)
    operations; past either budget, ValueError.
    """
    rho_k, rho = _checked_rho_k(model, rho_k), _checked_rho(rho)
    if not (_is_integer(steps) and steps >= 1):
        raise ValueError(f"need an integer count of at least one step, "
                         f"got {steps!r}")
    q = gaussian_target(model)
    _check_same_dim(p0, q)
    y, delta = p0.mean - q.mean, p0.cov - q.cov
    grows = bool(delta.any())
    n, d = model.partition.n, model.dim
    words = collapsed_word_count(n, steps) if grows else 0
    if words > DEFAULT_COMPONENT_CAP:
        raise ValueError(f"mixture would have more than "
                         f"{DEFAULT_COMPONENT_CAP} components")
    charge(f"a run of {steps} sweeps of {n} blocks in dimension {d}",
           8 * _sweep_floats(d, words) + (int(steps) + 1) * ROW_BYTES,
           int(steps) * n * (d * d + _PUSH_OPS))
    share = rho_k / rho_k.sum()
    factor = 1.0 - rho / float(rho_k.sum())
    d0 = kl(p0, q)
    gain = memo_conditionals(model, model.partition)[1]
    pairs = [(idx, gain[idx]) for idx in map(np.array, model.partition.blocks)]
    moment = np.outer(y, y) + delta
    # the word tree: per word its last block (-1 for the start word, kept
    # by no update, whose log det is read at weight 0 only), parent row,
    # weight and log det(I + K Delta_w); the newest keep their deviations
    last, parent, keep = np.array([-1]), np.array([0]), np.append(share, 0)
    weights, logdet, deltas = np.ones(1), np.zeros(1), delta[None]

    rows = [Check("gibbs", "step=0", d0, d0, 0.0, True)]
    for m in range(1, steps + 1):
        moment = sum(s * _push(moment, idx, gain_rows)
                     for s, (idx, gain_rows) in zip(share, pairs))
        value = 0.5 * float(np.sum(model.precision * moment))
        if grows:
            first = len(last) - len(deltas)
            blocks, sources, deltas, grown_logdet = _grow(
                last[first:], deltas, pairs, model.precision)
            last = np.concatenate([last, blocks])
            parent = np.concatenate([parent, first + sources])
            logdet = np.concatenate([logdet, grown_logdet])
            # a word is reached from itself, kept, or from its parent
            weights = np.concatenate([weights, np.zeros(len(blocks))])
            weights = keep[last] * (weights + weights[parent])
            value -= 0.5 * float(weights @ logdet)
        rows.append(Check.within_rounding("gibbs", f"step={m}",
                                          max(value, 0.0), factor ** m * d0))
    return tuple(rows)
