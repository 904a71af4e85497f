"""Block Gibbs sampler checks.

The block update law is validated against a brute-force sampling oracle,
and the contraction rows against an enumeration of the sampler's whole
n^m component laws written here from K with numpy alone, before the
entropy identities and contraction bounds are tested.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import multivariate_normal

from lsicert import gibbs
from lsicert import model as lsimodel
from lsicert.criteria import (block_lsi_constants, criteria_report,
                              solve_rho_marton)
from lsicert.gaussian import (GaussianDist, gaussian_target, kl,
                              memo_conditionals)
from lsicert.gibbs import (collapsed_word_count, verify_contraction,
                           verify_theorem1)
from lsicert.instances import (model_2d, random_certified_model,
                               random_gaussian, random_partition,
                               random_quartic_model, random_spd)
from lsicert.model import BlockPartition, GibbsModel, toeplitz_matrix

from conftest import BAD_RHO, bad_rho_k, must_not_run
from reference import block_image, block_update, entropy_drop, quad_kl

ENTROPY_DROP_2D = 0.125  # hand derivation for the two-coordinate model


def shifted_target(model, shift):
    q = gaussian_target(model)
    return GaussianDist(q.mean + np.asarray(shift, dtype=float), q.cov)


def swept_laws(p0, model, rho_k, steps):
    """(weights, means, covs) of the sampler's law after each of `steps`
    weighted sweeps from p0, unmerged: n^m components after m sweeps.

    Each block update is the dense one of reference.block_update.
    """
    share = np.asarray(rho_k, dtype=float) / np.sum(rho_k)
    updates = [block_update(model, k) for k in range(model.partition.n)]
    weights, means, covs = np.ones(1), p0.mean[None], p0.cov[None]
    laws = []
    for _ in range(steps):
        weights = np.concatenate([s * weights for s in share])
        means = np.concatenate([means @ lin.T + offset
                                for lin, offset, _ in updates])
        covs = np.concatenate([lin @ covs @ lin.T + noise
                               for lin, _, noise in updates])
        covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
        laws.append((weights, means, covs))
    return laws


def upper_values(p0, model, rho_k, steps):
    """U_m = sum_c w_c D(p_c||q) over the unmerged step-m components,
    m = 1..steps, each divergence in closed form from K."""
    prec = model.precision
    logdet_q = -np.linalg.slogdet(prec)[1]
    values = []
    for weights, means, covs in swept_laws(p0, model, rho_k, steps):
        diff = means - model.mean
        div = 0.5 * (np.einsum("ij,cji->c", prec, covs) - model.dim
                     + np.einsum("ci,ij,cj->c", diff, prec, diff)
                     + logdet_q - np.linalg.slogdet(covs)[1])
        values.append(float(weights @ div))
    return values


def certified_with_blocks(n_blocks, seed):
    """The first random_certified_model of dimension 2 n_blocks with
    n_blocks blocks in the seed's stream, and the stream."""
    rng = np.random.default_rng(seed)
    while True:
        model = random_certified_model(rng, 2 * n_blocks)
        if model.partition.n == n_blocks:
            return model, rng


def four_block_model(seed=3):
    rng = np.random.default_rng(seed)
    part = BlockPartition(((0, 1), (2, 3), (4, 5), (6, 7)))
    return GibbsModel(partition=part, precision=random_spd(rng, 8),
                      mean=rng.normal(size=8), quartic=np.zeros(8)), rng


# ---- update law vs sampling oracle ----

def test_block_update_moments_match_sampling_oracle(model2d, rng):
    # oracle: draw x ~ p, then literally resample x0 from the target
    # conditional N(0.5 x1, 1); compare moments with the pushed Gaussian
    p = GaussianDist(np.array([1.0, 1.0]),
                     np.array([[0.8, 0.2], [0.2, 0.6]]))
    n = 1_000_000
    x = p.sample(rng, n)
    x0_new = 0.5 * x[:, 1] + rng.standard_normal(n)
    draws = np.stack([x0_new, x[:, 1]], axis=1)

    g = block_image(p, model2d, 0)
    assert_allclose(g.mean, draws.mean(axis=0), atol=0.01)
    assert_allclose(g.cov, np.cov(draws.T), atol=0.02)


def test_block_update_closed_form(model2d):
    p = GaussianDist(np.array([2.0, 4.0]), np.eye(2))
    g = block_image(p, model2d, 0)
    # x0 <- 0.5 x1 + xi: mean (2, 4), var of x0 = 0.25 var(x1) + 1
    assert_allclose(g.mean, [2.0, 4.0], atol=1e-12)
    assert_allclose(g.cov, [[1.25, 0.5], [0.5, 1.0]], atol=1e-12)


def test_push_is_the_block_update_congruence():
    # L_k M L_k' for one matrix and for a stack, on a permuted partition
    # with blocks of 1, 2 and 3 coordinates; L_k is the dense update of
    # reference.block_update, built from K alone
    rng = np.random.default_rng(5)
    part = random_partition(rng, 9)
    assert set(part.sizes) == {1, 2, 3}
    prec = random_spd(rng, 9)
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(9),
                       quartic=np.zeros(9))
    gain = memo_conditionals(model, part)[1]
    mats = np.stack([random_spd(rng, 9) for _ in range(4)])
    before = mats.copy()
    for k in range(part.n):
        idx, lin = part.block(k), block_update(model, k)[0]
        want = lin @ mats @ lin.T
        assert_allclose(gibbs._push(mats, idx, gain[idx]), want, rtol=1e-13)
        assert_allclose(gibbs._push(mats[1], idx, gain[idx]), want[1],
                        rtol=1e-13)
    assert mats.tobytes() == before.tobytes()


def test_block_update_fixes_target(model2d):
    q = gaussian_target(model2d)
    for k in (0, 1):
        assert kl(block_image(q, model2d, k), q) <= 1e-12


def test_single_block_update_jumps_to_target():
    part = BlockPartition(((0, 1),))
    prec = np.array([[1.0, -0.5], [-0.5, 1.0]])
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(2),
                       quartic=np.zeros(2))
    q = gaussian_target(model)
    p = GaussianDist(np.array([5.0, -3.0]), 4.0 * np.eye(2))
    assert kl(block_image(p, model, 0), q) <= 1e-12
    rows = verify_contraction(p, model, [1.0], 1.0, steps=1)
    assert rows[1].value <= 1e-12


def test_block_update_rejects_quartic(rng):
    model = random_quartic_model(rng, dim=2)
    p = random_gaussian(rng, 2)
    with pytest.raises(ValueError, match="Gaussian model"):
        verify_contraction(p, model, [1.0, 1.0], 0.5, steps=1)


def test_block_update_rejects_wrong_dimension(model2d, rng):
    p = random_gaussian(rng, 3)
    with pytest.raises(ValueError, match="dimension"):
        verify_contraction(p, model2d, [1.0, 1.0], 0.5, steps=1)


# ---- word tree ----

def block_pairs(model):
    """(indices, gain rows) of every block, as verify_contraction takes
    them."""
    gain = memo_conditionals(model, model.partition)[1]
    return [(idx, gain[idx]) for idx in map(np.array, model.partition.blocks)]


def counting_grow(counts):
    """gibbs._grow, appending the number of words each call grows."""
    grow = gibbs._grow

    def counted(*args):
        out = grow(*args)
        counts.append(len(out[0]))
        return out

    return counted


def word_weights(p0, model, rho_k, steps, marked):
    """Summed weight of the marked words (0 = the first word grown) after
    each step m = 1..steps, read off verify_contraction's rows.

    _grow is patched to give each marked word the deviation (e^(-1/d) - 1)
    K^-1 and its log det(I + K Delta), -1, and every other word 0, so
    each row exceeds the all-zero run's by half the marked weight.
    """
    probe = (np.exp(-1.0 / model.dim) - 1.0) * gaussian_target(model).cov
    grow = gibbs._grow

    def values(marks):
        made = []

        def fake(*args):
            blocks, sources, _, _ = grow(*args)
            rows = np.arange(len(made), len(made) + len(blocks))
            made.extend(rows)
            marked = np.isin(rows, marks)
            return blocks, sources, marked[:, None, None] * probe, -1.0 * marked

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gibbs, "_grow", fake)
            rows = verify_contraction(p0, model, rho_k, 0.1, steps=steps)
        return np.array([r.value for r in rows[1:]])

    return 2.0 * (values(marked) - values([]))


def covariance_twice_the_target(model, rng):
    """A start with Delta_0 = K^-1: every U_m is positive, so no row is
    clipped at 0."""
    q = gaussian_target(model)
    return GaussianDist(q.mean + rng.normal(size=model.dim), 2.0 * q.cov)


def test_weighted_sweep_component_layout(model2d, rng):
    # block-major order: block 0 extends every newest word first, and a
    # word already ending in k is not extended by k; its weight grows
    # from itself, kept, and from its parent, extended; each grown word
    # comes with its log det(I + K Delta)
    q = gaussian_target(model2d)
    pairs, K = block_pairs(model2d), model2d.precision
    start = (np.eye(2) - q.cov)[None]
    blocks, sources, once, _ = gibbs._grow(np.array([-1]), start, pairs, K)
    assert (blocks.tolist(), sources.tolist()) == ([0, 1], [0, 0])
    blocks, sources, twice, logdets = gibbs._grow(blocks, once, pairs, K)
    assert (blocks.tolist(), sources.tolist()) == ([0, 1], [1, 0])
    image = block_image(GaussianDist(q.mean, q.cov + once[1]), model2d, 0)
    assert_allclose(twice[0], image.cov - q.cov, atol=1e-15)
    assert_allclose(logdets, np.linalg.slogdet(np.eye(2) + K @ twice)[1],
                    rtol=1e-14)
    # words (0,), (1,), (1, 0), (0, 1), block 0 drawn with weight 3/4
    p0 = covariance_twice_the_target(model2d, rng)
    weights = np.column_stack([word_weights(p0, model2d, [3.0, 1.0], 2, [j])
                               for j in range(4)])
    assert_allclose(weights, [[0.75, 0.25, 0.0, 0.0],
                              [0.75 * 0.75, 0.25 * 0.25,
                               0.75 * 0.25, 0.25 * 0.75]], atol=1e-12)


def test_block_update_keeps_updated_components(model2d, monkeypatch):
    # L_k L_k = L_k: no word is extended by its last block, each word is
    # pushed once, when it is made, and the next step extends the very
    # bits it was made with
    q = gaussian_target(model2d)
    p0 = GaussianDist(q.mean, q.cov + np.array([[0.3, 0.1], [0.1, -0.2]]))
    pushed, calls = [], []
    push, grow = gibbs._push, gibbs._grow

    def counted_push(mat, idx, rows):
        if mat.ndim == 3:  # a stack of deviations, not the moment
            pushed.append(len(mat))
        return push(mat, idx, rows)

    def recorded(last, deltas, *args):
        out = grow(last, deltas, *args)
        calls.append((last, deltas.tobytes(), out))
        return out

    monkeypatch.setattr(gibbs, "_push", counted_push)
    monkeypatch.setattr(gibbs, "_grow", recorded)
    verify_contraction(p0, model2d, [1.0, 1.0], 0.5, steps=3)
    assert sum(pushed) == collapsed_word_count(2, 3) == 6
    for (last, _, (blocks, sources, grown, _)), after in zip(calls,
                                                             calls[1:]):
        assert np.all(blocks != last[sources])
        assert after[0].tolist() == blocks.tolist()
        assert after[1] == grown.tobytes()


@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_merged_sweep_matches_naive_law(n_blocks, sweeps, seed):
    rng = np.random.default_rng(seed)
    dim = n_blocks + 1
    part = BlockPartition(tuple((i,) for i in range(n_blocks - 1))
                          + ((n_blocks - 1, n_blocks),))
    model = GibbsModel(partition=part, precision=random_spd(rng, dim),
                       mean=rng.normal(size=dim), quartic=np.zeros(dim))
    rho_k = rng.uniform(0.5, 2.0, size=n_blocks)
    p0 = random_gaussian(rng, dim)
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gibbs, "_grow", counting_grow(counts))
        rows = verify_contraction(p0, model, rho_k, 0.1, steps=sweeps)
    assert np.cumsum(counts).tolist() == [collapsed_word_count(n_blocks, m)
                                          for m in range(1, sweeps + 1)]
    assert sum(counts) == n_blocks * sum((n_blocks - 1) ** j
                                         for j in range(sweeps))
    assert_allclose([r.value for r in rows[1:]],
                    upper_values(p0, model, rho_k, sweeps), rtol=1e-10)


@pytest.mark.parametrize("n_blocks, steps", [(1, 4), (2, 6), (3, 5), (4, 4)])
def test_word_weights_sum_to_one(n_blocks, steps, rng):
    # the weight recursion keeps a probability on the words made so far
    # after every step, a one-block model included
    model = (GibbsModel(partition=BlockPartition(((0, 1),)),
                        precision=random_spd(rng, 2), mean=np.zeros(2),
                        quartic=np.zeros(2)) if n_blocks == 1
             else certified_with_blocks(n_blocks, 0)[0])
    p0 = covariance_twice_the_target(model, rng)
    rho_k = rng.uniform(0.5, 2.0, size=n_blocks)
    words = range(collapsed_word_count(n_blocks, steps))
    assert_allclose(word_weights(p0, model, rho_k, steps, words), 1.0,
                    rtol=1e-12)


def test_weighted_sweep_fixes_target(model2d):
    q = gaussian_target(model2d)
    rows = verify_contraction(q, model2d, [1.0, 1.0], 0.5, steps=3)
    assert all(r.value <= 1e-10 for r in rows)


def test_weighted_sweep_cap(model2d, monkeypatch):
    monkeypatch.setattr(gibbs, "DEFAULT_COMPONENT_CAP", 1)
    monkeypatch.setattr(gibbs, "_grow", must_not_run)
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="more than 1 components"):
        verify_contraction(p0, model2d, [1.0, 1.0], 0.5, steps=1)


def test_weighted_sweep_rejects_bad_weights(model2d):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        verify_contraction(p0, model2d, [1.0, 0.0], 0.5, steps=1)
    with pytest.raises(ValueError):
        verify_contraction(p0, model2d, [1.0], 0.5, steps=1)


# ---- entropy inequalities ----

def test_theorem1_tight_case(model2d):
    rep = criteria_report(model2d)
    p = shifted_target(model2d, [1.0, 1.0])
    chk = verify_theorem1(p, model2d, rep.rho_k, rep.rho_marton)
    assert chk.holds
    assert (chk.check, chk.param, chk.tolerance) == ("theorem1", "", 1e-9)
    assert chk.value == pytest.approx(0.5, abs=1e-12)
    assert chk.bound == pytest.approx(chk.value, abs=1e-9)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_theorem1_random_pairs(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    rep = criteria_report(model)
    p = random_gaussian(rng, model.dim)
    chk = verify_theorem1(p, model, rep.rho_k, rep.rho_marton)
    assert chk.holds, (chk.value, chk.bound)


def test_theorem1_needs_certificate(model2d, monkeypatch):
    # every rho and rho_k that is no constant is refused before any work
    rho_k, rho = block_lsi_constants(model2d), solve_rho_marton(model2d)
    p = shifted_target(model2d, [1.0, 1.0])
    monkeypatch.setattr(gibbs, "gaussian_target", must_not_run)
    for bad in BAD_RHO:
        with pytest.raises(ValueError, match="rho must be"):
            verify_theorem1(p, model2d, rho_k, bad)
    for bad in bad_rho_k(2):
        with pytest.raises(ValueError, match="rho_k must"):
            verify_theorem1(p, model2d, bad, rho)


def test_theorem1_inflated_rho_reaches_the_check(model2d):
    # a rho above the true constant is no input error: on the tight case
    # the bound halves, below the attained divergence, and the check fails
    rho_k, rho = block_lsi_constants(model2d), solve_rho_marton(model2d)
    p = shifted_target(model2d, [1.0, 1.0])
    assert verify_theorem1(p, model2d, rho_k, rho).holds
    chk = verify_theorem1(p, model2d, rho_k, 2.0 * rho)
    assert not chk.holds
    assert chk.bound == pytest.approx(0.5 * chk.value, rel=1e-9)


def test_entropy_drop_reference(model2d):
    p = shifted_target(model2d, [1.0, 0.0])
    lhs, rhs = entropy_drop(p, model2d, 1)
    assert lhs == pytest.approx(ENTROPY_DROP_2D, abs=1e-12)
    assert abs(lhs - rhs) <= 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_entropy_drop_identity_random(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    p = random_gaussian(rng, model.dim)
    k = int(rng.integers(0, model.partition.n))
    lhs, rhs = entropy_drop(p, model, k)
    assert lhs >= -1e-9
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


# ---- contraction along the sweep ----

def test_contraction_reference(model2d):
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [2.0, -1.0])
    rows = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=4)
    d0 = kl(p0, gaussian_target(model2d))
    assert rows[0].value == pytest.approx(d0, abs=1e-12)
    assert rows[0].tolerance == 0.0
    for m, row in enumerate(rows):
        assert (row.check, row.param) == ("gibbs", f"step={m}")
        assert row.bound == pytest.approx(0.75 ** m * d0, rel=1e-12)
        assert row.tolerance == (1e-9 if m else 0.0)
        assert row.holds


@pytest.mark.parametrize("steps", [0, -1, 2.5, True])
def test_contraction_refuses_bad_step_count(model2d, steps, monkeypatch):
    # 0 and -1 would check nothing, 2.5 and True are no count: refused
    # before any work, as the CLI refuses --steps below 1
    rho_k, rho = block_lsi_constants(model2d), solve_rho_marton(model2d)
    p0 = shifted_target(model2d, [1.0, 1.0])
    monkeypatch.setattr(gibbs, "charge", must_not_run)
    monkeypatch.setattr(gibbs, "gaussian_target", must_not_run)
    with pytest.raises(ValueError, match="at least one step"):
        verify_contraction(p0, model2d, rho_k, rho, steps=steps)


def test_contraction_rows_are_component_divergences(model2d):
    # each row's value is U_m, the weighted closed-form divergence of the
    # step-m components; from the CLI's start on the 2-d reference, U_1
    # attains the bound, up to rounding
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [1.0, 1.0])
    rows = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=3)
    assert_allclose([r.value for r in rows[1:]],
                    upper_values(p0, model2d, rep.rho_k, 3), rtol=1e-12)
    assert rows[1].value == pytest.approx(rows[1].bound, rel=1e-14)


@pytest.mark.parametrize("n_blocks, seed", [(None, 0), (2, 0), (2, 1),
                                            (3, 0), (3, 1), (4, 0), (4, 1)])
def test_mean_only_contraction_matches_enumeration(n_blocks, seed,
                                                   monkeypatch):
    # p0 with the target's covariance: verify_contraction pushes no
    # deviation, and its rows match the enumerated U_m (None: the 2-d
    # reference)
    if n_blocks is None:
        model, rng = model_2d(), np.random.default_rng(seed)
    else:
        model, rng = certified_with_blocks(n_blocks, seed)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + rng.normal(size=model.dim), q.cov)
    rho_k, rho = block_lsi_constants(model), solve_rho_marton(model)
    monkeypatch.setattr(gibbs, "_grow", must_not_run)
    rows = verify_contraction(p0, model, rho_k, rho, steps=5)
    assert rows[0].value == rows[0].bound == kl(p0, q)
    assert_allclose([r.value for r in rows[1:]],
                    upper_values(p0, model, rho_k, 5), rtol=1e-12)
    assert all(r.holds for r in rows)


@pytest.mark.parametrize("cov, sweeps", [("target", 0), ("ulp", 3),
                                         ("identity", 3), ("random", 3)])
def test_contraction_enumerates_unless_p0_has_the_target_covariance(
        cov, sweeps, monkeypatch):
    # the word tree is grown from every start but one with a covariance
    # bit-equal to K^-1, and the rows match the n^m enumeration with the
    # same verdicts
    model, rng = certified_with_blocks(3, 2)
    q = gaussian_target(model)
    if cov == "target":
        p_cov = q.cov
    elif cov == "ulp":
        p_cov = q.cov.copy()
        p_cov[0, 0] = np.nextafter(p_cov[0, 0], np.inf)
    elif cov == "identity":
        p_cov = np.eye(model.dim)
    else:
        p_cov = random_gaussian(rng, model.dim).cov
    p0 = GaussianDist(q.mean + rng.normal(size=model.dim), p_cov)
    if cov == "ulp":
        assert np.count_nonzero(p0.cov != q.cov) == 1
    calls = []
    monkeypatch.setattr(gibbs, "_grow", counting_grow(calls))
    rho_k, rho = block_lsi_constants(model), solve_rho_marton(model)
    rows = verify_contraction(p0, model, rho_k, rho, steps=3)
    assert len(calls) == sweeps
    values = upper_values(p0, model, rho_k, 3)
    assert_allclose([r.value for r in rows[1:]], values, rtol=1e-12)
    d0 = kl(p0, q)
    factor = 1.0 - rho / np.sum(rho_k)
    assert [r.holds for r in rows[1:]] == [
        v <= factor ** m * d0 + 1e-9 for m, v in enumerate(values, start=1)]


def test_inflated_rho_fails_the_check(model2d):
    # raising rho by a relative 1e-6 lowers the step-1 bound by 1.25e-7,
    # far over the 1e-9 rounding slack, below the attained U_1
    rep = criteria_report(model2d)
    q = gaussian_target(model2d)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    assert all(r.holds for r in verify_contraction(
        p0, model2d, rep.rho_k, rep.rho_marton, steps=1))
    row = verify_contraction(p0, model2d, rep.rho_k,
                             rep.rho_marton * (1.0 + 1e-6), steps=1)[1]
    assert not row.holds
    assert row.value - row.bound == pytest.approx(1.25e-7, rel=1e-3)


def test_rows_bound_the_quadrature_divergence(model2d):
    # convexity: U_m >= D(p_m||q), the mixture's divergence by quadrature
    rep = criteria_report(model2d)
    q = gaussian_target(model2d)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    rows = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=4)
    laws = swept_laws(p0, model2d, rep.rho_k, 4)
    for row, (weights, means, covs) in zip(rows[1:], laws):
        def mixture_pdf(pts, weights=weights, means=means, covs=covs):
            return sum(w * multivariate_normal(m, c).pdf(pts)
                       for w, m, c in zip(weights, means, covs))
        exact = quad_kl(mixture_pdf, multivariate_normal(q.mean, q.cov).pdf,
                        [(-9, 9), (-9, 9)], 801)
        assert exact <= row.value


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_component_divergence_contracts_each_sweep(seed):
    # U_{m+1} <= (1 - rho/R) U_m: Theorem 1 and the entropy-drop identity
    # applied to every component
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    rep = criteria_report(model)
    factor = 1.0 - rep.rho_marton / sum(rep.rho_k)
    rows = verify_contraction(random_gaussian(rng, model.dim), model,
                              rep.rho_k, rep.rho_marton, steps=3)
    for before, after in zip(rows, rows[1:]):
        assert after.value <= factor * before.value + 1e-9


def general_start(model, shift):
    """A law whose covariance is not the target's, so that a sweep grows
    the word tree."""
    q = gaussian_target(model)
    return GaussianDist(q.mean + np.asarray(shift, dtype=float),
                        np.eye(model.dim))


def test_contraction_cap_fallback(model2d, monkeypatch):
    monkeypatch.setattr(gibbs, "DEFAULT_COMPONENT_CAP", 4)
    monkeypatch.setattr(gibbs, "_grow", must_not_run)
    rep = criteria_report(model2d)
    p0 = general_start(model2d, [2.0, -1.0])
    with pytest.raises(ValueError, match="more than 4 components"):
        verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=4)


def test_contraction_fallback_respects_byte_budget(model2d, monkeypatch):
    # room for 5 components of 2 x 2 and 4 rows: steps 1 and 2 (2 and 4
    # components) fit, step 3 (6 components) is refused before any sweep
    monkeypatch.setattr(lsimodel, "DENSE_BYTE_BUDGET",
                        8 * gibbs._sweep_floats(2, 5)
                        + 4 * lsimodel.ROW_BYTES)
    rep = criteria_report(model2d)
    p0 = general_start(model2d, [2.0, -1.0])
    with pytest.raises(ValueError, match="3 sweeps of 2 blocks in dimension "
                                         "2 needs"):
        verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=3)
    rows = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=2)
    assert [r.param for r in rows] == ["step=0", "step=1", "step=2"]


def singleton_chain(m):
    return GibbsModel(partition=BlockPartition(tuple((i,) for i in range(m))),
                      precision=toeplitz_matrix(m, 4.0, {1: 1.0}),
                      mean=np.zeros(m), quartic=np.zeros(m))


def test_general_start_past_the_cap_is_refused_before_any_row(monkeypatch):
    model = singleton_chain(5)
    rho_k, rho = block_lsi_constants(model), solve_rho_marton(model)
    assert collapsed_word_count(5, 8) > gibbs.DEFAULT_COMPONENT_CAP
    monkeypatch.setattr(gibbs, "_push", must_not_run)
    monkeypatch.setattr(gibbs, "_grow", must_not_run)
    monkeypatch.setattr(gibbs, "kl", must_not_run)
    with pytest.raises(ValueError, match="more than 100000 components"):
        verify_contraction(general_start(model, np.ones(5)), model, rho_k,
                           rho, steps=8)


class Admitted(Exception):
    """Raised by a patched push: the run passed its charge."""


@pytest.mark.parametrize("blocks", [1, 2, 5, 64])
def test_mean_only_operation_ceiling(blocks, monkeypatch):
    # the largest step count inside model.OP_BUDGET and, for its rows,
    # model.DENSE_BYTE_BUDGET reaches the first push, one more is refused;
    # the rows bind first on one block alone
    ceiling = {1: 419429, 2: 243902, 5: 97063, 64: 3814}[blocks]
    per_step = blocks * (blocks * blocks + gibbs._PUSH_OPS)
    by_rows = (lsimodel.DENSE_BYTE_BUDGET - 8 * gibbs._sweep_floats(blocks, 0)
               ) // lsimodel.ROW_BYTES - 1
    assert ceiling == min(lsimodel.OP_BUDGET // per_step, by_rows)
    model = GibbsModel(partition=BlockPartition(tuple((i,) for i in
                                                      range(blocks))),
                       precision=4.0 * np.eye(blocks), mean=np.zeros(blocks),
                       quartic=np.zeros(blocks))
    p0 = shifted_target(model, np.ones(blocks))

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(gibbs, "_push", admitted)
    with pytest.raises(Admitted):
        verify_contraction(p0, model, np.ones(blocks), 0.5, ceiling)
    unit = "bytes" if blocks == 1 else "operations"
    with pytest.raises(ValueError, match=f"{unit}, over the"):
        verify_contraction(p0, model, np.ones(blocks), 0.5, ceiling + 1)


def test_mean_only_sweep_peak_within_its_byte_charge():
    # 256 singleton blocks, 8 sweeps from the CLI's start: the moment, a
    # push's copy, the weighted sum's temporaries and the model's
    # conditionals; 8.2 d^2 floats measured, 9 charged
    m = 256
    model = singleton_chain(m)
    p0 = shifted_target(model, np.ones(m))
    tracemalloc.start()
    try:
        verify_contraction(p0, model, np.ones(m), 0.5, steps=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * gibbs._sweep_floats(m, 0), peak / (m * m * 8)


@pytest.mark.parametrize("sweeps", [5, 7])
def test_sweep_and_kl_peak_within_component_budget(sweeps):
    # d = 8 in four blocks, from covariance I: 484 or 4372 words.  The
    # peak over the grown words and their log determinants stays within
    # what verify_contraction charges for them and its rows.
    model, rng = four_block_model()
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + rng.normal(size=8), np.eye(8))
    memo_conditionals(model, model.partition)  # the model's conditionals, once
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gibbs, "_grow", counting_grow(counts))
        tracemalloc.start()
        try:
            verify_contraction(p0, model, np.ones(4), 0.1, steps=sweeps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sum(counts) == collapsed_word_count(4, sweeps)
    assert peak <= (8 * gibbs._sweep_floats(8, sum(counts))
                    + (sweeps + 1) * lsimodel.ROW_BYTES)


def test_contraction_keeps_no_dense_update_maps():
    # 256 singleton blocks: one sweep of the second moment leaves the
    # model's conditionals (2 m^2 floats) on it, not n dense m x m maps
    m = 256
    model = GibbsModel(partition=BlockPartition(tuple((i,) for i in range(m))),
                       precision=toeplitz_matrix(m, 3.0, {1: 1.0}),
                       mean=np.zeros(m), quartic=np.zeros(m))
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verify_contraction(p0, model, np.ones(m), 0.5, steps=1)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 4 * m * m * 8


def test_sweep_image_holds_the_gathered_covariances_once():
    # d = 8 in four blocks, the 108 newest words grown into 324: each
    # block's gathered batch is pushed into its slice of one stack, so one
    # _grow call peaks at 1.64 d^2 x 8 bytes per grown deviation, its log
    # determinant included (a concatenated stack or an extra copy of it
    # would add one d^2)
    model, rng = four_block_model()
    q = gaussian_target(model)
    pairs = block_pairs(model)
    last, deltas = np.array([-1]), (random_gaussian(rng, 8).cov - q.cov)[None]
    for _ in range(4):
        last, _, deltas, _ = gibbs._grow(last, deltas, pairs,
                                         model.precision)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        blocks, sources, grown, _ = gibbs._grow(last, deltas, pairs,
                                                model.precision)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (len(deltas), len(blocks), len(sources), len(grown)) == (108, 324,
                                                                   324, 324)
    assert peak <= 1.75 * 8 * 8 * 8 * 324


def test_contraction_determinism(model2d):
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [1.0, 1.0])
    a = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=2)
    b = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=2)
    assert a == b


def test_contraction_needs_certificate(model2d, monkeypatch):
    # every rho and rho_k that is no constant is refused before any work
    rho_k, rho = block_lsi_constants(model2d), solve_rho_marton(model2d)
    p0 = shifted_target(model2d, [1.0, 1.0])
    monkeypatch.setattr(gibbs, "charge", must_not_run)
    monkeypatch.setattr(gibbs, "gaussian_target", must_not_run)
    for bad in BAD_RHO:
        with pytest.raises(ValueError, match="rho must be"):
            verify_contraction(p0, model2d, rho_k, bad, steps=1)
    for bad in bad_rho_k(2):
        with pytest.raises(ValueError, match="rho_k must"):
            verify_contraction(p0, model2d, bad, rho, steps=1)


def test_contraction_inflated_rho_reaches_the_check(model2d):
    # at twice the certified rho the factor 1 - rho/R halves to 0.5; from
    # the CLI's start U_1 attains the true bound, so step 1 fails
    rho_k, rho = block_lsi_constants(model2d), solve_rho_marton(model2d)
    p0 = shifted_target(model2d, [1.0, 1.0])
    rows = verify_contraction(p0, model2d, rho_k, 2.0 * rho, steps=1)
    assert rows[0].holds and not rows[1].holds
    assert rows[1].bound == pytest.approx(0.5 * rows[0].value, rel=1e-12)
