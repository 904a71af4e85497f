"""Block Gibbs sampler checks.

The affine-update law is validated against a brute-force sampling oracle
before the entropy identities and contraction bounds are tested.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from lsicert import gibbs
from lsicert.criteria import (block_lsi_constants, criteria_report,
                              solve_rho_marton)
from lsicert.gaussian import GaussianDist, GaussianStack, gaussian_target, kl
from lsicert.gibbs import (
    GaussianMixture,
    MixtureCapError,
    apply_gibbs_block,
    apply_weighted_gibbs,
    collapsed_word_count,
    entropy_drop_identity,
    verify_contraction,
    verify_theorem1,
)
from lsicert.instances import (model_2d, random_certified_model,
                               random_gaussian, random_gaussians, random_spd)
from lsicert.model import BlockPartition, GibbsModel
from lsicert.oracles import quad_kl

from conftest import BAD_RHO, bad_rho_k, must_not_run

ENTROPY_DROP_2D = 0.125  # hand derivation for the two-coordinate model


def shifted_target(model, shift):
    q = gaussian_target(model)
    return GaussianDist(q.mean + np.asarray(shift, dtype=float), q.cov)


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

    image = apply_gibbs_block(GaussianMixture.single(p), model2d, 0)
    assert image.n_components == 1
    g = image.components[0]
    assert_allclose(g.mean, draws.mean(axis=0), atol=0.01)
    assert_allclose(g.cov, np.cov(draws.T), atol=0.02)


def test_block_update_closed_form(model2d):
    p = GaussianDist(np.array([2.0, 4.0]), np.eye(2))
    g = apply_gibbs_block(GaussianMixture.single(p), model2d, 0).components[0]
    # x0 <- 0.5 x1 + xi: mean (2, 4), var of x0 = 0.25 var(x1) + 1
    assert_allclose(g.mean, [2.0, 4.0], atol=1e-12)
    assert_allclose(g.cov, [[1.25, 0.5], [0.5, 1.0]], atol=1e-12)


def test_block_update_fixes_target(model2d):
    q = gaussian_target(model2d)
    for k in (0, 1):
        image = apply_gibbs_block(GaussianMixture.single(q), model2d, k)
        assert kl(image.components[0], q) <= 1e-12


def test_single_block_update_jumps_to_target():
    part = BlockPartition(((0, 1),))
    prec = np.array([[1.0, -0.5], [-0.5, 1.0]])
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(2),
                       quartic=np.zeros(2))
    q = gaussian_target(model)
    p = GaussianDist(np.array([5.0, -3.0]), 4.0 * np.eye(2))
    image = apply_gibbs_block(GaussianMixture.single(p), model, 0)
    assert kl(image.components[0], q) <= 1e-12


def test_block_update_rejects_quartic(model2d, rng):
    from lsicert.instances import random_quartic_model

    model = random_quartic_model(rng, dim=2)
    mix = GaussianMixture.single(random_gaussian(rng, 2))
    with pytest.raises(ValueError):
        apply_gibbs_block(mix, model, 0)


def test_block_update_rejects_wrong_dimension(model2d, rng):
    mix = GaussianMixture.single(random_gaussian(rng, 3))
    with pytest.raises(ValueError, match="dimension"):
        apply_gibbs_block(mix, model2d, 0)


# ---- weighted sweep ----

def test_weighted_sweep_component_layout(model2d):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    p1 = GaussianDist(np.ones(2), np.eye(2))
    mix = GaussianMixture(np.array([0.25, 0.75]),
                          GaussianStack(np.stack([p0.mean, p1.mean]),
                                        np.stack([p0.cov, p1.cov])))
    rho = np.array([3.0, 1.0])
    out = apply_weighted_gibbs(mix, model2d, rho)
    assert out.n_components == 4
    # block-major ordering: block 0 applied to both components first
    assert_allclose(out.weights, [0.75 * 0.25, 0.75 * 0.75,
                                  0.25 * 0.25, 0.25 * 0.75])
    direct0 = apply_gibbs_block(mix, model2d, 0)
    direct1 = apply_gibbs_block(mix, model2d, 1)
    assert_allclose(out.components[1].mean, direct0.components[1].mean)
    assert_allclose(out.components[2].mean, direct1.components[0].mean)


def test_block_update_keeps_updated_components(model2d, rng):
    # Gamma_k Gamma_k = Gamma_k: a second block-k update is the identity
    comps = random_gaussians(rng, 2, 2)
    mix = GaussianMixture(np.array([0.4, 0.6]), comps)
    once = apply_gibbs_block(mix, model2d, 1)
    twice = apply_gibbs_block(once, model2d, 1)
    assert once.words == ((0, 1), (1, 1))
    assert twice.words == once.words
    # kept rows are copied, not pushed again: a second push would move bits
    for name in ("means", "covs", "chols"):
        assert getattr(twice.laws, name).tobytes() == \
            getattr(once.laws, name).tobytes()
    assert_allclose(twice.weights, once.weights)


def naive_sweep(mix, model, rho):
    """Unmerged sweep image: one push per (block, component) pair."""
    share = np.asarray(rho) / np.sum(rho)
    weights, comps = [], []
    for k in range(model.partition.n):
        for w, comp in zip(mix.weights, mix.components):
            image = apply_gibbs_block(GaussianMixture.single(comp), model, k)
            weights.append(share[k] * w)
            comps.append(image.components[0])
    return GaussianMixture(np.array(weights),
                           GaussianStack(np.stack([c.mean for c in comps]),
                                         np.stack([c.cov for c in comps])))


def reference_logpdf(mix, x):
    stacked = np.stack([multivariate_normal(c.mean, c.cov).logpdf(x)
                        for c in mix.components])
    return logsumexp(stacked + np.log(mix.weights)[:, None], axis=0)


def upper_kl(mix, q):
    """U = sum_c w_c D(p_c||q), the closed-form bound on D(mix||q)."""
    return mix.weights @ kl(mix.laws, q)


@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_merged_sweep_matches_naive_law(n_blocks, sweeps, seed):
    rng = np.random.default_rng(seed)
    dim = n_blocks + 1
    part = BlockPartition(tuple((i,) for i in range(n_blocks - 1))
                          + ((n_blocks - 1, n_blocks),))
    model = GibbsModel(partition=part, precision=random_spd(rng, dim),
                       mean=rng.normal(size=dim), quartic=np.zeros(dim))
    rho = rng.uniform(0.5, 2.0, size=n_blocks)
    merged = naive = GaussianMixture.single(random_gaussian(rng, dim))
    for _ in range(sweeps):
        merged = apply_weighted_gibbs(merged, model, rho)
        naive = naive_sweep(naive, model, rho)
    assert naive.n_components == n_blocks ** sweeps
    assert merged.n_components == collapsed_word_count(n_blocks, sweeps) \
        == n_blocks * sum((n_blocks - 1) ** j for j in range(sweeps))
    x = np.vstack([c.sample(rng, 2) for c in naive.components[:25]]
                  + [rng.normal(scale=3.0, size=(50, dim))])
    assert_allclose(reference_logpdf(merged, x), reference_logpdf(naive, x),
                    rtol=1e-10)
    q = gaussian_target(model)
    assert_allclose(upper_kl(merged, q), upper_kl(naive, q), rtol=1e-10)


def test_weighted_sweep_fixes_target(model2d):
    q = gaussian_target(model2d)
    mix = apply_weighted_gibbs(GaussianMixture.single(q), model2d,
                               np.array([1.0, 1.0]))
    assert np.all(kl(mix.laws, q) <= 1e-10)


def test_weighted_sweep_cap(model2d, monkeypatch):
    monkeypatch.setattr(gibbs, "DEFAULT_COMPONENT_CAP", 1)
    mix = GaussianMixture.single(GaussianDist(np.zeros(2), np.eye(2)))
    with pytest.raises(MixtureCapError):
        apply_weighted_gibbs(mix, model2d, np.array([1.0, 1.0]))


def test_weighted_sweep_rejects_bad_weights(model2d):
    mix = GaussianMixture.single(GaussianDist(np.zeros(2), np.eye(2)))
    with pytest.raises(ValueError):
        apply_weighted_gibbs(mix, model2d, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        apply_weighted_gibbs(mix, model2d, np.array([1.0]))


# ---- mixture class ----

def test_mixture_validation():
    g = GaussianStack(np.zeros((2, 1)), np.ones((2, 1, 1)))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.6]), g)
    with pytest.raises(ValueError):
        GaussianMixture(np.array([1.0, 0.0]), g)
    with pytest.raises(ValueError):
        GaussianMixture(np.array([]), GaussianStack(np.zeros((0, 1)),
                                                    np.zeros((0, 1, 1))))


def _laws(*covs):
    covs = np.array(covs, dtype=float)
    return GaussianStack(np.zeros(covs.shape[:2]), covs)


@pytest.mark.parametrize("build, message", [
    (lambda: GaussianMixture([1.0], _laws([[1.0, 0.5], [0.0, 1.0]])),
     "symmetric"),
    (lambda: GaussianMixture([1.0], _laws([[1.0, 2.0], [2.0, 1.0]])),
     "positive definite"),
    (lambda: GaussianMixture([0.5, 0.5], _laws(np.eye(2))),
     "one weight per component"),
    (lambda: GaussianMixture([1.0], _laws(np.eye(2)), words=((0,), (1,))),
     "one word per component"),
    (lambda: GaussianMixture([1.5, -0.5], _laws(np.eye(2), np.eye(2))),
     "must be positive"),
    (lambda: GaussianMixture([0.5, 0.6], _laws(np.eye(2), np.eye(2))),
     "sum to 1"),
    (lambda: GaussianMixture(np.array([]), GaussianStack(np.zeros((0, 2)),
                                                         np.zeros((0, 2, 2)))),
     "at least one"),
])
def test_mixture_refusals(build, message):
    # every law is checked once, by the stack, when the mixture is built
    with pytest.raises(ValueError, match=message):
        build()


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
    chk = entropy_drop_identity(p, model2d, 1)
    assert chk.lhs == pytest.approx(ENTROPY_DROP_2D, abs=1e-12)
    assert abs(chk.gap) <= 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_entropy_drop_identity_random(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    p = random_gaussian(rng, model.dim)
    k = int(rng.integers(0, model.partition.n))
    chk = entropy_drop_identity(p, model, k)
    assert chk.lhs >= -1e-9
    assert abs(chk.gap) <= 1e-9 * (1.0 + abs(chk.lhs))


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


def test_contraction_rows_are_component_divergences(model2d):
    # each row's value is U_m, the weighted closed-form divergence of the
    # step-m mixture's components; from the CLI's start on the 2-d
    # reference, U_1 attains the bound, up to rounding
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [1.0, 1.0])
    q = gaussian_target(model2d)
    rows = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=3)
    mix = GaussianMixture.single(p0)
    for row in rows[1:]:
        mix = apply_weighted_gibbs(mix, model2d, np.asarray(rep.rho_k))
        assert row.value == upper_kl(mix, q)
    assert rows[1].value == pytest.approx(rows[1].bound, rel=1e-14)


def enumerated_values(p0, model, rho_k, steps):
    """U_m for m = 1..steps by enumeration: the exact mixture after each
    sweep, then the weighted closed-form divergence of its components."""
    q = gaussian_target(model)
    mix, values = GaussianMixture.single(p0), []
    for _ in range(steps):
        mix = apply_weighted_gibbs(mix, model, np.asarray(rho_k))
        values.append(upper_kl(mix, q))
    return values


def certified_with_blocks(n_blocks, seed):
    """The first random_certified_model of dimension 2 n_blocks with
    n_blocks blocks in the seed's stream, and the stream."""
    rng = np.random.default_rng(seed)
    while True:
        model = random_certified_model(rng, 2 * n_blocks)
        if model.partition.n == n_blocks:
            return model, rng


@pytest.mark.parametrize("n_blocks, seed", [(None, 0), (2, 0), (2, 1),
                                            (3, 0), (3, 1), (4, 0), (4, 1)])
def test_mean_only_contraction_matches_enumeration(n_blocks, seed,
                                                   monkeypatch):
    # p0 with the target's covariance: verify_contraction builds no
    # mixture, and its rows match the enumerated U_m (None: the 2-d
    # reference)
    if n_blocks is None:
        model, rng = model_2d(), np.random.default_rng(seed)
    else:
        model, rng = certified_with_blocks(n_blocks, seed)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + rng.normal(size=model.dim), q.cov)
    rho_k, rho = block_lsi_constants(model), solve_rho_marton(model)
    monkeypatch.setattr(gibbs, "apply_weighted_gibbs", must_not_run)
    rows = verify_contraction(p0, model, rho_k, rho, steps=5)
    assert rows[0].value == rows[0].bound == kl(p0, q)
    assert_allclose([r.value for r in rows[1:]],
                    enumerated_values(p0, model, rho_k, 5), rtol=1e-12)
    assert all(r.holds for r in rows)


@pytest.mark.parametrize("cov, sweeps", [("target", 0), ("ulp", 3),
                                         ("identity", 3)])
def test_contraction_enumerates_unless_p0_has_the_target_covariance(
        cov, sweeps, monkeypatch):
    model, rng = certified_with_blocks(3, 2)
    q = gaussian_target(model)
    if cov == "target":
        p_cov = q.cov
    elif cov == "ulp":
        p_cov = q.cov.copy()
        p_cov[0, 0] = np.nextafter(p_cov[0, 0], np.inf)
    else:
        p_cov = np.eye(model.dim)
    p0 = GaussianDist(q.mean + rng.normal(size=model.dim), p_cov)
    if cov == "ulp":
        assert np.count_nonzero(p0.cov != q.cov) == 1
    calls = []
    sweep = gibbs.apply_weighted_gibbs

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(gibbs, "apply_weighted_gibbs", counted)
    rho_k, rho = block_lsi_constants(model), solve_rho_marton(model)
    rows = verify_contraction(p0, model, rho_k, rho, steps=3)
    assert len(calls) == sweeps
    assert_allclose([r.value for r in rows[1:]],
                    enumerated_values(p0, model, rho_k, 3), rtol=1e-12)


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
    mix = GaussianMixture.single(p0)
    for row in rows[1:]:
        mix = apply_weighted_gibbs(mix, model2d, np.asarray(rep.rho_k))
        exact = quad_kl(lambda pts, mix=mix: np.exp(reference_logpdf(mix, pts)),
                        multivariate_normal(q.mean, q.cov).pdf,
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


def test_contraction_cap_fallback(model2d, monkeypatch):
    monkeypatch.setattr(gibbs, "DEFAULT_COMPONENT_CAP", 4)
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [2.0, -1.0])
    with pytest.raises(MixtureCapError):
        verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=4)


def test_contraction_fallback_respects_byte_budget(model2d, monkeypatch):
    # room for 5 components of 2 x 2: steps 1 and 2 (2 and 4 components)
    # fit, step 3 (6 components) is refused before any sweep
    monkeypatch.setattr(gibbs, "MIXTURE_BYTE_BUDGET",
                        5 * gibbs._component_bytes(2))
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [2.0, -1.0])
    with pytest.raises(MixtureCapError):
        verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=3)
    rows = verify_contraction(p0, model2d, rep.rho_k, rep.rho_marton, steps=2)
    assert [r.param for r in rows] == ["step=0", "step=1", "step=2"]


@pytest.mark.parametrize("sweeps", [5, 7])
def test_sweep_and_kl_peak_within_component_budget(sweeps):
    # d = 8 in four blocks: 484 or 4372 components.  The peak over the
    # sweeps and the closed-form divergence pass, source mixture included,
    # stays within what the budget check charges per component.
    rng = np.random.default_rng(3)
    part = BlockPartition(((0, 1), (2, 3), (4, 5), (6, 7)))
    model = GibbsModel(partition=part, precision=random_spd(rng, 8),
                       mean=rng.normal(size=8), quartic=np.zeros(8))
    q = gaussian_target(model)
    tracemalloc.start()
    try:
        mix = GaussianMixture.single(random_gaussian(rng, 8))
        for _ in range(sweeps):
            mix = apply_weighted_gibbs(mix, model, np.ones(4))
        upper_kl(mix, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mix.n_components == collapsed_word_count(4, sweeps)
    assert peak <= mix.n_components * gibbs._component_bytes(8)


def test_sweep_image_holds_the_gathered_covariances_once():
    # d = 8 in four blocks, 160 components to 484: the image stack keeps
    # the gathered covariances, so the sweep peaks near 3 d^2 x 8 bytes
    # per image component, words included
    rng = np.random.default_rng(3)
    part = BlockPartition(((0, 1), (2, 3), (4, 5), (6, 7)))
    model = GibbsModel(partition=part, precision=random_spd(rng, 8),
                       mean=rng.normal(size=8), quartic=np.zeros(8))
    mix = GaussianMixture.single(random_gaussian(rng, 8))
    for _ in range(4):
        mix = apply_weighted_gibbs(mix, model, np.ones(4))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        image = apply_weighted_gibbs(mix, model, np.ones(4))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert image.n_components == 484
    assert image.laws.covs.flags.writeable is False
    assert peak <= 3.5 * 8 * 8 * 8 * image.n_components


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
    monkeypatch.setattr(gibbs, "_check_budget", must_not_run)
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
