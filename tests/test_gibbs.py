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

from lsicert import gibbs
from lsicert.criteria import CertificateError, criteria_report
from lsicert.gaussian import GaussianDist, GaussianStack, gaussian_target, kl
from lsicert.gibbs import (
    GaussianMixture,
    MixtureCapError,
    apply_gibbs_block,
    apply_weighted_gibbs,
    collapsed_word_count,
    entropy_drop_identity,
    kl_mixture_mc,
    verify_contraction,
    verify_theorem1,
)
from lsicert.instances import (random_certified_model, random_gaussian,
                               random_spd)
from lsicert.model import BlockPartition, GibbsModel
from lsicert.oracles import quad_kl

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


# ---- weighted sweep ----

def test_weighted_sweep_component_layout(model2d):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    p1 = GaussianDist(np.ones(2), np.eye(2))
    mix = GaussianMixture.from_components(np.array([0.25, 0.75]), (p0, p1))
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
    comps = (random_gaussian(rng, 2), random_gaussian(rng, 2))
    mix = GaussianMixture.from_components(np.array([0.4, 0.6]), comps)
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
    return GaussianMixture.from_components(np.array(weights), tuple(comps))


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
    x = np.vstack([naive.sample(rng, 50), rng.normal(scale=3.0,
                                                     size=(50, dim))])
    assert_allclose(merged.logpdf(x), naive.logpdf(x), rtol=1e-10)


def test_weighted_sweep_fixes_target(model2d):
    q = gaussian_target(model2d)
    mix = apply_weighted_gibbs(GaussianMixture.single(q), model2d,
                               np.array([1.0, 1.0]))
    est = kl_mixture_mc(mix, q, 2000, seed=7)
    assert abs(est.estimate) <= 1e-10
    assert est.std_error <= 1e-10


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


# ---- mixture class and Monte Carlo divergence ----

def test_mixture_validation():
    g = GaussianDist(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        GaussianMixture.from_components(np.array([0.5, 0.6]), (g, g))
    with pytest.raises(ValueError):
        GaussianMixture.from_components(np.array([1.0, 0.0]), (g, g))
    with pytest.raises(ValueError):
        GaussianMixture.from_components(np.array([]), ())
    for dim, cols in ((1, 2), (2, 1), (2, 3)):
        mix = GaussianMixture.single(GaussianDist(np.zeros(dim), np.eye(dim)))
        with pytest.raises(ValueError):
            mix.logpdf(np.zeros((4, cols)))


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


def test_mixture_logpdf_matches_manual():
    a = GaussianDist(np.array([0.0]), np.eye(1))
    b = GaussianDist(np.array([3.0]), 2.0 * np.eye(1))
    mix = GaussianMixture.from_components(np.array([0.3, 0.7]), (a, b))
    x = np.array([[0.5], [2.0]])
    manual = np.log(0.3 * np.exp(a.logpdf(x)) + 0.7 * np.exp(b.logpdf(x)))
    assert_allclose(mix.logpdf(x), manual, atol=1e-12)


def reference_logpdf(mix, x):
    stacked = np.stack([c.logpdf(x) for c in mix.components])
    return logsumexp(stacked + np.log(mix.weights)[:, None], axis=0)


@pytest.mark.parametrize("dim,n_comp,chunks",
                         [(1, 1, 0), (1, 5, 0), (3, 1, 0), (4, 7, 0),
                          (6, 300, 2)])
def test_mixture_logpdf_matches_reference(dim, n_comp, chunks, rng):
    # chunks > 0: enough rows to fill that many full row chunks and more
    comps = tuple(random_gaussian(rng, dim) for _ in range(n_comp))
    weights = rng.uniform(0.1, 1.0, size=n_comp)
    mix = GaussianMixture.from_components(weights / weights.sum(), comps)
    n_feat = dim * (dim + 1) // 2 + dim + 1
    rows_per_chunk = gibbs._LOGPDF_CHUNK_BYTES // (8 * max(n_comp, n_feat))
    x = rng.normal(scale=4.0, size=(chunks * rows_per_chunk + 300, dim))
    assert_allclose(mix.logpdf(x), reference_logpdf(mix, x), rtol=1e-10)
    assert_allclose(mix.logpdf(x[0]), reference_logpdf(mix, x[:1]),
                    rtol=1e-10)


def test_reused_chunk_buffers_match_reference(rng, monkeypatch):
    # small chunks: one call spans several full chunks, a short tail and
    # two centre groups, so the shared working blocks are reused by every
    # chunk and group, and the tail reads only its own columns
    dim, n_comp = 3, 4
    comps = tuple(GaussianDist(rng.normal(scale=1e3 if c % 2 else 1.0,
                                          size=dim),
                               0.5 * random_gaussian(rng, dim).cov)
                  for c in range(n_comp))
    weights = rng.uniform(0.1, 1.0, size=n_comp)
    mix = GaussianMixture.from_components(weights / weights.sum(), comps)
    n_feat = dim * (dim + 1) // 2 + dim + 1
    monkeypatch.setattr(gibbs, "_LOGPDF_CHUNK_BYTES", 8 * n_feat * 7)
    assert len(mix._gram[1]) >= 2
    x = np.vstack([mix.sample(rng, 30), rng.normal(scale=3.0, size=(3, dim))])
    assert x.shape[0] % 7 == 5  # four full chunks of 7 rows, tail of 5
    ref = reference_logpdf(mix, x)
    assert_allclose(mix.logpdf(x), ref, rtol=1e-12)


def test_spread_mixture_logpdf_matches_reference(rng):
    # means 1e3 apart at scale 1e-2: one shared centre would round the
    # expanded quadratic forms to ~1e-5, so each component needs its own
    dim, n_comp = 4, 5
    comps = []
    for _ in range(n_comp):
        a = rng.normal(size=(dim, dim))
        cov = 1e-4 * (a @ a.T / dim + np.eye(dim))
        comps.append(GaussianDist(rng.normal(scale=1e3, size=dim), cov))
    weights = rng.uniform(0.1, 1.0, size=n_comp)
    mix = GaussianMixture.from_components(weights / weights.sum(), comps)
    x = np.vstack([mix.sample(rng, 400),
                   rng.normal(scale=3e3, size=(400, dim))])
    ref = reference_logpdf(mix, x)
    assert np.all(np.abs(mix.logpdf(x) - ref) <= 1e-10 * (1.0 + np.abs(ref)))
    assert len(mix._gram[1]) == n_comp


def gram_form_of(dists, log_weights):
    """gibbs._gram_form of the stacked factors of the GaussianDists dists."""
    return gibbs._gram_form(np.stack([g.mean for g in dists]),
                            np.stack([g.chol for g in dists]),
                            np.array([g.log_det_cov for g in dists]),
                            log_weights)


def test_fused_target_ratio_matches_logpdf_difference(rng):
    # kl_mixture_mc's single pass, with q as row 0, against two densities
    q = random_gaussian(rng, 3)
    comps = tuple(GaussianDist(q.mean + rng.normal(scale=2.0, size=3),
                               random_gaussian(rng, 3).cov) for _ in range(6))
    weights = rng.uniform(0.1, 1.0, size=6)
    mix = GaussianMixture.from_components(weights / weights.sum(), comps)
    x = mix.sample(rng, 2000)
    form = gram_form_of((q,) + comps, np.append(0.0, np.log(mix.weights)))
    fused = gibbs._gram_logsumexp(*form, x, target=True)
    log_p, log_q = mix.logpdf(x), q.logpdf(x)
    # relative to the two log densities: their difference crosses zero
    assert np.all(np.abs(fused - (log_p - log_q))
                  <= 1e-12 * (np.abs(log_p) + np.abs(log_q)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweeps_of_four_block_model_form_one_centre_group(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng, dim=8)
    while model.partition.n != 4:
        model = random_certified_model(rng, dim=8)
    rep = criteria_report(model)
    q = gaussian_target(model)
    mix = GaussianMixture.single(GaussianDist(q.mean + 1.0, q.cov))
    for _ in range(4):
        mix = apply_weighted_gibbs(mix, model, np.asarray(rep.rho_k))
        form = gram_form_of((q,) + mix.components,
                            np.append(0.0, np.log(mix.weights)))
        assert len(form[1]) == 1 and len(mix._gram[1]) == 1


def test_mixture_sample_matches_per_component_draws(rng):
    comps = tuple(random_gaussian(rng, 3) for _ in range(5))
    weights = rng.uniform(0.1, 1.0, size=5)
    mix = GaussianMixture.from_components(weights / weights.sum(), comps)
    seed = int(rng.integers(2 ** 32))
    ref_rng = np.random.default_rng(seed)
    counts = ref_rng.multinomial(1000, mix.weights)
    ref = np.vstack([c.sample(ref_rng, int(n)) for c, n in zip(comps, counts)
                     if n > 0])
    got = mix.sample(np.random.default_rng(seed), 1000)
    assert got.tobytes() == ref.tobytes()


def test_kl_mixture_mc_matches_closed_form(model2d):
    q = gaussian_target(model2d)
    p = shifted_target(model2d, [1.0, 1.0])
    exact = kl(p, q)
    est = kl_mixture_mc(GaussianMixture.single(p), q, 40_000, seed=11)
    assert abs(est.estimate - exact) <= 4.0 * est.std_error + 1e-12


def test_kl_mixture_mc_matches_quadrature_oracle():
    a = GaussianDist(np.array([-1.0]), np.eye(1))
    b = GaussianDist(np.array([2.0]), 0.5 * np.eye(1))
    mix = GaussianMixture.from_components(np.array([0.4, 0.6]), (a, b))
    q = GaussianDist(np.array([0.0]), 2.0 * np.eye(1))
    oracle = quad_kl(lambda pts: np.exp(mix.logpdf(pts)),
                     lambda pts: np.exp(q.logpdf(pts)),
                     [(-12, 12)], 8001)
    est = kl_mixture_mc(mix, q, 60_000, seed=3)
    assert abs(est.estimate - oracle) <= 4.0 * est.std_error + 1e-6


def test_kl_mixture_mc_convexity_bound(model2d):
    q = gaussian_target(model2d)
    comps = (shifted_target(model2d, [1.0, 0.0]),
             shifted_target(model2d, [-2.0, 1.0]))
    mix = GaussianMixture.from_components(np.array([0.5, 0.5]), comps)
    upper = 0.5 * kl(comps[0], q) + 0.5 * kl(comps[1], q)
    est = kl_mixture_mc(mix, q, 40_000, seed=5)
    assert est.estimate - 4.0 * est.std_error <= upper


def test_kl_mixture_mc_determinism_and_min_samples(model2d):
    q = gaussian_target(model2d)
    mix = GaussianMixture.single(shifted_target(model2d, [1.0, 0.0]))
    a = kl_mixture_mc(mix, q, 2000, seed=9)
    b = kl_mixture_mc(mix, q, 2000, seed=9)
    assert a.estimate == b.estimate and a.std_error == b.std_error
    with pytest.raises(ValueError):
        kl_mixture_mc(mix, q, 999, seed=9)


# ---- entropy inequalities ----

def test_theorem1_tight_case(model2d):
    rep = criteria_report(model2d)
    p = shifted_target(model2d, [1.0, 1.0])
    chk = verify_theorem1(p, model2d, rep)
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
    chk = verify_theorem1(p, model, rep)
    assert chk.holds, (chk.value, chk.bound)


def test_theorem1_needs_certificate(model2d):
    from dataclasses import replace

    rep = replace(criteria_report(model2d), rho_marton=None, certified=False)
    with pytest.raises(CertificateError):
        verify_theorem1(gaussian_target(model2d), model2d, rep)


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
    rows = verify_contraction(p0, model2d, rep, steps=4, nsamples=5000,
                              seed=42)
    d0 = kl(p0, gaussian_target(model2d))
    assert rows[0].value == pytest.approx(d0, abs=1e-12)
    assert rows[0].tolerance == 0.0
    for m, row in enumerate(rows):
        assert (row.check, row.param) == ("gibbs", f"step={m}")
        assert row.bound == pytest.approx(0.75 ** m * d0, rel=1e-12)
        assert row.holds


def test_contraction_estimates_track_exact_kl(model2d):
    # with the mixture law exact, each estimate must sit within 4 SE of
    # the directly computable divergence of the step-m mixture
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [2.0, 0.0])
    q = gaussian_target(model2d)
    rows = verify_contraction(p0, model2d, rep, steps=3, nsamples=20_000,
                              seed=1)
    mix = GaussianMixture.single(p0)
    for step, row in enumerate(rows[1:], start=1):
        mix = apply_weighted_gibbs(mix, model2d, np.asarray(rep.rho_k))
        check = kl_mixture_mc(mix, q, 50_000, seed=123 + step)
        # the row's tolerance is 3 SE of its estimate
        assert abs(row.value - check.estimate) <= \
            4.0 * (row.tolerance / 3.0 + check.std_error)


def test_contraction_cap_fallback(model2d, monkeypatch):
    monkeypatch.setattr(gibbs, "DEFAULT_COMPONENT_CAP", 4)
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [2.0, -1.0])
    with pytest.raises(MixtureCapError):
        verify_contraction(p0, model2d, rep, steps=4, nsamples=1000, seed=0)


def test_contraction_fallback_respects_byte_budget(model2d, monkeypatch):
    # room for 5 components of 2 x 2: steps 1 and 2 (2 and 4 components)
    # fit, step 3 (6 components) is refused before any sweep
    monkeypatch.setattr(gibbs, "MIXTURE_BYTE_BUDGET",
                        gibbs._charged_bytes(5, 2))
    rep = criteria_report(model2d)
    p0 = shifted_target(model2d, [2.0, -1.0])
    with pytest.raises(MixtureCapError):
        verify_contraction(p0, model2d, rep, steps=3, nsamples=1000, seed=0)
    rows = verify_contraction(p0, model2d, rep, steps=2, nsamples=1000,
                              seed=0)
    assert [r.param for r in rows] == ["step=0", "step=1", "step=2"]


def test_byte_budget_charges_the_density_working_blocks(monkeypatch):
    # four components fit on their per-component charge alone, but not
    # with the density's two working blocks on top
    monkeypatch.setattr(gibbs, "MIXTURE_BYTE_BUDGET",
                        4 * gibbs._component_bytes(2)
                        + gibbs._LOGPDF_CHUNK_BYTES)
    monkeypatch.setattr(gibbs, "DEFAULT_COMPONENT_CAP", 100)
    with pytest.raises(MixtureCapError):
        gibbs._check_budget(4, 2)


@pytest.mark.parametrize("sweeps", [5, 7])
def test_sweep_and_mc_peak_within_component_budget(sweeps):
    # d = 8 in four blocks: 484 or 4372 components.  The peak over the
    # sweeps and the Monte Carlo pass, source mixture included, stays
    # within what the budget check charges: the per-component peak plus
    # the density's working blocks, which do not grow with the count.
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
        kl_mixture_mc(mix, q, gibbs.MIN_MC_SAMPLES, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mix.n_components == collapsed_word_count(4, sweeps)
    assert peak <= gibbs._charged_bytes(mix.n_components, 8)


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
    a = verify_contraction(p0, model2d, rep, steps=2, nsamples=1500, seed=6)
    b = verify_contraction(p0, model2d, rep, steps=2, nsamples=1500, seed=6)
    assert a == b


def test_contraction_needs_certificate(model2d):
    from dataclasses import replace

    rep = replace(criteria_report(model2d), rho_marton=None, certified=False)
    with pytest.raises(CertificateError):
        verify_contraction(gaussian_target(model2d), model2d, rep,
                           steps=1, nsamples=1000, seed=0)
