"""Checks of the independent estimators themselves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import multivariate_normal

from lsicert import oracles
from lsicert.criteria import (CertificateError, block_lsi_constants,
                              criteria_report, solve_rho_marton)
from lsicert.gaussian import GaussianDist, gaussian_target, kl, w2
from lsicert.instances import (
    random_certified_model,
    random_gaussian,
    random_quartic_model,
)
from lsicert.model import BlockPartition, GibbsModel
from lsicert.oracles import prop4_check, transport_check

from conftest import BAD_RHO, bad_rho_k, batching_cases, must_not_run
from reference import (QuadratureError, bisect_rho_marton, fisher,
                       quad_fisher, quad_kl, random_attractive_chain,
                       w2_empirical_1d)


def gauss_density(g):
    return multivariate_normal(g.mean, g.cov).pdf


# ---- quadrature ----

def test_quad_rejects_undersized_box():
    # a law against itself integrates to 0 on a box that holds it; a box
    # that misses p's mass is refused, not integrated
    g = GaussianDist(np.zeros(1), np.eye(1))
    assert quad_kl(gauss_density(g), gauss_density(g), [(-10, 10)], 801) \
        == pytest.approx(0.0, abs=1e-10)
    p = GaussianDist(np.array([5.0]), np.eye(1))
    with pytest.raises(QuadratureError):
        quad_kl(gauss_density(p), gauss_density(g), [(-3, 3)], 801)


def test_quad_rejects_bad_setup():
    g = GaussianDist(np.zeros(4), np.eye(4))
    with pytest.raises(ValueError):
        quad_kl(gauss_density(g), gauss_density(g), [(-5, 5)] * 4, 64)
    g1 = GaussianDist(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        quad_kl(gauss_density(g1), gauss_density(g1), [(-5, 5)], 4)
    with pytest.raises(ValueError):
        quad_kl(gauss_density(g1), gauss_density(g1), [(5, -5)], 64)


def test_quad_3d_agreement():
    rng = np.random.default_rng(0)
    p = random_gaussian(rng, 3)
    p = GaussianDist(0.3 * p.mean, p.cov)
    q = random_gaussian(rng, 3)
    q = GaussianDist(0.3 * q.mean, q.cov)
    box = [(-9, 9)] * 3
    assert quad_kl(gauss_density(p), gauss_density(q), box, 161) == \
        pytest.approx(kl(p, q), abs=2e-4)
    assert quad_fisher(gauss_density(p), gauss_density(q), box, 161) == \
        pytest.approx(fisher(p, q), abs=5e-3)


def test_empirical_w2_matches_closed_form():
    rng = np.random.default_rng(1)
    p = GaussianDist(np.array([1.0]), np.array([[2.0]]))
    q = GaussianDist(np.array([0.0]), np.array([[1.0]]))
    n = 200_000
    est = w2_empirical_1d(p.sample(rng, n), q.sample(rng, n))
    assert est == pytest.approx(w2(p, q), abs=0.02)


def test_empirical_w2_input_checks():
    with pytest.raises(ValueError):
        w2_empirical_1d(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        w2_empirical_1d(np.zeros(0), np.zeros(0))


# ---- transport inequality ----

def test_transport_reference(model2d):
    rep = criteria_report(model2d)
    p = GaussianDist(np.array([1.0, 1.0]), gaussian_target(model2d).cov)
    res = transport_check(p, model2d, rep.rho_marton)
    assert res.holds
    assert (res.check, res.param, res.tolerance) == ("transport", "", 1e-9)
    assert res.value <= res.bound


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_transport_random_pairs(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    rep = criteria_report(model)
    p = random_gaussian(rng, model.dim)
    res = transport_check(p, model, rep.rho_marton)
    assert res.holds, (res.value, res.bound)


def test_transport_near_tight_on_soft_eigendirection(rng):
    # a small mean shift along the bottom eigenvector of K saturates the
    # inequality when the certified constant equals lambda_min
    model = random_attractive_chain(rng, n=5)
    rep = criteria_report(model)
    w, vecs = np.linalg.eigh(model.precision)
    assert rep.rho_marton == pytest.approx(float(w[0]), abs=1e-8)
    q = gaussian_target(model)
    p = GaussianDist(q.mean + 1e-3 * vecs[:, 0], q.cov)
    res = transport_check(p, model, rep.rho_marton)
    assert res.holds
    assert res.value >= 0.99 * res.bound


def test_transport_needs_certificate(model2d, monkeypatch):
    # every rho that is no constant is refused before any work
    p = GaussianDist(np.array([1.0, 1.0]), gaussian_target(model2d).cov)
    monkeypatch.setattr(oracles, "gaussian_target", must_not_run)
    for bad in BAD_RHO:
        with pytest.raises(ValueError, match="rho must be"):
            transport_check(p, model2d, bad)


def test_transport_inflated_rho_reaches_the_check(model2d):
    # a rho above the true constant is no input error: a mean shift along
    # the softest direction gives W2^2 = (2/rho) D at the true rho, so
    # twice it fails the check
    q = gaussian_target(model2d)
    p = GaussianDist(q.mean + np.array([1.0, 1.0]), q.cov)
    rho = solve_rho_marton(model2d)
    assert transport_check(p, model2d, rho).holds
    res = transport_check(p, model2d, 2.0 * rho)
    assert not res.holds
    assert res.bound == pytest.approx(0.5 * res.value, rel=1e-9)


# ---- block mean-shift comparison ----

def test_prop4_reference(model2d):
    rep = criteria_report(model2d)
    first, second = prop4_check(model2d, rep.rho_k, rep.delta, np.zeros(2),
                                np.array([0.0, 2.0]))
    assert [(c.check, c.param, c.tolerance) for c in (first, second)] == [
        ("prop4", "w2_vs_kl", 1e-9), ("prop4", "kl_vs_quadratic", 1e-9)]
    # conditional means shift by 0.5 * 2 = 1 in block 0 only
    assert first.value == pytest.approx(1.0, abs=1e-12)
    assert first.bound == second.value == pytest.approx(1.0, abs=1e-12)
    assert second.bound == pytest.approx(1.0, abs=1e-12)
    assert first.holds and second.holds


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_prop4_random_points(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    rep = criteria_report(model)
    z = rng.normal(scale=2.0, size=model.dim)
    u = rng.normal(scale=2.0, size=model.dim)
    for chk in prop4_check(model, rep.rho_k, rep.delta, z, u):
        assert chk.holds, chk


def _prop4_models():
    rng = np.random.default_rng(5)
    return {name: GibbsModel(partition=part, precision=prec,
                             mean=rng.normal(size=part.dim),
                             quartic=np.zeros(part.dim))
            for name, (prec, part) in batching_cases().items()}


PROP4_MODELS = _prop4_models()


@pytest.mark.parametrize("name", sorted(PROP4_MODELS))
def test_prop4_matches_per_block_loop(name):
    model = PROP4_MODELS[name]
    part, prec = model.partition, model.precision
    rng = np.random.default_rng(9)
    rho_k = tuple(rng.uniform(0.5, 2.0, size=part.n))
    z, u = rng.normal(size=(2, model.dim))
    lhs = mid = rhs = 0.0
    for k in range(part.n):
        idx, rest = part.block(k), part.complement(k)
        prec_kk = prec[np.ix_(idx, idx)]
        shift = -np.linalg.inv(prec_kk) @ prec[np.ix_(idx, rest)] @ (z - u)[rest]
        lhs += rho_k[k] * float(shift @ shift)
        mid += float(shift @ prec_kk @ shift)
        rhs += rho_k[k] * float((z - u)[idx] @ (z - u)[idx])
    first, second = prop4_check(model, rho_k, 0.3, z, u)
    assert first.bound == second.value
    assert_allclose([first.value, first.bound, second.bound],
                    [lhs, mid, 0.49 * rhs], rtol=1e-12, atol=0)


def test_prop4_needs_margin(model2d, monkeypatch):
    # delta <= 0 is no margin, delta = 1 - ||A0|| is never above 1 (where
    # (1 - delta)^2 grows again) nor NaN or infinite, and every rho_k that
    # is no constant is refused, before any work
    rho_k = block_lsi_constants(model2d)
    z, u = np.zeros(2), np.ones(2)
    monkeypatch.setattr(oracles, "memo_conditionals", must_not_run)
    for delta in (0.0, -0.5):
        with pytest.raises(CertificateError, match="delta <= 0"):
            prop4_check(model2d, rho_k, delta, z, u)
    for delta in (np.inf, -np.inf, np.nan, 1.9, 2.0, 1.0 + 1e-15):
        with pytest.raises(ValueError, match="at most 1"):
            prop4_check(model2d, rho_k, delta, np.array([3.0, -2.0]), z)
    for bad in bad_rho_k(2):
        with pytest.raises(ValueError, match="rho_k must"):
            prop4_check(model2d, bad, 0.5, z, u)


def test_prop4_refuses_quartic_model(rng):
    model = random_quartic_model(rng, dim=4)
    with pytest.raises(ValueError, match="Gaussian model"):
        prop4_check(model, block_lsi_constants(model), 0.5, np.zeros(4),
                    np.ones(4))


def test_bisect_rho_marton_without_cross_blocks_or_margin():
    # with no cross block A^rho = 0 is feasible up to min rho_k, which is
    # returned exactly; a block constant <= 0 leaves no feasible rho
    prec = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    model = GibbsModel(BlockPartition(((0, 1), (2,))), prec, np.zeros(3),
                       np.zeros(3))
    assert bisect_rho_marton(model) == block_lsi_constants(model).min()
    bad = GibbsModel(BlockPartition(((0,), (1,))), np.diag([-1.0, 1.0]),
                     np.zeros(2), np.ones(2))
    assert bisect_rho_marton(bad) is None


def test_prop4_input_checks(model2d):
    rep = criteria_report(model2d)
    with pytest.raises(ValueError):
        prop4_check(model2d, rep.rho_k, rep.delta, np.zeros(3), np.zeros(2))
