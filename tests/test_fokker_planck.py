"""Diffusion entropy-flow checks.

The closed-form moment evolution is validated against an in-test
Runge-Kutta integration of the moment ODEs before everything built on
top of it is exercised.
"""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lsicert import fokker_planck
from lsicert.fokker_planck import (
    EntropyTrace,
    StepSizeError,
    curvature_bound,
    dissipation_check,
    entropy_trace,
    gaussian_fp_evolve,
    langevin_particles,
)
from lsicert.gaussian import GaussianDist, gaussian_target, kl
from lsicert.instances import (random_certified_model, random_gaussian,
                               random_quartic_model)
from lsicert.model import (BlockPartition, GibbsModel, grad_potential,
                           model_from_dict)

from conftest import BAD_RHO, must_not_run
from reference import fisher


def one_dim_model():
    part = BlockPartition(((0,),))
    return GibbsModel(partition=part, precision=np.array([[1.0]]),
                      mean=np.zeros(1), quartic=np.zeros(1))


def rk4_moments(p0, model, t_end, nsteps=4000):
    # oracle: integrate mu' = -K(mu - m), S' = -KS - SK + 2I
    K = model.precision
    m = model.mean
    h = t_end / nsteps
    mu = np.array(p0.mean)
    S = np.array(p0.cov)

    def f(mu, S):
        return -K @ (mu - m), -K @ S - S @ K + 2.0 * np.eye(model.dim)

    for _ in range(nsteps):
        k1m, k1s = f(mu, S)
        k2m, k2s = f(mu + 0.5 * h * k1m, S + 0.5 * h * k1s)
        k3m, k3s = f(mu + 0.5 * h * k2m, S + 0.5 * h * k2s)
        k4m, k4s = f(mu + h * k3m, S + h * k3s)
        mu = mu + h / 6.0 * (k1m + 2 * k2m + 2 * k3m + k4m)
        S = S + h / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
    return mu, S


# ---- closed-form evolution ----

def test_evolve_matches_rk4_oracle(model2d):
    p0 = GaussianDist(np.array([2.0, -1.0]),
                      np.array([[0.5, 0.1], [0.1, 0.7]]))
    for t in (0.3, 1.0, 2.5):
        mu_o, S_o = rk4_moments(p0, model2d, t)
        g = gaussian_fp_evolve(p0, model2d, t)
        assert_allclose(g.mean, mu_o, atol=1e-8)
        assert_allclose(g.cov, S_o, atol=1e-8)


def test_evolve_time_zero_is_identity(model2d):
    p0 = GaussianDist(np.array([1.0, 1.0]), np.eye(2))
    assert gaussian_fp_evolve(p0, model2d, 0.0) is p0


def test_evolve_fixes_target(model2d):
    q = gaussian_target(model2d)
    g = gaussian_fp_evolve(q, model2d, 1.7)
    assert kl(g, q) <= 1e-12


@pytest.mark.parametrize("t", [0.3, 1.7, 40.0])
def test_evolve_keeps_the_target_bit_for_bit(model2d, t):
    # the flow moves the deviation from q, which is 0 at q itself
    for model in (model2d, random_certified_model(np.random.default_rng(7),
                                                  dim=16)):
        q = gaussian_target(model)
        g = gaussian_fp_evolve(q, model, t)
        assert g.mean.tobytes() == q.mean.tobytes()
        assert g.cov.tobytes() == q.cov.tobytes()


def test_evolve_semigroup(model2d):
    p0 = GaussianDist(np.array([3.0, 0.0]), 0.5 * np.eye(2))
    direct = gaussian_fp_evolve(p0, model2d, 1.3)
    halfway = gaussian_fp_evolve(gaussian_fp_evolve(p0, model2d, 0.8),
                                 model2d, 0.5)
    assert_allclose(direct.mean, halfway.mean, atol=1e-10)
    assert_allclose(direct.cov, halfway.cov, atol=1e-10)


def test_evolve_converges_to_target(model2d):
    p0 = GaussianDist(np.array([4.0, -4.0]), 3.0 * np.eye(2))
    lam_min = float(np.linalg.eigvalsh(model2d.precision)[0])
    g = gaussian_fp_evolve(p0, model2d, 20.0 / lam_min)
    assert kl(g, gaussian_target(model2d)) <= 1e-6


def test_evolve_rejects_bad_input(model2d):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        gaussian_fp_evolve(p0, model2d, -0.1)
    with pytest.raises(ValueError):
        gaussian_fp_evolve(GaussianDist(np.zeros(3), np.eye(3)), model2d, 1.0)


def test_closed_form_flow_refuses_quartic_model(rng):
    model = random_quartic_model(rng, dim=2)
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="Gaussian model"):
        gaussian_fp_evolve(p0, model, 1.0)
    with pytest.raises(ValueError, match="Gaussian model"):
        entropy_trace(p0, model, np.linspace(0.0, 1.0, 11))


# ---- entropy trace ----

def test_one_dim_trace_closed_form():
    # N(2, 1) flowing to N(0, 1): D(t) = 2 e^{-2t}, I(t) = 4 e^{-2t}
    model = one_dim_model()
    p0 = GaussianDist(np.array([2.0]), np.eye(1))
    times = np.linspace(0.0, 3.0, 301)
    trace = entropy_trace(p0, model, times, rho=1.0)
    assert_allclose(trace.kl_values, 2.0 * np.exp(-2.0 * times), atol=1e-10)
    assert_allclose(trace.fisher_values, 4.0 * np.exp(-2.0 * times),
                    atol=1e-10)
    assert_allclose(trace.lsi_bound, trace.kl_values, atol=1e-10)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20)
def test_trace_matches_pointwise_functionals(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    p0 = random_gaussian(rng, model.dim)
    q = gaussian_target(model)
    times = np.linspace(0.0, 2.0, 9)
    trace = entropy_trace(p0, model, times)
    for i, t in enumerate(times):
        g = gaussian_fp_evolve(p0, model, float(t))
        assert trace.kl_values[i] == pytest.approx(kl(g, q), rel=1e-9,
                                                   abs=1e-11)
        assert trace.fisher_values[i] == pytest.approx(fisher(g, q),
                                                       rel=1e-9, abs=1e-11)


def slogdet_trace(p0, model, times):
    # reference: every evolved covariance at once, log det by LU and the
    # Fisher covariance term from the general inverse of each covariance
    w, vecs = np.linalg.eigh(model.precision)
    d = model.dim
    mu0 = vecs.T @ (p0.mean - model.mean)
    sig0 = vecs.T @ p0.cov @ vecs
    decay = np.exp(-np.outer(times, w))
    means = decay * mu0
    covs = (decay[:, :, None] * decay[:, None, :]) * (sig0 - np.diag(1 / w))
    covs[:, np.arange(d), np.arange(d)] += 1 / w
    sign, logdets = np.linalg.slogdet(covs)
    assert np.all(sign > 0)
    kls = 0.5 * (np.einsum('tii,i->t', covs, w) - d
                 + np.einsum('ti,i,ti->t', means, w, means)
                 - np.sum(np.log(w)) - logdets)
    smat = np.diag(w) - np.linalg.inv(covs)
    fis = (np.einsum('tij,tji->t', smat @ covs, smat)
           + np.einsum('ti,i,i,ti->t', means, w, w, means))
    return np.maximum(kls, 0.0), np.maximum(fis, 0.0)


def trace_test_model(rng, dim):
    if dim > 1:
        return random_certified_model(rng, dim=dim)
    return GibbsModel(partition=BlockPartition(((0,),)),
                      precision=np.array([[rng.uniform(0.5, 2.5)]]),
                      mean=rng.normal(size=1), quartic=np.zeros(1))


@pytest.mark.parametrize("dim", range(1, 33))
def test_trace_matches_slogdet_reference(dim):
    rng = np.random.default_rng(1000 + dim)
    model = trace_test_model(rng, dim)
    q = gaussian_target(model)
    cli_p0 = GaussianDist(q.mean + 1.0, q.cov)
    for p0 in (cli_p0, random_gaussian(rng, dim)):
        for times in (np.array([0.0, 0.7]), np.linspace(0.0, 5.0, 5001)):
            trace = entropy_trace(p0, model, times)
            for got, want in zip((trace.kl_values, trace.fisher_values),
                                 slogdet_trace(p0, model, times)):
                assert np.all(np.abs(got - want)
                              <= 1e-12 * np.abs(want) + 1e-13)


def test_target_covariance_trace_is_mean_part(monkeypatch):
    # cov_0 = K^-1: the trace is the mean part alone, with no factor of
    # any evolved covariance; one ulp off that covariance, the general
    # path runs and agrees with it
    rng = np.random.default_rng(32)
    model = random_certified_model(rng, dim=32)
    q = gaussian_target(model)
    cli_p0 = GaussianDist(q.mean + 1.0, q.cov)
    cov = np.array(q.cov)
    cov[3, 5] = cov[5, 3] = np.nextafter(cov[3, 5], np.inf)
    nudged = GaussianDist(q.mean + 1.0, cov)
    times = np.linspace(0.0, 5.0, 5001)
    calls = []
    tril_inverse = fokker_planck.tril_inverse

    def counted(chol):
        calls.append(chol.shape)
        return tril_inverse(chol)

    monkeypatch.setattr(fokker_planck, "tril_inverse", counted)
    mean_only = entropy_trace(cli_p0, model, times)
    assert calls == []
    general = entropy_trace(nudged, model, times)
    assert calls
    for got, want in ((mean_only.kl_values, general.kl_values),
                      (mean_only.fisher_values, general.fisher_values)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-13)


@pytest.mark.parametrize("times, match", [
    ([-1.0, 0.0, 1.0], "finite and non-negative"),
    ([0.0, np.nan, 1.0], "finite and non-negative"),
    ([0.0, 1.0, np.inf], "finite and non-negative"),
    ([], "at least two grid nodes"),
    (1.0, "at least two grid nodes"),
])
def test_trace_refuses_bad_grid_times(model2d, monkeypatch, times, match):
    # refused before any work, decay bound included: the flow never runs
    # backwards, and a NaN would pass every trace invariant
    def refuse(*args):
        raise AssertionError("trace computed")

    monkeypatch.setattr(fokker_planck, "_trace_arrays", refuse)
    q = gaussian_target(model2d)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    for rho in (None, 0.5):
        with pytest.raises(ValueError, match=match):
            entropy_trace(p0, model2d, np.array(times), rho=rho)


@pytest.mark.parametrize("model_dim, p0_dim", [(3, 1), (2, 3)])
def test_trace_refuses_a_start_of_another_dimension(monkeypatch, model_dim,
                                                    p0_dim):
    # Delta = cov_0 - K^-1 would broadcast a 1-d start over a 3-d model
    monkeypatch.setattr(fokker_planck, "_trace_arrays", must_not_run)
    model = random_certified_model(np.random.default_rng(3), dim=model_dim)
    p0 = GaussianDist(np.ones(p0_dim), np.eye(p0_dim))
    times = np.linspace(0.0, 1.0, 11)
    for check in (entropy_trace, dissipation_check):
        for rho in (None, 0.5):
            with pytest.raises(ValueError, match="dimension"):
                check(p0, model, times, rho=rho)


@pytest.mark.parametrize("rho", [r for r in BAD_RHO if r is not None])
def test_trace_refuses_a_rate_that_is_not_finite_and_positive(
        model2d, monkeypatch, rho):
    # exp(-2 rho t) D0 with rho <= 0 only grows, so every decay row would
    # pass; refused before any work, as by every other verifier
    monkeypatch.setattr(fokker_planck, "_trace_arrays", must_not_run)
    q = gaussian_target(model2d)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    times = np.linspace(0.0, 5.0, 5001)
    for check in (entropy_trace, dissipation_check):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            check(p0, model2d, times, rho=rho)


def test_trace_grid_spans_partial_chunks(monkeypatch):
    # 5001 nodes at d = 32 fill several chunks and leave a partial one;
    # chunks of 7 nodes at d = 5 must give the same values as one chunk
    step = fokker_planck._TRACE_CHUNK_BYTES // (8 * 32 * 32)
    assert 1 < step < 5001 and 5001 % step
    rng = np.random.default_rng(5)
    model = random_certified_model(rng, dim=5)
    p0 = random_gaussian(rng, 5)
    times = np.linspace(0.0, 5.0, 5001)
    whole = entropy_trace(p0, model, times)
    monkeypatch.setattr(fokker_planck, "_TRACE_CHUNK_BYTES", 7 * 8 * 5 * 5)
    chunked = entropy_trace(p0, model, times)
    assert_allclose(chunked.kl_values, whole.kl_values, rtol=1e-14,
                    atol=1e-15)
    assert_allclose(chunked.fisher_values, whole.fisher_values, rtol=1e-14,
                    atol=1e-15)


def test_trace_peak_memory_is_chunk_sized():
    rng = np.random.default_rng(32)
    model = random_certified_model(rng, dim=32)
    p0 = random_gaussian(rng, 32)
    times = np.linspace(0.0, 5.0, 5001)
    tracemalloc.start()
    try:
        entropy_trace(p0, model, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (5001, 32, 32) stack alone is 39 MiB
    assert peak < 16 << 20


def test_trace_rejects_indefinite_covariance():
    model = one_dim_model()
    p0 = GaussianDist(np.zeros(1), np.eye(1))
    # stands in for a covariance that rounding made indefinite; the
    # constructor itself refuses one
    object.__setattr__(p0, "cov", -np.eye(1))
    with pytest.raises(ValueError, match="lost positive definiteness"):
        entropy_trace(p0, model, np.array([0.0, 1.0]))


def test_trace_invariants_enforced():
    times = np.array([0.0, 1.0, 2.0])
    good = np.array([2.0, 1.0, 0.5])
    with pytest.raises(ValueError):
        EntropyTrace(times=times[:1], kl_values=good[:1],
                     fisher_values=good[:1], lsi_bound=None)
    with pytest.raises(ValueError):
        EntropyTrace(times=np.array([0.0, 1.0, 1.0]), kl_values=good,
                     fisher_values=good, lsi_bound=None)
    with pytest.raises(ValueError):
        EntropyTrace(times=times, kl_values=np.array([1.0, 2.0, 0.5]),
                     fisher_values=good, lsi_bound=None)
    with pytest.raises(ValueError):
        EntropyTrace(times=times, kl_values=np.array([1.0, 0.5, -0.1]),
                     fisher_values=good, lsi_bound=None)


@pytest.mark.parametrize("times, kls, fis, bound, match", [
    ([0.0, 1.0], [np.nan, np.nan], [np.nan, -1.0], None, "must be finite"),
    ([0.0, 1.0], [2.0, 1.0], [np.nan, 0.5], None, "must be finite"),
    ([0.0, 1.0], [2.0, 1.0], [np.inf, 0.5], None, "must be finite"),
    ([0.0, np.nan], [2.0, 1.0], [1.0, 0.5], [np.nan, 1.0], "must be finite"),
    ([0.0, np.inf], [2.0, 1.0], [1.0, 0.5], None, "must be finite"),
    ([0.0, 1.0], [2.0, 1.0], [1.0, -1.0], None, "non-negative"),
    ([0.0, 1.0], [2.0, 1.0], [1.0, 0.5], [np.nan, 1.0], "must be finite"),
    ([0.0, 1.0], [2.0, 1.0], [1.0, 0.5], [2.0, np.inf], "must be finite"),
])
def test_trace_refuses_non_finite_values_and_negative_fisher(
        times, kls, fis, bound, match):
    # NaN fails every comparison, so each of these passed the order and
    # sign checks before finiteness was required
    with pytest.raises(ValueError, match=match):
        EntropyTrace(times=np.array(times), kl_values=np.array(kls),
                     fisher_values=np.array(fis), lsi_bound=bound)


# ---- dissipation and decay ----

def test_dissipation_reference(model2d):
    p0 = GaussianDist(np.array([2.0, -1.0]),
                      np.array([[0.5, 0.1], [0.1, 0.7]]))
    _, (res, _) = dissipation_check(p0, model2d, np.linspace(0.0, 5.0, 5001))
    assert (res.check, res.param) == ("dissipation", "max_residual")
    assert res.holds
    assert res.value <= res.bound == res.tolerance


def test_dissipation_residual_sees_a_scaled_fisher_column(monkeypatch):
    # the 3-site chain on the CLI's grid: its residual is far below the
    # tolerance, yet I scaled by 1 + 1e-4 is caught
    model = model_from_dict({"dim": 3, "partition": [[0], [1], [2]],
                             "mean": [0, 1, 2], "toeplitz": {
                                 "m": 3, "diag": 3.0, "band": {"1": 1.0}}})
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    times = np.linspace(0.0, 5.0, 5001)
    _, (res, _) = dissipation_check(p0, model, times)
    assert res.holds
    assert res.value <= 1e-4 * res.bound
    trace_arrays = fokker_planck._trace_arrays

    def scaled(*args):
        kls, fis = trace_arrays(*args)
        return kls, fis * (1.0 + 1e-4)

    monkeypatch.setattr(fokker_planck, "_trace_arrays", scaled)
    _, (res, _) = dissipation_check(p0, model, times)
    assert res.value > res.bound
    assert not res.holds


@pytest.mark.parametrize("n", [3, 4, 5, 9, 41])
def test_interior_slopes_are_exact_on_quartics(n):
    # five-node windows (all nodes when fewer) differentiate a polynomial
    # of their degree exactly, on uneven grids too
    t = np.cumsum(np.random.default_rng(n).uniform(0.5, 1.5, n))
    coeffs = [0.3, -1.0, 0.5, 2.0, -0.25][:min(5, n)]
    slopes = fokker_planck._interior_slopes(t, np.polyval(coeffs, t))
    assert_allclose(slopes, np.polyval(np.polyder(coeffs), t[1:-1]),
                    rtol=1e-9, atol=1e-9)


def test_dissipation_flags_coarse_grid(model2d):
    # started at the target, D and I stay 0 and the residual is rounding;
    # the check still fails because the grid is coarser than 0.1
    p0 = gaussian_target(model2d)
    _, (res, _) = dissipation_check(p0, model2d, np.linspace(0.0, 5.0, 26))
    assert res.value <= res.bound
    assert not res.holds


def test_dissipation_integral_identity(model2d):
    # D(0) - D(T) equals the integral of I along the flow
    p0 = GaussianDist(np.array([2.0, -1.0]), 0.4 * np.eye(2))
    times = np.linspace(0.0, 5.0, 5001)
    trace = entropy_trace(p0, model2d, times)
    integral = float(np.trapezoid(trace.fisher_values, times))
    drop = float(trace.kl_values[0] - trace.kl_values[-1])
    assert integral == pytest.approx(drop, rel=1e-4)
    _, checks = dissipation_check(p0, model2d, times)
    # no decay check without a rate
    assert [c.param for c in checks] == ["max_residual",
                                         "integral_identity_rel_err"]
    assert checks[1].value == abs(drop - integral) / trace.kl_values[0]
    assert checks[1].bound == checks[1].tolerance == 1e-4
    assert checks[1].holds


def decay_check(p0, model, rho, times):
    check = dissipation_check(p0, model, times, rho=rho)[1][-1]
    assert check.param == "exp_decay_max_excess"
    assert (check.bound, check.tolerance) == (0.0, 1e-12)
    return check


def test_exp_decay_tight_and_falsified():
    model = one_dim_model()
    p0 = GaussianDist(np.array([2.0]), np.eye(1))
    times = np.linspace(0.0, 4.0, 401)
    # the certified rate 1 is exactly attained for a pure mean shift
    assert decay_check(p0, model, 1.0, times).holds
    # any faster claimed rate must be rejected
    assert not decay_check(p0, model, 1.05, times).holds


def test_exp_decay_bound_anchored_at_first_node(model2d):
    # on a grid that starts at t0 > 0 the bound is exp(-2 rho (t - t0))
    # D(p_t0||q); anchored at t = 0 it would undercut D at t0
    from lsicert.criteria import criteria_report

    rho = criteria_report(model2d).rho_marton
    q = gaussian_target(model2d)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    for times in (np.linspace(0.0, 5.0, 5001), np.linspace(0.5, 5.5, 5001)):
        check = decay_check(p0, model2d, rho, times)
        assert check.holds, check
    trace = entropy_trace(p0, model2d, times, rho=rho)
    assert trace.lsi_bound[0] == trace.kl_values[0]
    assert_allclose(trace.lsi_bound,
                    np.exp(-2.0 * rho * (times - 0.5)) * trace.kl_values[0],
                    rtol=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=15)
def test_exp_decay_under_certified_rate(seed):
    from lsicert.criteria import criteria_report

    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    rep = criteria_report(model)
    p0 = random_gaussian(rng, model.dim)
    times = np.linspace(0.0, 3.0, 61)
    assert decay_check(p0, model, rep.rho_marton, times).holds


# ---- particles ----

def test_curvature_bound_gaussian(model2d):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    assert curvature_bound(model2d, p0) == pytest.approx(1.5, abs=1e-12)


def test_langevin_matches_closed_form(model2d):
    p0 = GaussianDist(np.array([2.0, -1.0]), 0.5 * np.eye(2))
    res = langevin_particles(model2d, p0, dt=0.05, steps=40, n=20_000,
                             seed=13, checkpoints=[0, 20, 40])
    assert len(res.checkpoints) == 3
    for cp in res.checkpoints:
        assert cp.within_bands, (cp.step, cp.emp_mean, cp.closed_mean)


@pytest.mark.parametrize("block_rows", [None, 7])
def test_langevin_step_matches_out_of_place_reference(model2d, monkeypatch,
                                                      block_rows):
    # x <- x - grad dt + sqrt(2 dt) xi, one fresh draw per step; blocks of
    # 7 rows leave a partial block of 1000 particles
    if block_rows is not None:
        monkeypatch.setattr(fokker_planck, "_PARTICLE_CHUNK_BYTES",
                            block_rows * 8 * 2)
    p0 = GaussianDist(np.array([2.0, -1.0]), 0.5 * np.eye(2))
    res = langevin_particles(model2d, p0, dt=0.05, steps=7, n=1000, seed=4)
    rng = np.random.default_rng(4)
    x = p0.sample(rng, 1000)
    for _ in range(7):
        x = x - grad_potential(model2d, x) * 0.05 \
            + np.sqrt(0.1) * rng.standard_normal(x.shape)
    assert res.particles.tobytes() == x.tobytes()


def out_of_place_particles(model, p0, dt, steps, n, seed, marks):
    # one fresh draw per step from the stream left after the initial
    # sample; the moments of x at each step in marks
    rng = np.random.default_rng(seed)
    x = p0.sample(rng, n)
    moments = []
    for step in range(steps + 1):
        if step:
            x = x - grad_potential(model, x) * dt \
                + np.sqrt(2.0 * dt) * rng.standard_normal(x.shape)
        if step in marks:
            moments.append((x.mean(axis=0),
                            np.cov(x, rowvar=False).reshape(model.dim, -1)))
    return x, moments


def quartic_2d():
    return GibbsModel(partition=BlockPartition(((0,), (1,))),
                      precision=np.array([[1.0, 0.3], [0.3, 1.2]]),
                      mean=np.array([0.5, -0.5]),
                      quartic=np.array([0.2, 0.1]))


@pytest.mark.parametrize("quartic, block_rows, n, steps, marks", [
    # quartic drift, one block per step
    (True, None, 1000, 2, [2]),
    # 4 blocks per step, 5 steps: the noise buffer reused 20 times
    (False, 250, 1000, 5, [5]),
    # blocks of 300, 300, 300 and a partial last block of 100 rows
    (True, 300, 1000, 4, [4]),
    # checkpoints at 0 and mid-run
    (False, 300, 1000, 6, [0, 3, 6]),
    # one step
    (True, None, 1000, 1, [1]),
])
def test_langevin_pipeline_matches_out_of_place_reference(
        model2d, monkeypatch, quartic, block_rows, n, steps, marks):
    if block_rows is not None:
        monkeypatch.setattr(fokker_planck, "_PARTICLE_CHUNK_BYTES",
                            block_rows * 8 * 2)
    model = quartic_2d() if quartic else model2d
    p0 = GaussianDist(np.array([1.0, -1.0]), 0.5 * np.eye(2))
    dt = 0.05 / curvature_bound(model, p0)
    res = langevin_particles(model, p0, dt=dt, steps=steps, n=n, seed=9,
                             checkpoints=marks)
    x, moments = out_of_place_particles(model, p0, dt, steps, n, 9, marks)
    assert res.particles.tobytes() == x.tobytes()
    assert [cp.step for cp in res.checkpoints] == marks
    for cp, (mean, cov) in zip(res.checkpoints, moments):
        assert cp.emp_mean.tobytes() == mean.tobytes()
        assert cp.emp_cov.tobytes() == cov.tobytes()


def test_langevin_peak_memory_is_two_and_a_half_particle_arrays():
    # the bench-sized call: the particles and a checkpoint's centered copy,
    # with one block of noise; measured 2.44 times the particles, where
    # two whole-step noise buffers drawn on a worker thread took 4.24
    rng = np.random.default_rng(8)
    model = random_certified_model(rng, dim=8)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + 2.0, q.cov)
    dt = 0.05 / curvature_bound(model, p0)
    n = 20_000
    tracemalloc.start()
    try:
        langevin_particles(model, p0, dt=dt, steps=60, n=n, seed=1,
                           checkpoints=[30, 60])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * 8 * 8, peak / (n * 8 * 8)


def test_langevin_gradient_error_stops_worker(model2d, monkeypatch):
    calls = []

    def failing_grad(model, x):
        calls.append(threading.current_thread())
        if len(calls) == 5:
            raise RuntimeError("gradient failed")
        return grad_potential(model, x)

    monkeypatch.setattr(fokker_planck, "_PARTICLE_CHUNK_BYTES", 250 * 8 * 2)
    monkeypatch.setattr(fokker_planck, "grad_potential", failing_grad)
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="gradient failed"):
        langevin_particles(model2d, p0, dt=0.01, steps=10, n=1000, seed=0)
    assert threading.active_count() == before
    # the gradient runs on the calling thread only
    assert set(calls) == {threading.current_thread()}


def test_langevin_draw_error_reaches_caller(model2d, monkeypatch):
    make_rng = np.random.default_rng
    draws = []

    class FailingGenerator:
        def __init__(self, seed):
            self._rng = make_rng(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def standard_normal(self, *args, out=None, **kwargs):
            if out is not None:
                draws.append(len(out))
                if len(draws) == 4:
                    raise FloatingPointError("draw failed")
            return self._rng.standard_normal(*args, out=out, **kwargs)

    monkeypatch.setattr(fokker_planck.np.random, "default_rng",
                        FailingGenerator)
    monkeypatch.setattr(fokker_planck, "_PARTICLE_CHUNK_BYTES", 250 * 8 * 2)
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed"):
        langevin_particles(model2d, p0, dt=0.01, steps=10, n=1000, seed=0)
    assert threading.active_count() == before
    # one block of rows per draw
    assert draws == [250] * 4


def test_langevin_quartic_confinement(rng):
    # pure quartic wells have no Gaussian reference; the chain must stay
    # confined (bounded variance) and centered
    part = BlockPartition(((0,),))
    model = GibbsModel(partition=part, precision=np.array([[1e-9]]),
                       mean=np.zeros(1), quartic=np.array([1.0]))
    p0 = GaussianDist(np.zeros(1), 0.09 * np.eye(1))
    res = langevin_particles(model, p0, dt=5e-4, steps=4000, n=4000, seed=2)
    cp = res.checkpoints[-1]
    assert cp.closed_mean is None and cp.within_bands is None
    assert abs(cp.emp_mean[0]) < 0.1
    assert 0.2 < cp.emp_cov[0, 0] < 1.0


def test_langevin_step_size_guard(model2d):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(StepSizeError):
        langevin_particles(model2d, p0, dt=0.5, steps=10, n=2000, seed=0)
    with pytest.raises(ValueError):
        langevin_particles(model2d, p0, dt=0.01, steps=10, n=500, seed=0)
    with pytest.raises(ValueError):
        langevin_particles(model2d, p0, dt=0.01, steps=10, n=2000, seed=0,
                           checkpoints=[11])


def test_langevin_rejects_wrong_dimension(model2d):
    p0 = GaussianDist(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="dimension"):
        langevin_particles(model2d, p0, dt=0.01, steps=10, n=2000, seed=0)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_langevin_rejects_non_finite_step(model2d, monkeypatch, dt):
    # nan passes both dt <= 0 and the stability check; no draw is made
    monkeypatch.setattr(fokker_planck.np.random, "default_rng", None)
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        langevin_particles(model2d, p0, dt=dt, steps=10, n=2000, seed=0)


@pytest.mark.parametrize("mark", [1.5, 2.0, True, "3"])
def test_langevin_rejects_non_integer_checkpoints(model2d, mark):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="integers"):
        langevin_particles(model2d, p0, dt=0.01, steps=10, n=2000, seed=0,
                           checkpoints=[0, mark])


@pytest.mark.parametrize("steps, n", [(2.5, 2000), (True, 2000),
                                      (10, 2000.5), (10, 2000.0)])
def test_langevin_rejects_non_integer_counts(model2d, steps, n):
    p0 = GaussianDist(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError, match="integer count"):
        langevin_particles(model2d, p0, dt=0.01, steps=steps, n=n, seed=0)
