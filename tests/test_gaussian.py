"""Gaussian calculus checks.

The quadrature oracles come first: they were used to derive the frozen
anchor values that the closed forms are then held to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lsicert import gaussian, gibbs
from lsicert.criteria import criteria_report
from lsicert.gaussian import (
    GaussianDist,
    GaussianStack,
    avg_conditional_kl,
    block_conditionals,
    fisher,
    gaussian_target,
    kl,
    memo_conditionals,
    tril_inverse,
    w2,
)
from lsicert.instances import (model_2d, random_certified_model,
                               random_gaussian, random_gaussians,
                               random_partition)
from lsicert.model import BlockPartition, GibbsModel, toeplitz_matrix
from lsicert.oracles import conditional, quad_fisher, quad_kl

from conftest import batching_cases

KL_UNIT_SHIFT = 0.5                        # derived: 1d quadrature, N(1,1) vs N(0,1)
KL_VARIANCE_2 = 0.5 * (1.0 - np.log(2.0))  # derived: 1d quadrature, N(0,2) vs N(0,1)
FISHER_UNIT_SHIFT = 1.0                    # derived: 1d quadrature, N(1,1) vs N(0,1)


def _density(g):
    return lambda pts: np.exp(g.logpdf(pts))


def seeded_pair(seed, dim=None):
    rng = np.random.default_rng(seed)
    if dim is None:
        dim = int(rng.integers(1, 6))
    return rng, random_gaussian(rng, dim), random_gaussian(rng, dim)


# ---- oracle agreement (the oracle fixes the expected values) ----

def test_quad_oracle_confirms_unit_shift_kl():
    p = GaussianDist(np.array([1.0]), np.eye(1))
    q = GaussianDist(np.array([0.0]), np.eye(1))
    oracle = quad_kl(_density(p), _density(q), [(-10, 10)], 4001)
    assert oracle == pytest.approx(KL_UNIT_SHIFT, abs=1e-8)
    assert kl(p, q) == pytest.approx(KL_UNIT_SHIFT, abs=1e-12)


def test_quad_oracle_confirms_variance_kl():
    p = GaussianDist(np.array([0.0]), 2.0 * np.eye(1))
    q = GaussianDist(np.array([0.0]), np.eye(1))
    oracle = quad_kl(_density(p), _density(q), [(-12, 12)], 4001)
    assert oracle == pytest.approx(KL_VARIANCE_2, abs=1e-8)
    assert kl(p, q) == pytest.approx(KL_VARIANCE_2, abs=1e-12)


def test_quad_oracle_confirms_unit_shift_fisher():
    p = GaussianDist(np.array([1.0]), np.eye(1))
    q = GaussianDist(np.array([0.0]), np.eye(1))
    oracle = quad_fisher(_density(p), _density(q), [(-10, 10)], 4001)
    assert oracle == pytest.approx(FISHER_UNIT_SHIFT, abs=1e-8)
    assert fisher(p, q) == pytest.approx(FISHER_UNIT_SHIFT, abs=1e-12)


def test_quad_oracle_2d_agreement(model2d):
    q = gaussian_target(model2d)
    p = GaussianDist(np.array([0.7, -0.3]),
                     np.array([[1.2, 0.3], [0.3, 0.9]]))
    box = [(-11, 11)] * 2
    assert quad_kl(_density(p), _density(q), box, 1201) == \
        pytest.approx(kl(p, q), abs=1e-5)
    assert quad_fisher(_density(p), _density(q), box, 1201) == \
        pytest.approx(fisher(p, q), abs=1e-5)


# ---- distribution type ----

def test_dist_rejects_non_pd_cov():
    with pytest.raises(ValueError):
        GaussianDist(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_dist_rejects_asymmetric_cov():
    with pytest.raises(ValueError):
        GaussianDist(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mean, cov", [
    ([np.nan, 0.0], np.eye(2)),
    ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
    ([0.0, 0.0], [[1.0, np.nan], [0.5, 1.0]]),
])
def test_dist_rejects_non_finite_law(mean, cov):
    # refused before the symmetry test, which would warn on inf - inf
    with pytest.raises(ValueError, match="must be finite"):
        GaussianDist(np.array(mean), np.array(cov))


def test_stack_keeps_a_read_only_symmetric_cov_without_a_copy():
    covs = random_gaussians(np.random.default_rng(2), 3, 4).covs.copy()
    covs.flags.writeable = False
    assert GaussianStack(np.zeros((3, 4)), covs).covs is covs
    writable = covs.copy()
    copied = GaussianStack(np.zeros((3, 4)), writable).covs
    assert copied is not writable and writable.flags.writeable
    assert copied.tobytes() == covs.tobytes()


def test_dist_precision_inverts_cov(rng):
    g = random_gaussian(rng, 4)
    assert_allclose(g.precision @ g.cov, np.eye(4), atol=1e-10)


def test_logpdf_matches_direct_formula():
    g = GaussianDist(np.array([1.0, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]]))
    x = np.array([[0.3, 0.4], [1.0, -1.0]])
    diff = x - g.mean
    quad = np.einsum('ni,ij,nj->n', diff, g.precision, diff)
    expected = -0.5 * (2 * np.log(2 * np.pi)
                       + np.log(np.linalg.det(g.cov)) + quad)
    assert_allclose(g.logpdf(x), expected, atol=1e-12)


def test_gaussian_target_reference(model2d):
    q = gaussian_target(model2d)
    assert_allclose(q.cov, (4.0 / 3.0) * np.array([[1.0, 0.5], [0.5, 1.0]]),
                    atol=1e-12)


# ---- conditional ----

def test_conditional_reference_against_grid_oracle(model2d):
    # oracle: 1d quadrature moments of x0 -> q(x0, xbar) at fixed xbar
    q = gaussian_target(model2d)
    xbar = 2.0
    grid = np.linspace(-10, 10, 20001)
    pts = np.stack([grid, np.full_like(grid, xbar)], axis=1)
    dens = np.exp(q.logpdf(pts))
    mass = np.trapezoid(dens, grid)
    mean_oracle = np.trapezoid(grid * dens, grid) / mass
    var_oracle = np.trapezoid((grid - mean_oracle) ** 2 * dens, grid) / mass

    cond = conditional(q, model2d.partition, 0, [xbar])
    assert mean_oracle == pytest.approx(1.0, abs=1e-9)
    assert var_oracle == pytest.approx(1.0, abs=1e-6)
    assert cond.mean[0] == pytest.approx(mean_oracle, abs=1e-9)
    assert cond.cov[0, 0] == pytest.approx(var_oracle, abs=1e-6)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30)
def test_conditional_reassembles_joint_moments(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    g = random_gaussian(rng, dim)
    part = random_partition(rng, dim)
    k = int(rng.integers(0, part.n))
    idx = part.block(k)
    rest = part.complement(k)
    if rest.size == 0:
        return
    cond = conditional(g, part, k, g.mean[rest])
    prec = g.precision
    gain = -np.linalg.inv(prec[np.ix_(idx, idx)]) @ prec[np.ix_(idx, rest)]
    # law of total covariance over the conditioning coordinates
    cov_ii = cond.cov + gain @ g.cov[np.ix_(rest, rest)] @ gain.T
    cov_ir = gain @ g.cov[np.ix_(rest, rest)]
    assert_allclose(cov_ii, g.cov[np.ix_(idx, idx)], atol=1e-9)
    assert_allclose(cov_ir, g.cov[np.ix_(idx, rest)], atol=1e-9)
    assert_allclose(cond.mean, g.mean[idx], atol=1e-9)


def test_conditional_rejects_bad_xbar(model2d):
    q = gaussian_target(model2d)
    with pytest.raises(ValueError):
        conditional(q, model2d.partition, 0, [1.0, 2.0])


# ---- divergences ----

def test_kl_zero_iff_equal(rng):
    g = random_gaussian(rng, 3)
    assert kl(g, g) == 0.0
    h = GaussianDist(g.mean + 0.01, g.cov)
    assert kl(g, h) > 0


def test_kl_dimension_mismatch():
    with pytest.raises(ValueError):
        kl(GaussianDist(np.zeros(1), np.eye(1)),
           GaussianDist(np.zeros(2), np.eye(2)))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_kl_positive(seed):
    _, p, q = seeded_pair(seed)
    assert kl(p, q) >= 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_fisher_positive_and_zero_at_equality(seed):
    _, p, q = seeded_pair(seed)
    assert fisher(p, q) >= 0.0
    assert fisher(p, p) == 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_lsi_sanity_for_gaussian_target(seed):
    # q satisfies a log-Sobolev inequality with its smallest precision
    # eigenvalue, so D <= I / (2 lam_min) for every Gaussian p
    _, p, q = seeded_pair(seed)
    lam_min = float(np.linalg.eigvalsh(q.precision)[0])
    assert kl(p, q) <= fisher(p, q) / (2.0 * lam_min) * (1 + 1e-9) + 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_transport_sanity_for_gaussian_target(seed):
    _, p, q = seeded_pair(seed)
    lam_min = float(np.linalg.eigvalsh(q.precision)[0])
    assert w2(p, q) ** 2 <= 2.0 / lam_min * kl(p, q) * (1 + 1e-9) + 1e-12


# ---- Wasserstein ----

def test_w2_translation_only():
    p = GaussianDist(np.array([3.0, -4.0]), np.eye(2))
    q = GaussianDist(np.zeros(2), np.eye(2))
    assert w2(p, q) == pytest.approx(5.0, abs=1e-12)


def test_w2_commuting_covariances():
    p = GaussianDist(np.zeros(1), np.array([[4.0]]))
    q = GaussianDist(np.array([1.0]), np.array([[1.0]]))
    # 1d: W2^2 = (mu_p - mu_q)^2 + (sigma_p - sigma_q)^2
    assert w2(p, q) == pytest.approx(np.sqrt(1.0 + 1.0), abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_w2_symmetry_exact(seed):
    _, p, q = seeded_pair(seed)
    assert w2(p, q) == w2(q, p)
    assert w2(p, p) == 0.0


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_w2_triangle_inequality(seed):
    rng, p, q = seeded_pair(seed)
    r = random_gaussian(rng, p.dim)
    assert w2(p, q) <= w2(p, r) + w2(r, q) + 1e-9


# ---- averaged conditional divergence ----

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_chain_rule_every_block(seed):
    # D(p||q) = D(marginal on complement) + averaged conditional divergence
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))
    p = random_gaussian(rng, dim)
    q = random_gaussian(rng, dim)
    part = random_partition(rng, dim)
    total = kl(p, q)
    terms = avg_conditional_kl(p, q, part)
    for k in range(part.n):
        rest = part.complement(k)
        if rest.size == 0:
            base = 0.0
        else:
            block = np.ix_(rest, rest)
            base = kl(GaussianDist(p.mean[rest], p.cov[block]),
                      GaussianDist(q.mean[rest], q.cov[block]))
        assert total == pytest.approx(base + terms[k], rel=1e-9, abs=1e-9)


def test_avg_conditional_kl_whole_vector_block(rng):
    from lsicert.model import BlockPartition

    p = random_gaussian(rng, 3)
    q = random_gaussian(rng, 3)
    part_single = BlockPartition(((0, 1, 2),))
    assert avg_conditional_kl(p, q, part_single)[0] == \
        pytest.approx(kl(p, q), rel=1e-12)


def test_avg_conditional_kl_reference(model2d):
    q = gaussian_target(model2d)
    p = GaussianDist(np.array([1.0, 1.0]), q.cov)
    # marginal shift 1 with variance 4/3 leaves 0.5 - 3/8 per block
    assert avg_conditional_kl(p, q, model2d.partition) == \
        pytest.approx([0.125, 0.125], abs=1e-12)


def test_target_conditionals_memoized_read_only(model2d):
    q = gaussian_target(model2d)
    first = memo_conditionals(q, model2d.partition)
    assert memo_conditionals(q, model2d.partition) is first
    assert not any(arr.flags.writeable for arr in first)
    fresh = block_conditionals(q.precision, model2d.partition)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, fresh))


# ---- all block conditionals at once, against a per-block loop ----

BATCHING_CASES = batching_cases()


def _loop_block_conditional(prec, idx, rest):
    cov = np.linalg.inv(prec[np.ix_(idx, idx)])
    cov = 0.5 * (cov + cov.T)
    return cov, -cov @ prec[np.ix_(idx, rest)]


def _loop_conditionals(prec, part):
    dim = part.dim
    cov, gain, logdet = np.zeros((dim, dim)), np.zeros((dim, dim)), []
    for k in range(part.n):
        idx, rest = part.block(k), part.complement(k)
        cov_k, gain[np.ix_(idx, rest)] = _loop_block_conditional(prec, idx, rest)
        cov[np.ix_(idx, idx)] = cov_k
        logdet.append(np.linalg.slogdet(cov_k)[1])
    return cov, gain, np.array(logdet)


def _loop_avg_conditional_kl(p, q, part, k):
    idx, rest = part.block(k), part.complement(k)
    if rest.size == 0:
        return kl(p, q)
    cov_p, gain_p = _loop_block_conditional(p.precision, idx, rest)
    cov_q, gain_q = _loop_block_conditional(q.precision, idx, rest)
    prec_q = q.precision[np.ix_(idx, idx)]
    offset = (p.mean[idx] - q.mean[idx]) - gain_q @ (p.mean[rest] - q.mean[rest])
    gain_diff = gain_p - gain_q
    cov_rest = p.cov[np.ix_(rest, rest)]
    return 0.5 * (float(np.sum(prec_q * cov_p)) - idx.size
                  + np.linalg.slogdet(cov_q)[1] - np.linalg.slogdet(cov_p)[1]
                  + float(offset @ prec_q @ offset)
                  + float(np.sum((prec_q @ gain_diff) * (gain_diff @ cov_rest))))


@pytest.mark.parametrize("name", sorted(BATCHING_CASES))
def test_block_conditionals_match_per_block_loop(name):
    prec, part = BATCHING_CASES[name]
    for got, want in zip(block_conditionals(prec, part),
                         _loop_conditionals(prec, part)):
        assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", sorted(BATCHING_CASES))
def test_avg_conditional_kl_matches_per_block_loop(name):
    prec, part = BATCHING_CASES[name]
    rng = np.random.default_rng(11)
    cov = np.linalg.inv(prec)
    q = GaussianDist(rng.normal(size=part.dim), 0.5 * (cov + cov.T))
    p = random_gaussian(rng, part.dim)
    want = [_loop_avg_conditional_kl(p, q, part, k) for k in range(part.n)]
    assert_allclose(avg_conditional_kl(p, q, part), want, rtol=1e-12, atol=0)


def test_verify_theorem1_takes_two_batched_conditionals(monkeypatch):
    calls = []
    original = gaussian.block_conditionals

    def counted(precision, part):
        calls.append(part.n)
        return original(precision, part)

    monkeypatch.setattr(gaussian, "block_conditionals", counted)
    chain = GibbsModel(partition=BlockPartition(tuple((i,) for i in range(24))),
                       precision=toeplitz_matrix(24, 3.0, {1: 1.0}),
                       mean=np.zeros(24), quartic=np.zeros(24))
    rng = np.random.default_rng(3)
    for model in (model_2d(), random_certified_model(rng, dim=12), chain):
        report = criteria_report(model)
        calls.clear()
        gibbs.verify_theorem1(random_gaussian(rng, model.dim), model, report)
        assert 1 <= len(calls) <= 2, (model.partition.n, calls)


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 17, 32, 64])
@pytest.mark.parametrize("stack", [1, 7])
def test_tril_inverse_matches_general_inverse(size, stack):
    rng = np.random.default_rng(100 * size + stack)
    raw = rng.standard_normal((stack, size, size))
    chol = np.linalg.cholesky(raw @ raw.transpose(0, 2, 1) / size
                              + np.eye(size))
    chol.flags.writeable = False
    got = tril_inverse(chol)
    want = np.linalg.inv(chol)
    assert got.shape == chol.shape
    assert np.all(np.triu(got, 1) == 0.0)
    assert_allclose(got, want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


# ---- stacked laws: every row is the single-law computation ----

@pytest.mark.parametrize("dim", [2, 16, 32])
def test_random_gaussians_equal_successive_single_draws(dim):
    stack = random_gaussians(np.random.default_rng(dim), 20, dim)
    rng = np.random.default_rng(dim)
    for t in range(20):
        g = random_gaussian(rng, dim)
        assert stack.means[t].tobytes() == g.mean.tobytes()
        assert stack.covs[t].tobytes() == g.cov.tobytes()
        assert stack.chols[t].tobytes() == g.chol.tobytes()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(BATCHING_CASES))
def test_stack_rows_equal_single_law_calls(name):
    prec, part = BATCHING_CASES[name]
    rng = np.random.default_rng(5)
    cov = np.linalg.inv(prec)
    q = GaussianDist(rng.normal(size=part.dim), 0.5 * (cov + cov.T))
    stack = random_gaussians(rng, 50, part.dim)
    kls, w2s = kl(stack, q), w2(stack, q)
    terms = avg_conditional_kl(stack, q, part)
    conds = block_conditionals(stack.precisions, part)
    assert kls.shape == w2s.shape == (50,)
    for t in range(50):
        p = stack.law(t)
        assert _same_bits(p.precision, stack.precisions[t])
        assert _same_bits(kls[t], kl(p, q))
        assert _same_bits(w2s[t], w2(p, q))
        assert _same_bits(terms[t], avg_conditional_kl(p, q, part))
        for got, want in zip(conds, block_conditionals(p.precision, part)):
            assert _same_bits(got[t], want)


def _bures_eigh_w2(p, q):
    """W2 by the symmetric square root of Sigma_q from eigh, as a reference."""
    w, vecs = np.linalg.eigh(q.cov)
    root = (vecs * np.sqrt(w)) @ vecs.T
    inner = root @ p.cov @ root
    cross = 2.0 * np.sum(np.sqrt(np.clip(
        np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)))
    diff = p.mean - q.mean
    return np.sqrt(max(diff @ diff + np.trace(p.cov) + np.trace(q.cov)
                       - cross, 0.0))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40)
def test_w2_cholesky_form_matches_bures_eigh_form(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 33))
    q = random_gaussian(rng, dim)
    stack = random_gaussians(rng, 5, dim)
    got, back = w2(stack, q), w2(q, stack)
    assert np.array_equal(got, back)
    for t in range(5):
        want = _bures_eigh_w2(stack.law(t), q)
        assert got[t] == pytest.approx(want, rel=1e-12)


def _ill_conditioned_cov():
    vecs, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    cov = (vecs * np.array([1.0, 1.0, 1.0, 1e-12])) @ vecs.T
    return 0.5 * (cov + cov.T)


@pytest.mark.parametrize("bad, when", [
    (_ill_conditioned_cov(), "precision"),
    (np.array([[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0], [0, 0, 1.0, 0],
               [0, 0, 0, 1.0]]), "construction"),
    (np.array([[1.0, 0.5, 0, 0], [0.1, 1.0, 0, 0], [0, 0, 1.0, 0],
               [0, 0, 0, 1.0]]), "construction"),
])
def test_stack_refuses_a_law_as_gaussian_dist_does(bad, when):
    def single():
        g = GaussianDist(np.zeros(4), bad)
        return g.precision

    def stacked():
        good = random_gaussians(np.random.default_rng(1), 2, 4).covs
        stack = GaussianStack(np.zeros((3, 4)), np.stack([good[0], bad,
                                                          good[1]]))
        return stack.precisions

    with pytest.raises(ValueError) as want:
        single()
    with pytest.raises(ValueError) as got:
        stacked()
    assert str(got.value) == str(want.value)
    assert ("ill-conditioned" in str(want.value)) == (when == "precision")


def test_blockdiag_matmul_singletons_match_tiny_gemms():
    part = BlockPartition(tuple((i,) for i in range(24)))
    rng = np.random.default_rng(9)
    diag = rng.standard_normal((3, 24, 24))
    mat = rng.standard_normal((3, 24, 24))
    idx = np.arange(24)
    want = np.empty_like(mat)
    want[:, idx] = (diag[:, idx, idx][..., None, None]
                    @ mat[:, idx][:, :, None, :])[:, :, 0]
    assert _same_bits(gaussian._blockdiag_matmul(diag, mat, part), want)


def _halving_tril_inverse(chol, out):
    """tril_inverse's block recursion taken down to order-1 blocks."""
    n = chol.shape[-1]
    if n == 1:
        np.divide(1.0, chol, out=out)
        return
    h = n // 2
    _halving_tril_inverse(chol[..., :h, :h], out[..., :h, :h])
    _halving_tril_inverse(chol[..., h:, h:], out[..., h:, h:])
    low = out[..., h:, :h]
    np.matmul(chol[..., h:, :h], out[..., :h, :h], out=low)
    np.matmul(out[..., h:, h:], low, out=low)
    low *= -1.0


@pytest.mark.parametrize("stack", [(), (1,), (3,), (2, 3)])
def test_tril_inverse_equals_full_halving_bit_for_bit(stack):
    rng = np.random.default_rng(len(stack))
    for size in list(range(1, 40)) + [64, 100, 128]:
        raw = rng.standard_normal(stack + (size, size))
        chol = np.linalg.cholesky(raw @ raw.swapaxes(-1, -2) / size
                                  + np.eye(size))
        want = np.zeros_like(chol)
        _halving_tril_inverse(chol, want)
        assert _same_bits(tril_inverse(chol), want), size
