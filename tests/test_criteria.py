"""Spectral certificate checks.

The two-coordinate reference model has closed-form certificates worked
out by hand at the top of the file; they pin down every code path before
the randomized properties run.
"""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from lsicert import criteria
from lsicert.criteria import (
    CertificateError,
    CriteriaReport,
    block_lsi_constants,
    criteria_report,
    cross_block_norms,
    otto_reznikoff,
    solve_rho_marton,
    toeplitz_spectrum_report,
)
from lsicert.instances import (
    model_2d,
    random_certified_model,
    random_quartic_model,
)
from lsicert.model import (BlockPartition, GibbsModel, ModelFormatError,
                           ModelValidationError, toeplitz_matrix)

from conftest import batching_cases
from reference import (bisect_rho_marton, bisect_rho_or, build_A_rho,
                       random_attractive_chain)

RHO_2D = 0.5   # hand derivation: ||A^rho|| = 0.5 / (1 - rho) hits 1 at 0.5


def product_model():
    prec = np.diag([1.0, 2.0, 3.0])
    part = BlockPartition(((0,), (1,), (2,)))
    return GibbsModel(partition=part, precision=prec, mean=np.zeros(3),
                      quartic=np.zeros(3))


def coupled_pair(c):
    prec = np.array([[1.0, c], [c, 1.0]])
    part = BlockPartition(((0,), (1,)))
    return GibbsModel(partition=part, precision=prec, mean=np.zeros(2),
                      quartic=np.zeros(2))


def frustrated_triple(a):
    prec = np.full((3, 3), a)
    np.fill_diagonal(prec, 1.0)
    part = BlockPartition(((0,), (1,), (2,)))
    return GibbsModel(partition=part, precision=prec, mean=np.zeros(3),
                      quartic=np.zeros(3))


def banded_model(m, diag, quartic=0.0, band=None):
    prec = toeplitz_matrix(m, diag, {1: 1.0, 2: -1.0} if band is None
                           else band)
    part = BlockPartition(tuple((i,) for i in range(m)))
    return GibbsModel(partition=part, precision=prec, mean=np.zeros(m),
                      quartic=np.full(m, float(quartic)))


@st.composite
def oracle_models(draw):
    """Random Gaussian models, and quartic models whose coupling is
    rescaled so that some of them have no certificate at all."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_certified_model(rng)
    model = random_quartic_model(rng)
    scale = draw(st.floats(0.5, 2.5))
    return GibbsModel(partition=model.partition,
                      precision=model.precision
                      + (scale - 1.0) * model.cross,
                      mean=model.mean, quartic=model.quartic)


def assert_matches_oracle(closed_form, oracle, model):
    ref = oracle(model)
    if ref is None:
        with pytest.raises(CertificateError):
            closed_form(model)
    else:
        assert closed_form(model) == pytest.approx(ref, abs=1e-9)


# ---- building blocks ----

def test_block_constants_reference(model2d):
    assert_allclose(block_lsi_constants(model2d), [1.0, 1.0])


def test_block_constants_vector_blocks():
    prec = np.array([[2.0, 0.5, 0.0],
                     [0.5, 2.0, 0.0],
                     [0.0, 0.0, 4.0]])
    part = BlockPartition(((0, 1), (2,)))
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(3),
                       quartic=np.zeros(3))
    assert_allclose(block_lsi_constants(model), [1.5, 4.0])


def test_block_constants_banded():
    model = banded_model(4, 3.0, quartic=1e-6)
    assert_allclose(block_lsi_constants(model), np.full(4, 3.0))


def test_build_A_rho_reference(model2d):
    a0 = build_A_rho(model2d, 0.0)
    assert_allclose(a0, [[0.0, -0.5], [-0.5, 0.0]], atol=1e-15)
    a_half = build_A_rho(model2d, RHO_2D)
    assert_allclose(a_half, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-12)
    assert np.linalg.norm(a_half, 2) == pytest.approx(1.0, abs=1e-12)


def test_build_A_rho_rejects_rho_at_block_constant(model2d):
    with pytest.raises(ValueError, match="not below every block constant"):
        build_A_rho(model2d, 1.0)


def test_cross_matrix_constant_in_probe_for_quartic(rng):
    # the quartic Hessian contribution is diagonal, so the cross-block
    # Hessian is the same at every point and each block's curvature
    # infimum rho_k is attained at x = 0: this is what makes the
    # certificates closed forms for quartic models
    model = random_quartic_model(rng, dim=4)
    part = model.partition
    rho_k = block_lsi_constants(model)
    cross = model.cross
    for x in [np.zeros(4), *rng.normal(scale=2.0, size=(5, 4))]:
        hess = model.precision + np.diag(12.0 * model.quartic * x ** 2)
        off_block = hess.copy()
        for k in range(part.n):
            idx = part.block(k)
            off_block[np.ix_(idx, idx)] = 0.0
            lam = float(np.linalg.eigvalsh(hess[np.ix_(idx, idx)])[0])
            assert lam >= rho_k[k] - 1e-12
            if not x.any():
                assert lam == pytest.approx(rho_k[k], abs=1e-12)
        assert_array_equal(off_block, cross)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_interaction_norm_monotone_in_rho(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    rho_min = float(block_lsi_constants(model).min())
    rhos = np.linspace(0.0, 0.9 * rho_min, 5)
    norms = [np.linalg.norm(build_A_rho(model, float(r)), 2) for r in rhos]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


# ---- interaction-matrix certificate ----

def test_solve_rho_marton_reference(model2d):
    assert solve_rho_marton(model2d) == pytest.approx(RHO_2D, abs=1e-9)


def test_solve_rho_marton_product_model():
    assert solve_rho_marton(product_model()) == pytest.approx(1.0, abs=0)


def test_solve_rho_marton_strong_coupling():
    for c in (0.9, -0.9):
        assert solve_rho_marton(coupled_pair(c)) == pytest.approx(0.1,
                                                                  abs=1e-9)


def test_solve_rho_marton_no_margin():
    with pytest.raises(CertificateError):
        solve_rho_marton(frustrated_triple(0.55))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_marton_tight_on_attractive_chains(seed):
    # non-positive couplings admit a sign-flip similarity to the
    # attractive ordering, making the certificate exactly lambda_min
    rng = np.random.default_rng(seed)
    model = random_attractive_chain(rng)
    lam_min = float(np.linalg.eigvalsh(model.precision)[0])
    assert solve_rho_marton(model) == pytest.approx(lam_min, abs=1e-8)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_marton_sound_below_lambda_min(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    lam_min = float(np.linalg.eigvalsh(model.precision)[0])
    assert solve_rho_marton(model) <= lam_min * (1 + 1e-10) + 1e-12


# ---- block-matrix certificate ----

def test_otto_reznikoff_reference(model2d):
    assert otto_reznikoff(model2d) == pytest.approx(RHO_2D, abs=1e-9)


def test_otto_reznikoff_product_model():
    assert otto_reznikoff(product_model()) == pytest.approx(1.0, abs=0)


def test_otto_reznikoff_infeasible():
    with pytest.raises(CertificateError):
        otto_reznikoff(frustrated_triple(0.55))


def test_otto_reznikoff_closed_form_banded():
    # singleton blocks: largest feasible rho is the smallest eigenvalue
    # of diag(rho_k) - kappa, computable directly
    for m in (16, 64):
        model = banded_model(m, 4.5)
        kappa = np.abs(model.precision) - 4.5 * np.eye(m)
        expected = 4.5 - float(np.linalg.eigvalsh(kappa)[-1])
        assert otto_reznikoff(model) == pytest.approx(expected, abs=1e-8)


def test_marton_matches_or_banded():
    # flipping the sign of every odd coordinate maps this band pattern
    # onto its entrywise absolute value, so both certificates coincide
    model = banded_model(16, 4.5)
    assert solve_rho_marton(model) == pytest.approx(otto_reznikoff(model),
                                                    abs=1e-8)


def test_otto_reznikoff_banded_quartic_infeasible():
    model = banded_model(64, 3.0, quartic=1e-4)
    with pytest.raises(CertificateError):
        otto_reznikoff(model)
    with pytest.raises(CertificateError):
        solve_rho_marton(model)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_or_never_exceeds_marton(seed):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    try:
        rho_or = otto_reznikoff(model)
    except CertificateError:
        return
    assert rho_or <= solve_rho_marton(model) * (1 + 1e-8) + 1e-10


@given(oracle_models())
@settings(max_examples=40)
def test_or_matches_direct_eigensolve(model):
    # the eigensolve against bisection on the equivalent Perron form
    assert_matches_oracle(otto_reznikoff, bisect_rho_or, model)


@given(oracle_models())
@settings(max_examples=40)
def test_marton_matches_bisection_oracle(model):
    assert_matches_oracle(solve_rho_marton, bisect_rho_marton, model)


# ---- soundness on the banded path, against 50-digit references ----

def assert_sound_and_close(rho, lam_min, top, m):
    """rho <= lam_min exactly, and lam_min - rho <= 8 m eps max|lambda|."""
    with mpmath.workdps(50):
        gap = lam_min - mpmath.mpf(rho)
        assert gap >= 0
        assert gap <= 8 * m * np.finfo(float).eps * top


def banded_report(banded_solves, model):
    """criteria_report(model), asserting that every solve was banded."""
    before = len(banded_solves)
    report = criteria_report(model)
    # A0, D0 - C, D0 + C and diag(rho_k) - kappa: two solves each
    assert len(banded_solves) - before == 8
    return report


@pytest.mark.parametrize("m", [64, 256, 2048])
def test_banded_certificates_sound_on_nearest_neighbour_chain(banded_solves,
                                                             m):
    # rho_k = 3, so D0 +- C and diag(rho_k) - kappa are all
    # 3 I -+ (E_1 + E_-1): eigenvalues 3 - 2 cos(k pi / (m + 1))
    report = banded_report(banded_solves, banded_model(m, 3.0, band={1: 1.0}))
    with mpmath.workdps(50):
        lam_min = 3 - 2 * mpmath.cos(mpmath.pi / (m + 1))
        top = 6 - lam_min
    for rho in (report.rho_marton, report.rho_or):
        assert_sound_and_close(rho, lam_min, top, m)


def mp_extremes(mat):
    """(lambda_min, max|lambda|) of the float matrix mat at 50 digits."""
    with mpmath.workdps(50):
        evals = mpmath.eigsy(mpmath.matrix(mat.tolist()), eigvals_only=True)
        return min(evals), max(abs(e) for e in evals)


def test_banded_certificates_sound_against_eigsy(banded_solves):
    m = 64
    model = banded_model(m, 3.0, band={1: -1.0, 2: 0.3})
    report = banded_report(banded_solves, model)
    d0, cross = 3.0 * np.eye(m), model.cross
    minus, plus, block = (mp_extremes(mat) for mat in
                          (d0 - cross, d0 + cross, d0 - np.abs(cross)))
    lam_min, top = min((minus, plus), key=lambda e: e[0])
    assert_sound_and_close(report.rho_marton, lam_min, top, m)
    assert_sound_and_close(report.rho_or, *block, m)


def test_cross_block_norms_reference(model2d):
    assert_allclose(cross_block_norms(model2d), [[0.0, 0.5], [0.5, 0.0]])


def _batching_models():
    return {name: GibbsModel(partition=part, precision=prec,
                             mean=np.zeros(part.dim), quartic=np.zeros(part.dim))
            for name, (prec, part) in batching_cases().items()}


BATCHING_MODELS = _batching_models()


@pytest.mark.parametrize("name", sorted(BATCHING_MODELS))
def test_cross_block_norms_match_per_pair_loop(name):
    model = BATCHING_MODELS[name]
    part = model.partition
    want = np.zeros((part.n, part.n))
    for k in range(part.n):
        for ell in range(k + 1, part.n):
            want[k, ell] = want[ell, k] = np.linalg.norm(
                model.precision[np.ix_(part.block(k), part.block(ell))], 2)
    assert_array_equal(cross_block_norms(model), want)


@pytest.mark.parametrize("name, takes_svd", [("all singletons", False),
                                             ("permuted singletons", False),
                                             ("mixed sizes", True)])
def test_singleton_cross_blocks_take_no_svd(name, takes_svd, monkeypatch):
    # norm(x, 2) reaches LAPACK through its own module's `svd`: count
    # calls there and through np.linalg
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setitem(np.linalg.norm.__wrapped__.__globals__, "svd", counted)
    cross_block_norms(BATCHING_MODELS[name])
    assert bool(calls) == takes_svd, calls


def test_singleton_cross_block_norms_hold_one_dense_copy():
    # kappa is the one m x m array; kappa + kappa.T would hold about 2 m^2
    m = 2048
    model = banded_model(m, 3.0, band={1: 1.0})
    model.partition.size_groups  # cached index arrays, O(m)
    tracemalloc.start()
    try:
        kappa = cross_block_norms(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * m * m * 8, peak / (m * m * 8)
    assert kappa[0, 1] == kappa[1, 0] == 1.0 and kappa[0, 0] == 0.0


def test_coupled_block_pairs_are_read_in_row_blocks():
    # a dense K with 2 x 2 blocks couples every pair; measured 1.65 times
    # K's size, of which the stacked cross blocks are half of one, where
    # the nonzero indices of all of K and their block labels took 6.5
    m = 800
    rng = np.random.default_rng(2)
    cross = 1e-3 * rng.standard_normal((m, m))
    model = GibbsModel(
        partition=BlockPartition(tuple((k, k + 1) for k in range(0, m, 2))),
        precision=cross + cross.T + 10.0 * np.eye(m), mean=np.zeros(m),
        quartic=np.zeros(m))
    model.partition.size_groups  # cached index arrays, O(m)
    model.partition.coordinate_block
    tracemalloc.start()
    try:
        kappa = cross_block_norms(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * m * m * 8, peak / (m * m * 8)
    assert np.all(kappa[np.triu_indices(m // 2, 1)] > 0)


def test_otto_reznikoff_holds_one_dense_copy():
    # diag(rho_k) - kappa is built in kappa's own buffer
    m = 2048
    model = banded_model(m, 3.0, band={1: 1.0})
    model.partition.size_groups  # cached index arrays, O(m)
    block_lsi_constants(model)  # memoised, O(m)
    tracemalloc.start()
    try:
        rho = otto_reznikoff(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * m * m * 8, peak / (m * m * 8)
    assert 1.0 < rho <= 3.0 - 2.0 * np.cos(np.pi / (m + 1))


SINGLETON_MODELS = {
    **{f"chain m={m} band={band}": banded_model(m, 3.0, band=band)
       for m in (64, 128, 256) for band in ({1: 1.0}, {1: -1.0, 2: 0.3})},
    "all singletons": BATCHING_MODELS["all singletons"],
    "permuted singletons": BATCHING_MODELS["permuted singletons"],
}


@pytest.mark.parametrize("name", sorted(SINGLETON_MODELS))
def test_singleton_certificates_bit_equal_to_gathered_reference(name,
                                                                monkeypatch):
    # reference: |K| gathered in block order, zero diagonal, and
    # diag(rho_k) - kappa as a new array; compared by bytes, so a -0.0
    # where the reference has +0.0 fails
    model = SINGLETON_MODELS[name]
    order = [block[0] for block in model.partition.blocks]
    want = np.abs(model.precision[np.ix_(order, order)])
    np.fill_diagonal(want, 0.0)
    assert cross_block_norms(model).tobytes() == want.tobytes()
    rho_k = block_lsi_constants(model)
    mat = np.diag(rho_k) - want
    d0 = np.diag(rho_k[model.partition.coordinate_block])
    marton = min(criteria._lambda_min_lower(d0 - model.cross),
                 criteria._lambda_min_lower(d0 + model.cross))
    rho = criteria._lambda_min_lower(mat)
    report = criteria_report(model)
    assert report.rho_or == (rho if rho > 0 else None)
    assert report.rho_marton == (marton if marton > 0 else None)

    seen = []
    lambda_min_lower = criteria._lambda_min_lower

    def recorded(arg):
        seen.append(arg.tobytes())
        return lambda_min_lower(arg)

    monkeypatch.setattr(criteria, "_lambda_min_lower", recorded)
    try:
        otto_reznikoff(model)
    except CertificateError:
        pass
    assert seen == [mat.tobytes()]


@pytest.mark.parametrize("name", sorted(BATCHING_MODELS))
def test_block_constants_match_per_block_loop(name):
    model = BATCHING_MODELS[name]
    part = model.partition
    want = [np.linalg.eigvalsh(
        model.precision[np.ix_(part.block(k), part.block(k))])[0]
        for k in range(part.n)]
    assert_array_equal(block_lsi_constants(model), want)


def _two_pair_model() -> GibbsModel:
    """A 4-site chain in the blocks {0, 1} and {2, 3}."""
    return GibbsModel(partition=BlockPartition(((0, 1), (2, 3))),
                      precision=toeplitz_matrix(4, 3.0, {1: 1.0}),
                      mean=np.zeros(4), quartic=np.zeros(4))


def test_criteria_report_computes_block_constants_once(monkeypatch):
    # block_lsi_constants takes one stacked (blocks, s, s) eigvalsh per
    # block size above 1, and it is the only caller that stacks: count
    # those.  The report and both certificates read the constants, and
    # the memo on the model computes them once for all of them.
    stacked = []
    eigvalsh = np.linalg.eigvalsh

    def counted(mat, *args, **kwargs):
        if np.ndim(mat) == 3:
            stacked.append(np.shape(mat))
        return eigvalsh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    model = _two_pair_model()
    criteria_report(model)
    solve_rho_marton(model)
    otto_reznikoff(model)
    assert stacked == [(2, 2, 2)]
    criteria_report(_two_pair_model())  # a new model computes its own
    assert len(stacked) == 2
    criteria_report(model_2d())  # 1 x 1 blocks are read off the diagonal
    assert len(stacked) == 2


# ---- combined report ----

def test_criteria_report_reference(model2d):
    rep = criteria_report(model2d)
    assert rep.rho_k == (1.0, 1.0)
    assert rep.delta == pytest.approx(0.5, abs=1e-12)
    assert rep.norm_A0 == pytest.approx(0.5, abs=1e-12)
    assert rep.lambda_max_A0 == pytest.approx(0.5, abs=1e-12)
    assert rep.rho_marton == pytest.approx(RHO_2D, abs=1e-9)
    assert rep.rho_or == pytest.approx(RHO_2D, abs=1e-9)
    assert rep.certified
    assert rep.flags == ()


def test_criteria_report_product_flags():
    rep = criteria_report(product_model())
    assert rep.delta == 1.0
    assert "rho_marton_supremum" in rep.flags
    assert "rho_or_supremum" in rep.flags
    assert rep.rho_marton == pytest.approx(1.0, abs=0)


def test_criteria_report_no_certificate():
    rep = criteria_report(frustrated_triple(0.55))
    assert rep.delta == pytest.approx(-0.1, abs=1e-12)
    assert rep.rho_marton is None
    assert rep.rho_or is None
    assert not rep.certified
    assert "no_certificate" in rep.flags
    assert "or_infeasible" in rep.flags


def test_criteria_report_quartic_certified(rng):
    # the quartic term leaves the cross-block Hessian equal to the
    # off-block part of K, so the report is exact and certifies
    model = random_quartic_model(rng, dim=3)
    gaussian = GibbsModel(partition=model.partition,
                          precision=model.precision, mean=model.mean,
                          quartic=np.zeros(3))
    rep = criteria_report(model)
    assert rep.certified
    assert rep == criteria_report(gaussian)


def test_criteria_report_rejects_indefinite_block():
    prec = np.array([[1.0, 0.0, 0.0],
                     [0.0, 1.0, 3.0],
                     [0.0, 3.0, 1.0]])
    part = BlockPartition(((0,), (1, 2)))
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(3),
                       quartic=np.full(3, 0.5))
    with pytest.raises(CertificateError):
        criteria_report(model)


def test_report_invariant_violation_raises():
    with pytest.raises(ValueError):
        CriteriaReport(rho_k=(1.0,), norm_A0=0.5, rho_marton=2.0,
                       rho_or=None, lambda_max_A0=None, flags=())


# ---- banded spectra ----

def test_toeplitz_report_reference_values():
    rep = toeplitz_spectrum_report(64, 0.0, {1: 1.0, 2: -1.0})
    assert rep.max_symbol == pytest.approx(2.25, abs=1e-12)
    assert rep.min_symbol == pytest.approx(-4.0, abs=1e-12)
    assert rep.sup_abs_symbol == pytest.approx(4.0, abs=1e-12)
    assert rep.abs_max_symbol == pytest.approx(4.0, abs=1e-12)
    assert rep.note != ""

    # eigenvalue fields against a direct solve
    mat = toeplitz_matrix(64, 0.0, {1: 1.0, 2: -1.0})
    evals = np.linalg.eigvalsh(mat)
    assert rep.lambda_max_bm == pytest.approx(float(evals[-1]), abs=1e-12)
    assert rep.lambda_min_bm == pytest.approx(float(evals[0]), abs=1e-12)
    assert rep.svd_norm_bm == pytest.approx(float(np.abs(evals).max()),
                                            abs=1e-12)
    aevals = np.linalg.eigvalsh(np.abs(mat))
    assert rep.abs_lambda_max_bm == pytest.approx(float(aevals[-1]),
                                                  abs=1e-12)


def test_toeplitz_report_interlacing_and_monotone():
    band = {1: 1.0, 2: -1.0}
    prev = -np.inf
    for m in (8, 16, 32, 64):
        rep = toeplitz_spectrum_report(m, 0.0, band)
        assert rep.min_symbol - 1e-9 <= rep.lambda_min_bm
        assert rep.lambda_max_bm <= rep.max_symbol + 1e-9
        assert rep.lambda_max_bm >= prev - 1e-12
        prev = rep.lambda_max_bm


def test_toeplitz_report_no_note_when_positive():
    rep = toeplitz_spectrum_report(16, 3.0, {1: -1.0})
    assert rep.min_symbol == pytest.approx(1.0, abs=1e-12)
    assert rep.max_symbol == pytest.approx(5.0, abs=1e-12)
    assert rep.note == ""


def test_toeplitz_report_empty_band_is_constant_symbol():
    rep = toeplitz_spectrum_report(8, -1.5, {})
    assert rep.max_symbol == rep.min_symbol == -1.5
    assert rep.sup_abs_symbol == 1.5
    assert rep.lambda_max_bm == rep.lambda_min_bm == -1.5
    assert rep.abs_max_symbol == 1.5


@pytest.mark.parametrize("off", [-1, 0, 8, 100_000])
def test_toeplitz_report_rejects_offsets_outside_section(off):
    with pytest.raises(ModelValidationError):
        toeplitz_spectrum_report(8, 0.0, {off: 1.0})


@pytest.mark.parametrize("band", [{1: 1.0, "1": -3.0}, {1.7: 1.0},
                                  {True: 1.0}, {"+1": 1.0, "01": 2.0}])
def test_toeplitz_report_reads_band_keys_as_integers(band):
    # the rule model documents follow: int() kept {1: 1, "1": -3} as
    # b_1 = -3 and read 1.7 and True as offset 1
    with pytest.raises(ModelFormatError, match="band keys"):
        toeplitz_spectrum_report(8, 3.0, band)
    assert toeplitz_spectrum_report(8, 3.0, {"01": 1.0, 2: 0.5}).band == (
        (1, 1.0), (2, 0.5))


def test_toeplitz_report_holds_one_section_at_a_time():
    # the band's section is solved and freed before its absolute value's
    # is built; both at once would hold about 2 m^2
    m = 2048
    tracemalloc.start()
    try:
        rep = toeplitz_spectrum_report(m, 0.0, {1: 1.0, 2: -1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * m * m * 8, peak / (m * m * 8)
    assert rep.abs_lambda_max_bm == pytest.approx(rep.svd_norm_bm, rel=1e-12)


def test_toeplitz_report_rejects_tiny_sections():
    with pytest.raises(ValueError):
        toeplitz_spectrum_report(3, 0.0, {1: 1.0})
