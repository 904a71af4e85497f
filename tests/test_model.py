import gc
import hashlib
import json
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import eigvals_banded

from lsicert import model as lsimodel
from lsicert.model import (
    BlockPartition,
    GibbsModel,
    ModelFormatError,
    ModelValidationError,
    load_model,
    model_digest,
    model_from_dict,
    model_to_dict,
    extreme_eigvalsh,
    save_model,
    toeplitz_matrix,
)
from lsicert.criteria import criteria_report, toeplitz_spectrum_report
from lsicert.fokker_planck import entropy_trace
from lsicert.gaussian import (GaussianDist, GaussianStack, avg_conditional_kl,
                              gaussian_target)
from lsicert.gibbs import verify_contraction
from lsicert.instances import (model_2d, random_certified_model,
                               random_quartic_model)

from conftest import INDEFINITE_DOCS, batching_cases, must_not_run
from reference import random_certified_model_loop, random_quartic_model_loop


def test_partition_basic():
    part = BlockPartition(((0, 2), (1,), (3,)))
    assert part.n == 3
    assert part.dim == 4
    assert part.sizes == (2, 1, 1)
    assert list(part.block(0)) == [0, 2]
    assert list(part.complement(0)) == [1, 3]
    assert list(part.coordinate_block) == [0, 1, 0, 2]


def test_coordinate_block_equals_per_block_loop():
    part = batching_cases()["mixed sizes"][1]
    want = np.empty(part.dim, dtype=int)
    for k, blk in enumerate(part.blocks):
        want[list(blk)] = k
    assert part.coordinate_block.tolist() == want.tolist()


def test_partition_rejects_overlap():
    with pytest.raises(ModelValidationError):
        BlockPartition(((0,), (0, 1)))


def test_partition_rejects_gap():
    with pytest.raises(ModelValidationError):
        BlockPartition(((0,), (2,)))


def test_partition_rejects_empty_block():
    with pytest.raises(ModelValidationError):
        BlockPartition(((0,), ()))


def test_model_requires_pd_precision_when_gaussian():
    part = BlockPartition(((0,), (1,)))
    with pytest.raises(ModelValidationError):
        GibbsModel(partition=part, precision=np.array([[1.0, 2.0], [2.0, 1.0]]),
                   mean=np.zeros(2), quartic=np.zeros(2))


def test_indefinite_precision_allowed_with_quartic():
    part = BlockPartition(((0,), (1,)))
    model = GibbsModel(partition=part,
                       precision=np.array([[1.0, 2.0], [2.0, 1.0]]),
                       mean=np.zeros(2), quartic=np.array([0.5, 0.5]))
    assert not model.is_gaussian


def test_model_rejects_asymmetric_precision():
    part = BlockPartition(((0,), (1,)))
    with pytest.raises(ModelValidationError):
        GibbsModel(partition=part, precision=np.array([[1.0, 0.3], [0.1, 1.0]]),
                   mean=np.zeros(2), quartic=np.zeros(2))


def test_model_symmetrizes_roundoff():
    part = BlockPartition(((0,), (1,)))
    prec = np.array([[1.0, 0.25 + 1e-14], [0.25, 1.0]])
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(2),
                       quartic=np.zeros(2))
    assert model.precision[0, 1] == model.precision[1, 0]


def test_model_symmetrizes_entries_near_overflow():
    # 0.5 K + 0.5 K' halves before it adds, so entries near 2^1023 are
    # kept as they are; 0.5 (K + K') overflowed to inf on them
    part = BlockPartition(((0,), (1,)))
    prec = np.array([[1.7e308, 1.5e308], [1.5e308, 1.7e308]])
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(2),
                       quartic=np.full(2, 0.1))
    assert model.precision is not prec
    assert model.precision.tobytes() == prec.tobytes()


def test_model_rejects_negative_quartic():
    part = BlockPartition(((0,),))
    with pytest.raises(ModelValidationError):
        GibbsModel(partition=part, precision=np.eye(1), mean=np.zeros(1),
                   quartic=np.array([-0.1]))


def test_model_rejects_wrong_shapes():
    part = BlockPartition(((0,), (1,)))
    with pytest.raises(ModelFormatError):
        GibbsModel(partition=part, precision=np.eye(3), mean=np.zeros(2),
                   quartic=np.zeros(2))
    with pytest.raises(ModelFormatError):
        GibbsModel(partition=part, precision=np.eye(2), mean=np.zeros(3),
                   quartic=np.zeros(2))


def test_toeplitz_matrix_entries():
    mat = toeplitz_matrix(5, 3.0, {1: 1.0, 2: -1.0})
    assert_allclose(np.diag(mat), 3.0)
    assert_allclose(np.diag(mat, k=1), 1.0)
    assert_allclose(np.diag(mat, k=-2), -1.0)
    assert mat[0, 3] == 0.0


def _dense_toeplitz_sum(m, diag, band):
    """diag*I + sum_j b_j (E_j + E_-j) summed as dense arrays, term by term."""
    mat = np.eye(m) * float(diag)
    for off, coeff in band.items():
        mat += float(coeff) * (np.eye(m, k=off) + np.eye(m, k=-off))
    return mat


TOEPLITZ_FIXTURES = [
    (5, 3.0, {1: 1.0, 2: -1.0}), (6, 3.0, {1: 1.0}), (16, 3.0, {1: 1.0, 2: -1.0}),
    (24, 3.0, {1: 1.0}), (12, 3.0, {1: 0.7}), (64, 3.0, {1: -1.0, 2: 0.3}),
    (4, 1.0, {}), (7, -3.0, {1: -1.0, 2: -0.5}), (7, -0.0, {1: -0.0}),
    (7, -2.0, {3: 0.0, 1: -1.0}), (3, 0.0, {2: -4.0}),
]


@pytest.mark.parametrize("m, diag, band", TOEPLITZ_FIXTURES)
def test_toeplitz_matrix_rounds_as_the_dense_sum(m, diag, band):
    # signed zeros included: -3 I + (-1)(E_1 + E_-1) has -0.0 off the band
    got = toeplitz_matrix(m, diag, band)
    assert got.tobytes() == _dense_toeplitz_sum(m, diag, band).tobytes()
    part = [[i] for i in range(m)]
    doc = {"dim": m, "partition": part, "quartic": [0.1] * m,
           "toeplitz": {"m": m, "diag": diag,
                        "band": {str(k): v for k, v in band.items()}}}
    dense = GibbsModel(partition=BlockPartition(tuple(map(tuple, part))),
                       precision=_dense_toeplitz_sum(m, diag, band),
                       mean=np.zeros(m), quartic=np.full(m, 0.1))
    assert model_digest(model_from_dict(doc)) == model_digest(dense)


def test_toeplitz_matrix_builds_one_dense_array():
    m = 1000
    tracemalloc.start()
    try:
        mat = toeplitz_matrix(m, 3.0, {1: 1.0, 2: -1.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.shape == (m, m)
    assert peak <= 1.1 * m * m * 8


def test_toeplitz_document_loads_with_one_dense_array():
    # the symmetry check takes K - K' a row block at a time, and the K a
    # toeplitz spec or a dense document builds is exactly symmetric, so
    # the model keeps it: loading peaks near the one m x m array that
    # DENSE_BYTE_BUDGET charges
    m = 2000
    rows = [[3.0 if i == j else 1.0 if abs(i - j) == 1 else 0.0
             for j in range(m)] for i in range(m)]
    for key, val in (("toeplitz", {"m": m, "diag": 3.0,
                                   "band": {"1": 1.0, "2": -0.5}}),
                     ("precision", rows)):
        doc = {"dim": m, "partition": [[i] for i in range(m)], key: val}
        tracemalloc.start()
        try:
            model = model_from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.precision.shape == (m, m)
        assert peak <= 1.25 * m * m * 8


@pytest.mark.parametrize("row, col", [(0, 1), (63, 62), (64, 65),
                                      (199, 198)])
def test_symmetry_check_sees_every_row_block(monkeypatch, row, col):
    # 64-row blocks of a 200 x 200 K: an asymmetric pair inside the first
    # block, on either side of a block edge, or in the short last block;
    # the same rows of the second law of a stack, and the same laws of a
    # stack of 200 small covariances taken 64 at a time
    monkeypatch.setattr(lsimodel, "CHUNK_BYTES", 64 * 200 * 8)
    prec = np.eye(200)
    prec[row, col] = 1e-3
    part = BlockPartition(tuple((i,) for i in range(200)))
    with pytest.raises(ModelValidationError, match="not symmetric"):
        GibbsModel(partition=part, precision=prec, mean=np.zeros(200),
                   quartic=np.zeros(200))
    covs = np.stack([np.eye(200), prec])
    with pytest.raises(ValueError, match="cov must be symmetric"):
        GaussianStack(np.zeros((2, 200)), covs)
    prec[col, row] = 1e-3
    GibbsModel(partition=part, precision=prec, mean=np.zeros(200),
               quartic=np.zeros(200))
    GaussianStack(np.zeros((2, 200)), np.stack([np.eye(200), prec]))

    small = np.tile(np.eye(4), (200, 1, 1))
    small[row, 0, 1] = 1e-3
    with pytest.raises(ValueError, match="cov must be symmetric"):
        GaussianStack(np.zeros((200, 4)), small)
    small[row, 1, 0] = 1e-3
    GaussianStack(np.zeros((200, 4)), small)


def test_model_keeps_a_read_only_symmetric_precision_without_a_copy():
    prec = toeplitz_matrix(6, 3.0, {1: 1.0})
    prec.flags.writeable = False
    part = BlockPartition(tuple((i,) for i in range(6)))
    kept = GibbsModel(partition=part, precision=prec, mean=np.zeros(6),
                      quartic=np.zeros(6))
    assert kept.precision is prec
    writable = toeplitz_matrix(6, 3.0, {1: 1.0})
    copied = GibbsModel(partition=part, precision=writable, mean=np.zeros(6),
                        quartic=np.zeros(6))
    assert copied.precision is not writable and writable.flags.writeable
    assert copied.precision.tobytes() == prec.tobytes()


def test_toeplitz_rejects_bad_offset():
    with pytest.raises(ModelValidationError):
        toeplitz_matrix(4, 1.0, {4: 1.0})
    with pytest.raises(ModelValidationError):
        toeplitz_matrix(4, 1.0, {0: 1.0})


def test_model_roundtrip(model2d, tmp_path):
    # every float comes back with its bits; the file is one compact line
    path = tmp_path / "m.json"
    for model in (model2d,
                  random_certified_model(np.random.default_rng(4), dim=12),
                  random_quartic_model(np.random.default_rng(5), dim=6)):
        save_model(model, path)
        assert path.read_text().count("\n") == 1
        loaded = load_model(path)
        for name in ("precision", "mean", "quartic"):
            assert getattr(loaded, name).tobytes() \
                == getattr(model, name).tobytes()
        assert loaded.partition.blocks == model.partition.blocks


def test_load_model_toeplitz_shorthand(tmp_path):
    doc = {"dim": 6, "partition": [[i] for i in range(6)],
           "toeplitz": {"m": 6, "diag": 3.0, "band": {"1": 1.0}}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert_allclose(model.precision, toeplitz_matrix(6, 3.0, {1: 1.0}))
    assert_allclose(model.mean, 0.0)


def test_load_model_indefinite_toeplitz_needs_quartic(tmp_path):
    # symbol 3 + 2cos(t) - 2cos(2t) dips below zero, so the pure
    # Gaussian model is rejected while the quartic variant loads
    doc = {"dim": 16, "partition": [[i] for i in range(16)],
           "toeplitz": {"m": 16, "diag": 3.0, "band": {"1": 1.0, "2": -1.0}}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelValidationError):
        load_model(path)
    doc["quartic"] = [1e-6] * 16
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert model.quartic[0] == pytest.approx(1e-6)


def test_load_model_defaults(tmp_path):
    doc = {"dim": 2, "partition": [[0], [1]],
           "precision": [[1.0, -0.5], [-0.5, 1.0]]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    model = load_model(path)
    assert_allclose(model.mean, 0.0)
    assert model.is_gaussian


def test_model_digest_byte_layout():
    model = random_certified_model(np.random.default_rng(11), dim=5)
    h = hashlib.sha256()
    for arr in (model.precision, model.mean, model.quartic):
        h.update(struct.pack(f"<{arr.size}d", *arr.ravel().tolist()))
    for blk in model.partition.blocks:
        h.update(struct.pack(f"<{len(blk) + 1}q", len(blk), *blk))
    assert model_digest(model) == h.hexdigest()


def test_model_digest_depends_on_partition():
    prec = toeplitz_matrix(4, 3.0, {1: 1.0})
    digests = {model_digest(GibbsModel(partition=BlockPartition(blocks),
                                       precision=prec, mean=np.zeros(4),
                                       quartic=np.zeros(4)))
               for blocks in (((0, 1), (2, 3)), ((0,), (1, 2, 3)),
                              ((0, 1, 2, 3),), ((1, 0), (2, 3)))}
    assert len(digests) == 4


def test_load_model_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


@pytest.mark.parametrize("band", [{1.7: 1.0}, {True: 1.0}, {1: 1.0, "1": 0.5},
                                  {"1.0": 1.0}, {" 1": 1.0}, {"1_0": 1.0}])
def test_model_from_dict_reads_band_keys_as_integers(band):
    # a key is an integer, not a bool, or a decimal-integer string, one
    # per offset: int() read 1.7 and True as 1, " 1" as 1 and "1_0" as
    # 10, and kept the last of two keys naming one offset
    doc = {"dim": 4, "partition": [[i] for i in range(4)],
           "toeplitz": {"m": 4, "diag": 3.0, "band": band}}
    with pytest.raises(ModelFormatError, match="band keys"):
        model_from_dict(doc)
    doc["toeplitz"]["band"] = {"01": 1.0, 2: 0.5}
    assert model_from_dict(doc).precision.tobytes() == toeplitz_matrix(
        4, 3.0, {1: 1.0, 2: 0.5}).tobytes()


@pytest.mark.parametrize("key, value", [
    ("band", {"1": True}), ("band", {"1": "0.5"}), ("band", {"1": None}),
    ("band", {"1": 10 ** 400}), ("diag", True), ("diag", "3"),
    ("diag", 10 ** 400)], ids=["bool-coefficient", "text-coefficient",
                               "null-coefficient", "huge-coefficient",
                               "bool-diag", "text-diag", "huge-diag"])
def test_model_from_dict_reads_toeplitz_scalars_as_real_numbers(key, value):
    # float() read True as 1.0 and "0.5" as 0.5, and raised OverflowError
    # on an integer past the float range
    doc = {"dim": 4, "partition": [[i] for i in range(4)],
           "toeplitz": {"m": 4, "diag": 3.0, "band": {"1": 1.0}}}
    doc["toeplitz"][key] = value
    with pytest.raises(ModelFormatError, match="real number"):
        model_from_dict(doc)
    doc["toeplitz"].update(diag=3, band={"1": 1})
    assert model_from_dict(doc).precision.tobytes() == toeplitz_matrix(
        4, 3.0, {1: 1.0}).tobytes()


def test_load_model_missing_file(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "absent.json")


def test_model_from_dict_requires_exactly_one_matrix_source():
    base = {"dim": 2, "partition": [[0], [1]]}
    with pytest.raises(ModelFormatError):
        model_from_dict(base)
    both = dict(base, precision=[[1, 0], [0, 1]],
                toeplitz={"m": 2, "diag": 1.0, "band": {}})
    with pytest.raises(ModelFormatError):
        model_from_dict(both)


def test_model_from_dict_dim_mismatch():
    doc = {"dim": 3, "partition": [[0], [1]],
           "precision": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(ModelValidationError):
        model_from_dict(doc)


@pytest.mark.parametrize("dim", [0, 1])
def test_random_certified_model_needs_two_coordinates(dim):
    # one coordinate cannot be split into the two blocks a model needs
    with pytest.raises(ValueError, match="dim >= 2"):
        random_certified_model(np.random.default_rng(0), dim=dim)


@pytest.mark.parametrize("target_norm", [
    float("nan"), float("inf"), -float("inf"), True, False, 1.0, 1.5, -0.1,
    -1e-300, "0.5", None])
@pytest.mark.parametrize("dim", [None, 6])
def test_random_certified_model_refuses_bad_target_norm(target_norm, dim):
    # an interaction norm outside [0, 1) would give an uncertified model,
    # a failed validation or a flipped cross part: it is refused before
    # the generator draws anything
    if target_norm is None:
        target_norm = np.float64(1.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"target_norm must be a real "
                                         r"number in \[0, 1\)"):
        random_certified_model(rng, dim=dim, target_norm=target_norm)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("target_norm", [0.0, 0, 0.9, np.float64(0.9)])
def test_random_certified_model_edge_norms_certify(target_norm):
    # the ends of the admitted range give the norm asked for, and a
    # certificate
    for seed in range(20):
        model = random_certified_model(np.random.default_rng(seed), dim=6,
                                       target_norm=target_norm)
        report = criteria_report(model)
        assert report.certified
        assert report.norm_A0 == pytest.approx(float(target_norm), abs=1e-12)


def _same_draw(model, want, rng, rng_want):
    assert model.partition == want.partition
    for name in ("precision", "mean", "quartic"):
        assert getattr(model, name).tobytes() == getattr(want, name).tobytes()
    assert rng.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("dim", [None, 2, 3, 17, 64])
def test_random_models_match_the_block_by_block_draw(dim):
    # the stacked blocks draw the same stream and give, bit for bit, the
    # models that one random_spd per block and a block-diagonal model's
    # block_lsi_constants give
    for seed in range(200):
        for target_norm in (None, 0.25, 0.9):
            rng, rng_want = (np.random.default_rng(seed) for _ in range(2))
            _same_draw(random_certified_model(rng, dim, target_norm),
                       random_certified_model_loop(rng_want, dim, target_norm),
                       rng, rng_want)
        rng, rng_want = (np.random.default_rng(seed) for _ in range(2))
        _same_draw(random_quartic_model(rng, dim),
                   random_quartic_model_loop(rng_want, dim), rng, rng_want)


def test_model_to_dict_roundtrip_values(model2d):
    doc = model_to_dict(model2d)
    again = model_from_dict(doc)
    assert_allclose(again.precision, model2d.precision)
    assert doc["quartic"] == [0.0, 0.0]


# The curvature (rho_k > 0) and interaction (delta > 0) assumptions behind
# the criteria, read from criteria_report.

def test_verify_assumptions_reference(model2d):
    report = criteria_report(model2d)
    assert report.rho_k == (1.0, 1.0)
    assert report.certified
    assert report.delta == pytest.approx(0.5, abs=1e-12)


def test_verify_assumptions_near_critical_coupling():
    part = BlockPartition(((0,), (1,)))
    model = GibbsModel(partition=part,
                       precision=np.array([[1.0, 0.999], [0.999, 1.0]]),
                       mean=np.zeros(2), quartic=np.zeros(2))
    report = criteria_report(model)
    assert report.certified
    assert report.delta == pytest.approx(0.001, abs=1e-12)


def test_verify_assumptions_no_margin():
    part = BlockPartition(((0,), (1,), (2,)))
    prec = np.full((3, 3), 0.55)
    np.fill_diagonal(prec, 1.0)
    model = GibbsModel(partition=part, precision=prec, mean=np.zeros(3),
                       quartic=np.zeros(3))
    report = criteria_report(model)
    assert min(report.rho_k) > 0
    assert report.delta <= 0
    assert report.rho_marton is None


def test_verify_assumptions_quartic_exact():
    part = BlockPartition(((0,), (1,)))
    model = GibbsModel(partition=part,
                       precision=np.array([[1.0, -0.5], [-0.5, 1.0]]),
                       mean=np.zeros(2), quartic=np.array([0.2, 0.2]))
    report = criteria_report(model)
    # the quartic Hessian term vanishes at x = 0, where each block
    # attains its infimum curvature
    assert report.rho_k == (1.0, 1.0)
    assert report.delta == pytest.approx(0.5, abs=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.floats(0.05, 1.0))
@settings(max_examples=25)
def test_delta_monotone_in_coupling_scale(seed, scale):
    rng = np.random.default_rng(seed)
    model = random_certified_model(rng)
    diag_part = np.zeros_like(model.precision)
    for k in range(model.partition.n):
        idx = model.partition.block(k)
        diag_part[np.ix_(idx, idx)] = model.precision[np.ix_(idx, idx)]
    cross = model.precision - diag_part
    shrunk = GibbsModel(partition=model.partition,
                        precision=diag_part + scale * cross,
                        mean=model.mean, quartic=model.quartic)
    d_full = criteria_report(model).delta
    d_shrunk = criteria_report(shrunk).delta
    assert d_shrunk >= d_full - 1e-12



def _band_matrix(rng, m, b):
    """Random symmetric m x m matrix with lower bandwidth b."""
    raw = rng.standard_normal((m, m))
    return np.tril(np.triu(raw + raw.T, -b), b)


def _assert_matches_eigvalsh(mat, got):
    evals = np.linalg.eigvalsh(mat)
    tol = len(mat) * np.finfo(float).eps * np.abs(evals).max()
    assert abs(got[0] - evals[0]) <= tol
    assert abs(got[1] - evals[-1]) <= tol


# (m, b, banded): below the crossover by size (m < 64) or by width
# (32 b > m), and above it
EXTREME_CASES = [(40, 0, False), (40, 1, False), (40, 2, False),
                 (64, 0, True), (64, 1, True), (64, 2, True), (64, 3, False),
                 (200, 2, True), (200, 8, False), (256, 8, True)]


@pytest.mark.parametrize("m, b, banded", EXTREME_CASES)
def test_extreme_eigvalsh_matches_eigvalsh(banded_solves, rng, m, b, banded):
    mat = _band_matrix(rng, m, b)
    _assert_matches_eigvalsh(mat, extreme_eigvalsh(mat))
    assert banded_solves == ([(b + 1, m)] * 2 if banded else [])


@pytest.mark.parametrize("m", [8, 64, 200])
def test_extreme_eigvalsh_dense_matrices_stay_dense(banded_solves, rng, m):
    mat = _band_matrix(rng, m, m - 1)
    _assert_matches_eigvalsh(mat, extreme_eigvalsh(mat))
    assert banded_solves == []


def test_extreme_eigvalsh_far_entry_widens_the_band(banded_solves, rng):
    mat = _band_matrix(rng, 256, 1)
    mat[255, 0] = mat[0, 255] = 0.5
    _assert_matches_eigvalsh(mat, extreme_eigvalsh(mat))
    assert banded_solves == []


def test_extreme_eigvalsh_tiny_matrices():
    assert extreme_eigvalsh(np.array([[-2.5]])) == (-2.5, -2.5)
    lo, hi = extreme_eigvalsh(np.array([[1.0, 2.0], [2.0, 1.0]]))
    tol = 2 * np.finfo(float).eps * 3.0
    assert lo == pytest.approx(-1.0, abs=tol)
    assert hi == pytest.approx(3.0, abs=tol)


@pytest.mark.parametrize("m", [16, 256])
def test_extreme_eigvalsh_indefinite_chain(m):
    # 0.5 I + E_1 + E_-1 has eigenvalues 0.5 + 2 cos(k pi / (m + 1))
    lo, hi = extreme_eigvalsh(toeplitz_matrix(m, 0.5, {1: 1.0}))
    tol = m * np.finfo(float).eps * 2.5
    assert lo == pytest.approx(0.5 - 2.0 * np.cos(np.pi / (m + 1)), abs=tol)
    assert hi == pytest.approx(0.5 + 2.0 * np.cos(np.pi / (m + 1)), abs=tol)
    assert lo < 0 < hi


@pytest.mark.parametrize("b", [1, 2, 8])
@pytest.mark.parametrize("m", [64, 200, 512])
def test_banded_eigval_matches_eigvals_banded_bits(rng, m, b):
    # lower band storage, whether or not extreme_eigvalsh routes m, b to it
    mat = _band_matrix(rng, m, b)
    band = np.array([np.pad(np.diagonal(mat, -k), (0, k))
                     for k in range(b + 1)])
    for i in (0, 1, m // 2, m - 1):
        want = eigvals_banded(band, lower=True, select="i",
                              select_range=(i, i))
        assert np.float64(lsimodel._banded_eigval(band, i + 1)).tobytes() \
            == want[0].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_banded_eigval_refuses_non_finite_band(bad):
    band = np.ones((3, 64))
    band[1, 5] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        lsimodel._banded_eigval(band, 1)


@pytest.mark.parametrize("banded", [False, True], ids=["dense d=16",
                                                     "banded m=64"])
def test_positive_definite_gaussian_builds_with_no_eigen_solve(
        monkeypatch, banded_choleskys, banded):
    # one Cholesky decides: dpbtrf on the band, else np.linalg.cholesky
    precision = toeplitz_matrix(64, 3.0, {1: 1.0}) if banded \
        else random_certified_model(np.random.default_rng(16),
                                    dim=16).precision
    dim = len(precision)
    monkeypatch.setattr(lsimodel, "extreme_eigvalsh", must_not_run)
    if banded:
        monkeypatch.setattr(np.linalg, "cholesky", must_not_run)
    GibbsModel(partition=BlockPartition(tuple((i,) for i in range(dim))),
               precision=precision, mean=np.zeros(dim), quartic=np.zeros(dim))
    assert banded_choleskys == ([(2, 64)] if banded else [])


@pytest.mark.parametrize("name", sorted(INDEFINITE_DOCS))
def test_indefinite_gaussian_refused_with_its_min_eigenvalue(
        banded_choleskys, name):
    doc, message = INDEFINITE_DOCS[name]
    with pytest.raises(ModelValidationError) as err:
        model_from_dict(doc)
    assert str(err.value) == message
    assert banded_choleskys == ([(2, 64)] if name == "banded chain" else [])


def _whole_mask_bandwidth(mat):
    rows, cols = np.nonzero(mat)
    return int(np.max(rows - cols, initial=0))


@pytest.mark.parametrize("row, col", [(0, 0), (63, 0), (64, 2), (64, 63),
                                      (199, 100), (199, 0)])
def test_lower_bandwidth_sees_every_row_block(monkeypatch, rng, row, col):
    # 64-row blocks of a 200 x 200 chain: the widest entry in the first
    # block, on either side of a block edge, or in the short last block
    monkeypatch.setattr(lsimodel, "CHUNK_BYTES", 64 * 200)
    mat = _band_matrix(rng, 200, 1)
    mat[row, col] = mat[col, row] = 0.5
    assert lsimodel._lower_bandwidth(mat) == _whole_mask_bandwidth(mat) \
        == max(1, row - col)
    assert lsimodel._lower_bandwidth(np.zeros((200, 200))) == 0


def test_lower_bandwidth_scans_the_mask_in_row_blocks():
    # the whole m x m boolean mask would be 4 MiB at m = 2048
    m = 2048
    mat = toeplitz_matrix(m, 3.0, {1: 1.0, 5: -0.5})
    tracemalloc.start()
    try:
        width = lsimodel._lower_bandwidth(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert width == 5
    assert peak <= 2 << 20, peak


@pytest.mark.parametrize("m", [64, 128, 256])
@pytest.mark.parametrize("band", [{1: 1.0}, {1: -1.0, 2: 0.3}])
def test_chain_fixtures_take_the_banded_path(banded_solves,
                                            banded_choleskys, m, band):
    model = model_from_dict(
        {"dim": m, "partition": [[i] for i in range(m)],
         "toeplitz": {"m": m, "diag": 3.0,
                      "band": {str(k): v for k, v in band.items()}}})
    # the positive-definiteness check: one banded Cholesky, no solve
    assert banded_solves == []
    assert banded_choleskys == [(max(band) + 1, m)]
    criteria_report(model)
    # A0, D0 - C, D0 + C and diag(rho_k) - kappa: two solves each
    assert len(banded_solves) == 4 * 2
    toeplitz_spectrum_report(m, 0.0, {1: 1.0, 2: -1.0})
    assert len(banded_solves) == 4 * 2 + 2 * 2
    assert set(banded_solves) == {(max(band) + 1, m), (3, m)}
    assert len(banded_choleskys) == 1


@pytest.mark.parametrize("dim", [16, 32, 64])
def test_dense_gaussian_fixtures_keep_the_dense_path(banded_solves, dim):
    rng = np.random.default_rng(dim)
    for model in (random_certified_model(rng, dim=dim),
                  random_quartic_model(rng, dim=dim)):
        criteria_report(model)
    assert banded_solves == []


def _through_every_memo(m: int) -> GibbsModel:
    """A chain of m coordinates in four blocks, passed through every
    routine that keeps a derived quantity on the model or its target."""
    model = model_from_dict(
        {"dim": m, "partition": [list(range(i, i + m // 4))
                                 for i in range(0, m, m // 4)],
         "toeplitz": {"m": m, "diag": 4.0, "band": {"1": 1.0}}})
    q = gaussian_target(model)
    p = GaussianDist(q.mean + 1.0, q.cov)
    avg_conditional_kl(p, q, model.partition)
    report = criteria_report(model)
    verify_contraction(p, model, report.rho_k, report.rho_marton, steps=1)
    entropy_trace(p, model, np.linspace(0.0, 1.0, 5))
    return model


def test_derived_quantities_are_freed_with_the_model():
    _through_every_memo(256)  # one-time allocations happen before the baseline
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        refs = [weakref.ref(_through_every_memo(256)) for _ in range(3)]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert all(ref() is None for ref in refs)
    # each model's K alone is 512 KiB
    assert kept < 256 << 10


def _memo_arrays(value):
    """The arrays of a memoised value: through tuples, and a law's mean,
    covariance and its own memo; a float holds none."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, float):
        return
    elif isinstance(value, tuple):
        for item in value:
            yield from _memo_arrays(item)
    elif isinstance(value, GaussianDist):
        yield from _memo_arrays((value.mean, value.cov,
                                 *vars(value)["_per_object"].values()))
    else:
        raise AssertionError(f"unexpected memoised value {value!r}")


def test_memoised_arrays_are_read_only():
    model = _through_every_memo(16)
    store = vars(model)["_per_object"]
    assert {key[0].__name__ for key in store} == {
        "block_lsi_constants", "a0_extremes", "gaussian_target",
        "memo_conditionals", "_precision_eigh"}
    arrays = list(_memo_arrays(tuple(store.values())))
    assert len(arrays) > len(store)
    assert not any(arr.flags.writeable for arr in arrays)
