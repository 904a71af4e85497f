import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lsicert.model import (
    BlockPartition,
    GibbsModel,
    ModelFormatError,
    ModelValidationError,
    load_model,
    model_digest,
    model_from_dict,
    model_to_dict,
    save_model,
    toeplitz_matrix,
)
from lsicert.criteria import criteria_report
from lsicert.instances import model_2d, random_certified_model


def test_partition_basic():
    part = BlockPartition(((0, 2), (1,), (3,)))
    assert part.n == 3
    assert part.dim == 4
    assert part.sizes == (2, 1, 1)
    assert list(part.block(0)) == [0, 2]
    assert list(part.complement(0)) == [1, 3]
    assert list(part.coordinate_block) == [0, 1, 0, 2]


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


def test_toeplitz_rejects_bad_offset():
    with pytest.raises(ModelValidationError):
        toeplitz_matrix(4, 1.0, {4: 1.0})
    with pytest.raises(ModelValidationError):
        toeplitz_matrix(4, 1.0, {0: 1.0})


def test_model_roundtrip(model2d, tmp_path):
    path = tmp_path / "m.json"
    save_model(model2d, path)
    loaded = load_model(path)
    assert_allclose(loaded.precision, model2d.precision)
    assert_allclose(loaded.mean, model2d.mean)
    assert loaded.partition.blocks == model2d.partition.blocks


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

