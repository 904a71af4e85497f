"""Command line interface checks: output formats, exit codes,
byte-for-byte determinism."""

import argparse
import copy
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsicert import cli, criteria, fokker_planck, gibbs
from lsicert import model as lsimodel
from lsicert.criteria import Check, criteria_report
from lsicert.gaussian import GaussianDist, gaussian_target
from lsicert.instances import (model_2d, random_certified_model,
                               random_gaussian, random_quartic_model)
from lsicert.model import (BlockPartition, GibbsModel, load_model,
                           model_digest, model_to_dict, save_model,
                           toeplitz_matrix)
from lsicert.oracles import prop4_check, transport_check

from conftest import INDEFINITE_DOCS, must_not_run


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(model_2d(), path)
    return str(path)


@pytest.fixture
def bad_model_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "dim": 2, "partition": [[0], [1]],
        "precision": [[1.0, 2.0], [2.0, 1.0]],
    }))
    return str(path)


@pytest.fixture
def uncertified_model_path(tmp_path):
    prec = np.full((3, 3), 0.55)
    np.fill_diagonal(prec, 1.0)
    path = tmp_path / "frustrated.json"
    path.write_text(json.dumps({
        "dim": 3, "partition": [[0], [1], [2]],
        "precision": prec.tolist(),
    }))
    return str(path)


@pytest.fixture
def quartic_model_path(tmp_path):
    path = tmp_path / "quartic.json"
    save_model(random_quartic_model(np.random.default_rng(3), dim=4), path)
    return str(path)


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_loads(text):
    def refuse(token):
        raise ValueError(f"non-RFC JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


# ---- criteria ----

def test_criteria_json_report(model_path, capsys):
    code, out, _ = run(["criteria", model_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[:7] == ["model", "rho_k", "delta", "rho_marton",
                             "rho_or", "flags", "certified"]
    assert doc["rho_k"] == [1.0, 1.0]
    assert doc["delta"] == pytest.approx(0.5)
    assert doc["rho_marton"] == pytest.approx(0.5, abs=1e-9)
    assert doc["rho_or"] == pytest.approx(0.5, abs=1e-9)
    assert doc["certified"] is True
    assert doc["flags"] == []
    assert "tol" not in doc and "seed" not in doc
    assert doc["model"] == {"dim": 2, "block_sizes": [1, 1],
                            "sha256": model_digest(model_2d())}


# band coefficients: negative, zero of either sign and subnormal among them
_ANY_COEFF = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]),
                       st.floats(-1.5, 1.5))
_NEGATIVE_COEFF = st.one_of(st.sampled_from([-0.0, -5e-324]),
                            st.floats(-1.5, -0.0))


@st.composite
def chain_docs(draw, sizes=st.integers(8, 300)):
    """A singleton chain's `toeplitz` document: m on both sides of the
    banded route's m >= 64, a band of width 1 to 3, and either a Gaussian
    model, positive definite or not, or a quartic one whose diag and band
    are all negative, so that its off-band fill is -0.0."""
    m = draw(sizes)
    quartic = draw(st.booleans())
    coeff = _NEGATIVE_COEFF if quartic else _ANY_COEFF
    band = draw(st.dictionaries(st.integers(1, 3), coeff, min_size=1))
    diag = draw(st.floats(-4.0, -0.0) if quartic else st.floats(1.0, 8.0))
    doc = {"dim": m, "partition": [[i] for i in range(m)],
           "toeplitz": {"m": m, "diag": diag,
                        "band": {str(k): v for k, v in band.items()}}}
    if quartic:
        doc["quartic"] = [0.1] * m
    return doc


@given(chain_docs())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_criteria_echo_is_model_not_file(tmp_path_factory, doc):
    # a toeplitz spec, which loads into band storage when the banded
    # routines take it, and its dense expansion, which is routed by the
    # nonzeros it holds, give the same criteria bytes and exit code, a
    # refusal included; the subnormal band survives both loads
    m, spec = doc["dim"], doc["toeplitz"]
    dense = {**doc, "precision": toeplitz_matrix(
        m, spec["diag"], {int(k): v for k, v in spec["band"].items()}
    ).tolist()}
    del dense["toeplitz"]
    tmp = tmp_path_factory.mktemp("echo")
    runs = []
    for name, body in (("spec", doc), ("dense", dense)):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(body))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["criteria", str(path)])
        runs.append((code, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    if code != 2:
        assert model_digest(load_model(tmp / "spec.json")) \
            == model_digest(load_model(tmp / "dense.json"))
    if code == 0:
        echo = json.loads(out)["model"]
        assert list(echo) == ["dim", "block_sizes", "sha256"]
        assert echo["dim"] == m and echo["block_sizes"] == [1] * m
        assert echo["sha256"] == model_digest(load_model(tmp / "dense.json"))
        assert len(out) < 1024 + 48 * m  # an echo, not the m^2 entries


def _criteria_run(path) -> tuple:
    """(exit code, report or None) of `lsicert criteria path`."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(["criteria", str(path)])
    return code, strict_loads(out.getvalue()) if out.getvalue() else None


@given(chain_docs(st.integers(8, 160)), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=50, derandomize=True, deadline=None)
def test_criteria_values_do_not_depend_on_coordinate_order(tmp_path_factory,
                                                           doc, seed):
    # coordinate j of the permuted chain is coordinate perm[j], and block k
    # still holds old coordinate k: K[perm][:, perm] is no band, so it
    # takes the dense route.  Every exit code is kept, each block constant
    # bit for bit, and each other value moves by at most 4 m eps ||M||
    # plus m tiny where entries underflow: on each side the eigen-solve
    # errs by up to m eps ||M|| and the certificate is shifted down by as
    # much.  ||M|| is bounded by Gershgorin: rho + 2 sum|b_j| for the
    # certificates, 2 sum|b_j| / rho for A0, rho being every block's
    # constant, diag
    m, spec = doc["dim"], doc["toeplitz"]
    band = {int(k): v for k, v in spec["band"].items()}
    perm = np.random.default_rng(seed).permutation(m)
    prec = toeplitz_matrix(m, spec["diag"], band)[np.ix_(perm, perm)]
    permuted = {**doc, "precision": prec.tolist(),
                "partition": [[int(j)] for j in np.argsort(perm)]}
    del permuted["toeplitz"]
    tmp = tmp_path_factory.mktemp("permuted")
    (tmp / "chain.json").write_text(json.dumps(doc))
    (tmp / "permuted.json").write_text(json.dumps(permuted))
    code, want = _criteria_run(tmp / "chain.json")
    permuted_code, got = _criteria_run(tmp / "permuted.json")
    assert permuted_code == code
    if want is None:
        return
    assert got["rho_k"] == want["rho_k"]
    rho = spec["diag"]
    coupling = 2.0 * sum(abs(v) for v in band.values())
    bound = 4.0 * m * np.finfo(float).eps
    tiny = m * np.finfo(float).tiny  # where the entries underflow
    for key, scale in (("rho_marton", rho + coupling),
                       ("rho_or", rho + coupling),
                       ("delta", coupling / rho), ("norm_A0", coupling / rho),
                       ("lambda_max_A0", coupling / rho)):
        assert (got[key] is None) == (want[key] is None), key
        if want[key] is not None:
            assert abs(got[key] - want[key]) <= bound * scale + tiny, key


def test_criteria_deterministic_bytes(model_path, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["criteria", model_path, "--out", str(out1)]) == 0
    assert cli.main(["criteria", model_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.text(max_size=5))


@given(st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.tuples(inner, inner),
    st.dictionaries(st.text(max_size=3), inner, max_size=4)), max_leaves=20))
@settings(max_examples=300, derandomize=True)
def test_indented_json_is_the_pure_python_encoders_bytes(value):
    # criteria and toeplitz reports are written by the C encoder in the
    # layout json.dumps(indent=2) gives
    assert cli._indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_indented_json_refuses_non_finite_floats(bad):
    for value in (bad, [1.0, bad], {"a": [[bad]]}):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._indented_json(value)


def test_criteria_invalid_model_exit(bad_model_path, capsys):
    code, _, err = run(["criteria", bad_model_path], capsys)
    assert code == 2
    assert "invalid model" in err


def test_criteria_no_certificate_exit(uncertified_model_path, capsys):
    code, out, err = run(["criteria", uncertified_model_path], capsys)
    assert code == 3
    doc = json.loads(out)
    assert doc["rho_marton"] is None
    assert "no_certificate" in doc["flags"]


def test_criteria_missing_file(tmp_path, capsys):
    code, _, err = run(["criteria", str(tmp_path / "nope.json")], capsys)
    assert code == 2


def test_criteria_quartic_certified(quartic_model_path, capsys):
    code, out, _ = run(["criteria", quartic_model_path], capsys)
    assert code == 0
    doc = strict_loads(out)
    assert doc["certified"] is True
    assert "sampled_bounds" not in doc["flags"]
    assert isinstance(doc["lambda_max_A0"], float)


def test_criteria_strict_json(model_path, quartic_model_path,
                              uncertified_model_path, capsys):
    for path, want in ((model_path, 0), (quartic_model_path, 0),
                       (uncertified_model_path, 3)):
        code, out, _ = run(["criteria", path], capsys)
        assert code == want
        strict_loads(out)
    code, out, _ = run(["toeplitz", "--m", "16", "--band", "1=1,2=-1"],
                       capsys)
    assert code == 0
    strict_loads(out)
    code, out, _ = run(["toeplitz", "--m", "16", "--band", "1=nan"], capsys)
    assert code == 1
    assert out == ""


# Each edit replaces keys of the 2-d reference document; None drops one.
# Besides non-finite entries, malformed documents of every kind exit 2.
@pytest.mark.parametrize("edit", [
    pytest.param({"quartic": [float("nan"), 0.0]}, id="nan"),
    pytest.param({"quartic": [float("inf"), 0.0]}, id="inf"),
    pytest.param({"precision": [[float("inf"), -0.5], [-0.5, 1.0]]},
                 id="inf-precision"),
    pytest.param({"partition": [0, 1]}, id="flat-partition"),
    pytest.param({"precision": None,
                  "toeplitz": {"m": 2, "diag": 3.0, "band": [1, 2]}},
                 id="band-list"),
    pytest.param({"precision": [[1.0, -0.5], [-0.5]]}, id="ragged-precision"),
    pytest.param({"mean": ["a", 0.0]}, id="text-mean"),
    pytest.param({"quartic": [0.0, [0.0, 1.0]]}, id="ragged-quartic"),
    pytest.param({"partition": [[0.7], [1.9]]}, id="float-index"),
    pytest.param({"partition": [[True], [0]]}, id="bool-index"),
    pytest.param({"precision": None,
                  "toeplitz": {"m": 2, "diag": 3.0, "band": {"1": True}}},
                 id="bool-coefficient"),
    pytest.param({"precision": None,
                  "toeplitz": {"m": 2, "diag": "3", "band": {"1": 1.0}}},
                 id="text-diag"),
    # float() read true as 1 and "1_0" as 10, and raised OverflowError on
    # an integer past the float range
    pytest.param({"mean": [True, "1_0"]}, id="bool-and-text-mean"),
    pytest.param({"precision": [[True, -0.5], [-0.5, True]]},
                 id="bool-precision"),
    pytest.param({"precision": [[10 ** 400, -0.5], [-0.5, 1.0]]},
                 id="huge-precision"),
    pytest.param({"quartic": [0, -10 ** 400]}, id="huge-quartic"),
])
def test_criteria_rejects_non_finite_quartic(tmp_path, capsys, edit):
    doc = {k: v for k, v in {**model_to_dict(model_2d()), **edit}.items()
           if v is not None}
    code, out, err = run(["criteria", write_doc(tmp_path, doc)], capsys)
    assert code == 2
    assert err.startswith("invalid model") and len(err.splitlines()) == 1
    assert out == ""


@pytest.mark.parametrize("data", [
    pytest.param(json.dumps(model_to_dict(model_2d())).encode("utf-16"),
                 id="utf-16"),
    pytest.param(b"[" * 5000 + b"]" * 5000, id="nested-5000-deep"),
    pytest.param(b'{"dim": ' + b"1" * 5000 + b"}", id="5000-digit-integer"),
])
def test_criteria_refuses_unreadable_json(data, tmp_path, capsys):
    # each was read as a usage error (exit 1) or raised a RecursionError
    # through main: a UnicodeDecodeError and the int() digit limit are
    # ValueErrors, and deep nesting exhausts the parser's recursion
    path = tmp_path / "model.json"
    path.write_bytes(data)
    code, out, err = run(["criteria", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("invalid model: model file is not valid JSON")
    assert len(err.splitlines()) == 1


# Small documents whose leaves the fuzz test below replaces: the dense
# 2-d reference, a 2-block model with a quartic term, and a chain spec.
_FUZZ_DOCS = (
    model_to_dict(model_2d()),
    {"dim": 3, "partition": [[0, 1], [2]],
     "precision": [[2.0, 0.5, 0.1], [0.5, 2.0, 0.2], [0.1, 0.2, 1.0]],
     "quartic": [0.0, 0.1, 0.0]},
    {"dim": 3, "partition": [[0], [1], [2]], "mean": [0, 1, 2],
     "toeplitz": {"m": 3, "diag": 3.0, "band": {"1": 1.0}}},
)
_DROP = object()  # replacing a member of an object by this deletes it
_JSON_VALUES = st.one_of(
    st.sampled_from([_DROP, None, True, False, 0, 1, -1, 2, 0.5, -0.5, "",
                     "1", "1_0", "nan", [], {}, [0], [[0]], 10 ** 400,
                     -10 ** 400, 1.7e308, 5e-324]),
    st.floats(-4.0, 4.0), st.integers(-4, 4),
    st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.none()),
             max_size=3),
)


def _paths(node, path=()):
    """The path of every value in a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    """doc with the value at path replaced by a copy of value, so that no
    drawn container is shared between documents or within one."""
    parent = _at(doc, path[:-1])
    if value is _DROP and path and isinstance(parent, dict):
        del parent[path[-1]]
        return doc
    value = None if value is _DROP else copy.deepcopy(value)
    if not path:
        return value
    parent[path[-1]] = value
    return doc


@given(st.data())
@settings(max_examples=300, derandomize=True)
def test_criteria_on_mutated_documents(tmp_path_factory, data):
    # whatever a small document's leaves hold, criteria exits with a
    # documented code, one stderr line on refusal and no traceback, and
    # prints strict JSON when it prints a report: always on exit 0, and
    # on exit 3 unless a block is not positive definite.  A document it
    # accepts holds numbers alone: no bool, string or null is read as one
    doc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        doc = _replaced(doc, path, data.draw(_JSON_VALUES))
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["criteria", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in range(5)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code != 0)
    if code == 0 or out:
        strict_loads(out)
    assert code in (0, 3) or out == ""
    if code == 0:
        leaves = [_at(doc, p) for p in _paths(doc)]
        assert {type(v) for v in leaves} <= {int, float, list, dict}


# an integer option's token: small, so that an admitted run stays cheap,
# from 10^9 to 10^12, past every budget it is charged against, or text
# that is no such integer
_COUNT_TOKENS = st.one_of(
    st.integers(-3, 12).map(str), st.integers(10 ** 9, 10 ** 12).map(str),
    st.sampled_from(["1_0", "+2", "-0", "1e3", "", " 4", "\u0663"]))


@given(st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_verify_and_toeplitz_on_generated_options(tmp_path_factory, data):
    # whatever --trials, --steps, --m and --seed hold, verify (every
    # subcheck, on the documents above) and toeplitz exit with a documented
    # code, print no traceback and, on refusal, one stderr line
    if data.draw(st.booleans()):
        argv = ["toeplitz", "--m", data.draw(_COUNT_TOKENS), "--band", "1=1"]
    else:
        doc = data.draw(st.integers(0, len(_FUZZ_DOCS) - 1))
        path = tmp_path_factory.getbasetemp() / f"options-{doc}.json"
        if not path.exists():
            path.write_text(json.dumps(_FUZZ_DOCS[doc]))
        argv = ["verify", str(path), data.draw(st.sampled_from(cli.SUBCHECKS))]
        for option in ("--trials", "--steps", "--seed"):
            if data.draw(st.booleans()):
                argv += [option, data.draw(st.one_of(
                    _COUNT_TOKENS, st.integers(0, 10 ** 12).map(str)))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in range(5)
    assert "Traceback" not in err
    assert len(err.splitlines()) == (code not in (0, 4)), err
    assert (out != "") == (code in (0, 4))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", ["toeplitz", "precision"])
def test_criteria_entries_near_overflow(tmp_path, capsys, form):
    # finite entries near 2^1023 load (symmetrising halves before it
    # adds, so nothing overflows); D0 - C is indefinite, so the report
    # certifies nothing and exits 3 with one stderr line and no warning
    m = 64
    spec = {"m": m, "diag": 1.7e308, "band": {"1": 1.5e308}}
    doc = {"dim": m, "partition": [[i] for i in range(m)],
           "quartic": [0.1] * m, "toeplitz": spec}
    if form == "precision":
        del doc["toeplitz"]
        doc["precision"] = toeplitz_matrix(m, 1.7e308, {1: 1.5e308}).tolist()
    code, out, err = run(["criteria", write_doc(tmp_path, doc)], capsys)
    assert code == 3
    report = strict_loads(out)
    assert report["rho_k"] == [1.7e308] * m
    assert report["flags"] == ["no_certificate", "or_infeasible"]
    assert err == "no certificate: delta <= 0\n"


@pytest.mark.parametrize("dim", [True, 2.0, 2.5, "2"])
def test_criteria_rejects_non_integer_dim(tmp_path, capsys, dim):
    doc = model_to_dict(model_2d())
    doc["dim"] = dim
    code, _, err = run(["criteria", write_doc(tmp_path, doc)], capsys)
    assert code == 2
    assert "'dim' must be an integer" in err


def test_criteria_dense_budget_checked_up_front(tmp_path, capsys):
    # a 6 000-dim K needs 288 MB dense, over the 256 MiB budget: refused
    # from the document's 'dim' before any array is built
    m = 6000
    path = write_doc(tmp_path, {"dim": m, "partition": [[i] for i in range(m)],
                                "toeplitz": {"m": m, "diag": 3.0,
                                             "band": {"1": 1.0}}})
    tracemalloc.start()
    try:
        code, out, err = run(["criteria", path], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and "budget" in err
    assert len(err.splitlines()) == 1
    assert peak < 64 * 2**20


def test_criteria_on_a_chain_spec_builds_no_dense_k(tmp_path, capsys):
    # an m = 2 048 chain spec stays in band storage from load to report:
    # a few m (b + 1) floats, O(m) for the document, the partition and the
    # report, and one CHUNK_BYTES row block of the digest; its dense K
    # alone would be 32 MiB
    m, width = 2048, 2
    path = write_doc(tmp_path, {"dim": m, "partition": [[i] for i in range(m)],
                                "toeplitz": {"m": m, "diag": 3.0,
                                             "band": {"1": -1.0, "2": 0.3}}})
    tracemalloc.start()
    try:
        code, out, err = run(["criteria", path], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert json.loads(out)["rho_k"] == [3.0] * m
    assert peak <= 4 * m * (width + 1) * 8 + 512 * m + lsimodel.CHUNK_BYTES, \
        peak


@pytest.mark.parametrize("option", [["--tol", "1e-10"], ["--probes", "8"],
                                    ["--seed", "0"],
                                    ["--grid-points", "1001"]])
def test_criteria_removed_options(model_path, capsys, option):
    for command in (["criteria", model_path],
                    ["toeplitz", "--m", "16", "--band", "1=1"]):
        code, out, _ = run([*command, *option], capsys)
        assert code == 1
        assert out == ""


# ---- verify ----

def check_csv_shape(out, seed):
    lines = out.strip().split("\n")
    assert lines[0] == f"# seed={seed}"
    assert lines[1] == "check,param,value,bound,tolerance,verdict"
    for line in lines[2:]:
        assert line.split(",")[-1] in ("pass", "fail")
    return lines


def test_verify_theorem1(model_path, capsys):
    code, out, _ = run(["verify", model_path, "theorem1", "--trials", "10",
                        "--seed", "5"], capsys)
    assert code == 0
    lines = check_csv_shape(out, 5)
    assert len(lines) == 12
    assert all(line.startswith("theorem1,trial=") for line in lines[2:])


def test_verify_gibbs(model_path, capsys):
    code, out, _ = run(["verify", model_path, "gibbs", "--steps", "3",
                        "--samples", "2000"], capsys)
    assert code == 0
    lines = check_csv_shape(out, 0)
    assert lines[2].startswith("gibbs,step=0,")
    assert len(lines) == 2 + 4


def test_near_singular_target_verifies_in_every_suite(tmp_path, capsys):
    # cond(K) = 2.0e9: the target's precision is K itself, so no suite
    # inverts the computed K^-1 again
    path = write_doc(tmp_path, {
        "dim": 2, "partition": [[0], [1]],
        "precision": [[1.0, -0.999999999], [-0.999999999, 1.0]]})
    code, out, _ = run(["criteria", path], capsys)
    assert code == 0
    assert strict_loads(out)["rho_marton"] == pytest.approx(1e-9, rel=1e-6)
    for subcheck in cli.SUBCHECKS:
        code, out, err = run(["verify", path, subcheck, "--trials", "20"],
                             capsys)
        assert (code, err) == (0, ""), subcheck
        lines = check_csv_shape(out, 0)
        assert len(lines) > 2
        assert all(line.endswith(",pass") for line in lines[2:])


GIBBS_GOLDEN = """\
# seed=5
check,param,value,bound,tolerance,verdict
gibbs,step=0,0.5,0.5,0.0,pass
gibbs,step=1,0.375,0.37500000000000017,1e-09,pass
gibbs,step=2,0.234375,0.2812500000000003,1e-09,pass
gibbs,step=3,0.146484375,0.21093750000000028,1e-09,pass
"""


def test_verify_gibbs_golden_bytes(model_path, capsys):
    # the exact table of the 2-d reference: the mixture layout, the batched
    # push and the closed-form divergences may not move a byte of it
    code, out, _ = run(["verify", model_path, "gibbs", "--steps", "3",
                        "--samples", "2000", "--seed", "5"], capsys)
    assert code == 0
    assert out == GIBBS_GOLDEN
    # the rows are closed form: --seed only names itself in the header,
    # and --samples still parses but changes nothing
    code, out, _ = run(["verify", model_path, "gibbs", "--steps", "3",
                        "--samples", "5", "--seed", "6"], capsys)
    assert code == 0
    assert out == GIBBS_GOLDEN.replace("# seed=5", "# seed=6")


# The closed-form suites' tables on the 2-d reference, pinned byte for
# byte: reading rho_k, rho and delta from their own routines, rather than
# from a whole criteria report, may not move a byte of them.
CLOSED_GOLDEN = {
    "theorem1": """\
theorem1,trial=0,2.955825723119907,4.3653171945935485,1e-09,pass
theorem1,trial=1,4.360396416944864,7.444571044823312,1e-09,pass
theorem1,trial=2,2.861880578130663,6.772597860566902,1e-09,pass
""",
    "transport": """\
transport,trial=0,10.014874248541686,11.823302892479644,1e-09,pass
transport,trial=1,13.371734096251608,17.44158566777948,1e-09,pass
transport,trial=2,5.824533733010791,11.447522312522668,1e-09,pass
""",
    "prop4": """\
prop4,trial=0:w2_vs_kl,3.3507813408839495,3.3507813408839495,1e-09,pass
prop4,trial=0:kl_vs_quadratic,3.3507813408839495,3.3507813408839495,1e-09,pass
prop4,trial=1:w2_vs_kl,3.6517934835204433,3.6517934835204433,1e-09,pass
prop4,trial=1:kl_vs_quadratic,3.6517934835204433,3.6517934835204433,1e-09,pass
prop4,trial=2:w2_vs_kl,8.452618863433749,8.452618863433749,1e-09,pass
prop4,trial=2:kl_vs_quadratic,8.452618863433749,8.452618863433749,1e-09,pass
""",
    "dissipation": """\
dissipation,max_residual,2.277067423506196e-13,1.5000000000000002e-05,\
1.5000000000000002e-05,pass
dissipation,integral_identity_rel_err,8.27718363849428e-08,0.0001,0.0001,pass
dissipation,exp_decay_max_excess,-3.36899648803457e-12,0.0,1e-12,pass
""",
}


# Two `toeplitz` reports, pinned byte for byte: building, solving and
# freeing the band's section before its absolute value's may not move a
# byte of them.
_NOTE = ("sup|symbol| = {0} exceeds the largest symbol value {1}: the "
         "symbol attains -{0} < -{1}, so finite-section operator norms "
         "converge to {0} while the largest eigenvalues converge to {1}. A "
         "coupling bound quoted as the largest symbol value understates the "
         "operator norm.")
TOEPLITZ_GOLDEN = {
    "--m 512 --band 1=1,2=-1": {
        "m": 512, "diag": 0.0, "band": [[1, 1.0], [2, -1.0]],
        "max_symbol": 2.25, "min_symbol": -4.0, "sup_abs_symbol": 4.0,
        "lambda_max_bm": 2.249860406666756,
        "lambda_min_bm": -3.9998128908802646,
        "svd_norm_bm": 3.9998128908802646,
        "abs_max_symbol": 4.0, "abs_min_symbol": -2.25,
        "abs_sup_abs_symbol": 4.0,
        "abs_lambda_max_bm": 3.9998128908802646,
        "abs_lambda_min_bm": -2.249860406666756,
        "abs_svd_norm_bm": 3.9998128908802646,
        "note": _NOTE.format(4, 2.25)},
    "--m 16 --diag -2 --band 1=-1,3=-0.5": {
        "m": 16, "diag": -2.0, "band": [[1, -1.0], [3, -0.5]],
        "max_symbol": 1.0, "min_symbol": -5.0, "sup_abs_symbol": 5.0,
        "lambda_max_bm": 0.837097009552614,
        "lambda_min_bm": -4.837097009552611,
        "svd_norm_bm": 4.837097009552611,
        "abs_max_symbol": 5.0, "abs_min_symbol": -1.0,
        "abs_sup_abs_symbol": 5.0,
        "abs_lambda_max_bm": 4.837097009552611,
        "abs_lambda_min_bm": -0.837097009552614,
        "abs_svd_norm_bm": 4.837097009552611,
        "note": _NOTE.format(5, 1)},
}


@pytest.mark.parametrize("argv", sorted(TOEPLITZ_GOLDEN))
def test_toeplitz_golden_bytes(argv, capsys):
    code, out, err = run(["toeplitz", *argv.split()], capsys)
    assert (code, err) == (0, "")
    assert out == json.dumps(TOEPLITZ_GOLDEN[argv], indent=2) + "\n"


@pytest.mark.parametrize("subcheck", sorted(CLOSED_GOLDEN))
def test_verify_closed_form_golden_bytes(subcheck, model_path, capsys):
    code, out, err = run(["verify", model_path, subcheck, "--trials", "3",
                          "--seed", "5"], capsys)
    assert (code, err) == (0, "")
    assert out == ("# seed=5\ncheck,param,value,bound,tolerance,verdict\n"
                   + CLOSED_GOLDEN[subcheck])


def test_verify_transport_and_prop4(model_path, capsys):
    for subcheck, rows_per_trial in (("transport", 1), ("prop4", 2)):
        code, out, _ = run(["verify", model_path, subcheck,
                            "--trials", "6"], capsys)
        assert code == 0
        lines = check_csv_shape(out, 0)
        assert len(lines) == 2 + 6 * rows_per_trial


def test_verify_dissipation(model_path, capsys):
    code, out, _ = run(["verify", model_path, "dissipation"], capsys)
    assert code == 0
    lines = check_csv_shape(out, 0)
    params = [line.split(",")[1] for line in lines[2:]]
    assert params == ["max_residual", "integral_identity_rel_err",
                      "exp_decay_max_excess"]


def test_verify_dissipation_passes_on_a_certified_chain(tmp_path, capsys):
    # the 3-site chain with lambda_max(K) ~ 4.4: a centered difference's
    # O(h^2) error failed max_residual here (7.3e-4 over its 5.8e-4 bound)
    code, out, _ = run(["verify", write_doc(tmp_path, _FUZZ_DOCS[2]),
                        "dissipation"], capsys)
    assert code == 0
    assert all(line.endswith(",pass") for line in check_csv_shape(out, 0)[2:])


def test_verify_dissipation_takes_mean_only_route(model_path, capsys,
                                                  monkeypatch):
    # the CLI starts at the target's covariance, so the trace needs no
    # factor or triangular inverse of any evolved covariance
    def refuse(chol):
        raise AssertionError("general trace path taken")

    monkeypatch.setattr(fokker_planck, "tril_inverse", refuse)
    code, out, _ = run(["verify", model_path, "dissipation"], capsys)
    assert code == 0
    params = [line.split(",")[1] for line in check_csv_shape(out, 0)[2:]]
    assert params == ["max_residual", "integral_identity_rel_err",
                      "exp_decay_max_excess"]


def _chain(m, diag):
    return {"dim": m, "partition": [[i] for i in range(m)],
            "toeplitz": {"m": m, "diag": diag, "band": {"1": 1.0}}}


def _scaled_reference(c):
    return {"dim": 2, "partition": [[0], [1]],
            "precision": [[c, -0.5 * c], [-0.5 * c, c]]}


# Certified models whose lambda_max(K) (52 to 1 500) made the fixed
# linspace(0, 5, 5001) grid too coarse: each exited 4, on a false
# max_residual or integral_identity_rel_err row, before the grid was
# read from K's spectrum.
STIFF_DOCS = {"reference-x100": _scaled_reference(100.0),
              "reference-x1000": _scaled_reference(1000.0),
              **{f"chain{m}-diag{d}": _chain(m, float(d))
                 for m in (3, 8, 32) for d in (50, 300)}}


@pytest.mark.parametrize("name", list(STIFF_DOCS))
def test_verify_dissipation_passes_on_stiff_models(name, tmp_path, capsys):
    code, out, err = run(["verify", write_doc(tmp_path, STIFF_DOCS[name]),
                          "dissipation"], capsys)
    assert (code, err) == (0, "")
    rows = check_csv_shape(out, 0)[2:]
    assert [row.split(",")[-1] for row in rows] == ["pass"] * 3


def test_verify_dissipation_refuses_an_oversized_grid(tmp_path, capsys,
                                                      monkeypatch):
    # kappa(K) = 1e6 asks for 5e8 + 1 nodes: charged before the grid or
    # any trace array is built
    monkeypatch.setattr(fokker_planck, "_trace_arrays", must_not_run)
    doc = {"dim": 2, "partition": [[0], [1]],
           "precision": [[1.0, 0.0], [0.0, 1e6]]}
    path = write_doc(tmp_path, doc)
    tracemalloc.start()
    try:
        code, out, err = run(["verify", path, "dissipation"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith("usage error: a trace of 500000001 nodes")
    assert err.count("\n") == 1
    assert peak < 2**20, peak


@given(st.integers(0, 2 ** 32 - 1), st.floats(-3.0, 3.0))
@settings(max_examples=20, derandomize=True, deadline=None)
def test_every_subcheck_passes_whatever_the_units_of_k(tmp_path_factory,
                                                       seed, log_c):
    # a certified model stays certified with K scaled by c in [1e-3, 1e3]:
    # every subcheck exits 0 on it, before and after the scaling
    doc = model_to_dict(random_certified_model(np.random.default_rng(seed)))
    prec = np.array(doc["precision"])
    path = tmp_path_factory.mktemp("units") / "model.json"
    for c in (1.0, 10.0 ** log_c):
        doc["precision"] = (c * prec).tolist()
        path.write_text(json.dumps(doc))
        for subcheck in cli.SUBCHECKS:
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["verify", str(path), subcheck,
                                 "--trials", "5"])
            assert code == 0, (c, subcheck, out.getvalue())


def with_trial(i, check):
    """check with its trial prefixed to its param, as `verify` prints it."""
    return replace(check, param=f"trial={i}:{check.param}" if check.param
                   else f"trial={i}")


def library_checks(model, subcheck, seed, trials):
    """The checks `verify` reports, taken from the library directly, with
    the trial of each closed-form check prefixed to its param."""
    report = criteria_report(model)
    rho_k, rho = report.rho_k, report.rho_marton
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    if subcheck == "gibbs":
        return list(gibbs.verify_contraction(p0, model, rho_k, rho, steps=2))
    if subcheck == "dissipation":
        _, checks = fokker_planck.dissipation_check(p0, model, rho=rho)
        return list(checks)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(trials):
        if subcheck == "prop4":
            z = rng.normal(loc=model.mean, scale=2.0)
            u = rng.normal(loc=model.mean, scale=2.0)
            checks = prop4_check(model, rho_k, report.delta, z, u)
        elif subcheck == "theorem1":
            checks = (gibbs.verify_theorem1(random_gaussian(rng, model.dim),
                                            model, rho_k, rho),)
        else:
            checks = (transport_check(random_gaussian(rng, model.dim), model,
                                      rho),)
        out += [with_trial(i, c) for c in checks]
    return out


@pytest.mark.parametrize("subcheck", cli.SUBCHECKS)
def test_verify_rows_are_library_records(subcheck, model_path, capsys):
    code, out, _ = run(["verify", model_path, subcheck, "--seed", "4",
                        "--trials", "3", "--steps", "2", "--samples", "2000"],
                       capsys)
    assert code == 0
    rows = [line.split(",") for line in check_csv_shape(out, 4)[2:]]
    printed = [Check(row[0], row[1], *map(float, row[2:5]), row[5] == "pass")
               for row in rows]
    assert printed == library_checks(model_2d(), subcheck, 4, 3)


@pytest.mark.parametrize("subcheck", ["theorem1", "transport", "prop4"])
def test_stacked_trials_equal_single_law_calls(subcheck):
    model = random_certified_model(np.random.default_rng(2), dim=12)
    report = criteria_report(model)
    rows = cli._trial_checks(subcheck, model, report.rho_k,
                             report.rho_marton, np.random.default_rng(4), 50)
    stacked = [with_trial(i, c) for i, row in enumerate(rows) for c in row]
    single = library_checks(model, subcheck, 4, 50)
    assert [repr(c) for c in stacked] == [repr(c) for c in single]


@pytest.mark.parametrize("subcheck", ["theorem1", "transport", "prop4"])
def test_verify_chunks_give_the_rows_of_one_chunk(subcheck, model_path,
                                                  capsys, monkeypatch):
    args = ["verify", model_path, subcheck, "--seed", "6", "--trials", "11"]
    counts = []
    original = cli._trial_checks

    def counted(subcheck, model, rho_k, rho, rng, count):
        counts.append(count)
        return original(subcheck, model, rho_k, rho, rng, count)

    monkeypatch.setattr(cli, "_trial_checks", counted)
    code, whole, _ = run(args, capsys)
    assert counts == [11]
    counts.clear()
    # the 2-d model's covariance takes 32 bytes: three trials per chunk
    monkeypatch.setattr(lsimodel, "CHUNK_BYTES", 3 * 32 + 31)
    chunked_code, chunked, _ = run(args, capsys)
    assert counts == [3, 3, 3, 2]
    assert code == chunked_code == 0
    assert chunked == whole


def test_verify_deterministic_bytes(model_path, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["verify", model_path, "gibbs", "--steps", "2",
            "--samples", "1500", "--seed", "9"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_no_certificate(uncertified_model_path, capsys):
    code, _, err = run(["verify", uncertified_model_path, "theorem1"],
                       capsys)
    assert code == 3


@pytest.fixture
def dense_model_path(tmp_path):
    path = tmp_path / "dense.json"
    save_model(random_certified_model(np.random.default_rng(11), dim=12),
               path)
    return str(path)


def test_verify_skips_the_block_matrix_criterion(dense_model_path, capsys,
                                                 monkeypatch):
    # no suite reads rho_or, so no suite computes kappa or its eigenvalue
    monkeypatch.setattr(criteria, "otto_reznikoff", must_not_run)
    monkeypatch.setattr(criteria, "cross_block_norms", must_not_run)
    for subcheck in cli.SUBCHECKS:
        code, out, err = run(["verify", dense_model_path, subcheck,
                              "--trials", "3", "--steps", "2"], capsys)
        assert (code, err) == (0, ""), subcheck
        assert all(line.endswith(",pass")
                   for line in check_csv_shape(out, 0)[2:])
    # `criteria` still reports both certificates
    monkeypatch.undo()
    code, out, _ = run(["criteria", dense_model_path], capsys)
    assert code == 0
    assert strict_loads(out)["rho_or"] is not None


def test_verify_reads_a0_for_prop4_only(dense_model_path, capsys,
                                        monkeypatch):
    monkeypatch.setattr(criteria, "a0_extremes", must_not_run)
    monkeypatch.setattr(cli, "a0_extremes", must_not_run)
    for subcheck in cli.SUBCHECKS:
        args = ["verify", dense_model_path, subcheck, "--trials", "3",
                "--steps", "2"]
        if subcheck == "prop4":
            with pytest.raises(AssertionError, match="must not run"):
                cli.main(args)
        else:
            assert run(args, capsys)[::2] == (0, ""), subcheck


def test_verify_refuses_an_indefinite_diagonal_block(model_path, capsys,
                                                     monkeypatch):
    # checked before the interaction-matrix criterion, in every suite
    monkeypatch.setattr(criteria, "block_lsi_constants",
                        lambda model: np.array([1.0, 0.0]))
    for subcheck in cli.SUBCHECKS:
        assert run(["verify", model_path, subcheck], capsys) == (
            3, "", "no certificate: a diagonal precision block is not "
                   "positive definite\n")


def test_verify_failure_exit_code(model_path, capsys, monkeypatch):
    failing = Check("dissipation", "max_residual", 1.0, 0.5, 0.5, False)
    monkeypatch.setattr(fokker_planck, "dissipation_check",
                        lambda *args, **kwargs: (None, (failing,)))
    code, out, _ = run(["verify", model_path, "dissipation"], capsys)
    assert code == 4
    assert out.strip().endswith("fail")


def test_verify_quartic_model_usage_error(tmp_path, capsys):
    # rejected before any certificate work: this quartic model has no
    # certificate, yet the exit code is 1, not 3
    doc = {"dim": 2, "partition": [[0], [1]],
           "precision": [[1.0, 2.0], [2.0, 1.0]], "quartic": [0.5, 0.5]}
    code, out, err = run(["verify", write_doc(tmp_path, doc), "theorem1"],
                         capsys)
    assert code == 1
    assert out == ""
    assert "need a Gaussian model" in err


def test_verify_gibbs_byte_budget_checked_up_front(tmp_path, capsys,
                                                  monkeypatch):
    # 256 singleton blocks, 2 sweeps from the CLI's start: the mean-only
    # sweep is charged 9 d^2 floats and its 3 rows against the dense byte
    # budget, here lowered to one byte less; nothing may be swept
    m = 256
    model = GibbsModel(partition=BlockPartition(tuple((i,) for i in range(m))),
                       precision=toeplitz_matrix(m, 4.0, {1: 1.0}),
                       mean=np.zeros(m), quartic=np.zeros(m))
    path = tmp_path / "t256.json"
    save_model(model, path)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the budget check")

    monkeypatch.setattr(gibbs, "_push", no_sweep)
    monkeypatch.setattr(lsimodel, "DENSE_BYTE_BUDGET",
                        8 * gibbs._sweep_floats(m, 0)
                        + 3 * lsimodel.ROW_BYTES - 1)
    code, out, err = run(["verify", str(path), "gibbs", "--steps", "2",
                          "--samples", "2000"], capsys)
    assert code == 1
    assert out == ""
    assert f"dimension {m} needs" in err and "budget" in err


def test_verify_gibbs_runs_a_five_site_chain(tmp_path, capsys, monkeypatch):
    # 8 sweeps of 5 blocks would enumerate 109 225 words, over the
    # component cap; the CLI's start grows none, so the run is not refused
    path = write_doc(tmp_path, {"dim": 5, "partition": [[i] for i in range(5)],
                                "toeplitz": {"m": 5, "diag": 4.0,
                                             "band": {"1": 1.0}}})
    monkeypatch.setattr(gibbs, "_grow", must_not_run)
    code, out, err = run(["verify", path, "gibbs"], capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == [f"step={m}" for m in range(9)]
    assert all(r.endswith(",pass") for r in rows)


def test_verify_gibbs_tracks_the_means_only(tmp_path, capsys, monkeypatch):
    # the CLI starts at N(m + 1, K^-1), the target's covariance: 8 sweeps
    # of a 4-block d = 8 model, 13 120 components if enumerated, run
    # without pushing one deviation
    part = BlockPartition(((0, 1), (2, 3), (4, 5), (6, 7)))
    model = GibbsModel(partition=part,
                       precision=toeplitz_matrix(8, 4.0, {1: 1.0, 2: -0.5}),
                       mean=np.linspace(-1.0, 1.0, 8), quartic=np.zeros(8))
    path = tmp_path / "b4d8.json"
    save_model(model, path)
    monkeypatch.setattr(gibbs, "_grow", must_not_run)
    code, out, err = run(["verify", str(path), "gibbs", "--steps", "8"],
                         capsys)
    assert (code, err) == (0, "")
    rows = out.splitlines()[2:]
    assert [r.split(",")[1] for r in rows] == [f"step={m}" for m in range(9)]
    assert all(r.endswith(",pass") for r in rows)


@pytest.mark.parametrize("blocks, args", [
    (2, ["--steps", "243903"]),
    (3, ["--steps", "162404"]),
    (2, ["--steps", "10000000"]),
    (1, ["--steps", "419430"]),
])
def test_verify_gibbs_oversized_run_refused_up_front(blocks, args, tmp_path,
                                                    capsys, monkeypatch):
    # the mean-only sweep's operations and rows are charged before the
    # first sweep: an oversized run, from one step past model.OP_BUDGET
    # (or, on one block, past the rows' byte budget) up, is refused at
    # once, in one line
    steps = int(args[1])
    per_step = blocks * (blocks * blocks + gibbs._PUSH_OPS)
    rows_bytes = lsimodel.DENSE_BYTE_BUDGET - 8 * gibbs._sweep_floats(blocks, 0)
    assert steps > min(lsimodel.OP_BUDGET // per_step,
                       rows_bytes // lsimodel.ROW_BYTES - 1)
    prec = np.full((blocks, blocks), -0.5)
    np.fill_diagonal(prec, 2.0)
    path = tmp_path / "blocks.json"
    save_model(GibbsModel(partition=BlockPartition(
        tuple((i,) for i in range(blocks))), precision=prec,
        mean=np.zeros(blocks), quartic=np.zeros(blocks)), path)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the budget check")

    monkeypatch.setattr(gibbs, "_push", no_sweep)
    start = time.perf_counter()
    code, out, err = run(["verify", str(path), "gibbs", *args], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and len(err.splitlines()) == 1


class _Admitted(Exception):
    """Raised in place of the first step after `verify`'s charges."""


def _admitted(model):
    raise _Admitted


@pytest.mark.parametrize("subcheck, dim, work", [
    ("theorem1", 2, 8), ("transport", 32, 32 ** 3), ("prop4", 32, 32 ** 2)])
def test_verify_trial_operations_charged_before_a_trial(subcheck, dim, work,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    # once the model is read, a closed-form run is charged trials times
    # d^3 + _TRIAL_OPS operations (d^2 for prop4): one trial past
    # model.OP_BUDGET is refused before any trial is drawn, with rows to
    # spare under the byte budget, and the last admitted count reaches
    # the certificate
    path = tmp_path / "model.json"
    save_model(_two_block_model(dim), path)
    ceiling = lsimodel.OP_BUDGET // (work + cli._TRIAL_OPS)
    assert 2 * (ceiling + 1) * lsimodel.ROW_BYTES <= lsimodel.DENSE_BYTE_BUDGET

    monkeypatch.setattr(cli, "certified_constants", _admitted)
    with pytest.raises(_Admitted):
        cli.main(["verify", str(path), subcheck, "--trials", str(ceiling)])
    code, out, err = run(["verify", str(path), subcheck,
                          "--trials", str(ceiling + 1)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"usage error: {ceiling + 1} {subcheck} trials in "
                   f"dimension {dim} takes about "
                   f"{(ceiling + 1) * (work + cli._TRIAL_OPS)} operations, "
                   f"over the {lsimodel.OP_BUDGET} budget\n")


def test_verify_trials_charge_admits_default_and_benchmark_runs(
        tmp_path, monkeypatch):
    # the default trial counts at d = 64, and the largest runs the
    # benchmark makes (50 trials at d = 32, 5 theorem1 trials on a
    # 128-site chain), stay under the operation budget, while the
    # 419 430 theorem1 trials the rows admit at d = 32 do not
    monkeypatch.setattr(cli, "certified_constants", _admitted)
    runs = [(64, sub, None) for sub in cli._DEFAULT_TRIALS]
    runs += [(32, sub, 50) for sub in cli._DEFAULT_TRIALS]
    runs += [(128, "theorem1", 5)]
    for dim, subcheck, trials in runs:
        path = tmp_path / f"chain{dim}.json"
        path.write_text(json.dumps(
            {"dim": dim, "partition": [[i] for i in range(dim)],
             "toeplitz": {"m": dim, "diag": 3.0, "band": {"1": 1.0}}}))
        argv = ["verify", str(path), subcheck]
        if trials is not None:
            argv += ["--trials", str(trials)]
        with pytest.raises(_Admitted):
            cli.main(argv)
    assert cli.main(["verify", str(tmp_path / "chain32.json"), "theorem1",
                     "--trials", "419430"]) == 1


def _two_block_model(dim):
    half = dim // 2
    part = BlockPartition((tuple(range(half)), tuple(range(half, dim))))
    return GibbsModel(partition=part,
                      precision=toeplitz_matrix(dim, 4.0, {1: 1.0}),
                      mean=np.zeros(dim), quartic=np.zeros(dim))


def _first_steps_over(fits):
    """The least step count s with fits(s) false, fits(s - 1) true."""
    steps = 1
    while fits(steps):
        steps += 1
    return steps


def _refusal_site(site, tmp_path):
    """A call one unit past one budget of lsicert.model.charge; whatever
    it needs but does not build is built here."""
    budget, ops = lsimodel.DENSE_BYTE_BUDGET, lsimodel.OP_BUDGET
    if site == "dense-precision":
        dim = math.isqrt(budget // 8) + 1
        doc = {"dim": dim, "partition": [[i] for i in range(dim)],
               "toeplitz": {"m": dim, "diag": 3.0, "band": {"1": 1.0}}}
        return lambda: lsimodel.model_from_dict(doc)
    if site == "toeplitz-section":
        m = math.isqrt(budget // 16) + 1
        return lambda: criteria.toeplitz_spectrum_report(m, 3.0, {1: 1.0})
    if site == "trials":
        path = write_doc(tmp_path, model_to_dict(model_2d()))
        trials = budget // lsimodel.ROW_BYTES + 1
        return lambda: cli.cmd_verify(cli.PARSER.parse_args(
            ["verify", path, "theorem1", "--trials", str(trials)]))
    if site == "trial-operations":
        path = write_doc(tmp_path, model_to_dict(model_2d()))
        trials = ops // (2 ** 3 + cli._TRIAL_OPS) + 1
        assert trials * lsimodel.ROW_BYTES <= budget  # the rows fit
        return lambda: cli.cmd_verify(cli.PARSER.parse_args(
            ["verify", path, "theorem1", "--trials", str(trials)]))
    if site in ("gibbs-words", "gibbs-operations"):
        dim = 32 if site == "gibbs-words" else 2
        model = _two_block_model(dim)
        q = gaussian_target(model)
        p0 = GaussianDist(q.mean + 1.0, np.eye(dim) if dim == 32 else q.cov)
        if dim == 32:  # 2 s words after s sweeps of two blocks
            steps = _first_steps_over(lambda s: 8 * gibbs._sweep_floats(
                dim, 2 * s) + (s + 1) * lsimodel.ROW_BYTES <= budget)
        else:
            steps = ops // (2 * (4 + gibbs._PUSH_OPS)) + 1
        return lambda: gibbs.verify_contraction(p0, model, np.ones(2), 0.5,
                                                steps)
    model = _two_block_model(2)
    p0 = gaussian_target(model)
    if site == "trace-nodes":
        times = np.linspace(0.0, 1.0, budget // (8 * (2 * 2 + 16)) + 1)
        return lambda: fokker_planck.entropy_trace(p0, model, times)
    n, steps = ((budget // 40 + 1, 1) if site == "particle-bytes"
                else (1000, ops // 2000 + 1))
    return lambda: fokker_planck.langevin_particles(model, p0, 0.01, steps,
                                                    n, seed=0)


@pytest.mark.parametrize("site", [
    "dense-precision", "toeplitz-section", "trials", "trial-operations",
    "gibbs-words", "gibbs-operations", "trace-nodes", "particle-bytes",
    "particle-operations"])
def test_each_charge_refuses_before_one_mib(site, tmp_path):
    # one unit past its budget, each refusal site raises its one-line
    # ValueError before it has allocated 1 MiB
    call = _refusal_site(site, tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget") as info:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(str(info.value).splitlines()) == 1
    assert peak < 2**20, peak


@pytest.mark.parametrize("args", [
    ["theorem1", "--trials", "0"],
    ["theorem1", "--trials", "-3"],
    ["transport", "--trials", "0"],
    ["prop4", "--trials", "-1"],
    ["gibbs", "--steps", "-2"],
    ["gibbs", "--steps", "0"],
])
def test_verify_vacuous_run_refused_up_front(args, model_path, capsys,
                                             monkeypatch):
    # a run with no trials or sweeps would pass vacuously; it is refused
    # before the model is even loaded
    def no_load(path):
        raise AssertionError("model loaded before the argument check")

    monkeypatch.setattr(cli, "load_model", no_load)
    code, out, err = run(["verify", model_path, *args], capsys)
    assert code == 1
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["criteria", "MODEL"],
    ["verify", "MODEL", "theorem1", "--trials", "1"],
    ["toeplitz", "--m", "16", "--band", "1=1"],
])
def test_unwritable_out_is_usage_error(argv, model_path, tmp_path, capsys):
    argv = [model_path if a == "MODEL" else a for a in argv]
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run([*argv, "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: cannot write --out")
    assert len(err.splitlines()) == 1


# ---- toeplitz ----

def test_toeplitz_report(capsys):
    code, out, _ = run(["toeplitz", "--m", "64", "--band", "1=1,2=-1"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert "grid_points" not in doc
    assert doc["max_symbol"] == pytest.approx(2.25, abs=1e-12)
    assert doc["min_symbol"] == pytest.approx(-4.0, abs=1e-10)
    assert doc["sup_abs_symbol"] == pytest.approx(4.0, abs=1e-10)
    assert doc["note"]
    assert doc["band"] == [[1, 1.0], [2, -1.0]]


@pytest.mark.filterwarnings("error")
def test_toeplitz_bad_band(capsys):
    # a malformed band, an offset that is no decimal integer (read as 10
    # and 1 by int()), an offset given twice (not last-wins), a
    # coefficient or diag that is no decimal literal (read as 10 and 1 by
    # float()), a non-finite diag and a symbol that overflows are each
    # refused with one stderr line; a numpy warning fails the test
    for args in (["--band", "oops"], ["--band", "1_0=1"],
                 ["--band", "\u0661=1"], ["--band", "1=1,1=-3"],
                 ["--band", "01=1,1=1"], ["--band", "1=1,01=2"],
                 ["--band", "1=1_0"], ["--band", "1=\u0661"],
                 ["--band", "1=inf"], ["--band", "1= 1"],
                 ["--diag", "1_0", "--band", "1=1"],
                 ["--diag", "\u0661", "--band", "1=1"],
                 ["--diag", "nan", "--band", "1=1"],
                 ["--diag", "1e999", "--band", "1=1"],
                 ["--band", "1=1e308,2=1e308"]):
        code, out, err = run(["toeplitz", "--m", "8", *args], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, message", [
    pytest.param(["verify", "MODEL", "gibbs", "--steps", "1_000"],
                 "argument --steps: invalid integer: '1_000'",
                 id="bad-integer"),
    pytest.param(["verify", "MODEL", "gibbs", "--bogus"],
                 "unrecognized arguments: --bogus", id="unknown-option"),
    pytest.param(["criteria", "MODEL", "--out"],
                 "argument --out: expected one argument", id="no-out-path"),
    pytest.param(["verify", "MODEL"],
                 "the following arguments are required: subcheck",
                 id="no-subcheck"),
    pytest.param(["toeplitz", "--m", "8"],
                 "the following arguments are required: --band",
                 id="no-band"),
    pytest.param(["verify", "MODEL", "bogus"],
                 "argument subcheck: invalid choice", id="bad-subcheck"),
    pytest.param([], "the following arguments are required: command",
                 id="no-command"),
])
def test_argv_errors_are_one_usage_line(argv, message, model_path, capsys):
    # argparse printed its usage before the error line; now the error is
    # the one stderr line, exit 1, as every other refusal
    argv = [model_path if a == "MODEL" else a for a in argv]
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: {message}"), err
    assert len(err.splitlines()) == 1
    assert "usage:" not in err


@pytest.mark.parametrize("argv", [
    ["toeplitz", "--m", "1_6", "--band", "1=1"],
    ["toeplitz", "--m", "\u0661\u0666", "--band", "1=1"],
    ["toeplitz", "--m", " 16", "--band", "1=1"],
    ["verify", "MODEL", "gibbs", "--steps", "1_000"],
    ["verify", "MODEL", "theorem1", "--trials", "1_0"],
    ["verify", "MODEL", "theorem1", "--trials", "2", "--seed", "1_0"],
    ["verify", "MODEL", "gibbs", "--samples", "2_000"],
])
def test_integer_options_are_decimal_integers(argv, model_path, capsys):
    # int() reads '1_6' as 16, Arabic-Indic digits and padded text too
    argv = [model_path if a == "MODEL" else a for a in argv]
    code, out, _ = run(argv, capsys)
    assert code == 1
    assert out == ""


def test_decimal_options_keep_their_readings(capsys):
    # signs, leading zeros, a bare point and exponents still read
    code, out, _ = run(["toeplitz", "--m", "+08", "--diag=-.5e1",
                        "--band", "01=1.,2=-2E-1"], capsys)
    assert code == 0
    doc = strict_loads(out)
    assert (doc["m"], doc["diag"], doc["band"]) == (8, -5.0,
                                                    [[1, 1.0], [2, -0.2]])


def test_toeplitz_dense_budget_checked_up_front(capsys):
    # one 10^6 x 10^6 section and its solver's working copy would need
    # 16 TB: refused from --m
    code, out, err = run(["toeplitz", "--m", "1000000", "--band", "1=1"],
                         capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and "budget" in err
    assert len(err.splitlines()) == 1


def test_toeplitz_budget_is_one_section_and_its_working_copy(capsys):
    # 2 m^2 x 8 bytes are charged, so m = 4096 fits the 256 MiB budget
    # exactly and m = 4097 is the first size refused
    code, out, err = run(["toeplitz", "--m", "4096", "--band", "1=1,2=-1"],
                         capsys)
    assert (code, err) == (0, "")
    doc = strict_loads(out)
    assert doc["m"] == 4096
    assert doc["min_symbol"] < doc["lambda_min_bm"] < doc["lambda_max_bm"] \
        < doc["max_symbol"]
    code, out, err = run(["toeplitz", "--m", "4097", "--band", "1=1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and "budget" in err
    assert len(err.splitlines()) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim,spec", [
    pytest.param(4, {"m": 4.9}, id="float-m"),
    pytest.param(1, {"m": True, "band": {}}, id="bool-m"),
    pytest.param(4, {"diag": float("inf")}, id="inf-diag"),
    pytest.param(4, {"diag": float("nan")}, id="nan-diag"),
    pytest.param(4, {"band": {"1": float("inf")}}, id="inf-band"),
    pytest.param(4, {"band": {"1": 1.0, "2": float("-inf")}}, id="-inf-band"),
    pytest.param(4, {"band": {"1": 1.0, "01": 0.5}}, id="repeated-offset"),
])
def test_criteria_rejects_bad_toeplitz_spec(tmp_path, capsys, dim, spec):
    # refused before the matrix is built: exit 2, one stderr line, and no
    # numpy warning (the filter turns one into a failure); int() would
    # read m = 4.9 as 4 and m = true as 1
    doc = {"dim": dim, "partition": [[i] for i in range(dim)],
           "toeplitz": {"m": dim, "diag": 3.0, "band": {"1": 1.0}, **spec}}
    code, out, err = run(["criteria", write_doc(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid model") and len(err.splitlines()) == 1


@pytest.mark.parametrize("text", [
    pytest.param('{"dim": 4, "partition": [[0], [1], [2], [3]], "toeplitz": '
                 '{"m": 4, "diag": 3.0, "band": {"1": 1.0, "1": 0.5}}}',
                 id="band"),
    pytest.param('{"dim": 2, "partition": [[0], [1]], "mean": [5.0, 5.0], '
                 '"precision": [[1.0, 0.0], [0.0, 1.0]], "mean": [0.0, 0.0]}',
                 id="mean"),
])
def test_criteria_refuses_a_key_given_twice(text, tmp_path, capsys):
    # read last-wins, each document was a certified model (exit 0)
    path = tmp_path / "twice.json"
    path.write_text(text)
    code, out, err = run(["criteria", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "invalid model: model file gives a key twice in one object\n"


@pytest.mark.parametrize("band", ["-1=1", "-2=1", "0=1", "16=1", "100000=1"])
def test_toeplitz_band_offset_out_of_range(band, capsys):
    # offsets are checked against 1..m-1 before the symbol is built, so a
    # huge offset is rejected at once instead of sizing the Chebyshev series
    code, out, err = run(["toeplitz", "--m", "16", f"--band={band}"], capsys)
    assert code == 2
    assert out == ""
    assert "invalid model" in err


# Each refusal below is a documented exit code; most documents are edits
# of the 2-d reference.
_REF_DOC = model_to_dict(model_2d())
_SINGLETONS = {"dim": 2, "partition": [[0], [1]]}


@pytest.mark.parametrize("doc, argv, code, err_line", [
    pytest.param([_REF_DOC], None, 2,
                 "invalid model: model document must be a JSON object",
                 id="list-document"),
    pytest.param({k: v for k, v in _REF_DOC.items() if k != "dim"}, None, 2,
                 "invalid model: model document needs 'dim' and 'partition'",
                 id="no-dim"),
    pytest.param({**_REF_DOC, "partition": []}, None, 2,
                 "invalid model: partition needs at least one block",
                 id="empty-partition"),
    pytest.param({**_REF_DOC, "quartic": [0.0]}, None, 2,
                 "invalid model: quartic must have length 2, got (1,)",
                 id="short-quartic"),
    pytest.param({**_SINGLETONS,
                  "toeplitz": {"m": 3, "diag": 3.0, "band": {"1": 1.0}}},
                 None, 2,
                 "invalid model: toeplitz size 3 does not match dim 2",
                 id="toeplitz-m-not-dim"),
    pytest.param({**_SINGLETONS, "precision": [[-1.0, 0.0], [0.0, 1.0]],
                  "quartic": [1.0, 1.0]}, None, 3,
                 "no certificate: a diagonal precision block is not "
                 "positive definite", id="quartic-not-pd-block"),
    pytest.param(None, ["toeplitz", "--m", "8", "--band", ","], 1,
                 "usage error: band specification is empty",
                 id="empty-band"),
    *(pytest.param(doc, None, 2, f"invalid model: {message}",
                   id=f"indefinite-{name.replace(' ', '-')}")
      for name, (doc, message) in INDEFINITE_DOCS.items()),
])
def test_documented_refusals(tmp_path, capsys, doc, argv, code, err_line):
    # one stderr line, no traceback and nothing on stdout
    if argv is None:
        argv = ["criteria", write_doc(tmp_path, doc)]
    assert run(argv, capsys) == (code, "", err_line + "\n")


def test_console_entry_point_passes_exit_codes(model_path, bad_model_path,
                                               capsys):
    # `python -m lsicert.cli` exits with main's code and prints what main
    # prints in process; a numpy RuntimeWarning is an error, as in the suite
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONWARNINGS="error::RuntimeWarning")
    for path, code in ((model_path, 0), (bad_model_path, 2)):
        argv = ["criteria", path]
        proc = subprocess.run([sys.executable, "-m", "lsicert.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(argv, capsys)
        assert proc.returncode == code


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 1


# ---- one parser per process ----

def test_main_builds_no_parser(model_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["criteria", model_path],
                 ["verify", model_path, "theorem1", "--trials", "2"],
                 ["toeplitz", "--m", "8", "--band", "1=1"]):
        assert run(argv, capsys)[0] == 0
    assert built == []
    cli.build_parser()  # the counter sees the parser and its subparsers
    assert len(built) == 4


def test_shared_parser_keeps_no_out_path(model_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["criteria", model_path, "--out", str(out)], capsys) == (0, "", "")
    code, text, _ = run(["criteria", model_path], capsys)
    assert code == 0 and text == out.read_text()


def test_shared_parser_keeps_no_trial_count(model_path, capsys):
    assert run(["verify", model_path, "theorem1", "--trials", "3"],
               capsys)[0] == 0
    code, text, _ = run(["verify", model_path, "theorem1"], capsys)
    assert code == 0
    assert len(text.splitlines()) == 2 + cli._DEFAULT_TRIALS["theorem1"]


@pytest.mark.parametrize("between, code", [
    (["criteria"], 1),
    (["verify", "missing.json", "bogus"], 1),
    (["criteria", "m.json", "--seed", "3"], 1),
    (["--help"], 0),
    (["verify", "--help"], 0),
])
def test_calls_after_exit_are_unchanged(between, code, model_path, capsys):
    calls = (["criteria", model_path],
             ["verify", model_path, "prop4", "--trials", "2", "--seed", "5"],
             ["toeplitz", "--m", "8", "--band", "1=1,2=-0.25"])
    first = [run(argv, capsys) for argv in calls]
    assert cli.main(between) == code
    capsys.readouterr()
    assert [run(argv, capsys) for argv in calls] == first
