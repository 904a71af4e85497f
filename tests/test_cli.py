"""Command line interface checks: output formats, exit codes,
byte-for-byte determinism."""

import json
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lsicert import cli, fokker_planck, gibbs
from lsicert.criteria import Check, criteria_report
from lsicert.gaussian import GaussianDist, gaussian_target
from lsicert.instances import (model_2d, random_certified_model,
                               random_gaussian, random_quartic_model)
from lsicert.model import (BlockPartition, GibbsModel, load_model,
                           model_digest, model_to_dict, save_model,
                           toeplitz_matrix)
from lsicert.oracles import prop4_check, transport_check


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


def test_criteria_echo_is_model_not_file(tmp_path, capsys):
    # m = 256 chains as a toeplitz spec and as its dense expansion; the
    # subnormal band survives both loads unchanged
    m = 256
    for coeff in (1.0, 5e-324):
        spec = write_doc(tmp_path, {"dim": m,
                                    "partition": [[i] for i in range(m)],
                                    "toeplitz": {"m": m, "diag": 3.0,
                                                 "band": {"1": coeff}}})
        dense = tmp_path / "dense.json"
        save_model(load_model(spec), dense)
        code, out, _ = run(["criteria", spec], capsys)
        assert code == 0
        assert run(["criteria", str(dense)], capsys) == (0, out, "")
        assert len(out.encode()) < 8 * 1024
        echo = json.loads(out)["model"]
        assert list(echo) == ["dim", "block_sizes", "sha256"]
        assert echo["dim"] == m and echo["block_sizes"] == [1] * m
        assert echo["sha256"] == model_digest(load_model(dense))


def test_criteria_deterministic_bytes(model_path, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["criteria", model_path, "--out", str(out1)]) == 0
    assert cli.main(["criteria", model_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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
])
def test_criteria_rejects_non_finite_quartic(tmp_path, capsys, edit):
    doc = {k: v for k, v in {**model_to_dict(model_2d()), **edit}.items()
           if v is not None}
    code, out, err = run(["criteria", write_doc(tmp_path, doc)], capsys)
    assert code == 2
    assert err.startswith("invalid model") and len(err.splitlines()) == 1
    assert out == ""


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


GIBBS_GOLDEN = """\
# seed=5
check,param,value,bound,tolerance,verdict
gibbs,step=0,0.5,0.5,0.0,pass
gibbs,step=1,0.3112197363334801,0.37500000000000017,0.050481451230734956,pass
gibbs,step=2,0.14212219746661398,0.2812500000000003,0.03925423515965516,pass
gibbs,step=3,0.0872710704936712,0.21093750000000028,0.028812440119066102,pass
"""


def test_verify_gibbs_golden_bytes(model_path, capsys):
    # the exact table of the 2-d reference: the mixture layout, the batched
    # push and the Gram pass may not move a byte of it
    code, out, _ = run(["verify", model_path, "gibbs", "--steps", "3",
                        "--samples", "2000", "--seed", "5"], capsys)
    assert code == 0
    assert out == GIBBS_GOLDEN


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


def library_checks(model, subcheck, seed, trials):
    """The checks `verify` reports, taken from the library directly, with
    the trial of each closed-form check prefixed to its param."""
    report = criteria_report(model)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + 1.0, q.cov)
    if subcheck == "gibbs":
        return list(gibbs.verify_contraction(p0, model, report, steps=2,
                                             nsamples=2000, seed=seed))
    if subcheck == "dissipation":
        _, checks = fokker_planck.dissipation_check(
            p0, model, np.linspace(0.0, 5.0, 5001), rho=report.rho_marton)
        return list(checks)
    rng = np.random.default_rng(seed)
    out = []
    for i in range(trials):
        if subcheck == "prop4":
            z = rng.normal(loc=model.mean, scale=2.0)
            u = rng.normal(loc=model.mean, scale=2.0)
            checks = prop4_check(model, report, z, u)
        else:
            verify = gibbs.verify_theorem1 if subcheck == "theorem1" \
                else transport_check
            checks = (verify(random_gaussian(rng, model.dim), model, report),)
        out += [replace(c, param=f"trial={i}:{c.param}" if c.param
                        else f"trial={i}") for c in checks]
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
    rows = cli._trial_checks(subcheck, model, criteria_report(model),
                             np.random.default_rng(4), 50)
    stacked = [cli._trial(i, c) for i, row in enumerate(rows) for c in row]
    single = library_checks(model, subcheck, 4, 50)
    assert [repr(c) for c in stacked] == [repr(c) for c in single]


@pytest.mark.parametrize("subcheck", ["theorem1", "transport", "prop4"])
def test_verify_chunks_give_the_rows_of_one_chunk(subcheck, model_path,
                                                  capsys, monkeypatch):
    args = ["verify", model_path, subcheck, "--seed", "6", "--trials", "11"]
    counts = []
    original = cli._trial_checks

    def counted(subcheck, model, report, rng, count):
        counts.append(count)
        return original(subcheck, model, report, rng, count)

    monkeypatch.setattr(cli, "_trial_checks", counted)
    code, whole, _ = run(args, capsys)
    assert counts == [11]
    counts.clear()
    # the 2-d model's covariance takes 32 bytes: three trials per chunk
    monkeypatch.setattr(cli, "_TRIAL_CHUNK_BYTES", 3 * 32 + 31)
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
    # 256 singleton blocks, 2 sweeps: 65 536 components of 256 x 256 fit
    # the component cap but not the byte budget; nothing may be swept
    m = 256
    model = GibbsModel(partition=BlockPartition(tuple((i,) for i in range(m))),
                       precision=toeplitz_matrix(m, 4.0, {1: 1.0}),
                       mean=np.zeros(m), quartic=np.zeros(m))
    path = tmp_path / "t256.json"
    save_model(model, path)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the budget check")

    monkeypatch.setattr(gibbs, "apply_weighted_gibbs", no_sweep)
    code, out, err = run(["verify", str(path), "gibbs", "--steps", "2",
                          "--samples", "2000"], capsys)
    assert code == 1
    assert out == ""
    assert "65536 components" in err and "budget" in err


@pytest.mark.parametrize("blocks, args", [
    (2, ["--steps", "1", "--samples", "1000000000000"]),
    (3, ["--steps", "100000"]),
    (2, ["--steps", "10000000"]),
])
def test_verify_gibbs_oversized_run_refused_up_front(blocks, args, tmp_path,
                                                    capsys, monkeypatch):
    # the Monte Carlo samples and the component count are charged before
    # the first sweep: an oversized run is refused at once, in one line
    prec = np.full((blocks, blocks), -0.5)
    np.fill_diagonal(prec, 2.0)
    path = tmp_path / "blocks.json"
    save_model(GibbsModel(partition=BlockPartition(
        tuple((i,) for i in range(blocks))), precision=prec,
        mean=np.zeros(blocks), quartic=np.zeros(blocks)), path)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the budget check")

    monkeypatch.setattr(gibbs, "apply_weighted_gibbs", no_sweep)
    start = time.perf_counter()
    code, out, err = run(["verify", str(path), "gibbs", *args], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err.startswith("usage error") and len(err.splitlines()) == 1


def test_verify_small_sample_usage_error(model_path, capsys):
    code, _, err = run(["verify", model_path, "gibbs", "--samples", "10"],
                       capsys)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("args", [
    ["theorem1", "--trials", "0"],
    ["theorem1", "--trials", "-3"],
    ["transport", "--trials", "0"],
    ["prop4", "--trials", "-1"],
    ["gibbs", "--steps", "-2"],
    ["gibbs", "--steps", "0"],
    ["gibbs", "--samples", "999"],
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
    # a malformed band, a non-finite diag and a symbol that overflows are
    # each refused with one stderr line; a numpy warning fails the test
    for args in (["--band", "oops"], ["--diag", "nan", "--band", "1=1"],
                 ["--band", "1=1e308,2=1e308"]):
        code, out, err = run(["toeplitz", "--m", "8", *args], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error") and len(err.splitlines()) == 1


def test_toeplitz_dense_budget_checked_up_front(capsys):
    # four dense 10^6 x 10^6 arrays would need 32 TB: refused from --m
    code, out, err = run(["toeplitz", "--m", "1000000", "--band", "1=1"],
                         capsys)
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


@pytest.mark.parametrize("band", ["-1=1", "-2=1", "0=1", "16=1", "100000=1"])
def test_toeplitz_band_offset_out_of_range(band, capsys):
    # offsets are checked against 1..m-1 before the symbol is built, so a
    # huge offset is rejected at once instead of sizing the Chebyshev series
    code, out, err = run(["toeplitz", "--m", "16", f"--band={band}"], capsys)
    assert code == 2
    assert out == ""
    assert "invalid model" in err


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 1
