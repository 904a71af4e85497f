"""Seeded fixtures and the fixed op list of each workload.

`build` writes the workload's model files into a work directory and
returns its ops. An op runs through `lsicert.cli.main(argv)`, or through
the library where no subcommand exists, and returns (exit code, output
text). Each op's check computes its expected values with `checks` the
first time it is called, which is after the op has run and outside
every timed region.

Model dimensions and block counts are fixed, and so are the interaction
norms of the certify and verify_closed models, so that seeds change the
models' entries but not the amount of work: whether the block criterion
is feasible, for one, decides whether `otto_reznikoff` bisects at all.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lsicert.cli
from lsicert import fokker_planck, gaussian, instances
from lsicert import model as lsimodel

import checks

WORKLOADS = ("certify", "gibbs_sweep", "verify_closed")

# Layers whose traced call count must be non-zero on each workload.
EXERCISED = {
    "certify": ("cli", "model", "criteria"),
    "gibbs_sweep": ("cli", "model", "criteria", "gaussian", "gibbs"),
    "verify_closed": ("cli", "model", "criteria", "gaussian", "gibbs",
                      "oracles", "fokker_planck", "instances"),
}

# certify
CHAIN_SIZES = (64, 128, 256)
CHAIN_DIAG = 3.0
CHAIN_BANDS = ({1: 1.0}, {1: -1.0, 2: 0.3})
GAUSS_DIMS = (16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60, 64)
QUARTIC_DIMS = (4, 8, 12, 16)
# ||A|| at rho = 0 of the random models, taken in turn: the block
# criterion is feasible at the first and, from dim 8 up, not at the second.
CERTIFY_NORMS = (0.25, 0.9)
# Interaction norm of verify_closed's random models.
CLOSED_NORM = 0.25
TOEPLITZ_OPS = ((256, {1: 1.0, 2: -1.0}), (512, {1: 1.0, 2: -1.0}))

# gibbs_sweep: (dim, blocks, sweep counts) per model; "ref2d" is the 2-d
# reference model, the others are random certified models. The largest
# count per shape is the headline size (2 blocks x 8, 3 blocks x 5 and
# 4 blocks x 5 sweeps); shorter runs make up the rest of the op list.
GIBBS_SAMPLES = 20_000
GIBBS_MODELS = {"ref2d": (2, 2, (1, 2, 3, 4, 5, 8)),
                "b3d6": (6, 3, (1, 2, 3, 5)), "b3d6b": (6, 3, (1, 2, 3)),
                "b3d6c": (6, 3, (1, 2, 3)),
                "b4d8": (8, 4, (1, 2, 5)), "b4d8b": (8, 4, (1, 2, 3))}

# verify_closed
CLOSED_DIMS = (16, 18, 20, 22, 24, 26, 28, 30, 32)
DISSIPATION_DIMS = (16, 24, 32)
CLOSED_TRIALS = 50
CHAIN_THEOREM1 = (128, 5)  # chain size, trials
LANGEVIN_DIM = 8
LANGEVIN_STEPS = 60
LANGEVIN_PARTICLES = 20_000


@dataclass
class Op:
    name: str
    run: Callable[[], tuple]
    check: Callable[[int, str], list]


def _cli_op(name: str, argv: list, check) -> Op:
    argv = [str(a) for a in argv]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = lsicert.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    return Op(name, run, check)


def _band_arg(band: dict) -> str:
    return ",".join(f"{k}={v:g}" for k, v in sorted(band.items()))


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _save(workdir: str, name: str, model) -> str:
    path = os.path.join(workdir, name + ".json")
    lsimodel.save_model(model, path)
    return path


def _criteria_check(path: str):
    @functools.cache
    def want():
        with open(path) as fh:
            doc = json.load(fh)
        if "toeplitz" in doc:
            spec = doc["toeplitz"]
            prec = checks.toeplitz_dense(
                spec["m"], spec["diag"],
                {int(k): v for k, v in spec["band"].items()})
        else:
            prec = np.asarray(doc["precision"], dtype=float)
        return checks.criteria_expected(prec, doc["partition"])

    return lambda rc, text: checks.check_criteria(rc, text, want())


def _chain_doc(m: int, band: dict) -> dict:
    return {"dim": m, "partition": [[i] for i in range(m)],
            "toeplitz": {"m": m, "diag": CHAIN_DIAG,
                         "band": {str(k): v for k, v in band.items()}}}


def _no_certificate_model(rng: np.random.Generator):
    """Positive definite two-block model with no certificate.

    Each 2x2 block has a small eigenvalue 1 - b; the coupling acts only
    along the blocks' large eigenvector (1, 1), so K stays positive
    definite while ||A|| = c / (1 - b) >= 2.
    """
    b = float(rng.uniform(0.8, 0.9))
    c = float(rng.uniform(0.4, 0.6))
    blk = np.array([[1.0, b], [b, 1.0]])
    prec = np.block([[blk, np.full((2, 2), c / 2)],
                     [np.full((2, 2), c / 2), blk]])
    return lsimodel.GibbsModel(
        partition=lsimodel.BlockPartition(((0, 1), (2, 3))),
        precision=prec, mean=rng.normal(size=4), quartic=np.zeros(4))


def _build_certify(rng, workdir) -> list:
    ops = []
    for m in CHAIN_SIZES:
        for j, band in enumerate(CHAIN_BANDS):
            path = _write(workdir, f"chain{m}-{j}", _chain_doc(m, band))
            ops.append(_cli_op(f"criteria chain m={m} band={_band_arg(band)}",
                               ["criteria", path], _criteria_check(path)))
    for i, dim in enumerate(GAUSS_DIMS):
        norm = CERTIFY_NORMS[i % len(CERTIFY_NORMS)]
        path = _save(workdir, f"gauss{dim}",
                     _model_with_blocks(rng, dim, dim // 2, norm))
        ops.append(_cli_op(f"criteria gaussian dim={dim}", ["criteria", path],
                           _criteria_check(path)))
    for i, dim in enumerate(QUARTIC_DIMS):
        norm = CERTIFY_NORMS[i % len(CERTIFY_NORMS)]
        path = _save(workdir, f"quartic{dim}",
                     _model_with_blocks(rng, dim, dim // 2, norm, quartic=True))
        ops.append(_cli_op(f"criteria quartic dim={dim}", ["criteria", path],
                           _criteria_check(path)))
    path = _save(workdir, "nocert", _no_certificate_model(rng))
    ops.append(_cli_op("criteria no-certificate", ["criteria", path],
                       _criteria_check(path)))
    for m, band in TOEPLITZ_OPS:
        want = functools.cache(lambda m=m, band=band:
                               checks.toeplitz_expected(m, 0.0, band))
        ops.append(_cli_op(
            f"toeplitz m={m}", ["toeplitz", "--m", m, "--band", _band_arg(band)],
            lambda rc, text, want=want: checks.check_toeplitz(rc, text, want())))
    return ops


def _model_with_blocks(rng, dim: int, n_blocks: int, norm: float | None = None,
                       quartic: bool = False):
    """First random certified model drawn with n_blocks blocks.

    norm=None lets `instances` draw the interaction norm. quartic=True adds a quartic term as `instances.random_quartic_model`
    does, which itself takes no interaction norm.
    """
    for _ in range(10_000):
        model = instances.random_certified_model(rng, dim=dim,
                                                 target_norm=norm)
        if model.partition.n == n_blocks:
            break
    else:
        raise RuntimeError(f"no {n_blocks}-block partition of dim {dim} drawn")
    if not quartic:
        return model
    return lsimodel.GibbsModel(
        partition=model.partition, precision=model.precision,
        mean=model.mean, quartic=rng.uniform(0.01, 0.3, size=dim))


def _verify_op(name, path, subcheck, rows, seed, *extra) -> Op:
    return _cli_op(name, ["verify", path, subcheck, "--seed", seed, *extra],
                   lambda rc, text: checks.check_verify(rc, text, rows))


def _build_gibbs_sweep(rng, workdir) -> list:
    ops = []
    for key, (dim, n_blocks, sweeps) in GIBBS_MODELS.items():
        model = instances.model_2d() if key == "ref2d" \
            else _model_with_blocks(rng, dim, n_blocks)
        path = _save(workdir, key, model)
        for steps in sweeps:
            seed = int(rng.integers(0, 2 ** 31))
            ops.append(_verify_op(
                f"verify {key} gibbs steps={steps}", path, "gibbs",
                steps + 1, seed, "--samples", GIBBS_SAMPLES, "--steps", steps))
    return ops


def _langevin_op(name: str, path: str, seed: int) -> Op:
    marks = [LANGEVIN_STEPS // 2, LANGEVIN_STEPS]

    def run():
        model = lsimodel.load_model(path)
        cov = np.linalg.inv(model.precision)
        p0 = gaussian.GaussianDist(model.mean + 2.0, 0.5 * (cov + cov.T))
        dt = 0.05 / fokker_planck.curvature_bound(model, p0)
        res = fokker_planck.langevin_particles(
            model, p0, dt=dt, steps=LANGEVIN_STEPS, n=LANGEVIN_PARTICLES,
            seed=seed, checkpoints=marks)
        doc = {"particles_sha256": hashlib.sha256(res.particles.tobytes()).hexdigest(),
               "finite": bool(np.all(np.isfinite(res.particles))),
               "checkpoints": [{"step": cp.step, "t": cp.t,
                                "emp_mean": cp.emp_mean.tolist(),
                                "emp_cov": cp.emp_cov.tolist(),
                                "within_bands": cp.within_bands}
                               for cp in res.checkpoints],
               "gaussian": model.is_gaussian}
        return 0, json.dumps(doc)

    def check(rc, text):
        doc = checks.strict_json(text)
        probs = [] if doc["finite"] else ["non-finite particles"]
        if [cp["step"] for cp in doc["checkpoints"]] != marks:
            probs.append("checkpoints missing")
        for cp in doc["checkpoints"]:
            if doc["gaussian"] and cp["within_bands"] is not True:
                probs.append(f"step {cp['step']}: moments outside the bands")
        return probs

    return Op(name, run, check)


def _build_verify_closed(rng, workdir) -> list:
    ops = []
    for dim in CLOSED_DIMS:
        path = _save(workdir, f"gauss{dim}",
                     _model_with_blocks(rng, dim, dim // 2, CLOSED_NORM))
        for sub, rows in (("theorem1", CLOSED_TRIALS),
                          ("transport", CLOSED_TRIALS),
                          ("prop4", 2 * CLOSED_TRIALS)):
            ops.append(_verify_op(f"verify gaussian dim={dim} {sub}", path,
                                  sub, rows, int(rng.integers(0, 2 ** 31)),
                                  "--trials", CLOSED_TRIALS))
        if dim in DISSIPATION_DIMS:
            ops.append(_verify_op(f"verify gaussian dim={dim} dissipation",
                                  path, "dissipation", 3,
                                  int(rng.integers(0, 2 ** 31))))
    m, trials = CHAIN_THEOREM1
    path = _write(workdir, f"chain{m}", _chain_doc(m, CHAIN_BANDS[0]))
    ops.append(_verify_op(f"verify chain m={m} theorem1", path, "theorem1",
                          trials, int(rng.integers(0, 2 ** 31)),
                          "--trials", trials))
    for kind, make in (("gaussian", instances.random_certified_model),
                       ("quartic", instances.random_quartic_model)):
        path = _save(workdir, f"langevin-{kind}", make(rng, dim=LANGEVIN_DIM))
        ops.append(_langevin_op(f"langevin {kind} dim={LANGEVIN_DIM}", path,
                                int(rng.integers(0, 2 ** 31))))
    return ops


_BUILDERS = {"certify": _build_certify, "gibbs_sweep": _build_gibbs_sweep,
             "verify_closed": _build_verify_closed}


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's model files for `seed`; return its op list."""
    rng = np.random.default_rng(seed)
    return _BUILDERS[workload](rng, workdir)
