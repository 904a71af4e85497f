"""Command line interface.

Subcommands: `criteria` evaluates the spectral certificates for a model
file and emits a JSON report (the model's dimension, block sizes and
`model.model_digest`, then the certificates); `verify` runs one
verification suite and emits a pass/fail CSV table, one row per Check
the verifiers return, with the closed-form suites' params prefixed by
their trial; `toeplitz` reports exact symbol extrema and finite-section
spectra for a banded coupling.

The closed-form suites (theorem1, transport, prop4) draw their trials in
chunks of _TRIAL_CHUNK_BYTES of covariances, in the order a trial-by-trial
loop draws them, and check each chunk in one stacked verifier call; each
row equals the single-trial call, so the table does not depend on the
chunk size.

Exit codes: 0 success, 1 usage error (including `verify` on a model with
a quartic term, since the closed-form verifiers need a Gaussian model,
`verify` with --trials or --steps below 1 or gibbs --samples below
MIN_MC_SAMPLES, refused before any work, `verify gibbs` when the exact
mixture and its --samples draws would exceed the component cap or the
byte budget, refused before any sweep, a model whose dense K, or a
`toeplitz` section whose four dense m x m arrays, would exceed
`model.DENSE_BYTE_BUDGET`, refused before anything is built, non-finite
or overflowing `toeplitz` coefficients, and an --out path that cannot
be written), 2 invalid model, 3 no certificate, 4 verification failure.
Output is strict JSON or CSV, byte-identical across runs for equal
inputs and seeds; all randomness derives from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import fokker_planck, gibbs, instances, oracles
from .criteria import (CertificateError, Check, criteria_report,
                       toeplitz_spectrum_report)
from .gaussian import GaussianDist, gaussian_target
from .model import ModelError, load_model, model_digest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_NO_CERTIFICATE = 3
EXIT_VERIFY_FAILED = 4

SUBCHECKS = ("theorem1", "gibbs", "transport", "prop4", "dissipation")
_DEFAULT_TRIALS = {"theorem1": 200, "transport": 500, "prop4": 500}
# Size of the covariance stack of one chunk of closed-form trials; each
# chunk is drawn and checked in one stacked verifier call.
_TRIAL_CHUNK_BYTES = 256 << 10


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from exc


def _json_value(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return float(v)
    raise TypeError(f"unexpected report value {v!r}")


def _report_json(model, report) -> str:
    doc = {
        "model": {"dim": model.dim,
                  "block_sizes": list(model.partition.sizes),
                  "sha256": model_digest(model)},
        "rho_k": [float(r) for r in report.rho_k],
        "delta": float(report.delta),
        "rho_marton": _json_value(report.rho_marton),
        "rho_or": _json_value(report.rho_or),
        "flags": list(report.flags),
        "certified": bool(report.certified),
        "norm_A0": float(report.norm_A0),
        "lambda_max_A0": float(report.lambda_max_A0),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def cmd_criteria(args) -> int:
    model = load_model(args.model)
    report = criteria_report(model)
    _write_text(_report_json(model, report), args.out)
    if report.rho_marton is None:
        print("no certificate: delta <= 0", file=sys.stderr)
        return EXIT_NO_CERTIFICATE
    return EXIT_OK


def _csv(checks, seed: int) -> str:
    lines = [f"# seed={seed}", "check,param,value,bound,tolerance,verdict"]
    for c in checks:
        nums = ",".join(repr(float(v))
                        for v in (c.value, c.bound, c.tolerance))
        lines.append(f"{c.check},{c.param},{nums},"
                     f"{'pass' if c.holds else 'fail'}")
    return "\n".join(lines) + "\n"


def _default_p0(model) -> GaussianDist:
    target = gaussian_target(model)
    return GaussianDist(target.mean + 1.0, target.cov)


def _trial(i: int, check: Check) -> Check:
    param = f"trial={i}:{check.param}" if check.param else f"trial={i}"
    return dataclasses.replace(check, param=param)


def _trial_checks(subcheck: str, model, report, rng, count: int) -> list:
    """The checks of the next `count` random instances of a closed-form
    subcheck, one tuple per instance, drawn in the per-instance rng order
    and checked in one stacked call."""
    if subcheck == "prop4":
        z, u = np.empty((2, count, model.dim))
        for t in range(count):
            z[t] = rng.normal(loc=model.mean, scale=2.0)
            u[t] = rng.normal(loc=model.mean, scale=2.0)
        return list(oracles.prop4_check(model, report, z, u))
    laws = instances.random_gaussians(rng, count, model.dim)
    verify = (gibbs.verify_theorem1 if subcheck == "theorem1"
              else oracles.transport_check)
    return [(c,) for c in verify(laws, model, report)]


def cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None \
        else _DEFAULT_TRIALS.get(args.subcheck, 1)
    if min(trials, args.steps) < 1 or (
            args.subcheck == "gibbs" and args.samples < gibbs.MIN_MC_SAMPLES):
        print(f"usage error: need --trials >= 1, --steps >= 1 and gibbs "
              f"--samples >= {gibbs.MIN_MC_SAMPLES}", file=sys.stderr)
        return EXIT_USAGE
    model = load_model(args.model)
    if not model.is_gaussian:
        print("usage error: the closed-form verifiers need a Gaussian model "
              "(quartic = 0)", file=sys.stderr)
        return EXIT_USAGE
    report = criteria_report(model)
    if report.rho_marton is None:
        print("no certificate: delta <= 0", file=sys.stderr)
        return EXIT_NO_CERTIFICATE
    if args.subcheck == "gibbs":
        checks = gibbs.verify_contraction(
            _default_p0(model), model, report, steps=args.steps,
            nsamples=args.samples, seed=args.seed)
    elif args.subcheck == "dissipation":
        _, checks = fokker_planck.dissipation_check(
            _default_p0(model), model, np.linspace(0.0, 5.0, 5001),
            rho=report.rho_marton)
    else:
        rng = np.random.default_rng(args.seed)
        chunk = max(1, _TRIAL_CHUNK_BYTES // (8 * model.dim * model.dim))
        checks = []
        for lo in range(0, trials, chunk):
            rows = _trial_checks(args.subcheck, model, report, rng,
                                 min(chunk, trials - lo))
            checks += [_trial(i, c) for i, row in enumerate(rows, start=lo)
                       for c in row]
    _write_text(_csv(checks, args.seed), args.out)
    return EXIT_OK if all(c.holds for c in checks) else EXIT_VERIFY_FAILED


def parse_band(text: str) -> dict:
    """{offset: coeff} from pairs such as '1=1,2=-1'; ValueError if bad."""
    band = {}
    for item in text.replace(" ", ",").split(","):
        if not item:
            continue
        try:
            off, coeff = item.split("=")
            band[int(off)] = float(coeff)
        except ValueError:
            raise ValueError(f"bad band entry {item!r}; expected offset=coeff")
    if not band:
        raise ValueError("band specification is empty")
    return band


def cmd_toeplitz(args) -> int:
    report = toeplitz_spectrum_report(args.m, args.diag, parse_band(args.band))
    doc = dataclasses.asdict(report)
    doc["band"] = [[int(off), float(coeff)] for off, coeff in report.band]
    _write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsicert",
        description="Certified log-Sobolev constants for block Gibbs "
                    "models, with entropy-inequality verifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("criteria", help="evaluate spectral certificates")
    pc.add_argument("model", help="path to a model JSON file")
    pc.add_argument("--out", default=None, help="write the JSON report here")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("model", help="path to a model JSON file")
    pv.add_argument("subcheck", choices=SUBCHECKS)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=200_000,
                    help="Monte Carlo samples per estimate")
    pv.add_argument("--steps", type=int, default=8,
                    help="Gibbs sweeps to track")
    pv.add_argument("--trials", type=int, default=None,
                    help="random instances for closed-form checks")
    pv.add_argument("--out", default=None, help="write the CSV table here")

    pt = sub.add_parser("toeplitz", help="banded coupling spectrum report")
    pt.add_argument("--m", type=int, required=True,
                    help="finite section size")
    pt.add_argument("--diag", type=float, default=0.0)
    pt.add_argument("--band", required=True,
                    help="offset=coeff pairs, e.g. '1=1,2=-1'")
    pt.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "criteria":
            return cmd_criteria(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_toeplitz(args)
    except ModelError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except CertificateError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_NO_CERTIFICATE
    except gibbs.MixtureCapError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
