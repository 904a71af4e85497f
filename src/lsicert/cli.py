"""Command line interface.

Subcommands: `criteria` evaluates the spectral certificates for a model
file and emits a JSON report; `verify` runs one verification suite and
emits a pass/fail CSV table whose rows only format the verifiers' own
results; `toeplitz` reports exact symbol extrema and finite-section
spectra for a banded coupling.

Exit codes: 0 success, 1 usage error (including `verify` on a model with
a quartic term, since the closed-form verifiers need a Gaussian model,
`verify` with --trials or --steps below 1 or gibbs --samples below
MIN_MC_SAMPLES, refused before any work, and `verify gibbs` when the
exact mixture would exceed the component cap or the byte budget), 2
invalid model, 3 no certificate, 4 verification failure.  Output is
strict JSON or CSV, byte-identical across runs for equal inputs and
seeds; all randomness derives from --seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import fokker_planck, gibbs, instances, oracles
from .criteria import CertificateError, criteria_report, toeplitz_spectrum_report
from .gaussian import GaussianDist, gaussian_target
from .model import ModelError, load_model, model_to_dict

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_NO_CERTIFICATE = 3
EXIT_VERIFY_FAILED = 4

SUBCHECKS = ("theorem1", "gibbs", "transport", "prop4", "dissipation")
_DEFAULT_TRIALS = {"theorem1": 200, "transport": 500, "prop4": 500}


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_value(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return float(v)
    raise TypeError(f"unexpected report value {v!r}")


def _report_json(model, report) -> str:
    doc = {
        "model": model_to_dict(model),
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


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(float(v))


def _csv(rows, seed: int) -> str:
    lines = [f"# seed={seed}", "check,param,value,bound,tolerance,verdict"]
    for check, param, value, bound, tol, ok in rows:
        verdict = "pass" if ok else "fail"
        lines.append(f"{check},{param},{_fmt(value)},{_fmt(bound)},"
                     f"{_fmt(tol)},{verdict}")
    return "\n".join(lines) + "\n"


def _default_p0(model) -> GaussianDist:
    target = gaussian_target(model)
    return GaussianDist(target.mean + 1.0, target.cov)


def _rows_theorem1(model, report, rng, trials):
    rows = []
    for i in range(trials):
        p = instances.random_gaussian(rng, model.dim)
        res = gibbs.verify_theorem1(p, model, report)
        rows.append(("theorem1", f"trial={i}", res.lhs, res.rhs,
                     gibbs.THEOREM1_SLACK, res.holds))
    return rows

def _rows_gibbs(model, report, seed, samples, steps):
    p0 = _default_p0(model)
    trajectory = gibbs.verify_contraction(p0, model, report, steps=steps,
                                          nsamples=samples, seed=seed)
    return [("gibbs", f"step={row.step}", row.kl_estimate, row.bound,
             3.0 * row.std_error, row.within_bound) for row in trajectory]


def _rows_transport(model, report, rng, trials):
    rows = []
    for i in range(trials):
        p = instances.random_gaussian(rng, model.dim)
        res = oracles.transport_check(p, model, report)
        rows.append(("transport", f"trial={i}", res.w2sq, res.bound, 1e-9,
                     res.holds))
    return rows


def _rows_prop4(model, report, rng, trials):
    rows = []
    for i in range(trials):
        z = rng.normal(loc=model.mean, scale=2.0)
        u = rng.normal(loc=model.mean, scale=2.0)
        res = oracles.prop4_check(model, report, z, u)
        rows.append(("prop4", f"trial={i}:w2_vs_kl", res.lhs_w2_sum,
                     res.mid_kl_sum, 1e-9, res.holds_first))
        rows.append(("prop4", f"trial={i}:kl_vs_quadratic", res.mid_kl_sum,
                     res.rhs, 1e-9, res.holds_second))
    return rows


def _rows_dissipation(model, report):
    times = np.linspace(0.0, 5.0, 5001)
    res = fokker_planck.dissipation_check(_default_p0(model), model, times,
                                          rho=report.rho_marton)
    rel_tol = fokker_planck.INTEGRAL_REL_TOL
    atol = fokker_planck.DECAY_ATOL
    return [
        ("dissipation", "max_residual", res.max_residual, res.tolerance,
         res.tolerance, res.ok and not res.coarse_grid),
        ("dissipation", "integral_identity_rel_err", res.integral_rel_err,
         rel_tol, rel_tol, res.integral_rel_err <= rel_tol),
        ("dissipation", "exp_decay_max_excess", res.decay_excess, 0.0, atol,
         res.decay_excess <= atol),
    ]


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
    rng = np.random.default_rng(args.seed)
    if args.subcheck == "theorem1":
        rows = _rows_theorem1(model, report, rng, trials)
    elif args.subcheck == "gibbs":
        rows = _rows_gibbs(model, report, args.seed, args.samples, args.steps)
    elif args.subcheck == "transport":
        rows = _rows_transport(model, report, rng, trials)
    elif args.subcheck == "prop4":
        rows = _rows_prop4(model, report, rng, trials)
    else:
        rows = _rows_dissipation(model, report)
    _write_text(_csv(rows, args.seed), args.out)
    if all(ok for *_, ok in rows):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


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
