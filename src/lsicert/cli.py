"""Command line interface.

Subcommands: `criteria` evaluates the spectral certificates for a model
file and emits a JSON report (the model's dimension, block sizes and
`model.model_digest`, then the certificates); `verify` runs one
verification suite and emits a pass/fail CSV table, one row per Check
the verifiers return, with the closed-form suites' params prefixed by
their trial; `toeplitz` reports exact symbol extrema and finite-section
spectra for a banded coupling.  `verify` computes only the constants
its suites check: rho_k and rho_marton, and delta = 1 - ||A0|| for
prop4 alone.

The closed-form suites (theorem1, transport, prop4) draw their trials in
chunks of _TRIAL_CHUNK_BYTES of covariances, in the order a trial-by-trial
loop draws them, and check each chunk in one stacked verifier call; each
row equals the single-trial call, so the table does not depend on the
chunk size.

Exit codes: 0 success, 1 usage error (including `verify` on a model with
a quartic term, since the closed-form verifiers need a Gaussian model,
`verify` with --trials or --steps below 1, refused before any work,
work over a budget of `model.charge`, refused before it is built: a
model's dense K, a `toeplitz` section, a `verify` table's rows, --trials
charged before the model is read, the closed-form trials' operations,
charged once it is read, or a `verify gibbs` sweep's bytes and pushes; a
bad option value, an unknown option or a missing argument,
each as one `usage error` line without argparse's usage text, non-finite
or overflowing `toeplitz` coefficients, an offset or any other integer
option not matching [+-]?[0-9]+, an offset given twice, a --diag or band
coefficient that is no decimal literal such as 1, -0.5, .5 or 2e-3, and
an --out path that cannot be written), 2 invalid model (including a
`toeplitz.diag` or band coefficient, or any entry of `precision`, `mean`
or `quartic`, that is a bool, a string or null, not a number, or an
integer beyond the float range, and a file that is not UTF-8 JSON, nests
too deeply for the parser or holds an integer of more digits than int()
reads), 3 no certificate, 4 verification failure.
Output is strict JSON or CSV, byte-identical across runs for equal
inputs, seeds and BLAS thread count; all randomness derives from --seed.

The argument parser is built once, when the module is imported, so a
caller that runs `main` many times in one process pays for it once.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from . import fokker_planck, gibbs, instances, oracles
from .criteria import (CertificateError, a0_extremes, block_lsi_constants,
                       criteria_report, solve_rho_marton,
                       toeplitz_spectrum_report)
from .gaussian import GaussianDist, gaussian_target
from .model import (ROW_BYTES, ModelError, charge, load_model, model_digest,
                    toeplitz_band)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MODEL = 2
EXIT_NO_CERTIFICATE = 3
EXIT_VERIFY_FAILED = 4

SUBCHECKS = ("theorem1", "gibbs", "transport", "prop4", "dissipation")
_DEFAULT_TRIALS = {"theorem1": 200, "transport": 500, "prop4": 500}
_ROWS_PER_TRIAL = {"theorem1": 1, "transport": 1, "prop4": 2}
# A closed-form trial in dimension d is charged d^3 + _TRIAL_OPS
# operations (d^2 + _TRIAL_OPS for prop4, which factors no matrix per
# trial), _TRIAL_OPS standing for its fixed cost.  Calibrated on theorem1
# at d = 32, where 20 000 trials ran in 2.77 s on a 2 vCPU machine: 46 000
# operations a trial at model.OP_BUDGET's 3 ns, of which d^3 = 32 768,
# leaving 13 000, rounded up.  A trial at d <= 8 took 17-40 us there,
# 6 000-13 000 operations.
_TRIAL_OPS = 16384
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


def _report_json(model, report) -> str:
    doc = {
        "model": {"dim": model.dim,
                  "block_sizes": list(model.partition.sizes),
                  "sha256": model_digest(model)},
        "rho_k": [float(r) for r in report.rho_k],
        "delta": float(report.delta),
        "rho_marton": report.rho_marton,  # a float or None, as is rho_or
        "rho_or": report.rho_or,
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


def _csv(rows, seed: int) -> str:
    """One line per (trial, check) row; a trial other than None leads the
    param as `trial=<i>:`, or stands for an empty param."""
    lines = [f"# seed={seed}", "check,param,value,bound,tolerance,verdict"]
    for trial, c in rows:
        param = c.param
        if trial is not None:
            param = f"trial={trial}:{param}" if param else f"trial={trial}"
        nums = ",".join(repr(float(v))
                        for v in (c.value, c.bound, c.tolerance))
        lines.append(f"{c.check},{param},{nums},"
                     f"{'pass' if c.holds else 'fail'}")
    return "\n".join(lines) + "\n"


def _default_p0(model) -> GaussianDist:
    target = gaussian_target(model)
    return GaussianDist(target.mean + 1.0, target.cov)


def certified_constants(model) -> tuple:
    """(rho_k, rho_marton) of a Gaussian model; ValueError for a quartic
    term, CertificateError when solve_rho_marton certifies no rho."""
    if not model.is_gaussian:
        raise ValueError("the closed-form verifiers need a Gaussian model "
                         "(quartic = 0)")
    return block_lsi_constants(model), solve_rho_marton(model)


def _trial_checks(subcheck: str, model, rho_k, rho: float, rng,
                  count: int) -> list:
    """The checks of the next `count` random instances of a closed-form
    subcheck, one tuple per instance, drawn in the per-instance rng order
    and checked in one stacked call.  prop4, alone, reads delta."""
    if subcheck == "prop4":
        z, u = np.moveaxis(rng.normal(loc=model.mean, scale=2.0,
                                      size=(count, 2, model.dim)), 1, 0)
        delta = 1.0 - a0_extremes(model)[0]
        return list(oracles.prop4_check(model, rho_k, delta, z, u))
    laws = instances.random_gaussians(rng, count, model.dim)
    if subcheck == "theorem1":
        return [(c,) for c in gibbs.verify_theorem1(laws, model, rho_k, rho)]
    return [(c,) for c in oracles.transport_check(laws, model, rho)]


def cmd_verify(args) -> int:
    trials = args.trials if args.trials is not None \
        else _DEFAULT_TRIALS.get(args.subcheck, 1)
    if min(trials, args.steps) < 1:
        print("usage error: need --trials >= 1 and --steps >= 1",
              file=sys.stderr)
        return EXIT_USAGE
    rows = trials * _ROWS_PER_TRIAL.get(args.subcheck, 0)
    charge(f"a table of {trials} trials", rows * ROW_BYTES)
    model = load_model(args.model)
    if args.subcheck in _DEFAULT_TRIALS:
        d = model.dim
        work = d * d if args.subcheck == "prop4" else d ** 3
        charge(f"{trials} {args.subcheck} trials in dimension {d}", 0,
               trials * (work + _TRIAL_OPS))
    rho_k, rho = certified_constants(model)
    if args.subcheck == "gibbs":
        rows = [(None, c) for c in gibbs.verify_contraction(
            _default_p0(model), model, rho_k, rho, steps=args.steps)]
    elif args.subcheck == "dissipation":
        _, checks = fokker_planck.dissipation_check(
            _default_p0(model), model, np.linspace(0.0, 5.0, 5001), rho=rho)
        rows = [(None, c) for c in checks]
    else:
        rng = np.random.default_rng(args.seed)
        chunk = max(1, _TRIAL_CHUNK_BYTES // (8 * model.dim * model.dim))
        rows = []
        for lo in range(0, trials, chunk):
            trial_rows = _trial_checks(args.subcheck, model, rho_k, rho, rng,
                                       min(chunk, trials - lo))
            rows += [(i, c) for i, row in enumerate(trial_rows, start=lo)
                     for c in row]
    _write_text(_csv(rows, args.seed), args.out)
    return EXIT_OK if all(c.holds for _, c in rows) else EXIT_VERIFY_FAILED


def _integer(text: str) -> int:
    """argparse type of the integer options: [+-]?[0-9]+ alone, where
    int() also reads '1_000' and non-ASCII digits."""
    if not re.fullmatch("[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _decimal(text: str) -> float:
    """float(text) for a decimal literal; ValueError for anything else
    float() reads, such as '1_0', 'nan' or non-ASCII digits."""
    if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?",
                        text):
        raise ValueError(f"not a decimal number: {text!r}")
    return float(text)


def parse_band(text: str) -> dict:
    """{offset: coeff} from pairs such as '1=1,2=-1'; ValueError if bad."""
    band = {}
    for item in filter(None, text.replace(" ", ",").split(",")):
        try:
            off, coeff = item.split("=")
            (off, coeff), = toeplitz_band({off: _decimal(coeff)}).items()
        except (ValueError, ModelError):
            raise ValueError(f"bad band entry {item!r}; expected offset=coeff")
        if off in band:
            raise ValueError(f"band offset {off} given twice")
        band[off] = coeff
    if not band:
        raise ValueError("band specification is empty")
    return band


def cmd_toeplitz(args) -> int:
    report = toeplitz_spectrum_report(args.m, _decimal(args.diag),
                                      parse_band(args.band))
    doc = dataclasses.asdict(report)
    _write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", args.out)
    return EXIT_OK


class ArgParser(argparse.ArgumentParser):
    """An argument parser that raises ValueError with its message where
    argparse prints its usage and exits 2 (a bad option value, an unknown
    option, a missing argument), so that run_refusing reports it in one
    line with exit 1; --help still prints and exits 0."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = ArgParser(
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
    pv.add_argument("--seed", type=_integer, default=0)
    pv.add_argument("--samples", type=_integer, default=200_000,
                    help="ignored; gibbs rows are closed form")
    pv.add_argument("--steps", type=_integer, default=8,
                    help="Gibbs sweeps to track")
    pv.add_argument("--trials", type=_integer, default=None,
                    help="random instances for closed-form checks")
    pv.add_argument("--out", default=None, help="write the CSV table here")

    pt = sub.add_parser("toeplitz", help="banded coupling spectrum report")
    pt.add_argument("--m", type=_integer, required=True,
                    help="finite section size")
    pt.add_argument("--diag", default="0",
                    help="diagonal coefficient, a decimal number")
    pt.add_argument("--band", required=True,
                    help="offset=coeff pairs, e.g. '1=1,2=-1'")
    pt.add_argument("--out", default=None, help="write the JSON report here")
    return parser


# Built once, at import: parse_args keeps no state between calls, so each
# in-process call of main reuses it.
PARSER = build_parser()


def run_refusing(command, args) -> int:
    """command(args), with a refusal printed as its one stderr line and
    returned as its exit code; scripts/entropy_flow.py shares it."""
    try:
        return command(args)
    except ModelError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except CertificateError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_NO_CERTIFICATE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _command(argv) -> int:
    args = PARSER.parse_args(argv)
    return {"criteria": cmd_criteria, "verify": cmd_verify,
            "toeplitz": cmd_toeplitz}[args.command](args)


def main(argv=None) -> int:
    try:
        return run_refusing(_command, argv)
    except SystemExit as exc:  # --help, once its text is printed
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
