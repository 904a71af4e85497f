"""Entropy flow of the Langevin diffusion toward a block Gibbs target.

Evaluates divergence and Fisher information in closed form along the
flow, checks the dissipation identity dD/dt = -I and the exponential
decay bound exp(-2 rho t) D0 under the certified constant, and
cross-checks with an Euler-Maruyama particle cloud.  Exits 4, as
`lsicert verify` does, when any printed check fails, and refuses a model
`lsicert verify` refuses with its stderr line and exit code.  Arguments
are read as `lsicert` reads its own: --nodes, --particles and --seed as
decimal integers, --horizon as a finite decimal literal, so `5_001`,
`1_0`, `1e999` or an unknown option is refused with exit 1 and one
stderr line, as is a grid or particle cloud over the budgets of
`lsicert.model.charge`.  Every check runs before the first line is
printed, so a refused run prints nothing to stdout.

Usage: python scripts/entropy_flow.py [model.json] [--csv out.csv]
"""

import sys

import numpy as np

from lsicert.cli import (EXIT_OK, EXIT_VERIFY_FAILED, ArgParser, _decimal,
                         _integer, certified_constants, run_refusing)
from lsicert.fokker_planck import (
    EntropyTrace,
    curvature_bound,
    dissipation_check,
    langevin_particles,
)
from lsicert.gaussian import GaussianDist, gaussian_target
from lsicert.instances import model_2d
from lsicert.model import charge, load_model


def write_entropy_csv(trace: EntropyTrace, path) -> None:
    """Dump a trace as CSV with columns t, kl, fisher, bound."""
    with open(path, "w") as fh:
        fh.write("t,kl,fisher,bound\n")
        bounds = trace.lsi_bound if trace.lsi_bound is not None \
            else [None] * trace.times.size
        for t, d, i, b in zip(trace.times, trace.kl_values,
                              trace.fisher_values, bounds):
            tail = "" if b is None else repr(float(b))
            fh.write(f"{float(t)!r},{float(d)!r},{float(i)!r},{tail}\n")


def main():
    ap = ArgParser(description=__doc__.split("\n")[0])
    ap.add_argument("model", nargs="?", default=None,
                    help="model JSON (default: built-in 2d reference)")
    ap.add_argument("--horizon", default="5",
                    help="end of the time grid, a decimal number")
    ap.add_argument("--nodes", type=_integer, default=5001)
    ap.add_argument("--csv", default=None, help="dump the trace here")
    ap.add_argument("--particles", type=_integer, default=20_000)
    ap.add_argument("--seed", type=_integer, default=7)
    return run_refusing(lambda argv: flow(ap.parse_args(argv)), sys.argv[1:])


def flow(args) -> int:
    horizon = _decimal(args.horizon)
    if not np.isfinite(horizon):
        raise ValueError(f"--horizon must be finite, got {args.horizon!r}")
    model = load_model(args.model) if args.model else model_2d()
    _, rho = certified_constants(model)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + 2.0, q.cov)
    charge(f"a grid of {args.nodes} nodes", 8 * args.nodes)
    times = np.linspace(0.0, horizon, args.nodes)
    trace, checks = dissipation_check(p0, model, times, rho=rho)
    dt = 0.05 / curvature_bound(model, p0)
    steps = max(1, int(round(1.0 / dt)))
    sim = langevin_particles(model, p0, dt=dt, steps=steps,
                             n=args.particles, seed=args.seed,
                             checkpoints=[steps])
    cp = sim.checkpoints[-1]

    print(f"certified rho = {rho:.6f}")
    print(f"D(p0||q) = {trace.kl_values[0]:.6f}, "
          f"D(p_T||q) = {trace.kl_values[-1]:.3e} at T = {horizon}")
    for c in checks:
        print(f"{c.param} {c.value:.3e} (bound {c.bound:.3e}, tolerance "
              f"{c.tolerance:.3e}) -> {'ok' if c.holds else 'FAIL'}")
    print(f"particle cloud at t = {cp.t:.3f}: "
          f"moments within bands -> "
          f"{'ok' if cp.within_bands else 'FAIL'}")

    if args.csv:
        write_entropy_csv(trace, args.csv)
        print(f"trace written to {args.csv}")
    passed = cp.within_bands and all(c.holds for c in checks)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
