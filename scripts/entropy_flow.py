"""Entropy flow of the Langevin diffusion toward a block Gibbs target.

Evaluates divergence and Fisher information in closed form along the
flow, checks the dissipation identity dD/dt = -I and the exponential
decay bound exp(-2 rho t) D0 under the certified constant, and
cross-checks with an Euler-Maruyama particle cloud.  Exits 4, as
`lsicert verify` does, when any printed check fails.

Usage: python scripts/entropy_flow.py [model.json] [--csv out.csv]
"""

import argparse
import sys

import numpy as np

from lsicert.cli import EXIT_OK, EXIT_VERIFY_FAILED
from lsicert.criteria import criteria_report
from lsicert.fokker_planck import (
    curvature_bound,
    dissipation_check,
    langevin_particles,
    write_entropy_csv,
)
from lsicert.gaussian import GaussianDist, gaussian_target
from lsicert.instances import model_2d
from lsicert.model import load_model


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("model", nargs="?", default=None,
                    help="model JSON (default: built-in 2d reference)")
    ap.add_argument("--horizon", type=float, default=5.0)
    ap.add_argument("--nodes", type=int, default=5001)
    ap.add_argument("--csv", default=None, help="dump the trace here")
    ap.add_argument("--particles", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    model = load_model(args.model) if args.model else model_2d()
    report = criteria_report(model)
    rho = report.rho_marton
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + 2.0, q.cov)
    times = np.linspace(0.0, args.horizon, args.nodes)

    trace, checks = dissipation_check(p0, model, times, rho=rho)
    print(f"certified rho = {rho:.6f}")
    print(f"D(p0||q) = {trace.kl_values[0]:.6f}, "
          f"D(p_T||q) = {trace.kl_values[-1]:.3e} at T = {args.horizon}")

    for c in checks:
        print(f"{c.param} {c.value:.3e} (bound {c.bound:.3e}, tolerance "
              f"{c.tolerance:.3e}) -> {'ok' if c.holds else 'FAIL'}")

    lam = curvature_bound(model, p0)
    dt = 0.05 / lam
    steps = max(1, int(round(1.0 / dt)))
    sim = langevin_particles(model, p0, dt=dt, steps=steps,
                             n=args.particles, seed=args.seed,
                             checkpoints=[steps])
    cp = sim.checkpoints[-1]
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
