"""Divergence decay of the weighted block Gibbs sampler.

Tracks the exact mixture law of the sampler started from a shifted
Gaussian and compares U_m, the weighted sum of its components' closed-form
divergences (an upper bound on the mixture's divergence), against the
geometric bound (1 - rho/R)^m D(p0||q) from the certified constant.
Exits 4, as `lsicert verify` does, when the bound fails at some step, and
refuses a model `lsicert verify` refuses with its stderr line and exit
code.

Usage: python scripts/contraction_demo.py [model.json] [--steps 8]
"""

import argparse
import sys

from lsicert.cli import (EXIT_OK, EXIT_VERIFY_FAILED, certified_constants,
                         run_refusing)
from lsicert.gaussian import GaussianDist, gaussian_target, kl
from lsicert.gibbs import verify_contraction
from lsicert.instances import model_2d
from lsicert.model import load_model


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("model", nargs="?", default=None,
                    help="model JSON (default: built-in 2d reference)")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--shift", type=float, default=2.0,
                    help="initial mean offset on every coordinate")
    return run_refusing(demo, ap.parse_args())


def demo(args) -> int:
    model = load_model(args.model) if args.model else model_2d()
    rho_k, rho = certified_constants(model)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + args.shift, q.cov)

    total = float(rho_k.sum())
    print(f"certified rho = {rho:.6f}, R = {total:.6f}, "
          f"per-sweep factor = {1 - rho / total:.6f}")
    print(f"D(p0||q) = {kl(p0, q):.6f}")
    print()

    rows = verify_contraction(p0, model, rho_k, rho, steps=args.steps)
    print(f"{'param':<20} {'U_m (closed form)':>18} {'bound':>12} "
          f"{'verdict':>7}")
    for r in rows:
        print(f"{r.param:<20} {r.value:>18.6f} {r.bound:>12.6f} "
              f"{'pass' if r.holds else 'FAIL':>7}")
    print()
    passed = all(r.holds for r in rows)
    print("bound respected at every step" if passed
          else "BOUND VIOLATED at some step")
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
