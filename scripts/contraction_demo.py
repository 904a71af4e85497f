"""Divergence decay of the weighted block Gibbs sampler.

Tracks the exact mixture law of the sampler started from a shifted
Gaussian and compares Monte Carlo divergence estimates against the
geometric bound (1 - rho/R)^m D(p0||q) from the certified constant.

Usage: python scripts/contraction_demo.py [model.json] [--steps 8]
"""

import argparse

from lsicert.criteria import criteria_report
from lsicert.gaussian import GaussianDist, gaussian_target, kl
from lsicert.gibbs import verify_contraction
from lsicert.instances import model_2d
from lsicert.model import load_model


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("model", nargs="?", default=None,
                    help="model JSON (default: built-in 2d reference)")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--shift", type=float, default=2.0,
                    help="initial mean offset on every coordinate")
    args = ap.parse_args()

    model = load_model(args.model) if args.model else model_2d()
    report = criteria_report(model)
    q = gaussian_target(model)
    p0 = GaussianDist(q.mean + args.shift, q.cov)

    rho = report.rho_marton
    total = sum(report.rho_k)
    print(f"certified rho = {rho:.6f}, R = {total:.6f}, "
          f"per-sweep factor = {1 - rho / total:.6f}")
    print(f"D(p0||q) = {kl(p0, q):.6f}")
    print()

    rows = verify_contraction(p0, model, report, steps=args.steps,
                              nsamples=args.samples, seed=args.seed)
    header = (f"{'m':>3} {'estimate':>12} {'3*SE':>10} {'bound':>12} "
              f"{'margin':>10} {'law':>6}")
    print(header)
    print("-" * len(header))
    for r in rows:
        margin = r.bound - (r.kl_estimate - 3.0 * r.std_error)
        law = "exact" if r.exact_law else "approx"
        print(f"{r.step:>3} {r.kl_estimate:>12.6f} {3 * r.std_error:>10.6f} "
              f"{r.bound:>12.6f} {margin:>10.6f} {law:>6}")
    ok = all(r.within_bound for r in rows)
    print()
    print("bound respected at every step" if ok
          else "BOUND VIOLATED at some step")


if __name__ == "__main__":
    main()
