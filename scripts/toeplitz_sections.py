"""Finite-section spectra of a banded coupling vs its symbol.

For the alternating band {1: 1, 2: -1} the largest eigenvalue of the
m x m section converges to the largest symbol value 2.25, while the
operator norm converges to sup|symbol| = 4: quoting the former as a
coupling bound understates the norm by almost a factor of two.

Usage: python scripts/toeplitz_sections.py [--diag D] [--band '1=1,2=-1']
"""

import argparse

from lsicert.cli import parse_band
from lsicert.criteria import toeplitz_spectrum_report


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--diag", type=float, default=0.0)
    ap.add_argument("--band", default="1=1,2=-1")
    ap.add_argument("--sizes", default="8,16,32,64,128,256,512")
    args = ap.parse_args()

    band = parse_band(args.band)
    sizes = [int(s) for s in args.sizes.split(",")]

    header = f"{'m':>5} {'lam_min':>12} {'lam_max':>12} {'op_norm':>12}"
    print(header)
    print("-" * len(header))
    rep = None
    for m in sizes:
        rep = toeplitz_spectrum_report(m, args.diag, band)
        print(f"{m:>5} {rep.lambda_min_bm:>12.6f} {rep.lambda_max_bm:>12.6f} "
              f"{rep.svd_norm_bm:>12.6f}")
    print()
    print(f"symbol range      [{rep.min_symbol:.6f}, {rep.max_symbol:.6f}]")
    print(f"sup|symbol|       {rep.sup_abs_symbol:.6f}")
    print(f"abs-band lam_max  {rep.abs_lambda_max_bm:.6f} "
          f"(limit {rep.abs_max_symbol:.6f})")
    if rep.note:
        print()
        print(rep.note)


if __name__ == "__main__":
    main()
