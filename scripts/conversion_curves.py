"""Print the three delta(eps) bounds side by side for one budget.

Usage: python scripts/conversion_curves.py [--rho 0.5] [--points 15]
"""

import argparse
import math

from cdpacct import ZcdpParams, delta_exact_gaussian, delta_of_eps, zcdp_to_dp_refined


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rho", type=float, default=0.5)
    ap.add_argument("--points", type=int, default=15)
    args = ap.parse_args()

    params = ZcdpParams(0.0, args.rho)
    lo, hi = args.rho, args.rho + 6.0 * math.sqrt(args.rho)
    print(f"budget rho={args.rho}  (eps from {lo:.3f} to {hi:.3f})")
    print(f"{'eps':>8}  {'simple':>12}  {'refined':>12}  {'exact':>12}")
    for i in range(args.points):
        eps = lo + (hi - lo) * i / (args.points - 1)
        simple = delta_of_eps(params, eps, "simple")
        refined = zcdp_to_dp_refined(params, eps)
        exact = delta_exact_gaussian(args.rho, eps)
        print(f"{eps:8.3f}  {simple:12.4e}  {refined:12.4e}  {exact:12.4e}")


if __name__ == "__main__":
    main()
