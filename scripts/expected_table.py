"""Resolution probabilities and expected distances over uniform tree space.

Prints, for each n, the number of trees, the exact probability that a fixed
triplet (rooted) or quartet (unrooted) is resolved and the expected
parametric distance at the given p (both rounded for display), and the ratio
of the exact unresolved probability to its asymptotic value.

Usage: python scripts/expected_table.py [--max-n 40] [--p 1/2] [--unrooted]
"""

import argparse
from decimal import Decimal
from fractions import Fraction

from polydist.expected import (
    asymptotic_unresolved,
    exact_resolution_probability,
    expected_distance_formula,
)
from polydist.trees import Kind


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=40)
    ap.add_argument("--p", default="1/2")
    ap.add_argument("--unrooted", action="store_true")
    args = ap.parse_args()
    p = Fraction(args.p)
    if not 0 <= p <= 1:
        ap.error(f"--p must lie in [0, 1], got {p}")
    kind = Kind.UNROOTED if args.unrooted else Kind.ROOTED
    start = 3 if kind is Kind.ROOTED else 4
    print(f"{'n':>3} {'trees':>12} {'r':>12} {'E[d^p]':>14} {'u/u_asymptotic':>15}")
    for n in range(start, args.max_n + 1):
        stats = exact_resolution_probability(n, kind)
        exp = expected_distance_formula(n, p, kind)
        print(f"{n:>3} {Decimal(stats.trees_total):>12.5g} {float(stats.r):>12.10f} "
              f"{float(exp):>14.8g} {float(stats.u) / asymptotic_unresolved(n):>15.6f}")


if __name__ == "__main__":
    main()
