#!/usr/bin/env python3
"""Print the on-shell replacement table for derivative monomials.

For every derivative monomial up to a chosen order, lists chi(S) computed by
the spectral route, the explicit-formula value, and the delta counterterm
added to S applied to the fundamental solution (normalization Qv = c delta
with c = -i).

Usage: python3 scripts/chi_table.py [--k-max 4] [--m2 0] [--metric +---]
"""

import argparse
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

sys.path.insert(0, "src")

from onshell.scalar import GaussianRational
from onshell.chi import (
    ConstCoeffOperator,
    FeynmanConfig,
    chi_explicit,
    chi_projection,
)
from onshell.cli import _parse_metric


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--m2", default="0")
    ap.add_argument("--metric", default=None)
    args = ap.parse_args()
    if args.k_max < 0:  # no line to compare: refused, not passed
        ap.error(f"--k-max {args.k_max} is negative")

    try:
        config = FeynmanConfig(args.dim, _parse_metric(args.metric, args.dim), Fraction(args.m2))
    except (ValueError, ZeroDivisionError) as exc:  # a bad metric, dimension or mass
        ap.error(str(exc))
    c = GaussianRational(0, -1)

    print(f"# n = {args.dim}, metric = {config.signature}, m^2 = {args.m2}, c = -i")
    print(f"# {'S':24} {'chi(S)':58} counterterm")
    mismatches = 0
    for k in range(args.k_max + 1):
        for idx in combinations_with_replacement(range(args.dim), k):
            s_op = ConstCoeffOperator.monomial(config, idx)
            res = chi_projection(s_op, c, config)
            expl = chi_explicit(idx, args.dim, config.m2, config.signature)
            if res.chi.coeffs != expl.coeffs:
                mismatches += 1
            ct = res.chi1.apply_to_delta().scale(c)
            mark = "" if res.chi.coeffs == expl.coeffs else "  << ROUTES DISAGREE"
            print(f"{str(s_op):26} {str(res.chi):58} {ct}{mark}")
    if mismatches:
        print(f"\n{mismatches} disagreements between the two routes", file=sys.stderr)
        return 1
    print("\n# both routes agree on every line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
