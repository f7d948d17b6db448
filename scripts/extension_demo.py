#!/usr/bin/env python3
"""Walk through the three headline extension scenarios.

1. Homogeneous distributions: the uniqueness window of the Euler operator.
2. The 1/|x| model on the line: no extension stays an exact solution, but a
   single order raising restores the equation up to one logarithmic power.
3. Lorentz invariance via the quadratic Casimir in two dimensions.
"""

import random
import sys
from fractions import Fraction

sys.path.insert(0, "src")

from onshell.scalar import GaussianRational
from onshell.deltaspace import DeltaVector, enumerate_multi_indices
from onshell.opalg import euler
from onshell.spectral import restrict
from onshell.extension import (
    ExtensionRecord,
    apply_counterterm,
    casimir_correction,
    existence_check,
    homogeneous_extension_unique,
    lorentz_casimir_setup,
    order_raising_correction,
    verify_casimir_hypotheses,
)


def homogeneity_window():
    print("== uniqueness of homogeneous extensions (degree a, dimension n) ==")
    for n in (1, 2, 3, 4):
        row = []
        for a in range(-8, 1):
            rep = homogeneous_extension_unique(n, Fraction(a), 4)
            row.append("." if rep.unique else f"x@{rep.kernel_levels[0]}")
        print(f"  n={n}: " + "  ".join(f"a={a}:{s}" for a, s in zip(range(-8, 1), row)))
    print()


def inverse_modulus_model():
    print("== the 1/|x| model: R = x d + 1 on the line, residue c delta ==")
    r_op = euler(1, Fraction(-1))
    c = GaussianRational(0, -1)
    rec = ExtensionRecord(1, 0, {r_op: DeltaVector.basis(1, (0,)).scale(c)})
    rep = existence_check(rec, r_op)
    print(f"  on-shell extension exists: {rep.exists}")
    print(f"  obstruction witness: {rep.certificate}")
    v = order_raising_correction(rec, r_op, 1)
    raised = r_op.apply_delta(rec.residue(r_op) + restrict(r_op, 0).matvec(v))
    print(f"  after order raising, R^2-residue: {raised} (counterterm {v})")
    print()


def casimir_pipeline():
    print("== Lorentz invariance via the quadratic Casimir, n = 2, metric (+,-) ==")
    rng = random.Random(0)
    c_op, gens, expr = lorentz_casimir_setup(2)  # the default metric, (+,-)
    boost = gens[0]
    for r in (1, 2):
        rep = verify_casimir_hypotheses(c_op, gens, r, expr)
        print(f"  r={r}: hypotheses pass = {rep.passed}")
        coeffs = {a: GaussianRational(rng.randint(-3, 3), 0)
                  for a in enumerate_multi_indices(2, r)}
        w0 = DeltaVector(2, coeffs)
        rec = ExtensionRecord.from_ambiguity(2, r, [c_op, boost], w0)
        print(f"     boost residue before: {rec.residue(boost)}")
        v = casimir_correction(rec, c_op, gens, expr)
        after = apply_counterterm(rec, v)
        print(f"     boost residue after:  {after.residue(boost)}")
    print()


if __name__ == "__main__":
    homogeneity_window()
    inverse_modulus_model()
    casimir_pipeline()
