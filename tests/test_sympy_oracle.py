"""An outside oracle for the operator algebra: sympy's own derivatives.

Each operator's action on polynomials is rebuilt in sympy from its
normal-form terms a(x) d^gamma P_L as f -> a * diff(f(L x), gamma), on
sympy polynomials over Q(i), with sympy's derivative (`Poly.diff`) and
f(L x) expanded by sympy's polynomial products, so it shares no code with
`opalg`'s composition or Leibniz rule.  For seeded operator pairs and
polynomials f, `commutator(q1, q2).apply_poly(f)` must equal
Q1(Q2 f) - Q2(Q1 f) and `(q1 @ q2).apply_poly(f)` must equal Q1(Q2 f).
sympy is a test dependency only; the runtime imports the standard library
alone (`tests/test_imports.py`).
"""

import random
from fractions import Fraction
from math import prod

import pytest

sympy = pytest.importorskip("sympy")

from onshell.deltaspace import Polynomial, enumerate_multi_indices
from onshell.opalg import (
    OperatorExpr,
    casimir,
    commutator,
    dalembert,
    euler,
    lorentz_generator,
    parity,
    reflection,
)

from conftest import random_poly_coeff_operator, random_scalar

SEEDS = range(8)


def _symbols(n):
    return sympy.symbols(f"x1:{n + 1}")


def _number(c):
    return sympy.Rational(c.re.numerator, c.re.denominator) + \
        sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)


def _poly(p: Polynomial, xs):
    """p as a sympy polynomial over Q(i)."""
    return sympy.Poly.from_dict({beta: _number(c) for beta, c in p.coeffs.items()},
                                *xs, domain=sympy.QQ_I)


def _substitute(f, images, xs):
    """f(L x), from the images sum_j L_ij x_j of the coordinates."""
    out = sympy.Poly(0, *xs, domain=sympy.QQ_I)
    for beta, c in f.terms():
        term = sympy.Poly(c, *xs, domain=sympy.QQ_I)
        for image, e in zip(images, beta):
            term *= image ** e
        out += term
    return out


def _action(q: OperatorExpr, xs):
    """f -> Q f on sympy polynomials, term by term from the normal form."""
    images = {pb: [sympy.Poly(sum(sympy.Rational(a.numerator, a.denominator) * y
                                  for a, y in zip(row, xs)), *xs, domain=sympy.QQ_I)
                   for row in pb]
              for _, _, pb in q.terms if pb is not None}
    terms = [(_poly(coeff, xs), pb, [(x, k) for x, k in zip(xs, gamma) if k])
             for coeff, gamma, pb in q.terms]

    def act(f):
        pulled = {pb: _substitute(f, image, xs) for pb, image in images.items()}
        out = sympy.Poly(0, *xs, domain=sympy.QQ_I)
        for a, pb, orders in terms:
            g = f if pb is None else pulled[pb]
            out += a * (g.diff(*orders) if orders else g)
        return out
    return act


def _random_reflection(rng, n):
    """A rational matrix with a nonzero determinant."""
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        if sympy.Matrix(m).det() != 0:
            return reflection(m)


def _operator(rng, n):
    kind = rng.randrange(6)
    if kind == 0:
        return casimir(n)
    if kind == 1:
        return euler(n, Fraction(rng.randint(-5, 1), rng.randint(1, 2))) ** rng.randint(1, 2)
    if kind == 2:
        return dalembert(n, Fraction(rng.randint(0, 3), 2)) + \
            (lorentz_generator(n, 0, n - 1) if n > 1 else OperatorExpr.zero(n))
    op = random_poly_coeff_operator(rng, n)
    if kind == 4:
        return op @ (parity(n) if rng.random() < 0.5 else _random_reflection(rng, n))
    if kind == 5:
        return _random_reflection(rng, n) @ op
    return op


def _polynomial(rng, n):
    return Polynomial(n, {beta: random_scalar(rng) for beta in
                          rng.sample(enumerate_multi_indices(n, 3), 3)})


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("seed", SEEDS)
def test_commutator_and_product_against_sympy(n, seed):
    rng = random.Random(1000 * n + seed)
    xs = _symbols(n)
    q1, q2 = _operator(rng, n), _operator(rng, n)
    a1, a2 = _action(q1, xs), _action(q2, xs)
    comm = commutator(q1, q2)
    prod12 = q1 @ q2
    for _ in range(2):
        f = _polynomial(rng, n)
        fs = _poly(f, xs)
        q12 = a1(a2(fs))
        assert _poly(prod12.apply_poly(f), xs) == q12
        assert _poly(comm.apply_poly(f), xs) == q12 - a2(a1(fs))


def test_the_oracle_sees_a_pullback():
    # P d1 f = f'(-x) and d1 P f = -f'(-x): [P, d1] x1^2 = -4 x1
    xs = _symbols(1)
    f = Polynomial.monomial(1, (2,))
    p, d1 = parity(1), OperatorExpr.derivative(1, (1,))
    assert _poly(commutator(p, d1).apply_poly(f), xs).as_expr() == -4 * xs[0]
    assert _action(p, xs)(_action(d1, xs)(_poly(f, xs))).as_expr() == -2 * xs[0]
