"""The integer kernels equal the plain `GaussianRational` arithmetic.

`spectral._sparse_matvec` accumulates a row over integers and reduces once;
`scalar.sub_mul` forms x - f*y with one gcd.  Both must give the canonical
triple (a, b, d) that the per-operation arithmetic gives.  The adjoint
`RestrictionMatrix.gram_adjoint` builds each entry conj(a) beta!/alpha! with
one gcd; it must equal the same entry formed with `Fraction`s.  `restrict`
builds Q|_r from the integer images of `OperatorExpr._delta_image` and
still refuses an image outside the codomain.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from onshell.cli import main
from onshell.deltaspace import Polynomial, mi_factorial
from onshell.opalg import EssentialOrder, OperatorExpr, reflection
from onshell.scalar import GaussianRational, ONE, ZERO, I, sub_mul
from onshell.spectral import RestrictionMatrix, _sparse_matvec, restrict

from conftest import scalars
from test_delta_action import operators_with_pullbacks


def triple(z: GaussianRational) -> tuple:
    return z.a, z.b, z.d


def shared_denominator_scalars():
    """Both parts over one of a few denominators, so equal denominators,
    real entries and zero are all common."""
    return st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
                     st.integers(-6, 6), st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))


def entries():
    return st.one_of(st.just(ZERO), shared_denominator_scalars(), scalars())


@st.composite
def rows_and_vector(draw):
    ncols = draw(st.integers(1, 6))
    nonzero = entries().filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), nonzero, max_size=ncols).map(
        lambda d: tuple(sorted(d.items())))
    rows = draw(st.lists(row, max_size=5))
    vec = draw(st.one_of(st.just([ZERO] * ncols),
                         st.lists(entries(), min_size=ncols, max_size=ncols)))
    return rows, vec


def plain_matvec(rows, vec: list) -> list:
    return [sum((a * vec[j] for j, a in row), ZERO) for row in rows]


@given(rows_and_vector())
@example(([(), ((0, I),)], [ZERO, ONE]))  # an empty row
@example(([((0, ONE), (1, GaussianRational(Fraction(1, 2))))], [ZERO, ZERO]))  # all zero
@example(([((0, GaussianRational(Fraction(1, 3), 2)), (1, GaussianRational(Fraction(1, 2))))],
          [GaussianRational(Fraction(3, 4)), GaussianRational(0, Fraction(1, 6))]))
def test_sparse_matvec_equals_the_plain_row_sums(case):
    rows, vec = case
    got = _sparse_matvec(rows, vec)
    assert [triple(z) for z in got] == [triple(z) for z in plain_matvec(rows, vec)]


@given(entries(), entries(), entries())
@example(ZERO, ONE, ZERO)
@example(GaussianRational(Fraction(1, 6)), GaussianRational(Fraction(1, 2)),
         GaussianRational(Fraction(1, 3)))  # the difference cancels to zero
def test_sub_mul_equals_minus_times(x, f, y):
    assert triple(sub_mul(x, f, y)) == triple(x - f * y)


# -- the adjoint ------------------------------------------------------------------

def fraction_adjoint(m: RestrictionMatrix) -> list:
    """The dense rows of M*, entry (i, j) = conj(M[j][i]) beta_j!/alpha_i!, as
    (re, im) pairs of `Fraction`s."""
    dense = m.entries
    out = []
    for i, alpha in enumerate(m.domain_basis):
        row = []
        for j, beta in enumerate(m.codomain_basis):
            x, w = dense[j][i], Fraction(mi_factorial(beta), mi_factorial(alpha))
            row.append((x.re * w, -x.im * w))
        out.append(row)
    return out


def check_adjoint(m: RestrictionMatrix):
    # a fresh matrix with the same rows, so the adjoint is built here
    adj = RestrictionMatrix(m.n, m.r_domain, m.r_codomain, m.sparse_rows).gram_adjoint()
    assert (adj.r_domain, adj.r_codomain) == (m.r_codomain, m.r_domain)
    assert [[triple(z) for z in row] for row in adj.entries] == [
        [triple(GaussianRational(re, im)) for re, im in row] for row in fraction_adjoint(m)]


def _x1(n):
    return OperatorExpr.multiplication(Polynomial.coordinate(n, 0))


def _d(n, i, e=1):
    return OperatorExpr.derivative(n, tuple(e if j == i else 0 for j in range(n)))


# complex coefficients, q > 0 (non-square matrices) and pullbacks, by name
ADJOINT_CASES = {
    "complex_q2": (_d(2, 0, 2).scale(GaussianRational(Fraction(1, 3), -2))
                   + (_x1(2) @ _d(2, 1)).scale(I), 1),
    "shear_q1": (reflection(((2, 1), (0, 3))) @ _d(2, 0).scale(GaussianRational(1, Fraction(1, 2)))
                 + OperatorExpr.identity(2), 2),
    "parity_q1_n3": ((_x1(3) @ _d(3, 2, 2)).scale(GaussianRational(Fraction(-1, 2), 3))
                     @ reflection(((-1, 0, 0), (0, -1, 0), (0, 0, -1))), 1),
}


@pytest.mark.parametrize("name", ADJOINT_CASES)
def test_gram_adjoint_is_the_weighted_conjugate_transpose(name):
    q, r = ADJOINT_CASES[name]
    m = restrict(q, r)
    assert m.r_codomain > m.r_domain and not m.is_square()
    assert any(z.b for row in m.sparse_rows for _, z in row)
    assert any(pb is not None for _, _, pb in q.terms) == (name != "complex_q2")
    check_adjoint(m)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gram_adjoint_matches_fractions_on_operators_with_pullbacks(data):
    q = data.draw(operators_with_pullbacks())
    check_adjoint(restrict(q, data.draw(st.integers(0, 2))))


# -- the codomain check of restrict --------------------------------------------------

def test_an_image_outside_the_codomain_is_refused(monkeypatch, capsys):
    # essential_order under-reports q, so d1's column images leave the codomain
    monkeypatch.setattr(OperatorExpr, "essential_order", lambda q: EssentialOrder(0))
    restrict.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^a column image exceeds the codomain degree$"):
            restrict(_d(1, 0), 1)
        code = main(["restrict", "--dim", "1", "--op", "d1", "--degree", "1"])
    finally:
        restrict.cache_clear()
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "onshell: contract violated: a column image exceeds the codomain degree\n"
