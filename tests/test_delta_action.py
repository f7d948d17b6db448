"""The compiled delta action and the zero-skipping elimination against the
generic routes they replaced.

`OperatorExpr.apply_delta` compiles each operator once and maps every
pullback through per-degree tables (`opalg._pullback_degree`); the oracle
here is the term-by-term route: one delta vector per term, summed, with
P_L v reconstructed from the pairings <P_L v, x^a> = |det L|^(-1)
<v, x^a o L^(-1)>.  `spectral._rref` touches only the nonzero columns of
each pivot row; the oracle is the dense elimination of `test_block_route`.
Both must agree exactly, entry for entry.  `opalg.mat_inv_det` runs on the
same row reduction; its inverse is checked by L L^(-1) = 1 and its signed
determinant against the Leibniz expansion.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

import onshell.opalg as opalg
from onshell.scalar import GaussianRational, ZERO
from onshell.deltaspace import (
    DeltaVector,
    Polynomial,
    enumerate_multi_indices,
    mi_add,
    mi_factorial,
    mi_order,
    mi_sub,
    pair,
)
from onshell.opalg import OperatorExpr, mat_inv_det, reflection
from onshell.spectral import _rref, restrict

from conftest import small_fractions
from test_block_route import _dense_rref


# -- the generic route ----------------------------------------------------------

def _generic_pullback(v: DeltaVector, pb) -> DeltaVector:
    if v.is_zero():
        return v
    n = v.n
    inv, det = mat_inv_det(pb)
    out = {}
    for alpha in enumerate_multi_indices(n, int(v.degree())):
        val = pair(v, Polynomial.monomial(n, alpha).substitute_linear(inv))
        sign = -1 if mi_order(alpha) % 2 else 1
        out[alpha] = val * GaussianRational(Fraction(sign, mi_factorial(alpha)) / abs(det))
    return DeltaVector(n, out)


def _generic_apply_delta(q: OperatorExpr, v: DeltaVector) -> DeltaVector:
    total = DeltaVector.zero(q.n)
    for coeff, gamma, pb in q.terms:
        w = v if pb is None else _generic_pullback(v, pb)
        acc = {}
        for beta, cb in coeff.coeffs.items():
            sign = -1 if mi_order(beta) % 2 else 1
            for alpha, c in w.coeffs.items():
                s = mi_add(alpha, gamma)
                tgt = mi_sub(s, beta)
                if tgt is not None:
                    fac = GaussianRational(Fraction(sign * mi_factorial(s), mi_factorial(tgt)))
                    acc[tgt] = acc.get(tgt, ZERO) + c * cb * fac
        total = total + DeltaVector(q.n, acc)
    return total


# -- inputs -----------------------------------------------------------------------

def _scalars():
    return st.builds(GaussianRational, small_fractions(), small_fractions())


@st.composite
def _invertible(draw, n):
    """A rational n x n matrix with nonzero determinant, often non-diagonal
    and with |det| != 1."""
    entries = st.sampled_from((0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))
    rows = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    m = opalg.mat_from(rows)
    try:
        mat_inv_det(m)
    except opalg.SingularMatrixError:
        assume(False)
    return m


@st.composite
def _term_operator(draw, n):
    """a(x) d^gamma with a complex polynomial a, |gamma| <= 2, deg a <= 2."""
    coeff = draw(st.dictionaries(st.sampled_from(enumerate_multi_indices(n, 2)), _scalars(),
                                 min_size=1, max_size=3))
    gamma = draw(st.sampled_from(enumerate_multi_indices(n, 2)))
    return OperatorExpr._normalized(n, ((Polynomial(n, coeff), gamma, None),))


@st.composite
def operators_with_pullbacks(draw):
    """Sums of differential terms composed with rational pullbacks on
    either side, n <= 3."""
    n = draw(st.integers(1, 3))
    total = OperatorExpr.zero(n)
    for _ in range(draw(st.integers(1, 3))):
        piece = draw(_term_operator(n))
        shape = draw(st.sampled_from(("plain", "left", "right", "both")))
        if shape in ("left", "both"):
            piece = reflection(draw(_invertible(n))) @ piece
        if shape in ("right", "both"):
            piece = piece @ reflection(draw(_invertible(n)))
        total = total + piece
    assume(not total.is_zero())
    return total


@st.composite
def mixed_degree_vectors(draw, n, max_order=3):
    coeffs = draw(st.dictionaries(st.sampled_from(enumerate_multi_indices(n, max_order)),
                                  _scalars(), max_size=6))
    return DeltaVector(n, coeffs)


# -- the compiled action ---------------------------------------------------------------

class TestCompiledDeltaAction:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_apply_delta_matches_the_generic_route(self, data):
        q = data.draw(operators_with_pullbacks())
        v = data.draw(mixed_degree_vectors(q.n))
        assert q.apply_delta(v) == _generic_apply_delta(q, v)
        # a second call runs the compiled action and the filled tables again
        assert q.apply_delta(v) == _generic_apply_delta(q, v)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_restrict_matches_the_generic_route(self, data):
        q = data.draw(operators_with_pullbacks())
        r = data.draw(st.integers(0, 3 if q.n < 3 else 2))
        m = restrict(q, r)
        entries = m.entries
        for j, alpha in enumerate(m.domain_basis):
            col = _generic_apply_delta(q, DeltaVector.basis(q.n, alpha))
            assert col.degree() <= m.r_codomain
            assert [row[j] for row in entries] == [col.get(b) for b in m.codomain_basis]

    def test_pullback_images_are_computed_once_per_matrix_and_degree(self, monkeypatch):
        shear = ((2, 1), (0, 3))
        q = reflection(shear) @ OperatorExpr.derivative(2, (1, 0))
        other = reflection(shear) + OperatorExpr.identity(2)
        calls = []
        original = Polynomial.substitute_linear
        monkeypatch.setattr(Polynomial, "substitute_linear",
                            lambda f, mat: calls.append(f) or original(f, mat))
        opalg._pullback_degree.cache_clear()
        restrict(q, 3)
        # the pullback acts first, on the basis of degree <= 3: one
        # x^a o L^(-1) per a with |a| <= 3
        assert len(calls) == len(enumerate_multi_indices(2, 3))
        calls.clear()
        restrict(q, 3)
        restrict(other, 2)  # another operator with the same L
        assert calls == []


# -- the zero-skipping elimination ---------------------------------------------------

@st.composite
def sparse_deficient_matrices(draw):
    """Sparse Gaussian-rational matrices, rank-deficient through repeated
    combinations of rows, with zero rows and zero columns inserted."""
    nr = draw(st.integers(0, 6))
    nc = draw(st.integers(1, 7))
    sparse_entry = st.one_of(st.just(ZERO), st.just(ZERO), _scalars())
    rows = [[draw(sparse_entry) for _ in range(nc)] for _ in range(nr)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, nr - 1)), draw(st.integers(0, nr - 1))
        a, b = draw(_scalars()), draw(_scalars())
        rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [ZERO] * nc)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, nc))
        for row in rows:
            row.insert(at, ZERO)
        nc += 1
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order]


class TestZeroSkippingElimination:
    @settings(max_examples=150, deadline=None)
    @given(sparse_deficient_matrices())
    def test_rref_matches_the_dense_elimination(self, rows):
        factor = _rref(rows)
        got, pivots = factor.entries, factor.pivots
        want, want_pivots = _dense_rref(rows)
        assert pivots == want_pivots
        assert got == want

    def test_input_rows_are_left_untouched(self):
        rows = [[GaussianRational(2), ZERO, GaussianRational(1, 1)],
                [GaussianRational(4), ZERO, GaussianRational(2, 2)]]
        before = [list(r) for r in rows]
        factor = _rref(rows)
        got, pivots = factor.entries, factor.pivots
        assert rows == before
        assert pivots == [0]
        assert got == [[GaussianRational(1), ZERO, GaussianRational(Fraction(1, 2), Fraction(1, 2))],
                       [ZERO, ZERO, ZERO]]


# -- the pullback inverse ---------------------------------------------------------

def _leibniz_det(m):
    total = Fraction(0)
    for perm in permutations(range(len(m))):
        term = Fraction(-1 if sum(a > b for k, a in enumerate(perm) for b in perm[k + 1:]) % 2
                        else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@st.composite
def _singular(draw, n):
    """A rational n x n matrix with one row a combination of the others
    (a zero row when n = 1), often transposed."""
    entries = st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n - 1)]
    coeffs = [draw(entries) for _ in rows]
    combo = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
    rows.insert(draw(st.integers(0, n - 1)), combo)
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    return opalg.mat_from(rows)


class TestPullbackInverse:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(_invertible))
    def test_inverse_and_signed_determinant(self, m):
        inv, det = mat_inv_det(m)
        n = len(m)
        assert opalg.mat_mul(m, inv) == tuple(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        assert all(type(x) is Fraction for row in inv for x in row)
        assert type(det) is Fraction and det == _leibniz_det(m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4).flatmap(_singular))
    def test_singular_matrix_raises(self, m):
        assert _leibniz_det(m) == 0
        with pytest.raises(opalg.SingularMatrixError, match="pullback matrix is not invertible"):
            mat_inv_det(m)
