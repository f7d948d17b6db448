"""The two integer kernels equal the plain `GaussianRational` arithmetic.

`spectral._sparse_matvec` accumulates a row over integers and reduces once;
`scalar.sub_mul` forms x - f*y with one gcd.  Both must give the canonical
triple (a, b, d) that the per-operation arithmetic gives.
"""

from fractions import Fraction

from hypothesis import example, given, strategies as st

from onshell.scalar import GaussianRational, ONE, ZERO, I, sub_mul
from onshell.spectral import _sparse_matvec

from conftest import scalars


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
