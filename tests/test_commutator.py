"""`opalg.commutator` against its definition, (Q1 @ Q2) - (Q2 @ Q1).

The commutator runs one pass over term pairs: pullback-free pairs on
integer coefficients without the kappa = 0 Leibniz summand that cancels,
pairs with a pullback through `_compose_terms` in both orders.  Both must
give the canonical operator of the two full products, for random
complex-rational operators with and without pullbacks and for the named
families.  The table is bypassed (`commutator.__wrapped__`) wherever a call
is counted.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from onshell.deltaspace import DimensionMismatch, Polynomial, enumerate_multi_indices
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

from conftest import scalars, small_fractions

DIMS = (1, 2, 3, 4)
# the call counts are reset after each example's operators are drawn
FIXTURE = HealthCheck.function_scoped_fixture


def _coefficients(n):
    """A nonzero polynomial of degree <= 2 with complex rational coefficients."""
    return st.dictionaries(st.sampled_from(enumerate_multi_indices(n, 2)), scalars(),
                           min_size=1, max_size=3).map(lambda d: Polynomial(n, d))


def _differential(n):
    """sum a(x) d^gamma over one to three terms, |gamma| <= 2, |deg a| <= 2."""
    term = st.tuples(_coefficients(n), st.sampled_from(enumerate_multi_indices(n, 2)))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda ts: OperatorExpr._normalized(n, [(a, g, None) for a, g in ts]))


def _invertible(n):
    """A triangular rational matrix with a nonzero diagonal, upper or lower."""
    nonzero = small_fractions().filter(bool)
    return st.tuples(st.lists(nonzero, min_size=n, max_size=n),
                     st.lists(small_fractions(), min_size=n * n, max_size=n * n),
                     st.booleans()).map(lambda t: tuple(
                         tuple(t[0][i] if i == j else
                               t[1][i * n + j] if (j > i) == t[2] else Fraction(0)
                               for j in range(n))
                         for i in range(n)))


@cache
def _named(n):
    choices = [casimir(n), euler(n, Fraction(-n - 1)) ** 2, dalembert(n, Fraction(3, 2))]
    if n > 1:
        choices.append(lorentz_generator(n, 0, n - 1))
    return st.sampled_from(choices)


def _with_pullback(n):
    """A differential operator composed with parity or a rational reflection,
    on either side, or such a pullback plus a differential operator."""
    pullback = st.one_of(st.just(parity(n)), _invertible(n).map(reflection))
    return st.one_of(
        st.builds(lambda a, p: a @ p, _differential(n), pullback),
        st.builds(lambda a, p: p @ a, _differential(n), pullback),
        st.builds(lambda a, p: a + p, _differential(n), pullback),
    )


def _operators(n, pullbacks):
    kinds = [_differential(n), _named(n)]
    if pullbacks:
        kinds.append(_with_pullback(n))
    return st.one_of(*kinds)


def _pullback_pairs(q1, q2):
    return sum(1 for _, _, p1 in q1.terms for _, _, p2 in q2.terms
               if p1 is not None or p2 is not None)


@pytest.fixture
def counted(monkeypatch):
    """Counts of `OperatorExpr.__matmul__` and `_compose_terms` calls."""
    calls = {"__matmul__": 0, "_compose_terms": 0}
    for name in calls:
        inner = getattr(OperatorExpr, name)

        def spy(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(OperatorExpr, name, spy)
    return calls


class TestAgainstTheProducts:
    @pytest.mark.parametrize("n", DIMS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_commutator_is_the_difference_of_products(self, n, data):
        q1 = data.draw(_operators(n, pullbacks=True))
        q2 = data.draw(_operators(n, pullbacks=True))
        want = (q1 @ q2) - (q2 @ q1)
        got = commutator.__wrapped__(q1, q2)
        assert got == want
        assert got.terms == want.terms

    @pytest.mark.parametrize("n", DIMS)
    def test_named_families(self, n):
        c = casimir(n)
        ops = [c, euler(n, -3) ** 3, dalembert(n, 0), parity(n)]
        ops += [lorentz_generator(n, mu, nu) for mu in range(n) for nu in range(mu + 1, n)]
        for q1 in ops:
            for q2 in ops:
                assert commutator.__wrapped__(q1, q2) == (q1 @ q2) - (q2 @ q1)
        assert all(commutator.__wrapped__(c, g).is_zero() for g in ops[4:])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator.__wrapped__(euler(1, 0), euler(2, 0))


class TestRoutes:
    @pytest.mark.parametrize("n", DIMS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[FIXTURE])
    @given(data=st.data())
    def test_pullback_free_pairs_form_no_product(self, n, data, counted):
        q1 = data.draw(_operators(n, pullbacks=False))
        q2 = data.draw(_operators(n, pullbacks=False))
        counted.update(dict.fromkeys(counted, 0))
        commutator.__wrapped__(q1, q2)
        assert counted == {"__matmul__": 0, "_compose_terms": 0}

    @pytest.mark.parametrize("n", DIMS)
    @settings(max_examples=15, deadline=None, suppress_health_check=[FIXTURE])
    @given(data=st.data())
    def test_a_pair_with_a_pullback_is_composed_both_ways(self, n, data, counted):
        q1 = data.draw(_operators(n, pullbacks=True))
        q2 = data.draw(_with_pullback(n))
        counted.update(dict.fromkeys(counted, 0))
        commutator.__wrapped__(q1, q2)
        assert counted == {"__matmul__": 0, "_compose_terms": 2 * _pullback_pairs(q1, q2)}

    def test_parity_anticommutes_with_first_order_derivatives(self):
        d1 = OperatorExpr.derivative(2, (1, 0))
        p = parity(2)
        assert commutator.__wrapped__(p, d1) == (p @ d1).scale(2)
        assert commutator.__wrapped__(p, euler(2, -3)).is_zero()
