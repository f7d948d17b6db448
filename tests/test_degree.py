import random
from fractions import Fraction

import pytest

from onshell.deltaspace import NEG_INF, DeltaVector
from onshell.degree import (
    EXACT,
    UPPER_BOUND,
    DegreeBound,
    bound_derivative,
    bound_monomial,
    bound_operator,
    bound_tensor,
    bound_vanishing_factor,
    deg_delta,
)
from onshell.opalg import dalembert, euler

from conftest import random_delta_vector, structured_operator


def test_deg_delta_examples():
    assert deg_delta(DeltaVector.basis(1, (0,))) == DegreeBound(0, EXACT)
    assert deg_delta(DeltaVector.basis(2, (2, 1))) == DegreeBound(3, EXACT)
    assert deg_delta(DeltaVector.zero(2)) == DegreeBound(NEG_INF, EXACT)


def test_bound_rules():
    assert bound_derivative(DegreeBound(-2, EXACT), (2, 0, 0, 0)).value == 0
    assert bound_monomial(DegreeBound(0, EXACT), (1, 0)).value == -1
    assert bound_vanishing_factor(DegreeBound(3, EXACT), 2).value == 1
    assert bound_tensor(DegreeBound(-2, EXACT), DegreeBound(-3, EXACT)).value == -5
    for b in (bound_derivative(DegreeBound(0, EXACT), (1,)),
              bound_monomial(DegreeBound(0, EXACT), (1,))):
        assert b.exactness == UPPER_BOUND


def test_bound_operator_examples():
    assert bound_operator(DegreeBound(-2, EXACT), dalembert(4, 1)).value == 0
    assert bound_operator(DegreeBound(0, EXACT), euler(3, Fraction(-2))).value == 0
    assert bound_operator(DegreeBound(NEG_INF, EXACT), dalembert(4, 1)).value == NEG_INF


def test_negative_vanishing_order_rejected():
    # f vanishes to order k - 1 >= -1; k = -2 gave the bound 5 above 3
    with pytest.raises(ValueError, match="k = -2 is negative"):
        bound_vanishing_factor(DegreeBound(3, EXACT), -2)
    assert bound_vanishing_factor(DegreeBound(3, EXACT), 0).value == 3


def test_minus_infinity_propagates():
    bottom = DegreeBound(NEG_INF, EXACT)
    assert bound_derivative(bottom, (3,)).value == NEG_INF
    assert bound_tensor(bottom, DegreeBound(5, EXACT)).value == NEG_INF


def test_invalid_values_rejected():
    with pytest.raises(TypeError):
        DegreeBound(1.5)
    with pytest.raises(ValueError):
        DegreeBound(1, "sometimes")


def test_monotone_in_input():
    for d1, d2 in ((0, 1), (-3, 2)):
        assert bound_derivative(DegreeBound(d1, EXACT), (2,)).value <= \
            bound_derivative(DegreeBound(d2, EXACT), (2,)).value
        assert bound_operator(DegreeBound(d1, EXACT), euler(1, Fraction(0))).value <= \
            bound_operator(DegreeBound(d2, EXACT), euler(1, Fraction(0))).value


def test_consistent_with_exact_recomputation():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.choice([1, 2])
        q = structured_operator(rng, n)
        v = random_delta_vector(rng, n, 2)
        before = deg_delta(v)
        after = deg_delta(q.apply_delta(v))
        bound = bound_operator(before, q)
        if after.value != NEG_INF:
            assert after.value <= bound.value
