import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from onshell.scalar import GaussianRational, ONE
from onshell.chi import ConstCoeffOperator, FeynmanConfig
from onshell.deltaspace import (
    NEG_INF,
    DegreeOverflow,
    DeltaVector,
    DimensionMismatch,
    Polynomial,
    enumerate_multi_indices,
    inner,
    mi_factorial,
    pair,
    smap,
    tmap,
)

from conftest import delta_vectors, polynomials


class TestEnumerate:
    def test_examples(self):
        assert enumerate_multi_indices(1, 1) == ((0,), (1,))
        assert enumerate_multi_indices(2, 1) == ((0, 0), (1, 0), (0, 1))
        assert len(enumerate_multi_indices(4, 2)) == 15  # C(6, 4)

    @pytest.mark.parametrize("n,r", [(1, 5), (2, 4), (3, 3), (4, 2)])
    def test_length_and_uniqueness(self, n, r):
        idx = enumerate_multi_indices(n, r)
        assert len(idx) == math.comb(n + r, n)
        assert len(set(idx)) == len(idx)

    @pytest.mark.parametrize("n,r", [(2, 3), (3, 2)])
    def test_closed_under_decrement(self, n, r):
        idx = set(enumerate_multi_indices(n, r))
        for alpha in idx:
            for i, a in enumerate(alpha):
                if a > 0:
                    down = tuple(x - 1 if j == i else x for j, x in enumerate(alpha))
                    assert down in idx

    def test_graded(self):
        idx = enumerate_multi_indices(3, 3)
        orders = [sum(a) for a in idx]
        assert orders == sorted(orders)


class TestPair:
    def test_identity_case(self):
        assert pair(DeltaVector.basis(1, (0,)), Polynomial.constant(1, 1)) == ONE

    def test_order_mismatch(self):
        assert pair(DeltaVector.basis(1, (1,)), Polynomial.monomial(1, (2,))).is_zero()

    def test_second_derivative(self):
        # oracle: (-1)^2 * d^2(x^2)(0) = 2, by integration by parts
        got = pair(DeltaVector.basis(1, (2,)), Polynomial.monomial(1, (2,)))
        assert got == GaussianRational.of(2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pair(DeltaVector.basis(1, (0,)), Polynomial.constant(2, 1))

    @pytest.mark.parametrize("alpha,beta", [((1, 0), (1, 0)), ((2, 1), (2, 1)), ((0, 2), (2, 0))])
    def test_basis_pairing(self, alpha, beta):
        got = pair(DeltaVector.basis(2, alpha), Polynomial.monomial(2, beta))
        if alpha == beta:
            sign = -1 if sum(alpha) % 2 else 1
            assert got == GaussianRational.of(sign * mi_factorial(alpha))
        else:
            assert got.is_zero()


class TestMaps:
    def test_smap_examples(self):
        assert smap(0, DeltaVector.basis(1, (0,))) == Polynomial.constant(1, 1)
        got = smap(1, DeltaVector.basis(2, (1, 0)))
        assert got == Polynomial.monomial(2, (1, 0), GaussianRational.of(-1))
        with pytest.raises(DegreeOverflow):
            smap(1, DeltaVector.basis(1, (2,)))

    def test_tmap_examples(self):
        assert tmap(2, Polynomial.constant(1, 1)) == DeltaVector.basis(1, (0,))
        assert tmap(2, Polynomial.monomial(2, (2, 0))) == DeltaVector.basis(2, (2, 0))
        assert tmap(1, Polynomial.monomial(1, (2,))).is_zero()

    @settings(max_examples=60)
    @given(delta_vectors(2, 3))
    def test_tmap_smap_identity(self, v):
        assert tmap(3, smap(3, v)) == v

    @settings(max_examples=60)
    @given(polynomials(2, 3))
    def test_smap_tmap_identity_on_low_degree(self, f):
        assert smap(3, tmap(3, f)) == f


class TestInner:
    def test_examples(self):
        d = DeltaVector.basis(1, (0,))
        assert inner(0, d, d) == ONE
        v = DeltaVector.basis(2, (2, 0))
        assert inner(2, v, v) == GaussianRational.of(2)
        assert inner(1, DeltaVector.basis(1, (0,)), DeltaVector.basis(1, (1,))).is_zero()

    def test_errors(self):
        with pytest.raises(DegreeOverflow):
            inner(0, DeltaVector.basis(1, (1,)), DeltaVector.basis(1, (0,)))
        with pytest.raises(DimensionMismatch):
            inner(0, DeltaVector.basis(1, (0,)), DeltaVector.basis(2, (0, 0)))

    @settings(max_examples=60)
    @given(delta_vectors(2, 2), delta_vectors(2, 2))
    def test_matches_pairing_with_smap(self, v, w):
        assert inner(2, v, w) == pair(v.conj(), smap(2, w))

    @settings(max_examples=60)
    @given(delta_vectors(2, 2), delta_vectors(2, 2))
    def test_conjugate_symmetry(self, v, w):
        assert inner(2, v, w) == inner(2, w, v).conj()

    @settings(max_examples=60)
    @given(delta_vectors(2, 2))
    def test_positive_definite(self, v):
        val = inner(2, v, v)
        assert val.im == 0
        if v.is_zero():
            assert val.is_zero()
        else:
            assert val.re > 0


def test_zero_vector_degree_is_minus_infinity():
    assert DeltaVector.zero(3).degree() == NEG_INF
    assert DeltaVector(2, {(1, 1): GaussianRational.of(0)}).degree() == NEG_INF
    assert DeltaVector.basis(2, (2, 1)).degree() == 3


def test_canonical_sparse_form():
    v = DeltaVector(1, {(0,): GaussianRational.of(1), (1,): GaussianRational.of(0)})
    assert (1,) not in v.coeffs
    w = v - v
    assert w.is_zero() and not w.coeffs


def test_polynomial_arithmetic():
    x = Polynomial.coordinate(2, 0)
    y = Polynomial.coordinate(2, 1)
    p = (x + y) * (x - y)
    assert p == Polynomial(2, {(2, 0): ONE, (0, 2): GaussianRational.of(-1)})
    assert p.differentiate((1, 0)) == Polynomial.monomial(2, (1, 0), GaussianRational.of(2))
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert p.substitute_linear(swap) == Polynomial(
        2, {(0, 2): ONE, (2, 0): GaussianRational.of(-1)})


# ---------------------------------------------------------------------------
# the sparse-map contract, shared by delta vectors, polynomials and chi's
# constant-coefficient operators; the reference is a plain dict of
# (re, im) Fraction pairs
# ---------------------------------------------------------------------------

# per class: a space of dimension 2, one of dimension 3, and another space
# of dimension 2 (None where the dimension is the whole space)
SPACES = {
    DeltaVector: (2, 3, None),
    Polynomial: (2, 3, None),
    ConstCoeffOperator: (FeynmanConfig(2, (1, -1)), FeynmanConfig(3, (1, -1, -1)),
                         FeynmanConfig(2, (1, -1), Fraction(1, 2))),
}
MAP_CLASSES = list(SPACES)
PRODUCT_CLASSES = [Polynomial, ConstCoeffOperator]


def _random_map(rng, cls, space):
    n = 2 if space == SPACES[cls][0] else 3
    coeffs = {}
    for alpha in enumerate_multi_indices(n, 3):
        u = rng.random()
        if u < 0.1:
            coeffs[alpha] = 0  # dropped by the canonical form
        elif u < 0.6:
            coeffs[alpha] = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return cls(space, coeffs)


def _ref(m) -> dict:
    return {a: (c.re, c.im) for a, c in m.coeffs.items()}


def _ref_clean(d: dict) -> dict:
    return {a: c for a, c in d.items() if c != (0, 0)}


def _ref_add(x: dict, y: dict, sign: int = 1) -> dict:
    out = dict(x)
    for a, (re, im) in y.items():
        r0, i0 = out.get(a, (Fraction(0), Fraction(0)))
        out[a] = (r0 + sign * re, i0 + sign * im)
    return _ref_clean(out)


def _ref_mul(x: dict, y: dict) -> dict:
    out = {}
    for a, (r1, i1) in x.items():
        for b, (r2, i2) in y.items():
            k = tuple(p + q for p, q in zip(a, b))
            r0, i0 = out.get(k, (Fraction(0), Fraction(0)))
            out[k] = (r0 + r1 * r2 - i1 * i2, i0 + r1 * i2 + i1 * r2)
    return _ref_clean(out)


@pytest.mark.parametrize("cls", MAP_CLASSES)
def test_sparse_map_drops_zeros(cls):
    space = SPACES[cls][0]
    m = cls(space, {(1, 0): 0, (0, 1): Fraction(1, 2), (2, 0): GaussianRational(0, 0)})
    assert m.coeffs == {(0, 1): GaussianRational.of(Fraction(1, 2))}
    assert all(type(c) is GaussianRational for c in m.coeffs.values())
    assert (m - m).coeffs == {} and (m - m).is_zero()
    assert m.scale(0).coeffs == {}
    assert cls.zero(space).degree() == NEG_INF


@pytest.mark.parametrize("cls", MAP_CLASSES)
def test_sparse_map_wrong_length_index(cls):
    with pytest.raises(DimensionMismatch):
        cls(SPACES[cls][0], {(1, 0, 0): 1})
    with pytest.raises(DimensionMismatch):
        cls(SPACES[cls][1], {(1, 0): 1})


@pytest.mark.parametrize("cls", MAP_CLASSES)
@pytest.mark.parametrize("seed", range(4))
def test_sparse_map_linear_operations_match_reference(cls, seed):
    rng = random.Random(seed)
    space = SPACES[cls][0]
    a, b = _random_map(rng, cls, space), _random_map(rng, cls, space)
    c = GaussianRational(Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(1, 4), 5))
    assert _ref(a + b) == _ref_add(_ref(a), _ref(b))
    assert _ref(a - b) == _ref_add(_ref(a), _ref(b), -1)
    assert _ref(a.scale(c)) == _ref_mul(_ref(a), {(0, 0): (c.re, c.im)})
    assert _ref(a.conj()) == {k: (re, -im) for k, (re, im) in _ref(a).items()}
    assert type(a + b) is type(a - b) is type(a.scale(c)) is type(a.conj()) is cls
    assert (a + b).space() == space


@pytest.mark.parametrize("cls", PRODUCT_CLASSES)
@pytest.mark.parametrize("seed", range(4))
def test_sparse_map_product_matches_reference(cls, seed):
    rng = random.Random(seed)
    space = SPACES[cls][0]
    a, b, c = (_random_map(rng, cls, space) for _ in range(3))
    assert _ref(a * b) == _ref_mul(_ref(a), _ref(b))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert type(a * b) is cls


@pytest.mark.parametrize("cls", MAP_CLASSES)
def test_sparse_map_mixed_operands_raise(cls):
    space, other_dim, other_space = SPACES[cls]
    a = cls(space, {(1, 0): 1})
    ops = [lambda x, y: x + y, lambda x, y: x - y]
    if cls in PRODUCT_CLASSES:
        ops.append(lambda x, y: x * y)
    others = [cls(other_dim, {(1, 0, 0): 1})]
    if other_space is not None:
        others.append(cls(other_space, {(1, 0): 1}))
    others += [k(SPACES[k][0], {(1, 0): 1}) for k in MAP_CLASSES if k is not cls]
    for op in ops:
        for b in others:
            with pytest.raises(DimensionMismatch):
                op(a, b)
