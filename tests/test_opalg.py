import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from onshell.scalar import GaussianRational, ONE
from onshell.deltaspace import (
    NEG_INF,
    DeltaVector,
    Polynomial,
    enumerate_multi_indices,
    mi_add,
    mi_binomial,
    mi_sub,
    pair,
)
from onshell.opalg import (
    EssentialOrder,
    InvalidSignature,
    OperatorExpr,
    SingularMatrixError,
    casimir,
    commutator,
    dalembert,
    default_signature,
    euler,
    lorentz_generator,
    mat_inv_det,
    mat_mul,
    monomial_derivative,
    operator_equal,
    parity,
    reflection,
    squared_interval,
)

from onshell.cli import parse_operator
from onshell.spectral import restrict

from conftest import delta_vectors, random_poly_coeff_operator, structured_operator


def d(n, *gamma):
    return OperatorExpr.derivative(n, tuple(gamma))


def x(n, i):
    return OperatorExpr.multiplication(Polynomial.coordinate(n, i))


class TestNormalForm:
    def test_leibniz_rule(self):
        lhs = d(1, 1) @ x(1, 0)
        rhs = x(1, 0) @ d(1, 1) + OperatorExpr.identity(1)
        assert operator_equal(lhs, rhs)

    def test_euler_square(self):
        # oracle: apply both sides to monomials x^k and compare
        xd = x(1, 0) @ d(1, 1)
        want = OperatorExpr.multiplication(Polynomial.monomial(1, (2,))) @ d(1, 2) + xd
        assert operator_equal(xd @ xd, want)
        for k in range(5):
            f = Polynomial.monomial(1, (k,))
            assert (xd @ xd).apply_poly(f) == f.scale(k * k)

    def test_parity_involution(self):
        p = parity(2)
        assert operator_equal(p @ p, OperatorExpr.identity(2))

    def test_idempotent(self):
        q = structured_operator(random.Random(1), 2)
        assert q.normal_form() == q.normal_form().normal_form()

    def test_semantics_preserved(self):
        # same operator assembled two ways acts identically
        q1 = d(1, 1) @ x(1, 0) @ d(1, 1)
        q2 = (x(1, 0) @ d(1, 2)) + d(1, 1)
        assert operator_equal(q1, q2)
        for alpha in enumerate_multi_indices(1, 3):
            v = DeltaVector.basis(1, alpha)
            assert q1.apply_delta(v) == q2.apply_delta(v)


class TestTranspose:
    def test_examples(self):
        assert operator_equal(d(1, 1).transpose(), d(1, 1).scale(-1))
        xd = x(1, 0) @ d(1, 1)
        assert operator_equal(xd.transpose(), xd.scale(-1) - OperatorExpr.identity(1))
        assert operator_equal(parity(3).transpose(), parity(3))

    def test_singular_pullback_rejected(self):
        with pytest.raises(SingularMatrixError):
            reflection([[1, 0], [1, 0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_involution(self, seed):
        q = structured_operator(random.Random(seed), 2)
        assert operator_equal(q.transpose().transpose(), q)

    @pytest.mark.parametrize("seed", range(8))
    def test_pairing_adjunction(self, seed):
        rng = random.Random(seed)
        n = rng.choice([1, 2])
        q = structured_operator(rng, n)
        qt = q.transpose()
        for alpha in enumerate_multi_indices(n, 2):
            for beta in enumerate_multi_indices(n, 3):
                lhs = pair(q.apply_delta(DeltaVector.basis(n, alpha)),
                           Polynomial.monomial(n, beta))
                rhs = pair(DeltaVector.basis(n, alpha),
                           qt.apply_poly(Polynomial.monomial(n, beta)))
                assert lhs == rhs


class TestEssentialOrder:
    def test_euler_is_zero(self):
        assert euler(3, Fraction(-2)).essential_order() == EssentialOrder(0, True)

    def test_constant_coefficient_wave(self):
        e = dalembert(1, 1, (1,)).essential_order()
        assert e.q == 2 and e.exact

    def test_vanishing_coefficient(self):
        q = OperatorExpr.multiplication(Polynomial.monomial(1, (2,))) @ d(1, 1)
        assert q.essential_order().q == 0

    def test_pullback_composition_is_bounded(self):
        q = dalembert(2, 0) @ parity(2)
        e = q.essential_order()
        assert e.q == 2
        # the flag records that only an upper bound is certified
        assert not e.exact

    def test_degree_inequality_on_delta_vectors(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.choice([1, 2])
            q = structured_operator(rng, n)
            bound = q.essential_order().q
            for alpha in enumerate_multi_indices(n, 2):
                img = q.apply_delta(DeltaVector.basis(n, alpha))
                if not img.is_zero():
                    assert img.degree() <= sum(alpha) + bound


class TestApplyDelta:
    def test_euler_eigenvalue(self):
        for n in (1, 2, 4):
            a = Fraction(-3)
            e = euler(n, a)
            for alpha in enumerate_multi_indices(n, 2):
                got = e.apply_delta(DeltaVector.basis(n, alpha))
                want = DeltaVector.basis(n, alpha).scale(-(sum(alpha) + n + a))
                assert got == want

    def test_derivative_shifts(self):
        assert d(1, 1).apply_delta(DeltaVector.basis(1, (0,))) == DeltaVector.basis(1, (1,))

    def test_coordinate_action(self):
        # oracle: pairing against test polynomials fixes x delta'' = -2 delta'
        got = x(1, 0).apply_delta(DeltaVector.basis(1, (2,)))
        assert got == DeltaVector.basis(1, (1,)).scale(-2)

    def test_parity_action(self):
        p = parity(2)
        for alpha in enumerate_multi_indices(2, 3):
            got = p.apply_delta(DeltaVector.basis(2, alpha))
            want = DeltaVector.basis(2, alpha).scale((-1) ** sum(alpha))
            assert got == want

    def test_general_reflection(self):
        refl = reflection([[0, 1], [1, 0]])  # swap axes
        got = refl.apply_delta(DeltaVector.basis(2, (2, 1)))
        assert got == DeltaVector.basis(2, (1, 2))


class TestApplyPoly:
    def test_euler_transpose_kills_matching_degree(self):
        qt = euler(1, Fraction(-2)).transpose()
        assert qt.apply_poly(Polynomial.coordinate(1, 0)).is_zero()

    def test_wave_on_square(self):
        q = dalembert(1, 1, (1,))
        f = Polynomial.monomial(1, (2,))
        got = q.transpose().apply_poly(f)
        want = Polynomial.constant(1, 2) + f
        assert got == want

    def test_parity_transpose_on_odd(self):
        got = parity(2).transpose().apply_poly(Polynomial.coordinate(2, 0))
        assert got == Polynomial.coordinate(2, 0).scale(-1)


class TestCommutators:
    def test_canonical_commutation(self):
        assert operator_equal(commutator(d(1, 1), x(1, 0)), OperatorExpr.identity(1))

    def test_euler_family_commutes(self):
        assert commutator(euler(2, Fraction(1)), euler(2, Fraction(-5, 3))).is_zero()

    def test_casimir_commutes_with_generators(self):
        for sig in ((1, -1), (1, 1)):
            c = casimir(2, sig)
            g = lorentz_generator(2, 0, 1, sig)
            assert commutator(c, g).is_zero()

    def test_casimir_commutes_in_four_dimensions(self):
        sig = (1, -1, -1, -1)
        c = casimir(4, sig)
        for mu, nu in ((0, 1), (1, 2), (2, 3)):
            assert commutator(c, lorentz_generator(4, mu, nu, sig)).is_zero()


class TestConstructors:
    def test_euler_minus_one_kills_delta(self):
        assert euler(1, Fraction(-1)).apply_delta(DeltaVector.basis(1, (0,))).is_zero()

    def test_one_dimensional_wave(self):
        assert operator_equal(dalembert(1, 0, (1,)), d(1, 2))

    def test_invalid_signature(self):
        with pytest.raises(InvalidSignature):
            dalembert(2, 0, (1, 2))
        with pytest.raises(InvalidSignature):
            casimir(3, (1, -1))

    def test_monomial_derivative(self):
        assert operator_equal(monomial_derivative(2, (1, 1)), d(2, 1, 1))

    def test_default_signature(self):
        assert default_signature(4) == (1, -1, -1, -1)

    def test_boost_generator(self):
        g = lorentz_generator(2, 0, 1, (1, -1))
        want = x(2, 0) @ d(2, 0, 1) + x(2, 1) @ d(2, 1, 0)
        assert operator_equal(g, want)

    def test_interval_acts_by_multiplication(self):
        q = squared_interval(2, (1, -1))
        got = q.apply_delta(DeltaVector.basis(2, (2, 0)))
        assert got == DeltaVector.basis(2, (0, 0)).scale(2)


@settings(max_examples=25, deadline=None)
@given(delta_vectors(2, 2))
def test_zero_operator_annihilates(v):
    assert OperatorExpr.zero(2).apply_delta(v).is_zero()
    assert OperatorExpr.zero(2).essential_order().q == 0


def test_operator_hashable_as_residue_key():
    q1 = d(1, 1) @ x(1, 0)
    q2 = x(1, 0) @ d(1, 1) + OperatorExpr.identity(1)
    assert hash(q1) == hash(q2) and q1 == q2
    assert len({q1: 1, q2: 2}) == 1


class TestPullbackScaling:
    """Pullbacks with |det L| != 1, where the weak definition
    <P_L u, phi> = |det L|^(-1) <u, phi o L^(-1)> carries a factor."""

    # (L, L^(-1), |det L|)
    CASES = (
        (((2, 1), (0, 3)), ((Fraction(1, 2), Fraction(-1, 6)), (0, Fraction(1, 3))), 6),
        (((0, 2), (1, 0)), ((0, 1), (Fraction(1, 2), 0)), 2),
    )

    @pytest.mark.parametrize("mat, inv, det", CASES)
    def test_apply_delta_is_the_weak_pullback(self, mat, inv, det):
        p = reflection(mat)
        for alpha in enumerate_multi_indices(2, 3):
            u = DeltaVector.basis(2, alpha)
            img = p.apply_delta(u)
            for beta in enumerate_multi_indices(2, 3):
                phi = Polynomial.monomial(2, beta)
                want = pair(u, phi.substitute_linear(inv)) * GaussianRational(Fraction(1, det))
                assert pair(img, phi) == want

    @pytest.mark.parametrize("mat, inv, det", CASES)
    def test_transpose_is_the_scaled_inverse_pullback(self, mat, inv, det):
        want = reflection(inv).scale(GaussianRational(Fraction(1, det)))
        assert operator_equal(reflection(mat).transpose(), want)

    @pytest.mark.parametrize("mat, inv, det", CASES)
    def test_compositions_and_pairing_adjunction(self, mat, inv, det):
        p = reflection(mat)
        other = reflection(self.CASES[1][0] if mat == self.CASES[0][0] else self.CASES[0][0])
        d1, x1 = d(2, 1, 0), x(2, 0)
        for left, right in ((p, d1), (d1, p), (p, x1), (x1, p), (p, other)):
            q = left @ right
            qt = q.transpose()
            for alpha in enumerate_multi_indices(2, 2):
                u = DeltaVector.basis(2, alpha)
                assert q.apply_delta(u) == left.apply_delta(right.apply_delta(u))
                for beta in enumerate_multi_indices(2, 3):
                    phi = Polynomial.monomial(2, beta)
                    assert pair(q.apply_delta(u), phi) == pair(u, qt.apply_poly(phi))


def _leibniz_product(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """a @ b by the general rule alone: every pair of terms through the
    pullback substitution and the full Leibniz sum, with no shortcut."""
    n = a.n
    raw = []
    for ca, gamma, pbl in a.terms:
        for cb, delta, pbm in b.terms:
            dpoly = Polynomial.monomial(n, delta)
            pb = pbm
            if pbl is not None:
                cb = cb.substitute_linear(pbl)
                dpoly = dpoly.substitute_linear(tuple(zip(*mat_inv_det(pbl)[0])))
                pb = pbl if pbm is None else mat_mul(pbm, pbl)
            for kappa in product(*(range(g + 1) for g in gamma)):
                db = cb.differentiate(kappa)
                if db.is_zero():
                    continue
                coeff = ca * db.scale(mi_binomial(gamma, kappa))
                rest = mi_sub(gamma, kappa)
                for eps, d_c in dpoly.coeffs.items():
                    raw.append((coeff.scale(d_c), mi_add(rest, eps), pb))
    return OperatorExpr._normalized(n, raw)


class TestCompositionShortcut:
    """`a @ b` returns the one product term without the Leibniz sum when the
    left term has no pullback and no derivative or the right coefficient is
    constant; every product must equal the general rule's."""

    # non-diagonal pullbacks with |det L| != 1
    REFLECT = {2: ((1, 2), (0, 3)), 3: ((2, 1, 0), (0, 1, 1), (1, 0, 1))}

    @staticmethod
    def _pool(rng, n):
        pool = [OperatorExpr.from_scalar(n, GaussianRational(Fraction(2, 3), -1)),
                OperatorExpr.multiplication(Polynomial.monomial(n, (1,) * n, GaussianRational(3))),
                d(n, *(1,) * n), x(n, 0) @ d(n, *(2,) + (0,) * (n - 1)),
                parity(n), euler(n, Fraction(-1, 2))]
        if n in TestCompositionShortcut.REFLECT:
            refl = reflection(TestCompositionShortcut.REFLECT[n])
            pool += [refl, refl @ random_poly_coeff_operator(rng, n),
                     random_poly_coeff_operator(rng, n) @ refl, refl + parity(n) @ d(n, *(1,) * n)]
        pool += [random_poly_coeff_operator(rng, n, allow_pullback=True) for _ in range(5)]
        # gamma = (3, ..., 3) past the degrees (2, 1, 0, ...) of x1^2 + x2
        # (x1^2 + 1 at n = 1): the Leibniz sum stops at the coefficient degree
        pool += [d(n, *(3,) * n), OperatorExpr.multiplication(
            Polynomial.monomial(n, (2,) + (0,) * (n - 1))
            + (Polynomial.coordinate(n, 1) if n > 1 else Polynomial.constant(n, ONE)))]
        return pool

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_product_equals_the_leibniz_product(self, n):
        rng = random.Random(19 + n)
        pool = self._pool(rng, n)
        vectors = [DeltaVector(n, {alpha: GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                                   for alpha in enumerate_multi_indices(n, 2)})
                   for _ in range(2)]
        for a in pool:
            for v in vectors:  # each term alone, with pullback tables of its own
                assert a.apply_delta(v) == sum(
                    (OperatorExpr(n, (t,)).apply_delta(v) for t in a.terms), DeltaVector(n, {}))
            for b in pool:
                got = a @ b
                want = _leibniz_product(a, b)
                assert got.key() == want.key()
                assert str(got) == str(want)
                for v in vectors:
                    assert got.apply_delta(v) == a.apply_delta(b.apply_delta(v))

    def test_a_monomial_is_parsed_without_differentiating(self, monkeypatch):
        calls = []
        original = Polynomial.differentiate
        monkeypatch.setattr(Polynomial, "differentiate",
                            lambda p, gamma: calls.append(gamma) or original(p, gamma))
        got = parse_operator("2/3*x1*d1*d2", 2)
        assert calls == []
        want = OperatorExpr._normalized(2, ((Polynomial.monomial(2, (1, 0), GaussianRational(
            Fraction(2, 3))), (1, 1), None),))
        assert got == want

    def test_the_leibniz_sum_stops_at_the_coefficient_degree(self, monkeypatch):
        # gamma = (3, 2) against b = x1 + x2^3 of degrees (1, 3): one d^kappa b
        # per kappa <= (min(3, 1), min(2, 3)), 2 * 3 in all, not 4 * 3
        a = d(2, 3, 2)
        b = OperatorExpr.multiplication(Polynomial(2, {(1, 0): ONE, (0, 3): ONE}))
        calls = []
        original = Polynomial.differentiate
        monkeypatch.setattr(Polynomial, "differentiate",
                            lambda p, gamma: calls.append(tuple(gamma)) or original(p, gamma))
        got = a @ b
        assert sorted(calls) == list(product(range(2), range(3)))
        monkeypatch.undo()
        assert got.key() == _leibniz_product(a, b).key()

    def test_one_pullback_table_lookup_per_order(self, monkeypatch):
        from onshell import opalg
        orders = []
        original = opalg._pullback_degree
        monkeypatch.setattr(opalg, "_pullback_degree",
                            lambda pb, k: orders.append(k) or original(pb, k))
        restrict.cache_clear()
        q = parse_operator("parity*(d1 + x1*d1*d2)", 2)
        assert len({pb for _, _, pb in q.terms}) == 1 and len(q.terms) > 1
        m = restrict(q, 3)
        assert sorted(orders) == sorted(set(orders)) and set(orders) <= set(range(4))
        # the tables give the same matrix as the shared table alone
        restrict.cache_clear()
        monkeypatch.setattr(opalg, "_pullback_degree", original)
        assert restrict(parse_operator("parity*(d1 + x1*d1*d2)", 2), 3).entries == m.entries
