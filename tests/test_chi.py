import math
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from onshell.scalar import GaussianRational, I, ONE, ZERO
from onshell.deltaspace import DegreeOverflow, DeltaVector, DimensionMismatch
from onshell.opalg import (
    InvalidSignature,
    OperatorExpr,
    dalembert,
    default_signature,
    squared_interval,
)
from onshell import chi as chi_mod
from onshell.extension import ExtensionRecord, onshell_correction
from onshell.chi import (
    ChiResult,
    ConstCoeffOperator,
    FeynmanConfig,
    alpha_coefficient,
    chi_crosscheck,
    chi_explicit,
    chi_projection,
    harmonic_components,
    lambda_contraction,
    theta_counterterm,
)

CFG0 = FeynmanConfig(4, (1, -1, -1, -1), Fraction(0))
CFG1 = FeynmanConfig(4, (1, -1, -1, -1), Fraction(1))
CFGS = (CFG0, CFG1)


def counterterm_level_projection(s_op, c, level, config=None):
    """Oracle: the literal restriction-level construction, the on-shell
    counterterm (`extension.onshell_correction`, with its exact self-check)
    of the record whose one residue is (box + m^2) u' = c * S delta, at a
    level of at least order(S) - 2.  It equals theta_counterterm for m = 0
    at every such level and departs from it for m != 0
    (TestLevelProjectionRoute)."""
    config = chi_mod._own_config(s_op, config)
    q = dalembert(config.n, config.m2, config.signature)
    w = s_op.apply_to_delta().scale(GaussianRational.of(c))
    return onshell_correction(ExtensionRecord(config.n, level, {q: w}), q)


def delta4(scale=ONE):
    return DeltaVector.basis(4, (0, 0, 0, 0)).scale(scale)


class TestTheta:
    def test_below_threshold(self):
        for cfg in CFGS:
            assert theta_counterterm(ConstCoeffOperator.one(cfg), ONE, cfg).is_zero()
            for mu in range(4):
                s = ConstCoeffOperator.monomial(cfg, (mu,))
                assert theta_counterterm(s, ONE, cfg).is_zero()

    def test_klein_gordon_gets_minus_c_delta(self):
        for cfg in CFGS:
            kg = ConstCoeffOperator.klein_gordon(cfg)
            for c in (ONE, GaussianRational.of(2), -I):
                assert theta_counterterm(kg, c, cfg) == delta4(-c)

    def test_second_derivatives(self):
        # oracle: the explicit route gives chi1(d_mu d_nu) = -g_munu/4 in n=4
        for cfg in CFGS:
            for mu, nu in product(range(4), repeat=2):
                s = ConstCoeffOperator.monomial(cfg, (mu, nu))
                got = theta_counterterm(s, ONE, cfg)
                g = cfg.signature[mu] if mu == nu else 0
                assert got == delta4(GaussianRational.of(Fraction(-g, 4)))

    def test_factor_through_klein_gordon(self):
        # theta(S (box+m^2)) reproduces -c S delta, so theta(S Q) = 0 overall
        for cfg in CFGS:
            kg = ConstCoeffOperator.klein_gordon(cfg)
            for idx in ((), (0,), (1, 2)):
                s = ConstCoeffOperator.monomial(cfg, idx)
                c = GaussianRational.of(Fraction(3, 2))
                got = theta_counterterm(s * kg, c, cfg)
                assert got == s.apply_to_delta().scale(-c)


class TestChiProjection:
    def test_kills_klein_gordon_multiples(self):
        for cfg in CFGS:
            kg = ConstCoeffOperator.klein_gordon(cfg)
            for k in range(3):
                for idx in product(range(4), repeat=k):
                    s = ConstCoeffOperator.monomial(cfg, idx)
                    assert chi_projection(s * kg, ONE, cfg).chi.is_zero()

    def test_low_order_untouched(self):
        for cfg in CFGS:
            one = ConstCoeffOperator.one(cfg)
            assert chi_projection(one, ONE, cfg).chi.coeffs == one.coeffs
            for mu in range(4):
                s = ConstCoeffOperator.monomial(cfg, (mu,))
                assert chi_projection(s, ONE, cfg).chi.coeffs == s.coeffs

    def test_second_derivative_formula(self):
        for cfg in CFGS:
            for mu, nu in ((0, 0), (1, 1), (0, 1), (2, 3)):
                s = ConstCoeffOperator.monomial(cfg, (mu, nu))
                g = cfg.signature[mu] if mu == nu else 0
                want = s - ConstCoeffOperator.klein_gordon(cfg).scale(Fraction(g, 4))
                assert chi_projection(s, ONE, cfg).chi.coeffs == want.coeffs

    def test_c_independence(self):
        for cfg in CFGS:
            for idx in ((0, 0), (1, 1, 2), (0, 0, 1, 1)):
                s = ConstCoeffOperator.monomial(cfg, idx)
                results = [chi_projection(s, c, cfg).chi.coeffs
                           for c in (ONE, -I, GaussianRational.of(2))]
                assert results[0] == results[1] == results[2]

    def test_c_zero_rejected(self):
        with pytest.raises(ValueError):
            chi_projection(ConstCoeffOperator.one(CFG0), ZERO, CFG0)

    def test_order_bound_and_divisibility(self):
        for cfg in CFGS:
            kg = ConstCoeffOperator.klein_gordon(cfg)
            for k in range(5):
                for idx in set(tuple(sorted(t)) for t in product(range(4), repeat=k)):
                    s = ConstCoeffOperator.monomial(cfg, idx)
                    res = chi_projection(s, ONE, cfg)
                    assert res.chi.order() <= s.order()
                    assert (res.chi - s).coeffs == (res.chi1 * kg).coeffs

    def test_linearity_mixed_orders(self):
        for cfg in CFGS:
            s1 = ConstCoeffOperator.monomial(cfg, (0, 0))
            s2 = ConstCoeffOperator.monomial(cfg, (1, 2, 3))
            lhs = chi_projection(s1 + s2, ONE, cfg).chi
            rhs = chi_projection(s1, ONE, cfg).chi + chi_projection(s2, ONE, cfg).chi
            assert lhs.coeffs == rhs.coeffs

    def test_contraction_identity(self):
        # sum_mu g^mumu chi(d_mu d_mu) = chi(box) = -m^2
        for cfg in CFGS:
            total = ConstCoeffOperator.zero(cfg)
            for mu in range(4):
                s = ConstCoeffOperator.monomial(cfg, (mu, mu))
                total = total + chi_projection(s, ONE, cfg).chi.scale(cfg.signature[mu])
            want = ConstCoeffOperator.one(cfg).scale(-cfg.m2)
            assert total.coeffs == want.coeffs


def _from_delta(config, v):
    """The operator X with X delta = v."""
    return ConstCoeffOperator(config, dict(v.coeffs))


def _power(s_op, k):
    """s_op composed with itself k times."""
    out = ConstCoeffOperator.one(s_op.config)
    for _ in range(k):
        out = out * s_op
    return out


def _product_chi1(config, s_op):
    """chi1(S) = -sum_j H_j g_j with g_j = sum_(i<j) (-m^2)^(j-1-i) box^i,
    built from operator products and box powers, as the oracle."""
    chi1 = ConstCoeffOperator.zero(config)
    if s_op.order() < 2:
        return chi1
    mm = GaussianRational.of(-config.m2)
    box = ConstCoeffOperator.box(config)
    for j, h in harmonic_components(config, s_op.apply_to_delta()).items():
        g = ConstCoeffOperator.zero(config)
        for i in range(j):
            g = g + _power(box, i).scale(mm ** (j - 1 - i))
        chi1 = chi1 - _from_delta(config, h) * g
    return chi1


class TestSpectralRouteOracle:
    """The (configuration, exponent) table against the product formula on
    seeded multi-term operators with complex coefficients, order <= 6, at
    n = 1, 4 and 5 over both metrics."""

    @staticmethod
    def _seeded_operator(rng, config):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            alpha = [0] * config.n
            for _ in range(rng.randint(0, 6)):
                alpha[rng.randrange(config.n)] += 1
            coeffs[tuple(alpha)] = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return ConstCoeffOperator(config, coeffs)

    @pytest.mark.parametrize("m2", [Fraction(0), Fraction(1), Fraction(3, 2),
                                    Fraction(-7, 3), Fraction(5, 9)])
    @pytest.mark.parametrize("sig", [(1, -1, -1, -1), (-1, 1, 1, 1), (1,), (-1,),
                                     (1, -1, -1, -1, -1), (-1, 1, 1, 1, 1)])
    def test_table_matches_product_formula(self, sig, m2):
        rng = random.Random(f"{sig}{m2}")
        config = FeynmanConfig(len(sig), sig, m2)
        kg = ConstCoeffOperator.klein_gordon(config)
        for _ in range(8):
            s = self._seeded_operator(rng, config)
            chi_mod._basis_chi.cache_clear()
            chi_mod._orbit_split.cache_clear()
            cold = chi_projection(s, ONE, config)
            warm = chi_projection(s, ONE, config)
            assert cold.chi.coeffs == warm.chi.coeffs
            assert cold.chi1.coeffs == warm.chi1.coeffs
            assert cold.chi1.coeffs == _product_chi1(config, s).coeffs
            assert cold.chi.coeffs == (s + cold.chi1 * kg).coeffs
            c = GaussianRational(Fraction(rng.randint(1, 5), 3), rng.randint(-2, 2))
            assert theta_counterterm(s, c, config) == cold.chi1.apply_to_delta().scale(c)

    def test_single_monomial_returns_the_kept_images(self):
        s = ConstCoeffOperator.monomial(CFG1, (0, 0, 1, 1))
        first, second = chi_projection(s, ONE, CFG1), chi_projection(s, ONE, CFG1)
        assert first.chi is second.chi and first.chi1 is second.chi1

    @pytest.mark.usefixtures("fresh_split_tables")
    def test_self_check_fires(self, monkeypatch):
        # a split that drops the box^1 component breaks chi = S + chi1 (box + m^2)
        original = chi_mod._split_degree

        def dropped(signature, k, part):
            return [c for c in original(signature, k, part) if c[0] != 1]

        monkeypatch.setattr(chi_mod, "_split_degree", dropped)
        with pytest.raises(AssertionError, match="spectral chi contract"):
            chi_projection(ConstCoeffOperator.monomial(CFG1, (0, 0, 1, 1)), ONE, CFG1)

    def test_configuration_mismatch_rejected(self):
        s = ConstCoeffOperator.monomial(CFG0, (0, 0))
        with pytest.raises(DimensionMismatch):
            chi_projection(s, ONE, CFG1)

    @pytest.mark.parametrize("route", [
        lambda s, cfg: chi_projection(s, ONE, cfg),
        lambda s, cfg: theta_counterterm(s, ONE, cfg),
        lambda s, cfg: counterterm_level_projection(s, ONE, s.order() - 2, cfg),
    ], ids=["chi_projection", "theta_counterterm", "counterterm_level_projection"])
    def test_every_route_refuses_a_foreign_configuration(self, route):
        # d0^2 d1^2 over (+---, m^2 = 0) computed with (-+++, m^2 = 5) would
        # give another operator's counterterm
        s = ConstCoeffOperator.monomial(CFG0, (0, 0, 1, 1))
        with pytest.raises(DimensionMismatch):
            route(s, FeynmanConfig(4, (-1, 1, 1, 1), Fraction(5)))
        assert route(s, FeynmanConfig(4, (1, -1, -1, -1), Fraction(0))) == route(s, None)


class TestHarmonicDecomposition:
    def test_reconstructs_input(self):
        box = ConstCoeffOperator.box(CFG1)
        for idx in ((0, 0, 1, 1), (0, 1, 2, 3), (2, 2, 2, 2)):
            s = ConstCoeffOperator.monomial(CFG1, idx)
            comps = harmonic_components(CFG1, s.apply_to_delta())
            rebuilt = ConstCoeffOperator.zero(CFG1)
            for j, h in comps.items():
                rebuilt = rebuilt + _from_delta(CFG1, h) * _power(box, j)
            assert rebuilt.coeffs == s.coeffs

    def test_components_are_trace_free(self):
        interval = squared_interval(CFG1.n, CFG1.signature)
        s = ConstCoeffOperator.monomial(CFG1, (0, 0, 1, 1))
        for h in harmonic_components(CFG1, s.apply_to_delta()).values():
            assert interval.apply_delta(h).is_zero()


def _generic_harmonic_components(config, w):
    """The trace split by generic operator action (apply_delta), as the oracle."""
    n = config.n
    box = dalembert(config.n, 0, config.signature)
    interval = squared_interval(config.n, config.signature)

    def m_apply(v):
        return interval.apply_delta(box.apply_delta(v))

    by_degree = {}
    for alpha, c in w.coeffs.items():
        by_degree.setdefault(sum(alpha), {})[alpha] = c
    out = {}
    for k, coeffs in sorted(by_degree.items()):
        wk = DeltaVector(n, coeffs)
        lams = [2 * (j + 1) * (2 * k - 2 * j + n) for j in range(k // 2 + 1)]
        for j in range(k // 2 + 1):
            comp = wk
            for i in range(k // 2 + 1):
                if i != j:
                    comp = (m_apply(comp) - comp.scale(lams[i])).scale(
                        Fraction(1, lams[j] - lams[i]))
            if comp.is_zero():
                continue
            h, denom = comp, 1
            for i in range(j, 0, -1):
                h = interval.apply_delta(h)
                denom *= 2 * i * (2 * (k - 2 * j) + 2 * (i - 1) + n)
            out[j] = out.get(j, DeltaVector.zero(n)) + h.scale(Fraction(1, denom))
    return {j: h for j, h in out.items() if not h.is_zero()}


class TestHarmonicTwoRoutes:
    @staticmethod
    def _seeded_vector(rng, n):
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(0, 6)
            alpha = [0] * n
            for _ in range(k):
                alpha[rng.randrange(n)] += 1
            coeffs[tuple(alpha)] = GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return DeltaVector(n, coeffs)

    @staticmethod
    def _dense_vector(rng, n, r, imaginary=False):
        """Every basis index of degree <= r, with seeded nonzero real (unless
        `imaginary`) and imaginary parts over assorted denominators."""
        def part():
            return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.randint(1, 6))
        return DeltaVector(n, {alpha: GaussianRational(0 if imaginary else part(), part())
                               for alpha in product(range(r + 1), repeat=n) if sum(alpha) <= r})

    @classmethod
    def _dense_inputs(cls, rng, n):
        """A dense vector up to the largest r <= 8 with C(n + r, n) <= 500; at
        n = 3 also a purely imaginary one and a degree-4 part whose
        coefficients all have different denominators."""
        r = max(r for r in range(9) if math.comb(n + r, n) <= 500)
        out = [cls._dense_vector(rng, n, r)]
        if n == 3:
            out.append(cls._dense_vector(rng, n, 6, imaginary=True))
            quartic = [a for a in product(range(5), repeat=n) if sum(a) == 4]
            out.append(DeltaVector(n, {a: GaussianRational(Fraction(1, i + 1), Fraction(-1, i + 2))
                                       for i, a in enumerate(quartic)}))
        return out

    def test_direct_rules_match_generic_operator_action(self):
        rng = random.Random(4417)
        dense_rng = random.Random(2017)
        for n in range(1, 6):
            base = default_signature(n)
            for sig in (base, tuple(-s for s in base)):
                config = FeynmanConfig(n, sig, Fraction(rng.randint(0, 3), rng.randint(1, 2)))
                box = dalembert(config.n, 0, config.signature)
                interval = squared_interval(config.n, config.signature)
                sparse = [self._seeded_vector(rng, n) for _ in range(6)]
                for w in sparse + (self._dense_inputs(dense_rng, n) if n >= 2 else []):
                    got = harmonic_components(config, w)
                    assert got == _generic_harmonic_components(config, w), (n, sig, str(w))
                    total = DeltaVector.zero(n)
                    for j, h in got.items():
                        assert not h.is_zero()
                        assert interval.apply_delta(h).is_zero()
                        for _ in range(j):
                            h = box.apply_delta(h)
                        total = total + h
                    assert total == w

    def test_one_krylov_chain_per_degree_part(self, monkeypatch):
        # a dense complex vector at n = 3 of degree <= 6: each degree k runs
        # floor(k/2) box steps on its real part and as many on its imaginary
        # part, however often the vector is split
        calls = []
        original = chi_mod._box_delta
        monkeypatch.setattr(chi_mod, "_box_delta",
                            lambda sig, v: calls.append(1) or original(sig, v))
        config = FeynmanConfig(3, (1, -1, -1), Fraction(3, 2))
        w = self._dense_vector(random.Random(63), 3, 6)
        want = _generic_harmonic_components(config, w)
        for _ in range(2):
            calls.clear()
            assert harmonic_components(config, w) == want
            assert len(calls) == 2 * sum(k // 2 for k in range(7)) == 18

    def test_no_generic_operator_action(self, monkeypatch):
        def refuse(self, v):
            raise AssertionError("apply_delta called")
        w = ConstCoeffOperator.monomial(CFG1, (0, 0, 1, 1, 2, 3)).apply_to_delta()
        want = _generic_harmonic_components(CFG1, w)
        monkeypatch.setattr(OperatorExpr, "apply_delta", refuse)
        assert harmonic_components(CFG1, w) == want

    def test_cancelling_terms_and_zero_input(self):
        box = ConstCoeffOperator.box(CFG1).apply_to_delta()
        # box delta and a trace-free second derivative: no j = 0 part from box
        w = box + DeltaVector.basis(4, (0, 1, 1, 0)).scale(I)
        got = harmonic_components(CFG1, w)
        assert got == _generic_harmonic_components(CFG1, w)
        assert set(got) == {0, 1}
        assert harmonic_components(CFG1, DeltaVector.zero(4)) == {}
        assert harmonic_components(CFG1, w - w) == {}


@st.composite
def _signature_and_exponent(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    sig = tuple(draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)))
    gamma = [0] * n
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        gamma[draw(st.integers(min_value=0, max_value=n - 1))] += 1
    return sig, tuple(gamma)


class TestOrbitSplit:
    """One kept trace split per orbit of (signature, exponent) under
    coordinate permutations and g -> -g, moved back by relabelling."""

    @settings(max_examples=200, deadline=None)
    @given(_signature_and_exponent())
    @example(((1, -1, 1, -1), (0, 2, 1, 1)))  # equal classes, flipped by the tie-break
    @example(((-1, 1, -1, 1), (0, 2, 1, 1)))  # equal classes, kept by the tie-break
    @example(((1, -1, 1, -1), (2, 1, 1, 2)))  # equal classes with equal exponents
    @example(((1, -1, 1, -1, 1), (1, 3, 0, 1, 0)))  # classes not contiguous, flipped
    @example(((1,), (5,)))
    @example(((-1,), (4,)))
    @example(((1, -1, -1, -1), (0, 0, 0, 0)))
    def test_relabelled_split_equals_the_direct_split(self, case):
        sig, gamma = case
        n = len(sig)
        d, h = chi_mod._monomial_split(sig, gamma)
        got = {j: DeltaVector(n, chi_mod._over(h[j], d)) for j in h}
        want = harmonic_components(FeynmanConfig(n, sig), DeltaVector(n, {gamma: ONE}))
        assert got == want

    @pytest.mark.parametrize("signatures, orbits", [
        # one orbit per exponent of the time coordinate and partition of the
        # rest into at most three parts
        (((1, -1, -1, -1), (-1, 1, 1, 1)), 11),
        # one per unordered pair of partitions into at most two parts, one
        # per sign class: 14 ordered pairs, 2 of them equal; the flip
        # tie-break joins the two orders
        (((1, -1, 1, -1), (-1, 1, -1, 1)), 8),
    ], ids=["one-three", "two-two"])
    @pytest.mark.usefixtures("fresh_split_tables")
    def test_one_split_per_orbit(self, monkeypatch, signatures, orbits):
        # every exponent of order 4 at n = 4 on two opposite metrics, 2 * 35
        # monomials; both metrics share each split
        calls = []
        original = chi_mod._split_degree
        monkeypatch.setattr(chi_mod, "_split_degree",
                            lambda *args: calls.append(args) or original(*args))
        for sig in signatures:
            config = FeynmanConfig(4, sig, Fraction(3, 2))
            for key in combinations_with_replacement(range(4), 4):
                got = chi_projection(ConstCoeffOperator.monomial(config, key), ONE, config)
                assert got.chi.coeffs == chi_explicit(key, 4, config.m2, sig).coeffs
        assert len(calls) == orbits


class TestLevelProjectionRoute:
    def test_massless_agrees_with_theta_at_every_level(self):
        cfg = CFG0
        for k in range(4):
            for idx in set(tuple(sorted(t)) for t in product(range(4), repeat=k)):
                s = ConstCoeffOperator.monomial(cfg, idx)
                want = theta_counterterm(s, ONE, cfg)
                base = max(s.order() - 2, 0)
                for level in (base, base + 1):
                    got = counterterm_level_projection(s, ONE, level, cfg)
                    assert got == want, (idx, level)

    def test_level_below_degree_bound_is_refused(self):
        # the record {box: S delta} at level order(S) - 3 has a residue of
        # degree above its bound, so no counterterm is formed
        s = ConstCoeffOperator.monomial(CFG0, (0, 1, 2))
        with pytest.raises(DegreeOverflow):
            counterterm_level_projection(s, ONE, s.order() - 3, CFG0)

    def test_massive_level_route_breaks_degree_bound(self):
        # documents why the spectral route replaces the literal restriction
        # construction for m != 0: already theta(1) would acquire a delta term
        cfg = CFG1
        one = ConstCoeffOperator.one(cfg)
        got = counterterm_level_projection(one, ONE, 0, cfg)
        assert not got.is_zero()
        assert theta_counterterm(one, ONE, cfg).is_zero()


class TestLambdaContraction:
    def test_single_pair(self):
        out = lambda_contraction((2, 3), (1, -1, -1, -1))
        assert out == [(ZERO, ())]
        out = lambda_contraction((2, 2), (1, -1, -1, -1))
        assert out == [(GaussianRational.of(-1), ())]

    def test_off_diagonal_zero(self):
        out = lambda_contraction((0, 1), (1, -1, -1, -1))
        assert out == [(ZERO, ())]

    def test_three_indices(self):
        out = lambda_contraction((1, 1, 2), (1, -1, -1, -1))
        assert out == [(GaussianRational.of(-1), (2,)), (ZERO, (1,)), (ZERO, (1,))]

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            lambda_contraction((0, 4), (1, -1, -1, -1))

    def test_metric_is_checked(self):
        # a weight 2 is no metric entry, and n = 0 has no metric
        with pytest.raises(InvalidSignature, match="not a diagonal"):
            lambda_contraction((0, 0), (2, -1))
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            lambda_contraction((), ())


class TestAlphaCoefficient:
    def test_first_order(self):
        for n, denom in ((4, 4), (2, 2)):
            cfg = FeynmanConfig(n, (1,) + (-1,) * (n - 1), Fraction(1))
            got = alpha_coefficient(1, 2, n, Fraction(1), cfg.signature)
            want = ConstCoeffOperator.klein_gordon(cfg).scale(Fraction(-1, denom))
            assert got.coeffs == want.coeffs

    def test_second_order(self):
        # alpha_2^4 in n = 4: (box+m^2)(box/48 + m^2/24)
        cfg = CFG1
        got = alpha_coefficient(2, 4, 4, Fraction(1), cfg.signature)
        box = ConstCoeffOperator.box(cfg)
        want = ConstCoeffOperator.klein_gordon(cfg) * (
            box.scale(Fraction(1, 48)) + ConstCoeffOperator.one(cfg).scale(Fraction(1, 24)))
        assert got.coeffs == want.coeffs

    @pytest.mark.parametrize("m2", [Fraction(0), Fraction(3, 2)])
    @pytest.mark.parametrize("sig", [(1, -1, -1, -1), (-1, 1, 1, 1)])
    def test_closed_form_from_box_powers(self, sig, m2):
        # alpha_j^k = (-1)^j KG sum_p C(j-1, p) m2^p / prod_q (n + 2k - 2p - 2q - 4)
        # box^(j-1-p), every 1 <= j <= k/2 with k <= 8, box^i as i products
        n = 4
        cfg = FeynmanConfig(n, sig, m2)
        box = ConstCoeffOperator.box(cfg)
        for k in range(2, 9):
            for j in range(1, k // 2 + 1):
                total = ConstCoeffOperator.zero(cfg)
                for p in range(j):
                    denom = math.prod(n + 2 * k - 2 * p - 2 * q - 4 for q in range(j))
                    c = Fraction(math.comb(j - 1, p)) * m2 ** p / denom
                    total = total + _power(box, j - 1 - p).scale(c)
                want = (ConstCoeffOperator.klein_gordon(cfg) * total).scale((-1) ** j)
                assert alpha_coefficient(j, k, n, m2, sig).coeffs == want.coeffs

    def test_j_zero_is_identity(self):
        got = alpha_coefficient(0, 3, 4, Fraction(2), CFG0.signature)
        assert got.coeffs == ConstCoeffOperator.one(CFG0).coeffs

    def test_out_of_range_guard(self):
        with pytest.raises(ValueError):
            alpha_coefficient(1, 1, 2, Fraction(0), (1, -1))

    def test_zero_dimension_rejected(self):
        # with n >= 1 every factor n + 2k - 2p - 2q - 4 of the denominator is >= n
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            FeynmanConfig(0, ())
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            alpha_coefficient(1, 2, 0, 0, signature=())


class TestChiExplicit:
    def test_first_order_bare(self):
        got = chi_explicit((0,), 4, Fraction(0))
        assert got.coeffs == ConstCoeffOperator.monomial(CFG0, (0,)).coeffs

    def test_second_order_diagonal(self):
        got = chi_explicit((0, 0), 4, Fraction(1))
        want = ConstCoeffOperator.monomial(CFG1, (0, 0)) - \
            ConstCoeffOperator.klein_gordon(CFG1).scale(Fraction(1, 4))
        assert got.coeffs == want.coeffs

    def test_second_order_off_diagonal(self):
        got = chi_explicit((0, 1), 4, Fraction(2))
        cfg = FeynmanConfig(4, (1, -1, -1, -1), Fraction(2))
        assert got.coeffs == ConstCoeffOperator.monomial(cfg, (0, 1)).coeffs


def _ordered_chi_explicit(indices, n, m2, sig):
    """The explicit formula summed over every ordered sequence of pair
    contractions, one term per sequence, in Gaussian-rational operator
    arithmetic; alpha is read through `alpha_coefficient`."""
    config = FeynmanConfig(n, sig, m2)
    k = len(indices)
    total = ConstCoeffOperator.monomial(config, indices)
    terms = [(ONE, tuple(indices))]
    for j in range(1, k // 2 + 1):
        terms = [(w * w2, reduced) for w, rest in terms
                 for w2, reduced in lambda_contraction(rest, sig)]
        pj = ConstCoeffOperator.zero(config)
        for w, rest in terms:
            pj = pj + ConstCoeffOperator.monomial(config, rest).scale(w)
        total = total + chi_mod.alpha_coefficient(j, k, n, m2, sig) * pj.scale(
            Fraction(1, math.factorial(j)))
    return total


@pytest.fixture
def fresh_explicit_table():
    """An empty `_explicit_chi` before and after the test: a test that
    patches `chi._alpha` must not read images made without the
    patch, nor leave its own for the tests after it."""
    chi_mod._explicit_chi.cache_clear()
    yield
    chi_mod._explicit_chi.cache_clear()


class TestChiExplicitMultisetSum:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_ordering_matches_the_ordered_sum(self, n):
        # the table keeps one image per exponent; the ordered sum is formed
        # afresh for each ordering
        base = default_signature(n)
        for multiset in ((0, 0, 1, 1), (0, 0, 1, 1, 2), (0, 0, 0, 1, 1, 1)):
            if max(multiset) >= n:
                continue
            for sig in (base, tuple(-g for g in base)):
                for m2 in (Fraction(0), Fraction(3, 2)):
                    for idx in sorted(set(permutations(multiset))):
                        got = chi_explicit(idx, n, m2, sig)
                        assert got.coeffs == _ordered_chi_explicit(idx, n, m2, sig).coeffs

    @pytest.mark.usefixtures("fresh_explicit_table")
    def test_alpha_read_once_per_multiset(self, monkeypatch):
        # six orderings of (0, 0, 1, 1) read alpha_1^4 and alpha_2^4 once each
        original = chi_mod._alpha
        calls = []

        def counted(j, k, config):
            calls.append((j, k))
            return original(j, k, config)

        monkeypatch.setattr(chi_mod, "_alpha", counted)
        images = [chi_explicit(idx, 4, Fraction(1)).coeffs
                  for idx in set(permutations((0, 0, 1, 1)))]
        assert len(images) == 6 and all(c == images[0] for c in images)
        assert sorted(calls) == [(1, 4), (2, 4)]

    def test_matches_the_ordered_sum(self):
        rng = random.Random(15)
        for n in (1, 2, 3, 4, 5):
            base = default_signature(n)
            for sig in (base, tuple(-g for g in base)):
                for m2 in (Fraction(0), Fraction(3, 2), Fraction(-7, 3), Fraction(5, 9)):
                    for k in range(7):
                        idx = tuple(rng.randrange(n) for _ in range(k))
                        got = chi_explicit(idx, n, m2, sig)
                        assert got.coeffs == _ordered_chi_explicit(idx, n, m2, sig).coeffs


class TestIntegerNumerators:
    """Both routes run on integer numerators over one denominator."""

    def test_no_gaussian_rational_arithmetic(self, monkeypatch):
        # with alpha kept, one order-6 explicit call and one new trace-split
        # image add, subtract and multiply integers only
        config = FeynmanConfig(4, (-1, 1, 1, 1), Fraction(3, 2))
        idx = (2, 0, 1, 1, 0, 2)
        gamma = (2, 2, 2, 0)
        want = chi_explicit(idx, 4, config.m2, config.signature)
        chi_mod._basis_chi.cache_clear()
        chi_mod._orbit_split.cache_clear()
        chi_mod._explicit_chi.cache_clear()
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
            original = vars(GaussianRational)[name]
            monkeypatch.setattr(GaussianRational, name,
                                lambda x, y, f=original, name=name: calls.append(name) or f(x, y))
        got = chi_explicit(idx, 4, config.m2, config.signature)
        chi, chi1 = chi_mod._basis_chi(config, gamma)
        monkeypatch.undo()
        assert calls == []
        assert got.coeffs == want.coeffs == chi.coeffs
        kg = ConstCoeffOperator.klein_gordon(config)
        s = ConstCoeffOperator.monomial(config, idx)
        assert chi.coeffs == (s + chi1 * kg).coeffs

    @pytest.mark.parametrize("sig, m2, gamma", [
        ((1, -1, -1, -1), Fraction(0), (2, 2, 0, 0)),
        ((-1, 1, 1, 1), Fraction(3, 2), (0, 1, 3, 2)),
        ((1, -1, 1, -1), Fraction(5, 9), (2, 1, 1, 3)),
    ])
    @pytest.mark.usefixtures("fresh_split_tables")
    def test_one_division_per_output_coefficient(self, monkeypatch, sig, m2, gamma):
        # a cold table miss divides each coefficient of chi and chi1 once and
        # nothing else: the split stays on integer numerators
        calls = []
        original = chi_mod._reduced
        monkeypatch.setattr(chi_mod, "_reduced",
                            lambda *args: calls.append(args) or original(*args))
        chi, chi1 = chi_mod._basis_chi(FeynmanConfig(4, sig, m2), gamma)
        assert chi.coeffs and chi1.coeffs
        assert len(calls) == len(chi.coeffs) + len(chi1.coeffs)


class TestFeynmanConfig:
    def test_list_signature_is_stored_as_a_tuple(self):
        listed = FeynmanConfig(2, [1, -1], 1)
        tupled = FeynmanConfig(2, (1, -1), Fraction(1))
        assert listed.signature == (1, -1)
        assert listed == tupled and hash(listed) == hash(tupled)
        total = ConstCoeffOperator.one(listed) + ConstCoeffOperator.one(tupled)
        assert total.coeffs == {(0, 0): GaussianRational.of(2)}
        assert chi_explicit((0, 0), 2, 1, [1, -1]).coeffs == \
            chi_explicit((0, 0), 2, Fraction(1), (1, -1)).coeffs

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_default_signature_follows_the_dimension(self, n):
        config = FeynmanConfig(n)
        assert config.signature == default_signature(n)
        explicit = FeynmanConfig(n, default_signature(n))
        assert config == explicit and hash(config) == hash(explicit)

    def test_mass_is_read_as_an_exact_rational(self):
        # a float would be read as its binary value, 0.1 as 3602879701896397/2^55
        with pytest.raises(TypeError, match="cannot interpret 0.1 as an exact rational"):
            FeynmanConfig(4, None, 0.1)
        with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
            chi_explicit((0, 0), 4, 0.5)
        # an imaginary mass too: chi's tables hold real numerators only
        with pytest.raises(TypeError, match="cannot interpret i as an exact rational"):
            FeynmanConfig(4, None, GaussianRational(0, 1))
        for m2 in (3, Fraction(3, 2), "3/2", "1.5"):
            assert FeynmanConfig(4, None, m2).m2 == Fraction(m2)

    def test_fixed_operators_are_built_once_per_config(self):
        assert alpha_coefficient(2, 5, 4, 1) is alpha_coefficient(2, 5, 4, Fraction(1), [1, -1, -1, -1])


def _ordered_crosscheck(k_max, n, m2_list):
    """`chi_crosscheck` on both metrics as one comparison per ordered
    monomial, each ordering through the module's two routes."""
    base = default_signature(n)
    signatures = (base, tuple(-g for g in base))
    mismatches = []
    checked = 0
    for sig in signatures:
        for m2 in m2_list:
            config = FeynmanConfig(n, sig, m2)
            for k in range(k_max + 1):
                for idx in product(range(n), repeat=k):
                    checked += 1
                    proj = chi_projection(ConstCoeffOperator.monomial(config, idx), ONE, config).chi
                    expl = chi_mod.chi_explicit(idx, n, m2, sig)
                    if proj.coeffs != expl.coeffs:
                        mismatches.append(chi_mod.CrosscheckEntry(
                            config.signature, config.m2, idx, str(proj), str(expl)))
    return chi_mod.CrosscheckReport(signatures, checked, tuple(mismatches))


class TestCrosscheck:
    def test_vacuous(self):
        rep = chi_crosscheck(0, 4, [Fraction(0)])
        assert rep.ok and rep.checked == 2

    def test_negative_order_is_refused(self):
        # no monomial has a negative order: a pass would have checked nothing
        with pytest.raises(ValueError, match="k_max -1 is negative"):
            chi_crosscheck(-1, 4, [Fraction(0)])

    @pytest.mark.parametrize("masses, signatures, missing", [
        ([], None, "mass"),
        ([Fraction(0)], (), "metric"),
    ], ids=["no-mass", "no-metric"])
    def test_sweep_that_compares_nothing_is_refused(self, monkeypatch, masses, signatures,
                                                    missing):
        # zero comparisons would report ok with checked = 0
        calls = []
        one = ConstCoeffOperator.one(FeynmanConfig(4))
        monkeypatch.setattr(chi_mod, "chi_projection",
                            lambda *args: calls.append(args) or ChiResult(one, one, 0))
        monkeypatch.setattr(chi_mod, "chi_explicit", lambda *args: calls.append(args) or one)
        with pytest.raises(ValueError, match=f"the sweep has no {missing} and would compare "
                                             "nothing"):
            chi_crosscheck(2, 4, masses, signatures=signatures)
        assert calls == []

    def test_sweep_over_the_budget_is_refused_before_any_route_runs(self, monkeypatch):
        # 2 metrics * 2 masses * (1 + 4 + ... + 4^8) = 349,524 comparisons,
        # over MAX_CHI_COMPARISONS; the stubbed routes would finish them fast
        calls = []
        one = ConstCoeffOperator.one(FeynmanConfig(4))
        monkeypatch.setattr(chi_mod, "chi_projection",
                            lambda *args: calls.append(args) or ChiResult(one, one, 0))
        monkeypatch.setattr(chi_mod, "chi_explicit", lambda *args: calls.append(args) or one)
        with pytest.raises(ValueError, match="k_max 8 at n = 4 exceeds the maximum of "
                                             "100000 comparisons"):
            chi_crosscheck(8, 4, [Fraction(0), Fraction(1)])
        assert calls == []
        assert chi_crosscheck(7, 4, [Fraction(0), Fraction(1)]).checked == 87_380

    def test_small(self):
        rep = chi_crosscheck(2, 4, [Fraction(0), Fraction(1)],
                             signatures=((1, -1, -1, -1),))
        assert rep.ok
        assert rep.checked == 2 * (1 + 4 + 16)

    @pytest.mark.usefixtures("fresh_explicit_table")
    def test_mutation_detected(self, monkeypatch):
        # flip the sign of every nontrivial alpha: the detector must fire
        original = chi_mod._alpha

        def flipped(j, k, config):
            return original(j, k, config).scale(-1)

        monkeypatch.setattr(chi_mod, "_alpha", flipped)
        rep = chi_crosscheck(2, 4, [Fraction(0)], signatures=((1, -1, -1, -1),))
        assert not rep.ok
        assert all(m.indices for m in rep.mismatches)  # only k >= 2 can differ

    def test_mismatch_report_lists_every_ordering(self, monkeypatch):
        # an explicit route wrong on the multisets with two 1s: the report,
        # comparing each multiset once, equals the one that compares every
        # ordering, entries in product order
        original = chi_mod.chi_explicit

        def wrong(indices, n, m2, signature=None):
            out = original(indices, n, m2, signature)
            return out.scale(2) if list(indices).count(1) == 2 else out

        monkeypatch.setattr(chi_mod, "chi_explicit", wrong)
        masses = [Fraction(0), Fraction(3, 2)]
        rep = chi_crosscheck(4, 3, masses)
        assert rep == _ordered_crosscheck(4, 3, masses)
        # 11; 011, 112 (3 orderings each); 0011, 1122 (6), 0112 (12); per configuration
        assert len(rep.mismatches) == 2 * 2 * (1 + 6 + 24)
        assert [m.indices for m in rep.mismatches[:4]] == \
            [(1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_projection_once_per_multiset(self, monkeypatch):
        original = chi_mod.chi_projection
        seen = []

        def counted(s_op, c=ONE, config=None):
            seen.append((config, tuple(s_op.coeffs)))
            return original(s_op, c, config)

        monkeypatch.setattr(chi_mod, "chi_projection", counted)
        rep = chi_crosscheck(3, 4, [Fraction(0), Fraction(1)], signatures=((1, -1, -1, -1),))
        assert rep.ok and rep.checked == 2 * (1 + 4 + 16 + 64)
        # 1 + 4 + 10 + 20 exponent multisets of order <= 3, per mass
        assert len(seen) == len(set(seen)) == 2 * 35

    def test_order_six_all_masses_both_metrics(self):
        start = time.perf_counter()
        rep = chi_crosscheck(6, 4, [Fraction(0), Fraction(1), Fraction(3, 2)])
        elapsed = time.perf_counter() - start
        assert rep.ok
        assert rep.checked == 2 * 3 * sum(4 ** k for k in range(7))
        assert elapsed < 60.0
