import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from onshell.scalar import GaussianRational, I, ONE, ZERO
from onshell.deltaspace import DegreeOverflow, DeltaVector, DimensionMismatch
from onshell.opalg import OperatorExpr, dalembert, default_signature, squared_interval
from onshell import chi as chi_mod
from onshell.chi import (
    ConstCoeffOperator,
    FeynmanConfig,
    alpha_coefficient,
    chi_crosscheck,
    chi_explicit,
    chi_projection,
    counterterm_level_projection,
    harmonic_components,
    lambda_contraction,
    theta_counterterm,
)

CFG0 = FeynmanConfig(4, (1, -1, -1, -1), Fraction(0))
CFG1 = FeynmanConfig(4, (1, -1, -1, -1), Fraction(1))
CFGS = (CFG0, CFG1)


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
    if s_op.order() + config.deg_v < 0:
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
    seeded multi-term operators with complex coefficients, order <= 6."""

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

    @pytest.mark.parametrize("m2", [Fraction(0), Fraction(1), Fraction(3, 2)])
    @pytest.mark.parametrize("sig", [(1, -1, -1, -1), (-1, 1, 1, 1)])
    def test_table_matches_product_formula(self, sig, m2):
        rng = random.Random(f"{sig}{m2}")
        config = FeynmanConfig(4, sig, m2)
        kg = ConstCoeffOperator.klein_gordon(config)
        for _ in range(8):
            s = self._seeded_operator(rng, config)
            chi_mod._basis_chi.cache_clear()
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

    def test_self_check_fires(self, monkeypatch):
        # a split that drops the box^1 component breaks chi = S + chi1 (box + m^2)
        original = chi_mod.harmonic_components

        def dropped(config, w):
            return {j: h for j, h in original(config, w).items() if j != 1}

        chi_mod._basis_chi.cache_clear()
        monkeypatch.setattr(chi_mod, "harmonic_components", dropped)
        with pytest.raises(AssertionError, match="spectral chi contract"):
            chi_projection(ConstCoeffOperator.monomial(CFG1, (0, 0, 1, 1)), ONE, CFG1)
        chi_mod._basis_chi.cache_clear()

    def test_configuration_mismatch_rejected(self):
        s = ConstCoeffOperator.monomial(CFG0, (0, 0))
        with pytest.raises(DimensionMismatch):
            chi_projection(s, ONE, CFG1)


class TestFundamentalSolutionDegree:
    def test_deg_v_moves_the_threshold(self):
        # a (hypothetical) fundamental solution of degree -4 leaves order-3
        # monomials below the counterterm threshold
        cfg = FeynmanConfig(4, (1, -1, -1, -1), Fraction(1), deg_v=-4)
        s = ConstCoeffOperator.monomial(cfg, (0, 1, 2))
        assert theta_counterterm(s, ONE, cfg).is_zero()
        cfg2 = FeynmanConfig(4, (1, -1, -1, -1), Fraction(1))
        s2 = ConstCoeffOperator.monomial(cfg2, (0, 0, 1))
        assert not theta_counterterm(s2, ONE, cfg2).is_zero()


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

    def test_direct_rules_match_generic_operator_action(self):
        rng = random.Random(4417)
        for n in range(1, 5):
            base = default_signature(n)
            for sig in (base, tuple(-s for s in base)):
                config = FeynmanConfig(n, sig, Fraction(rng.randint(0, 3), rng.randint(1, 2)))
                box = dalembert(config.n, 0, config.signature)
                interval = squared_interval(config.n, config.signature)
                for _ in range(6):
                    w = self._seeded_vector(rng, n)
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
    contractions, one term per sequence."""
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
        total = total + alpha_coefficient(j, k, n, m2, sig) * pj.scale(
            Fraction(1, math.factorial(j)))
    return total


class TestChiExplicitMultisetSum:
    def test_matches_the_ordered_sum(self):
        rng = random.Random(15)
        for n in (2, 3, 4):
            base = default_signature(n)
            for sig in (base, tuple(-g for g in base)):
                for m2 in (Fraction(0), Fraction(3, 2)):
                    for k in range(7):
                        idx = tuple(rng.randrange(n) for _ in range(k))
                        got = chi_explicit(idx, n, m2, sig)
                        assert got.coeffs == _ordered_chi_explicit(idx, n, m2, sig).coeffs


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

    def test_fixed_operators_are_built_once_per_config(self):
        assert alpha_coefficient(2, 5, 4, 1) is alpha_coefficient(2, 5, 4, Fraction(1), [1, -1, -1, -1])


class TestCrosscheck:
    def test_vacuous(self):
        rep = chi_crosscheck(0, 4, [Fraction(0)])
        assert rep.ok and rep.checked == 2

    def test_small(self):
        rep = chi_crosscheck(2, 4, [Fraction(0), Fraction(1)],
                             signatures=((1, -1, -1, -1),))
        assert rep.ok
        assert rep.checked == 2 * (1 + 4 + 16)

    def test_mutation_detected(self, monkeypatch):
        # flip the sign of every nontrivial alpha: the detector must fire
        original = chi_mod.alpha_coefficient

        def flipped(j, k, n, m2, signature=None):
            out = original(j, k, n, m2, signature)
            return out.scale(-1) if j >= 1 else out

        monkeypatch.setattr(chi_mod, "alpha_coefficient", flipped)
        rep = chi_crosscheck(2, 4, [Fraction(0)], signatures=((1, -1, -1, -1),))
        assert not rep.ok
        assert all(m.indices for m in rep.mismatches)  # only k >= 2 can differ

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
