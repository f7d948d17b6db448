import random
from fractions import Fraction

import pytest

from onshell.scalar import GaussianRational, I, ONE, ZERO
from onshell.deltaspace import DeltaVector, DegreeOverflow, enumerate_multi_indices
from onshell.opalg import (
    OperatorExpr,
    Polynomial,
    commutator,
    dalembert,
    euler,
    lorentz_generator,
    operator_equal,
)
import onshell.extension as extension
import onshell.spectral as spectral
from onshell.spectral import kernel_basis, restrict
from onshell.extension import (
    CasimirHypothesisError,
    CasimirReport,
    ExtensionRecord,
    MissingResidue,
    NonCommutingOperators,
    NonNormalRestriction,
    apply_counterterm,
    casimir_correction,
    existence_check,
    homogeneous_extension_unique,
    linearity_precondition,
    lorentz_casimir_setup,
    multi_commuting_correction,
    onshell_correction,
    order_raising_correction,
    renorm_map,
    verify_casimir_hypotheses,
)

from conftest import random_delta_vector, structured_operator

DELTA1 = DeltaVector.basis(1, (0,))


class TestExistence:
    @pytest.mark.parametrize("c", [ONE, GaussianRational.of(Fraction(7, 3)), I,
                                   GaussianRational(-2, 5)])
    def test_no_extension_for_critical_euler(self, c):
        # the inverse-modulus model: R = x d + 1, residue c delta, R|_0 = 0
        r_op = euler(1, Fraction(-1))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(c)})
        rep = existence_check(rec, r_op)
        assert not rep.exists
        assert rep.certificate == DELTA1  # adjoint-kernel witness

    def test_invertible_euler(self):
        r_op = euler(1, Fraction(-1, 2))
        beta = GaussianRational.of(Fraction(5, 2))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(beta)})
        rep = existence_check(rec, r_op)
        assert rep.exists
        assert rep.certificate == DELTA1.scale(beta * -2)

    def test_zero_residue(self):
        r_op = euler(1, Fraction(-1))
        rec = ExtensionRecord(1, 0, {r_op: DeltaVector.zero(1)})
        rep = existence_check(rec, r_op)
        assert rep.exists and rep.certificate.is_zero()

    def test_missing_residue(self):
        rec = ExtensionRecord(1, 0, {})
        with pytest.raises(MissingResidue):
            existence_check(rec, euler(1, Fraction(-1)))

    def test_residue_degree_validated(self):
        with pytest.raises(DegreeOverflow):
            ExtensionRecord(1, 0, {euler(1, Fraction(0)): DeltaVector.basis(1, (1,))})


class TestOnshellCorrection:
    def test_zero_residue_gives_zero(self):
        r_op = euler(1, Fraction(-1, 2))
        rec = ExtensionRecord(1, 0, {r_op: DeltaVector.zero(1)})
        assert onshell_correction(rec, r_op).is_zero()

    def test_scalar_case(self):
        r_op = euler(1, Fraction(-1, 2))
        beta = GaussianRational.of(Fraction(3))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(beta)})
        v = onshell_correction(rec, r_op)
        assert v == DELTA1.scale(beta * 2)
        assert apply_counterterm(rec, v).residue(r_op).is_zero()

    def test_obstructed_case_unchanged(self):
        r_op = euler(1, Fraction(-1))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(GaussianRational.of(3))})
        v = onshell_correction(rec, r_op)
        assert v.is_zero()
        assert apply_counterterm(rec, v).residue(r_op) == rec.residue(r_op)

    def test_existence_equivalence_random(self):
        rng = random.Random(17)
        for _ in range(25):
            n = rng.choice([1, 2])
            q = structured_operator(rng, n)
            r = rng.randint(0, 2)
            m = restrict(q, r)
            if rng.random() < 0.5:
                w = m.matvec(random_delta_vector(rng, n, r))
            else:
                w = random_delta_vector(rng, n, r + q.essential_order().q)
            rec = ExtensionRecord(n, r, {q: w})
            rep = existence_check(rec, q)
            corrected = apply_counterterm(rec, onshell_correction(rec, q)).residue(q)
            assert rep.exists == corrected.is_zero()

    def test_correction_is_projection_at_residue_level(self):
        rng = random.Random(23)
        for _ in range(10):
            q = structured_operator(rng, 2)
            r = rng.randint(0, 2)
            w = random_delta_vector(rng, 2, r + q.essential_order().q)
            rec = ExtensionRecord(2, r, {q: w})
            rec1 = apply_counterterm(rec, onshell_correction(rec, q))
            rec2 = apply_counterterm(rec1, onshell_correction(rec1, q))
            assert rec1.residue(q) == rec2.residue(q)

    def test_one_minimal_polynomial_per_correction(self, monkeypatch):
        # the counterterm is a least-norm solve: no minimal polynomial at all.
        # Kept matrices keep what they cached: start from empty tables
        restrict.cache_clear()
        calls = []
        original = spectral.minimal_polynomial

        def counting(m):
            calls.append(m.nrows)
            return original(m)
        monkeypatch.setattr(spectral, "minimal_polynomial", counting)
        q = dalembert(2, 1)
        w = random_delta_vector(random.Random(3), 2, 3)
        onshell_correction(ExtensionRecord(2, 1, {q: w}), q)
        assert calls == []

    def test_self_check_catches_a_wrong_projection_polynomial(self, monkeypatch):
        # the rotation generator has a two-dimensional kernel at r = 2 that is
        # not spanned by basis vectors; a solve that keeps its free variables
        # at 0 and skips the kernel step still solves B v = -A* w, so only the
        # orthogonality of v to ker B fails
        q = lorentz_generator(2, 0, 1, (1, -1))
        rec = ExtensionRecord(2, 2, {q: random_delta_vector(random.Random(3), 2, 2)})
        onshell_correction(rec, q)
        monkeypatch.setattr("onshell.extension._min_norm_solve",
                            lambda m, rhs: spectral._solve(m.parts, rhs, m.ncols)[0])
        with pytest.raises(AssertionError, match="projection contract"):
            onshell_correction(rec, q)
        # a zero counterterm is orthogonal to everything; A* w != 0 fails
        monkeypatch.setattr("onshell.extension._min_norm_solve", lambda m, rhs: [ZERO] * m.ncols)
        with pytest.raises(AssertionError, match="projection contract"):
            onshell_correction(rec, q)


class TestApplyCounterterm:
    def test_zero_counterterm(self):
        r_op = euler(1, Fraction(-2))
        rec = ExtensionRecord(1, 1, {r_op: DeltaVector.basis(1, (1,))})
        assert apply_counterterm(rec, DeltaVector.zero(1)).residues == rec.residues

    def test_negated_preimage_clears_residue(self):
        r_op = euler(1, Fraction(-1, 2))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(GaussianRational.of(4))})
        pre = existence_check(rec, r_op).certificate
        assert apply_counterterm(rec, pre.scale(-1)).residue(r_op).is_zero()

    def test_updates_all_registered_operators(self):
        # oracle: recompute each residue by direct application
        rng = random.Random(3)
        e1, e2 = euler(2, Fraction(-1, 3)), euler(2, Fraction(2))
        w0 = random_delta_vector(rng, 2, 1)
        rec = ExtensionRecord.from_ambiguity(2, 1, [e1, e2], w0)
        v = random_delta_vector(rng, 2, 1)
        rec2 = apply_counterterm(rec, v)
        for op in (e1, e2):
            assert rec2.residue(op) == op.apply_delta(w0) + op.apply_delta(v)

    def test_degree_guard(self):
        rec = ExtensionRecord(1, 0, {euler(1, Fraction(0)): DeltaVector.zero(1)})
        with pytest.raises(DegreeOverflow):
            apply_counterterm(rec, DeltaVector.basis(1, (1,)))


class TestOrderRaising:
    def test_inverse_modulus_model(self):
        # R = x d + 1: R delta = 0, so R^2 kills the extension with no counterterm
        r_op = euler(1, Fraction(-1))
        c = GaussianRational.of(Fraction(5, 7))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(c)})
        v = order_raising_correction(rec, r_op, 1)
        assert v.is_zero()
        assert r_op.apply_delta(rec.residue(r_op) + restrict(r_op, 0).matvec(v)).is_zero()

    def test_k_zero_delegates(self):
        r_op = euler(1, Fraction(-1, 2))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(GaussianRational.of(2))})
        assert order_raising_correction(rec, r_op, 0) == onshell_correction(rec, r_op)

    def test_kernel_direction_needs_nothing(self):
        r_op = euler(1, Fraction(-2))
        w = DeltaVector.basis(1, (1,)).scale(GaussianRational.of(Fraction(1, 2)))
        rec = ExtensionRecord(1, 1, {r_op: w})
        v = order_raising_correction(rec, r_op, 1)
        assert v.is_zero()
        assert restrict(r_op, 1).matvec(w).is_zero()

    def test_raises_order_by_one(self):
        # R = Euler(a) with a kernel level inside r: residue not correctable
        # for R, but the corrected extension satisfies R^2 = 0
        r_op = euler(2, Fraction(-3))  # kernel at |alpha| = 1
        rng = random.Random(8)
        w0 = random_delta_vector(rng, 2, 1)
        rec = ExtensionRecord.from_ambiguity(2, 1, [r_op, r_op @ r_op], w0)
        v = order_raising_correction(rec, r_op, 1)
        rec2 = apply_counterterm(rec, v)
        assert r_op.apply_delta(rec2.residue(r_op)).is_zero()

    def test_nonzero_essential_order_rejected(self):
        q = dalembert(1, 0, (1,))
        rec = ExtensionRecord(1, 0, {q: DeltaVector.zero(1)})
        with pytest.raises(ValueError):
            order_raising_correction(rec, q, 1)

    def test_non_normal_rejected(self):
        q = OperatorExpr.multiplication(Polynomial.coordinate(2, 1)) @ \
            OperatorExpr.derivative(2, (1, 0))
        rec = ExtensionRecord(2, 1, {q: DeltaVector.zero(2)})
        with pytest.raises(NonNormalRestriction):
            order_raising_correction(rec, q, 1)

    @pytest.mark.parametrize("given_rk", [False, True])
    def test_negative_power_rejected(self, given_rk):
        # with R^k given (as the CLI passes it) k = -1 was answered as k = 1
        r_op = euler(1, Fraction(-1))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1})
        with pytest.raises(ValueError, match="order raising requires k >= 0, got -1"):
            order_raising_correction(rec, r_op, -1, r_op if given_rk else None)


class TestMultiCommuting:
    def test_single_operator_equals_onshell(self):
        r_op = euler(1, Fraction(-1, 2))
        rec = ExtensionRecord(1, 0, {r_op: DELTA1.scale(GaussianRational.of(3))})
        assert multi_commuting_correction(rec, [r_op]) == onshell_correction(rec, r_op)

    def test_two_eulers(self):
        rng = random.Random(12)
        e1, e2 = euler(2, Fraction(-1, 2)), euler(2, Fraction(1, 3))
        w0 = random_delta_vector(rng, 2, 1)
        rec = ExtensionRecord.from_ambiguity(2, 1, [e1, e2], w0)
        v = multi_commuting_correction(rec, [e1, e2])
        rec2 = apply_counterterm(rec, v)
        assert rec2.residue(e1).is_zero() and rec2.residue(e2).is_zero()

    def test_non_commuting_error(self):
        # raised on every call, the second from the kept commutator
        d1 = OperatorExpr.derivative(1, (1,))
        x1 = OperatorExpr.multiplication(Polynomial.coordinate(1, 0))
        rec = ExtensionRecord(1, 0, {d1: DeltaVector.zero(1), x1: DeltaVector.zero(1)})
        for _ in range(2):
            with pytest.raises(NonCommutingOperators) as exc:
                multi_commuting_correction(rec, [d1, x1])
            assert exc.value.pair == (0, 1)
            assert operator_equal(exc.value.commutator, OperatorExpr.identity(1))
        kept = commutator(d1, x1)
        commutator.cache_clear()
        assert commutator(d1, x1) == kept


class TestCasimir:
    def test_lorentz_hypotheses_pass(self):
        c_op, gens, expr = lorentz_casimir_setup(2, (1, -1))
        for r in range(4):
            rep = verify_casimir_hypotheses(c_op, gens, r, expr)
            assert rep.passed, rep.failures

    def test_square_of_self_adjoint_passes(self):
        g = lorentz_generator(2, 0, 1, (1, -1))
        rep = verify_casimir_hypotheses(g @ g, [g], 2, [(Fraction(1), (0, 0))])
        assert rep.passed, rep.failures

    def test_linear_term_fails_shape(self):
        c_op, gens, _ = lorentz_casimir_setup(2, (1, -1))
        bad = c_op + gens[0]
        rep = verify_casimir_hypotheses(bad, gens, 1,
                                        [(Fraction(-2), (0, 0)), (Fraction(1), (0,))])
        assert not rep.shape_ok
        assert not rep.passed

    def test_correction_drives_residue_to_zero(self):
        rng = random.Random(6)
        c_op, gens, expr = lorentz_casimir_setup(2, (1, -1))
        for r in (0, 1, 2):
            w0 = random_delta_vector(rng, 2, r)
            rec = ExtensionRecord.from_ambiguity(2, r, [c_op] + gens, w0)
            v = casimir_correction(rec, c_op, gens, expr)
            rec2 = apply_counterterm(rec, v)
            for g in gens:
                assert rec2.residue(g).is_zero()

    def test_zero_residues_zero_counterterm(self):
        c_op, gens, expr = lorentz_casimir_setup(2, (1, -1))
        rec = ExtensionRecord(2, 1, {q: DeltaVector.zero(2) for q in [c_op] + gens})
        assert casimir_correction(rec, c_op, gens, expr).is_zero()

    def test_failed_hypotheses_raise(self):
        c_op, gens, _ = lorentz_casimir_setup(2, (1, -1))
        rec = ExtensionRecord(2, 1, {q: DeltaVector.zero(2) for q in [c_op] + gens})
        with pytest.raises(CasimirHypothesisError):
            casimir_correction(rec, c_op, gens, expression=None)


class TestKeptDecisions:
    """The Casimir report table keeps decisions, not the absence of an
    error: a failed hypothesis raises on every call, and a report made again
    after the table is emptied equals the kept one (the commutator table's
    counterpart is `TestMultiCommuting.test_non_commuting_error`)."""

    def test_a_failing_expression_raises_on_every_call(self):
        c_op, gens, _ = lorentz_casimir_setup(2, (1, -1))
        rec = ExtensionRecord(2, 1, {q: DeltaVector.zero(2) for q in [c_op] + gens})
        wrong = [(Fraction(1), (0, 0))]  # C is -2 M^2 at signature (+, -)
        reports = []
        for _ in range(2):
            with pytest.raises(CasimirHypothesisError) as exc:
                casimir_correction(rec, c_op, gens, wrong)
            reports.append(exc.value.report)
        assert reports[0] == reports[1]
        assert reports[0].failures == ("expression does not expand to the given operator",)
        extension._casimir_report.cache_clear()
        assert verify_casimir_hypotheses(c_op, gens, 1, wrong) == reports[0]

    def test_equal_certificates_share_one_report(self):
        c_op, gens, expr = lorentz_casimir_setup(2, (1, -1))
        kept = verify_casimir_hypotheses(c_op, gens, 1, expr)
        assert kept.passed
        assert verify_casimir_hypotheses(c_op, tuple(gens), 1,
                                         [(-2, [0, 0])]) is kept
        extension._casimir_report.cache_clear()
        assert verify_casimir_hypotheses(c_op, gens, 1, expr) == kept


class TestRenormMap:
    def test_single_nondegenerate_degree(self):
        rng = random.Random(14)
        t_op = euler(2, Fraction(-5))
        w0 = random_delta_vector(rng, 2, 1)
        rec = ExtensionRecord.from_ambiguity(2, 1, [t_op], w0)
        assert renorm_map(rec, [(-5, 1)]) == onshell_correction(rec, t_op)

    def test_degenerate_degree_lands_in_kernel(self):
        rng = random.Random(15)
        t_op = euler(2, Fraction(-3))
        w0 = random_delta_vector(rng, 2, 1)
        rec = ExtensionRecord.from_ambiguity(2, 1, [t_op], w0)
        v = renorm_map(rec, [(-3, 1)])
        res = apply_counterterm(rec, v).residue(t_op)
        # the corrected residue sits in ker R(a)|_r: the order is raised by one
        assert restrict(t_op, 1).matvec(res).is_zero()

    def test_lorentz_step_identity_on_invariant_residue(self):
        c_op, gens, expr = lorentz_casimir_setup(2, (1, -1))
        t_op = euler(2, Fraction(-2))
        w0 = DeltaVector.basis(2, (0, 0))  # invariant: C w0 = 0
        rec = ExtensionRecord.from_ambiguity(2, 0, [c_op, t_op] + gens, w0)
        assert casimir_correction(rec, c_op, gens, expr).is_zero()
        v = renorm_map(rec, [(-2, 1)], lorentz=True, signature=(1, -1))
        rec2 = apply_counterterm(rec, v)
        assert rec2.residue(t_op).is_zero()

    def test_idempotent_on_onshell_records(self):
        t_op = euler(2, Fraction(-4))
        rec = ExtensionRecord(2, 1, {t_op: DeltaVector.zero(2)})
        assert renorm_map(rec, [(-4, 1)]).is_zero()

    def test_multiplicities_compose(self):
        rng = random.Random(19)
        t_op = (euler(1, Fraction(-2)) ** 2) @ euler(1, Fraction(-3))
        w0 = random_delta_vector(rng, 1, 2)
        rec = ExtensionRecord.from_ambiguity(1, 2, [t_op], w0)
        v = renorm_map(rec, [(-2, 2), (-3, 1)])
        assert v == onshell_correction(rec, t_op)


class TestHomogeneousUniqueness:
    def test_examples(self):
        assert homogeneous_extension_unique(4, Fraction(-3), 4).unique
        rep = homogeneous_extension_unique(4, Fraction(-6), 2)
        assert not rep.unique and rep.kernel_levels == (2,)
        rep = homogeneous_extension_unique(1, Fraction(-1), 0)
        assert not rep.unique and rep.kernel_levels == (0,)

    def test_against_kernel_oracle(self):
        # oracle: the restriction has trivial kernel exactly when unique
        for n in (1, 2, 3):
            for a in range(-8, 3):
                for r in (0, 1, 2):
                    rep = homogeneous_extension_unique(n, Fraction(a), r)
                    kb = kernel_basis(restrict(euler(n, Fraction(a)), r))
                    assert rep.unique == (len(kb) == 0)

    def test_complex_degree_never_degenerate(self):
        assert homogeneous_extension_unique(2, GaussianRational(-3, 1), 3).unique

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_below_one_rejected(self, n):
        # as enumerate_multi_indices does; n = 0 with a = 1 has no kernel
        # level to find and would otherwise answer "unique"
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            homogeneous_extension_unique(n, Fraction(1), 1)

    @pytest.mark.parametrize("r", [-1, -3])
    def test_negative_order_rejected(self, r):
        # an empty range of levels would otherwise answer "unique"
        with pytest.raises(ValueError, match="maximal order must be >= 0"):
            homogeneous_extension_unique(4, Fraction(-6), r)


class TestLinearity:
    def test_precondition_examples(self):
        assert linearity_precondition(euler(3, Fraction(7, 2)), 2)
        assert linearity_precondition(dalembert(4, 0), 2)
        assert not linearity_precondition(dalembert(4, 1), 2)

    def test_additivity_across_degrees(self):
        # counterterms computed at each record's own degree add up to the
        # counterterm of the combined record at the maximum degree
        rng = random.Random(25)
        for a in (Fraction(-1, 2), Fraction(-4), Fraction(1)):
            q = euler(2, a)
            r1, r2 = 1, 2
            w1 = random_delta_vector(rng, 2, r1)
            w2 = random_delta_vector(rng, 2, r2)
            rec1 = ExtensionRecord(2, r1, {q: q.apply_delta(w1)})
            rec2 = ExtensionRecord(2, r2, {q: q.apply_delta(w2)})
            combined = ExtensionRecord(2, max(r1, r2),
                                       {q: q.apply_delta(w1) + q.apply_delta(w2)})
            v1 = onshell_correction(rec1, q)
            v2 = onshell_correction(rec2, q)
            assert onshell_correction(combined, q) == v1 + v2


class TestCasimirKernelCheck:
    """ker(C|_r) against the joint kernel of the generators at level r."""

    def test_trivial_kernel_against_a_nontrivial_joint_kernel(self):
        # ker(id) = 0 while L kills delta
        g = lorentz_generator(2, 0, 1, (1, -1))
        rep = verify_casimir_hypotheses(OperatorExpr.identity(2), [g], 1, [(1, (0, 0))])
        assert rep == CasimirReport(
            shape_ok=False, self_adjoint_ok=True, commute_ok=True, kernel_ok=False, level=1,
            failures=("expression does not expand to the given operator",
                      "ker(C|_1) differs from the joint kernel of the generators"))

    def test_kernels_of_equal_dimension_but_different_span(self):
        # euler(1, -1) kills delta, euler(1, -2) kills delta'
        rep = verify_casimir_hypotheses(euler(1, -1), [euler(1, -2)], 1, [(1, (0, 0))])
        assert rep == CasimirReport(
            shape_ok=False, self_adjoint_ok=True, commute_ok=True, kernel_ok=False, level=1,
            failures=("expression does not expand to the given operator",
                      "ker(C|_1) differs from the joint kernel of the generators"))

    def test_equal_kernels(self):
        g = euler(1, -1)
        rep = verify_casimir_hypotheses(g @ g, [g], 2, [(1, (0, 0))])
        assert rep == CasimirReport(True, True, True, True, 2, ())
