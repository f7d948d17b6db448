import random
from fractions import Fraction

import pytest

from onshell.scalar import GaussianRational, ONE, ZERO
from onshell.deltaspace import (
    DeltaVector,
    DimensionMismatch,
    enumerate_multi_indices,
    inner,
    mi_factorial,
)
from onshell.opalg import (
    OperatorExpr,
    casimir,
    dalembert,
    default_signature,
    euler,
    parity,
    squared_interval,
)
from onshell.extension import lorentz_casimir_setup
from onshell.spectral import (
    ExactPolynomial,
    NonNormalMatrixError,
    adjoint_restriction,
    kernel_basis,
    minimal_polynomial,
    projection_polynomial,
    projector_onto_kernel,
    pseudoinverse_correction,
    range_membership,
    restrict,
)

from conftest import (
    dense_matrix,
    random_delta_vector,
    random_poly_coeff_operator,
    random_scalar,
    structured_operator,
)
from test_block_route import _dense_solve


def sc(x):
    return GaussianRational.of(Fraction(x))


def _is_squarefree(p):
    """gcd(p, p') is constant: a test-local check, the package needs none."""
    if p.degree() <= 1:
        return True
    derivative = ExactPolynomial(tuple(c * k for k, c in enumerate(p.coeffs) if k > 0))
    return p.gcd(derivative).degree() == 0


class TestExactPolynomial:
    def test_divmod_and_gcd(self):
        # (z-1)(z-2) against (z-1)
        p = ExactPolynomial((sc(2), sc(-3), ONE))
        q = ExactPolynomial((sc(-1), ONE))
        quo, rem = p.divmod(q)
        assert rem.is_zero()
        assert quo.coeffs == (sc(-2), ONE)
        assert p.gcd(q).coeffs == q.coeffs
        assert p.lcm(q).coeffs == p.coeffs

    def test_squarefree_detection(self):
        sq = ExactPolynomial((sc(1), sc(2), ONE))  # (z+1)^2
        assert not _is_squarefree(sq)
        assert _is_squarefree(ExactPolynomial((sc(-1), ONE)))

    def test_evaluation(self):
        p = ExactPolynomial((ONE, sc(-4)))
        assert p(Fraction(1, 4)) == ZERO


class TestRestrict:
    def test_euler_diagonal(self):
        m = restrict(euler(1, Fraction(-2)), 1)
        assert m.entries == ((ONE, ZERO), (ZERO, ZERO))

    def test_even_projection(self):
        # id - parity on n=1: delta^(k) -> (1 - (-1)^k) delta^(k)
        q = OperatorExpr.identity(1) - parity(1)
        m = restrict(q, 1)
        assert m.entries == ((ZERO, ZERO), (ZERO, sc(2)))

    def test_wave_column(self):
        m = restrict(dalembert(1, Fraction(1, 3), (1,)), 0)
        # column delta -> delta'' + (1/3) delta
        col = [m.entries[i][0] for i in range(m.nrows)]
        v = m.to_vector(col)
        assert v == DeltaVector(1, {(0,): sc(Fraction(1, 3)), (2,): ONE})

    def test_column_contract(self):
        rng = random.Random(5)
        q = structured_operator(rng, 2)
        m = restrict(q, 2)
        for j, alpha in enumerate(m.domain_basis):
            col = [m.entries[i][j] for i in range(m.nrows)]
            assert m.to_vector(col) == q.apply_delta(DeltaVector.basis(2, alpha))


class TestAdjoint:
    def test_euler_real_self_adjoint(self):
        for a in (Fraction(-2), Fraction(1, 2)):
            m = restrict(euler(2, a), 2)
            adj = adjoint_restriction(euler(2, a), 2)
            assert m.entries == adj.entries

    def test_massless_wave_adjoint_is_interval_multiplication(self):
        n, r = 4, 1
        adj = adjoint_restriction(dalembert(n, 0), r)
        mult = restrict(squared_interval(n), r + 2)
        bas_r = enumerate_multi_indices(n, r)
        bas_r2 = enumerate_multi_indices(n, r + 2)
        for j in range(len(bas_r2)):
            for i, alpha in enumerate(bas_r2):
                if alpha in bas_r:
                    assert adj.entries[bas_r.index(alpha)][j] == mult.entries[i][j]
                else:
                    assert mult.entries[i][j].is_zero()

    def test_massive_wave_adjoint_at_zero(self):
        # frozen from the columnwise oracle T_0 Q^t S_2 in n=1, metric (+)
        adj = adjoint_restriction(dalembert(1, 1, (1,)), 0)
        assert adj.matvec(DeltaVector.basis(1, (0,))) == DeltaVector.basis(1, (0,))
        assert adj.matvec(DeltaVector.basis(1, (1,))).is_zero()
        assert adj.matvec(DeltaVector.basis(1, (2,))) == DeltaVector.basis(1, (0,)).scale(2)

    def test_adjoint_pairing_identity(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.choice([1, 2])
            q = structured_operator(rng, n)
            r = rng.randint(0, 2)
            ess = q.essential_order().q
            a = restrict(q, r)
            astar = adjoint_restriction(q, r)
            for _ in range(4):
                w = random_delta_vector(rng, n, r)
                v = random_delta_vector(rng, n, r + ess)
                assert inner(r + ess, v, a.matvec(w)) == inner(r, astar.matvec(v), w)

    @pytest.mark.parametrize("family", ["structured", "poly_pullback", "lorentz_casimir"])
    def test_symbolic_route_matches_gram_adjoint(self, family):
        # adjoint_restriction is the second route to (Q|_r)*; the spectral
        # path builds A* from restrict(q, r).gram_adjoint(), and so does the
        # Casimir check's self-adjointness test on the Lorentz Casimirs
        if family == "lorentz_casimir":
            cases = [(lorentz_casimir_setup(n, sig)[0], r)
                     for n in (2, 3, 4)
                     for sig in (default_signature(n), tuple(-g for g in default_signature(n)))
                     for r in range(3)]
        else:
            rng = random.Random(41)
            cases = []
            for _ in range(30):
                n = rng.randint(1, 3)
                r = rng.randint(0, 2 if n < 3 else 1)
                if family == "structured":
                    q = structured_operator(rng, n)
                else:
                    q = random_poly_coeff_operator(rng, n, allow_pullback=True)
                if rng.random() < 0.5:
                    q = q.scale(GaussianRational(Fraction(1, 2), Fraction(-3)))
                cases.append((q, r))
            assert {any(pb is not None for _, _, pb in q.terms) for q, _ in cases} == {False, True}
        for q, r in cases:
            sym = adjoint_restriction(q, r)
            gram = restrict(q, r).gram_adjoint()
            assert (sym.n, sym.r_domain, sym.r_codomain) == \
                (gram.n, gram.r_domain, gram.r_codomain)
            assert sym.entries == gram.entries

    def test_level_stability_blocks(self):
        # for Euler operators and the massless wave operator, the adjoint at a
        # higher level restricted to the lower codomain equals the lower adjoint
        for q, r in ((euler(2, Fraction(-3)), 1), (dalembert(3, 0), 1)):
            ess = q.essential_order().q
            low = adjoint_restriction(q, r)
            for s in (r + 1, r + 2):
                high = adjoint_restriction(q, s)
                bas_low_dom = enumerate_multi_indices(q.n, r + ess)
                bas_low_cod = enumerate_multi_indices(q.n, r)
                bas_high_dom = enumerate_multi_indices(q.n, s + ess)
                bas_high_cod = enumerate_multi_indices(q.n, s)
                for j, alpha in enumerate(bas_low_dom):
                    jj = bas_high_dom.index(alpha)
                    for i, beta in enumerate(bas_high_cod):
                        val = high.entries[i][jj]
                        if beta in bas_low_cod:
                            assert val == low.entries[bas_low_cod.index(beta)][j]
                        else:
                            assert val.is_zero()


class TestMinimalPolynomial:
    def test_identity(self):
        m = dense_matrix(1, 1, 1, ((ONE, ZERO), (ZERO, ONE)))
        assert minimal_polynomial(m).coeffs == (sc(-1), ONE)

    def test_diag_one_zero(self):
        m = restrict(euler(1, Fraction(-2)), 1)
        # oracle: evaluate candidates on the matrix; z^2 - z annihilates diag(1,0)
        assert minimal_polynomial(m).coeffs == (ZERO, sc(-1), ONE)

    def test_euler_gram_roots(self):
        q = euler(4, Fraction(-6))
        b = adjoint_restriction(q, 2).matmul(restrict(q, 2))
        got = minimal_polynomial(b)
        want = ExactPolynomial((ZERO, ONE))
        for lam in (1, 4):
            want = want.lcm(ExactPolynomial((sc(-lam), ONE)))
        assert got.coeffs == want.coeffs

    def test_squarefree_for_self_adjoint(self):
        rng = random.Random(37)
        for _ in range(8):
            q = structured_operator(rng, 2)
            mat = restrict(q, rng.randint(0, 2))
            b = mat.gram_adjoint().matmul(mat)
            assert _is_squarefree(minimal_polynomial(b))

    def test_matches_annihilation(self):
        rng = random.Random(9)
        for _ in range(10):
            q = random_poly_coeff_operator(rng, 2)
            mat = restrict(q, 1)
            b = mat.gram_adjoint().matmul(mat)
            p = minimal_polynomial(b)
            from onshell.spectral import _matrix_poly_apply
            for j in range(b.ncols):
                e = [ONE if i == j else ZERO for i in range(b.nrows)]
                assert all(c.is_zero() for c in _matrix_poly_apply(b.sparse_rows, p, e))


def _dense_matvec(m, vec):
    return [sum((a * x for a, x in zip(row, vec)), ZERO) for row in m.entries]


def _dense_minimal_polynomial(m):
    """The dense per-seed Krylov routine the block kernel replaced: for every
    basis vector not yet annihilated, grow its Krylov sequence and solve for
    the first dependent vector from scratch; lcm of the annihilators."""
    d = m.nrows
    result = ExactPolynomial.one()
    for seed in range(d):
        e = [ONE if i == seed else ZERO for i in range(d)]
        out = [ZERO] * d
        for c in reversed(result.coeffs):
            out = [s + c * v for s, v in zip(_dense_matvec(m, out), e)]
        if all(c.is_zero() for c in out):
            continue
        krylov = [e]
        while True:
            nxt = _dense_matvec(m, krylov[-1])
            cols = [[vec[i] for vec in krylov] for i in range(d)]
            sol = _dense_solve(cols, nxt)
            if sol is not None:
                result = result.lcm(ExactPolynomial(tuple(-c for c in sol) + (ONE,)))
                break
            krylov.append(nxt)
    return result


def _square(rows):
    """A d x d matrix from rational entries (delta space n = 1, r = d - 1)."""
    d = len(rows)
    return dense_matrix(1, d - 1, d - 1, [[sc(x) for x in row] for row in rows])


def _gram(mat):
    return mat.gram_adjoint().matmul(mat)


def _poly(*coeffs):
    return ExactPolynomial(tuple(sc(c) for c in coeffs))


class TestBlockKrylovKernel:
    def test_matches_dense_routine_on_named_operators(self):
        mats = []
        for n, r in ((1, 3), (2, 2), (2, 3), (3, 1), (3, 2)):
            for m2 in (0, 1, Fraction(2, 3)):
                mats.append(_gram(restrict(dalembert(n, m2), r)))
        for n, r in ((1, 3), (2, 3), (3, 2)):
            for a, k in ((Fraction(-n - 1), 1), (Fraction(-n - 2), 2), (Fraction(1, 2), 2)):
                mat = restrict(euler(n, a) ** k, r)
                mats += [mat, _gram(mat)]
        for n, r in ((2, 3), (3, 2)):
            mat = restrict(casimir(n), r)
            mats += [mat, _gram(mat)]
        for m in mats:
            assert minimal_polynomial(m).coeffs == _dense_minimal_polynomial(m).coeffs

    @pytest.mark.parametrize("pullback", [False, True])
    def test_matches_dense_routine_on_seeded_operators(self, pullback):
        rng = random.Random(41 + pullback)
        for _ in range(8):
            n = rng.randint(1, 3)
            q = random_poly_coeff_operator(rng, n, allow_pullback=pullback)
            mat = restrict(q, rng.randint(0, 3 if n < 3 else 2))
            mats = [_gram(mat), mat.matmul(mat.gram_adjoint())]
            if mat.is_square():
                mats.append(mat)
            for m in mats:
                assert minimal_polynomial(m).coeffs == _dense_minimal_polynomial(m).coeffs

    @pytest.mark.parametrize("rows, want", [
        # blocks {0, 2} and {1, 3} interleaved in index order
        ([[1, 0, 2, 0], [0, 3, 0, 1], [2, 0, 1, 0], [0, 1, 0, 3]],
         _poly(-3, 1) * _poly(1, 1) * _poly(-2, 1) * _poly(-4, 1)),
        # one-way coupling: row 2 reads column 0, nothing reads row 2
        ([[1, 0, 0], [0, 2, 0], [1, 0, 1]], _poly(-1, 1) * _poly(-1, 1) * _poly(-2, 1)),
        # nilpotent Jordan block: z^2, not squarefree
        ([[0, 1], [0, 0]], _poly(0, 0, 1)),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], _poly(0, 1)),
        ([[5]], _poly(-5, 1)),
        ([[0]], _poly(0, 1)),
    ])
    def test_hand_built_edge_cases(self, rows, want):
        m = _square(rows)
        got = minimal_polynomial(m)
        assert got.coeffs == want.coeffs
        assert got.coeffs == _dense_minimal_polynomial(m).coeffs

    def test_empty_matrix(self):
        assert minimal_polynomial(dense_matrix(1, -1, -1, ())).coeffs == (ONE,)

    def test_sparse_products_match_dense_definition(self):
        rng = random.Random(17)
        for _ in range(6):
            a_rows = [[random_scalar(rng) if rng.random() < 0.4 else ZERO for _ in range(3)]
                      for _ in range(4)]
            b_rows = [[random_scalar(rng) if rng.random() < 0.4 else ZERO for _ in range(5)]
                      for _ in range(3)]
            a_rows[rng.randrange(4)] = [ZERO] * 3  # an all-zero row
            b_rows[rng.randrange(3)] = [ZERO] * 5
            for row in a_rows:  # an all-zero column
                row[1] = ZERO
            for row in b_rows:
                row[2] = ZERO
            a = dense_matrix(1, 2, 3, a_rows)
            b = dense_matrix(1, 4, 2, b_rows)
            want = tuple(tuple(sum((a_rows[i][k] * b_rows[k][j] for k in range(3)), ZERO)
                               for j in range(5)) for i in range(4))
            assert a.matmul(b).entries == want
            v = random_delta_vector(rng, 1, 2)
            dense = _dense_matvec(a, a.from_vector(v))
            assert a.matvec(v) == a.to_vector(dense)
            adj = a.gram_adjoint()
            wcod = [mi_factorial(alpha) for alpha in enumerate_multi_indices(1, 3)]
            wdom = [mi_factorial(alpha) for alpha in enumerate_multi_indices(1, 2)]
            assert adj.entries == tuple(
                tuple(a_rows[j][i].conj() * sc(Fraction(wcod[j], wdom[i])) for j in range(4))
                for i in range(3))


class TestProjectionPolynomial:
    def test_examples(self):
        p = projection_polynomial(euler(1, Fraction(-2)), 1)
        assert p.coeffs == (ONE, sc(-1))
        p = projection_polynomial(euler(1, Fraction(-1, 2)), 0)
        assert p.coeffs == (ONE, sc(-4))
        p = projection_polynomial(OperatorExpr.identity(1) - parity(1), 0)
        assert p.coeffs == (ONE,)

    def test_projector_examples(self):
        m = projector_onto_kernel(euler(1, Fraction(-2)), 1)
        assert m.entries == ((ZERO, ZERO), (ZERO, ONE))
        m = projector_onto_kernel(euler(1, Fraction(-2)), 0)  # trivial kernel
        assert m.entries == ((ZERO,),)
        m = projector_onto_kernel(OperatorExpr.identity(1) - parity(1), 0)
        assert m.entries == ((ONE,),)

    def test_projection_laws_small_corpus(self):
        rng = random.Random(21)
        for _ in range(8):
            n = rng.choice([1, 2])
            q = structured_operator(rng, n)
            r = rng.randint(0, 2)
            mat = restrict(q, r)
            b = mat.gram_adjoint().matmul(mat)
            p = projector_onto_kernel(q, r)
            assert p.matmul(p).entries == p.entries
            assert p.gram_adjoint().entries == p.entries
            zero = p.matmul(b)
            assert all(c.is_zero() for row in zero.entries for c in row)

    def test_gram_spectra_match_both_sides(self):
        rng = random.Random(4)
        for _ in range(6):
            q = structured_operator(rng, 2)
            r = rng.randint(0, 2)
            a = restrict(q, r)
            astar = a.gram_adjoint()
            m1 = minimal_polynomial(astar.matmul(a))
            m2 = minimal_polynomial(a.matmul(astar))

            def zfree(m):
                while m.degree() >= 1 and m.coeffs[0].is_zero():
                    m = ExactPolynomial(m.coeffs[1:])
                return m
            assert zfree(m1).coeffs == zfree(m2).coeffs


class TestKernelAndRange:
    def test_kernel_levels(self):
        kb = kernel_basis(restrict(euler(4, Fraction(-6)), 2))
        assert len(kb) == 10
        assert all(v.degree() == 2 for v in kb)

    def test_range_membership_no(self):
        dec = range_membership(restrict(euler(1, Fraction(-1)), 0), DeltaVector.basis(1, (0,)))
        assert not dec.member
        assert inner(0, dec.witness, DeltaVector.basis(1, (0,))) != ZERO

    def test_range_membership_yes(self):
        dec = range_membership(restrict(euler(1, Fraction(-1, 2)), 0), DeltaVector.basis(1, (0,)))
        assert dec.member
        assert dec.preimage == DeltaVector.basis(1, (0,)).scale(-2)

    def test_preimage_property(self):
        rng = random.Random(13)
        for _ in range(15):
            n = rng.choice([1, 2])
            q = structured_operator(rng, n)
            r = rng.randint(0, 2)
            m = restrict(q, r)
            v = random_delta_vector(rng, n, r)
            w = m.matvec(v)
            dec = range_membership(m, w)
            assert dec.member
            assert m.matvec(dec.preimage) == w


class TestPseudoinverse:
    def test_invertible_block(self):
        m = restrict(euler(1, Fraction(-2)), 1)  # diag(1, 0)
        assert pseudoinverse_correction(m, DeltaVector.basis(1, (0,))) == DeltaVector.basis(1, (0,))
        assert pseudoinverse_correction(m, DeltaVector.basis(1, (1,))).is_zero()

    def test_scalar_solve(self):
        m = restrict(euler(1, Fraction(-1, 2)), 0)
        beta = GaussianRational(Fraction(2), Fraction(1))
        got = pseudoinverse_correction(m, DeltaVector.basis(1, (0,)).scale(beta))
        assert got == DeltaVector.basis(1, (0,)).scale(beta * -2)

    def test_moore_penrose_identities(self):
        rng = random.Random(31)
        for a in (Fraction(-2), Fraction(-3), Fraction(1, 2)):
            m = restrict(euler(2, a), 2)
            w = random_delta_vector(rng, 2, 2)
            v = pseudoinverse_correction(m, w)
            # M v is the projection of w onto Ran(M): M* (w - M v) = 0
            res = [a - b for a, b in
                   zip(m.from_vector(w), m.from_vector(m.matvec(v)))]
            adj = m.gram_adjoint()
            out = adj.matvec(m.to_vector(res))
            assert out.is_zero()

    def test_zero_restriction(self):
        # R|_0 = 0 for id - parity: everything is orthogonal to the range
        q = OperatorExpr.identity(1) - parity(1)
        m = restrict(q, 0)
        got = pseudoinverse_correction(m, DeltaVector.basis(1, (0,)))
        assert got.is_zero()

    def test_residue_outside_the_codomain_rejected(self):
        # like range_membership: a residue term above the codomain order is
        # an error, not silently dropped
        m = restrict(euler(1, Fraction(-2)), 0)
        w = DeltaVector(1, {(0,): GaussianRational(2), (3,): GaussianRational(5)})
        for solve in (pseudoinverse_correction, range_membership):
            with pytest.raises(DimensionMismatch, match="target degree exceeds the codomain order"):
                solve(m, w)
        with pytest.raises(DimensionMismatch, match="target dimension"):
            pseudoinverse_correction(m, DeltaVector.basis(2, (0, 0)))
        assert pseudoinverse_correction(m, DeltaVector.basis(1, (0,)).scale(2)) == \
            DeltaVector.basis(1, (0,)).scale(2)

    def test_non_normal_rejected(self):
        # x2 d1 on n=2 has essential order 0 but is not normal at r=1
        q = OperatorExpr.multiplication(
            __import__("onshell.deltaspace", fromlist=["Polynomial"]).Polynomial.coordinate(2, 1)
        ) @ OperatorExpr.derivative(2, (1, 0))
        m = restrict(q, 1)
        assert not m.is_normal()
        with pytest.raises(NonNormalMatrixError):
            pseudoinverse_correction(m, DeltaVector.basis(2, (0, 0)))
