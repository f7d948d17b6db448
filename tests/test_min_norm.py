"""The least-norm solve route against the projection-polynomial route.

`onshell_correction` and `pseudoinverse_correction` run on the one route
`spectral._pseudoinverse`, the least-norm solve `spectral._min_norm_solve`
of B v = A* w with one exact certificate, and `kernel_projector` on its
kernel step `_Block.kernel_part`.  The paper's route builds the same vectors
from the projection polynomial p of B = A* A: the counterterm
((p - 1)/z)(B) A* w, the corrected residue p(A A*) w, the kernel projector
p(B) and the pseudoinverse -((p - 1)/z)(M) (1 - p(M)) w.  Both routes are
exact, so they must agree entry for entry.  The polynomial route is kept
here with the package's `_counterterm_apply` and `_block_poly_apply` and a
test-local Horner on the product A A*.
"""

import random
from fractions import Fraction

import pytest

import onshell.spectral as spectral
from onshell.scalar import ONE, ZERO
from onshell.deltaspace import DeltaVector, inner
from onshell.opalg import casimir, dalembert, euler, lorentz_generator, parity
from onshell.cli import parse_operator
from onshell.extension import (
    ExtensionRecord,
    casimir_correction,
    lorentz_casimir_setup,
    onshell_correction,
)
from onshell.spectral import (
    NonNormalMatrixError,
    _block_poly_apply,
    _counterterm_apply,
    _matrix_poly_apply,
    kernel_projector,
    projection_polynomial_of_gram,
    pseudoinverse_correction,
    restrict,
)

from conftest import random_delta_vector, random_poly_coeff_operator


def _cases():
    """(operator, n, r) on seeded box(m^2), euler(a)^k, casimir and
    polynomial operators with and without parity, n <= 4 and r <= 4; then
    operators whose kernels have non-real vectors, so that the weighted
    product's conjugation shows, and whose Gram matrices have blocks with
    two or three kernel vectors, so that the kernel Gram system couples."""
    rng = random.Random(111)
    out = []
    for n, r in ((2, 4), (3, 3), (4, 2)):
        out.append((dalembert(n, Fraction(rng.randint(0, 2))), n, r))
        out.append((euler(n, Fraction(rng.randint(-n - 3, -n))) ** rng.randint(1, 2), n, r))
        out.append((casimir(n), n, r))
    out.append((dalembert(4, Fraction(1)), 4, 3))
    out.append((casimir(4), 4, 4))
    for n in (1, 2, 3):
        for with_parity in (False, True):
            q = random_poly_coeff_operator(rng, n)
            out.append((q @ parity(n) if with_parity else q, n, rng.randint(1, 4 - n // 2)))
    out += [(parse_operator(text, n), n, 3) for text, n in (
        ("x1*d2 + i*x2*d1", 2), ("x1^2 + i*x2^2", 2), ("(x1 + i*x2)^2", 2), ("x1 + x2 + x3", 3))]
    return out


CASES = _cases()


def _case_id(case):
    q, n, r = case
    return f"n{n}-r{r}-{q.size()}terms"


def _poly_onshell(a, astar, b, w):
    """(counterterm, corrected residue p(A A*) w) on the polynomial route."""
    p = projection_polynomial_of_gram(b)
    aastar = a.matmul(astar)
    return (_counterterm_apply(b, p, astar.matvec(w)),
            aastar.to_vector(_matrix_poly_apply(aastar.sparse_rows, p, aastar.from_vector(w))))


def _poly_pseudoinverse(m, w):
    p = projection_polynomial_of_gram(m)
    rhs = m.from_vector(w)
    rest = m.to_vector([x - y for x, y in zip(rhs, _block_poly_apply(m, p, rhs))])
    return _counterterm_apply(m, p, rest).scale(-1)


def _poly_projector(b):
    p = projection_polynomial_of_gram(b)
    d = b.nrows
    return tuple(zip(*[_block_poly_apply(b, p, [ONE if i == j else ZERO for i in range(d)])
                       for j in range(d)]))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_onshell_correction_matches_the_polynomial_route(case):
    q, n, r = case
    a = restrict(q, r)
    astar, b = a.gram_adjoint(), a.gram
    rng = random.Random(r * 10 + n)
    for w in (random_delta_vector(rng, n, a.r_codomain),
              a.matvec(random_delta_vector(rng, n, r))):  # one residue in range
        v = onshell_correction(ExtensionRecord(n, r, {q: w}), q)
        want_v, want_corrected = _poly_onshell(a, astar, b, w)
        assert v == want_v
        assert w + a.matvec(v) == want_corrected


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_kernel_projector_matches_the_polynomial_route(case):
    q, n, r = case
    a = restrict(q, r)
    b = a.gram
    got = kernel_projector(b)
    assert got.entries == _poly_projector(b)
    # ker A = ker B, so the projector of A is the same matrix
    assert kernel_projector(a) == got


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_pseudoinverse_matches_the_polynomial_route(case):
    q, n, r = case
    rng = random.Random(r * 10 + n + 5)
    b = restrict(q, r).gram  # self-adjoint, so normal
    w = random_delta_vector(rng, n, r)
    assert pseudoinverse_correction(b, w) == _poly_pseudoinverse(b, w)
    if q.essential_order().q == 0:
        m = restrict(q, r)
        if m.is_normal():
            assert pseudoinverse_correction(m, w) == _poly_pseudoinverse(m, w)
        else:
            with pytest.raises(NonNormalMatrixError):
                pseudoinverse_correction(m, w)


@pytest.mark.parametrize("n, r", [(2, 2), (2, 4), (3, 2), (3, 4), (4, 2)])
def test_casimir_correction_adds_the_kernel_part(n, r):
    # b_r(C) u' - u' = h(C) w with h = (p - 1)/z: on ker C it is h(0) w,
    # elsewhere -C^+ w, so it differs from the least-norm solve by
    # h(0) P_ker w; the Casimir map stays on the polynomial route
    c_op, gens, expr = lorentz_casimir_setup(n)
    mat = restrict(c_op, r)
    w = random_delta_vector(random.Random(17 * n + r), n, r)
    kernel_part = mat.to_vector(spectral._sparse_matvec(kernel_projector(mat).sparse_rows,
                                                        mat.from_vector(w)))
    h0 = projection_polynomial_of_gram(mat).coeffs[1]
    assert not kernel_part.is_zero() and not h0.is_zero()
    got = casimir_correction(ExtensionRecord(n, r, {c_op: w}), c_op, gens, expr)
    assert got == pseudoinverse_correction(mat, w).scale(-1) + kernel_part.scale(h0)
    assert got != pseudoinverse_correction(mat, w).scale(-1)


def _skip_kernel_step(m, rhs):
    """A corrupted solve: free variables 0, no kernel projection."""
    return spectral._solve(m.parts, rhs, m.ncols)[0]


class TestCertificates:
    @pytest.mark.parametrize("route", ["pseudoinverse", "counterterm"],
                             ids=["skipped-kernel-step-pseudoinverse",
                                  "skipped-kernel-step-counterterm"])
    def test_pseudoinverse_certificate_catches_a_corrupted_solve(self, monkeypatch, route):
        # the Euclidean rotation generator is normal with a kernel at r = 2
        # that is not spanned by basis vectors.  Skipping the kernel step of
        # the one solve leaves B v = A* w right and v off (ker B)^perp; both
        # callers of `_pseudoinverse` meet its one certificate
        q = lorentz_generator(2, 0, 1, (1, 1))
        m = restrict(q, 2)
        assert m.is_normal() and spectral.kernel_basis(m)
        w = random_delta_vector(random.Random(5), 2, 2)
        rec = ExtensionRecord(2, 2, {q: w})
        solve = {"pseudoinverse": lambda: pseudoinverse_correction(m, w),
                 "counterterm": lambda: onshell_correction(rec, q)}[route]
        solve()
        monkeypatch.setattr(spectral, "_min_norm_solve", _skip_kernel_step)
        with pytest.raises(AssertionError, match="pseudoinverse contract"):
            solve()

    def test_pseudoinverse_certificate_catches_a_zero_solution(self, monkeypatch):
        m = restrict(euler(1, Fraction(-2)), 1)
        w = DeltaVector.basis(1, (0,))
        assert pseudoinverse_correction(m, w) == w
        monkeypatch.setattr(spectral, "_min_norm_solve", lambda m, rhs: [ZERO] * m.ncols)
        with pytest.raises(AssertionError, match="pseudoinverse contract"):
            pseudoinverse_correction(m, w)

    def test_inconsistent_system_is_refused(self):
        m = restrict(euler(1, Fraction(-2)), 1)  # diag(1, 0)
        with pytest.raises(AssertionError, match="inconsistent"):
            spectral._min_norm_solve(m, [ZERO, ONE])

    def test_solve_is_orthogonal_to_the_kernel(self):
        a = restrict(lorentz_generator(3, 0, 1, (1, 1, 1)), 3)
        astar, b = a.gram_adjoint(), a.gram
        w = random_delta_vector(random.Random(8), 3, 3)
        rhs = b.from_vector(astar.matvec(w))
        kernel = spectral.kernel_basis(b)
        x = b.to_vector(spectral._min_norm_solve(b, rhs))
        assert b.matvec(x) == astar.matvec(w)
        assert all(inner(3, k, x).is_zero() for k in kernel)
        y = b.to_vector(_skip_kernel_step(b, rhs))
        assert b.matvec(y) == astar.matvec(w)
        assert not all(inner(3, k, y).is_zero() for k in kernel)
