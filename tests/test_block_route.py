"""The block route of `spectral` against the dense whole-matrix routines.

Every exact elimination and every projection Horner in `spectral` runs on
the connected parts of the matrix's nonzero pattern.  The reduced row echelon
form is unique and f(M_c) = (f mod m_c)(M_c) on a block M_c with minimal
polynomial m_c, so every answer must equal, entry for entry, the one the
dense routines below give on the whole matrix.
"""

import random
from fractions import Fraction

import pytest

import onshell.spectral as spectral
from onshell.scalar import GaussianRational, ONE, ZERO
from onshell.deltaspace import DeltaVector, inner
from onshell.opalg import dalembert, euler
from onshell.spectral import (
    ExactPolynomial,
    _counterterm_apply,
    _matrix_poly_apply,
    kernel_basis,
    kernel_projector,
    projection_polynomial_of_gram,
    pseudoinverse_correction,
    range_membership,
    restrict,
)

from conftest import dense_matrix, random_poly_coeff_operator, random_scalar


# -- the dense whole-matrix routines the block route replaced ----------------

def _dense_rref(rows):
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    row = 0
    for col in range(nc):
        piv = next((r for r in range(row, nr) if not m[r][col].is_zero()), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col].inverse()
        m[row] = [x * inv for x in m[row]]
        for r in range(nr):
            if r != row and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == nr:
            break
    return m, pivots


def _dense_kernel_columns(rows, ncols):
    if not rows:
        return [[ONE if i == j else ZERO for i in range(ncols)] for j in range(ncols)]
    rr, pivots = _dense_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in set(pivots)):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -GaussianRational.of(1) * rr[prow][fc]
        basis.append(vec)
    return basis


def _dense_solve(rows, rhs):
    nc = len(rows[0]) if rows else 0
    rr, pivots = _dense_rref([list(r) + [b] for r, b in zip(rows, rhs)])
    x = [ZERO] * nc
    for prow, pcol in enumerate(pivots):
        if pcol == nc:
            return None
        x[pcol] = rr[prow][nc]
    return x


def _dense_range_membership(m, w):
    """(member, preimage, witness) as coordinate lists."""
    x = _dense_solve(list(m.entries), [w.get(alpha) for alpha in m.codomain_basis])
    if x is not None:
        return True, x, None
    adj = m.gram_adjoint()
    for y in _dense_kernel_columns(list(adj.entries), adj.ncols):
        if not inner(m.r_codomain, m.to_vector(y), w).is_zero():
            return False, None, y
    raise AssertionError("no witness")


# -- inputs -------------------------------------------------------------------

def _matrix(entries, ncols):
    """A RestrictionMatrix of the given shape (delta space n = 1)."""
    return dense_matrix(1, ncols - 1, len(entries) - 1, entries)


def _interleaved(rng, shapes, zero_rows=1, zero_cols=1, deficient=True):
    """Dense entries with blocks of the given shapes on randomly interleaved
    rows and columns, plus zero rows and zero columns; with `deficient`
    every other block repeats a multiple of its first row (singular)."""
    nr = sum(h for h, _ in shapes) + zero_rows
    nc = sum(w for _, w in shapes) + zero_cols
    row_order, col_order = rng.sample(range(nr), nr), rng.sample(range(nc), nc)
    entries = [[ZERO] * nc for _ in range(nr)]
    blocks = []
    for k, (h, w) in enumerate(shapes):
        rs, cs = row_order[:h], col_order[:w]
        row_order, col_order = row_order[h:], col_order[w:]
        for i in rs:
            for j in cs:
                if rng.random() < 0.75:
                    entries[i][j] = random_scalar(rng)
        if deficient and k % 2 and h > 1:
            for j in cs:
                entries[rs[-1]][j] = entries[rs[0]][j] * GaussianRational(Fraction(2), Fraction(1))
        blocks.append(rs)
    return entries, nc, blocks


def _rhs_cases(rng, entries, nc, blocks):
    """A generic rhs, one zero on every other block, one zero on the first
    row of every block, one in the range and zero."""
    nr = len(entries)
    generic = [random_scalar(rng) for _ in range(nr)]
    partial, first_rows = list(generic), list(generic)
    for k, rs in enumerate(blocks):
        first_rows[min(rs)] = ZERO
        for i in rs if k % 2 == 0 else ():
            partial[i] = ZERO
    x = [random_scalar(rng) for _ in range(nc)]
    image = [sum((a * b for a, b in zip(row, x)), ZERO) for row in entries]
    return [generic, partial, first_rows, image, [ZERO] * nr]


SHAPES = [
    [(3, 2), (2, 3), (1, 1), (4, 2)],
    [(2, 2), (2, 2), (3, 1)],
    [(5, 3), (1, 2)],
    [(1, 4), (4, 1), (2, 2), (2, 2), (3, 3)],
]


def _operator_matrices():
    mats = [restrict(dalembert(4, m2), r)
            for m2, r in ((0, 1), (0, 2), (1, 2), (Fraction(2, 3), 2), (1, 3), (Fraction(2, 3), 3))]
    mats += [restrict(euler(n, Fraction(a)) ** k, r)
             for n, a, k, r in ((2, -3, 1, 3), (3, -4, 2, 2), (2, Fraction(1, 2), 2, 3), (4, -5, 1, 2))]
    rng = random.Random(61)
    for pullback in (False, True):
        for _ in range(4):
            n = rng.randint(1, 3)
            q = random_poly_coeff_operator(rng, n, allow_pullback=pullback)
            mats.append(restrict(q, rng.randint(0, 3 if n < 3 else 2)))
    return mats


def _delta(m, coords):
    return m.to_vector(coords)


# -- elimination ------------------------------------------------------------

class TestEliminationMatchesDense:
    @pytest.mark.parametrize("seed", range(len(SHAPES)))
    def test_seeded_interleaved_blocks(self, seed):
        rng = random.Random(900 + seed)
        entries, nc, blocks = _interleaved(rng, SHAPES[seed])
        m = _matrix(entries, nc)
        self._check_kernel(m)
        for rhs in _rhs_cases(rng, entries, nc, blocks):
            self._check_range(m, _delta(m, rhs))

    def test_all_zero_and_empty_matrices(self):
        for nr, nc in ((3, 2), (1, 1), (2, 4)):
            entries = [[ZERO] * nc for _ in range(nr)]
            m = _matrix(entries, nc)
            self._check_kernel(m)
            self._check_range(m, _delta(m, [ZERO] * nr))
            rhs = [ZERO] * (nr - 1) + [ONE]
            assert _dense_solve(entries, rhs) is None
            self._check_range(m, _delta(m, rhs))
        # no rows at all: every column is free and the zero system is solved by 0
        empty = spectral._blocks_of((), spectral._split((), 3))
        assert [v for _, v in spectral._kernel_of(empty, 3)] == _dense_kernel_columns([], 3)
        assert spectral._solve(empty, [], 3) == ([ZERO] * 3, [])

    def test_operator_restrictions(self):
        rng = random.Random(62)
        for m in _operator_matrices():
            entries = list(m.entries)
            self._check_kernel(m)
            self._check_kernel(m.gram_adjoint())
            x = [random_scalar(rng) for _ in range(m.ncols)]
            for rhs in ([random_scalar(rng) for _ in range(m.nrows)],
                        [sum((a * b for a, b in zip(row, x)), ZERO) for row in entries]):
                self._check_range(m, _delta(m, rhs))

    @staticmethod
    def _check_kernel(m):
        assert [m.from_vector(v) for v in kernel_basis(m)] == \
            _dense_kernel_columns(list(m.entries), m.ncols)

    @staticmethod
    def _check_range(m, w):
        member, x, y = _dense_range_membership(m, w)
        dec = range_membership(m, w)
        assert dec.member is member
        if member:
            assert dec.witness is None and m.from_vector(dec.preimage) == x
        else:
            assert dec.preimage is None and dec.witness == m.to_vector(y)
        # the adjoint's parts, from `_split` like every matrix's, are M's
        # parts transposed: parts with a row by their smallest row, then the
        # row-less ones by their column
        adj = m.gram_adjoint()
        assert adj.blocks == tuple(sorted(((cs, rs) for rs, cs in m.blocks),
                                          key=lambda p: (not p[0], (p[0] or p[1])[0])))

    def test_elimination_sees_blocks_only(self, monkeypatch):
        # restrict(box(1), 3) at n = 4 is 126 x 35 in 16 parts, the largest
        # with 15 rows; the dense route reduced all 126 (and A*'s 35) rows.
        # Kept matrices keep their factorizations: start from empty tables
        restrict.cache_clear()
        heights = []
        original = spectral._rref

        def recording(rows):
            heights.append(len(rows))
            return original(rows)
        monkeypatch.setattr(spectral, "_rref", recording)
        a = restrict(dalembert(4, 1), 3)
        assert (a.nrows, a.ncols, len(a.blocks)) == (126, 35, 16)
        w = a.to_vector([GaussianRational(Fraction(k % 5 - 2), Fraction(k % 3)) for k in range(126)])
        assert not range_membership(a, w).member
        kernel_basis(a)
        kernel_basis(a.gram_adjoint())
        assert heights and max(heights) <= 15


class TestWitnessSelfCheck:
    def test_wrong_kernel_vector_is_caught(self, monkeypatch):
        m = _matrix([[ONE, ZERO], [ZERO, ZERO]], 2)
        w = DeltaVector.basis(1, (1,))
        assert range_membership(m, w).witness == w
        # (1, 1) has (y|w) != 0 but A* y = (1, 0)
        monkeypatch.setattr(spectral, "_kernel_of", lambda parts, ncols: [(0, [ONE, ONE])])
        with pytest.raises(AssertionError, match="witness is not in the kernel of the adjoint"):
            range_membership(m, w)


# -- projection -----------------------------------------------------------------

def _global_horner(m, p, vec):
    return _matrix_poly_apply(m.sparse_rows, p, vec)


def _random_poly(rng, degree):
    return ExactPolynomial(tuple(random_scalar(rng) for _ in range(degree)) + (ONE,))


def _gram_cases():
    rng = random.Random(63)
    cases = []
    for seed, shapes in enumerate(SHAPES):
        entries, nc, _ = _interleaved(random.Random(950 + seed), shapes)
        cases.append(_matrix(entries, nc))
    # one bipartite block of A whose Gram matrix splits by cancellation:
    # B = A* A = diag(2, 8, 9), so m_c is the lcm of two blocks' polynomials
    sc = GaussianRational.of
    cases.append(_matrix([[sc(1), sc(2), ZERO], [sc(1), sc(-2), ZERO], [ZERO, ZERO, sc(3)],
                          [ZERO, ZERO, ZERO]], 3))
    cases += _operator_matrices()
    return rng, cases


class TestProjectionMatchesGlobalHorner:
    def test_counterterm_and_self_check_vectors(self):
        rng, mats = _gram_cases()
        for a in mats:
            astar = a.gram_adjoint()
            b = astar.matmul(a)
            p = projection_polynomial_of_gram(b)
            aastar = a.matmul(astar)
            polys = [p, _random_poly(rng, 9), _random_poly(rng, 2)]
            for q in polys:
                w = a.to_vector([random_scalar(rng) for _ in range(a.nrows)])
                u = astar.matvec(w)
                h = ExactPolynomial(q.coeffs[1:])
                assert _counterterm_apply(b, q, u) == b.to_vector(_global_horner(b, h, b.from_vector(u)))
            # the projection identity of the polynomial route: w + A v is p(AA*) w
            w = a.to_vector([random_scalar(rng) for _ in range(a.nrows)])
            corrected = w + a.matvec(_counterterm_apply(b, p, astar.matvec(w)))
            assert corrected == aastar.to_vector(_global_horner(aastar, p, aastar.from_vector(w)))
            assert astar.matvec(corrected).is_zero()

    def test_projector_and_pseudoinverse(self):
        for q, n, r in ((euler(2, Fraction(-3)), 2, 3), (euler(3, Fraction(-4)) ** 2, 3, 2),
                        (dalembert(3, 1), 3, 2)):
            b = restrict(q, r).gram
            p = projection_polynomial_of_gram(b)
            d = b.nrows
            dense = [_global_horner(b, p, [ONE if i == j else ZERO for i in range(d)]) for j in range(d)]
            assert kernel_projector(b).entries == tuple(zip(*dense))
        m = restrict(euler(2, Fraction(-3)), 3)
        p = projection_polynomial_of_gram(m)
        w = m.to_vector([GaussianRational(Fraction(k + 1), Fraction(k % 2)) for k in range(m.nrows)])
        rhs = m.from_vector(w)
        rest = m.to_vector([x - y for x, y in zip(rhs, _global_horner(m, p, rhs))])
        h = ExactPolynomial(p.coeffs[1:])
        want = m.to_vector(_global_horner(m, h, m.from_vector(rest))).scale(-1)
        assert pseudoinverse_correction(m, w) == want

    def test_minimal_polynomials_are_cached_on_the_matrix(self, monkeypatch):
        b = restrict(dalembert(3, 1), 2).gram
        projection_polynomial_of_gram(b)
        calls = []
        monkeypatch.setattr(spectral, "_block_minimal_polynomial",
                            lambda rows: calls.append(rows) or ExactPolynomial.one())
        _counterterm_apply(b, projection_polynomial_of_gram(b), b.to_vector([ONE] * b.nrows))
        assert calls == []
