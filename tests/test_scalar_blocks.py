"""Scalar blocks against the dense whole-matrix oracle.

A part of a matrix with one row and one column is a scalar block: its one
entry a is nonzero, because a part is a connected component of the nonzero
pattern, so the block solves b as b a^-1, has no kernel and is never
eliminated.  Every other part still runs `_rref` and `_Factor.substitute`.
Sparse matrices mixing complex 1 x 1 entries (1, -1 and others), zero rows,
zero columns and a few 2 x 2 and 2 x 3 blocks, on shuffled rows and
columns, must give exactly what the dense routines of `test_block_route`
give on the whole matrix: solves with and without the kernel projection,
the range decision with its preimage and witness, the kernel basis, the
kernel projector, and the pseudoinverse of a diagonal (normal) matrix.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import onshell.spectral as spectral
from onshell.scalar import GaussianRational, ONE, ZERO
from onshell.deltaspace import mi_factorial
from onshell.spectral import kernel_projector, pseudoinverse_correction

import test_block_route
from test_block_route import _dense_kernel_columns, _dense_solve, _matrix

# the whole-matrix oracle of the range decision and of the kernel basis
_check_range = test_block_route.TestEliminationMatchesDense._check_range
_check_kernel = test_block_route.TestEliminationMatchesDense._check_kernel

ENTRIES = st.one_of(
    st.just(ONE), st.just(-ONE),
    st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
              st.integers(-4, 4), st.integers(-3, 3), st.integers(1, 4)).filter(bool))
SCALARS = st.one_of(st.just(ZERO), ENTRIES)


@st.composite
def systems(draw):
    """(entries, ncols, rhs, image): scalar entries, zero rows, zero columns
    and 2 x 2 (some singular) and 2 x 3 blocks on shuffled rows and columns,
    with an arbitrary right-hand side and one in the range."""
    shapes = ([(1, 1)] * draw(st.integers(0, 6)) + [(2, 2)] * draw(st.integers(0, 2))
              + [(2, 3)] * draw(st.integers(0, 1)) + [(1, 0)] * draw(st.integers(0, 2))
              + [(0, 1)] * draw(st.integers(0, 2)))
    if not any(h for h, _ in shapes) or not any(w for _, w in shapes):
        shapes.append((1, 1))
    nr, nc = sum(h for h, _ in shapes), sum(w for _, w in shapes)
    row_order = draw(st.permutations(range(nr)))
    col_order = draw(st.permutations(range(nc)))
    entries = [[ZERO] * nc for _ in range(nr)]
    for h, w in shapes:
        rs, cs = row_order[:h], col_order[:w]
        row_order, col_order = row_order[h:], col_order[w:]
        for i in rs:
            for j in cs:
                entries[i][j] = draw(ENTRIES)
        if (h, w) == (2, 2) and draw(st.booleans()):
            f = draw(ENTRIES)
            entries[rs[1]] = [a * f for a in entries[rs[0]]]
    rhs = [draw(SCALARS) for _ in range(nr)]
    x = [draw(SCALARS) for _ in range(nc)]
    image = [sum((a * b for a, b in zip(row, x)), ZERO) for row in entries]
    return entries, nc, rhs, image


def _weighted_dot(weights, u, v):
    return sum((w * a.conj() * b for w, a, b in zip(weights, u, v)), ZERO)


def _dense_least_norm(m, x):
    """x minus its weighted projection K (K* D K)^-1 K* D x onto the dense
    kernel basis K, for the alpha! weights D of the domain."""
    weights = [mi_factorial(alpha) for alpha in m.domain_basis]
    ks = _dense_kernel_columns(list(m.entries), m.ncols)
    if not ks:
        return list(x)
    c = _dense_solve([[_weighted_dot(weights, k, l) for l in ks] for k in ks],
                     [_weighted_dot(weights, k, x) for k in ks])
    return [a - sum((ci * k[j] for ci, k in zip(c, ks)), ZERO) for j, a in enumerate(x)]


def _is_scalar(part):
    return len(part.rs) == len(part.cs) == 1


def _recording_rref(mp):
    calls = []
    original = spectral._rref
    mp.setattr(spectral, "_rref", lambda rows: calls.append(rows) or original(rows))
    return calls


def _check_eliminations(calls, matrices):
    """No 1 x 1 part was factored or has a kernel, and every `_rref` call
    (the one builder of a `_Factor`) is a kept factor of another part or a
    kernel Gram system."""
    parts = [part for m in matrices for part in m.parts]
    assert all("factor" not in vars(p) and p.kernel == () for p in parts if _is_scalar(p))
    assert len(calls) == sum(("factor" in vars(p)) + ("kernel_gram" in vars(p)) for p in parts)


class TestScalarBlocks:
    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_solves_match_the_dense_solve(self, system):
        entries, nc, rhs, image = system
        m = _matrix(entries, nc)
        with pytest.MonkeyPatch.context() as mp:
            calls = _recording_rref(mp)
            x, bad = spectral._solve(m.parts, rhs, nc)
            want = _dense_solve(entries, rhs)
            assert (want is None) == bool(bad)
            if want is not None:
                assert x == want
            assert spectral._solve(m.parts, image, nc)[0] == _dense_solve(entries, image)
            least = _dense_least_norm(m, _dense_solve(entries, image))
            assert spectral._solve(m.parts, image, nc, project=True) == (least, [])
            assert spectral._min_norm_solve(m, image) == least
            _check_eliminations(calls, [m])

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_range_membership_matches_the_dense_route(self, system):
        entries, nc, rhs, image = system
        m = _matrix(entries, nc)
        with pytest.MonkeyPatch.context() as mp:
            calls = _recording_rref(mp)
            for b in (rhs, image):
                _check_range(m, m.to_vector(b))
            _check_eliminations(calls, [m, m.gram_adjoint()])

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_kernel_basis_and_projector_match_the_dense_kernel(self, system):
        entries, nc, _, _ = system
        m = _matrix(entries, nc)
        with pytest.MonkeyPatch.context() as mp:
            calls = _recording_rref(mp)
            _check_kernel(m)
            units = [[ONE if i == j else ZERO for i in range(nc)] for j in range(nc)]
            cols = [[a - b for a, b in zip(e, _dense_least_norm(m, e))] for e in units]
            assert kernel_projector(m).entries == tuple(zip(*cols))
            _check_eliminations(calls, [m])
            # every part but the 1 x 1 ones is eliminated for its kernel
            assert all(("factor" in vars(p)) is not _is_scalar(p) for p in m.parts)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(SCALARS, min_size=1, max_size=7).flatmap(
        lambda diag: st.tuples(st.just(diag), st.lists(SCALARS, min_size=len(diag),
                                                       max_size=len(diag)))))
    def test_pseudoinverse_of_a_diagonal_matrix(self, case):
        # a diagonal M is normal for the alpha! weights (M* = conj(M)), and
        # M^+ w divides w_j by each nonzero a_j and drops the rest
        diag, w = case
        d = len(diag)
        m = _matrix([[a if i == j else ZERO for j in range(d)] for i, a in enumerate(diag)], d)
        with pytest.MonkeyPatch.context() as mp:
            calls = _recording_rref(mp)
            got = pseudoinverse_correction(m, m.to_vector(w))
            assert calls == []
        assert m.from_vector(got) == [b / a if a else ZERO for a, b in zip(diag, w)]
