"""Factor once per block, substitute per right-hand side.

`spectral._rref` keeps the row operations of an elimination and
`_Factor.substitute` replays them on a right-hand side.  The replay must
give, entry for entry, what the augmented elimination of [rows | rhs]
gives: the solution with free variables 0, and the same verdict on
consistency.  `restrict` is the one table keyed by (Q, r) (12 entries:
the longest reuse distance measured on the counterterm workload is 11);
A = Q|_r keeps its adjoint A*, its Gram matrix B = A* A and its normality
answer, so the counterterms of several residues factor each block of A,
A* and B (and each kernel Gram system) once, and a repeated "no" answer
factors nothing.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import onshell.spectral as spectral
from onshell.scalar import GaussianRational, ZERO
from onshell.deltaspace import Polynomial
from onshell.opalg import OperatorExpr, dalembert, euler, lorentz_generator
from onshell.extension import (ExtensionRecord, apply_counterterm, onshell_correction,
                               order_raising_correction)

from conftest import random_delta_vector
from test_block_route import _dense_rref

SCALARS = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
              st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3)))


@st.composite
def systems(draw):
    """(rows, rhs): up to 5 x 5, empty, zero, complex and rank-deficient
    blocks (some rows are combinations of others), with a zero, a
    consistent or an arbitrary right-hand side."""
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[draw(SCALARS) for _ in range(nc)] for _ in range(nr)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        a, b = draw(SCALARS), draw(SCALARS)
        rows.insert(draw(st.integers(0, len(rows))),
                    [a * x + b * y for x, y in zip(rows[i], rows[j])])
    kind = draw(st.sampled_from(("zero", "consistent", "arbitrary")))
    if kind == "zero":
        rhs = [ZERO] * len(rows)
    elif kind == "consistent":
        x = [draw(SCALARS) for _ in range(nc)]
        rhs = [sum((a * b for a, b in zip(row, x)), ZERO) for row in rows]
    else:
        rhs = [draw(SCALARS) for _ in rows]
    return rows, rhs, kind


class TestReplay:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_replay_equals_the_augmented_elimination(self, system):
        rows, rhs, kind = system
        nc = len(rows[0]) if rows else 0
        got = spectral._rref(rows).substitute(rhs)
        augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
        factor = spectral._rref(augmented)
        rr, pivots = factor.entries, factor.pivots
        inconsistent = bool(pivots) and pivots[-1] == nc
        assert (got is None) == inconsistent
        assert _dense_rref(augmented)[1] == pivots
        if kind != "arbitrary":
            assert got is not None
        if not inconsistent:
            want = [ZERO] * nc
            for prow, pcol in enumerate(pivots):
                want[pcol] = rr[prow][-1]
            assert got == want
            assert [sum((a * b for a, b in zip(row, got)), ZERO) for row in rows] == rhs

    def test_one_factor_serves_many_right_hand_sides(self):
        # a tall block of full column rank: the rows after the last pivot are
        # checked at the solution, not reduced
        rng = random.Random(16)
        rows = [[GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(3)]
                for _ in range(6)]
        factor = spectral._rref(rows)
        assert factor.pivots == [0, 1, 2] and len(factor.rest) > 0
        for _ in range(20):
            rhs = [GaussianRational(rng.randint(-3, 3)) for _ in rows]
            augmented = spectral._rref([row + [b] for row, b in zip(rows, rhs)])
            rr, pivots = augmented.entries, augmented.pivots
            got = factor.substitute(rhs)
            if pivots[-1] == 3:
                assert got is None
            else:
                assert got == [row[-1] for row in rr[:3]]


CASES = ((dalembert(4, 1), 4, 3), (euler(3, Fraction(-2)) ** 2, 3, 2))


def _clear():
    spectral.restrict.cache_clear()


def _four_counterterms(q, n, r):
    rng = random.Random(61)
    out = []
    for _ in range(4):
        rec = ExtensionRecord(n, r, {q: random_delta_vector(rng, n, r + q.essential_order().q)})
        v = onshell_correction(rec, q)
        out.append((v, apply_counterterm(rec, v).residue(q)))
    return out


class TestReuse:
    @pytest.mark.parametrize("q, n, r", CASES, ids=("box(1) n=4 r=3", "euler(-2)^2 n=3 r=2"))
    def test_one_factorization_per_block_across_residues(self, monkeypatch, q, n, r):
        _clear()
        calls = []
        original = spectral._rref

        def recording(rows):
            calls.append(len(rows))
            return original(rows)
        monkeypatch.setattr(spectral, "_rref", recording)
        first = _four_counterterms(q, n, r)
        a = spectral.restrict(q, r)
        kept = (a, a.gram_adjoint(), a.gram)
        # a second read of the (Q, r) table gives the same A, A* and B
        again = spectral.restrict(q, r)
        assert all(x is y for x, y in zip(kept, (again, again.gram_adjoint(), again.gram)))
        # every elimination made is one kept block factor or kernel Gram system
        factored = sum("factor" in vars(part) for m in kept for part in m.parts)
        grams = sum("kernel_gram" in vars(part) for m in kept for part in m.parts)
        assert factored > 1 and len(calls) == factored + grams
        # the tables start again empty and give the same answers
        _clear()
        fresh = spectral.restrict(q, r)
        again = (fresh, fresh.gram_adjoint(), fresh.gram)
        assert all(a is not b and a == b for a, b in zip(kept, again))
        assert _four_counterterms(q, n, r) == first

    def test_normality_decided_once_per_kept_matrix(self, monkeypatch):
        # a kept (Q, r) answers is_normal from its cached bool: the second
        # pseudoinverse and order-raising calls form no matrix product
        _clear()
        products = []
        original = spectral.RestrictionMatrix.matmul

        def recording(self, other):
            products.append(self.nrows)
            return original(self, other)
        monkeypatch.setattr(spectral.RestrictionMatrix, "matmul", recording)
        q = lorentz_generator(2, 0, 1, (1, -1))
        rng = random.Random(17)
        m = spectral.restrict(q, 2)
        w = random_delta_vector(rng, 2, 2)
        first = spectral.pseudoinverse_correction(m, w)
        assert len(products) == 2
        del products[:]
        assert spectral.pseudoinverse_correction(spectral.restrict(q, 2), w) == first
        assert products == []
        rec = ExtensionRecord(2, 2, {q: w})
        v = order_raising_correction(rec, q, 1)
        del products[:]
        assert order_raising_correction(rec, q, 1) == v
        assert products == []
        # what is kept beside the answer is the adjoint that gram_adjoint()
        # returns and the Gram matrix
        kept = [x for x in vars(m).values() if isinstance(x, spectral.RestrictionMatrix)]
        assert sorted(map(id, kept)) == sorted(map(id, (m.gram_adjoint(), m.gram)))

    @pytest.mark.parametrize("q, r, normal", (
        (lorentz_generator(2, 0, 1, (1, -1)), 2, True),
        (euler(3, Fraction(-2)) ** 2, 2, True),
        (OperatorExpr.multiplication(Polynomial.coordinate(2, 1))
         @ OperatorExpr.derivative(2, (1, 0)), 1, False),
    ), ids=("L(0,1) n=2 r=2", "euler(-2)^2 n=3 r=2", "x2*d1 n=2 r=1"))
    def test_normality_after_the_gram_matrix_forms_one_product(self, monkeypatch, q, r,
                                                               normal):
        # B = A* A is kept with A, so is_normal forms M M* alone
        _clear()
        spectral.restrict(q, r).gram
        products = []
        original = spectral.RestrictionMatrix.matmul

        def recording(self, other):
            products.append(self.nrows)
            return original(self, other)
        monkeypatch.setattr(spectral.RestrictionMatrix, "matmul", recording)
        assert spectral.restrict(q, r).is_normal() is normal
        assert len(products) == 1

    def test_counterterm_after_the_pseudoinverse_factors_nothing(self, monkeypatch):
        # A^+ w has one route on the kept B = A* A: after the pseudoinverse of
        # a normal (Q, r), its counterterm eliminates no block again
        _clear()
        q = lorentz_generator(2, 0, 1, (1, 1))
        w = random_delta_vector(random.Random(5), 2, 2)
        plus = spectral.pseudoinverse_correction(spectral.restrict(q, 2), w)
        calls = []
        original = spectral._rref

        def recording(rows):
            calls.append(len(rows))
            return original(rows)
        monkeypatch.setattr(spectral, "_rref", recording)
        assert onshell_correction(ExtensionRecord(2, 2, {q: w}), q) == plus.scale(-1)
        assert calls == []

    def test_repeated_no_answer_factors_nothing(self, monkeypatch):
        # the witness is read off the kept adjoint's parts: the second
        # out-of-range question on a kept A eliminates no block again
        _clear()
        a = spectral.restrict(dalembert(4, 1), 3)
        w = a.to_vector([GaussianRational(Fraction(k % 5 - 2), Fraction(k % 3))
                         for k in range(a.nrows)])
        first = spectral.range_membership(a, w)
        assert not first.member
        calls = []
        original = spectral._rref

        def recording(rows):
            calls.append(len(rows))
            return original(rows)
        monkeypatch.setattr(spectral, "_rref", recording)
        assert spectral.range_membership(spectral.restrict(dalembert(4, 1), 3), w) == first
        assert calls == []
