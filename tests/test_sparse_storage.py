"""Restriction matrices store only their sparse rows.

The dense rows (`entries`) are derived for output and are never read by a
solver: with `entries` made to raise, every solver still gives its answer.
The expected answers below are the ones of the earlier dense-row storage.
"""

from fractions import Fraction

import pytest

from onshell.scalar import GaussianRational, ONE, ZERO
from onshell.deltaspace import DeltaVector
from onshell.opalg import dalembert, euler, lorentz_generator
from onshell.spectral import (
    RestrictionMatrix,
    kernel_basis,
    projector_onto_kernel,
    pseudoinverse_correction,
    range_membership,
    restrict,
)
from onshell.extension import (
    CasimirReport,
    ExtensionRecord,
    existence_check,
    lorentz_casimir_setup,
    onshell_correction,
    order_raising_correction,
    verify_casimir_hypotheses,
)

from conftest import dense_matrix


def sc(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def dv(coeffs):
    return DeltaVector(2, coeffs)


BOX = dalembert(2, 1)
IN_RANGE = BOX.apply_delta(dv({(0, 0): sc(1, 1), (1, 0): sc(2)}))
OUT_OF_RANGE = dv({(0, 0): sc(1), (0, 1): sc(0, 1), (2, 0): sc(3)})
WITNESS = dv({(0, 0): sc(-2), (2, 0): sc(1)})
ROTATION = lorentz_generator(2, 0, 1, (1, 1))
W2 = dv({(0, 0): sc(1), (1, 0): sc(2, -1), (0, 1): sc(Fraction(1, 2)), (2, 0): sc(1, 1),
         (1, 1): sc(3)})


@pytest.fixture
def no_dense_rows(monkeypatch):
    def refuse(self):
        raise AssertionError("dense rows read")
    monkeypatch.setattr(RestrictionMatrix, "entries", property(refuse), raising=False)


def test_entries_patch_is_in_force(no_dense_rows):
    with pytest.raises(AssertionError, match="dense rows read"):
        restrict(BOX, 1).entries


def test_existence_and_counterterm(no_dense_rows):
    yes = existence_check(ExtensionRecord(2, 1, {BOX: IN_RANGE}), BOX)
    assert yes.exists and yes.certificate == dv({(0, 0): sc(1, 1), (1, 0): sc(2)})
    no = existence_check(ExtensionRecord(2, 1, {BOX: OUT_OF_RANGE}), BOX)
    assert not no.exists and no.certificate == WITNESS
    v = onshell_correction(ExtensionRecord(2, 1, {BOX: OUT_OF_RANGE}), BOX)
    assert v == dv({(0, 0): sc(Fraction(-7, 5)), (0, 1): sc(0, Fraction(-1, 9))})


def test_order_raising(no_dense_rows):
    r_op = euler(2, -3) @ euler(2, -4)
    v = order_raising_correction(ExtensionRecord(2, 2, {r_op: W2}), r_op, 1)
    assert v == dv({(0, 0): sc(Fraction(-1, 2))})


def test_kernel_and_range(no_dense_rows):
    assert kernel_basis(restrict(ROTATION, 2)) == [dv({(0, 0): ONE}),
                                                    dv({(2, 0): ONE, (0, 2): ONE})]
    m = restrict(BOX, 1)
    member = range_membership(m, IN_RANGE)
    assert member.member and member.preimage == dv({(0, 0): sc(1, 1), (1, 0): sc(2)})
    assert member.witness is None
    other = range_membership(m, OUT_OF_RANGE)
    assert not other.member and other.preimage is None and other.witness == WITNESS


def test_pseudoinverse_and_projector(no_dense_rows):
    v = pseudoinverse_correction(restrict(ROTATION, 2), W2)
    assert v == dv({(1, 0): sc(Fraction(-1, 2)), (0, 1): sc(2, -1), (2, 0): sc(Fraction(-3, 4)),
                    (1, 1): sc(Fraction(1, 2), Fraction(1, 2)), (0, 2): sc(Fraction(3, 4))})
    half = sc(Fraction(1, 2))
    rows = [[ZERO] * 6 for _ in range(6)]
    rows[0][0] = ONE
    rows[3][3] = rows[3][5] = rows[5][3] = rows[5][5] = half
    assert projector_onto_kernel(ROTATION, 2) == dense_matrix(2, 2, 2, rows)


def test_casimir_hypotheses(no_dense_rows):
    c_op, gens, expr = lorentz_casimir_setup(2, (1, -1))
    assert verify_casimir_hypotheses(c_op, gens, 2, expr) == CasimirReport(
        True, True, True, True, 2, ())


def test_product_drops_cancelled_entries():
    a = dense_matrix(1, 1, 1, ((ONE, ONE), (ONE, sc(2))))
    b = dense_matrix(1, 1, 1, ((ONE, ONE), (sc(-1), ZERO)))
    ab = a.matmul(b)  # ((0, 1), (-1, 1)): entry (0, 0) cancels
    assert ab.sparse_rows == (((1, ONE),), ((0, sc(-1)), (1, ONE)))
    assert all(not x.is_zero() for row in ab.sparse_rows for _, x in row)
    dense = dense_matrix(1, 1, 1, ((ZERO, ONE), (sc(-1), ONE)))
    assert ab == dense and hash(ab) == hash(dense)
    assert ab.entries == dense.entries
