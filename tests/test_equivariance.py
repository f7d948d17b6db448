"""Equivariance as an oracle for the solve routes.

A signed permutation P of the coordinates that keeps the metric (a
permutation within each sign class, any sign flips) keeps the weighted
product (delta^alpha | delta^beta) = alpha! [alpha = beta], so it is unitary
on every degree-<= r space.  When [Q, P] = 0, P maps ker Q|_r and Ran Q|_r
onto themselves, and every answer that does not depend on a basis must
commute with P: the least-norm counterterm, the pseudoinverse of a normal
restriction, the kernel projector and the range decision (a bool; its
preimage and witness depend on the basis).  The check needs no second
implementation.  [Q, P] = 0 is read from `opalg.commutator`, not from how
Q was built.
"""

import itertools
import random
from fractions import Fraction

import pytest

from onshell.scalar import ONE
from onshell.deltaspace import DeltaVector, enumerate_multi_indices
from onshell.opalg import OperatorExpr, casimir, commutator, dalembert, euler, reflection
from onshell.spectral import kernel_projector, pseudoinverse_correction, range_membership, restrict
from onshell.extension import (
    ExtensionRecord,
    casimir_correction,
    lorentz_casimir_setup,
    onshell_correction,
)

from conftest import random_delta_vector

METRICS = ((1, -1), (1, -1, -1), (-1, 1, 1), (1, -1, -1, -1))
MAX_R = 2


def _metric_id(sig) -> str:
    return "".join("+" if s == 1 else "-" for s in sig)


def _operators(sig) -> dict:
    """The operators under test.  The Euler operators are diagonal, so every
    part of their restrictions is a 1 x 1 scalar block; euler(-n-2) and, at
    n <= 3, euler(-3)^2 have kernel blocks that a symmetry moves (their
    kernels are the degree-2 and the degree-(3-n) level, one block per basis
    vector); the others' kernels are empty or Lorentz invariant, so a
    projector that drops one of their blocks stays equivariant.  n = 4 runs
    three operators only, to keep the file at a few seconds."""
    n = len(sig)
    if n == 4:
        return {"box(1)": dalembert(n, 1, sig), "casimir": casimir(n, sig),
                "euler(-n-2)": euler(n, -n - 2)}
    derivatives = OperatorExpr.identity(n)
    for i in range(n):
        derivatives = derivatives + OperatorExpr.derivative(
            n, tuple(1 if j == i else 0 for j in range(n)))
    return {"box(0)": dalembert(n, 0, sig), "box(3/2)": dalembert(n, Fraction(3, 2), sig),
            "casimir": casimir(n, sig), "euler(-3/2)": euler(n, Fraction(-3, 2)),
            "euler(-n-2)": euler(n, -n - 2), "euler(-3)^2": euler(n, -3) ** 2,
            "d1+...+dn+1": derivatives}


def _signed_permutations(sig) -> list:
    """Every signed permutation matrix but the identity that keeps the metric."""
    n = len(sig)
    out = []
    for perm in itertools.permutations(range(n)):
        if any(sig[perm[i]] != sig[i] for i in range(n)):
            continue
        for signs in itertools.product((1, -1), repeat=n):
            m = tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                      for i in range(n))
            if perm != tuple(range(n)) or -1 in signs:
                out.append(m)
    return out


def _generators(sig) -> list:
    """Signed permutation matrices that generate those keeping the metric:
    each single sign flip and the swap of each two neighbours of one sign
    class."""
    n = len(sig)
    out = [tuple(tuple(-1 if i == j == k else int(i == j) for j in range(n)) for i in range(n))
           for k in range(n)]
    for k in range(n - 1):
        if sig[k] == sig[k + 1]:
            swap = {k: k + 1, k + 1: k}
            out.append(tuple(tuple(int(j == swap.get(i, i)) for j in range(n))
                             for i in range(n)))
    return out


def _symmetries(q: OperatorExpr, sig) -> list:
    """The reflections P of `_signed_permutations` with [Q, P] = 0.  At n = 4
    (95 of them on +---) only those of `_generators`: an answer that commutes
    with P1 and P2 commutes with P1 P2, and every n = 4 operator under test
    commutes with every generator, so the generators stand for the group."""
    ms = _generators(sig) if len(sig) == 4 else _signed_permutations(sig)
    return [p for p in map(reflection, ms) if commutator(q, p).is_zero()]


def _residues(rng, q: OperatorExpr, r: int) -> list:
    """Seeded complex residues of Q at degree r: two images Q v (in range)
    and two vectors of degree <= r + (essential order of Q)."""
    n, top = q.n, r + q.essential_order().q
    return ([q.apply_delta(random_delta_vector(rng, n, r)) for _ in range(2)]
            + [random_delta_vector(rng, n, top) for _ in range(2)])


# every (metric, operator) with a symmetry: all but d1 + d2 + 1 on +-, whose
# sign flips do not commute with it and whose metric admits no permutation
CASES = [(sig, name) for sig in METRICS for name, q in _operators(sig).items()
         if _symmetries(q, sig)]
CASE_IDS = [f"{_metric_id(sig)}-{name}" for sig, name in CASES]
# the operators of essential order 0, whose restrictions are square and
# normal (the Euler operators are diagonal, casimir is self-adjoint)
NORMAL = [(sig, name) for sig, name in CASES if _operators(sig)[name].essential_order().q == 0]
NORMAL_IDS = [f"{_metric_id(sig)}-{name}" for sig, name in NORMAL]


def _cases(sig, name):
    """(Q, P, r, residues) for every symmetry P of Q and r <= MAX_R."""
    q = _operators(sig)[name]
    rng = random.Random(f"{_metric_id(sig)}/{name}")
    for r in range(MAX_R + 1):
        ws = _residues(rng, q, r)
        for p in _symmetries(q, sig):
            yield q, p, r, ws


class TestRecognition:
    def test_signed_permutations_keep_the_weights(self):
        # P maps each delta^alpha to +-delta^(sigma alpha), and alpha! is
        # invariant under permuting alpha
        for sig in METRICS:
            for m in _signed_permutations(sig):
                p = reflection(m)
                for alpha in enumerate_multi_indices(len(sig), MAX_R):
                    [(beta, c)] = p.apply_delta(DeltaVector.basis(len(sig), alpha)).items_sorted()
                    assert sorted(beta) == sorted(alpha) and c in (ONE, -ONE)

    def test_commutator_tells_symmetries_apart(self):
        # at n = 3 on +--, x2 <-> x3 commutes with d1 + d2 + d3 + 1, a sign
        # flip does not; every operator has at least one symmetry
        sig = (1, -1, -1)
        ops = _operators(sig)
        swap = reflection(((1, 0, 0), (0, 0, 1), (0, 1, 0)))
        flip = reflection(((-1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert commutator(ops["d1+...+dn+1"], swap).is_zero()
        assert not commutator(ops["d1+...+dn+1"], flip).is_zero()
        assert all(_symmetries(q, sig) for q in ops.values())
        assert len(_symmetries(ops["casimir"], sig)) == len(_signed_permutations(sig))

    def test_generators_stand_for_the_group_at_n4(self):
        # the products of the generators are every metric-keeping signed
        # permutation, and each n = 4 operator commutes with each generator
        sig = METRICS[-1]
        gens = _generators(sig)
        identity = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        group = {identity}
        while True:
            more = {tuple(tuple(sum(a[i][k] * g[k][j] for k in range(4)) for j in range(4))
                          for i in range(4)) for a in group for g in gens} - group
            if not more:
                break
            group |= more
        assert group == set(_signed_permutations(sig)) | {identity}
        assert all(len(_symmetries(q, sig)) == len(gens) for q in _operators(sig).values())


@pytest.mark.parametrize("sig, name", CASES, ids=CASE_IDS)
class TestEquivariance:
    def test_onshell_correction(self, sig, name):
        for q, p, r, ws in _cases(sig, name):
            for w in ws:
                v = onshell_correction(ExtensionRecord(len(sig), r, {q: w}), q)
                pv = onshell_correction(ExtensionRecord(len(sig), r, {q: p.apply_delta(w)}), q)
                assert pv == p.apply_delta(v)

    def test_kernel_projector(self, sig, name):
        for q, p, r, _ in _cases(sig, name):
            k = kernel_projector(restrict(q, r).gram)
            pr = restrict(p, r)
            assert k.matmul(pr) == pr.matmul(k)

    def test_range_decision(self, sig, name):
        for q, p, r, ws in _cases(sig, name):
            m = restrict(q, r)
            for w in ws:
                assert range_membership(m, p.apply_delta(w)).member == range_membership(m, w).member


@pytest.mark.parametrize("sig, name", NORMAL, ids=NORMAL_IDS)
def test_pseudoinverse_correction(sig, name):
    for q, p, r, ws in _cases(sig, name):
        m = restrict(q, r)
        assert m.is_normal()
        for w in ws:
            assert pseudoinverse_correction(m, p.apply_delta(w)) == \
                p.apply_delta(pseudoinverse_correction(m, w))


@pytest.mark.parametrize("sig", METRICS, ids=_metric_id)
def test_casimir_correction(sig):
    n = len(sig)
    c_op, gens, expr = lorentz_casimir_setup(n, sig)
    rng = random.Random(_metric_id(sig))
    symmetries = _symmetries(c_op, sig)
    assert symmetries
    for r in range(MAX_R + 1):
        for w in _residues(rng, c_op, r):
            v = casimir_correction(ExtensionRecord(n, r, {c_op: w}), c_op, gens, expr)
            for p in symmetries:
                rec = ExtensionRecord(n, r, {c_op: p.apply_delta(w)})
                assert casimir_correction(rec, c_op, gens, expr) == p.apply_delta(v)
