"""Bookkeeping calculus for degrees of divergence.

Exact values exist only on delta vectors (deg delta^(a) = |a|); everything
else is an upper bound propagated by the standard rules: derivatives add
their order, monomials and vanishing factors subtract, tensor products add
scaling degrees, and an operator adds at most its essential order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deltaspace import NEG_INF, DeltaVector, mi_order
from .opalg import OperatorExpr

EXACT = "exact"
UPPER_BOUND = "upper-bound"


@dataclass(frozen=True)
class DegreeBound:
    value: object  # int or NEG_INF
    exactness: str = UPPER_BOUND

    def __post_init__(self):
        if self.value != NEG_INF and not isinstance(self.value, int):
            raise TypeError("degree values are integers or minus infinity")
        if self.exactness not in (EXACT, UPPER_BOUND):
            raise ValueError(f"unknown exactness flag {self.exactness!r}")

    @property
    def is_exact(self) -> bool:
        return self.exactness == EXACT

    def _shift(self, delta: int) -> "DegreeBound":
        if self.value == NEG_INF:
            return DegreeBound(NEG_INF, UPPER_BOUND if not self.is_exact else EXACT)
        return DegreeBound(self.value + delta, UPPER_BOUND)

    def __str__(self) -> str:
        v = "-inf" if self.value == NEG_INF else str(self.value)
        return f"{v} ({self.exactness})"


def deg_delta(v: DeltaVector) -> DegreeBound:
    """Exact degree of divergence of a delta vector."""
    return DegreeBound(v.degree(), EXACT)


def bound_derivative(d: DegreeBound, gamma) -> DegreeBound:
    """deg(d^gamma u) <= deg u + |gamma|."""
    return d._shift(mi_order(tuple(gamma)))


def bound_monomial(d: DegreeBound, beta) -> DegreeBound:
    """deg(x^beta u) <= deg u - |beta|."""
    return d._shift(-mi_order(tuple(beta)))


def bound_vanishing_factor(d: DegreeBound, k: int) -> DegreeBound:
    """deg(f u) <= deg u - k for smooth f vanishing to order k - 1 at 0;
    an order is at least -1, so k >= 0 (ValueError otherwise)."""
    if k < 0:
        raise ValueError(f"k = {k} is negative: f vanishes to order k - 1 >= -1")
    return d._shift(-k)


def bound_tensor(d1: DegreeBound, d2: DegreeBound) -> DegreeBound:
    """deg(u (x) v) <= deg u + deg v.  Scaling degrees add, sd = deg + n, and
    the dimensions n1 and n2 of the two factors cancel against the
    dimension n1 + n2 of the product."""
    if d1.value == NEG_INF or d2.value == NEG_INF:
        return DegreeBound(NEG_INF, UPPER_BOUND)
    return DegreeBound(d1.value + d2.value, UPPER_BOUND)


def bound_operator(d: DegreeBound, q: OperatorExpr) -> DegreeBound:
    """deg(Q u) <= deg u + (essential order of Q)."""
    return d._shift(q.essential_order().q)
