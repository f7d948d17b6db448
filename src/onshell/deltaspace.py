"""Finite-dimensional spaces of delta derivatives and their scalar product.

A distribution supported at the origin is a finite combination of derivatives
of the delta distribution, v = sum_a v_a * delta^(a) with multi-indices a.
This module provides the multi-index combinatorics, the sparse map
multi-index -> scalar (`SparseMap`) behind the delta vector and polynomial
types (and chi's constant-coefficient operators), the pairing
<delta^(a), x^b>, the mutually inverse maps between delta vectors and
polynomials, and the weighted scalar product
(v|w)_r = sum_a a! * conj(v_a) * w_a.

Sign convention: delta^(a) means the a-th partial derivative of delta, so
<delta^(a), f> = (-1)^|a| * (d^a f)(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

from .scalar import GaussianRational, ZERO, ONE

# Degree of the zero vector: a distinguished minus-infinity value.
NEG_INF = float("-inf")

MultiIndex = tuple  # length-n tuple of non-negative ints


class DimensionMismatch(ValueError):
    pass


class DegreeOverflow(ValueError):
    pass


# ---------------------------------------------------------------------------
# multi-index combinatorics
# ---------------------------------------------------------------------------

def mi_order(alpha: MultiIndex) -> int:
    return sum(alpha)


def mi_factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def mi_add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(map(add, alpha, beta))


def mi_leq(beta: MultiIndex, alpha: MultiIndex) -> bool:
    """Componentwise beta <= alpha."""
    return all(b <= a for b, a in zip(beta, alpha))


def mi_sub(alpha: MultiIndex, beta: MultiIndex):
    """alpha - beta, or None when beta is not componentwise <= alpha."""
    if not mi_leq(beta, alpha):
        return None
    return tuple(a - b for a, b in zip(alpha, beta))


def mi_binomial(alpha: MultiIndex, kappa: MultiIndex) -> int:
    out = 1
    for a, k in zip(alpha, kappa):
        out *= math.comb(a, k)
    return out


def _compositions(total: int, parts: int):
    """All exponent tuples of given length summing to total, lex-descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def enumerate_multi_indices(n: int, r: int) -> tuple:
    """All multi-indices with |a| <= r in graded lexicographic order.

    Graded: sorted by total order first; within one total order the indices
    are lex-descending, e.g. (2,0), (1,1), (0,2).  Length is C(n+r, n).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if r < 0:
        raise ValueError("maximal order must be >= 0")
    out = []
    for k in range(r + 1):
        out.extend(_compositions(k, n))
    return tuple(out)


# ---------------------------------------------------------------------------
# sparse coefficient maps
# ---------------------------------------------------------------------------

def _sort_key(alpha: MultiIndex):
    # graded lex: by total order, then lex-descending within the grade
    return (mi_order(alpha), tuple(-a for a in alpha))


class SparseMap:
    """Finite map multi-index -> scalar, the shared body of the sparse types.

    A subclass is a frozen dataclass with two fields, its space and
    `coeffs`, and an attribute `n`, the length of every index.  The space is
    `n` itself unless the subclass overrides `space()`;
    `type(x)(x.space(), coeffs)` rebuilds a map in the same space.
    Canonical form: every value is a `GaussianRational`, every index a tuple
    of length n, and no zero is stored.  Arithmetic accepts only operands of
    the same class over the same space and raises `DimensionMismatch`
    otherwise.  `__str__` writes each term as `(c)*<_symbol>^alpha`.
    """

    def __post_init__(self):
        n = self.n
        cleaned = {}
        for alpha, c in self.coeffs.items():
            c = GaussianRational.of(c)
            if len(alpha) != n:
                raise DimensionMismatch(f"index {alpha} has length != {n}")
            if not c.is_zero():
                cleaned[tuple(alpha)] = c
        object.__setattr__(self, "coeffs", cleaned)

    def space(self):
        return self.n

    @classmethod
    def zero(cls, space) -> "SparseMap":
        return cls(space, {})

    def _check(self, other: "SparseMap", verb: str):
        if other.__class__ is not self.__class__ or other.space() != self.space():
            raise DimensionMismatch(f"{verb} a {type(self).__name__} and a {type(other).__name__}: "
                                    "operands must share one class and one space")

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """max |a| over nonzero coefficients; NEG_INF for the zero map."""
        if not self.coeffs:
            return NEG_INF
        return max(mi_order(a) for a in self.coeffs)

    def get(self, alpha: MultiIndex) -> GaussianRational:
        return self.coeffs.get(tuple(alpha), ZERO)

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: _sort_key(kv[0]))

    def __add__(self, other):
        self._check(other, "adding")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(self.space(), out)

    def __sub__(self, other):
        self._check(other, "subtracting")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] - c if k in out else -c
        return type(self)(self.space(), out)

    def scale(self, c):
        c = GaussianRational.of(c)
        return type(self)(self.space(), {a: v * c for a, v in self.coeffs.items()})

    def conj(self):
        return type(self)(self.space(), {a: v.conj() for a, v in self.coeffs.items()})

    def _monomial_product(self, other):
        """sum_(a,b) c_a d_b [a + b]: the product of commuting monomials."""
        self._check(other, "multiplying")
        out = {}
        for a, ca in self.coeffs.items():
            for b, cb in other.coeffs.items():
                k = mi_add(a, b)
                out[k] = out[k] + ca * cb if k in out else ca * cb
        return type(self)(self.space(), out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{self._symbol}^{a}" for a, c in self.items_sorted())


@dataclass(frozen=True)
class DeltaVector(SparseMap):
    """Element of D'({0}) as a finite map multi-index -> scalar."""

    n: int
    coeffs: dict = field(default_factory=dict)
    _symbol = "delta"

    @staticmethod
    def basis(n: int, alpha: MultiIndex) -> "DeltaVector":
        return DeltaVector(n, {tuple(alpha): ONE})


@dataclass(frozen=True)
class Polynomial(SparseMap):
    """Sparse polynomial sum_a c_a x^a with Gaussian-rational coefficients."""

    n: int
    coeffs: dict = field(default_factory=dict)
    _symbol = "x"

    __mul__ = SparseMap._monomial_product

    @staticmethod
    def constant(n: int, c) -> "Polynomial":
        return Polynomial(n, {(0,) * n: GaussianRational.of(c)})

    @staticmethod
    def monomial(n: int, alpha: MultiIndex, c=ONE) -> "Polynomial":
        return Polynomial(n, {tuple(alpha): GaussianRational.of(c)})

    @staticmethod
    def coordinate(n: int, i: int) -> "Polynomial":
        e = tuple(1 if j == i else 0 for j in range(n))
        return Polynomial(n, {e: ONE})

    def vanishing_order(self):
        """min |a| over nonzero coefficients; None for the zero polynomial."""
        if not self.coeffs:
            return None
        return min(mi_order(a) for a in self.coeffs)

    def differentiate(self, gamma: MultiIndex) -> "Polynomial":
        """d^gamma applied to the polynomial."""
        out = {}
        for a, c in self.coeffs.items():
            b = mi_sub(a, gamma)
            if b is None:
                continue
            fac = 1
            for ai, gi in zip(a, gamma):
                fac *= math.perm(ai, gi)
            out[b] = out.get(b, ZERO) + c * fac
        return Polynomial(self.n, out)

    def substitute_linear(self, matrix) -> "Polynomial":
        """f(Lx): substitute x_i -> sum_j L[i][j] x_j, exact."""
        images = []
        for i in range(self.n):
            row = {(tuple(1 if k == j else 0 for k in range(self.n))): GaussianRational.of(matrix[i][j])
                   for j in range(self.n) if matrix[i][j] != 0}
            images.append(Polynomial(self.n, row))
        out = Polynomial.zero(self.n)
        for a, c in self.coeffs.items():
            term = Polynomial.constant(self.n, c)
            for i, ai in enumerate(a):
                for _ in range(ai):
                    term = term * images[i]
            out = out + term
        return out


# ---------------------------------------------------------------------------
# pairing, the two maps, and the scalar product
# ---------------------------------------------------------------------------

def pair(v: DeltaVector, f: Polynomial) -> GaussianRational:
    """Bilinear pairing <v, f>; <delta^(a), x^b> = (-1)^|a| a! [a == b]."""
    if v.n != f.n:
        raise DimensionMismatch("pairing requires matching dimensions")
    out = ZERO
    for alpha, c in v.coeffs.items():
        fc = f.coeffs.get(alpha)
        if fc is None:
            continue
        sign = -1 if mi_order(alpha) % 2 else 1
        out = out + c * fc * (sign * mi_factorial(alpha))
    return out


def smap(r: int, v: DeltaVector) -> Polynomial:
    """S_r v = sum_{|a|<=r} (x^a / a!) <v, x^a>;  S_r delta^(a) = (-1)^|a| x^a."""
    if v.degree() > r:
        raise DegreeOverflow(f"delta vector of degree {v.degree()} exceeds order {r}")
    out = {}
    for alpha, c in v.coeffs.items():
        sign = -1 if mi_order(alpha) % 2 else 1
        out[alpha] = c * sign
    return Polynomial(v.n, out)


def tmap(r: int, f: Polynomial) -> DeltaVector:
    """T_r f = sum_{|a|<=r} (delta^(a) / a!) <delta^(a), f>: degree-r truncation."""
    out = {}
    for alpha, c in f.coeffs.items():
        k = mi_order(alpha)
        if k > r:
            continue
        sign = -1 if k % 2 else 1
        out[alpha] = c * sign
    return DeltaVector(f.n, out)


def inner(r: int, v: DeltaVector, w: DeltaVector) -> GaussianRational:
    """(v|w)_r = sum_{|a|<=r} a! conj(v_a) w_a, Hermitian and positive definite."""
    if v.n != w.n:
        raise DimensionMismatch("inner product requires matching dimensions")
    if v.degree() > r or w.degree() > r:
        raise DegreeOverflow("inner product arguments exceed the given order")
    out = ZERO
    for alpha, c in v.coeffs.items():
        wc = w.coeffs.get(alpha)
        if wc is None:
            continue
        out = out + c.conj() * wc * mi_factorial(alpha)
    return out
