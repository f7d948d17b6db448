"""Symbolic algebra of operators on distributions.

Operators are finite sums of primitive terms

    a(x) * d^gamma * (pullback by an invertible rational matrix L),

read right to left: first the pullback, then the derivative, then
multiplication by the polynomial coefficient.  The normal form keeps
coefficients left, derivatives middle and at most one pullback per term;
composition rewrites products into this shape using the commutation rule
d_i x_j = x_j d_i + [i == j] and the chain rule for linear pullbacks.  A
product of terms whose left factor has no pullback and no derivative, or
whose right coefficient is constant, is the one term (a b) d^(gamma+delta):
the Leibniz sum is formed only when it has more than one summand or a
pullback must be moved right, so a monomial such as 2/3*x1*d1*d2 is built
without differentiating anything.

Pullbacks use the weak convention <P_L u, phi> = |det L|^(-1) <u, phi o L^(-1)>,
so that the pullback of an ordinary function is plain composition with L;
`mat_inv_det` forms L^(-1) and det L on the row reduction `scalar.reduce_row`.

Each operator keeps one integer form of its coefficients, compiled once
(`_integer_terms`: per term the derivative, the pullback and the
coefficient monomials as integer (re, im) numerators over one denominator
per operator).  The action on delta vectors (`_delta_action`) is its signed
form, with (-1)^|beta| folded in.  One kernel, `_delta_image`, owns the
rule: it gives the image of a basis vector delta^(alpha) as integer
numerators over one denominator, every term adding into one accumulator.
`spectral.restrict` adds these images straight into the rows of Q|_r and
`apply_delta` sums them over a vector's coefficients; both reduce each
nonzero entry once.
P_L keeps the order of a delta derivative, so its action on each order k is
computed once per (L, k) from x^a o L^(-1), |a| = k, as integer numerators
over one denominator, and kept in a bounded cache (`_pullback_degree`)
shared by every operator with that pullback.  Each operator also keeps its
own dict {k: table} per pullback, filled on first use, so the matrix L is
hashed once per order rather than once per basis vector.

`commutator` is the one owner of commutation answers: a bounded
`functools.lru_cache` table keyed by the ordered operator pair
(COMMUTATOR_CACHE = 32 entries; operators are frozen and hash by their
canonical key).  `extension.verify_casimir_hypotheses` and
`extension.multi_commuting_correction` read [C, R_i] and [Q_i, Q_j] from it,
so a pair is computed once however many levels and residues ask.  The table
keeps the operator [Q1, Q2]; each caller decides from it, and raises when it
is nonzero, on every call.  [Q1, Q2] is one pass over the term pairs into
one normal form, equal to (Q1 @ Q2) - (Q2 @ Q1).  A pullback-free pair runs
on the shared integer coefficients, and its kappa = 0 Leibniz summand
a b d^(gamma+delta), the same in both orders, is never formed; a pair with a
pullback is `_compose_terms` in both orders.  Products (`@`, `**`) stay on
`_compose_terms`: only a commutator has a summand that cancels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import comb, lcm, perm
from operator import add, sub

from .scalar import GaussianRational, ONE, ZERO, _ratio, _reduced, clear_above, reduce_row
from .deltaspace import (
    DeltaVector,
    DimensionMismatch,
    Polynomial,
    enumerate_multi_indices,
    mi_add,
    mi_binomial,
    mi_factorial,
    mi_order,
    mi_sub,
)

Matrix = tuple  # tuple of row tuples of Fractions

# Largest operator size (see `OperatorExpr.size`) that a power, or a product
# in the operator parser, may reach.  Each power multiplies the size, so a
# small operator raised to a small exponent can still be too large to form;
# every operator this package works with stays below a few hundred.
MAX_OPERATOR_SIZE = 4096
# Largest product size(a) * size(b) of a composition a @ b that may be
# formed: the work of a product grows with it, so a product of two operators
# each under MAX_OPERATOR_SIZE is refused before it runs for minutes.  The
# largest in use is euler(-3)^5 @ euler(-3), 630.
MAX_PRODUCT_SIZE = 16 * MAX_OPERATOR_SIZE
# Operator pairs whose commutator `commutator` keeps; the answer depends on
# the pair alone.  `renorm --lorentz` at n = 4 asks 6 (one per generator), a
# counterterm benchmark pass 6, and the Casimir checks of n = 2 to 5 together
# 20; each entry holds three operators.
COMMUTATOR_CACHE = 32


class SingularMatrixError(ValueError):
    pass


class InvalidSignature(ValueError):
    pass


class OperatorTooLarge(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact rational matrices (pullback maps)
# ---------------------------------------------------------------------------

def mat_from(rows) -> Matrix:
    """The rows of L as `Fraction`s; each entry is read by `scalar._ratio`."""
    return tuple(tuple(Fraction(*_ratio(x)) for x in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=256)
def mat_inv_det(m: Matrix) -> tuple:
    """(inverse, determinant) of a square rational matrix from the reduced
    row echelon form of [L | 1]; the determinant is the product of the pivot
    entries times the sign of the pivot order.  SingularMatrixError when L is
    singular.  Cached: the same pullback matrix is inverted for every term."""
    n = len(m)
    echelon, det = [], ONE
    for i, row in enumerate(m):
        aug = [GaussianRational(x) for x in row] + [ONE if j == i else ZERO for j in range(n)]
        f = reduce_row(echelon, aug, n)
        if f is None:
            raise SingularMatrixError("pullback matrix is not invertible")
        det = det * f
    pivots = [p for p, _, _ in echelon]
    if sum(a > b for k, a in enumerate(pivots) for b in pivots[k + 1:]) % 2:
        det = -det
    return tuple(tuple(x.re for x in row[n:]) for _, row, _ in clear_above(echelon)), det.re


def _is_identity(m: Matrix) -> bool:
    return all(m[i][j] == (1 if i == j else 0) for i in range(len(m)) for j in range(len(m)))


@lru_cache(maxsize=128)
def _pullback_degree(pb: Matrix, k: int) -> tuple:
    """P_L on the delta derivatives of order k, as (den, {a: ((alpha, f), ...)})
    with integers f and P_L delta^(a) = sum (f/den) delta^(alpha),
    |alpha| = |a| = k, den the least common denominator of the table.

    From <P_L delta^(a), x^alpha> = |det L|^(-1) <delta^(a), x^alpha o L^(-1)>:
    f/den = c(alpha, a) a! / (alpha! |det L|), where c(alpha, a) is the
    coefficient of x^a in the homogeneous x^alpha o L^(-1) (real, as L is).
    Cached per (L, k): the same pullback meets every column of every
    restriction.  The returned table is shared by every caller and must not
    be changed.
    """
    inv, det = mat_inv_det(pb)
    n = len(pb)
    scale = 1 / abs(det)
    out = {}
    for alpha in enumerate_multi_indices(n, k):
        if mi_order(alpha) != k:
            continue
        image = Polynomial.monomial(n, alpha).substitute_linear(inv)
        for a, c in image.coeffs.items():
            f = c.re * Fraction(mi_factorial(a), mi_factorial(alpha)) * scale
            out.setdefault(a, []).append((alpha, f))
    den = lcm(*(f.denominator for images in out.values() for _, f in images))
    return den, {a: tuple((alpha, f.numerator * (den // f.denominator)) for alpha, f in images)
                 for a, images in out.items()}


# ---------------------------------------------------------------------------
# operator expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EssentialOrder:
    """Least q with deg(Qu) <= deg u + q; `exact` is False when q is only a
    certified upper bound (compositions involving pullbacks)."""

    q: int
    exact: bool = True


def compose_checked(a: "OperatorExpr", b: "OperatorExpr") -> "OperatorExpr":
    """a @ b under both size budgets: OperatorTooLarge before the product is
    formed when size(a) * size(b) exceeds MAX_PRODUCT_SIZE, and after it when
    its own size exceeds MAX_OPERATOR_SIZE."""
    if a.size() * b.size() > MAX_PRODUCT_SIZE:
        raise OperatorTooLarge(f"operator product of sizes {a.size()} and {b.size()} "
                               f"exceeds the maximum {MAX_PRODUCT_SIZE}")
    out = a @ b
    if out.size() > MAX_OPERATOR_SIZE:
        raise OperatorTooLarge(f"operator size {out.size()} exceeds the maximum {MAX_OPERATOR_SIZE}")
    return out


@dataclass(frozen=True, eq=False)
class OperatorExpr:
    n: int
    # terms: tuple of (coeff Polynomial, deriv MultiIndex, pullback Matrix|None)
    terms: tuple

    # -- construction --------------------------------------------------------

    @staticmethod
    def _normalized(n: int, raw_terms) -> "OperatorExpr":
        acc = {}
        for coeff, gamma, pb in raw_terms:
            if pb is not None and _is_identity(pb):
                pb = None
            key = (tuple(gamma), pb)
            prev = acc.get(key)
            acc[key] = coeff if prev is None else prev + coeff
        terms = []
        for (gamma, pb), coeff in acc.items():
            if not coeff.is_zero():
                terms.append((coeff, gamma, pb))
        terms.sort(key=lambda t: (mi_order(t[1]), tuple(-g for g in t[1]),
                                  t[2] if t[2] is not None else ()))
        return OperatorExpr(n, tuple(terms))

    @staticmethod
    def zero(n: int) -> "OperatorExpr":
        return OperatorExpr(n, ())

    @staticmethod
    def from_scalar(n: int, c) -> "OperatorExpr":
        c = GaussianRational.of(c)
        if c.is_zero():
            return OperatorExpr.zero(n)
        return OperatorExpr(n, ((Polynomial.constant(n, c), (0,) * n, None),))

    @staticmethod
    def identity(n: int) -> "OperatorExpr":
        return OperatorExpr.from_scalar(n, ONE)

    @staticmethod
    def multiplication(p: Polynomial) -> "OperatorExpr":
        """Multiplication operator u -> p(x) u."""
        if p.is_zero():
            return OperatorExpr.zero(p.n)
        return OperatorExpr(p.n, ((p, (0,) * p.n, None),))

    @staticmethod
    def derivative(n: int, gamma) -> "OperatorExpr":
        return OperatorExpr(n, ((Polynomial.constant(n, ONE), tuple(gamma), None),))

    @staticmethod
    def pullback(matrix) -> "OperatorExpr":
        m = mat_from(matrix)
        n = len(m)
        if any(len(row) != n for row in m):
            raise DimensionMismatch("pullback matrix must be square")
        mat_inv_det(m)  # SingularMatrixError when L is not invertible
        if _is_identity(m):
            return OperatorExpr.identity(n)
        return OperatorExpr(n, ((Polynomial.constant(n, ONE), (0,) * n, m),))

    # -- canonical key / equality ---------------------------------------------

    @cached_property
    def _key(self) -> tuple:
        return (self.n, tuple(
            (gamma, pb, tuple(sorted(coeff.coeffs.items(), key=lambda kv: kv[0])))
            for coeff, gamma, pb in self.terms
        ))

    def key(self):
        """The canonical key behind == and hash, built once per operator."""
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorExpr) and self._key == other._key

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def size(self) -> int:
        """Total number of coefficient monomials over the terms."""
        return sum(len(coeff.coeffs) for coeff, _, _ in self.terms)

    # -- linear structure -----------------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if self.n != other.n:
            raise DimensionMismatch("adding operators of different dimensions")
        return OperatorExpr._normalized(self.n, self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "OperatorExpr":
        c = GaussianRational.of(c)
        return OperatorExpr._normalized(
            self.n, tuple((coeff.scale(c), g, pb) for coeff, g, pb in self.terms))

    def __neg__(self) -> "OperatorExpr":
        return self.scale(-1)

    # -- composition ------------------------------------------------------------

    def _compose_terms(self, t1, t2):
        """Primitive-term product t1 o t2 as a list of primitive terms.

        With no pullback on t1 and gamma = 0 or b constant, the Leibniz sum
        below has one nonzero summand, (a b) d^(gamma + delta) P_M, which
        is returned without forming it.  Otherwise the sum runs over the
        kappa <= gamma with kappa_i <= deg_(x_i) b (d^kappa b = 0 for every
        other kappa); without a pullback on t1 each summand's coefficient is
        appended as it is, with d^(gamma - kappa + delta)."""
        n = self.n
        a, gamma, pbl = t1
        b, delta, pbm = t2
        if pbl is None and (not any(gamma) or b.degree() == 0):
            return [(a * b, mi_add(gamma, delta), pbm)]
        pb = pbm
        if pbl is not None:
            # move the pullback of t1 right, past b and d^delta:
            # P_L o d^delta = (x^delta o L^(-T))(d) o P_L
            b = b.substitute_linear(pbl)
            dpoly = Polynomial.monomial(n, delta).substitute_linear(
                tuple(zip(*mat_inv_det(pbl)[0])))
            pb = pbl if pbm is None else mat_mul(pbm, pbl)
        # Leibniz: d^gamma (b .) = sum binom(gamma,kappa) (d^kappa b) d^(gamma-kappa),
        # with kappa_i up to b's degree in x_i (d^kappa b = 0 beyond it)
        top = [max(e) for e in zip(*b.coeffs)] or (0,) * n
        out = []
        for kappa in product(*(range(min(g, t) + 1) for g, t in zip(gamma, top))):
            db = b.differentiate(kappa)
            if db.is_zero():
                continue
            coeff = a * db.scale(mi_binomial(gamma, kappa))
            rest = mi_sub(gamma, kappa)
            if pbl is None:
                out.append((coeff, mi_add(rest, delta), pb))
                continue
            for eps, d_c in dpoly.coeffs.items():
                out.append((coeff.scale(d_c), mi_add(rest, eps), pb))
        return out

    def __matmul__(self, other: "OperatorExpr") -> "OperatorExpr":
        """Operator composition: (Q1 @ Q2) u = Q1(Q2 u)."""
        if self.n != other.n:
            raise DimensionMismatch("composing operators of different dimensions")
        raw = []
        for t1 in self.terms:
            for t2 in other.terms:
                raw.extend(self._compose_terms(t1, t2))
        return OperatorExpr._normalized(self.n, raw)

    def __pow__(self, k: int) -> "OperatorExpr":
        """k-fold composition; OperatorTooLarge at the first step that
        `compose_checked` refuses."""
        if k < 0:
            raise ValueError("negative operator powers are not defined")
        out = OperatorExpr.identity(self.n)
        for _ in range(k):
            out = compose_checked(out, self)
        return out

    # -- involutions -------------------------------------------------------------

    def conj(self) -> "OperatorExpr":
        return OperatorExpr._normalized(
            self.n, tuple((coeff.conj(), g, pb) for coeff, g, pb in self.terms))

    def transpose(self) -> "OperatorExpr":
        """Q^t with <Qu, phi> = <u, Q^t phi>.

        Termwise (a d^gamma P_L)^t = |det L|^(-1) P_(L^-1) o (-1)^|gamma| d^gamma o (a .),
        renormalized into coefficients-left shape.
        """
        n = self.n
        out = OperatorExpr.zero(n)
        for coeff, gamma, pb in self.terms:
            sign = -1 if mi_order(gamma) % 2 else 1
            piece = OperatorExpr.derivative(n, gamma).scale(sign) @ OperatorExpr.multiplication(coeff)
            if pb is not None:
                inv, det = mat_inv_det(pb)
                front = OperatorExpr.pullback(inv).scale(GaussianRational(1 / abs(det)))
                piece = front @ piece
            out = out + piece
        return out

    # -- structural data -----------------------------------------------------------

    def essential_order(self) -> EssentialOrder:
        """Least q with deg(Qu) <= deg u + q.

        Exact via the coefficient-vanishing criterion for purely differential
        operators; terms carrying a pullback contribute their differential
        part's bound (the pullback factor adds nothing), and the result is
        then only certified as an upper bound.
        """
        q = 0
        has_pullback = False
        for coeff, gamma, pb in self.terms:
            if pb is not None:
                has_pullback = True
            q = max(q, mi_order(gamma) - coeff.vanishing_order())
        return EssentialOrder(q, exact=(not has_pullback) or q == 0)

    def normal_form(self) -> "OperatorExpr":
        """Idempotent canonicalization (construction already normalizes)."""
        return OperatorExpr._normalized(self.n, self.terms)

    # -- actions ----------------------------------------------------------------

    @cached_property
    def _integer_terms(self) -> tuple:
        """The coefficients on integers, compiled once per operator, as
        (den, terms), den the lcm of every coefficient's denominator.  Per
        term: gamma, the pullback matrix (or None) and the coefficient
        monomials as (beta, re, im), re and im the integer numerators of
        c_beta over den.  `_delta_action` and `commutator` read it."""
        den = lcm(*(cb.d for coeff, _, _ in self.terms for cb in coeff.coeffs.values()))
        terms = []
        for coeff, gamma, pb in self.terms:
            monomials = []
            for beta, cb in coeff.coeffs.items():
                f = den // cb.d
                monomials.append((beta, cb.a * f, cb.b * f))
            terms.append((gamma, pb, tuple(monomials)))
        return den, tuple(terms)

    @cached_property
    def _delta_action(self) -> tuple:
        """The delta action, compiled once per operator, as (den, terms),
        the signed form of `_integer_terms`.  Per term: gamma, the pullback
        matrix (or None), the operator's dict of that pullback's
        `_pullback_degree` tables by order (None without a pullback; shared
        by the terms with that pullback, filled on use) and the coefficient
        monomials as (beta, its nonzero (i, beta_i), re, im), re and im the
        integer numerators over den of (-1)^|beta| c_beta."""
        den, terms = self._integer_terms
        tables = {}
        signed_terms = []
        for gamma, pb, monomials in terms:
            signed = []
            for beta, re, im in monomials:
                if mi_order(beta) % 2:
                    re, im = -re, -im
                signed.append((beta, tuple((i, b) for i, b in enumerate(beta) if b), re, im))
            signed_terms.append((gamma, pb, None if pb is None else tables.setdefault(pb, {}),
                                 tuple(signed)))
        return den, tuple(signed_terms)

    def _delta_image(self, alpha) -> tuple:
        """The image of delta^(alpha) as (acc, den): acc maps each target
        index to the [re, im] integer numerators of its coefficient over den
        (a sum may cancel to zero).

        The one owner of the rule.  d^gamma delta^(s) = delta^(s+gamma);
        x^b delta^(s) = (-1)^|b| s!/(s-b)! delta^(s-b) when b <= s, else 0;
        P_L maps the delta derivatives of each order k among themselves (see
        `_pullback_degree`).  So a term c_b x^b d^gamma sends delta^(alpha)
        to (-1)^|b| c_b (alpha+gamma)!/(alpha+gamma-b)! delta^(alpha+gamma-b),
        after P_L when the term has one.  den is the operator's denominator
        times the lcm of the pullback tables' denominators at order |alpha|.
        """
        den, terms = self._delta_action
        k = mi_order(alpha)
        m = 1
        for _, pb, tables, _ in terms:
            if pb is not None:
                table = tables.get(k)
                if table is None:
                    table = tables[k] = _pullback_degree(pb, k)
                m = lcm(m, table[0])
        acc = {}
        for gamma, pb, tables, signed in terms:
            if pb is None:
                sources = ((alpha, m),)
            else:
                t_den, table = tables[k]
                sources = table.get(alpha, ())
                if t_den != m:
                    sources = [(a, f * (m // t_den)) for a, f in sources]
            for src, w in sources:
                s = tuple(map(add, src, gamma))
                for beta, nonzero, cr, ci in signed:
                    fac = w
                    for i, bi in nonzero:
                        si = s[i]
                        if bi > si:
                            break
                        fac *= perm(si, bi)
                    else:
                        tgt = tuple(map(sub, s, beta)) if nonzero else s
                        x = acc.get(tgt)
                        if x is None:
                            acc[tgt] = [cr * fac, ci * fac]
                        else:
                            x[0] += cr * fac
                            x[1] += ci * fac
        return acc, den * m

    def apply_delta(self, v: DeltaVector) -> DeltaVector:
        """Exact image of a delta vector: the sum of the images
        `_delta_image` of its basis vectors, accumulated over integers on
        one common denominator and reduced once per target."""
        if self.n != v.n:
            raise DimensionMismatch("operator and delta vector dimensions differ")
        images = [(c, *self._delta_image(alpha)) for alpha, c in v.coeffs.items()]
        big = lcm(*(c.d * den for c, _, den in images))
        acc = {}
        for c, image, den in images:
            f = big // (c.d * den)
            a, b = c.a * f, c.b * f
            for tgt, (x, y) in image.items():
                re, im = a * x - b * y, a * y + b * x
                z = acc.get(tgt)
                if z is None:
                    acc[tgt] = [re, im]
                else:
                    z[0] += re
                    z[1] += im
        return DeltaVector(self.n, {tgt: _reduced(re, im, big)
                                    for tgt, (re, im) in acc.items() if re or im})

    def apply_poly(self, f: Polynomial) -> Polynomial:
        """Exact image of a polynomial (pullbacks act by composition)."""
        if self.n != f.n:
            raise DimensionMismatch("operator and polynomial dimensions differ")
        total = Polynomial.zero(self.n)
        for coeff, gamma, pb in self.terms:
            g = f if pb is None else f.substitute_linear(pb)
            g = g.differentiate(gamma)
            total = total + coeff * g
        return total

    def __str__(self) -> str:
        """The operator in the expression language that `cli.parse_operator`
        reads, one product per coefficient monomial, in term order:
        [-]c*x1^e*...*d1^e*...*reflect([[...],...]) joined by " + " or " - ",
        with c left out when it is 1 and "1" for a bare constant."""
        if self.is_zero():
            return "0"
        pieces = []
        for coeff, gamma, pb in self.terms:
            for beta, c in coeff.items_sorted():
                neg = _is_negative(c)
                if neg:
                    c = -c
                factors = [] if c == ONE else [str(c)]
                for idx, e in enumerate(beta):
                    if e:
                        factors.append(f"x{idx + 1}" + (f"^{e}" if e > 1 else ""))
                for idx, e in enumerate(gamma):
                    if e:
                        factors.append(f"d{idx + 1}" + (f"^{e}" if e > 1 else ""))
                if pb is not None:
                    rows = ",".join("[" + ",".join(str(x) for x in row) + "]" for row in pb)
                    factors.append(f"reflect([{rows}])")
                if not factors:
                    factors.append("1")
                pieces.append(("-" if neg else "+", "*".join(factors)))
        sign0, body0 = pieces[0]
        out = ("-" if sign0 == "-" else "") + body0
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


# ---------------------------------------------------------------------------
# free functions on operators
# ---------------------------------------------------------------------------

def _is_negative(c: GaussianRational) -> bool:
    """A negative real or a negative multiple of i, printed as "-" and -c."""
    if not c.b:
        return c.a < 0
    return not c.a and c.b < 0


def operator_equal(q1: OperatorExpr, q2: OperatorExpr) -> bool:
    return q1.normal_form() == q2.normal_form()


@lru_cache(maxsize=COMMUTATOR_CACHE)
def commutator(q1: OperatorExpr, q2: OperatorExpr) -> OperatorExpr:
    """[Q1, Q2] = Q1 Q2 - Q2 Q1, kept per ordered pair: one pass over the
    term pairs (t1, t2) adding t1 t2 - t2 t1, normalized once, so the
    answer is `(q1 @ q2) - (q2 @ q1)` itself.

    A pair without a pullback runs on the integer coefficients
    (`_integer_terms`) into one accumulator over den1 * den2:
    d^gamma x^e = sum_kappa C(gamma, kappa) e!/(e - kappa)! x^(e - kappa)
    d^(gamma - kappa), and its kappa = 0 summand a b d^(gamma + delta) is
    the same in both orders, so it is never formed.  A pair with a
    pullback is `_compose_terms` in both orders, the second negated: the
    coefficient moved through P_L differs, and nothing cancels."""
    if q1.n != q2.n:
        raise DimensionMismatch("composing operators of different dimensions")
    den1, terms1 = q1._integer_terms
    den2, terms2 = q2._integer_terms
    acc, raw = {}, []
    for t1, (gamma, pb1, mono1) in zip(q1.terms, terms1):
        for t2, (delta, pb2, mono2) in zip(q2.terms, terms2):
            if pb1 is None and pb2 is None:
                for beta, ar, ai in mono1:
                    for e, br, bi in mono2:
                        pr, pi = ar * br - ai * bi, ar * bi + ai * br
                        _leibniz_tail(acc, beta, gamma, e, delta, pr, pi)
                        _leibniz_tail(acc, e, delta, beta, gamma, -pr, -pi)
            else:
                raw += q1._compose_terms(t1, t2)
                raw += [(c.scale(-1), g, pb) for c, g, pb in q1._compose_terms(t2, t1)]
    den, n = den1 * den2, q1.n
    coeffs = {}
    for (g, x), (re, im) in acc.items():
        if re or im:
            coeffs.setdefault(g, {})[x] = _reduced(re, im, den)
    raw += [(Polynomial(n, c), g, None) for g, c in coeffs.items()]
    return OperatorExpr._normalized(n, raw)


def _leibniz_tail(acc, beta, gamma, e, delta, pr, pi):
    """Add (pr + i pi) x^beta d^gamma x^e d^delta less its kappa = 0
    summand into acc, keyed by (derivative, monomial):
    sum_(0 < kappa <= gamma, e) C(gamma, kappa) e!/(e - kappa)!
    x^(beta + e - kappa) d^(gamma - kappa + delta)."""
    for kappa in product(*(range(min(g, t) + 1) for g, t in zip(gamma, e))):
        if not any(kappa):
            continue
        fac = 1
        for g, t, k in zip(gamma, e, kappa):
            if k:
                fac *= comb(g, k) * perm(t, k)
        key = (tuple(g - k + d for g, k, d in zip(gamma, kappa, delta)),
               tuple(b + t - k for b, t, k in zip(beta, e, kappa)))
        x = acc.get(key)
        if x is None:
            acc[key] = [pr * fac, pi * fac]
        else:
            x[0] += pr * fac
            x[1] += pi * fac


# ---------------------------------------------------------------------------
# named constructors
# ---------------------------------------------------------------------------

def check_signature(n: int, signature=None) -> tuple:
    """The metric as a tuple of +-1 of length n; None is the default metric.
    A dimension below 1 is refused before the metric is read."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    sig = default_signature(n) if signature is None else tuple(signature)
    if len(sig) != n or any(s not in (1, -1) for s in sig):
        raise InvalidSignature(f"signature {signature!r} is not a diagonal +-1 metric of size {n}")
    return sig


def default_signature(n: int) -> tuple:
    """diag(+1, -1, ..., -1)."""
    return (1,) + (-1,) * (n - 1)


def euler(n: int, a) -> OperatorExpr:
    """sum_i x_i d_i - a; acts on delta^(alpha) as -(|alpha| + n + a).  a is a
    `GaussianRational` or an int, `Fraction` or str rational; a float is
    refused (TypeError)."""
    terms = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        terms.append((Polynomial.monomial(n, e), e, None))
    op = OperatorExpr._normalized(n, terms)
    return op - OperatorExpr.from_scalar(n, a)


def dalembert(n: int, m2, signature=None) -> OperatorExpr:
    """Wave operator plus mass: sum_mu g^(mu mu) d_mu^2 + m^2; m2 is read as
    `euler` reads a."""
    sig = check_signature(n, signature)
    op = OperatorExpr.from_scalar(n, m2)
    for mu in range(n):
        e2 = tuple(2 if j == mu else 0 for j in range(n))
        op = op + OperatorExpr.derivative(n, e2).scale(sig[mu])
    return op


def lorentz_generator(n: int, mu: int, nu: int, signature=None) -> OperatorExpr:
    """x_mu d_nu - x_nu d_mu with the first index lowered by the metric."""
    sig = check_signature(n, signature)
    if not (0 <= mu < n and 0 <= nu < n):
        raise ValueError("generator indices out of range")
    xmu = Polynomial.coordinate(n, mu).scale(sig[mu])
    xnu = Polynomial.coordinate(n, nu).scale(sig[nu])
    dmu = tuple(1 if j == mu else 0 for j in range(n))
    dnu = tuple(1 if j == nu else 0 for j in range(n))
    return OperatorExpr._normalized(n, ((xmu, dnu, None), (xnu.scale(-1), dmu, None)))


def casimir(n: int, signature=None) -> OperatorExpr:
    """Quadratic Casimir (x_mu d_nu - x_nu d_mu)(x^mu d^nu - x^nu d^mu),
    implicit sum over both indices raised by the metric."""
    sig = check_signature(n, signature)
    total = OperatorExpr.zero(n)
    for mu in range(n):
        for nu in range(n):
            if mu == nu:
                continue
            m = lorentz_generator(n, mu, nu, sig)
            total = total + (m @ m).scale(sig[mu] * sig[nu])
    return total


def reflection(matrix) -> OperatorExpr:
    return OperatorExpr.pullback(matrix)


def parity(n: int) -> OperatorExpr:
    return reflection(tuple(tuple(-1 if i == j else 0 for j in range(n)) for i in range(n)))


def monomial_derivative(n: int, gamma) -> OperatorExpr:
    return OperatorExpr.derivative(n, gamma)


def squared_interval(n: int, signature=None) -> OperatorExpr:
    """Multiplication by x_mu x^mu = sum_mu g_(mu mu) x_mu^2."""
    sig = check_signature(n, signature)
    p = Polynomial.zero(n)
    for mu in range(n):
        e2 = tuple(2 if j == mu else 0 for j in range(n))
        p = p + Polynomial.monomial(n, e2, GaussianRational.of(sig[mu]))
    return OperatorExpr.multiplication(p)
