"""Exact Gaussian-rational scalars.

All coefficients in this package are elements of Q(i): numbers a + b*i with
a, b arbitrary-precision rationals.  Every operation is exact; there is no
floating-point mode anywhere.

`GaussianRational` stores three Python ints (a, b, d) and means
(a + b*i)/d, in the canonical form d > 0 and gcd(a, b, d) = 1; zero is
(0, 0, 1).  Equal values therefore have equal triples.  One denominator is
shared by both parts, so an operation costs a few integer products and one
`math.gcd(a, b, d)`, not the up to six `Fraction` operations (each with its
own gcds) of a pair of `Fraction`s; `+` and `-` skip the cross products when
the denominators agree.  A real number is simply b = 0: every operation
has one path.  `re` and `im` are derived on read, as reduced `Fraction`s.

`GaussianRational` is an immutable `__slots__` class: assigning or deleting
an attribute raises `AttributeError`, so values can be shared and used as
dict keys.  Arithmetic builds its results with `_reduced` (or `_canonical`
when the triple is canonical already), which read nothing.

Every exact scalar that enters the package is read by one reader, `_ratio`:
an int, a `Fraction` or a str rational as `Fraction` reads it; anything
else, a float included, raises `TypeError("cannot interpret ... as an exact
rational")`.  A plain ASCII [-]digits[/digits] is read with `int` and one
gcd, any other text by `Fraction` itself, so the accepted forms and the
errors are `Fraction`'s.  One writer, `_text`, writes rational text as
str(Fraction(x, d)) does, with one gcd: `__str__` and the CLI's JSON codec
call it.  The constructor reads each part with `_ratio`, and a Gaussian
quantity (a coefficient, a scale factor, the a of `euler`, the m^2 of
`dalembert`) goes through `GaussianRational.of`, which passes a
`GaussianRational` through and hands anything else to the constructor;
arithmetic reads its other operand so too, but refuses a str, as `Fraction`
does.  The real-only quantities call `_ratio` directly: the mass m^2 of
`chi.FeynmanConfig` and the entries of a pullback matrix (`opalg.mat_from`).

`reduce_row` is the one row reduction behind every exact elimination in
the package (`spectral._rref`, `spectral._krylov_annihilator` and
`opalg.mat_inv_det`); `clear_above` completes its echelon rows to the
reduced row echelon form.  Given a `log` list, both record the multipliers
they apply, so `spectral._rref` can replay an elimination on a right-hand
side without running it again.

The kernels accumulate over integers and divide once.  `sub_mul(x, f, y)`
is x - f*y with the product left as an unreduced triple over f.d * y.d, so
it costs one gcd and builds one object where `x - f * y` costs two of each;
`reduce_row`'s inner loop and the replay of `spectral._Factor.substitute`
run on it.  `spectral._sparse_matvec` sums a row's integer cross products
over one denominator and calls `_reduced` once per output entry.  Neither
goes through the arithmetic methods, so a count of those methods (as a
tracer makes) does not include them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _ratio(x) -> tuple:
    """(numerator, denominator > 0), reduced, of an int, `Fraction` or str
    rational."""
    if x.__class__ is int:
        return x, 1
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        if x.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            a, d = int(num), int(den) if slash else 1
            if d == 1:
                return a, 1
            if d:
                g = gcd(a, d)
                return a // g, d // g
    elif not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _text(x: int, d: int) -> str:
    """str(Fraction(x, d)) for d > 0."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _operand(x) -> "GaussianRational":
    """The other operand of an operator; as for `Fraction`, text is no operand."""
    if isinstance(x, str):
        raise TypeError(f"unsupported operand {x!r}; read text with GaussianRational")
    return GaussianRational.of(x)


class GaussianRational:
    """(a + b*i)/d with integers a, b, d; d > 0 and gcd(a, b, d) = 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        a, p = _ratio(re)
        b, q = _ratio(im)
        # each part is reduced, so the triple over lcm(p, q) is canonical
        if p == q:
            d = p
        else:
            d = lcm(p, q)
            a, b = a * (d // p), b * (d // q)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    def __eq__(self, other):
        if other.__class__ is GaussianRational:
            return self.a == other.a and self.b == other.b and self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        # equal to hash((re, im)), as hash(Fraction(a)) == hash(a)
        if self.d == 1:
            return hash((self.a, self.b))
        return hash((self.re, self.im))

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def of(x) -> "GaussianRational":
        """x itself, or the real x read as the constructor reads it."""
        return x if x.__class__ is GaussianRational else GaussianRational(x)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _operand(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _canonical(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _operand(other)
        d, e = self.d, other.d
        if d == e:
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other) -> "GaussianRational":
        return _operand(other).__sub__(self)

    def __mul__(self, other) -> "GaussianRational":
        if other.__class__ is int:
            return _reduced(self.a * other, self.b * other, self.d)
        if other.__class__ is not GaussianRational:
            other = _operand(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b = self.a, self.b
        n = a * a + b * b
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        # d (a - b i) / (a^2 + b^2); n > 0
        return _reduced(self.d * a, -self.d * b, n)

    def __truediv__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = _operand(other)
        # (a + b i)/d divided by (c + e i)/f is f (a + b i)(c - e i) / (d (c^2 + e^2))
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        f = other.d
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), self.d * n)

    def __rtruediv__(self, other) -> "GaussianRational":
        return _operand(other).__truediv__(self)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "GaussianRational":
        if not self.b:
            return self
        return _canonical(self.a, -self.b, self.d)

    def norm2(self) -> Fraction:
        """|z|^2 = z * conj(z), an exact rational."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _text(a, d)
        if not a:
            return "i" if b == d else f"{_text(b, d)}*i"
        ipart = "i" if abs(b) == d else f"{_text(abs(b), d)}*i"
        return f"({_text(a, d)} {'+' if b > 0 else '-'} {ipart})"

    __repr__ = __str__


_set_a = GaussianRational.a.__set__
_set_b = GaussianRational.b.__set__
_set_d = GaussianRational.d.__set__
_new = object.__new__


def _canonical(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple that is canonical already; no checks."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided by gcd(a, b, d).  It builds the value
    itself, not through `_canonical`: every arithmetic result comes here,
    and the extra call would add about a tenth to a multiplication."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def sub_mul(x: GaussianRational, f: GaussianRational, y: GaussianRational) -> GaussianRational:
    """x - f*y, equal to `x - f * y` but built with one gcd: the product
    stays an unreduced triple over f.d * y.d until the difference is made."""
    fa, fb, ya, yb = f.a, f.b, y.a, y.b
    p, q, e = fa * ya - fb * yb, fa * yb + fb * ya, f.d * y.d
    d = x.d
    if d == e:
        return _reduced(x.a - p, x.b - q, d)
    return _reduced(x.a * e - p * d, x.b * e - q * d, d * e)


ZERO = GaussianRational()
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def rational(p, q=1) -> GaussianRational:
    """Real rational p/q as a scalar."""
    return GaussianRational(Fraction(p, q))


def reduce_row(echelon: list, row: list, width: int | None = None, log: list | None = None):
    """Reduce the list `row` in place against `echelon`, (pivot, row, support)
    triples whose rows are 1 at their pivot and 0 at the pivots before them;
    support lists a row's nonzero columns right of its pivot.

    Each pivot entry of `row` is cleared over the pivot row's support only
    and set to 0 without arithmetic.  If a nonzero entry is left among the
    first `width` columns (default: all), the row is scaled to 1 at the
    first one, its pivot, and appended to `echelon`, and the entry it had
    there is returned; otherwise None, and `row` is left reduced.  Given
    `log`, each row operation is appended in order: (p, f) for
    row -= f * (the echelon row with pivot p), (None, s) for row *= s.
    """
    for p, prow, support in echelon:
        f = row[p]
        if f is not ZERO and not f.is_zero():
            for j in support:
                row[j] = sub_mul(row[j], f, prow[j])
            row[p] = ZERO
            if log is not None:
                log.append((p, f))
    # most zero entries are the shared ZERO: the identity test skips is_zero
    nonzero = [j for j, x in enumerate(row) if x is not ZERO and not x.is_zero()]
    if not nonzero or width is not None and nonzero[0] >= width:
        return None
    p, *support = nonzero
    f = row[p]
    if f is not ONE and f != ONE:
        inv = f.inverse()
        for j in support:
            row[j] = row[j] * inv
        row[p] = ONE
        if log is not None:
            log.append((None, inv))
    echelon.append((p, row, support))
    return f


def clear_above(echelon: list, log: list | None = None) -> list:
    """The reduced row echelon form of `echelon`'s rows, in ascending pivot
    order: each row, last pivot first, is reduced against those done.  Given
    `log`, each row appends (its pivot, its `reduce_row` log)."""
    done = []
    for p, row, _ in sorted(echelon, key=lambda e: e[0], reverse=True):
        steps = None if log is None else []
        reduce_row(done, row, log=steps)
        if log is not None:
            log.append((p, steps))
    return done[::-1]
