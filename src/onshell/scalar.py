"""Exact Gaussian-rational scalars.

All coefficients in this package are elements of Q(i): numbers a + b*i with
a, b arbitrary-precision rationals.  Every operation is exact; there is no
floating-point mode anywhere.

`GaussianRational` is an immutable `__slots__` class: assigning or deleting
an attribute raises `AttributeError`, so values can be shared and used as
dict keys.  The public constructor coerces int, `Fraction` and str parts;
arithmetic builds its results with `_make`, which skips that coercion.
`+`, `-`, `*` and `/` take a real-only path when both imaginary parts are 0
(most coefficients in this package are real), which saves the `Fraction`
operations on the zero parts; results are the same exact values.

`reduce_row` is the one row reduction behind every exact elimination in
the package (`spectral._rref`, `spectral._krylov_annihilator` and
`opalg.mat_inv_det`); `clear_above` completes its echelon rows to the
reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


_F0 = Fraction(0)


class GaussianRational:
    """a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=_F0, im=_F0):
        _set_re(self, _as_fraction(re))
        _set_im(self, _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    def __eq__(self, other):
        if other.__class__ is GaussianRational:
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(_as_fraction(x))
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        if not self.im and not other.im:
            return _make(self.re + other.re, _F0)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        if not self.im:
            return _make(-self.re, _F0)
        return _make(-self.re, -self.im)

    def __sub__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        if not self.im and not other.im:
            return _make(self.re - other.re, _F0)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussianRational":
        return GaussianRational.of(other).__sub__(self)

    def __mul__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        if not self.im and not other.im:
            return _make(self.re * other.re, _F0)
        return _make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        if not self.im:
            if not self.re:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            return _make(1 / self.re, _F0)
        d = self.re * self.re + self.im * self.im
        return _make(self.re / d, -self.im / d)

    def __truediv__(self, other) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        if not self.im and not other.im:
            if not other.re:
                raise ZeroDivisionError("inverse of zero Gaussian rational")
            return _make(self.re / other.re, _F0)
        return self.__mul__(other.inverse())

    def __rtruediv__(self, other) -> "GaussianRational":
        return GaussianRational.of(other).__truediv__(self)

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
        if not self.im:
            return self
        return _make(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 = z * conj(z), an exact rational."""
        return self.re * self.re + self.im * self.im

    # -- text ----------------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i" if self.im != 1 else "i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        ipart = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re} {sign} {ipart})"

    __repr__ = __str__


_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__
_new = object.__new__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """re + im*i from parts that are already `Fraction`s; no coercion."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


def rational(p, q=1) -> GaussianRational:
    """Real rational p/q as a scalar."""
    return GaussianRational(Fraction(p, q))


def reduce_row(echelon: list, row: list, width: int | None = None):
    """Reduce the list `row` in place against `echelon`, (pivot, row, support)
    triples whose rows are 1 at their pivot and 0 at the pivots before them;
    support lists a row's nonzero columns right of its pivot.

    Each pivot entry of `row` is cleared over the pivot row's support only
    and set to 0 without arithmetic.  If a nonzero entry is left among the
    first `width` columns (default: all), the row is scaled to 1 at the
    first one, its pivot, and appended to `echelon`, and the entry it had
    there is returned; otherwise None, and `row` is left reduced.
    """
    for p, prow, support in echelon:
        f = row[p]
        if f is not ZERO and not f.is_zero():
            for j in support:
                row[j] = row[j] - f * prow[j]
            row[p] = ZERO
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
    echelon.append((p, row, support))
    return f


def clear_above(echelon: list) -> list:
    """The reduced row echelon form of `echelon`'s rows, in ascending pivot
    order: each row, last pivot first, is reduced against those done."""
    done = []
    for _, row, _ in sorted(echelon, key=lambda e: e[0], reverse=True):
        reduce_row(done, row)
    return done[::-1]
