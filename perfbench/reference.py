"""Independent exact arithmetic used to check the engine's answers.

Nothing here imports `onshell`.  Gaussian rationals are pairs of
`Fraction`s, delta vectors are dicts from multi-index tuples to such pairs
(no zero values stored), and operators are small expression trees (specs)
that the workloads build themselves:

    ("num", (re, im))      scalar multiple
    ("x", i), ("d", i)     coordinate x_(i+1) and partial d_(i+1)
    ("euler", a)           sum_i x_i d_i - a
    ("box", m2)            sum_mu g_(mu mu) d_mu^2 + m2
    ("casimir",)           sum_(mu != nu) g_mumu g_nunu M_(mu nu)^2,
                           M_(mu nu) = g_mumu x_mu d_nu - g_nunu x_nu d_mu
    ("parity",)            pullback by -1
    ("add", a, b, ...)     sum
    ("mul", a, b, ...)     composition, the rightmost factor acts first
    ("pow", a, k)          k-fold composition

The action on delta derivatives follows the package conventions:
d_i delta^(a) = delta^(a + e_i), x_i delta^(a) = -a_i delta^(a - e_i), and
parity multiplies delta^(a) by (-1)^|a|.  A spec also renders to the text of
the `onshell` operator grammar, so the engine and this module read the same
question without sharing any code.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gconj(a):
    return (a[0], -a[1])


def is_zero(a) -> bool:
    return a[0] == 0 and a[1] == 0


def default_signature(n: int) -> tuple:
    return (1,) + (-1,) * (n - 1)


# ---------------------------------------------------------------------------
# delta vectors
# ---------------------------------------------------------------------------

def vadd(u: dict, v: dict, scale=ONE) -> dict:
    """u + scale * v."""
    out = dict(u)
    for alpha, c in v.items():
        c = gmul(c, scale)
        s = out.get(alpha, ZERO)
        s = (s[0] + c[0], s[1] + c[1])
        if is_zero(s):
            out.pop(alpha, None)
        else:
            out[alpha] = s
    return out


def vscale(v: dict, c) -> dict:
    return vadd({}, v, c)


def multi_indices(n: int, r: int) -> list:
    """All multi-indices of length n with |a| <= r."""
    if n == 1:
        return [(k,) for k in range(r + 1)]
    return [(k,) + rest for k in range(r + 1) for rest in multi_indices(n - 1, r - k)]


def basis(alpha) -> dict:
    return {tuple(alpha): ONE}


def degree(v: dict) -> int:
    return max((sum(a) for a in v), default=-1)


def inner(v: dict, w: dict):
    """Weighted scalar product (v|w) = sum a! conj(v_a) w_a."""
    re, im = Fraction(0), Fraction(0)
    for alpha, c in v.items():
        d = w.get(alpha)
        if d is None:
            continue
        p = gmul(gconj(c), d)
        f = 1
        for a in alpha:
            f *= factorial(a)
        re += p[0] * f
        im += p[1] * f
    return (re, im)


# ---------------------------------------------------------------------------
# operator specs
# ---------------------------------------------------------------------------

def _d(v: dict, i: int) -> dict:
    out = {}
    for alpha, c in v.items():
        beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        out[beta] = c
    return out


def _x(v: dict, i: int) -> dict:
    out = {}
    for alpha, c in v.items():
        if alpha[i] == 0:
            continue
        beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
        out = vadd(out, {beta: c}, g(-alpha[i]))
    return out


def apply(spec, v: dict, n: int, sig=None) -> dict:
    """Image of the delta vector v under the operator spec."""
    sig = sig or default_signature(n)
    kind = spec[0]
    if kind == "num":
        return vscale(v, spec[1])
    if kind == "x":
        return _x(v, spec[1])
    if kind == "d":
        return _d(v, spec[1])
    if kind == "euler":
        out = vscale(v, g(-spec[1]))
        for i in range(n):
            out = vadd(out, _x(_d(v, i), i))
        return out
    if kind == "box":
        out = vscale(v, g(spec[1]))
        for mu in range(n):
            out = vadd(out, _d(_d(v, mu), mu), g(sig[mu]))
        return out
    if kind == "casimir":
        out = {}
        for mu in range(n):
            for nu in range(n):
                if mu == nu:
                    continue
                gen = ("add", ("mul", ("num", g(sig[mu])), ("x", mu), ("d", nu)),
                       ("mul", ("num", g(-sig[nu])), ("x", nu), ("d", mu)))
                out = vadd(out, apply(gen, apply(gen, v, n, sig), n, sig),
                           g(sig[mu] * sig[nu]))
        return out
    if kind == "parity":
        return {alpha: (c if sum(alpha) % 2 == 0 else (-c[0], -c[1]))
                for alpha, c in v.items()}
    if kind == "add":
        out = {}
        for part in spec[1:]:
            out = vadd(out, apply(part, v, n, sig))
        return out
    if kind == "mul":
        for part in reversed(spec[1:]):
            v = apply(part, v, n, sig)
        return v
    if kind == "pow":
        for _ in range(spec[2]):
            v = apply(spec[1], v, n, sig)
        return v
    raise ValueError(f"unknown operator spec {kind!r}")


def _rational_text(q: Fraction) -> str:
    text = str(q)
    return f"({text})" if q < 0 else text


def scalar_text(c) -> str:
    if c[1] == 0:
        return _rational_text(c[0])
    return f"({_rational_text(c[0])} + {_rational_text(c[1])}*i)"


def render(spec) -> str:
    """Text of the spec in the `onshell` operator grammar."""
    kind = spec[0]
    if kind == "num":
        return scalar_text(spec[1])
    if kind in ("x", "d"):
        return f"{kind}{spec[1] + 1}"
    if kind == "euler":
        return f"euler({spec[1]})"
    if kind == "box":
        return f"box({spec[1]})"
    if kind in ("casimir", "parity"):
        return kind
    if kind == "add":
        return "(" + " + ".join(render(p) for p in spec[1:]) + ")"
    if kind == "mul":
        return "*".join(render(p) for p in spec[1:])
    if kind == "pow":
        return f"({render(spec[1])})^{spec[2]}"
    raise ValueError(f"unknown operator spec {kind!r}")


def orthogonal_to_range(spec, n: int, r: int, z: dict) -> bool:
    """(Q e_a | z) = 0 for every basis vector of degree <= r, i.e. Q|_r* z = 0."""
    return all(is_zero(inner(apply(spec, basis(alpha), n), z))
               for alpha in multi_indices(n, r))


# ---------------------------------------------------------------------------
# constant-coefficient operators (polynomials in the partials)
# ---------------------------------------------------------------------------

def pmul(p: dict, q: dict) -> dict:
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            out = vadd(out, {tuple(x + y for x, y in zip(a, b)): gmul(ca, cb)})
    return out


def klein_gordon(n: int, sig, m2) -> dict:
    """box + m2 as a polynomial in the partials."""
    out = {(0,) * n: g(m2)} if m2 else {}
    for mu in range(n):
        out[tuple(2 if j == mu else 0 for j in range(n))] = g(sig[mu])
    return out
