"""The on-shell/off-shell map for derivatives of the Feynman propagator.

Given the fundamental-solution normalization (box + m^2) v = c*delta, which
fixes deg v = DEG_V = -2, every constant-coefficient monomial S of order at
least 2 gets a counterterm that moves S v to its on-shell compatible
version.  Two independent routes are provided and cross-validated:

* the projection route: the exact trace (Fischer) split
  S delta = sum_j box^j H_j delta, with H_j delta annihilated by
  multiplication with x_mu x^mu, evaluated at box -> -m^2:
  chi(S) = sum_j (-m^2)^j H_j.  The components are eigenvectors of the
  operator (x_mu x^mu) o box with known exact rational eigenvalues, so the
  split is a Lagrange-interpolated projection, all in exact arithmetic.
  The quotient chi1(S), with chi(S) = S + chi1(S)(box + m^2), is
  -sum_i box^i K_i with K_i = H_(i+1) + (-m^2) K_(i+1); chi1(S) delta is
  formed by Horner in box, each step an exponent shift of delta
  derivatives, with no operator product.  For m = 0 this is identically the
  projection-polynomial construction p_s((box|_s)* box) applied to S v; for
  m != 0 that literal construction breaks its own degree bound and the
  trace evaluation is the correct continuation.  The literal construction
  is the solver's, so it is a test oracle (tests/test_chi.py) that asserts
  both, and this module imports no solver.

* the explicit route: the closed combinatorial formula with pair
  contractions and the alpha coefficients.  `lambda_contraction` and
  `alpha_coefficient` give these pieces as API only; the route reads its
  contractions through `_interval_delta` and its alphas from `_alpha`.

The j = 0 coefficient of the explicit formula is taken to be 1 (the bare
monomial); the crosscheck validates this reading.

Both maps are linear, and the projection route depends on S only through
its coefficients on the commuting monomials d^gamma, so it keeps one exact
image (chi, chi1) per (configuration, exponent) in a bounded
`functools.lru_cache` table (`_basis_chi`, BASIS_CACHE = 4096 entries),
each checked once when it is made, by the same shifts:
chi delta = S delta + (box + m^2) chi1 delta, else `AssertionError`.  The
image of S = sum_gamma c_gamma d^gamma is sum_gamma c_gamma (the image of
d^gamma), and a single monomial with coefficient 1 gets the kept operators
themselves.  A table miss reads the trace split of d^gamma from a second
bounded table (`_orbit_split`, BASIS_CACHE entries) that keeps one split
per orbit of (signature, exponent) under coordinate permutations and
g -> -g, at a canonical member (`_orbit_key`), with no mass: one integer
`_split_degree` of d^gamma over one denominator.  The relabelling is exact: box and x.x act on delta vectors as sum_mu g_(mu mu)
times a shift in coordinate mu, so permuting the coordinates of
(signature, gamma) permutes those of every H_j, and g -> -g turns box^j
into (-1)^j box^j and keeps H_j trace free, so it multiplies H_j by (-1)^j;
the split is unique, as the spectral decomposition of (x.x) o box.  The
image made from a relabelled split is checked as every image is.  The
explicit formula depends on the indices only through their counts, so it
keeps one image per (configuration, exponent) too (`_explicit_chi`), read
by every ordering of a multiset, and reads alpha_j^k, kept per (j, k,
configuration) in a table keyed by the hashable `FeynmanConfig` (`_alpha`,
ALPHA_CACHE = 1024 entries); each entry forms its polynomial in box by
Horner.  Cached operators are shared, so no caller may mutate their
`coeffs`.

The chi quantities are real rationals (g_(mu mu) = +-1, m^2 = p/q, and
`FeynmanConfig` refuses an imaginary mass), so both routes work on real
integer numerators over one common denominator: the explicit route on its
contraction weights and alpha numerators, the table entry on the
numerators of the trace split, its Horner and its self-check.  Each output
coefficient is divided once (`scalar._reduced`); no `GaussianRational` is
added or multiplied on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

from .scalar import GaussianRational, ZERO, ONE, _ratio, _reduced
from .deltaspace import DeltaVector, DimensionMismatch, SparseMap, mi_add, mi_order
from .opalg import check_signature

ALPHA_CACHE = 1024
BASIS_CACHE = 4096
# deg v of the fundamental solution: box + m^2 has order 2 and deg delta = 0,
# so (box + m^2) v = c delta fixes deg v = -2 in every dimension and for
# every mass; S gets a counterterm when order(S) + DEG_V >= 0.
DEG_V = -2
# Largest number of ordered monomials on which `chi_crosscheck` compares the
# two routes, summed over the masses and metrics.  k <= 7 at n = 4, two
# masses and both metrics, is 87,380 comparisons, 1,320 multisets compared
# once each, in about 0.35 s (2-CPU Linux container, Python 3.11); k <= 8
# would be 349,524, and each further order multiplies the count by n, so
# k = 12 would be 89 million.
MAX_CHI_COMPARISONS = 100_000


@dataclass(frozen=True)
class FeynmanConfig:
    """Ambient data for the counterterm algebra.

    signature None is the default metric of size n, diag(+1, -1, ..., -1)
    (`opalg.check_signature`, which also refuses n < 1).  m2 is an int,
    `Fraction` or str rational; a float is refused (TypeError).
    """

    n: int = 4
    signature: tuple | None = None
    m2: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "signature", check_signature(self.n, self.signature))
        if self.m2.__class__ is not Fraction:
            object.__setattr__(self, "m2", Fraction(*_ratio(self.m2)))


@dataclass(frozen=True)
class ConstCoeffOperator(SparseMap):
    """Polynomial in the partials d_0 ... d_(n-1) with scalar coefficients.

    Its space is the whole configuration: operators over different metrics
    or masses do not combine.
    """

    config: FeynmanConfig
    coeffs: dict = field(default_factory=dict)

    __mul__ = SparseMap._monomial_product

    @property
    def n(self) -> int:
        return self.config.n

    def space(self) -> FeynmanConfig:
        return self.config

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(config: FeynmanConfig) -> "ConstCoeffOperator":
        return ConstCoeffOperator(config, {(0,) * config.n: ONE})

    @staticmethod
    def monomial(config: FeynmanConfig, indices) -> "ConstCoeffOperator":
        """d_(mu_1) ... d_(mu_k) for concrete index values."""
        return ConstCoeffOperator(config, {_exponent(config.n, indices): ONE})

    @staticmethod
    def box(config: FeynmanConfig) -> "ConstCoeffOperator":
        return ConstCoeffOperator(config, _box_delta(config.signature, {(0,) * config.n: ONE}))

    @staticmethod
    def klein_gordon(config: FeynmanConfig) -> "ConstCoeffOperator":
        return ConstCoeffOperator.box(config) + ConstCoeffOperator.one(config).scale(config.m2)

    # -- arithmetic -----------------------------------------------------------

    def order(self) -> int:
        """Total derivative order (0 for the zero operator)."""
        return max(self.degree(), 0)

    def apply_to_delta(self) -> DeltaVector:
        """S delta = sum coeff * delta^(gamma)."""
        return DeltaVector(self.config.n, dict(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for g, c in sorted(self.coeffs.items(), key=lambda kv: (mi_order(kv[0]), kv[0])):
            mono = "*".join(f"d{i}" + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(g) if e > 0) or "1"
            bits.append(f"({c})*{mono}")
        return " + ".join(bits)


def _exponent(n: int, indices) -> tuple:
    """The exponent gamma of d_(mu_1) ... d_(mu_k): gamma[mu] counts mu."""
    gamma = [0] * n
    for mu in indices:
        if not 0 <= mu < n:
            raise ValueError(f"index {mu} out of range for dimension {n}")
        gamma[mu] += 1
    return tuple(gamma)


@dataclass(frozen=True)
class ChiResult:
    chi: ConstCoeffOperator
    chi1: ConstCoeffOperator
    s: int  # counterterm degree used (order(S) + DEG_V)


# ---------------------------------------------------------------------------
# trace (harmonic) decomposition of delta vectors
# ---------------------------------------------------------------------------

def _descend_factor(n: int, d: int, i: int) -> int:
    """(x.x) box^i h = a_i box^(i-1) h with h of degree d: a_i below.  So
    box^j h is an eigenvector of (x.x) o box with eigenvalue a_(j+1)."""
    return 2 * i * (2 * d + 2 * (i - 1) + n)


def _box_delta(signature: tuple, v: dict) -> dict:
    """box delta^(a) = sum_mu g_(mu mu) delta^(a + 2 e_mu), on {a: int} or {a: scalar}."""
    out: dict = {}
    for alpha, c in v.items():
        for mu, g in enumerate(signature):
            beta = alpha[:mu] + (alpha[mu] + 2,) + alpha[mu + 1:]
            out[beta] = out.get(beta, 0) + g * c
    return out


def _interval_delta(signature: tuple, v: dict) -> dict:
    """(x.x) delta^(a) = sum_mu g_(mu mu) a_mu (a_mu - 1) delta^(a - 2 e_mu),
    on {a: int}."""
    out: dict = {}
    for alpha, c in v.items():
        for mu, g in enumerate(signature):
            a = alpha[mu]
            if a >= 2:
                beta = alpha[:mu] + (a - 2,) + alpha[mu + 1:]
                x = g * a * (a - 1) * c
                out[beta] = out[beta] + x if beta in out else x
    return out


def _split_degree(signature: tuple, k: int, part: dict) -> list:
    """The split of a nonzero integer vector {alpha: int} of degree k, as
    [(j, {beta: int}, denominator > 0), ...].  M = (x.x) o box runs once per
    Krylov vector M^p part, p <= k/2; each Lagrange numerator
    prod_(i != j) (M - lam_i) part is an integer combination of them, and
    the descent by (x.x)^j stays integral."""
    n = len(signature)
    lams = [_descend_factor(n, k - 2 * j, j + 1) for j in range(k // 2 + 1)]
    krylov = [part]
    for _ in lams[1:]:
        krylov.append(_interval_delta(signature, _box_delta(signature, krylov[-1])))
    out = []
    for j, lam_j in enumerate(lams):
        poly = [1]  # prod_(i != j) (z - lam_i), lowest power first
        denom = 1
        for i, lam in enumerate(lams):
            if i != j:
                poly = [a - lam * b for a, b in zip([0] + poly, poly + [0])]
                denom *= lam_j - lam
        comp: dict = {}
        for coef, vec in zip(poly, krylov):
            for beta, c in vec.items():
                comp[beta] = comp.get(beta, 0) + coef * c
        for i in range(j, 0, -1):
            comp = _interval_delta(signature, comp)
            denom *= _descend_factor(n, k - 2 * j, i)
        comp = {beta: c if denom > 0 else -c for beta, c in comp.items() if c}
        if comp:
            out.append((j, comp, abs(denom)))
    return out


def harmonic_components(config: FeynmanConfig, w: DeltaVector) -> dict:
    """Split w into components box^j h_j with (x.x) h_j = 0, exactly.

    Within each homogeneous degree k the splitting is the spectral
    decomposition of (x.x) o box, whose eigenvalues are the distinct
    positive integers 2(j+1)(2k-2j+n); the projectors are Lagrange
    interpolation polynomials.  box and x.x act on delta vectors by direct
    exponent-shift rules.  The degree-k part of w, over one common
    denominator d, is split once per nonzero real or imaginary integer
    part (`_split_degree`), and each coefficient of h_j divided once.
    Returns a map j -> h_j (the h_j collect all homogeneous degrees).
    """
    if w.n != config.n:
        raise DimensionMismatch("delta vector dimension does not match the configuration")
    parts: dict = {}
    for alpha, c in w.coeffs.items():
        parts.setdefault(sum(alpha), {})[alpha] = c
    num: dict = {}  # (j, beta) -> [re, im, denominator]; two degrees never share one
    for k, part in parts.items():
        d = math.lcm(*(c.d for c in part.values()))
        re = {alpha: c.a * (d // c.d) for alpha, c in part.items() if c.a}
        im = {alpha: c.b * (d // c.d) for alpha, c in part.items() if c.b}
        for slot, ints in ((0, re), (1, im)):
            if ints:
                for j, comp, denom in _split_degree(config.signature, k, ints):
                    for beta, x in comp.items():
                        num.setdefault((j, beta), [0, 0, d * denom])[slot] = x
    acc: dict = {}
    for (j, beta), (a, b, q) in num.items():
        acc.setdefault(j, {})[beta] = _reduced(a, b, q)
    return {j: DeltaVector(config.n, acc[j]) for j in sorted(acc)}


def _add_scaled(acc: dict, coeffs: dict, c) -> None:
    """acc += c * coeffs on {exponent: scalar}; c = ONE adds coeffs as they are."""
    for a, x in coeffs.items():
        if c is not ONE:
            x = x * c
        acc[a] = acc[a] + x if a in acc else x


def _over(num: dict, d: int) -> dict:
    """{a: num[a]/d} from integer numerators, one `_reduced` per nonzero
    coefficient."""
    return {a: _reduced(x, 0, d) for a, x in num.items() if x}


def _orbit_key(signature: tuple, gamma: tuple) -> tuple:
    """(signature', gamma', back, flip): the canonical member of the orbit of
    (signature, gamma) under coordinate permutations and g -> -g.

    The sign is chosen so that + is not the larger class; with equal classes,
    so that the + class has the larger exponents (descending, compared
    lexicographically).  The coordinates are ordered + class first, each
    class by descending exponent, ties by index.  back[mu] is the canonical
    position of coordinate mu, or None when that is mu itself."""
    n = len(signature)
    plus = sorted((a for a, g in zip(gamma, signature) if g > 0), reverse=True)
    minus = sorted((a for a, g in zip(gamma, signature) if g < 0), reverse=True)
    flip = len(plus) > n - len(plus) or (2 * len(plus) == n and plus < minus)
    sig = tuple(-g for g in signature) if flip else signature
    perm = sorted(range(n), key=lambda mu: (-sig[mu], -gamma[mu], mu))
    back = None
    if perm != list(range(n)):
        back = [0] * n
        for i, mu in enumerate(perm):
            back[mu] = i
    return (tuple(sig[mu] for mu in perm), tuple(gamma[mu] for mu in perm), back, flip)


@lru_cache(maxsize=BASIS_CACHE)
def _orbit_split(signature: tuple, gamma: tuple) -> tuple:
    """The trace split of d^gamma, mass free, for a canonical key of
    `_orbit_key`: one `_split_degree` of {gamma: 1}, as (d, {j: {beta: int}}),
    the H_j as integer numerators over one denominator d, in lowest terms
    over all of them (smaller integers for every Horner that reads them).
    The dicts are shared, so no caller may mutate them."""
    parts = _split_degree(signature, sum(gamma), {gamma: 1})
    d = math.lcm(*(q for _, _, q in parts))
    h = {j: {b: x * (d // q) for b, x in comp.items()} for j, comp, q in parts}
    g = math.gcd(d, *(x for comp in h.values() for x in comp.values()))
    if g > 1:
        d, h = d // g, {j: {b: x // g for b, x in comp.items()} for j, comp in h.items()}
    return d, h


def _relabel(h: dict, back, flip: bool) -> dict:
    """A canonical split {j: {beta: int}} moved back to the caller's
    coordinates: beta[mu] = beta'[back[mu]], and H_j negated for odd j when
    the metric was flipped."""
    out = {}
    for j, comp in h.items():
        if back is not None:
            comp = {tuple(b[i] for i in back): x for b, x in comp.items()}
        if flip and j % 2:
            comp = {b: -x for b, x in comp.items()}
        out[j] = comp
    return out


def _monomial_split(signature: tuple, gamma: tuple) -> tuple:
    """The trace split of d^gamma as `_orbit_split` gives it, (d, h), read
    at the canonical member of its orbit and moved back to these
    coordinates.  A relabelled entry is a fresh dict; an entry read as it is
    stays shared."""
    key_sig, key_gamma, back, flip = _orbit_key(signature, gamma)
    d, h = _orbit_split(key_sig, key_gamma)
    if back is not None or flip:
        h = _relabel(h, back, flip)
    return d, h


@lru_cache(maxsize=BASIS_CACHE)
def _basis_chi(config: FeynmanConfig, gamma: tuple) -> tuple:
    """(chi, chi1) of the monomial S = d^gamma from its trace split
    S delta = sum_j box^j H_j delta (H_j delta trace free), before the
    order(S) + DEG_V threshold, which callers apply to the whole of S.

    The split is read through `_monomial_split`, one kept split per orbit,
    as integer numerators d H_j.  chi = sum_j (-m^2)^j H_j is the split
    evaluated at box -> -m^2, and chi1 = -sum_i box^i K_i with
    K_i = H_(i+1) + (-m^2) K_(i+1), so that
    S - chi = sum_j H_j (box^j - (-m^2)^j) = -chi1 (box + m^2).  For
    m^2 = p/q both are integer numerators over E = d q^top:
    chi = sum_j (-p)^j q^(top-j) d H_j, and with
    N_i = q^(top-i) d H_(i+1) - p N_(i+1) = E K_i the Horner
    G_i = q box G_(i+1) + N_i (one `_box_delta` shift over the metric
    scaled by q) ends at chi1 = -G_0.  Every entry is checked exactly by
    the same shifts, q (chi - S) = q box chi1 + p chi1, else
    `AssertionError`.  Each coefficient is divided once.  The operators are
    shared, so no caller may mutate their `coeffs`.
    """
    sig = config.signature
    d, h = _monomial_split(sig, gamma)
    top = max(h, default=0)
    p, q = config.m2.numerator, config.m2.denominator
    e = d * q ** top
    chi: dict = {}
    for j, comp in h.items():
        f = (-p) ** j * q ** (top - j)
        for a, x in comp.items():
            chi[a] = chi.get(a, 0) + f * x
    qsig = tuple(q * g for g in sig)
    k_i: dict = {}
    horner: dict = {}
    for i in range(top - 1, -1, -1):
        k_i = {a: -p * x for a, x in k_i.items()}
        f = q ** (top - i)
        for a, x in h.get(i + 1, {}).items():
            k_i[a] = k_i.get(a, 0) + f * x
        horner = _box_delta(qsig, horner)
        for a, x in k_i.items():
            horner[a] = horner.get(a, 0) + x
    chi1 = {a: -x for a, x in horner.items() if x}
    lhs = {a: q * x for a, x in chi.items()}
    lhs[gamma] = lhs.get(gamma, 0) - q * e
    rhs = _box_delta(qsig, chi1)
    for a, x in chi1.items():
        rhs[a] = rhs.get(a, 0) + p * x
    if {a: x for a, x in lhs.items() if x} != {a: x for a, x in rhs.items() if x}:
        raise AssertionError("spectral chi contract violated: chi != S + chi1 (box + m^2)")
    return ConstCoeffOperator(config, _over(chi, e)), ConstCoeffOperator(config, _over(chi1, e))


def _chi_pair(config: FeynmanConfig, s_op: ConstCoeffOperator) -> tuple:
    """(chi, chi1) of S = sum_gamma c_gamma d^gamma: (S, 0) when
    order(S) + DEG_V < 0, that is order(S) < 2, else sum_gamma c_gamma (the
    images of d^gamma), one dict per result.  A single term with coefficient
    1 returns the kept images themselves."""
    if s_op.order() + DEG_V < 0:
        return s_op, ConstCoeffOperator.zero(config)
    if len(s_op.coeffs) == 1:
        (gamma, c), = s_op.coeffs.items()
        if c == ONE:
            return _basis_chi(config, gamma)
    chi: dict = {}
    chi1: dict = {}
    for gamma, c in s_op.coeffs.items():
        b_chi, b_chi1 = _basis_chi(config, gamma)
        _add_scaled(chi, b_chi.coeffs, c)
        _add_scaled(chi1, b_chi1.coeffs, c)
    return ConstCoeffOperator(config, chi), ConstCoeffOperator(config, chi1)


def _own_config(s_op: ConstCoeffOperator, config) -> FeynmanConfig:
    """The operator's configuration; a config given with it must equal it."""
    if config is not None and config != s_op.config:
        raise DimensionMismatch("the operator's configuration does not match the given one")
    return s_op.config


def theta_counterterm(s_op: ConstCoeffOperator, c, config: FeynmanConfig = None) -> DeltaVector:
    """Delta-supported part of the on-shell replacement of S v.

    Returns 0 when s = order(S) + DEG_V < 0 (the extension is unique below
    the threshold); otherwise c * chi1(S) delta, so that adding it to S v
    realizes the on-shell counterterm, with theta(S (box+m^2)) = 0 exactly.
    """
    chi1 = _chi_pair(_own_config(s_op, config), s_op)[1]
    return chi1.apply_to_delta().scale(GaussianRational.of(c))


def chi_projection(s_op: ConstCoeffOperator, c=ONE, config: FeynmanConfig = None) -> ChiResult:
    """chi and chi1 via the spectral route, with chi(S) = S + chi1(S)(box+m^2)
    and chi1(S) the operator X with X delta = c^(-1) * theta_counterterm(S, c)
    for any c != 0 (checked exactly in the tests).
    """
    if GaussianRational.of(c).is_zero():
        raise ValueError("the normalization constant c must be nonzero")
    config = _own_config(s_op, config)
    chi, chi1 = _chi_pair(config, s_op)
    order = s_op.order()
    if chi.order() > order:
        raise AssertionError("order bound violated by the spectral route")
    return ChiResult(chi, chi1, order + DEG_V)


# ---------------------------------------------------------------------------
# the explicit combinatorial route
# ---------------------------------------------------------------------------

def lambda_contraction(indices, signature) -> list:
    """All pair contractions: for each position pair i < j the metric weight
    g_(mu_i mu_j) and the index list with both positions removed."""
    sig = tuple(signature)
    sig = check_signature(len(sig), sig)
    idx = tuple(indices)
    _exponent(len(sig), idx)  # the index range check
    weight = [GaussianRational.of(g) for g in sig]
    out = []
    k = len(idx)
    for i in range(k):
        for j in range(i + 1, k):
            w = weight[idx[i]] if idx[i] == idx[j] else ZERO
            out.append((w, idx[:i] + idx[i + 1:j] + idx[j + 1:]))
    return out


def alpha_coefficient(j: int, k: int, n: int, m2, signature=None) -> ConstCoeffOperator:
    """The operator-valued expansion coefficients of the explicit formula.

    j = 0 yields the identity.  A vanishing j = 0 coefficient would kill
    the identity and all first-order values, contradicting the order bound
    and the divisibility property, so the bare monomial is kept; the
    crosscheck against the independent route validates this choice.
    """
    config = FeynmanConfig(n, signature, m2)
    if j == 0:
        return ConstCoeffOperator.one(config)
    if not 1 <= j <= k // 2:
        raise ValueError(f"alpha requires 1 <= j <= k/2, got j={j}, k={k}")
    return _alpha(j, k, config)


@lru_cache(maxsize=ALPHA_CACHE)
def _alpha(j: int, k: int, config: FeynmanConfig) -> ConstCoeffOperator:
    """alpha_j^k for 1 <= j <= k/2, built once per (j, k, configuration):
    sign * KG * sum_p c_p box^(j-1-p), the sum by Horner in box."""
    n, m2 = config.n, config.m2
    box = ConstCoeffOperator.box(config)
    total = ConstCoeffOperator.zero(config)
    for p in range(j):
        denom = Fraction(1)
        for q in range(j):
            # p + q <= 2j - 2 <= k - 2, so the factor is at least n >= 1
            denom *= n + 2 * k - 2 * p - 2 * q - 4
        coeff = Fraction(math.comb(j - 1, p), 1) * (m2 ** p) / denom
        total = total * box + ConstCoeffOperator.one(config).scale(coeff)
    sign = -1 if j % 2 else 1
    return (ConstCoeffOperator.klein_gordon(config) * total).scale(sign)


def chi_explicit(indices, n: int, m2, signature=None) -> ConstCoeffOperator:
    """chi on a concrete derivative monomial via the closed formula
    sum_j alpha_j^k (1/j!) Lambda^j (d_(mu_1) ... d_(mu_k)).

    The sum over every ordered sequence of j pair contractions depends on
    the indices only through their counts, the exponent gamma: contracting
    exponent c gives c - 2 e_mu with weight g_(mu mu) C(c_mu, 2), so every
    ordering of one multiset has one value.  The indices and the
    configuration are checked here, and the value is read from the table
    `_explicit_chi` per (configuration, exponent).
    """
    config = FeynmanConfig(n, signature, m2)
    return _explicit_chi(config, _exponent(n, indices))


@lru_cache(maxsize=BASIS_CACHE)
def _explicit_chi(config: FeynmanConfig, gamma: tuple) -> ConstCoeffOperator:
    """chi_explicit of d^gamma, built once per (configuration, exponent).

    Lambda^j is applied level by level, with one integer weight per
    reduced exponent.  The contraction weight g_(mu mu) C(c_mu, 2) is half
    of the (x.x) exponent shift `_interval_delta`, so j shifts of d^gamma
    give 2^j times the level-j weights.  Each alpha_j^k, j <= k/2, is read
    once from its table `_alpha` (the configuration is checked already) and
    scaled to integer numerators over the lcm d_j of its denominators; it
    is real, as m^2 and the metric are.  The total is one integer exponent
    dict over D = lcm_j d_j 2^j j!, and each coefficient is divided once.
    The operator is shared, so no caller may mutate its `coeffs`.
    """
    sig = config.signature
    k = sum(gamma)
    terms = []  # (level j, alpha_j^k coefficients, d_j, d_j 2^j j!)
    level = {gamma: 1}
    for j in range(1, k // 2 + 1):
        level = _interval_delta(sig, level)
        if not level:
            break
        alpha = _alpha(j, k, config).coeffs
        d = math.lcm(*(c.d for c in alpha.values()))
        terms.append((level, alpha, d, d * 2 ** j * math.factorial(j)))
    den = math.lcm(*(t[3] for t in terms))
    num = {gamma: den}
    for level, alpha, d, div in terms:
        f = den // div
        weights = [(a, c.a * (d // c.d) * f) for a, c in alpha.items()]
        for rest, w in level.items():
            for a, x in weights:
                key = mi_add(a, rest)
                num[key] = num.get(key, 0) + w * x
    return ConstCoeffOperator(config, _over(num, den))


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrosscheckEntry:
    signature: tuple
    m2: Fraction
    indices: tuple
    projection: str
    explicit: str


@dataclass(frozen=True)
class CrosscheckReport:
    signatures: tuple  # the metrics swept
    checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def chi_crosscheck(k_max: int, n: int, m2_list, signatures=None) -> CrosscheckReport:
    """Compare the two routes coefficientwise on every derivative monomial of
    order <= k_max, for every mass value and both metric conventions.

    Both routes depend on the indices only through the multiset, so each
    multiset is compared once and `checked` counts its orderings; a
    mismatch is listed for every ordering, in `itertools.product` order
    within each k.  A negative k_max, no mass or no metric checks nothing,
    and a sweep of more than MAX_CHI_COMPARISONS comparisons runs too long
    (see there), so each is refused (ValueError) before any route runs."""
    if k_max < 0:
        raise ValueError(f"k_max {k_max} is negative")
    if signatures is None:
        base = check_signature(n)
        signatures = (base, tuple(-s for s in base))
    if not m2_list or not signatures:
        missing = "mass" if not m2_list else "metric"
        raise ValueError(f"the sweep has no {missing} and would compare nothing")
    # len(signatures) * len(m2_list) * sum_(k <= k_max) n^k comparisons,
    # counted until the bound is passed, so a huge k_max costs no more than that
    count, level = 0, len(signatures) * len(m2_list)
    for _ in range(k_max + 1):
        count += level
        if count > MAX_CHI_COMPARISONS:
            raise ValueError(f"k_max {k_max} at n = {n} exceeds the maximum "
                             f"of {MAX_CHI_COMPARISONS} comparisons")
        level *= n
    mismatches = []
    checked = 0
    for sig in signatures:
        for m2 in m2_list:
            config = FeynmanConfig(n, sig, m2)
            for k in range(k_max + 1):
                wrong = {}  # sorted index tuple -> (projection, explicit) as text
                for key in combinations_with_replacement(range(n), k):
                    # the orderings of the multiset: k! / prod_mu gamma_mu!
                    checked += math.factorial(k) // math.prod(
                        map(math.factorial, _exponent(n, key)))
                    s_op = ConstCoeffOperator.monomial(config, key)
                    proj = chi_projection(s_op, ONE, config).chi
                    expl = chi_explicit(key, n, m2, sig)
                    if proj.coeffs != expl.coeffs:
                        wrong[key] = (str(proj), str(expl))
                if wrong:
                    for idx in product(range(n), repeat=k):
                        texts = wrong.get(tuple(sorted(idx)))
                        if texts:
                            mismatches.append(CrosscheckEntry(
                                config.signature, config.m2, idx, *texts))
    return CrosscheckReport(tuple(signatures), checked, tuple(mismatches))
