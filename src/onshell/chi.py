"""The on-shell/off-shell map for derivatives of the Feynman propagator.

Given the fundamental-solution normalization (box + m^2) v = c*delta with
deg v = -2, every constant-coefficient monomial S gets a counterterm that
moves S v to its on-shell compatible version.  Two independent routes are
provided and cross-validated:

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
  projection-polynomial construction p_s((box|_s)* box) applied to S v
  (asserted in the tests); for m != 0 that literal construction breaks its
  own degree bound and the trace evaluation is the correct continuation
  (see tests and the ledger).

* the explicit route: the closed combinatorial formula with pair
  contractions and the alpha coefficients.

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
themselves.  The split of each basis vector delta^(alpha) is kept per
metric (`_basis_split`, also at most 4096 entries).  The explicit route
reads alpha_j^k, kept per (j, k, configuration) in a table keyed by the
hashable `FeynmanConfig` (`_alpha`, ALPHA_CACHE = 1024 entries); each
entry forms its polynomial in box by Horner.  Cached operators are
shared, so no caller may mutate their `coeffs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .scalar import GaussianRational, ZERO, ONE, rational
from .deltaspace import DeltaVector, DimensionMismatch, SparseMap, mi_add, mi_order
from .extension import ExtensionRecord, onshell_correction
from .opalg import check_signature, dalembert, default_signature

ALPHA_CACHE = 1024
BASIS_CACHE = 4096


@dataclass(frozen=True)
class FeynmanConfig:
    """Ambient data for the counterterm algebra.

    deg_v is the degree of divergence of the fundamental solution
    (-2 for the Feynman propagator); it fixes the threshold below which
    no counterterm exists.
    """

    n: int = 4
    signature: tuple = (1, -1, -1, -1)
    m2: Fraction = Fraction(0)
    deg_v: int = -2

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "signature", check_signature(self.n, self.signature))
        if self.m2.__class__ is not Fraction:
            object.__setattr__(self, "m2", Fraction(self.m2))


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
        cs = {}
        for mu, s in enumerate(config.signature):
            e2 = tuple(2 if j == mu else 0 for j in range(config.n))
            cs[e2] = GaussianRational.of(s)
        return ConstCoeffOperator(config, cs)

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
    s: int  # counterterm degree used (order(S) + deg_v)


# ---------------------------------------------------------------------------
# trace (harmonic) decomposition of delta vectors
# ---------------------------------------------------------------------------

def _trace_eigenvalue(n: int, k: int, j: int) -> int:
    """Eigenvalue of (x.x) o box on box^j h with h of degree k - 2j."""
    return 2 * (j + 1) * (2 * k - 2 * j + n)


def _descend_factor(n: int, d: int, i: int) -> int:
    """(x.x) box^i h = a_i box^(i-1) h with h of degree d: a_i below."""
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
    """(x.x) delta^(a) = sum_mu g_(mu mu) a_mu (a_mu - 1) delta^(a - 2 e_mu), on {a: int}."""
    out: dict = {}
    for alpha, c in v.items():
        for mu, g in enumerate(signature):
            a = alpha[mu]
            if a >= 2:
                beta = alpha[:mu] + (a - 2,) + alpha[mu + 1:]
                out[beta] = out.get(beta, 0) + g * a * (a - 1) * c
    return out


@lru_cache(maxsize=BASIS_CACHE)
def _basis_split(signature: tuple, alpha: tuple) -> tuple:
    """The split of one basis vector delta^(alpha): ((j, ((beta, h_j[beta]), ...)), ...).

    It depends on the metric and alpha only, never on m^2, so one entry
    serves every mass and every coefficient.  Integer coefficients are kept
    until the end: the Lagrange numerators and the descent by (x.x)^j are
    exact integer maps, and the common denominator is divided out once, into
    scalar factors.  M = (x.x) o box runs once per Krylov vector
    M^p delta^(alpha), p <= k/2, and each Lagrange numerator
    prod_(i != j) (M - lam_i) delta^(alpha) is an integer combination of them.
    """
    n = len(signature)
    k = sum(alpha)
    lams = [_trace_eigenvalue(n, k, j) for j in range(k // 2 + 1)]
    krylov = [{alpha: 1}]
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
        comp = {beta: c for beta, c in comp.items() if c}
        for i in range(j, 0, -1):
            comp = _interval_delta(signature, comp)
            denom *= _descend_factor(n, k - 2 * j, i)
        h = tuple((beta, rational(c, denom)) for beta, c in comp.items() if c)
        if h:
            out.append((j, h))
    return tuple(out)


def harmonic_components(config: FeynmanConfig, w: DeltaVector) -> dict:
    """Split w into components box^j h_j with (x.x) h_j = 0, exactly.

    Within each homogeneous degree k the splitting is the spectral
    decomposition of (x.x) o box, whose eigenvalues are the distinct
    positive integers 2(j+1)(2k-2j+n); the projectors are Lagrange
    interpolation polynomials.  box and x.x act on delta vectors by direct
    exponent-shift rules, and the split of each basis vector is cached
    (`_basis_split`), so w's split is a linear combination of cached ones.
    Returns a map j -> h_j (the h_j collect all homogeneous degrees).
    """
    if w.n != config.n:
        raise DimensionMismatch("delta vector dimension does not match the configuration")
    acc: dict = {}
    for alpha, c in w.coeffs.items():
        for j, terms in _basis_split(config.signature, alpha):
            hj = acc.setdefault(j, {})
            for beta, f in terms:
                x = c * f
                hj[beta] = hj[beta] + x if beta in hj else x
    out = {}
    for j in sorted(acc):
        h = DeltaVector(config.n, acc[j])
        if not h.is_zero():
            out[j] = h
    return out


def _add_scaled(acc: dict, coeffs: dict, c) -> None:
    """acc += c * coeffs on {exponent: scalar}; c = ONE adds coeffs as they are."""
    for a, x in coeffs.items():
        if c is not ONE:
            x = x * c
        acc[a] = acc[a] + x if a in acc else x


@lru_cache(maxsize=BASIS_CACHE)
def _basis_chi(config: FeynmanConfig, gamma: tuple) -> tuple:
    """(chi, chi1) of the monomial S = d^gamma from its trace split
    S delta = sum_j box^j H_j delta (H_j delta trace free), before the
    order(S) + deg_v threshold, which callers apply to the whole of S.

    chi = sum_j (-m^2)^j H_j is the split evaluated at box -> -m^2, and
    chi1 = -sum_i box^i K_i with K_i = H_(i+1) + (-m^2) K_(i+1), so that
    S - chi = sum_j H_j (box^j - (-m^2)^j) = -chi1 (box + m^2).  chi1 delta
    is formed by Horner in box, each step one `_box_delta` exponent shift,
    and every entry is checked exactly by the same shifts:
    chi delta = S delta + (box + m^2) chi1 delta.  The operators are shared,
    so no caller may mutate their `coeffs`.
    """
    sig = config.signature
    comps = harmonic_components(config, DeltaVector(config.n, {gamma: ONE}))
    top = max(comps, default=0)
    mm = GaussianRational.of(-config.m2)
    chi: dict = {}
    power = ONE
    for j in range(top + 1):
        if j in comps:
            _add_scaled(chi, comps[j].coeffs, power)
        power = power * mm
    k_i: dict = {}
    horner: dict = {}
    for i in range(top - 1, -1, -1):
        k_i = {a: x * mm for a, x in k_i.items()}
        if i + 1 in comps:
            _add_scaled(k_i, comps[i + 1].coeffs, ONE)
        horner = _box_delta(sig, horner)
        _add_scaled(horner, k_i, ONE)
    chi1 = {a: -x for a, x in horner.items() if x}
    # exact self-check: chi delta - S delta = (box + m^2) chi1 delta
    lhs = dict(chi)
    lhs[gamma] = lhs[gamma] - ONE if gamma in lhs else -ONE
    rhs = _box_delta(sig, chi1)
    _add_scaled(rhs, chi1, GaussianRational.of(config.m2))
    if {a: x for a, x in lhs.items() if x} != {a: x for a, x in rhs.items() if x}:
        raise AssertionError("spectral chi contract violated: chi != S + chi1 (box + m^2)")
    return ConstCoeffOperator(config, chi), ConstCoeffOperator(config, chi1)


def _chi_pair(config: FeynmanConfig, s_op: ConstCoeffOperator) -> tuple:
    """(chi, chi1) of S = sum_gamma c_gamma d^gamma: (S, 0) when
    order(S) + deg_v < 0, else sum_gamma c_gamma (the images of d^gamma), one
    dict per result.  A single term with coefficient 1 returns the kept
    images themselves."""
    if s_op.order() + config.deg_v < 0:
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


def theta_counterterm(s_op: ConstCoeffOperator, c, config: FeynmanConfig = None) -> DeltaVector:
    """Delta-supported part of the on-shell replacement of S v.

    Returns 0 when s = order(S) + deg_v < 0 (the extension is unique below
    the threshold); otherwise c * chi1(S) delta, so that adding it to S v
    realizes the on-shell counterterm, with theta(S (box+m^2)) = 0 exactly.
    """
    chi1 = _chi_pair(config or s_op.config, s_op)[1]
    return chi1.apply_to_delta().scale(GaussianRational.of(c))


def chi_projection(s_op: ConstCoeffOperator, c=ONE, config: FeynmanConfig = None) -> ChiResult:
    """chi and chi1 via the spectral route, with chi(S) = S + chi1(S)(box+m^2)
    and chi1(S) the operator X with X delta = c^(-1) * theta_counterterm(S, c)
    for any c != 0 (checked exactly in the tests).
    """
    config = config or s_op.config
    if GaussianRational.of(c).is_zero():
        raise ValueError("the normalization constant c must be nonzero")
    if s_op.space() != config:
        raise DimensionMismatch("the operator's configuration does not match the given one")
    chi, chi1 = _chi_pair(config, s_op)
    order = s_op.order()
    if chi.order() > order:
        raise AssertionError("order bound violated by the spectral route")
    return ChiResult(chi, chi1, order + config.deg_v)


def counterterm_level_projection(s_op: ConstCoeffOperator, c, level: int,
                                 config: FeynmanConfig = None) -> DeltaVector:
    """Literal restriction-level construction: the on-shell counterterm
    (`extension.onshell_correction`, with its exact self-check) of the
    record whose one residue is (box + m^2) u' = c * S delta, at the given
    level.  The level must be at least order(S) - 2.

    Identical to theta_counterterm for m = 0 at every level >= order(S) - 2
    (asserted in the tests); kept as the massless dual route and as the
    documented point of departure for m != 0.
    """
    config = config or s_op.config
    q = dalembert(config.n, config.m2, config.signature)
    w = s_op.apply_to_delta().scale(GaussianRational.of(c))
    return onshell_correction(ExtensionRecord(config.n, level, {q: w}), q)


# ---------------------------------------------------------------------------
# the explicit combinatorial route
# ---------------------------------------------------------------------------

def lambda_contraction(indices, signature) -> list:
    """All pair contractions: for each position pair i < j the metric weight
    g_(mu_i mu_j) and the index list with both positions removed."""
    sig = tuple(signature)
    n = len(sig)
    idx = tuple(indices)
    for mu in idx:
        if not 0 <= mu < n:
            raise ValueError(f"index {mu} out of range for dimension {n}")
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
    config = FeynmanConfig(n, signature if signature is not None else default_signature(n), m2)
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

    Lambda^j is applied level by level, with one weight per reduced
    monomial (an exponent): the exact sum over every ordered sequence of j
    pair contractions, gathered into fewer terms.  The first level contracts
    the indices in the order given (`lambda_contraction`); a later level
    contracts by index counts, as a monomial depends only on them: exponent
    c goes to c - 2 e_mu with weight g_(mu mu) C(c_mu, 2).  The total is one
    exponent dict, and alpha_j^k times the level-j weights / j! is added into
    it by exponent shifts.
    """
    config = FeynmanConfig(n, signature if signature is not None else default_signature(n), m2)
    sig = config.signature
    idx = tuple(indices)
    k = len(idx)
    total = {_exponent(n, idx): ONE}
    level: dict = {}
    for w, reduced in lambda_contraction(idx, sig):
        if w:
            key = _exponent(n, reduced)
            level[key] = level[key] + w if key in level else w
    j = 1
    while level:
        alpha = alpha_coefficient(j, k, n, config.m2, sig).coeffs
        inv = rational(1, math.factorial(j))
        for rest, w in level.items():
            f = w * inv
            for a, x in alpha.items():
                key = mi_add(a, rest)
                y = x * f
                total[key] = total[key] + y if key in total else y
        nxt: dict = {}
        for rest, w in level.items():
            for mu, c in enumerate(rest):
                if c >= 2:
                    key = rest[:mu] + (c - 2,) + rest[mu + 1:]
                    x = w * (sig[mu] * c * (c - 1) // 2)
                    nxt[key] = nxt[key] + x if key in nxt else x
        level = nxt
        j += 1
    return ConstCoeffOperator(config, total)


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
    checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def chi_crosscheck(k_max: int, n: int, m2_list, signatures=None) -> CrosscheckReport:
    """Compare the two routes coefficientwise on every derivative monomial of
    order <= k_max, for every mass value and both metric conventions.

    The explicit route runs on every ordered monomial; the projection route,
    which sees only the exponent, runs once per index multiset and each
    ordering is compared against that result."""
    if signatures is None:
        base = default_signature(n)
        signatures = (base, tuple(-s for s in base))
    mismatches = []
    checked = 0
    for sig in signatures:
        for m2 in m2_list:
            config = FeynmanConfig(n, sig, m2)
            projected = {}  # sorted index tuple -> chi by the projection route
            for k in range(k_max + 1):
                for idx in product(range(n), repeat=k):
                    checked += 1
                    key = tuple(sorted(idx))
                    proj = projected.get(key)
                    if proj is None:
                        s_op = ConstCoeffOperator.monomial(config, key)
                        proj = projected[key] = chi_projection(s_op, ONE, config).chi
                    expl = chi_explicit(idx, n, m2, sig)
                    if proj.coeffs != expl.coeffs:
                        mismatches.append(CrosscheckEntry(
                            config.signature, config.m2, idx, str(proj), str(expl)))
    return CrosscheckReport(checked, tuple(mismatches))
