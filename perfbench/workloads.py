"""The three seeded query lists and their correctness gates.

A query is one user question.  `call` is the timed part and goes through
module attributes (`ext.onshell_correction`, `cli.main`, ...) so that the
tracing wrappers see it; `canon` gives the canonical text of an answer for
the answer digest; `check` verifies the answer with `reference` alone and
returns None or the reason it is wrong.  Building a list is deterministic in
the seed: the structure of each list (operator families, dimensions, degrees,
Euler degrees and counts) is fixed, and the seed draws masses, operator
coefficients, residues and the sampled chi monomials.
"""

from __future__ import annotations

import io
import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product

import onshell.chi as chi
import onshell.extension as ext
import onshell.opalg as opalg
from onshell.deltaspace import DeltaVector, Polynomial
from onshell.scalar import ONE, GaussianRational

import reference as ref

WORKLOADS = ("counterterm", "chi-table", "range-decide")


class Query:
    __slots__ = ("label", "call", "canon", "check")

    def __init__(self, label, call, canon, check):
        self.label = label
        self.call = call
        self.canon = canon
        self.check = check


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"onshell-bench:{workload}:{seed}")
    return {"counterterm": _counterterm, "chi-table": _chi_table,
            "range-decide": _range_decide}[workload](rng)


# ---------------------------------------------------------------------------
# conversions between engine values and reference values
# ---------------------------------------------------------------------------

def _to_engine_vec(n: int, v: dict) -> DeltaVector:
    return DeltaVector(n, {a: GaussianRational(c[0], c[1]) for a, c in v.items()})


def _from_engine(coeffs: dict) -> dict:
    return {tuple(a): (c.re, c.im) for a, c in coeffs.items()}


def _coeffs_text(coeffs: dict) -> str:
    return ";".join(f"{a}:{c.re},{c.im}" for a, c in sorted(coeffs.items()))


def _to_engine_op(spec, n: int):
    """The engine operator for a reference spec, built with opalg's constructors."""
    kind = spec[0]
    if kind == "num":
        return opalg.OperatorExpr.from_scalar(n, GaussianRational(*spec[1]))
    if kind == "x":
        return opalg.OperatorExpr.multiplication(Polynomial.coordinate(n, spec[1]))
    if kind == "d":
        return opalg.OperatorExpr.derivative(n, tuple(int(j == spec[1]) for j in range(n)))
    if kind == "euler":
        return opalg.euler(n, spec[1])
    if kind == "box":
        return opalg.dalembert(n, spec[1])
    if kind == "casimir":
        return opalg.casimir(n)
    if kind == "parity":
        return opalg.parity(n)
    parts = [_to_engine_op(p, n) for p in spec[1:] if not isinstance(p, int)]
    if kind == "add":
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out
    if kind == "mul":
        out = parts[0]
        for p in parts[1:]:
            out = out @ p
        return out
    if kind == "pow":
        return parts[0] ** spec[2]
    raise ValueError(f"unknown operator spec {kind!r}")


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _scalar(rng, imag: bool):
    """A nonzero rational, with a nonzero imaginary part when imag is set."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
    return (part(), part() if imag else Fraction(0))


def _dense(rng, n: int, deg: int) -> dict:
    """Delta vector with every coefficient of degree <= deg drawn, every other one complex."""
    return {a: _scalar(rng, k % 2 == 1) for k, a in enumerate(ref.multi_indices(n, deg))}


# the seeded p/q masses; all of one size, so the draw moves the cost little
FRACTION_MASSES = tuple(Fraction(p, q) for p, q in
                        ((1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 3), (5, 3), (7, 3)))


def _poly_op(rng, n: int, shape, complex_lead: bool):
    """c1 d_i + c2 x_j d_k d_l + c3 with shape (i, j, k, l): essential order 1.

    Only the coefficients are drawn: the shape moves the cost far more, so
    it is part of the fixed structure, and so is whether c1 is complex.
    """
    i, j, k, l = shape
    c1, c2, c3 = _scalar(rng, complex_lead), _scalar(rng, False), _scalar(rng, False)
    return ("add", ("mul", ("num", c1), ("d", i)),
            ("mul", ("num", c2), ("x", j), ("d", k), ("d", l)), ("num", c3))


def _residues(rng, spec, n: int, r: int, ess: int, count: int):
    """count residues for Q|_r: the first half Q w0 (in range), the rest generic."""
    out = []
    for t in range(count):
        if t < count // 2:
            out.append((ref.apply(spec, _dense(rng, n, r), n), True))
        else:
            out.append((_dense(rng, n, r + ess), False))
    return out


# ---------------------------------------------------------------------------
# counterterm: onshell_correction + apply_counterterm and the other solvers
# ---------------------------------------------------------------------------

def _counterterm_check(spec, n, r, w, in_range, v, corr):
    v, corr = _from_engine(v.coeffs), _from_engine(corr.coeffs)
    if corr != ref.vadd(w, ref.apply(spec, v, n)):
        return "corrected residue differs from w + Q v"
    if in_range and corr:
        return "in-range residue not corrected to zero"
    if not ref.orthogonal_to_range(spec, n, r, corr):
        return "corrected residue not orthogonal to Ran(Q|_r)"
    return None


def _pair_canon(ans) -> str:
    v, corr = ans
    return _coeffs_text(v.coeffs) + "|" + _coeffs_text(corr.coeffs)


def _onshell_queries(rng, n, r, spec, count=4):
    q = _to_engine_op(spec, n)
    ess = q.essential_order().q
    out = []
    for w, in_range in _residues(rng, spec, n, r, ess, count):
        rec = ext.ExtensionRecord(n, r, {q: _to_engine_vec(n, w)})

        def call(rec=rec, q=q):
            v = ext.onshell_correction(rec, q)
            return v, ext.apply_counterterm(rec, v).residue(q)

        def check(ans, w=w, in_range=in_range):
            return _counterterm_check(spec, n, r, w, in_range, *ans)

        out.append(Query(f"onshell n={n} r={r} {ref.render(spec)}", call, _pair_canon, check))
    return out


def _renorm_queries(rng, n, r, degrees):
    spec = ("mul",) + tuple(("pow", ("euler", a), k) for a, k in degrees)
    t_op = _to_engine_op(spec, n)
    out = []
    for w, in_range in _residues(rng, spec, n, r, 0, 2):
        rec = ext.ExtensionRecord(n, r, {t_op: _to_engine_vec(n, w)})

        def call(rec=rec):
            v = ext.renorm_map(rec, degrees)
            return v, ext.apply_counterterm(rec, v).residue(t_op)

        def check(ans, w=w, in_range=in_range):
            return _counterterm_check(spec, n, r, w, in_range, *ans)

        out.append(Query(f"renorm n={n} r={r} {degrees}", call, _pair_canon, check))
    return out


def _order_raise_queries(rng, n, r, a, k):
    r_spec = ("euler", a)
    rk_spec = ("pow", r_spec, k)
    r_op = _to_engine_op(r_spec, n)
    rk_op = r_op ** k
    out = []
    for w, in_range in _residues(rng, rk_spec, n, r, 0, 2):
        rec = ext.ExtensionRecord(n, r, {rk_op: _to_engine_vec(n, w)})

        def call(rec=rec):
            v = ext.order_raising_correction(rec, r_op, k)
            return v, ext.apply_counterterm(rec, v).residue(rk_op)

        def check(ans, w=w, in_range=in_range):
            bad = _counterterm_check(rk_spec, n, r, w, in_range, *ans)
            if bad is None and ref.apply(r_spec, _from_engine(ans[1].coeffs), n):
                bad = "R^(k+1) residue is not zero"
            return bad

        out.append(Query(f"order-raise n={n} r={r} a={a} k={k}", call, _pair_canon, check))
    return out


def _casimir_queries(rng, n, r):
    c_op, gens, expression = ext.lorentz_casimir_setup(n)
    spec = ("casimir",)
    out = []
    for w, in_range in _residues(rng, spec, n, r, 0, 2):
        rec = ext.ExtensionRecord(n, r, {c_op: _to_engine_vec(n, w)})

        def call(rec=rec):
            v = ext.casimir_correction(rec, c_op, gens, expression)
            return v, ext.apply_counterterm(rec, v).residue(c_op)

        def check(ans, w=w, in_range=in_range):
            v, corr = _from_engine(ans[0].coeffs), _from_engine(ans[1].coeffs)
            if corr != ref.vadd(w, ref.apply(spec, v, n)):
                return "corrected residue differs from w + C v"
            if ref.apply(spec, corr, n):
                return "corrected residue not in ker(C|_r)"
            if in_range and corr:
                return "in-range residue not corrected to zero"
            return None

        out.append(Query(f"casimir n={n} r={r}", call, _pair_canon, check))
    return out


def _commuting_queries(rng, n, r, a):
    specs = [("euler", a), ("casimir",)]
    ops = [_to_engine_op(s, n) for s in specs]
    out = []
    for t in range(2):
        if t == 0:
            w0 = _dense(rng, n, r)
            ws = [ref.apply(s, w0, n) for s in specs]
        else:
            ws = [_dense(rng, n, r) for _ in specs]
        rec = ext.ExtensionRecord(n, r, {q: _to_engine_vec(n, w) for q, w in zip(ops, ws)})

        def call(rec=rec):
            v = ext.multi_commuting_correction(rec, ops)
            after = ext.apply_counterterm(rec, v)
            return v, tuple(after.residue(q) for q in ops)

        def canon(ans):
            return "|".join([_coeffs_text(ans[0].coeffs)]
                            + [_coeffs_text(c.coeffs) for c in ans[1]])

        def check(ans, ws=ws, in_range=(t == 0)):
            v = _from_engine(ans[0].coeffs)
            corrs = [_from_engine(c.coeffs) for c in ans[1]]
            for s, w, corr in zip(specs, ws, corrs):
                if corr != ref.vadd(w, ref.apply(s, v, n)):
                    return "corrected residue differs from w + Q v"
            if not ref.orthogonal_to_range(specs[-1], n, r, corrs[-1]):
                return "last corrected residue not orthogonal to its range"
            if in_range and any(corrs):
                return "common in-range residues not corrected to zero"
            return None

        out.append(Query(f"commuting n={n} r={r} a={a}", call, canon, check))
    return out


def _counterterm(rng) -> list:
    p_mass = rng.choice(FRACTION_MASSES)
    qs = []
    for n, r, m2 in ((2, 3, 0), (3, 2, 1), (2, 3, 2), (3, 2, p_mass)):
        qs += _onshell_queries(rng, n, r, ("box", Fraction(m2)))
    qs += _onshell_queries(rng, 4, 2, ("box", p_mass), count=2)
    # the largest cases, at Gram dimension 35
    qs += _onshell_queries(rng, 4, 3, ("box", Fraction(1)), count=2)
    qs += _onshell_queries(rng, 3, 4, ("box", Fraction(0)), count=1)
    # the Euler degrees a are part of the fixed structure: whether and where
    # euler(a) has a kernel moves a query's cost by up to 25 %
    for n, r, k, a in ((2, 3, 1, -1), (3, 2, 1, -2), (2, 3, 2, -3), (3, 2, 2, -4),
                       (2, 4, 1, -5), (4, 2, 1, -6), (2, 3, 3, -2), (3, 2, 3, -1),
                       (2, 3, 1, -4), (3, 2, 1, -5), (3, 2, 2, -3), (3, 3, 2, -4)):
        qs += _onshell_queries(rng, n, r, ("pow", ("euler", Fraction(a)), k),
                               count=2 if (n, r) == (3, 3) else 4)
    for n, r, count in ((2, 3, 4), (3, 2, 4), (2, 4, 2), (4, 2, 2)):
        qs += _onshell_queries(rng, n, r, ("casimir",), count=count)
    for n, r, shape in ((2, 2, (0, 0, 0, 1)), (3, 2, (2, 0, 1, 1))) * 2:
        qs += _onshell_queries(rng, n, r, _poly_op(rng, n, shape, False), count=2)
    for n, r, a, b, k in ((2, 3, -2, -5, 1), (3, 2, -1, -3, 2)):
        qs += _casimir_queries(rng, n, r)
        qs += _order_raise_queries(rng, n, r, Fraction(a), k)
        qs += _renorm_queries(rng, n, r, [(Fraction(a), 1), (Fraction(b), 1)])
        qs += _commuting_queries(rng, n, r, Fraction(b))
    return qs


# ---------------------------------------------------------------------------
# chi-table: both chi routes on every ordered monomial of order <= 4
# ---------------------------------------------------------------------------

# the chi routes cost up to 15 % more for some thirds than for halves, which
# all cost the same, so the seeded chi mass is a half
CHI_MASSES = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))

# index multiplicities of the sampled monomials: four with k = 5, two with
# k = 6; the pattern sets their cost, the seed picks the indices and order
SAMPLE_PATTERNS = ((5,), (4, 1), (3, 2), (2, 2, 1), (2, 2, 2), (3, 2, 1))


def _sampled_monomial(rng, n: int, pattern) -> tuple:
    picked = rng.sample(range(n), len(pattern))
    indices = [i for i, m in zip(picked, pattern) for _ in range(m)]
    rng.shuffle(indices)
    return tuple(indices)


def _chi_queries(rng, sig, m2) -> list:
    n = len(sig)
    cfg = chi.FeynmanConfig(n, sig, m2)
    kg = ref.klein_gordon(n, sig, m2)
    indices = [idx for k in range(5) for idx in product(range(n), repeat=k)]
    indices += [_sampled_monomial(rng, n, pattern) for pattern in SAMPLE_PATTERNS]
    out = []
    for idx in indices:
        s_op = chi.ConstCoeffOperator.monomial(cfg, idx)

        def call(s_op=s_op, idx=idx):
            proj = chi.chi_projection(s_op, ONE, cfg)
            expl = chi.chi_explicit(idx, n, m2, sig)
            return proj, expl, proj.chi.coeffs == expl.coeffs

        def check(ans, s_op=s_op, idx=idx):
            proj, expl, same = ans
            p, c1 = _from_engine(proj.chi.coeffs), _from_engine(proj.chi1.coeffs)
            if not same or p != _from_engine(expl.coeffs):
                return "projection and explicit routes differ"
            if ref.degree(p) > len(idx):
                return "order bound violated"
            if p != ref.vadd(_from_engine(s_op.coeffs), ref.pmul(c1, kg)):
                return "chi != S + chi1 (box + m^2)"
            return None

        def canon(ans):
            proj, expl, same = ans
            return "|".join((_coeffs_text(proj.chi.coeffs), _coeffs_text(proj.chi1.coeffs),
                             _coeffs_text(expl.coeffs), str(same)))

        out.append(Query(f"chi {sig} m2={m2} {idx}", call, canon, check))
    return out


def _chi_table(rng) -> list:
    m2_int = rng.choice([Fraction(0), Fraction(1), Fraction(2)])
    m2_frac = rng.choice(CHI_MASSES)
    return (_chi_queries(rng, (1, -1, -1, -1), m2_int)
            + _chi_queries(rng, (-1, 1, 1, 1), m2_frac))


# ---------------------------------------------------------------------------
# range-decide: extend-check and kernel --residue through cli.main
# ---------------------------------------------------------------------------

def _json_vec(obj) -> dict:
    return {tuple(t["alpha"]): (Fraction(t["coeff"]["re"]), Fraction(t["coeff"]["im"]))
            for t in obj["terms"]}


def _range_check(spec, n, r, w, in_range, sub, ans):
    code, text = ans
    if code not in (0, 2):
        return f"exit code {code}"
    if in_range and code != 0:
        return "in-range residue answered no"
    out = json.loads(text)
    if sub == "kernel":
        for k in map(_json_vec, out["kernel_basis"]):
            if not k or ref.apply(spec, k, n):
                return "kernel basis vector not in ker(Q|_r)"
        cert = out["preimage"] if code == 0 else out["witness"]
    else:
        if out["exists"] != (code == 0):
            return "exists flag disagrees with the exit code"
        cert = out["certificate"]
    cert = _json_vec(cert)
    if code == 0:
        if ref.apply(spec, cert, n) != w:
            return "Q preimage != residue"
    elif not ref.orthogonal_to_range(spec, n, r, cert):
        return "witness not in ker(Q|_r)*"
    elif ref.is_zero(ref.inner(cert, w)):
        return "witness orthogonal to the residue"
    return None


def _residue_json(n: int, w: dict) -> str:
    terms = [{"alpha": list(a), "coeff": {"re": str(c[0]), "im": str(c[1])}}
             for a, c in sorted(w.items())]
    return json.dumps({"n": n, "terms": terms})


# operator shapes (i, j, k, l) of c1 d_i + c2 x_j d_k d_l + c3, per dimension
RANGE_SHAPES = {2: ((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 1), (1, 1, 0, 0)),
                3: ((0, 1, 1, 2), (2, 0, 1, 1), (1, 2, 0, 2), (0, 0, 2, 1))}


def _range_decide(rng) -> list:
    import onshell.cli as cli  # only this workload pays for importing the CLI
    p_mass = rng.choice(FRACTION_MASSES)
    small = [(n, r, None) for n, r in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2))] * 18
    small += [(3, 3, None)] * 6
    boxes = [(4, r, m2) for r in (2, 3) for m2 in (0, 1, 2, p_mass)] + [(4, 2, 1), (4, 2, p_mass)]
    # the structure is fixed: per (n, r) the queries alternate in-range and
    # generic residues, then the two subcommands, then the shapes, and every
    # third polynomial operator is composed with parity
    seen = Counter()
    out = []
    for t, (n, r, m2) in enumerate(small + boxes):
        k = seen[n, r]
        seen[n, r] += 1
        in_range = k % 2 == 0
        sub = ("extend-check", "kernel")[(k // 2) % 2]
        if n == 4:
            spec = ("box", Fraction(m2))
        else:
            spec = _poly_op(rng, n, RANGE_SHAPES[n][(k // 4) % 4], k % 8 >= 4)
            if t % 3 == 0:
                spec = ("mul", ("parity",), spec) if t % 2 else ("mul", spec, ("parity",))
        text = ref.render(spec)
        ess = cli.parse_operator(text, n).essential_order().q
        w = ref.apply(spec, _dense(rng, n, r), n) if in_range else _dense(rng, n, r + ess)
        argv = [sub, "--dim", str(n), "--degree", str(r), "--op", text,
                "--residue", _residue_json(n, w)]

        def call(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(ans, spec=spec, n=n, r=r, w=w, in_range=in_range, sub=sub):
            return _range_check(spec, n, r, w, in_range, sub, ans)

        out.append(Query(f"{sub} n={n} r={r} {text}", call,
                         lambda ans: f"{ans[0]}\n{ans[1]}", check))
    return out
