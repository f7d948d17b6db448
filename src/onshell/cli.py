"""Command-line front end.

Subcommands expose every solver with deterministic JSON (or text) output.
Operators are written in a small expression language over the tokens
x1..xn (coordinates), d1..dn (partials), rational literals p/q, the
imaginary unit i, the builtins euler(a), box(m2), casimir, L(mu,nu),
parity, reflect(matrix), and the operators + - * ^ with parentheses.
Juxtaposition is not multiplication; '*' is mandatory.  The coordinates
x1..xn and partials d1..dn count from 1, the Lorentz generator indices of
L(mu,nu) from 0 (as the metric's): in two dimensions the boost is L(0,1),
as in `onshell essord --dim 2 --op "L(0,1)"`.

`--metric` is resolved once, before the subcommand runs, and each
subcommand takes exactly the residues it uses.

Coefficients travel as JSON objects {"re": "p/q", "im": "p/q"} of rational
strings.  A residue is a JSON object, either {"n": n, "terms": [...]} or a
single {"alpha": [...], "coeff": ...}; an "n" it gives must be the integer
--dim, and any other JSON value (a list, a number, a string holding JSON
again) is refused.  Each coefficient part is read by `scalar._ratio` and
written by `scalar._text`, the package's one reader and one writer of
rational text: the accepted forms ("3/6", "0.5", "1e3") and the error
messages ("Fraction(1, 0)") are `Fraction`'s, and a part is written as
str(Fraction) writes it.

Exit codes: 0 success, 1 usage or syntax errors, 2 mathematical "no"
(non-existence, hypothesis failure, route mismatch) with a machine-readable
certificate, 3 contract violated: one of the engine's exact self-checks
failed (an `AssertionError`), reported as one line
`onshell: contract violated: ...` on stderr, with no traceback and no
output on stdout.  A stdout closed by its reader before the output is
written (`onshell kernel ... | head -1`) also ends with exit 1, silently
and without a traceback; the rest of the output is discarded.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .scalar import GaussianRational, I, _text
from .deltaspace import DeltaVector, Polynomial
from .opalg import (
    OperatorExpr,
    OperatorTooLarge,
    casimir,
    check_signature,
    compose_checked,
    dalembert,
    euler,
    lorentz_generator,
    parity,
    reflection,
)
from . import degree as degree_mod
from .chi import (
    ConstCoeffOperator,
    FeynmanConfig,
    chi_crosscheck,
    chi_explicit,
    chi_projection,
    theta_counterterm,
)
from .extension import (
    CasimirHypothesisError,
    ExtensionRecord,
    NonNormalRestriction,
    apply_counterterm,
    casimir_correction,
    existence_check,
    homogeneity_operator,
    homogeneous_extension_unique,
    linearity_precondition,
    lorentz_casimir_setup,
    multi_commuting_correction,
    order_raising_correction,
    renorm_map,
    verify_casimir_hypotheses,
)
from .spectral import (
    NonNormalMatrixError,
    RestrictionMatrix,
    adjoint_restriction,
    kernel_basis,
    minimal_polynomial,
    projection_polynomial,
    projector_onto_kernel,
    pseudoinverse_correction,
    range_membership,
    restrict,
)


# ---------------------------------------------------------------------------
# operator expression language
# ---------------------------------------------------------------------------

class OperatorSyntaxError(ValueError):
    def __init__(self, message: str, start: int, end: int):
        super().__init__(f"at {start}-{end}: {message}")
        self.start = start
        self.end = end


_SYMBOLS = set("+-*^()[],")

# Largest exponent accepted after '^'.  Each power of an operator multiplies
# its size, so a huge exponent would run until killed; every operator this
# package works with needs small powers only.
MAX_POWER = 64
# The exponent cap alone does not bound the operator's size: the 64th power
# of x1+x2+x3+x4 has 47,905 terms.  Every product '*' and every step of a
# power '^' is refused before it is formed when the product of the sizes
# exceeds opalg.MAX_PRODUCT_SIZE, and after it when its own size exceeds
# opalg.MAX_OPERATOR_SIZE (opalg.compose_checked).


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i, i + 1))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            num, den = text[i:j], None
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise OperatorSyntaxError("expected digits after '/'", j, j + 1)
                den = text[j + 1:k]
                j = k
            tokens.append(("NUM", Fraction(int(num), int(den) if den else 1), i, j))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i, j))
            i = j
            continue
        raise OperatorSyntaxError(f"unexpected character {ch!r}", i, i + 1)
    tokens.append(("EOF", None, len(text), len(text)))
    return tokens


class _OperatorParser:
    """Recursive descent for
    expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ('^' nat)?
    """

    def __init__(self, text: str, n: int, signature):
        self.text = text
        self.n = n
        self.signature = signature
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self):
        return self.tokens[self.pos]

    def _next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind):
        tok = self._next()
        if tok[0] != kind:
            raise OperatorSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self) -> OperatorExpr:
        out = self.expr()
        tok = self._peek()
        if tok[0] != "EOF":
            raise OperatorSyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2], tok[3])
        return out

    def expr(self) -> OperatorExpr:
        negate = False
        if self._peek()[0] == "-":
            self._next()
            negate = True
        out = self.term()
        if negate:
            out = -out
        while self._peek()[0] in ("+", "-"):
            op = self._next()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> OperatorExpr:
        out = self.factor()
        while self._peek()[0] == "*":
            tok = self._next()
            rhs = self.factor()
            try:
                out = compose_checked(out, rhs)
            except OperatorTooLarge as exc:
                raise OperatorSyntaxError(str(exc), tok[2], tok[3]) from None
        return out

    def factor(self) -> OperatorExpr:
        out = self.atom()
        if self._peek()[0] == "^":
            self._next()
            tok = self._expect("NUM")
            k = tok[1]
            if k.denominator != 1 or k < 0:
                raise OperatorSyntaxError("exponent must be a non-negative integer",
                                          tok[2], tok[3])
            if k > MAX_POWER:
                raise OperatorSyntaxError(f"exponent {k} exceeds the maximum {MAX_POWER}",
                                          tok[2], tok[3])
            try:
                out = out ** int(k)
            except OperatorTooLarge as exc:
                raise OperatorSyntaxError(str(exc), tok[2], tok[3]) from None
        return out

    def _signed_rational(self) -> Fraction:
        sign = 1
        if self._peek()[0] == "-":
            self._next()
            sign = -1
        tok = self._expect("NUM")
        return sign * tok[1]

    def _matrix(self):
        self._expect("[")
        rows = []
        while True:
            self._expect("[")
            row = [self._signed_rational()]
            while self._peek()[0] == ",":
                self._next()
                row.append(self._signed_rational())
            self._expect("]")
            rows.append(row)
            if self._peek()[0] == ",":
                self._next()
                continue
            break
        self._expect("]")
        return rows

    def atom(self) -> OperatorExpr:
        tok = self._next()
        kind, val, start, end = tok
        if kind == "NUM":
            return OperatorExpr.from_scalar(self.n, GaussianRational.of(val))
        if kind == "(":
            out = self.expr()
            self._expect(")")
            return out
        if kind != "IDENT":
            raise OperatorSyntaxError(f"unexpected token {val!r}", start, end)
        name = val
        if name == "i":
            return OperatorExpr.from_scalar(self.n, I)
        if name[0] in "xd" and name[1:].isdigit():
            k = int(name[1:])
            if not 1 <= k <= self.n:
                raise OperatorSyntaxError(
                    f"{name!r} out of range for dimension {self.n}", start, end)
            if name[0] == "x":
                return OperatorExpr.multiplication(Polynomial.coordinate(self.n, k - 1))
            e = tuple(1 if j == k - 1 else 0 for j in range(self.n))
            return OperatorExpr.derivative(self.n, e)
        if name == "euler":
            self._expect("(")
            a = self._signed_rational()
            self._expect(")")
            return euler(self.n, a)
        if name == "box":
            self._expect("(")
            m2 = self._signed_rational()
            self._expect(")")
            return dalembert(self.n, m2, self.signature)
        if name == "casimir":
            return casimir(self.n, self.signature)
        if name == "parity":
            return parity(self.n)
        if name == "L":
            self._expect("(")
            mu = self._expect("NUM")[1]
            self._expect(",")
            nu = self._expect("NUM")[1]
            self._expect(")")
            if mu.denominator != 1 or nu.denominator != 1:
                raise OperatorSyntaxError("generator indices must be integers", start, end)
            return lorentz_generator(self.n, int(mu), int(nu), self.signature)
        if name == "reflect":
            self._expect("(")
            rows = self._matrix()
            self._expect(")")
            if len(rows) != self.n or any(len(r) != self.n for r in rows):
                raise OperatorSyntaxError(
                    f"reflect matrix must be {self.n}x{self.n}", start, end)
            return reflection(rows)
        raise OperatorSyntaxError(f"unknown identifier {name!r}", start, end)


def parse_operator(text: str, n: int, signature=None) -> OperatorExpr:
    parser = _OperatorParser(text, n, check_signature(n, signature))
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.tokens[min(parser.pos, len(parser.tokens) - 1)]
        raise OperatorSyntaxError("expression nested too deeply", tok[2], tok[3]) from None


# the printer into the expression language is the operator's own `__str__`
operator_to_text = OperatorExpr.__str__


# ---------------------------------------------------------------------------
# JSON encoding (byte-stable for fixed input)
# ---------------------------------------------------------------------------

def scalar_to_json(c: GaussianRational) -> dict:
    return {"re": _text(c.a, c.d), "im": _text(c.b, c.d)}


def scalar_from_json(obj) -> GaussianRational:
    parts = [obj] if isinstance(obj, str) else [obj["re"], obj.get("im", "0")]
    if not all(isinstance(p, str) for p in parts):  # a JSON number is a binary double
        raise TypeError("a coefficient is not a rational string")
    return GaussianRational(*parts)


def delta_to_json(v: DeltaVector) -> dict:
    return {
        "n": v.n,
        "terms": [{"alpha": list(alpha), "coeff": scalar_to_json(c)}
                  for alpha, c in v.items_sorted()],
    }


def delta_from_json(obj, n: int) -> DeltaVector:
    """The delta vector of dimension n that `obj` holds; an "n" it gives
    must be the integer n."""
    if not isinstance(obj, dict):
        raise TypeError("a delta vector is a JSON object")
    if "n" in obj:
        dim = obj["n"]
        if type(dim) is not int:
            raise TypeError(f"the dimension {dim!r} of a delta vector is not an integer")
        if dim != n:
            raise ValueError(f"the residue's dimension n = {dim} does not match --dim {n}")
    terms = [obj] if "alpha" in obj else obj["terms"]
    coeffs = {}
    for t in terms:
        alpha = tuple(t["alpha"])
        if not all(type(a) is int and a >= 0 for a in alpha):
            raise TypeError(f"multi-index {t['alpha']} is not a list of non-negative integers")
        if len(alpha) != n:
            raise ValueError(f"--residue multi-index {t['alpha']} has length {len(alpha)}, "
                             f"not --dim {n}")
        c = scalar_from_json(t["coeff"])
        coeffs[alpha] = coeffs[alpha] + c if alpha in coeffs else c
    return DeltaVector(n, coeffs)


def matrix_to_json(m: RestrictionMatrix, provenance: str) -> dict:
    return {
        "n": m.n,
        "r_domain": m.r_domain,
        "r_codomain": m.r_codomain,
        "domain_basis": [list(a) for a in m.domain_basis],
        "codomain_basis": [list(a) for a in m.codomain_basis],
        "entries": [[scalar_to_json(c) for c in row] for row in m.entries],
        "provenance": provenance,
    }


def poly_to_json(p) -> list:
    return [scalar_to_json(c) for c in p.coeffs]


JSON_SCHEMA = {
    "$id": "onshell-output",
    "definitions": {
        "rational": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
        "scalar": {
            "type": "object",
            "properties": {"re": {"$ref": "#/definitions/rational"},
                           "im": {"$ref": "#/definitions/rational"}},
            "required": ["re", "im"],
            "additionalProperties": False,
        },
        "multi_index": {"type": "array", "items": {"type": "integer", "minimum": 0}},
        "delta_vector": {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "terms": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {"alpha": {"$ref": "#/definitions/multi_index"},
                                       "coeff": {"$ref": "#/definitions/scalar"}},
                        "required": ["alpha", "coeff"],
                        "additionalProperties": False,
                    },
                },
            },
            "required": ["n", "terms"],
            "additionalProperties": False,
        },
        "matrix": {
            "type": "object",
            "properties": {
                "n": {"type": "integer"},
                "r_domain": {"type": "integer"},
                "r_codomain": {"type": "integer"},
                "domain_basis": {"type": "array", "items": {"$ref": "#/definitions/multi_index"}},
                "codomain_basis": {"type": "array", "items": {"$ref": "#/definitions/multi_index"}},
                "entries": {"type": "array",
                            "items": {"type": "array", "items": {"$ref": "#/definitions/scalar"}}},
                "provenance": {"type": "string"},
            },
            "required": ["n", "r_domain", "r_codomain", "entries"],
        },
    },
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "status": {"enum": ["ok", "no"]},
    },
    "required": ["command", "status"],
}


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Exits 1 on a usage error.  The token after an option that takes a
    value is that value even when it starts with '-' (`--aj -3:1`,
    `--op -d1`), unless it starts with '--' or is '-h'."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        nargs = {s: a.nargs for a in self._actions for s in a.option_strings}
        joined = []
        for tok in sys.argv[1:] if args is None else args:
            prev = joined[-1] if joined else ""
            # an option string, or the one long option it abbreviates
            hits = [prev] if prev in nargs else [s for s in nargs if s.startswith(prev)]
            if (prev.startswith("--") and len(hits) == 1 and nargs[hits[0]] is None
                    and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


def _parse_metric(text: str, n: int):
    if text is None:
        return check_signature(n)
    if len(text) != n or any(ch not in "+-" for ch in text):
        raise ValueError(f"metric {text!r} does not match dimension {n}")
    return check_signature(n, tuple(1 if ch == "+" else -1 for ch in text))


def _metric_text(sig) -> str:
    return "".join("+" if s == 1 else "-" for s in sig)


def _parse_scalar_pair(text: str) -> GaussianRational:
    parts = text.split(",")
    if len(parts) <= 2:
        return GaussianRational(*parts)
    raise ValueError(f"cannot parse scalar {text!r}; expected re,im")


def _emit(payload: dict, as_text: bool) -> None:
    if as_text:
        for key, value in payload.items():
            print(f"{key}: {json.dumps(value, sort_keys=True)}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _status_exit(payload: dict) -> int:
    return 0 if payload.get("status") == "ok" else 2


def _add_common(p, degree=False, op=False, metric=False, residue=False):
    p.add_argument("--dim", type=int, required=True, help="space dimension n")
    if degree:
        p.add_argument("--degree", type=int, required=True, help="restriction degree r")
    if op:
        p.add_argument("--op", action="append", default=[], help="operator expression (repeatable)")
    if metric:
        p.add_argument("--metric", default=None, help="diagonal metric, e.g. +---")
    if residue:
        p.add_argument("--residue", action="append", default=[],
                       help="delta vector JSON, one per --op ('-' reads stdin)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--json", dest="as_text", action="store_false", default=False)
    group.add_argument("--text", dest="as_text", action="store_true")


def _single_op(args) -> OperatorExpr:
    if len(args.op) != 1:
        raise ValueError("exactly one --op is required")
    return parse_operator(args.op[0], args.dim, args.signature)


def _residues(args, count: int, message: str) -> list:
    """The --residue arguments in order, or ValueError(message) unless
    there are exactly `count` of them."""
    if len(args.residue) != count:
        raise ValueError(message)
    out = []
    for text in args.residue:
        try:
            out.append(delta_from_json(json.loads(sys.stdin.read() if text == "-" else text),
                                       args.dim))
        except (TypeError, KeyError):  # well-formed JSON of another shape
            raise ValueError('--residue is not a delta vector {"terms": [{"alpha": [i, ...], '
                             '"coeff": {"re": "p/q", "im": "p/q"}}, ...]}') from None
    return out


def _record(args, ops: list, residues: list) -> ExtensionRecord:
    """The record that gives residues[i] to ops[i]; an operator given twice
    would keep only its last residue, so it is refused (ValueError)."""
    for i, q in enumerate(ops):
        if q in ops[:i]:
            raise ValueError(f"operator {operator_to_text(q)!r} is given twice; "
                             "each operator takes one residue")
    return ExtensionRecord(args.dim, args.degree, dict(zip(ops, residues)))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_restrict(args):
    q = _single_op(args)
    m = restrict(q, args.degree)
    return {"status": "ok", "matrix": matrix_to_json(m, args.op[0]),
            "essential_order": q.essential_order().q}


def _cmd_adjoint(args):
    q = _single_op(args)
    m = adjoint_restriction(q, args.degree)
    return {"status": "ok", "matrix": matrix_to_json(m, args.op[0])}


def _cmd_essord(args):
    q = _single_op(args)
    e = q.essential_order()
    return {"status": "ok", "q": e.q, "exact": e.exact,
            "normal_form": operator_to_text(q.normal_form())}


def _cmd_minpoly(args):
    m = restrict(_single_op(args), args.degree)
    gram = args.gram or not m.is_square()
    p = minimal_polynomial(m.gram if gram else m)
    return {"status": "ok", "matrix": "gram" if gram else "restriction",
            "coefficients": poly_to_json(p)}


def _cmd_projpoly(args):
    q = _single_op(args)
    p = projection_polynomial(q, args.degree)
    out = {"status": "ok", "coefficients": poly_to_json(p)}
    if args.projector:
        out["projector"] = matrix_to_json(projector_onto_kernel(q, args.degree),
                                          f"proj-ker(r={args.degree})")
    return out


def _cmd_kernel(args):
    q = _single_op(args)
    m = restrict(q, args.degree)
    out = {"status": "ok", "kernel_basis": [delta_to_json(v) for v in kernel_basis(m)]}
    if args.residue or args.pseudo:
        [w] = _residues(args, 1, "exactly one --residue is required")
        if args.pseudo:
            try:
                v = pseudoinverse_correction(m, w)
                out["pseudoinverse_solution"] = delta_to_json(v)
            except NonNormalMatrixError as exc:
                out["status"] = "no"
                out["error"] = str(exc)
            return out
        dec = range_membership(m, w)
        out["in_range"] = dec.member
        if dec.member:
            out["preimage"] = delta_to_json(dec.preimage)
        else:
            out["status"] = "no"
            out["witness"] = delta_to_json(dec.witness)
    return out


def _cmd_extend_check(args):
    q = _single_op(args)
    ws = _residues(args, 1, "exactly one --residue is required")
    rep = existence_check(_record(args, [q], ws), q)
    return {"status": "ok" if rep.exists else "no", "exists": rep.exists,
            "criterion": rep.criterion, "certificate": delta_to_json(rep.certificate)}


def _cmd_counterterm(args):
    ops = [parse_operator(t, args.dim, args.signature) for t in args.op]
    if not ops:
        raise ValueError("at least one --op is required")
    ws = _residues(args, len(ops), "need exactly one --residue per --op")
    rec = _record(args, ops, ws)
    v = multi_commuting_correction(rec, ops)
    corrected = apply_counterterm(rec, v)
    residue_report = []
    all_zero = True
    for i, q in enumerate(ops):
        res = corrected.residue(q)
        all_zero = all_zero and res.is_zero()
        residue_report.append({"op": args.op[i], "corrected_residue": delta_to_json(res),
                               "onshell": res.is_zero()})
    return {"status": "ok" if all_zero else "no",
            "counterterm": delta_to_json(v), "residues": residue_report,
            "linearity_precondition": [
                {"op": args.op[i], "holds": linearity_precondition(q, args.degree)}
                for i, q in enumerate(ops)]}


def _cmd_order_raise(args):
    if args.k > MAX_POWER:
        raise ValueError(f"--k {args.k} exceeds the maximum {MAX_POWER}")
    q = _single_op(args)
    ws = _residues(args, 1, "exactly one --residue is required")
    rk = q ** args.k if args.k >= 1 else q
    rec = _record(args, [rk], ws)
    try:
        v = order_raising_correction(rec, q, args.k, rk)
    except NonNormalRestriction as exc:
        return {"status": "no", "error": str(exc)}
    corrected = apply_counterterm(rec, v)
    res = q.apply_delta(corrected.residue(rk))
    return {"status": "ok", "counterterm": delta_to_json(v),
            "raised_residue": delta_to_json(res), "raised_onshell": res.is_zero()}


def _cmd_casimir_check(args):
    c_op, gens, expr = lorentz_casimir_setup(args.dim, args.signature)
    rep = verify_casimir_hypotheses(c_op, gens, args.degree, expr)
    out = {"status": "ok" if rep.passed else "no", "level": rep.level,
           "shape_ok": rep.shape_ok, "self_adjoint_ok": rep.self_adjoint_ok,
           "commute_ok": rep.commute_ok, "kernel_ok": rep.kernel_ok,
           "failures": list(rep.failures),
           "generators": [operator_to_text(g) for g in gens]}
    if rep.passed and args.residue:
        ws = _residues(args, 1 + len(gens), f"need 1 + {len(gens)} residues: the Casimir's, "
                       "then one per generator in (mu < nu) order")
        rec = _record(args, [c_op, *gens], ws)
        v = casimir_correction(rec, c_op, gens, expr)
        corrected = apply_counterterm(rec, v)
        out["counterterm"] = delta_to_json(v)
        out["corrected_residues"] = [
            {"op": operator_to_text(g), "residue": delta_to_json(corrected.residue(g))}
            for g in gens]
        if any(not corrected.residue(g).is_zero() for g in gens):
            out["status"] = "no"
            out["failures"] = ["a corrected generator residue is nonzero "
                               "(residues inconsistent or not in range)"]
    return out


def _cmd_renorm(args):
    degrees = []
    for pair_text in args.aj or []:
        parts = pair_text.split(":")
        if len(parts) != 2:
            raise ValueError(f"--aj {pair_text!r} is not of the form a:N")
        a_text, n_text = parts
        try:  # a as --a reads it, N an integer
            a = Fraction(a_text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"--aj {pair_text!r}: a {a_text!r} is not a rational") from None
        try:
            n = int(n_text)
        except ValueError:
            raise ValueError(f"--aj {pair_text!r}: N {n_text!r} is not an integer") from None
        degrees.append((a, n))
    ops = []
    if args.lorentz:
        ops.append(lorentz_casimir_setup(args.dim, args.signature)[0])
    t_op = homogeneity_operator(args.dim, degrees)
    if t_op is not None:
        ops.append(t_op)
    ws = _residues(args, len(ops), f"need {len(ops)} residues "
                   "(Casimir first when --lorentz, then the degree product)")
    rec = _record(args, ops, ws)
    try:
        v = renorm_map(rec, degrees, lorentz=args.lorentz, signature=args.signature)
    except CasimirHypothesisError as exc:
        return {"status": "no", "failures": list(exc.report.failures)}
    return {"status": "ok", "counterterm": delta_to_json(v)}


def _cmd_homog_unique(args):
    rep = homogeneous_extension_unique(args.dim, Fraction(args.a), args.degree)
    return {"status": "ok" if rep.unique else "no", "exists": rep.unique,
            "kernel_levels": list(rep.kernel_levels)}


def _cmd_chi(args):
    indices = tuple(int(t) for t in args.indices.split(",")) if args.indices else ()
    config = FeynmanConfig(args.dim, args.signature, args.m2)
    c = _parse_scalar_pair(args.c) if args.c else GaussianRational(0, -1)
    s_op = ConstCoeffOperator.monomial(config, indices)
    res = chi_projection(s_op, c, config)
    expl = chi_explicit(indices, args.dim, config.m2, args.signature)
    agree = res.chi.coeffs == expl.coeffs
    return {"status": "ok" if agree else "no",
            "chi": str(res.chi), "chi1": str(res.chi1),
            "chi_explicit": str(expl), "routes_agree": agree,
            "counterterm": delta_to_json(theta_counterterm(s_op, c, config)),
            "s": res.s}


def _cmd_chi_verify(args):
    m2_list = [Fraction(t) for t in args.m2.split(",")]
    rep = chi_crosscheck(args.k_max, args.dim, m2_list,
                         (args.signature,) if args.metric else None)
    return {"status": "ok" if rep.ok else "no",
            "metric": [_metric_text(s) for s in rep.signatures], "checked": rep.checked,
            "mismatches": [{"signature": list(m.signature), "m2": str(m.m2),
                            "indices": list(m.indices),
                            "projection": m.projection, "explicit": m.explicit}
                           for m in rep.mismatches]}


def _parse_index(text: str, n: int) -> tuple:
    """A multi-index argument: n non-negative integers separated by commas."""
    try:
        index = tuple(int(t) for t in text.split(",")) if text else ()
    except ValueError:
        index = None
    if index is None or len(index) != n or any(a < 0 for a in index):
        raise ValueError(f"--index {text!r} is not {n} non-negative integers")
    return index


def _int_option(name: str, text: str) -> int:
    """The integer value of option `name`; ValueError naming it otherwise."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not an integer") from None


def _cmd_degree(args):
    rule = args.rule
    if rule == "delta":
        [w] = _residues(args, 1, "exactly one --residue is required for rule 'delta'")
        b = degree_mod.deg_delta(w)
    else:
        if args.value is None:
            raise ValueError(f"--value is required for rule {rule!r}")
        d = degree_mod.DegreeBound(_int_option("--value", args.value),
                                   degree_mod.EXACT if args.exact else degree_mod.UPPER_BOUND)
        if rule == "derivative":
            b = degree_mod.bound_derivative(d, _parse_index(args.index, args.dim))
        elif rule == "monomial":
            b = degree_mod.bound_monomial(d, _parse_index(args.index, args.dim))
        elif rule == "vanishing":
            b = degree_mod.bound_vanishing_factor(d, args.k)
        elif rule == "tensor":
            if args.value2 is None:
                raise ValueError("--value2 is required for rule 'tensor'")
            d2 = degree_mod.DegreeBound(_int_option("--value2", args.value2),
                                        degree_mod.UPPER_BOUND)
            b = degree_mod.bound_tensor(d, d2)
        else:  # "operator"; argparse admits no other rule
            b = degree_mod.bound_operator(d, _single_op(args))
    value = "-inf" if b.value == degree_mod.NEG_INF else b.value
    return {"status": "ok", "value": value, "exactness": b.exactness}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _ArgumentParser:
    root = _ArgumentParser(prog="onshell",
                           description="exact on-shell extension engine")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("restrict", help="matrix of Q restricted to degree <= r")
    _add_common(p, degree=True, op=True, metric=True)
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("adjoint", help="matrix of the adjoint restriction")
    _add_common(p, degree=True, op=True, metric=True)
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("essord", help="essential order and normal form")
    _add_common(p, op=True, metric=True)
    p.set_defaults(func=_cmd_essord)

    p = sub.add_parser("minpoly", help="minimal polynomial of the restriction")
    _add_common(p, degree=True, op=True, metric=True)
    p.add_argument("--gram", action="store_true",
                   help="use B = (Q|_r)* (Q|_r) even when Q|_r is square")
    p.set_defaults(func=_cmd_minpoly)

    p = sub.add_parser("projpoly", help="projection polynomial p_r")
    _add_common(p, degree=True, op=True, metric=True)
    p.add_argument("--projector", action="store_true", help="also emit p_r(B)")
    p.set_defaults(func=_cmd_projpoly)

    p = sub.add_parser("kernel", help="kernel basis / range membership / pseudoinverse")
    _add_common(p, degree=True, op=True, metric=True, residue=True)
    p.add_argument("--pseudo", action="store_true",
                   help="pseudoinverse solve for the residue (normal restrictions)")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("extend-check", help="does an on-shell extension exist?")
    _add_common(p, degree=True, op=True, metric=True, residue=True)
    p.set_defaults(func=_cmd_extend_check)

    p = sub.add_parser("counterterm", help="projection counterterm(s)")
    _add_common(p, degree=True, op=True, metric=True, residue=True)
    p.set_defaults(func=_cmd_counterterm)

    p = sub.add_parser("order-raise", help="almost-homogeneous order raising")
    _add_common(p, degree=True, op=True, metric=True, residue=True)
    p.add_argument("--k", type=int, required=True, help="power with R^k u = 0 off the origin")
    p.set_defaults(func=_cmd_order_raise)

    p = sub.add_parser("casimir-check", help="Casimir hypotheses and correction")
    _add_common(p, degree=True, metric=True, residue=True)
    p.set_defaults(func=_cmd_casimir_check)

    p = sub.add_parser("renorm", help="composite renormalisation counterterm")
    _add_common(p, degree=True, metric=True, residue=True)
    p.add_argument("--aj", action="append", default=[],
                   help="homogeneity degree as a:N (repeatable)")
    p.add_argument("--lorentz", action="store_true", help="include the Casimir step")
    p.set_defaults(func=_cmd_renorm)

    p = sub.add_parser("homog-unique", help="unique homogeneous extension test")
    _add_common(p, degree=True)
    p.add_argument("--a", required=True, help="homogeneity degree (rational)")
    p.set_defaults(func=_cmd_homog_unique)

    p = sub.add_parser("chi", help="on-shell/off-shell map on a derivative monomial")
    _add_common(p, metric=True)
    p.add_argument("--m2", default="0", help="mass squared (rational)")
    p.add_argument("--indices", default="", help="Lorentz indices, e.g. 0,0")
    p.add_argument("--c", default=None, help="normalization Qv = c delta as re,im (default -i)")
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("chi-verify", help="cross-validate the two chi routes")
    _add_common(p, metric=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--m2", default="0", help="comma-separated mass-squared list")
    p.set_defaults(func=_cmd_chi_verify)

    p = sub.add_parser("degree", help="degree-of-divergence bookkeeping")
    _add_common(p, op=True, metric=True, residue=True)
    p.add_argument("--rule", required=True,
                   choices=["delta", "derivative", "monomial", "vanishing", "tensor", "operator"])
    p.add_argument("--value", default=None, help="input degree value")
    p.add_argument("--value2", default=None, help="second degree (tensor rule)")
    p.add_argument("--exact", action="store_true", help="input degree is exact")
    p.add_argument("--index", default="", help="multi-index, e.g. 2,0")
    p.add_argument("--k", type=int, default=0, help="vanishing order")
    p.set_defaults(func=_cmd_degree)

    return root


@functools.cache
def _parser() -> _ArgumentParser:
    """build_parser(), once per process: parsing leaves the parser as it was,
    and the 'append' actions copy their default list before adding to it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.dim < 1:
            raise ValueError("dimension must be >= 1")
        # the metric convention is resolved once, before the subcommand runs,
        # and recorded in every output of a subcommand that takes one
        if hasattr(args, "metric"):
            args.signature = _parse_metric(args.metric, args.dim)
        payload = {"command": args.command, **args.func(args)}
        if hasattr(args, "metric"):
            payload.setdefault("metric", _metric_text(args.signature))
    except (OperatorSyntaxError, ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"onshell: error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        # an exact self-check failed: the engine, not the input, is at fault
        print(f"onshell: contract violated: {' '.join(str(exc).split())}", file=sys.stderr)
        return 3
    try:
        _emit(payload, args.as_text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`): what is left of the output
        # goes to devnull, so the flush at exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return _status_exit(payload)


if __name__ == "__main__":
    sys.exit(main())
