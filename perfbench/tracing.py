"""Layer tracing from outside the engine.

`Tracer.install` replaces the public entry points of each `onshell` layer
with wrappers, everywhere callers look them up: in every loaded `onshell`
module that bound the function by name (so `onshell.extension.restrict`
and `onshell.cli.range_membership` are wrapped too) and on the classes for
methods such as `RestrictionMatrix.matmul` and `OperatorExpr.apply_delta`.
`uninstall` puts the originals back.  Nothing in `src/` is edited.

A tracer works in one of two modes, each used in its own process:

* ``time``: every wrapped call records a span [name, start, end, parent,
  query] in memory.  A span's self time is its duration minus its child
  spans.  `spectral.minimal_polynomial` is opaque: calls inside it record
  nothing, so the Krylov eliminations count as minimal-polynomial time.
* ``count``: no clock.  Wrapped calls are counted, returned values are
  inspected (Gram shape and blocks, minimal-polynomial degree, bit lengths)
  and every `GaussianRational` arithmetic call is counted.  Keeping this
  apart keeps millions of scalar counts out of the span times.

An exception is charged to the innermost layer it passes through.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, class or None, attribute, metric group); the group's prefix is the layer
ENTRY_POINTS = (
    ("spectral", None, "restrict", "spectral.restrict"),
    ("spectral", None, "adjoint_restriction", "spectral.restrict"),
    ("spectral", "RestrictionMatrix", "matmul", "spectral.gram"),
    ("spectral", "RestrictionMatrix", "gram_adjoint", "spectral.gram"),
    ("spectral", "RestrictionMatrix", "is_normal", "spectral.gram"),
    ("spectral", None, "minimal_polynomial", "spectral.minpoly"),
    ("spectral", None, "range_membership", "spectral.elim"),
    ("spectral", None, "kernel_basis", "spectral.elim"),
    ("spectral", None, "_rref", "spectral.elim"),
    ("spectral", None, "_matrix_poly_apply", "spectral.apply"),
    ("spectral", "RestrictionMatrix", "matvec", "spectral.apply"),
    ("spectral", None, "projection_polynomial", "spectral.project"),
    ("spectral", None, "projection_polynomial_of_gram", "spectral.project"),
    ("spectral", None, "projector_onto_kernel", "spectral.project"),
    ("spectral", None, "pseudoinverse_correction", "spectral.project"),
    ("opalg", "OperatorExpr", "apply_delta", "opalg.apply_delta"),
    ("opalg", "OperatorExpr", "apply_poly", "opalg.apply_poly"),
    ("opalg", "OperatorExpr", "__matmul__", "opalg.compose"),
    ("opalg", "OperatorExpr", "__pow__", "opalg.compose"),
    ("opalg", None, "commutator", "opalg.compose"),
    ("opalg", "OperatorExpr", "__add__", "opalg.algebra"),
    ("opalg", "OperatorExpr", "__sub__", "opalg.algebra"),
    ("opalg", "OperatorExpr", "scale", "opalg.algebra"),
    ("opalg", "OperatorExpr", "conj", "opalg.algebra"),
    ("opalg", "OperatorExpr", "transpose", "opalg.algebra"),
    ("opalg", "OperatorExpr", "normal_form", "opalg.algebra"),
    ("opalg", "OperatorExpr", "essential_order", "opalg.algebra"),
    ("opalg", None, "operator_equal", "opalg.algebra"),
    ("opalg", None, "euler", "opalg.algebra"),
    ("opalg", None, "dalembert", "opalg.algebra"),
    ("opalg", None, "casimir", "opalg.algebra"),
    ("opalg", None, "lorentz_generator", "opalg.algebra"),
    ("opalg", None, "reflection", "opalg.algebra"),
    ("opalg", None, "parity", "opalg.algebra"),
    ("opalg", None, "squared_interval", "opalg.algebra"),
    ("deltaspace", None, "smap", "deltaspace.maps"),
    ("deltaspace", None, "tmap", "deltaspace.maps"),
    ("deltaspace", None, "inner", "deltaspace.maps"),
    ("deltaspace", None, "pair", "deltaspace.maps"),
    ("extension", None, "existence_check", "extension.solve"),
    ("extension", None, "onshell_correction", "extension.solve"),
    ("extension", None, "apply_counterterm", "extension.solve"),
    ("extension", None, "order_raising_correction", "extension.solve"),
    ("extension", None, "multi_commuting_correction", "extension.solve"),
    ("extension", None, "verify_casimir_hypotheses", "extension.solve"),
    ("extension", None, "casimir_correction", "extension.solve"),
    ("extension", None, "renorm_map", "extension.solve"),
    ("chi", None, "chi_projection", "chi.projection"),
    ("chi", None, "chi_explicit", "chi.explicit"),
    ("chi", None, "harmonic_components", "chi.harmonic"),
    ("cli", None, "main", "cli.main"),
)
OPAQUE = {"spectral.minimal_polynomial"}
SCALAR_METHODS = ("__add__", "__sub__", "__rsub__", "__mul__", "__neg__", "__truediv__",
                  "__rtruediv__", "__pow__", "inverse", "conj", "norm2")
LAYERS = ("spectral", "opalg", "deltaspace", "extension", "chi", "cli", "scalar")


def _onshell_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "onshell" or k.startswith("onshell."))]


def _bits(obj, depth=0) -> int:
    """Largest numerator or denominator bit length inside an engine value."""
    re = getattr(obj, "re", None)
    if re is not None and hasattr(re, "denominator"):
        im = obj.im
        return max(re.numerator.bit_length(), re.denominator.bit_length(),
                   im.numerator.bit_length(), im.denominator.bit_length())
    if depth > 4:
        return 0
    for attr in ("entries", "coeffs", "residues", "chi", "preimage", "witness", "certificate"):
        inner = getattr(obj, attr, None)
        if inner is not None and not callable(inner):
            return _bits(inner, depth + 1)
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (tuple, list)):
        return 0
    return max((_bits(x, depth + 1) for x in obj), default=0)


def _blocks(entries) -> int:
    """Connected parts of the nonzero pattern of a square matrix."""
    d = len(entries)
    parent = list(range(d))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            if j != i and not x.is_zero():
                parent[find(i)] = find(j)
    return len({find(i) for i in range(d)})


class Tracer:
    def __init__(self, mode: str):
        if mode not in ("time", "count"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.query = -1
        self.spans = []          # [name, start, end, parent index, query]
        self.group = {"bench.query": "bench.query"}
        self._stack = []         # open span indices; None marks an opaque span
        self._undo = []
        self._raised = []        # exceptions already charged to a layer
        self.errors = Counter()
        self.calls = Counter()
        self.scalar_ops = 0
        self.max_bits = 0
        self.out_bytes = 0
        self.minpoly_degree_max = 0
        self.gram = []           # (dim, nonzeros, blocks) per square matrix product
        self.chi_keys = set()

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        modules = _onshell_modules()
        for mod_name, cls_name, attr, group in ENTRY_POINTS:
            mod = sys.modules.get(f"onshell.{mod_name}")
            if mod is None:
                continue
            name = f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}"
            self.group[name] = group
            owner = getattr(mod, cls_name) if cls_name else None
            orig = getattr(owner or mod, attr)
            wrapper = self._wrap(name, orig)
            for target in [owner] if owner else modules:
                for key, val in list(vars(target).items()):
                    if val is orig:
                        self._undo.append((target, key, orig))
                        setattr(target, key, wrapper)
        if self.mode == "count":
            cls = sys.modules["onshell.scalar"].GaussianRational
            for attr in SCALAR_METHODS:
                orig = vars(cls)[attr]
                wrapper = self._count_scalar(orig)
                for key, val in list(vars(cls).items()):
                    if val is orig:
                        self._undo.append((cls, key, orig))
                        setattr(cls, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def _charge(self, layer: str, exc: BaseException) -> None:
        if not any(exc is seen for seen in self._raised):
            self._raised.append(exc)
            self.errors[layer] += 1

    def _wrap(self, name, fn):
        layer = name.split(".")[0]
        opaque = name in OPAQUE
        stack = self._stack
        if self.mode == "time":
            spans, clock = self.spans, time.perf_counter

            def timed(*args, **kwargs):
                if stack and stack[-1] is None:
                    return fn(*args, **kwargs)
                rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.query]
                stack.append(None if opaque else len(spans))
                spans.append(rec)
                try:
                    return fn(*args, **kwargs)
                except BaseException as exc:
                    self._charge(layer, exc)
                    raise
                finally:
                    rec[2] = clock()
                    stack.pop()
            return timed

        def counted(*args, **kwargs):
            if stack and stack[-1] is None:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            out_pos = sys.stdout.tell() if name == "cli.main" else 0
            stack.append(None if opaque else 0)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._charge(layer, exc)
                raise
            finally:
                stack.pop()
            self._inspect(name, args, out, out_pos)
            return out
        return counted

    def _count_scalar(self, fn):
        def counted(*args, **kwargs):
            self.scalar_ops += 1
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._charge("scalar", exc)
                raise
        return counted

    def _inspect(self, name, args, out, out_pos) -> None:
        self.max_bits = max(self.max_bits, _bits(out))
        if name == "spectral.RestrictionMatrix.matmul" and out.is_square():
            nnz = sum(not x.is_zero() for row in out.entries for x in row)
            self.gram.append((out.nrows, nnz, _blocks(out.entries)))
        elif name == "spectral.minimal_polynomial":
            self.minpoly_degree_max = max(self.minpoly_degree_max, out.degree())
        elif name == "chi.chi_projection":
            s_op = args[0]
            self.chi_keys.add((s_op.config, frozenset(s_op.coeffs)))
        elif name == "cli.main":
            self.out_bytes += sys.stdout.tell() - out_pos

    # -- running a query ---------------------------------------------------

    def run_query(self, index: int, call):
        """call() as one query; in time mode it is the root span bench.query."""
        self.query = index
        if self.mode == "count":
            return call()
        rec = ["bench.query", time.perf_counter(), 0.0, -1, index]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return call()
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- results -----------------------------------------------------------

    def _calls(self, group: str) -> int:
        return sum(c for name, c in self.calls.items() if self.group[name] == group)

    def metrics(self, solve_s: float) -> dict:
        errors = {f"{layer}.errors": self.errors[layer] for layer in LAYERS}
        if self.mode == "count":
            dims = sum(d * d for d, _, _ in self.gram)
            chi_calls = self._calls("chi.projection")
            return {
                "spectral.restrict_calls": self._calls("spectral.restrict"),
                "spectral.minpoly_calls": self._calls("spectral.minpoly"),
                "spectral.minpoly_degree_max": self.minpoly_degree_max,
                "spectral.gram_dim_max": max((d for d, _, _ in self.gram), default=0),
                "spectral.gram_nnz_frac": sum(z for _, z, _ in self.gram) / dims if dims else 0.0,
                "spectral.gram_blocks": (sum(b for _, _, b in self.gram) / len(self.gram)
                                         if self.gram else 0.0),
                "opalg.apply_delta_calls": self._calls("opalg.apply_delta"),
                "extension.calls": sum(c for name, c in self.calls.items()
                                       if name.startswith("extension.")),
                "chi.distinct_ratio": len(self.chi_keys) / chi_calls if chi_calls else 0.0,
                "cli.out_bytes": self.out_bytes,
                "scalar.ops": self.scalar_ops,
                "scalar.max_bits": self.max_bits,
                **errors,
            }
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        by_group, by_layer = defaultdict(float), defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            group = self.group[name]
            by_group[group] += t
            by_layer[group.split(".")[0]] += t
        out = {f"{group}_s": by_group[group] for group in (
            "spectral.restrict", "spectral.gram", "spectral.minpoly", "spectral.elim",
            "spectral.apply", "opalg.apply_delta", "opalg.apply_poly", "opalg.compose",
            "deltaspace.maps", "chi.harmonic", "chi.projection", "chi.explicit")}
        for layer in ("spectral", "opalg", "extension", "chi", "cli", "bench"):
            out[f"{layer}.self_s"] = by_layer[layer]
        out["trace.solve_s"] = solve_s
        # the share of the queries' time spent inside the traced layers
        out["trace.coverage"] = (sum(by_layer.values()) - by_layer["bench"]) / solve_s
        out.update(errors)
        return out

    def write_spans(self, path) -> None:
        import json
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "query"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
