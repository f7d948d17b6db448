import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from onshell.scalar import GaussianRational, I, ONE, ZERO, _ratio
from onshell.chi import ChiResult, ConstCoeffOperator, FeynmanConfig, theta_counterterm
from onshell.deltaspace import DeltaVector, Polynomial
from onshell.opalg import (
    InvalidSignature,
    OperatorExpr,
    OperatorTooLarge,
    casimir,
    dalembert,
    euler,
    lorentz_generator,
    operator_equal,
    parity,
    reflection,
)
from onshell.cli import (
    JSON_SCHEMA,
    OperatorSyntaxError,
    delta_from_json,
    delta_to_json,
    main,
    operator_to_text,
    parse_operator,
    scalar_from_json,
    scalar_to_json,
)
from onshell.spectral import restrict

from conftest import random_poly_coeff_operator

RESIDUE_SHAPE = ('--residue is not a delta vector {"terms": [{"alpha": [i, ...], '
                 '"coeff": {"re": "p/q", "im": "p/q"}}, ...]}')

# the subcommands of `onshell`, in the order `cli.build_parser` adds them
SUBCOMMANDS = (
    "restrict", "adjoint", "essord", "minpoly", "projpoly", "kernel",
    "extend-check", "counterterm", "order-raise", "casimir-check", "renorm",
    "homog-unique", "chi", "chi-verify", "degree",
)

# Every library operation but those of API_ONLY is reachable from exactly
# one subcommand.
OPERATION_TO_SUBCOMMAND = {
    # opalg
    "constructors": "restrict",
    "apply_delta": "order-raise",
    "normal_form": "essord",
    "essential_order": "essord",
    "transpose": "adjoint",
    "apply_poly": "adjoint",
    "operator_equal": "casimir-check",
    "commutator": "casimir-check",
    # spectral
    "restrict": "restrict",
    "adjoint_restriction": "adjoint",
    "minimal_polynomial": "minpoly",
    "projection_polynomial": "projpoly",
    "projector_onto_kernel": "projpoly",
    "kernel_basis": "kernel",
    "range_membership": "kernel",
    "pseudoinverse_correction": "kernel",
    # extension
    "existence_check": "extend-check",
    "onshell_correction": "counterterm",
    "apply_counterterm": "counterterm",
    "multi_commuting_correction": "counterterm",
    "linearity_precondition": "counterterm",
    "order_raising_correction": "order-raise",
    "casimir_correction": "renorm",
    "verify_casimir_hypotheses": "casimir-check",
    "renorm_map": "renorm",
    "homogeneous_extension_unique": "homog-unique",
    # chi
    "theta_counterterm": "chi",
    "chi_projection": "chi",
    "chi_explicit": "chi",
    "chi_crosscheck": "chi-verify",
    # degree
    "deg_delta": "degree",
    "bound_derivative": "degree",
    "bound_monomial": "degree",
    "bound_vanishing_factor": "degree",
    "bound_tensor": "degree",
    "bound_operator": "degree",
}

# Library operations no subcommand calls: the paper's pair contractions and
# alpha coefficients, kept as API; `chi_explicit` reads its contractions
# through `chi._interval_delta` and its alphas from `chi._alpha`.
API_ONLY = ("lambda_contraction", "alpha_coefficient")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_euler_expression(self):
        got = parse_operator("x1*d1 + x2*d2 + 3/2", 2)
        assert operator_equal(got, euler(2, Fraction(-3, 2)))

    def test_wave_expression(self):
        got = parse_operator("d1^2 - d2^2 + 1", 2)
        assert operator_equal(got, dalembert(2, 1, (1, -1)))

    def test_invalid_signature_refused_even_when_unused(self):
        with pytest.raises(InvalidSignature):
            parse_operator("x1", 2, (5, 5))

    def test_juxtaposition_rejected(self):
        with pytest.raises(OperatorSyntaxError):
            parse_operator("x1 d1", 2)

    def test_error_spans(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("x1*d9", 2)
        assert exc.value.start == 3 and exc.value.end == 5

    def test_deep_nesting_is_a_syntax_error(self):
        text = "(" * 3000 + "x1" + ")" * 3000
        with pytest.raises(OperatorSyntaxError, match="nested too deeply") as exc:
            parse_operator(text, 1)
        assert 0 <= exc.value.start < exc.value.end <= len(text)

    def test_huge_power_is_a_syntax_error(self, monkeypatch):
        powers = []
        original = OperatorExpr.__pow__
        monkeypatch.setattr(OperatorExpr, "__pow__",
                            lambda op, k: powers.append(k) or original(op, k))
        text = "d1 + x1^99999999"
        with pytest.raises(OperatorSyntaxError, match="exceeds the maximum 64") as exc:
            parse_operator(text, 1)
        assert (exc.value.start, exc.value.end) == (8, 16)
        assert text[exc.value.start:exc.value.end] == "99999999"
        assert powers == []
        with pytest.raises(OperatorSyntaxError, match="exceeds the maximum") as exc:
            parse_operator("x1^65", 1)
        assert (exc.value.start, exc.value.end) == (3, 5)
        got = parse_operator("x1^64", 1)
        assert powers == [64]
        assert operator_equal(got, OperatorExpr.multiplication(Polynomial.monomial(1, (64,))))

    def test_oversized_operator_is_a_syntax_error(self):
        # the j-th power of x1+...+x4 has C(j+3, 3) terms, 47,905 for j = 64;
        # the power stops at the first step above the budget, j = 28 (4495)
        text = "(x1+x2+x3+x4)^64"
        with pytest.raises(OperatorSyntaxError, match="operator size 4495 exceeds the maximum 4096") as exc:
            parse_operator(text, 4)
        assert text[exc.value.start:exc.value.end] == "64"
        # a product is checked after each '*': the first one here has
        # 64 * 64 = 4096 terms, exactly the budget, the second 8192
        assert parse_operator("(x1+1)^63*(x2+1)^63", 2).size() == 4096
        text = "(x1+1)^63*(x2+1)^63*(x3+1)"
        with pytest.raises(OperatorSyntaxError, match="operator size 8192 exceeds") as exc:
            parse_operator(text, 3)
        assert (exc.value.start, exc.value.end) == (19, 20)
        assert text[exc.value.start:exc.value.end] == "*"
        # the largest operators in use stay far below the budget
        assert parse_operator("casimir^2", 4).size() == 247
        assert parse_operator("euler(-3)^6", 4).size() == 210
        assert parse_operator("box(1)^3", 4).size() == 35

    def test_builtins(self):
        assert operator_equal(parse_operator("euler(-2)", 3), euler(3, Fraction(-2)))
        assert operator_equal(parse_operator("box(1/2)", 2, (1, -1)),
                              dalembert(2, Fraction(1, 2), (1, -1)))
        assert operator_equal(parse_operator("casimir", 2, (1, -1)), casimir(2, (1, -1)))
        assert operator_equal(parse_operator("L(0,1)", 2, (1, -1)),
                              lorentz_generator(2, 0, 1, (1, -1)))
        assert operator_equal(parse_operator("parity", 2), parity(2))
        assert operator_equal(parse_operator("reflect([[0,1],[1,0]])", 2),
                              reflection([[0, 1], [1, 0]]))

    def test_imaginary_unit_and_powers(self):
        got = parse_operator("i*d1^2", 1)
        assert operator_equal(got, OperatorExpr.derivative(1, (2,)).scale(I))
        with pytest.raises(OperatorSyntaxError):
            parse_operator("d1^(1)", 1)
        with pytest.raises(OperatorSyntaxError):
            parse_operator("d1^1/2", 1)

    def test_unknown_identifier(self):
        with pytest.raises(OperatorSyntaxError):
            parse_operator("foo(2)", 1)

    def test_leading_minus(self):
        got = parse_operator("-x1*d1", 1)
        assert operator_equal(got, -(OperatorExpr.multiplication(
            Polynomial.coordinate(1, 0)) @ OperatorExpr.derivative(1, (1,))))


class TestPrinterRoundTrip:
    def test_round_trip_corpus(self):
        rng = random.Random(42)
        for trial in range(100):
            n = rng.choice([1, 2, 3])
            q = random_poly_coeff_operator(rng, n, allow_pullback=(trial % 3 == 0))
            if rng.random() < 0.2:
                q = q.scale(I) + OperatorExpr.from_scalar(n, GaussianRational(1, -1))
            text = operator_to_text(q)
            reparsed = parse_operator(text, n)
            assert operator_equal(reparsed, q), text
            assert operator_to_text(reparsed) == text

    def test_zero(self):
        assert operator_to_text(OperatorExpr.zero(2)) == "0"
        assert parse_operator("0", 2).is_zero()

    def test_str_is_the_expression_language(self):
        # polynomial and complex coefficients, parity and a non-diagonal
        # reflect: the operator's own str reads back as the same operator
        rng = random.Random(7)
        shear = reflection(((1, Fraction(1, 2)), (0, -1)))
        for trial in range(60):
            n = rng.choice([1, 2, 3]) if trial % 4 else 2
            q = random_poly_coeff_operator(rng, n, allow_pullback=True)
            if trial % 3 == 0:
                q = q.scale(I) + OperatorExpr.from_scalar(n, GaussianRational(Fraction(-2, 3), 1))
            if trial % 5 == 0:
                q = q @ parity(n)
            if trial % 4 == 0:
                q = q + q @ shear
            assert parse_operator(str(q), n) == q, str(q)
            assert operator_to_text(q) == str(q)


class TestCoverageTable:
    OPERATIONS = [
        # opalg
        "normal_form", "transpose", "essential_order", "apply_delta", "apply_poly",
        "operator_equal", "commutator", "constructors",
        # spectral
        "restrict", "adjoint_restriction", "minimal_polynomial",
        "projection_polynomial", "kernel_basis", "range_membership",
        "projector_onto_kernel", "pseudoinverse_correction",
        # extension
        "existence_check", "onshell_correction", "apply_counterterm",
        "order_raising_correction", "multi_commuting_correction",
        "casimir_correction", "verify_casimir_hypotheses", "renorm_map",
        "homogeneous_extension_unique", "linearity_precondition",
        # chi
        "theta_counterterm", "chi_projection", "lambda_contraction",
        "alpha_coefficient", "chi_explicit", "chi_crosscheck",
        # degree
        "deg_delta", "bound_derivative", "bound_monomial",
        "bound_vanishing_factor", "bound_tensor", "bound_operator",
    ]

    def test_every_operation_has_exactly_one_subcommand(self):
        assert sorted([*OPERATION_TO_SUBCOMMAND, *API_ONLY]) == sorted(self.OPERATIONS)
        assert set(OPERATION_TO_SUBCOMMAND.values()) <= set(SUBCOMMANDS)

    def test_every_subcommand_reaches_an_operation(self):
        assert set(OPERATION_TO_SUBCOMMAND.values()) == set(SUBCOMMANDS)

    def test_subcommands_are_the_parser_choices(self):
        import onshell.cli as cli
        sub, = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        assert tuple(sub.choices) == SUBCOMMANDS

    # arguments of the mapped subcommand that reach the operation
    SPIED = {
        "casimir_correction": (
            "--dim", "2", "--metric", "+-", "--degree", "1", "--lorentz", "--aj", "-3:1",
            "--residue", '{"alpha":[0,1],"coeff":{"re":"4","im":"0"}}',
            "--residue", '{"alpha":[1,0],"coeff":{"re":"1","im":"0"}}'),
        "verify_casimir_hypotheses": ("--dim", "2", "--metric", "+-", "--degree", "1"),
        "projection_polynomial": ("--dim", "1", "--op", "euler(-2)", "--degree", "1"),
        "projector_onto_kernel": ("--dim", "1", "--op", "euler(-2)", "--degree", "1",
                                  "--projector"),
        "theta_counterterm": ("--dim", "2", "--indices", "0,1"),
        "chi_projection": ("--dim", "2", "--indices", "0,1"),
        "chi_explicit": ("--dim", "2", "--indices", "0,1"),
        "chi_crosscheck": ("--dim", "2", "--k-max", "2"),
    }

    @staticmethod
    def _spy(monkeypatch, name):
        """The calls of operation name, through every module that holds it."""
        import onshell.chi as chi
        import onshell.cli as cli
        import onshell.extension as extension
        import onshell.spectral as spectral

        calls = []
        for module in (cli, extension, spectral, chi):
            if hasattr(module, name):
                original = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, _f=original, **kwargs:
                                    calls.append(args) or _f(*args, **kwargs))
        return calls

    def test_the_mapped_subcommand_calls_the_operation(self, capsys, monkeypatch):
        for name, argv in self.SPIED.items():
            calls = self._spy(monkeypatch, name)
            code, _ = run_cli(capsys, OPERATION_TO_SUBCOMMAND[name], *argv)
            assert code == 0 and calls, name

    def test_api_only_operations_are_reached_by_no_subcommand(self, capsys, monkeypatch):
        import onshell.chi as chi

        # cold tables, so that a call made on a table miss would show
        chi._explicit_chi.cache_clear()
        chi._alpha.cache_clear()
        calls = [self._spy(monkeypatch, name) for name in API_ONLY]
        for argv in (("chi", "--dim", "4", "--m2", "3/2", "--indices", "0,1,1,2"),
                     ("chi-verify", "--dim", "2", "--k-max", "4", "--m2", "0,1")):
            assert run_cli(capsys, *argv)[0] == 0
        assert calls == [[], []]


class TestJsonEncoding:
    def test_delta_round_trip(self):
        v = DeltaVector(2, {(0, 0): GaussianRational(Fraction(1, 2), Fraction(-3)),
                            (2, 1): I})
        assert delta_from_json(delta_to_json(v), 2) == v

    def test_single_term_form(self):
        v = delta_from_json({"alpha": [0], "coeff": {"re": "1", "im": "0"}}, 1)
        assert v == DeltaVector.basis(1, (0,))

    def test_terms_sorted_graded_lex(self):
        v = DeltaVector(2, {(0, 1): ONE, (2, 0): ONE, (0, 0): ONE})
        alphas = [t["alpha"] for t in delta_to_json(v)["terms"]]
        assert alphas == [[0, 0], [0, 1], [2, 0]]


# Coefficient parts at the edges of the plain [-]digits[/digits] form: each
# must be read exactly as Fraction reads it, or refused with its error.
CODEC_EDGE_CASES = ("-0", "007", "3/6", "1/0", "+3", " 3", "1_0", "1.5", "1e3", "\u0663",
                    "\u00b2", "-", "/", "3/", "3/-4", "-5/0", "", "--3", "1/2/3", "-12/18", "0/7")


def _outcome(thunk):
    try:
        return "value", thunk()
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _fraction_ratio(text: str) -> tuple:
    f = Fraction(text)
    return f.numerator, f.denominator


def _fraction_str(z: GaussianRational) -> str:
    """GaussianRational text written through two `Fraction`s: the oracle
    for `str`, which writes it from the triple with `scalar._text`."""
    re, im = z.re, z.im
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i" if im != 1 else "i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    ipart = "i" if mag == 1 else f"{mag}*i"
    return f"({re} {sign} {ipart})"


class TestCoefficientCodec:
    """`scalar_from_json`, `scalar._ratio`, `scalar_to_json` and `str`
    against the Fraction route."""

    @staticmethod
    def _check_decode(re, im):
        assert _outcome(lambda: _ratio(re)) == _outcome(lambda: _fraction_ratio(re))
        assert _outcome(lambda: _ratio(im)) == _outcome(lambda: _fraction_ratio(im))
        assert (_outcome(lambda: scalar_from_json(re))
                == _outcome(lambda: GaussianRational(Fraction(re))))
        assert (_outcome(lambda: scalar_from_json({"re": re, "im": im}))
                == _outcome(lambda: GaussianRational(Fraction(re), Fraction(im))))

    @pytest.mark.parametrize("text", CODEC_EDGE_CASES)
    def test_edge_cases_decode_as_fraction_does(self, text):
        self._check_decode(text, text)
        self._check_decode(text, "2/3")
        self._check_decode("-4/6", text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789-/+_. e\u0663\u00b2", max_size=8),
           st.text(alphabet="0123456789-/", max_size=6))
    def test_decode_as_fraction_does(self, re, im):
        self._check_decode(re, im)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(), st.integers(min_value=0), st.integers(), st.integers(min_value=0))
    def test_plain_rationals_decode_exactly(self, a, p, b, q):
        self._check_decode(f"{a}/{p}", f"{b}/{q}")
        self._check_decode(str(a), str(b))

    def test_encode_as_fraction_writes(self):
        rng = random.Random(19)
        values = [ZERO, ONE, -ONE, I, -I, ONE + I, ONE - I, GaussianRational(Fraction(1, 2), -1),
                  GaussianRational(Fraction(-1, 6), Fraction(5, 6)),
                  GaussianRational(Fraction(3, 4), Fraction(-1, 4)),
                  GaussianRational(Fraction(-7, 3), Fraction(0)),
                  GaussianRational(Fraction(0), Fraction(-2, 9))]
        for _ in range(500):
            d = rng.choice((1, 2, 6, 12, 35, 10 ** 12))
            values.append(GaussianRational(Fraction(rng.randint(-99, 99), d),
                                           Fraction(rng.randint(-99, 99), rng.choice((1, d)))))
        for c in values:
            assert scalar_to_json(c) == {"re": str(c.re), "im": str(c.im)}
            assert str(c) == _fraction_str(c)


class TestCommands:
    def test_homog_unique_no(self, capsys):
        code, out = run_cli(capsys, "homog-unique", "--dim", "4", "--a", "-6",
                            "--degree", "2")
        payload = json.loads(out)
        assert code == 2
        assert payload["exists"] is False and payload["kernel_levels"] == [2]

    def test_homog_unique_yes(self, capsys):
        code, out = run_cli(capsys, "homog-unique", "--dim", "4", "--a", "-3",
                            "--degree", "4")
        assert code == 0 and json.loads(out)["exists"] is True

    def test_extend_check_no_with_witness(self, capsys):
        code, out = run_cli(capsys, "extend-check", "--dim", "1",
                            "--op", "x1*d1 + 1", "--degree", "0",
                            "--residue", '{"alpha":[0],"coeff":{"re":"1","im":"0"}}')
        payload = json.loads(out)
        assert code == 2
        assert payload["exists"] is False
        assert payload["certificate"]["terms"][0]["alpha"] == [0]

    def test_chi_known_second_derivative_value(self, capsys):
        code, out = run_cli(capsys, "chi", "--dim", "4", "--metric", "+---",
                            "--m2", "0", "--indices", "0,0")
        payload = json.loads(out)
        assert code == 0
        assert payload["routes_agree"] is True
        # chi(d0^2) = d0^2 - box/4 expanded over the metric
        assert payload["chi"] == "(1/4)*d3^2 + (1/4)*d2^2 + (1/4)*d1^2 + (3/4)*d0^2"

    def test_deterministic_output(self, capsys):
        args = ("restrict", "--dim", "2", "--op", "euler(-2)", "--degree", "2")
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_usage_error_exit_code(self, capsys):
        assert main(["restrict", "--dim", "1", "--degree", "0"]) == 1  # no --op
        capsys.readouterr()

    def test_syntax_error_exit_code(self, capsys):
        code = main(["restrict", "--dim", "2", "--op", "x1 d1", "--degree", "1"])
        assert code == 1
        capsys.readouterr()

    def test_division_by_zero_exit_code(self, capsys):
        code = main(["projpoly", "--dim", "2", "--degree", "2", "--op", "box(1/0)"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onshell: error: ")

    def test_projpoly_projector_one_minimal_polynomial(self, capsys, monkeypatch):
        import onshell.spectral as spectral
        calls = []
        original = spectral.minimal_polynomial
        monkeypatch.setattr(spectral, "minimal_polynomial",
                            lambda m: calls.append(m.nrows) or original(m))
        code, out = run_cli(capsys, "projpoly", "--dim", "2", "--degree", "2",
                            "--op", "box(1)", "--projector")
        assert code == 0 and "projector" in json.loads(out)
        assert calls == [6]

    def test_deep_nesting_exit_code(self, capsys):
        code = main(["restrict", "--dim", "1", "--degree", "0",
                     "--op", "(" * 3000 + "x1" + ")" * 3000])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onshell: error: at ")
        assert "nested too deeply" in captured.err

    def test_huge_power_exit_code(self, capsys):
        code = main(["restrict", "--dim", "1", "--degree", "0", "--op", "x1^99999999"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "onshell: error: at 3-11: exponent 99999999 exceeds the maximum 64\n"

    def test_oversized_operator_exit_code(self, capsys):
        code = main(["restrict", "--dim", "3", "--degree", "0",
                     "--op", "(x1+1)^63*(x2+1)^63*(x3+1)"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("onshell: error: at 19-20: "
                                "operator size 8192 exceeds the maximum 4096\n")

    def test_pseudo_residue_above_codomain_order_exit_code(self, capsys):
        residue = ('{"terms":[{"alpha":[0],"coeff":{"re":"2","im":"0"}},'
                   '{"alpha":[3],"coeff":{"re":"5","im":"0"}}]}')
        argv = ["kernel", "--dim", "1", "--degree", "0", "--op", "euler(-2)", "--residue", residue]
        for extra in ([], ["--pseudo"]):
            code = main(argv + extra)
            assert code == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "onshell: error: target degree exceeds the codomain order\n"

    def test_zero_dimension_exit_code(self, capsys):
        code = main(["chi", "--dim", "0", "--metric", ""])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "onshell: error: dimension must be >= 1\n"

    def test_stdin_residue(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO('{"alpha":[0],"coeff":{"re":"2","im":"0"}}'))
        code, out = run_cli(capsys, "extend-check", "--dim", "1",
                            "--op", "euler(-1/2)", "--degree", "0", "--residue", "-")
        assert code == 0 and json.loads(out)["exists"] is True

    def test_casimir_check_with_correction(self, capsys):
        # consistent residues: u' = onshell - 2 delta^(0,1), so the Casimir
        # residue is 4 delta^(0,1) and the boost residue 2 delta^(1,0)
        code, out = run_cli(capsys, "casimir-check", "--dim", "2", "--metric", "+-",
                            "--degree", "1",
                            "--residue", '{"alpha":[0,1],"coeff":{"re":"4","im":"0"}}',
                            "--residue",
                            '{"alpha":[1,0],"coeff":{"re":"2","im":"0"}}')
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "ok"
        assert "counterterm" in payload
        assert all(entry["residue"]["terms"] == []
                   for entry in payload["corrected_residues"])

    def test_casimir_check_checks_the_hypotheses_once(self, capsys, monkeypatch):
        # the handler and `casimir_correction` each ask for the report at the
        # residues' level 1; it is made once and the second ask reads it kept
        import onshell.extension as extension
        original = extension._casimir_report
        original.cache_clear()
        levels = []
        monkeypatch.setattr(extension, "_casimir_report",
                            lambda *args: levels.append(args[2]) or original(*args))
        code, _ = run_cli(capsys, "casimir-check", "--dim", "2", "--metric", "+-",
                          "--degree", "1",
                          "--residue", '{"alpha":[0,1],"coeff":{"re":"4","im":"0"}}',
                          "--residue", '{"alpha":[1,0],"coeff":{"re":"2","im":"0"}}')
        info = original.cache_info()
        assert code == 0 and levels == [1, 1] and (info.misses, info.hits) == (1, 1)

    def test_adjoint_matches_the_gram_adjoint(self, capsys):
        text = "x1*d2 + i*x2^2*d1^2"
        code, out = run_cli(capsys, "adjoint", "--dim", "2", "--degree", "1", "--op", text)
        matrix = json.loads(out)["matrix"]
        want = restrict(parse_operator(text, 2), 1).gram_adjoint()
        assert code == 0 and matrix["provenance"] == text
        assert (matrix["r_domain"], matrix["r_codomain"]) == (want.r_domain, want.r_codomain)
        assert matrix["entries"] == [[scalar_to_json(c) for c in row] for row in want.entries]

    def test_casimir_check_inconsistent_residues(self, capsys):
        # a zero Casimir residue cannot coexist with a nonzero boost residue
        code, out = run_cli(capsys, "casimir-check", "--dim", "2", "--metric", "+-",
                            "--degree", "1",
                            "--residue", '{"n":2,"terms":[]}',
                            "--residue",
                            '{"alpha":[1,0],"coeff":{"re":"1","im":"0"}}')
        payload = json.loads(out)
        assert code == 2 and payload["status"] == "no"

    def test_order_raise(self, capsys):
        code, out = run_cli(capsys, "order-raise", "--dim", "1", "--op", "x1*d1 + 1",
                            "--degree", "0", "--k", "1",
                            "--residue", '{"alpha":[0],"coeff":{"re":"1","im":"0"}}')
        payload = json.loads(out)
        assert code == 0 and payload["raised_onshell"] is True

    def test_counterterm_multi_op(self, capsys):
        code, out = run_cli(capsys, "counterterm", "--dim", "1",
                            "--op", "euler(-1/2)", "--op", "euler(1/3)",
                            "--degree", "0",
                            "--residue", '{"alpha":[0],"coeff":{"re":"1","im":"0"}}',
                            "--residue", '{"alpha":[0],"coeff":{"re":"8/3","im":"0"}}')
        payload = json.loads(out)
        # residues consistent with w0 = -2 delta: E(-1/2) w0 = delta,
        # E(1/3) w0 = (8/3) delta; both clear simultaneously
        assert code == 0
        assert all(entry["onshell"] for entry in payload["residues"])

    @pytest.mark.parametrize("second", ["d1", "d1*1"])
    def test_counterterm_refuses_an_operator_given_twice(self, capsys, monkeypatch, second):
        # one dict entry per operator: the first residue would be lost
        import onshell.cli as cli
        calls = []
        monkeypatch.setattr(cli, "multi_commuting_correction", lambda *args: calls.append(args))
        code = main(["counterterm", "--dim", "1", "--degree", "0", "--op", "d1", "--op", second,
                     "--residue", '{"alpha":[1],"coeff":{"re":"1","im":"0"}}',
                     "--residue", '{"alpha":[0],"coeff":{"re":"5","im":"0"}}'])
        captured = capsys.readouterr()
        assert code == 1 and calls == []
        assert captured.out == ""
        assert captured.err == ("onshell: error: operator 'd1' is given twice; "
                                "each operator takes one residue\n")

    def test_degree_rules(self, capsys):
        code, out = run_cli(capsys, "degree", "--dim", "4", "--rule", "derivative",
                            "--value", "-2", "--index", "2,0,0,0")
        payload = json.loads(out)
        assert code == 0 and payload["value"] == 0
        code, out = run_cli(capsys, "degree", "--dim", "2", "--rule", "tensor",
                            "--value", "-2", "--value2", "-3")
        assert json.loads(out)["value"] == -5

    @pytest.mark.parametrize("extra, message", [
        (("--rule", "delta"), "exactly one --residue is required for rule 'delta'"),
        (("--rule", "tensor", "--value", "1"), "--value2 is required for rule 'tensor'"),
        (("--rule", "derivative", "--value", "1", "--index", "1,0,5"),
         "--index '1,0,5' is not 2 non-negative integers"),
        (("--rule", "derivative", "--value", "1", "--index", "1"),
         "--index '1' is not 2 non-negative integers"),
        (("--rule", "monomial", "--value", "1", "--index", "1,-1"),
         "--index '1,-1' is not 2 non-negative integers"),
        (("--rule", "monomial", "--value", "1"), "--index '' is not 2 non-negative integers"),
        (("--rule", "delta", "--residue", '{"n":2,"terms":[]}', "--residue", '{"n":2,"terms":[]}'),
         "exactly one --residue is required for rule 'delta'"),
        (("--rule", "derivative", "--value", "1", "--index", "x,1"),
         "--index 'x,1' is not 2 non-negative integers"),
    ])
    def test_degree_missing_or_malformed_arguments_exit_code(self, capsys, extra, message):
        code = main(["degree", "--dim", "2", *extra])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"onshell: error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (("extend-check", "--dim", "1", "--degree", "1", "--op", "d1"),
         "exactly one --residue is required"),
        (("order-raise", "--dim", "1", "--degree", "1", "--op", "euler(-2)", "--k", "1"),
         "exactly one --residue is required"),
        (("counterterm", "--dim", "1", "--degree", "1"), "at least one --op is required"),
        (("homog-unique", "--dim", "0", "--a", "1", "--degree", "1"),
         "dimension must be >= 1"),
        (("homog-unique", "--dim", "-2", "--a", "1", "--degree", "1"),
         "dimension must be >= 1"),
        (("kernel", "--dim", "1", "--degree", "0", "--op", "euler(-1/2)",
          "--residue", '{"alpha":[0],"coeff":{"re":"1","im":"0"}}',
          "--residue", '{"alpha":[0],"coeff":{"re":"2","im":"0"}}'),
         "exactly one --residue is required"),
        # --metric is resolved before the subcommand looks at its other inputs
        (("order-raise", "--dim", "1", "--degree", "1", "--op", "d1", "--k", "100",
          "--metric", "++"), "metric '++' does not match dimension 1"),
        # well-formed JSON of the wrong shape
        (("counterterm", "--dim", "1", "--degree", "0", "--op", "d1", "--residue", "[1]"),
         RESIDUE_SHAPE),
        (("extend-check", "--dim", "1", "--degree", "0", "--op", "d1",
          "--residue", '{"terms":[1]}'), RESIDUE_SHAPE),
        (("kernel", "--dim", "1", "--degree", "0", "--op", "d1",
          "--residue", '{"alpha":[-1],"coeff":"1"}'), RESIDUE_SHAPE),
        (("renorm", "--dim", "1", "--degree", "0", "--aj", "3", "--residue", '{"terms":[]}'),
         "--aj '3' is not of the form a:N"),
        (("renorm", "--dim", "1", "--degree", "0", "--aj", "3:1:2", "--residue", '{"terms":[]}'),
         "--aj '3:1:2' is not of the form a:N"),
        # a coefficient is a rational string: a JSON number would be read as
        # its binary double (0.1 as 3602879701896397/36028797018963968)
        (("kernel", "--dim", "1", "--degree", "0", "--op", "euler(-1/2)",
          "--residue", '{"alpha":[0],"coeff":{"re":0.1,"im":0}}'), RESIDUE_SHAPE),
        (("kernel", "--dim", "1", "--degree", "0", "--op", "euler(-1/2)",
          "--residue", '{"alpha":[0],"coeff":{"re":true}}'), RESIDUE_SHAPE),
        # a negative power was answered as k = 1, a negative order as "unique"
        (("order-raise", "--dim", "1", "--degree", "1", "--op", "d1", "--k", "-1",
          "--residue", '{"terms":[]}'), "order raising requires k >= 0, got -1"),
        (("homog-unique", "--dim", "4", "--a", "-6", "--degree", "-3"),
         "maximal order must be >= 0"),
        # --pseudo without a residue printed the kernel basis alone
        (("kernel", "--dim", "2", "--op", "L(0,1)", "--degree", "2", "--pseudo"),
         "exactly one --residue is required"),
        # a JSON string was decoded a second time: one holding a delta vector
        # was answered, any other failed with the JSON decoder's message
        (("kernel", "--dim", "1", "--degree", "0", "--op", "euler(-1/2)",
          "--residue", json.dumps('{"alpha":[0],"coeff":"1"}')), RESIDUE_SHAPE),
        (("extend-check", "--dim", "1", "--degree", "0", "--op", "d1",
          "--residue", '"x"'), RESIDUE_SHAPE),
        # a residue's "n" was taken as given: n = 2 under --dim 1 was answered
        # with value 0, true and 1.0 were read as 1, "1" and null failed with
        # "index (0,) has length != 1" and "!= None"
        (("degree", "--dim", "1", "--rule", "delta",
          "--residue", '{"n":2,"terms":[{"alpha":[0,0],"coeff":"1"}]}'),
         "the residue's dimension n = 2 does not match --dim 1"),
        *((("degree", "--dim", "1", "--rule", "delta",
            "--residue", f'{{"n":{n},"terms":[{{"alpha":[0],"coeff":"1"}}]}}'), RESIDUE_SHAPE)
          for n in ("true", "1.0", '"1"', "null")),
        # a negative vanishing order gave a bound above its input
        (("degree", "--dim", "1", "--rule", "vanishing", "--value", "3", "--k", "-2"),
         "k = -2 is negative: f vanishes to order k - 1 >= -1"),
        # a degree value or a residue multi-index of the wrong form failed
        # with "invalid literal for int()" or "index (0,) has length != 2"
        (("degree", "--dim", "1", "--rule", "vanishing", "--value", "1.5", "--k", "1"),
         "--value '1.5' is not an integer"),
        (("degree", "--dim", "2", "--rule", "tensor", "--value", "-2", "--value2", "x"),
         "--value2 'x' is not an integer"),
        (("degree", "--dim", "2", "--rule", "delta", "--residue", '{"alpha":[0],"coeff":"1"}'),
         "--residue multi-index [0] has length 1, not --dim 2"),
        (("extend-check", "--dim", "1", "--degree", "0", "--op", "d1",
          "--residue", '{"alpha":[0,0],"coeff":"1"}'),
         "--residue multi-index [0, 0] has length 2, not --dim 1"),
    ])
    def test_missing_or_invalid_inputs_exit_code(self, capsys, argv, message):
        code = main(list(argv))
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"onshell: error: {message}\n"

    def test_aj_reads_a_as_a_rational(self, capsys):
        # a is read as --a reads it and N as an integer; a 1/2 was refused
        from onshell.extension import ExtensionRecord, homogeneity_operator, renorm_map
        w = '{"alpha":[0],"coeff":{"re":"1","im":"0"}}'
        argv = ("renorm", "--dim", "1", "--degree", "1", "--residue", w)
        code, out = run_cli(capsys, *argv, "--aj", "1/2:1")
        degrees = [(Fraction(1, 2), 1)]
        rec = ExtensionRecord(1, 1, {homogeneity_operator(1, degrees): DeltaVector.basis(1, (0,))})
        assert code == 0
        assert json.loads(out)["counterterm"] == delta_to_json(renorm_map(rec, degrees))
        for aj, message in (("x:1", "a 'x' is not a rational"),
                            ("1:1/2", "N '1/2' is not an integer")):
            assert main([*argv, "--aj", aj]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"onshell: error: --aj {aj!r}: {message}\n"

    def test_aj_refuses_a_negative_multiplicity(self, capsys):
        # refused with exit 1, not answered as an empty product
        argv = ("renorm", "--dim", "1", "--degree", "1", "--aj", "-3:-1")
        assert main(list(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("onshell: error: homogeneity pair a:N = -3:-1 "
                                "has a negative multiplicity\n")

    # the smallest valid arguments of each subcommand, --dim left out
    DIMLESS_ARGV = {
        "restrict": ("--degree", "1", "--op", "1"),
        "adjoint": ("--degree", "1", "--op", "1"),
        "essord": ("--op", "1"),
        "minpoly": ("--degree", "1", "--op", "1"),
        "projpoly": ("--degree", "1", "--op", "1"),
        "kernel": ("--degree", "1", "--op", "1"),
        "extend-check": ("--degree", "1", "--op", "1", "--residue", '{"terms":[]}'),
        "counterterm": ("--degree", "1", "--op", "1", "--residue", '{"terms":[]}'),
        "order-raise": ("--degree", "1", "--op", "1", "--k", "1", "--residue", '{"terms":[]}'),
        "casimir-check": ("--degree", "1"),
        "renorm": ("--degree", "1", "--aj", "1:1", "--residue", '{"terms":[]}'),
        "homog-unique": ("--degree", "1", "--a", "1"),
        "chi": (),
        "chi-verify": ("--k-max", "1"),
        "degree": ("--rule", "vanishing", "--value", "1", "--k", "1"),
    }

    def test_dimension_check_covers_every_subcommand(self):
        assert set(self.DIMLESS_ARGV) == set(SUBCOMMANDS)

    @pytest.mark.parametrize("dim", ["0", "-2"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_dimension_below_one_exit_code(self, capsys, command, dim):
        # essord and degree printed an answer for --dim 0, restrict --dim -1
        # failed on an index length
        code = main([command, "--dim", dim, *self.DIMLESS_ARGV[command]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "onshell: error: dimension must be >= 1\n"

    def test_contract_violation_exit_code(self, capsys, monkeypatch):
        # a solver whose exact self-check fails exits 3 with one line on
        # stderr, no traceback and no JSON
        argv = ["counterterm", "--dim", "2", "--degree", "2", "--op", "L(0,1)", "--residue",
                '{"terms":[{"alpha":[2,0],"coeff":{"re":"1","im":"0"}},'
                '{"alpha":[0,1],"coeff":{"re":"1/2","im":"1"}}]}']
        assert main(argv) == 2  # the residue is generic: not on-shell after the counterterm
        capsys.readouterr()
        monkeypatch.setattr("onshell.spectral._min_norm_solve", lambda m, rhs: [ZERO] * m.ncols)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("onshell: contract violated: ")
        assert "pseudoinverse contract" in captured.err
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_chi_route_mismatch_exit_code(self, capsys, monkeypatch):
        import onshell.cli as cli
        argv = ("chi", "--dim", "2", "--metric", "+-", "--m2", "1", "--indices", "0,1")
        code, agreed = run_cli(capsys, *argv)
        assert code == 0 and json.loads(agreed)["status"] == "ok"
        other = ConstCoeffOperator.one(FeynmanConfig(2, (1, -1), Fraction(1)))
        monkeypatch.setattr(cli, "chi_explicit", lambda *args: other)
        code, out = run_cli(capsys, *argv)
        payload = json.loads(out)
        assert code == 2 and payload["status"] == "no"
        assert payload["routes_agree"] is False and payload["chi_explicit"] == "(1)*1"
        assert {k: v for k, v in payload.items() if k not in ("status", "routes_agree",
                                                               "chi_explicit")} == \
            {k: v for k, v in json.loads(agreed).items()
             if k not in ("status", "routes_agree", "chi_explicit")}

    @pytest.mark.usefixtures("fresh_split_tables")
    def test_chi_splits_the_monomial_once(self, capsys, monkeypatch):
        import onshell.chi as chi
        calls = []
        original = chi._split_degree
        monkeypatch.setattr(chi, "_split_degree",
                            lambda *args: calls.append(args) or original(*args))
        code, out = run_cli(capsys, "chi", "--dim", "4", "--indices", "0,0")
        assert code == 0 and json.loads(out)["counterterm"]["terms"]
        assert len(calls) == 1

    def test_chi_verify(self, capsys):
        code, out = run_cli(capsys, "chi-verify", "--dim", "4", "--k-max", "1",
                            "--m2", "0,1")
        payload = json.loads(out)
        assert code == 0 and payload["mismatches"] == []

    @staticmethod
    def _stub_chi_routes(monkeypatch):
        """Both chi routes replaced by one agreeing constant; the list records
        the index tuple of every explicit-route call."""
        import onshell.chi as chi
        calls = []
        one = ConstCoeffOperator.one(FeynmanConfig(4))
        monkeypatch.setattr(chi, "chi_projection", lambda *args: ChiResult(one, one, 0))
        monkeypatch.setattr(chi, "chi_explicit", lambda idx, *args: calls.append(idx) or one)
        return calls

    @pytest.mark.parametrize("k_max, message", [
        # 2 * 2 * (4^13 - 1)/3 comparisons: the sweep never finished
        ("12", "k_max 12 at n = 4 exceeds the maximum of 100000 comparisons"),
        # nothing to compare: an "ok" that checked nothing
        ("-1", "k_max -1 is negative"),
    ], ids=["too-many", "negative"])
    def test_chi_verify_refused_before_any_work(self, capsys, monkeypatch, k_max, message):
        calls = self._stub_chi_routes(monkeypatch)
        code = main(["chi-verify", "--dim", "4", "--k-max", k_max, "--m2", "0,1"])
        captured = capsys.readouterr()
        assert code == 1 and calls == []
        assert captured.out == ""
        assert captured.err == f"onshell: error: {message}\n"
        assert "Traceback" not in captured.err

    def test_chi_verify_bound_admits_k_max_7_at_dim_4(self, capsys, monkeypatch):
        # 2 metrics * 2 masses * (1 + 4 + ... + 4^7) = 87,380 comparisons run,
        # each multiset compared once: 2 * 2 * C(7 + 4, 4) = 1,320 of them;
        # one order more, 349,524, does not
        calls = self._stub_chi_routes(monkeypatch)
        assert main(["chi-verify", "--dim", "4", "--k-max", "7", "--m2", "0,1"]) == 0
        assert json.loads(capsys.readouterr().out)["checked"] == 87_380
        assert len(calls) == 1_320
        assert main(["chi-verify", "--dim", "4", "--k-max", "8", "--m2", "0,1"]) == 1
        assert len(calls) == 1_320
        assert "exceeds the maximum" in capsys.readouterr().err


class TestSchema:
    def test_doc_embeds_the_same_schema(self):
        text = (Path(__file__).resolve().parent.parent / "docs" / "json-schema.md").read_text()
        blocks = re.findall(r"^```json\n(.*?)^```", text, re.S | re.M)
        assert len(blocks) == 1
        assert json.loads(blocks[0]) == JSON_SCHEMA

    @pytest.mark.parametrize("argv", [
        ("homog-unique", "--dim", "2", "--a", "-3", "--degree", "1"),
        ("restrict", "--dim", "1", "--op", "euler(-2)", "--degree", "1"),
        ("projpoly", "--dim", "1", "--op", "euler(-1/2)", "--degree", "0",
         "--projector"),
        ("chi", "--dim", "4", "--m2", "1", "--indices", "0,1"),
        ("degree", "--dim", "1", "--rule", "delta", "--residue",
         '{"alpha":[2],"coeff":{"re":"1","im":"0"}}'),
    ])
    def test_outputs_validate(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        payload = json.loads(out)
        jsonschema.validate(payload, JSON_SCHEMA)

        # spot-validate embedded structures against their definitions
        def sub(name):
            return {"definitions": JSON_SCHEMA["definitions"],
                    "$ref": f"#/definitions/{name}"}

        if "matrix" in payload:
            jsonschema.validate(payload["matrix"], sub("matrix"))
        for key in ("counterterm", "certificate"):
            if key in payload:
                jsonschema.validate(payload[key], sub("delta_vector"))


class TestParserReuseAndGuards:
    def test_parser_is_built_once_and_calls_do_not_leak(self, capsys, monkeypatch):
        import onshell.cli as cli
        builds = []
        original = cli.build_parser
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
        w = delta_to_json(DeltaVector.basis(1, (0,)))
        two = ("counterterm", "--dim", "1", "--degree", "1", "--op", "euler(-2)",
               "--op", "euler(-1)", "--residue", json.dumps(w), "--residue", json.dumps(w))
        one = ("counterterm", "--dim", "1", "--degree", "1", "--op", "euler(-2)",
               "--residue", json.dumps(w))
        bare = ("kernel", "--dim", "1", "--degree", "1", "--op", "euler(-2)")
        first = [run_cli(capsys, *argv) for argv in (two, one, bare)]
        assert builds == [1]
        # the same calls, each on a parser of its own
        fresh = []
        for argv in (two, one, bare):
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert first == fresh
        assert json.loads(first[1][1])["counterterm"] and "range" not in json.loads(first[2][1])

    def test_order_raise_k_above_the_cap_exit_code(self, capsys, monkeypatch):
        powers = []
        original = OperatorExpr.__pow__
        monkeypatch.setattr(OperatorExpr, "__pow__",
                            lambda op, k: powers.append(k) or original(op, k))
        residue = '{"terms":[{"alpha":[0],"coeff":{"re":"1","im":"0"}}]}'
        code = main(["order-raise", "--dim", "1", "--degree", "1", "--op", "d1",
                     "--k", "100000000", "--residue", residue])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "onshell: error: --k 100000000 exceeds the maximum 64\n"
        assert powers == []

    def test_order_raise_forms_the_power_once(self, capsys, monkeypatch):
        powers = []
        original = OperatorExpr.__pow__
        monkeypatch.setattr(OperatorExpr, "__pow__",
                            lambda op, k: powers.append(k) or original(op, k))
        code, out = run_cli(capsys, "order-raise", "--dim", "1", "--degree", "1",
                            "--op", "euler(-2)", "--k", "3",
                            "--residue", '{"alpha":[1],"coeff":{"re":"1","im":"0"}}')
        assert code == 0 and json.loads(out)["raised_onshell"]
        assert powers == [3]

    def test_oversized_product_is_refused_before_it_is_formed(self, monkeypatch):
        text = "(x1+x2+x3+x4)^15*(x1+x2+x3+x4)^15"
        big = parse_operator("(x1+x2+x3+x4)^15", 4)
        assert big.size() == 816
        products = []
        original = OperatorExpr.__matmul__
        monkeypatch.setattr(OperatorExpr, "__matmul__",
                            lambda a, b: products.append(a.size() * b.size()) or original(a, b))
        with pytest.raises(OperatorSyntaxError,
                           match="operator product of sizes 816 and 816 exceeds the maximum 65536") as exc:
            parse_operator(text, 4)
        assert text[exc.value.start:exc.value.end] == "*"
        # the last step of each power is the 14th power (680 terms) times the sum
        assert max(products) == 680 * 4
        products.clear()
        with pytest.raises(OperatorTooLarge, match="operator product of sizes 816 and 816"):
            big ** 2
        assert products == [816]  # the first step, 1 * 816


class TestOptionValuesStartingWithDash:
    RESIDUE = '{"terms":[{"alpha":[0,0],"coeff":{"re":"1","im":"0"}}]}'
    CASES = (
        (("renorm", "--dim", "2", "--degree", "1", "--residue", RESIDUE), "--aj", "-3:1"),
        (("homog-unique", "--dim", "4", "--degree", "2"), "--a", "-3/2"),
        (("chi", "--dim", "4", "--indices", "0,0"), "--m2", "-1/2"),
        (("chi", "--dim", "4", "--indices", "0"), "--c", "-1,0"),
        (("restrict", "--dim", "1", "--degree", "1"), "--op", "-d1"),
        # an abbreviation of --aj
        (("renorm", "--dim", "2", "--degree", "1", "--residue", RESIDUE), "--a", "-3:1"),
    )

    @pytest.mark.parametrize("argv, option, value", CASES)
    def test_same_as_the_equals_form(self, capsys, argv, option, value):
        spaced = run_cli(capsys, *argv, option, value)
        joined = run_cli(capsys, *argv, f"{option}={value}")
        assert spaced == joined
        assert spaced[0] in (0, 2) and spaced[1]

    def test_options_and_missing_values_are_still_errors(self, capsys):
        base = ("homog-unique", "--dim", "4", "--degree", "2")
        for argv, message in (((*base, "--a"), "argument --a: expected one argument"),
                              ((*base, "--a", "-h"), "argument --a: expected one argument"),
                              ((*base[:-1], "--a", "1"),
                               "argument --degree: expected one argument"),
                              ((*base, "--a", "1", "--bogus"),
                               "unrecognized arguments: --bogus")):
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 1
            assert message in capsys.readouterr().err


class TestEachOperationRunsOnce:
    def test_one_operator_counterterm_applies_once(self, capsys, monkeypatch):
        from onshell import cli, extension
        calls = []
        original = extension.apply_counterterm

        def counted(rec, v):
            calls.append(1)
            return original(rec, v)

        for module in (cli, extension):
            monkeypatch.setattr(module, "apply_counterterm", counted)
        code, out = run_cli(capsys, "counterterm", "--dim", "4", "--degree", "3",
                            "--op", "box(1)", "--residue",
                            '{"alpha":[0,0,0,0],"coeff":{"re":"1","im":"0"}}')
        # delta is not in the range of box(1) at order 3: a nonzero counterterm, exit 2
        assert code == 2 and json.loads(out)["counterterm"]["terms"]
        assert len(calls) == 1

    @pytest.mark.parametrize("metric", ["+---", "-+++"])
    @pytest.mark.parametrize("c, m2", [(None, "0"), ("2,-3/5", "0"), ("2,-3/5", "3/2")])
    def test_chi_counterterm_is_theta_counterterm(self, capsys, metric, c, m2):
        from itertools import combinations_with_replacement
        sig = tuple(1 if ch == "+" else -1 for ch in metric)
        config = FeynmanConfig(4, sig, Fraction(m2))
        coeff = GaussianRational(0, -1) if c is None else GaussianRational(2, Fraction(-3, 5))
        for k in range(4):
            for idx in combinations_with_replacement(range(4), k):
                argv = ["chi", "--dim", "4", f"--metric={metric}", "--m2", m2,
                        "--indices", ",".join(map(str, idx))]
                if c is not None:
                    argv += ["--c", c]
                code, out = run_cli(capsys, *argv)
                assert code == 0
                want = theta_counterterm(ConstCoeffOperator.monomial(config, idx), coeff,
                                         config)
                assert json.loads(out)["counterterm"] == delta_to_json(want)


class TestClosedStdout:
    def test_reader_gone_before_the_output_exits_1_without_traceback(self):
        # `onshell kernel ... | head -c1`: the read end is closed before the
        # command writes, so its first write fails with EPIPE
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "onshell.cli", "kernel", "--dim", "2",
                 "--degree", "2", "--op", "x1*d1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr.decode()
        assert proc.stderr == b""
        assert proc.returncode == 1
