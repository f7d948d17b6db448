"""Byte-identity sweep of the command line.

One SHA-256 pins stdout, stderr and the exit code of every argument list in
`GOLDEN_ARGV`, run in order through `cli.main`.  The list covers the
range-test and projection subcommands (`restrict`, `kernel`, `extend-check`
with residues in and out of the range, `counterterm`, `projpoly`) on
differential operators, polynomial coefficients, `parity` and non-diagonal
`reflect` pullbacks, including |det L| != 1.  It also covers `order-raise`
at k = 1 and 2 (one non-normal R), `casimir-check` with and without
residues, `renorm` with and without `--lorentz`, `counterterm` with several
`--op`, `chi` with `--metric` and `--c`, `chi-verify`, and `degree` by the
delta and operator rules.  Every answer of the engine is
exact, so a change that keeps the answers keeps this hash; a change of
output format or of an answer must update it on purpose.
"""

import contextlib
import hashlib
import io

from onshell.cli import main


def _delta(*terms) -> str:
    """A residue argument: (alpha, re) or (alpha, re, im) terms."""
    parts = []
    for t in terms:
        alpha, re = t[0], t[1]
        im = t[2] if len(t) > 2 else "0"
        parts.append('{"alpha":[%s],"coeff":{"re":"%s","im":"%s"}}'
                     % (",".join(map(str, alpha)), re, im))
    return '{"terms":[%s]}' % ",".join(parts)


SHEAR = "reflect([[2,1],[0,3]])"
SWAP = "reflect([[0,1],[1,0]])"
SHEAR3 = "reflect([[1,1,0],[0,2,0],[0,0,-1]])"
SWAP3 = "reflect([[0,1,0],[1,0,0],[0,0,-1]])"

GOLDEN_ARGV = (
    ("restrict", "--dim", "2", "--degree", "2", "--op", "x1*d2 + " + SHEAR),
    ("restrict", "--dim", "2", "--degree", "2", "--op", "parity"),
    ("restrict", "--dim", "2", "--degree", "1", "--op", "x2^2*d1^3 - 2*i*" + SWAP),
    ("restrict", "--dim", "3", "--degree", "2", "--op", "d3*" + SWAP3 + " + x1"),
    ("restrict", "--dim", "2", "--degree", "2", "--op", "box(1)", "--text"),
    ("kernel", "--dim", "2", "--degree", "3", "--op", "box(0)"),
    ("kernel", "--dim", "2", "--degree", "2", "--op", "x1*d1 - x2*d2",
     "--residue", _delta(((1, 1), "1"), ((0, 0), "2", "1"))),
    ("kernel", "--dim", "2", "--degree", "2", "--op", "x1*d1 - x2*d2",
     "--residue", _delta(((0, 2), "3"))),
    ("kernel", "--dim", "2", "--degree", "2", "--op", SHEAR + " - 1",
     "--residue", _delta(((1, 0), "1"), ((0, 1), "-1/2"))),
    ("kernel", "--dim", "1", "--degree", "3", "--op", "euler(-2)", "--pseudo",
     "--residue", _delta(((1,), "5"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", "parity - 1",
     "--residue", _delta(((1, 0), "1"), ((0, 1), "2", "-3"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", "parity - 1",
     "--residue", _delta(((0, 0), "1"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", SWAP + " - 1",
     "--residue", _delta(((1, 0), "1"), ((0, 1), "-1"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", SWAP + " - 1",
     "--residue", _delta(((1, 0), "1"), ((0, 1), "1"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", "x1*" + SHEAR + " + d2",
     "--residue", _delta(((0, 0), "1"), ((2, 1), "1/3", "1"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", "x1*" + SHEAR + " + d2",
     "--residue", _delta(((0, 0), "-1/36"), ((1, 1), "1"), ((0, 2), "2"))),
    ("extend-check", "--dim", "3", "--degree", "1", "--op", "x1*d2*" + SHEAR3 + " + d3^2",
     "--residue", _delta(((0, 1, 0), "-1/2"), ((1, 0, 2), "1"), ((0, 0, 3), "-1"))),
    ("kernel", "--dim", "3", "--degree", "2", "--op", "x1*d2*" + SHEAR3 + " + d3^2",
     "--residue", _delta(((0, 0, 0), "1", "1"), ((0, 2, 1), "2"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", "euler(-4)",
     "--residue", _delta(((2, 0), "1"))),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", "euler(-4)",
     "--residue", _delta(((1, 0), "7", "2"))),
    ("extend-check", "--dim", "3", "--degree", "1", "--op", "box(1)", "--metric", "+--",
     "--residue", _delta(((0, 0, 1), "1"), ((2, 0, 0), "-1"))),
    ("counterterm", "--dim", "2", "--degree", "2", "--op", "box(1)",
     "--residue", _delta(((0, 0), "1"), ((1, 1), "2", "1"))),
    ("counterterm", "--dim", "2", "--degree", "1", "--op", "x1*d1 + " + SWAP,
     "--residue", _delta(((1, 0), "1"), ((0, 0), "-3"))),
    ("counterterm", "--dim", "2", "--degree", "2", "--op", "euler(-3)", "--text",
     "--residue", _delta(((1, 1), "1", "1"))),
    ("projpoly", "--dim", "2", "--degree", "2", "--op", "box(1)", "--projector"),
    ("projpoly", "--dim", "2", "--degree", "2", "--op", "parity + x1*d2"),
    ("projpoly", "--dim", "2", "--degree", "1", "--op", SHEAR + " + d1"),
    ("extend-check", "--dim", "2", "--degree", "2", "--op", "x1*d9",
     "--residue", _delta(((0, 0), "1"))),
    ("order-raise", "--dim", "1", "--degree", "2", "--op", "euler(-2)", "--k", "1",
     "--residue", _delta(((0,), "1"), ((1,), "2", "1"), ((2,), "-3"))),
    ("order-raise", "--dim", "2", "--degree", "2", "--op", "euler(-3)", "--k", "2",
     "--residue", _delta(((1, 0), "1"), ((0, 1), "1/2"), ((1, 1), "4", "-1"))),
    ("order-raise", "--dim", "2", "--degree", "1", "--op", "x1*d1 - x2*d2 + 1", "--k", "2",
     "--text", "--residue", _delta(((1, 0), "3"), ((0, 0), "1"))),
    ("order-raise", "--dim", "2", "--degree", "1", "--op", "x1*d2", "--k", "1",
     "--residue", _delta(((1, 0), "1"))),
    ("casimir-check", "--dim", "3", "--degree", "1"),
    ("casimir-check", "--dim", "2", "--metric", "+-", "--degree", "1",
     "--residue", _delta(((0, 1), "4")), "--residue", _delta(((1, 0), "2"))),
    ("casimir-check", "--dim", "2", "--metric", "+-", "--degree", "1",
     "--residue", '{"n":2,"terms":[]}', "--residue", _delta(((1, 0), "1"))),
    ("renorm", "--dim", "2", "--degree", "1", "--aj", "-3:1",
     "--residue", _delta(((1, 0), "1"), ((0, 0), "2", "1"))),
    ("renorm", "--dim", "1", "--degree", "2", "--aj=-2:2", "--aj=-3:1",
     "--residue", _delta(((0,), "1"), ((2,), "-1/2"))),
    ("renorm", "--dim", "2", "--metric", "+-", "--degree", "1", "--lorentz", "--aj", "-2:1",
     "--residue", _delta(((0, 1), "4")), "--residue", _delta(((0, 1), "2"))),
    ("counterterm", "--dim", "1", "--degree", "0", "--op", "euler(-1/2)", "--op", "euler(1/3)",
     "--residue", _delta(((0,), "1")), "--residue", _delta(((0,), "8/3"))),
    ("counterterm", "--dim", "2", "--degree", "1", "--op", "euler(-3)", "--op", "x1*d1 - x2*d2",
     "--residue", _delta(((1, 0), "2"), ((0, 0), "1")), "--residue", _delta(((0, 1), "1", "1"))),
    ("chi", "--dim", "2", "--metric", "+-", "--m2", "1", "--indices", "0,0,1", "--c", "2,1"),
    ("chi", "--dim", "3", "--metric", "-++", "--m2", "-1/2", "--indices", "0,1,1,2", "--c", "3",
     "--text"),
    ("chi", "--dim", "4", "--indices", "0,0"),
    ("chi-verify", "--dim", "2", "--k-max", "2", "--m2", "0,1"),
    ("chi-verify", "--dim", "3", "--metric", "+--", "--k-max", "2", "--m2", "1/2"),
    ("degree", "--dim", "2", "--rule", "delta",
     "--residue", _delta(((2, 1), "1"), ((0, 0), "3"))),
    ("degree", "--dim", "2", "--rule", "delta", "--residue", '{"n":2,"terms":[]}'),
    ("degree", "--dim", "2", "--rule", "operator", "--value", "-2", "--op", "x1*d2^2"),
    ("degree", "--dim", "2", "--rule", "operator", "--value", "1", "--exact",
     "--op", "box(1)", "--metric", "-+"),
)

GOLDEN_SHA256 = "a269b5247fe8b8b8dadd8bdff9c96f8856f60f34c740689491acadf1691107b0"


def _sweep_digest() -> str:
    h = hashlib.sha256()
    for argv in GOLDEN_ARGV:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        for part in ("\0".join(argv), out.getvalue(), err.getvalue(), str(code)):
            h.update(part.encode())
            h.update(b"\0\1")
    return h.hexdigest()


def test_cli_output_is_byte_identical():
    assert _sweep_digest() == GOLDEN_SHA256
