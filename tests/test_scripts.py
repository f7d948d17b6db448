"""Golden outputs of the scripts under scripts/.

The chi table is the printed form of both chi routes and the delta
counterterm for every derivative multiset with k <= 4 (and k <= 6, whose
sums reach the third level of pair contractions); any change in a
value, a term order or the formatting changes its SHA-256.  The extension
demo prints delta vectors with their own `__str__`, so its SHA-256 pins
that text too.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args, digest", [
    (["--k-max", "4"],
     "313bc43157dea294c2230a1522bb56483e9289b26be921dd54f2e07ead4bceb4"),
    (["--k-max", "4", "--m2", "3/2", "--metric=-+++"],
     "95c91f3e223dfe43df399b383e6c3fe3ce48a5f28ca7cc5386fdff44330f0645"),
    (["--k-max", "6"],
     "cba5568dae4b0236f5d21399ad6b2ad638afe44ae63d740a4e43615a7d1d6665"),
    (["--k-max", "6", "--m2", "3/2", "--metric=-+++"],
     "f1675abd556512d82cfa4643ed5963e1b99901401c1780742d5d1001050f36c2"),
])
def test_chi_table_output_is_unchanged(args, digest):
    run = subprocess.run([sys.executable, "scripts/chi_table.py", *args], cwd=ROOT,
                         capture_output=True, check=True, timeout=300)
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == digest


def test_extension_demo_output_is_unchanged():
    run = subprocess.run([sys.executable, "scripts/extension_demo.py"], cwd=ROOT,
                         capture_output=True, check=True, timeout=300)
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == (
        "0dc94854d2958c9f76b51812a54ba8d938507515f9fe462eb9305934c6ffe19e")


@pytest.mark.parametrize("args, message", [
    (["--metric", "+x--"], "metric '+x--' does not match dimension 4"),
    (["--metric", "+--"], "metric '+--' does not match dimension 4"),
    (["--m2", "abc"], "Invalid literal for Fraction: 'abc'"),
    # no line to compare: a pass would have checked nothing
    (["--k-max", "-3"], "--k-max -3 is negative"),
    # the dimension is named, not the metric read from it
    (["--dim", "0"], "dimension must be >= 1"),
    (["--m2", "1/0"], "Fraction(1, 0)"),
])
def test_chi_table_refuses_a_bad_configuration(args, message):
    # the metric text is read by the CLI's one reader; a bad metric or mass
    # is a usage error (exit 2) with no traceback and no table
    run = subprocess.run([sys.executable, "scripts/chi_table.py", "--k-max", "0", *args],
                         cwd=ROOT, capture_output=True, timeout=300)
    assert run.returncode == 2 and run.stdout == b""
    err = run.stderr.decode()
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"chi_table.py: error: {message}"
