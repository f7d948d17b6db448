"""Fast smoke check of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

It runs a few queries of each workload through the untraced, span-timed and
counting passes in-process, checks that every metric named in
BENCHMARK.json comes out, and checks that the correctness gate trips on
deliberately corrupted answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _passes(workload):
    queries = workloads.build(workload, SEED)
    queries = queries[:3] + queries[-3:]
    passes = [worker.one_pass(queries, mode, verify=(mode == "plain"))
              for mode in ("plain", "time", "count")]
    for p in passes:
        p["setup_s"] = 0.0  # measured by worker.main around the imports and the build
    return passes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted(workload):
    passes = _passes(workload)
    assert run.count_failures(passes)[1] == 0
    e2e = run.end_to_end(passes[:1])
    assert {m["name"] for m in BENCH["end_to_end"]} <= set(e2e)
    assert e2e["fail_ratio"] == 0
    layers = run.layer_metrics(*passes)
    assert set(layers) == {m["name"] for m in BENCH["per_layer"]}
    assert all(isinstance(v, (int, float)) for v in layers.values())
    # the wrapped layers, not the benchmark's own code, take the queries' time
    assert 0.9 < layers["trace.coverage"] <= 1.0
    if workload != "range-decide":
        assert layers["cli.self_s"] == 0 and layers["cli.out_bytes"] == 0
    if workload == "chi-table":
        assert layers["spectral.minpoly_calls"] == 0


def _first(workload, wanted):
    for q in workloads.build(workload, SEED):
        ans = q.call()
        if wanted(ans):
            assert q.check(ans) is None
            return q, ans
    raise AssertionError(f"no {workload} query gives the wanted answer")


def _bump(term):
    term["coeff"]["re"] = str(Fraction(term["coeff"]["re"]) + 1)


@pytest.mark.parametrize("code", [0, 2])
def test_gate_trips_on_a_perturbed_certificate(code):
    q, (_, text) = _first("range-decide", lambda ans: ans[0] == code)
    out = json.loads(text)
    key = "certificate" if "certificate" in out else ("preimage" if code == 0 else "witness")
    _bump(out[key]["terms"][0])
    assert q.check((code, json.dumps(out))) is not None


def test_gate_trips_on_a_wrong_counterterm():
    q, (v, corr) = _first("counterterm", lambda ans: True)
    alpha = (0,) * v.n
    wrong = v + type(v).basis(v.n, alpha)
    assert q.check((wrong, corr)) is not None


def test_gate_trips_on_a_chi_mismatch():
    q, (proj, expl, same) = _first("chi-table", lambda ans: ans[0].chi.order() >= 2)
    wrong = expl + type(expl).one(expl.config)
    assert q.check((proj, wrong, same)) is not None


def test_a_changed_answer_fails_the_later_pass():
    passes = _passes("range-decide")[:2]
    passes[1]["answer_hashes"] = ["0" * 16] + passes[1]["answer_hashes"][1:]
    assert run.count_failures(passes)[1] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "counterterm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_workload_names_agree():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert tuple(w["name"] for w in BENCH["workloads"]) == workloads.WORKLOADS
