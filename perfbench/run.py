"""The onshell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; `onshell` is imported from its `src/`.
The loop is closed with one client: queries are asked one after another,
each when the previous answer is back, in one thread and no pool.  Every
pass over the seeded query list runs in a fresh worker process, so no
cache carries over from one pass to the next.

--trace 0 first sets up SETUP_RUNS times in fresh processes, then repeats
untraced passes while one more pass, as long as the last, would still end
within S seconds (at least one pass).  It reports the end-to-end metrics as
medians over the passes, in reference seconds (see speedometer.py).
--trace 1 runs three passes over the same list (untraced, span-timed,
counting) and reports the per-layer metrics.  Answers are checked with an
independent reference outside the timed region; a pass whose answers differ
from the first pass's fails those queries.  The last line of stdout is the
result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("counterterm", "chi-table", "range-decide")
# a run must end within 180 s; no worker may outlive this budget
BUDGET_S = 170.0
SETUP_RUNS = 5

E2E_UNITS = {"solve_s": "s", "latency_p50_s": "s", "latency_p90_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s", "fail_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, verify: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if verify:
        cmd.append("--verify")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics, weighted by the Beta(q(n+1), (1-q)(n+1))
    mass of each 1/n interval.  It moves far less than one order statistic
    when a few queries near the quantile change.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t):
        if not 0 < t < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    weights = []
    for i in range(n):  # Simpson's rule, 8 steps per interval
        lo, h = i / n, 1 / (8 * n)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, 8))
        weights.append((density(lo) + inner + density(lo + 8 * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def count_failures(passes) -> tuple:
    """(attempted, failed, first few reasons) over all passes."""
    reference = passes[0]["answer_hashes"]
    attempted = failed = 0
    reasons = []
    for p in passes:
        bad = {i for i, _ in p["failures"]}
        bad |= {i for i, h in enumerate(p["answer_hashes"]) if h != reference[i]}
        attempted += len(p["answer_hashes"])
        failed += len(bad)
        reasons += [why for _, why in p["failures"]]
    return attempted, failed, reasons[:5]


def end_to_end(passes, setups=()) -> dict:
    """Medians over the passes (and set-up runs), in reference seconds.

    solve_s is a pass's time for the whole list; the latency quantiles are
    taken over the queries' median times.
    """
    per_query = [statistics.median(ls) for ls in zip(*(p["latency_s"] for p in passes))]
    attempted, failed, _ = count_failures(passes)
    return {
        "solve_s": statistics.median(sum(p["latency_s"]) for p in passes),
        "latency_p50_s": quantile(per_query, 0.5),
        "latency_p90_s": quantile(per_query, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median([p["setup_s"] for p in [*passes, *setups]]),
        "fail_ratio": failed / attempted,
    }


def layer_metrics(plain: dict, timed: dict, counted: dict) -> dict:
    """Per-layer metrics from an untraced, a span-timed and a counting pass."""
    metrics = {**timed["metrics"], **counted["metrics"]}
    for key in [k for k in metrics if k.endswith(".errors")]:
        metrics[key] = max(timed["metrics"][key], counted["metrics"][key])
    metrics["trace.overhead_ratio"] = sum(timed["latency_s"]) / sum(plain["latency_s"])
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool):
    deadline = time.monotonic() + BUDGET_S
    if trace:
        passes = [run_worker(workload, seed, "plain", True, deadline),
                  run_worker(workload, seed, "time", False, deadline),
                  run_worker(workload, seed, "count", False, deadline)]
        values = layer_metrics(*passes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        e2e = end_to_end(passes[:1])
    else:
        start = time.monotonic()
        setups = [run_worker(workload, seed, "setup", False, deadline)
                  for _ in range(SETUP_RUNS)]
        t = time.monotonic()
        passes = [run_worker(workload, seed, "plain", True, deadline)]
        last = time.monotonic() - t
        while time.monotonic() - start + last <= seconds:
            t = time.monotonic()
            passes.append(run_worker(workload, seed, "plain", False, deadline))
            last = time.monotonic() - t
        e2e = end_to_end(passes, setups)
        metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]}
                   for name in end_to_end_names()}
    attempted, failed, reasons = count_failures(passes)
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace), "passes": len(passes),
        "queries_per_pass": len(passes[0]["answer_hashes"]),
        "answers_sha256": passes[0]["answers_sha256"],
        "raw_solve_s": statistics.median(p["raw_solve_s"] for p in passes),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "failures": reasons,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return summary, result


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_names() -> list:
    return [m["name"] for m in _benchmark_json()["end_to_end"]]


def per_layer_units() -> dict:
    return {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onshell" / "__init__.py").is_file():
        print(f"onshell sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("summary " + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
