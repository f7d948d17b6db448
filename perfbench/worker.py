"""One pass over a workload's query list, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED MODE [--verify]

MODE is ``plain`` (nothing wrapped), ``time`` (span tracing), ``count``
(call counts, value sizes, scalar operations) or ``setup`` (set-up only).
The pass imports `onshell` from the checkout's `src/`, builds the seeded
query list (both timed as set-up), asks every query once, one after
another, and then, outside the timed region, hashes the answers and, with
--verify, checks each one with the independent reference.  It prints one
JSON object on stdout.

Times are given twice: as measured (``raw``) and scaled to the reference
speed of `speedometer.py`, which probes the speed of the processor between
queries.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_pass(queries, tracer=None):
    """Ask each query once, probing the speed between queries.

    Returns (answers, per-query errors, latencies, speed scales, median probe time).
    """
    clock = time.perf_counter
    meter = speedometer.Speedometer()
    answers, errors, latency, spans = [], [], [], []
    for i, q in enumerate(queries):
        meter.maybe_probe()
        t = clock()
        try:
            answers.append(tracer.run_query(i, q.call) if tracer else q.call())
            errors.append(None)
        except Exception as exc:  # a raising query is a failed query, not a crash
            answers.append(None)
            errors.append(f"raised {type(exc).__name__}: {exc}")
        end = clock()
        latency.append(end - t)
        spans.append((t, end))
    meter.probe()
    scales = [meter.scale(t, end) for t, end in spans]
    return answers, errors, latency, scales, meter.median()


def judge(queries, answers, errors, verify: bool):
    """Canonical answer hashes, the answer digest and the failures of one pass."""
    digest = hashlib.sha256()
    hashes, failures = [], []
    for i, (q, ans, err) in enumerate(zip(queries, answers, errors)):
        if err is None:
            canon = q.canon(ans).encode()
            if verify:
                err = q.check(ans)
        else:
            canon = b"error"
        digest.update(canon + b"\n")
        hashes.append(hashlib.sha256(canon).hexdigest()[:16])
        if err is not None:
            failures.append([i, f"{q.label}: {err}"])
    return hashes, digest.hexdigest(), failures


def one_pass(queries, mode: str, verify: bool, spans_path=None) -> dict:
    """Ask every query once under MODE and judge the answers outside the timing.

    In time mode the spans are written to spans_path when one is given.
    """
    tracer = None
    if mode != "plain":
        import tracing
        tracer = tracing.Tracer(mode)
        tracer.install()
    try:
        answers, errors, latency, scales, probe_s = run_pass(queries, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    hashes, digest, failures = judge(queries, answers, errors, verify)
    solve_s = sum(latency)
    result = {
        "raw_solve_s": solve_s,
        "probe_s": probe_s,
        "latency_s": [t * k for t, k in zip(latency, scales)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answer_hashes": hashes,
        "answers_sha256": digest,
        "failures": failures,
    }
    if tracer:
        result["metrics"] = tracer.metrics(solve_s)
        if spans_path and mode == "time":
            tracer.write_spans(spans_path)
    return result


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    meter = speedometer.Speedometer()
    for _ in range(speedometer.SETUP_PROBES):
        meter.probe()
    t0 = time.perf_counter()
    import workloads
    queries = workloads.build(workload, seed)
    t1 = time.perf_counter()
    for _ in range(speedometer.SETUP_PROBES):
        meter.probe()
    setup = {"raw_setup_s": t1 - t0, "setup_s": (t1 - t0) * meter.scale(t0, t1)}
    if mode == "setup":
        print(json.dumps(setup))
        return 0

    spans_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    result = one_pass(queries, mode, "--verify" in argv, spans_path)
    result.update(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
