"""Seeded end-to-end benchmark of the psqr command-line tool.

    python3 bench/run.py --workload census_ps --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is the
checkout's own src/. Each operation is one fresh `python -m psqr.cli`
process, run in a closed loop by a single client. An untimed warm-up pass
at small sizes comes first; timed passes follow until --seconds is used up, with
`psqr --version` samples between passes. Every report is checked (see
harness.check_op); a failed check fails its operation.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of one traced pass (tracing.py).
The line before it is an environment block, which is never a metric.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
from workloads import WORKLOADS, make_pass

MIN_PASSES = 3
WARMUP_SCALE = 0.05  # the warm-up pass runs every operation type at small sizes
SETUP_SAMPLES_PER_GAP = 2


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop, to recognise a slow host phase."""
    def once() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(5))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in harness.SRC.rglob("*.py"))


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "src_lines": src_lines(),
        "reference_loop_s_before": reference_loop_s(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(workload: str, seed: int, seconds: float, work: Path,
              scale: float = 1.0) -> tuple[dict, list]:
    """Warm-up pass, then timed passes; returns (metrics, every OpResult)."""
    expected = harness.expected_for(workload, seed)
    results = harness.run_pass(make_pass(workload, seed, 0, WARMUP_SCALE * scale), work, expected)
    rates, cpus, setups = [], [], []
    t0 = time.perf_counter()
    index = 1
    while True:
        p0 = time.perf_counter()
        passed = harness.run_pass(make_pass(workload, seed, index, scale), work, expected)
        results += passed
        rates.append(sum(r.items for r in passed) / sum(r.wall_s for r in passed))
        cpus.append(sum(r.cpu_s for r in passed))
        for _ in range(SETUP_SAMPLES_PER_GAP):
            v = harness.run_version(work)
            results.append(v)
            setups.append(v.wall_s)
        index += 1
        pass_s = time.perf_counter() - p0
        if index > MIN_PASSES and time.perf_counter() - t0 + pass_s > seconds:
            break
    failed = sum(1 for r in results if r.failures)
    metrics = {
        "items_per_s": metric(statistics.median(rates), "1/s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(max(r.maxrss_kb for r in results) / 1024, "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
        "ok_rate": metric((len(results) - failed) / len(results), "ratio"),
    }
    return metrics, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (harness.SRC / "psqr" / "cli.py").is_file():
        print(f"error: no psqr sources under {harness.SRC}", file=sys.stderr)
        return 2

    env = environment()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=harness.ROOT) as tmp:
        work = Path(tmp)
        if args.trace:
            import tracing
            metrics, results, trace_failures = tracing.traced_run(args.workload, args.seed, work)
        else:
            metrics, results = timed_run(args.workload, args.seed, args.seconds, work)
            trace_failures = []
    env["loadavg_after"] = os.getloadavg()
    env["reference_loop_s_after"] = reference_loop_s()

    failed = [r for r in results if r.failures]
    for r in failed:
        print(f"FAILED {' '.join(r.argv)}: {'; '.join(r.failures)}", file=sys.stderr)
    for msg in trace_failures:
        print(f"FAILED trace: {msg}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": not failed and not trace_failures,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
