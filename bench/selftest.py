"""Fast self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json prints with its unit on
every workload, that no operation fails, that traced spans nest, and that a
tampered report fed to the checker counts as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import checks
import harness
import run
import tracing
from workloads import WORKLOADS, make_pass

SCALE = 0.02
SEED = 7


def expect(cond: bool, what: str, problems: list[str]) -> None:
    if not cond:
        problems.append(what)


def metric_problems(metrics: dict, declared: list[dict], label: str) -> list[str]:
    problems = []
    for m in declared:
        got = metrics.get(m["name"])
        expect(got is not None and got["unit"] == m["unit"]
               and isinstance(got["value"], (int, float)),
               f"{label}: metric {m['name']} missing or not in {m['unit']}", problems)
    return problems


def tampering_problems(work: Path) -> list[str]:
    """A report changed after the run must fail its operation."""
    problems = []
    op = make_pass("census_all", SEED, 0, SCALE)[0]
    clean = harness.run_op(op, work)
    harness.check_op(clean, {}, None)
    expect(not clean.failures, f"untampered report failed: {clean.failures}", problems)
    doc = json.loads(clean.report)
    doc["skipped"] += 1  # totals no longer add up
    recounted = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    manifest = checks.manifest_of(clean.stderr)
    manifest["output_sha256"] = checks.sha256(recounted)
    for label, report, stderr in (
        ("changed bytes", recounted, clean.stderr),
        ("consistent checksum, wrong total", recounted, json.dumps(manifest).encode()),
    ):
        res = dataclasses.replace(clean, report=report, stderr=stderr, failures=[])
        harness.check_op(res, {}, None)
        expect(bool(res.failures), f"tampered report ({label}) passed the checks", problems)
    return problems


def main() -> int:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    problems = []
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=harness.ROOT) as tmp:
        work = Path(tmp)
        for name in WORKLOADS:
            metrics, results = run.timed_run(name, SEED, 1.0, work, SCALE)
            problems += metric_problems(metrics, spec["end_to_end"], name)
            failed = [f for r in results for f in r.failures]
            expect(not failed and metrics["ok_rate"]["value"] == 1.0,
                   f"{name}: failed operations {failed}", problems)
            metrics, results, trace_failures = tracing.traced_run(name, SEED, work, SCALE)
            problems += metric_problems(metrics, spec["per_layer"], f"{name} traced")
            failed = [f for r in results for f in r.failures] + trace_failures
            expect(not failed, f"{name} traced: failures {failed}", problems)
            print(f"{name}: ok" if not problems else f"{name}: problems so far", flush=True)
        problems += tampering_problems(work)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
