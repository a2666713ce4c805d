"""Running CLI operations in fresh processes and checking what they report."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import op_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_FILE = Path(__file__).resolve().parent / "expected_sha256.json"
DEFAULT_SEED = 1
SPOT_SAMPLES = 12
OP_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PSQR_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class OpResult:
    op: dict
    argv: list[str]
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    report: bytes
    stderr: bytes
    items: int = 0
    failures: list[str] = field(default_factory=list)


def expand(arg: str, work: Path) -> str:
    return arg.replace("{work}", str(work))


def run_process(args: list[str], work: Path) -> tuple[int, float, float, int, bytes, bytes]:
    """Run one python process; returns (rc, wall, cpu, maxrss_kb, stdout, stderr).

    wait4 gives the child's own usage plus that of every worker it waited for,
    so pool workers count towards the CPU time and the peak RSS.
    """
    out_path, err_path = work / "stdout.bin", work / "stderr.bin"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            out_path.read_bytes(), err_path.read_bytes())


def run_op(op: dict, work: Path) -> OpResult:
    argv = [expand(a, work) for a in op["argv"]]
    if op.get("sources"):
        with open(expand(op["file"], work), "wb") as joined:
            for src in map(Path, (expand(s, work) for s in op["sources"])):
                # a list psprimes failed to write joins as empty; the census
                # total then disagrees with what was written and the op fails
                joined.write(src.read_bytes() if src.is_file() else b"")
    rc, wall, cpu, rss, out, err = run_process(["-m", "psqr.cli", *argv], work)
    report = out
    if op["kind"] == "psprimes" and rc == 0:
        report = Path(argv[argv.index("--out") + 1]).read_bytes()
    return OpResult(op, argv, rc, wall, cpu, rss, report, err)


def run_version(work: Path) -> OpResult:
    """A fresh `psqr --version`: interpreter start plus every import."""
    op = {"argv": ["--version"], "kind": "version"}
    res = run_op(op, work)
    if res.rc != 0 or not res.report.startswith(b"psqr "):
        res.failures.append(f"--version exited {res.rc} with {res.report[:40]!r}")
    return res


def expected_for(workload: str, seed: int) -> dict | None:
    """Stored report checksums by op_key; kept for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def check_op(res: OpResult, files: dict[str, list[int]], expected: dict | None) -> None:
    """Apply every per-operation check; records failures and the item count."""
    op = res.op
    manifest = checks.manifest_of(res.stderr)
    res.failures += checks.check_envelope(res.rc, res.report, manifest)
    if res.failures:
        return
    key = op_key(op)
    if expected is not None and key in expected and expected[key] != checks.sha256(res.report):
        res.failures.append("report sha256 differs from the stored default-seed checksum")
    rng = random.Random(f"check/{key}")
    kind = op["kind"]
    try:
        if kind == "psprimes":
            lo, hi = op["window"]
            primes, fails = checks.check_prime_list(res.report, *op["c"], lo, hi, rng,
                                                    SPOT_SAMPLES)
            files[op["file"]] = primes
            res.failures += fails
            res.items = len(primes)
        elif kind == "census":
            doc = json.loads(res.report)
            if op["source"] == "file":
                written = [p for src in op["sources"] for p in files.get(src, [])]
                if doc["total_primes"] != len(written):
                    res.failures.append(f"census read {doc['total_primes']} primes, "
                                        f"psprimes wrote {len(written)}")
                sample = rng.sample(written, min(SPOT_SAMPLES, len(written)))
            else:
                sample = checks.sample_census_primes(rng, op, SPOT_SAMPLES)
            res.failures += checks.check_census(doc, op["elements"], sample)
            res.items = doc["total_primes"]
        elif kind == "scan":
            doc = json.loads(res.report)
            res.failures += checks.check_scan(doc, op["gamma"], op["s"], op["n_list"])
            res.items = sum(r["M"] - r["N"] for r in doc["rows"])
        elif kind == "bilinear":
            res.failures += checks.check_bilinear(json.loads(res.report))
            res.items = op["M"] - op["N"]
    except (ValueError, KeyError, TypeError) as exc:
        res.failures.append(f"malformed {kind} report: {exc!r}")


def check_thread_invariance(results: list[OpResult]) -> None:
    """Census runs that differ only in --threads must give identical bytes."""
    groups: dict[tuple, OpResult] = {}
    for res in results:
        if res.op["kind"] != "census" or res.failures:
            continue
        argv = list(res.op["argv"])
        i = argv.index("--threads")
        del argv[i : i + 2]
        first = groups.setdefault(tuple(argv), res)
        if first.report != res.report:
            res.failures.append(f"report at --threads {res.op['argv'][i + 1]} differs from "
                                f"the one at --threads {first.op['argv'][i + 1]}")


def run_pass(ops: list[dict], work: Path, expected: dict | None) -> list[OpResult]:
    files: dict[str, list[int]] = {}
    results = []
    for op in ops:
        res = run_op(op, work)
        check_op(res, files, expected)
        results.append(res)
    check_thread_invariance(results)
    return results
