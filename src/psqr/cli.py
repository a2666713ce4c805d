"""Command-line entry point: reproducible runs with machine-readable reports.

Every command streams its report to stdout, or to --out, which appears only
once complete, then emits a run manifest (command, parameters, version, wall
time, output checksum) on stderr; with --out the manifest is also written
next to the report. A command that fails emits no manifest.

Exit codes: 0 success, 2 usage or parse error, 3 failed numerical check,
4 resource limit (an integer or value budget, a set too large, memory
exhausted, or a census worker process that died).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable

from . import __version__
from .census import CensusConfig, run_census
from .errors import CheckFailed, Overflow, ResourceLimit, UsageError
from .expsums import (
    bilinear_check,
    cancellation_scan,
    majorant_check,
    vaughan,
    von_mangoldt,
)
from .kernels import square_subset_family
from .predict import parity_analysis, qr_count_asymptotic
from .psprimes import BLOCK_SIZE, PsPrimeRange, RationalExponent, ps_prime_array


def _parse_set(text: str) -> tuple[int, ...]:
    out = []
    for pos, part in enumerate(text.split(","), 1):
        tok = part.strip()
        if not re.fullmatch(r"[0-9]+", tok or ""):
            raise ValueError(f"set element {pos} ({tok!r}) is not a positive integer")
        out.append(int(tok))
    return tuple(out)


def _parse_count(text: str) -> int:
    """Integer, or exact scientific shorthand like 1e6, of at most 309 digits."""
    m = re.fullmatch(r"([0-9]+)(?:[eE]([0-9]+))?", text.strip())
    if not m:
        raise ValueError(f"{text!r} is not an integer (scientific shorthand like 1e6 is allowed)")
    mantissa, exp = m.group(1).lstrip("0") or "0", (m.group(2) or "").lstrip("0") or "0"
    # 2**1024 has 309 digits; a longer count is refused from its digit counts
    if len(exp) > 3 or len(mantissa) + int(exp) > 309:
        raise Overflow("counts are capped at 309 digits")
    return int(mantissa) * 10 ** int(exp)


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"range must be lo,hi; got {text!r}")
    return _parse_count(parts[0]), _parse_count(parts[1])


def _parse_gamma(text: str) -> float:
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a fraction") from None


def _emit(command: str, params: dict, chunks: Iterable[str], out: str | None, t0: float) -> None:
    """Write the report, hashing and writing each chunk as it comes, then its
    run manifest, the reproducibility record. With out, the chunks go to a
    sibling temporary file that replaces out only once the last is written."""
    digest = hashlib.sha256()
    part = f"{out}.{os.getpid()}.part"
    try:
        with open(part, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout) as fh:
            for chunk in chunks:
                digest.update(chunk.encode("utf-8"))
                fh.write(chunk)
        if out:
            os.replace(part, out)
    finally:
        if out and os.path.exists(part):
            os.remove(part)
    manifest = {
        "command": command,
        "params": params,
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "output_sha256": digest.hexdigest(),
    }
    if out:
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- commands -------------------------------------------------------------------

def cmd_family(args) -> int:
    t0 = time.perf_counter()
    elements = _parse_set(args.set)
    fam = square_subset_family(elements)
    _emit("family", {"set": list(elements)}, [_json(fam.to_json_dict())], args.out, t0)
    return 0


def cmd_predict(args) -> int:
    t0 = time.perf_counter()
    elements = _parse_set(args.set)
    c = RationalExponent.parse(args.c)
    pred = parity_analysis(elements)
    doc = pred.to_json_dict()
    doc["c"] = str(c)
    doc["theorem_backed"] = c.theorem_backed
    if args.x is not None:
        x = _parse_count(args.x)
        main = qr_count_asymptotic(elements, c, x)
        scale = main / float(pred.qr_density) if pred.qr_density else 0.0
        doc["x"] = x
        doc["qr_count_main_term"] = main
        doc["nqr_count_main_term"] = float(pred.nqr_density) * scale
    params = {"set": list(elements), "c": str(c), "x": args.x}
    _emit("predict", params, [_json(doc)], args.out, t0)
    return 0


def cmd_census(args) -> int:
    t0 = time.perf_counter()
    elements = _parse_set(args.set)
    c = RationalExponent.parse(args.c)
    if args.source == "all" and c != RationalExponent(1, 1):
        raise ValueError(f"--source all is the c = 1 stream; it conflicts with --c {c}")
    x = _parse_count(args.x) if args.x is not None else None
    lo = hi = None
    if args.range is not None:
        lo, hi = _parse_range(args.range)
    config = CensusConfig(
        elements=elements,
        exponent=c,
        x=x,
        lo=lo,
        hi=hi,
        prime_file=args.prime_file,
        block_size=args.block_size,
        threads=args.threads,
    )
    report = run_census(config)
    payload = report.to_csv() if args.csv else report.to_json()
    params = {
        "set": list(elements),
        "c": str(c),
        "x": x,
        "range": [lo, hi] if lo is not None else None,
        "source": args.source,
        "prime_file": args.prime_file,
        "block_size": args.block_size,
        "threads": args.threads,
        "csv": bool(args.csv),
    }
    _emit("census", params, [payload], args.out, t0)
    return 0


def cmd_psprimes(args) -> int:
    t0 = time.perf_counter()
    c = RationalExponent.parse(args.c)
    lo, hi = _parse_range(args.range)
    rng = PsPrimeRange(c, lo, hi)
    header = f"# psqr psprimes c={c} range=({lo},{hi}]\n"
    # each block's primes are written once certified, so memory holds one block
    primes = (ps_prime_array(*block)[1].tolist() for block in rng.blocks(BLOCK_SIZE))
    chunks = itertools.chain([header], ("".join(f"{p}\n" for p in ps) for ps in primes))
    params = {"c": str(c), "range": [lo, hi]}
    _emit("psprimes", params, chunks, args.out, t0)
    return 0


def cmd_expsum_vaughan(args) -> int:
    t0 = time.perf_counter()
    value = vaughan(args.n, args.u, args.v)
    lam = von_mangoldt(args.n)
    err = abs(value - lam)
    passed = err < 1e-9 * (1.0 + abs(lam))
    doc = {
        "n": args.n,
        "u": args.u,
        "v": args.v,
        "value": value,
        "von_mangoldt": lam,
        "abs_error": err,
        "passed": passed,
        "verdict": "PASS" if passed else "FAIL",
    }
    params = {"n": args.n, "u": args.u, "v": args.v}
    _emit("expsum.vaughan", params, [_json(doc)], args.out, t0)
    return 0 if passed else 3


def cmd_expsum_psistar(args) -> int:
    t0 = time.perf_counter()
    result = majorant_check(args.J, grid_points=args.grid)
    result["verdict"] = "PASS" if result["passed"] else "FAIL"
    params = {"J": args.J, "grid": args.grid}
    _emit("expsum.psistar", params, [_json(result)], args.out, t0)
    return 0 if result["passed"] else 3


def cmd_expsum_scan(args) -> int:
    t0 = time.perf_counter()
    gamma = _parse_gamma(args.gamma)
    if args.n_list:
        n_list = [_parse_count(tok) for tok in args.n_list.split(",")]
    else:
        n_list = [1 << k for k in range(12, 21)]
    report = cancellation_scan(gamma, args.s, n_list, J=args.J)
    payload = _json(report.to_json_dict()) if args.json else report.to_csv()
    params = {"gamma": args.gamma, "s": args.s, "n_list": n_list, "J": args.J}
    _emit("expsum.scan", params, [payload], args.out, t0)
    return 0


def cmd_expsum_bilinear(args) -> int:
    t0 = time.perf_counter()
    gamma = _parse_gamma(args.gamma)
    lhs, rhs = bilinear_check(args.N, args.M, args.u, args.v, args.j, gamma, args.s)
    err = abs(lhs - rhs)
    passed = err <= 1e-6 * abs(lhs) + 1e-9
    doc = {
        "N": args.N,
        "M": args.M,
        "u": args.u,
        "v": args.v,
        "j": args.j,
        "gamma": args.gamma,
        "s": args.s,
        "lhs_re": lhs.real,
        "lhs_im": lhs.imag,
        "rhs_re": rhs.real,
        "rhs_im": rhs.imag,
        "abs_error": err,
        "passed": passed,
        "verdict": "PASS" if passed else "FAIL",
    }
    params = {k: doc[k] for k in ("N", "M", "u", "v", "j", "gamma", "s")}
    _emit("expsum.bilinear", params, [_json(doc)], args.out, t0)
    return 0 if passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psqr",
        description="Quadratic-residue sign patterns along Piatetski-Shapiro primes",
    )
    parser.add_argument("--version", action="version", version=f"psqr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="square-subset family of a set")
    p.add_argument("set", help="comma-separated positive integers, e.g. 2,3,6")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("predict", help="closed-form density predictions")
    p.add_argument("set")
    p.add_argument("--c", default="1", help="exponent as an exact fraction, e.g. 11/10")
    p.add_argument("--x", help="window base for the main-term counts, e.g. 1e6")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("census", help="empirical sign-pattern census")
    p.add_argument("set")
    p.add_argument("--c", default="1")
    p.add_argument("--x", help="dyadic window (x, 2x]")
    p.add_argument("--range", help="absolute window lo,hi")
    p.add_argument("--source", choices=("ps", "all"), default="ps",
                   help="all: every prime in the window, the PS primes at c = 1")
    p.add_argument("--prime-file", help="census this prime list instead of a window")
    # argparse converts a string default with type, so a bad PSQR_THREADS exits 2
    p.add_argument("--threads", type=int, default=os.environ.get("PSQR_THREADS", "1"))
    p.add_argument("--block-size", type=int, default=BLOCK_SIZE)
    p.add_argument("--csv", action="store_true", help="CSV report instead of JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("psprimes", help="write a Piatetski-Shapiro prime list")
    p.add_argument("--c", required=True)
    p.add_argument("--range", required=True, help="n-window lo,hi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_psprimes)

    p = sub.add_parser("expsum", help="exponential-sum workbench")
    esub = p.add_subparsers(dest="subcommand", required=True)

    q = esub.add_parser("vaughan", help="check the three-term decomposition at n")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--u", type=float, required=True)
    q.add_argument("--v", type=float, required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_vaughan)

    q = esub.add_parser("psistar", help="sawtooth majorant grid check")
    q.add_argument("--J", type=int, required=True)
    q.add_argument("--grid", type=int, default=100_000)
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_psistar)

    q = esub.add_parser("scan", help="cancellation ratios across dyadic ranges")
    q.add_argument("--gamma", required=True, help="fraction, e.g. 205/243")
    q.add_argument("--s", type=int, required=True, help="squarefree character argument")
    q.add_argument("--n-list", help="comma-separated N values (default 2^12..2^20)")
    q.add_argument("--J", type=int, help="fixed truncation (default N^(1-gamma) log N)")
    q.add_argument("--json", action="store_true", help="JSON report instead of CSV")
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_scan)

    q = esub.add_parser("bilinear", help="Vaughan bilinear rearrangement check")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--M", type=int, required=True)
    q.add_argument("--u", type=float, required=True)
    q.add_argument("--v", type=float, required=True)
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--gamma", required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_bilinear)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimit, MemoryError, BrokenProcessPool) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
