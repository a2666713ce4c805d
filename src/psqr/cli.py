"""Command-line entry point: reproducible runs with machine-readable reports.

Each command turns its parsed options into report chunks and a verdict;
main alone times the run, emits it and picks the exit code. The report
streams to stdout, or to --out, which appears only once complete; then a
run manifest (command, params, version, wall time, output checksum,
environment, and a census's worker processes) goes to stderr, and with
--out next to the report too. Its params are the options exactly as parsed,
defaults included, less --out.
A command that fails emits no manifest. A command loads only the psqr
modules it runs, which main imports before it starts the run timer.

Exit codes: 0 success, 2 usage or parse error or an unusable path (any
OSError, such as a missing --prime-file or --out directory), 3 failed
numerical check, 4 resource limit (an integer or value budget, a value too
large for a float, a set too large, memory exhausted, or a census worker
process that died).
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import platform
import re
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import __version__, usable_cpus
from .errors import CheckFailed, Overflow, PreconditionViolated, ResourceLimit, UsageError
from .psprimes import BLOCK_SIZE, PsPrimeRange, RationalExponent, ps_prime_array

try:  # CPython's own SHA-256, as random.py takes sha512, so no run maps OpenSSL's libcrypto
    from _sha2 import sha256 as _builtin_sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256 as _builtin_sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _builtin_sha256


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
    except OverflowError:
        raise Overflow(f"gamma {text!r} is too large for a float") from None


def _params(args) -> dict:
    """The options as parsed, defaults included, less those that route the
    run or place its report, and the census's worker count."""
    routing = ("func", "modules", "command", "subcommand", "out", "workers")
    return {k: v for k, v in vars(args).items() if k not in routing}


def _emit(args, chunks: Iterable[str], t0: float) -> None:
    """Write the report, hashing and writing each chunk as it comes, then its
    run manifest, the reproducibility record, whose params are the options as
    parsed. With --out, the chunks go to a sibling temporary file that
    replaces it only once the last is written."""
    out = args.out
    digest = _builtin_sha256()
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
        "command": ".".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
        "params": _params(args),
        "version": __version__,
        "wall_time_s": round(time.perf_counter() - t0, 6),
        "output_sha256": digest.hexdigest(),
        # what bench numbers depend on; cpus is the expsum slices' thread count
        "env": {"python": platform.python_version(), "numpy": np.__version__, "cpus": usable_cpus(),
                "numba_importable": importlib.util.find_spec("numba") is not None,
                "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if hasattr(args, "workers"):
        manifest["workers"] = args.workers
    if out:
        with open(out + ".manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _checked(doc: dict, passed: bool) -> tuple[list[str], bool]:
    """A numerical check's report, with its verdict."""
    doc["passed"] = passed
    doc["verdict"] = "PASS" if passed else "FAIL"
    return [_json(doc)], passed


# -- commands: each takes the parsed options, then the psqr modules its parser
# names (set_defaults modules), and returns (report chunks, passed)

def cmd_family(args, kernels):
    fam = kernels.square_subset_family(_parse_set(args.set))
    return [_json(fam.to_json_dict())], True


def cmd_predict(args, predict):
    elements = _parse_set(args.set)
    c = RationalExponent.parse(args.c)
    pred = predict.parity_analysis(elements)
    doc = pred.to_json_dict()
    doc["c"] = str(c)
    doc["theorem_backed"] = c.theorem_backed
    if args.x is not None:
        x = _parse_count(args.x)
        main = predict.qr_count_asymptotic(elements, c, x)
        scale = main / float(pred.qr_density) if pred.qr_density else 0.0
        doc["x"] = x
        doc["qr_count_main_term"] = main
        doc["nqr_count_main_term"] = float(pred.nqr_density) * scale
    return [_json(doc)], True


def cmd_census(args, census):
    elements = _parse_set(args.set)
    c = RationalExponent.parse(args.c)
    if args.source == "all" and c != RationalExponent(1, 1):
        raise ValueError(f"--source all is the c = 1 stream; it conflicts with --c {c}")
    if args.source == "all" and args.prime_file is not None:
        raise PreconditionViolated("a census reads a prime_file or a window, not both")
    if args.prime_file is not None:
        primes = args.prime_file
    elif args.x is not None:
        x = _parse_count(args.x)
        primes = PsPrimeRange(c, x, 2 * x)
    else:
        primes = PsPrimeRange(c, *_parse_range(args.range))
    config = census.CensusConfig(elements, primes, args.block_size, args.threads)
    report = census.run_census(config)
    args.workers = report.workers  # processes that counted: the manifest's, not a param
    return [report.to_csv() if args.csv else report.to_json()], True


def cmd_psprimes(args):
    c = RationalExponent.parse(args.c)
    lo, hi = _parse_range(args.range)
    rng = PsPrimeRange(c, lo, hi)
    header = f"# psqr psprimes c={c} range=({lo},{hi}]\n"
    # each block's primes are written once certified, so memory holds one block
    primes = (ps_prime_array(*block)[1].tolist() for block in rng.blocks(BLOCK_SIZE))
    return itertools.chain([header], ("".join(f"{p}\n" for p in ps) for ps in primes)), True


def cmd_expsum_vaughan(args, expsums):
    value = expsums.vaughan(args.n, args.u, args.v)
    lam = expsums.von_mangoldt(args.n)
    err = abs(value - lam)
    doc = dict(_params(args), value=value, von_mangoldt=lam, abs_error=err)
    return _checked(doc, err < 1e-9 * (1.0 + abs(lam)))


def cmd_expsum_psistar(args, expsums):
    result = expsums.majorant_check(args.J, grid_points=args.grid)
    return _checked(result, result["passed"])


def cmd_expsum_scan(args, expsums):
    gamma = _parse_gamma(args.gamma)
    if args.n_list:
        n_list = [_parse_count(tok) for tok in args.n_list.split(",")]
    else:
        n_list = [1 << k for k in range(12, 21)]
    report = expsums.cancellation_scan(gamma, args.s, n_list, J=args.J)
    return [_json(report.to_json_dict()) if args.json else report.to_csv()], True


def cmd_expsum_bilinear(args, expsums):
    gamma = _parse_gamma(args.gamma)
    lhs, rhs = expsums.bilinear_check(args.N, args.M, args.u, args.v, args.j, gamma, args.s)
    err = abs(lhs - rhs)
    doc = dict(_params(args), lhs_re=lhs.real, lhs_im=lhs.imag,
               rhs_re=rhs.real, rhs_im=rhs.imag, abs_error=err)
    return _checked(doc, err <= 1e-6 * abs(lhs) + 1e-9)


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
    p.set_defaults(func=cmd_family, modules=("kernels",))

    p = sub.add_parser("predict", help="closed-form density predictions")
    p.add_argument("set")
    p.add_argument("--c", default="1", help="exponent as an exact fraction, e.g. 11/10")
    p.add_argument("--x", help="window base for the main-term counts, e.g. 1e6")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict, modules=("predict",))

    p = sub.add_parser("census", help="empirical sign-pattern census")
    p.add_argument("set")
    p.add_argument("--c", default="1")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--x", help="dyadic window (x, 2x]")
    source.add_argument("--range", help="absolute window lo,hi")
    source.add_argument("--prime-file", help="census this prime list instead of a window")
    p.add_argument("--source", choices=("ps", "all"), default="ps",
                   help="all: every prime in the window, the PS primes at c = 1")
    # argparse converts a string default with type, so a bad PSQR_THREADS exits 2
    p.add_argument("--threads", type=int, default=os.environ.get("PSQR_THREADS", "1"))
    p.add_argument("--block-size", type=int, default=BLOCK_SIZE)
    p.add_argument("--csv", action="store_true", help="CSV report instead of JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census, modules=("census",))

    p = sub.add_parser("psprimes", help="write a Piatetski-Shapiro prime list")
    p.add_argument("--c", required=True)
    p.add_argument("--range", required=True, help="n-window lo,hi")
    p.add_argument("--out")
    p.set_defaults(func=cmd_psprimes, modules=())

    p = sub.add_parser("expsum", help="exponential-sum workbench")
    esub = p.add_subparsers(dest="subcommand", required=True)

    q = esub.add_parser("vaughan", help="check the three-term decomposition at n")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--u", type=float, required=True)
    q.add_argument("--v", type=float, required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_vaughan, modules=("expsums",))

    q = esub.add_parser("psistar", help="sawtooth majorant grid check")
    q.add_argument("--J", type=int, required=True)
    q.add_argument("--grid", type=int, default=100_000)
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_psistar, modules=("expsums",))

    q = esub.add_parser("scan", help="cancellation ratios across dyadic ranges")
    q.add_argument("--gamma", required=True, help="fraction, e.g. 205/243")
    q.add_argument("--s", type=int, required=True, help="squarefree character argument")
    q.add_argument("--n-list", help="comma-separated N values (default 2^12..2^20)")
    q.add_argument("--J", type=int, help="fixed truncation (default N^(1-gamma) log N)")
    q.add_argument("--json", action="store_true", help="JSON report instead of CSV")
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_scan, modules=("expsums",))

    q = esub.add_parser("bilinear", help="Vaughan bilinear rearrangement check")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--M", type=int, required=True)
    q.add_argument("--u", type=float, required=True)
    q.add_argument("--v", type=float, required=True)
    q.add_argument("--j", type=int, required=True)
    q.add_argument("--gamma", required=True)
    q.add_argument("--s", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(func=cmd_expsum_bilinear, modules=("expsums",))

    return parser


def main(argv=None) -> int:
    """Run one command: the only place a run is timed, emitted and given its
    exit code."""
    args = build_parser().parse_args(argv)
    # only the command's own modules load, and before the run is timed
    modules = [importlib.import_module(f".{name}", __package__) for name in args.modules]
    t0 = time.perf_counter()
    try:
        chunks, passed = args.func(args, *modules)
        _emit(args, chunks, t0)
        return 0 if passed else 3
    except (ResourceLimit, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
