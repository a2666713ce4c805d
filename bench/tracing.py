"""Per-layer figures from one traced pass, measured from outside the program.

Each operation of pass 0 runs three times: as a CLI process (checked, and the
reference bytes), in-process through psqr.cli.main untraced, and in-process
traced. In-process runs use --threads 1, because spans inside pool workers
would be lost. Tracing wraps the public functions of each psqr module:

- a name imported by value is rebound in every psqr module that holds it;
- _ps_block looks up is_prime and integer_nth_root as psqr.psprimes globals at
  call time, so rebinding those globals reaches it;
- generators (ps_primes_in, primes_in_range) are timed per next().

Hot leaf calls (symbols, primality, roots, one next() of a stream) are only
aggregated; the other calls are also kept as spans (name, start, end,
parent) to check that children nest. A name's self time is its duration
minus the time of the calls made inside it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import harness
from workloads import make_pass

LAYERS = ("cli", "census", "psprimes", "residues", "predict", "kernels", "expsums")
SELF_SUM_TOLERANCE = 0.05  # layer self times must sum to the op's wall within this share
PAIR_REPEATS = 3


class Tracer:
    """Spans and counts for one operation, held in memory."""

    def __init__(self) -> None:
        self.stack: list[list] = []        # [name, start, child_time, span index or None]
        self.spans: list[list] = []        # [name, start, end, parent span index]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.negative_self = 0

    def enter(self, name: str, record: bool) -> None:
        span = None
        if record:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        start = time.perf_counter()
        if span is not None:
            self.spans[span][1] = start
        self.stack.append([name, start, 0.0, span])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span = self.stack.pop()
        dur = end - start
        if dur - child < 0:
            self.negative_self += 1
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if span is not None:
            self.spans[span][2] = end

    def nesting_errors(self) -> int:
        bad = 0
        for name, start, end, parent in self.spans:
            if end < start:
                bad += 1
            elif parent is not None:
                _, p_start, p_end, _ = self.spans[parent]
                bad += not p_start <= start <= end <= p_end
        return bad

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".", 1)[0]] += self_s
        return out


def _call(tracer: Tracer, name: str, fn, record: bool, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result is not None:
            on_result(args, result)
        return result
    return wrapper


def _leaf(tracer: Tracer, name: str, fn):
    """Lean wrapper for hot functions that call nothing traced."""
    tot, stack, clock = tracer.totals[name], tracer.stack, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args):
        t0 = clock()
        result = fn(*args)
        dur = clock() - t0
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur
        if stack:
            stack[-1][2] += dur
        return result
    return wrapper


def _gen(tracer: Tracer, name: str, fn, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args)
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name, False)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            tracer.counts[name + ".items"] += 1
            yield item
    return wrapper


class Patches:
    """Rebinds functions in every loaded psqr module; undo() restores them."""

    def __init__(self) -> None:
        self.saved: list[tuple] = []

    def everywhere(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "psqr" and not modname.startswith("psqr."):
                continue
            for attr in [a for a, v in vars(mod).items() if v is original]:
                self.saved.append((mod, attr, original))
                setattr(mod, attr, replacement)

    def attribute(self, owner, attr: str, replacement) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


# (module, function, traced name, how): "span" is kept as a span, "call" only
# aggregated, "leaf" aggregated by the lean wrapper, "gen" timed per next().
TARGETS = (
    ("census", "run_census", "census.run", "span"),
    ("census", "_census_block", "census.block", "span"),
    ("census", "read_prime_file", "census.read_prime_file", "span"),
    ("predict", "parity_analysis", "predict.parity_analysis", "span"),
    ("expsums", "cancellation_scan", "expsums.scan", "span"),
    ("expsums", "bilinear_check", "expsums.bilinear", "span"),
    ("expsums", "von_mangoldt_sieve", "expsums.von_mangoldt_sieve", "span"),
    ("kernels", "factorize", "kernels.factorize", "call"),
    ("psprimes", "is_prime", "psprimes.is_prime", "leaf"),
    ("psprimes", "integer_nth_root", "psprimes.integer_nth_root", "leaf"),
    ("residues", "jacobi", "residues.jacobi", "leaf"),
    ("psprimes", "ps_primes_in", "psprimes.stream", "gen"),
    ("psprimes", "primes_in_range", "psprimes.primes_in_range", "gen"),
)


def install(tracer: Tracer, psqr) -> Patches:
    """Wrap every target that exists; a function the program no longer has is
    not traced, and its figures read 0."""
    counts = tracer.counts

    def scanned(args) -> None:
        counts["psprimes.n_scanned"] += args[0].hi - args[0].lo

    def read(args, primes) -> None:
        counts["census.primes_read"] += len(primes)

    hooks = {"psprimes.stream": scanned, "census.read_prime_file": read}
    p = Patches()
    for module, attr, name, how in TARGETS:
        fn = getattr(getattr(psqr, module), attr, None)
        if fn is None:
            continue
        if how == "leaf":
            wrapped = _leaf(tracer, name, fn)
        elif how == "gen":
            wrapped = _gen(tracer, name, fn, hooks.get(name))
        else:
            wrapped = _call(tracer, name, fn, how == "span", hooks.get(name))
        p.everywhere(fn, wrapped)

    expansion = getattr(psqr.expsums, "TruncatedExpansion", None)
    if expansion is not None:
        psi_star = expansion.psi_star

        def psi_star_counted(self, x):
            counts["expsums.psi_star_terms"] += self.J * np.asarray(x).size
            return psi_star(self, x)

        p.attribute(expansion, "psi_star", _call(tracer, "expsums.psi_star", psi_star_counted, False))
    return p


def _fresh_state(psqr) -> None:
    """Drop the caches a fresh CLI process would not have."""
    if hasattr(psqr.psprimes, "_base_primes"):
        psqr.psprimes._base_primes = np.array([2, 3, 5, 7], dtype=np.int64)
    getattr(psqr.residues, "_prime_verdicts", {}).clear()
    for name in ("von_mangoldt_sieve", "mobius_sieve"):
        fn = getattr(psqr.expsums, name, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _in_process(psqr, argv: list[str], tracer: Tracer | None) -> tuple[int, float, bytes]:
    """Run psqr.cli.main(argv); returns (exit code, wall, report bytes)."""
    _fresh_state(psqr)
    out, err = io.StringIO(), io.StringIO()
    patches = install(tracer, psqr) if tracer is not None else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.enter("cli.main", True)
            try:
                rc = psqr.cli.main(argv)
            finally:
                if tracer is not None:
                    tracer.exit()
            wall = time.perf_counter() - t0
    finally:
        if patches is not None:
            patches.undo()
    if "--out" in argv:
        return rc, wall, Path(argv[argv.index("--out") + 1]).read_bytes()
    return rc, wall, out.getvalue().encode("utf-8")


def _single_threaded(argv: list[str]) -> list[str]:
    argv = list(argv)
    if "--threads" in argv:
        argv[argv.index("--threads") + 1] = "1"
    return argv


def _per_call_us(fn, args: list[tuple], repeats: int = 5) -> float:
    def once() -> float:
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(repeats)) / len(args) * 1e6


def microbenchmarks(psqr, seed: int, scale: float = 1.0) -> dict[str, float]:
    """Microseconds per call of the hot arithmetic, on seeded arguments."""
    rng = random.Random(f"micro/{seed}")

    def calls(n: int) -> range:
        return range(max(10, int(n * scale)))

    pp, RE = psqr.psprimes, psqr.psprimes.RationalExponent
    c1, c2 = RE(11, 10), RE(243, 205)
    near_2_50 = [(rng.randrange(1 << 49, 1 << 50) << 1) | 1 for _ in calls(2000)]
    return {
        "psprimes.floor_pow_us_11-10": _per_call_us(
            pp.floor_pow, [(rng.randint(600_000, 1_200_000), c1) for _ in calls(2000)]),
        "psprimes.floor_pow_us_243-205": _per_call_us(
            pp.floor_pow, [(rng.randint(65_000, 130_000), c2) for _ in calls(200)]),
        "psprimes.is_prime_us": _per_call_us(pp.is_prime, [(m,) for m in near_2_50]),
        "residues.jacobi_us": _per_call_us(
            psqr.residues.jacobi,
            [(rng.randint(2, 500_000), rng.randrange(5_000_001, 12_000_000, 2))
             for _ in calls(20_000)]),
    }


def import_seconds(work: Path, samples: int = 5) -> tuple[float, list]:
    """Median time of `import psqr.cli` in a fresh interpreter, timed inside it."""
    code = "import time; t = time.perf_counter(); import psqr.cli; print(time.perf_counter() - t)"
    values, results = [], []
    for _ in range(samples):
        rc, wall, cpu, rss, out, err = harness.run_process(["-c", code], work)
        res = harness.OpResult({"argv": ["-c", "import psqr.cli"], "kind": "import"},
                               ["-c", code], rc, wall, cpu, rss, out, err)
        try:
            values.append(float(out))
        except ValueError:
            res.failures.append(f"import psqr.cli failed with exit code {rc}")
        results.append(res)
    return (statistics.median(values) if values else 0.0), results


def traced_run(workload: str, seed: int, work: Path,
               scale: float = 1.0) -> tuple[dict, list, list[str]]:
    """Returns (per-layer metrics, every checked OpResult, trace integrity failures)."""
    results = harness.run_pass(make_pass(workload, seed, 0, scale), work,
                               harness.expected_for(workload, seed))

    if str(harness.SRC) not in sys.path:
        sys.path.insert(0, str(harness.SRC))
    import psqr
    import psqr.cli

    failures: list[str] = []
    tracers = []
    untraced_s = traced_s = 0.0
    for res in results:
        argv = _single_threaded(res.argv)
        rc, wall, plain = _in_process(psqr, argv, None)
        tracer = Tracer()
        t_rc, t_wall, traced = _in_process(psqr, argv, tracer)
        untraced_s += wall
        traced_s += t_wall
        tracers.append(tracer)
        label = " ".join(res.op["argv"])
        if rc != 0 or t_rc != 0:
            failures.append(f"{label}: in-process exit codes {rc}, {t_rc}")
        if plain != res.report or traced != res.report:
            failures.append(f"{label}: in-process report bytes differ from the CLI report")
        if tracer.nesting_errors():
            failures.append(f"{label}: {tracer.nesting_errors()} spans lie outside their parent")
        if tracer.negative_self:
            failures.append(f"{label}: {tracer.negative_self} calls have negative self time")
        self_sum = sum(tracer.layer_self().values())
        if abs(self_sum - t_wall) > SELF_SUM_TOLERANCE * t_wall:
            failures.append(f"{label}: layer self times sum to {self_sum:.4f} s, "
                            f"op wall is {t_wall:.4f} s")

    totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: Counter = Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for tracer in tracers:
        for name, vals in tracer.totals.items():
            totals[name] = [a + b for a, b in zip(totals[name], vals)]
        counts.update(tracer.counts)
        for layer, v in tracer.layer_self().items():
            layer_self[layer] += v

    def calls(name: str) -> int:
        return totals[name][0]

    def total(name: str) -> float:
        return totals[name][1]

    def ratio(a: float, b: float, factor: float = 1.0) -> float:
        return a / b * factor if b else 0.0

    # census.parallel_eff: one census_ps operation at 2 and at 1 workers, in
    # alternating order, PAIR_REPEATS times
    pair_ops = make_pass("census_ps", seed, 0, scale)[:2]
    effs = []
    for i in range(PAIR_REPEATS):
        pair = harness.run_pass(pair_ops[:: 1 - 2 * (i % 2)], work,
                                harness.expected_for("census_ps", seed))
        results += pair
        wall = {r.op["argv"][r.op["argv"].index("--threads") + 1]: r.wall_s for r in pair}
        effs.append(wall["1"] / (2 * wall["2"]))
    import_s, import_results = import_seconds(work)
    results += import_results

    n_scanned = counts["psprimes.n_scanned"]
    values = {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "census.run_s": (total("census.run"), "s"),
        "census.self_s": (layer_self["census"], "s"),
        "census.blocks": (calls("census.block"), "count"),
        "census.read_prime_file_s": (total("census.read_prime_file"), "s"),
        "census.read_us_per_prime": (
            ratio(total("census.read_prime_file"), counts["census.primes_read"], 1e6), "us"),
        "census.parallel_eff": (statistics.median(effs), "ratio"),
        "psprimes.stream_s": (total("psprimes.stream"), "s"),
        "psprimes.stream_ns_per_n": (ratio(total("psprimes.stream"), n_scanned, 1e9), "ns"),
        "psprimes.n_scanned": (n_scanned, "count"),
        "psprimes.prime_yield": (ratio(counts["psprimes.stream.items"], n_scanned), "ratio"),
        "psprimes.exact_roots": (calls("psprimes.integer_nth_root"), "count"),
        "psprimes.is_prime_calls": (calls("psprimes.is_prime"), "count"),
        "psprimes.is_prime_s": (total("psprimes.is_prime"), "s"),
        "psprimes.primes_in_range_s": (total("psprimes.primes_in_range"), "s"),
        "residues.jacobi_calls": (calls("residues.jacobi"), "count"),
        "residues.jacobi_s": (total("residues.jacobi"), "s"),
        "predict.parity_analysis_s": (total("predict.parity_analysis"), "s"),
        "kernels.factorize_calls": (calls("kernels.factorize"), "count"),
        "expsums.scan_s": (total("expsums.scan"), "s"),
        "expsums.bilinear_s": (total("expsums.bilinear"), "s"),
        "expsums.psi_star_s": (total("expsums.psi_star"), "s"),
        "expsums.psi_star_terms": (counts["expsums.psi_star_terms"], "count"),
        "expsums.von_mangoldt_sieve_s": (total("expsums.von_mangoldt_sieve"), "s"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
    }
    for name, v in microbenchmarks(psqr, seed, scale).items():
        values[name] = (v, "us")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(values.items())}
    return metrics, results, failures
