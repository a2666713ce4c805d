"""The four seeded workloads: which CLI runs make up one pass, and why.

A pass is a fixed list of operations; each operation is one `python -m
psqr.cli` process. Pass k of (workload, seed) is drawn from its own
random.Random("workload/seed/k"), so the same workload and seed always give
the same argv. Sizes come from narrow bands so a pass costs about the same on
every seed. `scale` shrinks the windows for the self-test and is 1 otherwise.

An operation is a dict: "argv" (with "{work}" standing for the run's scratch
directory), "kind" (census, psprimes, scan or bilinear) and the parameters its
checks need.
"""

from __future__ import annotations

import random
from fractions import Fraction

SMALL_ELEMENTS = range(2, 41)
# a prime, an even and an odd composite whose symbols cost about the same
# (the symbol loop takes ~log s steps, so a wider choice widens the cost band)
SQUAREFREE_S = (5, 10, 15)
SCAN_LADDER = tuple(1 << k for k in range(12, 21))  # the CLI's default N list


def _band(rng: random.Random, lo: float, hi: float, scale: float) -> int:
    return max(1, int(rng.uniform(lo, hi) * scale))


def _set_arg(elements) -> str:
    return ",".join(map(str, elements))


def _census(elements, c, *, x=None, window=None, source="ps", threads=1, prime_files=()):
    """A census op; with prime_files, the files are joined in order into one
    list that the census reads."""
    num, den = c
    argv = ["census", _set_arg(elements), "--c", f"{num}/{den}"]
    prime_file = None
    if prime_files:
        prime_file = "{work}/" + "+".join(f.rsplit("/", 1)[-1] for f in prime_files)
        argv += ["--prime-file", prime_file]
        window, source = None, "file"
    elif x is not None:
        argv += ["--x", str(x)]
        window = (x, 2 * x)
    else:
        argv += ["--range", f"{window[0]},{window[1]}"]
    if source == "all":
        argv += ["--source", "all"]
    argv += ["--threads", str(threads)]
    return {"argv": argv, "kind": "census", "elements": tuple(elements), "c": c,
            "window": window, "source": source, "file": prime_file, "sources": prime_files}


def census_ps(rng: random.Random, scale: float) -> list[dict]:
    """Dyadic PS-prime censuses at c=11/10, the same census at one worker, and
    one census at c=243/205.

    Why: the [n^c] stream (floor certification plus the segment sieve) is most
    of a c=11/10 census and nearly all of a c=243/205 one, where every floor
    is certified with n^243. It is the only workload that uses the process
    pool, so vectorised PS blocks, block sizing and pool overhead show here.
    """
    pair = rng.sample(SMALL_ELEMENTS, 2)
    # x must exceed prod(S)**gamma: up to ~1.6e3 for two elements at c=11/10
    # and ~1.1e4 for three at c=243/205, which bounds how far scale may shrink
    x = _band(rng, 6.0e5, 6.3e5, max(scale, 0.01))
    triple = rng.sample(SMALL_ELEMENTS, 3)
    x_rw = _band(rng, 6.5e4, 6.8e4, max(scale, 0.2))
    return [
        _census(pair, (11, 10), x=x, threads=2),
        _census(pair, (11, 10), x=x, threads=1),
        _census(triple, (243, 205), x=x_rw, threads=2),
    ]


def _s8(rng: random.Random) -> list[int]:
    """Eight elements from fixed size bands, primes and composites mixed,
    including a square subset {p, q, pq} so the prediction has structural zeros."""
    small_primes = [p for p in range(3, 48) if all(p % d for d in range(2, p))]
    p, q = rng.sample(small_primes, 2)
    out = [p, q, p * q]
    for lo, hi in ((50, 100), (100, 1000), (1000, 5000), (5000, 50_000), (50_000, 500_000)):
        v = rng.randint(lo, hi)
        while v in out:
            v += 1
        out.append(v)
    rng.shuffle(out)
    return out


def census_all(rng: random.Random, scale: float) -> list[dict]:
    """One plain-prime census of an 8-element set over a 3e6-wide window.

    Why: symbol evaluation and the histogram loop are nearly all of this run;
    the sieve is a few percent and floor certification and the pool do no
    work. Symbol tables should show here; PS-stream work should not.
    """
    lo = _band(rng, 6.0e6, 6.5e6, scale)
    return [_census(_s8(rng), (1, 1), window=(lo, lo + int(3e6 * scale)), source="all")]


def _psprimes(lo: int, hi: int, out: str) -> dict:
    return {"argv": ["psprimes", "--c", "11/10", "--range", f"{lo},{hi}", "--out", out],
            "kind": "psprimes", "c": (11, 10), "window": (lo, hi), "file": out}


def ingest(rng: random.Random, scale: float) -> list[dict]:
    """Write a PS prime list above 2**52 and a dense one near n = 1e6, then
    census both back from one file: the dense list followed by the sparse one.

    Why: above 2**52 psprimes takes the exact path (an integer root for every
    n, Miller-Rabin for every candidate), and reading a prime file runs
    Miller-Rabin on every line. A change that speeds the float-plus-sieve path
    must not cost this one, and faster file verification shows here; the
    joined file has a dense run and a sparse run. One census of both lists
    keeps every operation above a second, so start-up stays a minority.
    """
    big_lo = _band(rng, 2.00e14, 2.02e14, 1.0)
    big_hi = big_lo + int(1.2e5 * max(scale, 0.02))
    dense_lo = _band(rng, 1.00e6, 1.05e6, 1.0)
    dense_hi = dense_lo + int(5.0e5 * max(scale, 0.02))
    pair = rng.sample(SMALL_ELEMENTS, 2)
    # file names carry the n-window, so a census argv names the lists it reads
    big, dense = f"{{work}}/ps-{big_lo}-{big_hi}.txt", f"{{work}}/ps-{dense_lo}-{dense_hi}.txt"
    return [
        _psprimes(big_lo, big_hi, big),
        _psprimes(dense_lo, dense_hi, dense),
        _census(pair, (11, 10), prime_files=(dense, big)),
    ]


def expsum(rng: random.Random, scale: float) -> list[dict]:
    """One cancellation scan over the default 2^12..2^20 ladder and one
    bilinear rearrangement check, at gamma near 205/243.

    Why: psi* evaluation and symbols over consecutive odd n dominate the scan,
    pure-Python loops and symbols the bilinear check. Neither touches the PS
    stream or the census, so this is the no-change control for stream and
    census work, and the second consumer of symbol tables.
    """
    # psi* costs J ~ N^(1-gamma) log N terms per point, so a 1% cost band
    # needs |gamma - 205/243| below ~5e-4
    gamma = Fraction(rng.randint(20450, 20550), 24300)
    s = rng.choice(SQUAREFREE_S)
    ladder = [n for n in SCAN_LADDER if n <= max(SCAN_LADDER[0], SCAN_LADDER[-1] * scale)]
    scan = ["expsum", "scan", "--gamma", str(gamma), "--s", str(s), "--json"]
    if scale != 1.0:
        scan += ["--n-list", ",".join(map(str, ladder))]
    n = _band(rng, 2.0e5, 2.1e5, max(scale, 0.005))  # u*v = 900 must stay below M
    bilinear = ["expsum", "bilinear", "--N", str(n), "--M", str(2 * n), "--u", "30",
                "--v", "30", "--j", str(rng.randint(1, 3)), "--gamma", str(gamma), "--s", str(s)]
    return [
        {"argv": scan, "kind": "scan", "gamma": gamma, "s": s, "n_list": ladder},
        {"argv": bilinear, "kind": "bilinear", "N": n, "M": 2 * n},
    ]


WORKLOADS = {
    "census_ps": census_ps,
    "census_all": census_all,
    "ingest": ingest,
    "expsum": expsum,
}


def make_pass(workload: str, seed: int, index: int, scale: float = 1.0) -> list[dict]:
    """Pass `index` of (workload, seed); pass 0 is the untimed warm-up."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return WORKLOADS[workload](rng, scale)


def op_key(op: dict) -> str:
    """The argv as one string; the key of the expected-checksum table."""
    return " ".join(op["argv"])
