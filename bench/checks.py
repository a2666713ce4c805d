"""Correctness checks on psqr reports, in the benchmark's own integer code.

Nothing here imports psqr: primality, integer roots and Euler's criterion are
reimplemented so that a defect in the program cannot also hide in its check.
Every check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# Deterministic Miller-Rabin for n < 2**64 (Sinclair's seven bases); psqr uses
# the first twelve primes, so the two verdicts come from different witnesses.
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) by bisection on integers."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def ps_index(m: int, num: int, den: int) -> int:
    """The n with floor(n ** (num/den)) = m, or 0 if m is not such a floor."""
    r = iroot(m**den, num)
    n = r if r**num == m**den else r + 1
    return n if m**den <= n**num < (m + 1) ** den else 0


def euler_key(elements, p: int) -> str | None:
    """Sign-pattern key of the elements at odd prime p by Euler's criterion."""
    chars = []
    for s in elements:
        r = pow(s, (p - 1) // 2, p)
        if r == 0:
            return None
        chars.append("0" if r == 1 else "1")
    return "".join(chars)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_of(stderr: bytes) -> dict | None:
    """The run manifest, which the CLI prints as the last line of stderr."""
    lines = stderr.decode("utf-8", "replace").strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def check_envelope(rc: int, report: bytes, manifest: dict | None) -> list[str]:
    """Exit code 0 and a manifest whose checksum matches the report bytes."""
    if rc != 0:
        return [f"exit code {rc}"]
    if manifest is None:
        return ["no run manifest on stderr"]
    if manifest.get("output_sha256") != sha256(report):
        return ["manifest output_sha256 differs from the report bytes"]
    return []


def check_census(doc: dict, elements, sample_primes) -> list[str]:
    """Totals add up, structural zeros stay empty, and each sampled prime's
    Euler pattern is one the report counted."""
    fails = []
    counts = doc["pattern_counts"]
    if doc["total_primes"] != doc["skipped"] + sum(counts.values()):
        fails.append("total_primes != skipped + sum(pattern_counts)")
    densities = doc["predicted"]["pattern_densities"] or {}
    for key, dens in densities.items():
        if Fraction(dens) == 0 and counts.get(key, 0):
            fails.append(f"pattern {key} has predicted density 0 but count {counts[key]}")
    for p in sample_primes:
        key = euler_key(elements, p)
        if key is not None and counts.get(key, 0) < 1:
            fails.append(f"Euler pattern {key} of prime {p} is missing from the report")
    return fails


def sample_census_primes(rng: random.Random, op: dict, k: int) -> list[int]:
    """Up to k odd primes of a generated census population, found independently."""
    lo, hi = op["window"]
    num, den = op["c"]
    found = []
    for _ in range(200 * k):
        if len(found) == k:
            break
        n = rng.randint(lo + 1, hi)
        m = n if op["source"] == "all" else iroot(n**num, den)
        if m > 2 and is_prime(m):
            found.append(m)
    return found


def check_prime_list(report: bytes, num: int, den: int, lo: int, hi: int,
                     rng: random.Random, k: int) -> tuple[list[int], list[str]]:
    """Parse a psprimes list; sampled entries must be [n^c] primes with n in (lo, hi]."""
    primes = [int(line) for line in report.decode().splitlines()
              if line and not line.startswith("#")]
    fails = []
    if any(b <= a for a, b in zip(primes, primes[1:])):
        fails.append("prime list is not strictly ascending")
    for m in rng.sample(primes, min(k, len(primes))):
        n = ps_index(m, num, den)
        if not lo < n <= hi:
            fails.append(f"{m} is not floor(n^{num}/{den}) for any n in ({lo}, {hi}]")
        if not is_prime(m):
            fails.append(f"{m} is not prime")
    return primes, fails


def check_scan(doc: dict, gamma: Fraction, s: int, n_list) -> list[str]:
    """The ladder, the character and each ratio = |value| / N^gamma."""
    rows = doc["rows"]
    if [r["N"] for r in rows] != list(n_list) or any(r["M"] != 2 * r["N"] for r in rows):
        return ["scan rows do not follow the requested N ladder"]
    fails = []
    for r in rows:
        if r["s"] != s or not math.isfinite(r["value_re"]):
            fails.append(f"scan row N={r['N']} has a bad character or value")
            continue
        want = math.hypot(r["value_re"], r["value_im"]) / r["N"] ** float(gamma)
        if not math.isclose(r["ratio"], want, rel_tol=1e-9, abs_tol=1e-300):
            fails.append(f"scan row N={r['N']} ratio {r['ratio']} != {want}")
    return fails


def check_bilinear(doc: dict) -> list[str]:
    if doc.get("verdict") != "PASS":
        return [f"bilinear verdict {doc.get('verdict')!r}"]
    err = math.hypot(doc["lhs_re"] - doc["rhs_re"], doc["lhs_im"] - doc["rhs_im"])
    if err > 1e-6 * math.hypot(doc["lhs_re"], doc["lhs_im"]) + 1e-9:
        return [f"bilinear sides differ by {err}"]
    return []
