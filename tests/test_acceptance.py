"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the archived cancellation table.
"""

import dataclasses
import random
import time
from functools import lru_cache

from psqr.census import CensusConfig, run_census
from psqr.expsums import bilinear_check, cancellation_scan, majorant_check, vaughan, von_mangoldt
from psqr.kernels import brute_force_family, square_subset_family
from psqr.predict import qr_count_asymptotic
from psqr.psprimes import PsPrimeRange, RationalExponent, floor_pow, primes_up_to
from psqr.residues import jacobi, legendre_euler

C1 = RationalExponent(1, 1)
C11 = RationalExponent(11, 10)

_CENSUS_CONFIGS = {
    "thm1_c1": CensusConfig(elements=(2, 3), primes=PsPrimeRange(C1, 10**6, 2 * 10**6)),
    "thm1_c11": CensusConfig(elements=(2, 3), primes=PsPrimeRange(C11, 10**6, 2 * 10**6)),
    "zero_c1": CensusConfig(elements=(2, 3, 6), primes=PsPrimeRange(C1, 5 * 10**6, 10**7)),
    "zero_c11": CensusConfig(elements=(2, 3, 6), primes=PsPrimeRange(C11, 10**5, 2 * 10**5)),
}


@lru_cache(maxsize=None)
def _census(key: str, threads: int = 1):
    return run_census(dataclasses.replace(_CENSUS_CONFIGS[key], threads=threads))


def _verdict(num: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"CRITERION {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print("\n" + line)
    assert passed, line


def test_criterion_01_family_oracle_equivalence():
    rng = random.Random(20250810)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        size = rng.randrange(1, 8)
        elements = tuple(rng.sample(range(1, 10**4 + 1), size))
        fam = square_subset_family(elements)
        oracle = brute_force_family(elements)
        if (
            fam.family_count != oracle.family_count
            or fam.parity_sum != oracle.parity_sum
            or fam.members != oracle.members
        ):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "family oracle equivalence (500 sets)",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches} runtime={elapsed:.2f}s (budget 5s)",
    )


def test_criterion_02_named_family_values():
    expected = {
        (2, 3, 6): (1, -1),
        (2, 8): (1, 1),
        (2, 3): (0, 0),
        (4,): (1, -1),
        (1,): (1, -1),
    }
    bad = []
    for S, want in expected.items():
        fam = brute_force_family(S)
        got = (fam.family_count, fam.parity_sum)
        if got != want or (square_subset_family(S).family_count, square_subset_family(S).parity_sum) != want:
            bad.append((S, got, want))
    _verdict(2, "named family values", not bad, f"failures={bad}" if bad else "5 sets checked")


def test_criterion_03_all_residue_density_at_c1():
    t0 = time.perf_counter()
    report = _census("thm1_c1", threads=1)
    elapsed = time.perf_counter() - t0
    dev = abs(report.qr_fraction - 0.25)
    _verdict(
        3,
        "all-residue density at c=1, window (1e6, 2e6]",
        dev <= 0.01 and elapsed < 30.0,
        f"qr_fraction={report.qr_fraction:.5f} |dev|={dev:.5f} (tol 0.01) runtime={elapsed:.1f}s (budget 30s)",
    )


def test_criterion_04_all_residue_density_at_ps_exponent():
    t0 = time.perf_counter()
    report = _census("thm1_c11", threads=1)
    elapsed = time.perf_counter() - t0
    dev = abs(report.qr_fraction - 0.25)
    main = qr_count_asymptotic((2, 3), C11, 10**6)
    count_ratio = report.qr_count / main
    ok = dev <= 0.02 and abs(count_ratio - 1.0) <= 0.10 and elapsed < 300.0
    _verdict(
        4,
        "all-residue density and main-term count at c=11/10",
        ok,
        f"qr_fraction={report.qr_fraction:.5f} (tol 0.02) qr_count={report.qr_count} "
        f"main_term={main:.0f} ratio={count_ratio:.4f} (tol 10%) runtime={elapsed:.1f}s (budget 300s)",
    )


def test_criterion_05_all_minus_structural_zero():
    r1 = _census("zero_c1", threads=1)
    r2 = _census("zero_c11", threads=1)
    ok = r1.nqr_count == 0 and r2.nqr_count == 0
    _verdict(
        5,
        "all-minus pattern structurally impossible for {2,3,6}",
        ok,
        f"nqr_count c=1 (5e6,1e7]={r1.nqr_count} c=11/10 (1e5,2e5]={r2.nqr_count}",
    )


def test_criterion_06_parity_obstruction():
    rng = random.Random(424242)
    violations = []
    for _ in range(500):
        size = rng.randrange(1, 8)
        elements = tuple(rng.sample(range(1, 10**4 + 1), size))
        fam = square_subset_family(elements)
        if fam.parity_sum == -1 and fam.family_count % 2 == 0:
            violations.append(elements)
        if fam.parity_sum < -1:
            violations.append(elements)
    _verdict(6, "parity obstruction (sum=-1 forces odd family)", not violations, f"violations={violations}" if violations else "500 sets checked")


def test_criterion_07_vaughan_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    bad = 0
    for n in range(31, 5001):
        lam = von_mangoldt(n)
        err = abs(vaughan(n, 30.0, 30.0) - lam)
        tol = 1e-9 * (1.0 + lam)
        worst = max(worst, err)
        if err >= tol:
            bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        "Vaughan identity exactness, u=v=30, n in [31,5000]",
        bad == 0 and elapsed < 5.0,
        f"violations={bad} worst_abs_err={worst:.2e} runtime={elapsed:.2f}s (budget 5s)",
    )


def test_criterion_08_psi_star_majorant():
    results = {J: majorant_check(J, grid_points=100_000, tol=1e-12) for J in (10, 100, 1000)}
    ok = all(r["passed"] for r in results.values())
    detail = " ".join(
        f"J={J}: err-delta<={r['max_err_minus_delta']:.1e} min_delta={r['min_delta']:.1e}"
        for J, r in results.items()
    )
    _verdict(8, "psi* majorant on 1e5-point grids", ok, detail)


def test_criterion_09_bilinear_rearrangement():
    rng = random.Random(314159)
    draws = 0
    failures = []
    worst = 0.0
    while draws < 50:
        N = rng.randrange(100, 10**4 + 1)
        M = rng.randrange(N + 10, 2 * N + 1)
        u = rng.uniform(1.0, 25.0)
        v = rng.uniform(1.0, min(25.0, N))
        if u * v >= M:
            continue
        j = rng.randrange(0, 50)
        gamma = rng.uniform(0.551, 1.0)
        s = rng.choice([1, 2, 3, 5, 6, 7, 10, 11, 13, 15])
        lhs, rhs = bilinear_check(N, M, u, v, j, gamma, s)
        err = abs(lhs - rhs)
        tol = 1e-6 * abs(lhs) + 1e-9
        worst = max(worst, err)
        if err > tol:
            failures.append((N, M, u, v, j, gamma, s, err))
        draws += 1
    _verdict(
        9,
        "bilinear rearrangement (50 random draws)",
        not failures,
        f"worst_abs_err={worst:.2e}" + (f" failures={failures[:3]}" if failures else ""),
    )


def test_criterion_10_jacobi_oracle():
    jacobi(3, 7)  # one call before the clock starts, so only the sweep is timed
    t0 = time.perf_counter()
    mismatches = 0
    for p in primes_up_to(10**4 - 1)[1:]:
        p = int(p)
        for a in range(p):
            if jacobi(a, p) != legendre_euler(a, p):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        10,
        "jacobi vs Euler oracle, all odd p < 1e4, all a",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches} runtime={elapsed:.1f}s (budget 10s)",
    )


def test_criterion_11_floor_exactness():
    t0 = time.perf_counter()
    bad = 0
    for n in range(1, 10**6 + 1):
        m = floor_pow(n, C11)
        npow = n**11
        if not (m**10 <= npow < (m + 1) ** 10):
            bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        11,
        "floor exactness, c=11/10, n <= 1e6",
        bad == 0 and elapsed < 60.0,
        f"violations={bad} runtime={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_12_cancellation_exhibit():
    gamma = 205 / 243
    report = cancellation_scan(gamma, 3, [1 << k for k in range(12, 21)])
    print("\n  cancellation table (gamma=205/243, s=3):")
    print("  " + report.to_csv().replace("\n", "\n  ").rstrip())
    first = report.rows[0].ratio
    last = report.rows[-1].ratio
    _verdict(
        12,
        "cancellation exhibit |L2|/N^gamma over 2^12..2^20",
        last < 0.5 * first,
        f"initial={first:.6f} final={last:.6f} final/initial={last / first:.4f} (soft threshold 0.5)",
    )


def test_criterion_13_thread_determinism():
    configs = ["thm1_c1", "thm1_c11", "zero_c1", "zero_c11"]
    diffs = []
    for key in configs:
        base = _census(key, threads=1).to_json()
        for t in (4, 8):
            if _census(key, threads=t).to_json() != base:
                diffs.append((key, t))
    _verdict(
        13,
        "criteria 3-5 reports byte-identical at threads 1/4/8",
        not diffs,
        f"diffs={diffs}" if diffs else f"{len(configs)} configs x 3 thread counts",
    )
