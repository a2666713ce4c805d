"""Census counting, sources, determinism, and report formats."""

import dataclasses
import json

import pytest

from psqr.census import (
    ALL_PRIMES,
    FILE,
    PS_PRIMES,
    CensusConfig,
    convergence_table,
    read_prime_file,
    run_census,
    write_prime_file,
)
from psqr.errors import BadPrimeFile, PreconditionViolated, SetTooLarge, WindowTooSmall
from psqr.psprimes import PsPrimeRange, RationalExponent, ps_primes_in

C1 = RationalExponent(1, 1)
C11 = RationalExponent(11, 10)


def test_census_tiny_window_all_residues():
    report = run_census(CensusConfig(elements=(1,), exponent=C1, lo=10, hi=20))
    assert report.total_primes == 4
    assert report.qr_count == 4
    assert report.nqr_count == 0
    assert report.pattern_counts == {"0": 4}
    assert report.max_abs_deviation == 0.0


def test_census_single_element_near_half():
    report = run_census(CensusConfig(elements=(2,), exponent=C1, x=10**4))
    assert abs(report.qr_fraction - 0.5) < 0.05
    assert report.skipped == 0


def test_census_conservation_and_skips():
    # window contains p = 2 (always skipped) plus 3 and 5, both dividing 15
    report = run_census(CensusConfig(elements=(15,), exponent=C1, lo=1, hi=30))
    assert report.skipped == 3
    assert sum(report.pattern_counts.values()) + report.skipped == report.total_primes


def test_census_structural_zero():
    report = run_census(CensusConfig(elements=(2, 3, 6), exponent=C1, x=10**5))
    assert report.nqr_count == 0
    zero_keys = [k for k, d in report.predicted.pattern_densities.items() if d == 0]
    assert zero_keys
    for key in zero_keys:
        assert report.pattern_counts.get(key, 0) == 0


def test_census_thread_invariance():
    base = CensusConfig(elements=(2, 3), exponent=C11, x=10**4)
    reports = [
        run_census(dataclasses.replace(base, threads=t)).to_json() for t in (1, 4, 8)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_census_block_size_invariance():
    base = CensusConfig(elements=(2, 5), exponent=C1, lo=100, hi=20000)
    a = run_census(base).to_json()
    b = run_census(dataclasses.replace(base, block_size=977)).to_json()
    assert a == b


def test_ps_source_equals_all_primes_at_c_one():
    ps = run_census(CensusConfig(elements=(2, 3), exponent=C1, x=10**4, source=PS_PRIMES))
    al = run_census(CensusConfig(elements=(2, 3), exponent=C1, x=10**4, source=ALL_PRIMES))
    assert ps.to_json() == al.to_json()


def test_file_round_trip(tmp_path):
    rng = PsPrimeRange(C11, 10**4, 2 * 10**4)
    path = tmp_path / "ps.txt"
    write_prime_file(str(path), (p for _, p in ps_primes_in(rng)), comment="round trip")
    direct = run_census(CensusConfig(elements=(2, 3), exponent=C11, x=10**4))
    ingested = run_census(
        CensusConfig(elements=(2, 3), exponent=C11, source=FILE, prime_file=str(path))
    )
    assert direct.to_json() == ingested.to_json()


def test_prime_file_validation(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("# comment\n11\n13\n\n17\n")
    assert read_prime_file(str(good)) == (11, 13, 17)

    bad_order = tmp_path / "order.txt"
    bad_order.write_text("13\n11\n")
    with pytest.raises(BadPrimeFile):
        read_prime_file(str(bad_order))

    composite = tmp_path / "composite.txt"
    composite.write_text("11\n15\n")
    with pytest.raises(BadPrimeFile):
        read_prime_file(str(composite))

    junk = tmp_path / "junk.txt"
    junk.write_text("11\ntwelve\n")
    with pytest.raises(BadPrimeFile):
        read_prime_file(str(junk))


def test_window_validation():
    with pytest.raises(WindowTooSmall):
        run_census(CensusConfig(elements=(100, 200), exponent=C1, x=10))
    with pytest.raises(PreconditionViolated):
        run_census(CensusConfig(elements=(2,), exponent=C1))
    with pytest.raises(SetTooLarge):
        run_census(CensusConfig(elements=tuple(range(1, 23)), exponent=C1, x=10**4))


def test_report_json_shape():
    report = run_census(CensusConfig(elements=(2, 3), exponent=C1, lo=10, hi=1000))
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "total_primes",
        "skipped",
        "pattern_counts",
        "qr_count",
        "nqr_count",
        "predicted",
        "deviations",
        "max_abs_deviation",
    }
    assert doc["qr_count"] == doc["pattern_counts"].get("00", 0)
    assert doc["predicted"]["qr_density"] == "1/4"
    assert set(doc["deviations"]) == {"00", "01", "10", "11"}


def test_report_csv_shape():
    report = run_census(CensusConfig(elements=(2,), exponent=C1, lo=10, hi=500))
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "pattern,count,predicted,deviation"
    assert len(lines) == 3
    pattern, count, predicted, deviation = lines[1].split(",")
    assert pattern == "0"
    assert int(count) == report.qr_count
    assert predicted == "1/2"
    float(deviation)


def test_census_structural_zeros_random_sets():
    import random

    rng = random.Random(77)
    for _ in range(10):
        size = rng.randrange(2, 5)
        elements = tuple(rng.sample(range(2, 60), size))
        report = run_census(CensusConfig(elements=elements, exponent=C1, lo=100, hi=20000))
        for key, dens in report.predicted.pattern_densities.items():
            if dens == 0:
                assert report.pattern_counts.get(key, 0) == 0, (elements, key)
            else:
                assert abs(report.deviations[key]) < 0.05, (elements, key)


def test_census_square_singleton_is_all_residue():
    # a square element is a residue at every odd prime; p = 2 is skipped
    report = run_census(CensusConfig(elements=(4,), exponent=C1, lo=1, hi=200))
    assert report.qr_fraction == 1.0
    assert report.skipped == 1
    assert report.pattern_counts == {"0": report.total_primes - 1}


def test_census_counts_match_pattern_at():
    from psqr.psprimes import primes_in_range
    from psqr.residues import pattern_at

    elements = (3, 5, 7)
    report = run_census(CensusConfig(elements=elements, exponent=C1, lo=10, hi=2000))
    counts: dict[str, int] = {}
    skipped = 0
    total = 0
    for p in primes_in_range(10, 2000):
        total += 1
        pat = pattern_at(elements, p)
        if pat is None:
            skipped += 1
        else:
            counts[pat.key()] = counts.get(pat.key(), 0) + 1
    assert report.total_primes == total
    assert report.skipped == skipped
    assert report.pattern_counts == counts


def test_file_census_below_2_64_matches_pattern_at(tmp_path):
    from psqr.psprimes import is_prime
    from psqr.residues import pattern_at

    top = []
    n = (1 << 64) - 1
    while len(top) < 40:
        if is_prime(n):
            top.append(n)
        n -= 2
    primes = [2, 3, 5] + top[::-1]
    path = tmp_path / "top.txt"
    write_prime_file(str(path), primes)
    # an even element past 2**32, 2**64 itself, and the largest prime below 2**64
    elements = (3, (1 << 33) + 2, top[0], 1 << 64)
    report = run_census(CensusConfig(elements=elements, source=FILE, prime_file=str(path),
                                     block_size=16))
    patterns = [None if p == 2 else pattern_at(elements, p) for p in primes]
    counts: dict[str, int] = {}
    for pat in filter(None, patterns):
        counts[pat.key()] = counts.get(pat.key(), 0) + 1
    assert report.total_primes == len(primes)
    assert report.skipped == patterns.count(None) == 3  # 2, 3 and top[0]
    assert report.pattern_counts == counts


def test_census_overflow_propagates():
    from psqr.errors import Overflow

    with pytest.raises(Overflow):
        run_census(
            CensusConfig(elements=(2,), exponent=RationalExponent(3, 2), lo=1, hi=1 << 44)
        )


def test_census_ps_exponent_pair_set():
    # {2,8}: the two signs always agree, so the all-plus share sits near 1/2
    report = run_census(CensusConfig(elements=(2, 8), exponent=C11, x=10**5))
    assert abs(report.qr_fraction - 0.5) < 0.05
    assert report.pattern_counts.get("01", 0) == 0
    assert report.pattern_counts.get("10", 0) == 0


def test_convergence_table_shrinks():
    cfg = CensusConfig(elements=(2, 3), exponent=C1)
    rows = convergence_table(cfg, [10**4, 10**5, 10**6])
    assert [r[0] for r in rows] == [10**4, 10**5, 10**6]
    assert all(r[2] == 0.25 for r in rows)
    assert abs(rows[-1][3]) < abs(rows[0][3])
    assert abs(rows[-1][3]) < 0.01
    with pytest.raises(PreconditionViolated):
        convergence_table(cfg, [100, 100])


def test_convergence_table_ps_exponent():
    cfg = CensusConfig(elements=(2, 8), exponent=C11)
    rows = convergence_table(cfg, [10**5, 10**6])
    assert all(r[2] == 0.5 for r in rows)
    assert all(abs(r[1] - 0.5) < 0.02 for r in rows)
