"""Census counting, sources, determinism, and report formats."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from psqr import census, kernels, residues
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
from psqr.kernels import _mask_key, factorize, square_subset_family
from psqr.psprimes import PsPrimeRange, RationalExponent, prime_array, ps_primes_in
from psqr.residues import jacobi_column

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


def test_census_factors_each_element_once(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return factorize(n)

    for module in (census, kernels, residues):
        monkeypatch.setattr(module, "factorize", counting, raising=False)
    elements = (6, 10, 15)
    for source in (PS_PRIMES, ALL_PRIMES):
        calls.clear()
        run_census(CensusConfig(elements=elements, x=1000, source=source))
        # symbol rows factor their modulus, a basis prime, never an element
        assert sorted(n for n in calls if n in elements) == list(elements)


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


# -- basis symbols against one Jacobi column per element ----------------------

_U64 = (1 << 64) - 1
_SMALL_PRIMES = prime_array(0, 100).tolist()
# 2**18 = ROW_BUDGET >> 4 is the row cap: primes on both sides of it
_MID_PRIMES = [1009, 7919, 65537, 262139]
_BIG_PRIMES = [262147, 1_000_003, 2**31 - 1, 4294967291, 2**61 - 1, 18446744073709551557]


def _column_histogram(elements, primes):
    """The census by one jacobi_column per element: the oracle."""
    odd = primes[primes != 2]
    masks = np.zeros(odd.size, dtype=np.int64)
    defined = np.ones(odd.size, dtype=bool)
    for i, s in enumerate(elements):
        col = jacobi_column(s, odd)
        defined &= col != 0
        masks |= (col < 0).astype(np.int64) << i
    keys, counts = np.unique(masks[defined], return_counts=True)
    skipped = primes.size - int(np.count_nonzero(defined))
    return primes.size, skipped, dict(zip(keys.tolist(), counts.tolist()))


@st.composite
def _element(draw):
    kind = draw(st.sampled_from(["product", "any", "square", "power_of_two", "fixed"]))
    if kind == "any":
        return draw(st.integers(1, 1 << 64))
    if kind == "square":
        return draw(st.integers(1, 1 << 32)) ** 2
    if kind == "power_of_two":
        return 1 << draw(st.integers(0, 64))
    if kind == "fixed":
        return draw(st.sampled_from([1, 18, 1 << 64, _U64, 9 * 2**40, 262147**2 * 3]))
    # prime powers from every pool, repeated and even exponents included
    s = 1
    pool = st.sampled_from(_SMALL_PRIMES + _MID_PRIMES + _BIG_PRIMES)
    for q, e in draw(st.lists(st.tuples(pool, st.integers(1, 4)), max_size=5)):
        if s * q**e <= 1 << 64:
            s *= q**e
    return s


@st.composite
def _census_case(draw):
    elements = draw(st.lists(_element(), min_size=1, max_size=8, unique=True))
    # consecutive primes from 2, every prime dividing an element, large primes
    primes = set(prime_array(0, draw(st.integers(2, 4000))).tolist())
    primes.update(q for s in elements for q, _ in factorize(s).factors)
    primes.update(draw(st.lists(st.sampled_from(_MID_PRIMES + _BIG_PRIMES), max_size=6)))
    block = draw(st.integers(1, 600))
    budget = draw(st.sampled_from([None, 1 << 10, 1 << 12]))
    return tuple(elements), np.array(sorted(primes), dtype=np.uint64), block, budget


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_census_case())
@example(((3, 5, 15, 262147, 18, 1), np.array(prime_array(0, 3000).tolist() + [262147],
                                               dtype=np.uint64), 97, 1 << 10))
def test_basis_histogram_matches_jacobi_columns(case):
    elements, primes, block, budget = case
    default = residues.ROW_BUDGET
    residues._JACOBI_ROWS.clear()
    if budget is not None:
        residues.ROW_BUDGET = budget
    try:
        basis = census._basis(square_subset_family(elements))
        total = skipped = 0
        counts: dict[int, int] = {}
        for i in range(0, primes.size, block):  # rows are earned across blocks
            b_total, b_skipped, b_counts = census._count_patterns(basis, primes[i : i + block])
            total += b_total
            skipped += b_skipped
            for mask, cnt in b_counts.items():
                counts[mask] = counts.get(mask, 0) + cnt
        assert residues._JACOBI_ROWS.entries <= residues.ROW_BUDGET
    finally:
        residues.ROW_BUDGET = default
        residues._JACOBI_ROWS.clear()
    assert (total, skipped, counts) == _column_histogram(elements, primes)
    # every observed pattern pairs evenly with the square-subset kernel
    for b in square_subset_family(elements).kernel_basis:
        assert all((mask & b).bit_count() % 2 == 0 for mask in counts)


def test_census_rebuilds_rows_evicted_mid_run(monkeypatch):
    # the odd primes below 256 in six elements: their rows (~5.8k entries) pass
    # a 4096-entry budget, so rows are evicted and earned again along the window
    odd = prime_array(2, 256).tolist()
    elements = tuple(math.prod(odd[i::6]) for i in range(6))
    assert all(s < 1 << 64 for s in elements)
    store = residues._JACOBI_ROWS
    store.clear()
    builds, clears = [], []
    build, clear = store._build, store.clear

    def counted_build(m):
        builds.append(m)
        return build(m)

    def counted_clear():
        clears.append(len(store.rows))
        clear()

    monkeypatch.setattr(residues, "ROW_BUDGET", 1 << 12)
    monkeypatch.setattr(store, "_build", counted_build)
    monkeypatch.setattr(store, "clear", counted_clear)
    try:
        report = run_census(CensusConfig(elements=elements, exponent=C1, lo=0, hi=120_000,
                                         source=ALL_PRIMES, block_size=4096))
        assert store.entries <= 1 << 12
    finally:
        clear()
    assert clears and len(builds) > len(set(builds))
    total, skipped, counts = _column_histogram(elements, prime_array(0, 120_000))
    assert (report.total_primes, report.skipped) == (total, skipped)
    assert report.pattern_counts == {_mask_key(m, 6): c for m, c in sorted(counts.items())}
