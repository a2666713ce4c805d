"""Census counting, sources, determinism, and report formats."""

import dataclasses
import json
import math
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from psqr import census, kernels, psprimes, residues
from psqr.census import CensusConfig, prime_file_blocks, run_census
from psqr.errors import (
    BadPrimeFile,
    Overflow,
    PreconditionViolated,
    SetTooLarge,
    WindowTooSmall,
)
from psqr.kernels import _mask_key, factorize, square_subset_family
from psqr.predict import dominates
from psqr.psprimes import (
    _SIEVE_VALUE_CAP,
    BLOCK_SIZE,
    PRIME_BUDGET,
    PsPrimeRange,
    RationalExponent,
    floor_pow,
    integer_nth_root,
    is_prime,
    primes_up_to,
)
from psqr.residues import jacobi_column

from helpers import ps_primes_in, write_prime_file

C1 = RationalExponent(1, 1)
C11 = RationalExponent(11, 10)


def test_census_tiny_window_all_residues():
    report = run_census(CensusConfig(elements=(1,), primes=PsPrimeRange(C1, 10, 20)))
    assert report.total_primes == 4
    assert report.qr_count == 4
    assert report.nqr_count == 0
    assert report.pattern_counts == {"0": 4}
    assert report.max_abs_deviation == 0.0


def test_census_single_element_near_half():
    report = run_census(CensusConfig(elements=(2,), primes=PsPrimeRange(C1, 10**4, 2 * 10**4)))
    assert abs(report.qr_fraction - 0.5) < 0.05
    assert report.skipped == 0


def test_census_conservation_and_skips():
    # window contains p = 2 (always skipped) plus 3 and 5, both dividing 15
    report = run_census(CensusConfig(elements=(15,), primes=PsPrimeRange(C1, 1, 30)))
    assert report.skipped == 3
    assert sum(report.pattern_counts.values()) + report.skipped == report.total_primes


def test_census_structural_zero():
    report = run_census(CensusConfig(elements=(2, 3, 6), primes=PsPrimeRange(C1, 10**5, 2 * 10**5)))
    assert report.nqr_count == 0
    zero_keys = [k for k, d in report.predicted.pattern_densities.items() if d == 0]
    assert zero_keys
    for key in zero_keys:
        assert report.pattern_counts.get(key, 0) == 0


def test_census_thread_invariance():
    base = CensusConfig(elements=(2, 3), primes=PsPrimeRange(C11, 10**4, 2 * 10**4))
    reports = [
        run_census(dataclasses.replace(base, threads=t)).to_json() for t in (1, 4, 8)
    ]
    assert reports[0] == reports[1] == reports[2]


def test_census_pool_no_wider_than_the_window(monkeypatch, tmp_path):
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    # every window of two blocks or more repays a pool
    monkeypatch.setattr(census, "POOL_MIN_WORK_S", 0.0)
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", RecordingPool)
    base = CensusConfig(elements=(2, 3), primes=PsPrimeRange(C1, 0, 1000), block_size=1000, threads=8)
    want = {}
    for hi, workers in ((1000, []), (1001, [2]), (3000, [3]), (20_000, [8])):
        config = dataclasses.replace(base, primes=PsPrimeRange(C1, 0, hi))
        want[hi] = run_census(dataclasses.replace(config, threads=1)).to_json()
        started.clear()
        report = run_census(config)
        assert report.to_json() == want[hi]
        assert started == workers and report.workers == (workers or [1])[0], hi
    # a prime file is read up to threads blocks ahead: one block runs in process,
    # and more fork a pool no wider than the blocks read
    for hi, workers in ((1000, []), (20_000, [3])):
        path = str(tmp_path / f"{hi}.txt")
        write_prime_file(path, primes_up_to(hi).tolist())
        started.clear()
        report = run_census(dataclasses.replace(base, primes=path))
        assert report.to_json() == want[hi]
        assert started == workers and report.workers == (workers or [1])[0], hi


_N52 = integer_nth_root(1 << 520, 11)  # floors from ~2**52 at c = 11/10


# serial times: run_census of {2, 3} at one thread in a fresh process, 2-vCPU host
_WORKER_ROWS = [
    # light windows, timed at 0.002-0.012 s serial: a pool loses
    (C11, 610_677, 1_221_354, 1 << 16, 2, 1),
    (C11, 610_677, 1_221_354, 1 << 18, 2, 1),
    (RationalExponent(243, 205), 67_000, 134_000, 1 << 16, 2, 1),
    (C1, 6_000_000, 9_000_000, 1 << 16, 2, 1),
    (C1, 6_000_000, 9_000_000, 1 << 20, 2, 1),
    # heavy windows, timed at 0.09-0.58 s serial (0.24 s for (0, 10**8] in
    # 2**19-n blocks, where two workers took 0.17-0.20 s) and priced at
    # 0.28-1.8 s: the rule forks a pool
    (C1, 0, 10**8, 1 << 19, 2, 2),
    (C1, 0, 10**8, 1 << 22, 2, 2),
    (C11, _N52, _N52 + 6 * (1 << 16), 1 << 16, 2, 2),
    (C1, 1 << 62, (1 << 62) + 4 * (1 << 16), 1 << 16, 2, 2),
    # threads bound the pool, and so do the blocks
    (C1, 0, 10**8, 1 << 22, 32, 24),
    (C1, 1 << 62, (1 << 62) + 4 * (1 << 16), 1 << 16, 8, 4),
    (C1, 0, 10**8, 1 << 22, 1, 1),
    (C1, 1 << 62, (1 << 62) + (1 << 16), 1 << 16, 8, 1),
    # sparse floors below the sieve's cap take Miller-Rabin, a per-n cost to repay
    (RationalExponent(19, 10), 10**6, 2 * 10**6, 1 << 16, 2, 2),
    # c = 1 blocks of 2**16 n from 2**40 have too few n to repay the sieve's
    # base primes, so they take Miller-Rabin (0.15-0.18 s serial, priced at
    # 0.73 s); from 2**34 they sieve (0.035 s, priced at 0.16 s)
    (C1, 1 << 40, (1 << 40) + (1 << 20), 1 << 16, 2, 2),
    (C1, 1 << 43, (1 << 43) + (1 << 20), 1 << 16, 2, 2),
    (C1, 1 << 34, (1 << 34) + (1 << 20), 1 << 16, 2, 1),
]


@pytest.mark.parametrize("c, lo, hi, block, threads, workers", _WORKER_ROWS, ids=str)
def test_census_workers_rule(c, lo, hi, block, threads, workers):
    assert census.census_workers(PsPrimeRange(c, lo, hi), block, threads) == workers


# the rule's windows, then c = 1 windows of 2**20 n across the tiers, and dense
# floors just past the sieve's cap, in blocks wide enough to pass the density rule
_TIER_WINDOWS = list(dict.fromkeys([row[:4] for row in _WORKER_ROWS] + [
    (C1, 1 << e, (1 << e) + (1 << 20), 1 << 16) for e in (36, 40, 43, 54)
] + [(C1, 1 << 45, (1 << 45) + (1 << 23), 1 << 22)]))


@pytest.mark.parametrize("c, lo, hi, block", _TIER_WINDOWS, ids=str)
def test_census_prices_the_tier_prime_flags_takes(monkeypatch, c, lo, hi, block):
    priced, price = [], psprimes.primality_tier

    def pricing(count, f_lo, f_hi):
        priced.append(price(count, f_lo, f_hi))
        return priced[-1]

    monkeypatch.setattr(psprimes, "primality_tier", pricing)
    census.census_workers(PsPrimeRange(c, lo, hi), block, 2)
    [(tier, _)] = priced

    # the Miller-Rabin tiers only record; the sieve runs, as primes_up_to needs it
    taken, sieve = set(), psprimes._segment_is_prime

    def sieving(s_lo, s_hi):
        taken.add("sieve")
        return sieve(s_lo, s_hi)

    monkeypatch.setattr(psprimes, "_segment_is_prime", sieving)
    monkeypatch.setattr(psprimes, "_miller_rabin", lambda m: taken.add("batched") or np.zeros(m.size, bool))
    monkeypatch.setattr(psprimes, "is_prime", lambda m: taken.add("scalar") or False)
    psprimes.ps_prime_array(c, max(lo, hi - block), hi)
    assert taken == {tier}


def test_census_block_size_invariance():
    base = CensusConfig(elements=(2, 5), primes=PsPrimeRange(C1, 100, 20000))
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
    for c in (C1, C11):
        calls.clear()
        run_census(CensusConfig(elements=elements, primes=PsPrimeRange(c, 1000, 2000)))
        # symbol rows factor their modulus, a basis prime, never an element
        assert sorted(n for n in calls if n in elements) == list(elements)


@st.composite
def c1_windows(draw):
    """Census window arguments: (0, hi], or a window across 2**44 or 2**53."""
    width = draw(st.integers(1, 600))
    edge = draw(st.sampled_from((0, 1 << 44, 1 << 53)))
    lo = edge - draw(st.integers(0, width)) if edge else 0
    return lo, lo + width


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(1, 1 << 20), min_size=1, max_size=4, unique=True), c1_windows())
@example([2, 3], (10**4, 2 * 10**4))
def test_ps_source_equals_all_primes_at_c_one(elements, window):
    # a c = 1 census counts every prime of the window: scalar is_prime is the oracle
    lo, hi = window
    report = run_census(CensusConfig(elements=tuple(elements), primes=PsPrimeRange(C1, lo, hi)))
    primes = np.array([p for p in range(lo + 1, hi + 1) if is_prime(p)], dtype=np.uint64)
    total, skipped, counts = _column_histogram(elements, primes)
    assert (report.total_primes, report.skipped) == (total, skipped)
    size = len(elements)
    assert report.pattern_counts == {_mask_key(m, size): c for m, c in sorted(counts.items())}


@st.composite
def small_censuses(draw):
    """Small censuses: PS windows at c = 1 (all primes), 11/10 and 243/205."""
    c = draw(st.sampled_from((C1, C11, RationalExponent(243, 205))))
    lo = draw(st.integers(0, 10**6))
    hi = lo + draw(st.integers(1, 1000))
    elements = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=3, unique=True))
    # run_census refuses a dyadic window (x, 2x] that does not dominate prod(S)**gamma
    assume(hi != 2 * lo or dominates(lo, elements, c))
    return CensusConfig(elements=tuple(elements), primes=PsPrimeRange(c, lo, hi))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_censuses(), st.booleans(), st.integers(1, 1 << 12))
@example(CensusConfig(elements=(2, 3), primes=PsPrimeRange(C11, 10**4, 11_000)), True, 16)  # a pool
@example(CensusConfig(elements=(2, 3), primes=PsPrimeRange(C11, 10**4, 11_000)), True, 4096)  # in process
def test_census_bytes_for_any_block_size_and_thread_count(config, from_file, block):
    # from_file: census a file of the window's PS primes instead of the window
    with tempfile.TemporaryDirectory() as tmp:
        size = config.primes.hi - config.primes.lo  # n or file entries
        if from_file:
            path = os.path.join(tmp, "ps.txt")
            primes = [p for _, p in ps_primes_in(config.primes)]
            write_prime_file(path, primes)
            size = len(primes)
            config = dataclasses.replace(config, primes=path)
        want = run_census(config).to_json()
        got = run_census(dataclasses.replace(config, block_size=block))
        assert got.to_json() == want and got.workers == 1
        # every window or file of two blocks or more forks a pool of two
        workers = 2 if size > block else 1
        started = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        with mock.patch.object(census, "POOL_MIN_WORK_S", 0.0), \
                mock.patch("concurrent.futures.process.ProcessPoolExecutor", RecordingPool):
            got = run_census(dataclasses.replace(config, block_size=block, threads=2))
        assert got.to_json() == want and got.workers == workers
        assert started == ([2] if workers == 2 else [])


@st.composite
def file_windows(draw):
    """(c, lo, hi): n-windows whose floors lie below 2**44, across it, or above 2**52."""
    c = draw(st.sampled_from((C1, C11, RationalExponent(243, 205))))
    target = draw(st.sampled_from((
        st.integers(1 << 10, _SIEVE_VALUE_CAP),
        st.just(_SIEVE_VALUE_CAP),
        st.integers(1 << 52, 1 << 63),
    )).flatmap(lambda s: s))
    n = integer_nth_root(target**c.den, c.num)
    lo = max(1, n - draw(st.integers(0, 300)))
    return c, lo, lo + draw(st.integers(1, 600))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(file_windows())
@example((C11, 10**4, 2 * 10**4))
def test_file_round_trip(window):
    # a FILE census of what psprimes writes reads back the PS census's bytes
    c, lo, hi = window
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ps.txt")
        primes = (p for _, p in ps_primes_in(PsPrimeRange(c, lo, hi)))
        write_prime_file(path, primes, comment="round trip")
        direct = run_census(CensusConfig(elements=(2, 3), primes=PsPrimeRange(c, lo, hi)))
        ingested = run_census(CensusConfig(elements=(2, 3), primes=path))
    assert direct.to_json() == ingested.to_json()


def _file_entries(path, block_size=BLOCK_SIZE):
    return [p for block in prime_file_blocks(path, block_size) for p in block.tolist()]


def test_prime_file_blocks_refuses_a_block_size_below_one(tmp_path):
    # refused before the file is opened, as PsPrimeRange.blocks refuses it
    for size in (0, -5):
        with pytest.raises(PreconditionViolated):
            next(prime_file_blocks(str(tmp_path / "absent.txt"), size))
        with pytest.raises(PreconditionViolated):
            next(PsPrimeRange(C1, 0, 10).blocks(size))


def test_piped_prime_list_plans_the_file_rows(monkeypatch, tmp_path):
    # a pipe has no size: the plan comes from the entries read ahead, as a file's does
    elements = (3, 5, 15, 77, 613, 4201, 31337, 130003)
    path = tmp_path / "primes.txt"
    write_prime_file(path, primes_up_to(10**5).tolist())
    planned, plan = [], census.plan_rows
    monkeypatch.setattr(census, "plan_rows", lambda qs, moduli: planned.append(plan(qs, moduli)) or planned[-1])
    reports = [run_census(CensusConfig(elements=elements, primes=str(path)))]
    read, write = os.pipe()

    def feed():
        with open(write, "wb") as fh:
            fh.write(path.read_bytes())

    with ThreadPoolExecutor(1) as pool:
        fed = pool.submit(feed)
        try:
            reports.append(run_census(CensusConfig(elements=elements, primes=f"/dev/fd/{read}")))
        finally:
            os.close(read)  # a census that stops early leaves the writer a broken pipe
        fed.result()
    # 9,592 entries plan the basis primes up to 8 x 9,592
    assert planned == [frozenset((3, 5, 7, 11, 613, 4201, 31337))] * 2
    assert reports[0].to_json() == reports[1].to_json()
    assert reports[1].total_primes == 9592


def test_prime_file_validation(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("# comment\n11\n13\n\n17\n")
    assert _file_entries(str(good)) == [11, 13, 17]
    blocks = list(prime_file_blocks(str(good), 2))
    assert [b.tolist() for b in blocks] == [[11, 13], [17]]
    assert {b.dtype for b in blocks} == {np.dtype(np.uint64)}

    bad_order = tmp_path / "order.txt"
    bad_order.write_text("13\n11\n")
    with pytest.raises(BadPrimeFile):
        _file_entries(str(bad_order))

    composite = tmp_path / "composite.txt"
    composite.write_text("11\n15\n")
    with pytest.raises(BadPrimeFile):
        _file_entries(str(composite))

    junk = tmp_path / "junk.txt"
    junk.write_text("11\ntwelve\n")
    with pytest.raises(BadPrimeFile):
        _file_entries(str(junk))


@pytest.mark.parametrize("body, error, message", [
    # only ASCII decimal digits, as in a CLI set
    ("11\n+13\n", BadPrimeFile, ":2: not a decimal integer"),
    ("11\n1_3\n", BadPrimeFile, ":2: not a decimal integer"),
    ("11\n\u0661\u0663\n", BadPrimeFile, ":2: not a decimal integer"),
    ("11\n-13\n", BadPrimeFile, ":2: not a decimal integer"),
    # 2**64 and beyond: a budget, not a primality verdict
    (f"11\n{1 << 64}\n", Overflow, ":2: entry exceeds the 2**64"),
    (f"11\n{'9' * 5000}\n", Overflow, ":2: entry exceeds the 2**64"),
    (f"11\n{(1 << 64) - 59}\n", None, None),  # the largest prime below 2**64
    ("11\n0000013\n", None, None),
    # the earliest bad line wins
    ("11\n15\ntwelve\n", BadPrimeFile, ":2: 15 is not prime"),
    ("11\n15\n13\n", BadPrimeFile, ":2: 15 is not prime"),
    (f"11\n15\n{1 << 64}\n", BadPrimeFile, ":2: 15 is not prime"),
    ("# head\n11\n\n13\n21\n25\n", BadPrimeFile, ":5: 21 is not prime"),
    ("11\ntwelve\n15\n", BadPrimeFile, ":2: not a decimal integer"),
    ("13\n11\n15\n", BadPrimeFile, ":2: entries must be strictly ascending"),
    (f"11\n{1 << 64}\n15\n", Overflow, ":2: entry exceeds the 2**64"),
    # a byte that is not UTF-8 is a malformed line, not a decode error
    (b"11\n\xff\n", BadPrimeFile, ":2: not a decimal integer"),
    (b"2\n4\n\xff\n", BadPrimeFile, ":2: 4 is not prime"),
])
def test_prime_file_rejects_the_earliest_bad_line(tmp_path, body, error, message):
    path = tmp_path / "primes.txt"
    path.write_bytes(body if isinstance(body, bytes) else body.encode("utf-8"))
    # one entry a block puts each bad line in a later block than the good ones
    for block_size in (1, BLOCK_SIZE):
        if error is None:
            assert _file_entries(str(path), block_size)[-1] == int(body.split()[-1])
            continue
        with pytest.raises(error) as info:
            _file_entries(str(path), block_size)
        assert f"{path}{message}" in str(info.value)


def test_window_validation():
    with pytest.raises(WindowTooSmall):
        run_census(CensusConfig(elements=(100, 200), primes=PsPrimeRange(C1, 10, 20)))
    # only a dyadic window (x, 2x] must dominate prod(S)**gamma
    report = run_census(CensusConfig(elements=(100, 200), primes=PsPrimeRange(C1, 10, 21)))
    assert report.total_primes == 4
    with pytest.raises(SetTooLarge):
        run_census(CensusConfig(elements=tuple(range(1, 23)), primes=PsPrimeRange(C1, 10**4, 20_000)))


def _budget_n(c):
    """The largest n with floor(n**c) < 2**64."""
    n = integer_nth_root(PRIME_BUDGET**c.den, c.num)
    while floor_pow(n, c) >= PRIME_BUDGET:
        n -= 1
    return n


C255 = RationalExponent(255, 254)
_TOP_255 = _budget_n(C255)


class _FirstBlock(Exception):
    """A census reached its first block."""


def _first_block(task):
    raise _FirstBlock


@st.composite
def census_inputs(draw):
    """A window, (x, 2x] or (lo, hi], or None for a prime file: small windows,
    windows at and past the 2**64 floor budget, and x up to 10**100000."""
    c = draw(st.sampled_from((C1, C11, C255)))
    top = _budget_n(c)
    source = draw(st.sampled_from(("x", "lo hi", "file")))
    window = None
    if source == "x":
        x = draw(st.one_of(
            st.integers(-1, 3000),
            st.integers(1 << 33, top),                           # too many blocks
            st.integers(top // 2 - 2, top // 2 + 2),             # 2x at the budget
            st.integers(1 << 64, 1 << 8200),                     # past it, n**255 < 2**21 bits
            st.integers(19, 100_000).map(lambda e: 10**e),       # far past it
        ))
        window = (x, 2 * x)
    elif source == "lo hi":
        hi = draw(st.sampled_from((0, 3000, top, top + 1, 1 << 64, 1 << 8000, 10**400)))
        hi += draw(st.integers(-3, 3))
        window = (hi - draw(st.integers(-2, 600)), hi)
    elements = draw(st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True))
    return c, tuple(elements), window


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(census_inputs())
@example((C255, (2, 3), (10**100_000, 2 * 10**100_000)))
@example((C255, (2, 3), (1 << 8000, 1 << 8001)))
@example((C255, (2, 3), (_TOP_255 - 600, _TOP_255)))
@example((C255, (2, 3), (_TOP_255 - 600, _TOP_255 + 1)))
def test_window_validation_property(case):
    # every source either censuses or raises a documented class, in bounded
    # time; a window past one block is only run up to its first block
    c, elements, window = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "primes.txt")
        write_prime_file(path, [11, 13, 17, 19])
        wide = window is not None and window[1] - window[0] > BLOCK_SIZE
        t0 = time.perf_counter()
        try:
            primes = path if window is None else PsPrimeRange(c, *window)
            with mock.patch.object(census, "_census_block", _first_block) if wide else nullcontext():
                report = run_census(CensusConfig(elements=elements, primes=primes))
            outcome = None
        except (PreconditionViolated, WindowTooSmall, Overflow, _FirstBlock) as exc:
            outcome = type(exc)
        assert time.perf_counter() - t0 < 1.0
    if window and 0 <= window[0] < window[1] and window[1] >= PRIME_BUDGET:
        assert outcome is Overflow
    elif outcome is None:
        assert sum(report.pattern_counts.values()) + report.skipped == report.total_primes


def test_report_json_shape():
    report = run_census(CensusConfig(elements=(2, 3), primes=PsPrimeRange(C1, 10, 1000)))
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
    report = run_census(CensusConfig(elements=(2,), primes=PsPrimeRange(C1, 10, 500)))
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
        report = run_census(CensusConfig(elements=elements, primes=PsPrimeRange(C1, 100, 20000)))
        for key, dens in report.predicted.pattern_densities.items():
            if dens == 0:
                assert report.pattern_counts.get(key, 0) == 0, (elements, key)
            else:
                assert abs(report.deviations[key]) < 0.05, (elements, key)


def test_census_square_singleton_is_all_residue():
    # a square element is a residue at every odd prime; p = 2 is skipped
    report = run_census(CensusConfig(elements=(4,), primes=PsPrimeRange(C1, 1, 200)))
    assert report.qr_fraction == 1.0
    assert report.skipped == 1
    assert report.pattern_counts == {"0": report.total_primes - 1}


def test_census_counts_match_pattern_at():
    from psqr.residues import pattern_at

    elements = (3, 5, 7)
    report = run_census(CensusConfig(elements=elements, primes=PsPrimeRange(C1, 10, 2000)))
    counts: dict[str, int] = {}
    skipped = 0
    total = 0
    for p in (p for p in primes_up_to(2000).tolist() if p > 10):
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
    report = run_census(CensusConfig(elements=elements, primes=str(path), block_size=16))
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
            CensusConfig(elements=(2,), primes=PsPrimeRange(RationalExponent(3, 2), 1, 1 << 44))
        )


def test_census_ps_exponent_pair_set():
    # {2,8}: the two signs always agree, so the all-plus share sits near 1/2
    report = run_census(CensusConfig(elements=(2, 8), primes=PsPrimeRange(C11, 10**5, 2 * 10**5)))
    assert abs(report.qr_fraction - 0.5) < 0.05
    assert report.pattern_counts.get("01", 0) == 0
    assert report.pattern_counts.get("10", 0) == 0


def test_convergence_table_shrinks():
    # one census per x: the all-residue fraction closes in on its density 1/4
    reports = [run_census(CensusConfig((2, 3), PsPrimeRange(C1, x, 2 * x))) for x in (10**4, 10**5, 10**6)]
    assert all(r.predicted.qr_density == 0.25 for r in reports)
    deviations = [abs(r.qr_fraction - 0.25) for r in reports]
    assert deviations[-1] < deviations[0] and deviations[-1] < 0.01


def test_convergence_table_ps_exponent():
    reports = [run_census(CensusConfig((2, 8), PsPrimeRange(C11, x, 2 * x))) for x in (10**5, 10**6)]
    assert all(r.predicted.qr_density == 0.5 for r in reports)
    assert all(abs(r.qr_fraction - 0.5) < 0.02 for r in reports)


# -- basis symbols against one Jacobi column per element ----------------------

_U64 = (1 << 64) - 1
_SMALL_PRIMES = primes_up_to(100).astype(np.uint64).tolist()
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
    primes = set(primes_up_to(draw(st.integers(2, 4000))).astype(np.uint64).tolist())
    primes.update(q for s in elements for q, _ in factorize(s).factors)
    primes.update(draw(st.lists(st.sampled_from(_MID_PRIMES + _BIG_PRIMES), max_size=6)))
    block = draw(st.integers(1, 600))
    budget = draw(st.sampled_from([None, 1 << 10, 1 << 12]))
    return tuple(elements), np.array(sorted(primes), dtype=np.uint64), block, budget


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_census_case())
@example(((3, 5, 15, 262147, 18, 1),
          np.append(primes_up_to(3000).astype(np.uint64), np.uint64(262147)), 97, 1 << 10))
def test_basis_histogram_matches_jacobi_columns(case):
    elements, primes, block, budget = case
    default = residues.ROW_BUDGET
    if budget is not None:
        residues.ROW_BUDGET = budget
    try:
        basis = census._basis(square_subset_family(elements), primes.size)
        total = skipped = 0
        counts: dict[int, int] = {}
        for i in range(0, primes.size, block):  # the plan's rows serve every block
            b_total, b_skipped, b_counts = census._count_patterns(basis, primes[i : i + block])
            total += b_total
            skipped += b_skipped
            for mask, cnt in b_counts.items():
                counts[mask] = counts.get(mask, 0) + cnt
        rows = residues._planned_rows(basis.rows)
        assert set(rows) <= basis.rows and sum(map(len, rows.values())) <= residues.ROW_BUDGET
    finally:
        residues.ROW_BUDGET = default
    assert (total, skipped, counts) == _column_histogram(elements, primes)
    # every observed pattern pairs evenly with the square-subset kernel
    for b in square_subset_family(elements).kernel_basis:
        assert all((mask & b).bit_count() % 2 == 0 for mask in counts)


def test_census_builds_each_basis_row_at_most_once(monkeypatch):
    # the odd primes below 256 in six elements: their rows (~5.8k entries) pass
    # a 4096-entry budget, so the census plans the rows that fit together and
    # sends the other primes to the column; two censuses of the set, 30 blocks
    # each, build each planned row once
    odd = primes_up_to(256).astype(np.uint64)[1:].tolist()
    elements = tuple(math.prod(odd[i::6]) for i in range(6))
    assert all(s < 1 << 64 for s in elements)
    builds = []
    build = residues._jacobi_row

    def counted_build(m):
        builds.append(m)
        return build(m)

    monkeypatch.setattr(residues, "ROW_BUDGET", 1 << 12)
    plan = census._basis(square_subset_family(elements), 120_000).rows
    assert plan == residues.plan_rows(odd, 120_000) and sum(plan) <= 1 << 12 < sum(odd)
    residues._planned_rows.cache_clear()
    monkeypatch.setattr(residues, "_jacobi_row", counted_build)
    config = CensusConfig(elements=elements, primes=PsPrimeRange(C1, 0, 120_000), block_size=4096)
    report = run_census(config)
    assert run_census(config).pattern_counts == report.pattern_counts
    rows = residues._planned_rows(plan)
    assert set(rows) == plan and sum(map(len, rows.values())) <= 1 << 12
    assert sorted(builds) == sorted(plan)
    total, skipped, counts = _column_histogram(elements, primes_up_to(120_000).astype(np.uint64))
    assert (report.total_primes, report.skipped) == (total, skipped)
    assert report.pattern_counts == {_mask_key(m, 6): c for m, c in sorted(counts.items())}


def test_census_of_few_primes_builds_no_row(monkeypatch, tmp_path):
    # 16 basis primes in (200,003, 2**18): rows go only to primes up to 8 times
    # a bound on the census's primes, here 2,000 n or the file's 262 entries
    elements = tuple(int(p) for p in primes_up_to(1 << 18) if p > 200_003)[:16]
    builds, planned = [], []
    build, plan = residues._jacobi_row, census.plan_rows

    def counted_build(m):
        builds.append(m)
        return build(m)

    monkeypatch.setattr(residues, "_jacobi_row", counted_build)
    monkeypatch.setattr(census, "plan_rows", lambda qs, moduli: planned.append(moduli) or plan(qs, moduli))
    primes = primes_up_to(3000)
    primes = primes[primes > 1000].astype(np.uint64)
    path = tmp_path / "primes.txt"
    write_prime_file(path, primes.tolist())
    reports = [run_census(CensusConfig(elements=elements, primes=source))
               for source in (PsPrimeRange(C1, 1000, 3000), str(path))]
    assert planned == [2000, 262] and builds == []
    total, skipped, counts = _column_histogram(elements, primes)
    assert (total, skipped) == (262, 0)
    for report in reports:
        assert (report.total_primes, report.skipped) == (total, skipped)
        assert report.pattern_counts == {_mask_key(m, 16): c for m, c in sorted(counts.items())}
