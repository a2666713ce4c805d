"""Jacobi symbols, the Euler oracle, and sign patterns."""

import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from psqr import residues
from psqr.errors import EvenModulus, NotPrime, PreconditionViolated
from psqr.kernels import square_subset_family
from psqr.psprimes import primes_up_to
from psqr.residues import _jacobi_loop, jacobi, jacobi_column, legendre_euler, pattern_at


def test_jacobi_examples():
    assert jacobi(1, 9) == 1
    assert jacobi(2, 7) == 1
    assert jacobi(3, 7) == -1
    assert jacobi(6, 35) == -1


def test_jacobi_validation():
    with pytest.raises(EvenModulus):
        jacobi(3, 10)
    with pytest.raises(EvenModulus):
        jacobi(3, 0)
    assert jacobi(5, 1) == 1


def test_jacobi_zero_iff_common_factor():
    assert jacobi(0, 1) == 1  # empty modulus convention
    # a sweep of every residue: its second call builds the modulus's row, which
    # serves the rest of the sweep
    for m in (9, 35, 45, 3 * 5 * 7 * 11):
        assert [a for a in range(-m, m) if jacobi(a, m) == 0] == [
            a for a in range(-m, m) if math.gcd(a, m) > 1]
        assert m in residues._jacobi_rows


def test_jacobi_negative_and_periodic():
    rng = random.Random(5)
    for _ in range(5000):
        n = 2 * rng.randrange(1, 10**6) + 1
        a = rng.randrange(-(10**7), 10**7)
        assert jacobi(a, n) == jacobi(a % n, n)
        assert jacobi(a + n, n) == jacobi(a, n)


def test_jacobi_fast_path_matches_reference_loop():
    rng = random.Random(6)
    for _ in range(20000):
        n = 2 * rng.randrange(1, 10**9) + 1
        a = rng.randrange(0, n)
        assert jacobi(a, n) == _jacobi_loop(a, n)
    # moduli past 2**64 take the same loop
    n = (1 << 64) + 1
    for a in (2, 3, 12345, n - 2):
        assert jacobi(a, n) == _jacobi_loop(a % n, n)


def test_legendre_euler_examples():
    assert legendre_euler(4, 13) == 1
    assert legendre_euler(5, 13) == -1
    assert legendre_euler(13, 13) == 0
    with pytest.raises(NotPrime):
        legendre_euler(3, 15)
    with pytest.raises(NotPrime):
        legendre_euler(3, 2)


def test_jacobi_agrees_with_euler_sample():
    # the full sweep below 10^4 runs in the acceptance suite
    rng = random.Random(11)
    primes = [int(p) for p in primes_up_to(10**6) if p > 2]
    for _ in range(20000):
        p = rng.choice(primes)
        a = rng.randrange(0, p)
        assert jacobi(a, p) == legendre_euler(a, p)


def test_jacobi_multiplicative_in_denominator():
    rng = random.Random(12)
    for _ in range(100_000):
        s = rng.randrange(-500, 500)
        m = 2 * rng.randrange(1, 3000) + 1
        n = 2 * rng.randrange(1, 3000) + 1
        assert jacobi(s, m * n) == jacobi(s, m) * jacobi(s, n)


def test_square_subset_products_have_trivial_symbol():
    rng = random.Random(13)
    primes = [int(p) for p in primes_up_to(10**5) if p > 2]
    for elements in [(2, 3, 6), (2, 8), (5, 20), (3, 12, 2, 6)]:
        fam = square_subset_family(elements)
        for _ in range(200):
            p = rng.choice(primes)
            if any(s % p == 0 for s in elements):
                continue
            for subset in fam.members:
                prod_sign = 1
                for s in subset:
                    prod_sign *= jacobi(s, p)
                assert prod_sign == 1


def test_pattern_at_examples():
    pat = pattern_at((2, 3), 7)
    assert pat.signs == (1, -1)
    assert pat.key() == "01"
    assert pattern_at((4, 9), 11).signs == (1, 1)
    assert pattern_at((2, 3), 3) is None
    with pytest.raises(NotPrime):
        pattern_at((2, 3), 9)
    with pytest.raises(NotPrime):
        pattern_at((2, 3), 2)


@pytest.fixture
def empty_rows():
    for store in (residues._jacobi_rows, residues._euler_rows):
        store.clear()
    yield
    for store in (residues._jacobi_rows, residues._euler_rows):
        store.clear()


def _scalar_euler(a, p):
    r = pow(a, (p - 1) // 2, p)
    return r - p if r > 1 else r


def test_jacobi_rows_match_reference_loop(empty_rows):
    rng = random.Random(21)
    special = [1, 3, 9, 15, 25, 27, 45, 3**5 * 5, 3**8, 7 * 11 * 13, 3 * 5 * 7 * 11 * 13,
               residues.ROW_CAP - 1]
    sampled = [2 * rng.randrange(0, residues.ROW_CAP // 2) + 1 for _ in range(40)]
    rows = residues._jacobi_rows
    for m in special + sampled:
        if m in rows:
            continue
        # every residue once, then far numerators: the second call builds the row
        assert [jacobi(a, m) for a in range(m)] == [_jacobi_loop(a, m) for a in range(m)]
        for a in [rng.randrange(-(10**9), 10**9) for _ in range(200)] + [-1, -m, m, 2 * m + 1]:
            assert jacobi(a, m) == _jacobi_loop(a % m, m)
        assert m in rows


def test_jacobi_rows_finish_large_moduli(empty_rows):
    # small numerators against large moduli
    rng = random.Random(22)
    for _ in range(3):
        for s in (-15, -1, 2, 3, 5, 6, 10, 15, 105, 3**5 * 5):
            for _ in range(300):
                n = 2 * rng.randrange(residues.ROW_CAP, 10**9) + 1
                assert jacobi(s, n) == _jacobi_loop(s % n, n)
    # moduli at or above the cap, asked for any number of times, never build
    for n in (residues.ROW_CAP + 1, residues.ROW_CAP + 3, 10**9 + 7):
        for a in (2, 3, 5):
            assert jacobi(a, n) == _jacobi_loop(a, n)
    for p in (residues.ROW_CAP + 27, 10**9 + 7):  # primes
        for a in (2, 3, 5):
            assert legendre_euler(a, p) == _scalar_euler(a, p)
    # nor do moduli below it that no two calls in a row ask for
    for k in range(1, 200):
        m = (11, 13)[k & 1]
        assert jacobi(k, m) == _jacobi_loop(k % m, m)
        assert legendre_euler(k, m) == _scalar_euler(k, m)
    for store in (residues._jacobi_rows, residues._euler_rows):
        assert not store


def test_euler_rows_match_scalar_pow(empty_rows):
    rng = random.Random(23)
    primes = [int(p) for p in primes_up_to(residues.ROW_CAP - 1) if p > 2]
    for p in [3, 5, 7, primes[-1]] + rng.sample(primes, 30):
        assert list(residues._euler_row(p)) == [_scalar_euler(a, p) for a in range(p)]
        if p in residues._euler_rows:
            continue
        assert [legendre_euler(a, p) for a in range(p)] == [_scalar_euler(a, p) for a in range(p)]
        assert p in residues._euler_rows
        for a in [rng.randrange(-(10**9), 10**9) for _ in range(200)]:
            assert legendre_euler(a, p) == _scalar_euler(a, p)
    # rows hold prime moduli only; a composite still raises
    with pytest.raises(NotPrime):
        legendre_euler(3, 15)


def test_import_builds_no_row():
    paths = [str(Path(residues.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = (
        "import psqr.cli, psqr.residues as r\n"
        "print(len(r._jacobi_rows), len(r._euler_rows), r._planned_rows.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["0", "0", "0"]


def test_row_stores_stay_within_budget(empty_rows, monkeypatch):
    # full scalar stores hold rows of fewer than ROW_CAP bytes each, and a
    # plan's rows fit in ROW_BUDGET: 2 * ROW_BUDGET bytes in all
    assert 2 * residues.SCALAR_ROWS * residues.ROW_CAP <= residues.ROW_BUDGET
    rows = 8
    monkeypatch.setattr(residues, "SCALAR_ROWS", rows)
    rng = random.Random(24)
    jac, eul = residues._jacobi_rows, residues._euler_rows
    for m in range(501, 1001, 2):
        for a in (rng.randrange(-m, m), rng.randrange(-m, m)):
            assert jacobi(a, m) == _jacobi_loop(a % m, m)
        assert m in jac and len(jac) <= rows
    primes = [int(p) for p in primes_up_to(2000) if p > 500]
    for p in primes:
        for a in (rng.randrange(-p, p), rng.randrange(-p, p)):
            assert legendre_euler(a, p) == _scalar_euler(a, p)
        assert p in eul and len(eul) <= rows
    # rebuilt rows after the stores were cleared are still right
    for m in (501, 801, 999):
        assert [jacobi(a, m) for a in range(m)] == [_jacobi_loop(a, m) for a in range(m)]
    budget = 20_000
    monkeypatch.setattr(residues, "ROW_BUDGET", budget)
    qs = [int(p) for p in primes_up_to(2000)]
    ns = np.arange(1, 4001, 2, dtype=np.uint64)
    plan = residues.plan_rows(qs, ns.size)
    for q in qs:
        assert jacobi_column(q, ns, plan).tolist() == jacobi_column(q, ns).tolist()
    built = residues._planned_rows(plan)
    assert set(built) == plan and sum(map(len, built.values())) <= budget < sum(qs)


# -- columns: one numerator against many moduli -------------------------------

_U64 = (1 << 64) - 1


@st.composite
def column_cases(draw):
    s = draw(st.one_of(
        st.integers(1, 1 << 64),
        st.integers(0, 64).map(lambda e: 1 << e),
        st.integers(1, 1 << 20),
        st.tuples(st.integers(1, 1 << 20), st.integers(1, 44)).map(lambda te: te[0] << te[1]),
    ))
    t = s >> ((s & -s).bit_length() - 1)  # odd part: its odd multiples share a factor with s
    moduli = st.one_of(
        st.integers(0, _U64 >> 1).map(lambda k: 2 * k + 1),
        st.integers(0, (_U64 // t - 1) >> 1).map(lambda k: t * (2 * k + 1)),
        st.sampled_from([1, 3, 5, 7, _U64]),
    )
    chunk = draw(st.sampled_from([1, 3, 64]))
    return s, draw(st.lists(moduli, max_size=3 * chunk + 2)), chunk


@settings(max_examples=200, deadline=None)
@given(column_cases())
def test_jacobi_column_matches_reference_loop(case):
    s, ns, chunk = case
    default, residues.COLUMN_CHUNK = residues.COLUMN_CHUNK, chunk
    try:
        col = jacobi_column(s, np.array(ns, dtype=np.uint64))
    finally:
        residues.COLUMN_CHUNK = default
    assert col.dtype == np.int8
    assert col.tolist() == [_jacobi_loop(s % n, n) for n in ns]


def test_jacobi_column_across_its_chunk_boundary():
    rng = random.Random(25)
    size = 2 * residues.COLUMN_CHUNK + 3
    ns = [2 * rng.randrange(0, 1 << 63) + 1 if i % 3 else 2 * rng.randrange(0, 10**6) + 1
          for i in range(size)]
    for s in (6, 45 << 3, 1 << 64, _U64):
        want = [_jacobi_loop(s % n, n) for n in ns]
        for plan in (frozenset(), residues.plan_rows((s,), size)):
            assert jacobi_column(s, ns, plan).tolist() == want, (s, plan)


def test_jacobi_column_validation():
    for s in (3, 2, 12, 1_000_003):
        with pytest.raises(EvenModulus):
            jacobi_column(s, [5, 10])
        with pytest.raises(EvenModulus):
            jacobi_column(s, [0])
        assert jacobi_column(s, []).size == 0
    for s in (0, -3, (1 << 64) + 1):
        with pytest.raises(PreconditionViolated):
            jacobi_column(s, [5])
    # the only even modulus lies in the second chunk
    ns = np.arange(1, 4 * residues.COLUMN_CHUNK, 2, dtype=np.uint64)
    ns[residues.COLUMN_CHUNK + 5] += 1
    with pytest.raises(EvenModulus):
        jacobi_column(3, ns)


def test_jacobi_column_memory_follows_its_chunks():
    # 203,999 odd moduli (1.6 MB): beyond its int8 output, a column traces
    # only one chunk's working set, however many moduli it is given: the
    # reduction (3, 1,000,003) and the sign alone (8)
    ns = np.arange(3, 408_000, 2, dtype=np.uint64)
    for s in (3, 1_000_003, 8):
        jacobi_column(s, ns[:10])
        tracemalloc.start()
        try:
            jacobi_column(s, ns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ns.size + 9 * residues.COLUMN_CHUNK * ns.itemsize, (s, peak)


def _symbol_bits(q, ns, plan):
    # a census's sign bits for basis prime q, as census._count_patterns forms them
    return jacobi_column(q, ns, plan) < 0


def test_symbol_bits_validation():
    # a census prime's sign bits, on q's row and off it (an empty plan), for
    # q = 2 (the sign alone), 3 (a row) and 1,000,003 (a row under a large
    # plan), and 12 on 3's row
    for q in (2, 3, 12, 1_000_003):
        for plan in (residues.plan_rows((q,), 1 << 20), frozenset()):
            with pytest.raises(EvenModulus):
                _symbol_bits(q, np.array([5, 10], dtype=np.uint64), plan)
            with pytest.raises(EvenModulus):
                _symbol_bits(q, np.array([0], dtype=np.uint64), plan)
            assert _symbol_bits(q, np.array([], dtype=np.uint64), plan).size == 0
    # the only even modulus lies in the second chunk, on and off the row
    ns = np.arange(1, 4 * residues.COLUMN_CHUNK, 2, dtype=np.uint64)
    ns[residues.COLUMN_CHUNK + 5] += 1
    for q in (2, 3, 12, 1_000_003):
        for plan in (residues.plan_rows((q,), ns.size), frozenset()):
            with pytest.raises(EvenModulus):
                _symbol_bits(q, ns, plan)


def test_symbol_bits_memory_follows_its_chunks():
    # 203,999 odd moduli (1.6 MB): beyond its output, a census prime's sign
    # bits trace only one chunk's working set, from q's row (3, and 12 on 3's
    # row) or the reduction (1,000,003 off its plan)
    ns = np.arange(3, 408_000, 2, dtype=np.uint64)
    plan = residues.plan_rows((3,), ns.size)
    for q, on in ((3, plan), (12, plan), (1_000_003, frozenset())):
        _symbol_bits(q, ns[:10], on)  # the row, and the plan's cache, exist
        tracemalloc.start()
        try:
            _symbol_bits(q, ns, on)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ns.size + 9 * residues.COLUMN_CHUNK * ns.itemsize, (q, peak)


# -- planned columns: t's row against the reduction -----------------------------

@st.composite
def planned_cases(draw):
    # s = 2**e t, t odd up to the row cap ROW_BUDGET/16: primes, odd composites
    # and t = 1, with every e that keeps s <= 2**64
    t = draw(st.one_of(
        st.sampled_from([1, 3, 5, 7, 9, 15, 21, 45, 105, 6569, 3 * 5 * 7 * 11 * 13, 262143]),
        st.integers(0, (residues.ROW_BUDGET >> 5) - 1).map(lambda k: 2 * k + 1),
    ))
    s = t << draw(st.integers(0, 64 if t == 1 else 64 - t.bit_length()))
    moduli = st.one_of(
        st.integers(0, _U64 >> 1).map(lambda k: 2 * k + 1),
        st.integers(0, 10**6).map(lambda k: 2 * k + 1),
        st.integers(0, (_U64 // t - 1) >> 1).map(lambda k: t * (2 * k + 1)),  # sharing t's factors
        st.sampled_from([1, 3, 5, 7, _U64]),
    )
    chunk = draw(st.sampled_from([1, 3, 64]))
    return s, draw(st.lists(moduli, max_size=3 * chunk + 2)), chunk


@settings(max_examples=200, deadline=None)
@given(planned_cases())
@example((1, [1, 3, 5, 7, 9, 11, 13, 15, _U64], 3))
@example((1 << 64, [1, 3, 5, 7, 9, 11, 13, 15, _U64], 3))
@example((45 << 3, [1, 3, 9, 15, 45, 135, 7, 11, 13, 17], 4))
@example((45 << 6, [1, 3, 9, 15, 45, 135, 7, 11, 13, 17], 4))
def test_planned_column_matches_the_reduction(case):
    # t's row (t in a plan for a run of moduli enough that the budget alone
    # bounds it) gives the reduction's column (the empty plan) and the loop's,
    # with chunks of 1, 3 or 64 moduli so lists span chunk edges
    s, ns, chunk = case
    t = s >> ((s & -s).bit_length() - 1)
    plan = residues.plan_rows((s,), residues.ROW_BUDGET)
    assert (t in plan) == (t > 1)
    ns = np.array(ns, dtype=np.uint64)
    default, residues.COLUMN_CHUNK = residues.COLUMN_CHUNK, chunk
    try:
        cols = [jacobi_column(s, ns, on) for on in (plan, frozenset())]
    finally:
        residues.COLUMN_CHUNK = default
    want = [_jacobi_loop(s % n, n) for n in ns.tolist()]
    assert cols[0].dtype == np.int8
    assert cols[0].tolist() == cols[1].tolist() == want
    assert (t in residues._planned_rows(plan)) == (t > 1)


def test_plan_rows_bounded_by_its_moduli():
    # t takes a row only if it is at most 8 times the run's moduli
    qs = (2, 3, 101, 8191, 65537)
    for moduli, plan in ((0, ()), (12, (3,)), (13, (3, 101)), (8192, (3, 101, 8191)),
                         (8193, (3, 101, 8191, 65537)), (1 << 40, (3, 101, 8191, 65537))):
        assert residues.plan_rows(qs, moduli) == frozenset(plan), moduli
    # a plan holds odd parts t > 1, composite or prime, each once
    assert residues.plan_rows((1, 2, 1 << 64, 12, 3, 45 << 7, 9, 2**61 - 1), 1 << 20) == {3, 9, 45}


def test_planned_row_built_once_from_many_threads(monkeypatch):
    # 64 columns on 8 threads (2 CPUs here) share one fresh plan, with a short
    # switch interval and a slow build: the row is built once, and every
    # column reads it whole
    builds = []
    build = residues._jacobi_row

    def slow_build(m):
        builds.append(m)
        time.sleep(0.01)
        return build(m)

    monkeypatch.setattr(residues, "_jacobi_row", slow_build)
    residues._planned_rows.cache_clear()
    plan = residues.plan_rows((45 << 1,), 1 << 20)
    ns = np.arange(1, 20_001, 2, dtype=np.uint64)
    want = jacobi_column(90, ns).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            cols = list(pool.map(lambda _: jacobi_column(90, ns, plan), range(64), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert builds == [45]
    assert all(col.tolist() == want for col in cols)
