"""Jacobi symbols, the Euler oracle, and sign patterns."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
    plan = residues.plan_rows(qs)
    ns = np.arange(1, 4001, 2, dtype=np.uint64)
    for q in qs:
        assert residues.symbol_bits(q, ns, plan).tolist() == (jacobi_column(q, ns) < 0).tolist()
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
    for s in (6, 1 << 64, _U64):
        assert jacobi_column(s, ns).tolist() == [_jacobi_loop(s % n, n) for n in ns]


def test_jacobi_column_validation():
    with pytest.raises(EvenModulus):
        jacobi_column(3, [5, 10])
    with pytest.raises(EvenModulus):
        jacobi_column(3, [0])
    for s in (0, -3, (1 << 64) + 1):
        with pytest.raises(PreconditionViolated):
            jacobi_column(s, [5])
    assert jacobi_column(5, []).size == 0
    # the only even modulus lies in the second chunk
    ns = np.arange(1, 4 * residues.COLUMN_CHUNK, 2, dtype=np.uint64)
    ns[residues.COLUMN_CHUNK + 5] += 1
    with pytest.raises(EvenModulus):
        jacobi_column(3, ns)


def test_jacobi_column_memory_follows_its_chunks():
    # 203,999 odd moduli (1.6 MB): beyond its int8 output, a column traces
    # only one chunk's working set, however many moduli it is given
    ns = np.arange(3, 408_000, 2, dtype=np.uint64)
    jacobi_column(3, ns[:10])
    tracemalloc.start()
    try:
        jacobi_column(3, ns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ns.size + 9 * residues.COLUMN_CHUNK * ns.itemsize, peak


# -- prime numerators from rows ------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 8191, 65537, 262139, 262147, 2**61 - 1]),
    st.lists(st.one_of(st.integers(0, _U64 >> 1).map(lambda k: 2 * k + 1),
                       st.integers(0, 10**6).map(lambda k: 2 * k + 1)), max_size=40),
)
def test_symbol_bits_match_the_column(q, ns):
    # odd moduli of any kind, multiples of q included, from q's row (q in its
    # own plan) and from the column (an empty plan)
    ns = np.array(ns + [q * k for k in (1, 3, 5) if q > 2 and q * k < _U64], dtype=np.uint64)
    want = (jacobi_column(q, ns) < 0).tolist()
    plan = residues.plan_rows((q,))
    assert (q in plan) == (2 < q <= residues.ROW_BUDGET >> 4)
    for on_plan in (None, plan, frozenset()):
        assert residues.symbol_bits(q, ns, on_plan).tolist() == want
    assert (q in residues._planned_rows(plan)) == (q in plan)


def test_symbol_bits_validation():
    for plan in (None, frozenset()):
        with pytest.raises(EvenModulus):
            residues.symbol_bits(3, np.array([5, 10], dtype=np.uint64), plan)
        with pytest.raises(NotPrime):
            residues.symbol_bits(9, np.array([5], dtype=np.uint64), plan)
        assert residues.symbol_bits(3, np.array([], dtype=np.uint64), plan).size == 0
    # a plan holds primes only, so symbol_bits may read its rows unchecked
    with pytest.raises(NotPrime):
        residues.symbol_bits(9, np.array([5], dtype=np.uint64), residues.plan_rows((9,)))
    with pytest.raises(NotPrime):
        residues.plan_rows((3, 5, 2**61 - 1, 2**61 + 1))
    # the only even modulus lies in the second chunk, on and off the row
    ns = np.arange(1, 4 * residues.COLUMN_CHUNK, 2, dtype=np.uint64)
    ns[residues.COLUMN_CHUNK + 5] += 1
    for q in (2, 3, 1_000_003):
        with pytest.raises(EvenModulus):
            residues.symbol_bits(q, ns)


def test_symbol_bits_memory_follows_its_chunks():
    # 203,999 odd moduli (1.6 MB): beyond its bool output, symbol_bits traces
    # only a few chunk-wide arrays, from q's row (3) or the column (1,000,003)
    ns = np.arange(3, 408_000, 2, dtype=np.uint64)
    for q in (3, 1_000_003):
        plan = residues.plan_rows((q,))
        residues.symbol_bits(q, ns[:10], plan)  # the row, and the plan's cache, exist
        tracemalloc.start()
        try:
            residues.symbol_bits(q, ns, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ns.size + 9 * residues.COLUMN_CHUNK * ns.itemsize, (q, peak)
