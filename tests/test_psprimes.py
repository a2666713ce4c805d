"""Exact floors, primality, and PS prime streams."""

import bisect
import decimal
import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from psqr import psprimes
from psqr.errors import CheckFailed, NotPrime, Overflow, PreconditionViolated
from psqr.psprimes import (
    _SIEVE_VALUE_CAP,
    BLOCK_SIZE,
    PRIME_BUDGET,
    PsPrimeRange,
    RationalExponent,
    floor_pow,
    integer_nth_root,
    is_prime,
    is_ps_prime,
    prime_flags,
    primes_up_to,
)

from helpers import ps_primes_in


def test_rational_exponent_parse_and_reduce():
    c = RationalExponent.parse("11/10")
    assert (c.num, c.den) == (11, 10)
    assert RationalExponent(22, 20) == c
    assert RationalExponent.parse("1").value == Fraction(1)
    assert RationalExponent.parse("243/205").gamma == Fraction(205, 243)


def test_rational_exponent_validation():
    with pytest.raises(ValueError):
        RationalExponent.parse("1.1")
    with pytest.raises(ValueError):
        RationalExponent.parse("2/1")  # c must stay below 2
    with pytest.raises(ValueError):
        RationalExponent.parse("9/10")  # and at least 1
    with pytest.raises(ValueError):
        RationalExponent.parse("307/306")  # numerator beyond the cap
    with pytest.raises(ValueError):
        RationalExponent.parse("")


def test_theorem_backed_flag():
    assert RationalExponent.parse("1").theorem_backed
    assert RationalExponent.parse("11/10").theorem_backed
    assert RationalExponent.parse("243/205").theorem_backed
    assert not RationalExponent.parse("6/5").theorem_backed
    assert not RationalExponent.parse("3/2").theorem_backed


def test_integer_nth_root_random():
    rng = random.Random(4)
    for _ in range(2000):
        k = rng.randrange(1, 12)
        x = rng.randrange(0, 1 << rng.randrange(1, 200))
        r = integer_nth_root(x, k)
        assert r**k <= x < (r + 1) ** k


def test_integer_nth_root_exact_powers():
    for base in (2, 3, 10, 12345):
        for k in (2, 3, 5, 10):
            assert integer_nth_root(base**k, k) == base
            assert integer_nth_root(base**k - 1, k) == base - 1


@st.composite
def radicands(draw):
    k = draw(st.integers(1, 255))
    if draw(st.booleans()):
        return draw(st.integers(0, 1 << 4000)), k
    r = draw(st.integers(1, 1 << (4000 // k)))  # r**k - 1, r**k and r**k + 1
    return r**k + draw(st.integers(-1, 1)), k


@settings(max_examples=300, deadline=None)
@given(radicands())
def test_integer_nth_root_brackets_the_root(case):
    x, k = case
    r = integer_nth_root(x, k)
    assert r**k <= x < (r + 1) ** k


def test_integer_nth_root_from_any_guess():
    rng = random.Random(5)
    for _ in range(500):
        k = rng.randrange(1, 12)
        x = rng.randrange(0, 1 << rng.randrange(1, 120))
        r = integer_nth_root(x, k)
        for guess in (0, 1, r - 3, r, r + 1, r + 7, 2 * r + 5):
            assert integer_nth_root(x, k, guess) == r


def test_floor_pow_examples():
    c11 = RationalExponent(11, 10)
    assert floor_pow(1, c11) == 1
    assert floor_pow(2, c11) == 2
    assert floor_pow(10, RationalExponent(3, 2)) == 31


def test_floor_pow_exactness_and_monotonicity():
    rng = random.Random(8)
    for c in (RationalExponent(11, 10), RationalExponent(6, 5), RationalExponent(3, 2)):
        prev = 0
        for n in sorted(rng.randrange(1, 10**7) for _ in range(500)):
            m = floor_pow(n, c)
            assert m**c.den <= n**c.num < (m + 1) ** c.den
            assert m >= prev
            prev = m


def test_floor_pow_budget():
    with pytest.raises(Overflow):
        floor_pow(1 << 20000, RationalExponent(243, 205))
    with pytest.raises(PreconditionViolated):
        floor_pow(0, RationalExponent(11, 10))


def test_is_prime_examples():
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(2**61 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(3215031751 // 151 * 151)


def test_is_prime_matches_sieve():
    flags = [False, False] + [True] * (10**4 - 1)
    for p in range(2, 101):
        if flags[p]:
            for k in range(p * p, 10**4 + 1, p):
                flags[k] = False
    for n in range(1, 10**4 + 1):
        assert is_prime(n) == flags[n], n


def test_is_prime_budget():
    with pytest.raises(Overflow):
        is_prime(1 << 65)


# one nontrivial divisor of each psi_k in psprimes._MR_LIMITS
_MR_LIMIT_DIVISORS = (23, 829, 2251, 151, 6763, 1303, 10670053, 149491)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _twelve_base_verdict(n):
    """The full 12-base test for every n, as is_prime ran it before the limits."""
    if n < 2:
        return False
    if any(n % p == 0 for p in psprimes._MR_BASES):
        return n in psprimes._MR_BASES
    return all(_strong_probable_prime(n, a) for a in psprimes._MR_BASES)


def test_miller_rabin_limits_are_tight():
    # psi_k is composite and passes the first k bases, so its limit cannot grow;
    # it also passes every base but the last of the count used from psi_k up,
    # so that count cannot shrink
    limits, counts = psprimes._MR_LIMITS, psprimes._MR_COUNTS
    assert len(counts) == len(limits) + 1 and counts[-1] == len(psprimes._MR_BASES)
    assert list(limits) == sorted(limits) and limits[-1] < PRIME_BUDGET
    for limit, k, k_above, d in zip(limits, counts, counts[1:], _MR_LIMIT_DIVISORS):
        assert 1 < d < limit and limit % d == 0
        assert k < k_above
        assert all(_strong_probable_prime(limit, a) for a in psprimes._MR_BASES[: k_above - 1])
        assert not is_prime(limit)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(psprimes._MR_LIMITS), st.integers(-(1 << 12), 1 << 12))
@example(psprimes._MR_LIMITS[-1], 0)
def test_is_prime_matches_twelve_bases_near_each_limit(limit, delta):
    n = limit + delta
    assert is_prime(n) == _twelve_base_verdict(n)


def test_primes_in_range_segmented():
    # plain primes in a range are the c = 1 stream, in the window's blocks
    def primes_in_range(lo, hi, block_size=BLOCK_SIZE):
        return [p for _, p in ps_primes_in(PsPrimeRange(RationalExponent(1, 1), lo, hi), block_size)]

    assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
    assert primes_in_range(0, 3) == [2, 3]
    primes = primes_up_to(30).astype(np.uint64)
    assert primes.dtype == np.uint64 and primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    want = [int(p) for p in primes_up_to(10**5) if p > 10**4]
    assert primes_in_range(10**4, 10**5, block_size=3000) == want
    blocks = list(PsPrimeRange(RationalExponent(1, 1), 10**4, 10**5).blocks(3000))
    assert [b[1:] for b in blocks] == [(lo, min(lo + 3000, 10**5)) for lo in range(10**4, 10**5, 3000)]


def _empty_prime_cache():
    return 10, np.array([2, 3, 5, 7], dtype=np.int64)


def test_prime_cache_grows_safely_from_many_threads(monkeypatch):
    # 8 threads grow the cache at once, each to its own limit, at a short
    # switch interval: every list they get is the reference sieve's
    top = 200_000
    flags = np.ones(top + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    want = np.flatnonzero(flags)
    rng = random.Random(25)
    wrong = []

    def check(limit):
        got = primes_up_to(limit)
        if not np.array_equal(got, want[: np.searchsorted(want, limit, side="right")]):
            wrong.append(limit)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(300):
            monkeypatch.setattr(psprimes, "_sieved", _empty_prime_cache())
            threads = [threading.Thread(target=check, args=(rng.randrange(top),)) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_prime_cache_sieves_each_limit_once(monkeypatch):
    monkeypatch.setattr(psprimes, "_sieved", _empty_prime_cache())
    primes_up_to(11)  # sieves [0, 20], which holds the base primes of [0, 134]
    sieve, sieved = psprimes._segment_is_prime, []
    monkeypatch.setattr(psprimes, "_segment_is_prime", lambda lo, hi: sieved.append((lo, hi)) or sieve(lo, hi))
    for _ in range(2):
        assert primes_up_to(134).tolist()[-3:] == [113, 127, 131]
    assert sieved == [(0, 134)]


def test_ps_stream_examples():
    c1 = RationalExponent(1, 1)
    assert list(ps_primes_in(PsPrimeRange(c1, 10, 20))) == [(11, 11), (13, 13), (17, 17), (19, 19)]
    c11 = RationalExponent(11, 10)
    assert list(ps_primes_in(PsPrimeRange(c11, 1, 10))) == [(2, 2), (3, 3), (5, 5), (6, 7), (9, 11)]
    c32 = RationalExponent(3, 2)
    assert list(ps_primes_in(PsPrimeRange(c32, 1, 10))) == [(2, 2), (3, 5), (5, 11), (10, 31)]
    # n = 0 and n = 1 have floors 0 and 1, neither prime
    assert list(ps_primes_in(PsPrimeRange(c32, 0, 10))) == [(2, 2), (3, 5), (5, 11), (10, 31)]


def test_ps_stream_block_invariance():
    c = RationalExponent(6, 5)
    rng = PsPrimeRange(c, 500, 4000)
    whole = list(ps_primes_in(rng))
    assert whole == list(ps_primes_in(rng, block_size=137))
    assert whole == list(ps_primes_in(rng, block_size=1))


def test_ps_stream_matches_slow_path():
    c = RationalExponent(11, 10)
    fast = list(ps_primes_in(PsPrimeRange(c, 1, 5000)))
    slow = []
    for n in range(2, 5001):
        m = integer_nth_root(n**11, 10)
        if is_prime(m):
            slow.append((n, m))
    assert fast == slow


def test_each_prime_hit_at_most_once_for_c_above_one():
    c = RationalExponent(11, 10)
    ps = [p for _, p in ps_primes_in(PsPrimeRange(c, 1, 20000))]
    assert len(ps) == len(set(ps))
    assert ps == sorted(ps)


def test_is_ps_prime_examples():
    c11 = RationalExponent(11, 10)
    assert is_ps_prime(101, RationalExponent(1, 1))
    assert is_ps_prime(7, c11)
    assert not is_ps_prime(13, RationalExponent(3, 2))
    with pytest.raises(NotPrime):
        is_ps_prime(8, RationalExponent(3, 2))  # 8 = floor(4**(3/2)), but not prime
    with pytest.raises(NotPrime):
        is_ps_prime(1, c11)


@pytest.mark.parametrize("ctext", ["1", "11/10", "6/5", "3/2"])
def test_is_ps_prime_consistent_with_stream(ctext):
    c = RationalExponent.parse(ctext)
    limit = 10**5
    hi = integer_nth_root(limit**c.den, c.num) + 2
    hits = {p for _, p in ps_primes_in(PsPrimeRange(c, 1, hi)) if p <= limit}
    for p in primes_up_to(limit).tolist():
        assert is_ps_prime(p, c) == (p in hits), (p, ctext)


def test_ps_count_tracks_reciprocal_of_c():
    # the 1/c density factor, measured against the c=1 count so the slow
    # PNT correction (already +7% at 1e7 in the x/log x scale) cancels
    c = RationalExponent(11, 10)
    N = 10**7
    count = sum(1 for _ in ps_primes_in(PsPrimeRange(c, 1, N)))
    pi_n = sum(1 for _ in ps_primes_in(PsPrimeRange(RationalExponent(1, 1), 1, N)))
    gamma = float(c.gamma)
    assert abs(count / pi_n - gamma) < 0.05 * gamma


def test_range_validation():
    with pytest.raises(PreconditionViolated):
        PsPrimeRange(RationalExponent(1, 1), 20, 10)
    with pytest.raises(PreconditionViolated):
        PsPrimeRange(RationalExponent(1, 1), -1, 10)
    with pytest.raises(Overflow):
        PsPrimeRange(RationalExponent(3, 2), 1, 1 << 44)


# -- the float-floor block against the exact oracle ---------------------------

def _oracle(c, lo, hi):
    return [(n, m) for n in range(lo + 1, hi + 1) if is_prime(m := floor_pow(n, c))]


def _n_max(c):
    """Largest n whose floor stays within the prime budget."""
    return _n_at(PRIME_BUDGET, c)


def _n_at(value, c):
    """Largest n with n**c <= value - 1, so floor(n**c) < value."""
    return integer_nth_root((value - 1) ** c.den, c.num)


@st.composite
def exponents(draw, max_den=254):
    den = draw(st.integers(1, max_den))
    num = draw(st.integers(den, min(2 * den - 1, 255) if den > 1 else 1))
    return RationalExponent(num, den)  # reduces num/den


@st.composite
def windows(draw):
    c = draw(exponents())
    top = _n_max(c)
    width = draw(st.integers(1, 40))
    lo = draw(st.integers(1, 1 << draw(st.integers(1, 63))))
    lo = min(lo, top - width)
    return c, lo, lo + width, draw(st.integers(1, 50))


_differential = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_differential
@given(windows())
@example((RationalExponent(11, 10), 610_000, 610_100, 64))
@example((RationalExponent(243, 205), 66_000, 66_060, 25))
@example((RationalExponent(1, 1), (1 << 63) - 20, (1 << 63) + 20, 7))
# windows ending at the budget: floors next to 2**64, whose float floors may
# pass the uint64 range
@example((RationalExponent(1, 1), _n_max(RationalExponent(1, 1)) - 30, _n_max(RationalExponent(1, 1)), 11))
@example((RationalExponent(255, 254), _n_max(RationalExponent(255, 254)) - 30,
          _n_max(RationalExponent(255, 254)), 11))
@example((RationalExponent(11, 10), _n_max(RationalExponent(11, 10)) - 30, _n_max(RationalExponent(11, 10)), 11))
# blocks whose floors cross 2**53: batched Miller-Rabin below it, is_prime from it
@example((RationalExponent(1, 1), (1 << 53) - 40, (1 << 53) + 40, 80))
@example((RationalExponent(11, 10), _n_at(1 << 53, RationalExponent(11, 10)) - 12,
          _n_at(1 << 53, RationalExponent(11, 10)) + 12, 24))
@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy warns on a float cast out of range
def test_ps_block_matches_oracle(case):
    c, lo, hi, block = case
    assert list(ps_primes_in(PsPrimeRange(c, lo, hi), block_size=block)) == _oracle(c, lo, hi)


@_differential
@given(exponents(max_den=12), st.integers(2, 40), st.integers(0, 40), st.integers(1, 40))
def test_ps_block_at_exact_powers(c, k, before, after):
    # n = k**den makes n**c = k**num an integer: the float floor sits on an integer
    n = k**c.den
    if n > _n_max(c):
        k = integer_nth_root(_n_max(c), c.den)
        n = k**c.den
    lo, hi = max(1, n - 1 - before), min(n + after, _n_max(c))
    assert list(ps_primes_in(PsPrimeRange(c, lo, hi))) == _oracle(c, lo, hi)


@_differential
@given(exponents(max_den=40), st.integers(1, 60), st.integers(1, 60))
@example(RationalExponent(1, 1), 30, 30)
def test_ps_block_across_the_sieve_cap(c, before, after):
    # the first n whose floor exceeds the sieve's value cap
    n = integer_nth_root((_SIEVE_VALUE_CAP + 1) ** c.den - 1, c.num) + 1
    lo, hi = n - 1 - before, n + after
    assert floor_pow(lo + 1, c) <= _SIEVE_VALUE_CAP < floor_pow(hi, c)
    got = list(ps_primes_in(PsPrimeRange(c, lo, hi), block_size=before + after + 1))
    assert got == _oracle(c, lo, hi)
    ns, floors = psprimes.ps_prime_array(c, lo, hi)
    assert ns.dtype == floors.dtype == np.uint64
    assert list(zip(ns.tolist(), floors.tolist())) == got


@_differential
@given(exponents(max_den=40), st.integers(0, 1 << 20), st.integers(1, 80))
def test_ps_block_above_2_52(c, offset, width):
    lo = min(integer_nth_root(1 << (52 * c.den), c.num) + offset, _n_max(c) - width)
    assert floor_pow(lo + 1, c) >= 1 << 52
    hi = lo + width
    assert list(ps_primes_in(PsPrimeRange(c, lo, hi))) == _oracle(c, lo, hi)


def test_c1_stream_tests_primality_without_sieving_past_the_caps(monkeypatch):
    # a c = 1 window near 2**62 would need base primes up to 2**31 to sieve
    sieve = psprimes.primes_up_to

    def small_sieve(limit):
        if limit > 1 << 22:
            raise AssertionError(f"base primes up to {limit} requested")
        return sieve(limit)

    monkeypatch.setattr(psprimes, "primes_up_to", small_sieve)
    lo = 1 << 62
    got = list(ps_primes_in(PsPrimeRange(RationalExponent(1, 1), lo, lo + 200)))
    assert got == [(n, n) for n in range(lo + 1, lo + 201) if is_prime(n)]


# -- anchored float64 floors against floor_pow -----------------------------------

# at 255/254, n passes 2**53, where fl(n0) is rounded; at 255/128 floors near
# 2**64 rise by ~2**38 over 40 n, past what the band certifies
_FLOAT_CS = tuple(RationalExponent.parse(t) for t in ("11/10", "243/205", "3/2", "255/128", "255/254"))


class _Expm1OneAbove:
    """numpy, except that expm1 lands one above the true value."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def expm1(x, out=None):
        return np.add(np.expm1(x, out=out), 1.0, out=out)


def test_ps_block_rejects_an_expm1_outside_its_allowance(monkeypatch):
    # the increment is then off by n0**c: far outside the band, so the end floor is wrong
    monkeypatch.setattr(psprimes, "np", _Expm1OneAbove())
    for c, lo in ((RationalExponent(11, 10), 610_000), (RationalExponent(243, 205), 66_000)):
        with pytest.raises(CheckFailed):
            list(ps_primes_in(PsPrimeRange(c, lo, lo + 10_000)))


def test_ingest_window_takes_no_exact_root_past_its_anchors():
    # the bench's seed-1 psprimes window above 2**52: two blocks, so two anchors
    # and PsPrimeRange's check of hi
    lo, hi = 200_767_021_338_695, 200_767_021_458_695
    with mock.patch.object(psprimes, "integer_nth_root", wraps=psprimes.integer_nth_root) as roots:
        got = list(ps_primes_in(PsPrimeRange(RationalExponent(11, 10), lo, hi)))
    assert roots.call_count <= 4
    assert len(got) == 3_275 and got[0] == (200_767_021_338_718, 5_407_065_284_382_481)


def _block_around(c, value, before, after):
    """(lo, hi) around the first n whose floor reaches value, within the budget."""
    top = _n_max(c)
    n = min(_n_at(value, c) + 1, top)
    hi = min(n + after, top)
    return max(0, min(n - 1 - before, hi - 1)), hi


def _float_floors(c, lo, hi):
    floors = psprimes._certified_floors(c, lo + 1, hi)
    assert floors.dtype == np.uint64
    return floors.tolist()


@st.composite
def float_blocks(draw):
    c = draw(st.sampled_from(_FLOAT_CS))
    k = draw(st.integers(4, 63))
    value = draw(st.integers(1 << k, (1 << (k + 1)) - 1))
    return c, *_block_around(c, value, draw(st.integers(0, 30)), draw(st.integers(1, 30)))


@_differential
@given(float_blocks())
def test_float_floors_match_floor_pow(block):
    # at any size: the band sends what float64 cannot certify to the exact root
    c, lo, hi = block
    assert _float_floors(c, lo, hi) == [floor_pow(n, c) for n in range(lo + 1, hi + 1)]


@st.composite
def anchored_blocks(draw):
    """(c, n0, size, the offsets to check): blocks of 1..2**16 n from n0 = 1 or
    around an exact b-th power, whose floor has no fraction."""
    c = draw(st.sampled_from(_FLOAT_CS))
    size = draw(st.integers(0, 16).flatmap(lambda k: st.integers(1 << k >> 1 or 1, 1 << k)))
    top = _n_max(c) - size + 1
    if draw(st.booleans()):
        n0 = 1
    else:
        power = draw(st.integers(1, integer_nth_root(top, c.den))) ** c.den
        n0 = max(1, min(power - draw(st.integers(0, size)), top))
    # both ends, every exact b-th power, and some offsets anywhere: floor_pow
    # over all 2**16 would take seconds an example
    powers = range(integer_nth_root(n0 - 1, c.den) + 1, integer_nth_root(n0 + size - 1, c.den) + 1)
    ks = {*range(min(size, 200)), *range(max(size - 200, 0), size), *(t**c.den - n0 for t in powers)}
    ks.update(draw(st.lists(st.integers(0, size - 1), max_size=200)))
    return c, n0, size, sorted(ks)


@_differential
@given(anchored_blocks())
@example((RationalExponent(11, 10), 1, 1 << 16, [0, 1023, 59048, (1 << 16) - 1]))
@example((RationalExponent(243, 205), 1, 1 << 16, [0, (1 << 16) - 1]))
def test_anchored_floors_match_floor_pow(case):
    c, n0, size, ks = case
    floors = psprimes._certified_floors(c, n0, n0 + size - 1)
    assert floors.size == size and (floors[1:] > floors[:-1]).all()
    assert [int(floors[k]) for k in ks] == [floor_pow(n0 + k, c) for k in ks]


# where a float floor's precision runs out: a float64 power from 2**39, n
# itself from 2**53, an 80-bit long double near 2**56, the budget at 2**64;
# the anchored pass certifies at each, and next to 2**64 at every c but 255/128
_PRECISION_EDGES = (1 << 39, 1 << 53, 1 << 55, PRIME_BUDGET - 1)


class _NumpyWithLongDouble:
    """numpy on a platform whose long double is the given type."""

    def __init__(self, longdouble):
        self.longdouble = longdouble

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("value", _PRECISION_EDGES, ids=("2^39", "2^53", "2^55", "2^64-1"))
@pytest.mark.parametrize("c", _FLOAT_CS, ids=str)
@pytest.mark.parametrize("wide", (np.longdouble, np.float64), ids=("longdouble", "no-wider"))
def test_ps_block_floats_at_the_precision_edges(monkeypatch, value, c, wide):
    # certification reads no platform type: with long double as this platform
    # has it or as float64 (MSVC), the same n take the same exact roots
    lo, hi = _block_around(c, value, 40, 40)
    calls = []
    for numpy in (np, _NumpyWithLongDouble(wide)):
        monkeypatch.setattr(psprimes, "np", numpy)
        with mock.patch.object(psprimes, "integer_nth_root", wraps=psprimes.integer_nth_root) as roots:
            ns, got = psprimes.ps_prime_array(c, lo, hi)
        assert list(zip(ns.tolist(), got.tolist())) == _oracle(c, lo, hi)
        calls.append(roots.call_args_list)
    assert calls[0] == calls[1]
    # one anchor, and exact roots for under half of the block
    assert len(calls[0]) - 1 < (hi - lo) / 2
    assert _float_floors(c, lo, hi) == [floor_pow(n, c) for n in range(lo + 1, hi + 1)]


def test_guards_as_derived():
    # 2**-40 where c log1p(k/n0) is small; wider from n0 = 1
    assert psprimes._guard(0.0) == psprimes._guard(1e-6) == 2.0**-40
    assert psprimes._guard(1.1 * math.log1p(65535)) == 2.0**-38
    assert psprimes._guard(2 * math.log(2.0**64)) == 2.0**-35
    # a block takes the guard of its largest c log1p(k/n0)
    with mock.patch.object(psprimes, "_guard", wraps=psprimes._guard) as guard:
        psprimes._certified_floors(RationalExponent(11, 10), 1, 1 << 16)
    assert guard.call_args.args == (1.1 * math.log1p(65535),)


def _ulps(got: float, exact: decimal.Decimal) -> float:
    return float(abs(decimal.Decimal(got) - exact) / decimal.Decimal(math.ulp(float(exact))))


@pytest.mark.parametrize("name,top", [("log1p", 65536.0), ("expm1", 22.2)])
def test_libm_within_the_guards_allowance(name, top):
    # _guard budgets 2**10 ulp for each; 2**4 is far inside that and far above
    # the ~0.5 ulp of a well-rounded libm.
    # The tops are the widest a 2**16 block uses: k/n0 from n0 = 1, and
    # c log1p(k/n0) with c < 2. Array calls, so numpy's SIMD loops.
    rng = np.random.default_rng(14)
    x = np.concatenate([2.0 ** rng.uniform(-52, math.log2(top), 2048), top * rng.uniform(0, 1, 2048)])
    x = x[x > 0]
    got = getattr(np, name)(x)
    with decimal.localcontext(decimal.Context(prec=60)):
        exact = [(1 + decimal.Decimal(v)).ln() if name == "log1p" else decimal.Decimal(v).exp() - 1
                 for v in x.tolist()]
        worst = max(_ulps(g, e) for g, e in zip(got.tolist(), exact))
    assert len(x) == 4096 and worst <= 2**4, f"np.{name} is off by {worst:.2f} ulp"


# -- batched primality against is_prime ----------------------------------------

# where prime_flags changes tier: the batched range starts at 38, runs near
# 2**20 are dense enough to sieve, the sieve stops at 2**44, the batch at 2**53
_TIER_EDGES = (0, 38, 1 << 20, _SIEVE_VALUE_CAP, 1 << 53, PRIME_BUDGET - 1)
# Carmichael numbers, the last (6k+1)(12k+1)(18k+1) at k = 15141, near 2**52
_CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 3215031751, 4498600676392369)
_P_BELOW_2_26_5 = 94906249  # the largest prime p with p**2 < 2**53


@st.composite
def flag_arrays(draw):
    """Ascending arrays of dense runs (step 1 or 2) and sparse runs, each
    around a tier edge or anywhere below 2**64."""
    values = set()
    for _ in range(draw(st.integers(1, 4))):
        centre = draw(st.one_of(st.sampled_from(_TIER_EDGES), st.integers(0, PRIME_BUDGET - 1)))
        if draw(st.booleans()):
            count, step = draw(st.integers(1, 400)), draw(st.integers(1, 2))
        else:
            count, step = draw(st.integers(1, 30)), draw(st.integers(3, 1 << 30))
        start = centre - draw(st.integers(0, count * step))
        values.update(range(max(start, 0), min(start + count * step, PRIME_BUDGET), step))
    return np.array(sorted(values), dtype=np.uint64)


def _u64(values):
    return np.array(sorted(values), dtype=np.uint64)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flag_arrays(), st.sampled_from((psprimes._MR_CHUNK, 1, 7)))
@example(_u64(range(41)), 7)
@example(_u64(_MR_LIMIT_DIVISORS + psprimes._MR_LIMITS), 1)
@example(_u64(_CARMICHAEL), 2)
@example(_u64(_P_BELOW_2_26_5**2 + d for d in (-2, 0, 2)), 7)
@example(_u64(((1 << 53) - 111, (1 << 53) - 1, (1 << 53) + 1)), 7)
@example(_u64(range((1 << 53) - 200, (1 << 53) + 200)), 16)  # a dense run across 2**53
@example(_u64(range(_SIEVE_VALUE_CAP - 200, _SIEVE_VALUE_CAP + 200)), 16)
@example(_u64(range((1 << 50) - 4000, (1 << 50) + 4000)), psprimes._MR_CHUNK)
def test_prime_flags_matches_is_prime(values, chunk):
    # small chunks cross chunk edges, and a chunk of a few values is batched too
    with mock.patch.object(psprimes, "_MR_CHUNK", chunk):
        flags = prime_flags(values)
    assert flags.dtype == bool
    assert flags.tolist() == [is_prime(v) for v in values.tolist()]


def test_prime_flags_refutes_every_strong_pseudoprime_bound():
    # psi_k passes the first k bases; below 2**53 each is batched, not sieved
    limits = [v for v in psprimes._MR_LIMITS if v < 1 << 53]
    assert len(limits) == 7
    assert not prime_flags(_u64(limits)).any()


_PSI_7 = psprimes._MR_LIMITS[6]  # 341,550,071,728,321: strong pseudoprime to bases 2 through 19


def test_prime_flags_stacks_the_bases_each_value_needs(monkeypatch):
    # ~360 primes around psi_7, the pseudoprime and Carmichael numbers in one batch
    primes = [p for p in range(_PSI_7 - 6_000, _PSI_7 + 6_000) if is_prime(p)]
    assert len(primes) >= 300
    values = _u64(primes + [_PSI_7] + list(_CARMICHAEL))
    spp, lanes = psprimes._strong_probable_prime, []

    def recording(m, a):
        ok = spp(m, a)
        lanes.extend(zip(m.tolist(), np.broadcast_to(a, m.shape).tolist(), ok.tolist()))
        return ok

    monkeypatch.setattr(psprimes, "_strong_probable_prime", recording)
    assert prime_flags(values).tolist() == [is_prime(v) for v in values.tolist()]
    # trial division alone, base 2 alone, or every base is_prime uses, primes always
    for v in values.tolist():
        bases = [a for m, a, _ in lanes if m == v]
        need = list(psprimes._MR_BASES[: psprimes._MR_COUNTS[bisect.bisect_right(psprimes._MR_LIMITS, v)]])
        assert bases in ([], need[:1], need) and (bases == need or not is_prime(v))
    psi = [(a, ok) for m, a, ok in lanes if m == _PSI_7]
    assert psi == [(a, a != 23) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(19, (1 << 52) - 1), min_size=1, max_size=40))
@example([(v - 1) // 2 for v in psprimes._MR_LIMITS if v < 1 << 53])
@example([(v - 1) // 2 for v in _CARMICHAEL])
def test_strong_probable_prime_per_lane_bases(halves):
    m = np.array([2 * h + 1 for h in halves], dtype=np.uint64)  # odd, in (37, 2**53)
    bases = np.array(psprimes._MR_BASES, dtype=np.uint64)
    stacked = psprimes._strong_probable_prime(np.repeat(m, bases.size), np.tile(bases, m.size))
    per_base = [psprimes._strong_probable_prime(m, a) for a in psprimes._MR_BASES]
    assert stacked.tolist() == np.stack(per_base, axis=1).ravel().tolist()


def test_prime_flags_needs_ascending_values():
    assert prime_flags(_u64([])).size == 0
    with pytest.raises(PreconditionViolated):
        prime_flags(np.array([13, 11], dtype=np.uint64))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, (1 << 53) - 1).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, m - 1), st.integers(0, m - 1))))
@example(((1 << 53) - 111, (1 << 53) - 112, (1 << 53) - 112))
@example(((1 << 53) - 1, (1 << 53) - 2, (1 << 52) + 3))
def test_mulmod_is_exact_below_2_53(case):
    m, a, b = case
    arr = lambda v: np.array([v], dtype=np.uint64)  # noqa: E731
    got = psprimes._mulmod(arr(a), arr(b), arr(m), arr(m).astype(np.float64))
    assert got.dtype == np.uint64 and int(got[0]) == a * b % m


def test_sparse_run_near_2_44_does_not_sieve(monkeypatch):
    # 200 floors below 2**44 need base primes up to 2**22 to sieve; they are too
    # few for that, so they take batched Miller-Rabin
    sieve = psprimes.primes_up_to

    def small_sieve(limit):
        if limit > 1 << 16:
            raise AssertionError(f"base primes up to {limit} requested")
        return sieve(limit)

    monkeypatch.setattr(psprimes, "primes_up_to", small_sieve)
    c = RationalExponent(11, 10)
    hi = _n_at(_SIEVE_VALUE_CAP, c)
    lo = hi - 200
    assert list(ps_primes_in(PsPrimeRange(c, lo, hi))) == _oracle(c, lo, hi)
    values = _u64(range(_SIEVE_VALUE_CAP - 1000, _SIEVE_VALUE_CAP + 1))
    assert prime_flags(values).tolist() == [is_prime(v) for v in values.tolist()]


def test_sparse_wide_run_is_tested_not_sieved(monkeypatch):
    # 2000 odd values over 2**26 near 2**27, 222 of them prime, pass the
    # base-prime count (~1862), but sieving their 64 MB run takes ~1 s against
    # a few ms of Miller-Rabin
    def no_sieve(lo, hi):
        raise AssertionError(f"[{lo}, {hi}] was sieved")

    monkeypatch.setattr(psprimes, "_segment_is_prime", no_sieve)
    values = np.uint64((1 << 27) + 3) + np.arange(2000, dtype=np.uint64) * np.uint64(33554)
    tracemalloc.start()
    try:
        flags = prime_flags(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert flags.tolist() == [is_prime(v) for v in values.tolist()] and flags.sum() == 222


def test_dense_blocks_stay_on_the_sieve(monkeypatch):
    # a census block at c = 11/10: 2**16 floors near 3e6, one sieve lookup
    def no_tests(*args):
        raise AssertionError("a dense block left the sieve")

    monkeypatch.setattr(psprimes, "_miller_rabin", no_tests)
    monkeypatch.setattr(psprimes, "is_prime", no_tests)
    ns, floors = psprimes.ps_prime_array(RationalExponent(11, 10), 600_000, 600_000 + (1 << 16))
    assert floors.size == ns.size > 4000
