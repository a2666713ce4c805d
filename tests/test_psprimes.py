"""Exact floors, primality, and PS prime streams."""

import random
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
    ps_primes_in,
)


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
# windows ending at the budget: floors next to 2**64, whose float powers may
# round up to 2**64 before the clamp and the uint64 cast
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
    with mock.patch.object(psprimes, "_MR_MIN_BATCH", 1):  # batch even a few floors
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


# -- float floors in both precisions against floor_pow ---------------------------

# at 255/254, n passes 2**53 while long double still certifies (floors of
# 2**55): only a 64-bit significand holds such n exactly
_FLOAT_CS = tuple(RationalExponent.parse(t) for t in ("11/10", "243/205", "3/2", "255/128", "255/254"))
_WIDE_OK = np.finfo(np.longdouble).nmant >= 63
_needs_wide = pytest.mark.skipif(not _WIDE_OK, reason="long double is no wider than float64 here")


class _PowOffByOne:
    """numpy, except that power lands one above the true value."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def power(x, y, out=None):
        return np.add(np.power(x, y, out=out), 1.0, out=out)


def test_ps_block_rejects_a_pow_outside_its_allowance(monkeypatch):
    floors = mock.Mock(wraps=psprimes._certified_floors)
    monkeypatch.setattr(psprimes, "_certified_floors", floors)
    monkeypatch.setattr(psprimes, "np", _PowOffByOne())
    cases = [(610_000, np.float64)]
    if _WIDE_OK:  # floors near 2**52 take long double where it is wider than float64
        cases.append((200_000_000_000_000, np.longdouble))
    for lo, dtype in cases:
        with pytest.raises(CheckFailed):
            list(ps_primes_in(PsPrimeRange(RationalExponent(11, 10), lo, lo + 10_000)))
        assert floors.call_args.args[3] is dtype


def _block_around(c, value, before, after):
    """(lo, hi) around the first n whose floor reaches value, within the budget."""
    top = _n_max(c)
    n = min(_n_at(value, c) + 1, top)
    hi = min(n + after, top)
    return max(0, min(n - 1 - before, hi - 1)), hi


def _float_floors(c, lo, hi, dtype):
    floors = psprimes._certified_floors(c, lo + 1, hi, dtype)
    assert floors.dtype == np.uint64
    return floors.tolist()


@st.composite
def float_blocks(draw):
    c = draw(st.sampled_from(_FLOAT_CS))
    k = draw(st.integers(4, 63))
    value = draw(st.integers(1 << k, (1 << (k + 1)) - 1))
    return c, *_block_around(c, value, draw(st.integers(0, 30)), draw(st.integers(1, 30)))


@_differential
@given(float_blocks(), st.sampled_from((np.float64, np.longdouble)))
def test_float_floors_match_floor_pow(block, dtype):
    # either float type at any size: the band sends what it cannot certify to the exact root
    c, lo, hi = block
    assert _float_floors(c, lo, hi, dtype) == [floor_pow(n, c) for n in range(lo + 1, hi + 1)]


# float64 certifies nothing from 2**39; long double still certifies at 2**55 for
# every exponent tested, and nothing next to 2**64
_PRECISION_EDGES = (1 << 39, 1 << 53, 1 << 55, PRIME_BUDGET - 1)


@pytest.mark.parametrize("value", _PRECISION_EDGES, ids=("2^39", "2^53", "2^55", "2^64-1"))
@pytest.mark.parametrize("c", _FLOAT_CS, ids=str)
@pytest.mark.parametrize("wide", (np.longdouble, np.float64), ids=("longdouble", "no-wider"))
def test_ps_block_floats_at_the_precision_edges(monkeypatch, value, c, wide):
    # _WIDE = float64 stands for a platform whose long double is no wider than float64
    monkeypatch.setattr(psprimes, "_WIDE", wide)
    floors = mock.Mock(wraps=psprimes._certified_floors)
    monkeypatch.setattr(psprimes, "_certified_floors", floors)
    lo, hi = _block_around(c, value, 40, 40)
    ns, got = psprimes.ps_prime_array(c, lo, hi)
    assert list(zip(ns.tolist(), got.tolist())) == _oracle(c, lo, hi)
    # the wide float certifies nothing next to 2**64, so float64 seeds the roots there
    wide_used = wide is np.longdouble and _WIDE_OK and value < PRIME_BUDGET - 1
    assert floors.call_args.args[3] is (np.longdouble if wide_used else np.float64)
    for dtype in (np.float64, np.longdouble):
        assert _float_floors(c, lo, hi, dtype) == [floor_pow(n, c) for n in range(lo + 1, hi + 1)]


@_needs_wide
def test_guards_as_derived():
    # float64 keeps 2**-40 at every c; long double's shrinks with c - 1
    assert {psprimes._guard(np.float64, c) for c in _FLOAT_CS} == {2.0**-40}
    assert psprimes._guard(np.longdouble, RationalExponent(11, 10)) == 2.0**-59
    assert psprimes._guard(np.longdouble, RationalExponent(243, 205)) == 2.0**-58
    # so long double certifies floors up to 2**56 at each exponent tested
    for c in _FLOAT_CS:
        assert psprimes._guard(np.longdouble, c) <= 2.0**-57


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
@given(flag_arrays(), st.sampled_from((psprimes._MR_CHUNK, 1, 7)), st.sampled_from((1, 4)))
@example(_u64(range(41)), 7, 1)
@example(_u64(_MR_LIMIT_DIVISORS + psprimes._MR_LIMITS), 1, 1)
@example(_u64(_CARMICHAEL), 2, 1)
@example(_u64(_P_BELOW_2_26_5**2 + d for d in (-2, 0, 2)), 7, 1)
@example(_u64(((1 << 53) - 111, (1 << 53) - 1, (1 << 53) + 1)), 7, 1)
@example(_u64(range((1 << 53) - 200, (1 << 53) + 200)), 16, 1)  # a dense run across 2**53
@example(_u64(range(_SIEVE_VALUE_CAP - 200, _SIEVE_VALUE_CAP + 200)), 16, 1)
@example(_u64(range((1 << 50) - 4000, (1 << 50) + 4000)), psprimes._MR_CHUNK, psprimes._MR_MIN_BATCH)
def test_prime_flags_matches_is_prime(values, chunk, min_batch):
    # small chunks cross chunk edges; a small min_batch batches even a few values
    with mock.patch.multiple(psprimes, _MR_CHUNK=chunk, _MR_MIN_BATCH=min_batch):
        flags = prime_flags(values)
    assert flags.dtype == bool
    assert flags.tolist() == [is_prime(v) for v in values.tolist()]


def test_prime_flags_refutes_every_strong_pseudoprime_bound(monkeypatch):
    # psi_k passes the first k bases; below 2**53 each is batched, not sieved
    monkeypatch.setattr(psprimes, "_MR_MIN_BATCH", 1)
    limits = [v for v in psprimes._MR_LIMITS if v < 1 << 53]
    assert len(limits) == 7
    assert not prime_flags(_u64(limits)).any()


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
