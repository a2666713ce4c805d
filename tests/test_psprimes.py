"""Exact floors, primality, and PS prime streams."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from psqr import psprimes
from psqr.errors import CheckFailed, NotPrime, Overflow, PreconditionViolated
from psqr.psprimes import (
    _SIEVE_VALUE_CAP,
    PRIME_BUDGET,
    PsPrimeRange,
    RationalExponent,
    floor_pow,
    integer_nth_root,
    is_prime,
    is_ps_prime,
    prime_array,
    primes_in_range,
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
    assert list(primes_in_range(10, 30)) == [11, 13, 17, 19, 23, 29]
    primes = prime_array(0, 30)
    assert primes.dtype == np.uint64 and primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    want = [int(p) for p in primes_up_to(10**5) if p > 10**4]
    got = list(primes_in_range(10**4, 10**5, chunk=3000))
    assert got == want


def test_ps_stream_examples():
    c1 = RationalExponent(1, 1)
    assert list(ps_primes_in(PsPrimeRange(c1, 10, 20))) == [(11, 11), (13, 13), (17, 17), (19, 19)]
    c11 = RationalExponent(11, 10)
    assert list(ps_primes_in(PsPrimeRange(c11, 1, 10))) == [(2, 2), (3, 3), (5, 5), (6, 7), (9, 11)]
    c32 = RationalExponent(3, 2)
    assert list(ps_primes_in(PsPrimeRange(c32, 1, 10))) == [(2, 2), (3, 5), (5, 11), (10, 31)]


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
    for p in primes_in_range(1, limit):
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
    with pytest.raises(Overflow):
        PsPrimeRange(RationalExponent(3, 2), 1, 1 << 44)


# -- the float-floor block against the exact oracle ---------------------------

def _oracle(c, lo, hi):
    return [(n, m) for n in range(lo + 1, hi + 1) if is_prime(m := floor_pow(n, c))]


def _n_max(c):
    """Largest n whose floor stays within the prime budget."""
    return integer_nth_root((PRIME_BUDGET - 1) ** c.den, c.num)


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


class _PowOffByOne:
    """numpy, except that power lands one above the true value."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def power(x, y, out=None):
        return np.add(np.power(x, y, out=out), 1.0, out=out)


def test_ps_block_rejects_a_pow_outside_its_allowance(monkeypatch):
    monkeypatch.setattr(psprimes, "np", _PowOffByOne())
    with pytest.raises(CheckFailed):
        list(ps_primes_in(PsPrimeRange(RationalExponent(11, 10), 610_000, 620_000)))
