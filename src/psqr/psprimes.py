"""Exact [n^c] arithmetic and Piatetski-Shapiro prime streams.

Floating point only ever supplies starting guesses; every floor, root,
and primality verdict is certified by integer arithmetic.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import CheckFailed, NotPrime, Overflow, PreconditionViolated

# Deterministic Miller-Rabin witness set covering the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k, the smallest strong pseudoprime to the first k prime bases (OEIS
# A014233; Jiang and Deng, Math. Comp. 83 (2014) 2915-2924): below
# _MR_LIMITS[i] the first _MR_COUNTS[i] bases decide primality. psi_7 = psi_8
# and psi_9 = psi_10 = psi_11; psi_12 exceeds 2**64, so all 12 bases serve the
# values from psi_9 up to 2**64.
_MR_LIMITS = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
)
_MR_COUNTS = (1, 2, 3, 4, 5, 6, 7, 9, 12)

PRIME_BUDGET = 1 << 64        # largest prime value any stream may emit
MAX_EXPONENT_NUM = 255        # cap on the numerator of c, enforced at parse time
_POW_BIT_BUDGET = 1 << 21     # cap on bits of n**num intermediates

_SIEVE_WIDTH_CAP = 1 << 26    # widest value window we sieve instead of testing
_SIEVE_VALUE_CAP = 1 << 44    # beyond this, base primes get too large to sieve
_FLOAT_GUARD = 2.0**-40       # relative half-width of the exactly certified band (ps_prime_array)
_BELOW_2_64 = 2.0**64 - 2.0**11  # largest float below 2**64


def is_prime(m: int) -> bool:
    """Exact primality verdict, deterministic for the full 64-bit range.

    Trial division by the 12 bases, then Miller-Rabin to as many of them as
    the value needs (_MR_LIMITS).
    """
    if m >= PRIME_BUDGET:
        raise Overflow(f"primality budget is 2**64, got a {m.bit_length()}-bit value")
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[: _MR_COUNTS[bisect.bisect_right(_MR_LIMITS, m)]]:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# -- prime sieves ------------------------------------------------------------

_base_primes = np.array([2, 3, 5, 7], dtype=np.int64)


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending (cached, grows monotonically)."""
    global _base_primes
    if limit > int(_base_primes[-1]):
        n = max(limit, 2 * int(_base_primes[-1]))
        sieve = np.ones(n + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(n) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        _base_primes = np.flatnonzero(sieve).astype(np.int64)
    cut = np.searchsorted(_base_primes, limit, side="right")
    return _base_primes[:cut]


def _segment_is_prime(lo: int, hi: int) -> np.ndarray:
    """Boolean array over [lo, hi] inclusive, True exactly at primes."""
    width = hi - lo + 1
    seg = np.ones(width, dtype=bool)
    for k in range(lo, min(2, hi + 1)):
        seg[k - lo] = False
    for p in primes_up_to(math.isqrt(hi)):
        p = int(p)
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start <= hi:
            seg[start - lo :: p] = False
    return seg


def prime_array(lo: int, hi: int) -> np.ndarray:
    """Primes p with lo < p <= hi, 0 <= lo < hi, as an ascending uint64 array,
    by one segment sieve."""
    primes = np.flatnonzero(_segment_is_prime(lo + 1, hi)).astype(np.uint64)
    primes += np.uint64(lo + 1)
    return primes


def primes_in_range(lo: int, hi: int, chunk: int = 1 << 22) -> Iterator[int]:
    """Primes p with lo < p <= hi, ascending, one prime_array per chunk."""
    for pos in range(lo, hi, chunk):
        yield from prime_array(pos, min(pos + chunk, hi)).tolist()


# -- exact roots and floors --------------------------------------------------

def integer_nth_root(x: int, k: int, guess: int | None = None) -> int:
    """floor(x ** (1/k)) for x >= 0, k >= 1, certified by integer compares.

    A guess (a float floor, say) replaces the seed from log2(x): any guess
    gives the exact answer, and one within a unit or two of the root costs one
    Newton step and the closing compares.
    """
    if x < 0:
        raise ValueError("negative radicand")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if k == 1 or x < 2:
        return x
    if guess is None:
        # 2**(log2(x)/k) to 52 bits, shifted into place; its relative error
        # is about log2(x) 2**-53 / k, so Newton needs only a few steps
        e = math.log2(x) / k
        shift = max(int(e) - 52, 0)
        guess = int(2.0 ** (e - shift)) << shift
    # one integer Newton step from any r >= 1 lands at or above the floor of
    # the root (AM-GM), and Newton steps from above descend onto it
    r = max(guess, 1)
    while True:
        r = ((k - 1) * r + x // r ** (k - 1)) // k
        if r**k <= x:
            break
    while (r + 1) ** k <= x:
        r += 1
    return r


@dataclass(frozen=True)
class RationalExponent:
    """Reduced exponent c = num/den with 1 <= c < 2 and a capped numerator."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.num < 1 or self.den < 1:
            raise ValueError(f"exponent must be positive, got {self.num}/{self.den}")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)
        if not self.den <= self.num < 2 * self.den:
            raise ValueError(f"exponent must satisfy 1 <= c < 2, got {self.num}/{self.den}")
        if self.num > MAX_EXPONENT_NUM:
            raise ValueError(
                f"exponent numerator {self.num} exceeds {MAX_EXPONENT_NUM}; "
                "intermediate powers would outgrow the integer budget"
            )

    @classmethod
    def parse(cls, text: str) -> "RationalExponent":
        """Parse 'p/q' or 'p'; decimal forms are rejected to keep floors exact."""
        body = text.strip()
        num, slash, den = body.partition("/")
        try:
            if slash:
                return cls(int(num), int(den))
            return cls(int(body), 1)
        except ValueError as exc:
            raise ValueError(
                f"exponent must be an exact fraction like 11/10, got {text!r}"
            ) from exc

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def gamma(self) -> Fraction:
        """The reciprocal exponent 1/c."""
        return Fraction(self.den, self.num)

    @property
    def theorem_backed(self) -> bool:
        """True iff c lies in the proven range c <= 243/205."""
        return 205 * self.num <= 243 * self.den

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"


def floor_pow(n: int, c: RationalExponent) -> int:
    """floor(n ** (num/den)) exactly: the unique m with m**den <= n**num < (m+1)**den."""
    if n < 1:
        raise PreconditionViolated(f"floor_pow needs n >= 1, got {n}")
    if c.num == c.den:
        return n
    if n.bit_length() * c.num > _POW_BIT_BUDGET:
        raise Overflow(f"n**{c.num} would exceed the {_POW_BIT_BUDGET}-bit budget")
    return integer_nth_root(n**c.num, c.den)


def is_ps_prime(p: int, c: RationalExponent) -> bool:
    """True iff the prime p equals floor(n**c) for some integer n.

    Exact form of the floor-difference test: the interval [p^gamma, (p+1)^gamma)
    contains an integer iff ceil((p+1)^gamma) - ceil(p^gamma) = 1. Raises
    NotPrime for a p that is not prime.
    """
    if not is_prime(p):
        raise NotPrime(f"is_ps_prime needs a prime, got {p}")
    if c.num == c.den:
        return True
    a, b = c.num, c.den
    if p.bit_length() * b > _POW_BIT_BUDGET:
        raise Overflow(f"p**{b} would exceed the {_POW_BIT_BUDGET}-bit budget")
    # p prime and gcd(a, b) = 1 with a >= 3, so p^(b/a) is never an integer
    n = integer_nth_root(p**b, a) + 1
    return n**a < (p + 1) ** b


@dataclass(frozen=True)
class PsPrimeRange:
    """The n-window (lo, hi] together with its exponent."""

    exponent: RationalExponent
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not 1 <= self.lo < self.hi:
            raise PreconditionViolated(f"need 1 <= lo < hi, got ({self.lo}, {self.hi}]")
        if floor_pow(self.hi, self.exponent) >= PRIME_BUDGET:
            raise Overflow("hi**c exceeds the 64-bit prime budget")


BLOCK_SIZE = 1 << 16


def ps_primes_in(rng: PsPrimeRange, block_size: int = BLOCK_SIZE) -> Iterator[tuple[int, int]]:
    """Yield (n, floor(n**c)) for rng.lo < n <= rng.hi where the floor is prime.

    Processed in fixed n-blocks of ps_prime_array; ascending in n.
    """
    if block_size < 1:
        raise PreconditionViolated("block_size must be positive")
    for b_lo in range(rng.lo, rng.hi, block_size):
        ns, floors = ps_prime_array(rng.exponent, b_lo, min(b_lo + block_size, rng.hi))
        yield from zip(ns.tolist(), floors.tolist())


def ps_prime_array(c: RationalExponent, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The n in (lo, hi] whose floor(n**c) is prime, and those floors, as two
    ascending uint64 arrays; 1 <= lo < hi with floor(hi**c) < PRIME_BUDGET.

    At c = 1 the floors are n itself. Otherwise the block takes float floors
    for the whole block, and exact integer roots only for the n whose float
    power lies within a guard band of an integer. The band is derived
    from the error of f = pow(fl(n), fl(a/b)) against y = n**c; here
    2 <= n < 2**64, since n <= floor(n**c) < PRIME_BUDGET, and 1 < c < 2.

    1. a/b: fl(a/b) = c(1 + e) with |e| <= 2**-53, so n**fl(a/b) = y exp(e c ln n),
       and c ln n amplifies e to at most 2**-53 * 2 * 44.4 < 2**-46.4.
    2. n: fl(n) is exact below 2**53; above, n passes through two roundings,
       |fl(n)/n - 1| <= 2**-52, which the power at most doubles: < 2**-50.9.
    3. pow: a correctly rounded libm is within 1 ulp, and numpy may dispatch to
       a SIMD pow within a few; allow 2**10 ulp, a relative 2**-42.
    Together |f - y| < 2**-41.9 y < 2**-41.8 f. With mf = floor(f) >= 1,
    f < mf + 1 <= 2 mf, so |f - y| < 2**-40.8 mf < g = mf * _FLOAT_GUARD
    (g is exact: scaling by a power of two).
    4. floor(f) is exact, and so is f - floor(f): it lies on f's ulp grid and
       floor(f) >= f/2 (Sterbenz). 1 - r is exact for r >= 1/2, so
       d = min(r, 1 - r) is f's exact distance to the nearest integer.
    If d > g, the interval (f - g, f + g) holds y and no integer, so
    floor(y) = mf. Otherwise integer_nth_root certifies the floor from mf,
    with m**b <= n**a < (m+1)**b. As d <= 1/2, every n with mf >= 2**39 falls
    in the band, and there the float floor only seeds the exact root.

    Primality of the floors is one lookup into a segment sieve when they stay
    within _SIEVE_VALUE_CAP and _SIEVE_WIDTH_CAP, else Miller-Rabin per floor.
    """
    a, b = c.num, c.den
    n0 = lo + 1
    if a == b:
        floors = np.arange(n0, hi + 1, dtype=np.uint64)
    else:
        f = np.arange(hi - lo, dtype=np.float64)
        f += float(n0)
        np.power(f, a / b, out=f)
        mf = np.floor(f)
        np.subtract(f, mf, out=f)
        np.minimum(f, 1.0 - f, out=f)
        band = f <= mf * _FLOAT_GUARD
        del f
        # a cheap check that libm keeps within the allowance above
        for i, exact in ((0, floor_pow(n0, c)), (-1, floor_pow(hi, c))):
            if not band[i] and mf[i] != exact:
                raise CheckFailed(
                    f"float pow gives floor {int(mf[i])} where the exact floor is {exact}"
                )
        # a float floor may round up to 2**64; clamped ones lie in the band
        floors = np.minimum(mf, _BELOW_2_64, out=mf).astype(np.uint64)
        del mf
        for i in np.flatnonzero(band).tolist():
            floors[i] = integer_nth_root((n0 + i) ** a, b, int(floors[i]))

    m_lo, m_hi = int(floors[0]), int(floors[-1])
    if m_hi - m_lo <= _SIEVE_WIDTH_CAP and m_hi <= _SIEVE_VALUE_CAP:
        # an int64 view of floors below 2**44 indexes without numpy's uint64 cast
        prime = _segment_is_prime(m_lo, m_hi)[floors.view(np.int64) - m_lo]
    else:
        prime = np.fromiter(map(is_prime, floors.tolist()), dtype=bool, count=floors.size)
    keep = np.flatnonzero(prime)
    return keep.astype(np.uint64) + np.uint64(n0), floors[keep]
