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
_SIEVE_SPAN = 1 << 8          # values of run width that cost the sieve one entry test (prime_flags)
_WIDE = np.longdouble         # tried where float64 certifies no floor (ps_prime_array)
# values prime_flags tests by batched Miller-Rabin (_mulmod's range); prime_flags
# searches its uint64 values only with uint64 keys, which numpy compares
# without first casting the whole array
_MR_BATCH = np.array((38, 1 << 53), dtype=np.uint64)
_MR_CHUNK = 1 << 14           # values per batched Miller-Rabin chunk, bounding its temporaries
# fewest values left after trial division that a chunk tests as arrays: each
# batched base costs 0.5-4 ms of numpy calls at any size, and is_prime ~12 us a
# pow near 2**50, so they cross at ~100 primes or ~300 random survivors
_MR_MIN_BATCH = 1 << 8


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
        # the segment sieve of [0, n] asks for the primes up to isqrt(n) first
        _base_primes = np.flatnonzero(_segment_is_prime(0, max(limit, 2 * int(_base_primes[-1]))))
    cut = np.searchsorted(_base_primes, limit, side="right")
    return _base_primes[:cut]


def _segment_is_prime(lo: int, hi: int) -> np.ndarray:
    """Boolean array over [lo, hi] inclusive, True exactly at primes."""
    width = hi - lo + 1
    seg = np.ones(width, dtype=bool)
    for k in range(lo, min(2, hi + 1)):
        seg[k - lo] = False
    base = primes_up_to(math.isqrt(hi))
    # each base prime strikes its multiples from its square or the segment's first
    starts = np.maximum(base * base, -(-lo // base) * base) - lo
    for p, start in zip(base.tolist(), starts.tolist()):
        seg[start::p] = False
    return seg


# -- batched primality -------------------------------------------------------

def prime_flags(values: np.ndarray) -> np.ndarray:
    """is_prime of each entry of a strictly ascending uint64 array, as a bool
    array.

    Each entry takes one of three tiers, by value and density:

    1. Dense runs: the entries up to _SIEVE_VALUE_CAP are cut into greedy runs
       no wider than _SIEVE_WIDTH_CAP. A run is one _segment_is_prime lookup
       when it holds at least as many entries as the sieve costs in entry
       tests: one per base prime, bounded without building them by
       pi(x) < 1.25506 x / ln x, x > 1 (Rosser and Schoenfeld, Illinois J.
       Math. 6 (1962), Cor. 1) at x = isqrt(hi), plus one per _SIEVE_SPAN
       values of the run's width. Measured on a 2-vCPU Xeon with numpy 2.4, a
       base prime costs the sieve loop ~1 us and a value of width 2-12 ns
       (the most in 2**26-wide segments, which outgrow the caches), while a
       batched Miller-Rabin entry costs 0.4 us (a random value, which trial
       division or the first base mostly rules out) to 2-3 us (a prime below
       2**32, which takes every base it needs); so a base prime weighs about
       one entry, and 2**8 values of width about one more. As the entries
       strictly ascend, a run as wide as it is long holds consecutive
       values, and its segment is its flags. A sparser run is tested entry
       by entry below.
    2. Entries in [38, 2**53): batched Miller-Rabin, _MR_CHUNK values at a
       time (_miller_rabin), with the bases is_prime would use; a chunk
       with fewer than _MR_MIN_BATCH values left after vectorised trial
       division hands them to is_prime, which is then faster. The float
       only guesses each modular product's quotient, and integer arithmetic
       certifies the remainder (_mulmod): for a, b < m < 2**53, fl(a), fl(b)
       and fl(m) are exact, and the product and the quotient are rounded
       once each, so fl(a) fl(b) / fl(m) = (ab/m)(1 + e), |e| <= 2**-52 +
       2**-106. As ab/m <= (m - 1)**2 / m < m - 1 < 2**53 - 1, that is
       within 2 of ab/m, and its floor q within 3. Then t = ab - qm =
       m(ab/m - q) has |t| < 3m < 2**63, so t computed in wrapping uint64
       and read as int64 is exact, and t mod m is the residue.
    3. The rest (below 38, where an entry may be a base, or from 2**53):
       is_prime.
    """
    values = np.asarray(values, dtype=np.uint64)
    if (values[1:] <= values[:-1]).any():
        raise PreconditionViolated("prime_flags needs a strictly ascending array")
    flags = np.zeros(values.size, dtype=bool)
    pending = np.ones(values.size, dtype=bool)
    capped = values[: int(np.searchsorted(values, np.uint64(_SIEVE_VALUE_CAP), side="right"))]
    i = 0
    while i < capped.size:
        lo = int(capped[i])
        j = int(np.searchsorted(capped, np.uint64(lo + _SIEVE_WIDTH_CAP), side="right"))
        hi = int(capped[j - 1])
        root = math.isqrt(hi)
        if root > 1 and j - i >= 1.25506 * root / math.log(root) + (hi - lo) / _SIEVE_SPAN:
            seg = _segment_is_prime(lo, hi)
            if j - i < seg.size:
                # an int64 view of values below 2**44 indexes without numpy's uint64 cast
                seg = seg[capped[i:j].view(np.int64) - lo]
            flags[i:j] = seg
            pending[i:j] = False
        i = j
    if not pending.any():
        return flags
    b_lo, b_hi = np.searchsorted(values, _MR_BATCH).tolist()
    for k in range(b_lo, b_hi, _MR_CHUNK):
        chunk = k + np.flatnonzero(pending[k : min(k + _MR_CHUNK, b_hi)])
        if chunk.size:
            flags[chunk] = _miller_rabin(values[chunk])
    pending[b_lo:b_hi] = False
    for k in np.flatnonzero(pending).tolist():
        flags[k] = is_prime(int(values[k]))
    return flags


_MR_LIMIT_ARRAY = np.array(_MR_LIMITS, dtype=np.uint64)
_MR_COUNT_ARRAY = np.array(_MR_COUNTS)


def _miller_rabin(m: np.ndarray) -> np.ndarray:
    """is_prime over a uint64 array of values in [38, 2**53): trial division by
    the 12 bases (each below every value), then each value's first _MR_COUNTS
    bases, as is_prime runs them; each base runs only on the values no
    earlier base has ruled out. Fewer than _MR_MIN_BATCH values left after
    trial division go to is_prime one by one."""
    prime = np.ones(m.size, dtype=bool)
    for p in _MR_BASES:
        prime &= m % np.uint64(p) != 0
    live = np.flatnonzero(prime)
    if live.size < _MR_MIN_BATCH:
        prime[live] = [is_prime(v) for v in m[live].tolist()]
        return prime
    counts = _MR_COUNT_ARRAY[np.searchsorted(_MR_LIMIT_ARRAY, m, side="right")]
    for k, a in enumerate(_MR_BASES):
        live = np.flatnonzero(prime & (counts > k))
        if not live.size:
            break
        prime[live] = _strong_probable_prime(m[live], a)
    return prime


def _strong_probable_prime(m: np.ndarray, a: int) -> np.ndarray:
    """Whether each odd m in (a, 2**53) is a strong probable prime to base a."""
    one = np.uint64(1)
    m1 = m - one
    # m - 1 = d * 2**s; frexp reads s off the lowest set bit exactly
    s = np.frexp((m1 & (~m1 + one)).astype(np.float64))[1] - 1
    d = m1 >> s.astype(np.uint64)
    mf = m.astype(np.float64)
    x = np.ones_like(m)
    base = np.uint64(a)
    for bit in range(int(d.max()).bit_length() - 1, -1, -1):
        x = _mulmod(x, x, m, mf)
        odd = (d >> np.uint64(bit)) & one != 0
        x = np.where(odd, x * base % m, x)  # x * a < 37 * 2**53 < 2**64: exact
    ok = (x == one) | (x == m1)
    for r in range(1, int(s.max())):
        x = _mulmod(x, x, m, mf)
        ok |= (x == m1) & (s > r)
    return ok


def _mulmod(a: np.ndarray, b: np.ndarray, m: np.ndarray, mf: np.ndarray) -> np.ndarray:
    """a * b mod m, exactly, for uint64 arrays with a, b < m < 2**53; mf = fl(m).
    The bound that makes it exact is derived in prime_flags."""
    q = (a.astype(np.float64) * b.astype(np.float64) / mf).astype(np.uint64)  # floor: >= 0
    t = (a * b - q * m).view(np.int64)
    return np.remainder(t, m.view(np.int64)).view(np.uint64)


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
        # 2**(log2(x)/k) to 52 bits, rounded up and shifted into place: within
        # about log2(x) 2**-53 / k. Rounded down, a small root r could start 1/r
        # low and overshoot by (1 + 1/r)**k / k: ~k**2 / r slow steps back
        e = math.log2(x) / k
        shift = max(int(e) - 52, 0)
        guess = (int(2.0 ** (e - shift)) + 1) << shift
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
        # n = 0 has floor 0, which is never prime
        if not 0 <= self.lo < self.hi:
            raise PreconditionViolated("need 0 <= lo < hi for the n-window (lo, hi]")
        # floor(hi**c) >= hi: a hi past the budget is refused before any power
        if self.hi >= PRIME_BUDGET or floor_pow(self.hi, self.exponent) >= PRIME_BUDGET:
            raise Overflow("hi**c exceeds the 64-bit prime budget")

    def blocks(self, size: int) -> Iterator[tuple[RationalExponent, int, int]]:
        """The window's n-blocks (c, b_lo, b_hi), ascending, of size n but the
        last, and generated lazily: ps_prime_array's arguments."""
        if size < 1:
            raise PreconditionViolated("block_size must be positive")
        for b_lo in range(self.lo, self.hi, size):
            yield self.exponent, b_lo, min(b_lo + size, self.hi)


BLOCK_SIZE = 1 << 16


def ps_prime_array(c: RationalExponent, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The n in (lo, hi] whose floor(n**c) is prime, and those floors, as two
    ascending uint64 arrays; 0 <= lo < hi with floor(hi**c) < PRIME_BUDGET.

    At c = 1 the floors are n itself, so the block is the primes in (lo, hi]:
    every plain-prime window (a census of all primes, psprimes --c 1) is a
    c = 1 block. Otherwise _certified_floors takes float floors for the whole
    block, and exact integer roots only for the n whose float power lies
    within a guard band of an integer. With c = a/b and u = eps/2 the float
    type's unit roundoff, the band is derived from the error of
    f = fl(n) pow(fl(n), fl((a - b)/b)) against y = n**c; here 1 <= n < 2**64,
    since n <= floor(n**c) < PRIME_BUDGET, and 1 < c < 2.

    1. (a - b)/b: its float is e(1 + d), |d| <= u, and (c - 1) ln n amplifies d
       to at most 44.4 (c - 1) u: c/(c - 1) less than in pow(fl(n), fl(a/b)).
    2. n: fl(n) is exact with a 64-bit significand; else n0 and n0 + i are
       rounded, within 2u, so < 4u in y.
    3. pow: numpy may dispatch float64 to a SIMD pow within a few ulp; allow
       2**10 ulp, 2**11 u. Long double calls libm's powl, within 1 ulp in
       glibc; allow 2**2 ulp, 2**3 u.
    4. the product: u.
    Their sum B < 2**-30, so |f - y| < B (1 + 2**-20) y covers every
    higher-order term. With mf = floor(f) >= 1, f < mf + 1 <= 2 mf, so
    |f - y| < g = mf * _guard(dtype, c), the next power of two above
    2 B (1 + 2**-20), which keeps g exact: 2**-40 in float64 at every c, and
    in x86's 80-bit long double 2**-59 at c = 11/10 and 2**-58 at 243/205.
    5. floor(f) is exact, and so is f - floor(f): it lies on f's ulp grid and
       floor(f) >= f/2 (Sterbenz). 1 - r is exact for r >= 1/2, so
       d = min(r, 1 - r) is f's exact distance to the nearest integer.
    If d > g, the interval (f - g, f + g) holds y and no integer, so
    floor(y) = mf. Otherwise integer_nth_root certifies the floor from mf,
    with m**b <= n**a < (m+1)**b. As d <= 1/2, every n with mf * _guard >= 1/2
    falls in the band: from floors of 2**39 in float64. A block whose top
    floor reaches that takes long double (_WIDE) instead, if it has a 64-bit
    significand and certifies the block's first floor; otherwise the float64
    floor only seeds the exact root.

    The floors strictly ascend, and prime_flags decides their primality: a
    block of dense floors below _SIEVE_VALUE_CAP is one segment-sieve lookup
    (at c = 1 the segment itself), and sparse or larger floors take batched
    or scalar Miller-Rabin.
    """
    n0 = lo + 1
    if c.num == c.den:
        floors = np.arange(n0, hi + 1, dtype=np.uint64)
    else:
        first, top = float(n0) ** float(c.value), float(hi) ** float(c.value)
        wide = (np.finfo(_WIDE).nmant >= 63 and top * _guard(np.float64, c) >= 0.5
                and first * _guard(_WIDE, c) < 0.5)
        floors = _certified_floors(c, n0, hi, _WIDE if wide else np.float64)

    keep = np.flatnonzero(prime_flags(floors))
    return keep.astype(np.uint64) + np.uint64(n0), floors[keep]


def _guard(dtype, c: RationalExponent) -> float:
    """The band's relative half-width in the float type dtype at exponent c
    (ps_prime_array)."""
    u = float(np.finfo(dtype).eps) / 2
    pow_ulps = 1 << 10 if np.dtype(dtype) == np.float64 else 1 << 2
    n_err = 0.0 if np.finfo(dtype).nmant >= 63 else 4 * u
    bound = 44.4 * (c.num - c.den) / c.den * u + n_err + 2 * pow_ulps * u + u
    return 2.0 ** math.ceil(math.log2(2 * bound * (1 + 2**-20)))


def _certified_floors(c: RationalExponent, n0: int, hi: int, dtype) -> np.ndarray:
    """floor(n**c) for n0 <= n <= hi, c > 1, as a uint64 array: floors in the
    float type dtype, and exact roots for the n in its guard band."""
    a, b = c.num, c.den
    n = np.arange(hi - n0 + 1, dtype=dtype)
    n += dtype(n0)
    f = np.power(n, dtype(a - b) / dtype(b))
    f *= n
    del n
    mf = np.floor(f)
    np.subtract(f, mf, out=f)
    np.minimum(f, 1.0 - f, out=f)
    band = f <= mf * _guard(dtype, c)
    del f
    # a float floor may round up to 2**64; clamped ones lie in the band
    floors = np.minimum(mf, np.nextafter(dtype(2.0**64), dtype(0)), out=mf).astype(np.uint64)
    del mf
    # a cheap check that libm keeps within the allowance above
    for i, n in ((0, n0), (-1, hi)):
        if not band[i] and int(floors[i]) != (exact := floor_pow(n, c)):
            raise CheckFailed(
                f"float pow gives floor {int(floors[i])} where the exact floor is {exact}"
            )
    for i in np.flatnonzero(band).tolist():
        floors[i] = integer_nth_root((n0 + i) ** a, b, int(floors[i]))
    return floors
