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
# values prime_flags tests by batched Miller-Rabin (_mulmod's range); prime_flags
# searches its uint64 values only with uint64 keys, which numpy compares
# without first casting the whole array
_MR_BATCH = np.array((38, 1 << 53), dtype=np.uint64)
_MR_CHUNK = 1 << 14           # values per batched Miller-Rabin chunk, bounding its temporaries


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

# (sieved limit, the primes up to it), replaced whole, so any thread may grow it
_sieved = (10, np.array([2, 3, 5, 7], dtype=np.int64))


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending (cached; a miss sieves past twice the cached limit)."""
    global _sieved
    sieved, primes = _sieved  # read once: another thread may replace the pair
    if limit > sieved:
        # the segment sieve of [0, n] asks for the primes up to isqrt(n) first
        sieved = max(limit, 2 * sieved)
        primes = np.flatnonzero(_segment_is_prime(0, sieved))
        _sieved = sieved, primes
    return primes[: np.searchsorted(primes, limit, side="right")]


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

# the primality cost table, in serial seconds (primality_tier)
_TEST_S = 7e-7                # one entry test: a batched Miller-Rabin entry, or one base prime
_SIEVE_SPAN = 1 << 8          # values of sieve width that cost one entry test
_SCALAR_S = 7e-6              # one is_prime entry, from 2**53
FLOOR_PASS_S = 2e-8           # one n of the float floor pass at c > 1 (_certified_floors)


def primality_tier(count: int, lo: int, hi: int) -> tuple[str, float]:
    """prime_flags' tier for a run of count ascending values in [lo, hi]
    ("sieve", "batched" or "scalar") and its serial seconds, in Python alone.

    A run up to _SIEVE_VALUE_CAP is one _segment_is_prime lookup when it
    holds at least as many entries as the sieve costs in entry tests: one per
    base prime, bounded by pi(x) < 1.25506 x / ln x, x > 1 (Rosser and
    Schoenfeld, Illinois J. Math. 6 (1962), Cor. 1) at x = isqrt(hi), plus
    one per _SIEVE_SPAN values of its width. Measured on a 2-vCPU Xeon with
    numpy 2.4, a base prime of that bound costs the sieve 0.65-0.75 us and a
    value of width 2.5-5 ns, and prime_flags a batched entry 0.42 us near
    2**40 to 0.75 us near 2**53 (_TEST_S takes the top: a run priced high
    costs a census at most a pool start), so a base prime weighs about one
    entry and 2**8 values one more. Other runs are batched below 2**53 and
    take is_prime (6.7 us an entry near 2**62) above.
    """
    root = math.isqrt(hi)
    if root > 1 and hi <= _SIEVE_VALUE_CAP:
        tests = 1.25506 * root / math.log(root) + (hi - lo) / _SIEVE_SPAN
        if count >= tests:
            return "sieve", tests * _TEST_S
    if hi < 1 << 53:
        return "batched", count * _TEST_S
    return "scalar", count * _SCALAR_S


def prime_flags(values: np.ndarray) -> np.ndarray:
    """is_prime of each entry of a strictly ascending uint64 array, as a bool
    array.

    Each entry takes one of three tiers, by value and density:

    1. Dense runs: the entries up to _SIEVE_VALUE_CAP are cut into greedy runs
       no wider than _SIEVE_WIDTH_CAP, and a run is one _segment_is_prime
       lookup when primality_tier (the density rule, beside the cost table)
       says so. As the entries strictly ascend, a run as wide as it is long
       holds consecutive values, and its segment is its flags. A sparser run
       is tested entry by entry below.
    2. Entries in [38, 2**53): batched Miller-Rabin, _MR_CHUNK values at a
       time (_miller_rabin), with the bases is_prime would use: base 2 in one
       call, then the rest as (value, base) lanes, _MR_CHUNK a call. The float
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
        if primality_tier(j - i, lo, hi)[0] == "sieve":
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
_MR_BASE_ARRAY = np.array(_MR_BASES, dtype=np.uint64)


def _miller_rabin(m: np.ndarray) -> np.ndarray:
    """is_prime over a uint64 array of values in [38, 2**53): trial division by
    the 12 bases (each below every value), base 2 over the survivors, then
    every further base each survivor of base 2 needs (_MR_COUNTS, as is_prime
    runs them) as (value, base) lanes, at most _MR_CHUNK a call."""
    prime = np.ones(m.size, dtype=bool)
    for p in _MR_BASES:
        prime &= m % np.uint64(p) != 0
    live = np.flatnonzero(prime)
    prime[live] = _strong_probable_prime(m[live], 2)
    live = live[prime[live]]
    # value i owns lanes ends[i] - need[i] .. ends[i] - 1, for bases 1 .. need[i]
    need = _MR_COUNT_ARRAY[np.searchsorted(_MR_LIMIT_ARRAY, m[live], side="right")] - 1
    ends = np.cumsum(need)
    lanes = int(ends[-1]) if ends.size else 0
    for k in range(0, lanes, _MR_CHUNK):
        lane = np.arange(k, min(k + _MR_CHUNK, lanes))
        owner = np.searchsorted(ends, lane, side="right")
        base = _MR_BASE_ARRAY[lane - ends[owner] + need[owner] + 1]
        owner = live[owner]
        prime[owner[~_strong_probable_prime(m[owner], base)]] = False
    return prime


def _strong_probable_prime(m: np.ndarray, a) -> np.ndarray:
    """Whether each odd m in (a, 2**53) is a strong probable prime to base a:
    one base for every lane, or a uint64 array of one base per lane."""
    one = np.uint64(1)
    m1 = m - one
    # m - 1 = d * 2**s; frexp reads s off the lowest set bit exactly
    s = np.frexp((m1 & (~m1 + one)).astype(np.float64))[1] - 1
    d = m1 >> s.astype(np.uint64)
    mf = m.astype(np.float64)
    x = np.ones_like(m)
    base = np.asarray(a, dtype=np.uint64)
    for bit in range(int(d.max(initial=0)).bit_length() - 1, -1, -1):
        x = _mulmod(x, x, m, mf)
        odd = (d >> np.uint64(bit)) & one != 0
        x = np.where(odd, x * base % m, x)  # x * a < 37 * 2**53 < 2**64: exact
    ok = (x == one) | (x == m1)
    for r in range(1, int(s.max(initial=0))):
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
    """The n-window (lo, hi] together with its exponent: its n-blocks, and
    the serial price of its top block, which sizes a census's pool."""

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

    def top_block_seconds(self, count: int) -> float:
        """Estimated serial seconds of ps_prime_array over the window's top
        count n (up to hi): primality_tier's price of a run from their end
        floors, plus the float floor pass, FLOOR_PASS_S per n, at c > 1."""
        c = self.exponent
        seconds = primality_tier(count, floor_pow(self.hi - count + 1, c), floor_pow(self.hi, c))[1]
        return seconds + count * FLOOR_PASS_S if c.num != c.den else seconds


BLOCK_SIZE = 1 << 16


def ps_prime_array(c: RationalExponent, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The n in (lo, hi] whose floor(n**c) is prime, and those floors, as two
    ascending uint64 arrays; 0 <= lo < hi with floor(hi**c) < PRIME_BUDGET.

    At c = 1 the floors are n itself, so the block is the primes in (lo, hi]:
    every plain-prime window (a census of all primes, psprimes --c 1) is a
    c = 1 block. Otherwise _certified_floors anchors the block at n0 = lo + 1
    with one exact root, K = floor(n0**c 2**52) = integer_nth_root(n0**a <<
    52 b, b) for c = a/b: floor(n0**c) = K >> 52, and the fraction of n0**c
    lies in [r0, r0 + 2**-52) for r0 = (K mod 2**52) / 2**52, exact in
    float64. Each n = n0 + k then takes, in float64, v = r0 +
    fl(K/2**52) expm1(c log1p(k/n0)), an estimate of y = n**c - floor(n0**c)
    = (n0**c - floor(n0**c)) + M with M = n0**c expm1(c log1p(k/n0)), and
    only an n whose v lies within a guard band of an integer takes an exact
    root. With u = 2**-53, and A = 2**11 u (2**10 ulp) for each of log1p and
    expm1, which numpy may dispatch to SIMD code within a few ulp:

    1. k/n0: fl(n0) (rounded from 2**53) and the quotient are within 3u, and
       log1p passes its argument's relative error on at most 1:1; with
       log1p's A, fl(c) and the product, x = c log1p(k/n0) is within A + 5u.
    2. expm1 turns a relative error r in x >= 0 into at most (1 + x) r, and
       adds its A. x grows with k, so X = c log1p((hi - n0)/n0) bounds it.
    3. fl(K/2**52) is within u + 2**-52 <= 3u of n0**c >= 1, and the product
       is rounded once, so the increment is P = M (1 + e) with |e| <= R =
       (1 + X)(A + 5u) + A + 4u; R < 2**-30 for any block of n < 2**64.
    4. v = fl(r0 + P) is rounded once, within u (1 + P), and r0 is within 2u
       of the true fraction, so |v - y| <= (R + 2u)(1 + M). With mf =
       floor(v) >= M (1 - R) - 1, 1 + M <= (mf + 2)(1 + 2**-29), and
       |v - y| < g = fl(mf + 2) _guard(X), the next power of two above
       (R + 2u)(1 + 2**-20), which keeps g exact: 2**-40 in blocks whose
       X is small, 2**-38 in a block of 2**16 n from n0 = 1.
    5. floor(v) is exact, and so is r = v - floor(v): it lies on v's ulp
       grid, and floor(v) is 0 or at least v/2 (Sterbenz). 1 - r is exact
       for r >= 1/2, so d = min(r, 1 - r) is v's exact distance to the
       nearest integer.
    If d > g, the interval (v - g, v + g) holds y and no integer, so
    floor(n**c) = floor(n0**c) + mf. Otherwise integer_nth_root certifies the
    floor from that seed, with m**b <= n**a < (m+1)**b. As d <= 1/2, g
    certifies while a block's floors rise by less than about 2**38: 2**16 n
    at c = 11/10 rise by ~2**21 near floors of 2**52. The pass is float64
    alone, so every platform certifies the same floors.

    The floors strictly ascend, and prime_flags decides their primality, by
    the tier primality_tier picks for each run.
    """
    n0 = lo + 1
    if c.num == c.den:
        floors = np.arange(n0, hi + 1, dtype=np.uint64)
    else:
        floors = _certified_floors(c, n0, hi)

    keep = np.flatnonzero(prime_flags(floors))
    return keep.astype(np.uint64) + np.uint64(n0), floors[keep]


def _guard(x: float) -> float:
    """The band's half-width per unit of mf + 2 in a block whose largest
    c log1p(k/n0) is x (ps_prime_array)."""
    u = 2.0**-53
    libm = 2.0**11 * u  # 2**10 ulp
    bound = (1 + x) * (libm + 5 * u) + libm + 6 * u
    return 2.0 ** math.ceil(math.log2(bound * (1 + 2**-20)))


def _certified_floors(c: RationalExponent, n0: int, hi: int) -> np.ndarray:
    """floor(n**c) for n0 <= n <= hi, c > 1, as a uint64 array: float64
    increments on one exact anchor at n0, and exact roots for the n in their
    guard band."""
    a, b = c.num, c.den
    anchor = integer_nth_root(n0**a << 52 * b, b)
    base = anchor >> 52
    v = np.arange(hi - n0 + 1, dtype=np.float64)
    v /= float(n0)
    np.log1p(v, out=v)
    v *= a / b
    np.expm1(v, out=v)
    v *= anchor / 2**52
    v += (anchor & ((1 << 52) - 1)) / 2**52
    mf = np.floor(v)
    v -= mf
    g = np.subtract(1.0, v)  # one scratch array: 1 - r, then the guard
    np.minimum(v, g, out=v)
    np.add(mf, 2.0, out=g)
    g *= _guard(a / b * math.log1p((hi - n0) / n0))
    band = v <= g
    del v, g
    floors = mf.astype(np.uint64)
    floors += np.uint64(base)
    # a cheap check that libm keeps within the allowance above
    m = int(floors[-1])
    if not band[-1] and not m**b <= hi**a < (m + 1) ** b:
        raise CheckFailed(f"float64 gives floor {m} where the exact floor is {floor_pow(hi, c)}")
    # seeds from the float floors, which near 2**64 may pass the uint64 range
    for i in np.flatnonzero(band).tolist():
        floors[i] = integer_nth_root((n0 + i) ** a, b, base + int(mf[i]))
    return floors
