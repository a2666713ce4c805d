"""Legendre-Jacobi symbols and the sign pattern of a set at a prime.

Censuses and exponential sums ask for one numerator against many moduli.
jacobi_column serves any numerator: the binary reciprocity reduction of
_jacobi_loop, run over a whole array of moduli at once, COLUMN_CHUNK moduli at
a time so its temporaries stay bounded. Exponential sums take their characters
from it, and it is the reference for symbol_bits.

symbol_bits serves a prime numerator q, which is all a census needs: (s/p) is
the product of (q/p) over the primes q dividing s to an odd power. For odd q,
reciprocity turns (q/p) into ((p mod q)/q) and a sign read off p and q mod 4,
so a whole column is one gather into q's row (the Legendre symbol mod q). A
census plans its basis's rows once (plan_rows): the odd primes up to
ROW_BUDGET/16 and to 8 times a bound on the census's primes, whose rows fit
in ROW_BUDGET together, take rows, and the rest take jacobi_column. The
rows belong to the plan: they are built as symbol_bits first needs each, at
most once per process per plan, and the rows of one plan at a time are
kept (_planned_rows).

The scalar routines serve the other traffic, every residue of one small
modulus (criterion 10's sweep). Odd moduli below ROW_CAP are served from
per-modulus rows: a row holds the symbol of every residue 0 <= a < m, one
byte per entry.

* Building: nothing is built at import. A modulus gets its scalar row when
  two calls in a row that no row served ask for it, so a sweep builds its
  row on its second call and scattered moduli never pay for a table.
* Memory: a plan's rows fit in ROW_BUDGET bytes, and each scalar store is
  cleared when it holds SCALAR_ROWS rows of fewer than ROW_CAP bytes each,
  so the rows of all stores never take more than 2 * ROW_BUDGET bytes
  (8 MiB).
* One builder of Jacobi rows: jacobi's rows and a plan's rows come from
  _jacobi_row. Rows are built from the squares modulo each prime factor of
  m, combined by multiplicativity, so they hold the Jacobi symbol at
  composite and prime-power moduli too. Moduli at or above ROW_CAP, and
  those with no row, take _jacobi_loop.
* legendre_euler's rows are a**((p-1)/2) mod p itself, exponentiated for all
  a at once. They never read jacobi's rows, so Euler's criterion stays an
  independent oracle; without a row it is scalar pow.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import EvenModulus, NotPrime, PreconditionViolated
from .kernels import factorize
from .psprimes import is_prime

ROW_CAP = 1 << 14      # scalar rows serve odd moduli below this
ROW_BUDGET = 1 << 22   # row entries (bytes) of one plan, and of both scalar stores together
SCALAR_ROWS = ROW_BUDGET // (2 * ROW_CAP)  # rows one scalar store holds before it is cleared
COLUMN_CHUNK = 1 << 14  # moduli jacobi_column reduces at once


def _jacobi_loop(a: int, n: int) -> int:
    """Binary reciprocity reduction; 0 <= a < n, n odd. The reference for rows
    and columns, and scalar jacobi's path where no row serves."""
    result = 1
    while a:
        z = (a & -a).bit_length() - 1
        if z & 1 and n & 7 in (3, 5):
            result = -result
        a >>= z
        if a & n & 3 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


_ODD_BITS = np.uint64(0xAAAA_AAAA_AAAA_AAAA)  # 2**z with z odd


def jacobi_column(s: int, ns: np.ndarray | Sequence[int]) -> np.ndarray:
    """(s/n) for every odd n of ns (1 <= n < 2**64) as int8, for 1 <= s <= 2**64.

    s = 2**e t with t odd, so (s/n) = (2/n)**e (t/n); the factor (t/n) runs
    _jacobi_loop's reduction on all moduli of a chunk at once, dropping each
    modulus from the working arrays as its reduction ends.
    """
    if not 1 <= s <= 1 << 64:
        raise PreconditionViolated(f"column numerators run over 1..2**64, got {s}")
    ns = np.asarray(ns, dtype=np.uint64)
    e = (s & -s).bit_length() - 1
    t = np.uint64(s >> e)
    out = np.empty(ns.size, dtype=np.int8)
    for lo in range(0, ns.size, COLUMN_CHUNK):
        n = ns[lo : lo + COLUMN_CHUNK]
        if not (n & 1).all():  # checked by chunk, so no temporary spans ns
            raise EvenModulus("Jacobi moduli must be odd and positive")
        col = out[lo : lo + COLUMN_CHUNK]
        where = np.arange(n.size)  # positions of the moduli still reducing
        sign = np.ones(n.size, dtype=np.int8)
        if e & 1:
            sign[(n & 7 == 3) | (n & 7 == 5)] = -1
        a = t % n
        while where.size:
            done = a == 0
            if done.any():
                col[where[done]] = np.where(n[done] == 1, sign[done], 0)
                live = ~done
                where, a, n, sign = where[live], a[live], n[live], sign[live]
            low = a & (~a + 1)
            flip = (low & _ODD_BITS != 0) & ((n & 7 == 3) | (n & 7 == 5))
            a //= low
            flip ^= a & n & 3 == 3
            sign[flip] *= -1
            a, n = n % a, a
    return out


def _jacobi_row(m: int) -> array:
    """(a/m) for 0 <= a < m: the squares mod each prime p | m give (a/p), and
    (a/m) is the product of (a/p)**k over the prime powers p**k dividing m.
    (a/p) depends on a mod p only, so p's row is tiled across m."""
    row = np.ones(m, dtype=np.int8)
    for p, k in factorize(m).factors:
        squares = np.arange(1, (p + 1) // 2, dtype=np.int64)
        squares *= squares
        squares %= p
        legendre = np.full(p, -1, dtype=np.int8)
        legendre[squares] = 1
        legendre[0] = 0
        row *= np.tile(legendre**k, m // p)
    return array("b", row.tobytes())


def _euler_row(p: int) -> array:
    """a**((p-1)/2) mod p for 0 <= a < p, by square-and-multiply over all a
    at once; p - 1 maps to -1. Products stay below ROW_CAP**2 < 2**63."""
    base = np.arange(p, dtype=np.int64)
    power = np.ones(p, dtype=np.int64)
    e = (p - 1) >> 1
    while e:
        if e & 1:
            power = power * base % p
        base = base * base % p
        e >>= 1
    power[power == p - 1] = -1
    return array("b", power.astype(np.int8).tobytes())


class _ScalarRows(dict):
    """One scalar routine's symbol rows, by modulus below ROW_CAP."""

    def __init__(self, build: Callable[[int], array]):
        super().__init__()
        self.build = build
        self.last = 0  # the modulus of the last call no row served

    def new_row(self, m: int) -> Optional[array]:
        """m's row, built now if m < ROW_CAP and the last call no row served
        also asked for m, else None. A full store is cleared before it takes
        another row."""
        if m != self.last or m >= ROW_CAP:
            self.last = m
            return None
        if len(self) >= SCALAR_ROWS:
            self.clear()
        row = self[m] = self.build(m)
        return row


_jacobi_rows = _ScalarRows(_jacobi_row)
_euler_rows = _ScalarRows(_euler_row)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; 0 iff gcd(a, n) > 1.

    A read of n's symbol row once two calls in a row have asked for n below
    ROW_CAP, else the binary reciprocity reduction. Negative and out-of-range
    numerators fold in through periodicity mod n.
    """
    row = _jacobi_rows.get(n)
    if row is not None:
        return row[a % n]
    if n < 1 or not n & 1:
        raise EvenModulus(f"Jacobi modulus must be odd and positive, got {n}")
    row = _jacobi_rows.new_row(n)
    return _jacobi_loop(a % n, n) if row is None else row[a % n]


def plan_rows(primes: Iterable[int], moduli: int) -> frozenset[int]:
    """The primes of one run whose symbol_bits columns may take rows, the run's
    columns taking at most moduli moduli: the odd primes up to ROW_BUDGET/16
    and 8 x moduli, smallest first, while their rows fit in ROW_BUDGET
    together; the other primes take jacobi_column. Raises NotPrime if any of
    primes is not prime, so symbol_bits trusts the primes of a plan."""
    primes = sorted(set(primes))
    for q in primes:
        if not is_prime(q):
            raise NotPrime(f"symbol rows are planned for primes, got {q}")
    qs = [q for q in primes if 2 < q <= min(ROW_BUDGET >> 4, 8 * moduli)]  # 16 such rows fit
    return frozenset(q for q, entries in zip(qs, itertools.accumulate(qs)) if entries <= ROW_BUDGET)


@functools.lru_cache(maxsize=1)
def _planned_rows(plan: frozenset[int]) -> dict[int, np.ndarray]:
    """The rows of the latest plan, each built on its first use: one plan's
    rows are built once per process, and only its rows are kept."""
    return {}


_TWO_ROW = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)  # (2/n) by n mod 8


def symbol_bits(q: int, ns: np.ndarray, plan: frozenset[int]) -> np.ndarray:
    """jacobi_column(q, ns) < 0 for a prime q and a uint64 array of odd ns.

    (2/n) reads n mod 8. For odd q and n, reciprocity gives (q/n) = ((n mod
    q)/q), negated when q and n are both 3 mod 4 (and 0 when q divides n): one
    gather into q's row when q is in plan (a plan_rows plan), else
    jacobi_column. Moduli are worked COLUMN_CHUNK at a time, so no temporary
    spans ns.
    """
    if q == 2:
        row, m = _TWO_ROW, 8
    elif q in plan:
        rows = _planned_rows(plan)
        row, m = rows.get(q), q
        if row is None:
            row = rows[q] = np.frombuffer(_jacobi_row(q), dtype=np.int8)
    elif is_prime(q):
        row = None
    else:
        raise NotPrime(f"symbol_bits needs a prime numerator, got {q}")
    bits = np.empty(ns.size, dtype=bool)
    for lo in range(0, ns.size, COLUMN_CHUNK):
        n, out = ns[lo : lo + COLUMN_CHUNK], bits[lo : lo + COLUMN_CHUNK]
        if row is None:
            np.less(jacobi_column(q, n), 0, out=out)
            continue
        if not (n & 1).all():
            raise EvenModulus("Jacobi moduli must be odd and positive")
        symbols = row[n % m]
        np.less(symbols, 0, out=out)
        if q & 3 == 3:
            out ^= (n & 3 == 3) & (symbols != 0)
    return bits


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion a**((p-1)/2) mod p.

    Independent oracle for jacobi at odd prime moduli: below ROW_CAP it is
    served by rows of the same power, built as jacobi's are, never by
    jacobi's rows.
    """
    row = _euler_rows.get(p)
    if row is not None:
        return row[a % p]
    if p == 2 or not is_prime(p):
        raise NotPrime(f"Euler's criterion needs an odd prime, got {p}")
    row = _euler_rows.new_row(p)
    if row is not None:
        return row[a % p]
    r = pow(a, (p - 1) >> 1, p)
    return r - p if r > 1 else r


@dataclass(frozen=True)
class SignPattern:
    """Signs (s/p) of an ordered element list at a prime, all nonzero."""

    elements: tuple[int, ...]
    signs: tuple[int, ...]

    def key(self) -> str:
        """Histogram key: char i is '0' for +1 and '1' for -1 at position i."""
        return "".join("0" if s == 1 else "1" for s in self.signs)


def pattern_at(S: Sequence[int], p: int) -> Optional[SignPattern]:
    """Sign pattern of S at odd prime p, or None when p divides some element."""
    if p == 2 or not is_prime(p):
        raise NotPrime(f"sign patterns are defined at odd primes, got {p}")
    elements = tuple(int(s) for s in S)
    signs = []
    for s in elements:
        j = jacobi(s, p)
        if j == 0:
            return None
        signs.append(j)
    return SignPattern(elements, tuple(signs))
