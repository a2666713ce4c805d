"""Legendre-Jacobi symbols and the sign pattern of a set at a prime.

Censuses and exponential sums ask for one numerator s against many moduli n:
(s/p) at the primes of a census, and the character (s/n) that twists the
expsum sums. jacobi_column serves both, COLUMN_CHUNK moduli at a time so its
temporaries stay bounded. It writes s = 2**e t with t odd, so (s/n) =
(2/n)**e (t/n), and (2/n) reads n mod 8. For a planned t, reciprocity turns
(t/n) into ((n mod t)/t) and a sign read off t and n mod 4, so a whole column
is one gather into t's Jacobi row; any other t runs the binary reciprocity
reduction of _jacobi_loop over all moduli at once. A run plans its rows once
(plan_rows): the odd parts up to ROW_BUDGET/16 and to 8 times a bound on the
run's moduli, whose rows fit in ROW_BUDGET together, take rows. The rows
belong to the plan: they are built as a column first needs each, at most once
per process per plan, and the rows of one plan at a time are kept
(_planned_rows).

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
import threading
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
# (s/n) = (2/n)**e (t/n) for s = 2**e t, t odd: a chunk starts from signs read
# off each n's low byte, row e & 1 of _SIGNS ((2/n) = -1 at n = 3, 5 mod 8), or
# row (t & 2) | (e & 1) when t's row serves (reciprocity negates at t = n = 3
# mod 4); an even n reads 0
_SIGNS = np.tile(np.array([
    [0, 1, 0, 1, 0, 1, 0, 1],      # no flip
    [0, 1, 0, -1, 0, -1, 0, 1],    # (2/n)
    [0, 1, 0, -1, 0, 1, 0, -1],    # reciprocity
    [0, 1, 0, 1, 0, -1, 0, -1],    # both
], dtype=np.int8), 32)


def jacobi_column(s: int, ns: np.ndarray | Sequence[int], plan: frozenset[int] = frozenset()) -> np.ndarray:
    """(s/n) for every odd n of ns (1 <= n < 2**64) as int8, for 1 <= s <= 2**64.

    s = 2**e t with t odd, so (s/n) = (2/n)**e (t/n), and (2/n) reads n mod 8.
    t = 1 is that sign alone. For t in plan (a plan_rows plan), reciprocity
    gives (t/n) = ((n mod t)/t), negated when t and n are both 3 mod 4 (and 0
    when gcd(t, n) > 1): one gather into t's row, built once per plan. Any
    other t runs _jacobi_loop's reduction on all moduli of a chunk at once,
    dropping each modulus from the working arrays as its reduction ends.
    Moduli are worked COLUMN_CHUNK at a time, so no temporary spans ns.
    """
    if not 1 <= s <= 1 << 64:
        raise PreconditionViolated(f"column numerators run over 1..2**64, got {s}")
    ns = np.asarray(ns, dtype=np.uint64)
    e = (s & -s).bit_length() - 1
    t = s >> e
    row = _planned_row(t, plan) if t in plan else None
    signs = _SIGNS[e & 1 if row is None else t & 2 | e & 1]
    out = np.empty(ns.size, dtype=np.int8)
    for lo in range(0, ns.size, COLUMN_CHUNK):
        n, col = ns[lo : lo + COLUMN_CHUNK], out[lo : lo + COLUMN_CHUNK]
        signs.take(n.astype(np.uint8), out=col)
        if not col.all():  # checked by chunk, so no temporary spans ns
            raise EvenModulus("Jacobi moduli must be odd and positive")
        if row is not None:
            col *= row.take(n % np.uint64(t))
        elif t > 1:
            where = np.arange(n.size)  # positions of the moduli still reducing
            sign = col.copy()
            a = np.uint64(t) % n
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


def plan_rows(numerators: Iterable[int], moduli: int) -> frozenset[int]:
    """The odd parts t > 1 of numerators (s = 2**e t) whose jacobi_column
    columns gather from t's row, the run's columns taking at most moduli
    moduli: the t up to ROW_BUDGET/16 and 8 x moduli, smallest first, while
    their rows fit in ROW_BUDGET together; the other numerators take the
    reduction. A Jacobi row serves any odd t, prime or not."""
    ts = sorted({s >> ((s & -s).bit_length() - 1) for s in numerators})
    ts = [t for t in ts if 1 < t <= min(ROW_BUDGET >> 4, 8 * moduli)]  # 16 such rows fit
    return frozenset(t for t, entries in zip(ts, itertools.accumulate(ts)) if entries <= ROW_BUDGET)


@functools.lru_cache(maxsize=1)
def _planned_rows(plan: frozenset[int]) -> dict[int, np.ndarray]:
    """The rows of the latest plan, each built on its first use: one plan's
    rows are built once per process, and only its rows are kept."""
    return {}


_row_lock = threading.Lock()  # expsum slices on a thread pool share one plan


def _planned_row(t: int, plan: frozenset[int]) -> np.ndarray:
    """t's row of plan, (a/t) for 0 <= a < t, built if this is its first use."""
    with _row_lock:
        rows = _planned_rows(plan)
        row = rows.get(t)
        if row is None:
            row = rows[t] = np.frombuffer(_jacobi_row(t), dtype=np.int8)
    return row


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
