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
prime q above ROW_BUDGET/16, or one that has not yet earned its row, takes
jacobi_column. A run over many primes q (a census's basis) plans its rows once
(plan_rows): the primes whose rows fit in ROW_BUDGET together take rows, and
the rest take jacobi_column, so no planned row evicts another.

The scalar routines serve the other traffic, every residue of one small
modulus (criterion 10's sweep). Odd moduli below ROW_CAP are served from
per-modulus rows: a row holds the symbol of every residue 0 <= a < m, one
byte per entry.

* Amortisation: nothing is built at import. A modulus m gets its row only
  once it has served m/8 symbols without one, counted across calls (one per
  scalar call, one per modulus of a symbol_bits column), so building costs at
  most eight entries per symbol served, and moduli met a few times never pay
  for a table.
* Memory: each of the two stores holds at most ROW_BUDGET entries (bytes)
  and is cleared when a new row would pass that bound (but for the rows of a
  plan_rows plan, which fit together), so the rows of both never take more
  than 2 * ROW_BUDGET bytes (8 MiB).
* One store of Jacobi rows: jacobi's rows below ROW_CAP and symbol_bits' rows
  at prime moduli up to ROW_BUDGET/16 come from one builder, _jacobi_row,
  and share _JACOBI_ROWS, its call counts and its budget. Rows are built from
  the squares modulo each prime factor of m, combined by multiplicativity, so
  they hold the Jacobi symbol at composite and prime-power moduli too.
  Moduli at or above ROW_CAP, and those with no row yet, take _jacobi_loop.
* legendre_euler's rows are a**((p-1)/2) mod p itself, exponentiated for all
  a at once. They never read jacobi's rows, so Euler's criterion stays an
  independent oracle; without a row it is scalar pow.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional, Sequence

import numpy as np

from .errors import EvenModulus, NotPrime, PreconditionViolated
from .kernels import factorize
from .psprimes import is_prime

ROW_CAP = 1 << 14      # rows serve odd moduli below this
ROW_BUDGET = 1 << 22   # entries one row store holds before it is cleared
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


class _RowStore:
    """Symbol rows for odd moduli below ROW_CAP, built on demand by `build`."""

    def __init__(self, build: Callable[[int], array]):
        self.rows: dict[int, array] = {}
        self.calls: dict[int, int] = {}
        self.entries = 0
        self._build = build

    def row_after(self, m: int, served: int = 1, keep: Collection[int] = ()) -> Optional[array]:
        """Count `served` symbols at odd m, which has no row; return m's row
        once m has served m/8 symbols in all, else None. A row that would pass
        ROW_BUDGET first clears the store but for the rows of keep."""
        calls = self.calls.get(m, 0) + served
        if calls << 3 < m:
            self.calls[m] = calls
            return None
        self.calls.pop(m, None)  # a row rebuilt after a clear pays again
        if self.entries + m > ROW_BUDGET:
            self.clear(keep)
        row = self.rows[m] = self._build(m)
        self.entries += m
        return row

    def clear(self, keep: Collection[int] = ()) -> None:
        """Drop every call count, and every row but those of keep."""
        kept = {m: self.rows[m] for m in keep if m in self.rows}
        self.rows.clear()
        self.rows.update(kept)
        self.calls.clear()
        self.entries = sum(map(len, kept.values()))


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


_JACOBI_ROWS = _RowStore(_jacobi_row)
_EULER_ROWS = _RowStore(_euler_row)
_jacobi_rows = _JACOBI_ROWS.rows  # read directly on the hot paths
_euler_rows = _EULER_ROWS.rows


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1; 0 iff gcd(a, n) > 1.

    A symbol row below ROW_CAP once the modulus has earned one, else the
    binary reciprocity reduction. Negative and out-of-range numerators fold
    in through periodicity mod n.
    """
    row = _jacobi_rows.get(n)
    if row is not None:
        return row[a % n]
    if n < 1 or not n & 1:
        raise EvenModulus(f"Jacobi modulus must be odd and positive, got {n}")
    a %= n
    if n < ROW_CAP:
        row = _JACOBI_ROWS.row_after(n)
        if row is not None:
            return row[a]
    return _jacobi_loop(a, n)


_prime_verdicts: dict[int, bool] = {}


def _odd_prime(p: int) -> bool:
    ok = _prime_verdicts.get(p)
    if ok is None:
        ok = p > 2 and bool(p & 1) and is_prime(p)
        if len(_prime_verdicts) > (1 << 20):
            _prime_verdicts.clear()
        _prime_verdicts[p] = ok
    return ok


def plan_rows(primes: Iterable[int]) -> frozenset[int]:
    """The primes of one run whose symbol_bits columns may take rows: the odd
    primes up to ROW_BUDGET/16, smallest first, while their rows fit in
    ROW_BUDGET together. A planned row evicts only rows outside the plan, so
    a run builds each of its rows at most once; the other primes take
    jacobi_column."""
    qs = sorted(q for q in primes if 2 < q <= ROW_BUDGET >> 4)  # 16 such rows fit
    return frozenset(q for q, entries in zip(qs, itertools.accumulate(qs)) if entries <= ROW_BUDGET)


def symbol_bits(q: int, ns: np.ndarray, plan: Optional[frozenset[int]] = None) -> np.ndarray:
    """jacobi_column(q, ns) < 0 for a prime q and a uint64 array of odd ns.

    (2/n) reads n mod 8. For odd q and n, reciprocity gives (q/n) = ((n mod
    q)/q), negated when q and n are both 3 mod 4 (and 0 when q divides n): one
    gather into q's row once q has served q/8 moduli (counted across calls),
    else the column. Only the primes of plan take rows; no plan is q's own,
    plan_rows((q,)).
    """
    if not (ns & 1).all():
        raise EvenModulus("Jacobi moduli must be odd and positive")
    if q == 2:
        r = ns & 7
        return (r == 3) | (r == 5)
    if not _odd_prime(q):
        raise NotPrime(f"symbol_bits needs a prime numerator, got {q}")
    if plan is None:
        plan = plan_rows((q,))
    row = None
    if q in plan:
        row = _jacobi_rows.get(q)
        if row is None:
            row = _JACOBI_ROWS.row_after(q, ns.size, plan)
    if row is None:
        return jacobi_column(q, ns) < 0
    symbols = np.frombuffer(row, dtype=np.int8)[ns % q]
    bits = symbols < 0
    if q & 3 == 3:
        bits ^= (ns & 3 == 3) & (symbols != 0)
    return bits


def legendre_euler(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion a**((p-1)/2) mod p.

    Independent oracle for jacobi at odd prime moduli: below ROW_CAP it is
    served by rows of the same power, never by jacobi's rows.
    """
    row = _euler_rows.get(p)
    if row is not None:
        return row[a % p]
    if not _odd_prime(p):
        raise NotPrime(f"Euler's criterion needs an odd prime, got {p}")
    if p < ROW_CAP:
        row = _EULER_ROWS.row_after(p)
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
    if not _odd_prime(p):
        raise NotPrime(f"sign patterns are defined at odd primes, got {p}")
    elements = tuple(int(s) for s in S)
    signs = []
    for s in elements:
        j = jacobi(s, p)
        if j == 0:
            return None
        signs.append(j)
    return SignPattern(elements, tuple(signs))
