"""Numerical workbench for the sawtooth expansion and its cancellation sums.

The truncated expansion is the Vaaler approximation: coefficient weights
W(t) = pi t (1 - t) cot(pi t) + t at t = j/(J+1), bounded by the Fejer-kernel
majorant delta = F_J/(2J+2). Its defining inequalities are the contract here;
decay constants: |a(j)| <= 1/(2 pi |j|) and b(j) <= 1/(2J+2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import in_order, usable_cpus
from .errors import Overflow, PreconditionViolated
from .kernels import factorize
from .psprimes import _segment_is_prime, primes_up_to
from .residues import COLUMN_CHUNK, jacobi_column, plan_rows

TWO_PI = 2.0 * math.pi

# input budgets, checked before what they bound is built (Overflow), well above
# the benchmark's sizes (rows to 2**21 for a scan, M ~ 4.2e5 for bilinear)
MAX_SIEVE = 1 << 23        # top M of a sieved row (N, M]: 2 max(N) for a scan, M for bilinear
MAX_TRUNCATION = 1 << 16   # J of an expansion
MAX_GRID = 1 << 22         # points of a majorant grid
MAX_GRID_TERMS = 1 << 30   # grid points times J: the sines a majorant check evaluates

MAX_SLICE_THREADS = 32  # threads of in_order's expsum slices (numpy's sin releases the GIL)
CHUNK = 1 << 13  # points per slice of a majorant grid
# n per slice of a scan row: any 2**16 n above 2**16 hold at most 5,709 odd
# prime powers (those of (2**16, 2**17]), the arguments of a slice's psi*
SCAN_SLICE = 1 << 16
PAIR_SLICE = 1 << 13  # (m, n) pairs of a bilinear sum formed at once
T_BLOCK = 1 << 13  # odd t = m n whose phases a bilinear check forms at once


def psi(x: float) -> float:
    """Sawtooth x - floor(x) - 1/2, with values in [-1/2, 1/2)."""
    return x - math.floor(x) - 0.5


def _vaaler_weight(t: float) -> float:
    return math.pi * t * (1.0 - t) / math.tan(math.pi * t) + t


class TruncatedExpansion:
    """Degree-J sawtooth approximation psi* with nonnegative majorant delta."""

    A_DECAY = 1.0 / TWO_PI  # |a(j)| * |j| never exceeds this
    B_DECAY = 0.5           # b(j) * (J+1) never exceeds this

    def __init__(self, J: int, a_coeffs: dict[int, complex], b_coeffs: dict[int, float]):
        self.J = J
        self.a_coeffs = a_coeffs
        self.b_coeffs = b_coeffs
        # sine-series weights W_j/(pi j), recovered from a(j) = i W_j/(2 pi j)
        self._w = np.array([2.0 * a_coeffs[j].imag for j in range(1, J + 1)])

    def psi_star(self, x):
        """Evaluate psi* at x (scalar or array), in one sweep on the calling thread.

        Arguments are reduced mod 1 and reflected into [0, 1/2] (the series is
        odd around integers), keeping every sine argument well conditioned.
        Each value depends on its own argument only, so any slicing of the
        arguments gives the same bits.
        """
        x = np.asarray(x, dtype=np.float64)
        w = np.mod(x.reshape(-1), 1.0)
        flip = w > 0.5
        np.subtract(1.0, w, out=w, where=flip)
        acc = np.zeros_like(w)
        for j in range(1, self.J + 1):
            acc -= self._w[j - 1] * np.sin(TWO_PI * j * w)
        np.negative(acc, out=acc, where=flip)
        acc = acc.reshape(x.shape)
        return acc if acc.ndim else float(acc)

    def delta(self, x):
        """Fejer majorant F_J(x)/(2J+2); nonnegative, 1/2 at integers.

        Even around integers, so evaluated on the reflected argument.
        """
        u = np.mod(np.asarray(x, dtype=np.float64), 1.0)
        w = np.minimum(u, 1.0 - u)
        jp = self.J + 1
        s = np.sin(math.pi * w)
        num = np.sin(math.pi * jp * w) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = num / (2.0 * jp * jp * s * s)
        out = np.where(s == 0.0, 0.5, vals)
        return out if out.ndim else float(out)

    def delta_from_coeffs(self, x):
        """delta evaluated term by term from b(j); cross-check of the closed form."""
        u = np.mod(np.asarray(x, dtype=np.float64), 1.0)
        acc = np.full_like(u, self.b_coeffs[0])
        for j in range(1, self.J + 1):
            acc += 2.0 * self.b_coeffs[j] * np.cos(TWO_PI * j * u)
        return acc if acc.ndim else float(acc)


def build_expansion(J: int) -> TruncatedExpansion:
    """The pinned admissible coefficient family at truncation J."""
    if J < 1:
        raise PreconditionViolated(f"truncation must be >= 1, got {J}")
    if J > MAX_TRUNCATION:
        raise Overflow(f"truncation J is capped at {MAX_TRUNCATION}, got {J}")
    a: dict[int, complex] = {}
    b: dict[int, float] = {0: 1.0 / (2 * J + 2)}
    for j in range(1, J + 1):
        w = _vaaler_weight(j / (J + 1))
        a[j] = 1j * w / (TWO_PI * j)
        a[-j] = -1j * w / (TWO_PI * j)
        b[j] = b[-j] = (1.0 - j / (J + 1)) / (2 * J + 2)
    return TruncatedExpansion(J, a, b)


def _majorant_grid(J: int, grid_points: int) -> np.ndarray:
    """np.linspace(-2.5, 2.5, grid_points, endpoint=False), then the integers
    in [-2, 3], their one-sided neighbours and the Fejer nodes k/(J+1), where
    the majorant vanishes and the bound is tight. One array holds them all;
    its linspace part is arange times step plus start, as np.linspace computes
    it, written CHUNK points at a time, so it is linspace's to the bit."""
    extra = []
    for k in range(-2, 4):
        extra += [k, k - 1e-9, k + 1e-9, k - 1e-12, k + 1e-12]
    extra += [k / (J + 1) for k in range(1, J + 1, max(1, J // 128))]
    xs = np.empty(grid_points + len(extra))
    start, step = -2.5, 5.0 / max(grid_points, 1)
    for k in range(0, grid_points, CHUNK):
        top = min(k + CHUNK, grid_points)
        xs[k:top] = np.arange(k, top) * step + start
    xs[grid_points:] = extra
    return xs


def majorant_check(J: int, grid_points: int = 100_000, tol: float = 1e-12) -> dict:
    """Dense-grid check that delta >= -tol and |psi - psi*| <= delta + tol.

    The grid pins integers and both one-sided neighborhoods, where the
    sawtooth jumps and the bound is tight. The grid is capped at MAX_GRID
    points and MAX_GRID_TERMS points times J. Slices of CHUNK points run
    through in_order as the scan's do; the max (min) of their maxima of
    |psi - psi*| - delta (minima of delta) is the one-pass value, NaN included.
    """
    if grid_points > MAX_GRID or grid_points * J > MAX_GRID_TERMS:
        raise Overflow(
            f"a majorant grid is capped at {MAX_GRID} points and {MAX_GRID_TERMS} "
            f"points times J, got {grid_points} points at J = {J}"
        )
    if grid_points < 0:
        raise PreconditionViolated(f"a majorant grid needs 0 points or more, got {grid_points}")
    exp = build_expansion(J)
    xs = _majorant_grid(J, grid_points)

    def extremes(k: int) -> tuple[np.float64, np.float64]:
        x = xs[k : k + CHUNK]
        dl = exp.delta(x)
        return np.max(np.abs(x - np.floor(x) - 0.5 - exp.psi_star(x)) - dl), np.min(dl)

    workers = min(usable_cpus(), MAX_SLICE_THREADS)
    worsts, deltas = zip(*in_order(extremes, range(0, xs.size, CHUNK), workers))
    worst, min_delta = float(np.max(worsts)), float(np.min(deltas))
    return {
        "J": J,
        "grid_points": int(xs.size),
        "max_err_minus_delta": worst,
        "min_delta": min_delta,
        "passed": bool(worst <= tol and min_delta >= -tol),
    }


# -- arithmetic functions ------------------------------------------------------

def odd_prime_powers(N: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd prime powers n in (N, M], ascending, and Lambda(n) = math.log(p)
    of each, for 0 <= N <= M: one row's arithmetic, in memory of order M - N.

    Primes come from the segment sieve of (N, M], higher powers from the odd
    primes up to isqrt(M).
    """
    ns = np.flatnonzero(_segment_is_prime(N + 1, M)) + (N + 1)
    ns = ns[ns & 1 == 1]
    # the higher powers p**k in (N, M], k = 2, 3, ..., of the odd primes p <= isqrt(M)
    p = primes_up_to(math.isqrt(M))[1:]
    pk, hk, hp = p * p, [p[:0]], [p[:0]]
    while p.size:
        hk.append(pk[pk > N])
        hp.append(p[pk > N])
        more = pk <= M // p
        p, pk = p[more], pk[more] * p[more]
    hk, hp = np.concatenate(hk), np.concatenate(hp)
    order = np.argsort(hk)
    at = np.searchsorted(ns, hk[order])
    ps = np.insert(ns, at, hp[order])
    ns = np.insert(ns, at, hk[order])
    return ns, np.fromiter(map(math.log, ps), np.float64, ps.size)


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as an int8 array."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    # small[n]: the product of the distinct primes <= isqrt(limit) dividing n; an
    # n whose product falls short of it has exactly one prime factor above that
    small = np.ones(limit + 1, dtype=np.min_scalar_type(limit))
    for p in primes_up_to(math.isqrt(limit)).tolist():
        mu[p::p] *= -1
        small[p::p] *= p
        mu[p * p :: p * p] = 0
    mu[small < np.arange(limit + 1, dtype=small.dtype)] *= -1
    return mu


def von_mangoldt(n: int) -> float:
    """log p when n is a power of the prime p, else 0."""
    if n < 2:
        return 0.0
    factors = factorize(n).factors
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError(f"mobius needs n >= 1, got {n}")
    factors = factorize(n).factors
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) & 1 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _require_squarefree(s: int) -> None:
    if s < 1:
        raise PreconditionViolated(f"s must be a positive squarefree integer, got {s}")
    if any(e > 1 for _, e in factorize(s).factors):
        raise PreconditionViolated(f"s = {s} is not squarefree")


def _require_cutoffs(u: float, v: float) -> None:
    if not (math.isfinite(u) and math.isfinite(v)):
        raise PreconditionViolated(f"u and v must be finite, got u = {u}, v = {v}")
    if u < 1 or v < 1:
        raise PreconditionViolated("u and v must be >= 1")


# -- Vaughan's identity ----------------------------------------------------------

def vaughan(n: int, u: float, v: float) -> float:
    """Three-term decomposition of Lambda(n); equals Lambda(n) for n > v.

    The Mobius-log term runs over the bounded Mobius variable (k <= u, log
    on the cofactor); that is the reading under which the three terms sum
    to Lambda(n) identically.
    """
    _require_cutoffs(u, v)
    if n <= v:
        raise PreconditionViolated(f"identity needs n > v, got n = {n}, v = {v}")
    divs = divisors(n)

    t1 = 0.0
    for k in divs:
        if k > v:
            lk = von_mangoldt(k)
            if lk:
                cof = n // k
                if cof > u:
                    t1 += lk * sum(mobius(d) for d in divisors(cof) if d <= u)

    t2 = 0.0
    for k in divs:
        if k <= u:
            mk = mobius(k)
            if mk:
                t2 += mk * math.log(n // k)

    t3 = 0.0
    for k in divs:
        if k <= v:
            lk = von_mangoldt(k)
            if lk:
                for m in divisors(n // k):
                    if m <= u and (mm := mobius(m)):
                        t3 += lk * mm

    return -t1 + t2 - t3


# -- the cancellation sums -------------------------------------------------------

def default_truncation(N: int, gamma: float) -> int:
    """Scan default J ~ N**(1-gamma) log N, balancing the two error sources."""
    return max(1, math.ceil(N ** (1.0 - gamma) * math.log(N)))


def _l_sum(N: int, M: int, J: int, gamma: float, s: int) -> float:
    if not N < M <= 2 * N:
        raise PreconditionViolated(f"need N < M <= 2N, got N = {N}, M = {M}")
    if not 0.5 < gamma <= 1.0:
        raise PreconditionViolated(f"need 1/2 < gamma <= 1, got {gamma}")
    if M > MAX_SIEVE:
        raise Overflow(f"M is capped at the sieve budget {MAX_SIEVE}, got {M}")
    return next(_l_sums([(N, M, J)], gamma, s))


def _l_sums(rows: Sequence[tuple[int, int, int]], gamma: float, s: int) -> Iterator[float]:
    """For each (N, M, J) of rows, in order: the sum of Lambda(n) (s/n)
    (psi*(-n**gamma) - psi*(-(n+1)**gamma)) over the odd prime powers n in
    (N, M], psi* of truncation J. Rows run as slices of SCAN_SLICE n, each
    sieving its own n, through in_order on one thread pool for all rows; a
    row's terms go to one _ExactSum, so its value is the same for any
    slicing and thread count. The symbols gather from the row of s's odd part
    when plan_rows plans it.
    """
    plan = plan_rows((s,), sum(M - N for N, M, _ in rows))

    def slices() -> Iterator[tuple]:
        for row, (N, M, J) in enumerate(rows):
            exp = build_expansion(J)
            for a in range(N, M, SCAN_SLICE):
                yield row, exp, a, min(a + SCAN_SLICE, M)

    def terms(task: tuple) -> tuple[int, list[float]]:
        row, exp, a, b = task
        ns, lam = odd_prime_powers(a, b)  # the sums run over odd integers only
        x, x1 = ns.astype(np.float64), (ns + 1).astype(np.float64)
        contrib = lam * (exp.psi_star(-(x**gamma)) - exp.psi_star(-(x1**gamma)))
        if s != 1:
            contrib *= jacobi_column(s, ns, plan)
        return row, contrib

    workers = min(usable_cpus(), MAX_SLICE_THREADS)
    for _, parts in itertools.groupby(in_order(terms, slices(), workers), key=lambda part: part[0]):
        total = _ExactSum()
        for _, contrib in parts:
            total.add(contrib)
        yield total.value()


def L1(N: int, M: int, J: int, gamma: float) -> float:
    """Lambda-weighted sawtooth-difference sum over odd n in (N, M]."""
    return _l_sum(N, M, J, gamma, 1)


def L2(N: int, M: int, J: int, gamma: float, s: int) -> float:
    """L1 twisted by the Jacobi character (s/n); s squarefree."""
    _require_squarefree(s)
    return _l_sum(N, M, J, gamma, s)


class _ExactSum:
    """The exact sum of the float64 values added, rounded once to nearest,
    ties to even: the one exact sum of the expsum checks, a scan row's and
    each part of a bilinear side, the same for any order and grouping of adds.

    A finite x is m 2**(e - 53), frexp's exponent e and an integer |m| < 2**53.
    The halves m >> 26 and m & (2**26 - 1) are summed per exponent by
    bincount: its float64 sums of at most 2**26 halves below 2**27 are exact
    integers. Each add gathers them into one Python int, the sum times 2**1126.
    """

    def __init__(self) -> None:
        self._total = 0

    def add(self, x: np.ndarray) -> None:
        mant, exp = np.frexp(x)
        mant = np.ldexp(mant, 53).astype(np.int64)
        exp += 1073  # 2**-1074 has e = -1073
        for i in range(0, x.size, 1 << 26):
            e, m = exp[i : i + (1 << 26)], mant[i : i + (1 << 26)]
            hi, lo = np.bincount(e, m >> 26), np.bincount(e, m & ((1 << 26) - 1))
            for k in np.flatnonzero((hi != 0) | (lo != 0)).tolist():
                self._total += ((int(hi[k]) << 26) + int(lo[k])) << k

    def value(self) -> float:
        return self._total / (1 << 1126)  # int division rounds once, ties to even


def bilinear_check(
    N: int, M: int, u: float, v: float, j: int, gamma: float, s: int
) -> tuple[complex, complex]:
    """Both sides of the Vaughan rearrangement of sum Lambda(n) e(j n^gamma) (s/n).

    An exact algebraic identity, so the two values must agree to accumulation
    roundoff. Phases on the bilinear side are taken at the integer products
    m*n; by complete multiplicativity of t -> t**gamma this is the same real
    number as the split form and keeps the comparison at roundoff scale.
    """
    _require_squarefree(s)
    if not N < M:
        raise PreconditionViolated("need N < M")
    _require_cutoffs(u, v)
    if u * v >= M:
        raise PreconditionViolated("need u*v < M")
    if v > N:
        raise PreconditionViolated("identity needs v <= N so every summand exceeds v")

    if M > MAX_SIEVE:
        raise Overflow(f"M is capped at the sieve budget {MAX_SIEVE}, got {M}")
    pw, logs = odd_prime_powers(0, M)

    def lam(n: np.ndarray) -> np.ndarray:  # Lambda(n) of odd prime powers n <= M
        return logs[np.searchsorted(pw, n)]

    mu = mobius_sieve(int(u))  # read at d, e and m <= u only
    # chi[n >> 1] = (s/n) for odd n <= M: every symbol the sums below take
    step = 2 * COLUMN_CHUNK  # odd n a column takes at once, so no array spans all n <= M
    plan = plan_rows((s,), (M + 1) // 2)
    chi = np.concatenate([jacobi_column(s, np.arange(n, min(n + step, M + 1), 2, dtype=np.uint64), plan)
                          for n in range(1, M + 1, step)])
    live = np.flatnonzero(chi)
    live *= 2
    live += 1

    def bilinear(ms: np.ndarray, weight: np.ndarray, lo: np.ndarray, cand: np.ndarray,
             coeff) -> tuple:
        """One sum of x e(j (mn)^gamma), x = coeff(weight(m) (s/m), n), over the
        odd m of ms and the n of cand in [lo, M // m]: the m with nonzero weight
        and symbol, weight(m) (s/m), lo, M // m, cand and coeff."""
        keep = (weight != 0) & (chi[ms >> 1] != 0)
        ms = ms[keep]
        return ms, weight[keep] * chi[ms >> 1], lo[keep], M // ms, cand, coeff

    # the sum itself is the m = 1 row over the odd prime powers with a nonzero symbol
    powers = pw[chi[pw >> 1] != 0]
    one = np.ones(1, dtype=np.int64)
    lhs = [bilinear(one, one, one * (N + 1), powers, lambda w, n: w * lam(n) * chi[n >> 1])]

    # a(m) = sum of mu(d) over d | m, d <= u, for the m of the type II sum
    n_min_1 = int(math.floor(v)) + 1  # smallest admissible n in the type-II sum
    m_hi = M // n_min_1
    a_arr = np.zeros(m_hi + 1, dtype=np.int64)
    for d in range(1, min(int(u), m_hi) + 1):
        a_arr[d::d] += mu[d]

    # b(m) for odd m = sum of Lambda(d) mu(e) over de = m, d <= v, e <= u, in order of d
    cap = min(int(u * v), M)
    b_arr = np.zeros(cap + 1)
    few = np.searchsorted(pw, v, side="right")  # the odd prime powers d <= v
    for d, lam_d in zip(pw[:few].tolist(), logs[:few].tolist()):
        e_hi = min(int(u), cap // d)
        b_arr[d : d * e_hi + 1 : d] += lam_d * mu[1 : e_hi + 1]

    # type II: -a(m) Lambda(n) over m > u, n > v
    ms = np.arange((int(math.floor(u)) + 1) | 1, m_hi + 1, 2)
    type_2 = bilinear(ms, -a_arr[ms], np.maximum(n_min_1, N // ms + 1), powers,
                      lambda w, n: w * lam(n) * chi[n >> 1])

    # type I: mu(m) log n over m <= u
    ms = np.arange(1, int(u) + 1, 2)
    type_1 = bilinear(ms, mu[ms], np.maximum(2, N // ms + 1), live, lambda w, n: w * chi[n >> 1]
                      * np.fromiter(map(math.log, n), np.float64, n.size))

    # type I: -b(m) over m <= uv
    ms = np.arange(1, cap + 1, 2)
    type_1b = bilinear(ms, -b_arr[ms], N // ms + 1, live, lambda w, n: w * chi[n >> 1])

    # every t = m n is odd in (N, M]; e(j t^gamma) = cos y + i sin y with y = (2 pi j)
    # t^gamma, t^gamma by Python's pow, as cmath.exp forms it. The phases are formed
    # a block of T_BLOCK odd t at a time, each sum taking the pairs with m n in the
    # block; a nonzero part rounds as in the product of x + 0i and cos + i sin, and
    # the exact sums skip zeros, so their signs do not matter.
    sides = [(lhs, _ExactSum(), _ExactSum()), ([type_2, type_1, type_1b], _ExactSum(), _ExactSum())]
    for t0 in range((N + 1) | 1, M + 1, 2 * T_BLOCK):
        ts = range(t0, min(t0 + 2 * T_BLOCK, M + 1), 2)
        y = (TWO_PI * j) * np.fromiter(map(float(gamma).__rpow__, ts), np.float64, len(ts))
        cos_t, sin_t = np.cos(y), np.sin(y, out=y)
        for sums, re, im in sides:
            for ms, weight, lo, hi, cand, coeff in sums:
                lo, hi = np.maximum(lo, -(-t0 // ms)), np.minimum(hi, ts[-1] // ms)
                for rows, n in _pairs(lo, hi, cand):
                    x, k = coeff(weight[rows], n), (ms[rows] * n - t0) >> 1
                    re.add(x * cos_t[k])
                    im.add(x * sin_t[k])
    return tuple(complex(re.value(), im.value()) for _, re, im in sides)


def _pairs(lo: np.ndarray, hi: np.ndarray, cand: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """(rows, ns) in slices of PAIR_SLICE pairs: row i paired with each n of
    the ascending array cand in [lo[i], hi[i]]."""
    start = np.searchsorted(cand, lo)
    count = np.maximum(np.searchsorted(cand, hi, side="right") - start, 0)
    end = np.cumsum(count)  # pair k of row i is pair end[i] - count[i] + k of all
    for g0 in range(0, int(count.sum()), PAIR_SLICE):
        g = np.arange(g0, min(g0 + PAIR_SLICE, end[-1]))
        rows = np.searchsorted(end, g, side="right")
        yield rows, cand[g + (start - end + count)[rows]]


# -- scan reports ------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSumRow:
    N: int
    M: int
    s: int
    j_max: int
    value: complex
    ratio: float  # |value| / N**gamma


@dataclass(frozen=True, eq=False)
class ExpSumReport:
    """Normalized cancellation ratios across a ladder of ranges."""

    gamma: float
    s: int
    rows: tuple[ExpSumRow, ...]

    COEFF_CONSTANTS = {
        "a_decay": TruncatedExpansion.A_DECAY,
        "b_decay": TruncatedExpansion.B_DECAY,
    }

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "s": self.s,
            "coeff_constants": dict(self.COEFF_CONSTANTS),
            "rows": [
                {
                    "N": r.N,
                    "M": r.M,
                    "s": r.s,
                    "j_max": r.j_max,
                    "value_re": r.value.real,
                    "value_im": r.value.imag,
                    "ratio": r.ratio,
                }
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        lines = ["N,M,s,j_max,value_re,value_im,ratio"]
        for r in self.rows:
            lines.append(
                f"{r.N},{r.M},{r.s},{r.j_max},{r.value.real!r},{r.value.imag!r},{r.ratio!r}"
            )
        return "\n".join(lines) + "\n"


def cancellation_scan(
    gamma: float, s: int, N_list: Sequence[int], J: int | None = None
) -> ExpSumReport:
    """Table of |L2(N, 2N)| / N**gamma across increasing N (dyadic in practice),
    2 max(N) <= MAX_SIEVE; the rows stream through one thread pool (in_order)
    in slices of SCAN_SLICE n (_l_sums)."""
    if not 0.5 < gamma <= 1.0:
        raise PreconditionViolated(f"need 1/2 < gamma <= 1, got {gamma}")
    _require_squarefree(s)
    ns = [int(n) for n in N_list]
    if not ns or any(b <= a for a, b in zip(ns, ns[1:])):
        raise PreconditionViolated("N_list must be nonempty and strictly increasing")
    if ns[0] < 1:
        raise PreconditionViolated(f"every N must be >= 1, got N = {ns[0]}")
    if 2 * ns[-1] > MAX_SIEVE:
        raise Overflow(f"2 N is capped at the sieve budget {MAX_SIEVE}, got N = {ns[-1]}")
    j_max = [J if J is not None else default_truncation(N, gamma) for N in ns]
    values = _l_sums([(N, 2 * N, j) for N, j in zip(ns, j_max)], gamma, s)
    rows = tuple(
        ExpSumRow(N=N, M=2 * N, s=s, j_max=j, value=complex(val, 0.0), ratio=abs(val) / N**gamma)
        for N, j, val in zip(ns, j_max, values)
    )
    return ExpSumReport(gamma=float(gamma), s=s, rows=rows)
