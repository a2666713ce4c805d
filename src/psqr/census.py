"""Empirical sign-pattern censuses with predicted-vs-observed comparison.

Sources: exact PS-prime streams, plain primes from a segmented sieve, or an
ingested prime-list file (one decimal prime per line, ascending, '#' comments).
Work is split into fixed n-blocks (at most MAX_BLOCKS of them, each of at most
MAX_BLOCK_SIZE n or primes) merged in block order, so reports are
byte-identical for any thread count. Every block hands its primes to the
histogram as one uint64 array: psprimes.ps_prime_array's floors, a segment
sieve's primes, or a slice of the file.

Symbols come from the set's odd-exponent prime basis, read off the
factorizations the square-subset family already holds, so each element is
factored once per census: (s/p) = -1 exactly when an odd number of the primes
q dividing s to an odd power have (q/p) = -1. Each block takes one
residues.symbol_bits column per basis prime and XORs it into the pattern mask
of every element that q divides to an odd power. Every mask is therefore a
sum of columns of the exponent matrix, so patterns outside the prediction's
support (its structural zeros) cannot be counted. A prime dividing any
element, or p = 2, is skipped.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BadPrimeFile, Overflow, PreconditionViolated, SetTooLarge, WindowTooSmall
from .kernels import SquareSubsetFamily, _mask_key
from .predict import PATTERN_SET_CAP, Prediction, parity_analysis
from .psprimes import (
    _SIEVE_VALUE_CAP,
    BLOCK_SIZE,
    PsPrimeRange,
    RationalExponent,
    is_prime,
    prime_array,
    ps_prime_array,
)
from .residues import symbol_bits

PS_PRIMES = "PS_PRIMES"
ALL_PRIMES = "ALL_PRIMES"
FILE = "FILE"

# blocks one window may be split into: the task list (~200 bytes a block) and,
# with a pool, one future per block are built before the first block runs
MAX_BLOCKS = 1 << 16
# n (or primes) per block: a PS block holds ~40 bytes per n, an ALL_PRIMES
# block one sieve byte per n
MAX_BLOCK_SIZE = 1 << 22


@dataclass(frozen=True)
class CensusConfig:
    """One census run: the set, the exponent, the window, and the source."""

    elements: tuple[int, ...]
    exponent: RationalExponent = RationalExponent(1, 1)
    x: int | None = None          # dyadic window (x, 2x]
    lo: int | None = None         # absolute window (lo, hi]
    hi: int | None = None
    source: str = PS_PRIMES
    prime_file: str | None = None
    block_size: int = BLOCK_SIZE
    threads: int = 1

    def window(self) -> tuple[int, int]:
        if self.x is not None:
            if self.x < 1:
                raise PreconditionViolated(f"window base must be >= 1, got {self.x}")
            return (self.x, 2 * self.x)
        if self.lo is not None and self.hi is not None:
            if not 0 <= self.lo < self.hi:
                raise PreconditionViolated(f"need 0 <= lo < hi, got ({self.lo}, {self.hi}]")
            return (self.lo, self.hi)
        raise PreconditionViolated("census window needs x or an explicit lo/hi range")


@dataclass(frozen=True, eq=False)
class CensusReport:
    """Exact pattern counts over a prime population, next to the predictions."""

    total_primes: int
    skipped: int
    pattern_counts: dict[str, int]
    qr_count: int
    nqr_count: int
    predicted: Prediction
    deviations: dict[str, float]
    max_abs_deviation: float

    @property
    def total_defined(self) -> int:
        return self.total_primes - self.skipped

    @property
    def qr_fraction(self) -> float:
        return self.qr_count / self.total_defined if self.total_defined else 0.0

    @property
    def nqr_fraction(self) -> float:
        return self.nqr_count / self.total_defined if self.total_defined else 0.0

    def to_json_dict(self) -> dict:
        return {
            "total_primes": self.total_primes,
            "skipped": self.skipped,
            "pattern_counts": dict(self.pattern_counts),
            "qr_count": self.qr_count,
            "nqr_count": self.nqr_count,
            "predicted": self.predicted.to_json_dict(),
            "deviations": dict(self.deviations),
            "max_abs_deviation": self.max_abs_deviation,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """Flat per-pattern rows: pattern,count,predicted,deviation."""
        densities = self.predicted.pattern_densities or {}
        lines = ["pattern,count,predicted,deviation"]
        for key in sorted(densities):
            lines.append(
                f"{key},{self.pattern_counts.get(key, 0)},"
                f"{densities[key]},{self.deviations[key]!r}"
            )
        return "\n".join(lines) + "\n"


# -- prime-list files ---------------------------------------------------------

def read_prime_file(path: str) -> tuple[int, ...]:
    """Load a prime-list file; every entry is primality-checked on ingest."""
    primes: list[int] = []
    last = 0
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                p = int(line)
            except ValueError:
                raise BadPrimeFile(f"{path}:{ln}: not an integer: {line!r}") from None
            if p <= last:
                raise BadPrimeFile(f"{path}:{ln}: entries must be strictly ascending")
            if not is_prime(p):
                raise BadPrimeFile(f"{path}:{ln}: {p} is not prime")
            primes.append(p)
            last = p
    return tuple(primes)


def write_prime_file(path: str, primes: Iterable[int], comment: str | None = None) -> int:
    """Write primes one per line; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for p in primes:
            fh.write(f"{p}\n")
            count += 1
    return count


# -- block workers -------------------------------------------------------------

@dataclass(frozen=True)
class _Basis:
    """The set's factorizations, as a census needs them.

    flips: (q, positions) for each prime q dividing some element to an odd
    power, ascending in q; bit i of positions is set when q divides element i
    to an odd power. divisors: every prime dividing some element.
    """

    flips: tuple[tuple[int, int], ...]
    divisors: tuple[int, ...]


def _basis(family: SquareSubsetFamily) -> _Basis:
    flips: dict[int, int] = {}
    divisors: set[int] = set()
    for i, factors in enumerate(family.factored):
        for q, e in factors:
            divisors.add(q)
            if e & 1:
                flips[q] = flips.get(q, 0) | 1 << i
    return _Basis(tuple(sorted(flips.items())), tuple(sorted(divisors)))


def _count_patterns(basis: _Basis, primes: np.ndarray) -> tuple[int, int, dict[int, int]]:
    """(primes, skipped, mask -> count) over a uint64 array of primes."""
    # symbols are defined at odd primes dividing no element; the rest count as skipped
    odd = primes[~np.isin(primes, np.array((2,) + basis.divisors, dtype=np.uint64))]
    masks = np.zeros(odd.size, dtype=np.int64)
    for q, positions in basis.flips:
        masks ^= symbol_bits(q, odd) * np.int64(positions)
    keys, counts = np.unique(masks, return_counts=True)
    return primes.size, primes.size - odd.size, dict(zip(keys.tolist(), counts.tolist()))


def _census_block(task: tuple) -> tuple[int, int, dict[int, int]]:
    kind, basis, payload = task
    if kind == FILE:
        return _count_patterns(basis, payload)
    c, lo, hi = payload
    primes = prime_array(lo, hi) if kind == ALL_PRIMES else ps_prime_array(c, lo, hi)[1]
    return _count_patterns(basis, primes)


def _block_tasks(config: CensusConfig, family: SquareSubsetFamily) -> list[tuple]:
    basis = _basis(family)
    if config.source == FILE:
        if config.prime_file is None:
            raise PreconditionViolated("FILE source needs a prime_file path")
        primes = np.array(read_prime_file(config.prime_file), dtype=np.uint64)
        step = config.block_size
        return [
            (FILE, basis, primes[i : i + step]) for i in range(0, primes.size, step)
        ] or [(FILE, basis, primes)]
    lo, hi = config.window()
    if config.source == PS_PRIMES:
        PsPrimeRange(config.exponent, lo, hi)  # validate window and budget up front
    elif hi > _SIEVE_VALUE_CAP:
        # the segment sieve's base primes grow with isqrt(hi): refuse before allocating
        raise Overflow(f"--source all sieves values up to 2**44, got hi = {hi}")
    blocks = -(-(hi - lo) // config.block_size)
    if blocks > MAX_BLOCKS:
        raise Overflow(
            f"the window spans {blocks} blocks of {config.block_size} n; the budget is "
            f"{MAX_BLOCKS} blocks (a larger block size covers a wider window)"
        )
    return [
        (config.source, basis, (config.exponent, b_lo, min(b_lo + config.block_size, hi)))
        for b_lo in range(lo, hi, config.block_size)
    ]


def run_census(config: CensusConfig) -> CensusReport:
    """Exact pattern census; a pure function of its config, any thread count."""
    if len(config.elements) > PATTERN_SET_CAP:
        raise SetTooLarge(f"census histograms are capped at {PATTERN_SET_CAP} elements")
    if config.source not in (PS_PRIMES, ALL_PRIMES, FILE):
        raise PreconditionViolated(f"unknown source {config.source!r}")
    if config.block_size < 1 or config.threads < 1:
        raise PreconditionViolated("block_size and threads must be positive")
    if config.block_size > MAX_BLOCK_SIZE:
        raise Overflow(f"block_size is capped at {MAX_BLOCK_SIZE}, got {config.block_size}")

    prediction = parity_analysis(config.elements)

    if config.x is not None:
        # dyadic windows must dominate prod(S)**gamma for the side condition to vanish
        prod = math.prod(config.elements)
        if config.x ** config.exponent.num <= prod**config.exponent.den:
            raise WindowTooSmall(
                f"x = {config.x} does not exceed prod(S)**gamma for S = {config.elements}"
            )

    tasks = _block_tasks(config, prediction.family)
    if config.threads == 1:
        partials = map(_census_block, tasks)
    else:
        executor = ProcessPoolExecutor(max_workers=config.threads)
        try:
            partials = list(executor.map(_census_block, tasks))
        finally:
            executor.shutdown()

    total = 0
    skipped = 0
    mask_counts: dict[int, int] = {}
    for b_total, b_skipped, b_counts in partials:
        total += b_total
        skipped += b_skipped
        for mask, cnt in b_counts.items():
            mask_counts[mask] = mask_counts.get(mask, 0) + cnt

    size = len(config.elements)
    counts = {_mask_key(mask, size): cnt for mask, cnt in sorted(mask_counts.items())}
    densities = prediction.pattern_densities or {}
    defined = total - skipped
    deviations = {}
    for key, dens in densities.items():
        observed = counts.get(key, 0) / defined if defined else 0.0
        deviations[key] = observed - float(dens)
    max_abs = max((abs(d) for d in deviations.values()), default=0.0)

    return CensusReport(
        total_primes=total,
        skipped=skipped,
        pattern_counts=counts,
        qr_count=counts.get("0" * size, 0),
        nqr_count=counts.get("1" * size, 0),
        predicted=prediction,
        deviations=deviations,
        max_abs_deviation=max_abs,
    )


def convergence_table(
    config: CensusConfig, x_values: Sequence[int]
) -> list[tuple[int, float, float, float]]:
    """One census per x: rows (x, observed qr fraction, predicted, deviation)."""
    if any(b <= a for a, b in zip(x_values, x_values[1:])):
        raise PreconditionViolated("x_values must be strictly increasing")
    rows = []
    for x in x_values:
        report = run_census(dataclasses.replace(config, x=x, lo=None, hi=None))
        predicted = float(report.predicted.qr_density)
        observed = report.qr_fraction
        rows.append((x, observed, predicted, observed - predicted))
    return rows
