"""Empirical sign-pattern censuses with predicted-vs-observed comparison.

A census reads its primes from exactly one place: a prime-list file (one
decimal prime per line, ascending, '#' comments), or the PS primes [n^c] of
an n-window at the config's exponent. Plain primes are the window at c = 1,
whose floors are n itself. Work streams, in block order, through fixed
blocks of at most MAX_BLOCK_SIZE n or primes (PsPrimeRange.blocks or
prime_file_blocks), so memory does not grow with the input and reports are
byte-identical for any thread count. Every block hands its primes to the
histogram as one uint64 array: psprimes.ps_prime_array's floors, or a
verified block of the file.

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
from array import array
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BadPrimeFile, Overflow, PreconditionViolated, SetTooLarge, WindowTooSmall
from .kernels import SquareSubsetFamily, _mask_key
from .predict import PATTERN_SET_CAP, Prediction, parity_analysis
from .psprimes import (
    BLOCK_SIZE, PRIME_BUDGET, PsPrimeRange, RationalExponent, prime_flags, ps_prime_array,
)
from .residues import symbol_bits

# n (or primes) per block: a window block holds ~40 bytes per n
MAX_BLOCK_SIZE = 1 << 22
# worker processes, each with its own numpy working set: a pool forks them all at once
MAX_THREADS = 1 << 5


@dataclass(frozen=True)
class CensusConfig:
    """One census run: the set, and its primes: a prime_file, or the PS primes
    of the window (x, 2x] or (lo, hi] at the exponent (c = 1: all primes)."""

    elements: tuple[int, ...]
    exponent: RationalExponent = RationalExponent(1, 1)
    x: int | None = None          # dyadic window (x, 2x]
    lo: int | None = None         # absolute window (lo, hi]
    hi: int | None = None
    prime_file: str | None = None
    block_size: int = BLOCK_SIZE
    threads: int = 1

    def window(self) -> PsPrimeRange:
        """The n-window at the exponent, validated against the prime budget."""
        if self.x is not None and self.lo is None and self.hi is None:
            return PsPrimeRange(self.exponent, self.x, 2 * self.x)
        if self.x is None and self.lo is not None and self.hi is not None:
            return PsPrimeRange(self.exponent, self.lo, self.hi)
        given = ", ".join(k for k in ("x", "lo", "hi") if getattr(self, k) is not None)
        raise PreconditionViolated(
            f"a census reads one of: x, lo and hi, or a prime_file; got {given or 'none'}"
        )


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

def prime_file_blocks(path: str, block_size: int = BLOCK_SIZE) -> Iterator[np.ndarray]:
    """Stream a prime-list file as uint64 arrays of up to block_size entries,
    each primality-checked before it is yielded.

    Entries are ASCII decimal integers below 2**64, strictly ascending. A
    block is parsed up to its end or the file's first malformed line, then
    its entries are checked by one prime_flags call. Every earlier block
    passed, so the earliest bad line is the one reported.
    """
    error: Exception | None = None
    last = 0
    with open(path, encoding="utf-8") as fh:
        numbered = enumerate(fh, 1)
        while True:
            primes, lines = array("Q"), array("Q")  # entries and their line numbers, unboxed
            for ln, raw in numbered:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if not (line.isascii() and line.isdigit()):
                    error = BadPrimeFile(f"{path}:{ln}: not a decimal integer: {line!r}")
                    break
                # 2**64 has 20 digits; a longer line is not handed to int()
                p = int(line) if len(line.lstrip("0")) <= 20 else PRIME_BUDGET
                if p >= PRIME_BUDGET:
                    error = Overflow(f"{path}:{ln}: entry exceeds the 2**64 prime budget")
                    break
                if p <= last:
                    error = BadPrimeFile(f"{path}:{ln}: entries must be strictly ascending")
                    break
                primes.append(p)
                lines.append(ln)
                last = p
                if len(primes) == block_size:
                    break
            values = np.frombuffer(primes, dtype=np.uint64)
            composite = np.flatnonzero(~prime_flags(values))
            if composite.size:
                k = int(composite[0])
                raise BadPrimeFile(f"{path}:{lines[k]}: {primes[k]} is not prime")
            if error is not None:
                raise error
            if not values.size:
                return
            yield values


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
    basis, block = task  # a block of the prime file, or a window (c, lo, hi)
    primes = block if isinstance(block, np.ndarray) else ps_prime_array(*block)[1]
    return _count_patterns(basis, primes)


def _run_blocks(fn: Callable, tasks: Iterable, threads: int) -> Iterator:
    """fn over tasks, lazily and in task order: map at threads == 1, else one
    process pool with at most 2 x threads tasks in flight, whose queued tasks
    are cancelled and workers joined however the run ends."""
    if threads == 1:
        yield from map(fn, tasks)
        return
    executor = ProcessPoolExecutor(max_workers=threads)
    try:
        in_flight = deque()
        for task in tasks:
            in_flight.append(executor.submit(fn, task))
            if len(in_flight) == 2 * threads:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        executor.shutdown(cancel_futures=True)


def run_census(config: CensusConfig) -> CensusReport:
    """Exact pattern census; a pure function of its config, any thread count."""
    if len(config.elements) > PATTERN_SET_CAP:
        raise SetTooLarge(f"census histograms are capped at {PATTERN_SET_CAP} elements")
    if config.block_size < 1 or config.threads < 1:
        raise PreconditionViolated("block_size and threads must be positive")
    if config.block_size > MAX_BLOCK_SIZE:
        raise Overflow(f"block_size is capped at {MAX_BLOCK_SIZE}, got {config.block_size}")
    if config.threads > MAX_THREADS:
        raise Overflow(f"threads are capped at {MAX_THREADS}, got {config.threads}")

    prediction = parity_analysis(config.elements)
    if config.prime_file is not None:
        if (config.x, config.lo, config.hi) != (None, None, None):
            raise PreconditionViolated("a census reads a prime_file or a window, not both")
        blocks = prime_file_blocks(config.prime_file, config.block_size)
    else:
        blocks = config.window().blocks(config.block_size)
    if config.x is not None:
        # the window is validated first, so x < 2**64 bounds the power below;
        # dyadic windows must dominate prod(S)**gamma for the side condition to vanish
        prod = math.prod(config.elements)
        if config.x ** config.exponent.num <= prod**config.exponent.den:
            raise WindowTooSmall(
                f"x = {config.x} does not exceed prod(S)**gamma for S = {config.elements}"
            )

    basis = _basis(prediction.family)
    tasks = ((basis, block) for block in blocks)
    partials = _run_blocks(_census_block, tasks, config.threads)
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
