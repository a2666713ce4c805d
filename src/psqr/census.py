"""Empirical sign-pattern censuses with predicted-vs-observed comparison.

A census reads its primes from exactly one place: the PS primes [n^c] of a
PsPrimeRange, an n-window with its exponent, or a prime-list file (one
decimal prime per line, ascending, '#' comments). Plain primes are the
window at c = 1, whose floors are n itself. Work streams, in block order,
through fixed blocks of at most MAX_BLOCK_SIZE n or primes
(PsPrimeRange.blocks or prime_file_blocks), so memory does not grow with the
input and reports are byte-identical for any thread count. The blocks run
through psqr.in_order, in this process or on a process pool; census_workers
sizes a window's pool by psprimes.primality_tier, prime_flags' tier rule and
cost table. Every block hands its primes to the histogram as one uint64
array: psprimes.ps_prime_array's floors, or a verified block of the file.

Symbols come from the set's odd-exponent prime basis, read off the
factorizations the square-subset family already holds, so each element is
factored once per census: (s/p) = -1 exactly when an odd number of the primes
q dividing s to an odd power have (q/p) = -1. Each block takes one
residues.symbol_bits column per basis prime, read from q's row when the
census's row plan holds q, and XORs it into the pattern mask of every element
that q divides to an odd power. Every mask is therefore a sum of columns of
the exponent matrix, so patterns outside the prediction's support (its
structural zeros) cannot be counted. A prime dividing any element, or p = 2,
is skipped.
"""

from __future__ import annotations

import itertools
import json
import os
from array import array
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import in_order
from .errors import BadPrimeFile, Overflow, PreconditionViolated, SetTooLarge, WindowTooSmall
from .kernels import SquareSubsetFamily, _mask_key
from .predict import PATTERN_SET_CAP, Prediction, dominates, parity_analysis
from .psprimes import (
    BLOCK_SIZE, FLOOR_PASS_S, PRIME_BUDGET, PsPrimeRange, floor_pow,
    prime_flags, primality_tier, ps_prime_array,
)
from .residues import plan_rows, symbol_bits

# n (or primes) per block: a window block holds ~40 bytes per n
MAX_BLOCK_SIZE = 1 << 22
# worker processes, each with its own numpy working set: a pool forks them all at once
MAX_THREADS = 1 << 5


@dataclass(frozen=True)
class CensusConfig:
    """One census run: the set, and its primes: the PS primes of a window at
    its exponent (c = 1: all primes), or the path of a prime-list file."""

    elements: tuple[int, ...]
    primes: PsPrimeRange | str
    block_size: int = BLOCK_SIZE
    threads: int = 1


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
    # processes that counted the blocks: a run fact for the manifest, not the report
    workers: int = 1

    @property
    def total_defined(self) -> int:
        return self.total_primes - self.skipped

    @property
    def qr_fraction(self) -> float:
        return self.qr_count / self.total_defined if self.total_defined else 0.0

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
    block is parsed up to its end or the file's first malformed line (a byte
    that is not UTF-8 included), then its entries are checked by one
    prime_flags call. Every earlier block passed, so the earliest bad line is
    the one reported.
    """
    error: Exception | None = None
    last = 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
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


# -- block workers -------------------------------------------------------------

@dataclass(frozen=True)
class _Basis:
    """The set's factorizations, as a census needs them.

    flips: (q, positions) for each prime q dividing some element to an odd
    power, ascending in q; bit i of positions is set when q divides element i
    to an odd power. divisors: every prime dividing some element. rows: the
    census's row plan (residues.plan_rows), the q whose symbols gather from
    rows; each process builds a planned row once, as its first block needs it.
    """

    flips: tuple[tuple[int, int], ...]
    divisors: tuple[int, ...]
    rows: frozenset[int]


def _basis(family: SquareSubsetFamily, moduli: int) -> _Basis:
    flips: dict[int, int] = {}
    divisors: set[int] = set()
    for i, factors in enumerate(family.factored):
        for q, e in factors:
            divisors.add(q)
            if e & 1:
                flips[q] = flips.get(q, 0) | 1 << i
    return _Basis(tuple(sorted(flips.items())), tuple(sorted(divisors)), plan_rows(flips, moduli))


def _count_patterns(basis: _Basis, primes: np.ndarray) -> tuple[int, int, dict[int, int]]:
    """(primes, skipped, mask -> count) over a uint64 array of primes."""
    # symbols are defined at odd primes dividing no element; the rest count as skipped
    odd = primes[~np.isin(primes, np.array((2,) + basis.divisors, dtype=np.uint64))]
    masks = np.zeros(odd.size, dtype=np.int64)
    for q, positions in basis.flips:
        masks ^= symbol_bits(q, odd, basis.rows) * np.int64(positions)
    keys, counts = np.unique(masks, return_counts=True)
    return primes.size, primes.size - odd.size, dict(zip(keys.tolist(), counts.tolist()))


def _census_block(task: tuple) -> tuple[int, int, dict[int, int]]:
    basis, block = task  # a block of the prime file, or a window (c, lo, hi)
    primes = block if isinstance(block, np.ndarray) else ps_prime_array(*block)[1]
    return _count_patterns(basis, primes)


# estimated serial seconds from which a window forks a pool: ~10x its start cost
POOL_MIN_WORK_S = 0.25


def census_workers(window: PsPrimeRange, block_size: int, threads: int) -> int:
    """Worker processes for a census of window in blocks of block_size n: 1,
    this process, or a pool of at most threads, and at most one per block.

    A pool is forked only for two blocks or more whose estimated serial work
    reaches POOL_MIN_WORK_S: the window's n times the per-n cost of its top
    block (the block_size n up to hi), which psprimes.primality_tier prices
    from the block's end floors by prime_flags' tier and cost table, plus
    FLOOR_PASS_S per n at c > 1. A pool of two that counts two tiny blocks
    (c = 1, (0, 2000]) takes 0.014 s against 0.0005 s serial, so a window
    repays one only from a few tenths of a second. The rule reads no clock
    and no CPU count, so a run forks the same pool on any host.
    """
    c = window.exponent
    n = window.hi - window.lo
    count = min(n, block_size)  # the top block's n, up to hi
    seconds = primality_tier(count, floor_pow(window.hi - count + 1, c), floor_pow(window.hi, c))[1]
    if c.num != c.den:
        seconds += count * FLOOR_PASS_S
    blocks = -(-n // block_size)
    if threads == 1 or blocks < 2 or seconds * n / count < POOL_MIN_WORK_S:
        return 1
    return min(threads, blocks)


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
    primes = config.primes
    if isinstance(primes, PsPrimeRange):
        blocks = primes.blocks(config.block_size)
        workers = census_workers(primes, config.block_size, config.threads)
        moduli = primes.hi - primes.lo  # at most one prime per n
        # a dyadic window (x, 2x] must dominate prod(S)**gamma for the side
        # condition to vanish; a PsPrimeRange has x < 2**64, which bounds the power
        if primes.hi == 2 * primes.lo and not dominates(primes.lo, config.elements, primes.exponent):
            raise WindowTooSmall(
                f"x = {primes.lo} does not exceed prod(S)**gamma for S = {config.elements}"
            )
    else:
        # a file's size is unknown until it is read: up to threads blocks are
        # read ahead, and two or more fork a pool no wider than they are
        blocks = prime_file_blocks(primes, config.block_size)
        head = list(itertools.islice(blocks, config.threads))
        workers = max(len(head), 1)
        blocks = itertools.chain(head, blocks)
        moduli = (os.path.getsize(primes) + 1) // 2  # an entry takes a digit and a newline

    basis = _basis(prediction.family, moduli)
    tasks = ((basis, block) for block in blocks)
    partials = in_order(_census_block, tasks, workers, processes=True)
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
        workers=workers,
    )
