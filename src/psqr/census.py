"""Empirical sign-pattern censuses with predicted-vs-observed comparison.

Sources: exact PS-prime streams, plain primes from a segmented sieve, or an
ingested prime-list file (one decimal prime per line, ascending, '#' comments).
Work is split into fixed n-blocks merged in block order, so reports are
byte-identical for any thread count.
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
from .kernels import _mask_key
from .predict import PATTERN_SET_CAP, Prediction, parity_analysis
from .psprimes import (
    _SIEVE_VALUE_CAP,
    PsPrimeRange,
    RationalExponent,
    is_prime,
    primes_in_range,
    ps_primes_in,
)
from .residues import jacobi_column

PS_PRIMES = "PS_PRIMES"
ALL_PRIMES = "ALL_PRIMES"
FILE = "FILE"

DEFAULT_BLOCK = 1 << 16


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
    block_size: int = DEFAULT_BLOCK
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

def _count_patterns(elements: tuple[int, ...], primes: Iterable[int]) -> tuple[int, int, dict[int, int]]:
    ps = np.fromiter(primes, dtype=np.uint64)
    odd = ps[ps != 2]  # symbols are defined at odd primes; 2 counts as skipped
    masks = np.zeros(odd.size, dtype=np.int64)
    defined = np.ones(odd.size, dtype=bool)
    for i, s in enumerate(elements):
        col = jacobi_column(s, odd)
        defined &= col != 0
        masks |= (col < 0).astype(np.int64) << i
    keys, counts = np.unique(masks[defined], return_counts=True)
    skipped = ps.size - int(np.count_nonzero(defined))
    return ps.size, skipped, dict(zip(keys.tolist(), counts.tolist()))


def _census_block(task: tuple) -> tuple[int, int, dict[int, int]]:
    kind, elements, payload = task
    if kind == FILE:
        return _count_patterns(elements, payload)
    num, den, lo, hi = payload
    c = RationalExponent(num, den)
    if kind == ALL_PRIMES:
        primes: Iterable[int] = primes_in_range(lo, hi)
    else:
        rng = PsPrimeRange(c, lo, hi)
        primes = (p for _, p in ps_primes_in(rng))
    return _count_patterns(elements, primes)


def _block_tasks(config: CensusConfig) -> list[tuple]:
    elements = tuple(config.elements)
    if config.source == FILE:
        if config.prime_file is None:
            raise PreconditionViolated("FILE source needs a prime_file path")
        primes = read_prime_file(config.prime_file)
        step = config.block_size
        return [
            (FILE, elements, primes[i : i + step]) for i in range(0, len(primes), step)
        ] or [(FILE, elements, ())]
    lo, hi = config.window()
    if config.source == PS_PRIMES:
        PsPrimeRange(config.exponent, lo, hi)  # validate window and budget up front
    elif hi > _SIEVE_VALUE_CAP:
        # the segment sieve's base primes grow with isqrt(hi): refuse before allocating
        raise Overflow(f"--source all sieves values up to 2**44, got hi = {hi}")
    tasks = []
    for b_lo in range(lo, hi, config.block_size):
        b_hi = min(b_lo + config.block_size, hi)
        tasks.append((config.source, elements, (config.exponent.num, config.exponent.den, b_lo, b_hi)))
    return tasks


def run_census(config: CensusConfig) -> CensusReport:
    """Exact pattern census; a pure function of its config, any thread count."""
    if len(config.elements) > PATTERN_SET_CAP:
        raise SetTooLarge(f"census histograms are capped at {PATTERN_SET_CAP} elements")
    if config.source not in (PS_PRIMES, ALL_PRIMES, FILE):
        raise PreconditionViolated(f"unknown source {config.source!r}")
    if config.block_size < 1 or config.threads < 1:
        raise PreconditionViolated("block_size and threads must be positive")

    prediction = parity_analysis(config.elements)

    if config.x is not None:
        # dyadic windows must dominate prod(S)**gamma for the side condition to vanish
        prod = math.prod(config.elements)
        if config.x ** config.exponent.num <= prod**config.exponent.den:
            raise WindowTooSmall(
                f"x = {config.x} does not exceed prod(S)**gamma for S = {config.elements}"
            )

    tasks = _block_tasks(config)
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
