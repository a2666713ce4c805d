"""Quadratic-residue sign patterns along Piatetski-Shapiro primes.

Closed-form square-subset families and density predictions, exact [n^c]
prime streams, empirical pattern censuses, and a numerical workbench for
the sawtooth/Vaughan exponential-sum machinery.

Importing psqr loads none of its modules: each exported name, and each
module, is imported on first access (PEP 562), so a command pays only for
the modules it runs.
"""

__version__ = "0.1.0"

import os
import sys
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from importlib import import_module

# psqr makes no BLAS call, but OpenBLAS starts a spinning thread per CPU as
# numpy loads. A value already set wins; numpy loaded first is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_EXPORTS = {
    "census": ("CensusConfig", "CensusReport", "prime_file_blocks", "run_census"),
    "errors": (
        "BadPrimeFile", "CheckFailed", "DuplicateElement", "EmptySet", "EvenModulus", "NotPrime",
        "Overflow", "PreconditionViolated", "PsqrError", "ResourceLimit", "SetTooLarge",
        "UsageError", "WindowTooSmall", "XTooSmallWarning",
    ),
    "expsums": (
        "ExpSumReport", "L1", "L2", "TruncatedExpansion", "bilinear_check", "build_expansion",
        "cancellation_scan", "default_truncation", "majorant_check", "psi", "vaughan",
    ),
    "kernels": (
        "Factorization", "SquareSubsetFamily", "brute_force_family", "factorize", "is_square",
        "square_subset_family",
    ),
    "predict": (
        "Prediction", "THEOREM2_APPLIES", "UNDECIDED_SUM_MINUS_ONE", "nqr_density",
        "parity_analysis", "pattern_density", "qr_count_asymptotic", "qr_density",
    ),
    "psprimes": (
        "PsPrimeRange", "RationalExponent", "floor_pow", "integer_nth_root", "is_prime",
        "is_ps_prime",
    ),
    "residues": ("SignPattern", "jacobi", "legendre_euler", "pattern_at"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def usable_cpus() -> int:
    """CPUs this process may run on: the expsum thread count, before its caps,
    and the run manifest's env.cpus."""
    return len(os.sched_getaffinity(0))


def in_order(fn: Callable, tasks: Iterable, workers: int, processes: bool = False) -> Iterator:
    """fn(task) for each task, lazily and in task order: in this process at
    workers <= 1, else on one pool of workers threads (or processes) with at
    most 2 x workers tasks in flight. A task's exception is re-raised, a
    broken pool raises ResourceLimit, and however the run ends the queued
    tasks are cancelled and the workers joined."""
    if workers <= 1:
        yield from map(fn, tasks)
        return
    # concurrent.futures, and multiprocessing for processes, load only for a pool
    from concurrent.futures import BrokenExecutor
    if processes:
        from concurrent.futures.process import ProcessPoolExecutor as Pool
    else:
        from concurrent.futures.thread import ThreadPoolExecutor as Pool

    pool = Pool(workers)
    try:
        in_flight = deque()
        for task in tasks:
            in_flight.append(pool.submit(fn, task))
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    except BrokenExecutor as exc:
        from .errors import ResourceLimit

        raise ResourceLimit("a census worker process died") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS or name == "cli":
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

