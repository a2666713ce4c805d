"""Mutation checks: each mutant is a textual patch on a temporary copy of
src/, and a test that must fail against the patched copy.

    python tests/mutants.py

The named tests first run against an unpatched copy, where they must pass.
The script prints one line per mutant and exits 1 if the baseline fails or
any mutant survives. Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (what the mutant breaks, file under src/psqr, text, its replacement, test that must fail)
MUTANTS = [
    (
        "top_block_seconds prices the sieve for every top floor below _SIEVE_VALUE_CAP",
        "psprimes.py",
        "        seconds = primality_tier(",
        "        seconds = count * 1.2e-8 if floor_pow(self.hi, c) < 1 << 44 else primality_tier(",
        "tests/test_census.py::test_census_workers_rule",
    ),
    (
        "a file census plans from no entries",
        "census.py",
        "        moduli = sum(b.size for b in head)\n",
        "        moduli = 0\n",
        "tests/test_census.py::test_piped_prime_list_plans_the_file_rows",
    ),
    (
        "_certified_floors without its end-floor check",
        "psprimes.py",
        "    if not band[-1] and not m**b <= hi**a < (m + 1) ** b:\n",
        "    if False:\n",
        "tests/test_psprimes.py::test_ps_block_rejects_an_expm1_outside_its_allowance",
    ),
    (
        "PsPrimeRange without its hi >= PRIME_BUDGET guard",
        "psprimes.py",
        "        if self.hi >= PRIME_BUDGET or floor_pow(",
        "        if floor_pow(",
        "tests/test_census.py::test_window_validation_property",
    ),
    (
        "primality_tier prices the sieve past _SIEVE_VALUE_CAP",
        "psprimes.py",
        "    if root > 1 and hi <= _SIEVE_VALUE_CAP:\n",
        "    if root > 1:\n",
        "tests/test_census.py::test_census_prices_the_tier_prime_flags_takes",
    ),
    (
        "the density rule forgets the run's width",
        "psprimes.py",
        " + (hi - lo) / _SIEVE_SPAN\n",
        "\n",
        "tests/test_psprimes.py::test_sparse_wide_run_is_tested_not_sieved",
    ),
    (
        "_mulmod without its np.remainder",
        "psprimes.py",
        "    return np.remainder(t, m.view(np.int64)).view(np.uint64)\n",
        "    return t.view(np.uint64)\n",
        "tests/test_psprimes.py::test_mulmod_is_exact_below_2_53",
    ),
    (
        "prime_file_blocks without surrogateescape",
        "census.py",
        ', errors="surrogateescape")',
        ")",
        "tests/test_census.py::test_prime_file_rejects_the_earliest_bad_line",
    ),
    (
        "jacobi_column's row path without its reciprocity flip",
        "residues.py",
        "    signs = _SIGNS[e & 1 if row is None else t & 2 | e & 1]\n",
        "    signs = _SIGNS[e & 1]\n",
        "tests/test_residues.py::test_planned_column_matches_the_reduction",
    ),
    (
        "row path without its (2/n)**e factor",
        "residues.py",
        "    signs = _SIGNS[e & 1 if row is None else t & 2 | e & 1]\n",
        "    signs = _SIGNS[e & 1 if row is None else t & 2]\n",
        "tests/test_residues.py::test_planned_column_matches_the_reduction",
    ),
    (
        "_planned_row without its lock",
        "residues.py",
        "    with _row_lock:\n",
        "    if True:\n",
        "tests/test_residues.py::test_planned_row_built_once_from_many_threads",
    ),
    (
        "_jacobi_row without (0/p) = 0",
        "residues.py",
        "        legendre[0] = 0\n",
        "",
        "tests/test_residues.py::test_jacobi_zero_iff_common_factor",
    ),
    (
        "run_census without the dyadic WindowTooSmall check",
        "census.py",
        "        if primes.hi == 2 * primes.lo and not dominates(",
        "        if False and not dominates(",
        "tests/test_census.py::test_window_validation",
    ),
    (
        "_planned_rows without its cache",
        "residues.py",
        "@functools.lru_cache(maxsize=1)\n",
        "",
        "tests/test_census.py::test_census_builds_each_basis_row_at_most_once",
    ),
    (
        "a full scalar store is never cleared",
        "residues.py",
        "        if len(self) >= SCALAR_ROWS:\n            self.clear()\n",
        "",
        "tests/test_residues.py::test_row_stores_stay_within_budget",
    ),
    (
        "jacobi_column without its reciprocity flip",
        "residues.py",
        "            flip ^= a & n & 3 == 3\n",
        "",
        "tests/test_residues.py::test_jacobi_column_matches_reference_loop",
    ),
    (
        "plan_rows plans past ROW_BUDGET",
        "residues.py",
        " if entries <= ROW_BUDGET)",
        ")",
        "tests/test_census.py::test_census_builds_each_basis_row_at_most_once",
    ),
    (
        "_guard returns 0",
        "psprimes.py",
        "    return 2.0 ** math.ceil(math.log2(bound * (1 + 2**-20)))\n",
        "    return 0.0\n",
        "tests/test_psprimes.py::test_guards_as_derived",
    ),
    (
        "_guard returns 2**-80",
        "psprimes.py",
        "    return 2.0 ** math.ceil(math.log2(bound * (1 + 2**-20)))\n",
        "    return 2.0**-80\n",
        "tests/test_psprimes.py::test_float_floors_match_floor_pow",
    ),
    (
        "_MR_BASES without its last base",
        "psprimes.py",
        "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)\n",
        "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)\n",
        "tests/test_psprimes.py::test_miller_rabin_limits_are_tight",
    ),
    (
        "_ExactSum without the low half of each mantissa",
        "expsums.py",
        "self._total += ((int(hi[k]) << 26) + int(lo[k])) << k\n",
        "self._total += (int(hi[k]) << 26) << k\n",
        "tests/test_expsums.py::test_exact_sum_matches_fsum",
    ),
    (
        "a scan slice without its last n",
        "expsums.py",
        "odd_prime_powers(a, b)",
        "odd_prime_powers(a, b - 1)",
        "tests/test_expsums.py::test_scan_rows_match_one_whole_row_sum",
    ),
    (
        "primes_up_to answers from the module global, read back after growing",
        "psprimes.py",
        '    return primes[: np.searchsorted(primes, limit, side="right")]\n',
        '    cut = np.searchsorted(primes, limit, side="right")\n    return _sieved[1][:cut]\n',
        "tests/test_psprimes.py::test_prime_cache_grows_safely_from_many_threads",
    ),
    (
        "in_order submits every task before it yields",
        "__init__.py",
        "            if len(in_flight) == 2 * workers:\n",
        "            if False:\n",
        "tests/test_in_order.py::test_at_most_two_tasks_per_worker_in_flight",
    ),
    (
        "in_order yields in completion order",
        "__init__.py",
        "    from concurrent.futures import BrokenExecutor\n",
        "    from concurrent.futures import BrokenExecutor, FIRST_COMPLETED, wait\n\n"
        "    class deque(list):  # pops the first task done\n"
        "        def popleft(self):\n"
        "            done = next(iter(wait(self, return_when=FIRST_COMPLETED).done))\n"
        "            self.remove(done)\n"
        "            return done\n",
        "tests/test_in_order.py::test_results_come_in_task_order",
    ),
    (
        "a bilinear t-block without its last t",
        "expsums.py",
        "np.minimum(hi, ts[-1] // ms)",
        "np.minimum(hi, (ts[-1] - 2) // ms)",
        "tests/test_expsums.py::test_bilinear_matches_loop_reference_in_small_t_blocks",
    ),
    (
        "a majorant slice skips its last point",
        "expsums.py",
        "        x = xs[k : k + CHUNK]\n",
        "        x = xs[k : k + CHUNK - 1]\n",
        "tests/test_expsums.py::test_majorant_check_same_for_any_thread_count",
    ),
    (
        "_l_sums carries one total across rows",
        "expsums.py",
        "    for _, parts in itertools.groupby(in_order(terms, slices(), workers), key=lambda part: part[0]):\n"
        "        total = _ExactSum()\n",
        "    total = _ExactSum()\n"
        "    for _, parts in itertools.groupby(in_order(terms, slices(), workers), key=lambda part: part[0]):\n",
        "tests/test_expsums.py::test_scan_rows_match_one_whole_row_sum",
    ),
]


def _passes(src: Path, tests: list[str]) -> bool:
    """Whether the tests pass with psqr imported from src."""
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True).returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="psqr-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not _passes(src, sorted({m[-1] for m in MUTANTS})):
            print("baseline: the named tests fail on the unpatched source")
            return 1
        survived = 0
        for name, file, old, new, test in MUTANTS:
            path = src / "psqr" / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"stale   {name}: its text is not found once in {file}")
                survived += 1
                continue
            path.write_text(text.replace(old, new))
            try:
                killed = not _passes(src, [test])
            finally:
                path.write_text(text)
            survived += not killed
            print(f"{'killed ' if killed else 'SURVIVED'} {name} ({test})")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
