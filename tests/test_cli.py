"""CLI behavior: outputs, manifests, exit codes, round trips."""

import argparse
import dataclasses
import hashlib
import importlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import psqr
from psqr import census, expsums, kernels, predict, psprimes
from psqr.cli import _parse_count, build_parser, main
from psqr.errors import CheckFailed, PsqrError

from helpers import write_prime_file


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own exit
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_command(capsys):
    code, out, err = run_cli(capsys, "family", "2,3,6")
    assert code == 0
    doc = json.loads(out)
    assert doc["family_count"] == 1
    assert doc["parity_sum"] == -1
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["command"] == "family"
    assert manifest["output_sha256"] == hashlib.sha256(out.encode()).hexdigest()


def test_family_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "family", "2,,3")
    assert code == 2
    assert "element 2" in err


def test_psprimes_overflow_exit_4(capsys):
    code, _, err = run_cli(capsys, "psprimes", "--c", "3/2", "--range", f"1,{1 << 44}")
    assert code == 4
    assert "budget" in err


@pytest.mark.parametrize("argv", [
    ["expsum", "scan", "--gamma", "205/243", "--s", "3", "--n-list", "1e12"],
    ["expsum", "scan", "--gamma", "205/243", "--s", "3", "--n-list", "1e30"],
    ["expsum", "bilinear", "--N", "100", "--M", "1000000000000", "--u", "5", "--v", "5",
     "--j", "1", "--gamma", "10/11", "--s", "3"],
    ["expsum", "psistar", "--J", "20", "--grid", "1000000000000"],
    ["expsum", "psistar", "--J", "1000000000", "--grid", "2"],
], ids=["scan", "scan-1e30", "bilinear", "psistar-grid", "psistar-J"])
def test_unbounded_inputs_exit_4_before_allocating(capsys, argv):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (4, "")
    assert "capped" in err and "Traceback" not in err
    assert peak < 1 << 20


@pytest.mark.parametrize("argv, message", [
    (["expsum", "scan", "--gamma", "-1000", "--s", "5"], "1/2 < gamma <= 1"),
    (["expsum", "scan", "--gamma", "205/243", "--s", "5", "--n-list", "0"], "N must be >= 1"),
    (["expsum", "vaughan", "--n", "5", "--u", "nan", "--v", "1"], "finite"),
    (["expsum", "bilinear", "--N", "100", "--M", "200", "--u", "5", "--v", "inf",
      "--j", "1", "--gamma", "10/11", "--s", "3"], "finite"),
], ids=["scan-gamma", "scan-n", "vaughan-nan", "bilinear-inf"])
def test_expsum_malformed_input_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def _leaf_parsers(parser, path=()):
    """(command name, parser) for every runnable command, as manifests name them."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, (*path, name))
            return
    yield ".".join(path), parser


_SMALL_RUNS = {
    "family": ["family", "2,3"],
    "predict": ["predict", "2,3", "--x", "1e4"],
    "census": ["census", "2,3", "--range", "1e3,2e3"],
    "psprimes": ["psprimes", "--c", "3/2", "--range", "1,100"],
    "expsum.vaughan": ["expsum", "vaughan", "--n", "97", "--u", "5", "--v", "5"],
    "expsum.psistar": ["expsum", "psistar", "--J", "10", "--grid", "1000"],
    "expsum.scan": ["expsum", "scan", "--gamma", "205/243", "--s", "3", "--n-list", "4096"],
    "expsum.bilinear": ["expsum", "bilinear", "--N", "100", "--M", "200", "--u", "5",
                        "--v", "5", "--j", "1", "--gamma", "10/11", "--s", "3"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_manifest_params_are_the_parsed_options(capsys, command):
    leaves = dict(_leaf_parsers(build_parser()))
    assert set(leaves) == set(_SMALL_RUNS)
    dests = {a.dest for a in leaves[command]._actions} - {"help", "out"}
    argv = _SMALL_RUNS[command]
    code, _, err = run_cli(capsys, *argv)
    manifest = json.loads(err.strip().splitlines()[-1])
    assert code == 0 and manifest["command"] == command
    assert set(manifest["params"]) == dests
    parsed = vars(build_parser().parse_args(argv))
    assert manifest["params"] == {dest: parsed[dest] for dest in dests}


def test_predict_command(capsys):
    code, out, _ = run_cli(capsys, "predict", "2,3", "--c", "1", "--x", "1e6")
    assert code == 0
    doc = json.loads(out)
    assert doc["qr_density"] == "1/4"
    assert doc["qr_count_main_term"] == pytest.approx(18095.6, abs=0.1)
    assert doc["theorem_backed"] is True


def test_predict_rejects_decimal_exponent(capsys):
    code, _, err = run_cli(capsys, "predict", "2,3", "--c", "1.1")
    assert code == 2
    assert "fraction" in err


def test_census_command_json(capsys):
    code, out, _ = run_cli(capsys, "census", "2,3", "--c", "1", "--x", "1e4")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_primes"] == 1033
    assert abs(doc["max_abs_deviation"]) < 0.05


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "2", "--c", "1", "--range", "10,500", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "pattern,count,predicted,deviation"


def test_census_window_required(capsys):
    code, _, err = run_cli(capsys, "census", "2,3")
    assert code == 2
    assert "one of the arguments --x --range --prime-file is required" in err


@pytest.mark.parametrize("prime_file", [[], ["--prime-file", "primes.txt"]])
def test_census_x_with_range_exit_2(capsys, prime_file):
    code, out, err = run_cli(capsys, "census", "2,3", "--x", "1e4", "--range", "10,100", *prime_file)
    assert (code, out) == (2, "")
    assert "argument --range: not allowed with argument --x" in err


def test_census_source_all_is_c_one(capsys):
    window = ["--range", "100,5000", "--threads", "1"]
    code, out, err = run_cli(capsys, "census", "2,3", "--c", "1/1", "--source", "all", *window)
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["params"]["source"] == "all"
    assert run_cli(capsys, "census", "2,3", "--c", "1", *window)[:2] == (0, out)
    # --c moves no size check for plain primes: another exponent is a conflict
    code, out, err = run_cli(capsys, "census", "2,3", "--source", "all", "--c", "3/2", "--x", "5")
    assert (code, out) == (2, "")
    assert "--source all" in err and "--c 3/2" in err


@pytest.mark.parametrize("window", [["--range", "100,200"], ["--x", "1"], ["--source", "all"]])
def test_census_prime_file_with_a_window_exit_2(tmp_path, capsys, window):
    path = tmp_path / "primes.txt"
    path.write_text("11\n13\n")
    code, out, err = run_cli(capsys, "census", "2,3", "--prime-file", str(path), *window)
    assert (code, out) == (2, "")
    if window[0] == "--source":
        assert "prime_file or a window, not both" in err
    else:  # argparse's group of sources
        assert f"argument {window[0]}: not allowed with argument --prime-file" in err


@pytest.mark.parametrize("argv", [
    ["census", "2,3", "--c", "255/254", "--x", "1e100000"],
    ["predict", "2,3", "--x", "1e400"],
    ["predict", "2,3", "--x", "2e308"],  # parses, but no float holds it
    ["expsum", "scan", "--gamma", "1e400", "--s", "5"],  # likewise gamma
    ["expsum", "bilinear", "--N", "100", "--M", "200", "--u", "5", "--v", "5",
     "--j", "1", "--gamma", "1e400", "--s", "3"],
])
def test_huge_x_exit_4_fast(capsys, argv):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (4, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("text, value", [
    ("1e308", 10**308),
    (str(1 << 1024), 1 << 1024),
    ("9" * 309, 10**309 - 1),
    ("000" + "9" * 309, 10**309 - 1),
    ("0e5", 0),
    ("1e309", None),
    ("10e308", None),
    ("1" * 310, None),
    ("1e10000000", None),
    ("1e" + "9" * 5000, None),
])
def test_parse_count_digit_bound(text, value):
    # the bound is read off the digit counts: no refused value is ever built
    t0 = time.perf_counter()
    if value is None:
        with pytest.raises(psqr.Overflow):
            _parse_count(text)
    else:
        assert _parse_count(text) == value
    assert time.perf_counter() - t0 < 0.1


def test_census_set_cap_exit_4(capsys):
    big = ",".join(str(n) for n in range(1, 23))
    code, _, _ = run_cli(capsys, "census", big, "--x", "1e4")
    assert code == 4


@pytest.mark.parametrize("lo", [(1 << 44) - 10, 1 << 62])
def test_census_all_primes_is_the_c1_stream_past_the_sieve_caps(capsys, monkeypatch, lo):
    # sieving near 2**44 or 2**62 would need base primes up to 2**22 or 2**31
    sieve = psprimes.primes_up_to

    def small_sieve(limit):
        if limit > 1 << 22:
            raise AssertionError(f"base primes up to {limit} requested")
        return sieve(limit)

    monkeypatch.setattr(psprimes, "primes_up_to", small_sieve)
    window = ["--range", f"{lo},{lo + 200}", "--threads", "1"]
    code, out, _ = run_cli(capsys, "census", "3,5", "--source", "all", *window)
    assert code == 0 and json.loads(out)["total_primes"] > 0
    assert run_cli(capsys, "census", "3,5", "--c", "1", *window)[:2] == (0, out)


def test_census_wide_window_plans_one_block_at_a_time(capsys, monkeypatch):
    # 1e13 n are ~1.5e8 blocks of 2**16 n: the first runs before the rest exist
    tasks = []

    def stop(task):
        tasks.append(task)
        raise MemoryError

    monkeypatch.setattr(census, "_census_block", stop)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "census", "2,3", "--c", "11/10", "--range", "1,1e13")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (4, "")
    assert [block for _, block in tasks] == [(psprimes.RationalExponent(11, 10), 1, 1 + (1 << 16))]
    assert peak < 1 << 20


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_psprimes_memory_does_not_grow_with_the_window(tmp_path, capsys):
    # a whole list of 2**20 n holds ~82k prime strings; a streamed one, one block
    def psprimes(hi):
        argv = ["psprimes", "--c", "1", "--range", f"0,{hi}", "--out", str(tmp_path / "ps.txt")]
        assert run_cli(capsys, *argv)[0] == 0

    psprimes(1 << 18)  # warm the base-prime cache
    small, large = _traced_peak(psprimes, 1 << 18), _traced_peak(psprimes, 1 << 20)
    assert large < 1.25 * small


def test_prime_file_census_memory_does_not_grow_with_the_file(tmp_path, capsys):
    primes = psprimes.primes_up_to(1 << 20).tolist()
    paths = []
    for count in (1 << 14, 1 << 16):
        paths.append(tmp_path / f"{count}.txt")
        write_prime_file(str(paths[-1]), primes[:count])

    def census_of(path):
        argv = ["census", "2,3", "--prime-file", str(path), "--block-size", "4096"]
        assert run_cli(capsys, *argv)[0] == 0

    census_of(paths[0])
    small, large = _traced_peak(census_of, paths[0]), _traced_peak(census_of, paths[1])
    assert large < 1.25 * small


@pytest.mark.parametrize("source", ["ps", "all"])
def test_census_block_size_cap_exit_4(capsys, source):
    cap = census.MAX_BLOCK_SIZE
    argv = ["census", "2,3", "--source", source, "--range", "1,100", "--threads", "1"]
    code, out, _ = run_cli(capsys, *argv, "--block-size", str(cap))
    assert code == 0 and json.loads(out)["total_primes"] == 25
    code, out, err = run_cli(capsys, *argv, "--block-size", str(cap + 1))
    assert code == 4 and out == ""
    assert f"capped at {cap}" in err


def test_census_thread_cap_exit_4_before_any_process(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    # a window of 10 blocks that would fork if its thread count were taken
    monkeypatch.setattr(census, "POOL_MIN_WORK_S", 0.0)
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", no_pool)
    cap = census.MAX_THREADS
    argv = ["census", "2,3", "--x", "1e4", "--block-size", "1000", "--threads", str(cap + 1)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert f"capped at {cap}" in err and "Traceback" not in err


def test_census_light_window_runs_in_process(capsys, monkeypatch, tmp_path):
    started = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", RecordingPool)
    # a bench census_ps window: ~0.03 s of blocks, which a pool would only slow
    argv = ["census", "33,22", "--c", "11/10", "--x", "610677"]
    code, out, err = run_cli(capsys, *argv, "--threads", "2")
    assert code == 0 and started == [] and json.loads(err.splitlines()[-1])["workers"] == 1
    assert run_cli(capsys, *argv, "--threads", "1")[1] == out and "workers" not in out
    # the manifest names the pool a heavy window forks, and the report does not
    monkeypatch.setattr(census, "POOL_MIN_WORK_S", 0.0)
    window = ["census", "2,3", "--range", "0,3000", "--block-size", "1000"]
    code, out, err = run_cli(capsys, *window, "--threads", "8")
    assert code == 0 and started == [3] and json.loads(err.splitlines()[-1])["workers"] == 3
    assert run_cli(capsys, *window, "--threads", "1")[1] == out
    # a prime file of one block is counted in process at any thread count
    started.clear()
    path = tmp_path / "primes.txt"
    write_prime_file(path, [11, 13, 17, 19, 23])
    code, out, err = run_cli(capsys, "census", "2,3", "--prime-file", str(path), "--threads", "4")
    assert code == 0 and started == [] and json.loads(err.splitlines()[-1])["workers"] == 1


def _fresh_python(code: str, **env) -> str:
    """stdout of code run by a new interpreter that imports this psqr, with
    env's variables set (None: unset)."""
    paths = [str(os.path.dirname(os.path.dirname(psqr.__file__))), os.environ.get("PYTHONPATH")]
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for key, value in env.items():
        child.pop(key, None)
        if value is not None:
            child[key] = value
    out = subprocess.run([sys.executable, "-c", code], env=child, capture_output=True, text=True,
                         check=True, timeout=60)
    return out.stdout.strip()


def test_import_cli_leaves_multiprocessing_out():
    code = "import sys, psqr.cli; print('multiprocessing' in sys.modules)"
    assert _fresh_python(code) == "False"


def _modules_after(argv, out) -> tuple[list[str], dict]:
    """The psqr and concurrent modules, and _hashlib (OpenSSL), that a fresh
    interpreter holds after main(argv), whose report goes to out, and the run
    manifest."""
    code = (f"import json, sys; from psqr.cli import main; main({[*argv, '--out', str(out)]!r}); "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith(('psqr', 'concurrent')) or m == '_hashlib')))")
    loaded = json.loads(_fresh_python(code))
    with open(f"{out}.manifest.json", encoding="utf-8") as fh:
        return loaded, json.load(fh)


def test_psprimes_run_loads_only_its_modules(tmp_path):
    loaded, _ = _modules_after(["psprimes", "--c", "11/10", "--range", "1,1000"], tmp_path / "p.txt")
    assert loaded == ["psqr", "psqr.cli", "psqr.errors", "psqr.psprimes"]  # no _hashlib


def test_census_run_loads_no_expsums(tmp_path):
    loaded, manifest = _modules_after(["census", "2,3", "--range", "1e3,2e3"], tmp_path / "c.json")
    assert "psqr.census" in loaded and "psqr.expsums" not in loaded
    assert "_hashlib" not in loaded
    assert manifest["env"]["cpus"] == len(os.sched_getaffinity(0))


def test_large_report_loads_no_hashlib(tmp_path):
    # a list written in 32 chunks (header and 31 blocks): the built-in SHA-256,
    # fed chunk by chunk, gives hashlib's checksum of the whole file
    out = tmp_path / "p.txt"
    loaded, manifest = _modules_after(["psprimes", "--c", "1", "--range", "0,2e6"], out)
    body = out.read_bytes()
    assert len(body) == 1_101_986 and "_hashlib" not in loaded
    assert manifest["output_sha256"] == hashlib.sha256(body).hexdigest()


def test_import_psqr_loads_no_module_of_its_own():
    code = "import sys, psqr; print(sorted(m for m in sys.modules if m.startswith('psqr')))"
    assert _fresh_python(code) == "['psqr']"


# the names psqr exported when it imported every module eagerly
_EXPORTS = {
    "census": "CensusConfig CensusReport prime_file_blocks run_census",
    "errors": "BadPrimeFile CheckFailed DuplicateElement EmptySet EvenModulus NotPrime Overflow "
              "PreconditionViolated PsqrError ResourceLimit SetTooLarge UsageError "
              "WindowTooSmall XTooSmallWarning",
    "expsums": "ExpSumReport L1 L2 TruncatedExpansion bilinear_check build_expansion "
               "cancellation_scan default_truncation majorant_check psi vaughan",
    "kernels": "Factorization SquareSubsetFamily brute_force_family factorize is_square "
               "square_subset_family",
    "predict": "Prediction THEOREM2_APPLIES UNDECIDED_SUM_MINUS_ONE nqr_density parity_analysis "
               "pattern_density qr_count_asymptotic qr_density",
    "psprimes": "PsPrimeRange RationalExponent floor_pow integer_nth_root is_prime is_ps_prime",
    "residues": "SignPattern jacobi legendre_euler pattern_at",
}


def test_lazy_exports_are_the_eager_ones():
    names = set()
    for module, exported in _EXPORTS.items():
        for name in exported.split():
            assert getattr(psqr, name) is getattr(importlib.import_module(f"psqr.{module}"), name)
            names.add(name)
        assert getattr(psqr, module) is sys.modules[f"psqr.{module}"]
    star = {}
    exec("from psqr import *", star)
    assert set(star) - {"__builtins__"} == names == set(psqr.__all__)
    with pytest.raises(AttributeError):
        psqr.no_such_name


@pytest.mark.parametrize("first, preset, want", [
    ("", None, "1"), ("", "3", "3"), ("import numpy; ", None, "None"),
], ids=["unset", "preset", "numpy-first"])
def test_import_sets_one_blas_thread_by_default(first, preset, want):
    code = f"import os; {first}import psqr; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS=preset) == want


def _fail_past_the_first_block(c, lo, hi):
    if lo > 10**4:
        raise CheckFailed(f"forced in process {os.getpid()}")
    return psprimes.ps_prime_array(c, lo, hi)


_TEST_PID = os.getpid()


def _crash_past_the_first_block(c, lo, hi):
    if lo > 10**4:
        # a block run in the test's own process must not end it
        assert os.getpid() != _TEST_PID, "the block ran in process, not in a worker"
        os._exit(1)
    return psprimes.ps_prime_array(c, lo, hi)


@pytest.mark.parametrize("source, code", [
    ("bad line", 2), (_fail_past_the_first_block, 3), (_crash_past_the_first_block, 4),
], ids=["bad-line", "check-failed", "worker-crash"])
def test_census_failure_in_a_later_block_with_a_pool(tmp_path, capsys, monkeypatch, source, code):
    started = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    # a light window forks only when told to; fork-started workers inherit the patches
    monkeypatch.setattr(census, "POOL_MIN_WORK_S", 0.0)
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", RecordingPool)
    if source == "bad line":
        path = tmp_path / "primes.txt"
        write_prime_file(str(path), [*psprimes.primes_up_to(10**4).tolist(), 10**4 + 1])
        window = ["--prime-file", str(path)]
    else:
        monkeypatch.setattr(census, "ps_prime_array", source)
        window = ["--range", "1e4,2e4"]
    report = tmp_path / "report.json"
    argv = ["census", "2,3", *window, "--block-size", "64", "--threads", "2", "--out", str(report)]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert "output_sha256" not in err and "Traceback" not in err
    assert not report.exists() and not (tmp_path / "report.json.manifest.json").exists()
    assert multiprocessing.active_children() == [] and started == [2]
    if source == "bad line":
        assert f"{path}:1230: 10001 is not prime" in err
    elif code == 3:
        assert "forced in process" in err and f"forced in process {os.getpid()}" not in err
    else:
        assert err == "error: a census worker process died\n"


def test_psprimes_failure_mid_stream(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("psqr.cli.ps_prime_array", _fail_past_the_first_block)
    argv = ["psprimes", "--c", "1", "--range", "0,2e5"]
    code, out, err = run_cli(capsys, *argv)
    # stdout has the blocks certified before the failure, and no manifest follows
    assert code == 3 and err.startswith("check failed: ")
    assert out.startswith("# psqr psprimes c=1 range=(0,200000]\n2\n3\n")
    assert "output_sha256" not in err
    # --out appears complete or not at all
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "ps.txt"))
    assert (code, out) == (3, "") and "output_sha256" not in err
    assert list(tmp_path.iterdir()) == []


def _break_the_pool(task):
    raise BrokenProcessPool()


def _run_out_of_memory(task):
    raise MemoryError()


# a worker that dies is test_census_failure_in_a_later_block_with_a_pool[worker-crash]
@pytest.mark.parametrize("crash, threads", [
    (_break_the_pool, "2"), (_run_out_of_memory, "1"),
], ids=["BrokenProcessPool", "MemoryError"])
def test_census_worker_crash_exit_4(capsys, monkeypatch, crash, threads):
    # a broken pool is raised by a pool's futures only, so that case forks one
    monkeypatch.setattr(census, "POOL_MIN_WORK_S", 0.0)
    monkeypatch.setattr(census, "_census_block", crash)
    argv = ["census", "2,3", "--c", "1", "--x", "1e4", "--block-size", "1000", "--threads", threads]
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
    if crash is _break_the_pool:
        assert err == "error: a census worker process died\n"


def test_psprimes_output_and_round_trip(tmp_path, capsys):
    out_file = tmp_path / "ps.txt"
    code, _, err = run_cli(
        capsys, "psprimes", "--c", "11/10", "--range", "1e4,2e4", "--out", str(out_file)
    )
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    body = out_file.read_bytes()
    assert manifest["output_sha256"] == hashlib.sha256(body).hexdigest()
    assert (tmp_path / "ps.txt.manifest.json").exists()

    code, direct, _ = run_cli(capsys, "census", "2,3", "--c", "11/10", "--x", "1e4")
    assert code == 0
    code, ingested, _ = run_cli(
        capsys, "census", "2,3", "--c", "11/10", "--prime-file", str(out_file)
    )
    assert code == 0
    assert direct == ingested


@pytest.mark.parametrize("argv", [
    ["census", "2,3", "--prime-file", "{tmp}/none/p.txt"],
    ["census", "2,3", "--prime-file", "{tmp}"],
    ["family", "2,3", "--out", "{tmp}/none/x.json"],
], ids=["missing-prime-file", "prime-file-is-a-dir", "out-dir-missing"])
def test_unusable_path_exit_2(tmp_path, capsys, argv):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "output_sha256" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry, code", [(str(1 << 64), 4), ("+13", 2), ("15", 2)])
def test_census_prime_file_bad_entry_exit_code(tmp_path, capsys, entry, code):
    path = tmp_path / "primes.txt"
    path.write_text(f"11\n{entry}\n")
    got, out, err = run_cli(capsys, "census", "2,3", "--prime-file", str(path))
    assert (got, out) == (code, "")
    assert f"{path}:2:" in err and "Traceback" not in err


def test_psprimes_examples(capsys):
    code, out, _ = run_cli(capsys, "psprimes", "--c", "1", "--range", "10,20")
    assert code == 0
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["11", "13", "17", "19"]

    code, out, _ = run_cli(capsys, "psprimes", "--c", "3/2", "--range", "1,10")
    assert [l for l in out.splitlines() if not l.startswith("#")] == ["2", "5", "11", "31"]

    code, out, _ = run_cli(capsys, "psprimes", "--c", "11/10", "--range", "1,10")
    listed = {int(l) for l in out.splitlines() if not l.startswith("#")}
    assert {2, 3, 7} <= listed


@pytest.mark.parametrize("c, lo, hi", [("1", 1000, 2000), ("11/10", 1000, 1500), ("243/205", 50, 900)])
def test_psprimes_output_across_blocks(capsys, monkeypatch, c, lo, hi):
    # blocks of 97 n: each window spans six or more, written in order
    monkeypatch.setattr("psqr.cli.BLOCK_SIZE", 97)
    code, out, _ = run_cli(capsys, "psprimes", "--c", c, "--range", f"{lo},{hi}")
    exponent = psprimes.RationalExponent.parse(c)
    floors = (psprimes.floor_pow(n, exponent) for n in range(lo + 1, hi + 1))
    want = "".join(f"{m}\n" for m in floors if psprimes.is_prime(m))
    assert (code, out) == (0, f"# psqr psprimes c={c} range=({lo},{hi}]\n{want}")


def test_expsum_vaughan_verdicts(capsys):
    code, out, _ = run_cli(capsys, "expsum", "vaughan", "--n", "97", "--u", "5", "--v", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "PASS"
    assert doc["value"] == pytest.approx(4.574710978503383)


def test_expsum_psistar(capsys):
    code, out, _ = run_cli(capsys, "expsum", "psistar", "--J", "20", "--grid", "20000")
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_expsum_bilinear(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "bilinear", "--N", "100", "--M", "200",
        "--u", "5", "--v", "5", "--j", "1", "--gamma", "10/11", "--s", "3",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "PASS"


def test_expsum_scan_csv(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "scan", "--gamma", "205/243", "--s", "3",
        "--n-list", "4096,8192",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N,M,s,j_max,value_re,value_im,ratio"
    assert len(lines) == 3


def test_expsum_scan_json(capsys):
    code, out, _ = run_cli(
        capsys, "expsum", "scan", "--gamma", "205/243", "--s", "3",
        "--n-list", "4096,8192", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == pytest.approx(205 / 243)
    assert len(doc["rows"]) == 2
    assert {"N", "M", "s", "j_max", "value_re", "value_im", "ratio"} == set(doc["rows"][0])
    assert doc["coeff_constants"]["b_decay"] == 0.5


def test_expsum_scan_rejects_square_s(capsys):
    code, _, _ = run_cli(
        capsys, "expsum", "scan", "--gamma", "205/243", "--s", "9", "--n-list", "4096,8192"
    )
    assert code == 2


def test_manifest_checksum_stability(capsys):
    _, out1, err1 = run_cli(capsys, "census", "2,3", "--c", "1", "--x", "2000", "--threads", "1")
    _, out2, err2 = run_cli(capsys, "census", "2,3", "--c", "1", "--x", "2000", "--threads", "4")
    assert out1 == out2
    sha1 = json.loads(err1.strip().splitlines()[-1])["output_sha256"]
    sha2 = json.loads(err2.strip().splitlines()[-1])["output_sha256"]
    assert sha1 == sha2


@pytest.mark.parametrize("argv,sha256", [
    (("family", "2,3"), "c2c1f6a3807132afaed3d1cf98b8db8e01ab7ac1657195b1522eaf172bb68ebd"),
    (("expsum", "bilinear", "--N", "2000", "--M", "4000", "--u", "5", "--v", "7", "--j", "2",
      "--gamma", "205/243", "--s", "15"),
     "ea8b024048932368d14491fbd72b881c19e2d508237b7639c441335c605202be"),
    (("expsum", "scan", "--gamma", "205/243", "--s", "3", "--n-list", "4096,8192,16384", "--json"),
     "346ec43cb50eff4852ed3f8bf1dc61df68042eb3d5e54c73052241c863e75f21"),
    (("expsum", "psistar", "--J", "40", "--grid", "20000"),
     "0eca01d15cd71663106b31d08168ff4200227f8704846bfd1a7ee64d043d8fb3"),
], ids=["family", "bilinear", "scan", "psistar"])
def test_manifest_env_leaves_the_report_alone(capsys, tmp_path, argv, sha256):
    # the checksums are those of the reports before the manifest gained env
    code, out, err = run_cli(capsys, *argv)
    manifest = json.loads(err.strip().splitlines()[-1])
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha256
    assert manifest["output_sha256"] == sha256 and "env" not in out
    env = manifest["env"]
    assert set(env) == {"python", "numpy", "numba_importable", "cpus", "openblas_num_threads"}
    assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
    assert env["python"] == platform.python_version() and env["numpy"] == np.__version__
    assert env["cpus"] == expsums.usable_cpus() >= 1 and isinstance(env["numba_importable"], bool)
    out_path = tmp_path / "report.txt"
    run_cli(capsys, *argv, "--out", str(out_path))
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == sha256
    written = json.loads((tmp_path / "report.txt.manifest.json").read_text())
    assert written["env"] == env and written["output_sha256"] == sha256


def test_threads_env_default(capsys, monkeypatch):
    monkeypatch.setenv("PSQR_THREADS", "2")
    from psqr.cli import build_parser

    args = build_parser().parse_args(["census", "2", "--x", "1000"])
    assert args.threads == 2


@pytest.mark.parametrize("value", ["two", "1.5", "0"])
def test_threads_env_bad_value_exit_2_from_census_only(capsys, monkeypatch, value):
    monkeypatch.setenv("PSQR_THREADS", value)
    assert run_cli(capsys, "family", "2,3")[0] == 0
    try:
        code = main(["census", "2,3", "--x", "1000"])
    except SystemExit as exc:  # argparse's own exit
        code = exc.code
    assert code == 2
    assert "threads" in capsys.readouterr().err


# documented exit codes: usage errors 2, failed checks 3, resource limits 4
_EXIT_CODES = {
    "UsageError": 2, "EmptySet": 2, "DuplicateElement": 2,
    "EvenModulus": 2, "NotPrime": 2, "BadPrimeFile": 2, "WindowTooSmall": 2,
    "PreconditionViolated": 2,
    "CheckFailed": 3,
    "ResourceLimit": 4, "SetTooLarge": 4, "Overflow": 4,
}
_EXPORTED_ERRORS = sorted(
    (v for v in map(psqr.__getattr__, psqr.__all__)
     if isinstance(v, type) and issubclass(v, PsqrError) and v is not PsqrError),
    key=lambda cls: cls.__name__,
)


def test_every_exported_error_has_a_documented_exit_code():
    assert sorted(cls.__name__ for cls in _EXPORTED_ERRORS) == sorted(_EXIT_CODES)


@pytest.mark.parametrize("exc", _EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_error_class_exit_code(capsys, monkeypatch, exc):
    def fail(elements):
        raise exc("forced")

    monkeypatch.setattr("psqr.kernels.square_subset_family", fail)
    code, out, err = run_cli(capsys, "family", "2,3")
    assert code == _EXIT_CODES[exc.__name__]
    assert out == ""
    assert "forced" in err


def _family_with_even_count(real):
    return lambda S: dataclasses.replace(real(S), family_count=2)


@pytest.mark.parametrize("module, name, replacement", [
    (kernels, "_gray_span", lambda basis: iter(())),  # enumeration disagrees with closed form
    (predict, "square_subset_family", _family_with_even_count(kernels.square_subset_family)),
])
def test_parity_analysis_self_check_exit_3(capsys, monkeypatch, module, name, replacement):
    monkeypatch.setattr(module, name, replacement)
    code, out, err = run_cli(capsys, "predict", "2,3,6")
    assert code == 3
    assert out == ""
    assert err.startswith("check failed: ")
