"""CLI behavior: outputs, manifests, exit codes, round trips."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import pytest

import psqr
from psqr import census, kernels, predict, psprimes
from psqr.cli import _parse_count, main
from psqr.errors import CheckFailed, PsqrError


def run_cli(capsys, *argv):
    code = main(list(argv))
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


@pytest.mark.parametrize("window", [["--range", "100,200"], ["--x", "1"]])
def test_census_prime_file_with_a_window_exit_2(tmp_path, capsys, window):
    path = tmp_path / "primes.txt"
    path.write_text("11\n13\n")
    code, out, err = run_cli(capsys, "census", "2,3", "--prime-file", str(path), *window)
    assert (code, out) == (2, "")
    assert "prime_file or a window, not both" in err


@pytest.mark.parametrize("argv", [
    ["census", "2,3", "--c", "255/254", "--x", "1e100000"],
    ["predict", "2,3", "--x", "1e400"],
    ["predict", "2,3", "--x", "2e308"],  # parses, but no float holds it
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
        census.write_prime_file(str(paths[-1]), primes[:count])

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

    monkeypatch.setattr(census, "ProcessPoolExecutor", no_pool)
    cap = census.MAX_THREADS
    argv = ["census", "2,3", "--x", "1e4", "--threads", str(cap + 1)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (4, "")
    assert f"capped at {cap}" in err and "Traceback" not in err


def _fail_past_the_first_block(c, lo, hi):
    if lo > 10**4:
        raise CheckFailed("forced")
    return psprimes.ps_prime_array(c, lo, hi)


def _crash_past_the_first_block(c, lo, hi):
    if lo > 10**4:
        os._exit(1)
    return psprimes.ps_prime_array(c, lo, hi)


@pytest.mark.parametrize("source, code", [
    ("bad line", 2), (_fail_past_the_first_block, 3), (_crash_past_the_first_block, 4),
], ids=["bad-line", "check-failed", "worker-crash"])
def test_census_failure_in_a_later_block_with_a_pool(tmp_path, capsys, monkeypatch, source, code):
    # fork-started workers inherit the patched ps_prime_array
    if source == "bad line":
        path = tmp_path / "primes.txt"
        census.write_prime_file(str(path), [*psprimes.primes_up_to(10**4).tolist(), 10**4 + 1])
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
    assert multiprocessing.active_children() == []
    if source == "bad line":
        assert f"{path}:1230: 10001 is not prime" in err


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


@pytest.mark.parametrize("exc", [MemoryError, BrokenProcessPool])
def test_census_worker_crash_exit_4(capsys, monkeypatch, exc):
    def crash(task):
        raise exc()

    monkeypatch.setattr(census, "_census_block", crash)
    code, out, err = run_cli(capsys, "census", "2,3", "--c", "1", "--x", "1e4", "--threads", "1")
    assert code == 4
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


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
    "UsageError": 2, "EmptySet": 2, "DuplicateElement": 2, "BasisIncomplete": 2,
    "EvenModulus": 2, "NotPrime": 2, "BadPrimeFile": 2, "WindowTooSmall": 2,
    "PreconditionViolated": 2,
    "CheckFailed": 3,
    "ResourceLimit": 4, "SetTooLarge": 4, "Overflow": 4,
}
_EXPORTED_ERRORS = sorted(
    (v for v in vars(psqr).values()
     if isinstance(v, type) and issubclass(v, PsqrError) and v is not PsqrError),
    key=lambda cls: cls.__name__,
)


def test_every_exported_error_has_a_documented_exit_code():
    assert sorted(cls.__name__ for cls in _EXPORTED_ERRORS) == sorted(_EXIT_CODES)


@pytest.mark.parametrize("exc", _EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_error_class_exit_code(capsys, monkeypatch, exc):
    def fail(elements):
        raise exc("forced")

    monkeypatch.setattr("psqr.cli.square_subset_family", fail)
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
