"""CLI behavior: outputs, manifests, exit codes, round trips."""

import dataclasses
import hashlib
import json
import time
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import pytest

import psqr
from psqr import census, kernels, predict
from psqr.cli import main
from psqr.errors import PsqrError


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


def test_census_set_cap_exit_4(capsys):
    big = ",".join(str(n) for n in range(1, 23))
    code, _, _ = run_cli(capsys, "census", big, "--x", "1e4")
    assert code == 4


def test_census_all_primes_value_budget_exit_4(capsys):
    # the base-prime sieve grows with isqrt(hi): a window past 2**44 is refused
    cap = 1 << 44
    code, _, err = run_cli(capsys, "census", "3", "--source", "all", "--range", f"{cap},{cap + 10}")
    assert code == 4
    assert "2**44" in err
    code, _, _ = run_cli(capsys, "census", "3", "--source", "all", "--range", f"{cap - 10},{cap}")
    assert code == 0


def test_census_wide_window_exit_4_before_planning(capsys):
    # 1e13 n in 2**16-n blocks would be ~1.5e8 tasks, planned before any block runs
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "census", "2,3", "--c", "11/10", "--range", "1,1e13")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert code == 4 and out == ""
    assert f"budget is {census.MAX_BLOCKS} blocks" in err
    assert peak < 1 << 20


def test_census_block_budget_boundary():
    top = census.MAX_BLOCKS + 1
    config = census.CensusConfig(elements=(2, 3), lo=1, hi=top, block_size=1)
    family = kernels.square_subset_family(config.elements)
    assert len(census._block_tasks(config, family)) == census.MAX_BLOCKS
    with pytest.raises(psqr.Overflow):
        census._block_tasks(dataclasses.replace(config, hi=top + 1), family)


@pytest.mark.parametrize("source", ["ps", "all"])
def test_census_block_size_cap_exit_4(capsys, source):
    cap = census.MAX_BLOCK_SIZE
    argv = ["census", "2,3", "--source", source, "--range", "1,100", "--threads", "1"]
    code, out, _ = run_cli(capsys, *argv, "--block-size", str(cap))
    assert code == 0 and json.loads(out)["total_primes"] == 25
    code, out, err = run_cli(capsys, *argv, "--block-size", str(cap + 1))
    assert code == 4 and out == ""
    assert f"capped at {cap}" in err


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
