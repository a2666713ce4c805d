"""Sawtooth expansion, Vaughan identity, and the cancellation sums."""

import cmath
import math
import random
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from psqr import expsums, psprimes
from psqr.errors import Overflow, PreconditionViolated
from psqr.expsums import (
    L1,
    L2,
    bilinear_check,
    build_expansion,
    cancellation_scan,
    default_truncation,
    divisors,
    majorant_check,
    mobius,
    mobius_sieve,
    odd_prime_powers,
    psi,
    vaughan,
    von_mangoldt,
)
from psqr.psprimes import primes_up_to
from psqr.residues import jacobi_column

CHUNK = expsums.CHUNK


def test_psi_examples():
    assert psi(0.0) == -0.5
    assert psi(0.75) == 0.25
    assert psi(-0.25) == 0.25
    assert psi(3.0) == -0.5


def test_arithmetic_functions_match_sieves():
    lam = _von_mangoldt_loop(2000)
    mu = mobius_sieve(2000)
    for n in range(1, 2001):
        assert von_mangoldt(n) == float(lam[n])
        assert mobius(n) == int(mu[n])
    assert divisors(72) == [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]


def _von_mangoldt_loop(limit):
    """Lambda(0..limit), one prime at a time over every prime power."""
    lam = np.zeros(limit + 1)
    for p in primes_up_to(limit).tolist():
        pk = p
        while pk <= limit:
            lam[pk] = math.log(p)
            pk *= p
    return lam


def _mobius_loop(limit):
    """mu(0..limit), one slice per prime up to limit."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(limit).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
    return mu


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(0, 300), st.integers(300, 1 << 17)))
@example(0)
@example(1)
@example(4)
@example(1 << 16)
def test_sieves_match_loops_at_any_limit(limit):
    (ns, logs), mu = odd_prime_powers(0, limit), mobius_sieve(limit)
    assert logs.dtype == np.float64 and mu.dtype == np.int8
    lam = np.zeros(limit + 1)
    lam[ns] = logs
    want = _von_mangoldt_loop(limit)
    want[::2] = 0.0
    assert np.array_equal(lam.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(mu, _mobius_loop(limit))
    for n in random.Random(limit).sample(range(1, limit + 1), min(limit, 50)):
        assert (von_mangoldt(n) if n & 1 else 0.0, mobius(n)) == (float(lam[n]), int(mu[n]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 300), st.integers(300, 1 << 16)).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(N + 1, 2 * N))))
@example((0, 1))
@example((0, 100))
@example((1, 2))
@example((26, 27))  # ends on 3^3
@example((27, 54))  # starts just past 3^3
@example((3124, 6249))  # starts on 5^5
@example((59048, 59049))  # one value, 3^10
@example((39063, 78125))  # ends on 5^7
@example((1 << 16, 1 << 17))
def test_odd_prime_powers_match_loop(row):
    N, M = row
    ns, logs = odd_prime_powers(N, M)
    lam = _von_mangoldt_loop(M)
    want = np.array([n for n in range(N + 1, M + 1) if n & 1 and lam[n]], dtype=np.int64)
    assert ns.dtype == np.int64 and np.array_equal(ns, want)
    assert logs.dtype == np.float64
    assert np.array_equal(logs.view(np.uint64), lam[want].view(np.uint64))


def _psi_star_sweep(exp, x):
    """psi* as one whole-array sweep: the bits of any slicing of its arguments."""
    u = np.mod(np.asarray(x, dtype=np.float64), 1.0)
    flip = u > 0.5
    w = np.where(flip, 1.0 - u, u)
    acc = np.zeros_like(w)
    for j in range(1, exp.J + 1):
        acc -= exp._w[j - 1] * np.sin(expsums.TWO_PI * j * w)
    acc = np.where(flip, -acc, acc)
    return acc if acc.ndim else float(acc)


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_psi_star_bits_for_any_thread_count(size):
    exp = build_expansion(37)
    xs = np.random.default_rng(size).uniform(-3e5, 3e5, size)
    xs[: min(size, 6)] = [0.0, 0.5, -0.5, 1.0, 2.5, -1e-12][: min(size, 6)]
    got = exp.psi_star(xs)
    assert got.shape == xs.shape
    assert np.array_equal(got.view(np.uint64), _psi_star_sweep(exp, xs).view(np.uint64))


def test_psi_star_scalar_and_shaped_inputs():
    exp = build_expansion(37)
    grid = np.linspace(-2.0, 2.0, 2 * CHUNK + 2).reshape(2, -1)
    for x in (0.3, -2.75, 0.5, np.float64(7.1), np.array(1.25)):
        got = exp.psi_star(x)
        assert type(got) is float
        assert struct.pack("d", got) == struct.pack("d", _psi_star_sweep(exp, x))
    assert np.array_equal(exp.psi_star(grid).view(np.uint64),
                          _psi_star_sweep(exp, grid).view(np.uint64))


def _majorant_grid(J, grid_points):
    """majorant_check's grid: the linspace, then integers, their one-sided
    neighbours and Fejer nodes."""
    xs = np.linspace(-2.5, 2.5, grid_points, endpoint=False)
    extra = []
    for k in range(-2, 4):
        extra += [k, k - 1e-9, k + 1e-9, k - 1e-12, k + 1e-12]
    extra += [k / (J + 1) for k in range(1, J + 1, max(1, J // 128))]
    return np.concatenate([xs, np.array(extra, dtype=np.float64)])


def _majorant_errors(J, grid_points):
    """|psi - psi*| - delta and delta over the whole grid, in one pass."""
    exp, xs = build_expansion(J), _majorant_grid(J, grid_points)
    dl = exp.delta(xs)
    return np.abs(xs - np.floor(xs) - 0.5 - _psi_star_sweep(exp, xs)) - dl, dl


def _majorant_one_pass(J, grid_points, tol=1e-12):
    """majorant_check's report from whole-grid arrays: the bits of any slicing."""
    err, dl = _majorant_errors(J, grid_points)
    worst, min_delta = float(np.max(err)), float(np.min(dl))
    return {
        "J": J,
        "grid_points": int(dl.size),
        "max_err_minus_delta": worst,
        "min_delta": min_delta,
        "passed": bool(worst <= tol and min_delta >= -tol),
    }


def test_majorant_check_same_for_any_thread_count(monkeypatch):
    # first slices that end on a grid's one worst point and on its one least
    # delta, then slices of 1 point, of 7 (Fejer nodes split across slices),
    # and wider ones
    err, dl = _majorant_errors(40, 5000)
    ends = [int(np.argmax(err)), int(np.argmin(dl))]
    assert np.count_nonzero(err == err[ends[0]]) == np.count_nonzero(dl == dl[ends[1]]) == 1
    cases = [(at + 1, 5000) for at in ends]
    cases += [(1, 300), (7, 5000), (1000, 3 * CHUNK), (CHUNK, 3 * CHUNK + 5)]
    for width, grid_points in cases:
        monkeypatch.setattr(expsums, "CHUNK", width)
        want = repr(_majorant_one_pass(40, grid_points))
        for threads in (1, 2, 3):
            monkeypatch.setattr(expsums, "usable_cpus", lambda: threads)
            assert repr(majorant_check(40, grid_points=grid_points)) == want, (width, threads)


@pytest.mark.parametrize("failing_slice", [0, 1, 3])
def test_majorant_slice_failure_propagates_and_joins(monkeypatch, failing_slice):
    grid_points = 3 * CHUNK + 5  # slices 0 to 2 of the linspace, and 3 ending in the extras
    first = _majorant_grid(5, grid_points)[failing_slice * CHUNK]
    psi_star = expsums.TruncatedExpansion.psi_star

    def failing(self, x):
        if x[0] == first:
            raise RuntimeError("slice failed")
        return psi_star(self, x)

    monkeypatch.setattr(expsums.TruncatedExpansion, "psi_star", failing)
    monkeypatch.setattr(expsums, "usable_cpus", lambda: 3)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="slice failed"):
        majorant_check(5, grid_points=grid_points)
    assert threading.active_count() == before


def test_majorant_check_memory_follows_its_slices(monkeypatch):
    # a 2**20-point grid (8 MB) is built with its linspace and their concatenation
    # held at once; past the grid, only the slices in flight (2 x threads) add
    monkeypatch.setattr(expsums, "usable_cpus", lambda: 2)
    grid_points = 1 << 20
    majorant_check(1, grid_points=10)
    tracemalloc.start()
    try:
        rep = majorant_check(1, grid_points=grid_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["passed"] and rep == _majorant_one_pass(1, grid_points)
    assert peak < 2 * 8 * grid_points + 4 * 16 * 8 * CHUNK, peak


def test_expansion_coefficient_bounds():
    for J in (10, 100, 1000):
        exp = build_expansion(J)
        for j, aj in exp.a_coeffs.items():
            assert abs(aj) * abs(j) <= exp.A_DECAY + 1e-15
            assert exp.a_coeffs[-j] == aj.conjugate()
        for j, bj in exp.b_coeffs.items():
            assert 0.0 <= bj * (J + 1) <= exp.B_DECAY + 1e-15


def test_expansion_delta_closed_form_matches_coeff_sum():
    exp = build_expansion(60)
    xs = np.linspace(-1.3, 2.7, 4001)
    closed = exp.delta(xs)
    direct = exp.delta_from_coeffs(xs)
    assert np.max(np.abs(closed - direct)) < 1e-12


def test_expansion_interpolates_sawtooth_at_fejer_nodes():
    # the pinned construction agrees with psi exactly at k/(J+1)
    for J in (10, 37):
        exp = build_expansion(J)
        for k in range(1, J + 1):
            x = k / (J + 1)
            assert exp.psi_star(x) == pytest.approx(psi(x), abs=1e-12)


def test_majorant_small_grid():
    res = majorant_check(25, grid_points=20_000)
    assert res["passed"], res


def test_majorant_holds_in_high_precision():
    # independent oracle: re-evaluate the whole construction in 50-digit
    # arithmetic and demand the inequality with no float-noise allowance
    import mpmath

    mpmath.mp.dps = 50
    J = 12
    rng = random.Random(41)
    pi = mpmath.pi

    def w(t):
        return pi * t * (1 - t) / mpmath.tan(pi * t) + t

    weights = [w(mpmath.mpf(j) / (J + 1)) for j in range(1, J + 1)]
    xs = [mpmath.mpf(rng.uniform(-2, 3)) for _ in range(200)]
    xs += [mpmath.mpf(k) / (J + 1) + mpmath.mpf("1e-30") for k in range(1, J + 1)]
    for x in xs:
        u = x - mpmath.floor(x)
        saw = u - mpmath.mpf(1) / 2
        star = -mpmath.fsum(
            weights[j - 1] * mpmath.sin(2 * pi * j * u) / (pi * j) for j in range(1, J + 1)
        )
        if u == 0:
            delta = mpmath.mpf(1) / 2
        else:
            delta = mpmath.sin(pi * (J + 1) * u) ** 2 / (2 * (J + 1) ** 2 * mpmath.sin(pi * u) ** 2)
        assert abs(saw - star) <= delta + mpmath.mpf("1e-40"), x


def test_vaughan_examples():
    assert vaughan(97, 5, 5) == pytest.approx(math.log(97), abs=1e-12)
    assert vaughan(100, 5, 5) == pytest.approx(0.0, abs=1e-12)
    assert vaughan(125, 5, 5) == pytest.approx(math.log(5), abs=1e-12)


@pytest.mark.parametrize("u,v", [(10.0, 40.0), (40.0, 10.0), (17.0, 23.0)])
def test_vaughan_identity_other_cutoffs(u, v):
    for n in range(int(v) + 1, 5001):
        lam = von_mangoldt(n)
        assert abs(vaughan(n, u, v) - lam) < 1e-9 * (1.0 + lam), n


def test_vaughan_preconditions():
    with pytest.raises(PreconditionViolated):
        vaughan(10, 5, 20)
    with pytest.raises(PreconditionViolated):
        vaughan(10, 0.5, 1)


@pytest.mark.parametrize("u, v", [(math.nan, 5.0), (5.0, math.nan), (math.inf, 5.0), (5.0, math.inf)])
def test_vaughan_refuses_non_finite_cutoffs(u, v):
    with pytest.raises(PreconditionViolated, match="finite"):
        vaughan(101, u, v)


def test_l2_with_unit_character_equals_l1():
    assert L1(1000, 2000, 40, 10 / 11) == L2(1000, 2000, 40, 10 / 11, 1)
    assert L1(np.int64(1000), np.int64(2000), 40, 10 / 11) == L1(1000, 2000, 40, 10 / 11)


def test_l_sums_validation():
    with pytest.raises(PreconditionViolated):
        L1(1000, 3000, 40, 10 / 11)  # M beyond 2N
    with pytest.raises(PreconditionViolated):
        L1(1000, 2000, 40, 0.4)
    with pytest.raises(PreconditionViolated):
        L2(1000, 2000, 40, 10 / 11, 9)  # perfect square s
    with pytest.raises(PreconditionViolated):
        L2(1000, 2000, 40, 10 / 11, 12)  # 4 | 12


def test_l2_matches_scalar_recomputation():
    # independent of the vectorized path: walk every odd n, look Lambda up
    # one value at a time, and evaluate psi* pointwise
    from psqr.residues import jacobi

    N, M, J, gamma, s = 500, 1000, 20, 0.9, 3
    exp = build_expansion(J)
    total = 0.0
    for n in range(N + 1, M + 1):
        if n % 2 == 0:
            continue
        lam = von_mangoldt(n)
        if lam == 0.0:
            continue
        diff = exp.psi_star(-(float(n) ** gamma)) - exp.psi_star(-(float(n + 1) ** gamma))
        total += lam * diff * jacobi(s, n)
    assert L2(N, M, J, gamma, s) == pytest.approx(total, abs=1e-12)


def test_l2_beats_triviality_bound():
    N, M, J, gamma, s = 10**4, 2 * 10**4, 50, 10 / 11, 3
    exp = build_expansion(J)
    lam = _von_mangoldt_loop(M)
    sup_psi_star = 2.0 * sum(abs(exp.a_coeffs[j]) for j in range(1, J + 1))
    odd_mass = sum(float(lam[n]) for n in range(N + 1, M + 1) if n & 1)
    trivial = 2.0 * sup_psi_star * odd_mass
    value = L2(N, M, J, gamma, s)
    assert abs(value) < 0.05 * trivial


def test_bilinear_examples():
    lhs, rhs = bilinear_check(100, 200, 5, 5, 1, 10 / 11, 3)
    assert abs(lhs - rhs) < 1e-6 * abs(lhs) + 1e-9

    lhs, rhs = bilinear_check(100, 200, 5, 5, 0, 10 / 11, 3)
    direct = sum(
        von_mangoldt(n) * j for n in range(101, 201, 2)
        if (j := _jacobi3(n)) is not None
    )
    assert lhs == pytest.approx(complex(direct, 0.0), abs=1e-9)
    assert abs(lhs - rhs) < 1e-9

    lhs1, rhs1 = bilinear_check(100, 200, 5, 5, 2, 10 / 11, 1)
    assert abs(lhs1 - rhs1) < 1e-6 * abs(lhs1) + 1e-9


def _bilinear_loop(N, M, u, v, j, gamma, s):
    """bilinear_check one term at a time: a cmath.exp phase per term, Python
    loops over every m and n. The reference for the array sums."""
    lam = _von_mangoldt_loop(M)
    mu = _mobius_loop(M)
    chi = jacobi_column(s, np.arange(1, M + 1, 2, dtype=np.uint64)).tolist()

    def phase(t):
        return cmath.exp(expsums.TWO_PI * 1j * j * float(t) ** gamma)

    def fold(parts):
        return complex(math.fsum(z.real for z in parts), math.fsum(z.imag for z in parts))

    def first_odd(k):
        return k if k & 1 else k + 1

    lhs = fold([lam[n] * chi[n >> 1] * phase(n) for n in range((N + 1) | 1, M + 1, 2) if lam[n]])

    a_arr = np.zeros(M + 1, dtype=np.int64)
    for d in range(1, min(int(u), M) + 1):
        if mu[d]:
            a_arr[d::d] += int(mu[d])
    cap = min(int(u * v), M)
    b_arr = np.zeros(cap + 1)
    for d in range(1, int(v) + 1):
        for e in range(1, int(u) + 1):
            if d * e > cap:
                break
            if lam[d] and mu[e]:
                b_arr[d * e] += lam[d] * int(mu[e])

    parts = []
    n_min_1 = int(math.floor(v)) + 1
    for m in range(first_odd(int(math.floor(u)) + 1), M // n_min_1 + 1, 2):
        am, cm = int(a_arr[m]), chi[m >> 1]
        if am and cm:
            for n in range(first_odd(max(n_min_1, N // m + 1)), M // m + 1, 2):
                if lam[n] and chi[n >> 1]:
                    parts.append(-am * cm * lam[n] * chi[n >> 1] * phase(m * n))
    for m in range(1, int(u) + 1, 2):
        mm, cm = int(mu[m]), chi[m >> 1]
        if mm and cm:
            for n in range(first_odd(N // m + 1), M // m + 1, 2):
                if n > 1 and chi[n >> 1]:
                    parts.append(mm * cm * chi[n >> 1] * math.log(n) * phase(m * n))
    for m in range(1, cap + 1, 2):
        bm, cm = float(b_arr[m]), chi[m >> 1]
        if bm and cm:
            for n in range(first_odd(N // m + 1), M // m + 1, 2):
                if chi[n >> 1]:
                    parts.append(-bm * cm * chi[n >> 1] * phase(m * n))
    return lhs, fold(parts)


def _bits(pair):
    return struct.pack("4d", pair[0].real, pair[0].imag, pair[1].real, pair[1].imag)


def _just_below(M, v):
    """The largest float u with u v < M."""
    u = M / v
    while u * v >= M:
        u = math.nextafter(u, 0)
    return u


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bilinear_matches_loop_reference(data):
    N = data.draw(st.integers(1, 1500), label="N")
    M = data.draw(st.integers(N + 1, 2 * N + 60), label="M")
    v = data.draw(st.floats(1.0, min(80.0, N)), label="v")
    u = data.draw(st.one_of(st.floats(1.0, 80.0), st.just(_just_below(M, v))), label="u")
    assume(1 <= u and u * v < M)
    args = (N, M, u, v, data.draw(st.integers(-2, 12), label="j"),
            data.draw(st.floats(0.51, 1.0), label="gamma"),
            data.draw(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, 105]), label="s"))
    got, want = bilinear_check(*args), _bilinear_loop(*args)
    assert got == want and _bits(got) == _bits(want), args


@pytest.mark.parametrize("args", [
    (100, 200, _just_below(200, 7.0), 7.0, 0, 10 / 11, 1),  # u v just below M, j = 0, s = 1
    (4, 5, 1.0, 1.0, 0, 0.9, 2),  # (2/5) = -1 at j = 0: imaginary parts are signed zeros
    (2, 3, 1.0, 1.0, 3, 0.9, 3),  # (3/3) = 0: the loop sums zeros only
    # b(m) of three or more terms, whose order of addition shows in the last bit
    (1281, 2240, 77.80704862972411, 20.628757364045583, 0, 0.6507101865073314, 3),
    (20_000, 40_000, 30.0, 30.0, 2, 205 / 243, 15),
], ids=["tight-uv", "signed-zeros", "all-zero", "b-order", "bench-shape"])
def test_bilinear_matches_loop_reference_edges(args):
    got, want = bilinear_check(*args), _bilinear_loop(*args)
    assert got == want and _bits(got) == _bits(want)


def _jacobi3(n):
    from psqr.residues import jacobi

    v = jacobi(3, n)
    return v if v else None


def test_bilinear_random_draws():
    rng = random.Random(31)
    for _ in range(10):
        N = rng.randrange(50, 2000)
        M = rng.randrange(N + 10, 2 * N + 1)
        u = rng.uniform(1, 12)
        v = rng.uniform(1, min(12, N))
        if u * v >= M:
            continue
        j = rng.randrange(0, 20)
        gamma = rng.uniform(0.55, 1.0)
        s = rng.choice([1, 2, 3, 5, 6, 7, 10, 11, 13])
        lhs, rhs = bilinear_check(N, M, u, v, j, gamma, s)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs) + 1e-9, (N, M, u, v, j, gamma, s)


def test_bilinear_preconditions():
    with pytest.raises(PreconditionViolated):
        bilinear_check(100, 200, 5, 5, 1, 10 / 11, 4)  # s not squarefree
    with pytest.raises(PreconditionViolated):
        bilinear_check(100, 200, 20, 20, 1, 10 / 11, 3)  # u*v = 400 >= M
    with pytest.raises(PreconditionViolated):
        bilinear_check(10, 200, 5, 50, 1, 10 / 11, 3)  # v exceeds N


@pytest.mark.parametrize("u, v", [(math.nan, 5.0), (5.0, math.nan), (math.inf, 5.0), (5.0, math.inf)])
def test_bilinear_refuses_non_finite_cutoffs(u, v):
    with pytest.raises(PreconditionViolated, match="finite"):
        bilinear_check(100, 200, u, v, 1, 10 / 11, 3)


@pytest.mark.parametrize("call", [
    lambda: cancellation_scan(205 / 243, 3, [4096, expsums.MAX_SIEVE // 2 + 1]),
    lambda: bilinear_check(100, expsums.MAX_SIEVE + 1, 5, 5, 1, 10 / 11, 3),
    lambda: L1(10**9, 2 * 10**9, 5, 0.9),
    lambda: L2(expsums.MAX_SIEVE // 2 + 1, expsums.MAX_SIEVE + 2, 5, 0.9, 3),
    lambda: majorant_check(1, grid_points=expsums.MAX_GRID + 1),
    lambda: majorant_check(expsums.MAX_TRUNCATION,
                           grid_points=expsums.MAX_GRID_TERMS // expsums.MAX_TRUNCATION + 1),
    lambda: build_expansion(expsums.MAX_TRUNCATION + 1),
], ids=["scan", "bilinear", "L1", "L2", "grid", "grid-terms", "truncation"])
def test_expsum_budgets_refuse_before_allocating(monkeypatch, call):
    def no_alloc(*args, **kwargs):
        raise AssertionError(f"a sieve or grid was built: {args}")

    monkeypatch.setattr(expsums, "odd_prime_powers", no_alloc)
    monkeypatch.setattr(expsums, "_segment_is_prime", no_alloc)
    monkeypatch.setattr(expsums, "mobius_sieve", no_alloc)
    monkeypatch.setattr(np, "linspace", no_alloc)
    with pytest.raises(Overflow):
        call()


def test_default_truncation_policy():
    assert default_truncation(4096, 1.0) == math.ceil(math.log(4096))
    gamma = 205 / 243
    J = default_truncation(1 << 20, gamma)
    assert J == math.ceil((1 << 20) ** (1 - gamma) * math.log(1 << 20))


def test_cancellation_scan_report():
    gamma = 205 / 243
    rep = cancellation_scan(gamma, 3, [4096, 8192, 16384])
    assert len(rep.rows) == 3
    for row in rep.rows:
        assert row.M == 2 * row.N
        assert row.ratio == abs(row.value) / row.N**gamma
        assert row.value.imag == 0.0
    csv = rep.to_csv().splitlines()
    assert csv[0] == "N,M,s,j_max,value_re,value_im,ratio"
    assert len(csv) == 4
    with pytest.raises(PreconditionViolated):
        cancellation_scan(gamma, 4, [4096, 8192])
    with pytest.raises(PreconditionViolated):
        cancellation_scan(gamma, 3, [8192, 4096])


@pytest.mark.parametrize("gamma, n_list, J, message", [
    (-1000.0, [4096], None, "gamma"),
    (0.5, [4096], None, "gamma"),
    (1.5, [4096], None, "gamma"),
    (math.nan, [4096], None, "gamma"),
    (205 / 243, [0, 4096], None, "N must be >= 1"),
    (205 / 243, [4096], 0, "truncation must be >= 1"),
], ids=["gamma-negative", "gamma-half", "gamma-above-1", "gamma-nan", "n-zero", "j-zero"])
def test_cancellation_scan_checks_its_input_first(monkeypatch, gamma, n_list, J, message):
    def no_sieve(*args):
        raise AssertionError(f"a sieve of {args} was built")

    monkeypatch.setattr(expsums, "odd_prime_powers", no_sieve)
    monkeypatch.setattr(expsums, "_segment_is_prime", no_sieve)
    with pytest.raises(PreconditionViolated, match=message):
        cancellation_scan(gamma, 5, n_list, J=J)


def test_cancellation_scan_sieves_one_row_at_a_time():
    # a dense Lambda table to 2 max(N) = 2**20 would take 8 MB by itself
    tracemalloc.start()
    try:
        rep = cancellation_scan(205 / 243, 3, [1 << 17, 1 << 18, 1 << 19])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 3
    assert peak < 8 << 20, peak


def _row_sum(N, M, J, gamma, s):
    """A row of the scan in one piece: the whole row's arrays, one fsum."""
    exp = build_expansion(J)
    ns, lam = odd_prime_powers(N, M)
    diffs = exp.psi_star(-(ns.astype(np.float64) ** gamma)) - exp.psi_star(
        -((ns + 1).astype(np.float64) ** gamma))
    return math.fsum((lam * diffs * jacobi_column(s, ns)).tolist())


@pytest.mark.parametrize("width, n_list", [
    (1, [100, 301]),
    (7, [1000, 3001]),  # slices end on odd primes (1021, 1049, ...), even n and, in L2, 7**3
    (998, [1000, 3001]),
    (expsums.SCAN_SLICE, [1000, (1 << 16) + 1]),
])
@pytest.mark.parametrize("threads", [1, 3])
def test_scan_rows_match_one_whole_row_sum(monkeypatch, width, n_list, threads):
    monkeypatch.setattr(expsums, "SCAN_SLICE", width)
    monkeypatch.setattr(expsums, "usable_cpus", lambda: threads)
    gamma, s = 205 / 243, 15
    rep = cancellation_scan(gamma, s, n_list, J=6)
    for row in rep.rows:
        want = _row_sum(row.N, row.M, 6, gamma, s)
        assert struct.pack("d", row.value.real) == struct.pack("d", want), row
    for s, value in ((3, L2(301, 500, 4, 0.9, 3)), (1, L1(301, 500, 4, 0.9))):
        assert struct.pack("d", value) == struct.pack("d", _row_sum(301, 500, 4, 0.9, s))


def test_l1_from_an_empty_prime_cache_same_for_any_thread_count(monkeypatch):
    # more threads than cores and a short switch interval: the slice threads
    # grow primes_up_to's cache from empty while they sum
    monkeypatch.setattr(expsums, "SCAN_SLICE", 500)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    values = []
    try:
        for threads in (8, 1):
            monkeypatch.setattr(psprimes, "_sieved", (10, np.array([2, 3, 5, 7], dtype=np.int64)))
            monkeypatch.setattr(expsums, "usable_cpus", lambda: threads)
            values.append(struct.pack("d", L1(9001, 18_002, 3, 205 / 243)))
    finally:
        sys.setswitchinterval(interval)
    assert values[0] == values[1]


@pytest.mark.parametrize("failing_slice", [0, 1, 5])
def test_scan_slice_failure_propagates_and_joins(monkeypatch, failing_slice):
    monkeypatch.setattr(expsums, "SCAN_SLICE", 1000)
    monkeypatch.setattr(expsums, "usable_cpus", lambda: 3)
    powers = expsums.odd_prime_powers

    def failing(N, M):
        if N == 10_000 + 1000 * failing_slice:
            raise RuntimeError("slice failed")
        return powers(N, M)

    monkeypatch.setattr(expsums, "odd_prime_powers", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="slice failed"):
        cancellation_scan(205 / 243, 3, [1000, 10_000], J=3)
    assert threading.active_count() == before


def test_cancellation_scan_memory_follows_its_slices(monkeypatch):
    # a row of 2**21 n keeps only the slices in flight: 2 x threads of SCAN_SLICE n
    monkeypatch.setattr(expsums, "usable_cpus", lambda: 2)
    tracemalloc.start()
    try:
        rep = cancellation_scan(205 / 243, 3, [1 << 21], J=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 1
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("args", [
    (100, 200, _just_below(200, 7.0), 7.0, 0, 10 / 11, 1),
    (1281, 2240, 77.80704862972411, 20.628757364045583, 0, 0.6507101865073314, 3),
    (700, 1500, 12.0, 9.5, 3, 205 / 243, 15),
], ids=["tight-uv", "b-order", "every-sum"])
def test_bilinear_matches_loop_reference_in_small_t_blocks(monkeypatch, block, args):
    monkeypatch.setattr(expsums, "T_BLOCK", block)
    got, want = bilinear_check(*args), _bilinear_loop(*args)
    assert got == want and _bits(got) == _bits(want)


_FINITE = st.floats(-(2.0**1017), 2.0**1017, allow_nan=False, allow_infinity=False)


@st.composite
def _float_chunks(draw):
    """Finite float64 values in chunks: the values, near-negations of some of
    them (heavy cancellation), and the chunk sizes they are added in."""
    values = draw(st.lists(st.one_of(
        _FINITE,
        st.integers(-1074, -1000).map(lambda e: 2.0**e),  # subnormals and the smallest normals
        st.integers(1000, 1017).map(lambda e: -(2.0**e)),
        st.sampled_from([0.0, -0.0, 1.0, 2.0**-53, -(2.0**-53), 5e-324, -5e-324]),
    ), max_size=60))
    for x in draw(st.lists(st.sampled_from(values), max_size=20)) if values else []:
        values += [-x, draw(st.sampled_from([0.0, math.ulp(x), -math.ulp(x), x * 2.0**-60]))]
    values = draw(st.permutations(values))
    cuts = sorted(draw(st.lists(st.integers(0, len(values)), max_size=8)))
    return [values[a:b] for a, b in zip([0] + cuts, cuts + [len(values)])]


@settings(max_examples=300, deadline=None)
@given(_float_chunks())
@example([[]])
@example([[-0.0], [-0.0, -0.0]])
@example([[5e-324, -5e-324, 5e-324]])
@example([[1.0, 2.0**-53]])  # a tie, to even
@example([[1.0, 2.0**-53], [2.0**-105]])  # just above the tie
@example([[3.0, 2.0**-52], [2.0**-53]])
@example([[2.0**1017] * 60, [-(2.0**1017)] * 59, [1e-300]])
@example([[1e-320] * 1000, [2.0**1016, -(2.0**1016)]])
def test_exact_sum_matches_fsum(chunks):
    total = expsums._ExactSum()
    for chunk in chunks:
        total.add(np.array(chunk, dtype=np.float64))
    want = math.fsum(x for chunk in chunks for x in chunk)
    assert struct.pack("d", total.value()) == struct.pack("d", want), chunks
