"""Sawtooth expansion, Vaughan identity, and the cancellation sums."""

import math
import random

import numpy as np
import pytest

from psqr import expsums
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
    psi,
    vaughan,
    von_mangoldt,
    von_mangoldt_sieve,
)


def test_psi_examples():
    assert psi(0.0) == -0.5
    assert psi(0.75) == 0.25
    assert psi(-0.25) == 0.25
    assert psi(3.0) == -0.5


def test_arithmetic_functions_match_sieves():
    lam = von_mangoldt_sieve(500)
    mu = mobius_sieve(500)
    for n in range(1, 501):
        assert von_mangoldt(n) == pytest.approx(float(lam[n]))
        assert mobius(n) == int(mu[n])
    assert divisors(72) == [1, 2, 3, 4, 6, 8, 9, 12, 18, 24, 36, 72]


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


def test_l2_with_unit_character_equals_l1():
    assert L1(1000, 2000, 40, 10 / 11) == L2(1000, 2000, 40, 10 / 11, 1)


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
    lam = von_mangoldt_sieve(M)
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


@pytest.mark.parametrize("call", [
    lambda: cancellation_scan(205 / 243, 3, [4096, expsums.MAX_SIEVE // 2 + 1]),
    lambda: bilinear_check(100, expsums.MAX_SIEVE + 1, 5, 5, 1, 10 / 11, 3),
    lambda: majorant_check(1, grid_points=expsums.MAX_GRID + 1),
    lambda: majorant_check(expsums.MAX_TRUNCATION,
                           grid_points=expsums.MAX_GRID_TERMS // expsums.MAX_TRUNCATION + 1),
    lambda: build_expansion(expsums.MAX_TRUNCATION + 1),
], ids=["scan", "bilinear", "grid", "grid-terms", "truncation"])
def test_expsum_budgets_refuse_before_allocating(monkeypatch, call):
    def no_alloc(*args, **kwargs):
        raise AssertionError(f"a sieve or grid was built: {args}")

    monkeypatch.setattr(expsums, "von_mangoldt_sieve", no_alloc)
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
