"""Closed-form densities and the parity classification."""

import math
import random
import time
from fractions import Fraction

import pytest

from psqr.errors import Overflow, PreconditionViolated, SetTooLarge, XTooSmallWarning
from psqr.kernels import square_subset_family
from psqr.predict import (
    THEOREM2_APPLIES,
    UNDECIDED_SUM_MINUS_ONE,
    nqr_density,
    parity_analysis,
    pattern_density,
    qr_count_asymptotic,
    qr_density,
)
from psqr.psprimes import RationalExponent


def test_qr_density_examples():
    assert qr_density((1,)) == 1
    assert qr_density((2, 3)) == Fraction(1, 4)
    assert qr_density((2, 3, 6)) == Fraction(1, 4)


def test_nqr_density_examples():
    assert nqr_density((4,)) == 0
    assert nqr_density((2, 8)) == Fraction(1, 2)
    assert nqr_density((2, 3, 6)) == 0


def test_pattern_density_examples():
    assert pattern_density((2, 3), (1, -1)) == Fraction(1, 4)
    assert pattern_density((2, 8), (1, -1)) == 0
    assert pattern_density((2, 3, 6), (-1, -1, 1)) == Fraction(1, 4)


def test_pattern_density_validation():
    with pytest.raises(ValueError):
        pattern_density((2, 3), (1,))
    with pytest.raises(ValueError):
        pattern_density((2, 3), (1, 0))
    with pytest.raises(SetTooLarge):
        pattern_density(tuple(range(1, 23)), (1,) * 22)


def test_pattern_map_is_a_probability_vector():
    rng = random.Random(21)
    for _ in range(40):
        size = rng.randrange(1, 9)
        elements = tuple(rng.sample(range(1, 3000), size))
        pred = parity_analysis(elements)
        dens = pred.pattern_densities
        assert sum(dens.values()) == 1
        assert all(d >= 0 for d in dens.values())
        assert dens["0" * size] == pred.qr_density
        assert dens["1" * size] == pred.nqr_density


def test_pattern_map_matches_enumerated_density():
    rng = random.Random(22)
    for _ in range(25):
        size = rng.randrange(1, 7)
        elements = tuple(rng.sample(range(1, 500), size))
        fam = square_subset_family(elements)
        dens = parity_analysis(elements).pattern_densities
        for neg in range(1 << size):
            eps = tuple(-1 if neg >> i & 1 else 1 for i in range(size))
            key = "".join("1" if e == -1 else "0" for e in eps)
            assert dens[key] == pattern_density(elements, eps)


def test_parity_analysis_examples():
    pred = parity_analysis((2, 3))
    assert pred.condition4 and pred.parity_class == THEOREM2_APPLIES

    pred = parity_analysis((4,))
    assert not pred.condition4
    assert pred.parity_class == UNDECIDED_SUM_MINUS_ONE
    assert pred.family.family_count % 2 == 1

    pred = parity_analysis((2, 8))
    assert pred.condition4 and pred.family.parity_sum == 1


def test_densities_invariant_under_square_scaling():
    rng = random.Random(23)
    for _ in range(40):
        size = rng.randrange(1, 6)
        elements = list(rng.sample(range(2, 400), size))
        base_qr = qr_density(tuple(elements))
        base_nqr = nqr_density(tuple(elements))
        i = rng.randrange(size)
        k = rng.randrange(2, 20)
        scaled = list(elements)
        scaled[i] = scaled[i] * k * k
        if len(set(scaled)) < size:
            continue
        assert qr_density(tuple(scaled)) == base_qr
        assert nqr_density(tuple(scaled)) == base_nqr
        eps = tuple(rng.choice((1, -1)) for _ in range(size))
        assert pattern_density(tuple(scaled), eps) == pattern_density(tuple(elements), eps)


def test_qr_count_asymptotic_examples():
    c1 = RationalExponent(1, 1)
    val = qr_count_asymptotic((1,), c1, 10**6)
    assert val == pytest.approx(10**6 / math.log(10**6))
    assert round(val) == 72382

    c11 = RationalExponent(11, 10)
    val = qr_count_asymptotic((2, 3), c11, 10**6)
    assert val == pytest.approx(0.25 * (10 / 11) * 10**6 / math.log(10**6))


def test_qr_count_asymptotic_bounds():
    c1 = RationalExponent(1, 1)
    t0 = time.perf_counter()
    for x in (10**400, 10**100_000):  # no float holds x: refused before any power
        with pytest.raises(Overflow):
            qr_count_asymptotic((2, 3), c1, x)
    assert time.perf_counter() - t0 < 1.0
    for x in (0, 1):  # x / log x needs x >= 2
        with pytest.raises(PreconditionViolated):
            qr_count_asymptotic((2, 3), c1, x)


def test_qr_count_asymptotic_warns_below_threshold():
    c32 = RationalExponent(3, 2)
    with pytest.warns(XTooSmallWarning):
        qr_count_asymptotic((100, 200), c32, 10)
