"""Factorization and square-subset families."""

import math
import random
import tracemalloc

import pytest

from psqr.errors import DuplicateElement, EmptySet, Overflow, SetTooLarge
from psqr.kernels import brute_force_family, factorize, is_square, square_subset_family


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(36).factors == ((2, 2), (3, 2))
    assert factorize(600851475143).factors == ((71, 1), (839, 1), (1471, 1), (6857, 1))


def test_factorize_reconstructs_and_is_sorted():
    rng = random.Random(20240601)
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(primes)
        assert all(e >= 1 for _, e in f.factors)


def test_factorize_large_semiprime():
    p, q = 2147483629, 2147483647  # cofactor needs the rho split
    f = factorize(p * q)
    assert f.factors == ((p, 1), (q, 1))


def test_factorize_rejects_out_of_domain():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(Overflow):
        factorize(1 << 70)


def test_family_named_values():
    expected = {
        (2, 3, 6): (1, -1),
        (4,): (1, -1),
        (2, 3): (0, 0),
        (2, 8): (1, 1),
        (1,): (1, -1),
        (2, 3, 5, 30): (1, 1),
    }
    for S, (count, parity) in expected.items():
        fam = square_subset_family(S)
        assert (fam.family_count, fam.parity_sum) == (count, parity), S
        oracle = brute_force_family(S)
        assert (oracle.family_count, oracle.parity_sum) == (count, parity), S
        assert fam.members == oracle.members, S


def test_family_member_lists():
    assert square_subset_family((2, 3, 6)).members == ((2, 3, 6),)
    assert square_subset_family((2, 3)).members == ()
    assert square_subset_family((2, 8)).members == ((2, 8),)


def test_family_validation_errors():
    with pytest.raises(EmptySet):
        square_subset_family(())
    with pytest.raises(DuplicateElement):
        square_subset_family((2, 3, 2))
    with pytest.raises(ValueError):
        square_subset_family((0, 3))
    with pytest.raises(SetTooLarge):
        brute_force_family(tuple(range(2, 28)))


def test_family_agrees_with_oracle_on_random_sets():
    rng = random.Random(99)
    for _ in range(200):
        size = rng.randrange(1, 8)
        elements = tuple(rng.sample(range(1, 10**4 + 1), size))
        fam = square_subset_family(elements)
        oracle = brute_force_family(elements)
        assert fam.family_count == oracle.family_count, elements
        assert fam.parity_sum == oracle.parity_sum, elements
        assert fam.members == oracle.members, elements


def test_family_structural_invariants():
    rng = random.Random(7)
    for _ in range(200):
        size = rng.randrange(1, 8)
        elements = tuple(rng.sample(range(1, 5000), size))
        fam = square_subset_family(elements)
        total = fam.family_count + 1
        assert total == 1 << fam.kernel_dim
        assert fam.parity_sum >= -1
        if fam.parity_sum == -1:
            assert fam.family_count % 2 == 1
        # every kernel basis subset multiplies to a square
        for mask in fam.kernel_basis:
            prod = math.prod(elements[i] for i in range(size) if mask >> i & 1)
            assert is_square(prod)


def test_appending_a_square_doubles_the_family():
    rng = random.Random(13)
    for _ in range(50):
        size = rng.randrange(1, 6)
        elements = tuple(rng.sample(range(2, 2000), size))
        sq = rng.randrange(2, 60) ** 2
        if sq in elements:
            continue
        before = square_subset_family(elements).family_count
        after = square_subset_family(elements + (sq,)).family_count
        assert after == 2 * before + 1
        oracle = brute_force_family(elements + (sq,))
        assert oracle.family_count == after


def test_member_enumeration_cap():
    fam = square_subset_family(tuple(k * k for k in range(2, 23)))  # 21 squares
    assert fam.set_size == 21
    assert fam.members is None
    assert fam.family_count == (1 << 21) - 1


def test_member_list_bounded_by_kernel_dim():
    # 16 squares list their 2**16 - 1 members; 17 squares, as 21 do, list none
    for count, listed in ((16, True), (17, False)):
        elements = tuple(k * k for k in range(2, 2 + count))
        fam, oracle = square_subset_family(elements), brute_force_family(elements)
        assert fam.kernel_dim == oracle.kernel_dim == count
        assert fam.members == oracle.members
        assert (fam.members is not None) == listed
        if listed:
            assert len(fam.members) == fam.family_count


def test_family_of_twenty_squares_memory():
    # kernel dimension 20: the parity self-check walks 2**20 masks, and no
    # member is listed (1,048,575 lists took 1.26 GB resident)
    tracemalloc.start()
    try:
        fam = square_subset_family(tuple(k * k for k in range(1, 21)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fam.kernel_dim, fam.family_count, fam.members) == (20, (1 << 20) - 1, None)
    assert peak < 1 << 20


def test_family_columns_are_the_exponent_matrix():
    rng = random.Random(29)
    for _ in range(200):
        elements = tuple(rng.sample(range(1, 10**6), rng.randrange(1, 9)))
        fam = square_subset_family(elements)
        factored = [factorize(s).factors for s in elements]
        columns = {}
        for i, factors in enumerate(factored):
            for q, e in factors:
                columns[q] = columns.get(q, 0) | (e & 1) << i
        assert fam.columns == tuple((q, m) for q, m in sorted(columns.items()) if m)
        assert fam.divisors == tuple(sorted(columns))
        # a kernel vector meets every column evenly: its product is a square
        for b in fam.kernel_basis:
            assert all((b & m).bit_count() % 2 == 0 for _, m in fam.columns)
    assert brute_force_family((2, 3, 6)).columns is None
