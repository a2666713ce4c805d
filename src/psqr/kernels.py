"""Factorization and the square-subset family.

The family of nonempty subsets of a finite set whose element product is a
perfect square is the nonzero part of a GF(2) kernel: each element maps to
its vector of prime exponents mod 2, and a subset multiplies to a square
exactly when its indicator vector lies in the left nullspace of that matrix.
Subset indicators are packed into ints, bit i = position i of the input list.
The matrix's columns are the census's symbol basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import CheckFailed, DuplicateElement, EmptySet, Overflow, SetTooLarge
from .psprimes import is_prime, primes_up_to

FACTOR_BUDGET = 1 << 64
_TRIAL_LIMIT = 1 << 16

MEMBER_SET_CAP = 20       # above this, members are not enumerated
MEMBER_DIM_CAP = 16       # nor above this kernel dimension: 2**16 - 1 members
BRUTE_FORCE_CAP = 24


@dataclass(frozen=True)
class Factorization:
    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n with no factor <= 2**16.

    Brent's cycle variant with a deterministic sweep of polynomial offsets,
    so repeated runs factor identically.
    """
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise CheckFailed(f"rho sweep exhausted on {n}")  # unreachable for 64-bit inputs


def factorize(n: int) -> Factorization:
    """Complete prime factorization of 1 <= n <= 2**64; n = 1 gives no factors."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    if n > FACTOR_BUDGET:
        raise Overflow(f"factorization budget is 2**64, got a {n.bit_length()}-bit value")
    m = n
    counts: dict[int, int] = {}
    for p in primes_up_to(_TRIAL_LIMIT):
        p = int(p)
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    if m > 1:
        # cofactor has no prime factor <= 2**16
        stack = [m]
        while stack:
            v = stack.pop()
            if v < (1 << 32) or is_prime(v):
                counts[v] = counts.get(v, 0) + 1
            else:
                d = _brent_rho(v)
                stack.append(d)
                stack.append(v // d)
    return Factorization(n, tuple(sorted(counts.items())))


def is_square(n: int) -> bool:
    """Perfect-square test by integer square root (any size)."""
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


@dataclass(frozen=True, eq=False)
class SquareSubsetFamily:
    """All nonempty subsets of a finite set whose product is a perfect square.

    kernel_basis spans the subset-indicator kernel; family_count = 2**kernel_dim - 1
    and parity_sum is the signed subset count sum((-1)**|T|) over the family.
    members lists the family up to MEMBER_SET_CAP elements and MEMBER_DIM_CAP
    kernel dimensions, else is None. Built by factoring (not serialised; None
    for the brute-force oracle): columns, (q, positions) ascending in q, bit i
    of positions set when q divides element i to an odd power; divisors, every
    prime dividing an element.
    """

    elements: tuple[int, ...]
    set_size: int
    kernel_dim: int
    family_count: int
    parity_sum: int
    kernel_basis: tuple[int, ...]
    members: tuple[tuple[int, ...], ...] | None
    columns: tuple[tuple[int, int], ...] | None = field(default=None, repr=False)
    divisors: tuple[int, ...] | None = field(default=None, repr=False)

    def member_masks(self) -> Iterator[int]:
        """Every nonzero kernel vector, by Gray-code walk over the basis."""
        return _gray_span(self.kernel_basis)

    def to_json_dict(self) -> dict:
        return {
            "elements": list(self.elements),
            "set_size": self.set_size,
            "kernel_dim": self.kernel_dim,
            "family_count": self.family_count,
            "parity_sum": self.parity_sum,
            "kernel_basis": [_mask_key(m, self.set_size) for m in self.kernel_basis],
            "members": None if self.members is None else [list(t) for t in self.members],
        }


def _mask_key(mask: int, size: int) -> str:
    """Bit-string form of a position mask, char i = position i."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(size))


def _validated_elements(S: Iterable[int]) -> tuple[int, ...]:
    elements = tuple(int(s) for s in S)
    if not elements:
        raise EmptySet("the element set is empty")
    if any(s < 1 for s in elements):
        raise ValueError("all elements must be >= 1")
    if len(set(elements)) != len(elements):
        raise DuplicateElement(f"duplicate element in {elements}")
    return elements


def _gray_span(basis: Sequence[int]) -> Iterator[int]:
    """Every nonzero XOR combination of the basis vectors, one flip per step."""
    acc = 0
    for g in range(1, 1 << len(basis)):
        acc ^= basis[(g & -g).bit_length() - 1]
        yield acc


def _left_nullspace(rows: list[int]) -> list[int]:
    """Basis of {x : xor of rows selected by x is 0}, as position masks."""
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for i, v in enumerate(rows):
        comb = 1 << i
        while v:
            col = v.bit_length() - 1
            if col not in pivots:
                pivots[col] = (v, comb)
                break
            pv, pc = pivots[col]
            v ^= pv
            comb ^= pc
        if v == 0:
            basis.append(comb)
    return basis


def _members_from_masks(elements: tuple[int, ...], masks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    subsets = [
        tuple(sorted(elements[i] for i in range(len(elements)) if mask >> i & 1))
        for mask in masks
    ]
    return tuple(sorted(subsets))


def square_subset_family(S: Iterable[int]) -> SquareSubsetFamily:
    """Closed-form family of square-product subsets via the GF(2) kernel."""
    elements = _validated_elements(S)
    size = len(elements)

    # one walk of the factorizations: each odd-exponent prime's column of
    # element positions, and every prime divisor
    flips: dict[int, int] = {}
    divisors: set[int] = set()
    for i, s in enumerate(elements):
        for p, e in factorize(s).factors:
            divisors.add(p)
            if e & 1:
                flips[p] = flips.get(p, 0) | 1 << i
    # each element's row: bit j for the j-th column, primes ascending
    columns = tuple(sorted(flips.items()))
    rows = [sum(1 << j for j, (_, pos) in enumerate(columns) if pos >> i & 1) for i in range(size)]

    kernel_basis = _left_nullspace(rows)
    dim = len(kernel_basis)
    family_count = (1 << dim) - 1

    # sum((-1)**|T|) over the family: 2**dim - 1 when every kernel vector has
    # even weight (the all-ones functional vanishes on the kernel), else -1
    ones_vanishes = all(b.bit_count() % 2 == 0 for b in kernel_basis)
    parity_sum = family_count if ones_vanishes else -1

    if dim <= MEMBER_SET_CAP:
        # guard the closed form against derivation error by explicit enumeration
        enum_parity = sum(-1 if m.bit_count() & 1 else 1 for m in _gray_span(kernel_basis))
        if enum_parity != parity_sum:
            raise CheckFailed(
                f"parity closed form {parity_sum} disagrees with enumeration {enum_parity}"
            )

    members = None
    if size <= MEMBER_SET_CAP and dim <= MEMBER_DIM_CAP:
        members = _members_from_masks(elements, _gray_span(kernel_basis))
    return SquareSubsetFamily(
        elements=elements,
        set_size=size,
        kernel_dim=dim,
        family_count=family_count,
        parity_sum=parity_sum,
        kernel_basis=tuple(kernel_basis),
        members=members,
        columns=columns,
        divisors=tuple(sorted(divisors)),
    )


def brute_force_family(S: Iterable[int]) -> SquareSubsetFamily:
    """Oracle form: test every nonempty subset product for squareness.

    Independent of the kernel route end to end: products are multiplied out
    and tested by integer square root, never factored.
    """
    elements = _validated_elements(S)
    size = len(elements)
    if size > BRUTE_FORCE_CAP:
        raise SetTooLarge(f"brute force is capped at {BRUTE_FORCE_CAP} elements, got {size}")

    member_masks = []
    parity_sum = 0
    prod = 1
    mask = 0
    for g in range(1, 1 << size):
        # Gray-code walk keeps one multiply or divide per subset
        flip = (g & -g).bit_length() - 1
        if mask >> flip & 1:
            prod //= elements[flip]
        else:
            prod *= elements[flip]
        mask ^= 1 << flip
        if is_square(prod):
            member_masks.append(mask)
            parity_sum += -1 if mask.bit_count() & 1 else 1

    family_count = len(member_masks)
    dim = (family_count + 1).bit_length() - 1
    if family_count + 1 != 1 << dim:
        raise CheckFailed(f"family count {family_count} is not of the form 2**d - 1")

    basis: list[int] = []
    pivots: dict[int, int] = {}
    for m in member_masks:
        v = m
        while v:
            col = v.bit_length() - 1
            if col not in pivots:
                pivots[col] = v
                basis.append(v)
                break
            v ^= pivots[col]

    members = None
    if size <= MEMBER_SET_CAP and dim <= MEMBER_DIM_CAP:
        members = _members_from_masks(elements, member_masks)
    return SquareSubsetFamily(
        elements=elements,
        set_size=size,
        kernel_dim=dim,
        family_count=family_count,
        parity_sum=parity_sum,
        kernel_basis=tuple(basis),
        members=members,
    )
