"""Closed-form density predictions for sign patterns along PS primes.

Pattern densities are exact dyadic rationals fixed by the square-subset
family: each sign assignment keeps density 2**(kernel_dim - set_size) when
its minus-positions are orthogonal to the kernel, and is structurally
impossible otherwise.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CheckFailed, Overflow, PreconditionViolated, SetTooLarge, XTooSmallWarning
from .kernels import SquareSubsetFamily, _mask_key, square_subset_family
from .psprimes import RationalExponent

THEOREM2_APPLIES = "THEOREM2_APPLIES"
UNDECIDED_SUM_MINUS_ONE = "UNDECIDED_SUM_MINUS_ONE"

PATTERN_SET_CAP = 20


@dataclass(frozen=True, eq=False)
class Prediction:
    """Exact limiting densities plus the parity classification of the set."""

    family: SquareSubsetFamily
    qr_density: Fraction
    nqr_density: Fraction
    pattern_densities: dict[str, Fraction] | None
    condition4: bool
    parity_class: str

    def to_json_dict(self) -> dict:
        return {
            "family": self.family.to_json_dict(),
            "qr_density": str(self.qr_density),
            "nqr_density": str(self.nqr_density),
            "pattern_densities": None
            if self.pattern_densities is None
            else {k: str(v) for k, v in self.pattern_densities.items()},
            "condition4": self.condition4,
            "parity_class": self.parity_class,
        }


def qr_density(S: Iterable[int]) -> Fraction:
    """Limiting fraction of PS primes for which every element is a residue."""
    fam = square_subset_family(S)
    return Fraction(fam.family_count + 1, 1 << fam.set_size)


def nqr_density(S: Iterable[int]) -> Fraction:
    """Limiting fraction of PS primes for which every element is a non-residue."""
    fam = square_subset_family(S)
    return Fraction(1 + fam.parity_sum, 1 << fam.set_size)


def pattern_density(S: Iterable[int], eps: Sequence[int]) -> Fraction:
    """Limiting fraction of PS primes whose sign pattern equals eps.

    Sums the products of the signs over the square-subset family by explicit
    kernel enumeration; the all-plus and all-minus patterns reduce to the
    residue and non-residue densities.
    """
    fam = square_subset_family(S)
    if fam.set_size > PATTERN_SET_CAP:
        raise SetTooLarge(f"pattern densities are capped at {PATTERN_SET_CAP} elements")
    if len(eps) != fam.set_size or any(e not in (1, -1) for e in eps):
        raise ValueError(f"eps must be a vector of +-1 of length {fam.set_size}")
    neg = 0
    for i, e in enumerate(eps):
        if e == -1:
            neg |= 1 << i
    signed = sum(-1 if (m & neg).bit_count() & 1 else 1 for m in fam.member_masks())
    return Fraction(1 + signed, 1 << fam.set_size)


def _pattern_density_map(fam: SquareSubsetFamily) -> dict[str, Fraction] | None:
    """Densities of all 2**set_size patterns, keyed like census histograms.

    Closed form: a pattern survives iff its minus-mask pairs evenly with every
    kernel basis vector; survivors share the density 2**(dim - size).
    """
    if fam.set_size > PATTERN_SET_CAP:
        return None
    alive = Fraction(1, 1 << (fam.set_size - fam.kernel_dim))
    dead = Fraction(0)
    out = {}
    for neg in range(1 << fam.set_size):
        ok = all((neg & b).bit_count() % 2 == 0 for b in fam.kernel_basis)
        out[_mask_key(neg, fam.set_size)] = alive if ok else dead
    return out


def parity_analysis(S: Iterable[int]) -> Prediction:
    """Densities plus the parity classification behind the non-residue theorem."""
    fam = square_subset_family(S)
    qr = Fraction(fam.family_count + 1, 1 << fam.set_size)
    nqr = Fraction(1 + fam.parity_sum, 1 << fam.set_size)
    condition4 = fam.parity_sum >= 0
    if fam.parity_sum < 0:
        parity_class = UNDECIDED_SUM_MINUS_ONE
        if fam.family_count % 2 == 0:
            raise CheckFailed(
                f"parity sum -1 forces an odd family, got {fam.family_count}"
            )
    else:
        parity_class = THEOREM2_APPLIES
    return Prediction(
        family=fam,
        qr_density=qr,
        nqr_density=nqr,
        pattern_densities=_pattern_density_map(fam),
        condition4=condition4,
        parity_class=parity_class,
    )


def dominates(x: int, S: Iterable[int], c: RationalExponent) -> bool:
    """Whether x exceeds prod(S)**gamma, gamma = 1/c: the side condition under
    which the main terms hold over (x, 2x]. Exact: x**c > prod(S) in integers."""
    return x**c.num > math.prod(S) ** c.den


def qr_count_asymptotic(S: Iterable[int], c: RationalExponent, x: int) -> float:
    """Main-term prediction for the all-residue count over the window (x, 2x]."""
    if x > sys.float_info.max:  # exact int-float compare: no power, no conversion
        raise Overflow(f"x is a {x.bit_length()}-bit value; the main term is a float")
    if x < 2:
        raise PreconditionViolated(f"the main term x / log x needs x >= 2, got {x}")
    fam = square_subset_family(S)
    if not dominates(x, fam.elements, c):
        warnings.warn(
            f"x = {x} is below the validity threshold prod(S)**gamma",
            XTooSmallWarning,
            stacklevel=2,
        )
    lead = Fraction(fam.family_count + 1, 1 << fam.set_size) * Fraction(c.den, c.num)
    return float(lead) * x / math.log(x)
