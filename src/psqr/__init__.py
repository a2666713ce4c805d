"""Quadratic-residue sign patterns along Piatetski-Shapiro primes.

Closed-form square-subset families and density predictions, exact [n^c]
prime streams, empirical pattern censuses, and a numerical workbench for
the sawtooth/Vaughan exponential-sum machinery.
"""

__version__ = "0.1.0"

from .census import (
    CensusConfig,
    CensusReport,
    convergence_table,
    prime_file_blocks,
    run_census,
    write_prime_file,
)
from .errors import (
    BadPrimeFile,
    BasisIncomplete,
    CheckFailed,
    DuplicateElement,
    EmptySet,
    EvenModulus,
    NotPrime,
    Overflow,
    PreconditionViolated,
    PsqrError,
    ResourceLimit,
    SetTooLarge,
    UsageError,
    WindowTooSmall,
    XTooSmallWarning,
)
from .expsums import (
    ExpSumReport,
    L1,
    L2,
    TruncatedExpansion,
    bilinear_check,
    build_expansion,
    cancellation_scan,
    default_truncation,
    majorant_check,
    psi,
    vaughan,
)
from .kernels import (
    ExponentVector,
    Factorization,
    SquareSubsetFamily,
    brute_force_family,
    exponent_vector,
    factorize,
    is_square,
    square_subset_family,
)
from .predict import (
    Prediction,
    THEOREM2_APPLIES,
    UNDECIDED_SUM_MINUS_ONE,
    nqr_density,
    parity_analysis,
    pattern_density,
    qr_count_asymptotic,
    qr_density,
)
from .psprimes import (
    PsPrimeRange,
    RationalExponent,
    floor_pow,
    integer_nth_root,
    is_prime,
    is_ps_prime,
    ps_primes_in,
)
from .residues import SignPattern, jacobi, legendre_euler, pattern_at
