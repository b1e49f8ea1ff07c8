"""Asymptotic nonbasis families over Z and N0, with windowed verification.

Build the {s} u {h*x + t : x in X} families, decide membership in their
h-fold sumsets with certificates, and check every structural claim
against a brute-force bitset sumset oracle on finite windows.
"""

from .errors import (
    BNotOutside,
    DomainConstraint,
    GcdViolation,
    MalformedSpec,
    NonbasisError,
    TargetExceedsSafeRange,
    UncertifiableTail,
    WindowTooLarge,
)
from .families import (
    DOMAIN_N0,
    DOMAIN_Z,
    Family,
    Params,
    build_full,
    build_gapped,
    gcd_case,
)
from .gapset import (
    CustomPrefixTail,
    Factorial,
    GapGenerator,
    Geometric,
    Triangular,
    elements_in,
    gap_radius,
    is_member,
)
from .grammar import format_generator, format_spec, parse_generator, parse_spec
from .intset import (
    DenseSet,
    Diff,
    Empty,
    GapTail,
    ModClass,
    ModClassNonneg,
    SetSpec,
    ShiftScale,
    Singleton,
    Union,
    Window,
    materialize,
    stride,
    union_of,
)
from .sumset import (
    SumsetResult,
    hfold_exact_bounded_below,
    hfold_truncated,
    multiplicity_pair,
    pairwise_sum,
    witness,
)
from .verify import (
    Catalog,
    InSumset,
    OutExceptional,
    OutShiftedY,
    Unknown,
    Verdict,
    YPrimeFilter,
    augment_check,
    classify,
    complement_catalog,
    decide_kX,
    escape_check,
    lemma_basis_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
