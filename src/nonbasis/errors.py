"""Exception types shared across the package."""


class NonbasisError(Exception):
    """Base class for all library errors."""


class WindowTooLarge(NonbasisError):
    """Requested window width exceeds the configured cap."""


class MalformedSpec(NonbasisError):
    """Set description violates a constructor invariant or fails to parse."""


class UncertifiableTail(NonbasisError):
    """Gap sequence has no closed-form gap bound, so no radius can be certified."""


class TargetExceedsSafeRange(NonbasisError):
    """Requested sumset targets fall outside the provably exact range."""


class GcdViolation(NonbasisError):
    """gcd(h, s - t) does not satisfy the hypothesis the operation needs."""


class DomainConstraint(NonbasisError):
    """Parameters are incompatible with the chosen domain."""


class BNotOutside(NonbasisError):
    """Augmentation candidate already belongs to the set."""


class OracleDisagreement(NonbasisError):
    """A certified membership verdict contradicts the sumset oracle."""
