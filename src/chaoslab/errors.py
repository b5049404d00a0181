"""Exception taxonomy shared across the library.

The CLI maps these onto process exit codes, so constructors and metric
routines raise the most specific class that applies instead of bare
ValueError wherever a caller could reasonably branch on the failure.
"""

import math
from fractions import Fraction


class ChaosLabError(Exception):
    """Base class for all library-specific failures."""


class DomainError(ChaosLabError):
    """Input outside the mathematical domain of an operation.

    Examples: a sequence with coefficients outside {0, 1} passed to the
    binary-sequence metric, an evaluation point outside [origin,
    origin + gamma], or a metric called on functions with mismatched
    domains.
    """


class ToleranceUnreachable(ChaosLabError):
    """A certified enclosure cannot be tightened to the requested width
    within the configured refinement budget.

    kind names the limit met, so a caller can branch on it without
    reading the message.  The L^p kernels set one of
    "rounding-floor" (the double bookkeeping cannot resolve the share),
    "panel-cap" (the refinement ran out of panels),
    "degree-cap" (an integer power past its degree budget),
    "root-bits" (the L^p root needs more bits than its budget),
    "root-width" (the root stays wider than its tolerance) and
    "double-range" (a value past the doubles); the factorial tails set
    "term-cap" (gamma needs more terms than tailmath.MAX_TAIL_INDEX),
    "rel-tol" (the cap is met before the relative tolerance) and
    "sign-unresolved" (a bound that must be positive is not certified
    positive at the tolerance used); tailmath.least_index sets
    "index-cap" (InfeasibleTolerance).  Every raise in the library names
    one; None is left only to callers who construct the error.
    """

    def __init__(self, message: str = "", kind=None):
        super().__init__(message)
        self.kind = kind


class InfeasibleTolerance(ToleranceUnreachable):
    """No index up to the search cap (tailmath.MAX_TAIL_INDEX) satisfies
    the requested tolerance: kind "index-cap".

    what names the quantity searched, budget is the rational it had to
    drop below (None when the search names none) and cap is the cap in
    force, so a caller can branch on them without reading the message.
    """

    def __init__(self, message: str = "", kind="index-cap", what=None, budget=None, cap=None):
        super().__init__(message, kind)
        self.what = what
        self.budget = budget
        self.cap = cap


class CertificationFailure(ChaosLabError):
    """A constructed object failed its own certified acceptance check.

    This is a bug trap: the constructions are theorem-backed, so seeing
    this means an enclosure was too loose or an input violated an
    undeclared hypothesis.
    """


class ConfigError(ChaosLabError):
    """Malformed user-facing configuration (CLI flags, JSON payloads)."""


def brief(q) -> str:
    """A rational for an error message: exact when short, else about four
    significant digits.  str() of an integer past 4,300 digits raises
    ValueError, so a message never prints a caller's rational with it."""
    q = Fraction(q)
    if max(q.numerator.bit_length(), q.denominator.bit_length()) <= 256:
        return str(q)
    e = math.log10(abs(q.numerator)) - math.log10(q.denominator)
    k = math.floor(e)
    m = round(10 ** (e - k), 3)
    if m >= 10:
        m, k = m / 10, k + 1
    return f"~{'-' if q < 0 else ''}{m:.3f}e{k}"
