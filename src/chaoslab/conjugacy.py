"""Differentiation as the coefficient shift, made literal.

A {0,1}-valued coefficient stream a embeds into the series space as
f(x) = sum_n a_n x^n / n!; differentiating f drops a_0 and relabels,
so the derivative's stream is exactly shift(a).  This module houses
that embedding (`iota`), the structural check that shift-then-embed
equals embed-then-differentiate, the matching isometry between the
factorial-weighted sequence metric and d_E, and the translation
operators that relabel the expansion origin without touching a single
coefficient.  None of these checks can fail for correct code; they are
kept as executable evidence and exercised over randomized inputs by
the verify suites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from . import tailmath
from .coeffspace import (
    BINARY,
    CoeffSeq,
    EventuallyPeriodic,
    SeriesFn,
    as_preamble_period,
    same_stream,
)
from .errors import DomainError
from .intervals import BoundInterval, as_fraction
from .metrics import (
    FACTORIAL_WEIGHTS,
    DEFAULT_TOL,
    LpSpec,
    d_E,
    rho_p,
    weighted_product_metric,
)


def iota(a: CoeffSeq, gamma) -> SeriesFn:
    """Embed a {0,1} coefficient stream as a series function on [0, gamma].

    The inverse direction is trivial (read .coeffs back off), which is
    what makes the embedding a bijection onto its image.
    """
    if not a.in_EF(BINARY):
        raise DomainError(f"iota needs {{0,1}} coefficients, got values {a.value_set()}")
    return SeriesFn(a, as_fraction(gamma))


def coefficients(f: SeriesFn) -> CoeffSeq:
    """Inverse of iota: the coefficient stream of a series function."""
    return f.coeffs


@dataclass(frozen=True)
class CommutingSquareReport:
    gamma: Fraction
    window: int
    mismatches: Tuple[int, ...]
    tail_matches: bool
    isometry_d_E: Optional[BoundInterval] = None
    isometry_weighted: Optional[BoundInterval] = None

    @property
    def isometry_overlaps(self) -> Optional[bool]:
        if self.isometry_d_E is None:
            return None
        return self.isometry_d_E.intersects(self.isometry_weighted)

    @property
    def passed(self) -> bool:
        ok = not self.mismatches and self.tail_matches
        if self.isometry_d_E is not None:
            ok = ok and bool(self.isometry_overlaps)
        return ok


def check_commuting_square(
    a: CoeffSeq,
    gamma,
    window: int = 128,
    partner: Optional[CoeffSeq] = None,
    tol=Fraction(1, 10**13),
) -> CommutingSquareReport:
    """Certify shift-then-embed == embed-then-differentiate on `a`.

    Compares the two coefficient streams index by index through
    `window` and structurally beyond it.  When `partner` is given,
    additionally checks that d_E between the embedded functions and the
    factorial-weighted product metric between the raw streams produce
    intersecting enclosures (they measure the same quantity).
    """
    if window < 0:
        raise DomainError(f"window must be at least 0, got {window}")
    gq = as_fraction(gamma)
    via_shift = iota(a.shift(), gq)
    via_deriv = iota(a, gq).derivative()
    lhs, rhs = via_shift.coeffs.prefix(window + 1), via_deriv.coeffs.prefix(window + 1)
    mismatches = () if lhs == rhs else tuple(n for n, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
    tail_matches = same_stream(via_shift.coeffs, via_deriv.coeffs)
    if partner is None:
        return CommutingSquareReport(gq, window, mismatches, tail_matches)
    if not partner.in_EF(BINARY):
        raise DomainError("isometry partner must have {0,1} coefficients")
    de = d_E(a, partner, tol=tol)
    wm = weighted_product_metric(a, partner, FACTORIAL_WEIGHTS, tol=tol)
    return CommutingSquareReport(gq, window, mismatches, tail_matches, de, wm)


def translate(f: SeriesFn, a) -> SeriesFn:
    """Relabel the domain of f from [o, o+gamma] to [o+a, o+a+gamma].

    The translated function sends x to f(x - a); in the stored
    representation that is the same coefficient tuple with the
    expansion origin moved, so the operation is exact and free.
    """
    return replace(f, origin=f.origin + as_fraction(a))


def untranslate(f: SeriesFn, a) -> SeriesFn:
    """Inverse of translate(. , a): relabel the domain back by -a."""
    return replace(f, origin=f.origin - as_fraction(a))


@dataclass(frozen=True)
class TranslationReport:
    offset: Fraction
    rho_before: BoundInterval
    rho_after: BoundInterval
    derivative_commutes: bool

    @property
    def overlaps(self) -> bool:
        return self.rho_before.intersects(self.rho_after)

    @property
    def passed(self) -> bool:
        return self.overlaps and self.derivative_commutes


def check_translation_isometry(
    f: SeriesFn, g: SeriesFn, a, spec: LpSpec, tol=DEFAULT_TOL
) -> TranslationReport:
    """Certify that translating both arguments leaves rho_p unchanged.

    rho_p is computed once on [0, gamma] and once on the relabeled
    domain; the enclosures must intersect (both contain the one true
    value).  Also checks structurally that translation commutes with
    differentiation: both orders produce the same coefficient stream
    at the same origin.
    """
    if f.gamma != g.gamma or f.origin != g.origin:
        raise DomainError("translation check needs a shared domain")
    aq = as_fraction(a)
    tf = translate(f, aq)
    tg = translate(g, aq)
    rho_before = rho_p(f, g, spec, tol=tol)
    rho_after = rho_p(tf, tg, spec, tol=tol)
    commutes = True
    for fn, tfn in ((f, tf), (g, tg)):
        lhs = translate(fn.derivative(), aq)
        rhs = tfn.derivative()
        commutes = commutes and lhs.origin == rhs.origin and same_stream(
            lhs.coeffs, rhs.coeffs
        )
    return TranslationReport(aq, rho_before, rho_after, commutes)


@dataclass(frozen=True)
class NearbyPointReport:
    index: int
    flipped: CoeffSeq
    zeta_bound: BoundInterval
    rho: BoundInterval
    delta: Fraction

    @property
    def passed(self) -> bool:
        return self.rho.hi < self.delta


def nearby_distinct_point(a: CoeffSeq, delta, spec: LpSpec) -> NearbyPointReport:
    """A point of the embedded set within rho_p-distance delta of iota(a).

    Witnesses that iota(a) is not isolated: flip the coefficient at the
    first index n where gamma^(1/p) * zeta_n certifies below delta (two
    streams agreeing before n stay within gamma^(1/p) * zeta_n of each
    other), and certify rho_p directly on the pair.  The flipped stream
    differs from `a` at exactly one index, so it is a distinct point.

    Eventually periodic inputs only; an enumeration stream has no
    finite description once one coefficient is flipped.
    """
    dq = as_fraction(delta)
    if dq <= 0:
        raise DomainError("delta must be positive")
    shape = as_preamble_period(a)
    if shape is None:
        raise DomainError("can only flip an eventually periodic stream")
    if not a.in_EF(BINARY):
        raise DomainError("nearby_distinct_point needs {0,1} coefficients")
    # a zeta tail's .hi never increases with k (a test checks it), so each
    # test keeps holding once it holds: the least k passing both is the larger cut
    n = max(tailmath.zeta_index(spec.gamma, spec.gamma_pow_inv_p().hi, dq, "a flip index", start=1)[0],
            tailmath.zeta_index(spec.gamma, 1, dq, "a flip index", start=1, shift=1)[0])
    z = tailmath.zeta(spec.gamma, n)
    pre, per = shape
    head = list(a.prefix(max(n + 1, len(pre))))
    head[n] = Fraction(1) - head[n]
    offset = (len(head) - len(pre)) % len(per)
    tail = per[offset:] + per[:offset]
    flipped = EventuallyPeriodic(tuple(head), tail)
    rho = rho_p(
        iota(a, spec.gamma),
        iota(flipped, spec.gamma),
        spec,
        tol=min(DEFAULT_TOL, dq / 64),
    )
    return NearbyPointReport(n, flipped, z, rho, dq)
