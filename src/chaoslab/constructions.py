"""Constructive witnesses for the shift dynamics on coefficient streams.

The metric layer measures; this module builds.  It produces periodic
streams approximating a target, the enumeration stream whose shift
orbit is dense, points whose orbit visits two prescribed
neighbourhoods, Bernstein sup-norm approximants with certified error,
finite alphabets placing a polynomial inside a shift-invariant family
together with nested filtrations of such alphabets, periodic smooth
functions near a polynomial, and function pairs witnessing sensitive
dependence of differentiation.  Outputs are plain coefficient streams
or small frozen records; every quantitative claim is either certified
here directly (interval enclosures on the stored certificates) or
re-certifiable by the verify suites from the returned structure.
A polynomial, in and out, is its coefficient stream: one with finite
support (coeffspace.FiniteSupport).  Every construction that takes one
reads its kept coefficients through coeffspace.finite_support and raises
DomainError on a stream without finite support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from . import tailmath
from .coeffspace import (
    Alphabet,
    CoeffSeq,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    WordEnumeration,
    _numerators,
    as_preamble_period,
    derivative_sup_bound,
    evaluate,
    finite_support,
    same_stream,
    truncate,
    word_start_index,
)
from .errors import CertificationFailure, DomainError, brief
from .intervals import BoundInterval, as_fraction, power
from .metrics import LpSpec, _differences, _taylor, rho_p


def _kept(P: CoeffSeq) -> Tuple[Fraction, ...]:
    """The coefficients of the polynomial P up to its degree."""
    kept = finite_support(P)
    if kept is None:
        raise DomainError("a polynomial is a stream with finite support")
    return kept


def coefficient_alphabet(P: CoeffSeq) -> Alphabet:
    """The value set {0} union {coefficients of P}, zero listed first."""
    vals: List[Fraction] = [Fraction(0)]
    for c in _kept(P):
        if c not in vals:
            vals.append(c)
    return Alphabet(tuple(vals))


# ---------------------------------------------------------------------------
# tail-index selection

def agreement_index(spec: LpSpec, diam: Fraction, gamma: Fraction, eps: Fraction) -> int:
    """Least N with gamma^(1/p) * diam * zeta_N(gamma) certified below eps.

    Streams over an alphabet of diameter diam that agree below index N
    are then within rho_p-distance eps of each other.
    """
    return tailmath.zeta_index(gamma, spec.gamma_pow_inv_p().hi * diam, eps, "gamma^(1/p)*diam*zeta(N)")[0]


def _check_spec_domain(spec: LpSpec, gamma: Fraction):
    if spec.gamma != gamma:
        raise DomainError(f"spec gamma {brief(spec.gamma)} != gamma argument {brief(gamma)}")


# ---------------------------------------------------------------------------
# periodic density and dense orbits


def periodic_approx_in_EF(
    f: CoeffSeq, F: Alphabet, gamma, spec: LpSpec, eps
) -> CoeffSeq:
    """Periodic stream within rho_p-distance eps of f, values in F.

    Takes the smallest N with gamma^(1/p) * diam(F) * zeta(N)
    certified below eps and periodizes f's first N+1 coefficients.
    The output agrees with f through index N, which pins rho_p below
    the same bound; shifting it N+1 times reproduces it exactly.
    """
    gq = as_fraction(gamma)
    epsq = as_fraction(eps)
    _check_spec_domain(spec, gq)
    if epsq <= 0:
        raise DomainError("eps must be positive")
    if not f.in_EF(F):
        raise DomainError("f is not supported on the given alphabet")
    N = agreement_index(spec, F.diameter, gq, epsq)
    return EventuallyPeriodic((), f.prefix(N + 1))


def dense_orbit_point(F: Alphabet) -> WordEnumeration:
    """The stream listing every finite word over F, length-then-lex.

    Every prefix of every F-valued stream occurs somewhere in it, so
    its shift orbit passes arbitrarily close to every point of the
    family; orbit_search finds the time in closed form.
    """
    return WordEnumeration(F)


def orbit_search(
    g: CoeffSeq, target: CoeffSeq, F: Alphabet, gamma, spec: LpSpec, eps
) -> int:
    """Shift count l with rho_p(shift^l(g), target) certified below eps.

    g must be the enumeration stream over F.  The required agreement
    length N+1 comes from the zeta tail bound; the position of the
    target's prefix in the enumeration is arithmetic (block offsets
    plus the word's rank), no scanning.
    """
    gq = as_fraction(gamma)
    epsq = as_fraction(eps)
    _check_spec_domain(spec, gq)
    if epsq <= 0:
        raise DomainError("eps must be positive")
    if not isinstance(g, WordEnumeration) or g.offset != 0:
        raise DomainError("g must be an unshifted dense_orbit_point stream")
    if g.alphabet.values != F.values:
        raise DomainError("g enumerates a different alphabet")
    if not target.in_EF(F):
        raise DomainError("target is not supported on the given alphabet")
    if len(F) == 1:
        return 0
    N = agreement_index(spec, F.diameter, gq, epsq)
    word = target.prefix(N + 1)
    l = word_start_index(F, word)
    if any(g.coeff(l + i) != word[i] for i in range(N + 1)):
        raise CertificationFailure("enumeration index does not reproduce the prefix")
    return l


def transitivity_witness(
    u_center: CoeffSeq,
    v_center: CoeffSeq,
    eps_u,
    eps_v,
    F: Alphabet,
    gamma,
    spec: LpSpec,
) -> Tuple[CoeffSeq, int]:
    """(h, n) with h near u_center and shift^n(h) near v_center.

    h copies u_center through the index pinned by eps_u, then repeats
    v_center's pinned prefix forever; n is where the repetition
    starts.  Both distances are certified by the same agreement-length
    argument as periodic_approx_in_EF.  When the two centers are one
    and the same periodic stream, that stream is its own witness.
    """
    gq = as_fraction(gamma)
    eu = as_fraction(eps_u)
    ev = as_fraction(eps_v)
    _check_spec_domain(spec, gq)
    if eu <= 0 or ev <= 0:
        raise DomainError("tolerances must be positive")
    for s in (u_center, v_center):
        if not s.in_EF(F):
            raise DomainError("centers must be supported on the given alphabet")
    if same_stream(u_center, v_center):
        shape = as_preamble_period(u_center)
        if shape is not None and not shape[0]:
            return u_center, len(shape[1])
    if F.diameter == 0:
        raise DomainError("alphabet needs two distinct values for distinct centers")
    n_u = agreement_index(spec, F.diameter, gq, eu)
    n_v = agreement_index(spec, F.diameter, gq, ev)
    h = EventuallyPeriodic(u_center.prefix(n_u + 1), v_center.prefix(n_v + 1))
    return h, n_u + 1


# ---------------------------------------------------------------------------
# Bernstein approximation with grid + Lipschitz certification


def _sample_box(value) -> BoundInterval:
    if isinstance(value, BoundInterval):
        return value
    return BoundInterval.exact(as_fraction(value))


def bernstein_approx(
    sample, lipschitz, gamma, eps, max_degree: int = 1024
) -> EventuallyPeriodic:
    """A polynomial within sup-distance eps of `sample` on [0, gamma].

    `sample` maps a Fraction in [0, gamma] to a value or BoundInterval;
    `lipschitz` bounds its variation.  Uses Bernstein averages of the
    sampled node values, doubling the degree until a grid check closes:
    on a grid fine enough that between-node wiggle of sample and
    candidate together stays under eps/4, the measured node distances
    plus that slack must drop below eps.  The candidate's own Lipschitz
    bound is exact from its node differences, so the certificate does
    not lean on the Bernstein theory at all.
    """
    gq = as_fraction(gamma)
    epsq = as_fraction(eps)
    lq = as_fraction(lipschitz)
    if gq <= 0:
        raise DomainError("gamma must be positive")
    if epsq <= 0:
        raise DomainError("eps must be positive")
    if lq < 0:
        raise DomainError("a Lipschitz bound cannot be negative")
    node_cache: dict = {}

    def sampled(x: Fraction) -> BoundInterval:
        got = node_cache.get(x)
        if got is None:
            got = node_cache[x] = _sample_box(sample(x))
        return got

    degree = 1
    while degree <= max_degree:
        nodes = [gq * k / degree for k in range(degree + 1)]
        nums, den = _numerators([sampled(x).mid for x in nodes])
        rows = _differences(nums, degree)
        lip_p = Fraction(max(map(abs, rows[1])) * degree, den) / gq
        # sum_k v_k C(n,k) t^k (1-t)^(n-k), t = x/gamma, whose power basis
        # in t is the table's first column times C(n, j), as its stream
        cand = FiniteSupport([Fraction(c * math.factorial(j), den) / gq**j
                              for j, c in enumerate(_taylor(rows, 0, 0))])
        wiggle = lq + lip_p
        if wiggle == 0:
            m = 1
        else:
            m = max(1, math.ceil(2 * wiggle * gq / epsq))
        slack = wiggle * gq / (2 * m)
        worst = Fraction(0)
        for i in _coarse_to_fine(m):
            x = gq * i / m
            diff = sampled(x) - evaluate(SeriesFn(cand, gq), x)
            worst = max(worst, abs(diff).hi)
            if worst + slack >= epsq:
                break
        if worst + slack < epsq:
            return cand
        degree *= 2
    raise CertificationFailure(
        f"no Bernstein candidate up to degree {max_degree} certifies below {brief(epsq)}"
    )


def _coarse_to_fine(m: int) -> Iterator[int]:
    """Indices 0..m, each once: both ends, then the points each halving of the stride adds.

    A failing candidate is then refuted after a few points spread over
    the whole interval, not only once a left-to-right walk reaches the
    region where it misses.
    """
    yield 0
    yield m
    half = 1 << (m.bit_length() - 1)
    while half:
        yield from range(half, m, 2 * half)
        half //= 2


# ---------------------------------------------------------------------------
# finite-alphabet approximation and filtration


def ensure_two_coeff_values(P: CoeffSeq, eps) -> CoeffSeq:
    """P itself, or P plus a small constant when its value set is bare.

    The alphabet of a polynomial always contains 0; only the zero
    polynomial has nothing else.  In that case add eps/4, keeping the
    sup-norm perturbation strictly under eps/2 while forcing a second
    alphabet value.
    """
    epsq = as_fraction(eps)
    if epsq <= 0:
        raise DomainError("eps must be positive")
    if len(coefficient_alphabet(P)) >= 2:
        return P
    return FiniteSupport((epsq / 4,))


def ef_approximation(
    f_poly: CoeffSeq, gamma, spec: LpSpec, eps
) -> Tuple[Alphabet, EventuallyPeriodic]:
    """A finite alphabet F and a member of its family representing f_poly.

    The member is f_poly's own coefficient stream (after the two-value
    augmentation when f_poly is zero), so its rho_p distance from
    f_poly is zero, or at most eps/2 in the augmented case.  Callers
    with a non-polynomial target run bernstein_approx first and split
    their budget.
    """
    gq = as_fraction(gamma)
    _check_spec_domain(spec, gq)
    budget = as_fraction(eps)
    # ensure_two_coeff_values budgets in sup norm; convert to an L^p
    # budget so the augmented member still lands within eps of f_poly
    # when gamma^(1/p) > 1.
    scale = spec.gamma_pow_inv_p().hi
    if scale > 1:
        budget = budget / scale
    fixed = ensure_two_coeff_values(f_poly, budget)
    return coefficient_alphabet(fixed), fixed


@dataclass(frozen=True)
class FiltrationStep:
    index: int
    alphabet: Alphabet
    member: EventuallyPeriodic  # finite support: period (0)


def filtration(f_polys: Sequence[CoeffSeq]) -> Tuple[FiltrationStep, ...]:
    """Nested alphabets from a sequence of sharpening approximants.

    f_polys[k-1] is expected to sit within 1/k of the common target
    (the caller certifies that); step k's alphabet is the union of all
    augmented value sets so far, so the families only grow, and the
    stored member realizes the 1/k distance inside every later family
    as well.
    """
    steps: List[FiltrationStep] = []
    current: Optional[Alphabet] = None
    for k, poly in enumerate(f_polys, start=1):
        fixed = ensure_two_coeff_values(poly, Fraction(1, k))
        fresh = coefficient_alphabet(fixed)
        current = fresh if current is None else current.union(fresh.values)
        steps.append(FiltrationStep(k, current, fixed))
    return tuple(steps)


# ---------------------------------------------------------------------------
# periodic smooth functions near a polynomial


def periodic_point_in_cinf(P: CoeffSeq, gamma, spec: LpSpec, eps) -> CoeffSeq:
    """Periodic stream within rho_p-distance eps/2 of the polynomial P.

    Repeats (p_0, ..., p_n, 0, ..., 0) with enough padding zeros: the
    period length is max(deg P, N) + 1 where N is the smallest index
    (at least 1) with zeta(N) certified below gamma^(-1/p) * eps
    / (2 diam).  Agreement with P's stream through the whole first
    period gives the distance bound.
    """
    gq = as_fraction(gamma)
    epsq = as_fraction(eps)
    _check_spec_domain(spec, gq)
    if epsq <= 0:
        raise DomainError("eps must be positive")
    F = coefficient_alphabet(P)
    if len(F) < 2:
        raise DomainError("P needs a second coefficient value; augment it first")
    budget = power(gq, -spec.inv_p) * epsq / (2 * F.diameter)
    N, _ = tailmath.zeta_index(gq, 1, budget.lo, "zeta(N)", start=1)
    kept = _kept(P)
    period = kept + (Fraction(0),) * (max(len(kept), N + 1) - len(kept))
    return EventuallyPeriodic((), period)


# ---------------------------------------------------------------------------
# sensitivity witnesses


@dataclass(frozen=True)
class SensitivityWitness:
    """A nearby function whose n-th derivative has run far away.

    `certificates` holds the two interval facts: sup-distance of the
    pair below eps, sup-distance of the n-th derivatives above beta.
    """

    g: SeriesFn
    n: int
    beta: Fraction
    eps: Fraction
    certificates: Tuple[BoundInterval, BoundInterval]

    def __post_init__(self):
        close, far = self.certificates
        if not close.hi < self.eps:
            raise CertificationFailure(
                f"closeness certificate {close} does not beat eps={self.eps}"
            )
        if not far.lo > self.beta:
            raise CertificationFailure(
                f"separation certificate {far} does not beat beta={self.beta}"
            )


def sensitivity_witness(
    f: SeriesFn, beta, eps, unbounded_derivatives: bool = False
) -> SensitivityWitness:
    """Witness that differentiation is sensitive at f.

    Every representable f has uniformly bounded derivative sups
    (each is at most sup|a_n| * e^gamma), so the construction for that
    case always applies: truncate f to a polynomial prefix, pick the
    tall constant c = max(0, prefix coefficients) + M + beta, and let g
    follow the prefix before switching to the all-c tail.  The tail
    index makes the pair eps-close while the n-th derivative of g,
    which is c e^x, clears beta by at least c(e^gamma - 1).  Both
    certificates are computed enclosures, not the chain of paper
    bounds.  A caller asserting unbounded derivative sups is refused:
    no stream this library can encode produces them.
    """
    if unbounded_derivatives:
        raise DomainError(
            "derivative sups are bounded for every representable stream; "
            "the unbounded regime has no encodable inputs here"
        )
    betaq = as_fraction(beta)
    epsq = as_fraction(eps)
    if betaq <= 0 or epsq <= 0:
        raise DomainError("beta and eps must be positive")
    gq = f.gamma
    big_m = derivative_sup_bound(f)

    # polynomial prefix of f: its support when it has one, else cut
    # where sup|a| * zeta(K) drops under eps/4
    g, h = gq.as_integer_ratio()
    nums, m, rho0_hi = truncate(f.coeffs, FiniteSupport(), lambda sn, sd: tailmath._zeta_cut(
        g, h, sn, sd, epsq.numerator, 4 * epsq.denominator, 1, 1, 0), "sup|a|*zeta(K)")
    P = FiniteSupport([Fraction(c, m) for c in nums])
    if not P.preamble:
        P = FiniteSupport((epsq / 2 - rho0_hi,))

    c = max(Fraction(0), *P.preamble) + big_m + betaq
    F = coefficient_alphabet(P).union((c,))
    budget = epsq / (2 * F.diameter)
    N_prime, _ = tailmath.zeta_index(gq, 1, budget, "zeta(N'+1)", start=1, shift=1)
    n = max(len(P.preamble), N_prime + 1)
    head = P.preamble + (Fraction(0),) * (n - len(P.preamble))
    g_coeffs = EventuallyPeriodic(head, (c,))
    g = SeriesFn(g_coeffs, gq, f.origin)

    sup_spec = LpSpec(math.inf, gq)
    close = rho_p(f, g, sup_spec, tol=epsq / 64)
    f_n = SeriesFn(f.coeffs.shifted(n), gq, f.origin)
    g_n = SeriesFn(g_coeffs.shifted(n), gq, f.origin)
    far = rho_p(f_n, g_n, sup_spec, tol=min(betaq, epsq) / 64)
    return SensitivityWitness(g, n, betaq, epsq, (close, far))
