"""Certified enclosures for the factorial tail sequences.

The whole library leans on four families of series, all built from
gamma**i / i! terms on a window [0, gamma]:

    eta_k          = sum_{i >= k} 1/i!
    zeta_k(gamma)  = sum_{i >= k} gamma^i/i!
    xi_k(gamma)    = gamma^k/k! - zeta_{k+1}(gamma)
    alpha_k        = 1/k! - eta_{k+1}  (xi_k at gamma = 1)

Partial sums are exact rationals.  The discarded tail of zeta is bounded
by the geometric majorant

    sum_{i > K} gamma^i/i!  <  gamma^(K+1)/(K+1)! * (K+2)/(K+2-gamma)

valid whenever K + 2 > gamma (the term ratio gamma/(i+1) is at most
gamma/(K+2) past the cutoff), with eta the gamma = 1 case.  So every
enclosure here is a pair of rationals sandwiching the true value, and
widening the cutoff only ever shrinks the interval.

xi_k changes sign: it is negative for small k when gamma is large and
positive from a computable threshold on.  compute_n_gamma returns a
certified index past which xi is positive and nonincreasing;
compute_m_gamma returns the index from which an L1 distance below
xi_{k+1} forces coefficient agreement through k.  Both follow the
constructive recipes of the underlying inequalities and use only
certified comparisons, so the returned thresholds are always valid, if
occasionally one step conservative.

Every tail enclosure comes from one cache, _tail_sum, keyed by the
integers (g, h, k, r, s) of gamma = g/h, the index k and rel_tol = r/s.
Every tail-index search whose bound is a multiple of a zeta or eta tail
is _zeta_cut, cached per integer key (zeta_index at rationals): it skips
every index whose leading term alone fails, then makes one cached lookup
and one integer cross-multiplication per index tried.  least_index is
left to it and to the searches that are not zeta tails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Tuple

from .errors import DomainError, InfeasibleTolerance, ToleranceUnreachable, brief
from .intervals import BoundInterval, as_fraction

DEFAULT_REL_TOL = Fraction(1, 10**15)

MAX_TAIL_INDEX = 10_000


def least_index(holds: Callable[[int], bool], start: int, what: str, step: int = 1,
                below=None) -> int:
    """Least n in start, start + step, ... up to MAX_TAIL_INDEX with holds(n).

    Index selection is uniform throughout the library: the smallest
    index whose certified tail bound (.hi of the enclosure) drops
    strictly below the requested tolerance; every bound that is a
    multiple of a zeta or eta tail is searched by _zeta_cut, which runs
    this loop from its first index worth testing.  That makes
    every bound sound at the cost of an occasional extra term.  Raises
    InfeasibleTolerance when no index up to the cap qualifies, carrying
    `what`, the rational `below` it had to clear (None when not given)
    and the cap as attributes; the message names the same and is built
    only then.
    """
    for n in range(start, MAX_TAIL_INDEX + 1, step):
        if holds(n):
            return n
    raise index_cap(what, below)


def index_cap(what: str, below=None) -> InfeasibleTolerance:
    """least_index's failure for `what` and `below` at the cap in force."""
    bound = "" if below is None else f" below {brief(below)}"
    return InfeasibleTolerance(f"no index up to {MAX_TAIL_INDEX} certifies {what}{bound}",
                               what=what, budget=below, cap=MAX_TAIL_INDEX)


@lru_cache(maxsize=4096)
def _tail_sum(g: int, h: int, k: int, r: int, s: int) -> BoundInterval:
    """Enclosure of sum_{i >= k} gamma^i / i! for gamma = g/h > 0, k >= 0,
    at rel_tol = r/s; both rationals in lowest terms, h, s > 0.  Keyed by
    integers, which hash far faster than Fractions."""
    if g <= 0:
        raise DomainError(f"gamma must be positive, got {brief(Fraction(g, h))}")
    if k < 0:
        raise DomainError(f"tail index must be nonnegative, got {k}")
    if r <= 0:
        raise DomainError("relative tolerance must be positive")
    # Cutoff floor: at least ten extra terms, and far enough out that the
    # geometric majorant's ratio gamma/(K+2) is below 1/2 (K > 2 gamma);
    # one past the term cap is refused before anything is summed.
    if -(-2 * g // h) - k > MAX_TAIL_INDEX:
        raise ToleranceUnreachable(
            f"tail sum at gamma={brief(Fraction(g, h))} needs over {MAX_TAIL_INDEX} terms", kind="term-cap")
    cutoff = max(k + 10, 2 * g // h + 1)
    # the partial sum through index i is num / (h^i i!)
    gi = num = g**k
    i = k
    while True:
        while i < cutoff:
            i += 1
            gi *= g
            num = num * h * i + gi
        # the majorant gamma^(K+1)/(K+1)! * (K+2)/(K+2-gamma), K = cutoff,
        # is top / (h^K (K+1)! gap)
        top = gi * g * (i + 2)
        gap = (i + 2) * h - g
        if s * top <= r * num * (i + 1) * gap:  # majorant <= rel_tol * partial
            den = h**i * math.factorial(i)
            return BoundInterval(Fraction(num, den),
                                 Fraction(num * (i + 1) * gap + top, den * (i + 1) * gap))
        if cutoff - k > MAX_TAIL_INDEX:
            raise ToleranceUnreachable(
                f"tail sum at gamma={brief(Fraction(g, h))}, k={k} did not reach "
                f"rel_tol={brief(Fraction(r, s))}", kind="rel-tol")
        cutoff += 8


def _tail(gamma, k: int, rel_tol) -> BoundInterval:
    """_tail_sum at rationals given as anything as_fraction reads."""
    g, t = as_fraction(gamma), as_fraction(rel_tol)
    return _tail_sum(g.numerator, g.denominator, int(k), t.numerator, t.denominator)


def eta(k: int, rel_tol=DEFAULT_REL_TOL) -> BoundInterval:
    """Certified enclosure of eta_k = sum_{i >= k} 1/i!."""
    t = as_fraction(rel_tol)
    return _tail_sum(1, 1, int(k), t.numerator, t.denominator)


def zeta(gamma, k: int, rel_tol=DEFAULT_REL_TOL) -> BoundInterval:
    """Certified enclosure of zeta_k(gamma) = sum_{i >= k} gamma^i/i!."""
    return _tail(gamma, k, rel_tol)


def zeta_index(gamma, scale, budget, what: str, start: int = 0, step: int = 1,
               shift: int = 0) -> Tuple[int, Fraction]:
    """_zeta_cut at rationals as_fraction reads (eta_k is zeta_k(1)); past
    the cap it raises InfeasibleTolerance naming `what` and the budget."""
    gamma, scale, budget = as_fraction(gamma), as_fraction(scale), as_fraction(budget)
    try:
        return _zeta_cut(*gamma.as_integer_ratio(), *scale.as_integer_ratio(),
                         *budget.as_integer_ratio(), start, step, shift)
    except InfeasibleTolerance:
        raise index_cap(what, budget) from None


@lru_cache(maxsize=1024)
def _zeta_cut(g: int, h: int, scale_num: int, scale_den: int, budget_num: int, budget_den: int,
              start: int, step: int, shift: int) -> Tuple[int, Fraction]:
    """(n, tail): n the least of start, start + step, ... with scale *
    zeta_(n+shift)(gamma).hi < budget, tail that bound; gamma = g/h in
    lowest terms, scale >= 0 and budget > 0 need not be.  A search past
    the cap raises, caching nothing; callers re-raise it by index_cap.

    zeta_m > gamma^m/m! and zeta_m falls with m, so no n with n + shift
    <= M passes when scale * gamma^M/M! >= budget.  The term falls from
    floor(gamma) on, so a running term from there finds the last such M
    and the search starts past it, at the same least index; unless
    _tail_sum's term cap refuses the first index, which then stands.
    """
    left, right = scale_num * budget_den, budget_num * scale_den
    r, s = DEFAULT_REL_TOL.numerator, DEFAULT_REL_TOL.denominator
    if -(-2 * g // h) - (start + shift) <= MAX_TAIL_INDEX:
        m = max(start + shift, g // h)
        num, den = left * g**m, right * h**m * math.factorial(m)  # the term fails the budget: num >= den
        if num >= den:
            while num >= den and m - shift <= MAX_TAIL_INDEX:
                m += 1
                num *= g
                den *= h * m
            start -= (start + shift - m) // step * step  # the first n with n + shift >= m

    def holds(n: int) -> bool:
        hi = _tail_sum(g, h, n + shift, r, s).hi
        return left * hi.numerator < right * hi.denominator

    n = least_index(holds, start, "a zeta tail", step, below=Fraction(budget_num, budget_den))
    return n, Fraction(scale_num, scale_den) * _tail_sum(g, h, n + shift, r, s).hi


def zeta_table(gamma, k_last: int, rel_tol=DEFAULT_REL_TOL) -> List[BoundInterval]:
    """Certified enclosures of zeta_0(gamma), ..., zeta_(k_last)(gamma).

    One tail sum encloses zeta_(k_last); each row below it adds the exact
    term, zeta_k = gamma^k/k! + zeta_(k+1), so every row keeps that one
    enclosure's absolute width, at most rel_tol of every row.
    """
    g = as_fraction(gamma)
    rows = [_tail(g, k_last, rel_tol)]
    for k in range(int(k_last) - 1, -1, -1):
        term = g**k / math.factorial(k)
        rows.append(BoundInterval(term + rows[-1].lo, term + rows[-1].hi))
    return rows[::-1]


def exp_enclosure(gamma, rel_tol=DEFAULT_REL_TOL) -> BoundInterval:
    """Certified enclosure of e**gamma (the k = 0 tail)."""
    return _tail(gamma, 0, rel_tol)


def xi(gamma, k: int, rel_tol=DEFAULT_REL_TOL) -> BoundInterval:
    """Certified enclosure of xi_k = gamma^k/k! - zeta_{k+1}(gamma).

    May well be negative: for gamma = 5 the first few indices are, and
    the sign turnover is exactly what compute_n_gamma locates.
    """
    g = as_fraction(gamma)
    k = int(k)
    if k < 0:
        raise DomainError("xi index must be nonnegative")
    head = g**k / math.factorial(k)
    tail = _tail(g, k + 1, rel_tol)
    return BoundInterval(head - tail.hi, head - tail.lo)


def alpha(k: int, rel_tol=DEFAULT_REL_TOL) -> BoundInterval:
    """Certified enclosure of alpha_k = 1/k! - eta_{k+1}, which is xi_k(1)."""
    return xi(1, k, rel_tol)


def xi_decrement(gamma, k: int) -> Fraction:
    """Exact value of xi_k - xi_{k+1} = (gamma^k/k!) * (1 - 2*gamma/(k+1)).

    The telescoped closed form: both zeta tails cancel except for one
    term, leaving a pure rational.  Nonnegative iff k + 1 >= 2*gamma.
    """
    g = as_fraction(gamma)
    k = int(k)
    return (g**k / math.factorial(k)) * (1 - 2 * g / (k + 1))


def _threshold_index(gamma: Fraction) -> int:
    """max(n1 + 1, n2 + 1, n3) = max(1, floor(2g)), in closed form.

    n1 + 1 = max(1, floor(g)), n1 least with n1 + 2 > g (the zeta tail
    majorant is valid past n1).  n3 = max(0, floor(2g)), n3 least with
    n3 > 2g - 1 (xi is nonincreasing from n3).  n2 is least with the
    quadratic k^2 + (3 - 2g)k + (2 - 3g) positive for all k > n2 (tail
    below head term); its larger root (2g - 3 + sqrt(4g^2 + 1))/2 lies
    below 2g - 1, so n2 + 1 <= max(1, floor(2g)).
    """
    if gamma <= 0:
        raise DomainError(f"gamma must be positive, got {brief(gamma)}")
    return max(1, math.floor(2 * gamma))


def compute_n_gamma(gamma) -> int:
    """Certified index N with xi_k(gamma) > 0 and nonincreasing for k >= N."""
    return _threshold_index(as_fraction(gamma))


@lru_cache(maxsize=64)
def _separation_scan(g: int, h: int, r: int, s: int):
    """(n0, delta_lo, n_gamma) at gamma = g/h and rel_tol = r/s, each in
    lowest terms: compute_m_gamma's scan, keyed by integers."""
    gamma, rel_tol = Fraction(g, h), Fraction(r, s)
    n_gamma = _threshold_index(gamma)
    # Certified lower bound for the minimal separation delta: for each
    # prefix length m below the threshold, a disagreement at index m
    # forces an L1 distance of at least alpha_{m+1} (gamma > 1) or
    # gamma^(m+1) * alpha_{m+1} (gamma <= 1).  n_gamma is at least 1.
    delta_lo = min((1 if gamma > 1 else gamma ** (m + 1)) * alpha(m + 1, rel_tol).lo
                   for m in range(n_gamma))
    if delta_lo <= 0:
        raise ToleranceUnreachable(
            f"certified separation bound at gamma={brief(gamma)} is not positive; "
            "tighten rel_tol", kind="sign-unresolved")

    def acceptable(j: int) -> bool:
        return xi(gamma, j, rel_tol).hi <= delta_lo

    # Least j >= n_gamma whose xi enclosure sits below delta; past the
    # threshold xi is exactly nonincreasing, so acceptance propagates to
    # every larger index.
    j = least_index(acceptable, max(1, n_gamma), f"xi below delta at gamma={brief(gamma)}")
    # Indices below the threshold are not monotone, so extend downward
    # only through certified-contiguous acceptances.
    while j - 1 >= 1 and acceptable(j - 1):
        j -= 1
    n0 = max(0, j - 2)
    return n0, delta_lo, n_gamma


def _scan(gamma, rel_tol):
    """_separation_scan at rationals given as anything as_fraction reads."""
    g, t = as_fraction(gamma), as_fraction(rel_tol)
    return _separation_scan(g.numerator, g.denominator, t.numerator, t.denominator)


def compute_m_gamma(gamma, rel_tol=DEFAULT_REL_TOL) -> int:
    """Certified index M: L1 distance below xi_{k+1} with k >= M forces
    coefficient agreement through index k.

    Returns max(N0 + 1, n_gamma) where N0 is the least certified index
    such that xi_{n+1} <= delta for all n > N0, with delta the minimal
    certified separation produced by a disagreement below the threshold.
    """
    n0, _, n_gamma = _scan(gamma, rel_tol)
    return max(n0 + 1, n_gamma)


def separation_lower_bound(gamma, rel_tol=DEFAULT_REL_TOL) -> Fraction:
    """The certified delta used by compute_m_gamma (exposed for audits)."""
    _, delta_lo, _ = _scan(gamma, rel_tol)
    return delta_lo
