"""Certified metrics on sequence space and on the series functions.

Four distances appear throughout:

* d_lambda on binary sequences: sum |x_i - y_i| / 2^i.
* d_E on coefficient sequences:  sum |a_n - b_n| / (n+1)!.
* weighted product metrics:      sum w_i |x_i - y_i| / 2^i for weight
  families with a certified tail majorant (the factorial family
  w_i = 2^i/(i+1)! reproduces d_E exactly, which is the isometry the
  conjugacy module checks).
* rho_p on series functions:     the L^p distance on [origin,
  origin + gamma], p in [1, inf].

Everything returns a BoundInterval that provably contains the true
value.  Each distance depends on a and b only through the stream
d = coeffspace.difference(a, b), worked out once per call: its
coefficients, d.sup_abs() and, when d is eventually periodic, its
period (d_lambda sums it in closed form).  When a tail is not
eventually periodic (a WordEnumeration over two or more symbols), d
subtracts coefficients index by index and d.sup_abs() is the bound
sup|a_n| + sup|b_n|; otherwise d.sup_abs() is exact.

Every series cut follows coeffspace.truncate: when a - b has finite
support it keeps that support and the tail is exactly 0; otherwise it
keeps the first n terms, n the least searched index whose tail bound
clears the caller's budget (d_E caches that index per (sup, tol), rho_p
per (sup, gamma, p, tol)).  The bounds on everything from index n on are
sup|a_n - b_n| * eta_{n+1} (d_E), the weight family's majorant, 2^(1-n)
(d_lambda) and, for rho_p, gamma^(1/p) * sup|a_n - b_n| * zeta_n(gamma).

The truncated difference D is the polynomial whose scaled Taylor
coefficients are the kept differences a_n - b_n, passed as that tuple
(its derivative is their shift).  For it:

* p = inf: branch-and-bound for sup|D| on panels of an exact integer
  Bernstein kernel: a panel's largest |coefficient| bounds |D| there,
  its end coefficients are exact values of D, and halving it is integer
  de Casteljau (Garloff 1986; Rouillier & Zimmermann 2004).
* integer p: the same panels integrate D^p exactly, from the integer
  convolution power of their coefficients (the Bernstein-form product;
  Farouki & Rajan 1988).  Even p takes the whole window as one panel,
  with no sign analysis at all.  For odd p, panels whose Bernstein
  coefficients share a sign integrate exactly; the others, which hold
  the roots, contribute [|int D^p|, h * max|b_j|^p] until refined.  A
  root panel whose coefficients change sign once holds one simple root
  (Descartes' rule of signs in Bernstein form), which exact integer signs
  of D bracket between dyadics: D^p integrates exactly on both sides,
  from one antiderivative of D^p over the whole window, and only the
  bracket, about 2^-44 of the panel, keeps width.  Other root panels
  are halved.
* other p: the same Bernstein panels, refined depth first under one
  budget (a kept panel passes the share it did not use on to the next),
  each with one sixth-order Taylor model of |D|^p (Davis & Rabinowitz
  1984).  Where D
  is sign-definite it is expanded about the panel's midpoint, where the
  odd moments vanish; where D is monotone across a root it writes D =
  a_0 + (t - t~) Q about a point t~ near the root, and |t - t~|^p is
  integrated against the degree-5 Taylor polynomial of |Q|^p in
  closed-form moments (product integration carried to order 6).  One
  chain-rule recursion (_chain_rule) turns the exact integer Taylor
  coefficients of D into those of the power, one integer quotient each,
  and bounds its sixth derivative on the panel for a remainder that
  shrinks as h^7 (h^(p+7) across a root).  Every model is intersected
  with the crude range-times-width bound, which is all any other root
  panel takes.  The derivative bounds are read off a panel's
  coefficients and their differences in outward-rounded doubles, and
  each pointwise power comes from intervals.PowerFn as the tightest
  doubles around one integer root of the exact ratio of integers it
  stands for (mpmath only for exponent terms past 32), so no
  uncertified rounding enters.  The double bookkeeping floors the
  reachable tolerance near 1e-14 of the integral.

Both integrals run on D / 2^e, e = floor(log2 of D's largest Bernstein
coefficient), so their doubles never leave the range at any scale of the
coefficients, and the root's tolerance is met in at most two passes
(_norm_of_poly).
"""

from __future__ import annotations

import contextlib
import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import tailmath
from .coeffspace import (
    BINARY,
    CoeffSeq,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    _unrolled,
    difference,
    finite_support,
    truncate,
)
from .errors import DomainError, ToleranceUnreachable, brief
from .intervals import DEFAULT_PRECISION_BITS, BoundInterval, PowerFn, as_fraction, power

DEFAULT_TOL = Fraction(1, 10**9)

_MAX_PANELS = 200_000
_MAX_ROOT_BITS = 65_536
_MAX_POWER_DEGREE = 2048


# ---------------------------------------------------------------------------
# Lp specification


@dataclass(frozen=True)
class LpSpec:
    """Which L^p norm, on a window of which length."""

    p: Union[Fraction, float]
    gamma: Fraction

    def __post_init__(self):
        if isinstance(self.p, float) and math.isinf(self.p) and self.p > 0:
            object.__setattr__(self, "p", math.inf)
        else:
            p = as_fraction(self.p)
            if p < 1:
                raise DomainError(f"p must be at least 1, got {p}")
            object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        if self.gamma <= 0:
            raise DomainError("gamma must be positive")

    @property
    def is_sup(self) -> bool:
        return self.p == math.inf

    @property
    def inv_p(self) -> Fraction:
        """1/p, with 1/inf = 0."""
        return Fraction(0) if self.is_sup else 1 / self.p

    def gamma_pow_inv_p(self) -> BoundInterval:
        """Certified gamma**(1/p); exact when 1/p is an integer."""
        return _gamma_pow(self.gamma, self.inv_p)


@lru_cache(maxsize=256)
def _gamma_pow(gamma: Fraction, inv_p: Fraction) -> BoundInterval:
    """power(gamma, inv_p), once per pair: callers build a new LpSpec per
    call, and BoundInterval is immutable, so the cached value is shared."""
    return power(gamma, inv_p)


# ---------------------------------------------------------------------------
# sequence-space metrics


def _require_binary(s: CoeffSeq, name: str) -> None:
    if not s.in_EF(BINARY):
        raise DomainError(f"{name} must have coefficients in {{0, 1}}")


def _geometric_block_sum(
    pre: Sequence[Fraction], per: Sequence[Fraction]
) -> Fraction:
    """Exact sum of c_i / 2^i for an eventually periodic sequence c."""
    total = Fraction(0)
    for i, c in enumerate(pre):
        total += Fraction(c, 2**i)
    s = len(pre)
    q = len(per)
    block = sum(Fraction(c, 2**r) for r, c in enumerate(per))
    total += Fraction(block, 2**s) / (1 - Fraction(1, 2**q))
    return total


def d_lambda(x: CoeffSeq, y: CoeffSeq, tol=Fraction(1, 10**12)) -> BoundInterval:
    """Certified d_lambda(x, y) = sum |x_i - y_i| / 2^i on binary sequences.

    Exact (width zero) whenever both arguments have eventually periodic
    tails; otherwise an exact partial sum plus the geometric tail bound
    2^(1-K).
    """
    _require_binary(x, "x")
    _require_binary(y, "y")
    tolq = as_fraction(tol)
    if tolq <= 0:
        raise DomainError("tolerance must be positive")
    d = difference(x, y)
    if isinstance(d, EventuallyPeriodic):
        return BoundInterval.exact(
            _geometric_block_sum([abs(c) for c in d.preamble], [abs(c) for c in d.period])
        )
    kept, tail = truncate(d, lambda n: Fraction(2, 2**n), tolq, "the d_lambda tail", 4, 4)
    partial = sum(Fraction(abs(c), 2**i) for i, c in enumerate(kept))
    return BoundInterval(partial, partial + tail)


@lru_cache(maxsize=1024)
def _d_E_cut(sup_num: int, sup_den: int, tol_num: int, tol_den: int) -> Tuple[int, int, int]:
    """(n, tail numerator, tail denominator): d_E's cut of a difference
    with sup|a_n - b_n| = sup_num/sup_den that is not eventually zero, at
    tol = tol_num/tol_den.  n is the least of 9, 17, ... with
    sup * eta_(n+1) below tol/2, and the tail is that bound.  Keyed by
    integers, which hash far faster than Fractions."""
    sup = Fraction(sup_num, sup_den)

    def tail_at(n: int) -> Fraction:
        return sup * tailmath.eta(n + 1).hi

    budget = Fraction(tol_num, 2 * tol_den)
    n = tailmath.least_index(lambda k: tail_at(k) < budget, 9, "the d_E tail", 8, below=budget)
    tail = tail_at(n)
    return n, tail.numerator, tail.denominator


def _abs_numerators(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """([|v| * m for v in values], m): |values| as integer numerators over
    m, the lcm of their denominators."""
    ratios = [v.as_integer_ratio() for v in values]
    m = math.lcm(*[q for _, q in ratios])
    return [abs(p) * (m // q) for p, q in ratios], m


def d_E(a: CoeffSeq, b: CoeffSeq, tol=Fraction(1, 10**12)) -> BoundInterval:
    """Certified d_E(a, b) = sum |a_n - b_n| / (n+1)!.

    Keeps the difference's finite support, with a tail of exactly 0, or
    else its first n terms, n the cut _d_E_cut works out once per
    (sup, tol), with a tail of at most sup|a_n - b_n| * eta_{n+1}.  An
    eventually periodic difference is read once, as integer numerators
    of its preamble and period over one lcm m: their largest is m times
    the sup, and the kept terms are them unrolled.  The N kept terms sum
    by Horner as one integer numerator over m * N!, and the tail joins
    it as one more integer fraction, so a call builds two Fractions.
    """
    tolq = as_fraction(tol)
    if tolq.numerator <= 0:
        raise DomainError("tolerance must be positive")
    d = difference(a, b)
    tail_num, tail_den = 0, 1
    if isinstance(d, EventuallyPeriodic):
        nums, m = _abs_numerators(d.preamble + d.period)
        pre, per = nums[:len(d.preamble)], nums[len(d.preamble):]
        if per == [0]:  # eventually zero: keep the support (coeffspace.truncate's rule)
            terms = pre
        else:
            n, tail_num, tail_den = _d_E_cut(max(nums), m, tolq.numerator, tolq.denominator)
            terms = _unrolled(pre, per, n)
    else:
        n, tail_num, tail_den = _d_E_cut(*d.sup_abs().as_integer_ratio(),
                                         tolq.numerator, tolq.denominator)
        terms, m = _abs_numerators(d.prefix(n))
    # Horner: after k terms, num = m * k! * sum_{i < k} |c_i| / (i + 1)!
    num = 0
    for k, c in enumerate(terms, 1):
        num = num * k + c
    den = m * math.factorial(len(terms))
    return BoundInterval(Fraction(num, den), Fraction(num * tail_den + tail_num * den, den * tail_den))


@dataclass(frozen=True)
class Weights:
    """Coordinate weight family w_i for sum w_i |x_i - y_i| / 2^i.

    tail_majorant(K, dsup) must return a certified upper bound for
    sum_{i >= K} w_i * dsup / 2^i; this is exactly the bounded-diameter
    hypothesis the product metric needs, so families without one are
    rejected up front.
    """

    name: str
    factor: Callable[[int], Fraction]
    tail_majorant: Callable[[int, Fraction], Fraction]


UNIT_WEIGHTS = Weights(
    name="unit",
    factor=lambda i: Fraction(1),
    tail_majorant=lambda K, dsup: dsup * Fraction(2, 2**K),
)

# w_i = 2^i/(i+1)! turns the product metric into d_E term by term.
FACTORIAL_WEIGHTS = Weights(
    name="factorial",
    factor=lambda i: Fraction(2**i, math.factorial(i + 1)),
    tail_majorant=lambda K, dsup: dsup * tailmath.eta(K + 1).hi,
)


def weighted_product_metric(
    x: CoeffSeq, y: CoeffSeq, weights: Weights, tol=Fraction(1, 10**12)
) -> BoundInterval:
    """Certified sum_i w_i |x_i - y_i| / 2^i for a bounded weight family."""
    if not isinstance(weights, Weights) or weights.tail_majorant is None:
        raise DomainError("weights must come with a certified tail majorant")
    tolq = as_fraction(tol)
    if tolq <= 0:
        raise DomainError("tolerance must be positive")
    d = difference(x, y)
    sup = d.sup_abs()

    def tail_at(n: int) -> Fraction:
        tail = weights.tail_majorant(n, sup)
        if tail < 0:
            raise DomainError("tail majorant must be nonnegative")
        return tail

    kept, tail = truncate(d, tail_at, tolq / 2,
                          "the weighted tail", 8, 8)
    partial = sum(weights.factor(i) * abs(c) / 2**i for i, c in enumerate(kept))
    return BoundInterval(partial, partial + tail)


# ---------------------------------------------------------------------------
# L^p norms of the truncated difference polynomial
#
# _bernstein takes kept, the scaled Taylor coefficients of the polynomial
# P (a kept tuple may end in zeros; () is the zero polynomial), and the
# kernels take the (B, L) it returns.
#
# The exact integer Bernstein kernel.  With t = gamma * u, a panel of
# [0, 1] at depth k holds integers B whose B_j / (L * 2^(k n)) are P's
# Bernstein coefficients there: they enclose P on the panel (the convex
# hull property), and the end ones are P's values at the panel's ends.


def _bernstein(kept: Tuple[Fraction, ...], gamma: Fraction) -> Tuple[List[int], int]:
    """(B, L) for P on [0, gamma]: n! b_j = sum_i C(j, i) (n - i)! a_i gamma^i,
    n the degree of P (0 for zero), so trailing zeros of kept are dropped."""
    n = max(len(kept) - 1, 0)
    while n and kept[n] == 0:
        n -= 1
    cs = kept[:n + 1] or (Fraction(0),)
    m = math.lcm(*[c.denominator for c in cs])
    g, h = gamma.numerator, gamma.denominator
    B = [c.numerator * (m // c.denominator) * math.factorial(n - i) * g**i * h ** (n - i)
         for i, c in enumerate(cs)]
    for r in range(1, n + 1):  # the binomial transform, by Pascal's rule
        for j in range(n, r - 1, -1):
            B[j] += B[j - 1]
    return B, m * math.factorial(n) * h**n


def _split(B: List[int]) -> Tuple[List[int], List[int]]:
    """Halve a panel by de Casteljau at 1/2: sums only, both halves times 2^n.

    The n + 1 integers, each raised by off = max|b_j| so none is negative,
    sit in slots of s bits of one int X, low index first.  A row of sums is
    then X += X >> s: after k rows slot i holds 2^k (off + the de Casteljau
    point (k, i)) for i <= n - k, below 2^(s - 1), and each half takes one
    end slot of each row.
    """
    n = len(B) - 1
    off = max(max(B), -min(B))
    s = off.bit_length() + n + 2
    X = 0
    for b in reversed(B):
        X = (X << s) + b + off
    mask = (1 << s) - 1
    top = off << n
    left, right = [], []
    for k in range(n + 1):
        left.append(((X & mask) << (n - k)) - top)
        right.append((((X >> (s * (n - k))) & mask) << (n - k)) - top)
        X += X >> s
    return left, right[::-1]


def _sup_abs_on(B: List[int], L: int, tol: Fraction) -> BoundInterval:
    """Certified enclosure of sup_{[0, gamma]} |P|, width < tol, by
    branch-and-bound on the Bernstein panels of (B, L) = _bernstein(kept,
    gamma), with exact bounds in units of 1/L."""
    n = len(B) - 1
    lower = Fraction(max(abs(B[0]), abs(B[n])))
    heap = [(-Fraction(max(map(abs, B))), 0, 0, B)]
    panels = 1
    while True:
        neg_hi, _, e, coeffs = heapq.heappop(heap)
        if -neg_hi - lower < tol * L:
            # nothing remaining can beat the lower bound by tol
            return BoundInterval(lower / L, max(lower, -neg_hi) / L)
        e += n
        left, right = _split(coeffs)
        lower = max(lower, Fraction(abs(left[n]), 1 << e))  # the midpoint value
        for child in (left, right):
            panels += 1
            heapq.heappush(heap, (-Fraction(max(map(abs, child)), 1 << e), panels, e, child))
        if panels > _MAX_PANELS:
            raise ToleranceUnreachable(f"sup refinement exceeded {_MAX_PANELS} panels", kind="panel-cap")


def _convolution_power(beta: List[int], p: int) -> List[int]:
    """The p-th convolution power c of the integers beta (p >= 1), by
    Kronecker substitution: beta sits in slots of s bits of one int X, low
    index first, and c in those of X^p.  With n = len(beta) - 1 each c_i
    sums at most (n + 1)^(p-1) products of p entries, so |c_i| is below
    2^(s - 2) for s = p bitlen(max|beta|) + (p - 1) bitlen(n) + 2.  Adding
    2^(s-1) to every slot makes them all nonnegative, and the bytes of the
    sum read them off in one pass (s rounded up to whole bytes)."""
    n = len(beta) - 1
    size = (p * max(map(abs, beta)).bit_length() + (p - 1) * n.bit_length() + 9) // 8
    s = 8 * size
    X = 0
    for b in reversed(beta):
        X = (X << s) + b
    slots = p * n + 1
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    raw = (X**p + offset).to_bytes(slots * size, "little")
    half = 1 << (s - 1)
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, slots * size, size)]


def _power_basis(b: List[int]) -> List[int]:
    """c with sum_j c_j u^j = sum_j b_j C(n, j) u^j (1 - u)^(n - j): C(n, j)
    times the j-th difference of b at 0."""
    n = len(b) - 1
    c, row = [], b
    for j in range(n + 1):
        c.append(math.comb(n, j) * row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    return c


# A fractional root panel's Taylor point, and the ends of an odd-p
# bracket, lie at m / 2^_GUESS_BITS in the panel: for the Taylor point x~,
# x~ and 1 - x~ are doubles, exactly.
_GUESS_BITS = 53


def _root_guess(coeffs: List[int]) -> int:
    """m such that m / 2^_GUESS_BITS in [0, 1] is near the root of the
    polynomial with Bernstein coefficients coeffs on [0, 1], which has one
    simple root there (it is monotone, or its nonzero coefficients change
    sign once): Newton's method in doubles, from the chord's root (the
    middle when both end values are 0), on the power basis about the
    panel end nearer to it, clamped to [0, 1].  No result rests on its
    accuracy: it sets the width of a fractional root panel's enclosure
    (through a_0), and where an odd-p bracket starts its search."""
    n = len(coeffs) - 1
    flip = 2 * abs(coeffs[0]) > abs(coeffs[n] - coeffs[0])  # nearer the right end
    b = coeffs[::-1] if flip else coeffs
    c = _power_basis(b)
    top = max(map(abs, c))
    c = [a / top for a in reversed(c)]
    x = b[0] / (b[0] - b[n]) if b[0] != b[n] else 0.5
    for _ in range(12):
        v = d = 0.0
        for a in c:
            d = d * x + v
            v = v * x + a
        if not d:
            break
        nxt = min(1.0, max(0.0, x - v / d))
        if nxt == x:
            break
        x = nxt
    m = round(math.ldexp(x, _GUESS_BITS))
    return (1 << _GUESS_BITS) - m if flip else m


def _horner(a: List[int], M: int, T: int) -> int:
    """2^(T d) times the polynomial sum_i a_i u^i of degree d = len(a) - 1
    at u = M / 2^T, an exact integer."""
    v = 0
    for i, c in enumerate(reversed(a)):
        v = v * M + (c << (T * i))
    return v


def _sign_changes(coeffs: List[int]) -> int:
    """How often the nonzero integers of coeffs change sign, in order."""
    changes, last = 0, 0
    for b in coeffs:
        if b:
            if last and (b > 0) != (last > 0):
                changes += 1
            last = b
    return changes


def _root_polynomials(B: List[int], p: int, full: int) -> Tuple[List[int], List[int]]:
    """(a, e): P = sum_i a_i u^i / L for u in [0, 1], the power basis of
    (B, L), and (N + 1)! int_0^u P^p = sum_i e_i u^(i+1) / L^p, from the
    convolution power of a, with full = (N + 1)!."""
    a = _power_basis(B)
    return a, [c * (full // (i + 1)) for i, c in enumerate(_convolution_power(a, p))]


# The bracket's widths, in units of 2^-_GUESS_BITS of a panel: the second
# is tried where the first misses the root
_BRACKET_STEPS = (1 << 9, 1 << 33)


def _bracket_root(roots: Tuple[List[int], List[int]], coeffs: List[int], k: int, j: int, S: int,
                  N: int) -> Optional[Tuple[int, int]]:
    """(E, w) for panel j at depth k of [0, 1], with Bernstein coefficients
    coeffs whose nonzero entries change sign once, so one simple root r
    lies inside, and moment S; None when no bracket is found.

    Positions x in the panel are integers over 2^_GUESS_BITS.  P(x) has
    the sign of the first nonzero coefficient for x < r and the other one
    for x > r, so one exact integer sign of P (_horner on roots' a) puts x
    on its side of r, or at r when it is 0.  From _root_guess's point x~,
    which is only a start, x~ and then x~ +- each of _BRACKET_STEPS toward
    r narrow [x_lo, x_hi] = [0, 1] around r until its width w = x_hi -
    x_lo is at most the step.  Then E over 2^((_GUESS_BITS + k)(N + 1))
    is (N + 1)! L^p (|int P^p du| over the panel's parts left of x_lo and
    right of x_hi), u the window's variable, from roots' e at the points
    u = (j + x) / 2^k; the panel's ends differ by S shifted, so its right
    end needs no evaluation."""
    a, e = roots
    one = 1 << _GUESS_BITS
    T = _GUESS_BITS + k
    base = j << _GUESS_BITS
    first = next(b for b in coeffs if b) > 0
    lo, hi = 0, one

    def probe(x: int):
        nonlocal lo, hi
        if lo < x < hi:
            v = _horner(a, base + x, T)
            if not v:
                lo = hi = x
            elif (v > 0) == first:
                lo = x
            else:
                hi = x

    m = _root_guess(coeffs)
    probe(m)
    for step in _BRACKET_STEPS:
        probe(m + step if lo >= m else m - step)
        if hi - lo <= step:
            break
    else:
        return None

    def antiderivative(x: int) -> int:
        M = base + x
        return M * _horner(e, M, T)

    start = antiderivative(0)
    at_lo = antiderivative(lo)
    at_hi = at_lo if hi == lo else antiderivative(hi)
    end = start + (S << (_GUESS_BITS * (N + 1)))
    return abs(at_lo - start) + abs(end - at_hi), hi - lo


def _integral_abs_pow_int(B: List[int], L: int, gamma: Fraction, p: int, tol: Fraction) -> BoundInterval:
    """Certified enclosure of int_0^gamma |P|^p dt for integer p >= 1, width
    < tol, on the Bernstein panels of (B, L) = _bernstein(kept, gamma).

    A panel at depth k holds b_0..b_n over D = L * 2^(kn) and has width
    h = gamma / 2^k.  With beta_j = C(n, j) b_j and N = p n, P^p is
    D^-p sum_i c_i u^i (1 - u)^(N - i), c the p-th convolution power of
    beta (the Bernstein-form product; Farouki & Rajan 1988), and each
    basis term integrates to i! (N - i)! / (N + 1)!.  So the panel's
    integral is h * S / ((N + 1)! D^p) with S = sum_i c_i i! (N - i)!,
    one exact rational built from the panel's own integers; a split
    computes S for the left half only, since the halves sum to the panel.

    Even p takes the whole window as one panel.  For odd p, |P|^p =
    sign(P) P^p: a panel whose b share a sign integrates exactly, and a
    root panel contributes [|int P^p|, h * max|b_j|^p / D^p], the panel
    with the most slack going first until the slacks sum below tol.  A
    popped root panel whose nonzero b change sign once holds exactly one
    root, a simple one (Descartes' rule of signs in Bernstein form;
    Rouillier & Zimmermann 2004).  It is bracketed between dyadics x_lo
    <= x_hi near _root_guess's point, certified by exact integer signs of
    P, and takes [E, E + h (x_hi - x_lo) max|b_j|^p / D^p], E the sum of
    |int P^p dt| over the panel's parts before x_lo and after x_hi, each
    read off one antiderivative of the power-basis convolution power of P
    on the whole window (_bracket_root).  A root hit exactly gives x_lo = x_hi
    and no slack.  Any other popped root panel, and one popped again
    after its bracket, is halved.

    The work grows as N^2 times the integers' size, which grows with p,
    so N (p for a constant) past _MAX_POWER_DEGREE raises at once: for
    ones against zero at the default tol, p > 128 at gamma 1 (n = 16;
    p = 101 takes 1.4 s, 151 4.5 s) and p > 85 at gamma 2 (n = 24).
    """
    n = len(B) - 1
    N = n * p
    if max(N, p) > _MAX_POWER_DEGREE:
        raise ToleranceUnreachable(f"|P|^{p} has degree {N}, past the budget {_MAX_POWER_DEGREE}",
                                   kind="degree-cap")
    binom = [math.comb(n, j) for j in range(n + 1)]
    weight = [math.factorial(i) * math.factorial(N - i) for i in range(N + 1)]
    full = math.factorial(N + 1)
    # a panel's integral is gn * S / (den << k (N + 1))
    gn = gamma.numerator
    den = gamma.denominator * full * L**p

    def moment(coeffs: List[int]) -> int:
        """S, from the convolution power c of beta."""
        c = _convolution_power([b * m for b, m in zip(coeffs, binom)], p)
        return sum(x * w for x, w in zip(c, weight))

    if p % 2 == 0:
        return BoundInterval.exact(Fraction(gn * moment(B), den))
    settled = pending = Fraction(0)
    heap: List[tuple] = []
    panels = 0
    census = _census
    roots = None  # _bracket_root's polynomials, built on the first bracket

    def classify(coeffs: List[int], k: int, j: int, S: int):
        nonlocal settled, pending, panels
        panels += 1
        unit = den << (k * (N + 1))
        lower = Fraction(abs(S) * gn, unit)
        if min(coeffs) >= 0 or max(coeffs) <= 0:
            settled += lower
            return
        slack = Fraction((max(map(abs, coeffs)) ** p * full - abs(S)) * gn, unit)
        pending += slack
        heapq.heappush(heap, (-slack, panels, coeffs, k, j, S, lower, False))

    classify(B, 0, 0, moment(B))
    while heap and pending >= tol:
        neg_slack, key, coeffs, k, j, S, _, bracketed = heapq.heappop(heap)
        pending += neg_slack
        if not bracketed and _sign_changes(coeffs) == 1:
            if roots is None:
                roots = _root_polynomials(B, p, full)
            got = _bracket_root(roots, coeffs, k, j, S, N)
            if got is not None:
                exact, width = got
                if census is not None:
                    census["int-bracket"] += 1
                lower = Fraction(exact * gn, den << ((_GUESS_BITS + k) * (N + 1)))
                if not width:
                    settled += lower
                    continue
                # h (x_hi - x_lo) max|b_j|^p / D^p, x_hi - x_lo = width / 2^_GUESS_BITS
                slack = Fraction(width * max(map(abs, coeffs)) ** p * full * gn,
                                 den << (_GUESS_BITS + k * (N + 1)))
                pending += slack
                heapq.heappush(heap, (-slack, key, coeffs, k, j, S, lower, True))
                continue
        if census is not None:
            census["int-split"] += 1
        left, right = _split(coeffs)
        S_left = moment(left)
        classify(left, k + 1, 2 * j, S_left)
        classify(right, k + 1, 2 * j + 1, (S << (N + 1)) - S_left)
        if panels > _MAX_PANELS:
            raise ToleranceUnreachable(f"sign partition exceeded {_MAX_PANELS} panels", kind="panel-cap")
    lo = settled + sum(item[6] for item in heap)
    return BoundInterval(lo, lo + pending)


# --- outward-rounded doubles, used only by the fractional-p quadrature
# below.  Every double it starts from is one integer quotient num / den,
# which Python rounds correctly, nudged one ulp outward; IEEE +-*/ are
# exactly rounded too, so nudging each computed endpoint keeps the
# enclosure rigorous while the panel arithmetic stays far cheaper than
# Fraction arithmetic (whose gcd calls would dominate the profile).


_nextafter = math.nextafter
_NEG_INF, _POS_INF = -math.inf, math.inf


def _fdn(x: float) -> float:
    return _nextafter(x, _NEG_INF)


def _fup(x: float) -> float:
    return _nextafter(x, _POS_INF)


def _fi(lo: int, hi: int, den: int, den_hi: int = 0) -> Tuple[float, float]:
    """Outward double enclosure of [lo, hi] / [den, den_hi], 0 < den <= den_hi
    (den_hi defaults to den)."""
    den_hi = den_hi or den
    try:
        return (_fdn(lo / (den_hi if lo >= 0 else den)), _fup(hi / (den if hi >= 0 else den_hi)))
    except OverflowError:
        raise ToleranceUnreachable(
            "fractional-power quadrature needs values within the double range", kind="double-range"
        ) from None


def _fc(x: Fraction) -> Tuple[float, float]:
    """Outward double enclosure of the rational x."""
    return _fi(x.numerator, x.numerator, x.denominator)


# The helpers below run tens of times per panel, so they nudge with
# _nextafter directly rather than through _fdn and _fup.


def _fi_add(a, b) -> Tuple[float, float]:
    return (_nextafter(a[0] + b[0], _NEG_INF), _nextafter(a[1] + b[1], _POS_INF))


def _fi_mul(a, b) -> Tuple[float, float]:
    a0, a1 = a
    b0, b1 = b
    p0 = a0 * b0
    p1 = a0 * b1
    p2 = a1 * b0
    p3 = a1 * b1
    s = p0 + p1 + p2 + p3
    if s != s:
        # an overflow met 0 or an opposite overflow (0 * inf, inf - inf):
        # min/max would skip the nan, so claim nothing
        return (-math.inf, math.inf)
    return (_nextafter(min(p0, p1, p2, p3), _NEG_INF), _nextafter(max(p0, p1, p2, p3), _POS_INF))


def _fi_sq(a) -> Tuple[float, float]:
    """Outward enclosure of {x^2 : x in a}, never below zero."""
    a0, a1 = a
    lo, hi = a0 * a0, a1 * a1
    if a0 >= 0.0:
        return (max(0.0, _nextafter(lo, _NEG_INF)), _nextafter(hi, _POS_INF))
    if a1 <= 0.0:
        return (max(0.0, _nextafter(hi, _NEG_INF)), _nextafter(lo, _POS_INF))
    return (0.0, _nextafter(max(lo, hi), _POS_INF))


# The sixth-order rule's derivatives.  Where Q > 0 on a panel of width h,
# with R_j = h^j Q^(j) / Q, h^k (Q^p)^(k) = Q^p F_k(R_1, ..., R_k), and
# since h R_j' = R_(j+1) - R_1 R_j,
#
#     F_0 = 1,  F_(k+1) = p R_1 F_k + sum_j dF_k/dR_j (R_(j+1) - R_1 R_j).
#
# F_k is a sum of monomials of weight k, one per partition of k; these
# are F_6's, as exponents of R_1 ... R_6.
_F6_MONOMIALS = (
    (6, 0, 0, 0, 0, 0), (4, 1, 0, 0, 0, 0), (3, 0, 1, 0, 0, 0), (2, 2, 0, 0, 0, 0),
    (2, 0, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0), (0, 3, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0), (0, 0, 2, 0, 0, 0), (0, 0, 0, 0, 0, 1),
)


@lru_cache(maxsize=64)
def _chain_rule(p: Fraction) -> Tuple[Dict[Tuple[int, ...], Fraction], ...]:
    """(F_0, ..., F_6) for the exponent p, each {exponents of R_1..R_k:
    coefficient}, built on first use."""
    F = [{(): Fraction(1)}]
    for k in range(6):
        nxt: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in F[-1].items():
            e = e + (0,)
            # p R_1 F - R_1 sum_j R_j dF/dR_j takes a monomial of degree m
            # to (p - m) R_1 times it
            up = (e[0] + 1,) + e[1:]
            nxt[up] = nxt.get(up, 0) + (p - sum(e)) * c
            for j in range(k):  # R_(j+2) dF/dR_(j+1)
                if e[j]:
                    moved = list(e)
                    moved[j] -= 1
                    moved[j + 1] += 1
                    moved = tuple(moved)
                    nxt[moved] = nxt.get(moved, 0) + e[j] * c
        F.append({e: c for e, c in nxt.items() if c})
    return tuple(F)


def _f6_at(k: Sequence[tuple], r1, r2, r3, r4, r5, r6) -> Tuple[float, float]:
    """Outward enclosure of the sum of k_i times the i-th monomial of
    _F6_MONOMIALS over the R_j enclosures r1..r6, by Horner in R_1: F_6
    times a constant when k holds F_6's coefficients times it."""
    ca, cb, cc, cd, ce, cf, cg, ch, ci, cj, ck = k
    r2sq = _fi_sq(r2)
    acc = _fi_add(_fi_mul(_fi_sq(r1), ca), _fi_mul(r2, cb))
    acc = _fi_add(_fi_mul(acc, r1), _fi_mul(r3, cc))
    acc = _fi_add(_fi_mul(acc, r1), _fi_add(_fi_mul(r2sq, cd), _fi_mul(r4, ce)))
    acc = _fi_add(_fi_mul(acc, r1), _fi_add(_fi_mul(_fi_mul(r2, r3), cf), _fi_mul(r5, cg)))
    return _fi_add(_fi_add(_fi_mul(acc, r1), _fi_mul(_fi_mul(r2sq, r2), ch)),
                   _fi_add(_fi_add(_fi_mul(_fi_mul(r2, r4), ci), _fi_mul(_fi_sq(r3), cj)),
                           _fi_mul(r6, ck)))


def _taylor_at(B: List[int], m: int, s: int) -> List[int]:
    """A_0..A_J, J = min(n, 6): the polynomial with Bernstein coefficients
    B / den on [0, 1] has Taylor coefficients A_j / (den 2^(s n)) about
    x~ = m / 2^s, from one integer de Casteljau split at x~: row r of the
    split, scaled by 2^(s r), holds n - r + 1 points, and C(n, j) times
    the j-th difference of row n - j is the j-th coefficient."""
    n = len(B) - 1
    w = (1 << s) - m
    A = [0] * (min(n, 6) + 1)
    row = B
    for r in range(n + 1):
        if r:
            row = [w * x + m * y for x, y in zip(row, row[1:])]
        j = n - r
        if j <= 6:
            d = row
            for _ in range(j):
                d = [y - x for x, y in zip(d, d[1:])]
            A[j] = math.comb(n, j) * d[0] << (s * j)
    return A


# The split census: None, or the Counter that count_splits yields.
_census: Optional[Counter] = None


@contextlib.contextmanager
def count_splits() -> Iterator[Counter]:
    """Count the L^p kernels' work inside the block, by kind.  The
    fractional-p quadrature's splits go by the bound that left the split
    panel too wide: "taylor" (the Taylor model on a sign-definite panel),
    "crude" (a sign-definite panel on the crude bound), "root-taylor" (a
    monotone root panel after its Taylor model), "root-crude" (a monotone
    root panel whose model's remainder alone was too wide) and
    "nonmonotone" (any other root panel).  The odd-p sign partition counts "int-split" for a halved root panel
    and "int-bracket" for one settled around its bracketed root.

        with metrics.count_splits() as splits:
            rho_p(f, g, LpSpec(Fraction(3, 2), 1))
        splits.total()

    Off, it costs one `is None` test per split.  Blocks nest: an inner one
    counts its own splits only."""
    global _census
    outer, _census = _census, Counter()
    try:
        yield _census
    finally:
        _census = outer


def _integral_abs_pow_frac(B: List[int], L: int, gamma: Fraction, p: Fraction,
                           tol: Fraction) -> BoundInterval:
    """Certified enclosure of int_0^gamma |P|^p dt for fractional p > 1 on
    the Bernstein panels of (B, L) = _bernstein(kept, gamma), B not all 0.

    A panel of width h at depth k, in its variable x in [0, 1], holds
    integers b over den = L * 2^(kn): they bound P, n!/(n-j)! times their
    j-th differences bound the j-th derivative in x (h^j P^(j)), and b_0
    and b_n are P's exact values at the ends.  Every panel where P is
    sign-definite, or monotone across one simple root, takes one
    sixth-order Taylor model (Davis & Rabinowitz 1984).  About a point x~,
    with a weight w >= 0 and g = |Q|^p for a Q without a root on the
    panel, int_0^1 w g dx lies in

        g(x~) sum_(k < 6) F_k(R) / k! M_k + range(g) F_6(R') / 6! M_6,

    M_k = int_0^1 w(x) (x - x~)^k dx.  _chain_rule gives g^(k) = g F_k(R_1,
    ..., R_k) with R_j = Q^(j) / Q.  At x~, R_j = j! T_j / T_0 for Q's
    Taylor coefficients T_j there, integers over one denominator, and c^k
    F_k has integer coefficients for p = a/c, so each F_k(R) / k! is one
    integer quotient, rounded once.  In the remainder R' holds enclosures
    of the R_j over the panel, and g^(6) / 6! times (x - x~)^6 >= 0
    integrates to within range(g) F_6(R') / 6! M_6.  The two kinds of panel
    differ only in Q, x~, w and R':

    * sign-definite: Q = |P| (the b negated when P < 0), x~ = 1/2 and
      w = 1, so the odd moments vanish and M_0, M_2, M_4, M_6 are 1, 1/12,
      1/80 and 1/448.  T_j = C(n, j) 2^j sum_i C(n - j, i) Delta^j b_i over
      den 2^n, from the difference rows; R'_j is n!/(n-j)! times the j-th
      differences over the b themselves, free of scale; and range(g) comes
      from the least and largest b.
    * a root panel whose first differences share one strict sign, so that
      P is monotone with exactly one simple root: about a dyadic x~ near
      the root (_root_guess, Newton in doubles, needing no certificate),
      P(x) = a_0 + (x - x~) Q(x), with a_0..a_6 read exactly off one
      integer de Casteljau split at x~ (_taylor_at), so Q = P[x~, x] has
      T_j = a_(j+1) and no root on the panel.  w = |x - x~|^p, whose
      moments are ((1 - x~)^(p+k+1) + (-1)^k x~^(p+k+1)) / (p+k+1); R'_j
      lies in the range of P^(j+1) / (j + 1) over that of P', and range(g)
      is that of |P'|^p, all from the difference rows 1-7; and |P|^p -
      |P - a_0|^p is within p (sup|P| + |a_0|)^(p-1) |a_0|.  The
      remainder shrinks as h^(p+7); its order-0 case is product
      integration, |P| = |P'(xi)| |x - r|.  It needs no root, so it is
      worked out first, and a panel whose remainder alone cannot meet its
      budget keeps the crude bound without the root search.

    Every panel also has the crude bound h * range(|P|^p), which shrinks
    superlinearly at a root since |P|^p is tiny there; it is all that any
    other root panel takes, and a model is intersected with it.  A root
    panel's model counts as all remainder, like the crude bound.  A panel
    holds a root unless its b share one strict sign, an integer test.

    Every power is of an exact ratio of integers, rooted once by PowerFn
    into the tightest doubles: T_0 / den for g(x~), the least and largest
    b over den for range(g), m / 2^53 and 1 - m / 2^53 for the moments, and
    (max|b| 2^(53n) + |A_0|) / (den 2^(53n)) for the perturbation.

    _norm_of_poly runs this at unit scale, max|B| / L in [1, 2), so the
    values of P and g are doubles near 1 at any scale of the caller's
    coefficients, and a tolerance below the double range is one the
    rounding cannot meet.

    Refinement is depth first: a panel is kept once its width is at most
    its budget, its share tol * h / gamma plus the carry, what the panels
    kept before it left of theirs (rounded down).  So one budget is spent
    across the window, as in globally adaptive quadrature (Piessens et al.
    1983), only the current path holds coefficient lists, and the width
    is tol plus the outward rounding of the sums.
    The double bookkeeping floors the reachable tolerance near 1e-14 *
    integral (ones against zero at p = 3/2, gamma 1: rho_p reaches tol
    1e-13, not 1e-14), far below anything the callers request.  A panel
    that must split while its width is within 2^-42 of its value, and not
    mostly the h^7 remainder, raises ToleranceUnreachable at once: a
    panel's own rounding leaves a width near 2^-47 of its value, and that
    width halves with h just as the share does.  So does a share that
    rounds to 0.0.
    """
    n = len(B) - 1
    gn, gd = gamma.numerator, gamma.denominator
    pw, pw1, pw_less = PowerFn(p), PowerFn(p + 1), PowerFn(p - 1)
    F = _chain_rule(p)
    c = p.denominator
    falling = [math.perm(n, j) for j in range(8)]
    # F_0..F_5 as (c^k times the coefficient, the j of each factor j! T_j,
    # the power of T_0 that brings the monomial to degree k), and c^k k!
    terms = [[((q * c**k).numerator, [j for j, ej in enumerate(e, 1) for _ in range(ej)], k - sum(e))
              for e, q in F[k].items()] for k in range(6)]
    factorials = [math.factorial(k) for k in range(6)]
    kden = [c**k * f for k, f in enumerate(factorials)]
    f6 = [_fc(F[6].get(e, 0) / 720) for e in _F6_MONOMIALS]
    # the sign-definite panels' moments about 1/2, and the weights of Q's
    # Taylor coefficients there: C(n, j) 2^j C(n - j, i)
    half_moments = [(1.0, 1.0), None, _fc(Fraction(1, 12)), None, _fc(Fraction(1, 80)), None,
                    _fc(Fraction(1, 448))]
    mid = [[math.comb(n, j) * math.comb(n - j, i) << j for i in range(n - j + 1)]
           for j in range(min(n, 4) + 1)]
    # the root panels' 1 / (p + k + 1), p, and their least M_6 (at x~ =
    # 1/2) times 1 - 2^-20, a margin for the rounding of the test that
    # uses it
    inv_moment = [_fc(1 / (p + k + 1)) for k in range(7)]
    p_hi = _fc(p)[1]
    m6_least = math.ldexp(pw1.of_ratio(1, 2)[0], -5) * inv_moment[6][0] * (1 - 2**-20)

    def remainder(g_range: tuple, r: List[tuple]) -> Tuple[float, float]:
        """range(g) F_6(R') / 6!, R'_j in r[j - 1]."""
        return _fi_mul(g_range, _f6_at(f6, *r))

    def model(T: List[int], den: int, moments: List[Optional[tuple]], rem: tuple) -> Tuple[float, float]:
        """g(x~) sum_k F_k(R) / k! M_k + rem M_6, over the k < 6 whose M_k
        in moments is not None, for Q's Taylor coefficients T / den
        about x~, T_0 > 0."""
        S = [f * t for f, t in zip(factorials, T)] + [0] * (6 - len(T))
        t0 = [1]
        for _ in range(5):
            t0.append(t0[-1] * T[0])
        total = moments[0]
        for k in range(1, 6):
            if moments[k] is None:
                continue
            num = 0
            for q, js, d in terms[k]:
                x = q * t0[d]
                for j in js:
                    x *= S[j]
                num += x
            try:
                fk = _fi(num, num, kden[k] * t0[k])
            except ToleranceUnreachable:  # past the double range
                return (-math.inf, math.inf)
            total = _fi_add(total, _fi_mul(fk, moments[k]))
        return _fi_add(_fi_mul(pw.of_ratio(T[0], den), total), _fi_mul(rem, moments[6]))

    def clip(body: tuple, h: tuple, crude: tuple) -> Tuple[float, float, bool]:
        """(lo, hi, model): h * body intersected with the crude bound, and
        whether it is h * body itself; the crude bound alone when h * body
        is not finite or misses it."""
        body = _fi_mul(body, h)
        lo, hi = max(body[0], crude[0], 0.0), min(body[1], crude[1])
        if hi < lo or not (math.isfinite(body[0]) and math.isfinite(body[1])):
            return max(0.0, crude[0]), crude[1], False
        return lo, hi, (lo, hi) == body

    def root_taylor(coeffs: List[int], den: int, h: tuple, budget: float,
                    crude: tuple) -> Tuple[tuple, str]:
        """(enclosure, kind) on a panel whose first differences share one
        strict sign, by the Taylor model across its one root; kind
        "root-crude" when the model's remainder alone is wider than the
        panel's budget, and the crude bound stands."""
        if coeffs[n] < coeffs[0]:  # |P|^p = |-P|^p: take P increasing
            coeffs = [-b for b in coeffs]
        spans, row = [], coeffs
        for _ in range(7):
            row = [y - x for x, y in zip(row, row[1:])]
            spans.append((min(row, default=0), max(row, default=0)))
        d_lo, d_hi = n * spans[0][0], n * spans[0][1]  # h P' over den
        try:
            # R'_j: the range of P^(j+1) / (j + 1) over that of P'
            r = [_fi(f * lo, f * hi, j * d_lo, j * d_hi)
                 for j, f, (lo, hi) in zip(range(2, 8), falling[2:], spans[1:])]
        except ToleranceUnreachable:
            return crude, "root-crude"
        rem = remainder((pw.of_ratio(d_lo, den)[0], pw.of_ratio(d_hi, den)[1]), r)
        if (rem[1] - rem[0]) * m6_least * h[0] > budget:
            return crude, "root-crude"
        m = _root_guess(coeffs)
        A = _taylor_at(coeffs, m, _GUESS_BITS)
        D = den << (_GUESS_BITS * n)
        # the moments M_0..M_6 about x~
        one = 1 << _GUESS_BITS
        xr, xl = math.ldexp(m, -_GUESS_BITS), math.ldexp(one - m, -_GUESS_BITS)
        ml, mr = pw1.of_ratio(one - m, one), pw1.of_ratio(m, one)
        moments = []
        for k in range(7):
            side = mr if k % 2 == 0 else (-mr[1], -mr[0])
            moments.append(_fi_mul(_fi_add(ml, side), inv_moment[k]))
            ml, mr = _fi_mul(ml, (xl, xl)), _fi_mul(mr, (xr, xr))
        body = model(A[1:], D, moments, rem)
        if A[0]:
            # |P|^p - |P - a_0|^p is within p (sup|P| + |a_0|)^(p-1) |a_0|
            a0 = _fi(abs(A[0]), abs(A[0]), D)[1]
            top = max(-min(coeffs), max(coeffs)) << (_GUESS_BITS * n)
            pert = _fup(_fup(pw_less.of_ratio(top + abs(A[0]), D)[1] * p_hi) * a0)
            body = (_fdn(body[0] - pert), _fup(body[1] + pert))
        return clip(body, h, crude)[:2], "root-taylor"

    def panel_enclosure(coeffs: List[int], k: int, budget: float) -> Tuple[float, float, float, str]:
        """(lo, hi, r, kind): r is the part of hi - lo that shrinks faster
        than h (the h^7 remainder; all of it where the crude bound binds),
        and kind names the bound that made the enclosure, for count_splits."""
        den = L << (k * n)
        h = _fi(gn, gn, gd << k)
        bmin, bmax = min(coeffs), max(coeffs)
        if bmin <= 0 <= bmax:
            # straddles a root: width * range of |P|^p, and where P is
            # monotone the Taylor model across the root
            crude = _fi_mul((0.0, pw.of_ratio(max(-bmin, bmax), den)[1]), h)
            row = [y - x for x, y in zip(coeffs, coeffs[1:])]
            dmin, dmax = min(row), max(row)
            if not (dmin > 0 or dmax < 0):
                return crude + (math.inf, "nonmonotone")
            crude, kind = root_taylor(coeffs, den, h, budget, crude)
            return crude + (math.inf, kind)
        if bmax < 0:  # Q's coefficients
            coeffs = [-b for b in coeffs]
            bmin, bmax = -bmax, -bmin
        rows = [coeffs]
        for _ in range(6):
            rows.append([y - x for x, y in zip(rows[-1], rows[-1][1:])])
        spans = [(min(row, default=0), max(row, default=0)) for row in rows[1:]]
        sap = (pw.of_ratio(bmin, den)[0], pw.of_ratio(bmax, den)[1])
        # R'_j: n!/(n-j)! times the j-th differences over the coefficients
        # themselves, free of scale; past the degree it is 0
        rem = remainder(sap, [_fi(f * lo, f * hi, bmin, bmax) for f, (lo, hi) in zip(falling[1:], spans)])
        T = [sum(map(operator.mul, ws, row)) for ws, row in zip(mid, rows)]
        lo, hi, modelled = clip(model(T, den << n, half_moments, rem), h, _fi_mul(sap, h))
        if not modelled:  # the crude bound binds
            return (lo, hi, math.inf, "crude")
        return (lo, hi, (rem[1] - rem[0]) * half_moments[6][1] * h[1], "taylor")

    stack = [(B, 0)]
    # a tolerance past the double range asks for nothing a double can miss;
    # one below it rounds to 0.0
    tol_dn = max(0.0, _fc(min(tol, Fraction(2**1000)))[0])
    lo_sum = hi_sum = 0.0
    carry = 0.0  # the share that accepted panels left unused
    panels = 1
    census = _census
    while stack:
        coeffs, k = stack.pop()
        share = math.ldexp(tol_dn, -k)
        budget = _fdn(share + carry) if carry else share
        lo, hi, shrinking, kind = panel_enclosure(coeffs, k, budget)
        if hi - lo <= budget:
            lo_sum = _fdn(lo_sum + lo)
            hi_sum = _fup(hi_sum + hi)
            carry = max(0.0, _fdn(budget - (hi - lo)))
            continue
        panels += 2
        if census is not None:
            census[kind] += 1
        if share == 0.0 or (hi - lo <= math.ldexp(hi, -42) and 2 * shrinking <= hi - lo):
            # the share is below every double, or rounding is nearly all
            # that is left and it halves with h just as the share does: no
            # refinement meets the share
            raise ToleranceUnreachable("fractional-power quadrature is down to its double rounding floor",
                                      kind="rounding-floor")
        if panels > _MAX_PANELS:
            raise ToleranceUnreachable(f"fractional-power quadrature exceeded {_MAX_PANELS} panels",
                                      kind="panel-cap")
        left, right = _split(coeffs)
        stack.append((right, k + 1))
        stack.append((left, k + 1))
    return BoundInterval(max(Fraction(0), Fraction(lo_sum)), Fraction(hi_sum))


def _root_bits(hi: Fraction, p: Fraction, tol: Fraction) -> int:
    """Bits at which I^(1/p), I <= hi, rounds within about tol/4: the
    root's ceil(log2(hi) / p) above tol's, and a guard sized for the error
    of mpmath's exp(log(I) / p), which grows by about one bit per bit in
    the size of log2 I (measured over I in 2^-70000..2^70000).  The
    integer root that intervals.power takes when 1/p has terms up to
    _MAX_CHECKED_TERM needs no guard; mpmath still roots the others.  At
    least the 128 bits of every other power; past _MAX_ROOT_BITS a root
    takes seconds, so the tolerance is unreachable.
    """
    if p == 1 or hi == 0:  # an exact root
        return DEFAULT_PRECISION_BITS
    # log2 of a positive rational lies within 1 of these integers
    e = hi.numerator.bit_length() - hi.denominator.bit_length()
    t = tol.numerator.bit_length() - tol.denominator.bit_length()
    bits = math.ceil((e + 1) / p) + 1 - t + abs(e).bit_length() + 8
    if bits > _MAX_ROOT_BITS:
        raise ToleranceUnreachable(f"the L^{p} root needs {bits} bits, past {_MAX_ROOT_BITS}", kind="root-bits")
    return max(DEFAULT_PRECISION_BITS, bits)


def _norm_of_poly(kept: Tuple[Fraction, ...], spec: LpSpec, tol: Fraction) -> BoundInterval:
    """Certified L^p norm of P on [0, gamma], width < tol.

    The sup kernel is exact and free of scale, so it takes P's (B, L) as
    they are.  The integral of |P|^p runs at unit scale: with e =
    floor(log2(max|B| / L)), exact from the bit lengths and one integer
    compare, the kernel integrates |P / 2^e|^p (L or B shifted, no
    Fraction divided) for the norm of P / 2^e at tol / 2^e, and the
    enclosure is scaled back by 2^e.  2^k P then feeds the kernels the
    same rationals as P, so its enclosure is 2^k times P's, bit for bit.

    The norm is the root I^(1/p) of an integral enclosure I.  The first
    pass integrates to tol.  When its root out is not narrower than tol,
    a second pass integrates to

        max(p I.lo t / out.hi, min(t^floor(p), t^ceil(p))),   t = tol / 2,

    and the root of its intersection with I is at most t wide, plus the
    root's own rounding at each end (_root_bits):

    * the root's slope on [I.lo, inf) is at most I.lo^(1/p - 1) / p, and
      I.lo^(1 - 1/p) >= I.lo / out.hi, since out.hi >= I.lo^(1/p);
    * by concavity hi^(1/p) - lo^(1/p) <= (hi - lo)^(1/p), and
      min(t^floor(p), t^ceil(p)) <= t^p, which covers I.lo = 0.
    """
    B, L = _bernstein(kept, spec.gamma)
    if spec.is_sup:
        return _sup_abs_on(B, L, tol)
    top = max(map(abs, B))
    if not top:
        return BoundInterval.exact(0)
    e = top.bit_length() - L.bit_length()  # log2(top / L) lies in (e - 1, e + 1)
    if top << max(0, -e) < L << max(0, e):
        e -= 1
    if e > 0:
        L <<= e
    elif e < 0:
        B = [b << -e for b in B]
    scale = Fraction(2) ** e
    if e:  # scaling by 1 would still cost microseconds of Fraction arithmetic
        tol = tol / scale
    p = spec.p

    def integral_to(int_tol: Fraction) -> BoundInterval:
        if p.denominator == 1:
            return _integral_abs_pow_int(B, L, spec.gamma, int(p), int_tol)
        return _integral_abs_pow_frac(B, L, spec.gamma, p, int_tol)

    integral = integral_to(tol)
    out = power(integral, 1 / p, _root_bits(integral.hi, p, tol))
    if out.width >= tol:
        t = tol / 2
        integral = integral.intersect(integral_to(
            max(p * integral.lo * t / out.hi, min(t ** math.floor(p), t ** math.ceil(p)))))
        out = power(integral, 1 / p, _root_bits(integral.hi, p, tol))
        if out.width >= tol:
            raise ToleranceUnreachable(f"the L^{p} root stays wider than its tolerance", kind="root-width")
    return BoundInterval(out.lo * scale, out.hi * scale) if e else out


@lru_cache(maxsize=1024)
def _rho_p_cut(sup_num: int, sup_den: int, gamma_num: int, gamma_den: int,
               inv_p_num: int, inv_p_den: int, tol_num: int, tol_den: int) -> Tuple[int, Fraction]:
    """(n, tail): rho_p's cut of a difference with sup|a_n - b_n| =
    sup_num/sup_den that is not eventually zero, on a window gamma, at
    1/p and tol, each given as its numerator and denominator.  n is the
    least of 9, 17, ... whose tail share gamma^(1/p) * sup * zeta_n(gamma)
    is below tol/4, and the tail is that share.  Steps of 8 overshoot the
    least cutoff, which keeps the slack well under tol/4 and the
    enclosure narrower than the tolerance asks."""
    gamma = Fraction(gamma_num, gamma_den)
    scale = Fraction(sup_num, sup_den) * _gamma_pow(gamma, Fraction(inv_p_num, inv_p_den)).hi

    def tail_at(n: int) -> Fraction:
        return scale * tailmath.zeta(gamma, n).hi

    budget = Fraction(tol_num, 4 * tol_den)
    n = tailmath.least_index(lambda k: tail_at(k) < budget, 9, "the rho_p tail", 8, below=budget)
    return n, tail_at(n)


def rho_p(f: SeriesFn, g: SeriesFn, spec: LpSpec, tol=DEFAULT_TOL) -> BoundInterval:
    """Certified L^p distance of two series functions on a shared window.

    truncate cuts the coefficient difference where the tail's L^p
    share, gamma^(1/p) * sup|a_n - b_n| * zeta_n, falls below tol/4
    (exactly 0 when the difference has finite support); the polynomial
    part's norm comes from _norm_of_poly at tol/2, exact or by certified
    quadrature at unit scale in at most two passes, and the tail widens
    the enclosure by that share on both sides.  The cut and the kernels
    see the same rationals for 2^k (f - g) at 2^k tol as for f - g at tol,
    so that call's enclosure is exactly 2^k times this one's, for every p.
    """
    if f.gamma != g.gamma or f.origin != g.origin:
        raise DomainError("rho_p needs a shared domain (gamma and origin)")
    if f.gamma != spec.gamma:
        raise DomainError(f"LpSpec gamma {spec.gamma} != function gamma {f.gamma}")
    tolq = as_fraction(tol)
    if tolq <= 0:
        raise DomainError("tolerance must be positive")
    d = difference(f.coeffs, g.coeffs)
    kept, tail_slack = finite_support(d), Fraction(0)
    if kept is None:  # coeffspace.truncate's rule, its cut cached
        n, tail_slack = _rho_p_cut(*d.sup_abs().as_integer_ratio(), *spec.gamma.as_integer_ratio(),
                                   *spec.inv_p.as_integer_ratio(), *tolq.as_integer_ratio())
        kept = d.prefix(n)
    try:
        norm = _norm_of_poly(kept, spec, tolq / 2)
    except ToleranceUnreachable as exc:
        # the kernels see a tolerance scaled with P; name the caller's
        raise ToleranceUnreachable(f"rho_p cannot reach tol={brief(tolq)}: {exc}", kind=exc.kind) from exc
    lo = norm.lo - tail_slack
    return BoundInterval(max(Fraction(0), lo), norm.hi + tail_slack)


_RHO1_TERMS = 13


def rho_1_lower_bound(f: SeriesFn, g: SeriesFn) -> Fraction:
    """Cheap certified lower bound on rho_1(f, g), exact arithmetic only.

    The lower end of int |P|, P the first _RHO1_TERMS coefficients of
    the difference (its support, when finite), from the p = 1 sign
    partition refined to slack = gamma * sup|a_n - b_n| * zeta_13(gamma),
    the most the tail can move the integral (positive for any nonzero
    difference), where a root panel with one sign change settles in its
    bracket, exact but for about 2^-44 of the panel; minus that tail
    where there is one.  Lets separation
    checks skip the full quadrature when the bound clears their threshold.
    """
    if f.gamma != g.gamma or f.origin != g.origin:
        raise DomainError("rho_1_lower_bound needs a shared domain")
    d = difference(f.coeffs, g.coeffs)
    sup = d.sup_abs()
    gamma = f.gamma
    slack = gamma * sup * tailmath.zeta(gamma, _RHO1_TERMS).hi
    # an infinite budget makes the cut the first index searched
    kept, tail = truncate(d, lambda n: sup * tailmath.zeta(gamma, n).hi,
                          math.inf, "the rho_1 lower-bound tail", _RHO1_TERMS)
    l1 = _integral_abs_pow_int(*_bernstein(kept, gamma), gamma, 1, slack)
    return max(Fraction(0), l1.lo - gamma * tail)


def series_norm(f: SeriesFn, spec: LpSpec, tol=DEFAULT_TOL) -> BoundInterval:
    """Certified ||f||_p, i.e. rho_p against the zero function."""
    zero = SeriesFn(FiniteSupport(()), f.gamma, f.origin)
    return rho_p(f, zero, spec, tol)


def holder_compare(
    f: SeriesFn, p, q, tol=Fraction(1, 10**6)
) -> Tuple[BoundInterval, BoundInterval]:
    """Certified pair (||f||_p, gamma^(1/p - 1/q) ||f||_q) for p <= q.

    The first component never exceeds the second (norm comparison on a
    finite window); callers assert that at the enclosure level.
    """
    spec_p, spec_q = LpSpec(p, f.gamma), LpSpec(q, f.gamma)
    if spec_p.inv_p < spec_q.inv_p:
        raise DomainError(f"need p <= q, got p={p}, q={q}")
    lhs = series_norm(f, spec_p, tol)
    rhs = series_norm(f, spec_q, tol) * power(f.gamma, spec_p.inv_p - spec_q.inv_p)
    return lhs, rhs


# ---------------------------------------------------------------------------
# continuity recipes (metric-to-metric moduli)


def continuity_delta_l1(gamma, eps) -> Tuple[int, Fraction]:
    """Constructive delta for: rho_1 below delta forces d_E below eps.

    Valid for sequences whose coefficient disagreements have magnitude
    at least 1 (integer alphabets): find N at least the separation index
    with eta_N below eps, and take delta = xi_{N+1}.  An L1 distance
    under delta forces agreement through N, and agreement through N
    bounds d_E by eta_{N+2} < eta_N < eps.
    """
    g = as_fraction(gamma)
    epsq = as_fraction(eps)
    if epsq <= 0:
        raise DomainError("eps must be positive")
    n = tailmath.least_index(
        lambda n: tailmath.eta(n).hi < epsq, tailmath.compute_m_gamma(g), "eta(N)", below=epsq)
    delta = tailmath.xi(g, n + 1).lo
    if delta <= 0:
        raise ToleranceUnreachable("xi lower bound not positive at the default rel_tol",
                                   kind="sign-unresolved")
    return n, delta


def continuity_delta_dE(gamma, eps) -> Tuple[int, Fraction]:
    """Constructive delta for: d_E below delta forces rho_inf below eps.

    Valid for binary sequences (unit coefficient range): find N with
    zeta_N below eps and take delta = 1/(N+1)!.  A d_E distance under
    delta forces agreement through N, and then the sup distance is at
    most zeta_{N+1} < zeta_N < eps.
    """
    g = as_fraction(gamma)
    epsq = as_fraction(eps)
    if epsq <= 0:
        raise DomainError("eps must be positive")
    n = tailmath.least_index(lambda n: tailmath.zeta(g, n).hi < epsq, 1, "zeta(N)", below=epsq)
    return n, Fraction(1, math.factorial(n + 1))
