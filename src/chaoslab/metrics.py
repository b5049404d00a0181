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
value.  Each distance depends on a and b only through a - b, and reads
its kept terms from coeffspace.truncate(a, b, cut, what): when a - b has
finite support they are that support and the tail is exactly 0;
otherwise they are the first n entries, as integer numerators over m,
n and the tail bound from the caller's cut at sup|a_n - b_n| (for a
WordEnumeration over two or more symbols, the bound sup|a_n| + sup|b_n|).
The cuts are tailmath._zeta_cut for the eta and zeta tails of d_E and
rho_p, least_index for d_lambda and the weighted metric, and a fixed 13
terms for rho_1_lower_bound.  The bounds on everything from index n on
are sup|a_n - b_n| * eta_{n+1} (d_E), the weight family's majorant,
2^(1-n) (d_lambda) and, for rho_p, gamma^(1/p) * sup|a_n - b_n| *
zeta_n(gamma).

Two metrics read an eventually periodic a - b without unrolling it,
from coeffspace._difference_parts' numerators of its preamble and period
over m, the lcm of their reduced denominators: d_lambda sums the period
in closed form, exactly; d_E sums its kept terms on integers alone
(_d_E_parts), the numerators dotted with a row of factorial weights
cached per (preamble length, period length, n), in which each period
slot carries the weights of every kept index that repeats it.

The truncated difference D is the polynomial whose scaled Taylor
coefficients are the kept differences a_n - b_n, passed as their
integer numerators over m (its derivative is their shift), and its
exact integer kernels are cached per integer key.  For it:

* p = inf: branch-and-bound for sup|D| on panels of an exact integer
  Bernstein kernel: a panel's largest |coefficient| bounds |D| there,
  its end coefficients are exact values of D, and halving it is integer
  de Casteljau (Garloff 1986; Rouillier & Zimmermann 2004).
* integer p: at p = 1 on a window whose Bernstein coefficients share a
  sign, int |D| is gamma times their mean, exact from their sum.
  Otherwise every integral of D^p is read off one exact integer
  antiderivative of D^p over the whole window, built once per (p, D)
  from the convolution power of D's power-basis coefficients, which the
  Bernstein build hands on (the integers before its binomial
  transform).  Even p takes its value at the window's end, with no sign
  analysis at all.  For odd
  p, the same panels carry the antiderivative's exact values at their
  ends: panels whose Bernstein coefficients share a sign integrate
  exactly; the others, which hold the roots, contribute [|int D^p|, h *
  max|b_j|^p] until refined.  A root panel whose coefficients change
  sign once holds one simple root (Descartes' rule of signs in
  Bernstein form), which exact integer signs of D bracket between
  dyadics: D^p integrates exactly on both sides, and only the bracket,
  about 2^-44 of the panel, keeps width.  Other root panels are halved.
* other p: the same Bernstein panels, refined depth first under one
  budget (a kept panel passes the share it did not use on to the next),
  each with one sixth-order Taylor model of |D|^p (Davis & Rabinowitz
  1984).  Where D is sign-definite it is expanded about the panel's
  midpoint, where the odd moments vanish; where D is monotone across a
  root it writes D = a_0 + (t - t~) Q about a point t~ near the root,
  and |t - t~|^p is integrated against the degree-5 Taylor polynomial of
  |Q|^p in closed-form moments (product integration carried to order
  6).  Miller's recurrence for the powers of a power series
  (_power_taylor) turns the exact integer Taylor coefficients of D into
  those of the power, one integer quotient each.  Every Taylor
  coefficient, at the midpoint or at t~, is a sum over one row of the
  panel's forward-difference table in Bernstein form (Farouki & Rajan
  1988; _taylor), the table whose rows also bound the derivatives.
  Faa di Bruno's formula (_f6_coefficients) gives its sixth derivative,
  bounded on the panel for a remainder that shrinks as h^7 (h^(p+7)
  across a root).  Every model is
  intersected with the crude range-times-width bound, which is all any
  other root panel takes, and which a panel whose remainder alone misses
  its budget takes without building the model.  The derivative bounds
  are read off a panel's coefficients and their differences in
  outward-rounded doubles, and each pointwise power comes from
  intervals.PowerFn as the tightest doubles around one integer root of
  the exact ratio of integers it stands for (mpmath only for exponent
  terms past 32), so no
  uncertified rounding enters.  The double bookkeeping floors the
  reachable tolerance near 1e-14 of the integral.

Both integrals run on D / 2^e, e = floor(log2 of D's largest Bernstein
coefficient), so their doubles never leave the range at any scale of the
coefficients; the tolerance and the enclosure are rescaled by shifting
a numerator or a denominator.  At p = 1 the norm is the integral; at any
other finite p the root's tolerance is met in at most two passes
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
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from . import tailmath
from .coeffspace import (
    BINARY,
    CoeffSeq,
    FiniteSupport,
    SeriesFn,
    _difference_parts,
    truncate,
)
from .errors import DomainError, InfeasibleTolerance, ToleranceUnreachable, brief
from .intervals import DEFAULT_PRECISION_BITS, BoundInterval, PowerFn, as_fraction, power

DEFAULT_TOL = Fraction(1, 10**9)

_MAX_PANELS = 200_000
_MAX_ROOT_BITS = 65_536
_MAX_POWER_DEGREE = 2048


# ---------------------------------------------------------------------------
# Lp specification


@dataclass(frozen=True)
class LpSpec:
    """Which L^p norm, on a window of which length.

    is_sup (p = inf) and inv_p (1/p, with 1/inf = 0) are worked out once,
    on construction, as plain attributes rather than fields, so equality,
    the hash and the repr read (p, gamma) only."""

    p: Union[Fraction, float]
    gamma: Fraction

    def __post_init__(self):
        if isinstance(self.p, float) and math.isinf(self.p) and self.p > 0:
            p, inv_p = math.inf, Fraction(0)
        else:
            p = as_fraction(self.p)
            if p.numerator < p.denominator:
                raise DomainError(f"p must be at least 1, got {brief(p)}")
            inv_p = Fraction(p.denominator, p.numerator)
        gamma = as_fraction(self.gamma)
        if gamma.numerator <= 0:
            raise DomainError("gamma must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "is_sup", p is math.inf)
        object.__setattr__(self, "inv_p", inv_p)

    def gamma_pow_inv_p(self) -> BoundInterval:
        """Certified gamma**(1/p); exact when 1/p is an integer."""
        return _gamma_pow(*self.gamma.as_integer_ratio(), *self.inv_p.as_integer_ratio())


@lru_cache(maxsize=256)
def _gamma_pow(gamma_num: int, gamma_den: int, inv_p_num: int, inv_p_den: int) -> BoundInterval:
    """power(gamma, inv_p), once per pair, each given as its numerator and
    denominator: callers build a new LpSpec per call, and BoundInterval is
    immutable, so the cached value is shared."""
    return power(Fraction(gamma_num, gamma_den), Fraction(inv_p_num, inv_p_den))


# ---------------------------------------------------------------------------
# sequence-space metrics


def _require_binary(s: CoeffSeq, name: str) -> None:
    if not s.in_EF(BINARY):
        raise DomainError(f"{name} must have coefficients in {{0, 1}}")


def d_lambda(x: CoeffSeq, y: CoeffSeq, tol=Fraction(1, 10**12)) -> BoundInterval:
    """Certified d_lambda(x, y) = sum |x_i - y_i| / 2^i on binary sequences.

    Exact (width zero) whenever both arguments have eventually periodic
    tails: a - b as numerators d_i over m with preamble length s and
    period length q sums in closed form to one integer over m 2^s (2^q -
    1).  Otherwise an exact partial sum of the first n terms, one integer
    over 2^(n-1), plus the geometric tail bound 2^(1-n).
    """
    _require_binary(x, "x")
    _require_binary(y, "y")
    tolq = as_fraction(tol)
    if tolq <= 0:
        raise DomainError("tolerance must be positive")
    parts = _difference_parts(x, y)
    if parts is not None:
        pre, per, m = parts
        head = block = 0  # sum |d_i| 2^(s-i) over the preamble, sum |d_r| 2^(q-r) over the period
        for c in pre:
            head = (head + abs(c)) << 1
        for c in per:
            block = (block + abs(c)) << 1
        cycle = (1 << len(per)) - 1  # 2^q - 1
        return BoundInterval.exact(Fraction(cycle * head + block, (m * cycle) << len(pre)))
    tn, td = tolq.as_integer_ratio()

    def cut(*_sup: int) -> Tuple[int, Fraction]:  # binary: 2^(1-n) bounds the tail at any sup
        n = tailmath.least_index(lambda k: 2 * td < tn << k, 4, "the d_lambda tail", 4, below=tolq)
        return n, Fraction(1, 1 << (n - 1))

    nums, _, tail = truncate(x, y, cut, "the d_lambda tail")
    partial = 0  # sum |c_i| 2^(n-1-i); binary, so each c_i is -1, 0 or 1 over m = 1
    for c in nums:
        partial = (partial << 1) + abs(c)
    lo = partial * tail
    return BoundInterval(lo, lo + tail)


_D_E_TOL = Fraction(1, 10**12)  # d_E's default tolerance


@lru_cache(maxsize=1024)
def _d_E_weights(s: int, r: int, n: int) -> Tuple[int, ...]:
    """The weight row of d_E's cut at n of a stream with a preamble of s
    entries and a period of r: n!/(i+1)! for preamble entry i (0 from i =
    n on), then, for each period slot, the sum of n!/(i+1)! over the
    indices i < n that repeat it.  r = 0 reads a prefix of length s = n."""
    w = [0] * (s + r)
    f = 1  # n!/(i+1)!, from i = n - 1 down
    for i in range(n - 1, -1, -1):
        w[i if i < s else s + (i - s) % r] += f
        f *= i + 1
    return tuple(w)


def _d_E_parts(a: CoeffSeq, b: CoeffSeq, tol: Fraction) -> Tuple[int, int, int, int]:
    """(num, den, tail_num, tail_den): d_E(a, b) lies in num/den + [0,
    tail_num/tail_den], none of them reduced.

    The kept terms follow coeffspace.truncate: an eventually-zero a - b
    keeps its support with a tail of 0, any other keeps its first n, n
    and the tail sup * eta_(n+1) from tailmath._zeta_cut at tol/2.  A
    pair with no eventually periodic difference is cut by truncate
    itself.  An eventually periodic a - b, prefix-sweep's hot call, is
    not unrolled: it is read once, as _difference_parts' numerators over
    m (the largest |numerator| is m times the sup), and the kept sum is
    one C-level dot product of their absolute values with _d_E_weights'
    row, in which each period slot carries every kept index that repeats
    it, over m * n!."""
    parts = _difference_parts(a, b)
    if parts is None:
        nums, m, tail = truncate(a, b, lambda sn, sd: tailmath._zeta_cut(
            1, 1, sn, sd, tol.numerator, 2 * tol.denominator, 9, 8, 1), "the d_E tail")
        n = len(nums)
        nums, w = list(map(abs, nums)), _d_E_weights(n, 0, n)
    else:
        pre, per, m = parts
        nums = list(map(abs, pre + per))
        s = len(pre)
        if per == (0,):  # eventually zero: keep the support
            n, tail = s, 0
        else:
            try:
                n, tail = tailmath._zeta_cut(1, 1, max(nums), m, tol.numerator, 2 * tol.denominator, 9, 8, 1)
            except InfeasibleTolerance as exc:
                raise tailmath.index_cap("the d_E tail", exc.budget) from None
        w = _d_E_weights(s, len(per), n)
    return sum(map(operator.mul, nums, w)), m * math.factorial(n), tail.numerator, tail.denominator


def _d_E_interval(num: int, den: int, tail_num: int, tail_den: int) -> BoundInterval:
    """The enclosure [num/den, num/den + tail_num/tail_den] of _d_E_parts."""
    return BoundInterval(Fraction(num, den), Fraction(num * tail_den + tail_num * den, den * tail_den))


def d_E(a: CoeffSeq, b: CoeffSeq, tol=_D_E_TOL) -> BoundInterval:
    """Certified d_E(a, b) = sum |a_n - b_n| / (n+1)!.

    Keeps the difference's finite support, with a tail of exactly 0, or
    else its first n terms, n the least of 9, 17, ... whose tail bound
    sup|a_n - b_n| * eta_{n+1} is below tol/2.  The kept sum is
    one integer numerator over m * n! (_d_E_parts: the coefficients as
    integer numerators over their lcm m, dotted with a cached row of
    factorial weights, the period's folded per slot), so a call builds
    two Fractions, the enclosure's ends.
    """
    tolq = as_fraction(tol)
    if tolq.numerator <= 0:
        raise DomainError("tolerance must be positive")
    return _d_E_interval(*_d_E_parts(a, b, tolq))


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


@lru_cache(maxsize=128)
def _factorial_weight(i: int) -> Fraction:
    """2^i/(i+1)!, built once per index: the weighted metric reads one
    weight per kept index on every call."""
    return Fraction(2**i, math.factorial(i + 1))


# w_i = 2^i/(i+1)! turns the product metric into d_E term by term.
FACTORIAL_WEIGHTS = Weights(
    name="factorial",
    factor=_factorial_weight,
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

    def cut(sup_num: int, sup_den: int) -> Tuple[int, Fraction]:
        sup, budget = Fraction(sup_num, sup_den), tolq / 2

        def tail_at(n: int) -> Fraction:
            tail = weights.tail_majorant(n, sup)
            if tail < 0:
                raise DomainError("tail majorant must be nonnegative")
            return tail

        n = tailmath.least_index(lambda k: tail_at(k) < budget, 8, "the weighted tail", 8, below=budget)
        return n, tail_at(n)

    kept, m, tail = truncate(x, y, cut, "the weighted tail")
    # the kept terms w_i |c_i| / (m 2^i) as integer numerators over one lcm
    terms = []
    for i, c in enumerate(kept):
        w = as_fraction(weights.factor(i))
        terms.append((w.numerator * abs(c), w.denominator << i))
    lcm = math.lcm(*[q for _, q in terms])
    partial = Fraction(sum([t * (lcm // q) for t, q in terms]), lcm * m)
    return BoundInterval(partial, partial + tail)


# ---------------------------------------------------------------------------
# L^p norms of the truncated difference polynomial
#
# _bernstein takes P as integers: m, gamma = g/h and the numerators nums
# of its scaled Taylor coefficients nums_i / m (a kept prefix may end in
# zeros; () is the zero polynomial), as rho_p and rho_1_lower_bound read
# them from coeffspace.truncate.  The kernels take the (B, L) it
# returns; the integer-p kernel takes its delta too.  Each build is
# cached per integer key: rho_p's cut, on the grid 9, 17, ..., mostly
# lands on the same n at every p, so the calls on one pair at one gamma
# and tol mostly share one kernel (109 builds for lp-grid's 840 calls at
# seed 2).
#
# The exact integer Bernstein kernel.  With t = gamma * u, a panel of
# [0, 1] at depth k holds integers B whose B_j / (L * 2^(k n)) are P's
# Bernstein coefficients there: they enclose P on the panel (the convex
# hull property), and the end ones are P's values at the panel's ends.


@lru_cache(maxsize=16)
def _bernstein(m: int, g: int, h: int, *nums: int) -> Tuple[Tuple[int, ...], int, Tuple[int, ...]]:
    """(B, L, delta) for P on [0, gamma]: n! b_j = sum_i C(j, i) (n - i)! a_i
    gamma^i, n the degree of P (0 for zero), so trailing zeros of nums are
    dropped, and m is divided by its gcd with the rest, so the a_i are the
    kept numerators over the lcm of their reduced denominators.  delta
    holds the integers before the binomial transform, the differences of
    B at 0 (B_j = sum_i C(j, i) delta_i), and P(gamma u) = sum_i C(n, i)
    delta_i u^i / L: C(n, i) delta_i is the power basis that
    _taylor(_differences(B, n), 0, 0) would rebuild.  Tuples, since the
    cache shares them."""
    n = max(len(nums) - 1, 0)
    while n and nums[n] == 0:
        n -= 1
    nums = nums[:n + 1] or (0,)
    c = math.gcd(m, *nums)
    if c > 1:
        m //= c
        nums = [x // c for x in nums]
    delta = [x * math.factorial(n - i) * g**i * h ** (n - i) for i, x in enumerate(nums)]
    B = list(delta)
    for r in range(1, n + 1):  # the binomial transform, by Pascal's rule
        for j in range(n, r - 1, -1):
            B[j] += B[j - 1]
    return tuple(B), m * math.factorial(n) * h**n, tuple(delta)


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
    branch-and-bound on the Bernstein panels of (B, L) = _bernstein(m, g,
    h, *nums), with exact bounds in units of 1/L."""
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


def _convolution_power(a: List[int], p: int) -> List[int]:
    """The p-th convolution power c of the integers a (p >= 1): the
    coefficients of (sum_i a_i u^i)^p.  By Kronecker substitution: a sits
    in slots of s bits of one int X, low index first, and c in those of
    X^p.  With n = len(a) - 1 each c_i sums at most (n + 1)^(p-1) products
    of p entries, so |c_i| is below 2^(s - 2) for s = p bitlen(max|a|) +
    (p - 1) bitlen(n) + 2.  Adding 2^(s-1) to every slot makes them all
    nonnegative, and the bytes of the sum read them off in one pass (s
    rounded up to whole bytes).  The first power is a itself."""
    if p == 1:
        return a
    n = len(a) - 1
    size = (p * max(map(abs, a)).bit_length() + (p - 1) * n.bit_length() + 9) // 8
    s = 8 * size
    X = 0
    for b in reversed(a):
        X = (X << s) + b
    slots = p * n + 1
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")
    raw = (X**p + offset).to_bytes(slots * size, "little")
    half = 1 << (s - 1)
    return [int.from_bytes(raw[i:i + size], "little") - half for i in range(0, slots * size, size)]


def _differences(b: List[int], depth: int) -> List[List[int]]:
    """The forward-difference table [b, Delta b, ..., Delta^depth b] of the
    integers b; rows past len(b) - 1 are empty."""
    rows = [b]
    for _ in range(depth):
        rows.append(list(map(operator.sub, rows[-1][1:], rows[-1])))
    return rows


@lru_cache(maxsize=256)
def _binomial_row(n: int, j: int) -> Tuple[int, ...]:
    """C(n, j) C(n - j, i) for i = 0..n - j: the weights of row j in
    _taylor's sum at x~ = 1/2."""
    c = math.comb(n, j)
    return tuple(c * math.comb(n - j, i) for i in range(n - j + 1))


def _taylor(rows: List[List[int]], m: int, s: int) -> List[int]:
    """A_0..A_J, J = min(len(rows) - 1, n), for rows = _differences(b, .)
    with b of length n + 1: the polynomial P with Bernstein coefficients b /
    den on [0, 1] has Taylor coefficients A_j / (den 2^(s n)) about x~ = m
    / 2^s, 0 <= m <= 2^s.  P^(j)(x~) / j! = C(n, j) sum_i Delta^j b_i
    B_(i, n-j)(x~) (Farouki & Rajan 1988), each row summed in Bernstein
    form over the integers m and w = 2^s - m: by Horner's rule, or where
    one term or one weight is left, at an end or the midpoint, directly.
    At x~ = 0 it is the first column times C(n, j), the power basis (the
    inverse of _bernstein's Pascal loop), at x~ = 1 the last column; at
    x~ = 1/2 every m^i w^(k - i) is m^k, and the row's sum is one dot
    product with the cached binomial weights C(n, j) C(k, i), k = n - j."""
    n = len(rows[0]) - 1
    w = (1 << s) - m
    rows = rows[:n + 1]
    if not m or not w:  # x~ = 0 or 1: the row's first or last entry, times w^k or m^k
        end = -1 if m else 0
        return [math.comb(n, j) * row[end] * (w or m) ** (n - j) << (s * j)
                for j, row in enumerate(rows)]
    if m == w:
        return [sum(map(operator.mul, _binomial_row(n, j), row)) << ((s - 1) * (n - j) + s * j)
                for j, row in enumerate(rows)]
    comb = math.comb
    A = []
    for j, row in enumerate(rows):
        k = n - j
        acc, t = row[k], 1  # sum_i C(k, i) m^i w^(k - i) row_i, from the top
        for i in range(k - 1, -1, -1):
            t *= w
            acc = acc * m + comb(k, i) * t * row[i]
        A.append(comb(n, j) * acc << (s * j))
    return A


# A fractional root panel's Taylor point, and the ends of an odd-p
# bracket, lie at m / 2^_GUESS_BITS in the panel: for the Taylor point x~,
# x~ and 1 - x~ are doubles, exactly.
_GUESS_BITS = 53


def _root_guess(rows: List[List[int]]) -> int:
    """m such that m / 2^_GUESS_BITS in [0, 1] is near the root of the
    polynomial with Bernstein coefficients b = rows[0] on [0, 1], rows =
    _differences(b, n) or deeper, which has one simple root there (it is
    monotone, or its nonzero coefficients change sign once): Newton's
    method in doubles, from the chord's root (the middle when both end
    values are 0), on the Taylor coefficients about the panel end nearer
    to it (_taylor at 0 or 1), clamped to [0, 1].  No result rests on its
    accuracy: it sets the width of a fractional root panel's enclosure
    (through a_0), and where an odd-p bracket starts its search."""
    b = rows[0]
    n = len(b) - 1
    flip = 2 * abs(b[0]) > abs(b[n] - b[0])  # nearer the right end: work in 1 - x
    c = _taylor(rows, int(flip), 0)
    if flip:
        c = [-a if j % 2 else a for j, a in enumerate(c)]
        b = b[::-1]
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


# The bracket's widths, in units of 2^-_GUESS_BITS of a panel: the second
# is tried where the first misses the root
_BRACKET_STEPS = (1 << 9, 1 << 33)


def _degree_cap(nums: Sequence[int], p: int) -> None:
    """Refuse |P|^p at integer p when N = n p (p for a constant), n the
    degree of P (nums without trailing zeros; zero passes), is past
    _MAX_POWER_DEGREE: for ones against zero at the default tol, p > 128
    at gamma 1 (n = 16; p = 101 takes 1.0-1.5 s, 127 2.2-3.3 s, on a
    2-core Xeon) and p > 85 at gamma 2 (n = 24)."""
    n = next((i for i in range(len(nums) - 1, -1, -1) if nums[i]), None)
    if n is not None and max(n * p, p) > _MAX_POWER_DEGREE:
        raise ToleranceUnreachable(f"|P|^{brief(p)} has degree {brief(n * p)}, "
                                   f"past the budget {_MAX_POWER_DEGREE}",
                                   kind="degree-cap")


@lru_cache(maxsize=16)
def _antiderivative(p: int, *delta: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(a, e) of _integral_abs_pow_int for P^p, P handed on as _bernstein's
    delta: the power basis a_i = C(n, i) delta_i and, with N = n p, e_i =
    (N + 1)! / (i + 1) times the i-th entry of the p-th convolution power
    of a.  Built once per integer key: the calls at two tolerances on one
    kernel share it."""
    n = len(delta) - 1
    full = math.factorial(n * p + 1)
    a = [math.comb(n, i) * d for i, d in enumerate(delta)]
    return tuple(a), tuple([c * (full // (i + 1)) for i, c in enumerate(_convolution_power(a, p))])


def _integral_abs_pow_int(B: Sequence[int], L: int, delta: Sequence[int], gamma: Fraction, p: int,
                          tol: Fraction) -> BoundInterval:
    """Certified enclosure of int_0^gamma |P|^p dt for integer p >= 1, width
    < tol, on the Bernstein panels of (B, L, delta) = _bernstein(m, g, h,
    *nums).

    At p = 1 on a window whose b share a sign, int_0^gamma |P| dt is
    gamma |sum_j b_j| / ((n + 1) L) exactly (the mean of the Bernstein
    coefficients), and nothing else is built.  Otherwise, in the window's
    variable u = t / gamma, P = sum_i a_i u^i / L with a_i = C(n, i)
    delta_i, the power basis from _bernstein's own build, and with N = p
    n, (N + 1)! L^p int_0^u P^p =
    sum_i e_i u^(i+1), e_i = (N + 1)! / (i + 1) times the i-th entry of
    the p-th convolution power of a.  Every integral is read off this one
    exact antiderivative, built once per (p, delta) (_antiderivative): at
    u = M / 2^T it is A(M, T) / 2^(T (N + 1)) with the integer A(M, T) =
    M _horner(e, M, T).
    Even p takes the whole window, A(1, 0) = sum(e), with no sign
    analysis at all.

    For odd p, |P|^p = sign(P) P^p.  A panel at depth k, u in [j, j + 1] /
    2^k of width h = gamma / 2^k, holds b_0..b_n over D = L * 2^(kn) and
    its exact ends A(j, k) and A(j + 1, k); halving it evaluates A once,
    at the midpoint, since A(2j, k + 1) = 2^(N + 1) A(j, k).  A panel whose
    b share a sign integrates exactly, and a root panel contributes
    [|int P^p|, h * max|b_j|^p / D^p], the panel with the most slack going
    first until the slacks sum below tol.  A popped root panel whose
    nonzero b change sign once holds exactly one root, a simple one
    (Descartes' rule of signs in Bernstein form; Rouillier & Zimmermann
    2004).  bracket() brackets it between dyadics x_lo <= x_hi, integers
    over 2^_GUESS_BITS in the panel: P(x) has the sign of the first
    nonzero b for x < r and the other one for x > r, so one exact integer
    sign of P (_horner on a) puts x on its side of r, or at r when it is
    0.  From _root_guess's point x~, which is only a start, x~ and then x~
    +- each of _BRACKET_STEPS toward r narrow [0, 1] around r until its
    width is at most the step.  The panel then takes [E, E + h (x_hi -
    x_lo) max|b_j|^p / D^p], E the sum of |int P^p dt| over its parts
    before x_lo and after x_hi, from A at x_lo, x_hi and the stored ends.
    A root hit exactly gives x_lo = x_hi and no slack.  Any other popped
    root panel, and one popped again after its bracket, is halved.

    The work grows as N^2 times the integers' size, which grows with p,
    so callers read _degree_cap before they build (B, L, delta) or
    (a, e).
    """
    n = len(B) - 1
    N = n * p
    gn = gamma.numerator
    if p == 1 and (min(B) >= 0 or max(B) <= 0):
        return BoundInterval.exact(Fraction(gn * abs(sum(B)), gamma.denominator * (n + 1) * L))
    full = math.factorial(N + 1)
    a, e = _antiderivative(p, *delta)

    def A(M: int, T: int) -> int:
        return M * _horner(e, M, T)

    # an integral A / 2^(T (N + 1)) is gn * A / (den << T (N + 1))
    den = gamma.denominator * full * L**p
    if p % 2 == 0:
        return BoundInterval.exact(Fraction(gn * sum(e), den))
    settled = pending = Fraction(0)
    heap: List[tuple] = []
    panels = 0
    census = _census

    def classify(coeffs: List[int], k: int, j: int, ends: Tuple[int, int]):
        nonlocal settled, pending, panels
        panels += 1
        unit = den << (k * (N + 1))
        S = abs(ends[1] - ends[0])
        lower = Fraction(S * gn, unit)
        if min(coeffs) >= 0 or max(coeffs) <= 0:
            settled += lower
            return
        slack = Fraction((max(map(abs, coeffs)) ** p * full - S) * gn, unit)
        pending += slack
        heapq.heappush(heap, (-slack, panels, coeffs, k, j, ends, lower, False))

    def bracket(coeffs: List[int], k: int, j: int, ends: Tuple[int, int]) -> Optional[Tuple[int, int]]:
        """(E, x_hi - x_lo) with E over 2^((_GUESS_BITS + k)(N + 1)), or
        None when no bracket is found."""
        T = _GUESS_BITS + k
        base = j << _GUESS_BITS
        first = next(b for b in coeffs if b) > 0
        lo, hi = 0, 1 << _GUESS_BITS

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

        m = _root_guess(_differences(coeffs, n))
        probe(m)
        for step in _BRACKET_STEPS:
            probe(m + step if lo >= m else m - step)
            if hi - lo <= step:
                break
        else:
            return None
        start, end = (x << (_GUESS_BITS * (N + 1)) for x in ends)
        at_lo = A(base + lo, T)
        at_hi = at_lo if hi == lo else A(base + hi, T)
        return abs(at_lo - start) + abs(end - at_hi), hi - lo

    classify(B, 0, 0, (0, sum(e)))
    while heap and pending >= tol:
        neg_slack, key, coeffs, k, j, ends, _, bracketed = heapq.heappop(heap)
        pending += neg_slack
        if not bracketed and _sign_changes(coeffs) == 1:
            got = bracket(coeffs, k, j, ends)
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
                heapq.heappush(heap, (-slack, key, coeffs, k, j, ends, lower, True))
                continue
        if census is not None:
            census["int-split"] += 1
        left, right = _split(coeffs)
        M = 2 * j + 1
        mid = A(M, k + 1)
        classify(left, k + 1, 2 * j, (ends[0] << (N + 1), mid))
        classify(right, k + 1, M, (mid, ends[1] << (N + 1)))
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
# with R_j = h^j Q^(j) / Q, h^k (Q^p)^(k) = Q^p F_k(R_1, ..., R_k), and by
# Faa di Bruno's formula (Comtet 1974), with (p)_m = p (p - 1) ... (p - m + 1),
#
#     F_k / k! = sum over e_1 + 2 e_2 + ... + k e_k = k of
#                (p)_m prod_j R_j^(e_j) / ((j!)^(e_j) e_j!),  m = sum_j e_j,
#
# one monomial per partition of k; these are F_6's, as exponents of
# R_1 ... R_6.
_F6_MONOMIALS = (
    (6, 0, 0, 0, 0, 0), (4, 1, 0, 0, 0, 0), (3, 0, 1, 0, 0, 0), (2, 2, 0, 0, 0, 0),
    (2, 0, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0), (0, 3, 0, 0, 0, 0),
    (0, 1, 0, 1, 0, 0), (0, 0, 2, 0, 0, 0), (0, 0, 0, 0, 0, 1),
)


def _f6_coefficients(p: Fraction) -> List[Fraction]:
    """F_6's coefficients over 6!, exact, in the order of _F6_MONOMIALS."""
    falling = [Fraction(1)]
    for m in range(6):
        falling.append(falling[-1] * (p - m))
    return [falling[sum(e)] / math.prod(math.factorial(j) ** x * math.factorial(x)
                                        for j, x in enumerate(e, 1))
            for e in _F6_MONOMIALS]


def _power_taylor(T: Sequence[int], p: Fraction, K: int) -> List[int]:
    """N_0..N_K, integers: for Q with the integer Taylor coefficients T
    about x~, T_0 != 0, and p = a/c, F_k(R) / k! = N_k / (c^k k! T_0^k) is
    the k-th Taylor coefficient of (Q / T_0)^p.  J. C. P. Miller's
    recurrence for the powers of a power series (Knuth, TAOCP Vol. 2,
    4.7), cleared of its denominators: N_0 = 1 and

        N_k = sum_(j=1..k) ((a + c) j - c k) T_j N_(k-j) c^(j-1) T_0^(j-1) (k-1)!/(k-j)!,

    T_j = 0 past the end of T."""
    a, c = p.numerator, p.denominator
    T = list(T[:K + 1]) + [0] * (K + 1 - len(T))
    N = [1]
    for k in range(1, K + 1):
        total, w = 0, 1  # w = c^(j-1) T_0^(j-1) (k-1)!/(k-j)!
        for j in range(1, k + 1):
            total += ((a + c) * j - c * k) * T[j] * N[k - j] * w
            w *= c * T[0] * (k - j)
        N.append(total)
    return N


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


# The split census: None, or the Counter that count_splits yields.
_census: Optional[Counter] = None


@contextlib.contextmanager
def count_splits() -> Iterator[Counter]:
    """Count the L^p kernels' work inside the block, by kind.  The
    fractional-p quadrature's splits go by the bound that left the split
    panel too wide: "taylor" (the Taylor model on a sign-definite panel),
    "crude" (a sign-definite panel whose model's remainder alone was too
    wide, or whose model the crude bound beat), "root-taylor" (a monotone
    root panel after its Taylor model), "root-crude" (a monotone root
    panel whose model's remainder alone was too wide) and "nonmonotone"
    (any other root panel).  A panel split on its remainder alone builds
    no Taylor model.  The odd-p sign partition
    counts "int-split" for a halved root panel and "int-bracket" for one
    settled around its bracketed root.

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


# The sign-definite panels' moments M_0..M_6 about 1/2: the odd ones vanish.
_HALF_MOMENTS = ((1.0, 1.0), None, _fc(Fraction(1, 12)), None, _fc(Fraction(1, 80)), None,
                 _fc(Fraction(1, 448)))


@lru_cache(maxsize=128)
def _frac_tables(p_num: int, p_den: int, n: int) -> tuple:
    """What _integral_abs_pow_frac needs of p = p_num/p_den and the degree n alone:
    PowerFn of p, p + 1 and p - 1; n!/(n-j)! for j < 8; c^k k! for k < 6,
    p = a/c; F_6 / 6!'s coefficients, outward in doubles; the root panels'
    1 / (p + k + 1) for k <= 6, p's upper double, and their least M_6 (at
    x~ = 1/2) times 1 - 2^-20, a margin for the rounding of the test that
    uses it.  Q's Taylor coefficients need no table: _taylor sums them off
    each panel's difference rows."""
    p = Fraction(p_num, p_den)
    c = p_den
    pw1 = PowerFn(p + 1)
    inv_moment = tuple(_fc(1 / (p + k + 1)) for k in range(7))
    return (PowerFn(p), pw1, PowerFn(p - 1),
            tuple(math.perm(n, j) for j in range(8)),
            tuple(c**k * math.factorial(k) for k in range(6)),
            tuple(_fc(x) for x in _f6_coefficients(p)),
            inv_moment, _fc(p)[1],
            math.ldexp(pw1.of_ratio(1, 2)[0], -5) * inv_moment[6][0] * (1 - 2**-20))


def _integral_abs_pow_frac(B: List[int], L: int, gamma: Fraction, p: Fraction,
                           tol: Fraction) -> BoundInterval:
    """Certified enclosure of int_0^gamma |P|^p dt for fractional p > 1 on
    the Bernstein panels of (B, L) = _bernstein(m, g, h, *nums), B not all 0.

    A panel of width h at depth k, in its variable x in [0, 1], holds
    integers b over den = L * 2^(kn): they bound P, n!/(n-j)! times their
    j-th differences bound the j-th derivative in x (h^j P^(j)), and b_0
    and b_n are P's exact values at the ends.  A panel builds its
    difference rows once (_differences), and reads both the bounds and
    its exact Taylor coefficients off them (_taylor).  Every panel where P is
    sign-definite, or monotone across one simple root, takes one
    sixth-order Taylor model (Davis & Rabinowitz 1984).  About a point x~,
    with a weight w >= 0 and g = |Q|^p for a Q without a root on the
    panel, int_0^1 w g dx lies in

        g(x~) sum_(k < 6) F_k(R) / k! M_k + range(g) F_6(R') / 6! M_6,

    M_k = int_0^1 w(x) (x - x~)^k dx, where g^(k) = g F_k(R_1, ..., R_k)
    with R_j = Q^(j) / Q.  At x~, F_k(R) / k! is the k-th Taylor
    coefficient of (Q / T_0)^p for Q's Taylor coefficients T_j there,
    integers over one denominator; for p = a/c _power_taylor gives it as
    N_k / (c^k k! T_0^k), one integer quotient, rounded once.  In the
    remainder R' holds enclosures of the R_j over the panel, and g^(6) / 6!
    times (x - x~)^6 >= 0 integrates to within range(g) F_6(R') / 6! M_6,
    F_6 / 6! from _f6_coefficients, evaluated by _f6_at.  The two kinds of panel
    differ only in Q, x~, w and R':

    * sign-definite: Q = |P| (the b negated when P < 0), x~ = 1/2 and
      w = 1, so the odd moments vanish and M_0, M_2, M_4, M_6 are 1, 1/12,
      1/80 and 1/448.  T_j = C(n, j) 2^j sum_i C(n - j, i) Delta^j b_i over
      den 2^n, _taylor at 1/2 on rows 0-4; R'_j is n!/(n-j)! times the j-th
      differences over the b themselves, free of scale; and range(g) comes
      from the least and largest b.
    * a root panel whose first differences share one strict sign, so that
      P is monotone with exactly one simple root: about a dyadic x~ near
      the root (_root_guess, Newton in doubles, needing no certificate),
      P(x) = a_0 + (x - x~) Q(x), with a_0..a_6 read exactly off rows 0-6
      (_taylor at x~), so Q = P[x~, x] has T_j = a_(j+1) and no root on
      the panel.  w = |x - x~|^p, whose
      moments are ((1 - x~)^(p+k+1) + (-1)^k x~^(p+k+1)) / (p+k+1); R'_j
      lies in the range of P^(j+1) / (j + 1) over that of P', and range(g)
      is that of |P'|^p, all from the difference rows 1-7; and |P|^p -
      |P - a_0|^p is within p (sup|P| + |a_0|)^(p-1) |a_0|.  The
      remainder shrinks as h^(p+7); its order-0 case is product
      integration, |P| = |P'(xi)| |x - r|.

    Every panel also has the crude bound h * range(|P|^p), which shrinks
    superlinearly at a root since |P|^p is tiny there; it is all that any
    other root panel takes, and a model is intersected with it.  A root
    panel's model counts as all remainder, like the crude bound.  A panel
    holds a root unless its b share one strict sign, an integer test, and
    is monotone when its first differences do; only then does it build the
    rest of its table.

    Both kinds work out the remainder first: it needs no Taylor
    coefficients, no g(x~) and no root search, and a panel whose
    remainder times its least M_6 and h alone exceeds its budget has no
    model that meets it, so it takes the crude bound at once ("crude" or
    "root-crude" for count_splits) and splits unless that bound meets the
    budget.  What depends only on p and n (the PowerFns, the tables of
    factorials and moments, and F_6 / 6!'s coefficients) comes from
    _frac_tables, built once per (p, n).

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
    pw, pw1, pw_less, falling, kden, f6, inv_moment, p_hi, m6_least = _frac_tables(*p.as_integer_ratio(), n)

    def remainder(g_range: tuple, r: List[tuple]) -> Tuple[float, float]:
        """range(g) F_6(R') / 6!, R'_j in r[j - 1]."""
        return _fi_mul(g_range, _f6_at(f6, *r))

    def model(T: List[int], den: int, moments: List[Optional[tuple]], rem: tuple) -> Tuple[float, float]:
        """g(x~) sum_k F_k(R) / k! M_k + rem M_6, over the k < 6 whose M_k
        in moments is not None, for Q's Taylor coefficients T / den
        about x~, T_0 > 0."""
        N = _power_taylor(T, p, 4 if moments[5] is None else 5)
        total = moments[0]
        for k in range(1, len(N)):
            if moments[k] is None:
                continue
            try:
                fk = _fi(N[k], N[k], kden[k] * T[0] ** k)
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

    def root_taylor(rows: List[List[int]], den: int, h: tuple, budget: float,
                    crude: tuple) -> Tuple[tuple, str]:
        """(enclosure, kind) on a panel whose difference table rows
        (max(n, 7) deep) has a first row of one strict sign, by the Taylor
        model across its one root; kind "root-crude" when the model's
        remainder alone is wider than the panel's budget, and the crude
        bound stands."""
        if rows[1][0] < 0:  # |P|^p = |-P|^p: take P increasing
            rows = [[-b for b in row] for row in rows]
        coeffs = rows[0]
        spans = [(min(row, default=0), max(row, default=0)) for row in rows[1:8]]
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
        m = _root_guess(rows)
        A = _taylor(rows[:7], m, _GUESS_BITS)
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
            first = list(map(operator.sub, coeffs[1:], coeffs))
            if not (min(first) > 0 or max(first) < 0):
                return crude + (math.inf, "nonmonotone")
            rows = [coeffs, *_differences(first, max(n, 7) - 1)]
            crude, kind = root_taylor(rows, den, h, budget, crude)
            return crude + (math.inf, kind)
        if bmax < 0:  # Q's coefficients
            coeffs = [-b for b in coeffs]
            bmin, bmax = -bmax, -bmin
        rows = _differences(coeffs, 6)
        spans = [(min(row, default=0), max(row, default=0)) for row in rows[1:]]
        sap = (pw.of_ratio(bmin, den)[0], pw.of_ratio(bmax, den)[1])
        crude = _fi_mul(sap, h)
        # R'_j: n!/(n-j)! times the j-th differences over the coefficients
        # themselves, free of scale; past the degree it is 0
        rem = remainder(sap, [_fi(f * lo, f * hi, bmin, bmax) for f, (lo, hi) in zip(falling[1:], spans)])
        if (rem[1] - rem[0]) * _HALF_MOMENTS[6][0] * h[0] > budget:
            return (max(0.0, crude[0]), crude[1], math.inf, "crude")
        T = _taylor(rows[:5], 1, 1)  # about the midpoint, over den 2^n
        lo, hi, modelled = clip(model(T, den << n, _HALF_MOMENTS, rem), h, crude)
        if not modelled:  # the crude bound binds
            return (lo, hi, math.inf, "crude")
        return (lo, hi, (rem[1] - rem[0]) * _HALF_MOMENTS[6][1] * h[1], "taylor")

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
    takes seconds, so the tolerance is unreachable.  For p > 1 only:
    _norm_of_poly takes no root at p = 1.
    """
    if hi == 0:  # an exact root
        return DEFAULT_PRECISION_BITS
    # log2 of a positive rational lies within 1 of these integers
    e = hi.numerator.bit_length() - hi.denominator.bit_length()
    t = tol.numerator.bit_length() - tol.denominator.bit_length()
    # ceil((e + 1) / p), p = a / c
    bits = -(-(e + 1) * p.denominator // p.numerator) + 1 - t + abs(e).bit_length() + 8
    if bits > _MAX_ROOT_BITS:
        raise ToleranceUnreachable(f"the L^{brief(p)} root needs {brief(bits)} bits, past {_MAX_ROOT_BITS}",
                                   kind="root-bits")
    return max(DEFAULT_PRECISION_BITS, bits)


def _times_pow2(q: Fraction, e: int) -> Fraction:
    """q * 2^e, by shifting q's numerator (e > 0) or denominator (e < 0)."""
    if e > 0:
        return Fraction(q.numerator << e, q.denominator)
    return Fraction(q.numerator, q.denominator << -e)


def _norm_of_poly(nums: Sequence[int], m: int, spec: LpSpec, tol: Fraction) -> BoundInterval:
    """Certified L^p norm of P on [0, gamma], width < tol, P's scaled
    Taylor coefficients nums_i / m.

    The sup kernel is exact and free of scale, so it takes P's (B, L) as
    they are.  The integral of |P|^p runs at unit scale: with e =
    floor(log2(max|B| / L)), exact from the bit lengths and one integer
    compare, the kernel integrates |P / 2^e|^p (L, or B and delta, shifted)
    for the norm of P / 2^e at tol / 2^e, and the enclosure is scaled back
    by 2^e; both rescalings shift a numerator or a denominator, so no
    Fraction is divided.  2^k P then feeds the kernels the same rationals
    as P, so its enclosure is 2^k times P's, bit for bit.

    At p = 1 the norm is the integral enclosure itself.  Otherwise it is
    the root I^(1/p) of an integral enclosure I.  The first pass
    integrates to tol.  When its root out is not narrower than tol, a
    second pass integrates to

        max(p I.lo t / out.hi, min(t^floor(p), t^ceil(p))),   t = tol / 2,

    and the root of its intersection with I is at most t wide, plus the
    root's own rounding at each end (_root_bits):

    * the root's slope on [I.lo, inf) is at most I.lo^(1/p - 1) / p, and
      I.lo^(1 - 1/p) >= I.lo / out.hi, since out.hi >= I.lo^(1/p);
    * by concavity hi^(1/p) - lo^(1/p) <= (hi - lo)^(1/p), and
      min(t^floor(p), t^ceil(p)) <= t^p, which covers I.lo = 0.
    """
    p = spec.p
    if not spec.is_sup and p.denominator == 1:
        _degree_cap(nums, p.numerator)
    B, L, delta = _bernstein(m, *spec.gamma.as_integer_ratio(), *nums)
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
        delta = [d << -e for d in delta]
    if e:  # scaling by 1 would still cost a Fraction build
        tol = _times_pow2(tol, -e)

    def integral_to(int_tol: Fraction) -> BoundInterval:
        if p.denominator == 1:
            return _integral_abs_pow_int(B, L, delta, spec.gamma, p.numerator, int_tol)
        return _integral_abs_pow_frac(B, L, spec.gamma, p, int_tol)

    integral = integral_to(tol)
    if p == 1:
        out = integral
    else:
        out = power(integral, spec.inv_p, _root_bits(integral.hi, p, tol))
        if out.width >= tol:
            t = tol / 2
            integral = integral.intersect(integral_to(
                max(p * integral.lo * t / out.hi, min(t ** math.floor(p), t ** math.ceil(p)))))
            out = power(integral, spec.inv_p, _root_bits(integral.hi, p, tol))
            if out.width >= tol:
                raise ToleranceUnreachable(f"the L^{brief(p)} root stays wider than its tolerance",
                                           kind="root-width")
    return BoundInterval(_times_pow2(out.lo, e), _times_pow2(out.hi, e)) if e else out


def rho_p(f: SeriesFn, g: SeriesFn, spec: LpSpec, tol=DEFAULT_TOL) -> BoundInterval:
    """Certified L^p distance of two series functions on a shared window.

    truncate cuts the coefficient difference at the first of 9, 17, ...
    where the tail's L^p share, gamma^(1/p) * sup|a_n - b_n| * zeta_n,
    falls below tol/4 (steps of 8 overshoot the least cutoff, which keeps
    the slack well under tol/4), exactly 0 when the difference has finite
    support; the polynomial part's norm comes from _norm_of_poly at
    tol/2, exact or by certified quadrature at unit scale in at most two
    passes, and the tail widens the enclosure by that share on both sides
    (a tail of exactly 0 leaves the norm as it is).  The cut and the
    kernels see the same rationals for 2^k (f - g) at 2^k tol as for f - g
    at tol, so that call's enclosure is exactly 2^k times this one's, for
    every p.
    """
    if f.gamma != g.gamma or f.origin != g.origin:
        raise DomainError("rho_p needs a shared domain (gamma and origin)")
    if f.gamma != spec.gamma:
        raise DomainError(f"LpSpec gamma {brief(spec.gamma)} != function gamma {brief(f.gamma)}")
    tolq = as_fraction(tol)
    if tolq.numerator <= 0:
        raise DomainError("tolerance must be positive")

    def cut(sup_num: int, sup_den: int) -> Tuple[int, Fraction]:
        # gamma^(1/p) only here: a finite difference takes no root
        gn, gd = spec.gamma_pow_inv_p().hi.as_integer_ratio()
        return tailmath._zeta_cut(*spec.gamma.as_integer_ratio(), sup_num * gn, sup_den * gd,
                                  tolq.numerator, 4 * tolq.denominator, 9, 8, 0)

    nums, m, tail_slack = truncate(f.coeffs, g.coeffs, cut, "the rho_p tail")
    try:
        norm = _norm_of_poly(nums, m, spec, _times_pow2(tolq, -1))
    except ToleranceUnreachable as exc:
        # the kernels see a tolerance scaled with P; name the caller's
        raise ToleranceUnreachable(f"rho_p cannot reach tol={brief(tolq)}: {exc}", kind=exc.kind) from exc
    if not tail_slack:  # the tail is exactly 0, and every norm's lo is at least 0
        return norm
    return BoundInterval(max(Fraction(0), norm.lo - tail_slack), norm.hi + tail_slack)


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
    gamma = f.gamma
    term = gamma * tailmath.zeta(gamma, _RHO1_TERMS).hi  # the slack per unit of sup
    nums, m, tail = truncate(f.coeffs, g.coeffs, lambda sn, sd: (_RHO1_TERMS, term * Fraction(sn, sd)),
                             "the rho_1 lower bound")
    # a finite difference has no tail, but its sup still sets the slack
    slack = tail or term * Fraction(max(map(abs, nums), default=0), m)
    _degree_cap(nums, 1)
    l1 = _integral_abs_pow_int(*_bernstein(m, *gamma.as_integer_ratio(), *nums), gamma, 1, slack)
    return max(Fraction(0), l1.lo - tail)


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
        raise DomainError(f"need p <= q, got p={brief(spec_p.p)}, q={brief(spec_q.p)}")
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
    n, _ = tailmath.zeta_index(1, 1, epsq, "eta(N)", start=tailmath.compute_m_gamma(g))
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
    n, _ = tailmath.zeta_index(g, 1, epsq, "zeta(N)", start=1)
    return n, Fraction(1, math.factorial(n + 1))
