"""Interval arithmetic with exact rational endpoints.

Everything closed under rational arithmetic (+, -, *, /, integer powers,
absolute value, hulls) is computed exactly: endpoints are
`fractions.Fraction` objects and no rounding happens at all, so an
interval of width zero really is a point.  The one irrational operation
the library needs is a rational power x**(a/b), such as gamma**(1/p),
the root of an L^p integral or a pointwise |P|**p, and it has one
integer root, _root: r = floor(x**(a/b) * 2^B) with r near 2^prec, and
whether r / 2^B is the root itself.  power() takes it at the binary
precision the caller asks for (128 bits unless it needs more) and
returns [r / 2^B, (r + 1) / 2^B], a point when the root is exact.
PowerFn, which serves the fractional-p quadrature with thousands of
powers in doubles per call, takes one root of the exact rational n / d
it is given, at 52 + ceil(m/q) bits for the exponent m/q, and rounds it
to the tightest doubles on either side.  Only exponents with a term
|a| or b past _MAX_CHECKED_TERM (32) reach mpmath, through power(): a
private interval context (the shared mpmath.iv is never touched) whose
endpoints are binary floats of arbitrary exponent and convert back to
Fraction losslessly.  Either way enclosures remain certified.

Directed conversion to machine floats (for JSON output and display)
rounds the lower endpoint down and the upper endpoint up by one ulp
unless the endpoint is exactly representable.  Past the double range
the lower endpoint saturates to -inf or the largest double and the
upper one to +inf or the most negative double.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

import mpmath

from .errors import DomainError, brief

RationalLike = Union[int, Fraction]

DEFAULT_PRECISION_BITS = 128


def as_fraction(value) -> Fraction:
    """Coerce an int/Fraction/float/decimal-string to an exact Fraction.

    Floats are binary rationals and convert exactly; strings go through
    Fraction's parser so "1/3" and "0.25" both work.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not numbers here")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"non-finite value {value!r}")
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational literal: {value!r}") from exc
    raise DomainError(f"cannot interpret {value!r} as an exact rational")


def _float_down(q: Fraction) -> float:
    """Largest double <= q: beyond the double range, +max or -inf."""
    try:
        f = float(q)
    except OverflowError:
        return sys.float_info.max if q > 0 else -math.inf
    return f if Fraction(f) <= q else math.nextafter(f, -math.inf)


def _float_up(q: Fraction) -> float:
    """Least double >= q: beyond the double range, +inf or -max."""
    try:
        f = float(q)
    except OverflowError:
        return math.inf if q > 0 else -sys.float_info.max
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _mpf_to_fraction(raw) -> Fraction:
    """Exact value of an mpmath mpf given its raw (sign, man, exp, bc) tuple."""
    sign, man, exp, _ = raw
    man, exp = int(man), int(exp)
    if sign:
        man = -man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


@dataclass(frozen=True)
class BoundInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if not isinstance(lo, Fraction):
            lo = as_fraction(lo)
            object.__setattr__(self, "lo", lo)
        if not isinstance(hi, Fraction):
            hi = as_fraction(hi)
            object.__setattr__(self, "hi", hi)
        # lo <= hi as one integer cross-multiplication (denominators are positive)
        if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
            raise DomainError(f"inverted interval [{brief(lo)}, {brief(hi)}]")

    # -- constructors ------------------------------------------------

    @classmethod
    def exact(cls, value) -> "BoundInterval":
        q = as_fraction(value)
        return cls(q, q)

    # -- basic queries -----------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def mag(self) -> Fraction:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> Fraction:
        """min |x| over the interval."""
        if self.lo <= 0 <= self.hi:
            return Fraction(0)
        return min(abs(self.lo), abs(self.hi))

    def contains(self, value) -> bool:
        q = as_fraction(value)
        return self.lo <= q <= self.hi

    def encloses(self, other: "BoundInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "BoundInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- arithmetic (exact) ------------------------------------------

    @staticmethod
    def _coerce(other) -> "BoundInterval":
        if isinstance(other, BoundInterval):
            return other
        return BoundInterval.exact(other)

    def __add__(self, other) -> "BoundInterval":
        o = self._coerce(other)
        return BoundInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "BoundInterval":
        return BoundInterval(-self.hi, -self.lo)

    def __sub__(self, other) -> "BoundInterval":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "BoundInterval":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "BoundInterval":
        o = self._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return BoundInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "BoundInterval":
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise DomainError(f"division by an interval containing zero: [{brief(o.lo)}, {brief(o.hi)}]")
        inverses = (1 / o.lo, 1 / o.hi)
        return self * BoundInterval(min(inverses), max(inverses))

    def __rtruediv__(self, other) -> "BoundInterval":
        return self._coerce(other) / self

    def __abs__(self) -> "BoundInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return BoundInterval(Fraction(0), self.mag)

    def __pow__(self, n: int) -> "BoundInterval":
        if not isinstance(n, int):
            raise DomainError("use power() for non-integer exponents")
        if n < 0:
            return 1 / (self ** (-n))
        if n == 0:
            return BoundInterval.exact(1)
        if n % 2 == 1 or self.lo >= 0:
            return BoundInterval(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return BoundInterval(self.hi**n, self.lo**n)
        # even power of a zero-straddling interval
        return BoundInterval(Fraction(0), self.mag**n)

    def hull(self, other: "BoundInterval") -> "BoundInterval":
        return BoundInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "BoundInterval") -> "BoundInterval":
        if not self.intersects(other):
            raise DomainError(f"empty intersection of [{brief(self.lo)}, {brief(self.hi)}] and "
                              f"[{brief(other.lo)}, {brief(other.hi)}]")
        return BoundInterval(max(self.lo, other.lo), min(self.hi, other.hi))

    # -- export --------------------------------------------------------

    def lo_float(self) -> float:
        return _float_down(self.lo)

    def hi_float(self) -> float:
        return _float_up(self.hi)

    def __repr__(self) -> str:
        return f"BoundInterval({self.lo_float()!r}, {self.hi_float()!r})"


# power() sets the precision of this private context only, never that
# of the shared mpmath.iv other code may be using
_IV = mpmath.ctx_iv.MPIntervalContext()


def _to_iv(q: Fraction) -> "mpmath.ctx_iv.ivmpf":
    return _IV.mpf(q.numerator) / _IV.mpf(q.denominator)


def _from_iv(x) -> BoundInterval:
    lo_raw, hi_raw = x._mpi_
    return BoundInterval(_mpf_to_fraction(lo_raw), _mpf_to_fraction(hi_raw))


def _check_base(lo, e: Fraction) -> None:
    if lo < 0:
        raise DomainError("fractional power of a negative-reaching interval")
    if e < 0 and lo == 0:
        raise DomainError("negative fractional power of an interval reaching zero")


def _iroot(x: int, k: int) -> tuple:
    """(floor(x ** (1/k)), whether that is the root itself) for integers
    x >= 0, k >= 1: math.isqrt for k = 2, else integer Newton from above.
    Its first step lands at or above the root from any positive guess
    (AM-GM), and every later one falls strictly until r^k <= x; the guess
    is a double root of x's leading bits, so the first step usually
    lands on the floor."""
    if k == 2:
        r = math.isqrt(x)
        return r, r * r == x
    if x < 2:
        return x, True
    m = max(0, x.bit_length() - 960) // k  # x >> (k m) fits a double
    r = (int(float(x >> (k * m)) ** (1.0 / k)) + 1) << m
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        p = r ** (k - 1)
        rk = p * r
        if rk <= x:
            return r, rk == x
        r = ((k - 1) * r + x // p) // k


def _root(n: int, d: int, a: int, b: int, prec: int) -> tuple:
    """(r, B, exact) with r = floor((n/d) ** (a/b) * 2^B) for integers
    n >= 0, d > 0 (n > 0 when a < 0) and b >= 1, on integers.

    exact says r / 2^B is the root itself.  With n and d swapped for
    a < 0 (a made positive), r = floor((n^a 2^(bB) / d^a)^(1/b)) and the
    root is exact when r^b d^a = n^a 2^(bB).  B = prec - floor(a (bitlen
    n - bitlen d) / b) puts r above 2^(prec - a/b), so prec keeps the
    relative meaning it has for mpmath.
    """
    if n == 0:
        return 0, 0, True
    if a < 0:
        n, d, a = d, n, -a
    B = prec - a * (n.bit_length() - d.bit_length()) // b
    num, den = n**a, d**a
    if B >= 0:
        num <<= b * B
    else:
        den <<= -b * B
    whole, rest = divmod(num, den)
    r, exact = _iroot(whole, b)
    return r, B, exact and rest == 0


def _dyadic(r: int, B: int) -> Fraction:
    """r / 2^B as a Fraction."""
    return Fraction(r, 1 << B) if B >= 0 else Fraction(r << -B)


def _checked_power(x: Fraction, a: int, b: int, prec: int) -> tuple:
    """(lo, hi) rationals enclosing x ** (a/b) for x >= 0 (x > 0 when
    a < 0): r / 2^B from _root at prec bits, and (r + 1) / 2^B unless the
    root is exact, where hi = lo."""
    r, B, exact = _root(x.numerator, x.denominator, a, b, prec)
    lo = _dyadic(r, B)
    return lo, lo if exact else _dyadic(r + 1, B)


def _dyadic_float(r: int, B: int, up: bool) -> float:
    """The largest double <= r / 2^B for an integer r >= 0, or the least
    double >= it when up.

    In the normal range r is cut to its leading 53 bits, rounded in the
    asked direction, and scaled by an exact ldexp; near or past the ends
    of the double range _float_down or _float_up rounds the exact value.
    """
    top = r.bit_length() - B  # r / 2^B lies in [2^(top - 1), 2^top)
    if not -1021 <= top <= 1023:
        return (_float_up if up else _float_down)(_dyadic(r, B))
    s = r.bit_length() - 53
    if s > 0:
        t = r >> s
        if up and t << s != r:
            t += 1
        r, B = t, B - s
    return math.ldexp(r, -B)


def power(base, exponent, prec: int = DEFAULT_PRECISION_BITS) -> BoundInterval:
    """Certified enclosure of base**exponent for rational exponents.

    Integer exponents stay exact.  Non-integer exponents a/b require a
    nonnegative base.  When max(|a|, b) <= _MAX_CHECKED_TERM each end of
    the base takes the integer b-th root _root at about prec bits: a
    floor, one unit above it, and a point where the root is exact.
    Larger terms go through mpmath's interval context at prec bits.
    Either way the endpoints are exact rationals, so no certification
    is lost.
    """
    e = as_fraction(exponent)
    b = base if isinstance(base, BoundInterval) else BoundInterval.exact(base)
    if e.denominator == 1:
        return b ** int(e)
    _check_base(b.lo, e)
    # x |-> x**e is monotone on [0, inf) for either sign of e, so the
    # hull of certified endpoint powers encloses the whole image.
    a, q = e.numerator, e.denominator
    if max(abs(a), q) <= _MAX_CHECKED_TERM:
        at_lo = _checked_power(b.lo, a, q, prec)
        at_hi = at_lo if b.lo == b.hi else _checked_power(b.hi, a, q, prec)
        if a < 0:
            at_lo, at_hi = at_hi, at_lo
        return BoundInterval(at_lo[0], at_hi[1])
    _IV.prec = prec
    ive = _to_iv(e)
    at_lo = _from_iv(_to_iv(b.lo) ** ive)
    at_hi = at_lo if b.width == 0 else _from_iv(_to_iv(b.hi) ** ive)
    out = at_lo.hull(at_hi)
    # x**e with x >= 0 is nonnegative; clamp round-off spill below zero.
    if out.lo < 0:
        out = BoundInterval(Fraction(0), out.hi)
    return out


# A cost limit, not a certification one: the integer root is exact for
# every a/b, but it works on integers of about b * prec bits, and a root
# of degree 10^400 cannot be taken at all.  Exponents with a term past it
# go to mpmath.
_MAX_CHECKED_TERM = 32


class PowerFn:
    """Certified x**e in doubles for one fixed rational exponent e = m/q >= 0.

    Quadrature loops evaluate thousands of powers with the same exponent,
    each of an exact rational x = n / d.  When 0 < m <= _MAX_CHECKED_TERM
    and q <= _MAX_CHECKED_TERM, of_ratio takes one _root at 52 + ceil(m/q)
    bits.  x lies in [2^(L-1), 2^(L+1)) for L = bitlen n - bitlen d, so r
    is at least 2^52.  Then every double near the root is a multiple of
    2^-B, so rounding r / 2^B down and (r + 1) / 2^B up gives the tightest
    doubles.  Any other exponent takes power() at 53 bits, rounded
    outward.
    """

    def __init__(self, exponent):
        self.exponent = as_fraction(exponent)
        if self.exponent < 0:
            raise DomainError("PowerFn takes a nonnegative exponent")
        self._m, self._q = self.exponent.numerator, self.exponent.denominator
        self._checked = 0 < self._m <= _MAX_CHECKED_TERM and self._q <= _MAX_CHECKED_TERM
        self._bits = 52 - (-self._m // self._q)

    def of_ratio(self, n: int, d: int) -> tuple:
        """(the largest double <= (n/d)**e, the least double >= it) for
        integers n >= 0 and d > 0; past the double range the largest
        double and +inf.

        Both are exact on the checked path; the fallback runs at 53 bits
        (double exports cannot resolve more) and rounds its endpoints
        outward, so it may be an ulp wider but is just as certified.
        """
        if n < 0 or d <= 0:
            raise DomainError("PowerFn takes a ratio n / d with n >= 0 and d > 0")
        if self._checked:
            r, B, exact = _root(n, d, self._m, self._q, self._bits)
            return _dyadic_float(r, B, False), _dyadic_float(r if exact else r + 1, B, True)
        out = power(Fraction(n, d), self.exponent, 53)
        return _float_down(out.lo), _float_up(out.hi)
