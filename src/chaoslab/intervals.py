"""Interval arithmetic with exact rational endpoints.

Everything closed under rational arithmetic (+, -, *, /, integer powers,
absolute value, hulls) is computed exactly: endpoints are
`fractions.Fraction` objects and no rounding happens at all, so an
interval of width zero really is a point.  The one irrational operation
the library needs is a rational power x**(a/b), such as gamma**(1/p) or
the root of an L^p integral, at the binary precision the caller asks for
(128 bits unless it needs more).  power() takes it on integers when
|a| and b are at most _MAX_CHECKED_TERM: a floor of an integer b-th root,
one unit above it, and a point when the root is exact.  Larger terms are
delegated to a private mpmath interval context (the shared mpmath.iv is
never touched); mpmath endpoints are binary floats of arbitrary exponent
and convert back to Fraction losslessly.  Either way enclosures remain
certified.

PowerFn serves the fractional-p quadrature, which needs x**(m/q) in
doubles thousands of times per call.  For small m and q it needs no
mpmath: it takes a double guess and certifies each end by an exact
integer compare of y**q against x**m, returning the tightest directed
doubles.  Other exponents go through the same mpmath context at 53 bits.

Directed conversion to machine floats (for JSON output and display)
rounds the lower endpoint down and the upper endpoint up by one ulp
unless the endpoint is exactly representable.  Past the double range
the lower endpoint saturates to -inf or the largest double and the
upper one to +inf or the most negative double.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Union

import mpmath

from .errors import DomainError

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
            raise DomainError(f"inverted interval [{lo}, {hi}]")

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
            raise DomainError(f"division by an interval containing zero: {o}")
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
            raise DomainError(f"empty intersection of {self} and {other}")
        return BoundInterval(max(self.lo, other.lo), min(self.hi, other.hi))

    # -- export --------------------------------------------------------

    def lo_float(self) -> float:
        return _float_down(self.lo)

    def hi_float(self) -> float:
        return _float_up(self.hi)

    def __repr__(self) -> str:
        return f"BoundInterval({self.lo_float()!r}, {self.hi_float()!r})"


# power() and PowerFn set the precision of this private context only,
# never that of the shared mpmath.iv other code may be using
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


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for integers x >= 0, k >= 2: math.isqrt for k = 2,
    else integer Newton from above.  Its first step lands at or above the
    root from any positive guess (AM-GM), and every later one falls
    strictly until the root is reached; the guess is a double root of x's
    leading bits, so few steps remain."""
    if k == 2:
        return math.isqrt(x)
    if x < 2:
        return x
    m = max(0, x.bit_length() - 960) // k  # x >> (k m) fits a double
    r = (int(float(x >> (k * m)) ** (1.0 / k)) + 1) << m
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        nxt = ((k - 1) * r + x // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def _checked_power(x: Fraction, a: int, b: int, prec: int) -> tuple:
    """(lo, hi) rationals enclosing x ** (a/b) for x >= 0 (x > 0 when
    a < 0), on integers.

    With x = n/d (n and d swapped for a < 0, a made positive), lo is
    r / 2^B, r = floor((n^a 2^(bB) / d^a)^(1/b)), and hi is (r + 1) / 2^B
    unless r^b d^a = n^a 2^(bB), where the root is exact and hi = lo.
    B = prec - floor(a (bitlen n - bitlen d) / b) puts r near 2^prec, so
    prec keeps the relative meaning it has for mpmath.
    """
    n, d = x.numerator, x.denominator
    if n == 0:
        return x, x
    if a < 0:
        n, d, a = d, n, -a
    B = prec - a * (n.bit_length() - d.bit_length()) // b
    num, den = n**a, d**a
    if B >= 0:
        num <<= b * B
    else:
        den <<= -b * B
    r = _iroot(num // den, b)
    exact = r**b * den == num
    if B >= 0:
        lo = Fraction(r, 1 << B)
        return lo, lo if exact else Fraction(r + 1, 1 << B)
    lo = Fraction(r << -B)
    return lo, lo if exact else Fraction((r + 1) << -B)


def power(base, exponent, prec: int = DEFAULT_PRECISION_BITS) -> BoundInterval:
    """Certified enclosure of base**exponent for rational exponents.

    Integer exponents stay exact.  Non-integer exponents a/b require a
    nonnegative base.  When max(|a|, b) <= _MAX_CHECKED_TERM each end of
    the base takes an integer b-th root at about prec bits
    (_checked_power): a floor, one unit above it, and a point where the
    root is exact.  Larger terms go through mpmath's interval context at
    prec bits.  Either way the endpoints are exact rationals, so no
    certification is lost.
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


# A cost limit, not a certification one: the integer compare is exact for
# every m/q, but its integers grow as 53 max(m, q) bits and a non-dyadic
# m/q makes the double guess less accurate.  For x from 1e-8 to 1e8 the
# integer path beat the mpmath one at 32/31 and was level at 48/47.
# power() keeps the same limit: its root works on integers of about
# b * prec bits, and a root of degree 10^400 cannot be taken at all.
_MAX_CHECKED_TERM = 32
# PowerFn's checked path works on the bit patterns of nonnegative doubles,
# which order them as integers do: +0.0 is 0 and +inf is _INF_BITS.
_DOUBLE = struct.Struct("<d")
_INT64 = struct.Struct("<q")
_INF_BITS = 0x7FF0000000000000
_FRACTION_BITS = (1 << 52) - 1


def _bits(y: float) -> int:
    return _INT64.unpack(_DOUBLE.pack(y))[0]


def _double(i: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(i))[0]


def _mantissa_exponent(i: int) -> tuple:
    """(c, t) with c * 2**t the finite nonnegative double of bit pattern i."""
    field = i >> 52
    if field == 0:  # zero or subnormal
        return i, -1074
    return (i & _FRACTION_BITS) | (1 << 52), field - 1075


class PowerFn:
    """Certified x**e in doubles for one fixed rational exponent e = m/q.

    Quadrature loops evaluate thousands of powers with the same exponent.
    When 0 < m <= _MAX_CHECKED_TERM and q <= _MAX_CHECKED_TERM,
    bounds_floats needs no mpmath: it takes each end from a double guess
    and certifies it by exact integer compares ("verify, then trust";
    Rump, Acta Numerica 2010).  With x = a 2^s and y = c 2^t, a and c
    integers below 2^53, y <= x**e exactly when c^q 2^(tq) <= a^m 2^(sm),
    so each compare shifts integers of about 53 max(m, q) bits.  Any
    other exponent takes one 53-bit mpmath interval power, whose
    exponent interval is built here.
    """

    def __init__(self, exponent):
        self.exponent = as_fraction(exponent)
        m, q = self.exponent.numerator, self.exponent.denominator
        self._checked = 0 < m <= _MAX_CHECKED_TERM and q <= _MAX_CHECKED_TERM
        if self._checked:
            self._m, self._q, self._e = m, q, m / q
        else:
            _IV.prec = 53
            self._ive = _to_iv(self.exponent)

    def bounds_floats(self, lo: float, hi: float) -> tuple:
        """Directed float bounds on {x**e : lo <= x <= hi} for floats lo, hi.

        x |-> x**e is monotone, so the image is bounded by the largest
        double at most lo**e and the least double at least hi**e (+inf
        past the double range).  Those are exact on the checked path;
        the mpmath fallback runs at 53 bits (double exports cannot
        resolve more) and rounds its endpoints outward, so it may be an
        ulp wider but is just as certified.
        """
        _check_base(lo, self.exponent)
        if self._checked:
            return (_double(self._least_above(lo, True) - 1), _double(self._least_above(hi, False)))
        _IV.prec = 53
        out_lo, out_hi = (_IV.mpf([lo, hi]) ** self._ive)._mpi_
        hi_up = math.inf if out_hi == mpmath.libmp.finf else _float_up(_mpf_to_fraction(out_hi))
        return (max(0.0, _float_down(_mpf_to_fraction(out_lo))), hi_up)

    def _least_above(self, x: float, strict: bool) -> int:
        """Bit pattern of the least nonnegative double y with y**q > x**m
        (strict) or y**q >= x**m, +inf when no finite double qualifies.

        Starts from the double x ** (m/q) and gallops outward from it
        until the exact compare brackets the answer, then bisects, so a
        guess k ulps off costs about 2 log2(k) compares.
        """
        if x == math.inf:
            return _INF_BITS
        m, q = self._m, self._q
        a, s = _mantissa_exponent(_bits(abs(x)))  # abs: -0.0 is 0.0
        am, sm = a**m, s * m

        def above(i: int) -> bool:
            if i >= _INF_BITS:
                return True
            c, t = _mantissa_exponent(i)
            lhs, rhs, shift = c**q, am, t * q - sm
            if shift >= 0:
                lhs <<= shift
            else:
                rhs <<= -shift
            return lhs > rhs if strict else lhs >= rhs

        try:
            guess = x**self._e
        except OverflowError:
            guess = sys.float_info.max
        # bracket the answer: above(hi) and not above(lo), where the bit
        # pattern -1 stands below 0.0 (y**q >= x**m fails there unless x is 0)
        step, g = 1, _bits(guess)
        if above(g):
            lo, hi = g - 1, g
            while lo >= 0 and above(lo):
                lo, hi, step = max(lo - step, -1), lo, 2 * step
        else:
            lo, hi = g, g + 1
            while not above(hi):
                lo, hi, step = hi, min(hi + step, _INF_BITS), 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid):
                hi = mid
            else:
                lo = mid
        return hi
