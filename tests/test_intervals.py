import math
import operator
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab import intervals, metrics
from chaoslab.errors import DomainError, ToleranceUnreachable
from chaoslab.intervals import (
    _MAX_CHECKED_TERM,
    BoundInterval,
    PowerFn,
    as_fraction,
    power,
)


def rand_interval(rng, span=10):
    a = Fraction(rng.randint(-span, span), rng.randint(1, 7))
    b = Fraction(rng.randint(-span, span), rng.randint(1, 7))
    return BoundInterval(min(a, b), max(a, b))


def test_construction_and_order():
    iv = BoundInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.lo == Fraction(1, 3)
    assert iv.hi == Fraction(1, 2)
    assert iv.width == Fraction(1, 6)
    assert iv.mid == Fraction(5, 12)
    with pytest.raises(DomainError):
        BoundInterval(Fraction(2), Fraction(1))


huge = st.integers(-10**1000, 10**1000)
rationals = st.one_of(st.fractions(max_denominator=10**6),
                      st.builds(Fraction, huge, st.integers(1, 10**1000)))
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
endpoints = st.one_of(rationals, huge, st.integers(-10, 10), finite_floats,
                      rationals.map(str), finite_floats.map(repr))


@settings(max_examples=300, deadline=None)
@given(endpoints, endpoints, st.booleans())
def test_order_check_is_exact_on_any_endpoints(lo, hi, equal):
    if equal:
        hi = lo
    if Fraction(lo) > Fraction(hi):
        with pytest.raises(DomainError):
            BoundInterval(lo, hi)
        return
    iv = BoundInterval(lo, hi)
    assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
    assert (iv.lo, iv.hi) == (Fraction(lo), Fraction(hi))


def test_exact_and_coercion():
    iv = BoundInterval.exact("3/7")
    assert iv.lo == iv.hi == Fraction(3, 7)
    assert as_fraction(0.5) == Fraction(1, 2)
    assert as_fraction("1/3") == Fraction(1, 3)
    with pytest.raises(DomainError):
        as_fraction(float("nan"))
    with pytest.raises(DomainError):
        as_fraction(float("inf"))
    with pytest.raises(DomainError):
        as_fraction("inf")
    with pytest.raises(DomainError):
        as_fraction("1/0")


def test_scalar_ops_both_sides():
    iv = BoundInterval(1, 2)
    assert (3 - iv).lo == 1 and (3 - iv).hi == 2
    assert (3 * iv).lo == 3 and (3 * iv).hi == 6
    assert (iv + Fraction(1, 2)).lo == Fraction(3, 2)
    assert (1 / BoundInterval(2, 4)).lo == Fraction(1, 4)
    assert (1 / BoundInterval(2, 4)).hi == Fraction(1, 2)


def test_division_through_zero_rejected():
    with pytest.raises(DomainError):
        BoundInterval(1, 2) / BoundInterval(-1, 1)


def test_abs_and_pow_edge_cases():
    straddle = BoundInterval(-2, 3)
    assert abs(straddle).lo == 0 and abs(straddle).hi == 3
    assert (straddle**2).lo == 0 and (straddle**2).hi == 9
    assert (straddle**3).lo == -8 and (straddle**3).hi == 27
    assert (BoundInterval(-3, -2) ** 2).lo == 4
    assert (BoundInterval(2, 3) ** -1).lo == Fraction(1, 3)
    assert (straddle**0).lo == 1 and (straddle**0).hi == 1
    with pytest.raises(DomainError):
        straddle ** Fraction(1, 2)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=7)
unit = st.fractions(min_value=0, max_value=1, max_denominator=1000)


@st.composite
def member_points(draw):
    """(X, x): an exact interval and a point sampled inside it."""
    a, b = draw(rationals), draw(rationals)
    X = BoundInterval(min(a, b), max(a, b))
    return X, X.lo + draw(unit) * X.width


@settings(max_examples=300, deadline=None)
@given(member_points(), member_points(), st.integers(-4, 6))
def test_arithmetic_is_an_enclosure(Xx, Yy, n):
    # fundamental containment property: op(x, y) lands inside op(X, Y)
    (X, x), (Y, y) = Xx, Yy
    for op in (operator.add, operator.sub, operator.mul):
        assert op(X, Y).contains(op(x, y))
    if Y.mig > 0:
        assert (X / Y).contains(x / y)
    assert abs(X).contains(abs(x))
    if n >= 0 or X.mig > 0:
        assert (X**n).contains(x**n)


# the outward-rounded double helpers of metrics' fractional-p quadrature,
# against exact rationals

big_ints = st.integers(-(10**30), 10**30)
doubles = st.floats(min_value=-1e150, max_value=1e150)


@st.composite
def double_intervals(draw):
    a, b = draw(doubles), draw(doubles)
    return min(a, b), max(a, b)


def _encloses(box, values) -> bool:
    return Fraction(box[0]) <= min(values) and max(values) <= Fraction(box[1])


@settings(max_examples=300, deadline=None)
@given(big_ints, big_ints, st.integers(1, 10**30), st.integers(0, 10**30))
def test_fi_encloses_the_quotient_range(a, b, den, extra):
    lo, hi = min(a, b), max(a, b)
    box = metrics._fi(lo, hi, den, den + extra)
    assert _encloses(box, [Fraction(x, y) for x in (lo, hi) for y in (den, den + extra)])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2**64), st.integers(1100, 4000), st.integers(1, 2**40), st.booleans())
def test_fi_past_the_double_range_is_unreachable(m, e, den, negative):
    x = -(m << e) if negative else m << e
    with pytest.raises(ToleranceUnreachable, match="double range"):
        metrics._fi(x, x, den)


@settings(max_examples=300, deadline=None)
@given(double_intervals(), double_intervals(), unit, unit)
def test_float_interval_helpers_enclose_the_exact_results(a, b, s, t):
    A, B = [Fraction(v) for v in a], [Fraction(v) for v in b]
    x, y = A[0] + s * (A[1] - A[0]), B[0] + t * (B[1] - B[0])
    assert _encloses(metrics._fi_add(a, b), [A[0] + B[0], A[1] + B[1], x + y])
    assert _encloses(metrics._fi_mul(a, b), [u * v for u in A for v in B] + [x * y])
    squares = [u * u for u in A] + [x * x] + ([0] if a[0] <= 0 <= a[1] else [])
    sq = metrics._fi_sq(a)
    assert sq[0] >= 0 and _encloses(sq, squares)


def test_hull_intersect_widen():
    a = BoundInterval(0, 1)
    b = BoundInterval(Fraction(1, 2), 2)
    assert a.hull(b).lo == 0 and a.hull(b).hi == 2
    assert a.intersects(b)
    got = a.intersect(b)
    assert got.lo == Fraction(1, 2) and got.hi == 1
    assert not a.intersects(BoundInterval(3, 4))
    with pytest.raises(DomainError):
        a.intersect(BoundInterval(3, 4))


def test_float_export_is_outward():
    rng = random.Random(7)
    for _ in range(200):
        iv = rand_interval(rng, span=10**6)
        assert Fraction(iv.lo_float()) <= iv.lo
        assert Fraction(iv.hi_float()) >= iv.hi
    tight = BoundInterval.exact(Fraction(1, 3))
    assert tight.lo_float() < tight.hi_float()


def test_float_export_saturates_outward_past_the_double_range():
    big = Fraction(10**400)
    top = sys.float_info.max
    assert BoundInterval(big, big + 1).lo_float() == top
    assert BoundInterval(big, big + 1).hi_float() == math.inf
    assert BoundInterval(-big - 1, -big).lo_float() == -math.inf
    assert BoundInterval(-big - 1, -big).hi_float() == -top
    wide = BoundInterval(-big, big)
    assert (wide.lo_float(), wide.hi_float()) == (-math.inf, math.inf)


def test_power_rational_exponent():
    # gamma^(1/p) for the L^p factors; oracle: 2^(1/2) squared straddles 2
    s = power(2, Fraction(1, 2))
    assert (s * s).contains(2)
    assert s.width < Fraction(1, 10**20)
    assert power(Fraction(1, 4), Fraction(1, 2)).contains(Fraction(1, 2))
    assert power(8, Fraction(2, 3)).contains(4)
    assert power(5, 0).contains(1)
    with pytest.raises(DomainError):
        power(-2, Fraction(1, 2))


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**64), st.integers(1, 2**64), st.integers(-200, 200),
       st.integers(-_MAX_CHECKED_TERM, _MAX_CHECKED_TERM).filter(bool),
       st.integers(2, _MAX_CHECKED_TERM), st.integers(0, 2**40))
@example(1, 1, 0, 1, 2, 0)
@example(2**64, 1, 200, -_MAX_CHECKED_TERM, 31, 2**40)
@example(1, 2**64, -200, _MAX_CHECKED_TERM, 31, 1)
def test_power_matches_mpmath_at_60_digits(num, den, k, a, b, stretch):
    # bases in 2^-264 .. 2^264, exponents of both signs with terms up to
    # the integer check's limit, on points and on intervals
    e = Fraction(a, b)
    x = Fraction(num, den) * Fraction(2) ** k
    box = BoundInterval(x, x * (1 + Fraction(stretch, 2**50)))
    got = power(box, e)
    with mpmath.workdps(60):
        me = _mp(e)
        ends = sorted(_mp(end) ** me for end in (box.lo, box.hi))
        margin = ends[1] * mpmath.mpf(10) ** -55
        assert _mp(got.lo) <= ends[0] + margin and ends[1] - margin <= _mp(got.hi)
        # 128 bits relative to the root, less the few that x's size in
        # bit lengths leaves unknown
        slack = 2 + abs(e)
        assert _mp(got.lo) >= ends[0] * (1 - mpmath.mpf(2) ** (slack - 128)) - margin
        assert _mp(got.hi) <= ends[1] * (1 + mpmath.mpf(2) ** (slack - 128)) + margin


def test_power_exact_roots_are_points():
    assert power(8, Fraction(2, 3)) == BoundInterval(4, 4)
    assert power(Fraction(1, 4), Fraction(-1, 2)) == BoundInterval(2, 2)
    assert power(BoundInterval(4, 9), Fraction(3, 2)) == BoundInterval(8, 27)
    assert power(BoundInterval(Fraction(1, 9), 4), Fraction(-1, 2)) == BoundInterval(Fraction(1, 2), 3)
    assert power(0, Fraction(5, 7)) == BoundInterval(0, 0)
    assert power(2**300, Fraction(1, 3), 10) == BoundInterval(2**100, 2**100)
    assert power(Fraction(1, 2**300), Fraction(-2, 3), 10) == BoundInterval(2**200, 2**200)
    # an inexact root is never a point
    assert power(2, Fraction(1, 2)).width > 0


def test_power_takes_mpmath_only_past_the_checked_terms(monkeypatch):
    ivmpf = type(intervals._IV.mpf(1))
    real_pow = ivmpf.__pow__
    calls = []
    monkeypatch.setattr(ivmpf, "__pow__", lambda x, y: calls.append(y) or real_pow(x, y))
    for a, b in ((1, 2), (-1, 2), (2, 3), (5, 12), (_MAX_CHECKED_TERM, 31), (-1, _MAX_CHECKED_TERM)):
        power(BoundInterval(Fraction(1, 3), 7), Fraction(a, b))
    assert calls == []
    root = power(2, Fraction(1, _MAX_CHECKED_TERM + 1))
    assert len(calls) == 1
    assert root.lo ** (_MAX_CHECKED_TERM + 1) <= 2 <= root.hi ** (_MAX_CHECKED_TERM + 1)


def test_power_fn_monotone_on_nonnegative():
    def f(b):
        return power(b, Fraction(3, 2))

    a = f(BoundInterval(1, 4))
    assert a.contains(1) and a.contains(8)
    rng = random.Random(3)
    for _ in range(50):
        lo = Fraction(rng.randint(0, 50), 7)
        hi = lo + Fraction(rng.randint(0, 50), 11)
        box = f(BoundInterval(lo, hi))
        inner = f(BoundInterval(lo + (hi - lo) / 3, hi - (hi - lo) / 3))
        assert box.encloses(inner)


def test_power_leaves_the_shared_mpmath_context_alone(monkeypatch):
    monkeypatch.setattr(mpmath, "iv", None)
    root2 = power(2, Fraction(1, 2))
    assert root2.lo**2 <= 2 <= root2.hi**2
    assert root2.width < Fraction(1, 10**30)


# PowerFn.of_ratio against exact rationals and against the 53-bit mpmath
# interval power it replaced for small exponent terms

TOP = sys.float_info.max
FALLBACK_EXPONENT = Fraction(65, 64)  # m = 65 is past the integer check
_REF_IV = mpmath.ctx_iv.MPIntervalContext()


def _ref_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    man = -int(man) if sign else int(man)
    return Fraction(man) * Fraction(2) ** int(exp)


def _ref_down(q: Fraction) -> float:
    try:
        f = float(q)
    except OverflowError:
        return TOP
    return f if Fraction(f) <= q else math.nextafter(f, -math.inf)


def _ref_up(q: Fraction) -> float:
    try:
        f = float(q)
    except OverflowError:
        return math.inf
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def mpmath_of_ratio(e: Fraction, n: int, d: int) -> tuple:
    """The mpmath route PowerFn took for every exponent: one 53-bit
    interval power of n / d, its endpoints rounded outward to doubles."""
    _REF_IV.prec = 53
    ive = _REF_IV.mpf(e.numerator) / _REF_IV.mpf(e.denominator)
    out_lo, out_hi = ((_REF_IV.mpf(n) / _REF_IV.mpf(d)) ** ive)._mpi_
    hi_up = math.inf if out_hi == mpmath.libmp.finf else _ref_up(_ref_fraction(out_hi))
    return (max(0.0, _ref_down(_ref_fraction(out_lo))), hi_up)


def _assert_encloses(e: Fraction, x: Fraction, got: tuple) -> None:
    """got[0] <= x**e <= got[1], checked on exact rationals."""
    m, q = e.numerator, e.denominator
    assert Fraction(got[0]) ** q <= x**m
    assert got[1] == math.inf or Fraction(got[1]) ** q >= x**m


def _assert_tightest(e: Fraction, x: Fraction, got: tuple) -> None:
    """got is the largest double at most x**e and the least double at
    least x**e (the largest double and +inf past the range), checked on
    exact rationals."""
    _assert_encloses(e, x, got)
    m, q = e.numerator, e.denominator
    up = math.nextafter(got[0], math.inf)
    assert up == math.inf or Fraction(up) ** q > x**m
    if got[1] == math.inf:
        assert Fraction(TOP) ** q < x**m
    else:
        down = math.nextafter(got[1], -math.inf)
        assert got[1] == 0.0 or Fraction(down) ** q < x**m


checked_exponents = st.builds(Fraction, st.integers(1, _MAX_CHECKED_TERM), st.integers(1, _MAX_CHECKED_TERM))
ratios = st.one_of(
    st.floats(min_value=0.0, max_value=TOP).map(float.as_integer_ratio),
    st.tuples(st.integers(0, 2**200), st.integers(1, 2**200)),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(checked_exponents, st.just(FALLBACK_EXPONENT)), ratios)
@example(Fraction(3, 2), (0, 1))
@example(Fraction(4, 3), (1, 2**1074))
@example(Fraction(11, 10), TOP.as_integer_ratio())
@example(Fraction(3, 2), (10**400, 3))
@example(Fraction(3, 2), (1, 10**400))
@example(Fraction(31, 16), (2**200, 3))
@example(Fraction(32, 31), (1, 2**200 - 1))
@example(FALLBACK_EXPONENT, (1, 2**1000))
def test_power_floats_are_certified_tightest_and_never_wider(e, ratio):
    # every exponent with terms up to the integer check's limit, on
    # doubles and on ratios of integers up to 2^200: the tightest doubles,
    # so never wider than the mpmath route
    n, d = ratio
    got = PowerFn(e).of_ratio(n, d)
    if e != FALLBACK_EXPONENT:
        _assert_tightest(e, Fraction(n, d), got)
        return
    # the fallback is certified, and on a double (where mpmath's 53-bit
    # conversion of n / d is exact) it is the mpmath route itself
    _assert_encloses(e, Fraction(n, d), got)
    if d & (d - 1) == 0 and n < 2**53:
        assert got == mpmath_of_ratio(e, n, d)


TINY = 2.0**-1022  # least normal double


@pytest.mark.parametrize("e, x, want", [
    # (2^-292)^(7/2) is 2^-1022 exactly; one ulp below, the root is subnormal
    (Fraction(7, 2), 2.0**-292, (TINY, TINY)),
    (Fraction(7, 2), math.nextafter(2.0**-292, 0), None),
    (Fraction(4, 3), math.nextafter(2.0**-766, math.inf), None),
    # (2^-716)^(3/2) is 5e-324, the least subnormal; below it the root is 0
    (Fraction(3, 2), 2.0**-716, (5e-324, 5e-324)),
    (Fraction(3, 2), 2.0**-720, (0.0, 5e-324)),
    (Fraction(3, 2), math.nextafter(2.0**-716, 0), (0.0, 5e-324)),
    # past the largest double, once between it and 2^1024
    (Fraction(3, 2), TOP, (TOP, math.inf)),
    (Fraction(3, 2), float.fromhex("0x1.965fea53d6e3cp+682"), (TOP, math.inf)),
    (Fraction(4, 3), TOP, (TOP, math.inf)),
    (Fraction(3, 2), 2.0**683, (TOP, math.inf)),
    (Fraction(3, 2), 2.0**682, (2.0**1023, 2.0**1023)),
    (Fraction(3, 2), math.nextafter(2.0**682, 0), None),
    # exact roots are one double
    (Fraction(3, 2), 4.0, (8.0, 8.0)),
    (Fraction(4, 3), 2.0**-750, (2.0**-1000, 2.0**-1000)),
    (Fraction(5, 2), 0.25, (2.0**-5, 2.0**-5)),
    (Fraction(31, 2), 4.0, (2.0**31, 2.0**31)),
])
def test_power_floats_switch_range_at_the_double_ends(e, x, want):
    got = PowerFn(e).of_ratio(*x.as_integer_ratio())
    _assert_tightest(e, Fraction(x), got)
    if want is not None:
        assert got == want


@pytest.mark.parametrize("e, n, d, want", [
    # exact roots of ratios that are not doubles
    (Fraction(3, 2), 9, 4, (3.375, 3.375)),
    (Fraction(1, 2), 1, 9, None),
    (Fraction(4, 3), 8, 27, None),
    (Fraction(2, 3), 27 * 10**300, 8 * 10**300, (2.25, 2.25)),
    # past either end of the double range
    (Fraction(3, 2), 10**400, 3, (TOP, math.inf)),
    (Fraction(3, 2), 1, 10**400, (0.0, 5e-324)),
    (Fraction(5, 2), 0, 7, (0.0, 0.0)),
], ids=["9/4", "1/9", "8/27", "unreduced-27/8", "huge", "tiny", "zero"])
def test_power_of_ratio_is_tightest_at_ratios_that_are_not_doubles(e, n, d, want):
    got = PowerFn(e).of_ratio(n, d)
    _assert_tightest(e, Fraction(n, d), got)
    if want is not None:
        assert got == want


def test_power_of_ratio_refuses_negative_ratios_and_exponents():
    for n, d in ((-1, 2), (1, 0), (1, -2)):
        with pytest.raises(DomainError):
            PowerFn(Fraction(3, 2)).of_ratio(n, d)
        with pytest.raises(DomainError):
            PowerFn(FALLBACK_EXPONENT).of_ratio(n, d)
    with pytest.raises(DomainError):
        PowerFn(Fraction(-3, 2))
