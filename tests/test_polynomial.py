"""Property tests for coeffspace.Polynomial: its derivative is the shift
of the coefficient stream, and evaluation, interval enclosures and
products agree with exact arithmetic."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.coeffspace import FiniteSupport, Polynomial, evaluate
from chaoslab.intervals import BoundInterval

small = st.fractions(min_value=-8, max_value=8, max_denominator=12)
polys = st.lists(small, min_size=0, max_size=7).map(lambda cs: Polynomial(tuple(cs)))
gammas = st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 3)))
unit = st.fractions(min_value=0, max_value=1, max_denominator=50)

PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(polys)
def test_derivative_is_the_shift(P):
    assert FiniteSupport(P.derivative().coeffs_taylor) == FiniteSupport(P.coeffs_taylor).shift()


@PROPERTY
@given(polys)
def test_antiderivative_then_derivative_round_trips(P):
    anti = P.antiderivative()
    assert anti(0) == 0
    assert anti.derivative() == P
    assert anti.monomial == Polynomial(anti.coeffs_taylor).monomial


@PROPERTY
@given(polys, gammas, unit)
def test_call_matches_series_evaluation(P, gamma, s):
    x = gamma * s
    value = evaluate(P.as_series(gamma), x)
    assert value.lo == value.hi == P(x)


@PROPERTY
@given(polys, gammas, unit, unit, st.lists(unit, min_size=1, max_size=5))
def test_eval_interval_contains_every_point_value(P, gamma, u, v, ss):
    lo, hi = sorted((gamma * u, gamma * v))
    box = P.eval_interval(BoundInterval(lo, hi))
    for s in ss:
        assert box.contains(P(lo + (hi - lo) * s))


@PROPERTY
@given(polys, polys, st.fractions(min_value=-3, max_value=3, max_denominator=20))
def test_product_is_pointwise(P, Q, x):
    assert (P * Q)(x) == P(x) * Q(x)
    assert (P**2)(x) == P(x) ** 2
    assert (P * Q).monomial == Polynomial((P * Q).coeffs_taylor).monomial
