"""Property tests for coeffspace.difference: a - b aligned once, and the
pairwise metrics that read it agree with index-by-index brute force."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import tailmath
from chaoslab.coeffspace import (
    Alphabet,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    WordEnumeration,
    as_preamble_period,
    difference,
    evaluate,
    same_stream,
)
from chaoslab.metrics import FACTORIAL_WEIGHTS, d_E, d_lambda, weighted_product_metric

TOL = Fraction(1, 10**6)
PROPERTY = settings(max_examples=80, deadline=None)


def streams(values):
    words = st.lists(values, max_size=4)
    return st.one_of(
        words.map(lambda cs: FiniteSupport(tuple(cs))),
        st.builds(
            lambda pre, per: EventuallyPeriodic(tuple(pre), tuple(per)),
            words,
            st.lists(values, min_size=1, max_size=3),
        ),
        values.map(lambda v: WordEnumeration(Alphabet((v,)))),
    )


small = streams(st.fractions(min_value=-3, max_value=3, max_denominator=4))
bits = streams(st.sampled_from((Fraction(0), Fraction(1))))
pairs = st.tuples(small, small)
binary_pairs = st.tuples(bits, bits)


def brute_force(a, b):
    """a_n - b_n for n below 3 (s + lcm), s and lcm from the two layouts."""
    (pa, qa), (pb, qb) = as_preamble_period(a), as_preamble_period(b)
    n = 3 * (max(len(pa), len(pb)) + math.lcm(len(qa), len(qb)))
    return [a.coeff(i) - b.coeff(i) for i in range(n)]


@PROPERTY
@given(pairs)
def test_difference_reads_a_minus_b(pair):
    a, b = pair
    d = difference(a, b)
    entries = brute_force(a, b)
    assert [d.coeff(i) for i in range(len(entries))] == entries
    assert same_stream(a, b) == (not any(entries))
    assert d.sup_abs() == max(abs(c) for c in entries)


@PROPERTY
@given(pairs)
def test_d_E_contains_the_brute_force_sum(pair):
    a, b = pair
    entries = brute_force(a, b)
    n = len(entries)
    partial = sum(abs(c) / math.factorial(i + 1) for i, c in enumerate(entries))
    tail = max(abs(c) for c in entries) * tailmath.eta(n + 1).hi
    got = d_E(a, b, TOL)
    assert partial <= got.hi
    assert got.lo <= partial + tail
    assert got.hi <= partial + tail + TOL


@PROPERTY
@given(binary_pairs)
def test_d_lambda_contains_the_brute_force_sum(pair):
    a, b = pair
    entries = brute_force(a, b)
    n = len(entries)
    partial = sum(Fraction(abs(c), 2**i) for i, c in enumerate(entries))
    tail = max(abs(c) for c in entries) * Fraction(2, 2**n)
    got = d_lambda(a, b, TOL)
    assert got.width == 0
    assert partial <= got.hi <= partial + tail


@PROPERTY
@given(pairs)
def test_finite_support_difference_sums_exactly(pair):
    a, b = pair
    d = difference(a, b)
    if d.period != (0,):
        return
    weighted = weighted_product_metric(a, b, FACTORIAL_WEIGHTS)
    assert weighted.width == 0
    assert weighted == d_E(a, b)
    assert evaluate(SeriesFn(d, 1), Fraction(1, 2)).width == 0


@PROPERTY
@given(small)
def test_two_letter_enumeration_has_no_difference(s):
    word = WordEnumeration(Alphabet((0, 1)))
    # no eventually periodic difference: read index by index, sup bounded
    for d, sign in ((difference(word, s), 1), (difference(s, word), -1)):
        assert not isinstance(d, EventuallyPeriodic)
        assert [d.coeff(i) for i in range(12)] == [
            sign * (word.coeff(i) - s.coeff(i)) for i in range(12)]
        assert d.sup_abs() == 1 + s.sup_abs()
