"""Property tests for coeffspace._difference_parts: a - b aligned once
as integers (or read index by index by coeffspace._Pointwise), and the
pairwise metrics that read it agree with index-by-index brute force and
with the Fraction path they were first written on."""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab import tailmath
from chaoslab.coeffspace import (
    Alphabet,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    WordEnumeration,
    _Pointwise,
    _difference_parts,
    _unrolled,
    as_preamble_period,
    evaluate,
    finite_support,
    same_stream,
)
from chaoslab.intervals import BoundInterval
from chaoslab.metrics import (
    FACTORIAL_WEIGHTS,
    UNIT_WEIGHTS,
    _d_E_parts,
    d_E,
    d_lambda,
    weighted_product_metric,
)
from chaoslab.sampling import VALUE_POOL

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
    pre, per, m = _difference_parts(a, b)
    entries = brute_force(a, b)
    assert [Fraction(x, m) for x in _unrolled(pre, per, len(entries))] == entries
    assert same_stream(a, b) == (not any(entries))
    assert Fraction(max(map(abs, pre + per)), m) == max(abs(c) for c in entries)


symbols = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1, 2)))
enumerations = st.builds(lambda vs, k: WordEnumeration(Alphabet(tuple(vs)), k),
                         st.lists(symbols, min_size=1, max_size=3, unique=True), st.integers(0, 3))
mixed = st.one_of(streams(symbols), enumerations)


def rebuilt(s):
    """The stream s from a separate construction: an eventually periodic
    one with its period spelled out once more in the preamble."""
    if isinstance(s, WordEnumeration):
        return WordEnumeration(Alphabet(s.alphabet.values), s.offset)
    return EventuallyPeriodic(s.preamble + s.period, s.period + s.period)


@PROPERTY
@given(st.one_of(pairs, st.tuples(mixed, mixed), mixed.map(lambda s: (s, rebuilt(s)))))
@example((WordEnumeration(Alphabet((1,))), EventuallyPeriodic((1, 1), (1,))))
@example((WordEnumeration(Alphabet((0, 1)), 2), WordEnumeration(Alphabet((0, 1)), 2)))
@example((WordEnumeration(Alphabet((0, 1)), 2), WordEnumeration(Alphabet((0, 1)), 3)))
def test_same_stream_agrees_with_the_sup_of_the_difference(pair):
    a, b = pair
    parts = _difference_parts(a, b)
    sup = _Pointwise(a, b).sup_abs() if parts is None else max(map(abs, parts[0] + parts[1]))
    assert same_stream(a, b) == (sup == 0)


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
    pre, per, m = _difference_parts(a, b)
    if per != (0,):
        return
    weighted = weighted_product_metric(a, b, FACTORIAL_WEIGHTS)
    assert weighted.width == 0
    assert weighted == d_E(a, b)
    assert evaluate(SeriesFn(FiniteSupport([Fraction(x, m) for x in pre]), 1), Fraction(1, 2)).width == 0


@PROPERTY
@given(small)
def test_two_letter_enumeration_has_no_difference(s):
    word = WordEnumeration(Alphabet((0, 1)))
    # no eventually periodic difference: read index by index, sup bounded
    assert _difference_parts(word, s) is None and _difference_parts(s, word) is None
    for d, sign in ((_Pointwise(word, s), 1), (_Pointwise(s, word), -1)):
        assert [d.coeff(i) for i in range(12)] == [
            sign * (word.coeff(i) - s.coeff(i)) for i in range(12)]
        assert d.sup_abs() == 1 + s.sup_abs()


ZERO = FiniteSupport(())
ratios = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
scaled_periodic = st.builds(
    lambda pre, per, k: EventuallyPeriodic(tuple([c * 2**k for c in pre]), tuple([c * 2**k for c in per])),
    st.lists(ratios, max_size=5), st.lists(ratios, min_size=1, max_size=4), st.integers(-40, 40))
periodic_or_zero = st.one_of(scaled_periodic, st.just(ZERO))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(periodic_or_zero, periodic_or_zero), periodic_or_zero.map(lambda s: (s, s))))
@example((EventuallyPeriodic((Fraction(1, 6),), (Fraction(1, 4),)),
          EventuallyPeriodic((Fraction(-1, 3),), (Fraction(-1, 4),))))  # (1/2, 1/2, ...): m = 2, not 12
def test_difference_parts_are_the_normalized_numerators_over_the_lcm(pair):
    a, b = pair
    pre, per, m = _difference_parts(a, b)
    entries = brute_force(a, b)
    # index by index, Fraction(d, m) is a_n - b_n
    assert [Fraction(d, m) for d in _unrolled(pre, per, len(entries))] == entries
    # m is the lcm of the reduced denominators
    assert m == math.lcm(*[c.denominator for c in entries])
    # and the stream is the normal form of the Fraction differences
    (pa, qa), (pb, qb) = as_preamble_period(a), as_preamble_period(b)
    s, r = max(len(pa), len(pb)), math.lcm(len(qa), len(qb))
    stream = EventuallyPeriodic(tuple(entries[:s]), tuple(entries[s:s + r]))
    assert (stream.preamble, stream.period) == (
        tuple([Fraction(d, m) for d in pre]), tuple([Fraction(d, m) for d in per]))


def test_difference_parts_refuse_a_two_letter_enumeration():
    word = WordEnumeration(Alphabet((0, 1)))
    assert _difference_parts(word, ZERO) is None and _difference_parts(ZERO, word) is None
    assert _difference_parts(WordEnumeration(Alphabet((Fraction(3, 2),))), ZERO) == ((), (3,), 2)


def reference_difference(a, b):
    """The stream a - b as first written: every pair of eventually
    periodic layouts is unrolled and a new stream is built, a - 0
    included; any other pair is read index by index."""
    pa, pb = as_preamble_period(a), as_preamble_period(b)
    if pa is None or pb is None:
        return _Pointwise(a, b)
    s = max(len(pa[0]), len(pb[0]))
    n = s + math.lcm(len(pa[1]), len(pb[1]))
    diffs = [a.coeff(i) - b.coeff(i) for i in range(n)]
    return EventuallyPeriodic(diffs[:s], diffs[s:])


def eta_cut(d, tol):
    """(kept, tail) of d_E's cut, searched here on its own: the finite
    support with a tail of 0, else the first n terms, n the least of 9,
    17, ... with sup|d_i| * eta_(n+1).hi below tol / 2, and that bound."""
    support = finite_support(d)
    if support is not None:
        return support, Fraction(0)
    sup = d.sup_abs()
    n = tailmath.least_index(lambda k: sup * tailmath.eta(k + 1).hi < tol / 2, 9, "oracle", 8)
    return d.prefix(n), sup * tailmath.eta(n + 1).hi


def reference_d_E(a, b, tol):
    """d_E as first written: the cut searched on every call, then one
    Fraction added per kept term."""
    d = reference_difference(a, b)
    kept, tail = eta_cut(d, tol)
    fact = 1
    partial = Fraction(0)
    for n, c in enumerate(kept):
        fact *= n + 1
        partial += abs(c) / fact
    return BoundInterval(partial, partial + tail)


pool = st.sampled_from(VALUE_POOL)
pool_words = st.lists(pool, max_size=6)
pool_streams = st.one_of(
    st.builds(lambda pre, per: EventuallyPeriodic(tuple(pre), tuple(per)),
              pool_words, st.lists(pool, min_size=1, max_size=4)),
    pool_words.map(lambda cs: FiniteSupport(tuple(cs))),
)
enumerations = st.builds(
    lambda values, offset: WordEnumeration(Alphabet(tuple(values)), offset),
    st.lists(pool, min_size=2, max_size=4, unique=True), st.integers(0, 40))
tols = st.builds(lambda m, k: Fraction(m, 10**k), st.integers(1, 9), st.integers(3, 40))


@PROPERTY
@given(st.one_of(st.tuples(pool_streams, pool_streams), st.tuples(enumerations, enumerations),
                 st.tuples(pool_streams, enumerations)), tols)
def test_d_E_is_the_reference_sum(pair, tol):
    a, b = pair
    assert d_E(a, b, tol) == reference_d_E(a, b, tol)
    assert d_E(a, FiniteSupport(()), tol) == reference_d_E(a, FiniteSupport(()), tol)


@PROPERTY
@given(st.one_of(pool_streams, enumerations, pool.map(lambda v: WordEnumeration(Alphabet((v,))))))
def test_difference_from_zero_is_the_reference(a):
    zero = FiniteSupport(())
    parts, want = _difference_parts(a, zero), reference_difference(a, zero)
    if parts is None:
        assert want == _Pointwise(a, zero)
    else:
        pre, per, m = parts
        assert (want.preamble, want.period) == (
            tuple([Fraction(d, m) for d in pre]), tuple([Fraction(d, m) for d in per]))


signed_twelfths = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12))
twelfth_words = st.lists(signed_twelfths, max_size=6)
twelfth_blocks = st.lists(signed_twelfths, min_size=1, max_size=4)
twelfth_streams = st.builds(lambda pre, per: EventuallyPeriodic(tuple(pre), tuple(per)),
                            twelfth_words, twelfth_blocks)
# pairs whose difference is eventually zero: equal tails behind equally long preambles
same_tail_pairs = st.builds(
    lambda pre, other, per: (EventuallyPeriodic(tuple(pre), tuple(per)),
                             EventuallyPeriodic(tuple(other[:len(pre)] + pre[len(other):]), tuple(per))),
    twelfth_words, twelfth_words, twelfth_blocks)


def oracle_d_E(a, b, tol):
    """(lo, hi) of d_E from the definition, term by term in Fractions.

    lo is sum_{i < n} |a_i - b_i| / (i + 1)! and hi is lo + sup * eta_(n+1).hi,
    n the least of 9, 17, ... whose tail is below tol/2, and sup the exact
    sup|a_i - b_i| of two eventually periodic layouts or else the bound
    sup|a_i| + sup|b_i|.  An eventually zero difference sums all of it."""
    layouts = as_preamble_period(a), as_preamble_period(b)
    if None in layouts:
        sup = a.sup_abs() + b.sup_abs()
    else:
        (pa, qa), (pb, qb) = layouts
        s = max(len(pa), len(pb))
        entries = [a.coeff(i) - b.coeff(i) for i in range(s + math.lcm(len(qa), len(qb)))]
        sup = max(abs(c) for c in entries)
        if not any(entries[s:]):
            whole = sum((abs(c) / math.factorial(i + 1) for i, c in enumerate(entries[:s])), Fraction(0))
            return whole, whole
    n = 9
    while not sup * tailmath.eta(n + 1).hi < tol / 2:
        n += 8
    lo = sum((abs(a.coeff(i) - b.coeff(i)) / math.factorial(i + 1) for i in range(n)), Fraction(0))
    return lo, lo + sup * tailmath.eta(n + 1).hi


@PROPERTY
@given(st.one_of(st.tuples(twelfth_streams, twelfth_streams), same_tail_pairs),
       st.sampled_from((Fraction(1, 10**3), Fraction(1, 10**12))))
@example((WordEnumeration(Alphabet((0, 1))), WordEnumeration(Alphabet((Fraction(-1, 2), 2, 3)), 7)),
         Fraction(1, 10**12))
@example((EventuallyPeriodic((1, -2), (3,)), EventuallyPeriodic((5, 7), (3,))), Fraction(1, 10**3))
def test_d_E_is_the_definition_term_by_term(pair, tol):
    a, b = pair
    lo, hi = oracle_d_E(a, b, tol)
    got = d_E(a, b, tol)
    assert (got.lo, got.hi) == (lo, hi)
    assert type(got.lo) is Fraction and type(got.hi) is Fraction
    if finite_support(reference_difference(a, b)) is not None:
        assert got.width == 0


def core_oracle(d, tol):
    """(sum_{i < n} |d_i| / (i + 1)!, tail) in Fractions, n and the tail
    from eta_cut, whose tail bound sup|d_i| eta_(n+1) clears tol / 2."""
    kept, tail = eta_cut(d, tol)
    return sum((abs(c) / math.factorial(i + 1) for i, c in enumerate(kept)), Fraction(0)), tail


# preambles of 10 or more entries outrun the cut at 1e-4 (n = 9 there)
long_preamble_streams = st.builds(lambda pre, per: EventuallyPeriodic(tuple(pre), tuple(per)),
                                  st.lists(signed_twelfths, min_size=10, max_size=30), twelfth_blocks)
core_streams = st.one_of(twelfth_streams, long_preamble_streams,
                         twelfth_words.map(lambda cs: FiniteSupport(tuple(cs))))
core_pairs = st.one_of(
    st.tuples(core_streams, core_streams),
    same_tail_pairs,  # eventually zero
    st.just((FiniteSupport(()), FiniteSupport(()))),  # the zero stream
    st.tuples(enumerations, enumerations),  # pointwise
)


@PROPERTY
@given(core_pairs, st.sampled_from((Fraction(1, 10**4), Fraction(1, 10**12), Fraction(1, 10**20))))
@example((EventuallyPeriodic((Fraction(1, 3),), (Fraction(1, 4), Fraction(-1, 6))),
          FiniteSupport(())), Fraction(1, 10**4))
@example((EventuallyPeriodic(tuple(Fraction(i, 7) for i in range(1, 21)), (Fraction(1, 2),)),
          EventuallyPeriodic((), (Fraction(-1, 3), 1))), Fraction(1, 10**4))
@example((WordEnumeration(Alphabet((0, 1))), WordEnumeration(Alphabet((Fraction(-1, 2), 3)), 5)),
         Fraction(1, 10**20))
def test_d_E_core_is_the_exact_sum_plus_its_tail(pair, tol):
    # the integers of metrics._d_E_parts, one dot product with the folded
    # factorial weights, against the sum term by term: the preamble may be
    # longer than the cut, and the period repeats through it
    a, b = pair
    d = reference_difference(a, b)
    lo, tail = core_oracle(d, tol)
    num, den, tail_num, tail_den = _d_E_parts(a, b, tol)
    assert all(type(x) is int for x in (num, den, tail_num, tail_den))
    assert (Fraction(num, den), Fraction(tail_num, tail_den)) == (lo, tail)
    if finite_support(d) is not None:
        assert tail == 0


def geometric_block_sum(pre, per):
    """Exact sum of c_i / 2^i for the eventually periodic stream pre, per,
    per, ..., in Fractions, as d_lambda first summed it."""
    total = Fraction(0)
    for i, c in enumerate(pre):
        total += Fraction(c, 2**i)
    s = len(pre)
    q = len(per)
    block = sum(Fraction(c, 2**r) for r, c in enumerate(per))
    total += Fraction(block, 2**s) / (1 - Fraction(1, 2**q))
    return total


def fraction_d_lambda(a, b, tol):
    """d_lambda on the Fraction stream of reference_difference: the closed
    form when it is eventually periodic, else the first n terms, n the
    least of 4, 8, ... with 2/2^n below tol, and the tail 2/2^n."""
    d = reference_difference(a, b)
    if isinstance(d, EventuallyPeriodic):
        return BoundInterval.exact(geometric_block_sum([abs(c) for c in d.preamble],
                                                       [abs(c) for c in d.period]))
    n = tailmath.least_index(lambda k: Fraction(2, 2**k) < tol, 4, "oracle", 4)
    partial = sum(Fraction(abs(c), 2**i) for i, c in enumerate(d.prefix(n)))
    return BoundInterval(partial, partial + Fraction(2, 2**n))


def fraction_weighted(a, b, weights, tol):
    """sum_i w_i |a_i - b_i| / 2^i on the Fraction stream of
    reference_difference: its support, or its first n terms, n the least
    of 8, 16, ... whose majorant is below tol/2, one Fraction per term."""
    d = reference_difference(a, b)
    sup = d.sup_abs()
    kept, tail = finite_support(d), Fraction(0)
    if kept is None:
        n = tailmath.least_index(lambda k: weights.tail_majorant(k, sup) < tol / 2, 8, "oracle", 8)
        kept, tail = d.prefix(n), weights.tail_majorant(n, sup)
    partial = sum((weights.factor(i) * abs(c) / 2**i for i, c in enumerate(kept)), Fraction(0))
    return BoundInterval(partial, partial + tail)


def endpoints(box):
    assert type(box.lo) is Fraction and type(box.hi) is Fraction
    return box.lo, box.hi


def with_zero(streams):
    """Pairs of streams, the zero stream on either side of some of them."""
    return st.one_of(st.tuples(streams, streams), streams.map(lambda s: (s, ZERO)),
                     streams.map(lambda s: (ZERO, s)))


metric_streams = st.one_of(pool_streams, pool.map(lambda v: WordEnumeration(Alphabet((v,)))), enumerations)
binary_streams = st.one_of(bits, st.builds(lambda values, k: WordEnumeration(Alphabet(values), k),
                                           st.permutations((0, 1)), st.integers(0, 40)))


@settings(max_examples=150, deadline=None)
@given(with_zero(metric_streams), tols)
@example((FiniteSupport((1, Fraction(-1, 3))), EventuallyPeriodic((), (Fraction(1, 2), 2))), Fraction(1, 10**9))
@example((WordEnumeration(Alphabet((0, 1))), ZERO), Fraction(1, 10**9))
def test_d_E_and_the_weighted_metric_are_the_fraction_path(pair, tol):
    # endpoint for endpoint, the integer difference against the Fraction
    # stream summed one term at a time
    a, b = pair
    assert endpoints(d_E(a, b, tol)) == endpoints(reference_d_E(a, b, tol))
    for weights in (FACTORIAL_WEIGHTS, UNIT_WEIGHTS):
        assert endpoints(weighted_product_metric(a, b, weights, tol)) == endpoints(
            fraction_weighted(a, b, weights, tol))


@settings(max_examples=150, deadline=None)
@given(with_zero(binary_streams), tols)
@example((EventuallyPeriodic((1,), (0, 1, 1)), EventuallyPeriodic((), (1, 0))), Fraction(1, 10**9))
@example((WordEnumeration(Alphabet((1, 0)), 3), EventuallyPeriodic((), (1, 0))), Fraction(1, 10**9))
def test_d_lambda_is_the_fraction_path(pair, tol):
    a, b = pair
    assert endpoints(d_lambda(a, b, tol)) == endpoints(fraction_d_lambda(a, b, tol))
