import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.coeffspace import (
    Alphabet,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    WordEnumeration,
    _absorbed,
    _minimal_period,
    as_preamble_period,
    derivative_sup_bound,
    evaluate,
    finite_support,
    from_json,
    from_payload,
    normal_form,
    same_stream,
    shift,
    to_json,
    to_payload,
    word_start_index,
)
from chaoslab import tailmath
from chaoslab.errors import DomainError

# mpmath oracle values, 80 decimal digits
E = Fraction("2.7182818284590452353602874713526624977572470936999595749669676")
COSH_1 = Fraction("1.5430806348152437784779056207570616826015291123658637047374022")

ONES = EventuallyPeriodic((), (1,))
ZEROS = FiniteSupport(())


def test_alphabet_basics():
    F = Alphabet((0, 1, Fraction(5, 2)))
    assert len(F) == 3
    assert F.diameter == Fraction(5, 2)
    assert Fraction(1) in F and Fraction(1, 3) not in F
    assert F.index(Fraction(5, 2)) == 2
    with pytest.raises(DomainError):
        Alphabet(())
    with pytest.raises(DomainError):
        Alphabet((1, 1))


def test_coeff_indexing():
    assert FiniteSupport((1, 0, 3)).coeff(2) == 3
    assert FiniteSupport((1, 0, 3)).coeff(7) == 0
    assert EventuallyPeriodic((1,), (0, 1)).coeff(4) == 1
    assert WordEnumeration(Alphabet((0, 1))).coeff(5) == 1


def test_finite_support_normalization():
    assert FiniteSupport((1, 0, 3, 0, 0)) == EventuallyPeriodic((1, 0, 3), (0,))
    assert FiniteSupport((0, 0)).preamble == ()
    assert ZEROS.sup_abs() == 0


def test_finite_support_is_the_zero_period():
    # one stream kind: equality and hashing agree with same_stream
    a, b = FiniteSupport((1, 2)), EventuallyPeriodic((1, 2), (0,))
    assert a == b and hash(a) == hash(b)
    assert same_stream(a, b)
    assert isinstance(FiniteSupport(()), EventuallyPeriodic)


def test_periodic_normalization_minimal():
    # period reduced to its minimal block, preamble absorbed into a rotation
    s = EventuallyPeriodic((1,), (0, 1, 0, 1))
    assert s.preamble == () and s.period == (1, 0)
    t = EventuallyPeriodic((1, 0), (1, 0))
    assert s == t
    u = EventuallyPeriodic((1, 1), (1,))
    assert u.preamble == () and u.period == (1,)
    with pytest.raises(DomainError):
        EventuallyPeriodic((), ())


def _spelled(value: Fraction, as_int: bool):
    """value as a constructor argument other than a Fraction: an int when
    it is whole and as_int, else its string."""
    return value.numerator if as_int and value.denominator == 1 else str(value)


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(small_fractions, max_size=4), st.lists(small_fractions, min_size=1, max_size=3),
       st.integers(1, 3), st.integers(0, 5), st.data())
def test_fraction_tuples_are_normalized_like_any_input(pre, per, reps, j, data):
    # an un-normalized layout of pre, per, per, ...: j more entries unrolled
    # into the preamble, the block rotated by j and repeated reps times
    j %= len(per)
    raw_pre = tuple(pre + per[:j])
    raw_per = tuple((per[j:] + per[:j]) * reps)
    fast = EventuallyPeriodic(raw_pre, raw_per)
    flags = data.draw(st.lists(st.booleans(), min_size=len(raw_pre) + len(raw_per),
                               max_size=len(raw_pre) + len(raw_per)))
    spelled = [_spelled(v, f) for v, f in zip(raw_pre + raw_per, flags)]
    slow = EventuallyPeriodic(spelled[:len(raw_pre)], spelled[len(raw_pre):])
    assert fast.preamble == slow.preamble and fast.period == slow.period
    assert hash(fast) == hash(slow) and fast == slow
    assert fast == EventuallyPeriodic(tuple(pre), tuple(per))
    assert all(type(v) is Fraction for v in fast.preamble + fast.period)
    assert len(fast.period) <= len(per)


def test_shift_examples():
    assert shift(FiniteSupport((1, 0, 3))) == FiniteSupport((0, 3))
    assert shift(EventuallyPeriodic((1, 0), (1, 1, 0))) == EventuallyPeriodic(
        (0,), (1, 1, 0)
    )
    assert shift(WordEnumeration(Alphabet((0, 1)))).coeff(4) == 1
    assert WordEnumeration(Alphabet((0, 1))).shifted(5).coeff(0) == 1


def test_shift_is_reindexing():
    rng = random.Random(11)
    streams = [
        FiniteSupport(tuple(rng.randint(-3, 3) for _ in range(6))),
        EventuallyPeriodic((1, 2), (0, 5, 0)),
        WordEnumeration(Alphabet((0, 1, 2)), offset=3),
    ]
    for s in streams:
        shifted = shift(s)
        for n in range(20):
            assert shifted.coeff(n) == s.coeff(n + 1)


def test_pure_periodic_shift_cycle():
    s = EventuallyPeriodic((), (1, 1, 0))
    assert s.shifted(3) == s
    assert s.shifted(6) == s
    assert s.shifted(1) != s


_SYMBOLS = st.sampled_from([0, 1, Fraction(-1, 2)])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SYMBOLS, max_size=6), st.lists(_SYMBOLS, min_size=1, max_size=6))
def test_shift_keeps_the_normal_form(pre, per):
    # shift skips normalization: its fields must be those a build from the
    # raw shifted fields normalizes to
    s = EventuallyPeriodic(tuple(pre), tuple(per))
    raw = (tuple(pre[1:]), tuple(per)) if pre else ((), tuple(per[1:] + per[:1]))
    built = EventuallyPeriodic(*raw)
    shifted = s.shift()
    assert (shifted.preamble, shifted.period) == (built.preamble, built.period)
    assert all(type(v) is Fraction for v in shifted.preamble + shifted.period)
    assert shifted == built and hash(shifted) == hash(built)


_CODES = st.lists(st.integers(0, 2), max_size=5).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_CODES, _CODES.filter(len), st.integers(2, 4))
def test_normal_form_splits_and_ignores_period_powers(pre, per, k):
    # normal_form is _minimal_period, then _absorbed; a power w^k of a
    # period normalizes like w, which difference_streams relies on when it
    # skips every period that is not its own minimal period
    assert normal_form(pre, per) == _absorbed(pre, _minimal_period(per))
    assert normal_form(pre, per * k) == normal_form(pre, per)


def test_word_enumeration_prefix_examples():
    binary = WordEnumeration(Alphabet((0, 1)))
    assert binary.prefix(10) == (0, 1, 0, 0, 0, 1, 1, 0, 1, 1)
    ternary = WordEnumeration(Alphabet((0, 1, 2)))
    assert ternary.prefix(11) == (0, 1, 2, 0, 0, 0, 1, 0, 2, 1, 0)


def test_word_start_index_matches_stream():
    F = Alphabet((0, 1))
    assert word_start_index(F, (0,)) == 0
    assert word_start_index(F, (1,)) == 1
    assert word_start_index(F, (0, 0)) == 2
    assert word_start_index(F, (1, 1)) == 8
    b = WordEnumeration(F)
    for length in (1, 2, 3, 4):
        for word in itertools.product((0, 1), repeat=length):
            l = word_start_index(F, word)
            assert b.prefix(l + length)[l:] == tuple(Fraction(w) for w in word)


def test_stream_comparisons():
    assert same_stream(EventuallyPeriodic((), (0,)), ZEROS)
    assert not same_stream(ONES, ZEROS)


def test_as_preamble_period():
    pre, per = as_preamble_period(FiniteSupport((2, 1)))
    assert pre == (2, 1) and per == (0,)
    pre, per = as_preamble_period(EventuallyPeriodic((0,), (2, 3)))
    assert pre == (0,) and per == (2, 3)
    assert as_preamble_period(WordEnumeration(Alphabet((0, 1)))) is None


def test_in_EF_and_value_set():
    F = Alphabet((0, 1))
    assert EventuallyPeriodic((1,), (0,)).in_EF(F)
    assert not FiniteSupport((1, 2)).in_EF(F)
    assert WordEnumeration(F).in_EF(F)
    assert WordEnumeration(F, offset=7).value_set() == frozenset(
        (Fraction(0), Fraction(1))
    )
    assert FiniteSupport((1, 2)).value_set() == frozenset(
        (Fraction(0), Fraction(1), Fraction(2))
    )
    assert shift(EventuallyPeriodic((5,), (1, 0))).in_EF(F)


def test_evaluate_reference_values():
    f = SeriesFn(ONES, 1)
    box = evaluate(f, 1)
    assert box.lo <= E <= box.hi
    assert box.width <= 2 * Fraction(1, 10**12)
    one = evaluate(SeriesFn(FiniteSupport((1,)), 2), Fraction(3, 2))
    assert one.lo == one.hi == 1
    cosh = evaluate(SeriesFn(EventuallyPeriodic((), (1, 0)), 1), 1)
    assert cosh.lo <= COSH_1 <= cosh.hi
    # 1 + 2x with a zero period sums exactly, like its FiniteSupport twin
    line = evaluate(SeriesFn(EventuallyPeriodic((1, 2), (0,)), 1), 1)
    assert line.lo == line.hi == 3


def test_evaluate_domain_checks():
    f = SeriesFn(ONES, 1)
    with pytest.raises(DomainError):
        evaluate(f, 2)
    with pytest.raises(DomainError):
        evaluate(f, Fraction(-1, 10))
    with pytest.raises(DomainError):
        evaluate(f, Fraction(1, 2), tol=0)
    shifted_domain = SeriesFn(ONES, 1, origin=Fraction(1, 2))
    assert evaluate(shifted_domain, Fraction(3, 2)).lo <= E


def _horner_evaluate(f, x, tol):
    """evaluate on Fractions: the support of an eventually-zero stream, or
    the first n terms at the zeta cut, summed by Horner's rule on a_n t^n
    / n! and widened by the tail bound."""
    kept = finite_support(f.coeffs)
    if kept is None:
        n, tail = tailmath.zeta_index(f.gamma, f.coeffs.sup_abs(), tol / 2, "the series tail", 9, 8)
        kept = f.coeffs.prefix(n)
    else:
        tail = Fraction(0)
    t = x - f.origin
    partial = Fraction(0)
    for n in range(len(kept) - 1, -1, -1):
        partial = kept[n] + partial * t / (n + 1)
    return partial - tail, partial + tail


small = st.fractions(min_value=-6, max_value=6, max_denominator=9)
eval_streams = st.one_of(
    st.builds(EventuallyPeriodic, st.lists(small, max_size=4).map(tuple),
              st.lists(small, min_size=1, max_size=3).map(tuple)),
    st.lists(small, max_size=6).map(FiniteSupport),
    st.just(ZEROS),
    st.builds(WordEnumeration, st.lists(small, min_size=1, max_size=2, unique=True).map(
        lambda vals: Alphabet(tuple(vals))), st.integers(0, 40)),
)


@settings(max_examples=80, deadline=None)
@given(eval_streams, st.sampled_from((Fraction(1, 3), Fraction(1), Fraction(5, 2))),
       st.sampled_from((Fraction(0), Fraction(-7, 4), Fraction(3))),
       st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), st.fractions(0, 1, max_denominator=40)),
       st.sampled_from((Fraction(1, 10**3), Fraction(1, 10**12))))
def test_evaluate_is_the_fraction_horner(s, gamma, origin, where, tol):
    # the integer sum over m v^K K! returns the exact rationals of Horner
    # on Fractions, at both ends of the window and inside it
    f = SeriesFn(s, gamma, origin)
    x = origin + where * gamma
    got = evaluate(f, x, tol)
    assert (got.lo, got.hi) == _horner_evaluate(f, x, tol)


def test_series_fn_derivative_and_domain():
    f = SeriesFn(FiniteSupport((0, 1)), 2)
    assert f.domain == (0, 2)
    assert f.derivative().coeffs == FiniteSupport((1,))
    with pytest.raises(DomainError):
        SeriesFn(ONES, 0)
    with pytest.raises(DomainError):
        SeriesFn(ONES, -1)


def test_derivative_sup_bound_examples():
    assert derivative_sup_bound(SeriesFn(ZEROS, 1)) == 0
    assert derivative_sup_bound(SeriesFn(ONES, 1)) >= E
    assert derivative_sup_bound(SeriesFn(FiniteSupport((0, 1)), 2)) >= 1


def test_json_round_trip_all_kinds():
    F = Alphabet((Fraction(0), Fraction(1, 3)))
    cases = [
        ZEROS,
        FiniteSupport((Fraction(1, 3), 0, Fraction(-2, 7))),
        EventuallyPeriodic((1,), (0, Fraction(5, 2))),
        WordEnumeration(F, offset=4),
        SeriesFn(EventuallyPeriodic((), (1,)), Fraction(3, 2), Fraction(-1, 4)),
    ]
    for obj in cases:
        again = from_json(to_json(obj))
        assert again == obj
        assert from_payload(to_payload(obj)) == obj


def test_json_wire_format_strings():
    payload = to_payload(FiniteSupport((Fraction(1, 3),)))
    assert payload == {"kind": "finite", "preamble": ["1/3"]}
    f = SeriesFn(FiniteSupport((1,)), 2)
    payload = to_payload(f)
    assert payload["gamma"] == "2" and payload["origin"] == "0"


def test_json_zero_period_is_finite():
    s = EventuallyPeriodic((1,), (0,))
    text = to_json(s)
    assert json.loads(text) == {"kind": "finite", "preamble": ["1"]}
    assert from_json(text) == s
    periodic = {"kind": "periodic", "preamble": ["1"], "period": ["0"]}
    assert from_payload(periodic) == s


def test_json_malformed_rejected():
    with pytest.raises(DomainError):
        from_json("{not json")
    with pytest.raises(DomainError):
        from_payload({"kind": "mystery"})
    with pytest.raises(DomainError):
        from_payload({"kind": "periodic", "preamble": [], "period": ["1.5.3"]})
    for payload in (
        {"kind": "periodic", "preamble": ["1"]},  # no period
        {"kind": "enum"},  # no alphabet
        {"kind": "enum", "alphabet": ["0", "1"], "offset": "x"},
        {"kind": "enum", "alphabet": ["0", "1"], "offset": 1.7},  # once read as 1
        {"kind": "enum", "alphabet": ["0", "1"], "offset": True},
        {"kind": "finite", "preamble": None},
        {"kind": "finite", "preamble": "12"},  # once read as (1, 2)
        {"kind": "periodic", "period": {"0": "1"}},
        {"kind": "enum", "alphabet": "01"},
    ):
        with pytest.raises(DomainError):
            from_payload(payload)
