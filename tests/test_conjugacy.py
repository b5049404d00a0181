import math
import random
from fractions import Fraction

import pytest

from chaoslab.coeffspace import (
    Alphabet,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    WordEnumeration,
    evaluate,
    same_stream,
)
from chaoslab.conjugacy import (
    check_commuting_square,
    check_translation_isometry,
    coefficients,
    iota,
    nearby_distinct_point,
    translate,
    untranslate,
)
from chaoslab import tailmath
from chaoslab.errors import DomainError, InfeasibleTolerance
from chaoslab.metrics import LpSpec, d_E, rho_p

ONES = EventuallyPeriodic((), (1,))
ZEROS = FiniteSupport(())
WIDTH_CAP = Fraction(1, 10**12)


def random_binary(rng, pre=6, per=4):
    return EventuallyPeriodic(
        tuple(rng.randint(0, 1) for _ in range(rng.randint(0, pre))),
        tuple(rng.randint(0, 1) for _ in range(rng.randint(1, per))),
    )


def test_iota_round_trip_and_guard():
    f = iota(ONES, 1)
    assert f.gamma == 1 and coefficients(f) is ONES
    with pytest.raises(DomainError):
        iota(FiniteSupport((2,)), 1)


def test_commuting_square_specific_streams():
    for a in (ONES, ZEROS, EventuallyPeriodic((1, 0, 0, 1), (0, 1))):
        rep = check_commuting_square(a, 1)
        assert rep.passed
        assert rep.mismatches == ()
        assert rep.tail_matches
        assert rep.isometry_d_E is None


def test_commuting_square_lists_the_mismatched_indices(monkeypatch):
    # a derivative that changes entries 3 and 5 of the window, and the
    # tail, is caught at those indices
    real = SeriesFn.derivative

    def broken(f):
        d = real(f)
        pre = list(d.coeffs.prefix(7))
        pre[3], pre[5] = pre[3] + 1, pre[5] - 2
        return SeriesFn(EventuallyPeriodic(tuple(pre), (Fraction(7),)), d.gamma, d.origin)

    monkeypatch.setattr(SeriesFn, "derivative", broken)
    rep = check_commuting_square(ONES, 1, window=10)
    assert rep.mismatches == (3, 5, 7, 8, 9, 10)
    assert not rep.tail_matches and not rep.passed


def test_commuting_square_checks_the_actual_derivative():
    # the embedded derivative must agree with a difference quotient
    a = EventuallyPeriodic((0, 1, 1), (0, 1))
    f = iota(a, 1)
    shifted = iota(a.shift(), 1)
    h = Fraction(1, 10**6)
    x = Fraction(1, 3)
    quotient = (evaluate(f, x + h) - evaluate(f, x)) / h
    deriv_at_x = evaluate(shifted, x)
    assert abs(quotient - deriv_at_x).lo < Fraction(1, 10**5)


def test_commuting_square_isometry_partner():
    rng = random.Random(2024)
    for _ in range(50):
        a, b = random_binary(rng), random_binary(rng)
        rep = check_commuting_square(a, 1, partner=b)
        assert rep.passed
        assert rep.isometry_overlaps
        assert rep.isometry_d_E.width < WIDTH_CAP
        assert rep.isometry_weighted.width < WIDTH_CAP
    with pytest.raises(DomainError):
        check_commuting_square(ONES, 1, partner=FiniteSupport((3,)))


def test_commuting_square_rejects_a_negative_window():
    with pytest.raises(DomainError, match="window"):
        check_commuting_square(ONES, 1, window=-1)
    assert check_commuting_square(ONES, 1, window=0).mismatches == ()


def test_commuting_square_word_enumeration():
    rep = check_commuting_square(WordEnumeration(Alphabet((0, 1))), 2, window=64)
    assert rep.passed


def test_translate_untranslate_exact_inverse():
    f = SeriesFn(EventuallyPeriodic((2,), (0, 1)), Fraction(3, 2))
    for a in (Fraction(1, 2), Fraction(-3, 4), 5):
        g = untranslate(translate(f, a), a)
        assert g == f
        assert translate(f, a).origin == f.origin + Fraction(a)
        assert translate(f, a).domain[1] - translate(f, a).domain[0] == f.gamma


def test_translation_isometry_reports():
    f = SeriesFn(FiniteSupport((0, 1, 1)), 1)
    g = SeriesFn(ONES, 1)
    for p in (1, 2, math.inf):
        rep = check_translation_isometry(f, g, Fraction(5, 4), LpSpec(p, 1), tol=Fraction(1, 10**6))
        assert rep.passed
        assert rep.offset == Fraction(5, 4)
        assert rep.rho_before.intersects(rep.rho_after)
        assert rep.derivative_commutes
    with pytest.raises(DomainError):
        check_translation_isometry(f, SeriesFn(ONES, 2), 1, LpSpec(1, 1))


def test_translation_moves_evaluation_points():
    f = SeriesFn(FiniteSupport((0, 1)), 1)
    t = translate(f, 2)
    inside = evaluate(t, Fraction(5, 2))
    assert inside.contains(Fraction(1, 2))
    with pytest.raises(DomainError):
        evaluate(t, Fraction(1, 2))


def test_nearby_distinct_point_certificates():
    spec = LpSpec(math.inf, 1)
    for delta in (Fraction(1, 100), Fraction(1, 10**4)):
        rep = nearby_distinct_point(ONES, delta, spec)
        assert rep.passed
        assert rep.rho.hi < delta
        assert not same_stream(rep.flipped, ONES)
        assert rep.flipped.in_EF(Alphabet((0, 1)))
        # the flip really is at the reported index
        assert rep.flipped.coeff(rep.index) != ONES.coeff(rep.index)
        got = rho_p(SeriesFn(rep.flipped, 1), SeriesFn(ONES, 1), spec, delta / 8)
        assert got.hi < delta


def test_nearby_distinct_point_respects_gamma():
    spec = LpSpec(1, 2)
    rep = nearby_distinct_point(ZEROS, Fraction(1, 50), spec)
    assert rep.passed
    assert rep.zeta_bound.hi < Fraction(1, 50)


def test_nearby_distinct_point_past_the_cap_is_infeasible(monkeypatch):
    # zeta_n(1) < 1e-60 needs n near 48, beyond a cap of 40
    monkeypatch.setattr(tailmath, "MAX_TAIL_INDEX", 40)
    spec = LpSpec(math.inf, 1)
    assert nearby_distinct_point(ONES, Fraction(1, 10**30), spec).passed
    with pytest.raises(InfeasibleTolerance, match="flip index"):
        nearby_distinct_point(ONES, Fraction(1, 10**60), spec)


def test_d_E_shift_contraction_witness():
    # shifting both streams multiplies disagreement weights by (n+1),
    # so d_E can grow; the commuting square still holds pointwise
    a = EventuallyPeriodic((0, 1), (1, 0))
    b = EventuallyPeriodic((1, 1), (0, 1))
    before = d_E(a, b)
    after = d_E(a.shift(), b.shift())
    assert before.lo > 0 and after.lo > 0
