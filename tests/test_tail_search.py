"""Tail-index searches: tailmath._zeta_cut against least_index on the
enclosure arithmetic it replaces, and every search on it against the
closure it had before, kept here as the oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaoslab import tailmath, verify
from chaoslab.coeffspace import EventuallyPeriodic, FiniteSupport, SeriesFn, derivative_sup_bound
from chaoslab.conjugacy import nearby_distinct_point
from chaoslab.constructions import agreement_index, periodic_point_in_cinf, sensitivity_witness
from chaoslab.errors import InfeasibleTolerance, ToleranceUnreachable
from chaoslab.intervals import power
from chaoslab.metrics import LpSpec, continuity_delta_dE, continuity_delta_l1, rho_p
from chaoslab.tailmath import eta, least_index, zeta

GAMMAS = (Fraction(1, 2), Fraction(1), Fraction(2))
PS = (Fraction(1), Fraction(2), Fraction(3, 2), math.inf)
EPSS = (Fraction(1, 3), Fraction(1, 10**3), Fraction(7, 10**9), Fraction(1, 10**20))
ONE = FiniteSupport((1,))
ONES = EventuallyPeriodic((), (1,))


@settings(max_examples=300, deadline=None)
@given(gamma=st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3), Fraction(5))),
       scale=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
       shift=st.integers(0, 2), k=st.integers(0, 40))
@example(gamma=Fraction(7, 3), scale=Fraction(3, 2), shift=2, k=5)
@example(gamma=Fraction(2), scale=Fraction(1), shift=0, k=0)
def test_zeta_cut_is_strict_on_the_bound(gamma, scale, shift, k):
    # a budget exactly on scale * zeta_(k+shift).hi does not pass at k
    budget = scale * zeta(gamma, k + shift).hi
    key = (*gamma.as_integer_ratio(), *scale.as_integer_ratio(), *budget.as_integer_ratio(), k, 1, shift)
    n, tail = tailmath._zeta_cut(*key)
    assert n > k and tail < budget


@settings(max_examples=200, deadline=None)
@given(gamma=st.sampled_from((Fraction(1, 2), Fraction(7, 3), Fraction(5), Fraction(40), Fraction(100),
                              Fraction(201, 2))),
       scale=st.fractions(min_value=Fraction(1, 10**6), max_value=10**6),
       budget=st.fractions(min_value=Fraction(1, 10**30), max_value=10),
       start=st.sampled_from((0, 1, 9, 150)), step=st.sampled_from((1, 8)), shift=st.integers(0, 2))
@example(gamma=Fraction(40), scale=Fraction(1), budget=Fraction(1, 10**9), start=0, step=1, shift=0)
@example(gamma=Fraction(100), scale=Fraction(10), budget=Fraction(1, 4 * 10**9), start=9, step=8, shift=0)
def test_zeta_cut_skip_is_the_unskipped_search(gamma, scale, budget, start, step, shift):
    # the cut starts past the indices whose leading term alone fails,
    # which at gamma 40 and 100 is most of them; least_index from start
    # tries every index
    n = least_index(lambda j: scale * zeta(gamma, j + shift).hi < budget, start, "oracle", step)
    key = (*gamma.as_integer_ratio(), *scale.as_integer_ratio(), *budget.as_integer_ratio(), start, step, shift)
    tailmath._zeta_cut.cache_clear()
    assert tailmath._zeta_cut(*key) == (n, scale * zeta(gamma, n + shift).hi)


def test_tail_sum_hi_never_increases_with_the_index():
    # nearby_distinct_point takes the larger of two cuts, which is the
    # least index passing both only because each test keeps holding
    r, s = tailmath.DEFAULT_REL_TOL.as_integer_ratio()
    for gamma in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3), Fraction(5),
                  Fraction(40), Fraction(200)):
        his = [tailmath._tail_sum(*gamma.as_integer_ratio(), k, r, s).hi for k in range(121)]
        assert all(a >= b for a, b in zip(his, his[1:])), gamma


@pytest.mark.parametrize("gamma, p, error, kind, misses", [
    (1600, 1, ToleranceUnreachable, "degree-cap", 1),
    (3000, 1, ToleranceUnreachable, "degree-cap", 1),
    (4000, 1, InfeasibleTolerance, "index-cap", 0),
    (4000, Fraction(3, 2), InfeasibleTolerance, "index-cap", 0),
    (6000, 1, ToleranceUnreachable, "term-cap", 1),
])
def test_hopeless_cut_tries_no_index_that_cannot_pass(gamma, p, error, kind, misses):
    # ones against zero: the rho_p cut at gamma 1600 (n = 4377) looks up
    # one tail sum, not one per index from 9; at gamma 4000 no index up
    # to the cap can pass and none is looked up; at gamma 6000 the first
    # index's tail sum is past its term cap, which stays the refusal
    tailmath._tail_sum.cache_clear()
    tailmath._zeta_cut.cache_clear()
    with pytest.raises(error) as info:
        rho_p(SeriesFn(ONES, gamma), SeriesFn(FiniteSupport(()), gamma), LpSpec(p, gamma))
    assert type(info.value) is error and info.value.kind == kind
    assert tailmath._tail_sum.cache_info().misses == misses


@settings(max_examples=300, deadline=None)
@given(gamma=st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3), Fraction(5))),
       scale=st.one_of(st.just((0, 1)), st.tuples(st.integers(0, 10**6), st.integers(1, 10**3))),
       times=st.integers(1, 6), budget=st.fractions(min_value=Fraction(1, 10**30), max_value=10),
       start=st.sampled_from((0, 1, 9)), step=st.sampled_from((1, 8)), shift=st.integers(0, 2))
@example(gamma=Fraction(1), scale=(0, 1), times=3, budget=Fraction(1, 10**12), start=9, step=8, shift=1)
@example(gamma=Fraction(5), scale=(6, 4), times=1, budget=Fraction(1, 10**20), start=0, step=1, shift=2)
def test_zeta_cut_is_the_rational_search(gamma, scale, times, budget, start, step, shift):
    # the one cached cut against least_index on the rational bound; the
    # scale and budget pairs go in unreduced (times > 1 scales both parts)
    s = Fraction(*scale)
    n = least_index(lambda k: s * zeta(gamma, k + shift).hi < budget, start, "oracle", step)
    key = (*gamma.as_integer_ratio(), scale[0] * times, scale[1] * times,
           budget.numerator * times, budget.denominator * times, start, step, shift)
    assert tailmath._zeta_cut(*key) == (n, s * zeta(gamma, n + shift).hi)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("p", PS)
def test_agreement_index_is_the_interval_search(gamma, p):
    spec = LpSpec(p, gamma)
    for diam in (Fraction(1), Fraction(9, 2)):
        factor = spec.gamma_pow_inv_p() * diam
        for eps in EPSS:
            assert agreement_index(spec, diam, gamma, eps) == least_index(
                lambda n: (factor * zeta(gamma, n)).hi < eps, 0, "oracle")


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("p", PS)
def test_periodic_point_in_cinf_period_is_the_interval_search(gamma, p):
    # P = 1 has the alphabet {0, 1} and one kept coefficient, so the
    # period is N + 1 long
    spec = LpSpec(p, gamma)
    for eps in EPSS:
        budget = power(gamma, -spec.inv_p) * eps / 2
        n = least_index(lambda n: zeta(gamma, n).hi < budget.lo, 1, "oracle")
        assert len(periodic_point_in_cinf(ONE, gamma, spec, eps).period) == n + 1


@pytest.mark.parametrize("gamma", GAMMAS)
def test_sensitivity_witness_index_is_the_interval_search(gamma):
    # f = 1 is its own prefix, so the alphabet is {0, 1, c}, c = 1 + M + beta
    f = SeriesFn(ONE, gamma)
    beta = Fraction(1)
    diam = 1 + derivative_sup_bound(f) + beta
    for eps in EPSS[:3]:
        n_prime = least_index(lambda n: zeta(gamma, n + 1).hi < eps / (2 * diam), 1, "oracle")
        assert sensitivity_witness(f, beta, eps).n == n_prime + 1


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("p", PS)
def test_nearby_distinct_point_flip_is_the_interval_search(gamma, p):
    spec = LpSpec(p, gamma)
    factor = spec.gamma_pow_inv_p()
    for delta in (Fraction(1, 3), Fraction(1, 10**3), Fraction(7, 10**9)):
        n = least_index(lambda k: (factor * zeta(gamma, k)).hi < delta and zeta(gamma, k + 1).hi < delta,
                        1, "oracle")
        assert nearby_distinct_point(ONE, delta, spec).index == n


@pytest.mark.parametrize("gamma", GAMMAS)
def test_continuity_deltas_are_the_interval_searches(gamma):
    for eps in EPSS:
        n = least_index(lambda n: eta(n).hi < eps, tailmath.compute_m_gamma(gamma), "oracle")
        assert continuity_delta_l1(gamma, eps)[0] == n
        n = least_index(lambda n: zeta(gamma, n).hi < eps, 1, "oracle")
        assert continuity_delta_dE(gamma, eps) == (n, Fraction(1, math.factorial(n + 1)))


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("p", PS)
def test_rho_p_cut_is_the_interval_search(gamma, p):
    spec = LpSpec(p, gamma)
    for sup in (Fraction(1), Fraction(5, 3)):
        scale = sup * spec.gamma_pow_inv_p().hi
        for tol in EPSS:
            budget = tol / 4
            n = least_index(lambda k: scale * zeta(gamma, k).hi < budget, 9, "oracle", 8)
            # rho_p's key: sup's and gamma^(1/p).hi's integer ratios multiplied, unreduced
            (sn, sd), (gn, gd) = sup.as_integer_ratio(), spec.gamma_pow_inv_p().hi.as_integer_ratio()
            key = (*gamma.as_integer_ratio(), sn * gn, sd * gd, tol.numerator, 4 * tol.denominator, 9, 8, 0)
            assert tailmath._zeta_cut(*key) == (n, scale * zeta(gamma, n).hi)


def test_d_E_cut_is_the_interval_search():
    for sup in (Fraction(1), Fraction(5, 3), Fraction(4)):
        for tol in EPSS:
            budget = tol / 2
            n = least_index(lambda k: sup * eta(k + 1).hi < budget, 9, "oracle", 8)
            tail = sup * eta(n + 1).hi
            key = (1, 1, *sup.as_integer_ratio(), tol.numerator, 2 * tol.denominator, 9, 8, 1)
            assert tailmath._zeta_cut(*key) == (n, tail)


@pytest.mark.parametrize("check, delta_of, oracle", [
    (verify.check_rho1_to_dE_continuity, continuity_delta_l1,
     lambda g, delta: lambda k: zeta(g, k + 1).hi * g < delta / 2),
    (verify.check_dE_to_sup_continuity, continuity_delta_dE,
     lambda g, delta: lambda k: eta(k + 2).hi < delta / 2),
])
def test_verify_agreement_indices_are_the_interval_searches(monkeypatch, check, delta_of, oracle):
    # each trial t searches at gamma GAMMAS[t % 3] and eps (1/10, 1/1000)[t % 2]
    found = []
    real = tailmath.zeta_index

    def spy(gamma, scale, budget, what, *args, **kwargs):
        n, tail = real(gamma, scale, budget, what, *args, **kwargs)
        if what.startswith("an agreement index"):
            found.append(n)
        return n, tail

    monkeypatch.setattr(tailmath, "zeta_index", spy)
    check(GAMMAS, trials=6)
    monkeypatch.undo()
    expected = []
    for t in range(6):
        g, eps = GAMMAS[t % 3], (Fraction(1, 10), Fraction(1, 1000))[t % 2]
        expected.append(least_index(oracle(g, delta_of(g, eps)[1]), 0, "oracle"))
    assert found == expected
