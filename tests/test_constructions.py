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
from chaoslab.constructions import (
    bernstein_approx,
    coefficient_alphabet,
    dense_orbit_point,
    ef_approximation,
    ensure_two_coeff_values,
    filtration,
    orbit_search,
    periodic_approx_in_EF,
    periodic_point_in_cinf,
    sensitivity_witness,
    transitivity_witness,
)
from chaoslab.errors import CertificationFailure, DomainError
from chaoslab.intervals import BoundInterval
from chaoslab.metrics import LpSpec, rho_p

# mpmath oracle values, 80 decimal digits
SENS_CLOSE = Fraction(
    "0.31451895224047321086702600585749478886322553379161613537537620"
)
SENS_FAR = Fraction(
    "3.3978522855738065442003593391908281221965588671249494687087095"
)

ONES = EventuallyPeriodic((), (1,))
ZEROS = FiniteSupport(())
BINARY = Alphabet((0, 1))
INF_1 = LpSpec(math.inf, 1)


def test_polynomial_normalization_and_eval():
    P = FiniteSupport((1, 0, 3, 0, 0))
    assert P.preamble == (1, 0, 3)
    assert len(P.preamble) - 1 == 2
    assert evaluate(SeriesFn(P, 2), 2) == BoundInterval.exact(1 + 3 * Fraction(4, 2))
    assert FiniteSupport((0, 0)).preamble == ()
    assert P.preamble
    f = SeriesFn(P, 2)
    assert f.gamma == 2 and f.coeffs == FiniteSupport((1, 0, 3))


def test_coefficient_alphabet_zero_first():
    assert coefficient_alphabet(FiniteSupport((2, 3, 2))).values == (0, 2, 3)
    assert coefficient_alphabet(FiniteSupport((0, 1))).values == (0, 1)
    assert coefficient_alphabet(FiniteSupport((0,))).values == (0,)


@pytest.mark.parametrize("stream", [ONES, WordEnumeration(BINARY)], ids=["ones", "enum"])
def test_constructions_refuse_a_stream_without_finite_support(stream):
    with pytest.raises(DomainError):
        coefficient_alphabet(stream)
    with pytest.raises(DomainError):
        ef_approximation(stream, 1, INF_1, 1)
    with pytest.raises(DomainError):
        periodic_point_in_cinf(stream, 1, LpSpec(1, 1), Fraction(1, 5))


def test_periodic_approx_worked_example():
    g = periodic_approx_in_EF(WordEnumeration(BINARY), BINARY, 1, INF_1, Fraction(3, 10))
    assert g == EventuallyPeriodic((), (0, 1, 0, 0))
    assert g.shifted(4) == g
    rho = rho_p(SeriesFn(g, 1), SeriesFn(WordEnumeration(BINARY), 1), INF_1, Fraction(1, 100))
    assert rho.hi < Fraction(3, 10)


def test_periodic_approx_fixed_points():
    already = EventuallyPeriodic((), (1, 0))
    g = periodic_approx_in_EF(already, BINARY, 1, INF_1, Fraction(3, 10))
    assert g == already
    z = periodic_approx_in_EF(ZEROS, BINARY, 1, INF_1, Fraction(1, 2))
    assert same_stream(z, ZEROS)


def test_periodic_approx_guards():
    # a one-value alphabet is no error: its only stream is its own approximant
    assert periodic_approx_in_EF(ONES, Alphabet((1,)), 1, INF_1, Fraction(1, 2)) == ONES
    with pytest.raises(DomainError):
        periodic_approx_in_EF(ZEROS, Alphabet((1,)), 1, INF_1, Fraction(1, 2))
    with pytest.raises(DomainError):
        periodic_approx_in_EF(FiniteSupport((2,)), BINARY, 1, INF_1, Fraction(1, 2))
    with pytest.raises(DomainError):
        periodic_approx_in_EF(ZEROS, BINARY, 1, INF_1, 0)


def test_dense_orbit_point_prefixes():
    assert dense_orbit_point(BINARY).prefix(10) == (0, 1, 0, 0, 0, 1, 1, 0, 1, 1)
    assert dense_orbit_point(Alphabet((0, 1, 2))).prefix(11) == (
        0, 1, 2, 0, 0, 0, 1, 0, 2, 1, 0,
    )
    solo = dense_orbit_point(Alphabet((7,)))
    assert solo.prefix(5) == (7, 7, 7, 7, 7)


def test_orbit_search_lands_on_the_word():
    b = dense_orbit_point(BINARY)
    # eps = 2 admits agreement length 2 (zeta(1,1) = e-1 < 2), so the
    # pinned word is (1,1), which starts at index 8 in the enumeration
    eps = Fraction(2)
    l = orbit_search(b, ONES, BINARY, 1, INF_1, eps)
    assert l == 8
    assert b.prefix(10)[8:10] == (1, 1)
    rho = rho_p(SeriesFn(b.shifted(l), 1), SeriesFn(ONES, 1), INF_1, eps / 16)
    assert rho.hi < eps

    assert orbit_search(dense_orbit_point(Alphabet((7,))), EventuallyPeriodic((), (7,)),
                        Alphabet((7,)), 1, INF_1, Fraction(1, 2)) == 0


def test_orbit_search_random_targets():
    rng = random.Random(99)
    spec = LpSpec(math.inf, 1)
    b = dense_orbit_point(BINARY)
    for _ in range(20):
        target = EventuallyPeriodic(
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 3))),
            tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2))),
        )
        eps = rng.choice((Fraction(2), Fraction(1, 2)))
        l = orbit_search(b, target, BINARY, 1, spec, eps)
        rho = rho_p(SeriesFn(b.shifted(l), 1), SeriesFn(target, 1), spec, eps / 16)
        assert rho.hi < eps


def test_transitivity_worked_example():
    h, n = transitivity_witness(ZEROS, ONES, Fraction(3, 10), Fraction(3, 10), BINARY, 1, INF_1)
    assert n == 4
    assert h == EventuallyPeriodic((0, 0, 0, 0), (1,))
    rho_u = rho_p(SeriesFn(h, 1), SeriesFn(ZEROS, 1), INF_1, Fraction(1, 100))
    rho_v = rho_p(SeriesFn(h.shifted(n), 1), SeriesFn(ONES, 1), INF_1, Fraction(1, 100))
    assert rho_u.hi < Fraction(3, 10)
    assert rho_v.lo == rho_v.hi == 0


def test_transitivity_same_center():
    u = EventuallyPeriodic((), (1, 0))
    h, n = transitivity_witness(u, u, Fraction(1, 2), Fraction(1, 2), BINARY, 1, INF_1)
    assert same_stream(h, u)
    assert same_stream(h.shifted(n), u)


def test_bernstein_exact_on_linear():
    P = bernstein_approx(lambda x: x, lipschitz=1, gamma=1, eps=Fraction(1, 1000))
    assert P.preamble == (0, 1)
    const = bernstein_approx(lambda x: Fraction(1), lipschitz=0, gamma=1, eps=Fraction(1, 10))
    assert const.preamble == (1,)


def test_bernstein_certifies_exp_samples():
    # sample backed by certified boxes; modest budget
    target = SeriesFn(ONES, 1)
    P = bernstein_approx(
        lambda x: evaluate(target, x, tol=Fraction(1, 10**9)),
        lipschitz=3,
        gamma=1,
        eps=Fraction(1, 10),
    )
    f = SeriesFn(P, 1)
    got = rho_p(f, target, INF_1, Fraction(1, 100))
    assert got.hi < Fraction(1, 10)


def test_bernstein_budget_exhaustion():
    with pytest.raises(CertificationFailure):
        bernstein_approx(
            lambda x: abs(x - Fraction(1, 2)),
            lipschitz=1,
            gamma=1,
            eps=Fraction(1, 10**6),
            max_degree=8,
        )


def test_ensure_two_coeff_values():
    assert ensure_two_coeff_values(FiniteSupport((0,)), 1).preamble == (Fraction(1, 4),)
    P = FiniteSupport((0, 1))
    assert ensure_two_coeff_values(P, 1) is P
    five = FiniteSupport((5,))
    assert ensure_two_coeff_values(five, 1) is five


def test_ef_approximation_examples():
    F, member = ef_approximation(FiniteSupport((0, 1)), 1, INF_1, 1)
    assert F.values == (0, 1)
    assert member == FiniteSupport((0, 1))

    F, member = ef_approximation(FiniteSupport((0,)), 1, INF_1, 1)
    assert F.values == (0, Fraction(1, 4))
    assert member == FiniteSupport((Fraction(1, 4),))

    F, member = ef_approximation(FiniteSupport((2, 3, 2)), 1, INF_1, Fraction(1, 2))
    assert F.values == (0, 2, 3)
    assert member == FiniteSupport((2, 3, 2))


def test_ef_approximation_scales_budget_for_big_gamma():
    spec = LpSpec(1, 5)
    F, member = ef_approximation(FiniteSupport((0,)), 5, spec, 1)
    rho = rho_p(SeriesFn(member, 5), SeriesFn(ZEROS, 5), spec, Fraction(1, 100))
    assert rho.hi < 1
    assert len(F) == 2


def test_filtration_nesting_and_budgets():
    targets = [FiniteSupport((0,)), FiniteSupport((0, 1)), FiniteSupport((0,))]
    steps = filtration(targets)
    assert [s.index for s in steps] == [1, 2, 3]
    for a, b in zip(steps, steps[1:]):
        assert set(a.alphabet) <= set(b.alphabet)
    assert steps[0].alphabet.values == (0, Fraction(1, 4))
    # step 3 re-augments the zero polynomial with the smaller budget 1/3
    assert Fraction(1, 12) in steps[2].alphabet
    for step, target in zip(steps, targets):
        assert step.member.in_EF(step.alphabet)
        got = rho_p(
            SeriesFn(step.member, 1),
            SeriesFn(target, 1),
            INF_1,
            Fraction(1, 16 * step.index),
        )
        assert got.hi < Fraction(1, step.index)


def test_periodic_point_worked_example():
    g = periodic_point_in_cinf(FiniteSupport((0, 1)), 1, LpSpec(1, 1), Fraction(1, 5))
    assert g == EventuallyPeriodic((), (0, 1, 0, 0, 0))
    assert g.shifted(5) == g
    rho = rho_p(SeriesFn(g, 1), SeriesFn(FiniteSupport((0, 1)), 1), LpSpec(1, 1), Fraction(1, 200))
    assert rho.hi < Fraction(1, 10)


def test_periodic_point_rejects_singleton_alphabet():
    with pytest.raises(DomainError):
        periodic_point_in_cinf(FiniteSupport((0,)), 1, LpSpec(1, 1), Fraction(1, 5))


def test_sensitivity_worked_chain():
    w = sensitivity_witness(SeriesFn(ZEROS, 1), beta=1, eps=Fraction(1, 2))
    assert w.n == 4
    assert w.g.coeffs == EventuallyPeriodic((Fraction(1, 4), 0, 0, 0), (Fraction(5, 4),))
    close, far = w.certificates
    assert close.lo <= SENS_CLOSE <= close.hi
    assert close.hi < Fraction(315, 1000)
    assert far.lo <= SENS_FAR <= far.hi
    assert far.lo > 1


def test_sensitivity_big_beta():
    w = sensitivity_witness(SeriesFn(ZEROS, 1), beta=10**6, eps=Fraction(1, 2))
    close, far = w.certificates
    assert close.hi < Fraction(1, 2)
    assert far.lo > 10**6


def test_sensitivity_nonzero_target():
    f = SeriesFn(FiniteSupport((1, 0, Fraction(-1, 2))), 2)
    w = sensitivity_witness(f, beta=10, eps=Fraction(1, 100))
    close, far = w.certificates
    assert close.hi < Fraction(1, 100)
    assert far.lo > 10
    assert w.n >= 1
    spec = LpSpec(math.inf, 2)
    again = rho_p(w.g, f, spec, Fraction(1, 10**4))
    assert again.lo <= close.hi


def test_sensitivity_case_one_refused():
    with pytest.raises(DomainError):
        sensitivity_witness(SeriesFn(ZEROS, 1), 1, Fraction(1, 2), unbounded_derivatives=True)


def test_sensitivity_witness_validates_certificates():
    good = sensitivity_witness(SeriesFn(ZEROS, 1), 1, Fraction(1, 2))
    from chaoslab.constructions import SensitivityWitness

    with pytest.raises(CertificationFailure):
        SensitivityWitness(
            g=good.g,
            n=good.n,
            beta=good.beta,
            eps=good.eps,
            certificates=(BoundInterval(0, 1), good.certificates[1]),
        )
