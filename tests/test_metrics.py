import copy
import dataclasses
import math
import pickle
import random
import re
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chaoslab.coeffspace import (
    EventuallyPeriodic,
    _Pointwise,
    _difference_parts,
    _numerators,
    FiniteSupport,
    SeriesFn,
    WordEnumeration,
    Alphabet,
    evaluate,
    truncate,
)
from chaoslab.constructions import periodic_approx_in_EF, sensitivity_witness
from chaoslab.errors import DomainError, InfeasibleTolerance, ToleranceUnreachable, brief
from chaoslab.intervals import BoundInterval, PowerFn, power
from chaoslab.metrics import (
    FACTORIAL_WEIGHTS,
    UNIT_WEIGHTS,
    LpSpec,
    continuity_delta_dE,
    continuity_delta_l1,
    d_E,
    d_lambda,
    holder_compare,
    rho_1_lower_bound,
    rho_p,
    series_norm,
    weighted_product_metric,
)
from chaoslab import intervals, metrics, tailmath

# mpmath oracle values, 80 decimal digits
E = Fraction("2.7182818284590452353602874713526624977572470936999595749669676")
E_MINUS_1 = E - 1
# sqrt((e^2-1)/2): L^2 norm of e^x on [0,1]
RHO2_EXP = Fraction(
    "1.7873242709327608505940477510235376694869863546317758415568557"
)
# (2/3 (e^(3/2)-1))^(2/3): L^(3/2) norm of e^x on [0,1]
RHO32_EXP = Fraction(
    "1.7530695651623979506820489296166673012523309985135475697692893"
)
# sqrt(16/3): the Holder majorant for f(x)=x on [0,2] at (p,q)=(1,2)
HOLDER_X_RHS = Fraction(
    "2.3094010767585030580365951220078298225904070050805075040744093"
)

ONES = EventuallyPeriodic((), (1,))
ZEROS = FiniteSupport(())


def series(coeffs, gamma=1):
    return SeriesFn(coeffs, gamma)


def test_d_lambda_reference_values():
    two = d_lambda(ZEROS, ONES)
    assert two.lo == two.hi == 2
    same = d_lambda(ONES, ONES)
    assert same.lo == same.hi == 0
    one = d_lambda(FiniteSupport((1,)), ZEROS)
    assert one.lo == one.hi == 1
    with pytest.raises(DomainError):
        d_lambda(FiniteSupport((2,)), ZEROS)
    with pytest.raises(DomainError):
        d_lambda(ZEROS, FiniteSupport((Fraction(1, 2),)))


def test_d_lambda_word_enumeration_tail():
    b = WordEnumeration(Alphabet((0, 1)))
    box = d_lambda(b, ZEROS, tol=Fraction(1, 10**9))
    assert box.width <= Fraction(1, 10**9)
    assert 0 < box.lo and box.hi < 2


def test_d_E_reference_values():
    e1 = d_E(ONES, ZEROS)
    assert e1.lo <= E_MINUS_1 <= e1.hi
    assert e1.width <= Fraction(1, 10**12)
    head = d_E(FiniteSupport((1,)), ZEROS)
    assert head.lo == head.hi == 1
    same = d_E(EventuallyPeriodic((2,), (0, 1)), EventuallyPeriodic((2,), (0, 1)))
    assert same.lo == same.hi == 0


def test_d_E_cutoff_past_the_cap_is_infeasible(monkeypatch):
    # a small cap keeps the scan short; 2*eta(K+2) < 1e-80 needs K near 60
    monkeypatch.setattr(tailmath, "MAX_TAIL_INDEX", 40)
    assert d_E(ONES, ZEROS, tol=Fraction(1, 10**20)).width < Fraction(1, 10**20)
    with pytest.raises(InfeasibleTolerance, match="d_E tail"):
        d_E(ONES, ZEROS, tol=Fraction(1, 10**80))


def test_index_cap_failure_names_what_budget_and_cap(monkeypatch):
    # the fields a caller branches on, and the message built from them
    monkeypatch.setattr(tailmath, "MAX_TAIL_INDEX", 40)
    with pytest.raises(InfeasibleTolerance) as info:
        d_E(ONES, ZEROS, tol=Fraction(1, 10**80))
    err = info.value
    budget = Fraction(1, 2 * 10**80)
    assert (err.kind, err.what, err.budget, err.cap) == ("index-cap", "the d_E tail", budget, 40)
    assert str(err) == f"no index up to 40 certifies the d_E tail below {brief(budget)}"
    # a search that names no budget carries None
    with pytest.raises(InfeasibleTolerance) as info:
        tailmath.least_index(lambda n: False, 0, "nothing")
    assert (info.value.what, info.value.budget, info.value.cap) == ("nothing", None, 40)
    assert str(info.value) == "no index up to 40 certifies nothing"


BIG = 10**5000  # str() of it raises ValueError under the default int-to-str limit
TINY = Fraction(1, BIG)


@pytest.mark.parametrize("call, error, kind", [
    (lambda: rho_p(series(FiniteSupport((0, 1))), series(ZEROS), LpSpec(BIG, 1)),
     ToleranceUnreachable, "degree-cap"),
    (lambda: rho_p(series(ONES), series(ZEROS), LpSpec(2, BIG)), DomainError, None),
    (lambda: LpSpec(TINY, 1), DomainError, None),
    (lambda: holder_compare(series(ONES), BIG, 2), DomainError, None),
    (lambda: evaluate(series(ONES), BIG), DomainError, None),
    (lambda: Alphabet((BIG, BIG)), DomainError, None),
    (lambda: BoundInterval(BIG, 0), DomainError, None),
    (lambda: tailmath.compute_n_gamma(-BIG), DomainError, None),
    (lambda: periodic_approx_in_EF(ONES, Alphabet((0, 1)), 1, LpSpec(2, TINY), Fraction(1, 10)),
     DomainError, None),
], ids=["rho_p-p", "rho_p-gamma", "LpSpec", "holder_compare", "evaluate", "Alphabet", "BoundInterval",
        "compute_n_gamma", "spec-gamma"])
def test_a_message_with_a_long_rational_raises_the_documented_error(call, error, kind):
    # each message prints the caller's rational through errors.brief, so
    # the documented class arrives in place of str()'s ValueError
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and getattr(info.value, "kind", None) == kind
    assert re.search(r"~-?1\.000e-?5000", str(info.value))


def test_cut_past_the_cap_names_its_caller_and_leaves_no_cache_entry(monkeypatch):
    # every zeta cut shares tailmath._zeta_cut; past a cap of 40 each
    # raises under its own name and budget, and its message names it;
    # once the cap is back the same calls succeed, so the failed search
    # cached nothing
    eps, f, zero = Fraction(1, 10**80), series(ONES), series(ZEROS)
    calls = [
        ("the series tail", eps / 2, lambda: evaluate(f, Fraction(1, 2), eps)),
        ("the rho_p tail", eps / 4, lambda: rho_p(f, zero, LpSpec(2, 1), eps)),
        ("the d_E tail", eps / 2, lambda: d_E(ONES, ZEROS, eps)),
        ("sup|a|*zeta(K)", eps / 4, lambda: sensitivity_witness(f, 1, eps)),
    ]
    monkeypatch.setattr(tailmath, "MAX_TAIL_INDEX", 40)
    for what, budget, call in calls:
        with pytest.raises(InfeasibleTolerance) as info:
            call()
        assert (info.value.what, info.value.budget, info.value.cap) == (what, budget, 40)
        assert what in str(info.value)
    monkeypatch.undo()
    for _, _, call in calls:
        call()


def _difference_stream(a, b):
    """a - b as one stream: the entries Fraction(x, m) of _difference_parts."""
    pre, per, m = _difference_parts(a, b)
    return EventuallyPeriodic(tuple([Fraction(x, m) for x in pre]), tuple([Fraction(x, m) for x in per]))


def test_diff_sup_abs():
    assert _difference_stream(ONES, ZEROS).sup_abs() == 1
    assert _difference_stream(FiniteSupport((1, -5)), FiniteSupport((1, 2))).sup_abs() == 7
    assert _difference_stream(ONES, ONES).sup_abs() == 0
    # no eventually periodic difference: sup|a_n| + sup|b_n|, or 0 for a == b
    word = WordEnumeration(Alphabet((-1, 2)))
    assert _difference_parts(word, ONES) is None
    assert _Pointwise(word, ONES).sup_abs() == 3
    assert _Pointwise(word, word).sup_abs() == 0


def test_weighted_metric_recovers_both_metrics():
    rng = random.Random(404)
    for _ in range(25):
        x = EventuallyPeriodic(
            tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4))),
            tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3))),
        )
        y = EventuallyPeriodic((), (rng.randint(0, 1), rng.randint(0, 1)))
        assert weighted_product_metric(x, y, UNIT_WEIGHTS).intersects(d_lambda(x, y))
        assert weighted_product_metric(x, y, FACTORIAL_WEIGHTS).intersects(d_E(x, y))
    z = weighted_product_metric(ONES, ONES, FACTORIAL_WEIGHTS)
    assert z.lo == z.hi == 0


def test_factorial_weights_are_cached_per_index():
    for i in range(40):
        w = FACTORIAL_WEIGHTS.factor(i)
        assert w == Fraction(2**i, math.factorial(i + 1))
        assert FACTORIAL_WEIGHTS.factor(i) is w


def test_lp_spec_validation():
    assert LpSpec(2, 1).p == 2
    assert LpSpec(math.inf, 1).gamma_pow_inv_p().lo == 1
    assert LpSpec(1, 4).gamma_pow_inv_p().contains(4)
    assert LpSpec(2, 4).gamma_pow_inv_p().contains(2)
    with pytest.raises(DomainError):
        LpSpec(Fraction(1, 2), 1)
    with pytest.raises(DomainError):
        LpSpec(2, 0)


@pytest.mark.parametrize("p, is_sup, inv_p", [
    (1, False, Fraction(1)), (2, False, Fraction(1, 2)), (Fraction(3, 2), False, Fraction(2, 3)),
    ("4/3", False, Fraction(3, 4)), (2.5, False, Fraction(2, 5)), (math.inf, True, Fraction(0)),
    (float("inf"), True, Fraction(0)),
])
def test_lp_spec_works_out_is_sup_and_inv_p_once(p, is_sup, inv_p):
    spec = LpSpec(p, Fraction(3, 2))
    copies = (spec, pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec),
              dataclasses.replace(spec))
    for other in copies:
        assert other.is_sup is is_sup
        assert type(other.inv_p) is Fraction and other.inv_p == inv_p
        assert other == spec and hash(other) == hash(spec)
    regamma = dataclasses.replace(spec, gamma=2)
    assert (regamma.is_sup, regamma.inv_p, regamma.gamma) == (is_sup, inv_p, 2)
    assert regamma != spec
    cubic = dataclasses.replace(spec, p=3)
    assert (cubic.is_sup, cubic.inv_p) == (False, Fraction(1, 3))
    # equality and the hash read (p, gamma) only
    assert [f.name for f in dataclasses.fields(LpSpec)] == ["p", "gamma"]
    assert hash(spec) == hash((spec.p, spec.gamma))
    assert repr(spec) == f"LpSpec(p={spec.p!r}, gamma={spec.gamma!r})"


def test_integer_p_reads_the_handed_on_power_basis_and_takes_no_root_at_p1(monkeypatch):
    # e^t against 0 on [0, 1]: at p = 1 the window's Bernstein coefficients
    # are positive, so the integral is their mean, and the norm is the
    # integral itself; at p = 2 the power basis comes from _bernstein.  A
    # first call at another tol leaves gamma^(1/p) cached, as any call on
    # the same (gamma, p) does; the cut search itself runs again.  The
    # antiderivative's cache is emptied, so the p = 2 call builds its own.
    for p in (1, 2):
        rho_p(series(ONES), series(ZEROS), LpSpec(p, 1), Fraction(1, 10**6))
    metrics._antiderivative.cache_clear()
    calls = Counter()
    for name in ("_taylor", "_convolution_power", "power"):
        fn = getattr(metrics, name)
        monkeypatch.setattr(metrics, name,
                            lambda *args, fn=fn, name=name, **kw: calls.update([name]) or fn(*args, **kw))
    tol = Fraction(1, 10**9)
    box = rho_p(series(ONES), series(ZEROS), LpSpec(1, 1), tol)
    assert box.lo <= E_MINUS_1 <= box.hi and box.width < tol
    assert not calls
    box = rho_p(series(ONES), series(ZEROS), LpSpec(2, 1), tol)
    assert box.lo <= RHO2_EXP <= box.hi and box.width < tol
    assert calls == Counter({"_convolution_power": 1, "power": 1})


def test_gamma_pow_inv_p_is_cached_and_bounded():
    cache = metrics._gamma_pow
    assert cache.cache_info().maxsize is not None
    for gamma in (Fraction(1, 2), Fraction(3), Fraction(22, 7)):
        for p in (Fraction(3, 2), Fraction(4, 3), Fraction(2), Fraction(5, 2)):
            got = LpSpec(p, gamma).gamma_pow_inv_p()
            assert got == power(gamma, 1 / p)
            hits = cache.cache_info().hits
            assert LpSpec(p, gamma).gamma_pow_inv_p() is got
            assert cache.cache_info().hits == hits + 1
        assert LpSpec(1, gamma).gamma_pow_inv_p() == BoundInterval.exact(gamma)
        assert LpSpec(math.inf, gamma).gamma_pow_inv_p() == BoundInterval.exact(1)


def _reference_cut(gamma, scale, budget, start, step, shift):
    """The least n of start, start + step, ... with scale * zeta_(n+shift)
    (gamma).hi < budget, and that bound: the rule of every zeta cut, on
    Fractions."""
    n = start
    while not scale * tailmath.zeta(gamma, n + shift).hi < budget:
        n += step
    return n, scale * tailmath.zeta(gamma, n + shift).hi


def _reference_kept(a, b, gamma, scale, budget, start, step, shift):
    """(kept entries of a - b, tail) under _reference_cut at scale * sup:
    the support of an eventually-zero difference with a tail of 0, else
    the first n entries, sup|a_n| + sup|b_n| bounding a pair with no
    eventually periodic difference."""
    parts = _difference_parts(a, b)
    if parts is not None and parts[1] == (0,):
        return [Fraction(x, parts[2]) for x in parts[0]], 0
    sup = _difference_stream(a, b).sup_abs() if parts is not None else a.sup_abs() + b.sup_abs()
    n, tail = _reference_cut(gamma, scale * sup, budget, start, step, shift)
    return [a.coeff(i) - b.coeff(i) for i in range(n)], tail


CUT_PAIRS = (
    (FiniteSupport((Fraction(3, 2), -1, Fraction(2, 3))), FiniteSupport((0, 0, 1))),  # finite
    (EventuallyPeriodic((Fraction(3, 2),), (1, Fraction(-2, 3))), ZEROS),  # periodic
    (EventuallyPeriodic((), (2, Fraction(1, 3))), FiniteSupport((1, 1))),  # periodic, b not 0
    (WordEnumeration(Alphabet((-1, 2)), 3), ONES),  # two-letter enumeration
)


@pytest.mark.parametrize("a, b", CUT_PAIRS, ids=["finite", "periodic", "periodic-minus-finite", "enum"])
def test_every_zeta_cut_is_the_reference_cut_and_cached(monkeypatch, a, b):
    # rho_p, d_E, evaluate and sensitivity_witness each keep what the
    # Fraction reference cut keeps at their own parameters, and a second
    # rho_p call with equal rationals hits the integer cut's cache
    from chaoslab import coeffspace, constructions

    cache = tailmath._zeta_cut
    assert cache.cache_info().maxsize is not None
    kept = []

    def spy(*args):
        nums, m, tail = out = truncate(*args)
        kept.append(([Fraction(x, m) for x in nums], tail))
        return out

    for module in (coeffspace, metrics, constructions):
        monkeypatch.setattr(module, "truncate", spy)
    finite = _difference_parts(a, b) is not None and _difference_parts(a, b)[1] == (0,)
    for gamma in (Fraction(1, 2), Fraction(2)):
        for tol in (Fraction(1, 10**4), Fraction(1, 10**9)):
            for p in (Fraction(3, 2), Fraction(2), math.inf):
                spec = LpSpec(p, gamma)
                kept.clear()
                rho_p(SeriesFn(a, gamma), SeriesFn(b, gamma), spec, tol)
                assert kept == [_reference_kept(a, b, gamma, spec.gamma_pow_inv_p().hi, tol / 4, 9, 8, 0)]
                hits = cache.cache_info().hits
                rho_p(SeriesFn(a, gamma), SeriesFn(b, gamma), spec, tol)
                assert cache.cache_info().hits == hits + (not finite)
            # d_E cuts eventually periodic pairs on its folded weights, so
            # its enclosure is checked: the kept sum, widened by the tail
            entries, tail = _reference_kept(a, b, 1, 1, tol / 2, 9, 8, 1)
            de = d_E(a, b, tol)
            assert de.lo == sum(abs(c) / math.factorial(i + 1) for i, c in enumerate(entries))
            assert de.hi - de.lo == tail
            f = SeriesFn(a, gamma)
            kept.clear()
            evaluate(f, gamma / 2, tol)
            assert kept == [_reference_kept(a, ZEROS, gamma, 1, tol / 2, 9, 8, 0)]
            kept.clear()
            sensitivity_witness(f, 1, tol)
            assert kept[0] == _reference_kept(a, ZEROS, gamma, 1, tol / 4, 1, 1, 0)


@pytest.mark.parametrize("p", [math.inf, 1, 2, 3, Fraction(3, 2)])
def test_rho_p_on_a_cache_hit_is_the_cold_build(p):
    # lp-grid's first pair, a scaled pair and a finite difference: with
    # the Bernstein and antiderivative caches emptied, and again from them,
    # rho_p returns the same rationals, and the second call builds nothing
    pairs = (PAIR0, (EventuallyPeriodic((), (Fraction(3, 2**30), 1)), FiniteSupport((1, -2, 3))),
             (FiniteSupport((Fraction(1, 3), -5, 7)), ZEROS))
    caches = (metrics._bernstein, metrics._antiderivative)
    for a, b in pairs:
        for gamma in (Fraction(1, 2), Fraction(2)):
            for tol in (Fraction(1, 10**4), Fraction(1, 10**6)):
                f, g, spec = series(a, gamma), series(b, gamma), LpSpec(p, gamma)
                for cache in caches:
                    cache.cache_clear()
                cold = rho_p(f, g, spec, tol)
                misses = [cache.cache_info().misses for cache in caches]
                hits = metrics._bernstein.cache_info().hits
                warm = rho_p(f, g, spec, tol)
                assert (warm.lo, warm.hi) == (cold.lo, cold.hi)
                assert [cache.cache_info().misses for cache in caches] == misses
                assert metrics._bernstein.cache_info().hits == hits + 1
    B, L, delta = metrics._bernstein(1, 1, 1, 1, -5, 3)
    a, e = metrics._antiderivative(3, *delta)
    assert all(type(x) is tuple for x in (B, delta, a, e))


def test_rho_p_exp_reference_values():
    f = series(ONES)
    g = series(ZEROS)
    tol = Fraction(1, 10**10)
    r1 = rho_p(f, g, LpSpec(1, 1), tol)
    assert r1.lo <= E_MINUS_1 <= r1.hi and r1.width <= tol
    rinf = rho_p(f, g, LpSpec(math.inf, 1), tol)
    assert rinf.lo <= E <= rinf.hi and rinf.width <= tol
    r2 = rho_p(f, g, LpSpec(2, 1), tol)
    assert r2.lo <= RHO2_EXP <= r2.hi and r2.width <= tol


def test_rho_p_fractional_exponent():
    box = rho_p(series(ONES), series(ZEROS), LpSpec(Fraction(3, 2), 1), Fraction(1, 10**6))
    assert box.lo <= RHO32_EXP <= box.hi
    assert box.width <= Fraction(1, 10**6)


def test_fractional_quadrature_takes_no_mpmath_power(monkeypatch):
    # count every mpmath interval power of a whole p = 3/2 rho_p call: the
    # quadrature's pointwise powers, gamma^(1/p) and the L^p root
    ivmpf = type(intervals._IV.mpf(1))
    real_pow = ivmpf.__pow__
    calls = []
    monkeypatch.setattr(ivmpf, "__pow__", lambda x, y: calls.append(y) or real_pow(x, y))
    metrics._gamma_pow.cache_clear()
    tailmath._zeta_cut.cache_clear()
    box = rho_p(series(ONES), series(ZEROS), LpSpec(Fraction(3, 2), 1), Fraction(1, 10**6))
    assert box.lo <= RHO32_EXP <= box.hi
    assert calls == []
    # exponents past the integer check are seen to take the mpmath route,
    # PowerFn through power(), one mpmath power per ratio
    PowerFn(Fraction(65, 64)).of_ratio(3, 2)
    assert len(calls) == 1
    power(2, Fraction(1, 33))
    assert len(calls) == 2


def test_rho_p_fractional_exponent_past_the_double_range_is_enclosed():
    # the quadrature runs at unit scale, so 1e400 e^t is no harder than e^t
    c = Fraction(10**400)
    box = rho_p(series(EventuallyPeriodic((), (c,))), series(ZEROS), LpSpec(Fraction(3, 2), 1), c / 10**6)
    assert box.lo <= c * RHO32_EXP <= box.hi
    assert box.width <= c / 10**6


PAIR0 = (EventuallyPeriodic((0, 0, 0, 0), (-3, Fraction(1, 2))),
         EventuallyPeriodic((Fraction(1, 2),), (-3, 0)))


@pytest.mark.parametrize(
    "a, b, p, gamma, tol, passes",
    # lp-grid's first pair at p = 3: its one root panel settles in a
    # bracket whose slack is far below tol, so the first pass's root is
    # narrow enough (halving the panel to tol left it too wide)
    [(*PAIR0, Fraction(3), Fraction(1, 2), Fraction(1, 10**6), 1)]
    # the first pass's integral reaches down to 0, so the second pass's
    # tolerance comes from the concavity bound: 1 - 2000t on [0, 1/1000]
    # at p = 3, whose first panel's slack is already below tol, and at
    # p = 3/2 (1 - 2000t)(1 - 4000t), whose two roots keep the first panel
    # off the root panels' Taylor model
    + [(FiniteSupport((1, -2000)), ZEROS, Fraction(3), Fraction(1, 1000), Fraction(1, 50), 2),
       (FiniteSupport((1, -6000, 16_000_000)), ZEROS, Fraction(3, 2), Fraction(1, 1000),
        Fraction(1, 50), 2)]
    # ones against zero, 1e-400 to 1e400 times
    + [(EventuallyPeriodic((), (c,)), ZEROS, p, Fraction(1), c / 10**6, 1)
       for c in (Fraction(1, 10**400), Fraction(1, 10**8), Fraction(1), Fraction(10**8), Fraction(10**400))
       for p in (Fraction(3, 2), Fraction(3))]
    # the line at p = 3/2: the Taylor model is exact on a line, so its
    # first pass is never down to 0
    + [(FiniteSupport((1, -2000)), ZEROS, Fraction(3, 2), Fraction(1, 1000), Fraction(1, 50), 1)],
)
def test_no_norm_integrates_more_than_twice(monkeypatch, a, b, p, gamma, tol, passes):
    calls = []
    for name in ("_integral_abs_pow_int", "_integral_abs_pow_frac"):
        kernel = getattr(metrics, name)
        monkeypatch.setattr(metrics, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args))
    box = rho_p(series(a, gamma), series(b, gamma), LpSpec(p, gamma), tol)
    assert box.width < tol
    assert len(calls) == passes


def test_fractional_tolerance_below_the_rounding_floor_raises_at_once():
    # ones against zero at p = 3/2: rho_p reaches tol 1e-13; below its
    # rounding floor no refinement meets a panel's share
    spec = LpSpec(Fraction(3, 2), 1)
    box = rho_p(series(ONES), series(ZEROS), spec, Fraction(1, 10**13))
    assert box.lo <= RHO32_EXP <= box.hi and box.width <= Fraction(1, 10**13)
    for tol in (Fraction(1, 10**14), Fraction(1, 10**15), Fraction(1, 10**30)):
        start = time.perf_counter()
        with pytest.raises(ToleranceUnreachable, match="rounding floor"):
            rho_p(series(ONES), series(ZEROS), spec, tol)
        assert time.perf_counter() - start < 2


def test_degree_cap_is_read_before_the_bernstein_build(monkeypatch):
    # N = n p is known from the kept tuple, so a refused power builds
    # nothing; the zero polynomial has no degree and is exactly 0 at any p
    built = []
    real = metrics._bernstein
    monkeypatch.setattr(metrics, "_bernstein", lambda *args: built.append(args) or real(*args))
    for gamma, p in ((1, 129), (1600, 1)):
        with pytest.raises(ToleranceUnreachable, match="past the budget") as info:
            rho_p(series(ONES, gamma), series(ZEROS, gamma), LpSpec(p, gamma))
        assert info.value.kind == "degree-cap" and not built
    with pytest.raises(ToleranceUnreachable, match=r"\^4099 has degree 0, past the budget 2048"):
        metrics._norm_of_poly((3, 0), 1, LpSpec(4099, 1), Fraction(1, 10**9))
    assert not built
    assert rho_p(series(ONES), series(ONES), LpSpec(4099, 1)) == BoundInterval.exact(0)
    assert metrics._norm_of_poly((0, 0), 1, LpSpec(4099, 1), Fraction(1, 10**9)) == BoundInterval.exact(0)


def test_tolerance_unreachable_names_the_limit_it_met(monkeypatch):
    # rho_p re-raises a kernel's failure with the kernel's kind
    with pytest.raises(ToleranceUnreachable, match="rounding floor") as floor:
        rho_p(series(ONES), series(ZEROS), LpSpec(Fraction(3, 2), 1), Fraction(1, 10**14))
    assert floor.value.kind == "rounding-floor"
    with pytest.raises(ToleranceUnreachable, match="past the budget") as degree:
        rho_p(series(ONES), series(ZEROS), LpSpec(129, 1))
    assert degree.value.kind == "degree-cap"
    with pytest.raises(ToleranceUnreachable) as bits:
        metrics._root_bits(Fraction(17, 12), Fraction(3), Fraction(1, 2**70000))
    assert bits.value.kind == "root-bits"
    with pytest.raises(ToleranceUnreachable) as double:
        metrics._fi(1 << 2000, 1 << 2000, 1)
    assert double.value.kind == "double-range"
    assert ToleranceUnreachable("a message").kind is None
    monkeypatch.setattr(metrics, "_MAX_PANELS", 2)
    # a root for the fractional quadrature, two in one panel for odd p (one
    # settles in a bracket: 1 - 5t + 3t^2/2 at p = 3 needs no split), an
    # interior maximum for the sup
    for coeffs, p in (((1, -5, 3), Fraction(3, 2)), ((2, -11, 24), 3), ((0, 1, -2), math.inf)):
        with pytest.raises(ToleranceUnreachable, match="panels") as cap:
            rho_p(series(FiniteSupport(coeffs)), series(ZEROS), LpSpec(p, 1), Fraction(1, 10**9))
        assert cap.value.kind == "panel-cap"


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
       st.integers(30, 150))
@example(2, Fraction(1), 60)
def test_integer_rho_p_meets_tolerances_past_128_bits(p, gamma, k):
    # ||e^t||_p on [0, gamma] is ((e^(p gamma) - 1) / p)^(1/p); a root
    # taken at a fixed 128 bits is wider than 1e-38 of it
    tol = Fraction(1, 10**k)
    box = rho_p(series(ONES, gamma), series(ZEROS, gamma), LpSpec(p, gamma), tol)
    assert box.width < tol
    with mpmath.workdps(2 * k):
        g = mpmath.mpf(gamma.numerator) / gamma.denominator
        value = ((mpmath.exp(p * g) - 1) / p) ** (mpmath.mpf(1) / p)
        margin = mpmath.mpf(10) ** (5 - 2 * k)
        lo = mpmath.mpf(box.lo.numerator) / box.lo.denominator
        hi = mpmath.mpf(box.hi.numerator) / box.hi.denominator
        assert lo - margin <= value <= hi + margin


def test_odd_rho_p_across_a_root_meets_a_tolerance_past_128_bits():
    # ||1 - 3t||_3 on [0, 1] is (17/12)^(1/3); at a fixed 128-bit root the
    # sign partition was re-run 60 times and gave up
    tol = Fraction(1, 10**42)
    box = series_norm(series(FiniteSupport((1, -3))), LpSpec(3, 1), tol)
    assert box.width < tol
    assert box.lo**3 <= Fraction(17, 12) <= box.hi**3


def test_root_precision_follows_the_tolerance_up_to_its_budget():
    assert metrics._root_bits(Fraction(17, 12), Fraction(3), Fraction(1, 10**9)) == 128
    assert metrics._root_bits(Fraction(17, 12), Fraction(3), Fraction(1, 10**100)) > 332
    assert metrics._root_bits(Fraction(0), Fraction(3), Fraction(1, 2**70000)) == 128
    with pytest.raises(ToleranceUnreachable, match="bits"):
        metrics._root_bits(Fraction(17, 12), Fraction(3), Fraction(1, 2**70000))


def _lp_norm_oracle(coeffs, gamma, p):
    """mpmath 40-digit ||sum_n a_n t^n / n!||_p on [0, gamma], integrated
    piecewise between the real roots inside the window."""
    with mpmath.workdps(40):
        mono = [mpmath.mpf(c.numerator) / c.denominator / mpmath.factorial(n)
                for n, c in enumerate(coeffs)]
        while len(mono) > 1 and mono[-1] == 0:
            mono.pop()
        g = mpmath.mpf(gamma.numerator) / gamma.denominator
        pm = mpmath.mpf(p.numerator) / p.denominator
        cuts = [mpmath.mpf(0), g]
        if len(mono) > 1:
            # a multiple root at 0, the window's end, stalls Durand-Kerner;
            # divide out the power of t
            low = next(i for i, c in enumerate(mono) if c)
            roots = mpmath.polyroots(mono[low:][::-1], maxsteps=200, extraprec=200)
            cuts += [mpmath.re(r) for r in roots
                     if abs(mpmath.im(r)) < 1e-10 and 0 < mpmath.re(r) < g]
        value = mpmath.quad(lambda t: abs(mpmath.polyval(mono[::-1], t)) ** pm, sorted(cuts))
        return value ** (1 / pm)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)), min_size=1, max_size=9),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
    # both signs of p - 2, ..., p - 5, which sign the remainder's leading
    # terms (the R_1^6 coefficient is p (p - 1) ... (p - 5))
    st.sampled_from([Fraction(4, 3), Fraction(3, 2), Fraction(9, 4), Fraction(5, 2),
                     Fraction(7, 2), Fraction(11, 10), Fraction(9, 2), Fraction(11, 2)]
                    # integer p, on the panels' exact integrals
                    + [Fraction(k) for k in range(1, 6)]),
)
@example([Fraction(3)], Fraction(1), Fraction(3, 2))  # a constant: no differences
@example([Fraction(-1), Fraction(2)], Fraction(2), Fraction(4, 3))  # a line through 1/2
# -3 - t + t^2/4 < 0 on [0, 1]: every panel is negative
@example([Fraction(-3), Fraction(-1), Fraction(1, 2)], Fraction(1), Fraction(9, 4))
@example([Fraction(0)] * 4 + [Fraction(1)], Fraction(1, 2), Fraction(4, 3))  # t^4/24: a root of order 4 at 0
# simple roots, on the Taylor model: 2 - 3t + t^3/6 near 0.69, and
# 1 - 3t + t^2/4 near 0.34
@example([Fraction(2), Fraction(-3), Fraction(0), Fraction(1)], Fraction(2), Fraction(4, 3))
@example([Fraction(1), Fraction(-3), Fraction(1, 2)], Fraction(1), Fraction(5, 2))
def test_fractional_rho_p_contains_the_quad_oracle(coeffs, gamma, p):
    tol = Fraction(1, 10**6)
    box = series_norm(series(FiniteSupport(tuple(coeffs)), gamma), LpSpec(p, gamma), tol)
    assert box.width < tol
    value = _lp_norm_oracle(coeffs, gamma, p)
    margin = mpmath.mpf(10) ** -25
    with mpmath.workdps(40):
        lo = mpmath.mpf(box.lo.numerator) / box.lo.denominator
        hi = mpmath.mpf(box.hi.numerator) / box.hi.denominator
        assert lo - margin <= value <= hi + margin


@pytest.mark.parametrize(
    "coeffs, gamma, before, most",
    [
        # ones against zero: e^t; the corrected trapezoid split 15 panels
        (None, 1, 15, 7),
        # 1 - 2t, a root at 1/2: the corrected trapezoid split 63 panels
        # and the sixth-order rule 45, with the crude bound on the root
        # panels; product integration, and the Taylor model across the
        # root after it, are exact on a line
        ((1, -2), 1, 45, 0),
        # 2 - 3t + t^3/6 on [0, 2], a root near 0.69: 57 splits with the
        # crude bound on the root panels, 45 with product integration
        ((2, -3, 0, 1), 2, 45, 20),
        # 1 - 5t + 3t^2/2, a root near 0.21: 35 with product integration
        ((1, -5, 3), 1, 35, 8),
        # 1 - 4t + t^2 - t^3 + t^4/3 + t^5/40 on [0, 2], a root near 0.26:
        # 46 with product integration (and 27 with a degree-4 model and its
        # fifth-order remainder)
        ((1, -4, 2, -6, 8, 3), 2, 46, 16),
    ],
)
def test_fractional_rule_splits_few_panels(coeffs, gamma, before, most):
    # the sixth-order rule's h^7 remainder, and the Taylor model across a
    # simple root, need fewer splits than the rules before them at tol
    # 1e-6
    assert most < before
    f = ONES if coeffs is None else FiniteSupport(coeffs)
    with metrics.count_splits() as splits:
        box = rho_p(series(f, gamma), series(ZEROS, gamma), LpSpec(Fraction(3, 2), gamma), Fraction(1, 10**6))
    assert box.width <= Fraction(1, 10**6)
    assert splits.total() <= most


@pytest.mark.parametrize("gamma, width", [(1, 1.8520662542375615e-07), (2, 1.7014924702975195e-07)])
def test_sign_definite_panels_work_out_their_remainder_first(monkeypatch, gamma, width):
    # e^t at p = 3/2, tol 1e-6: every panel that splits fails on its h^7
    # remainder alone, so it builds no Taylor model; each kept panel builds
    # one, and the widths are those of the rule that modelled every panel
    models, power_taylor = [], metrics._power_taylor

    def counted(*args):
        models.append(None)
        return power_taylor(*args)
    monkeypatch.setattr(metrics, "_power_taylor", counted)
    with metrics.count_splits() as splits:
        box = rho_p(series(ONES, gamma), series(ZEROS, gamma), LpSpec(Fraction(3, 2), gamma),
                    Fraction(1, 10**6))
    assert splits.total() > 0
    assert len(models) == splits.total() + 1
    assert float(box.width) == width


def test_split_census_counts_by_kind_and_only_inside_its_block():
    assert metrics._census is None
    spec = LpSpec(Fraction(3, 2), 2)
    f, g = series(FiniteSupport((2, -3, 0, 1)), 2), series(ZEROS, 2)
    with metrics.count_splits() as outer:
        rho_p(f, g, spec, Fraction(1, 10**6))
        with metrics.count_splits() as inner:
            rho_p(f, g, spec, Fraction(1, 10**7))
        assert metrics._census is outer
    assert metrics._census is None
    assert outer.total() > 0 and inner.total() > outer.total()
    assert set(outer) | set(inner) <= {"taylor", "crude", "root-taylor", "root-crude", "nonmonotone"}
    # a root panel splits on its Taylor model or before it, on the remainder
    assert outer["root-taylor"] + outer["root-crude"] > 0
    counts = (dict(outer), dict(inner))
    rho_p(f, g, spec, Fraction(1, 10**8))  # outside every block: nothing counted
    assert (dict(outer), dict(inner)) == counts
    # the odd-p sign partition counts its own kinds: 1 - 5t + 3t^2/2 at
    # p = 3 settles its one root panel in a bracket; 1 - 11t/2 + 12t^2 has
    # two roots in the window, so that panel is halved and each half
    # bracketed; even p takes the window whole
    with metrics.count_splits() as odd:
        for coeffs, p in (((1, -5, 3), 3), ((2, -11, 24), 3), ((2, -11, 24), 2)):
            rho_p(series(FiniteSupport(coeffs)), series(ZEROS), LpSpec(p, 1), Fraction(1, 10**9))
            if coeffs == (1, -5, 3):
                assert dict(odd) == {"int-bracket": 1}
    assert dict(odd) == {"int-bracket": 3, "int-split": 1}


def _split_norm_oracle(mono, r, gamma, p):
    """mpmath 50-digit ||P||_p on [0, gamma], P with monomial coefficients
    mono and its one root in the window at the rational r, integrated
    piecewise on each side of r."""
    with mpmath.workdps(50):
        q = [mpmath.mpf(c.numerator) / c.denominator for c in mono]
        pm = mpmath.mpf(p.numerator) / p.denominator
        cuts = sorted({Fraction(0), r, gamma})
        pts = [mpmath.mpf(c.numerator) / c.denominator for c in cuts]
        value = mpmath.quad(lambda t: abs(mpmath.polyval(q[::-1], t)) ** pm, pts)
        return value ** (1 / pm)


def _root_times_definite(s, r):
    """Scaled Taylor coefficients of (t - r) S(t), S with monomial
    coefficients s, and the product's monomial coefficients."""
    mono = [-r * s[0]] + [s[k - 1] - r * (s[k] if k < len(s) else 0) for k in range(1, len(s) + 1)]
    return tuple(c * math.factorial(k) for k, c in enumerate(mono)), mono


def _assert_contains(box, value):
    with mpmath.workdps(50):
        margin = mpmath.mpf(10) ** -40
        lo = mpmath.mpf(box.lo.numerator) / box.lo.denominator
        hi = mpmath.mpf(box.hi.numerator) / box.hi.denominator
        assert lo - margin <= value <= hi + margin


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-3, 3), max_size=3),
    st.fractions(min_value=0, max_value=1, max_denominator=200),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
    st.sampled_from([Fraction(4, 3), Fraction(3, 2), Fraction(5, 2)]),
    st.sampled_from([1, -1]),
)
@example([], Fraction(1, 3), Fraction(1), Fraction(3, 2), 1)  # a line
@example([1], Fraction(0), Fraction(1), Fraction(4, 3), -1)  # a root at t = 0: a_0 = 0
# a root within 2^-40 of the panel end at 1/2
@example([0, -1], Fraction(1, 2) + Fraction(1, 2**41), Fraction(1), Fraction(5, 2), 1)
def test_root_panels_contain_the_split_quad_oracle(s, u, gamma, p, sign):
    # P = (t - r) S(t), S one-signed on [0, gamma]: S's constant term
    # outweighs the rest there
    r = u * gamma
    s0 = 1 + math.ceil(sum(abs(c) * gamma ** (k + 1) for k, c in enumerate(s)))
    coeffs, mono = _root_times_definite([sign * s0] + [sign * c for c in s], r)
    tol = Fraction(1, 10**6)
    box = rho_p(series(FiniteSupport(coeffs), gamma), series(ZEROS, gamma), LpSpec(p, gamma), tol)
    assert box.width < tol
    _assert_contains(box, _split_norm_oracle(mono, r, gamma, p))


@pytest.mark.parametrize("offset", [1 << 41, -(1 << 41)])
@pytest.mark.parametrize("s, r", [([1], Fraction(1, 3)), ([2, 1, -1], Fraction(3, 7))])
def test_root_panels_hold_at_any_taylor_point(monkeypatch, offset, s, r):
    # the Taylor point needs no certificate: 2^-12 off the root on every
    # panel, a_0 is far from 0 and the enclosure still holds
    guess = metrics._root_guess
    top = 1 << metrics._GUESS_BITS
    monkeypatch.setattr(metrics, "_root_guess", lambda coeffs: min(max(guess(coeffs) + offset, 0), top))
    coeffs, mono = _root_times_definite(s, r)
    p, tol = Fraction(3, 2), Fraction(1, 10**6)
    box = rho_p(series(FiniteSupport(coeffs)), series(ZEROS), LpSpec(p, 1), tol)
    assert box.width < tol
    _assert_contains(box, _split_norm_oracle(mono, r, Fraction(1), p))


def _kernel(mono, gamma):
    """_bernstein's (B, L, delta) for P on [0, gamma], P with monomial
    coefficients mono, read as integer numerators over one lcm."""
    nums, m = _numerators([c * math.factorial(k) for k, c in enumerate(mono)])
    return metrics._bernstein(m, *gamma.as_integer_ratio(), *nums)


def _unit_kernel(mono, gamma):
    """(B, L, s): the kernels' integers for P / s on [0, gamma], P with
    monomial coefficients mono and s the power of 2 that puts max|B| / L
    in [1, 2), the scale _norm_of_poly integrates at."""
    B, L, _ = _kernel(mono, gamma)
    top, s = Fraction(max(map(abs, B)), L), Fraction(1)
    while top >= 2 * s:
        s *= 2
    while top < s:
        s /= 2
    return [b * s.denominator for b in B], L * s.numerator, s


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-4, 4), max_size=8),
    st.integers(0, 9),
    st.booleans(),
    st.fractions(min_value=0, max_value=1, max_denominator=100),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
    st.sampled_from([Fraction(4, 3), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3)]),
    st.sampled_from([1, -1]),
)
@example([], 0, False, Fraction(0), Fraction(1), Fraction(3, 2), 1)  # a constant
@example([], 0, True, Fraction(1, 3), Fraction(1), Fraction(3, 2), 1)  # a line across a root
# 10 + t on [0, 1/2]: F_6 is the one monomial p (p - 1) ... (p - 5) R_1^6
# and R_1 is nearly constant, so the remainder's enclosure is within a
# factor 2 of its value
@example([1], 9, False, Fraction(0), Fraction(1, 2), Fraction(4, 3), 1)
def test_one_panel_model_contains_the_quad_oracle(c, lift, root, u, gamma, p, sign):
    # at a tolerance past the double range no panel splits: the kernel
    # returns the whole window's Taylor model, intersected with the crude
    # bound.  c holds scaled Taylor coefficients c_1, c_2, ... of P, or
    # with a root of P' (c_8 dropped), after a constant term s0 that is
    # lift more than the least integer above the rest's sup on [0, gamma].
    # With a root, P(r) = 0 at r = u gamma, so P's Bernstein differences
    # share a sign and the root panel takes the model across the root.
    c = c[:7] if root else c
    tail = [Fraction(x, math.factorial(k)) for k, x in enumerate(c, 1)]
    s0 = 1 + lift + math.floor(sum(abs(x) * gamma**k for k, x in enumerate(tail, 1)))
    if root:
        r = u * gamma
        slope = [Fraction(s0)] + tail
        mono = [-sum(d * r ** (k + 1) / (k + 1) for k, d in enumerate(slope))]
        mono += [d / (k + 1) for k, d in enumerate(slope)]
        cuts = [Fraction(0), r, gamma]
    else:
        mono = [Fraction(s0)] + tail
        cuts = [Fraction(0), gamma]
    mono = [sign * m for m in mono]
    B, L, s = _unit_kernel(mono, gamma)
    with metrics.count_splits() as splits:
        box = metrics._integral_abs_pow_frac(B, L, gamma, p, Fraction(10**400))
    assert splits.total() == 0
    with mpmath.workdps(40):
        q = [mpmath.mpf(m.numerator) / m.denominator for m in mono]
        pm = mpmath.mpf(p.numerator) / p.denominator
        pts = [mpmath.mpf(x.numerator) / x.denominator for x in sorted(set(cuts))]
        value = mpmath.quad(lambda t: abs(mpmath.polyval(q[::-1], t)) ** pm, pts)
        value /= (mpmath.mpf(s.numerator) / s.denominator) ** pm
        lo = mpmath.mpf(box.lo.numerator) / box.lo.denominator
        hi = mpmath.mpf(box.hi.numerator) / box.hi.denominator
        margin = mpmath.mpf(10) ** -30
        assert lo - margin <= value <= hi + margin


@pytest.mark.parametrize("p", [1, 3, 5])
@pytest.mark.parametrize("a, b", [(1, -2), (3, -8), (-5, 8)])
def test_odd_power_across_a_dyadic_root_is_exact(a, b, p):
    # the line a + bt on [0, 1] has its root at the dyadic -a/b, where the
    # bracket's guess lands exactly: both sides integrate exactly, with no
    # slack, to (|a|^(p+1) + |a + b|^(p+1)) / (|b| (p + 1))
    exact = Fraction(abs(a) ** (p + 1) + abs(a + b) ** (p + 1), abs(b) * (p + 1))
    with metrics.count_splits() as splits:
        box = metrics._integral_abs_pow_int(*metrics._bernstein(1, 1, 1, a, b), Fraction(1), p,
                                            Fraction(1, 10**30))
    assert box.lo == box.hi == exact
    assert dict(splits) == {"int-bracket": 1}


@pytest.mark.parametrize("end", ["left", "right"])
@pytest.mark.parametrize("p", [1, 3])
def test_odd_power_holds_when_the_guess_is_a_panel_end(monkeypatch, end, p):
    # _root_guess needs no certificate: pinned to a panel end, the bracket
    # widens toward the root, and past its widest step the panel is halved
    top = 1 << metrics._GUESS_BITS
    monkeypatch.setattr(metrics, "_root_guess", lambda coeffs: 0 if end == "left" else top)
    mono = [Fraction(1), Fraction(-5), Fraction(3, 2)]  # a root near 0.213
    tol = Fraction(1, 10**12)
    with metrics.count_splits() as splits:
        box = metrics._integral_abs_pow_int(*metrics._bernstein(1, 1, 1, 1, -5, 3), Fraction(1), p, tol)
    assert box.width < tol
    assert splits["int-split"] > 0
    _assert_contains(box, _odd_power_oracle(mono, Fraction(1), p))


def _odd_power_oracle(mono, gamma, p):
    """mpmath 50-digit int_0^gamma |P|^p for odd p, P with monomial
    coefficients mono: P^p's exact antiderivative at the real roots from
    mpmath.polyroots in the window, each piece signed by P at its middle."""
    anti = [Fraction(0)] + [c / (k + 1) for k, c in enumerate(_schoolbook_power(mono, p))]
    with mpmath.workdps(50):
        cuts = [mpmath.mpf(0), mpmath.mpf(gamma.numerator) / gamma.denominator]
        q = list(mono)
        while len(q) > 1 and q[-1] == 0:
            q.pop()
        low = next((i for i, c in enumerate(q) if c), len(q))
        if len(q) - low > 1:
            # a multiple root at 0 stalls Durand-Kerner; divide out the power of t
            roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator for c in q[low:][::-1]],
                                     maxsteps=500, extraprec=400)
            cuts += [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < 1e-30 and 0 < mpmath.re(r) < cuts[1]]
        cuts.sort()
    # the pieces cancel in P^p's large coefficients, so sum them well past 50 digits
    with mpmath.workdps(400):
        def at(coeffs, t):
            return mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator for c in coeffs[::-1]], t)
        value = mpmath.mpf(0)
        for lo, hi in zip(cuts, cuts[1:]):
            value += mpmath.sign(at(mono, (lo + hi) / 2)) * (at(anti, hi) - at(anti, lo))
        return +value


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=9),
    st.one_of(st.none(), st.integers(0, 2**29 - 1)),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
    st.sampled_from([1, 3, 5]),
)
@example([1], 0, Fraction(1), 3)  # roots at 0 and 2^-30
@example([3, -1], 2**28, Fraction(2), 5)  # roots at 1/4 and 1/4 + 2^-30, and at 3
@example([-2, 0, 1], None, Fraction(2), 1)  # a root at sqrt(2)
@example([0, 0, 0, 1], None, Fraction(1), 3)  # t^3: a triple root at 0
def test_odd_power_integral_contains_the_piecewise_oracle(c, pair, gamma, p):
    # P = sum c_k t^k, times (2^30 t - pair)(2^30 t - pair - 1), whose
    # roots 2^-30 apart lie in [0, 1/2], when pair is drawn; degree <= 8
    mono = [Fraction(x) for x in c]
    if pair is not None:
        mono = mono[:7]
        for r in (pair, pair + 1):  # times 2^30 t - r
            mono = [(2**30 * mono[k - 1] if k else 0) - (r * mono[k] if k < len(mono) else 0)
                    for k in range(len(mono) + 1)]
    B, L, delta = _kernel(mono, gamma)
    scale = gamma * Fraction(max(map(abs, B)), L) ** p
    tol = scale / 10**12 if scale else Fraction(1)
    box = metrics._integral_abs_pow_int(B, L, delta, gamma, p, tol)
    assert box.width < tol
    value = _odd_power_oracle(mono, gamma, p)
    with mpmath.workdps(50):
        margin = (mpmath.mpf(scale.numerator) / scale.denominator) * mpmath.mpf(10) ** -40
        lo = mpmath.mpf(box.lo.numerator) / box.lo.denominator
        hi = mpmath.mpf(box.hi.numerator) / box.hi.denominator
        assert lo - margin <= value <= hi + margin


@pytest.mark.parametrize("p", [Fraction(4, 3), Fraction(3, 2)])
def test_fractional_panels_pass_unused_share_on_and_stay_within_tol(p):
    # 2 - 3t + t^3/6 on [0, 2], a root near 0.69, at tol 1e-10: tens of
    # panels, each kept within its share plus what the panels before it
    # left unused; the whole enclosure is no wider than tol and holds a
    # 40-digit mpmath.quad value
    gamma, tol = Fraction(2), Fraction(1, 10**10)
    B, L, s = _unit_kernel([Fraction(2), Fraction(-3), Fraction(0), Fraction(1, 6)], gamma)
    with metrics.count_splits() as splits:
        box = metrics._integral_abs_pow_frac(B, L, gamma, p, tol)
    assert splits.total() >= 10
    assert box.width <= tol
    with mpmath.workdps(40):
        value = (_lp_norm_oracle([Fraction(2), Fraction(-3), Fraction(0), Fraction(1)], gamma, p)
                 / (mpmath.mpf(s.numerator) / s.denominator)) ** (mpmath.mpf(p.numerator) / p.denominator)
        margin = mpmath.mpf(10) ** -30
        assert mpmath.mpf(box.lo.numerator) / box.lo.denominator - margin <= value
        assert value <= mpmath.mpf(box.hi.numerator) / box.hi.denominator + margin


def _schoolbook_power(beta, p):
    """The p-th convolution power of beta, one product at a time."""
    c = list(beta)
    for _ in range(p - 1):
        c, prev = [0] * (len(c) + len(beta) - 1), c
        for i, x in enumerate(prev):
            for j, y in enumerate(beta):
                c[i + j] += x * y
    return c


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300).flatmap(
           lambda bits: st.lists(st.integers(-(1 << bits), 1 << bits), min_size=1, max_size=25)),
       st.integers(1, 7))
@example([-(1 << 64)] * 17, 7)  # every slot at its bound, negative
@example([1 << 64, -(1 << 64)] * 8, 6)
@example([0, 0, 0], 3)
def test_convolution_power_matches_the_schoolbook_product(beta, p):
    assert metrics._convolution_power(beta, p) == _schoolbook_power(beta, p)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=7),
    st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
    st.integers(1, 6),
)
@example([1, 1, 1, 1, 1, 1, 1], Fraction(2), 6)
@example([0], Fraction(1), 3)  # the zero polynomial
@example([2, -1], Fraction(2), 5)  # a line with its root at the window's end
def test_exact_integer_power_is_the_schoolbook_antiderivative(c, gamma, p):
    # P = sum c_k t^k.  Where p is even, or P's Bernstein coefficients on
    # the window share a sign, the kernel's enclosure has width 0 and is
    # |int_0^gamma P^p|, from P^p's Fraction antiderivative term by term
    mono = [Fraction(x) for x in c]
    B, L, delta = _kernel(mono, gamma)
    assume(p % 2 == 0 or min(B) >= 0 or max(B) <= 0)
    value = sum(x * gamma ** (k + 1) / (k + 1) for k, x in enumerate(_schoolbook_power(mono, p)))
    box = metrics._integral_abs_pow_int(B, L, delta, gamma, p, Fraction(1, 10**30))
    assert box.lo == box.hi == abs(value)


def _monomial_sum(coefficients, R):
    """sum c prod_j R_j^(e_j) over {exponents of R_1, R_2, ...: c}."""
    return sum(c * math.prod(r**e for r, e in zip(R, exps)) for exps, c in coefficients.items())


def test_power_taylor_gives_the_derivatives_of_a_power():
    # the corrected trapezoid's hand-written third- and fourth-derivative
    # coefficients at p = 3/2, against Miller's recurrence on a few Q
    p = Fraction(3, 2)
    F3 = {(3, 0, 0): p * (p - 1) * (p - 2), (1, 1, 0): 3 * p * (p - 1), (0, 0, 1): p}
    F4 = {(4, 0, 0, 0): p * (p - 1) * (p - 2) * (p - 3), (2, 1, 0, 0): 6 * p * (p - 1) * (p - 2),
          (0, 2, 0, 0): 3 * p * (p - 1), (1, 0, 1, 0): 4 * p * (p - 1), (0, 0, 0, 1): p}
    for T in ([1], [2, 1], [3, -1, 4], [5, 2, -7, 1], [7, -3, 0, 2, 9], [1, 10, -10, 10, -10]):
        N = metrics._power_taylor(T, p, 4)
        assert N[0] == 1 and N[1] == p.numerator * (T + [0])[1]
        R = [math.factorial(j) * Fraction(t, T[0]) for j, t in enumerate(T)][1:] + [Fraction(0)] * 4
        for k, F in ((3, F3), (4, F4)):
            assert Fraction(N[k], p.denominator**k * T[0] ** k) == _monomial_sum(F, R)
    # F_6 / 6!, one coefficient per partition of 6 in the order the panels
    # evaluate: (p)_6 R_1^6 first, p R_6 last
    f6 = metrics._f6_coefficients(p)
    assert len(f6) == len(set(metrics._F6_MONOMIALS)) == 11
    assert f6[0] == Fraction(315, 64) / 720 and f6[-1] == p / 720


def _power_derivative_ratio(taylor, p, k):
    """(Q^p)^(k) / Q^p at a point where Q has the Taylor coefficients
    taylor, from the binomial series of (1 + u)^p, u = Q / Q(0) - 1."""
    u = [Fraction(0)] + [a / taylor[0] for a in taylor[1:k + 1]]
    u += [Fraction(0)] * (k + 1 - len(u))
    total, term, binom = [Fraction(1)] + [Fraction(0)] * k, [Fraction(1)] + [Fraction(0)] * k, Fraction(1)
    for i in range(1, k + 1):
        term = [sum(term[j] * u[m - j] for j in range(m + 1)) for m in range(k + 1)]
        binom = binom * (p - i + 1) / i
        total = [t + binom * x for t, x in zip(total, term)]
    return math.factorial(k) * total[k]


_EXPONENTS = [Fraction(3, 2), Fraction(4, 3), Fraction(11, 2), Fraction(101, 100), Fraction(200, 3),
              Fraction(1.1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_EXPONENTS),
       st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(lambda c: c[0] != 0))
def test_power_taylor_matches_the_binomial_series(p, taylor):
    # with h = 1, F_k(R) with R_j = j! a_j / a_0 for Q's Taylor
    # coefficients a_j is (Q^p)^(k) / Q^p: k! N_k / (c^k k! a_0^k) for
    # k <= 5, and 6! times the closed-form F_6 / 6! at k = 6
    c, exact = p.denominator, [Fraction(a) for a in taylor]
    N = metrics._power_taylor(taylor, p, 5)
    for k in range(6):
        assert Fraction(N[k], c**k * taylor[0] ** k) == _power_derivative_ratio(exact, p, k)
    R = [math.factorial(j) * a / exact[0] for j, a in enumerate(exact)][1:]
    R += [Fraction(0)] * (6 - len(R))
    F6 = dict(zip(metrics._F6_MONOMIALS, metrics._f6_coefficients(p)))
    assert 720 * _monomial_sum(F6, R) == _power_derivative_ratio(exact, p, 6)


_SMALL_FRACTIONS = st.fractions(-4, 4, max_denominator=16)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_EXPONENTS),
       st.lists(st.tuples(_SMALL_FRACTIONS, st.sampled_from([Fraction(0), Fraction(1, 64), Fraction(1, 2)]),
                          st.sampled_from([Fraction(0), Fraction(1, 64), Fraction(1, 2)])),
                min_size=6, max_size=6))
@example(Fraction(3, 2), [(Fraction(j + 1, 3), Fraction(0), Fraction(0)) for j in range(6)])
def test_f6_at_encloses_the_closed_form(p, boxes):
    # the hand-written Horner over boxes [R_j - l_j, R_j + u_j] holds the
    # exact sum of F_6 / 6!'s coefficients times the monomials at R
    f6 = metrics._f6_coefficients(p)
    R = [r for r, _, _ in boxes]
    r = [(metrics._fc(x - lo)[0], metrics._fc(x + hi)[1]) for x, lo, hi in boxes]
    lo, hi = metrics._f6_at([metrics._fc(x) for x in f6], *r)
    assert Fraction(lo) <= _monomial_sum(dict(zip(metrics._F6_MONOMIALS, f6)), R) <= Fraction(hi)


def test_fractional_rho_p_at_tiny_coefficient_scales():
    # ||1 - 2t||_{3/2} on [0, 1] is (2/5)^(2/3); at 2^-280 and below, a
    # fourth power of |P| or of a derivative bound underflows the doubles,
    # so the remainder must be built from scale-free ratios
    for e in (-280, -600):
        c = Fraction(2) ** e
        tol = c / 10**6
        box = series_norm(series(FiniteSupport((c, -2 * c))), LpSpec(Fraction(3, 2), 1), tol)
        assert box.width <= tol
        assert box.lo**3 <= Fraction(4, 25) * c**3 <= box.hi**3


def test_fractional_rho_p_across_a_nearly_flat_simple_root():
    # (t - 1/2)^3 + 2^-1100 (t - 1/2): monotone with one simple root where
    # P' is 2^-1100, below every double; the product bound raised
    # DomainError on its slope's power
    eps = Fraction(1, 2**1100)
    mono = [-Fraction(1, 8) - eps / 2, Fraction(3, 4) + eps, Fraction(-3, 2), Fraction(1)]
    coeffs = tuple(c * math.factorial(k) for k, c in enumerate(mono))
    p, tol = Fraction(3, 2), Fraction(1, 10**6)
    box = series_norm(series(FiniteSupport(coeffs)), LpSpec(p, 1), tol)
    assert box.width < tol
    _assert_contains(box, _split_norm_oracle(mono, Fraction(1, 2), Fraction(1), p))


def test_float_interval_product_claims_nothing_from_a_nan():
    # 0 * inf and inf - inf give nan, which min/max would silently skip
    assert metrics._fi_mul((5.0, math.nan), (1.0, 2.0)) == (-math.inf, math.inf)
    assert metrics._fi_mul((0.0, 1.0), (-math.inf, math.inf)) == (-math.inf, math.inf)
    lo, hi = metrics._fi_mul((1.0, 2.0), (3.0, 4.0))
    assert lo < 3.0 < 8.0 < hi
    assert metrics._fi_sq((-3.0, 2.0)) == (0.0, math.nextafter(9.0, math.inf))


def test_rho_p_fractional_exponent_with_a_tolerance_past_the_double_range():
    # ||1 + 2t||_{3/2} on [0, 1] = ((3^(5/2) - 1) / 5)^(2/3) = 2.0418613...
    box = rho_p(series(FiniteSupport((1, 2))), series(ZEROS), LpSpec(Fraction(3, 2), 1),
                Fraction(10**400))
    with mpmath.workdps(40):
        value = ((mpmath.mpf(3) ** (mpmath.mpf(5) / 2) - 1) / 5) ** (mpmath.mpf(2) / 3)
    _assert_contains(box, value)


def test_rho_p_trivial_and_domain_checks():
    f = series(EventuallyPeriodic((3,), (0, 2)))
    z = rho_p(f, f, LpSpec(2, 1), Fraction(1, 10**6))
    assert z.lo == 0 and z.hi <= Fraction(1, 10**6)
    with pytest.raises(DomainError):
        rho_p(series(ONES, 1), series(ONES, 2), LpSpec(1, 1))
    with pytest.raises(DomainError):
        rho_p(
            SeriesFn(ONES, 1, origin=0),
            SeriesFn(ONES, 1, origin=1),
            LpSpec(1, 1),
        )


def test_rho_p_sign_change_integrand():
    # f - g = x - 1/2 changes sign inside [0,1]; |.| integral is 1/4
    f = series(FiniteSupport((0, 1)))
    g = series(FiniteSupport((Fraction(1, 2),)))
    box = rho_p(f, g, LpSpec(1, 1), Fraction(1, 10**12))
    assert box.contains(Fraction(1, 4))
    sup = rho_p(f, g, LpSpec(math.inf, 1), Fraction(1, 10**12))
    assert sup.contains(Fraction(1, 2))


@pytest.mark.parametrize(
    "coeffs, p, power_of_norm",
    [
        # t - 1/3, a simple root
        ((Fraction(-1, 3), 1), 1, Fraction(5, 18)),
        ((Fraction(-1, 3), 1), 3, (Fraction(1, 3) ** 4 + Fraction(2, 3) ** 4) / 4),
        # (t - 1/3)^2: the double root is never a split point, so every
        # panel around it keeps a sign change in its Bernstein coefficients
        ((Fraction(1, 9), Fraction(-2, 3), 2), 1, Fraction(1, 9)),
        ((Fraction(1, 9), Fraction(-2, 3), 2), 3, (Fraction(1, 3) ** 7 + Fraction(2, 3) ** 7) / 7),
        # t - 1/3 at even p: the root panel's exact integral, no sign analysis
        ((Fraction(-1, 3), 1), 2, Fraction(1, 9)),
        ((Fraction(-1, 3), 1), 4, Fraction(11, 405)),
    ],
)
def test_integer_p_norm_across_roots(coeffs, p, power_of_norm):
    box = series_norm(series(FiniteSupport(coeffs)), LpSpec(p, 1), Fraction(1, 10**8))
    assert box.lo**p <= power_of_norm <= box.hi**p


small_ints = st.integers(-3, 3)
periodic_streams = st.builds(EventuallyPeriodic, st.lists(small_ints, max_size=5),
                             st.lists(small_ints, min_size=1, max_size=3))
word_streams = st.builds(WordEnumeration,
                         st.lists(small_ints, min_size=2, max_size=2, unique=True).map(
                             lambda letters: Alphabet(tuple(letters))),
                         st.integers(0, 30))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2), math.inf]),
       st.integers(-1100, 1100), st.tuples(periodic_streams, periodic_streams),
       st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
@example(Fraction(3, 2), 1100, (ONES, EventuallyPeriodic((), (0,))), Fraction(1))
@example(Fraction(3), -1100, PAIR0, Fraction(1, 2))
def test_rho_p_scales_exactly(p, k, pair, gamma):
    # the kernels see the same rationals for 2^k (a - b) at 2^k tol, so the
    # enclosure scales by 2^k bit for bit, far past both ends of the double
    # range
    a, b = pair
    spec, tol = LpSpec(p, gamma), Fraction(1, 10**6)
    base = rho_p(series(a, gamma), series(b, gamma), spec, tol)
    c = Fraction(2) ** k
    a_c, b_c = (EventuallyPeriodic([x * c for x in s.preamble], [x * c for x in s.period]) for s in pair)
    got = rho_p(series(a_c, gamma), series(b_c, gamma), spec, tol * c)
    assert (got.lo, got.hi) == (base.lo * c, base.hi * c)


@st.composite
def rooted_pairs(draw, gamma):
    """Finite-support (a, b) with a - b = (x - r) Q(x), r inside (0, gamma):
    the tail is exactly 0, yet the sign partition has a root to chase."""
    r = gamma * draw(st.fractions(0, 1, max_denominator=9).filter(lambda t: 0 < t < 1))
    q = draw(st.lists(small_ints, min_size=1, max_size=4).filter(any))
    mono = [x - r * c for x, c in zip([0] + q, q + [0])]  # x Q(x) - r Q(x)
    b = draw(st.lists(small_ints, max_size=6))
    n = max(len(mono), len(b))
    mono += [0] * (n - len(mono))
    b += [0] * (n - len(b))
    a = [x + c * math.factorial(i) for i, (x, c) in enumerate(zip(b, mono))]
    return FiniteSupport(tuple(a)), FiniteSupport(tuple(b))


@st.composite
def rho_1_cases(draw):
    gamma = draw(st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2))))
    a, b = draw(st.one_of(st.tuples(periodic_streams, periodic_streams), rooted_pairs(gamma),
                          st.tuples(word_streams, st.one_of(periodic_streams, word_streams))))
    return series(a, gamma), series(b, gamma)


@settings(max_examples=120, deadline=None)
@given(rho_1_cases())
def test_rho_1_lower_bound_is_a_lower_bound(pair):
    f, g = pair
    lower = rho_1_lower_bound(f, g)
    assert 0 <= lower <= rho_p(f, g, LpSpec(1, f.gamma), Fraction(1, 10**6)).hi


def test_finite_support_difference_has_no_tail_slack():
    # a - b = (0, -7): |f - g| = 7x on [0, 1], so rho_1 = 7/2, rho_inf = 7
    f, g = series(FiniteSupport((1, -5))), series(FiniteSupport((1, 2)))
    rho_1 = rho_p(f, g, LpSpec(1, 1))
    assert rho_1.lo == rho_1.hi == Fraction(7, 2)
    rho_inf = rho_p(f, g, LpSpec(math.inf, 1))
    assert rho_inf.lo == rho_inf.hi == 7
    assert rho_1_lower_bound(f, g) == Fraction(7, 2)
    assert rho_1_lower_bound(series(ONES), series(ONES)) == 0


def test_tolerances_past_the_int_to_str_limit_reach_their_results():
    # 2^-20000 has 6,021 digits; str() of it raises ValueError past 4,300
    tol = Fraction(1, 2**20000)
    zero = FiniteSupport(())
    assert d_E(FiniteSupport((1, 2)), zero, tol) == BoundInterval.exact(2)
    with pytest.raises(ToleranceUnreachable, match="tol=~"):
        rho_p(series(FiniteSupport((1, 2))), series(zero), LpSpec(Fraction(3, 2), 1), tol)


def test_series_norm_is_distance_to_zero():
    f = series(FiniteSupport((0, 1)), 2)
    spec = LpSpec(1, 2)
    a = series_norm(f, spec, Fraction(1, 10**9))
    assert a.contains(2)


def test_holder_reference_triples():
    ones = series(ONES)
    lhs, rhs = holder_compare(ones, 1, math.inf)
    assert lhs.lo <= E_MINUS_1 <= lhs.hi
    assert rhs.lo <= E <= rhs.hi
    assert lhs.lo <= rhs.hi

    const = series(FiniteSupport((1,)))
    lhs, rhs = holder_compare(const, 1, math.inf)
    assert lhs.contains(1) and rhs.contains(1)

    linear = series(FiniteSupport((0, 1)), 2)
    lhs, rhs = holder_compare(linear, 1, 2)
    assert lhs.contains(2)
    assert rhs.lo <= HOLDER_X_RHS <= rhs.hi
    assert lhs.lo <= rhs.hi

    # p = q degenerates to equality and is tolerated; p > q is not
    lhs, rhs = holder_compare(ones, 2, 2)
    assert lhs.intersects(rhs)
    with pytest.raises(DomainError):
        holder_compare(ones, 3, 2)
    with pytest.raises(DomainError):
        holder_compare(ones, 0, 1)


def test_holder_random_never_refuted():
    rng = random.Random(505)
    exponents = (Fraction(1), Fraction(4, 3), Fraction(2), Fraction(3), math.inf)
    for _ in range(40):
        coeffs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4))
        gamma = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
        f = series(FiniteSupport(coeffs), gamma)
        p, q = sorted(rng.sample(exponents, 2), key=lambda v: (v is not math.inf, v))
        p, q = (q, p) if q is not math.inf and (p is math.inf or q < p) else (p, q)
        if p == q:
            continue
        lhs, rhs = holder_compare(f, p, q)
        assert lhs.lo <= rhs.hi


def test_continuity_deltas_trigger():
    # rho_1 closeness below delta forces d_E below eps
    gamma = Fraction(1)
    eps = Fraction(1, 10)
    n, delta = continuity_delta_l1(gamma, eps)
    assert delta > 0
    base = EventuallyPeriodic((), (1,))
    # flip one far coefficient: rho_1 distance <= gamma^j/j! stays under delta
    j = n + 5
    close = EventuallyPeriodic(base.prefix(j + 1) + (0,), (1,))
    r = rho_p(series(base), series(close), LpSpec(1, 1), delta / 4)
    if r.hi < delta:
        de = d_E(base, close)
        assert de.hi < eps

    m, delta2 = continuity_delta_dE(gamma, eps)
    assert delta2 == Fraction(1, math.factorial(m + 1))
    far = EventuallyPeriodic(base.prefix(m + 3) + (0,), (1,))
    de = d_E(base, far)
    if de.hi < delta2:
        sup = rho_p(series(base), series(far), LpSpec(math.inf, 1), eps / 8)
        assert sup.hi < eps


def test_continuity_delta_names_an_unresolved_sign(monkeypatch):
    # no known input leaves xi's lower bound nonpositive, so stand one in
    # once compute_m_gamma's scan is cached
    gamma, eps = Fraction(5, 3), Fraction(1, 10)
    continuity_delta_l1(gamma, eps)
    monkeypatch.setattr(tailmath, "xi", lambda g, k: BoundInterval(-1, 1))
    with pytest.raises(ToleranceUnreachable, match="not positive") as sign:
        continuity_delta_l1(gamma, eps)
    assert sign.value.kind == "sign-unresolved"
