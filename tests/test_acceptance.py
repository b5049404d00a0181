"""Acceptance gate: ten desk-scale checks covering the whole package.

Each test prints one pass/fail line (run with `pytest -s` to see them
all) and then asserts.  Expected values are frozen decimal literals
computed once with mpmath at 80 digits; runtime caps guard against
accidental blowups in the certified machinery.
"""

import math
import time
from fractions import Fraction

from chaoslab import tailmath
from chaoslab.coeffspace import EventuallyPeriodic, FiniteSupport, SeriesFn
from chaoslab.constructions import sensitivity_witness
from chaoslab.metrics import LpSpec, rho_p
from chaoslab.verify import (
    check_alpha_positivity,
    check_commuting_squares,
    check_l1_prefix_separation,
    check_lp_norm_comparison,
    check_periodic_density,
    check_periodic_point_smooth,
    check_polynomial_membership,
    check_sensitivity,
    check_tail_monotonicity,
    check_tail_vanishing,
    check_transitivity,
    check_translation_isometry_suite,
    check_xi_positivity,
    prefix_implications,
)

# mpmath oracle values, 80 decimal digits
E = Fraction(
    "2.7182818284590452353602874713526624977572470936999595749669676"
)
E_MINUS_1 = E - 1
THREE_MINUS_E = Fraction(
    "0.28171817154095476463971252864733750224275290630004042503303237"
)
SENS_CLOSE = Fraction(
    "0.31451895224047321086702600585749478886322553379161613537537620"
)
SENS_FAR = Fraction(
    "3.3978522855738065442003593391908281221965588671249494687087095"
)

TAIL_GAMMAS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
CORE_GAMMAS = (Fraction(1, 2), Fraction(1), Fraction(2))
ZERO = FiniteSupport(())


def _line(num: int, label: str, ok: bool) -> None:
    print(f"acceptance {num:02d} {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_certified_tail_suite():
    t0 = time.perf_counter()
    mono = check_tail_monotonicity(TAIL_GAMMAS, 60)
    xi_pos = check_xi_positivity(TAIL_GAMMAS, window=100)
    alpha = check_alpha_positivity(60)
    vanish = check_tail_vanishing(TAIL_GAMMAS, 60)
    strict = True
    for k in range(1, 61):
        if not tailmath.eta(k + 1).hi < tailmath.eta(k).lo:
            strict = False
        for g in TAIL_GAMMAS:
            if not tailmath.zeta(g, k + 1).hi < tailmath.zeta(g, k).lo:
                strict = False
    elapsed = time.perf_counter() - t0
    ok = (mono.passed and xi_pos.passed and alpha.passed and vanish.passed
          and strict and elapsed < 5.0)
    _line(1, "certified tail suite, k<=60, 100-index xi window, <5s", ok)
    assert ok, {
        "monotone": mono.passed, "xi": xi_pos.passed, "alpha": alpha.passed,
        "vanishing": vanish.passed, "strict_decrease": strict,
        "seconds": elapsed,
    }


def test_criterion_02_xi_fixed_point_at_one():
    xi1 = tailmath.xi(1, 1)
    xi2 = tailmath.xi(1, 2)
    width_cap = Fraction(1, 10**12)
    ok = (xi1.lo <= THREE_MINUS_E <= xi1.hi
          and xi2.lo <= THREE_MINUS_E <= xi2.hi
          and xi1.width < width_cap and xi2.width < width_cap
          and xi1.intersects(xi2))
    _line(2, "xi_1 = xi_2 = 3-e at gamma=1, widths < 1e-12", ok)
    assert ok, {"xi1": (str(xi1.lo), str(xi1.hi)), "xi2": (str(xi2.lo), str(xi2.hi))}


def test_criterion_03_l1_prefix_separation_family():
    t0 = time.perf_counter()
    res = check_l1_prefix_separation(
        gammas=CORE_GAMMAS, pre_max=6, per_max=2, k_span=4
    )
    elapsed = time.perf_counter() - t0
    hits = res.detail["hypothesis_hits"]
    skips = res.detail["quick_skips"]
    # a looser rho_1 lower bound skips fewer streams; more hits or trials
    # would mean the family or the thresholds moved
    ok = res.passed and (res.trials, hits, skips) == (9840, 722, 9352) and elapsed < 60.0
    _line(3, "rho_1 below xi(k+1) forces prefix agreement, 3280 streams, <60s", ok)
    assert ok, {"passed": res.passed, "trials": res.trials, "hits": hits, "skips": skips,
                "seconds": elapsed, "failures": res.failures[:3]}


def test_criterion_04_prefix_agreement_implications():
    # Pairwise bounds over a coefficient family depend only on the
    # difference stream, so each alphabet is exercised through its
    # difference-value set.  {0,1,2} and {-1,0,1} share the same
    # difference set {-2..2} and the same diameter 2, so one sweep of
    # that family covers both.  In every alphabet here distinct values
    # differ by at least 1, which is what the small-d_E direction needs.
    ks = range(9)
    small = prefix_implications((-1, 0, 1), 6, 2, de_upper_ks=ks, de_lower_ks=ks,
                                rho_ks=ks, gammas=CORE_GAMMAS, tol=Fraction(1, 10**5))
    # the sup direction is the expensive one; on the 25x larger family
    # it is spot-checked at k in {1,4,8} instead of every k <= 8
    large = prefix_implications((-2, -1, 0, 1, 2), 6, 2, de_upper_ks=ks, de_lower_ks=ks,
                                rho_ks=(1, 4, 8), gammas=CORE_GAMMAS, tol=Fraction(1, 10**4))
    sweeps = (small, large)
    violations = [f for s in sweeps for imp in (s.de_upper, s.de_lower, s.sup_upper)
                  for f in imp.failures]
    counts = {"de-upper": sum(s.de_upper.trials for s in sweeps),
              "de-lower": sum(s.de_lower.hits for s in sweeps),
              "sup-upper": sum(s.sup_upper.trials for s in sweeps)}
    ok = not violations and all(c > 0 for c in counts.values())
    _line(4, "prefix/metric implication chains, three alphabets, zero violations", ok)
    assert ok, {"violations": violations[:5], "counts": counts}


def test_criterion_05_shift_derivative_squares():
    res = check_commuting_squares(trials=500, window=128)
    ok = res.passed and res.trials == 500
    _line(5, "500 commuting squares, window 128, isometry width < 1e-12", ok)
    assert ok, {"failures": res.failures[:3]}


def test_criterion_06_norm_comparison_random():
    res = check_lp_norm_comparison(trials=200)
    ok = res.passed and res.trials == 200
    _line(6, "L^p vs L^q norm comparison, 200 random polynomials", ok)
    assert ok, {"failures": res.failures[:3]}


def test_criterion_07_construction_certificates():
    t0 = time.perf_counter()
    results = [
        check_periodic_density(trials=100),
        check_transitivity(trials=100),
        check_polynomial_membership(trials=100),
        check_periodic_point_smooth(trials=100),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 120.0
    _line(7, "construction certificates, 100 trials each, <120s", ok)
    assert ok, {"passed": [r.passed for r in results], "seconds": elapsed,
                "failures": [r.failures[:2] for r in results if r.failures]}


def test_criterion_08_sensitivity_witnesses():
    res = check_sensitivity(gammas=(Fraction(1), Fraction(2)), random_targets=20)
    w = sensitivity_witness(SeriesFn(ZERO, 1), beta=1, eps=Fraction(1, 2))
    close, far = w.certificates
    chain = (w.n == 4
             and close.lo <= SENS_CLOSE <= close.hi
             and close.hi <= Fraction(315, 1000)
             and far.lo <= SENS_FAR <= far.hi
             and far.lo > 1)
    ok = res.passed and chain
    _line(8, "sensitivity witnesses incl. worked chain n=4, close <= 0.315", ok)
    assert ok, {"suite": res.passed, "n": w.n,
                "close": (str(close.lo), str(close.hi)),
                "far": (str(far.lo), str(far.hi))}


def test_criterion_09_translation_isometry():
    res = check_translation_isometry_suite(trials=50)
    ok = res.passed and res.trials == 50
    _line(9, "translation isometry + exact round trip, 50 pairs", ok)
    assert ok, {"failures": res.failures[:3]}


def test_criterion_10_exp_metric_sanity():
    ones = SeriesFn(EventuallyPeriodic((), (1,)), 1)
    zero = SeriesFn(ZERO, 1)
    tol = Fraction(1, 10**10)
    r1 = rho_p(ones, zero, LpSpec(1, 1), tol)
    rsup = rho_p(ones, zero, LpSpec(math.inf, 1), tol)
    cap = Fraction(1, 10**9)
    ok = (r1.lo <= E_MINUS_1 <= r1.hi and r1.width < cap
          and rsup.lo <= E <= rsup.hi and rsup.width < cap)
    _line(10, "rho_1 encloses e-1 and rho_inf encloses e, widths < 1e-9", ok)
    assert ok, {"rho_1": (str(r1.lo), str(r1.hi)),
                "rho_inf": (str(rsup.lo), str(rsup.hi))}
