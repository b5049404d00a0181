import dataclasses
import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chaoslab import cli, metrics, tailmath, verify
from chaoslab.coeffspace import EventuallyPeriodic, FiniteSupport
from chaoslab.errors import ConfigError, InfeasibleTolerance
from chaoslab.intervals import BoundInterval
from chaoslab.sampling import first_nonzero_index
from chaoslab.verify import SUITES, CheckResult, VerifyConfig, prefix_implications, run_suites

# small knobs so the whole registry stays quick under pytest
FAST = VerifyConfig(gammas=(Fraction(1),), k_max=25, seed=0, trials=5)


@pytest.fixture(scope="module")
def fast_results():
    """run_suites([suite], FAST), run once per suite for the whole module."""
    cache = {}

    def results(suite):
        if suite not in cache:
            cache[suite] = run_suites([suite], FAST)
        return cache[suite]

    return results


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes_at_small_scale(suite, fast_results):
    results = fast_results(suite)
    assert results
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.suite == suite
        assert r.trials >= 1
        assert r.passed, (r.name, r.failures[:2])
        assert r.failures == ()


def test_prefix_lines_keep_their_counts(fast_results):
    by_name = {r.name: r for r in fast_results("metrics")}
    upper = by_name["dE-prefix-upper"]
    assert (upper.trials, upper.detail["family_size"]) == (664, 1336)
    lower = by_name["dE-prefix-lower"]
    assert (lower.trials, lower.detail["hypothesis_hits"]) == (12024, 664)
    sup = by_name["sup-prefix-upper"]
    assert (sup.trials, sup.detail["family_size"]) == (179, 364)
    general = by_name["sup-prefix-upper-general"]
    assert (general.trials, general.detail["family_sizes"]) == (776, [1562, 1562])


def test_prefix_sweep_reports_failures():
    # the d_E lower implication needs nonzero |v| >= 1, so halving the
    # values must break it while (-1, 0, 1) keeps it
    ks = range(9)
    half = Fraction(1, 2)
    bad = prefix_implications((-half, 0, half), 2, 1, de_upper_ks=ks, de_lower_ks=ks,
                              rho_ks=range(3))
    good = prefix_implications((-1, 0, 1), 2, 1, de_upper_ks=ks, de_lower_ks=ks,
                               rho_ks=range(3))
    assert len(bad.de_lower.failures) == 13
    assert bad.family_size == good.family_size
    for sweep in (bad, good):
        assert sweep.de_upper.trials > 0 and sweep.sup_upper.trials > 0
    assert not (good.de_upper.failures or good.de_lower.failures or good.sup_upper.failures)


def _fraction_sweep(values, pre_max, per_max, ks, rho_ks, gammas, tol):
    """prefix_implications' trials, hits and failures, each test the
    Fraction compare on d_E(d, 0) and rho_inf(d, 0) themselves, as first
    written, with d_E and rho_p read from verify's namespace."""
    family = verify.difference_streams(values, pre_max, per_max)
    diam = max(abs(Fraction(v)) for v in values)
    upper, lower, sup = verify.Implication(), verify.Implication(), verify.Implication()
    zero = FiniteSupport(())
    idx = 0
    for d in family:
        j0 = first_nonzero_index(d)
        de = verify.d_E(d, zero)
        for k in ks:
            if k < j0:
                e = tailmath.eta(k + 2)
                upper.trials += 1
                if not de.hi <= diam * e.hi + de.width + diam * e.width:
                    upper.failures.append({"difference": verify.to_payload(d), "k": k,
                                           "d_E": verify._ivp(de), "eta": verify._ivp(e),
                                           "diam": str(diam)})
        for k in ks:
            lower.trials += 1
            if de.hi < Fraction(1, math.factorial(k + 1)):
                lower.hits += 1
                if j0 <= k:
                    lower.failures.append({"difference": verify.to_payload(d), "k": k,
                                           "d_E": verify._ivp(de), "first_nonzero": j0})
        sup_ks = [k for k in rho_ks if k < j0]
        if not sup_ks:
            continue
        g = Fraction(gammas[idx % len(gammas)])
        idx += 1
        rho = verify.rho_p(verify.SeriesFn(d, g), verify.SeriesFn(zero, g),
                           verify.LpSpec(math.inf, g), tol=tol)
        for k in sup_ks:
            z = tailmath.zeta(g, k + 1)
            sup.trials += 1
            if not rho.hi <= diam * z.hi + rho.width + diam * z.width:
                sup.failures.append({"difference": verify.to_payload(d), "k": k,
                                     "gamma": verify._fr(g), "rho_inf": verify._ivp(rho),
                                     "zeta": verify._ivp(z), "diam": str(diam)})
    return verify.PrefixSweep(len(family), upper, lower, sup)


@pytest.mark.parametrize("values", [(-1, 0, 1), (-Fraction(1, 2), 0, Fraction(1, 2))])
@pytest.mark.parametrize("raised", [Fraction(0), Fraction(1, 40)])
def test_prefix_sweep_integer_decisions_are_the_fraction_ones(values, raised, monkeypatch):
    # the sweep compares integers against bounds fixed per k (and gamma);
    # the first-written Fraction compares on the enclosures must decide
    # every trial, hit and failure payload alike.  raised > 0 lifts both
    # d_E and rho_inf by that much, the same rational on both sides, so
    # the de-upper and sup-upper compares fail for some k and not others
    real_parts, real_d_E, real_rho = verify._d_E_parts, verify.d_E, verify.rho_p

    def parts(a, b, tol):
        num, den, tail_num, tail_den = real_parts(a, b, tol)
        return num * raised.denominator + raised.numerator * den, den * raised.denominator, tail_num, tail_den

    monkeypatch.setattr(verify, "_d_E_parts", parts)
    monkeypatch.setattr(verify, "d_E", lambda *args: real_d_E(*args) + raised)
    monkeypatch.setattr(verify, "rho_p", lambda *args, **kwargs: real_rho(*args, **kwargs) + raised)
    ks, rho_ks, gammas, tol = range(9), range(4), (Fraction(1, 2), Fraction(1), Fraction(2)), Fraction(1, 10**4)
    got = prefix_implications(values, 3, 2, de_upper_ks=ks, de_lower_ks=ks, rho_ks=rho_ks,
                              gammas=gammas, tol=tol)
    want = _fraction_sweep(values, 3, 2, ks, rho_ks, gammas, tol)
    assert got == want
    assert got.de_upper.trials and got.de_lower.hits and got.sup_upper.trials
    if raised:
        for imp in (got.de_upper, got.sup_upper):
            assert 0 < len(imp.failures) < imp.trials
    elif values[-1] == 1:
        assert not (got.de_upper.failures or got.de_lower.failures or got.sup_upper.failures)
    else:  # nonzero |v| below 1: de-lower fails
        assert got.de_lower.failures and not (got.de_upper.failures or got.sup_upper.failures)


def test_run_suites_preserves_order_and_names():
    results = run_suites(["tailmath", "coeffspace"], FAST)
    suites = [r.suite for r in results]
    assert suites == sorted(suites, key=("tailmath", "coeffspace").index)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert "xi-positivity-threshold" in names
    assert "word-enumeration-complete" in names


def test_same_seed_reproduces_everything():
    a = run_suites(["conjugacy"], FAST)
    b = run_suites(["conjugacy"], FAST)
    assert a == b


def test_trials_knob_is_respected():
    tiny = run_suites(["conjugacy"], FAST)
    by_name = {r.name: r for r in tiny}
    assert by_name["shift-square-commutes"].trials == 5
    assert by_name["translation-isometry"].trials == 5


def test_config_validation():
    with pytest.raises(ConfigError):
        VerifyConfig(gammas=(Fraction(-1),))
    with pytest.raises(ConfigError):
        VerifyConfig(gammas=(Fraction(0),))
    with pytest.raises(ConfigError):
        VerifyConfig(k_max=0)
    with pytest.raises(ConfigError):
        VerifyConfig(trials=0)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suites(["tailmath", "nope"], FAST)


def test_config_defaults_pass_through():
    cfg = VerifyConfig()
    assert cfg.gamma_list((Fraction(2),)) == (Fraction(2),)
    assert cfg.trial_count(17) == 17
    assert FAST.gamma_list((Fraction(2),)) == (Fraction(1),)
    assert FAST.trial_count(100) == 5


def test_construction_checks_pass_at_fractional_p():
    # the paper's results hold for every 1 <= p <= inf; verify's default
    # exponents are 1, 2 and inf
    ps = (Fraction(4, 3), Fraction(3, 2), Fraction(5, 2))
    for check in (verify.check_periodic_density, verify.check_transitivity, verify.check_orbit_index,
                  verify.check_polynomial_membership, verify.check_periodic_point_smooth):
        result = check(trials=30, ps=ps)
        assert result.passed, (result.name, result.failures[:2])
        assert result.trials >= 30


# ---------------------------------------------------------------------------
# every failure record, forced: each check reads its metric from verify's
# namespace, so patching that name with one that returns a far-off
# enclosure makes the check record failures, which must reach the CLI's
# output as a "pass": false line with failure_count (exit code 1), not as
# a raw exception.

FAR = BoundInterval.exact(Fraction(10**6))
ZERO_BOX = BoundInterval.exact(Fraction(0))


def _returning(value):
    return lambda *args, **kwargs: value


def _cycling(*values):
    # the axiom checks call a metric four times per trial, xy, yx, xz, yz:
    # (0, 1, 10**6, 0) breaks both symmetry and the triangle inequality
    box = itertools.cycle([BoundInterval.exact(Fraction(v)) for v in values])
    return lambda *args, **kwargs: next(box)


class _Tailmath:
    """tailmath, with some functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(tailmath, name)


def _with_report(name, **fields):
    real = getattr(verify, name)
    return lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), **fields)


class _Drifting(EventuallyPeriodic):
    """A periodic stream that no shift brings back."""

    def shifted(self, times):
        return FiniteSupport((Fraction(10**6),))


def _de_parts_by_first_index(d, _zero, _tol):
    # the prefix sweep reads d_E(d, 0) as _d_E_parts(d, 0)'s (num, den,
    # tail_num, tail_den): far above every eta bound where d starts with zeros, 0
    # where it does not
    return (10**6, 1, 0, 1) if first_nonzero_index(d) > 0 else (0, 1, 0, 1)


ONE = (Fraction(1),)
FORCED = [
    ("tail-monotonicity", lambda: verify.check_tail_monotonicity(ONE, k_max=2),
     {"tailmath": _Tailmath(eta=_returning(FAR), zeta=_returning(FAR))}, {"eta", "zeta"}),
    ("tail-vanishing", lambda: verify.check_tail_vanishing(ONE, k_max=40),
     {"tailmath": _Tailmath(eta=_returning(FAR), zeta=_returning(FAR), xi=_returning(FAR))},
     {"eta", "zeta-or-xi"}),
    ("xi-positivity-threshold", lambda: verify.check_xi_positivity(ONE, window=0),
     {"tailmath": _Tailmath(xi=_returning(-FAR), xi_decrement=_returning(Fraction(-1)))},
     {"xi-sign", "xi-decrement"}),
    ("alpha-positivity", lambda: verify.check_alpha_positivity(k_max=1),
     {"tailmath": _Tailmath(alpha=_returning(-FAR))}, {None}),
    ("tail-enclosure-contract", lambda: verify.check_enclosure_contract(ONE, k_max=1),
     # the enclosure at tol is exactly tol, so the tight one is not inside the loose one
     {"tailmath": _Tailmath(**{name: lambda *args: BoundInterval.exact(args[-1])
                               for name in ("eta", "zeta", "xi")})},
     {"eta", "zeta:1", "xi:1"}),
    ("shift-derivative-coherence", lambda: verify.check_shift_derivative_coherence(ONE, trials=1),
     # f' far from the flat difference quotient
     {"evaluate": _returning(FAR)}, {None}),
    ("periodic-shift-fixed-point", lambda: verify.check_periodic_shift_fixed_point(trials=1),
     {"EventuallyPeriodic": _Drifting}, {None}),
    ("word-enumeration-complete", verify.check_word_enumeration_complete,
     {"word_start_index": _returning(10**6)}, {None}),
    ("shift-preserves-alphabet", lambda: verify.check_shift_preserves_alphabet(trials=2),
     {"random_stream": _returning(EventuallyPeriodic((), (Fraction(10**6),)))}, {None}),
    ("metric-axioms", lambda: verify.check_metric_axioms(ONE, trials=2),
     {"d_lambda": _cycling(0, 1, 10**6, 0), "d_E": _cycling(0, 1, 10**6, 0),
      "rho_p": _cycling(0, 1, 10**6, 0)},
     {f"{kind}-{law}" for kind in ("d_lambda", "d_E", "rho") for law in ("symmetry", "triangle")}),
    ("lp-norm-comparison", lambda: verify.check_lp_norm_comparison(ONE, trials=1),
     {"holder_compare": _returning((FAR, ZERO_BOX))}, {None}),
    ("dE-prefix-upper", lambda: verify.check_de_prefix_upper(
        verify.prefix_implications((-1, 0, 1), 2, 1, de_upper_ks=range(3))),
     {"_d_E_parts": _de_parts_by_first_index}, {None}),
    ("dE-prefix-lower", lambda: verify.check_de_prefix_lower(
        verify.prefix_implications((-1, 0, 1), 2, 1, de_lower_ks=range(3))),
     {"_d_E_parts": _de_parts_by_first_index}, {None}),
    ("sup-prefix-upper", lambda: verify.check_sup_prefix_upper((0, 1), ONE, 2, 1, k_max=2),
     {"rho_p": _returning(FAR)}, {None}),
    ("sup-prefix-upper-general", lambda: verify.check_sup_prefix_upper_general(
        ((0, 1),), ONE, 2, 1, k_max=2),
     {"rho_p": _returning(FAR)}, {None}),
    ("l1-prefix-separation", lambda: verify.check_l1_prefix_separation(ONE, 2, 1, k_span=0),
     {"rho_1_lower_bound": _returning(Fraction(0)), "rho_p": _returning(ZERO_BOX)}, {None}),
    ("rho1-to-dE-continuity", lambda: verify.check_rho1_to_dE_continuity(ONE, trials=1),
     {"rho_p": _returning(ZERO_BOX), "d_E": _returning(FAR)}, {None}),
    ("dE-to-sup-continuity", lambda: verify.check_dE_to_sup_continuity(ONE, trials=1),
     {"d_E": _returning(ZERO_BOX), "rho_p": _returning(FAR)}, {None}),
    ("shift-square-commutes", lambda: verify.check_commuting_squares(ONE, trials=1),
     {"check_commuting_square": _with_report("check_commuting_square", isometry_d_E=FAR)}, {None}),
    ("shift-metric-isometry", lambda: verify.check_shift_metric_isometry(trials=1),
     {"d_E": _returning(FAR)}, {None}),
    ("translation-isometry", lambda: verify.check_translation_isometry_suite(ONE, trials=1),
     {"check_translation_isometry": _with_report("check_translation_isometry", rho_after=FAR)},
     {None}),
    ("no-isolated-points", lambda: verify.check_no_isolated_points(ONE, trials=1),
     {"nearby_distinct_point": _with_report("nearby_distinct_point", rho=FAR)}, {None}),
    ("periodic-density", lambda: verify.check_periodic_density(ONE, trials=1),
     {"rho_p": _returning(FAR)}, {None}),
    ("transitivity-witness", lambda: verify.check_transitivity(ONE, trials=1),
     {"rho_p": _returning(FAR)}, {None}),
    ("orbit-index", lambda: verify.check_orbit_index(ONE, trials=1),
     {"rho_p": _returning(FAR)}, {None}),
    ("two-value-augment", lambda: verify.check_two_value_augment(ONE, trials=1),
     {"rho_p": _returning(FAR)}, {None}),
    ("polynomial-membership", lambda: verify.check_polynomial_membership(ONE, trials=1),
     {"rho_p": _returning(FAR)}, {None}),
    ("filtration-nesting", lambda: verify.check_filtration_nesting(ONE, steps=1),
     {"rho_p": _returning(FAR)}, {None}),
    ("periodic-point-smooth", lambda: verify.check_periodic_point_smooth(ONE, trials=1),
     {"rho_p": _returning(FAR)}, {None}),
    ("sensitivity-witness", lambda: verify.check_sensitivity(ONE, random_targets=0),
     # a witness whose certificates are far off, and that the unbounded
     # branch does not refuse
     {"sensitivity_witness": _returning(SimpleNamespace(n=0, certificates=(FAR, ZERO_BOX)))},
     {None, "unbounded-branch-accepted"}),
]


@pytest.mark.parametrize("name, run, patches, kinds", FORCED, ids=[case[0] for case in FORCED])
def test_every_failure_record_reaches_the_output(name, run, patches, kinds, monkeypatch, capsys):
    for attr, value in patches.items():
        monkeypatch.setattr(verify, attr, value)
    result = run()
    assert result.name == name and not result.passed
    count = result.detail["failure_count"]
    assert count >= len(result.failures) >= 1
    assert count == len(result.failures) or len(result.failures) == verify._MAX_STORED_FAILURES
    assert {failure.get("kind") for failure in result.failures} == kinds
    # the record goes out through the CLI's verify line, exit code 1
    monkeypatch.setattr(verify, "SUITES", {"forced": lambda cfg: [result]})
    assert cli.main(["verify", "--suite", "forced"]) == 1
    line = json.loads(capsys.readouterr().out)
    assert line["property"] == name and line["pass"] is False
    assert line["detail"]["failure_count"] == count
    assert line["failures"] == json.loads(cli._dumps(list(result.failures)))


def test_every_check_has_a_forced_failure():
    names = {case[0] for case in FORCED}
    checks = [attr for attr, fn in vars(verify).items()
              if attr.startswith("check_") and fn.__module__ == verify.__name__]
    assert len(names) == len(FORCED) == len(checks)


def test_verify_gamma_flags_reach_the_details(capsys):
    argv = ["verify", "--suite", "tailmath", "--k-max", "2", "--gamma", "1/2,1", "--gamma", "2"]
    assert cli.main(argv) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(line["pass"] for line in lines)
    by_name = {line["property"]: line["detail"] for line in lines}
    assert by_name["tail-monotonicity"]["gammas"] == ["1/2", "1", "2"]
    assert sorted(by_name["xi-positivity-threshold"]["n_gamma"]) == ["1", "1/2", "2"]
    for bad in ("abc", "1/0", "0", "1,-2"):
        assert cli.main(["verify", "--suite", "tailmath", "--gamma", bad]) == 2
        assert "chaos-lab:" in capsys.readouterr().err


@pytest.mark.parametrize("check, delta_of", [
    (verify.check_rho1_to_dE_continuity, "continuity_delta_l1"),
    (verify.check_dE_to_sup_continuity, "continuity_delta_dE"),
])
def test_agreement_search_past_the_cap_carries_its_budget(monkeypatch, check, delta_of):
    # with its delta fixed and a tail test that never holds, the agreement
    # search runs past the cap and must name the delta / 2 it had to clear
    n, delta = getattr(metrics, delta_of)(1, Fraction(1, 10))
    monkeypatch.setattr(verify, delta_of, lambda gamma, eps: (n, delta))
    monkeypatch.setattr(tailmath, "_zeta_cut", lambda *key: tailmath.least_index(lambda n: False, 0, "a zeta tail"))
    monkeypatch.setattr(tailmath, "MAX_TAIL_INDEX", 40)
    with pytest.raises(InfeasibleTolerance) as info:
        check(gammas=(Fraction(1),), trials=1)
    assert info.value.what == f"an agreement index for delta={delta}"
    assert (info.value.budget, info.value.cap) == (delta / 2, 40)
