from fractions import Fraction

import pytest

from chaoslab import verify
from chaoslab.errors import ConfigError
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
