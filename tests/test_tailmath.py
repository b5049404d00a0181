import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab import tailmath
from chaoslab.errors import DomainError, InfeasibleTolerance, ToleranceUnreachable
from chaoslab.intervals import BoundInterval
from chaoslab.tailmath import (
    alpha,
    compute_m_gamma,
    compute_n_gamma,
    eta,
    exp_enclosure,
    separation_lower_bound,
    xi,
    xi_decrement,
    zeta,
    zeta_table,
)

# reference values computed with mpmath at 80 decimal digits
E = Fraction("2.7182818284590452353602874713526624977572470936999595749669676")
E_MINUS_1 = E - 1
E_MINUS_2 = E - 2
E_MINUS_8_3 = E - Fraction(8, 3)
E2_MINUS_1 = Fraction(
    "6.3890560989306502272304274605750078131803155705518473240871278"
)
THREE_MINUS_E = 3 - E
ZETA_HALF_1 = Fraction(
    "0.64872127070012814684865078781416357165377610071014801157507931"
)

GAMMAS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))


def encloses(iv, value):
    return iv.lo <= value <= iv.hi


def test_eta_reference_values():
    assert encloses(eta(1), E_MINUS_1)
    assert encloses(eta(2), E_MINUS_2)
    assert encloses(eta(4), E_MINUS_8_3)
    assert eta(20).hi < Fraction(1, 10**18)
    assert eta(1).width <= Fraction(1, 10**14) * eta(1).hi


def test_zeta_reference_values():
    assert encloses(zeta(1, 1), E_MINUS_1)
    assert encloses(zeta(1, 4), E_MINUS_8_3)
    assert encloses(zeta(2, 1), E2_MINUS_1)
    assert encloses(zeta(Fraction(1, 2), 1), ZETA_HALF_1)
    # gamma=1 collapses zeta onto eta
    for k in (1, 3, 9):
        assert zeta(1, k).intersects(eta(k))


def test_exp_enclosure():
    assert encloses(exp_enclosure(1), E)
    assert encloses(exp_enclosure(2), E2_MINUS_1 + 1)


def test_xi_fixed_point_and_sign():
    x1, x2 = xi(1, 1), xi(1, 2)
    assert encloses(x1, THREE_MINUS_E)
    assert encloses(x2, THREE_MINUS_E)
    assert x1.intersects(x2)
    assert xi(5, 1).hi < 0


def test_xi_matches_its_definition():
    for gamma in GAMMAS:
        for k in (1, 2, 7, 15):
            direct = Fraction(gamma) ** k / math.factorial(k) - zeta(gamma, k + 1)
            assert xi(gamma, k).intersects(direct)


def test_xi_decrement_closed_form():
    for gamma in GAMMAS:
        for k in (1, 2, 5, 11, 30):
            d = xi_decrement(gamma, k)
            assert d == Fraction(gamma) ** k / math.factorial(k) * (
                1 - 2 * gamma / (k + 1)
            )
            assert (xi(gamma, k) - xi(gamma, k + 1)).contains(d)
    assert xi_decrement(1, 1) == 0


def test_alpha_reference_and_positivity():
    # alpha_1 = 1 - eta_2 = 3 - e, same constant as the xi fixed point
    assert encloses(alpha(1), THREE_MINUS_E)
    for k in range(1, 61):
        assert alpha(k).lo > 0


def test_monotone_differences_are_exact_tails():
    for gamma in GAMMAS:
        for k in range(1, 61):
            step = Fraction(gamma) ** k / math.factorial(k)
            assert (zeta(gamma, k) - zeta(gamma, k + 1)).contains(step)
    for k in range(1, 61):
        assert (eta(k) - eta(k + 1)).contains(Fraction(1, math.factorial(k)))


def test_vanishing():
    for gamma in GAMMAS:
        for k in range(40, 61):
            assert eta(k).hi < Fraction(1, 10**12)
            assert zeta(gamma, k).hi < Fraction(1, 10**12)
            assert abs(xi(gamma, k)).hi < Fraction(1, 10**12)


def test_n_gamma_values_and_guarantee():
    assert compute_n_gamma(1) == 2
    assert compute_n_gamma(10) >= 19
    for gamma in GAMMAS:
        n0 = compute_n_gamma(gamma)
        for k in range(n0, n0 + 51):
            assert xi(gamma, k).lo > 0
            assert xi_decrement(gamma, k) > 0
    with pytest.raises(DomainError):
        compute_n_gamma(0)


def _threshold_index_by_scan(gamma: Fraction) -> int:
    """The step-by-step construction of n_gamma, kept as an oracle."""
    n1 = max(0, math.floor(gamma - 2) + 1)
    k = max(0, math.floor((2 * gamma - 3) / 2) + 1)
    while k * k + (3 - 2 * gamma) * k + (2 - 3 * gamma) <= 0:
        k += 1
    n2 = max(0, k - 1)
    n3 = max(0, math.floor(2 * gamma - 1) + 1)
    return max(n1 + 1, n2 + 1, n3)


def test_n_gamma_closed_form_matches_the_scan():
    grid = {Fraction(n, d) for d in (1, 2, 3, 4, 7, 10, 64) for n in range(1, 40 * d + 1)}
    grid |= {Fraction(10**k) for k in range(4)} | {Fraction(1, 10**k) for k in range(1, 6)}
    grid |= {k / Fraction(2) + Fraction(1, 10**9) * s for k in range(1, 30) for s in (-1, 1)}
    for gamma in grid:
        assert compute_n_gamma(gamma) == _threshold_index_by_scan(gamma), gamma
    assert compute_n_gamma(10**6) == 2 * 10**6


def test_m_gamma_dominates_n_gamma():
    for gamma in (Fraction(1, 2), Fraction(1), Fraction(2)):
        m = compute_m_gamma(gamma)
        assert m >= compute_n_gamma(gamma)
        # the defining property: past M the next xi never exceeds the
        # separation floor, so an L1 gap below xi forces agreement
        floor = separation_lower_bound(gamma)
        assert floor > 0
        assert xi(gamma, m + 1).hi <= floor


def test_enclosure_contract_narrow_inside_wide():
    wide = Fraction(1, 10**6)
    narrow = Fraction(1, 10**20)
    for gamma in (Fraction(1), Fraction(5)):
        for k in (1, 3, 12, 40):
            assert zeta(gamma, k, rel_tol=wide).encloses(
                zeta(gamma, k, rel_tol=narrow)
            )
            assert xi(gamma, k, rel_tol=wide).encloses(xi(gamma, k, rel_tol=narrow))
    for k in (1, 7, 25):
        assert eta(k, rel_tol=wide).encloses(eta(k, rel_tol=narrow))


def test_index_zero_is_the_full_sum():
    # the k=0 sums are e and e^gamma; exp_enclosure leans on this
    assert encloses(eta(0), E)
    assert encloses(zeta(2, 0), E2_MINUS_1 + 1)


def test_bad_arguments_rejected():
    with pytest.raises(DomainError):
        eta(-1)
    with pytest.raises(DomainError):
        zeta(-1, 2)
    with pytest.raises(DomainError):
        zeta(0, 2)
    with pytest.raises(DomainError):
        xi(1, -3)


def test_least_index_returns_the_least_qualifying_index():
    seen = []

    def holds(n):
        seen.append(n)
        return n * n >= 50

    assert tailmath.least_index(holds, 0, "n^2 >= 50") == 8
    assert seen == list(range(9))
    # start and step: only start, start + step, ... are tried
    assert tailmath.least_index(lambda n: n * n >= 50, 3, "n^2 >= 50", step=4) == 11
    assert tailmath.least_index(lambda n: True, 5, "anything") == 5


def test_least_index_raises_past_the_cap(monkeypatch):
    monkeypatch.setattr(tailmath, "MAX_TAIL_INDEX", 20)
    assert tailmath.least_index(lambda n: n == 20, 0, "n = 20") == 20
    assert tailmath.least_index(lambda n: n == 16, 8, "n = 16", step=8) == 16
    with pytest.raises(InfeasibleTolerance, match="up to 20 certifies n = 21") as info:
        tailmath.least_index(lambda n: n == 21, 0, "n = 21")
    # a ToleranceUnreachable that names its limit
    assert isinstance(info.value, ToleranceUnreachable) and info.value.kind == "index-cap"
    with pytest.raises(InfeasibleTolerance):
        tailmath.least_index(lambda n: n == 12, 8, "n = 12", step=8)


@pytest.mark.parametrize("gamma", [Fraction(1, 3), 1, 2, Fraction(7, 2), 50])
def test_zeta_table_rows_are_tight_certified_tails(gamma):
    rows = zeta_table(gamma, 40)
    assert len(rows) == 41
    for k, row in enumerate(rows):
        z = zeta(gamma, k)
        # both enclose zeta_k; the row is no wider than rel_tol of itself
        assert row.lo <= z.hi and z.lo <= row.hi
        assert row.width <= tailmath.DEFAULT_REL_TOL * row.lo
        if k < 40:
            assert row.lo - rows[k + 1].lo == Fraction(gamma) ** k / math.factorial(k)


def test_tolerance_unreachable_names_the_limit_it_met(monkeypatch):
    with pytest.raises(ToleranceUnreachable, match="needs over") as cap:
        zeta(Fraction(10**400), 0)
    assert cap.value.kind == "term-cap"
    with pytest.raises(ToleranceUnreachable, match="did not reach") as tol:
        zeta(1, 0, rel_tol=Fraction(1, 10**40000))
    assert tol.value.kind == "rel-tol"
    # no known input leaves alpha's lower bound nonpositive, so stand one in
    monkeypatch.setattr(tailmath, "alpha", lambda k, rel_tol: BoundInterval(-1, 1))
    with pytest.raises(ToleranceUnreachable, match="not positive") as sign:
        compute_m_gamma(Fraction(97, 13))
    assert sign.value.kind == "sign-unresolved"


def _tail_oracle(gamma: Fraction, k: int):
    """sum_{i >= k} gamma^i / i! summed directly at 60 digits, and the
    head term gamma^k / k!."""
    with mpmath.workdps(60):
        g = mpmath.mpf(gamma.numerator) / gamma.denominator
        head = term = g**k / mpmath.factorial(k)
        total, i = term, k
        while i < 2 * g or term > total * mpmath.mpf(10) ** -58:
            i += 1
            term = term * g / i
            total += term
        return total, head


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.integers(1, 8 * d).map(lambda n: Fraction(n, d))),
       st.integers(0, 60), st.integers(3, 40))
def test_tails_enclose_a_direct_sum_at_60_digits(gamma, k, digits):
    # zeta_k and xi_k = gamma^k/k! - zeta_(k+1) contain the oracle, and
    # each is no wider than rel_tol times the tail it rests on
    rel_tol = Fraction(1, 10**digits)
    z, x = zeta(gamma, k, rel_tol), xi(gamma, k, rel_tol)
    with mpmath.workdps(60):
        z_ref, head = _tail_oracle(gamma, k)
        x_ref = 2 * head - z_ref
        margin = z_ref * mpmath.mpf(10) ** -55
        assert _mp(z.lo) - margin <= z_ref <= _mp(z.hi) + margin
        assert _mp(x.lo) - margin <= x_ref <= _mp(x.hi) + margin
    assert z.width <= rel_tol * z.lo
    assert x.width <= rel_tol * (Fraction(gamma) ** k / math.factorial(k) - x.lo)
