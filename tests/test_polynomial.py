"""Property tests for polynomials as finitely supported coefficient
streams (the derivative is the shift; evaluation is the exact term sum)
and for the integer Bernstein kernel that metrics runs on their kept
coefficients."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from chaoslab.coeffspace import FiniteSupport, SeriesFn, _numerators, evaluate
from chaoslab.metrics import _bernstein, _differences, _integral_abs_pow_int, _split, _sup_abs_on, _taylor

small = st.fractions(min_value=-8, max_value=8, max_denominator=12)
polys = st.lists(small, min_size=0, max_size=7).map(FiniteSupport)
gammas = st.sampled_from((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 3)))
unit = st.fractions(min_value=0, max_value=1, max_denominator=50)

PROPERTY = settings(max_examples=60, deadline=None)


def bernstein(kept, gamma):
    """_bernstein on kept, P's scaled Taylor coefficients, as integer
    numerators over one lcm, and on gamma's numerator and denominator."""
    nums, m = _numerators(kept)
    return _bernstein(m, *gamma.as_integer_ratio(), *nums)


def value_at(P, x):
    """P(x) = sum_n a_n x^n / n!, term by term in exact arithmetic."""
    return sum((c * Fraction(x) ** n / math.factorial(n) for n, c in enumerate(P.preamble)),
               Fraction(0))


@PROPERTY
@given(polys)
def test_derivative_is_the_shift(P):
    # the derivative of sum a_n x^n / n! is sum a_(n+1) x^n / n!
    assert FiniteSupport(P.preamble[1:]) == P.shift()


@PROPERTY
@given(polys, gammas, unit)
def test_evaluate_is_the_exact_term_sum(P, gamma, s):
    x = gamma * s
    value = evaluate(SeriesFn(P, gamma), x)
    assert value.width == 0
    assert value.lo == value_at(P, x)


def test_bernstein_drops_trailing_zeros_and_reads_the_empty_tuple_as_zero():
    # a kept prefix can end in zeros; the degree, and so B, must not see
    # them, nor a common factor of m and the kept numerators
    assert _bernstein(1, 1, 2, 1, 2, 0, 0) == _bernstein(1, 1, 2, 1, 2) == bernstein((1, 2), Fraction(1, 2))
    assert _bernstein(6, 1, 2, 3, 6, 0) == _bernstein(2, 1, 2, 1, 2) == bernstein((Fraction(1, 2), 1), Fraction(1, 2))
    assert _bernstein(1, 3, 1) == _bernstein(5, 3, 1, 0) == ((0,), 1, (0,))
    assert _sup_abs_on(*_bernstein(1, 1, 1)[:2], Fraction(1, 10**6)).hi == 0
    assert _integral_abs_pow_int(*_bernstein(1, 2, 1), Fraction(2), 3, Fraction(1, 10**6)).hi == 0


@PROPERTY
@given(polys, gammas, st.lists(st.booleans(), max_size=6), st.lists(unit, min_size=1, max_size=5))
def test_bernstein_panel_reproduces_and_encloses_the_polynomial(P, gamma, path, ss):
    # follow a path of de Casteljau halvings; the panel is [lo, hi] in u = t/gamma
    B, L, _ = bernstein(P.preamble, gamma)
    n = len(B) - 1
    lo, hi, e = Fraction(0), Fraction(1), 0
    for go_right in path:
        left, right = _split(B)
        mid = (lo + hi) / 2
        B, lo, hi = (right, mid, hi) if go_right else (left, lo, mid)
        e += n
    b = [Fraction(x, L << e) for x in B]
    for s in ss + [Fraction(0), Fraction(1)]:
        value = value_at(P, gamma * (lo + (hi - lo) * s))
        assert sum(c * math.comb(n, j) * s**j * (1 - s) ** (n - j) for j, c in enumerate(b)) == value
        assert min(b) <= value <= max(b)


def _split_row_by_row(B):
    """The reference halving: de Casteljau at 1/2 one row of sums at a time."""
    n = len(B) - 1
    left, right, row = [], [], B
    for k in range(n + 1):  # row[i] is 2^k times the de Casteljau point (k, i)
        left.append(row[0] << (n - k))
        right.append(row[-1] << (n - k))
        row = [x + y for x, y in zip(row, row[1:])]
    return left, right[::-1]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.lists(
    st.integers(-(1 << 300), 1 << 300) | st.integers(-4, 4), min_size=n + 1, max_size=n + 1)))
def test_packed_split_is_the_row_by_row_halving(B):
    assert _split(B) == _split_row_by_row(B)
    assert _split([0] * len(B)) == _split_row_by_row([0] * len(B))


@PROPERTY
@given(polys, gammas, st.sampled_from((Fraction(1, 10**3), Fraction(1, 10**6), Fraction(1, 10**9))))
def test_sup_abs_on_is_narrow_and_bounds_a_grid(P, gamma, tol):
    sup = _sup_abs_on(*bernstein(P.preamble, gamma)[:2], tol)
    assert sup.width < tol
    assert all(abs(value_at(P, gamma * Fraction(k, 32))) <= sup.hi for k in range(33))


@PROPERTY
@given(polys, gammas, st.sampled_from((2, 4)))
def test_even_power_integral_is_exact(P, gamma, p):
    # the reference multiplies monomial coefficients; the kernel never does
    mono = [c / math.factorial(n) for n, c in enumerate(P.preamble)]
    power = [Fraction(1)]
    for _ in range(p):
        out = [Fraction(0)] * (len(power) + len(mono) - 1)
        for i, x in enumerate(power):
            for j, y in enumerate(mono):
                out[i + j] += x * y
        power = out
    exact = sum(c * gamma ** (k + 1) / (k + 1) for k, c in enumerate(power))
    box = _integral_abs_pow_int(*bernstein(P.preamble, gamma), gamma, p, Fraction(1))
    assert box.lo == box.hi == exact


ints = st.integers(min_value=-(2**70), max_value=2**70)


@PROPERTY
@given(st.lists(ints, min_size=1, max_size=13), st.integers(min_value=0, max_value=2**53),
       st.integers(min_value=0, max_value=9), st.data())
def test_taylor_is_the_exact_taylor_shift_of_the_power_basis(delta, m, depth, data):
    # B_j = sum_i C(j, i) delta_i is the Bernstein form of the power basis
    # c_i = C(n, i) delta_i, so _taylor at 0 reads delta back (the inverse
    # of _bernstein's Pascal loop); about x~ = m / 2^s its A_j / 2^(s n)
    # are the Taylor coefficients sum_k C(k, j) c_k x~^(k - j), in exact
    # Fractions, up to J = min(depth, n).
    n = len(delta) - 1
    B = [sum(math.comb(j, i) * d for i, d in enumerate(delta[:j + 1])) for j in range(n + 1)]
    c = [math.comb(n, i) * d for i, d in enumerate(delta)]
    assert _taylor(_differences(B, n), 0, 0) == c
    rows = _differences(B, depth)
    for num, s in ((0, 0), (1, 1), (m, 53), (data.draw(st.integers(0, 1 << 5)), 5)):
        x = Fraction(num, 1 << s)
        want = [sum((math.comb(k, j) * c[k] * x ** (k - j) for k in range(j, n + 1)), Fraction(0))
                for j in range(min(depth, n) + 1)]
        A = _taylor(rows, num, s)
        assert [Fraction(a, 1 << (s * n)) for a in A] == want


@PROPERTY
@given(polys, gammas)
def test_bernstein_hands_on_the_power_basis_and_p1_settles_from_the_sum(P, gamma):
    # C(n, i) delta_i is the power basis that _taylor reads off B's differences at 0.
    # At p = 1 on a window whose Bernstein coefficients share a sign, the
    # kernel's enclosure is the exact |int_0^gamma P| = |sum kept_i
    # gamma^(i+1) / (i+1)!|.  Adding K > max|B| / L to kept_0 adds K to
    # every Bernstein coefficient, so P + K and -(P + K) are such windows
    # on every draw, and P itself where it already is one.
    B, L, delta = bernstein(P.preamble, gamma)
    n = len(B) - 1
    assert [math.comb(n, i) * d for i, d in enumerate(delta)] == _taylor(_differences(B, n), 0, 0)
    K = Fraction(max(map(abs, B)), L) + 1
    lifted = P.preamble or (Fraction(0),)
    lifted = (lifted[0] + K,) + lifted[1:]
    for kept in (P.preamble, lifted, tuple([-c for c in lifted])):
        B, L, delta = bernstein(kept, gamma)
        if min(B) < 0 < max(B):
            continue
        exact = abs(sum([c * gamma ** (i + 1) / math.factorial(i + 1) for i, c in enumerate(kept)],
                        Fraction(0)))
        box = _integral_abs_pow_int(B, L, delta, gamma, 1, Fraction(1, 10**9))
        assert box.lo == box.hi == exact
