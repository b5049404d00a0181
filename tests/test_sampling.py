from fractions import Fraction
from itertools import product

import pytest

from chaoslab.coeffspace import Alphabet, EventuallyPeriodic
from chaoslab.sampling import (
    difference_streams,
    first_nonzero_index,
    make_rng,
    random_alphabet,
    random_binary_stream,
    random_polynomial,
    random_stream,
)


def test_difference_family_size_and_sign_convention():
    fam = difference_streams((-1, 0, 1), 6, 2)
    # 3^8 raw streams, minus the zero stream, folded by global sign
    assert len(fam) == 3280
    assert len({s.prefix(12) for s in fam}) == 3280
    # one tuple of values per distinct block, shared by the streams that use it
    for field in ("preamble", "period"):
        blocks = [getattr(s, field) for s in fam]
        assert len({id(b) for b in blocks}) == len(set(blocks))
    for s in fam:
        j = first_nonzero_index(s)
        assert j is not None
        assert s.coeff(j) > 0


def reference_difference_streams(values, pre_max, per_max):
    """difference_streams as first written: one stream built per
    candidate, the sign folded on values, deduplicated by stream."""
    vals = tuple(Fraction(v) for v in values)
    seen = {}
    for per_len in range(1, per_max + 1):
        for per in product(vals, repeat=per_len):
            for pre_len in range(0, pre_max + 1):
                for pre in product(vals, repeat=pre_len):
                    lead = next((v for v in pre + per if v != 0), 0)
                    if lead > 0:
                        s = EventuallyPeriodic(pre, per)
                    elif lead < 0:
                        s = EventuallyPeriodic(tuple([-v for v in pre]), tuple([-v for v in per]))
                    else:
                        continue
                    seen.setdefault(s, None)
    return tuple(seen)


@pytest.mark.parametrize("values, pre_max, per_max", [
    ((-1, 0, 1), 4, 3),
    ((-2, -1, 0, 1, 2), 3, 2),
    ((0, 1, 2), 4, 3),  # not closed under negation
    ((1, 2), 4, 3),  # no zero
    ((Fraction(-1, 2), 0, Fraction(1, 2), Fraction(3, 2)), 3, 3),
    ((-1, 0, 1), 2, 4),  # skips non-primitive periods such as (1, 0, 1, 0)
])
def test_difference_family_is_the_reference_in_order(values, pre_max, per_max):
    fam = difference_streams(values, pre_max, per_max)
    assert list(fam) == list(reference_difference_streams(values, pre_max, per_max))
    # the streams skip normalization: their fields must be Fractions in the
    # normal form a build from them keeps
    for s in fam:
        assert all(type(v) is Fraction for v in s.preamble + s.period)
        built = EventuallyPeriodic(s.preamble, s.period)
        assert (built.preamble, built.period) == (s.preamble, s.period)
        assert hash(built) == hash(s)


def test_difference_family_and_shift_build_without_normalizing(monkeypatch):
    builds = []
    post_init = EventuallyPeriodic.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)
    monkeypatch.setattr(EventuallyPeriodic, "__post_init__", counted)
    fam = difference_streams((-1, 0, 1), 4, 3)
    shifted = [s.shift() for s in fam]
    assert len(fam) == len(shifted) == 1336
    assert builds == []


def test_first_nonzero_index():
    assert first_nonzero_index(EventuallyPeriodic((0, 0, 5), (0,))) == 2
    assert first_nonzero_index(EventuallyPeriodic((), (0, 1))) == 1
    assert first_nonzero_index(EventuallyPeriodic((), (0,))) is None


def test_rng_determinism():
    a = make_rng(42)
    b = make_rng(42)
    for _ in range(50):
        assert random_binary_stream(a) == random_binary_stream(b)
    a2 = make_rng(42)
    assert random_polynomial(a2) == random_polynomial(make_rng(42))


def test_random_stream_respects_alphabet_and_sizes():
    rng = make_rng(7)
    for _ in range(100):
        F = random_alphabet(rng)
        s = random_stream(rng, F, pre_max=3, per_max=2)
        assert len(s.preamble) <= 3
        assert 1 <= len(s.period) <= 2
        assert s.in_EF(F)


def test_random_polynomial_nonzero_flag():
    rng = make_rng(3)
    for _ in range(200):
        assert random_polynomial(rng, degree_max=1, nonzero=True).preamble


def test_random_alphabet_is_valid():
    rng = make_rng(1)
    for _ in range(100):
        F = random_alphabet(rng, max_size=5)
        assert 2 <= len(F) <= 5
        assert len(set(F.values)) == len(F)
        assert isinstance(F, Alphabet)
        assert all(isinstance(v, Fraction) for v in F.values)
