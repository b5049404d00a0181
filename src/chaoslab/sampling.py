"""Seeded sample streams and exhaustive small families.

Everything here is driven by an explicit random.Random instance, so a
fixed seed reproduces every trial (and every counterexample) byte for
byte.  The exhaustive enumerators return normalized, deduplicated
tuples in a fixed order; suites that brute-force small coefficient
families share them instead of rolling their own.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence, Tuple

from .coeffspace import Alphabet, BINARY, EventuallyPeriodic, Polynomial

__all__ = [
    "make_rng",
    "random_alphabet",
    "random_stream",
    "random_binary_stream",
    "random_polynomial",
    "difference_streams",
    "first_nonzero_index",
]

# Small rationals with varied denominators; enough to exercise exact
# arithmetic paths without blowing up denominators downstream.
VALUE_POOL: Tuple[Fraction, ...] = (
    Fraction(0),
    Fraction(1),
    Fraction(2),
    Fraction(-1),
    Fraction(3),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3, 2),
    Fraction(5, 4),
    Fraction(-2, 3),
)


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_alphabet(rng: random.Random, max_size: int = 4) -> Alphabet:
    """Distinct rational values, at least two of them."""
    size = rng.randint(2, max(2, max_size))
    values = rng.sample(list(VALUE_POOL), size)
    return Alphabet(tuple(values))


def random_stream(
    rng: random.Random,
    alphabet: Alphabet,
    pre_max: int = 6,
    per_max: int = 4,
) -> EventuallyPeriodic:
    pre_len = rng.randint(0, pre_max)
    per_len = rng.randint(1, per_max)
    pre = tuple(rng.choice(alphabet.values) for _ in range(pre_len))
    per = tuple(rng.choice(alphabet.values) for _ in range(per_len))
    return EventuallyPeriodic(pre, per)


def random_binary_stream(
    rng: random.Random, pre_max: int = 6, per_max: int = 4
) -> EventuallyPeriodic:
    return random_stream(rng, BINARY, pre_max, per_max)


def random_polynomial(
    rng: random.Random, degree_max: int = 6, nonzero: bool = False
) -> Polynomial:
    while True:
        n = rng.randint(0, degree_max)
        coeffs = tuple(rng.choice(VALUE_POOL) for _ in range(n + 1))
        poly = Polynomial(coeffs)
        if not (nonzero and poly.is_zero()):
            return poly


# ---------------------------------------------------------------------------
# exhaustive families


def first_nonzero_index(s: EventuallyPeriodic) -> Optional[int]:
    """Index of the first nonzero coefficient, None for the zero stream."""
    for i, v in enumerate(s.preamble + s.period):
        if v != 0:
            return i
    return None


def difference_streams(
    values: Sequence[Fraction],
    pre_max: int,
    per_max: int,
) -> Tuple[EventuallyPeriodic, ...]:
    """Streams over a difference-value set, up to sign and normalization.

    Pairwise metric checks over a coefficient family depend only on the
    coefficient differences, and the quantities involved are invariant
    under negating all of them, so streams whose first nonzero entry is
    negative are folded onto their mirror images.
    """
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
