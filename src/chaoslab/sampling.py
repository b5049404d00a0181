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

from .coeffspace import (
    Alphabet,
    BINARY,
    EventuallyPeriodic,
    FiniteSupport,
    _absorbed,
    _minimal_period,
    _normalized,
)

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
) -> EventuallyPeriodic:
    while True:
        n = rng.randint(0, degree_max)
        poly = FiniteSupport([rng.choice(VALUE_POOL) for _ in range(n + 1)])
        if poly.preamble or not nonzero:
            return poly


# ---------------------------------------------------------------------------
# exhaustive families


def first_nonzero_index(s: EventuallyPeriodic) -> Optional[int]:
    """Index of the first nonzero coefficient, None for the zero stream."""
    for i, v in enumerate(s.preamble + s.period):
        if v.numerator:
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

    The candidates are every period of length 1..per_max, each with every
    preamble of length 0..pre_max.  Each is folded, put in normal_form and
    deduplicated as a tuple of integer codes of the values, so only int
    compares run per candidate; one stream is built per distinct tuple,
    in the order of its first candidate, from one shared tuple of values
    per distinct code block.

    A period that is not its own minimal period is skipped: (pre, w^k)
    normalizes like (pre, w), a candidate met earlier since periods run
    by ascending length.  Every other period is minimal, so normal_form
    reduces to its absorption step.  The keys are then normal forms, so
    each stream is built by the private coeffspace._normalized (whose
    other caller is EventuallyPeriodic.shift) without normalizing again.
    """
    # codes index `symbols`: the distinct values, then the negations missing from them
    symbols = list(dict.fromkeys(Fraction(v) for v in values))
    symbols += [-v for v in symbols if -v not in symbols]
    code = {v: i for i, v in enumerate(symbols)}
    neg = [code[-v] for v in symbols]
    sign = [(v > 0) - (v < 0) for v in symbols]
    codes = [code[Fraction(v)] for v in values]

    def signed(block):
        """(block, the sign of its first nonzero entry or 0, its mirror image)"""
        return block, next((sign[c] for c in block if sign[c]), 0), tuple([neg[c] for c in block])

    pres = [signed(pre) for pre_len in range(0, pre_max + 1)
            for pre in product(codes, repeat=pre_len)]
    seen = {}
    for per_len in range(1, per_max + 1):
        for per in product(codes, repeat=per_len):
            if _minimal_period(per) != per:
                continue  # (pre, w^k) normalizes like (pre, w), met at a shorter length
            per, per_lead, per_mirror = signed(per)
            for pre, lead, mirror in pres:
                lead = lead or per_lead
                if lead > 0:
                    seen.setdefault(_absorbed(pre, per), None)
                elif lead < 0:
                    seen.setdefault(_absorbed(mirror, per_mirror), None)
    blocks = {}  # code block -> its values, one tuple shared by every stream that uses it

    def values_of(block):
        if block not in blocks:
            blocks[block] = tuple([symbols[c] for c in block])
        return blocks[block]

    return tuple([_normalized(values_of(pre), values_of(per)) for pre, per in seen])
