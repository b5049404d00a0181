"""Coefficient sequences and the series they generate.

A function on [origin, origin + gamma] is stored through its scaled
Taylor coefficients: f(x) = sum_n a_n (x - origin)^n / n!.  In this
normalization differentiation is literally the left shift
(a_0, a_1, ...) -> (a_1, a_2, ...), which is the whole point of the
library.  Two stream kinds are representable, and each is closed under
shifting:

* EventuallyPeriodic: a finite preamble followed by a repeating block.
  Construction normalizes to the minimal period and minimal preamble,
  so structural equality decides mathematical equality within the kind.
  Finite support is the period (0): FiniteSupport(coeffs) builds that
  stream, and it is the one polynomial type.  Its preamble, which
  normalization strips of trailing zeros (the zero polynomial's is ()),
  holds the kept coefficients, and its shift is the derivative.
* WordEnumeration: the concatenation of every finite word over a finite
  alphabet, ordered by length then lexicographically (in alphabet
  order).  Shifting is O(1) by bumping a start offset.

_difference_parts(a, b) is the one place two tail layouts are aligned:
when both tails are eventually periodic it returns a - b as normalized
integer numerators over one denominator (the lcm of the reduced ones).
For any other pair (a WordEnumeration over two or more symbols) a - b is
_Pointwise(a, b), which subtracts index by index and whose sup_abs()
bounds sup|a_n| + sup|b_n|.  same_stream compares normal forms.

truncate(a, b, cut, what) is the one reader of a - b into kept terms,
for every certified distance and series cut (evaluate, the metrics,
constructions.sensitivity_witness): an eventually-zero difference keeps
its support and its tail is exactly 0; any other keeps its first n
entries, (n, tail) = cut(sup_num, sup_den) at its sup, as integer
numerators over one m.  Each caller passes only its own tail rule, most
of them a zeta or eta cut through tailmath._zeta_cut.  Only this module
reads _Pointwise and the unrolled layout.

All coefficient values are exact `fractions.Fraction`s.  Sequences with
coefficients drawn from a finite alphabet F live in the closed set E_F;
membership is decidable for both kinds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, InfeasibleTolerance, brief
from .intervals import BoundInterval, as_fraction
from . import tailmath


# ---------------------------------------------------------------------------
# alphabets


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered set of rational coefficient values."""

    values: Tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_fraction(v) for v in self.values)
        if not vals:
            raise DomainError("alphabet must be nonempty")
        if len(set(vals)) != len(vals):
            raise DomainError(f"alphabet has duplicate values: {', '.join(map(brief, vals))}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __contains__(self, value) -> bool:
        return as_fraction(value) in self.values

    @property
    def diameter(self) -> Fraction:
        return max(self.values) - min(self.values)

    def index(self, value) -> int:
        return self.values.index(as_fraction(value))

    def union(self, extra: Iterable) -> "Alphabet":
        """Alphabet extended by new values, original order first."""
        vals = list(self.values)
        for v in extra:
            q = as_fraction(v)
            if q not in vals:
                vals.append(q)
        return Alphabet(tuple(vals))


BINARY = Alphabet((Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# coefficient sequences
#
# Coefficient tuples are built from lists, not generators: CPython sizes a
# generator-built tuple for 10 items and shrinks it, so freeing it fills
# the tuple free list of another size (about 1 MB of peak RSS in
# `verify --suite all`).


def _as_coeff_tuple(values: Iterable) -> Tuple[Fraction, ...]:
    # a tuple of Fractions is already what as_fraction would make of it
    if type(values) is tuple and all([isinstance(v, Fraction) for v in values]):
        return values
    return tuple([as_fraction(v) for v in values])


class CoeffSeq:
    """Common interface of the sequence kinds (do not instantiate)."""

    def coeff(self, n: int) -> Fraction:
        raise NotImplementedError

    def shift(self) -> "CoeffSeq":
        raise NotImplementedError

    def prefix(self, n: int) -> Tuple[Fraction, ...]:
        return tuple([self.coeff(i) for i in range(n)])

    def sup_abs(self) -> Fraction:
        """Exact sup of |a_n| over all n."""
        raise NotImplementedError

    def value_set(self) -> frozenset:
        """The set of values the sequence takes."""
        raise NotImplementedError

    def in_EF(self, alphabet: Alphabet) -> bool:
        return self.value_set() <= set(alphabet.values)

    def shifted(self, times: int) -> "CoeffSeq":
        s = self
        for _ in range(times):
            s = s.shift()
        return s


def _minimal_period(block: tuple) -> tuple:
    # for d dividing n: block is its first d entries repeated iff shifting by d fixes it
    n = len(block)
    for d in range(1, n):
        if n % d == 0 and block[d:] == block[:-d]:
            return block[:d]
    return block


def _absorbed(pre: tuple, per: tuple) -> Tuple[tuple, tuple]:
    # a preamble suffix that merely repeats the block's last symbol is
    # absorbed by rotating the block; per must be a minimal period
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = per[-1:] + per[:-1]
    return pre, per


def normal_form(pre: tuple, per: tuple) -> Tuple[tuple, tuple]:
    """The normalized (preamble, period) of pre, per, per, ...

    First the block becomes its minimal period (_minimal_period), then
    any preamble suffix that merely repeats the block's last symbol is
    absorbed by rotating the block (_absorbed; a rotation of a minimal
    period is minimal).  It compares entries with == only, so it works
    on any symbols, for instance integer codes of the values.

    Fields already in this form, as tuples of Fractions, are wrapped
    without a second pass by _normalized; its two callers are
    EventuallyPeriodic.shift and sampling.difference_streams.
    """
    return _absorbed(pre, _minimal_period(per))


@dataclass(frozen=True)
class EventuallyPeriodic(CoeffSeq):
    """Finite preamble followed by a repeating block, normalized on build.

    Construction normalizes through normal_form: the minimal period,
    then the preamble suffix that merely repeats the block's last symbol
    absorbed by rotating the block.  Two constructions describe the same
    sequence iff the normalized fields are equal.

    The one other way in is the private _normalized(pre, per), which
    skips the normalization: pre and per must be tuples of Fractions
    already in normal form.  EventuallyPeriodic.shift and
    sampling.difference_streams use it.
    """

    preamble: Tuple[Fraction, ...]
    period: Tuple[Fraction, ...]

    def __post_init__(self):
        pre = _as_coeff_tuple(self.preamble)
        per = _as_coeff_tuple(self.period)
        if not per:
            raise DomainError("period block must be nonempty")
        pre, per = normal_form(pre, per)
        object.__setattr__(self, "preamble", pre)
        object.__setattr__(self, "period", per)

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            raise DomainError("negative index")
        if n < len(self.preamble):
            return self.preamble[n]
        return self.period[(n - len(self.preamble)) % len(self.period)]

    def prefix(self, n: int) -> Tuple[Fraction, ...]:
        pre = self.preamble
        if n <= len(pre):
            return pre[:max(n, 0)]
        return tuple(_unrolled(pre, self.period, n))

    def shift(self) -> "EventuallyPeriodic":
        # a normal form stays one: a shorter preamble keeps its last entry,
        # and a rotated minimal period is minimal
        pre, per = self.preamble, self.period
        if pre:
            return _normalized(pre[1:], per)
        return _normalized((), per[1:] + per[:1])

    def sup_abs(self) -> Fraction:
        # |p|/q against the best so far by cross-multiplying: int work only
        best, best_q = 0, 1
        for c in self.preamble + self.period:
            p, q = c.as_integer_ratio()
            if abs(p) * best_q > best * q:
                best, best_q = abs(p), q
        return Fraction(best, best_q)

    def value_set(self) -> frozenset:
        return frozenset(self.preamble + self.period)

    @property
    def is_pure_periodic(self) -> bool:
        return not self.preamble


def _normalized(pre: Tuple[Fraction, ...], per: Tuple[Fraction, ...]) -> EventuallyPeriodic:
    # the stream with these fields, built without __post_init__: they must
    # be tuples of Fractions already in normal form (see normal_form)
    out = object.__new__(EventuallyPeriodic)
    object.__setattr__(out, "preamble", pre)
    object.__setattr__(out, "period", per)
    return out


def FiniteSupport(coeffs: Iterable = ()) -> EventuallyPeriodic:
    """The finitely supported stream coeffs, 0, 0, ...: period (0)."""
    return EventuallyPeriodic(tuple(coeffs), (Fraction(0),))


@dataclass(frozen=True)
class WordEnumeration(CoeffSeq):
    """Concatenation of all words over an alphabet, length-then-lex order.

    For alphabet (c_0, ..., c_{m-1}) the stream is every length-1 word,
    then every length-2 word, and so on, each block in lexicographic
    order of alphabet indices.  `offset` marks how many leading symbols
    have been shifted away, so shift() is O(1) and coeff(n) is a closed
    form in n + offset.
    """

    alphabet: Alphabet
    offset: int = 0

    def __post_init__(self):
        if self.offset < 0:
            raise DomainError("offset must be nonnegative")

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            raise DomainError("negative index")
        i = n + self.offset
        m = len(self.alphabet)
        # locate the length-L block: blocks contribute L * m^L symbols
        length = 1
        block = m
        start = 0
        while start + length * block <= i:
            start += length * block
            length += 1
            block *= m
        q, r = divmod(i - start, length)
        # q-th word of this length, symbol r (most significant first)
        digit = (q // m ** (length - 1 - r)) % m
        return self.alphabet.values[digit]

    def shift(self) -> "WordEnumeration":
        return WordEnumeration(self.alphabet, self.offset + 1)

    def sup_abs(self) -> Fraction:
        return max(abs(c) for c in self.alphabet.values)

    def value_set(self) -> frozenset:
        return frozenset(self.alphabet.values)


def word_start_index(alphabet: Alphabet, word: Sequence) -> int:
    """Index in the enumeration stream where `word` begins as a whole word.

    Closed form: all blocks of shorter words contribute sum_{j<L} j*m^j
    symbols, and within the length-L block the word sits at L times its
    lexicographic rank.  No scanning.
    """
    symbols = _as_coeff_tuple(word)
    if not symbols:
        raise DomainError("empty word has no start index")
    m = len(alphabet)
    length = len(symbols)
    start = sum(j * m**j for j in range(1, length))
    rank = 0
    for s in symbols:
        rank = rank * m + alphabet.index(s)
    return start + length * rank


# ---------------------------------------------------------------------------
# structural helpers


def shift(s: CoeffSeq) -> CoeffSeq:
    """The left shift: drop a_0.  Under the series dictionary this is
    exactly differentiation."""
    return s.shift()


def as_preamble_period(s: CoeffSeq) -> Optional[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]]:
    """(preamble, period) of an eventually periodic stream, else None.

    A WordEnumeration over a single symbol is the constant stream; over
    two or more it is never eventually periodic.
    """
    if isinstance(s, EventuallyPeriodic):
        return s.preamble, s.period
    if isinstance(s, WordEnumeration) and len(s.alphabet) == 1:
        return (), (s.alphabet.values[0],)
    return None


def _numerators(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(nums, m): values as integer numerators over m, the lcm of their
    denominators, so that values[i] == Fraction(nums[i], m)."""
    ratios = [v.as_integer_ratio() for v in values]
    m = math.lcm(*[q for _, q in ratios])
    return [p * (m // q) for p, q in ratios], m


def _unrolled(pre: Sequence, per: Sequence, n: int) -> list:
    """The first n entries of the stream pre, per, per, ..."""
    reps = -(-(n - len(pre)) // len(per))
    return (list(pre) + list(per) * reps)[:n]


@dataclass(frozen=True)
class _Pointwise(CoeffSeq):
    """a - b read index by index, for a pair with no eventually periodic
    difference (a WordEnumeration over two or more symbols)."""

    a: CoeffSeq
    b: CoeffSeq

    def coeff(self, n: int) -> Fraction:
        return self.a.coeff(n) - self.b.coeff(n)

    def sup_abs(self) -> Fraction:
        """An upper bound, exact only when a == b."""
        if self.a == self.b:
            return Fraction(0)
        return self.a.sup_abs() + self.b.sup_abs()


def _difference_parts(a: CoeffSeq, b: CoeffSeq) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """(pre, per, m): the stream a - b as integer numerators over m, its
    normalized preamble and period, Fraction(d, m) for each entry d; or
    None when either stream is a WordEnumeration over two or more symbols.

    Past the longer preamble a - b repeats with the lcm of the two periods.
    The n entries of each layout are read as integer numerators over the
    lcm of their denominators and subtracted as integers, and the
    differences go through normal_form as they are; m is then reduced by
    the gcd of it and every difference, so it is the lcm of the reduced
    denominators of a - b (1 for the zero stream).  An EventuallyPeriodic
    minus the zero stream keeps its own fields, already in normal form.
    """
    pa, pb = as_preamble_period(a), as_preamble_period(b)
    if pa is None or pb is None:
        return None
    if pb == ((), (0,)):
        nums, m = _numerators(pa[0] + pa[1])
        s = len(pa[0])
        return tuple(nums[:s]), tuple(nums[s:]), m
    s = max(len(pa[0]), len(pb[0]))
    n = s + math.lcm(len(pa[1]), len(pb[1]))
    nums, m = _numerators(_unrolled(*pa, n) + _unrolled(*pb, n))
    diffs = [x - y for x, y in zip(nums, nums[n:])]
    pre, per = normal_form(tuple(diffs[:s]), tuple(diffs[s:]))
    g = math.gcd(m, *pre, *per)
    if g > 1:
        pre, per, m = tuple([d // g for d in pre]), tuple([d // g for d in per]), m // g
    return pre, per, m


def finite_support(s: CoeffSeq) -> Optional[Tuple[Fraction, ...]]:
    """s_0 ... s_(n-1) when s is 0 from index n on (its support), else None."""
    layout = as_preamble_period(s)
    if layout is not None and layout[1] == (0,):
        return layout[0]
    return None


def truncate(a: CoeffSeq, b: CoeffSeq, cut: Callable[[int, int], Tuple[int, Fraction]],
             what: str) -> Tuple[Sequence[int], int, Fraction]:
    """(nums, m, tail): the kept terms of a - b as integer numerators over
    m, Fraction(nums[i], m) for its entry i, and a bound tail, in the
    caller's units, on everything a - b contributes past them.

    An eventually-zero difference keeps its support, the tail is exactly
    0, and cut is never called.  Any other takes (n, tail) = cut(sup_num,
    sup_den), sup|a_n - b_n| = sup_num/sup_den in lowest terms (for a
    WordEnumeration over two or more symbols the bound sup|a_n| + sup|b_n|
    of _Pointwise, read index by index), and keeps its first n entries.
    A cut past the index cap is re-raised as InfeasibleTolerance naming
    `what` and the budget the cut had to clear.
    """
    parts = _difference_parts(a, b)
    if parts is not None:
        pre, per, m = parts
        if per == (0,):
            return pre, m, 0
        top = max(map(abs, pre + per))
        c = math.gcd(top, m)
        sup_num, sup_den = top // c, m // c
    else:
        d = _Pointwise(a, b)
        sup_num, sup_den = d.sup_abs().as_integer_ratio()
    try:
        n, tail = cut(sup_num, sup_den)
    except InfeasibleTolerance as exc:
        raise tailmath.index_cap(what, exc.budget) from None
    if parts is None:
        nums, m = _numerators(d.prefix(n))
        return nums, m, tail
    return _unrolled(pre, per, n), m, tail


def same_stream(a: CoeffSeq, b: CoeffSeq) -> bool:
    """Decidable equality of the underlying coefficient streams: equal
    normal forms, or for a WordEnumeration over two or more symbols
    (never eventually periodic) equal objects."""
    pa, pb = as_preamble_period(a), as_preamble_period(b)
    return pa == pb if pa is not None and pb is not None else a == b


# ---------------------------------------------------------------------------
# series functions


@dataclass(frozen=True)
class SeriesFn:
    """f(x) = sum_n a_n (x - origin)^n / n! on [origin, origin + gamma]."""

    coeffs: CoeffSeq
    gamma: Fraction
    origin: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_fraction(self.gamma))
        object.__setattr__(self, "origin", as_fraction(self.origin))
        if self.gamma.numerator <= 0:
            raise DomainError("gamma must be positive")

    @property
    def domain(self) -> Tuple[Fraction, Fraction]:
        return (self.origin, self.origin + self.gamma)

    def derivative(self) -> "SeriesFn":
        return SeriesFn(self.coeffs.shift(), self.gamma, self.origin)


_ZERO = FiniteSupport()


def evaluate(f: SeriesFn, x, tol=Fraction(1, 10**12)) -> BoundInterval:
    """Certified enclosure of f(x), width at most tol.

    truncate cuts the coefficients where sup|a_n| * zeta_n, which bounds
    every term from index n on, first falls below tol/2 at n = 9, 17, ...
    (an eventually-zero stream keeps its support, with a tail of 0).  At t
    = x - origin = u/v the K kept terms nums_i/m sum to one integer over m
    v^K K!, sum_i nums_i u^i v^(K-i) K!/i!, by Horner's rule on integers,
    so the enclosure is that exact partial sum widened by the tail bound
    on both sides.
    """
    xq = as_fraction(x)
    tolq = as_fraction(tol)
    if tolq <= 0:
        raise DomainError("tolerance must be positive")
    lo, hi = f.domain
    if not (lo <= xq <= hi):
        raise DomainError(f"evaluation point {brief(xq)} outside domain [{brief(lo)}, {brief(hi)}]")
    g, h = f.gamma.as_integer_ratio()
    nums, m, tail = truncate(f.coeffs, _ZERO, lambda sn, sd: tailmath._zeta_cut(
        g, h, sn, sd, tolq.numerator, 2 * tolq.denominator, 9, 8, 0), "the series tail")
    u, v = (xq - f.origin).as_integer_ratio()
    acc, w = 0, 1  # w = v^(K-i) K!/i! at term i
    for i in range(len(nums) - 1, -1, -1):
        w *= v * (i + 1)
        acc = acc * u + nums[i] * w
    partial = Fraction(acc, m * w)
    return BoundInterval(partial - tail, partial + tail)


def derivative_sup_bound(f: SeriesFn) -> Fraction:
    """Certified upper bound for sup |f'| on the domain.

    |f'(x)| = |sum a_{n+1} t^n / n!| <= sup|a_n| * e**gamma, and the
    same bound survives any number of further shifts.
    """
    return f.coeffs.sup_abs() * tailmath.exp_enclosure(f.gamma).hi


# ---------------------------------------------------------------------------
# JSON wire format


def _frac_list(values: Iterable[Fraction]) -> list:
    return [str(v) for v in values]


def _parse_frac(text) -> Fraction:
    if isinstance(text, (str, int)) and not isinstance(text, bool):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"not a rational literal: {text!r}") from exc
    raise DomainError(f"expected a rational string, got {text!r}")


def seq_to_payload(s: CoeffSeq) -> dict:
    if isinstance(s, EventuallyPeriodic):
        if s.period == (0,):
            return {"kind": "finite", "preamble": _frac_list(s.preamble)}
        return {
            "kind": "periodic",
            "preamble": _frac_list(s.preamble),
            "period": _frac_list(s.period),
        }
    if isinstance(s, WordEnumeration):
        return {
            "kind": "enum",
            "alphabet": _frac_list(s.alphabet.values),
            "offset": s.offset,
        }
    raise DomainError(f"not a serializable sequence: {s!r}")


def _frac_array(payload: dict, key: str, default=None) -> Tuple[Fraction, ...]:
    """payload[key], or default when absent: a JSON array of rationals."""
    values = payload.get(key, default)
    if not isinstance(values, list):
        raise DomainError(f"{key!r} must be a JSON array, got {values!r}")
    return tuple(_parse_frac(v) for v in values)


def seq_from_payload(payload: dict) -> CoeffSeq:
    kind = payload.get("kind")
    if kind == "finite":
        return FiniteSupport(_frac_array(payload, "preamble", []))
    if kind == "periodic":
        return EventuallyPeriodic(
            _frac_array(payload, "preamble", []), _frac_array(payload, "period")
        )
    if kind == "enum":
        offset = payload.get("offset", 0)
        if type(offset) is not int:  # bool and float are not offsets
            raise DomainError(f"'offset' must be a JSON integer, got {offset!r}")
        return WordEnumeration(Alphabet(_frac_array(payload, "alphabet")), offset)
    raise DomainError(f"unknown sequence kind {kind!r}")


def to_payload(obj: Union[CoeffSeq, SeriesFn]) -> dict:
    if isinstance(obj, SeriesFn):
        payload = seq_to_payload(obj.coeffs)
        payload["gamma"] = str(obj.gamma)
        payload["origin"] = str(obj.origin)
        return payload
    return seq_to_payload(obj)


def from_payload(payload: dict) -> Union[CoeffSeq, SeriesFn]:
    seq = seq_from_payload(payload)
    if "gamma" in payload:
        return SeriesFn(
            seq,
            _parse_frac(payload["gamma"]),
            _parse_frac(payload.get("origin", 0)),
        )
    return seq


def to_json(obj: Union[CoeffSeq, SeriesFn]) -> str:
    return json.dumps(to_payload(obj), sort_keys=True, separators=(",", ": "))


def from_json(text: str) -> Union[CoeffSeq, SeriesFn]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DomainError("expected a JSON object")
    return from_payload(payload)
