"""Named property suites behind `chaos-lab verify`.

Each property re-checks, at desk scale, a quantitative fact the rest
of the package leans on: certified tail inequalities, brute-forced
coefficient-family bounds, the shift/derivative commuting square,
isometries, and the certificates coming out of the construction
procedures.  Every check returns a plain record; the CLI renders the
records as JSON lines.  The prefix implications (agreement through k
bounds d_E and rho_inf; a small d_E forces agreement) are checked by
one sweep, `prefix_implications`, which the metric-suite lines read.

All randomness flows through one seeded generator per property, so a
fixed seed reproduces runs byte for byte; exhaustive families come
from `sampling` in a fixed enumeration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import tailmath
from .coeffspace import (
    Alphabet,
    BINARY,
    CoeffSeq,
    EventuallyPeriodic,
    FiniteSupport,
    SeriesFn,
    _frac_list,
    derivative_sup_bound,
    evaluate,
    same_stream,
    to_payload,
    word_start_index,
)
from .conjugacy import (
    check_commuting_square,
    check_translation_isometry,
    nearby_distinct_point,
    translate,
    untranslate,
)
from .constructions import (
    agreement_index,
    coefficient_alphabet,
    dense_orbit_point,
    ef_approximation,
    ensure_two_coeff_values,
    filtration,
    orbit_search,
    periodic_approx_in_EF,
    periodic_point_in_cinf,
    sensitivity_witness,
    transitivity_witness,
)
from .errors import ConfigError, DomainError
from .intervals import BoundInterval, as_fraction
from .metrics import (
    FACTORIAL_WEIGHTS,
    LpSpec,
    _D_E_TOL,
    _d_E_interval,
    _d_E_parts,
    continuity_delta_dE,
    continuity_delta_l1,
    d_E,
    d_lambda,
    holder_compare,
    rho_1_lower_bound,
    rho_p,
    weighted_product_metric,
)
from .sampling import (
    difference_streams,
    first_nonzero_index,
    make_rng,
    random_alphabet,
    random_binary_stream,
    random_polynomial,
    random_stream,
)

__all__ = ["CheckResult", "VerifyConfig", "SUITES", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    trials: int
    detail: Dict[str, object]
    failures: Tuple[Dict[str, object], ...] = ()


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs shared by every suite; None means suite defaults."""

    gammas: Optional[Tuple[Fraction, ...]] = None
    k_max: int = 60
    seed: int = 0
    trials: Optional[int] = None

    def __post_init__(self):
        if self.gammas is not None:
            for g in self.gammas:
                if g <= 0:
                    raise ConfigError(f"gamma must be positive, got {g}")
        if self.k_max < 1:
            raise ConfigError(f"k_max must be at least 1, got {self.k_max}")
        if self.trials is not None and self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")

    def gamma_list(self, default: Sequence[Fraction]) -> Tuple[Fraction, ...]:
        return self.gammas if self.gammas else tuple(default)

    def trial_count(self, default: int) -> int:
        return self.trials if self.trials is not None else default


_MAX_STORED_FAILURES = 10


def _result(suite, name, trials, failures, **detail) -> CheckResult:
    detail = dict(detail)
    if failures:
        detail["failure_count"] = len(failures)
    return CheckResult(
        suite, name, not failures, trials, detail, tuple(failures[:_MAX_STORED_FAILURES])
    )


def _fr(x) -> str:
    return str(as_fraction(x))


def _ivp(iv: BoundInterval) -> Dict[str, str]:
    return {"lo": str(iv.lo), "hi": str(iv.hi)}


# ---------------------------------------------------------------------------
# tail suite

_TAIL_GAMMAS = (Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
_VANISH_BOUND = Fraction(1, 10**12)


def check_tail_monotonicity(gammas=_TAIL_GAMMAS, k_max: int = 60) -> CheckResult:
    failures: List[dict] = []
    trials = 0
    for k in range(1, k_max + 1):
        want = Fraction(1, math.factorial(k))
        diff = tailmath.eta(k) - tailmath.eta(k + 1)
        trials += 1
        if not (diff.lo <= want <= diff.hi):
            failures.append({"kind": "eta", "k": k, "enclosure": _ivp(diff)})
        for g in gammas:
            wantz = as_fraction(g) ** k / math.factorial(k)
            diffz = tailmath.zeta(g, k) - tailmath.zeta(g, k + 1)
            trials += 1
            if not (diffz.lo <= wantz <= diffz.hi):
                failures.append(
                    {"kind": "zeta", "k": k, "gamma": _fr(g), "enclosure": _ivp(diffz)}
                )
    return _result("tailmath", "tail-monotonicity", trials, failures,
                   k_max=k_max, gammas=_frac_list(gammas))


def check_tail_vanishing(gammas=_TAIL_GAMMAS, k_max: int = 60) -> CheckResult:
    failures: List[dict] = []
    trials = 0
    small = [g for g in gammas if as_fraction(g) <= 5]
    for k in range(40, max(41, k_max + 1)):
        trials += 1
        if not tailmath.eta(k).hi < _VANISH_BOUND:
            failures.append({"kind": "eta", "k": k})
        for g in small:
            z = tailmath.zeta(g, k)
            x = tailmath.xi(g, k)
            mag = max(abs(x.lo), abs(x.hi))
            trials += 1
            if not (z.hi < _VANISH_BOUND and mag < _VANISH_BOUND):
                failures.append({"kind": "zeta-or-xi", "k": k, "gamma": _fr(g)})
    return _result("tailmath", "tail-vanishing", trials, failures,
                   bound=str(_VANISH_BOUND), gammas=_frac_list(small))


def check_xi_positivity(gammas=_TAIL_GAMMAS, window: int = 100) -> CheckResult:
    failures: List[dict] = []
    trials = 0
    thresholds = {}
    for g in gammas:
        n0 = tailmath.compute_n_gamma(g)
        thresholds[_fr(g)] = n0
        for k in range(n0, n0 + window + 1):
            trials += 1
            if not tailmath.xi(g, k).lo > 0:
                failures.append({"kind": "xi-sign", "k": k, "gamma": _fr(g)})
            if not tailmath.xi_decrement(g, k) > 0:
                failures.append({"kind": "xi-decrement", "k": k, "gamma": _fr(g)})
    return _result("tailmath", "xi-positivity-threshold", trials, failures,
                   window=window, n_gamma=thresholds)


def check_alpha_positivity(k_max: int = 60) -> CheckResult:
    failures: List[dict] = []
    trials = 0
    for k in range(1, k_max + 1):
        trials += 1
        if not tailmath.alpha(k).lo > 0:
            failures.append({"k": k, "enclosure": _ivp(tailmath.alpha(k))})
    return _result("tailmath", "alpha-positivity", trials, failures, k_max=k_max)


def check_enclosure_contract(gammas=_TAIL_GAMMAS, k_max: int = 60) -> CheckResult:
    loose = Fraction(1, 10**9)
    tight = Fraction(1, 10**30)
    failures: List[dict] = []
    trials = 0
    ks = sorted({1, 2, 5, 12, 25, 40, k_max})
    for k in ks:
        pairs = [("eta", tailmath.eta(k, loose), tailmath.eta(k, tight))]
        for g in gammas:
            pairs.append(
                (f"zeta:{_fr(g)}", tailmath.zeta(g, k, loose), tailmath.zeta(g, k, tight))
            )
            pairs.append(
                (f"xi:{_fr(g)}", tailmath.xi(g, k, loose), tailmath.xi(g, k, tight))
            )
        for kind, wide, narrow in pairs:
            trials += 1
            if not (wide.lo <= narrow.lo and narrow.hi <= wide.hi):
                failures.append({"kind": kind, "k": k,
                                 "wide": _ivp(wide), "narrow": _ivp(narrow)})
    return _result("tailmath", "tail-enclosure-contract", trials, failures,
                   ks=ks, rel_tols=[str(loose), str(tight)])


def run_tailmath(cfg: VerifyConfig) -> List[CheckResult]:
    gammas = cfg.gamma_list(_TAIL_GAMMAS)
    return [
        check_tail_monotonicity(gammas, cfg.k_max),
        check_tail_vanishing(gammas, cfg.k_max),
        check_xi_positivity(gammas),
        check_alpha_positivity(cfg.k_max),
        check_enclosure_contract(gammas, cfg.k_max),
    ]


# ---------------------------------------------------------------------------
# coefficient-space suite

_CORE_GAMMAS = (Fraction(1, 2), Fraction(1), Fraction(2))


def check_shift_derivative_coherence(
    gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 60
) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    fractions_of_gamma = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    done = 0
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        stream = random_stream(rng, random_alphabet(rng))
        f = SeriesFn(stream, g)
        df = SeriesFn(stream.shift(), g)
        h = min(Fraction(1, 10**6), g / 8)
        x = g * fractions_of_gamma[t % 4]
        etol = h * h
        fx = evaluate(f, x, etol)
        fxh = evaluate(f, x + h, etol)
        dfx = evaluate(df, x, etol)
        delta = fxh - fx
        quotient = BoundInterval(delta.lo / h, delta.hi / h)
        diff = dfx - quotient
        mag = max(abs(diff.lo), abs(diff.hi))
        bound = derivative_sup_bound(df) * h + dfx.width + quotient.width
        done += 1
        if not mag <= bound:
            failures.append({
                "stream": to_payload(stream), "gamma": _fr(g), "x": _fr(x),
                "gap": str(mag), "bound": str(bound),
            })
    return _result("coeffspace", "shift-derivative-coherence", done, failures,
                   step="1/1000000", gammas=_frac_list(gammas))


def check_periodic_shift_fixed_point(seed: int = 0, trials: int = 100) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    for _ in range(trials):
        alphabet = random_alphabet(rng)
        per_len = rng.randint(1, 6)
        s = EventuallyPeriodic(
            (), tuple(rng.choice(alphabet.values) for _ in range(per_len))
        )
        q = len(s.period)
        if not (s.shifted(q) == s and s.shifted(2 * q) == s):
            failures.append({"stream": to_payload(s)})
    return _result("coeffspace", "periodic-shift-fixed-point", trials, failures)


def check_word_enumeration_complete() -> CheckResult:
    import itertools

    failures: List[dict] = []
    trials = 0
    max_first_hit = 0
    plans = (
        (BINARY, 4),
        (Alphabet((Fraction(0), Fraction(1), Fraction(2))), 3),
    )
    for alphabet, max_len in plans:
        b = dense_orbit_point(alphabet)
        for length in range(1, max_len + 1):
            for word in itertools.product(alphabet.values, repeat=length):
                trials += 1
                l0 = word_start_index(alphabet, word)
                exact = all(b.coeff(l0 + i) == word[i] for i in range(length))
                first = None
                for l in range(l0 + 1):
                    if all(b.coeff(l + i) == word[i] for i in range(length)):
                        first = l
                        break
                if not exact or first is None:
                    failures.append({
                        "alphabet": _frac_list(alphabet.values),
                        "word": _frac_list(word), "start_index": l0,
                    })
                else:
                    max_first_hit = max(max_first_hit, first)
    return _result("coeffspace", "word-enumeration-complete", trials, failures,
                   max_first_occurrence=max_first_hit)


def check_shift_preserves_alphabet(seed: int = 0, trials: int = 100) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    for t in range(trials):
        alphabet = random_alphabet(rng)
        s: CoeffSeq = random_stream(rng, alphabet)
        if t % 5 == 0:
            s = dense_orbit_point(alphabet)
        if not (s.in_EF(alphabet) and s.shift().in_EF(alphabet)
                and s.shifted(7).in_EF(alphabet)):
            failures.append({"stream": to_payload(s), "alphabet": _frac_list(alphabet.values)})
    return _result("coeffspace", "shift-preserves-alphabet", trials, failures)


def run_coeffspace(cfg: VerifyConfig) -> List[CheckResult]:
    gammas = cfg.gamma_list(_CORE_GAMMAS)
    return [
        check_shift_derivative_coherence(gammas, cfg.seed, cfg.trial_count(60)),
        check_periodic_shift_fixed_point(cfg.seed, cfg.trial_count(100)),
        check_word_enumeration_complete(),
        check_shift_preserves_alphabet(cfg.seed, cfg.trial_count(100)),
    ]


# ---------------------------------------------------------------------------
# metric suite

_ZERO = FiniteSupport(())


def check_metric_axioms(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 60) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    ps = (Fraction(1), Fraction(2), math.inf)
    done = 0
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        binary = t % 3 != 0
        if binary:
            x, y, z = (random_binary_stream(rng, 4, 3) for _ in range(3))
        else:
            alphabet = random_alphabet(rng)
            x, y, z = (random_stream(rng, alphabet, 4, 3) for _ in range(3))
        metrics = (("d_lambda", d_lambda), ("d_E", d_E)) if binary else (("d_E", d_E),)
        for kind, metric in metrics:
            dxy, dyx = metric(x, y), metric(y, x)
            dxz, dyz = metric(x, z), metric(y, z)
            done += 1
            widths = dxy.width + dyz.width + dxz.width
            if not dxy.intersects(dyx):
                failures.append({"kind": f"{kind}-symmetry", "x": to_payload(x),
                                 "y": to_payload(y)})
            if not dxz.lo <= dxy.hi + dyz.hi + widths:
                failures.append({"kind": f"{kind}-triangle", "x": to_payload(x),
                                 "y": to_payload(y), "z": to_payload(z)})
        if t % 3 == 0:
            p = ps[(t // 3) % len(ps)]
            spec = LpSpec(p, g)
            fx, fy, fz = (SeriesFn(s, g) for s in (x, y, z))
            tol = Fraction(1, 10**5)
            rxy = rho_p(fx, fy, spec, tol)
            ryx = rho_p(fy, fx, spec, tol)
            rxz = rho_p(fx, fz, spec, tol)
            ryz = rho_p(fy, fz, spec, tol)
            done += 1
            widths = rxy.width + ryz.width + rxz.width
            if not rxy.intersects(ryx):
                failures.append({"kind": "rho-symmetry", "p": str(p), "gamma": _fr(g)})
            if not rxz.lo <= rxy.hi + ryz.hi + widths:
                failures.append({"kind": "rho-triangle", "p": str(p), "gamma": _fr(g),
                                 "x": to_payload(x), "y": to_payload(y),
                                 "z": to_payload(z)})
    return _result("metrics", "metric-axioms", done, failures, gammas=_frac_list(gammas))


def check_lp_norm_comparison(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 200) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    exponents = (Fraction(1), Fraction(4, 3), Fraction(3, 2), Fraction(2), Fraction(3), math.inf)

    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        f = SeriesFn(random_polynomial(rng, 6), g)
        p, q = rng.sample(exponents, 2)
        if LpSpec(p, g).inv_p < LpSpec(q, g).inv_p:
            p, q = q, p
        lhs, rhs = holder_compare(f, p, q, tol=Fraction(1, 10**6))
        if not lhs.lo <= rhs.hi:
            failures.append({
                "f": to_payload(f), "p": str(p), "q": str(q),
                "lhs": _ivp(lhs), "rhs": _ivp(rhs),
            })
    return _result("metrics", "lp-norm-comparison", trials, failures,
                   exponents=_frac_list(exponents), gammas=_frac_list(gammas))


@dataclass
class Implication:
    """Trials, premise hits (de-lower only) and failures of one prefix implication."""

    trials: int = 0
    hits: int = 0
    failures: List[dict] = field(default_factory=list)


@dataclass(frozen=True)
class PrefixSweep:
    family_size: int
    de_upper: Implication
    de_lower: Implication
    sup_upper: Implication


def prefix_implications(values: Sequence[Fraction], pre_max: int, per_max: int,
                        de_upper_ks: Sequence[int] = (), de_lower_ks: Sequence[int] = (),
                        rho_ks: Sequence[int] = (), gammas=_CORE_GAMMAS,
                        tol=Fraction(1, 10**6)) -> PrefixSweep:
    """The prefix implications over `difference_streams(values, pre_max, per_max)`.

    With D = max|v| and j0 the first nonzero index of a difference d:
    de-upper, k in de_upper_ks below j0: d_E(d, 0) <= D eta_{k+2};
    de-lower, k in de_lower_ks: d_E(d, 0) < 1/(k+1)! implies j0 > k (needs nonzero |v| >= 1);
    sup-upper, k in rho_ks below j0: rho_inf(d, 0) <= D zeta_{k+1}(gamma) at `tol`, with
    gamma cycling over the streams that have such a k.  A stream's d_E and rho_inf are
    computed once, and only when one of its implications has a trial.

    Each test is the enclosure's compare, widened by both widths, worked
    out as one compare on a bound fixed per k (and gamma): d_E.hi <= D
    eta.hi + D width(eta) + width(d_E) is d_E.lo <= D (eta.hi +
    width(eta)), and rho.hi <= D zeta.hi + width(rho) + D width(zeta) is
    rho.lo <= D (zeta.hi + width(zeta)).  d_E is read as the integers of
    metrics._d_E_parts and compared by cross-multiplying; its enclosure is
    built only for a failure's payload.
    """
    family = difference_streams(values, pre_max, per_max)
    diam = max(abs(as_fraction(v)) for v in values)
    upper, lower, sup = Implication(), Implication(), Implication()
    # per k (and gamma), worked out once: the tail enclosure and D (its hi + its width)
    etas = {k: tailmath.eta(k + 2) for k in de_upper_ks}
    bounds = {k: (diam * (e.hi + e.width)).as_integer_ratio() for k, e in etas.items()}
    facts = {k: math.factorial(k + 1) for k in de_lower_ks}
    gs = [as_fraction(g) for g in gammas]
    zetas = {(g, k): tailmath.zeta(g, k + 1) for g in gs for k in rho_ks}
    rho_bounds = {key: diam * (z.hi + z.width) for key, z in zetas.items()}
    idx = 0
    for d in family:
        j0 = first_nonzero_index(d)
        upper_ks = [k for k in de_upper_ks if k < j0]
        if upper_ks or facts:
            num, den, tail_num, tail_den = parts = _d_E_parts(d, _ZERO, _D_E_TOL)
            hi_num, hi_den = num * tail_den + tail_num * den, den * tail_den
        for k in upper_ks:
            upper.trials += 1
            b_num, b_den = bounds[k]
            if not num * b_den <= b_num * den:
                upper.failures.append({"difference": to_payload(d), "k": k,
                                       "d_E": _ivp(_d_E_interval(*parts)),
                                       "eta": _ivp(etas[k]), "diam": str(diam)})
        for k, fact in facts.items():
            lower.trials += 1
            if hi_num * fact < hi_den:  # d_E.hi < 1/(k+1)!
                lower.hits += 1
                if j0 <= k:
                    lower.failures.append({"difference": to_payload(d), "k": k,
                                           "d_E": _ivp(_d_E_interval(*parts)), "first_nonzero": j0})
        sup_ks = [k for k in rho_ks if k < j0]
        if not sup_ks:
            continue
        g = gs[idx % len(gs)]
        idx += 1
        rho = rho_p(SeriesFn(d, g), SeriesFn(_ZERO, g), LpSpec(math.inf, g), tol=tol)
        for k in sup_ks:
            sup.trials += 1
            if not rho.lo <= rho_bounds[g, k]:
                sup.failures.append({"difference": to_payload(d), "k": k, "gamma": _fr(g),
                                     "rho_inf": _ivp(rho), "zeta": _ivp(zetas[g, k]),
                                     "diam": str(diam)})
    return PrefixSweep(len(family), upper, lower, sup)


# both d_E prefix lines read one sweep over the {-1, 0, 1} differences
_DE_PRE_MAX, _DE_PER_MAX, _DE_K_MAX = 4, 3, 8


def check_de_prefix_upper(sweep: PrefixSweep) -> CheckResult:
    return _result("metrics", "dE-prefix-upper", sweep.de_upper.trials, sweep.de_upper.failures,
                   family_size=sweep.family_size, pre_max=_DE_PRE_MAX, per_max=_DE_PER_MAX,
                   k_max=_DE_K_MAX)


def check_de_prefix_lower(sweep: PrefixSweep) -> CheckResult:
    return _result("metrics", "dE-prefix-lower", sweep.de_lower.trials, sweep.de_lower.failures,
                   family_size=sweep.family_size, hypothesis_hits=sweep.de_lower.hits,
                   k_max=_DE_K_MAX)


def _alphabet_differences(values: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    vals = [as_fraction(v) for v in values]
    return tuple(sorted({a - b for a in vals for b in vals}))


def check_sup_prefix_upper(alphabet_values: Sequence[Fraction], gammas=_CORE_GAMMAS,
                           pre_max: int = 4, per_max: int = 2, k_max: int = 8) -> CheckResult:
    sweep = prefix_implications(_alphabet_differences(alphabet_values), pre_max, per_max,
                                rho_ks=range(k_max + 1), gammas=gammas)
    return _result("metrics", "sup-prefix-upper", sweep.sup_upper.trials,
                   sweep.sup_upper.failures, alphabet=_frac_list(alphabet_values),
                   family_size=sweep.family_size, gammas=_frac_list(gammas), k_max=k_max)


def check_sup_prefix_upper_general(
    alphabets=((0, 1, 2), (-1, 0, 1)), gammas=_CORE_GAMMAS,
    pre_max: int = 3, per_max: int = 2, k_max: int = 4,
) -> CheckResult:
    """sup-prefix-upper per alphabet; alphabets sharing a difference set share one sweep."""
    diffs = [_alphabet_differences(values) for values in alphabets]
    sweeps = {d: prefix_implications(d, pre_max, per_max, rho_ks=range(k_max + 1), gammas=gammas)
              for d in set(diffs)}
    runs = [sweeps[d] for d in diffs]
    return _result("metrics", "sup-prefix-upper-general", sum(r.sup_upper.trials for r in runs),
                   [f for r in runs for f in r.sup_upper.failures],
                   alphabets=[_frac_list(values) for values in alphabets],
                   family_sizes=[r.family_size for r in runs])


def check_l1_prefix_separation(
    gammas=_CORE_GAMMAS,
    pre_max: int = 4,
    per_max: int = 2,
    k_span: int = 4,
) -> CheckResult:
    family = difference_streams((-1, 0, 1), pre_max, per_max)
    failures: List[dict] = []
    trials = 0
    triggers = 0
    skipped = 0
    m_values = {}
    for g in gammas:
        g = as_fraction(g)
        m0 = tailmath.compute_m_gamma(g)
        m_values[_fr(g)] = m0
        ks = range(m0, m0 + k_span + 1)
        thresholds = {k: tailmath.xi(g, k + 1).lo for k in ks}
        top = max(thresholds.values())
        full_tol = min(thresholds.values()) / 2
        spec = LpSpec(1, g)
        zero_fn = SeriesFn(_ZERO, g)
        for d in family:
            fd = SeriesFn(d, g)
            trials += 1
            if rho_1_lower_bound(fd, zero_fn) >= top:
                skipped += 1
                continue
            rho = rho_p(fd, zero_fn, spec, tol=full_tol)
            j0 = first_nonzero_index(d)
            for k in ks:
                if rho.hi < thresholds[k]:
                    triggers += 1
                    if j0 <= k:
                        failures.append({
                            "difference": to_payload(d), "gamma": _fr(g), "k": k,
                            "rho_1": _ivp(rho), "threshold": str(thresholds[k]),
                            "first_nonzero": j0,
                        })
    return _result("metrics", "l1-prefix-separation", trials, failures,
                   family_size=len(family), m_gamma=m_values,
                   hypothesis_hits=triggers, quick_skips=skipped, k_span=k_span)


def check_rho1_to_dE_continuity(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 100) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(1, 10), Fraction(1, 1000))
    hits = 0
    misses = 0
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        eps = epss[t % 2]
        _, delta = continuity_delta_l1(g, eps)
        j, _ = tailmath.zeta_index(g, g, delta / 2, f"an agreement index for delta={delta}", shift=1)
        base = random_binary_stream(rng)
        tail = random_binary_stream(rng)
        close = EventuallyPeriodic(base.prefix(j + 1) + tail.preamble, tail.period)
        rho1 = rho_p(SeriesFn(base, g), SeriesFn(close, g), LpSpec(1, g), tol=delta / 4)
        if rho1.hi < delta:
            hits += 1
            de = d_E(base, close)
            if not de.hi < eps:
                failures.append({"f": to_payload(base), "g": to_payload(close),
                                 "gamma": _fr(g), "eps": str(eps),
                                 "delta": str(delta), "d_E": _ivp(de)})
        else:
            misses += 1
    return _result("metrics", "rho1-to-dE-continuity", trials, failures,
                   hypothesis_hits=hits, hypothesis_misses=misses, gammas=_frac_list(gammas))


def check_dE_to_sup_continuity(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 100) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(1, 10), Fraction(1, 1000))
    hits = 0
    misses = 0
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        eps = epss[t % 2]
        _, delta = continuity_delta_dE(g, eps)
        j, _ = tailmath.zeta_index(1, 1, delta / 2, f"an agreement index for delta={delta}", shift=2)
        base = random_binary_stream(rng)
        tail = random_binary_stream(rng)
        close = EventuallyPeriodic(base.prefix(j + 1) + tail.preamble, tail.period)
        de = d_E(base, close)
        if de.hi < delta:
            hits += 1
            sup = rho_p(SeriesFn(base, g), SeriesFn(close, g),
                        LpSpec(math.inf, g), tol=eps / 8)
            if not sup.hi < eps:
                failures.append({"f": to_payload(base), "g": to_payload(close),
                                 "gamma": _fr(g), "eps": str(eps),
                                 "delta": str(delta), "rho_inf": _ivp(sup)})
        else:
            misses += 1
    return _result("metrics", "dE-to-sup-continuity", trials, failures,
                   hypothesis_hits=hits, hypothesis_misses=misses, gammas=_frac_list(gammas))


def run_metrics(cfg: VerifyConfig) -> List[CheckResult]:
    gammas = cfg.gamma_list(_CORE_GAMMAS)
    ks = range(_DE_K_MAX + 1)
    de = prefix_implications((-1, 0, 1), _DE_PRE_MAX, _DE_PER_MAX, de_upper_ks=ks, de_lower_ks=ks)
    return [
        check_metric_axioms(gammas, cfg.seed, cfg.trial_count(60)),
        check_lp_norm_comparison(gammas, cfg.seed, cfg.trial_count(200)),
        check_de_prefix_upper(de),
        check_de_prefix_lower(de),
        check_sup_prefix_upper((Fraction(0), Fraction(1)), gammas),
        check_sup_prefix_upper_general(gammas=gammas),
        check_l1_prefix_separation(gammas),
        check_rho1_to_dE_continuity(gammas, cfg.seed, cfg.trial_count(100)),
        check_dE_to_sup_continuity(gammas, cfg.seed, cfg.trial_count(100)),
    ]


# ---------------------------------------------------------------------------
# conjugacy suite

_ISO_WIDTH = Fraction(1, 10**12)


def check_commuting_squares(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 500,
                            window: int = 128) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        a = random_binary_stream(rng, 8, 6)
        partner = random_binary_stream(rng, 8, 6)
        rep = check_commuting_square(a, g, window=window, partner=partner)
        ok = (rep.passed
              and rep.isometry_d_E.width < _ISO_WIDTH
              and rep.isometry_weighted.width < _ISO_WIDTH)
        if not ok:
            failures.append({
                "stream": to_payload(a), "partner": to_payload(partner),
                "gamma": _fr(g), "mismatches": list(rep.mismatches),
                "tail_matches": rep.tail_matches,
            })
    return _result("conjugacy", "shift-square-commutes", trials, failures,
                   window=window, gammas=_frac_list(gammas))


def check_shift_metric_isometry(seed: int = 0, trials: int = 200) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    tol = Fraction(1, 10**13)
    for _ in range(trials):
        a = random_binary_stream(rng, 8, 6)
        b = random_binary_stream(rng, 8, 6)
        de = d_E(a, b, tol)
        wm = weighted_product_metric(a, b, FACTORIAL_WEIGHTS, tol)
        ok = (de.intersects(wm)
              and de.width < _ISO_WIDTH and wm.width < _ISO_WIDTH)
        if not ok:
            failures.append({"a": to_payload(a), "b": to_payload(b),
                             "d_E": _ivp(de), "weighted": _ivp(wm)})
    return _result("conjugacy", "shift-metric-isometry", trials, failures,
                   width_bound=str(_ISO_WIDTH))


_OFFSETS = (Fraction(1, 4), Fraction(-1, 4), Fraction(1, 2), Fraction(1),
            Fraction(-3, 2), Fraction(5, 4))


def check_translation_isometry_suite(gammas=_CORE_GAMMAS, seed: int = 0,
                                     trials: int = 50) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    ps = (Fraction(1), Fraction(2), math.inf)
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        spec = LpSpec(ps[t % 3], g)
        alphabet = random_alphabet(rng)
        f = SeriesFn(random_stream(rng, alphabet, 4, 3), g)
        other = SeriesFn(random_stream(rng, alphabet, 4, 3), g)
        a = _OFFSETS[t % len(_OFFSETS)]
        rep = check_translation_isometry(f, other, a, spec, tol=Fraction(1, 10**6))
        round_trip = (untranslate(translate(f, a), a) == f
                      and translate(untranslate(f, a), a) == f)
        if not (rep.passed and round_trip):
            failures.append({
                "f": to_payload(f), "g": to_payload(other), "offset": str(a),
                "p": str(spec.p), "gamma": _fr(g),
                "rho_before": _ivp(rep.rho_before), "rho_after": _ivp(rep.rho_after),
                "derivative_commutes": rep.derivative_commutes,
                "round_trip": round_trip,
            })
    return _result("conjugacy", "translation-isometry", trials, failures,
                   gammas=_frac_list(gammas))


def check_no_isolated_points(gammas=_CORE_GAMMAS, seed: int = 0,
                             trials: int = 100) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    deltas = (Fraction(1, 100), Fraction(1, 10000))
    ps = (Fraction(1), Fraction(2), math.inf)
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        delta = deltas[t % 2]
        spec = LpSpec(ps[t % 3], g)
        a = random_binary_stream(rng, 6, 4)
        rep = nearby_distinct_point(a, delta, spec)
        ok = (rep.passed
              and not same_stream(rep.flipped, a)
              and rep.flipped.in_EF(BINARY))
        if not ok:
            failures.append({
                "stream": to_payload(a), "gamma": _fr(g), "p": str(spec.p),
                "delta": str(delta), "index": rep.index, "rho": _ivp(rep.rho),
            })
    return _result("conjugacy", "no-isolated-points", trials, failures,
                   deltas=_frac_list(deltas), gammas=_frac_list(gammas))


def run_conjugacy(cfg: VerifyConfig) -> List[CheckResult]:
    gammas = cfg.gamma_list(_CORE_GAMMAS)
    return [
        check_commuting_squares(gammas, cfg.seed, cfg.trial_count(500)),
        check_shift_metric_isometry(cfg.seed, cfg.trial_count(200)),
        check_translation_isometry_suite(gammas, cfg.seed, cfg.trial_count(50)),
        check_no_isolated_points(gammas, cfg.seed, cfg.trial_count(100)),
    ]


# ---------------------------------------------------------------------------
# constructions suite

# the exponents the construction checks cycle through, trial by trial;
# each check takes others as ps (the paper's results hold for 1 <= p <= inf)
_PS = (Fraction(1), Fraction(2), math.inf)


def check_periodic_density(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 100,
                           ps=_PS) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(3, 10), Fraction(1, 20))
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        spec = LpSpec(ps[t % len(ps)], g)
        eps = epss[t % 2]
        alphabet = random_alphabet(rng)
        f = random_stream(rng, alphabet)
        approx = periodic_approx_in_EF(f, alphabet, g, spec, eps)
        n = agreement_index(spec, alphabet.diameter, g, eps)
        rho = rho_p(SeriesFn(f, g), SeriesFn(approx, g), spec, tol=eps / 16)
        ok = (approx.is_pure_periodic
              and approx.shifted(n + 1) == approx
              and rho.hi < eps)
        if not ok:
            failures.append({
                "f": to_payload(f), "alphabet": _frac_list(alphabet.values),
                "gamma": _fr(g), "p": str(spec.p), "eps": str(eps),
                "approx": to_payload(approx), "rho": _ivp(rho),
            })
    return _result("constructions", "periodic-density", trials, failures,
                   gammas=_frac_list(gammas))


def check_transitivity(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 100,
                       ps=_PS) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(1, 2), Fraction(1, 5))
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        spec = LpSpec(ps[t % len(ps)], g)
        eps_u = epss[t % 2]
        eps_v = epss[(t + 1) % 2]
        alphabet = random_alphabet(rng)
        u = random_stream(rng, alphabet)
        v = random_stream(rng, alphabet)
        h, n = transitivity_witness(u, v, eps_u, eps_v, alphabet, g, spec)
        rho_u = rho_p(SeriesFn(u, g), SeriesFn(h, g), spec, tol=eps_u / 16)
        rho_v = rho_p(SeriesFn(v, g), SeriesFn(h.shifted(n), g), spec, tol=eps_v / 16)
        if not (rho_u.hi < eps_u and rho_v.hi < eps_v):
            failures.append({
                "u": to_payload(u), "v": to_payload(v),
                "alphabet": _frac_list(alphabet.values), "gamma": _fr(g),
                "p": str(spec.p), "eps_u": str(eps_u), "eps_v": str(eps_v),
                "h": to_payload(h), "n": n,
                "rho_u": _ivp(rho_u), "rho_v": _ivp(rho_v),
            })
    return _result("constructions", "transitivity-witness", trials, failures,
                   gammas=_frac_list(gammas))


def check_orbit_index(gammas=(Fraction(1, 2), Fraction(1)), seed: int = 0,
                      trials: int = 100, ps=_PS) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(2), Fraction(1, 2))
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        spec = LpSpec(ps[t % len(ps)], g)
        eps = epss[t % 2]
        alphabet = random_alphabet(rng, max_size=3)
        b = dense_orbit_point(alphabet)
        target = random_stream(rng, alphabet)
        l = orbit_search(b, target, alphabet, g, spec, eps)
        n = agreement_index(spec, alphabet.diameter, g, eps)
        prefix_ok = all(b.coeff(l + i) == target.coeff(i) for i in range(n + 1))
        rho = rho_p(SeriesFn(b.shifted(l), g), SeriesFn(target, g), spec, tol=eps / 16)
        if not (prefix_ok and rho.hi < eps):
            failures.append({
                "target": to_payload(target), "alphabet": _frac_list(alphabet.values),
                "gamma": _fr(g), "p": str(spec.p), "eps": str(eps),
                "index": l, "rho": _ivp(rho),
            })
    return _result("constructions", "orbit-index", trials, failures, gammas=_frac_list(gammas))


def check_two_value_augment(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 100) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(1), Fraction(3, 10))
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        eps = epss[t % 2]
        poly = FiniteSupport(()) if t % 10 == 0 else random_polynomial(rng, 5)
        fixed = ensure_two_coeff_values(poly, eps)
        if fixed is poly or fixed == poly:
            dist_ok = True
        else:
            spec = LpSpec(math.inf, g)
            rho = rho_p(SeriesFn(poly, g), SeriesFn(fixed, g), spec, tol=eps / 16)
            dist_ok = rho.hi < eps
        if not (len(coefficient_alphabet(fixed)) >= 2 and dist_ok):
            failures.append({"poly": _frac_list(poly.preamble), "eps": str(eps),
                             "fixed": _frac_list(fixed.preamble)})
    return _result("constructions", "two-value-augment", trials, failures)


def check_polynomial_membership(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 50,
                                ps=_PS) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(1, 10), Fraction(1, 100))
    done = 0
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        spec = LpSpec(ps[t % len(ps)], g)
        poly = FiniteSupport(()) if t % 10 == 0 else random_polynomial(rng, 6)
        for eps in epss:
            done += 1
            alphabet, member = ef_approximation(poly, g, spec, eps)
            in_family = member.in_EF(alphabet)
            if member == poly:
                close = True
                rho = None
            else:
                rho = rho_p(SeriesFn(poly, g), SeriesFn(member, g), spec, tol=eps / 16)
                close = rho.hi < eps
            if not (in_family and close and len(alphabet) >= 2):
                failures.append({
                    "poly": _frac_list(poly.preamble), "gamma": _fr(g),
                    "p": str(spec.p), "eps": str(eps),
                    "alphabet": _frac_list(alphabet.values),
                    "rho": None if rho is None else _ivp(rho),
                })
    return _result("constructions", "polynomial-membership", done, failures,
                   gammas=_frac_list(gammas))


def check_filtration_nesting(gammas=_CORE_GAMMAS, seed: int = 0, steps: int = 10) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    trials = 0
    g = as_fraction(gammas[0])
    spec = LpSpec(math.inf, g)
    polys = [random_polynomial(rng, 4) for _ in range(steps)]
    polys[0] = FiniteSupport(())  # force at least one augmentation
    chain = filtration(polys)
    previous = None
    for step, poly in zip(chain, polys):
        trials += 1
        nested = previous is None or set(previous.values) <= set(step.alphabet.values)
        previous = step.alphabet
        member_fn = SeriesFn(step.member, g)
        if step.member == poly:
            close = True
        else:
            rho = rho_p(SeriesFn(poly, g), member_fn, spec,
                        tol=Fraction(1, 16 * step.index))
            close = rho.hi < Fraction(1, step.index)
        in_family = step.member.in_EF(step.alphabet)
        if not (nested and close and in_family and len(step.alphabet) >= 2):
            failures.append({
                "step": step.index, "alphabet": _frac_list(step.alphabet.values),
                "poly": _frac_list(poly.preamble),
            })
    return _result("constructions", "filtration-nesting", trials, failures,
                   steps=steps, gamma=_fr(g))


def check_periodic_point_smooth(gammas=_CORE_GAMMAS, seed: int = 0, trials: int = 50,
                                ps=_PS) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    epss = (Fraction(1, 10), Fraction(1, 100))
    done = 0
    for t in range(trials):
        g = as_fraction(gammas[t % len(gammas)])
        spec = LpSpec(ps[t % len(ps)], g)
        poly = random_polynomial(rng, 5, nonzero=True)
        for eps in epss:
            done += 1
            point = periodic_point_in_cinf(poly, g, spec, eps)
            rho = rho_p(SeriesFn(poly, g), SeriesFn(point, g), spec, tol=eps / 32)
            ok = (point.is_pure_periodic
                  and point.shifted(len(point.period)) == point
                  and rho.hi < eps / 2)
            if not ok:
                failures.append({
                    "poly": _frac_list(poly.preamble), "gamma": _fr(g),
                    "p": str(spec.p), "eps": str(eps),
                    "point": to_payload(point), "rho": _ivp(rho),
                })
    return _result("constructions", "periodic-point-smooth", done, failures,
                   gammas=_frac_list(gammas))


_BETAS = (Fraction(1), Fraction(10), Fraction(10**4))
_SENS_EPSS = (Fraction(1, 2), Fraction(1, 100))
_SENS_GAMMAS = (Fraction(1), Fraction(2))


def check_sensitivity(gammas=_SENS_GAMMAS, seed: int = 0, random_targets: int = 20) -> CheckResult:
    rng = make_rng(seed)
    failures: List[dict] = []
    trials = 0
    targets = [FiniteSupport(())]
    targets += [random_polynomial(rng, 5) for _ in range(random_targets)]
    for g in gammas:
        g = as_fraction(g)
        for target in targets:
            fn = SeriesFn(target, g)
            for beta in _BETAS:
                for eps in _SENS_EPSS:
                    trials += 1
                    witness = sensitivity_witness(fn, beta, eps)
                    close, far = witness.certificates
                    if not (close.hi < eps and far.lo > beta and witness.n >= 1):
                        failures.append({
                            "f": to_payload(target), "gamma": _fr(g),
                            "beta": str(beta), "eps": str(eps),
                            "n": witness.n, "close": _ivp(close), "far": _ivp(far),
                        })
    # the caller-asserted unbounded-derivative branch must refuse
    trials += 1
    try:
        sensitivity_witness(SeriesFn(FiniteSupport(()), as_fraction(gammas[0])),
                            Fraction(1), Fraction(1), unbounded_derivatives=True)
        failures.append({"kind": "unbounded-branch-accepted"})
    except DomainError:
        pass
    return _result("constructions", "sensitivity-witness", trials, failures,
                   betas=_frac_list(_BETAS),
                   epss=_frac_list(_SENS_EPSS), gammas=_frac_list(gammas))


def run_constructions(cfg: VerifyConfig) -> List[CheckResult]:
    gammas = cfg.gamma_list(_CORE_GAMMAS)
    return [
        check_periodic_density(gammas, cfg.seed, cfg.trial_count(100)),
        check_transitivity(gammas, cfg.seed, cfg.trial_count(100)),
        check_orbit_index(cfg.gamma_list((Fraction(1, 2), Fraction(1))),
                          cfg.seed, cfg.trial_count(100)),
        check_two_value_augment(gammas, cfg.seed, cfg.trial_count(100)),
        check_polynomial_membership(gammas, cfg.seed, cfg.trial_count(50)),
        check_filtration_nesting(gammas, cfg.seed, min(cfg.trial_count(10), 20)),
        check_periodic_point_smooth(gammas, cfg.seed, cfg.trial_count(50)),
        check_sensitivity(cfg.gamma_list(_SENS_GAMMAS), cfg.seed,
                          min(cfg.trial_count(20), 40)),
    ]


# ---------------------------------------------------------------------------
# suite registry

SUITES = {
    "tailmath": run_tailmath,
    "coeffspace": run_coeffspace,
    "metrics": run_metrics,
    "conjugacy": run_conjugacy,
    "constructions": run_constructions,
}


def run_suites(names: Sequence[str], cfg: VerifyConfig) -> List[CheckResult]:
    results: List[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ConfigError(
                f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))} or all"
            )
        results.extend(SUITES[name](cfg))
    return results
