"""The three benchmark workloads and their correctness gates.

Each workload is built once from the seed (set-up) and then runs whole
passes.  A pass records one entry per item in a Tally: its latency,
whether it succeeded, and what went wrong if not.  Every call into
chaoslab goes through a module attribute (``metrics.rho_p``, not a name
imported here), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

import mpmath

from chaoslab import cli, metrics, sampling, tailmath, verify
from chaoslab.coeffspace import EventuallyPeriodic, FiniteSupport, SeriesFn
from chaoslab.metrics import LpSpec

from tracing import Patches

GAMMAS = (Fraction(1, 2), Fraction(1), Fraction(2))
ZERO = FiniteSupport(())


class Tally:
    """Per-item outcomes of one or more passes."""

    def __init__(self):
        self.spans = []  # per item, the (start, end) perf_counter stamps it ran in
        self.failed = 0
        self.failures = Counter()
        self.unexpected = []
        self.violations = []
        self.width_ratios = []
        self.hits = Counter()
        self.current = 0  # id of the item in progress, for spans; -1 before the first

    @property
    def attempted(self):
        return len(self.spans)

    def item(self, spans, ok=True):
        self.spans.append(spans)
        self.current = len(self.spans)
        if not ok:
            self.failed += 1

    def latencies(self, seconds):
        """Each item's time, with `seconds(start, end)` measuring one span."""
        return [sum(seconds(a, b) for a, b in spans) for spans in self.spans]

    def width(self, width, tol):
        self.width_ratios.append(float(width / tol))

    def violation(self, what):
        self.violations.append(what)


def _scaled(s, c):
    if c == 1 or s is ZERO:
        return s
    return EventuallyPeriodic(tuple(c * v for v in s.preamble), tuple(c * v for v in s.period))


def _mpf_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


class LpGrid:
    """Closed loop of rho_p calls over p x gamma x tol.

    Inputs: a panel of 24 stream pairs drawn once from `sampling` (panel
    seed 0), every fourth of them scaled by 1e-8, and the closed-form
    anchor ones-vs-zero at c in {1e-8, 1, 1e8, 1e400}.  Every input runs
    the whole grid with tol scaled by |c|.  The workload seed picks each
    pair's sign and orientation and the order of the inputs.  The panel is
    fixed because one pair's grid costs anywhere from 0.07 to 1.2 s, so
    freshly drawn pairs moved the median call time by 18-44% from seed to
    seed.  The 1e8 and 1e400 slices run on the anchor for the same reason:
    a drawn pair at 1e8 costs 1.9-11 s, and at 1e400 some pairs take 20 s
    per call at p = 3.  Fractional p at c = 1e400 raises today; those calls
    are the known-defect class, counted as failed items.  24 pairs keep a
    pass near 25 s; with 16 the tail call fell in a sparse run of 0.25-0.5 s
    items and its quartile spread over seeds rose to 6-20%.
    """

    name = "lp-grid"
    nominal_pass_s = 24.0
    PS = (Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2), math.inf)
    TOLS = (Fraction(1, 10**4), Fraction(1, 10**6))
    PANEL_SEED, PAIRS = 0, 24
    SMALL, LARGE, HUGE = Fraction(1, 10**8), Fraction(10**8), Fraction(10**400)

    def __init__(self, seed, passes):
        rng = sampling.make_rng(self.PANEL_SEED)
        panel = []
        for _ in range(self.PAIRS):
            alphabet = sampling.random_alphabet(rng)
            panel.append((sampling.random_stream(rng, alphabet), sampling.random_stream(rng, alphabet)))
        self.inputs = [self._pass_inputs(panel, random.Random(f"lp-grid/{seed}/{i}"))
                       for i in range(passes)]
        self.anchors = {}
        with mpmath.workdps(50):
            for p in self.PS:
                for g in GAMMAS:
                    gm = mpmath.mpf(g.numerator) / g.denominator
                    if p == math.inf:
                        value = mpmath.exp(gm)
                    else:
                        pm = mpmath.mpf(p.numerator) / p.denominator
                        value = ((mpmath.exp(pm * gm) - 1) / pm) ** (1 / pm)
                    self.anchors[(p, g)] = _mpf_fraction(value)

    def _pass_inputs(self, panel, rng):
        inputs = []
        for i, (a, b) in enumerate(panel):
            if rng.random() < 0.5:
                a, b = b, a
            c = (self.SMALL if i % 4 == 3 else Fraction(1)) * rng.choice((1, -1))
            inputs.append((f"pair{i}", a, b, c, False))
        ones = EventuallyPeriodic((), (Fraction(1),))
        for c, label in ((self.SMALL, "1e-8"), (Fraction(1), "1"), (self.LARGE, "1e8"), (self.HUGE, "1e400")):
            inputs.append((f"anchor-c{label}", ones, ZERO, c, True))
        rng.shuffle(inputs)
        return inputs

    def known_defect(self, c, p):
        return c == self.HUGE and p != math.inf and p.denominator != 1

    def run_pass(self, index, tally):
        for label, a, b, c, anchor in self.inputs[index]:
            a, b = _scaled(a, c), _scaled(b, c)
            for p in self.PS:
                for g in GAMMAS:
                    spec = LpSpec(p, g)
                    got = {}
                    for tol in self.TOLS:
                        tolc = tol * abs(c)
                        start = perf_counter()
                        try:
                            rho = metrics.rho_p(SeriesFn(a, g), SeriesFn(b, g), spec, tolc)
                        except Exception as exc:  # every raise is a failed item
                            tally.item(((start, perf_counter()),), ok=False)
                            kind = f"{type(exc).__name__} at {label} p={p}"
                            tally.failures[kind] += 1
                            if not self.known_defect(c, p):
                                tally.unexpected.append(kind)
                            continue
                        end = perf_counter()
                        ok = rho.width <= tolc
                        if not ok:
                            tally.violation(f"width {float(rho.width / tolc):.3g} x tol at {label} p={p} g={g}")
                        if anchor and not rho.contains(c * self.anchors[(p, g)]):
                            ok = False
                            tally.violation(f"anchor value outside enclosure at {label} p={p} g={g}")
                        tally.item(((start, end),), ok)
                        tally.width(rho.width, tolc)
                        got[tol] = rho
                    if len(got) == 2 and not got[self.TOLS[0]].intersects(got[self.TOLS[1]]):
                        tally.violation(f"tol 1e-6 and 1e-4 enclosures disjoint at {label} p={p} g={g}")


class PrefixSweep:
    """Criterion 04's per-stream work over the {-2..2} difference family.

    The family is built inside the pass (program work).  Each stream gets
    d_E against zero and the small-d_E and agreement implications; streams
    whose first nonzero index is at least 2 also get rho_inf at tol 1e-4,
    with gamma cycling over (1/2, 1, 2) in family order as the criterion
    does.  The seed fixes the order in which streams are visited.
    """

    name = "prefix-sweep"
    nominal_pass_s = 22.0
    VALUES, PRE_MAX, PER_MAX = (-2, -1, 0, 1, 2), 5, 2
    DIAM = Fraction(2)
    RHO_KS = (1, 4, 8)
    TOL = Fraction(1, 10**4)

    def __init__(self, seed, passes):
        self.rngs = [random.Random(f"prefix-sweep/{seed}/{i}") for i in range(passes)]

    def run_pass(self, index, tally):
        tally.current = -1
        family = sampling.difference_streams(self.VALUES, self.PRE_MAX, self.PER_MAX)
        etas = [tailmath.eta(k + 2) for k in range(9)]
        inv_fact = [Fraction(1, math.factorial(k + 1)) for k in range(9)]
        zetas = {g: [tailmath.zeta(g, k + 1) for k in range(9)] for g in GAMMAS}
        gamma_of, rho_streams = [], 0
        for d in family:
            j0 = sampling.first_nonzero_index(d)
            gamma_of.append(GAMMAS[rho_streams % 3] if j0 is not None and j0 >= 2 else None)
            rho_streams += gamma_of[-1] is not None
        order = list(range(len(family)))
        self.rngs[index].shuffle(order)
        hits = Counter({"de-upper": 0, "de-lower": 0, "sup-upper": 0})
        tally.current = tally.attempted
        for i in order:
            d = family[i]
            start = perf_counter()
            try:
                bad = self._stream(d, gamma_of[i], etas, inv_fact, zetas, hits, tally)
            except Exception as exc:  # every raise is a failed item
                tally.failures[type(exc).__name__] += 1
                tally.unexpected.append(f"{type(exc).__name__} on stream {i}")
                bad = True
            tally.item(((start, perf_counter()),), ok=not bad)
        tally.hits.update(hits)
        for name, count in hits.items():
            if count == 0:
                tally.violation(f"no {name} hits")

    def _stream(self, d, gamma, etas, inv_fact, zetas, hits, tally):
        before = len(tally.violations)
        j0 = sampling.first_nonzero_index(d)
        de = metrics.d_E(d, ZERO)
        for k in range(9):
            if de.hi < inv_fact[k]:
                hits["de-lower"] += 1
                if j0 <= k:
                    tally.violation(("small-dE-but-early-disagreement", str(d), k))
        for k in range(min(j0, 9)):
            e = etas[k]
            hits["de-upper"] += 1
            if not de.hi <= self.DIAM * e.hi + de.width + self.DIAM * e.width:
                tally.violation(("agreement-dE-bound", str(d), k))
        if gamma is not None:
            rho = metrics.rho_p(SeriesFn(d, gamma), SeriesFn(ZERO, gamma), LpSpec(math.inf, gamma), self.TOL)
            tally.width(rho.width, self.TOL)
            if rho.width > self.TOL:
                tally.violation(("width-above-tol", str(d)))
            for k in self.RHO_KS:
                if k < j0:
                    z = zetas[gamma][k]
                    hits["sup-upper"] += 1
                    if not rho.hi <= self.DIAM * z.hi + rho.width + self.DIAM * z.width:
                        tally.violation(("agreement-sup-bound", str(d), str(gamma), k))
        return len(tally.violations) > before


class VerifyAll:
    """`chaos-lab verify --suite all --seed 0` in-process, stdout captured.

    One item is one property line; its latency is the time spent in the
    verify check function(s) that produced it.  rho_p calls made by the
    suites are observed for their width-to-tol ratio.

    The command is fixed and the workload seed is not used.  The verify
    seed changes what the properties compute (over verify seeds 10-16 the
    quartile spread was 7% for call_p50_ms and 19% for call_tail_ms, which
    with 30 items is the 20th, between sparse items of 0.25-0.6 s).  Running
    the suites in a seed-chosen order instead left a 10% spread in
    call_p50_ms, against 6% for the fixed order, as the order decides which
    suite warms the shared tail cache.  Seed 0 is the CLI default, and its
    stdout digest is compared with baseline.json on every run.
    """

    name = "verify-all"
    nominal_pass_s = 25.0
    LINES = 30

    def __init__(self, seed, passes):
        self.argv = ["verify", "--suite", "all", "--seed", "0"]
        self.digests = []

    def run_pass(self, index, tally):
        tally.current = -1
        spent = defaultdict(list)
        depth = [0]
        first_item = tally.attempted

        def timed(check):
            def wrapper(*args, **kwargs):
                if depth[0] == 0:
                    tally.current = first_item + len(spent)
                depth[0] += 1
                start = perf_counter()
                try:
                    result = check(*args, **kwargs)
                finally:
                    depth[0] -= 1
                if depth[0] == 0:
                    spent[(result.suite, result.name)].append((start, perf_counter()))
                return result
            return wrapper

        def observed(rho_p):
            def wrapper(*args, **kwargs):
                rho = rho_p(*args, **kwargs)
                tol = args[3] if len(args) > 3 else kwargs.get("tol", metrics.DEFAULT_TOL)
                tally.width(rho.width, Fraction(tol))
                return rho
            return wrapper

        out = io.StringIO()
        with Patches() as patches:
            for name, fn in list(vars(verify).items()):
                if name.startswith("check_") and getattr(fn, "__module__", "") == verify.__name__:
                    patches.set(verify, name, timed(fn))
            patches.replace_everywhere(metrics.rho_p, observed(metrics.rho_p))
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(self.argv)
            except Exception as exc:  # every raise fails every line
                tally.failures[type(exc).__name__] += 1
                tally.unexpected.append(f"{type(exc).__name__}: {exc}")
                for _ in range(self.LINES):
                    tally.item(((start, perf_counter()),), ok=False)
                return
        text = out.getvalue()
        self.digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        if code != 0:
            tally.violation(f"exit code {code}")
        lines = [json.loads(line) for line in text.splitlines()]
        for line in lines:
            ok = line["pass"] is True
            if not ok:
                tally.violation(f"{line['suite']}/{line['property']} did not pass")
            tally.item(spent[(line["suite"], line["property"])], ok)
        if len(lines) != self.LINES:
            tally.violation(f"{len(lines)} property lines, expected {self.LINES}")
            for _ in range(len(lines), self.LINES):
                tally.item((), ok=False)


WORKLOADS = {w.name: w for w in (LpGrid, PrefixSweep, VerifyAll)}
