"""Spans and counters recorded around calls into chaoslab, from outside it.

Nothing here edits the package: a public function is replaced, for the
length of one pass, by a wrapper in every chaoslab module namespace that
holds it (``chaoslab.metrics.rho_p``, ``chaoslab.verify.rho_p``, ...), and
put back afterwards.  Each wrapped call becomes a span (name, start, end,
parent, item id) kept in flat arrays; self time is the span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import gzip
import importlib
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


def chaoslab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "chaoslab" or name.startswith("chaoslab."))]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        old = owner.__dict__[name]
        self._undo.append(lambda: setattr(owner, name, old))
        setattr(owner, name, value)

    def set_item(self, mapping, key, value):
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def replace_everywhere(self, old, new):
        """Rebind every chaoslab module attribute that is `old` to `new`."""
        hits = 0
        for mod in chaoslab_modules():
            for name, value in list(vars(mod).items()):
                if value is old:
                    self.set(mod, name, new)
                    hits += 1
        if not hits:
            raise LookupError(f"{old!r} is bound in no chaoslab module")

    def undo(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.undo()


def clear_caches():
    """Empty every lru_cache in the package, as a fresh process has them."""
    for mod in chaoslab_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _rho_branch(args, kwargs):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    if spec.is_sup:
        return "metrics.rho_p.sup"
    return "metrics.rho_p.int" if spec.p.denominator == 1 else "metrics.rho_p.frac"


# (module, attribute, span name); a callable name picks it per call
SPANS = (
    ("metrics", "rho_p", _rho_branch),
    ("metrics", "rho_1_lower_bound", "metrics.rho_1_lower_bound"),
    ("metrics", "d_E", "metrics.d_E"),
    ("metrics", "d_lambda", "metrics.d_lambda"),
    ("metrics", "holder_compare", "metrics.holder_compare"),
    ("sampling", "difference_streams", "sampling.difference_streams"),
    ("coeffspace", "same_stream", "coeffspace.same_stream"),
    ("coeffspace", "evaluate", "coeffspace.evaluate"),
    ("tailmath", "zeta", "tailmath.zeta"),
    ("tailmath", "eta", "tailmath.eta"),
    ("tailmath", "_tail_sum", "tailmath.tail"),
    ("intervals", "power", "intervals.power"),
    ("conjugacy", "check_commuting_square", "conjugacy.check_commuting_square"),
    ("conjugacy", "check_translation_isometry", "conjugacy.check_translation_isometry"),
    ("conjugacy", "nearby_distinct_point", "conjugacy.nearby_distinct_point"),
    ("constructions", "sensitivity_witness", "constructions.sensitivity_witness"),
    ("constructions", "periodic_approx_in_EF", "constructions.periodic_approx_in_EF"),
    ("constructions", "transitivity_witness", "constructions.transitivity_witness"),
    ("constructions", "orbit_search", "constructions.orbit_search"),
    ("constructions", "periodic_point_in_cinf", "constructions.periodic_point_in_cinf"),
    ("verify", "run_suites", "verify.run_suites"),
    ("cli", "main", "cli"),
)

# (module, class) whose instances are counted as they are built
CREATED = (("intervals", "BoundInterval"), ("coeffspace", "EventuallyPeriodic"))

# spans reported as calls, self time and share of the traced wall time
LAYER_SPANS = (
    "metrics.rho_p.frac", "metrics.rho_p.sup", "metrics.rho_p.int",
    "metrics.rho_1_lower_bound", "metrics.d_E", "metrics.d_lambda",
    "metrics.holder_compare", "coeffspace.same_stream", "coeffspace.evaluate",
    "intervals.power",
    "conjugacy.check_commuting_square", "conjugacy.check_translation_isometry",
    "conjugacy.nearby_distinct_point",
    "constructions.sensitivity_witness", "constructions.periodic_approx_in_EF",
    "constructions.transitivity_witness", "constructions.orbit_search",
    "constructions.periodic_point_in_cinf",
)
SUITE_NAMES = ("tailmath", "coeffspace", "metrics", "conjugacy", "constructions")


UNITS = (  # metric-name suffix -> unit
    (".calls", "count"), (".streams", "count"), (".created", "count"), (".lookups", "count"),
    (".self_s", "s"), (".wall_s", "s"), (".share", "ratio"), (".hit_ratio", "ratio"),
    ("items_per_s", "1/s"), (".overhead_ratio", "ratio"),
)


def unit_of(name):
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


class Tracer:
    """In-memory spans, per-name self/total time, call and build counts."""

    def __init__(self, tally):
        self.tally = tally
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.created = Counter()
        self.streams = 0
        self._names = {}
        self._name = array.array("H")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("i")
        self._item = array.array("i")
        self._stack = []  # [span id, seconds covered by children]

    def wrap(self, fn, name):
        pick = name if callable(name) else None
        ids = self._names
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, items = self._parent, self._item
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        tally = self.tally

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = pick(args, kwargs) if pick else name
            span = len(starts)
            names.append(ids.setdefault(label, len(ids)))
            parents.append(stack[-1][0] if stack else -1)
            items.append(tally.current)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[span] = end
                took = end - start
                calls[label] += 1
                total_s[label] += took
                self_s[label] += took - frame[1]
                if stack:
                    stack[-1][1] += took
        return traced

    def install(self, patches):
        module = functools.partial(importlib.import_module, package="chaoslab")
        for mod, attr, name in SPANS:
            current = getattr(module(f".{mod}"), attr)
            patches.replace_everywhere(current, self.wrap(current, name))
        suites = module(".verify").SUITES
        for suite, runner in list(suites.items()):
            patches.set_item(suites, suite, self.wrap(runner, f"verify.{suite}"))
        for mod, cls_name in CREATED:
            cls = getattr(module(f".{mod}"), cls_name)
            patches.set(cls, "__post_init__", self._counting(cls.__post_init__, f"{mod}.{cls_name}"))
        streams = module(".sampling").difference_streams

        def counted_family(*args, **kwargs):
            family = streams(*args, **kwargs)
            self.streams += len(family)
            return family
        patches.replace_everywhere(streams, counted_family)

    def _counting(self, init, key):
        created = self.created

        def counted(obj):
            created[key] += 1
            init(obj)
        return counted

    def layer_metrics(self, wall_s, tail_cache):
        """Per-layer values for one traced pass lasting wall_s seconds."""
        out = {}

        def span_times(name, with_calls):
            if with_calls:
                out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.share"] = self.self_s[name] / wall_s

        for name in LAYER_SPANS:
            span_times(name, True)
        for name in ("sampling.difference_streams", "tailmath.tail", "cli"):
            span_times(name, False)
        out["sampling.difference_streams.streams"] = self.streams
        out["tailmath.zeta.calls"] = self.calls["tailmath.zeta"]
        out["tailmath.eta.calls"] = self.calls["tailmath.eta"]
        lookups = tail_cache.hits + tail_cache.misses
        out["tailmath.tail_cache.hit_ratio"] = tail_cache.hits / lookups if lookups else 0.0
        out["tailmath.tail_cache.lookups"] = lookups
        for mod, cls in CREATED:
            out[f"{mod}.{cls}.created"] = self.created[f"{mod}.{cls}"]
        for suite in SUITE_NAMES:
            out[f"verify.{suite}.wall_s"] = self.total_s[f"verify.{suite}"]
        out["trace.wall_s"] = wall_s
        return out

    def write_spans(self, path: Path):
        """Dump every span as tab-separated text: id, name, start, end, parent, item."""
        names = {i: n for n, i in self._names.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\titem\n")
            t0 = self._start[0] if self._start else 0.0
            for i in range(len(self._start)):
                out.write(f"{i}\t{names[self._name[i]]}\t{self._start[i] - t0:.9f}\t"
                          f"{self._end[i] - t0:.9f}\t{self._parent[i]}\t{self._item[i]}\n")
        return len(self._start)
