"""Digests of a tree's certified output: every rho_p enclosure of one
lp-grid pass, the prefix-sweep family with its d_E enclosures, and the
stdout, the rho_p enclosures and the rho_1_lower_bound values of
`chaos-lab verify --suite all --seed 0`.

    python3 scripts/enclosure_digest.py TREE

TREE is a checkout, for instance a fresh `git archive <commit>` copy.  The
package is imported from TREE/src and the lp-grid workload from
TREE/perfbench.  One pass of that workload at seed 2 runs with every
`metrics.rho_p` call recorded in order: an enclosure as its exact
endpoints, a raise as its exception class.  The prefix digests hash
`sampling.difference_streams((-2, ..., 2), 5, 2)`, the prefix-sweep
family, stream by stream in order, and `metrics.d_E(d, 0)` of each.  The
verify run records every rho_p enclosure and every rho_1_lower_bound
value its suites make, in order, as the verify-all workload observes
them (a value v as the point enclosure "v v"); its stdout rounds them,
so two trees can print the same report from different enclosures.  Every
rational is written as hex numerator/denominator.  Prints one JSON line:

    {"lp_grid": {"enclosures": N, "failed": M, "sha256": "..."},
     "prefix": {"streams": S, "family_sha256": "...", "d_E_sha256": "..."},
     "verify_rho_p": {"enclosures": V, "sha256": "..."},
     "verify_rho_1_lower": {"enclosures": W, "sha256": "..."},
     "verify_sha256": "..."}

Two trees whose lines are equal computed the same rationals, and printed
the same verify report, bit for bit.

The lp-grid pass and the verify run each run once, and each inside
`counted()`, so the line also holds their census of L^p kernel work:

    "census": {"lp_grid": {"taylor": .., "crude": .., "root-taylor": ..,
                           "root-crude": .., "nonmonotone": .., "total": ..,
                           "int-split": .., "int-bracket": .., "roots": ..,
                           "models": .., "bernstein_hits": ..,
                           "bernstein_misses": .., "antiderivative_hits": ..,
                           "antiderivative_misses": ..}, "verify": {...}}

the fractional-p splits of every kind (`metrics.count_splits()`) and
their total; the odd-p sign partition's halved root panels (int-split)
and bracketed ones (int-bracket); `roots`, the `intervals._root` calls
made; `models`, the Taylor models the fractional-p kernel built (its
`metrics._power_taylor` calls); and the hits and misses of the exact
Bernstein builds (`metrics._bernstein`) and integer-p antiderivatives
(`metrics._antiderivative`).  The calls are counted by wrapping the
module attributes, which their callers look up at call time; the hits
and misses are read from the caches' own `cache_info()`.  A count whose
name the tree lacks, or whose function there is no cache, reads null.

    python3 scripts/enclosure_digest.py TREE --against PARENT_TREE

also records PARENT_TREE's enclosures (in a second process, run with
`--records`, which prints them as JSON) and adds to the line PARENT_TREE's
digests and, for each of the lp_grid, prefix d_E, verify_rho_p and
verify_rho_1_lower sections, how many calls both trees made, how many
raised on either side, how many enclosures moved, and of those how many
are narrower, wider, inside the parent's, or disjoint from it:

    "against": {"parent": {"lp_grid": .., "prefix": .., ...},
                "lp_grid": {"calls": [P, C], "moved": M, "narrower": ..,
                            "wider": .., "inside": .., "disjoint": ..,
                            "raise_changed": R}, ...,
                "census_changed": {"lp_grid": {field: [P, C], ...},
                                   "verify": {...}}}

Calls are compared in order; when the two trees made different numbers
of calls, the shorter run's calls are compared with the first ones of
the longer.  census_changed lists, per workload, only the census fields
whose counts differ (a field one tree lacks reads null there), so a
census that is level reads {"lp_grid": {}, "verify": {}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

LP_GRID_SEED = 2
PREFIX_FAMILY = ((-2, -1, 0, 1, 2), 5, 2)
KINDS = ("taylor", "crude", "root-taylor", "root-crude", "nonmonotone")
INT_KINDS = ("int-split", "int-bracket")
# (module, attribute, census field): each call of the attribute counts once
CALLS = (("intervals", "_root", "roots"), ("metrics", "_power_taylor", "models"))
# (metrics lru_cache, census field): its hits and misses inside the block
CACHES = (("_bernstein", "bernstein"), ("_antiderivative", "antiderivative"))


def _hex(q) -> str:
    # hex: no int-to-str digit limit, and the rational stays exact
    return f"{q.numerator:x}/{q.denominator:x}"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _summary(lines) -> dict:
    failed = sum(line.startswith("raise ") for line in lines)
    return {"enclosures": len(lines) - failed, "failed": failed, "sha256": _sha256(lines)}


def lp_grid_records(metrics, workloads) -> list:
    lines = []
    rho_p = metrics.rho_p

    def recorded(*args, **kwargs):
        try:
            rho = rho_p(*args, **kwargs)
        except Exception as exc:
            lines.append(f"raise {type(exc).__name__}")
            raise
        lines.append(f"{_hex(rho.lo)} {_hex(rho.hi)}")
        return rho

    metrics.rho_p = recorded
    try:
        workloads.LpGrid(LP_GRID_SEED, 1).run_pass(0, workloads.Tally())
    finally:
        metrics.rho_p = rho_p
    return lines


def prefix_records(coeffspace, metrics, sampling) -> tuple:
    """(streams, d_E enclosures) of the prefix-sweep family, as lines."""
    family = sampling.difference_streams(*PREFIX_FAMILY)
    zero = coeffspace.FiniteSupport(())
    streams = [" ".join(map(_hex, d.preamble)) + " | " + " ".join(map(_hex, d.period))
               for d in family]
    enclosures = []
    for d in family:
        de = metrics.d_E(d, zero)
        enclosures.append(f"{_hex(de.lo)} {_hex(de.hi)}")
    return streams, enclosures


def _prefix_summary(streams, enclosures) -> dict:
    return {"streams": len(streams), "family_sha256": _sha256(streams),
            "d_E_sha256": _sha256(enclosures)}


def prefix_digest(coeffspace, metrics, sampling) -> dict:
    return _prefix_summary(*prefix_records(coeffspace, metrics, sampling))


def verify_records(cli, metrics, tracing) -> tuple:
    """(rho_p enclosures as lines, rho_1_lower_bound values as point
    lines, stdout, exit code) of the verify run."""
    lines, lower = [], []
    rho_p, rho_1_lower_bound = metrics.rho_p, metrics.rho_1_lower_bound

    def recorded(*args, **kwargs):
        rho = rho_p(*args, **kwargs)
        lines.append(f"{_hex(rho.lo)} {_hex(rho.hi)}")
        return rho

    def recorded_lower(*args, **kwargs):
        v = rho_1_lower_bound(*args, **kwargs)
        lower.append(f"{_hex(v)} {_hex(v)}")
        return v

    out = io.StringIO()
    with tracing.Patches() as patches, contextlib.redirect_stdout(out):
        patches.replace_everywhere(rho_p, recorded)
        patches.replace_everywhere(rho_1_lower_bound, recorded_lower)
        code = cli.main(["verify", "--suite", "all", "--seed", "0"])
    return lines, lower, out.getvalue(), code


@contextlib.contextmanager
def counted(intervals, metrics, tracing):
    """Yields a dict that holds, once the block exits, the census of the
    L^p kernel work inside it; a count whose name the tree lacks is None.
    The package's caches are emptied first, as a fresh process has them,
    so the census does not depend on what ran before the block."""
    tracing.clear_caches()
    modules = {"intervals": intervals, "metrics": metrics}
    calls = {}
    census = {}
    splits = metrics.count_splits() if hasattr(metrics, "count_splits") else contextlib.nullcontext()
    with tracing.Patches() as patches, splits as kinds:
        for module, name, field in CALLS:
            if name in vars(modules[module]):
                calls[field] = 0
                patches.set(modules[module], name, _counting(calls, field, getattr(modules[module], name)))
        yield census
    if kinds is not None:
        kinds["total"] = sum(kinds[k] for k in KINDS)
    census.update({k: None if kinds is None else kinds[k] for k in (*KINDS, "total", *INT_KINDS)})
    census.update({field: calls.get(field) for _, _, field in CALLS})
    for name, field in CACHES:
        info = getattr(getattr(metrics, name, None), "cache_info", None)
        info = None if info is None else info()
        census[f"{field}_hits"] = None if info is None else info.hits
        census[f"{field}_misses"] = None if info is None else info.misses


def _counting(calls: dict, field: str, f):
    def call(*args):
        calls[field] += 1
        return f(*args)
    return call


def records(tree: Path) -> dict:
    """Every section's lines for the tree, imported from it."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from chaoslab import cli, coeffspace, intervals, metrics, sampling
    import tracing
    import workloads

    if not Path(metrics.__file__).resolve().is_relative_to(tree):
        sys.exit(f"enclosure_digest: chaoslab was imported from {metrics.__file__}, not {tree}")
    with counted(intervals, metrics, tracing) as verify_census:
        verify_rho_p, verify_rho_1_lower, stdout, _ = verify_records(cli, metrics, tracing)
    streams, d_E = prefix_records(coeffspace, metrics, sampling)
    with counted(intervals, metrics, tracing) as lp_grid_census:
        lp_grid = lp_grid_records(metrics, workloads)
    return {"lp_grid": lp_grid, "prefix_streams": streams,
            "prefix": d_E, "verify_rho_p": verify_rho_p, "verify_rho_1_lower": verify_rho_1_lower,
            "verify_stdout": stdout, "census": {"lp_grid": lp_grid_census, "verify": verify_census}}


def digests(rec: dict) -> dict:
    return {"lp_grid": _summary(rec["lp_grid"]),
            "prefix": _prefix_summary(rec["prefix_streams"], rec["prefix"]),
            **{section: {"enclosures": len(rec[section]), "sha256": _sha256(rec[section])}
               for section in ("verify_rho_p", "verify_rho_1_lower")},
            "verify_sha256": hashlib.sha256(rec["verify_stdout"].encode("utf-8")).hexdigest(),
            "census": rec["census"]}


def _enclosure(line: str):
    if line.startswith("raise "):
        return None
    return tuple(Fraction(int(n, 16), int(d, 16))
                 for n, d in (end.split("/") for end in line.split()))


def compare(parent: list, change: list) -> dict:
    """How the change's enclosures moved against the parent's, call by call."""
    out = {"calls": [len(parent), len(change)], "moved": 0, "narrower": 0, "wider": 0,
           "inside": 0, "disjoint": 0, "raise_changed": 0}
    for old, new in zip(parent, change):
        if old == new:
            continue
        a, b = _enclosure(old), _enclosure(new)
        if a is None or b is None:
            out["raise_changed"] += 1
            continue
        out["moved"] += 1
        out["narrower"] += b[1] - b[0] < a[1] - a[0]
        out["wider"] += b[1] - b[0] > a[1] - a[0]
        out["inside"] += a[0] <= b[0] and b[1] <= a[1]
        out["disjoint"] += b[1] < a[0] or a[1] < b[0]
    return out


def census_changed(parent: dict, change: dict) -> dict:
    """{workload: {field: [parent count, change count]}} for the census
    fields whose counts differ; a field or workload one side lacks is null."""
    out = {}
    for workload in sorted(set(parent) | set(change)):
        old, new = parent.get(workload) or {}, change.get(workload) or {}
        out[workload] = {field: [old.get(field), new.get(field)] for field in sorted(set(old) | set(new))
                         if old.get(field) != new.get(field)}
    return out


def main(argv) -> int:
    ap = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].strip())
    ap.add_argument("tree", type=Path)
    ap.add_argument("--against", type=Path, help="a parent tree to compare enclosures with")
    ap.add_argument("--records", action="store_true", help="print every record as JSON")
    args = ap.parse_args(argv)
    rec = records(args.tree.resolve())
    if args.records:
        print(json.dumps(rec))
        return 0
    line = digests(rec)
    if args.against is not None:
        done = subprocess.run([sys.executable, __file__, str(args.against.resolve()), "--records"],
                              capture_output=True, text=True, check=True)
        parent = json.loads(done.stdout)
        line["against"] = {"parent": digests(parent),
                           **{section: compare(parent[section], rec[section])
                              for section in ("lp_grid", "prefix", "verify_rho_p",
                                              "verify_rho_1_lower")},
                           "census_changed": census_changed(parent.get("census", {}), rec["census"])}
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
