"""A/B benchmark writer: the parent and the change, run in alternation.

    python3 scripts/bench_ab.py --parent DIR --change DIR --pairs 5 --seed 2 \
        --out BENCH_8.json --note "what the change does"

DIR is a fresh copy of each side's committed tree (for instance
`git archive <commit> | tar -x -C DIR`).  A tree whose __pycache__ holds a
.pyc older than its source is refused: Python recompiles such a module on
every launch, and under PYTHONDONTWRITEBYTECODE it never writes the new
bytecode back, so that side's setup_s and peak_rss_mb carry a compile
the other side does not pay.  For every workload in the
change's BENCHMARK.json, pair i runs `perfbench/run.py --trace 0` once per
side, the parent first on even i and the change first on odd i, each in
its own tree with BENCHMARK.json's run_seconds.  Then TRACED_RUNS
`--trace 1` runs per side, alternating in the same way, record the
per-layer metrics numbers, each the median of its side's runs: on a
2-core host one traced run per side swings by 20% or more, too much to
attribute a layer change.  Last, this directory's `enclosure_digest.py`
runs once, on the change against the parent.

The JSON written holds, per workload and end-to-end metric, each side's
runs with their median and inclusive quartiles, how many pairs the change
won in the metric's better direction, and the change/parent median ratio;
under "raw", each run's raw wall-clock figures from its details line
(RAW: items_per_s, call_p50_ms and call_tail_ms before perfbench rescales
them to reference-host time) with each side's median and quartiles, so a
rescaled figure can be cross-checked without a rerun; the attempted and
failed item counts; the correctness gates; on
verify-all, each side's output digests and whether they match the seed-0
baseline; every per-layer metric that BENCHMARK.json's per_layer names
and the traced runs report (the metrics.*, sampling.*, tailmath.*,
intervals.* and coeffspace.* layers, verify's per-module wall times and
the trace.* figures); and, under
"enclosures", each side's digests of its lp-grid enclosures, of the
prefix-sweep family and its d_E enclosures, and of its verify stdout,
verify rho_p enclosures and rho_1_lower_bound values, whether the two
sides match, and under
"against" how many of the change's enclosures moved from the parent's in
each section, and of those how many are narrower, wider, inside the
parent's or disjoint from it; and, under "census", each side's census of
L^p kernel work in its lp-grid pass and its verify run (the fractional
splits by kind, the odd-p splits and brackets, the integer roots and the
Taylor models).  Nothing here is a gate: it only records numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACED_RUNS = 3
RAW = ("raw_items_per_s", "raw_call_p50_ms", "raw_call_tail_ms")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--note", default="", help="what the change does")
    return ap.parse_args(argv)


def stale_bytecode(tree: Path) -> list:
    """Every .pyc under tree's __pycache__ directories that is older than
    its source file."""
    stale = []
    for pyc in sorted(tree.rglob("__pycache__/*.pyc")):
        source = pyc.parent.parent / (pyc.name.split(".")[0] + ".py")
        if source.exists() and pyc.stat().st_mtime < source.stat().st_mtime:
            stale.append(pyc)
    return stale


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One fresh perfbench process in tree: its last stdout line, parsed,
    with the details line before it under "details"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"bench_ab: {' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    *_, details, result = done.stdout.strip().splitlines()
    return {**json.loads(result), "details": json.loads(details)}


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def workload_entry(results: dict, traced: dict, declared: list, per_layer: set) -> dict:
    end_to_end = {}
    for metric in declared:
        name = metric["name"]
        runs = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
        parent_median = statistics.median(runs["parent"])
        end_to_end[name] = {
            "unit": metric["unit"],
            **{side: summary(runs[side]) for side in SIDES},
            "pairs_won_by_change": won,
            "median_ratio": statistics.median(runs["change"]) / parent_median if parent_median else None,
        }
    end_to_end["raw"] = {name: {side: summary([r["details"][name] for r in results[side]])
                                for side in SIDES} for name in RAW}
    end_to_end["attempted_failed"] = {
        side: [[r["attempted"], r["failed"]] for r in results[side]] for side in SIDES}
    end_to_end["correct"] = {side: all(r["correct"] for r in results[side]) for side in SIDES}
    if "digest" in results["parent"][0]["details"]:
        for key in ("digest", "digest_matches_seed0"):
            end_to_end[key] = {side: sorted({r["details"][key] for r in results[side]})
                               for side in SIDES}
    return {"end_to_end": end_to_end, "traced": {
        side: {name: statistics.median(r["metrics"][name]["value"] for r in traced[side])
               for name in traced[side][0]["metrics"] if name in per_layer}
        for side in SIDES}}


def digest_entries(line: dict) -> dict:
    """The "enclosures" and "census" entries from enclosure_digest.py's
    line for the change against the parent: each side's census goes under
    "census", so "match" compares the digests alone."""
    against = line.pop("against")
    sides = {"parent": against.pop("parent"), "change": line}
    census = {side: sides[side].pop("census") for side in SIDES}
    return {"enclosures": {**sides, "match": sides["parent"] == sides["change"], "against": against},
            "census": census}


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        stale = stale_bytecode(tree)
        if stale:
            sys.exit(f"bench_ab: the --{side} tree {tree} holds bytecode older than its source "
                     f"({stale[0]}, {len(stale)} file(s) in all).  Python recompiles such a module "
                     f"on every launch and, with PYTHONDONTWRITEBYTECODE set, never writes it back, "
                     f"so that side's setup_s and peak_rss_mb would carry a compile the other side "
                     f"does not.  Benchmark fresh trees (git archive <commit> | tar -x -C DIR) or "
                     f"delete the tree's __pycache__ directories.")
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    out = {
        "change": args.note,
        "host": f"{os.cpu_count()}-core {platform.machine()} host, "
                f"{platform.python_implementation()} {platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds} --trace 0|1",
        "method": f"parent and change each run from a fresh copy of its committed tree; "
                  f"{args.pairs} pairs per workload, alternating which side runs first "
                  f"(even pairs parent first); medians and inclusive quartiles over the "
                  f"{args.pairs} runs of each side; traced values are the medians of "
                  f"{TRACED_RUNS} --trace 1 runs per side, alternating in the same way",
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        results = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                results[side].append(run(trees[side], workload, args.seed, seconds, 0))
                print(f"{workload} pair {i} {side}: items_per_s "
                      f"{results[side][-1]['metrics']['items_per_s']['value']:.4g}", flush=True)
        traced = {side: [] for side in SIDES}
        for i in range(TRACED_RUNS):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                traced[side].append(run(trees[side], workload, args.seed, seconds, 1))
        out["workloads"][workload] = workload_entry(results, traced, bench["end_to_end"],
                                                    {m["name"] for m in bench["per_layer"]})
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    out.update(digest_entries(json.loads(subprocess.run(
        [sys.executable, str(Path(__file__).with_name("enclosure_digest.py")), str(trees["change"]),
         "--against", str(trees["parent"])],
        capture_output=True, text=True, check=True).stdout)))
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
