"""Run the benchmark workloads in fresh processes and summarise them.

    python3 perfbench/report.py                  # every workload at seed 0
    python3 perfbench/report.py --seeds 10       # spread over seeds 0..9
    python3 perfbench/report.py --selftest       # two traced runs per workload
    python3 perfbench/report.py --selftest --write-baseline

The default prints each end-to-end metric by name and unit with the
correctness verdict.  --seeds prints, for every metric, the median and the
distance between the first and third quartiles as a share of the median,
against a third of the bound in BENCHMARK.json.  --selftest checks that
every count, the failed-item count, width_ratio_max and the verify-all
digest repeat exactly across two traced runs at one seed, and prints each
workload's layer shares; --write-baseline stores them in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXACT_SUFFIXES = (".calls", ".streams", ".created", ".lookups", ".hit_ratio")


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(args):
    ok = True
    for workload in args.workloads:
        details, result = run(workload, args.first_seed, 0)
        ok = ok and result["correct"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={details['fail_ratio']:.4g} "
              f"failures={details['failures']} tail=p{details['tail_percentile']:.2f} "
              f"({details['tail_samples_beyond']} of {details['samples']} beyond)")
        for name, m in result["metrics"].items():
            print(f"  {name:16s} {m['value']:14.6g} {m['unit']}")
        if "digest" in details:
            print(f"  verify digest {details['digest']} matches seed-0 baseline: "
                  f"{details['digest_matches_seed0']}")
    return 0 if ok else 1


def spread(args):
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    steady = True
    for workload in args.workloads:
        runs = [run(workload, seed, 0)[1] for seed in range(args.first_seed, args.first_seed + args.seeds)]
        print(f"{workload}: correct={all(r['correct'] for r in runs)} "
              f"failed={[r['failed'] for r in runs]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            fine = name == "setup_s" or share < bound / 3
            steady = steady and fine
            print(f"  {name:16s} median {median:12.6g}  spread {share:7.4f}  "
                  f"bound/3 {bound / 3:.4f}  {'ok' if fine else 'WIDE'}  "
                  f"{' '.join(f'{v:.4g}' for v in values)}")
    return 0 if steady else 1


def selftest(args):
    ok = True
    shares = {}
    for workload in args.workloads:
        (d1, r1), (d2, r2) = (run(workload, args.first_seed, 1) for _ in range(2))
        m1, m2 = r1["metrics"], r2["metrics"]
        exact = {k: (m1[k]["value"], m2[k]["value"]) for k in m1 if k.endswith(EXACT_SUFFIXES)}
        exact["failed"] = (r1["failed"], r2["failed"])
        exact["width_ratio_max"] = (d1["width_ratio_max"], d2["width_ratio_max"])
        if "digest" in d1:
            exact["digest"] = (d1["digest"], d2["digest"])
        differ = {k: v for k, v in exact.items() if v[0] != v[1]}
        ok = ok and not differ and r1["correct"] and r2["correct"]
        print(f"{workload}: {len(exact)} exact values, {'all repeat' if not differ else f'DIFFER {differ}'}; "
              f"tracing overhead {m1['trace.overhead_ratio']['value']:.3f}x")
        shares[workload] = {k[:-len(".share")]: round(v["value"], 4)
                            for k, v in sorted(m1.items(), key=lambda kv: -kv[1]["value"])
                            if k.endswith(".share") and v["value"] >= 5e-4}
        for name, share in shares[workload].items():
            print(f"  {name:40s} {share:.4f}")
    if args.write_baseline and ok:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text())
        baseline["layer_shares"] = shares
        path.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=WORKLOADS, choices=WORKLOADS)
    ap.add_argument("--first-seed", type=int, default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--seeds", type=int)
    mode.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    if args.selftest:
        return selftest(args)
    if args.seeds:
        return spread(args)
    return summary(args)


if __name__ == "__main__":
    sys.exit(main())
