"""Run one chaoslab benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload lp-grid --seed 0 --seconds 25 --trace 0

Run it from the root of a source checkout: chaoslab is imported from the
checkout's src/ directory and nothing is installed.  The number of whole
passes is --seconds divided by the workload's nominal pass time (at least
one), so both sides of a comparison do the same work.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, timed in
reference-host seconds (hostclock.py) so that the host's swings in speed
do not show; the raw wall-clock values go to the details line.  Set-up
time is the median over several fresh processes, each timed from launch
until its inputs are ready.

--trace 1 runs pass 0 once untraced and once traced and prints the
per-layer metrics; spans go to .perfbench_out/ in the checkout.

The last line of stdout is the result object; the line before it holds
the details (tail percentile and its sample count, failure kinds, gate
violations, the verify-all digest).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostclock
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("lp-grid", "prefix-sweep", "verify-all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import chaoslab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import chaoslab from {src}: {exc}")
    if Path(chaoslab.__file__).resolve().parent != src / "chaoslab":
        sys.exit(f"perfbench: chaoslab was imported from {chaoslab.__file__}, not {src}")
    import workloads
    return workloads


def probe_setup(args):
    """Launch-to-ready seconds of SETUP_PROBES fresh set-up processes.

    Each probe is rescaled to reference-host speed by reference timings
    taken just before and just after it.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        ref_before = hostclock.reference_time()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            took = perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        times.append(hostclock.rescale(took, ref_before, hostclock.reference_time()))
        if ready.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed with exit code {code}")
    return times


def run_pass(workload, index, tally):
    """One pass; an exception that escapes the workload ends the pass as a failed item."""
    try:
        workload.run_pass(index, tally)
    except Exception as exc:
        tally.failures[f"pass aborted: {type(exc).__name__}"] += 1
        tally.unexpected.append(f"pass {index} aborted: {type(exc).__name__}: {exc}")
        tally.item((), ok=False)


def run_passes(workload, passes, tally):
    """(start, end) perf_counter stamps of each pass."""
    stamps = []
    for index in range(passes):
        tracing.clear_caches()
        start = perf_counter()
        run_pass(workload, index, tally)
        stamps.append((start, perf_counter()))
    return stamps


def raw_seconds(start, end):
    return end - start


def end_to_end(tally, stamps, clock, setup_times):
    """End-to-end values in reference-host time; the raw ones go to the details."""
    wall = sum(clock.seconds(a, b) for a, b in stamps)
    lat = sorted(tally.latencies(clock.seconds))
    raw_wall = sum(b - a for a, b in stamps)
    raw_lat = sorted(tally.latencies(raw_seconds))
    n = len(lat)
    tail_at = max(0, n - 1 - TAIL_BEYOND)
    values = {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (n / wall, "1/s"),
        "call_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "call_tail_ms": (lat[tail_at] * 1e3, "ms"),
        "ok_ratio": ((n - tally.failed) / n, "ratio"),
        "width_ratio_mean": (statistics.fmean(tally.width_ratios or [0.0]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "samples": n,
        "tail_percentile": 100.0 * tail_at / (n - 1) if n > 1 else 100.0,
        "tail_samples_beyond": n - 1 - tail_at,
        "setup_probes_s": setup_times,
        "raw_items_per_s": n / raw_wall,
        "raw_call_p50_ms": statistics.median(raw_lat) * 1e3,
        "raw_call_tail_ms": raw_lat[tail_at] * 1e3,
        "host_ticks": clock.ticks(),
        "host_reference_ms": [round(1e3 * q, 4) for q in statistics.quantiles(clock.reference_s(), n=4)],
    }
    return values, details


def traced_run(W, args, workloads):
    from chaoslab import tailmath

    workload = W(args.seed, 1)
    plain = workloads.Tally()
    plain_wall = sum(b - a for a, b in run_passes(workload, 1, plain))
    tally = workloads.Tally()
    tracer = tracing.Tracer(tally)
    tracing.clear_caches()
    tail_sum = tailmath._tail_sum
    with tracing.Patches() as patches:
        tracer.install(patches)
        start = perf_counter()
        run_pass(workload, 0, tally)
        wall = perf_counter() - start
    values = tracer.layer_metrics(wall, tail_sum.cache_info())
    values["trace.items_per_s"] = tally.attempted / wall
    values["trace.untraced_items_per_s"] = plain.attempted / plain_wall
    values["trace.overhead_ratio"] = values["trace.untraced_items_per_s"] / values["trace.items_per_s"]
    spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    details = {"spans": tracer.write_spans(spans_path), "spans_file": str(spans_path.relative_to(ROOT)),
               "untraced_failed": plain.failed,
               "untraced_correct": not plain.violations and not plain.unexpected}
    return {name: (value, tracing.unit_of(name)) for name, value in values.items()}, details, workload, tally


def main(argv=None):
    args = parse_args(argv)
    workloads = import_program()
    W = workloads.WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / W.nominal_pass_s))
    if args.setup_probe:
        W(args.seed, passes)
        print("ready", flush=True)
        return 0

    if args.trace:
        values, details, workload, tally = traced_run(W, args, workloads)
        correct = details["untraced_correct"]
    else:
        setup_times = probe_setup(args)
        workload = W(args.seed, passes)
        tally = workloads.Tally()
        with hostclock.HostClock() as clock:
            stamps = run_passes(workload, passes, tally)
        values, details = end_to_end(tally, stamps, clock, setup_times)
        details["passes"] = passes
        correct = True
    correct = correct and not tally.violations and not tally.unexpected

    digests = getattr(workload, "digests", None)
    if digests:
        baseline = json.loads((HERE / "baseline.json").read_text())["verify_all_seed0_sha256"]
        details["digest"] = digests[0]
        details["digests_agree"] = len(set(digests)) == 1
        details["digest_matches_seed0"] = digests[0] == baseline
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_ratio": tally.failed / tally.attempted,
        "width_ratio_max": max(tally.width_ratios, default=0.0),
        "failures": dict(tally.failures),
        "hits": dict(tally.hits),
        "unexpected_failures": tally.unexpected[:10],
        "violations": [str(v) for v in tally.violations[:10]],
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
