"""Fractional-p splits and integer roots of one benchmark pass.

    python3 scripts/split_census.py --workload lp-grid --seed 2

Imports the package from this checkout's src/ and the workload from its
perfbench/, runs pass 0 of the workload once under
`chaoslab.metrics.count_splits()`, and prints one JSON line: the splits
of every kind (taylor, crude, root-taylor, root-crude, nonmonotone), their
total, and `roots`, the `intervals._root` calls the pass made.  Those are
counted by wrapping the module attribute, which `power()` and `PowerFn`
look up at call time.  Nothing is timed, and perfbench is only imported.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("taylor", "crude", "root-taylor", "root-crude", "nonmonotone")


def census(workload: str, seed: int) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from chaoslab import intervals, metrics
    import workloads

    root, roots = intervals._root, []

    def counted(*args):
        roots.append(None)
        return root(*args)

    intervals._root = counted
    try:
        with metrics.count_splits() as splits:
            workloads.WORKLOADS[workload](seed, 1).run_pass(0, workloads.Tally())
    finally:
        intervals._root = root
    return {"workload": workload, "seed": seed, **{k: splits[k] for k in KINDS},
            "total": splits.total(), "roots": len(roots)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("lp-grid", "prefix-sweep", "verify-all"))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(json.dumps(census(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
