"""Digests of a tree's certified output: every rho_p enclosure of one
lp-grid pass, the prefix-sweep family with its d_E enclosures, and the
stdout and the rho_p enclosures of `chaos-lab verify --suite all --seed 0`.

    python3 scripts/enclosure_digest.py TREE

TREE is a checkout, for instance a fresh `git archive <commit>` copy.  The
package is imported from TREE/src and the lp-grid workload from
TREE/perfbench.  One pass of that workload at seed 2 runs with every
`metrics.rho_p` call recorded in order: an enclosure as its exact
endpoints, a raise as its exception class.  The prefix digests hash
`sampling.difference_streams((-2, ..., 2), 5, 2)`, the prefix-sweep
family, stream by stream in order, and `metrics.d_E(d, 0)` of each.  The
verify run records every rho_p enclosure its suites make, in order, as
the verify-all workload observes them; its stdout rounds them, so two
trees can print the same report from different enclosures.  Every
rational is written as hex numerator/denominator.  Prints one JSON line:

    {"lp_grid": {"enclosures": N, "failed": M, "sha256": "..."},
     "prefix": {"streams": S, "family_sha256": "...", "d_E_sha256": "..."},
     "verify_rho_p": {"enclosures": V, "sha256": "..."},
     "verify_sha256": "..."}

Two trees whose lines are equal computed the same rationals, and printed
the same verify report, bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

LP_GRID_SEED = 2
PREFIX_FAMILY = ((-2, -1, 0, 1, 2), 5, 2)


def _hex(q) -> str:
    # hex: no int-to-str digit limit, and the rational stays exact
    return f"{q.numerator:x}/{q.denominator:x}"


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def lp_grid_digest(metrics, workloads) -> dict:
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
    failed = sum(line.startswith("raise ") for line in lines)
    return {"enclosures": len(lines) - failed, "failed": failed, "sha256": _sha256(lines)}


def prefix_digest(coeffspace, metrics, sampling) -> dict:
    family = sampling.difference_streams(*PREFIX_FAMILY)
    zero = coeffspace.FiniteSupport(())
    streams = [" ".join(map(_hex, d.preamble)) + " | " + " ".join(map(_hex, d.period))
               for d in family]
    enclosures = []
    for d in family:
        de = metrics.d_E(d, zero)
        enclosures.append(f"{_hex(de.lo)} {_hex(de.hi)}")
    return {"streams": len(family), "family_sha256": _sha256(streams),
            "d_E_sha256": _sha256(enclosures)}


def verify_digests(cli, metrics, tracing) -> tuple:
    lines = []
    rho_p = metrics.rho_p

    def recorded(*args, **kwargs):
        rho = rho_p(*args, **kwargs)
        lines.append(f"{_hex(rho.lo)} {_hex(rho.hi)}")
        return rho

    out = io.StringIO()
    with tracing.Patches() as patches, contextlib.redirect_stdout(out):
        patches.replace_everywhere(rho_p, recorded)
        cli.main(["verify", "--suite", "all", "--seed", "0"])
    return ({"enclosures": len(lines), "sha256": _sha256(lines)},
            hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__.split("\n\n")[1])
    tree = Path(argv[0]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from chaoslab import cli, coeffspace, metrics, sampling
    import tracing
    import workloads

    if not Path(metrics.__file__).resolve().is_relative_to(tree):
        sys.exit(f"enclosure_digest: chaoslab was imported from {metrics.__file__}, not {tree}")
    verify_rho_p, verify_sha256 = verify_digests(cli, metrics, tracing)
    print(json.dumps({"lp_grid": lp_grid_digest(metrics, workloads),
                      "prefix": prefix_digest(coeffspace, metrics, sampling),
                      "verify_rho_p": verify_rho_p,
                      "verify_sha256": verify_sha256}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
