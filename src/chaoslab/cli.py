"""Command-line front end, installed as `chaos-lab`.

Two families of subcommands: `verify` runs the named property suites
and reports one JSON line per property, everything else wraps a single
library call (a construction, a metric evaluation, a tail table) and
prints its certified output.  All randomness comes from --seed, so any
invocation is reproducible byte for byte.  Library errors map onto
exit codes: 2 for bad configuration or domain violations, 3 when a
requested tolerance is infeasible (a tail-index search hit its cap or a
refinement budget ran out), 4 when a certification check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from . import tailmath, verify
from .coeffspace import (
    Alphabet,
    CoeffSeq,
    SeriesFn,
    _frac_list,
    finite_support,
    from_json,
    to_payload,
)
from .constructions import (
    dense_orbit_point,
    ef_approximation,
    filtration,
    periodic_approx_in_EF,
    sensitivity_witness,
    transitivity_witness,
)
from .errors import (
    CertificationFailure,
    ChaosLabError,
    ConfigError,
    DomainError,
    InfeasibleTolerance,
    ToleranceUnreachable,
)
from .intervals import BoundInterval
from .metrics import DEFAULT_TOL, LpSpec, rho_p

EXIT_CODES = {ConfigError: 2, DomainError: 2, InfeasibleTolerance: 3,
              ToleranceUnreachable: 3, CertificationFailure: 4}


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(
            f"{flag} expects a rational like 1/2 or 0.5, got {text!r}"
        ) from exc


def _parse_positive(text: str, flag: str) -> Fraction:
    value = _parse_fraction(text, flag)
    if value <= 0:
        raise ConfigError(f"{flag} must be positive, got {text}")
    return value


def _parse_p(text: str) -> Union[Fraction, float]:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    p = _parse_fraction(text, "--p")
    if p < 1:
        raise ConfigError(f"--p must be at least 1, got {text}")
    return p


def _parse_alphabet(text: str) -> Alphabet:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ConfigError("--alphabet expects comma-separated rationals")
    return Alphabet(tuple(_parse_fraction(part, "--alphabet") for part in parts))


def _load_seq(path: str) -> Union[CoeffSeq, SeriesFn]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return from_json(text)


def _as_series(obj: Union[CoeffSeq, SeriesFn], gamma: Optional[Fraction], path: str) -> SeriesFn:
    if isinstance(obj, SeriesFn):
        if gamma is not None and obj.gamma != gamma:
            raise ConfigError(
                f"{path} carries gamma={obj.gamma}, which contradicts --gamma {gamma}"
            )
        return obj
    if gamma is None:
        raise ConfigError(f"{path} has no gamma of its own; pass --gamma")
    return SeriesFn(obj, gamma)


def _bare_seq(obj: Union[CoeffSeq, SeriesFn]) -> CoeffSeq:
    return obj.coeffs if isinstance(obj, SeriesFn) else obj


def _infer_alphabet(streams: Sequence[CoeffSeq]) -> Alphabet:
    values = frozenset().union(*(s.value_set() for s in streams))
    return Alphabet(tuple(sorted(values)))


def _polynomial(obj: Union[CoeffSeq, SeriesFn], path: str) -> CoeffSeq:
    seq = _bare_seq(obj)
    if finite_support(seq) is None:
        raise ConfigError(f'{path} must have finite support ("finite", or period ["0"])')
    return seq


# ---------------------------------------------------------------------------
# output helpers


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), default=str)


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_verify(args) -> int:
    gammas = None
    if args.gamma:
        flat: List[Fraction] = []
        for chunk in args.gamma:
            for part in chunk.split(","):
                flat.append(_parse_fraction(part, "--gamma"))
        gammas = tuple(flat)
    config = verify.VerifyConfig(
        gammas=gammas, k_max=args.k_max, seed=args.seed, trials=args.trials
    )
    if args.suite == "all":
        names: Tuple[str, ...] = tuple(verify.SUITES)
    else:
        names = tuple(part.strip() for part in args.suite.split(","))
    results = verify.run_suites(names, config)
    lines = []
    all_passed = True
    for res in results:
        all_passed = all_passed and res.passed
        lines.append(
            _dumps(
                {
                    "suite": res.suite,
                    "property": res.name,
                    "pass": res.passed,
                    "trials": res.trials,
                    "detail": res.detail,
                    "failures": list(res.failures),
                }
            )
        )
    _emit("\n".join(lines), args.out)
    return 0 if all_passed else 1


def _cmd_tails(args) -> int:
    gamma = _parse_positive(args.gamma, "--gamma")
    if args.k_max < 1:
        raise ConfigError("--k-max must be at least 1")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["k", "eta_lo", "eta_hi", "zeta_lo", "zeta_hi", "xi_lo", "xi_hi"])
    zetas = tailmath.zeta_table(gamma, args.k_max + 1)
    for k in range(1, args.k_max + 1):
        eta_k = tailmath.eta(k)
        zeta_k, zeta_next = zetas[k], zetas[k + 1]
        term = gamma**k / math.factorial(k)  # xi_k = gamma^k/k! - zeta_(k+1)
        xi_k = BoundInterval(term - zeta_next.hi, term - zeta_next.lo)
        writer.writerow(
            [
                k,
                eta_k.lo_float(),
                eta_k.hi_float(),
                zeta_k.lo_float(),
                zeta_k.hi_float(),
                xi_k.lo_float(),
                xi_k.hi_float(),
            ]
        )
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_metric(args) -> int:
    p = _parse_p(args.p)
    gamma = _parse_positive(args.gamma, "--gamma") if args.gamma else None
    tol = _parse_positive(args.tol, "--tol") if args.tol else DEFAULT_TOL
    f = _as_series(_load_seq(args.f), gamma, args.f)
    g = _as_series(_load_seq(args.g), gamma, args.g)
    spec = LpSpec(p, f.gamma)
    rho = rho_p(f, g, spec, tol)
    _emit(_dumps({**verify._ivp(rho), "tol_requested": str(tol)}), args.out)
    return 0


def _cmd_conjugacy_check(args) -> int:
    gamma = _parse_positive(args.gamma, "--gamma")
    if args.trials < 1:
        raise ConfigError("--trials must be at least 1")
    if args.window < 0:
        raise ConfigError("--window must be at least 0")
    res = verify.check_commuting_squares((gamma,), args.seed, args.trials, args.window)
    _emit(_dumps({"trials": res.trials, "failures": list(res.failures)}), args.out)
    return 0 if res.passed else 1


def _cmd_approx_periodic(args) -> int:
    gamma = _parse_positive(args.gamma, "--gamma")
    eps = _parse_positive(args.eps, "--eps")
    spec = LpSpec(_parse_p(args.p), gamma)
    f = _bare_seq(_load_seq(args.f))
    alphabet = _parse_alphabet(args.alphabet) if args.alphabet else _infer_alphabet([f])
    approx = periodic_approx_in_EF(f, alphabet, gamma, spec, eps)
    rho = rho_p(SeriesFn(approx, gamma), SeriesFn(f, gamma), spec, eps / 16)
    payload = {
        "approximant": to_payload(approx),
        "eps": str(eps),
        "rho": verify._ivp(rho),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_dense_orbit(args) -> int:
    alphabet = _parse_alphabet(args.alphabet)
    if args.prefix_len < 1:
        raise ConfigError("--prefix-len must be at least 1")
    point = dense_orbit_point(alphabet)
    _emit(",".join(str(point.coeff(i)) for i in range(args.prefix_len)), args.out)
    return 0


def _cmd_transitivity(args) -> int:
    gamma = _parse_positive(args.gamma, "--gamma")
    spec = LpSpec(_parse_p(args.p), gamma)
    eps_u = _parse_positive(args.eps_u or args.eps, "--eps-u")
    eps_v = _parse_positive(args.eps_v or args.eps, "--eps-v")
    u = _bare_seq(_load_seq(args.u))
    v = _bare_seq(_load_seq(args.v))
    alphabet = (
        _parse_alphabet(args.alphabet) if args.alphabet else _infer_alphabet([u, v])
    )
    h, n = transitivity_witness(u, v, eps_u, eps_v, alphabet, gamma, spec)
    rho_u = rho_p(SeriesFn(h, gamma), SeriesFn(u, gamma), spec, eps_u / 16)
    rho_v = rho_p(SeriesFn(h.shifted(n), gamma), SeriesFn(v, gamma), spec, eps_v / 16)
    if args.trace:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["n", "rho_lo", "rho_hi"])
        for j in range(n + 1):
            step = rho_p(
                SeriesFn(h.shifted(j), gamma), SeriesFn(v, gamma), spec, eps_v / 16
            )
            writer.writerow([j, step.lo_float(), step.hi_float()])
        _emit(buffer.getvalue(), args.trace)
    payload = {
        "h": to_payload(h),
        "n": n,
        "eps_u": str(eps_u),
        "eps_v": str(eps_v),
        "rho_u": verify._ivp(rho_u),
        "rho_v": verify._ivp(rho_v),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_ef_approx(args) -> int:
    gamma = _parse_positive(args.gamma, "--gamma")
    eps = _parse_positive(args.eps, "--eps")
    spec = LpSpec(_parse_p(args.p), gamma)
    poly = _polynomial(_load_seq(args.f), args.f)
    alphabet, member = ef_approximation(poly, gamma, spec, eps)
    rho = rho_p(SeriesFn(member, gamma), SeriesFn(poly, gamma), spec, eps / 16)
    payload = {
        "alphabet": _frac_list(alphabet.values),
        "member": to_payload(member),
        "eps": str(eps),
        "rho": verify._ivp(rho),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_filtration(args) -> int:
    polys = [_polynomial(_load_seq(path), path) for path in args.f]
    if not polys:
        raise ConfigError("filtration needs at least one input sequence")
    steps = args.steps if args.steps is not None else len(polys)
    if steps < 1:
        raise ConfigError("--steps must be at least 1")
    targets = [polys[k % len(polys)] for k in range(steps)]
    lines = []
    for step in filtration(targets):
        lines.append(
            _dumps(
                {
                    "step": step.index,
                    "eps": str(Fraction(1, step.index)),
                    "alphabet": _frac_list(step.alphabet.values),
                    "member": to_payload(step.member),
                }
            )
        )
    _emit("\n".join(lines), args.out)
    return 0


def _cmd_sensitivity(args) -> int:
    gamma = _parse_positive(args.gamma, "--gamma")
    beta = _parse_positive(args.beta, "--beta")
    eps = _parse_positive(args.eps, "--eps")
    f = _as_series(_load_seq(args.f), gamma, args.f)
    witness = sensitivity_witness(f, beta, eps)
    close, far = witness.certificates
    payload = {
        "g": to_payload(witness.g),
        "n": witness.n,
        "beta": str(witness.beta),
        "eps": str(witness.eps),
        "close": verify._ivp(close),
        "far": verify._ivp(far),
    }
    _emit(_dumps(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaos-lab",
        description="certified checks and constructions for the shift map "
        "on Taylor coefficient streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run named property suites")
    p_verify.add_argument("--suite", default="all", help="suite name, comma list, or 'all'")
    p_verify.add_argument(
        "--gamma",
        action="append",
        help="domain length(s), comma-separated or repeated",
    )
    p_verify.add_argument("--k-max", type=int, default=60, dest="k_max", help=(
        "largest tail index of the tailmath suite only; the metric prefix lines "
        "keep their own k <= 8 (k <= 4 for sup-prefix-upper-general)"))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=None)
    _add_out(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_tails = sub.add_parser("tails", help="CSV table of tail enclosures")
    p_tails.add_argument("--gamma", required=True)
    p_tails.add_argument("--k-max", type=int, default=60, dest="k_max",
                         help="largest tail index of the table (rows k = 1..k-max)")
    _add_out(p_tails)
    p_tails.set_defaults(func=_cmd_tails)

    p_metric = sub.add_parser("metric", help="certified rho_p distance of two inputs")
    p_metric.add_argument("--p", default="2")
    p_metric.add_argument("--gamma", help="domain length when the inputs carry none")
    p_metric.add_argument("--tol", help=f"enclosure width target (default {DEFAULT_TOL})")
    p_metric.add_argument("f")
    p_metric.add_argument("g")
    _add_out(p_metric)
    p_metric.set_defaults(func=_cmd_metric)

    p_conj = sub.add_parser(
        "conjugacy-check", help="shift/derivative commuting squares on random streams"
    )
    p_conj.add_argument("--gamma", required=True)
    p_conj.add_argument("--trials", type=int, default=100)
    p_conj.add_argument("--seed", type=int, default=0)
    p_conj.add_argument("--window", type=int, default=128)
    _add_out(p_conj)
    p_conj.set_defaults(func=_cmd_conjugacy_check)

    p_approx = sub.add_parser(
        "approx-periodic", help="periodic stream eps-close to the input"
    )
    p_approx.add_argument("--gamma", required=True)
    p_approx.add_argument("--p", default="inf")
    p_approx.add_argument("--eps", required=True)
    p_approx.add_argument("--alphabet", help="coefficient values, comma-separated")
    p_approx.add_argument("f")
    _add_out(p_approx)
    p_approx.set_defaults(func=_cmd_approx_periodic)

    p_dense = sub.add_parser(
        "dense-orbit", help="prefix of the stream enumerating every finite word"
    )
    p_dense.add_argument("--alphabet", required=True)
    p_dense.add_argument("--prefix-len", type=int, default=16, dest="prefix_len")
    _add_out(p_dense)
    p_dense.set_defaults(func=_cmd_dense_orbit)

    p_trans = sub.add_parser(
        "transitivity", help="one stream visiting two targets under the shift"
    )
    p_trans.add_argument("--gamma", required=True)
    p_trans.add_argument("--p", default="inf")
    p_trans.add_argument("--eps", default="3/10", help="default for both targets")
    p_trans.add_argument("--eps-u", dest="eps_u")
    p_trans.add_argument("--eps-v", dest="eps_v")
    p_trans.add_argument("--alphabet", help="coefficient values, comma-separated")
    p_trans.add_argument("--trace", help="write per-shift distances to this CSV file")
    p_trans.add_argument("u")
    p_trans.add_argument("v")
    _add_out(p_trans)
    p_trans.set_defaults(func=_cmd_transitivity)

    p_ef = sub.add_parser(
        "ef-approx", help="finite alphabet whose family reaches the polynomial"
    )
    p_ef.add_argument("--gamma", required=True)
    p_ef.add_argument("--p", default="inf")
    p_ef.add_argument("--eps", required=True)
    p_ef.add_argument("f")
    _add_out(p_ef)
    p_ef.set_defaults(func=_cmd_ef_approx)

    p_filt = sub.add_parser(
        "filtration", help="nested alphabets from a sequence of approximants"
    )
    p_filt.add_argument("--steps", type=int, default=None)
    p_filt.add_argument("f", nargs="+")
    _add_out(p_filt)
    p_filt.set_defaults(func=_cmd_filtration)

    p_sens = sub.add_parser(
        "sensitivity", help="nearby function whose n-th derivative is far away"
    )
    p_sens.add_argument("--gamma", required=True)
    p_sens.add_argument("--beta", required=True)
    p_sens.add_argument("--eps", required=True)
    p_sens.add_argument("--f", required=True, dest="f")
    _add_out(p_sens)
    p_sens.set_defaults(func=_cmd_sensitivity)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # exact bounds can run past the int-to-str digit limit of Python 3.11+
    # (3.10 has none): lift it for this command only
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits:
        saved = sys.get_int_max_str_digits()
        set_digits(0)
    try:
        return args.func(args)
    except ChaosLabError as exc:
        print(f"chaos-lab: {exc}", file=sys.stderr)
        return EXIT_CODES[type(exc)]
    finally:
        if set_digits:
            set_digits(saved)


if __name__ == "__main__":
    sys.exit(main())
