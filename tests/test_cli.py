import contextlib
import hashlib
import importlib.util
import json
import os
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

from chaoslab import cli, coeffspace, intervals, metrics, sampling, tailmath
from chaoslab.coeffspace import EventuallyPeriodic, FiniteSupport, SeriesFn, from_json, to_json
from chaoslab.metrics import LpSpec

E = Fraction(
    "2.7182818284590452353602874713526624977572470936999595749669676"
)
E_MINUS_1 = E - 1

ONES = EventuallyPeriodic((), (1,))
ZEROS = FiniteSupport(())


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(to_json(obj), encoding="utf-8")
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dense_orbit_line(capsys):
    code, out, err = _run(capsys, ["dense-orbit", "--alphabet", "0,1", "--prefix-len", "10"])
    assert code == 0 and err == ""
    assert out == "0,1,0,0,0,1,1,0,1,1\n"


def test_metric_encloses_e(capsys, tmp_path):
    f = _write(tmp_path, "ones.json", ONES)
    g = _write(tmp_path, "zeros.json", ZEROS)
    code, out, _ = _run(
        capsys, ["metric", "--p", "inf", "--gamma", "1", "--tol", "1/1000000000", f, g]
    )
    assert code == 0
    payload = json.loads(out)
    lo, hi = Fraction(payload["lo"]), Fraction(payload["hi"])
    assert lo <= E <= hi
    assert hi - lo <= Fraction(1, 10**9)
    assert payload["tol_requested"] == "1/1000000000"

    code, out, _ = _run(
        capsys, ["metric", "--p", "1", "--gamma", "1", "--tol", "1/1000000000", f, g]
    )
    assert code == 0
    payload = json.loads(out)
    assert Fraction(payload["lo"]) <= E_MINUS_1 <= Fraction(payload["hi"])


def test_metric_gamma_conflict_is_config_error(capsys, tmp_path):
    from chaoslab.coeffspace import SeriesFn

    f = _write(tmp_path, "f.json", SeriesFn(ONES, 2))
    g = _write(tmp_path, "g.json", ZEROS)
    code, _, err = _run(capsys, ["metric", "--gamma", "1", f, g])
    assert code == 2
    assert "chaos-lab:" in err


def test_tails_table_shows_xi_fixed_point(capsys):
    code, out, _ = _run(capsys, ["tails", "--gamma", "1", "--k-max", "5"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,eta_lo,eta_hi,zeta_lo,zeta_hi,xi_lo,xi_hi"
    assert len(lines) == 6
    rows = {}
    for line in lines[1:]:
        parts = line.split(",")
        rows[int(parts[0])] = [float(x) for x in parts[1:]]
    # at gamma=1 eta and zeta agree, and xi_1 = xi_2 = 3 - e
    for k in (1, 2):
        assert rows[k][0] == pytest.approx(rows[k][2], abs=1e-12)
        assert rows[k][4] <= float(3 - E) <= rows[k][5]
    assert rows[1][4] == pytest.approx(rows[2][4], abs=1e-12)
    assert rows[5][5] < rows[4][5] < rows[3][5]


def test_approx_periodic_round_trip(capsys, tmp_path):
    f = _write(tmp_path, "enum.json", ONES)
    code, out, _ = _run(
        capsys,
        ["approx-periodic", "--gamma", "1", "--eps", "3/10",
         "--alphabet", "0,1", f],
    )
    assert code == 0
    payload = json.loads(out)
    approx = from_json(json.dumps(payload["approximant"]))
    assert isinstance(approx, EventuallyPeriodic)
    assert approx.is_pure_periodic
    assert Fraction(payload["rho"]["hi"]) < Fraction(3, 10)


def test_transitivity_with_trace(capsys, tmp_path):
    u = _write(tmp_path, "u.json", ZEROS)
    v = _write(tmp_path, "v.json", ONES)
    trace = tmp_path / "trace.csv"
    code, out, _ = _run(
        capsys,
        ["transitivity", "--gamma", "1", "--alphabet", "0,1",
         "--trace", str(trace), u, v],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    h = from_json(json.dumps(payload["h"]))
    assert h == EventuallyPeriodic((0, 0, 0, 0), (1,))
    assert Fraction(payload["rho_u"]["hi"]) < Fraction(3, 10)
    assert Fraction(payload["rho_v"]["hi"]) < Fraction(3, 10)

    lines = trace.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "n,rho_lo,rho_hi"
    assert len(lines) == 6  # j = 0..4
    his = [float(line.split(",")[2]) for line in lines[1:]]
    assert his == sorted(his, reverse=True)
    assert his[-1] == 0.0


def test_unwritable_output_path_exits_two(capsys, tmp_path):
    # a missing directory or a directory as the file is bad configuration,
    # reported on one stderr line, for --out and transitivity's --trace
    u = _write(tmp_path, "u.json", ZEROS)
    v = _write(tmp_path, "v.json", ONES)
    absent = str(tmp_path / "absent" / "x.csv")
    for argv in (["tails", "--gamma", "1", "--out", absent],
                 ["tails", "--gamma", "1", "--out", str(tmp_path)],
                 ["transitivity", "--gamma", "1", "--alphabet", "0,1", "--trace", absent, u, v]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("chaos-lab: cannot write ") and "Traceback" not in err


def test_transitivity_trace_bytes(capsys, tmp_path):
    u = _write(tmp_path, "u.json", ZEROS)
    v = _write(tmp_path, "v.json", ONES)
    trace = tmp_path / "t.csv"
    code, _, _ = _run(capsys, ["transitivity", "--gamma", "1", "--alphabet", "0,1",
                               "--trace", str(trace), u, v])
    assert code == 0
    assert trace.read_bytes() == (b"n,rho_lo,rho_hi\n0,2.6666666666666665,2.666666666666667\n"
                                  b"1,2.5,2.5\n2,2.0,2.0\n3,1.0,1.0\n4,0.0,0.0\n")


def test_ef_approx_augments_zero_polynomial(capsys, tmp_path):
    f = _write(tmp_path, "zero.json", ZEROS)
    code, out, _ = _run(capsys, ["ef-approx", "--gamma", "1", "--eps", "1/2", f])
    assert code == 0
    payload = json.loads(out)
    assert payload["alphabet"] == ["0", "1/8"]
    member = from_json(json.dumps(payload["member"]))
    assert member == FiniteSupport((Fraction(1, 8),))
    assert Fraction(payload["rho"]["hi"]) < Fraction(1, 2)


def test_ef_approx_accepts_a_zero_period(capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"kind": "periodic", "preamble": ["0", "1"], "period": ["0"]}),
                    encoding="utf-8")
    code, out, _ = _run(capsys, ["ef-approx", "--gamma", "1", "--eps", "1/2", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["alphabet"] == ["0", "1"]
    assert from_json(json.dumps(payload["member"])) == FiniteSupport((0, 1))
    assert payload["member"]["kind"] == "finite"

    ones = _write(tmp_path, "ones.json", ONES)
    code, _, err = _run(capsys, ["ef-approx", "--gamma", "1", "--eps", "1/2", ones])
    assert code == 2 and "finite support" in err


def test_conjugacy_check_runs_the_verify_squares(capsys):
    code, out, _ = _run(capsys, ["conjugacy-check", "--gamma", "1", "--trials", "6",
                                 "--window", "16"])
    assert code == 0
    assert out == '{"failures": [],"trials": 6}\n'

    code, out, err = _run(capsys, ["conjugacy-check", "--gamma", "1", "--trials", "0"])
    assert code == 2 and out == "" and "--trials" in err


def test_conjugacy_check_rejects_a_negative_window(capsys):
    # a negative window compares no coefficient, so it must not pass
    code, out, err = _run(capsys, ["conjugacy-check", "--window", "-4", "--gamma", "1",
                                   "--trials", "3"])
    assert code == 2 and out == "" and "--window" in err
    code, out, _ = _run(capsys, ["conjugacy-check", "--window", "0", "--gamma", "1",
                                 "--trials", "3"])
    assert code == 0 and out == '{"failures": [],"trials": 3}\n'


def test_filtration_steps_nest(capsys, tmp_path):
    f0 = _write(tmp_path, "zero.json", ZEROS)
    f1 = _write(tmp_path, "x.json", FiniteSupport((0, 1)))
    code, out, _ = _run(capsys, ["filtration", "--steps", "3", f0, f1])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert [entry["step"] for entry in lines] == [1, 2, 3]
    assert [entry["eps"] for entry in lines] == ["1", "1/2", "1/3"]
    for a, b in zip(lines, lines[1:]):
        assert set(a["alphabet"]) <= set(b["alphabet"])


def test_sensitivity_worked_chain(capsys, tmp_path):
    f = _write(tmp_path, "zero.json", ZEROS)
    code, out, _ = _run(
        capsys,
        ["sensitivity", "--gamma", "1", "--beta", "1", "--eps", "1/2", "--f", f],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 4
    g = from_json(json.dumps(payload["g"]))
    assert g.gamma == 1
    assert g.coeffs == EventuallyPeriodic(
        (Fraction(1, 4), 0, 0, 0), (Fraction(5, 4),)
    )
    assert float(Fraction(payload["close"]["hi"])) < 0.315
    assert Fraction(payload["far"]["lo"]) > 1


def test_verify_single_suite(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--suite", "coeffspace", "--trials", "5", "--k-max", "20"],
    )
    assert code == 0
    lines = [json.loads(line) for line in out.strip().split("\n")]
    assert {entry["suite"] for entry in lines} == {"coeffspace"}
    assert all(entry["pass"] for entry in lines)
    assert all(entry["failures"] == [] for entry in lines)
    names = {entry["property"] for entry in lines}
    assert "word-enumeration-complete" in names


def test_verify_is_deterministic(capsys):
    argv = ["verify", "--suite", "conjugacy", "--trials", "5", "--seed", "3"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "orbit.txt"
    code, out, _ = _run(
        capsys,
        ["dense-orbit", "--alphabet", "0,1", "--prefix-len", "4", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "0,1,0,0\n"


def test_exit_code_three_when_the_index_search_hits_the_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(tailmath, "MAX_TAIL_INDEX", 40)
    f = _write(tmp_path, "ones.json", ONES)
    tiny = "1/1" + "0" * 80
    code, out, err = _run(
        capsys, ["approx-periodic", "--gamma", "1", "--alphabet", "0,1", "--eps", tiny, f]
    )
    assert code == 3 and out == ""
    assert "chaos-lab:" in err and "no index up to 40" in err


def test_approx_periodic_on_a_one_value_alphabet(capsys, tmp_path):
    f = _write(tmp_path, "ones.json", ONES)
    code, out, err = _run(capsys, ["approx-periodic", "--gamma", "1", "--eps", "1/1000", f])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert from_json(json.dumps(payload["approximant"])) == ONES
    assert payload["rho"] == {"lo": "0", "hi": "0"}


def test_tails_past_the_double_range_exits_zero(capsys):
    code, out, err = _run(capsys, ["tails", "--gamma", "1000", "--k-max", "3"])
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        _, _, _, zeta_lo, zeta_hi, xi_lo, xi_hi = row.split(",")
        assert zeta_hi == "inf" and float(zeta_lo) == 1.7976931348623157e308
        assert xi_lo == "-inf" and float(xi_hi) == -1.7976931348623157e308


def test_tails_at_gamma_5000_runs_one_tail_sum(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["tails", "--gamma", "5000", "--k-max", "60"])
    assert time.perf_counter() - start < 3
    assert code == 0 and err == "" and len(out.splitlines()) == 61


def test_fractional_metric_past_the_double_range_exits_three(capsys, tmp_path):
    huge = _write(tmp_path, "huge.json", EventuallyPeriodic((), (Fraction(10**400),)))
    zeros = _write(tmp_path, "zeros.json", ZEROS)
    code, out, err = _run(capsys, ["metric", "--p", "3/2", "--gamma", "1", huge, zeros])
    assert code == 3 and out == ""
    # the quadrature runs at unit scale; the default tol, 1e-409 of the
    # value, is below its double rounding floor
    assert "chaos-lab:" in err and "tol=1/1000000000" in err and "rounding floor" in err


def test_fractional_metric_below_the_rounding_floor_exits_three_at_once(capsys, tmp_path):
    ones = _write(tmp_path, "ones.json", ONES)
    zeros = _write(tmp_path, "zeros.json", ZEROS)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["metric", "--p", "3/2", "--gamma", "1", "--tol", "1e-14",
                                   ones, zeros])
    assert time.perf_counter() - start < 2
    assert code == 3 and out == "" and "rounding floor" in err


def test_tails_past_the_term_cap_exits_three_at_once(capsys):
    # the cutoff floor 2 gamma is past MAX_TAIL_INDEX, so nothing is summed
    start = time.perf_counter()
    code, out, err = _run(capsys, ["tails", "--gamma", "1e400"])
    assert time.perf_counter() - start < 1
    assert code == 3 and out == "" and err.startswith("chaos-lab:")


@pytest.mark.parametrize("p", ["1e400", "100000"])
def test_huge_integer_p_exits_three_at_once(capsys, tmp_path, p):
    ones = _write(tmp_path, "ones.json", ONES)
    zeros = _write(tmp_path, "zeros.json", ZEROS)
    start = time.perf_counter()
    code, out, err = _run(capsys, ["metric", "--p", p, "--gamma", "1", ones, zeros])
    assert time.perf_counter() - start < 2
    assert code == 3 and out == "" and "budget" in err


@contextlib.contextmanager
def _any_int_length():
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        yield
    finally:
        set_digits(saved)


def test_metric_prints_bounds_of_any_length(capsys, tmp_path):
    # at gamma 1e-400 the exact bounds run past 4,300 digits, Python's
    # default int-to-str limit
    ones = _write(tmp_path, "ones.json", ONES)
    zeros = _write(tmp_path, "zeros.json", ZEROS)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    code, out, err = _run(capsys, ["metric", "--p", "inf", "--gamma", "1e-400", ones, zeros])
    assert code == 0 and err == ""
    assert limit() == before  # restored after the command
    payload = json.loads(out)
    assert len(payload["hi"]) > 4300
    with _any_int_length():
        lo, hi = Fraction(payload["lo"]), Fraction(payload["hi"])
    # sup of e^t on [0, 1e-400] is e^(1e-400), just above 1
    assert 1 < lo <= hi < 1 + Fraction(2, 10**400)
    assert hi - lo < Fraction(1, 10**9)


def test_exit_code_two_on_bad_input(capsys, tmp_path):
    code, _, err = _run(capsys, ["tails", "--gamma", "-1"])
    assert code == 2 and "chaos-lab:" in err

    code, _, err = _run(capsys, ["dense-orbit", "--alphabet", "1,1"])
    assert code == 2

    code, _, err = _run(capsys, ["dense-orbit", "--alphabet", "0,1", "--prefix-len", "0"])
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    zeros = _write(tmp_path, "zeros.json", ZEROS)
    code, _, err = _run(capsys, ["metric", "--gamma", "1", str(bad), zeros])
    assert code == 2

    code, _, err = _run(capsys, ["metric", "--gamma", "1", str(tmp_path / "absent.json"), zeros])
    assert code == 2

    code, _, err = _run(capsys, ["metric", "--p", "1/2", "--gamma", "1", zeros, zeros])
    assert code == 2


def test_malformed_stream_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "finite", "preamble": "12"}', encoding="utf-8")
    zeros = _write(tmp_path, "zeros.json", ZEROS)
    code, out, err = _run(capsys, ["metric", "--gamma", "1", str(bad), zeros])
    assert code == 2 and out == "" and "JSON array" in err


def _module(relpath: str):
    """A module loaded from its file in this checkout."""
    path = Path(__file__).resolve().parents[1] / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_output_is_pinned():
    # refactors must leave this output byte for byte as it is, and every
    # rho_p enclosure and rho_1_lower_bound value the suites make rational
    # for rational
    digest = _module("scripts/enclosure_digest.py")
    enclosures, lower, out, code = digest.verify_records(cli, metrics, _module("perfbench/tracing.py"))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "9bf7e5eb35d3e5587543a6f9584e08e183a4d4b9ddb118e00db860ff33d26f0f")
    assert len(enclosures) == 2397
    assert digest._sha256(enclosures) == (
        "427e29d9f6f5ffad684084f774b50099f51c6b755e33cd4dd5169a18612ab244")
    assert len(lower) == 1092
    assert digest._sha256(lower) == (
        "c324b5e2b2df8e45ea9329ca8a28c5248de41677777e7c0722e18fc1e75859ff")


def test_prefix_digests_are_pinned():
    # the prefix-sweep family and its d_E enclosures, rational for rational
    digest = _module("scripts/enclosure_digest.py")
    got = digest.prefix_digest(coeffspace, metrics, sampling)
    assert got == {
        "streams": 39062,
        "family_sha256": "8f3d45f1e015c6b6c10e90c2047482dc4293968f36a5b26826360e4d97102cc4",
        "d_E_sha256": "46dbdf3482281947b9ea8c9027ed531be4e007a592f273d1cc19d54b2576f961",
    }


def test_lp_grid_digest_is_pinned(monkeypatch):
    # every rho_p enclosure of one seed-2 lp-grid pass, rational for
    # rational: the only pin over its 1e-8, 1e8 and 1e400 scale slices
    digest = _module("scripts/enclosure_digest.py")
    monkeypatch.setitem(sys.modules, "tracing", _module("perfbench/tracing.py"))
    lines = digest.lp_grid_records(metrics, _module("perfbench/workloads.py"))
    assert digest._summary(lines) == {
        "enclosures": 840,
        "failed": 0,
        "sha256": "21fbe693511a00ac385f5d7467f27569b2b2c8192b24736c117c52aee484e70c",
    }


def _rho_p_pair():
    # e^t against 0 at p = 3/2 splits fractional panels and builds Taylor
    # models; 1 - 5t + 3t^2/2 at p = 3 brackets its one root
    metrics.rho_p(SeriesFn(ONES, 1), SeriesFn(ZEROS, 1), LpSpec(Fraction(3, 2), 1),
                  Fraction(1, 10**6))
    metrics.rho_p(SeriesFn(FiniteSupport((1, -5, 3)), 1), SeriesFn(ZEROS, 1), LpSpec(3, 1),
                  Fraction(1, 10**9))


def test_digest_census_is_count_splits_and_the_counted_calls(monkeypatch):
    digest = _module("scripts/enclosure_digest.py")
    tracing = _module("perfbench/tracing.py")
    with digest.counted(intervals, metrics, tracing) as census:
        _rho_p_pair()
    tracing.clear_caches()
    calls = {"roots": 0, "models": 0}

    def counting(field, f):
        def call(*args):
            calls[field] += 1
            return f(*args)
        return call
    monkeypatch.setattr(intervals, "_root", counting("roots", intervals._root))
    monkeypatch.setattr(metrics, "_power_taylor", counting("models", metrics._power_taylor))
    with metrics.count_splits() as splits:
        _rho_p_pair()
    # the caches' own counts, emptied by clear_caches before the same work
    cached = {f"{field}_{count}": getattr(getattr(metrics, f"_{field}").cache_info(), count)
              for field in ("bernstein", "antiderivative") for count in ("hits", "misses")}
    fractional = ("taylor", "crude", "root-taylor", "root-crude", "nonmonotone")
    assert census == {**{k: splits[k] for k in fractional},
                      "total": sum(splits[k] for k in fractional),
                      "int-split": splits["int-split"], "int-bracket": splits["int-bracket"],
                      **calls, **cached}
    assert census["total"] > 0 and census["int-bracket"] == 1
    assert census["roots"] > 0 and census["models"] > 0
    assert census["bernstein_misses"] == 2 and census["antiderivative_misses"] == 1


def test_digest_census_reads_null_for_a_name_the_tree_lacks():
    # an older parent tree may lack a counted name; its count reads null
    digest = _module("scripts/enclosure_digest.py")
    tracing = _module("perfbench/tracing.py")
    bare_intervals = types.ModuleType("intervals")
    with digest.counted(bare_intervals, metrics, tracing) as census:
        _rho_p_pair()
    assert census["roots"] is None
    assert census["models"] > 0 and census["total"] > 0 and census["int-bracket"] == 1
    assert census["bernstein_misses"] == 2
    with digest.counted(bare_intervals, types.ModuleType("metrics"), tracing) as census:
        _rho_p_pair()
    assert census == dict.fromkeys(("taylor", "crude", "root-taylor", "root-crude", "nonmonotone",
                                    "total", "int-split", "int-bracket", "roots", "models",
                                    "bernstein_hits", "bernstein_misses", "antiderivative_hits",
                                    "antiderivative_misses"))
    # a function that is there but is no cache, as _bernstein was, reads null too
    plain = types.ModuleType("metrics")
    plain._bernstein = lambda *args: None
    with digest.counted(bare_intervals, plain, tracing) as census:
        pass
    assert census["bernstein_hits"] is None and census["bernstein_misses"] is None


def test_digest_against_lists_only_the_census_fields_that_moved():
    # census_changed holds [parent, change] for each differing field, a
    # field or workload one side lacks reading null, and {} where level
    digest = _module("scripts/enclosure_digest.py")
    parent = {"lp_grid": {"total": 798, "roots": 5424, "models": 975}, "verify": {"total": 515}}
    change = {"lp_grid": {"total": 798, "roots": 5434, "models": 975, "int-split": 8},
              "verify": {"total": 515}, "prefix": {"total": 0}}
    assert digest.census_changed(parent, change) == {
        "lp_grid": {"roots": [5424, 5434], "int-split": [None, 8]},
        "prefix": {"total": [None, 0]},
        "verify": {}}
    assert digest.census_changed(parent, parent) == {"lp_grid": {}, "verify": {}}


def test_bench_ab_copies_both_sides_census():
    # each side's census reaches the BENCH file, and "match" compares the
    # enclosure digests alone, so a moved census does not unmatch them
    bench_ab = _module("scripts/bench_ab.py")
    digests = {"lp_grid": {"enclosures": 840, "failed": 0, "sha256": "21fb"},
               "verify_sha256": "9bf7"}
    parent_census = {"lp_grid": {"total": 798, "roots": 5424}, "verify": {"total": 515, "roots": None}}
    change_census = {"lp_grid": {"total": 596, "roots": 5400}, "verify": {"total": 376, "roots": 4000}}
    against = {"lp_grid": {"calls": [840, 840], "moved": 0, "raise_changed": 0}}
    line = {**digests, "census": change_census,
            "against": {"parent": {**digests, "census": parent_census}, **against}}
    entries = bench_ab.digest_entries(json.loads(json.dumps(line)))
    assert entries["census"] == {"parent": parent_census, "change": change_census}
    assert entries["enclosures"] == {"parent": digests, "change": digests, "match": True,
                                     "against": against}


def test_bench_ab_refuses_a_tree_with_stale_bytecode(tmp_path):
    # a .pyc older than its source is recompiled on every launch, which
    # would charge one side alone for the compile
    bench_ab = _module("scripts/bench_ab.py")
    fresh, stale = tmp_path / "fresh", tmp_path / "stale"
    for tree in (fresh, stale):
        (tree / "pkg" / "__pycache__").mkdir(parents=True)
        (tree / "pkg" / "mod.py").write_text("x = 1\n")
        (tree / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"")
    os.utime(fresh / "pkg" / "mod.py", (1_000, 1_000))
    os.utime(stale / "pkg" / "__pycache__" / "mod.cpython-311.pyc", (1_000, 1_000))
    assert bench_ab.stale_bytecode(fresh) == []
    assert bench_ab.stale_bytecode(stale) == [stale / "pkg" / "__pycache__" / "mod.cpython-311.pyc"]
    for side, parent, change in (("parent", stale, fresh), ("change", fresh, stale)):
        with pytest.raises(SystemExit) as refused:
            bench_ab.main(["--parent", str(parent), "--change", str(change), "--pairs", "1",
                           "--seed", "0", "--out", str(tmp_path / "out.json")])
        message = str(refused.value.code)
        assert f"--{side} tree" in message and "older than its source" in message
        assert "recompiles" in message
    assert not (tmp_path / "out.json").exists()


def test_bench_ab_copies_the_raw_wall_clock_figures():
    # each run's details line holds the figures before the reference-host
    # rescaling; the entry keeps them run by run, with each side's median
    bench_ab = _module("scripts/bench_ab.py")

    def fake(items, tail):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"call_tail_ms": {"value": tail / 2}},
                "details": {"raw_items_per_s": items, "raw_call_p50_ms": 1000 / items,
                            "raw_call_tail_ms": tail}}

    results = {"parent": [fake(20, 50), fake(18, 56), fake(19, 52)],
               "change": [fake(22, 40), fake(24, 38), fake(23, 61)]}
    traced = {side: [{"metrics": {}}] for side in bench_ab.SIDES}
    declared = [{"name": "call_tail_ms", "unit": "ms", "better": "lower"}]
    raw = bench_ab.workload_entry(results, traced, declared, set())["end_to_end"]["raw"]
    assert set(raw) == {"raw_items_per_s", "raw_call_p50_ms", "raw_call_tail_ms"}
    assert raw["raw_items_per_s"]["parent"]["runs"] == [20, 18, 19]
    assert raw["raw_items_per_s"]["change"]["median"] == 23
    assert raw["raw_call_tail_ms"]["parent"]["median"] == 52
    assert raw["raw_call_tail_ms"]["change"]["runs"] == [40, 38, 61]
    assert raw["raw_call_p50_ms"]["change"]["median"] == 1000 / 23


def test_unknown_suite_is_config_error(capsys):
    code, _, err = _run(capsys, ["verify", "--suite", "nope"])
    assert code == 2
    assert "unknown suite" in err
