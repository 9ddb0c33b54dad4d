import argparse
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fockshift import ConstantWeights, PeriodicWeights, TwoLetterRunWeights, cli, eigen, spectra, weights
from fockshift.algebra import FourierElement, commutant_extract, operator_from_fourier
from fockshift.cli import (
    ConfigError,
    _emit_report,
    main,
    parse_config,
    parse_lambda,
)
from fockshift.fock import TruncatedFock
from fockshift.weights import DIVERGING, check_cocycles, check_intertwining, condition6_sup, mu_table
from fockshift.words import Word, level_labels


def test_parse_config_constant_defaults():
    config = parse_config({"n": 2, "family": "constant", "value": 1.0})
    assert isinstance(config.weights, ConstantWeights)
    assert config.depth == 8
    assert config.tolerance == 1e-10


def test_parse_config_periodic_subclass():
    document = {
        "n": 2,
        "family": "periodic",
        "period": 2,
        "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2},
    }
    config = parse_config(document)
    assert isinstance(config.weights, PeriodicWeights)
    assert config.weights.lambda_of(1, __import__("fockshift").parse_word("1")) == 2.0


def test_parse_config_two_letter():
    config = parse_config({"n": 2, "family": "two_letter_m", "m": 4, "c": 1})
    assert isinstance(config.weights, TwoLetterRunWeights)


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match=r"\$\.mystery"):
        parse_config({"n": 2, "family": "constant", "value": 1.0, "mystery": 1})


def test_parse_config_rejects_nonpositive_weight():
    with pytest.raises(ConfigError, match="strictly positive"):
        parse_config({"n": 2, "family": "constant", "value": 0})
    with pytest.raises(ConfigError, match=r"\$\.scales\[1\]"):
        parse_config({"n": 2, "family": "scaled", "scales": [1.0, -2.0]})


def test_parse_config_missing_family_field():
    with pytest.raises(ConfigError, match=r"\$\.period"):
        parse_config({"n": 2, "family": "periodic", "remainders": {}})


def test_parse_lambda_forms():
    assert parse_lambda("0.3+0.1i,0.4") == (0.3 + 0.1j, 0.4 + 0j)
    assert parse_lambda("-0.2i") == (-0.2j,)
    assert parse_lambda("2,0") == (2 + 0j, 0j)
    with pytest.raises(ConfigError):
        parse_lambda("nope+1x")
    # nan parses and 1e400 overflows to inf: both are refused, naming the token as written
    for text, token in (("nan,0", "nan"), ("0.5,1e400", "1e400"), ("-1e400i", "-1e400i"), ("1+nani", "1+nani")):
        with pytest.raises(ConfigError, match=f"complex literal '{re.escape(token)}': expected finite numbers"):
            parse_lambda(text)


def _write_config(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_check_command_unweighted(tmp_path, capsys):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report_path = tmp_path / "report.json"
    code = main(["check", "--config", config, "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "check cocycles: PASS" in out
    report = json.loads(report_path.read_text())
    assert report["config"]["weights"]["family"] == "constant"
    assert report["config"]["depth"] == 8
    assert all(entry.get("pass", True) for entry in report["checks"])
    assert set(report["timing_seconds"]) == {entry["check"] for entry in report["checks"]}
    # the sweeps run to depth 6 of the 8 asked, and their entries say so
    sweeps = {entry["check"]: (entry["depth"], entry["checks"]) for entry in report["checks"] if "depth" in entry}
    ws = ConstantWeights(2, 1.0)
    assert sweeps == {"cocycles": (6, check_cocycles(ws, None, 6).checks),
                      "intertwining": (6, check_intertwining(ws, 6).checks)}


def test_check_command_diverging_is_a_finding(tmp_path, capsys):
    config = _write_config(tmp_path, "m4.json", {"n": 2, "family": "two_letter_m", "m": 4, "c": 1})
    code = main(["check", "--config", config])
    assert code == 0
    out = capsys.readouterr().out
    assert "SKIPPED" in out


def test_check_reports_deterministic_modulo_timing(tmp_path):
    config = _write_config(tmp_path, "per.json", {
        "n": 2, "family": "periodic", "period": 2,
        "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2},
    })
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["check", "--config", config, "--depth", "6", "--report", str(path)]) == 0
    reports = [json.loads(p.read_text()) for p in paths]
    for report in reports:
        report.pop("timing_seconds")
    assert reports[0] == reports[1]


def test_region_command_csv(tmp_path):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    out_csv = tmp_path / "region.csv"
    code = main([
        "region", "--config", config, "--grid", "0:1.2:0.2", "--depth", "10",
        "--out", str(out_csv),
    ])
    assert code == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "r1,r2,levels,partial_sum,tail_ratio,verdict"
    inside = set()
    for line in lines[1:]:
        cells = line.split(",")
        if cells[-1] == "inside":
            inside.add((float(cells[0]), float(cells[1])))
    for r1, r2 in inside:
        assert r1 * r1 + r2 * r2 <= 1.0 - 0.02 + 1e-9
    # byte-identical rerun
    rerun = tmp_path / "region2.csv"
    main(["region", "--config", config, "--grid", "0:1.2:0.2", "--depth", "10", "--out", str(rerun)])
    assert rerun.read_bytes() == out_csv.read_bytes()


def test_region_report_times_sampling_and_csv(tmp_path, capsys):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report = tmp_path / "region.json"
    assert main(["region", "--config", config, "--grid", "0:1:0.5", "--depth", "6", "--report", str(report)]) == 0
    timing = json.loads(report.read_text())["timing_seconds"]
    assert sorted(timing) == ["csv", "region_sample"]
    assert all(isinstance(value, float) and value >= 0 for value in timing.values())
    assert capsys.readouterr().out.startswith("r1,r2,levels,partial_sum,tail_ratio,verdict\n")


@pytest.mark.parametrize("depth", (1, 2))
def test_region_depth_below_three_exits_2(tmp_path, capsys, monkeypatch, depth):
    monkeypatch.setattr(eigen, "_transfer_steps", None)  # the depth is refused before any map is built
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    assert main(["region", "--config", config, "--grid", "0:1:0.5", "--depth", str(depth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"precondition error: region depth {depth} gives {depth + 1} level sums; "
                            "the verdict needs depth at least 3\n")


@pytest.mark.parametrize("grid, message", [
    ("0:1:nan", "grid 0.0:1.0:nan: step is not finite"),
    ("0:inf:0.5", "grid 0.0:inf:0.5: hi is not finite"),
    ("nan:1:0.5", "grid nan:1.0:0.5: lo is not finite"),
    ("0:1e308:1e-308", "grid 0.0:1e+308:1e-308: the point count (hi - lo) / step is not finite"),
])
def test_region_non_finite_grid_exits_2(tmp_path, capsys, monkeypatch, grid, message):
    monkeypatch.setattr(eigen, "_transfer_steps", None)  # the grid is refused before any map is built
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    assert main(["region", "--config", config, "--grid", grid, "--depth", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"precondition error: {message}\n"


def test_region_oversized_grid_exits_2_before_allocating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(eigen, "_transfer_steps", None)
    monkeypatch.setattr(eigen.GridSpec, "values", None)
    # 1e300 + 1 values per axis: the count stops at the first axis, and the message
    # names count^n in %.3g form, not the 6000-digit total that Python refuses to format
    config = _write_config(tmp_path, "n20.json", {"n": 20, "family": "constant", "value": 1.0})
    assert main(["region", "--config", config, "--grid", "0:1e300:1", "--depth", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition error: region grid of 1e+300^20 points exceeds the 2097152 guard\n"
    # 11 values per axis make 121 points, past the guard lowered to 100
    monkeypatch.setattr(eigen, "MAX_SWEEP_WORDS", 100)
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    assert main(["region", "--config", config, "--grid", "0:1:0.1", "--depth", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition error: region grid of 11^2 points exceeds the 100 guard\n"


def test_commutant_command(tmp_path, capsys):
    config = _write_config(tmp_path, "per.json", {
        "n": 2, "family": "periodic", "period": 2,
        "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2},
    })
    code = main(["commutant", "--config", config, "--depth", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mu 1:1 = 2" in out
    assert "round-trip: PASS" in out


def test_cesaro_command(tmp_path, capsys):
    config = _write_config(tmp_path, "per.json", {
        "n": 2, "family": "periodic", "period": 2,
        "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2},
    })
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"coeffs": {"e": [0.5, 0], "1": [1, -0.5], "21": [0.25, 0.1]}}))
    code = main(["cesaro", "--config", config, "--coeffs", str(coeffs), "--k", "4"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_spectra_right_mode(tmp_path):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report_path = tmp_path / "spectra.json"
    code = main([
        "spectra", "--config", config,
        "--lambda", "0.3+0.1i,0.4", "--lambda", "2,0",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    verdicts = [entry["verdict"] for entry in report["results"]]
    assert verdicts == ["in_spectrum", "not_in_spectrum"]


def test_spectra_left_growth_and_unknown(tmp_path):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report_path = tmp_path / "growth.json"
    code = main([
        "spectra", "--config", config, "--mode", "left_growth",
        "--lambda", "1,0", "--lambda", "0.9,0.9", "--lambda", "0.1,0.1",
        "--k", "9", "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    verdicts = [entry["verdict"] for entry in report["results"]]
    # |z1| = 1 certifies membership; the polydisc gap and interior stay open
    assert verdicts == ["in_spectrum", "unknown", "unknown"]


def test_spectra_zero_left_mode(tmp_path):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    code = main(["spectra", "--config", config, "--mode", "zero_left_inverse", "--lambda", "0,0", "--depth", "5"])
    assert code == 0


@pytest.mark.parametrize("mode", ["right", "left_growth"])
def test_spectra_without_lambda_exits_2_naming_the_mode(tmp_path, capsys, mode):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report = tmp_path / "spectra.json"
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--config", config, "--mode", mode, "--depth", "4", "--report", str(report)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err == f"fockshift spectra: error: the following arguments are required: --lambda (--mode {mode})\n"


@pytest.mark.parametrize("eta", [None, {"eta1": {"e": [0.1, 0]}, "eta2": {"1": [0, 0.2]}}])
def test_spectra_zero_left_without_lambda_checks_the_origin(tmp_path, capsys, eta):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    argv = ["spectra", "--config", config, "--mode", "zero_left_inverse", "--depth", "5"]
    if eta is not None:
        argv += ["--coeffs", _write_config(tmp_path, "eta.json", eta)]
    outcomes = []
    for points in ([], ["--lambda", "0,0"]):
        report = tmp_path / "spectra.json"
        assert main([*argv, *points, "--report", str(report)]) == 0
        outcomes.append((capsys.readouterr(), report.read_bytes()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].out == "lambda [0j, 0j]: solutions_exist (PASS)\n"


def test_exit_code_2_on_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "family": "constant"}))
    assert main(["check", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("family", [[], {}, ["constant"]])
def test_unhashable_family_exits_2(tmp_path, capsys, family):
    # a list or object family used to escape as TypeError: unhashable type
    config = _write_config(tmp_path, "bad.json", {"n": 2, "family": family, "value": 1.0})
    assert main(["check", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"configuration error: $.family: unknown family {family!r}, expected one of")


@pytest.mark.parametrize("verb, flag, extra", [
    ("check", "--report", []),
    ("region", "--out", ["--grid", "0:1:0.5"]),
])
def test_output_path_that_is_a_directory_exits_2_before_any_work(tmp_path, capsys, verb, flag, extra):
    # os.replace onto a directory used to escape as IsADirectoryError after the output was printed
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    assert main([verb, "--config", config, "--depth", "4", *extra, flag, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {flag} {tmp_path}: is a directory, not a file path\n"


def test_coefficient_document_with_a_list_of_coeffs_exits_2(tmp_path, capsys):
    # used to escape as AttributeError: 'list' object has no attribute 'items'
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    coeffs = _write_config(tmp_path, "coeffs.json", {"coeffs": []})
    assert main(["cesaro", "--config", config, "--coeffs", coeffs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {coeffs}: expected an object with a 'coeffs' field\n"


ROUND_TRIP_EXACT = "round-trip: PASS (residual 0.000e+00, recovery 0.000e+00)\n"


@pytest.mark.parametrize("value, depth", [(1e-200, 4), (1e300, 4), (1e300, 8)],
                         ids=["1e-200", "1e+300", "1e+300-depth-8"])
@pytest.mark.parametrize("verb, extra, code", [("region", ["--grid", "0:1:0.5"], 0), ("commutant", [], 0)])
def test_weights_past_the_float_range_raise_no_numpy_warning(tmp_path, capsys, value, depth, verb, extra, code):
    # 1 / lam^2 in the transfer steps and classes, and the prepend tables of the round trip, used to warn.
    # W(e, w) leaves the float range by depth 2; the round trip reads only the ratios W(u, w) / W(e, w) = 1
    config = _write_config(tmp_path, "far.json", {"n": 2, "family": "constant", "value": value})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        exit_code = main([verb, "--config", config, "--depth", str(depth), *extra])
    captured = capsys.readouterr()
    assert caught == []
    assert exit_code == code
    if verb == "commutant":
        assert captured.out.endswith(ROUND_TRIP_EXACT)


def test_exit_code_2_on_missing_file(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["cesaro", "left_growth"])
def test_k_zero_is_rejected(tmp_path, capsys, verb):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    if verb == "cesaro":
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps({"coeffs": {"e": [0.5, 0], "1": [1, -0.5]}}))
        argv = ["cesaro", "--config", config, "--coeffs", str(coeffs), "--k", "0"]
    else:
        argv = ["spectra", "--config", config, "--mode", "left_growth", "--lambda", "1,0", "--k", "0"]
    assert main(argv) == 2
    assert "precondition error" in capsys.readouterr().err


BOOLEAN_FIELD_DOCUMENTS = {
    "depth": {"n": 2, "family": "constant", "value": 1.0},
    "tolerance": {"n": 2, "family": "constant", "value": 1.0},
    "epsilon": {"n": 2, "family": "constant", "value": 1.0},
    "cutoff": {"n": 1, "family": "finite_perturbation", "table": {"1:e": 1.0, "1:1": 1.0}, "tail": [1.0]},
    "period": {"n": 1, "family": "periodic", "remainders": {"1:e": 1.0}},
}


@pytest.mark.parametrize("field", sorted(BOOLEAN_FIELD_DOCUMENTS))
def test_boolean_numeric_fields_rejected(tmp_path, capsys, field):
    document = dict(BOOLEAN_FIELD_DOCUMENTS[field], **{field: True})
    config = _write_config(tmp_path, "bool.json", document)
    assert main(["check", "--config", config]) == 2
    assert f"$.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("field, argv", [("tolerance", ["check"]), ("epsilon", ["region", "--grid", "0:1:0.5"])])
def test_nonfinite_run_fields_rejected(tmp_path, capsys, field, argv, value):
    # an infinite tolerance passed every check; epsilon is no longer a field, so any value of it is refused
    config = _write_config(tmp_path, "inf.json", {"n": 2, "family": "constant", "value": 1.0, field: value})
    assert main([argv[0], "--config", config, *argv[1:]]) == 2
    assert f"$.{field}" in capsys.readouterr().err
    if field == "tolerance":
        config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
        assert main(["check", "--config", config, "--tol", str(value)]) == 2
        assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("n, depth", [(2, 12), (3, 8)])
def test_check_runs_past_the_dense_limit(tmp_path, capsys, n, depth):
    # dimensions 8191 and 9841: the parent's dense rank was capped at 4096
    config = _write_config(tmp_path, "unw.json", {"n": n, "family": "constant", "value": 1.0})
    report_path = tmp_path / "report.json"
    assert main(["check", "--config", config, "--depth", str(depth), "--report", str(report_path)]) == 0
    assert "check vacuum_kernel: PASS" in capsys.readouterr().out
    vacuum = json.loads(report_path.read_text())["checks"][-1]["witness"]
    assert vacuum == {"joint_kernel_dim": 1, "projection_defect": 0.0}


def test_overflowed_weights_fail_the_sweeps(tmp_path, capsys):
    # W(e, 11) = 1e600 overflows: the NaN defects used to be skipped, printing PASS
    config = _write_config(tmp_path, "huge.json", {"n": 2, "family": "scaled", "scales": [1e300, 1]})
    assert main(["check", "--config", config, "--depth", "6"]) == 1
    out = capsys.readouterr().out
    assert "check cocycles: FAIL (defect nan" in out
    assert "check intertwining: FAIL (defect nan" in out


def test_overflowed_level_sums_are_outside(tmp_path):
    # (r / 1e-20)^(2k) passes the float range at k = 8: inf level sums, not a math range error
    config = _write_config(tmp_path, "tiny.json", {"n": 1, "family": "scaled", "scales": [1e-20]})
    out_csv = tmp_path / "region.csv"
    assert main(["region", "--config", config, "--grid", "0:1:0.5", "--depth", "10", "--out", str(out_csv)]) == 0
    rows = [line.split(",") for line in out_csv.read_text().strip().split("\n")[1:]]
    assert [(row[0], row[-1]) for row in rows] == [("0", "inside"), ("0.5", "outside"), ("1", "outside")]
    assert [row[2] for row in rows[1:]] == ["inf", "inf"]


def test_sweep_guard_exits_2_before_sweeping(tmp_path, capsys):
    # n = 10 at depth 6: 30,260,631 cocycle triples
    config = _write_config(tmp_path, "n10.json", {"n": 10, "family": "constant", "value": 1.0})
    assert main(["check", "--config", config, "--depth", "6"]) == 2
    assert "sweep over 30260631 triples exceeds" in capsys.readouterr().err


DEEP_N1 = {
    "n": 1, "family": "finite_perturbation", "cutoff": 1,
    "table": {"1:e": 0.5, "1:1": 2.0}, "tail": [0.01],
}

FAR_SUPREMUM = {"n": 1, "family": "finite_perturbation", "cutoff": 0, "table": {"1:e": 1e-300}, "tail": [1e300]}


def test_arithmetic_error_exits_2(tmp_path, capsys, monkeypatch):
    # no known input reaches this branch; it stays as a guard for any under- or overflow the checks raise
    def overflowing(*args):
        raise OverflowError("math range error")

    monkeypatch.setitem(cli.COMMANDS, "commutant", overflowing)
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    _exits_2_naming(["commutant", "--config", config], capsys, "precondition error: math range error")


def test_normalization_past_the_float_range_reads_the_ratios(tmp_path, capsys):
    # W(e, 1^90) = 0.0001^88 underflows to 0; the Cesaro sums read W(u, 1^90) / W(e, 1^90) instead
    config = _write_config(tmp_path, "deep.json", dict(DEEP_N1, tail=[0.0001]))
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"coeffs": {"1" * 90: [1, 0]}}))
    assert main(["cesaro", "--config", config, "--coeffs", str(coeffs), "--depth", "100"]) == 0
    assert capsys.readouterr().out == "cesaro order 4: PASS (max column defect 0.000e+00 over |v| <= 96)\n"


def test_underflowed_normalization_names_the_support_word(tmp_path, capsys):
    # W(e, 111) = 1e-450 underflows to 0 at the round trip's support length 3; the ratios are all 1
    config = _write_config(tmp_path, "tiny.json", {"n": 2, "family": "constant", "value": 1e-150})
    assert main(["commutant", "--config", config, "--depth", "6"]) == 0
    assert capsys.readouterr().out.endswith(ROUND_TRIP_EXACT)


def test_overflowed_normalization_names_the_support_word(tmp_path, capsys):
    # W(e, 11) = 1e400 overflows to inf; dividing by it zeroed the coefficient, where the ratios are all 1
    config = _write_config(tmp_path, "huge.json", {"n": 2, "family": "constant", "value": 1e200})
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"coeffs": {"11": [1, 0]}}))
    assert main(["commutant", "--config", config, "--depth", "4"]) == 0
    assert capsys.readouterr().out.endswith(ROUND_TRIP_EXACT)
    assert main(["cesaro", "--config", config, "--coeffs", str(coeffs), "--depth", "4"]) == 0
    assert capsys.readouterr().out == "cesaro order 4: PASS (max column defect 0.000e+00 over |v| <= 0)\n"


def test_commutant_supremum_past_the_float_range_exits_2(tmp_path, capsys):
    # mu_{1,1} = 1e300 / 1e-300: the table used to warn, and exp of the supremum raised OverflowError
    config = _write_config(tmp_path, "far.json", FAR_SUPREMUM)
    message = ("precondition error: commutant weights are bounded, "
               "but their supremum exp(1381.55) is past the float range")
    for verb in ("check", "commutant"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _exits_2_naming([verb, "--config", config, "--depth", "4"], capsys, message)
        assert caught == []


def test_deep_commutant_round_trip(tmp_path, capsys):
    # W_mu(e, v) underflows near |v| = 190; the expansion carries only its ratios
    config = _write_config(tmp_path, "deep.json", DEEP_N1)
    assert main(["commutant", "--config", config, "--depth", "200"]) == 0
    assert "round-trip: PASS" in capsys.readouterr().out


def _exits_2_naming(argv, capsys, text) -> None:
    """Exit 2 with one stderr line naming ``text``, and nothing on stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and text in captured.err


@pytest.mark.parametrize("argv", [
    ["cesaro", "--coeffs"],
    ["spectra", "--mode", "zero_left_inverse", "--lambda", "0,0", "--coeffs"],
])
def test_missing_coefficient_file_exits_2(tmp_path, capsys, argv):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    missing = str(tmp_path / "missing.json")
    _exits_2_naming([argv[0], "--config", config, *argv[1:], missing], capsys, f"cannot read {missing}")


@pytest.mark.parametrize("document", [[], {"eta1": [1, 0]}])
def test_eta_document_of_the_wrong_shape_exits_2(tmp_path, capsys, document):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    etas = _write_config(tmp_path, "etas.json", document)
    argv = ["spectra", "--config", config, "--mode", "zero_left_inverse", "--lambda", "0,0", "--coeffs", etas]
    _exits_2_naming(argv, capsys, etas)


@pytest.mark.parametrize("verb, flag, extra", [
    ("check", "--report", []),
    ("region", "--out", ["--grid", "0:1:0.5"]),
    ("region", "--report", ["--grid", "0:1:0.5"]),
])
def test_output_into_a_missing_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch, verb, flag, extra):
    monkeypatch.setitem(cli.COMMANDS, verb, lambda *args: pytest.fail("the command ran"))
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    missing = tmp_path / "absent"
    argv = [verb, "--config", config, *extra, flag, str(missing / "out.file")]
    _exits_2_naming(argv, capsys, f"no directory {missing}")
    assert not missing.exists()


FAMILY_DOCUMENTS = {
    "constant": {"n": 2, "family": "constant", "value": 1.0},
    "scaled": {"n": 3, "family": "scaled", "scales": [0.5, 1.0, 2.0]},
    "finite_perturbation": {"n": 2, "family": "finite_perturbation", "cutoff": 1, "table": {
        "1:e": 0.7, "2:e": 1.3, "1:1": 1.1, "1:2": 0.9, "2:1": 1.7, "2:2": 0.55}, "tail": [0.8, 1.3]},
    "periodic": {"n": 2, "family": "periodic", "period": 2,
                 "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2}},
    "two_letter_m": {"n": 2, "family": "two_letter_m", "m": 0.81, "c": 0.9},
}


@pytest.mark.parametrize("family", sorted(cli.FAMILIES))
def test_every_family_has_an_automaton(family):
    # so every CLI region verdict is the bracket's, and the tail heuristic's band is never read
    assert set(FAMILY_DOCUMENTS) == set(cli.FAMILIES)
    assert parse_config(FAMILY_DOCUMENTS[family]).weights.kept_automaton() is not None


@pytest.mark.parametrize("verb, extra", [("check", []), ("region", ["--grid", "0:1:0.5"])])
def test_epsilon_field_exits_2(tmp_path, capsys, verb, extra):
    config = _write_config(tmp_path, "eps.json", {"n": 2, "family": "constant", "value": 1.0, "epsilon": 0.02})
    assert main([verb, "--config", config, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: $.epsilon: unknown field for family 'constant'\n"


def test_no_report_echoes_epsilon(tmp_path, capsys):
    config = _write_config(tmp_path, "unw.json", FAMILY_DOCUMENTS["constant"])  # spectra takes no other
    coeffs = _write_config(tmp_path, "coeffs.json", {"coeffs": {"e": [0.5, 0], "1": [1, -0.5]}})
    extras = {"check": [], "commutant": [], "region": ["--grid", "0:1:0.5"], "cesaro": ["--coeffs", coeffs],
              "spectra": ["--lambda", "0.3,0.4"]}
    assert set(extras) == set(cli.COMMANDS)
    for verb, extra in extras.items():
        report = tmp_path / f"{verb}.json"
        assert main([verb, "--config", config, "--depth", "4", *extra, "--report", str(report)]) == 0, verb
        assert set(json.loads(report.read_text())["config"]) == {"weights", "depth", "tolerance"}, verb
    capsys.readouterr()


def test_region_report_names_the_verdict_rule(tmp_path, capsys):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report = tmp_path / "region.json"
    assert main(["region", "--config", config, "--grid", "0:1.2:0.2", "--depth", "6", "--report", str(report)]) == 0
    capsys.readouterr()
    document = json.loads(report.read_text())
    assert document["verdict_rule"] == {"rule": "Collatz-Wielandt bracket on the transfer matrix's spectral radius",
                                        "delta": 1e-9}
    # 0.04 (a^2 + b^2) at grid point (0.2 a, 0.2 b): inside below 25, and the four boundary points
    # (0, 5), (3, 4), (4, 3), (5, 0) in the band
    assert document["verdicts"] == {"inside": 22, "outside": 23, "inconclusive": 4}


@pytest.mark.parametrize("mode", ["cesaro", "zero_left_inverse"])
@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_nonfinite_coefficients_rejected(tmp_path, capsys, mode, bad):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    coeffs = tmp_path / "coeffs.json"
    if mode == "cesaro":
        coeffs.write_text(f'{{"coeffs": {{"1": [{bad}, 0], "e": [1, 0]}}}}')
        argv = ["cesaro", "--config", config, "--coeffs", str(coeffs)]
    else:
        coeffs.write_text(f'{{"eta1": {{"e": [0, {bad}]}}}}')
        argv = ["spectra", "--config", config, "--mode", mode, "--lambda", "0,0", "--depth", "5",
                "--coeffs", str(coeffs)]
    assert main(argv) == 2
    assert "finite numbers" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--mode", "right", "--lambda", "nan,0"], "complex literal 'nan': expected finite numbers"),
    (["--mode", "right", "--lambda=1e400,0"], "complex literal '1e400': expected finite numbers"),
    (["--mode", "left_growth", "--lambda=1e400,0"], "complex literal '1e400': expected finite numbers"),
    (["--mode", "left_growth", "--lambda=2,0", "--bound", "nan"], "assumed bound must be nonnegative and finite"),
    (["--mode", "left_growth", "--lambda=2,0", "--bound", "inf"], "assumed bound must be nonnegative and finite"),
    (["--mode", "left_growth", "--lambda=1e300,0"], "growth bound |z_1|^k = 1e+300^k leaves the float range at k = 2"),
    (["--mode", "left_growth", "--lambda=0,1e300", "--bound", "1"],
     "growth bound |z_2|^k = 1e+300^k leaves the float range at k = 2"),
])
def test_nonfinite_spectra_inputs_rejected(tmp_path, capsys, argv, message):
    # these used to exit 1 (not_in_spectrum) or 0 (inconclusive, in_spectrum) on a NaN or inf;
    # 1e300**2 in the growth table used to raise OverflowError, printed as "(34, 'Numerical result out of range')"
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report = tmp_path / "spectra.json"
    assert main(["spectra", "--config", config, "--depth", "5", *argv, "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert message in captured.err


# ---------------------------------------------------------------------------
# each verb's own options
# ---------------------------------------------------------------------------


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _options(subparser: argparse.ArgumentParser) -> list[argparse.Action]:
    return [a for a in subparser._actions if a.option_strings and a.dest != "help"]


def test_each_verb_has_exactly_its_options():
    table = {
        "check": {"--config", "--depth", "--tol", "--report"},
        "commutant": {"--config", "--depth", "--tol", "--report"},
        "region": {"--config", "--depth", "--grid", "--out", "--report"},
        "cesaro": {"--config", "--depth", "--tol", "--coeffs", "--k", "--report"},
        "spectra": {"--config", "--depth", "--tol", "--lambda", "--coeffs", "--k", "--mode", "--bound", "--report"},
    }
    subparsers = _subparsers()
    assert list(subparsers) == list(cli.COMMANDS)
    options = {verb: [flag for a in _options(sub) for flag in a.option_strings] for verb, sub in subparsers.items()}
    assert {verb: set(flags) for verb, flags in options.items()} == table
    assert sum(len(flags) for flags in options.values()) == 28
    required = {verb: {a.option_strings[0] for a in _options(sub) if a.required} for verb, sub in subparsers.items()}
    assert required == {"check": {"--config"}, "commutant": {"--config"}, "region": {"--config", "--grid"},
                        "cesaro": {"--config", "--coeffs"}, "spectra": {"--config"}}


def _written_command(tmp_path, verb):
    """A valid command line for each verb, with every file it may write under tmp_path."""
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"coeffs": {"e": [0.5, 0], "1": [1, -0.5]}}))
    extra = {
        "check": [], "commutant": [],
        "region": ["--grid", "0:1:0.5", "--out", str(tmp_path / "region.csv")],
        "cesaro": ["--coeffs", str(coeffs)],
        "spectra": ["--lambda", "0.3,0.1"],
    }[verb]
    return [verb, "--config", config, "--depth", "4", *extra, "--report", str(tmp_path / "report.json")]


@pytest.mark.parametrize("verb, foreign", [
    ("check", ["--grid", "0:1:0.1"]),
    ("commutant", ["--k", "7"]),
    ("region", ["--tol", "1e-9"]),
    ("cesaro", ["--mode", "left_growth"]),
    ("spectra", ["--out", "x.csv"]),
])
def test_foreign_option_exits_2_before_any_output(tmp_path, capsys, monkeypatch, verb, foreign):
    # the flat parser accepted every option on every verb and ignored the foreign ones
    argv = _written_command(tmp_path, verb)
    assert main(argv) == 0
    capsys.readouterr()
    for path in ("report.json", "region.csv"):
        (tmp_path / path).unlink(missing_ok=True)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, *foreign])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(foreign)}" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coeffs.json", "unw.json"]


@pytest.mark.parametrize("verb, option", [("region", "--grid"), ("cesaro", "--coeffs"), ("spectra", "--lambda")])
def test_missing_required_option_exits_2(tmp_path, capsys, verb, option):
    argv = _written_command(tmp_path, verb)
    at = argv.index(option)
    with pytest.raises(SystemExit) as exc:
        main(argv[:at] + argv[at + 2:])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"the following arguments are required: {option}" in captured.err


def test_k_defaults_per_verb(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(_written_command(tmp_path, "cesaro")) == 0
    assert json.loads(report.read_text())["order"] == 4
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    assert main(["spectra", "--config", config, "--mode", "left_growth", "--lambda", "2,0",
                 "--report", str(report)]) == 0
    assert len(json.loads(report.read_text())["results"][0]["witness"]["bounds"]) == 16
    capsys.readouterr()


@pytest.mark.parametrize("mode, flag", [
    ("right", "--k"),
    ("right", "--bound"),
    ("right", "--coeffs"),
    ("left_growth", "--coeffs"),
    ("zero_left_inverse", "--k"),
    ("zero_left_inverse", "--bound"),
])
def test_spectra_option_foreign_to_its_mode_exits_2(tmp_path, capsys, mode, flag):
    # these used to be accepted and ignored
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report = tmp_path / "spectra.json"
    value = {"--k": "5", "--bound": "1", "--coeffs": "coeffs.json"}[flag]
    argv = ["spectra", "--config", config, "--mode", mode, "--lambda", "0,0", "--depth", "4", flag, value]
    assert main([*argv, "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    reader = "zero_left_inverse" if flag == "--coeffs" else "left_growth"
    assert f"{flag} is read only by --mode {reader}, not by --mode {mode}" in captured.err


def test_readme_usage_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.replace("\\\n", " ").splitlines()]
    assert [line[1] for line in lines] == list(_subparsers())
    # None in the parser: spectra resolves --k and --bound only for --mode left_growth
    resolved = {"--depth": cli.DEFAULT_DEPTH, "--tol": cli.DEFAULT_TOLERANCE, "--k": 16, "--bound": 0.0}
    for line in lines:
        shown = re.findall(r"(\[?)(--\S+) ([^\s\]]+)\]?", " ".join(line[2:]))
        actions = _options(_subparsers()[line[1]])
        assert [flag for _, flag, _ in shown] == [a.option_strings[0] for a in actions], line[1]
        for (bracket, flag, value), action in zip(shown, actions):
            assert bool(bracket) == (not action.required), (line[1], flag)
            default = action.default if action.default is not None else resolved.get(flag)
            if bracket and default is not None:
                assert (action.type or str)(value) == default, (line[1], flag)


# ---------------------------------------------------------------------------
# the commutant output path against a copy of its Word-keyed predecessor
# ---------------------------------------------------------------------------


def _parent_to_jsonable(value):
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(_parent_to_jsonable(k)): _parent_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, frozenset, set)):
        return [_parent_to_jsonable(v) for v in value]
    return value


def _parent_cmd_commutant(config, args):
    """The commutant command keyed through mu_table and printed line by line."""
    ws = config.weights
    condition = condition6_sup(ws, config.depth)
    if condition.verdict == DIVERGING:
        print(f"commutant weights diverge: {condition.certificate}")
        report = {
            "command": "commutant",
            "config": config.echo(),
            "condition6": {"verdict": condition.verdict, "certificate": condition.certificate},
            "mu_table": None,
        }
        return 0, report

    table = {f"{i}:{w}": value for (i, w), value in mu_table(ws, config.depth).items()}
    for key in table:
        print(f"mu {key} = {table[key]:.17g}")

    space = TruncatedFock(ws.n, config.depth)
    rng = np.random.default_rng(0)
    support_cap = max(0, min(3, config.depth - 2))
    coeffs = {}
    for w in TruncatedFock(ws.n, support_cap).words():
        coeffs[w] = complex(rng.standard_normal(), rng.standard_normal())
    element = FourierElement.build(coeffs, ws)
    extraction = commutant_extract(operator_from_fourier(element, space), ws)
    recovery = max(abs(extraction.element.coeffs.get(w, 0.0) - a) for w, a in coeffs.items())
    defect = max(extraction.residual, recovery)
    passed = defect <= config.tolerance
    print(f"round-trip: {'PASS' if passed else 'FAIL'} (residual {extraction.residual:.3e}, recovery {recovery:.3e})")

    report = {
        "command": "commutant",
        "config": config.echo(),
        "condition6": {"verdict": condition.verdict, "sup_value": condition.value},
        "mu_table": table,
        "round_trip": {
            "residual": extraction.residual,
            "coefficient_recovery": recovery,
            "tolerance": config.tolerance,
            "pass": passed,
        },
    }
    return (0 if passed else 1), report


PERIODIC = {
    "n": 2, "family": "periodic", "period": 2,
    "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2},
}


def test_check_builds_its_lambda_and_mu_levels_once(tmp_path, monkeypatch):
    # the sweeps read the levels to depth 5 and condition 6 to depth 9: one build at depth 9 serves both
    calls = []
    for owner, name in ((weights.WeightSystem, "lambda_levels"), (weights.CommutantMu, "mu_levels")):
        def counted(self, depth, build=getattr(owner, name), name=name):
            calls.append((name, depth))
            return build(self, depth)
        monkeypatch.setattr(owner, name, counted)
    config = _write_config(tmp_path, "periodic.json", PERIODIC)
    assert main(["check", "--config", config, "--depth", "9"]) == 0
    assert calls == [("mu_levels", 9), ("lambda_levels", 9)]


@pytest.mark.parametrize("document, depth", [
    ({"n": 2, "family": "constant", "value": 1.5}, 7),
    (PERIODIC, 8),
    ({"n": 2, "family": "finite_perturbation", "cutoff": 1,
      "table": {"1:e": 0.5, "2:e": 1.5, "1:1": 2.0, "2:1": 0.75, "1:2": 1.25, "2:2": 3.0}, "tail": [0.9, 1.1]}, 7),
    ({"n": 2, "family": "two_letter_m", "m": 0.81, "c": 0.9}, 7),
    ({"n": 2, "family": "two_letter_m", "m": 4, "c": 1}, 7),  # diverging
    ({"n": 3, "family": "scaled", "scales": [0.5, 1.0, 2.0]}, 5),
    ({"n": 11, "family": "constant", "value": 1.0}, 2),
    (DEEP_N1, 200),
    (PERIODIC, 1),
    ({"n": 2, "family": "two_letter_m", "m": 0.5, "c": 0.75}, 10),  # bounded, as in the benchmark: c sqrt(m) <= 1
])
def test_commutant_output_matches_word_keyed_path(tmp_path, capsys, monkeypatch, document, depth):
    config = _write_config(tmp_path, "config.json", document)
    outputs = []
    for command in (cli._cmd_commutant, _parent_cmd_commutant):
        monkeypatch.setitem(cli.COMMANDS, "commutant", command)
        report = tmp_path / "report.json"
        code = main(["commutant", "--config", config, "--depth", str(depth), "--report", str(report)])
        outputs.append((code, capsys.readouterr().out, report.read_bytes()))
        report.unlink()
        # without --report: the same stdout, and no report
        assert main(["commutant", "--config", config, "--depth", str(depth)]) == code
        assert capsys.readouterr().out == outputs[-1][1] and not report.exists()
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


def test_commutant_keys_every_entry_above_nine_letters(tmp_path, capsys):
    # 11 (1 + 11 + 121) entries: the letter 11 is '11.', the word 1*1 is '11'
    config = _write_config(tmp_path, "n11.json", {"n": 11, "family": "constant", "value": 1.0})
    report = tmp_path / "n11.report.json"
    assert main(["commutant", "--config", config, "--depth", "2", "--report", str(report)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("mu ")]
    table = json.loads(report.read_text())["mu_table"]
    assert len(lines) == len(set(lines)) == len(table) == 1463
    assert {"11:11.", "11:11", "1:1.11", "1:11.1"} <= table.keys()


def test_commutant_builds_no_word_per_entry(tmp_path, capsys, monkeypatch):
    config = _write_config(tmp_path, "per.json", PERIODIC)
    built = [0]
    init = Word.__init__

    def counted_init(self, letters=()):
        built[0] += 1
        init(self, letters)

    monkeypatch.setattr(Word, "__init__", counted_init)
    counts = []
    for depth in (6, 10):
        built[0] = 0
        assert main(["commutant", "--config", config, "--depth", str(depth)]) == 0
        counts.append(built[0])
    capsys.readouterr()
    # the round trip's support is capped at length 3, so its Words do not grow with depth
    assert counts[0] == counts[1]


def test_spliced_mu_table_equals_json_dumps_of_the_table(tmp_path, capsys, monkeypatch):
    # %.17g and repr differ on each: 0.10000000000000001 and 0.1, 1.0000000000000001e-300 and 1e-300, 1 and 1.0
    values, depth = [0.1, 1 / 3, 1e-300, 1e300, 1.0, 2.5, 0.1], 3

    class CyclingMu(weights.CommutantMu):
        # the table's depth cycles through the values; the round trip reads depth - 1, which stays exact
        def kept_mu_levels(self, levels_depth):
            if levels_depth != depth:
                return super().kept_mu_levels(levels_depth)
            cells = itertools.cycle(values)
            return [np.array([[next(cells) for _ in range(self.n**k)] for _ in range(self.n)])
                    for k in range(depth + 1)]

    monkeypatch.setattr(weights, "CommutantMu", CyclingMu)
    returned, command = [], cli.COMMANDS["commutant"]

    def recorded(config, args):
        code, report = command(config, args)
        returned.append((code, {"command": "commutant", "config": config.echo(), **report}))  # as run_command writes it
        return code, report

    monkeypatch.setitem(cli.COMMANDS, "commutant", recorded)
    path = tmp_path / "report.json"
    assert main(["commutant", "--config", _write_config(tmp_path, "per.json", PERIODIC), "--depth", str(depth),
                 "--report", str(path)]) == 0
    levels = CyclingMu(parse_config(PERIODIC).weights).kept_mu_levels(depth)
    table = {f"{i}:{label}": value for k, labels in enumerate(level_labels(2, depth))
             for label, column in zip(labels, levels[k].T.tolist()) for i, value in zip((1, 2), column)}
    assert len(table) == 30 and set(table.values()) == set(values)
    out = capsys.readouterr().out
    assert out.startswith("".join(f"mu {key} = {value:.17g}\n" for key, value in table.items()))
    _, report = returned[0]
    assert isinstance(report["mu_table"], str)
    expected = json.dumps(_parent_to_jsonable({**report, "mu_table": table}), indent=2, sort_keys=True) + "\n"
    assert path.read_text() == expected
    assert '"1:2": 1e+300' in expected and "mu 1:2 = 1.0000000000000001e+300\n" in out
    assert '"1:e": 0.1' in expected and "mu 1:e = 0.10000000000000001\n" in out
    _emit_report(report, None)
    assert capsys.readouterr().out == expected


def test_emit_report_matches_recursive_conversion(tmp_path, capsys):
    report = {
        "floats": [np.float64(0.1), 1e-300, math.inf, np.float32(2.5)],
        "ints": (np.int64(7), 3, True, None),
        "complex": complex(1.5, -2.0),
        "set": frozenset({Word([2]), 4}),
        "nested": [[{"x": (np.float64(1.25), [complex(0, 1)])}], {1: "one"}],
    }
    expected = json.dumps(_parent_to_jsonable(report), indent=2, sort_keys=True) + "\n"
    path = tmp_path / "report.json"
    _emit_report(report, str(path))
    assert path.read_text() == expected
    _emit_report(report, None)
    assert capsys.readouterr().out == expected
    # json writes only text, number, boolean and null keys, and no report has another
    with pytest.raises(TypeError, match="Word"):
        _emit_report({"words": {Word([1, 2]): Word([12, 3])}}, None)


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys):
    periodic = _write_config(tmp_path, "periodic.json", {
        "n": 2, "family": "periodic", "period": 2,
        "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2},
    })
    scaled = _write_config(tmp_path, "scaled.json", {"n": 2, "family": "scaled", "scales": [2, 3]})
    # spectra answers only for the unweighted tuple and refuses any other weights
    unweighted = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    report = tmp_path / "report.json"
    runs = [
        ["spectra", "--config", unweighted, "--lambda", "0.1,0.2", "--lambda", "3,0", "--depth", "5"],
        ["check", "--config", periodic, "--depth", "5", "--tol", "1e-9"],
        ["spectra", "--config", unweighted, "--lambda", "0.3,0.1", "--depth", "5"],
        ["region", "--config", scaled, "--grid", "0:1:0.5", "--depth", "6"],
        ["check", "--config", scaled, "--depth", "0"],
        ["commutant", "--config", periodic, "--depth", "3"],
        ["spectra", "--config", unweighted, "--mode", "left_growth", "--lambda", "2,0", "--k", "3", "--depth", "5"],
        ["check", "--config", scaled],
    ]

    def outcome(argv, fresh):
        if fresh:
            cli.build_parser.cache_clear()
        report.unlink(missing_ok=True)
        code = main([*argv, "--report", str(report)])
        text = json.loads(report.read_text()) if report.exists() else None
        if text is not None:
            text.pop("timing_seconds", None)
        return code, capsys.readouterr(), text

    cached = [outcome(argv, fresh=False) for argv in runs]
    fresh = [outcome(argv, fresh=True) for argv in runs]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 2, 0, 0, 0]
    # --lambda appends into a new list on every call
    assert [len(text["results"]) for _, _, text in cached if text and text["command"] == "spectra"] == [2, 1, 1]
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# spectra and the config parser against copies of their predecessors
# ---------------------------------------------------------------------------


def _parent_cmd_spectra(config, args):
    """The spectra command that built each mode's entry in its own dict and
    re-read the eta document and re-ran zero_left_inverses at every point."""
    mode = args.mode
    for flag, value, reader in (("--k", args.k, cli.MODE_LEFT_GROWTH), ("--bound", args.bound, cli.MODE_LEFT_GROWTH),
                                ("--coeffs", args.coeffs, cli.MODE_ZERO_LEFT_INVERSE)):
        if value is not None and mode != reader:
            raise ConfigError(f"{flag} is read only by --mode {reader}, not by --mode {mode}")
    reports = []
    failed = False
    for text in args.lam:
        point = parse_lambda(text)
        if len(point) != config.weights.n:
            raise ConfigError(f"--lambda {text!r} has {len(point)} coordinates, expected {config.weights.n}")
        if mode == cli.MODE_RIGHT:
            result = spectra.right_membership(point, config.depth)
            ok = all(d <= config.tolerance for name, d in result.defects.items() if name != "identity_top_level")
            failed |= not ok
            reports.append({"lambda": list(point), "mode": result.mode, "verdict": result.verdict,
                            "defects": result.defects, "witness": result.witness, "pass": ok})
        elif mode == cli.MODE_LEFT_GROWTH:
            if all(abs(z) < 1.0 - 1e-12 for z in point):
                reports.append(
                    {"lambda": list(point), "mode": mode, "verdict": "unknown", "defects": {}, "witness": {}, "pass": True}
                )
                continue
            k, bound = 16 if args.k is None else args.k, 0.0 if args.bound is None else args.bound
            cert = cli.left_growth_certificate(point, k, bound)
            reports.append({
                "lambda": list(point), "mode": mode, "verdict": "in_spectrum" if cert.unbounded else "inconclusive",
                "defects": {},
                "witness": {"case": cert.case, "operator_index": cert.operator_index, "run_letter": cert.run_letter,
                            "assumed_bound": cert.assumed_bound, "bounds": cert.bounds},
                "pass": True,
            })
        else:
            etas = {"eta1": {}, "eta2": {}}
            if args.coeffs:
                with open(args.coeffs) as handle:
                    document = json.load(handle)
                for key in etas:
                    entries = document.get(key, {})
                    etas[key] = {cli.parse_word(k): cli._complex_pair(v, f"{args.coeffs}: {key}.{k}")
                                 for k, v in entries.items()}
            result = cli.zero_left_inverses(etas["eta1"], etas["eta2"], config.depth)
            tol = max(config.tolerance, 1e-9)
            ok = result.max_identity_defect <= tol and result.reconstruction_residual <= tol
            failed |= not ok
            reports.append({
                "lambda": list(point), "mode": mode, "verdict": "solutions_exist" if ok else "check_failed",
                "defects": {"identity": result.max_identity_defect, "reconstruction": result.reconstruction_residual},
                "witness": {"form": "rank-one perturbations of the adjoint shifts", "method": "structural"},
                "pass": ok,
            })
    for entry in reports:
        print(f"lambda {entry['lambda']}: {entry['verdict']} ({'PASS' if entry['pass'] else 'FAIL'})")
    report = {"command": "spectra", "config": config.echo(), "mode": mode, "results": reports}
    return (0 if not failed else 1), report


_PARENT_FAMILY_FIELDS = {
    "constant": {"value"},
    "scaled": {"scales"},
    "finite_perturbation": {"cutoff", "table", "tail"},
    "periodic": {"period", "remainders"},
    "two_letter_m": {"m", "c"},
}


def _parent_parse_config(document):
    """The parser that listed the schema in one table and read it in an if/elif chain."""
    _expect, _integer, _positive_number = cli._expect, cli._integer, cli._positive_number
    _expect(isinstance(document, dict), "$", "config must be a JSON object")
    _expect("n" in document, "$.n", "missing alphabet size")
    _expect("family" in document, "$.family", "missing weight family")
    n = _integer(document["n"], "$.n", 1)
    family = document["family"]
    _expect(family in _PARENT_FAMILY_FIELDS, "$.family",
            f"unknown family {family!r}, expected one of {sorted(_PARENT_FAMILY_FIELDS)}")
    allowed = {"n", "family"} | _PARENT_FAMILY_FIELDS[family] | cli.RUN_FIELDS
    for key in document:
        _expect(key in allowed, f"$.{key}", f"unknown field for family {family!r}")
    for key in _PARENT_FAMILY_FIELDS[family]:
        _expect(key in document, f"$.{key}", "missing required field")
    try:
        if family == "constant":
            weights = ConstantWeights(n, _positive_number(document["value"], "$.value"))
        elif family == "scaled":
            weights = cli.ScaledWeights(n, cli._positive_list(document["scales"], n, "$.scales"))
        elif family == "finite_perturbation":
            weights = cli.FinitePerturbationWeights(
                n,
                _integer(document["cutoff"], "$.cutoff", 0),
                cli._weight_table(document["table"], n, "$.table"),
                cli._positive_list(document["tail"], n, "$.tail"),
            )
        elif family == "periodic":
            period = _integer(document["period"], "$.period", 1)
            weights = PeriodicWeights(n, period, cli._weight_table(document["remainders"], n, "$.remainders"))
        else:
            _expect(n == 2, "$.n", "family 'two_letter_m' requires n = 2")
            weights = TwoLetterRunWeights(_positive_number(document["m"], "$.m"), _positive_number(document["c"], "$.c"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"$.{family}: {exc}") from exc
    depth = _integer(document.get("depth", cli.DEFAULT_DEPTH), "$.depth", 1)
    tolerance = document.get("tolerance", cli.DEFAULT_TOLERANCE)
    _expect(cli._is_number(tolerance) and 0 < tolerance < math.inf, "$.tolerance", "expected a positive finite number")
    return cli.RunConfig(weights, dict(document), depth, float(tolerance))


def _outcomes(tmp_path, capsys, argv, report):
    report.unlink(missing_ok=True)
    code = main([*argv, "--report", str(report)])
    captured = capsys.readouterr()
    text = report.read_text() if report.exists() else ""
    return code, captured.out, captured.err, re.sub(r'"timing_seconds": \{[^}]*\}', "", text)


def _spectra_argvs(tmp_path):
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    etas = tmp_path / "etas.json"
    etas.write_text(json.dumps({"eta1": {"21": [1, 0]}, "eta2": {"e": [0, 0.5]}}))
    bad = tmp_path / "bad.json"
    bad.write_text('{"eta1": {"e": [0, NaN]}}')
    deep = tmp_path / "deep.json"
    deep.write_text(json.dumps({"eta1": {"1212121": [1, 0]}}))
    zero = ["--mode", "zero_left_inverse"]
    cases = [
        ["--lambda", "0.3+0.1i,0.4", "--lambda", "2,0", "--lambda", "0.6,0.8"],
        ["--lambda", "0.5,0.5", "--tol", "1e-40", "--depth", "6"],
        ["--lambda", "0.3,0.4", "--lambda", "nope"],
        ["--lambda", "0.3,0.4,1"],
        ["--mode", "left_growth", "--lambda", "1,0", "--lambda", "0.9,0.9", "--lambda", "2,0.5", "--k", "5",
         "--bound", "1.5"],
        ["--mode", "left_growth", "--lambda", "0.1,0.1", "--lambda=-1i,0.5"],
        ["--mode", "left_growth", "--lambda", "0.1,0.1", "--k", "0"],
        ["--mode", "left_growth", "--lambda", "2,0", "--k", "0"],
        [*zero, "--lambda", "0,0", "--lambda", "0,0", "--depth", "5"],
        [*zero, "--lambda", "0,0", "--depth", "6", "--coeffs", str(etas)],
        [*zero, "--lambda", "0,0", "--lambda", "bad", "--coeffs", str(bad)],  # the eta file fails first
        [*zero, "--lambda", "bad", "--coeffs", str(bad)],  # the malformed point fails first
        [*zero, "--lambda", "0,0", "--lambda", "0,0", "--depth", "4", "--coeffs", str(deep)],
        [*zero, "--lambda", "0,0", "--tol", "1e-30"],
        ["--lambda", "0,0", "--k", "3"],
    ]
    return [["spectra", "--config", config, "--depth", "5", *case] for case in cases]


def test_spectra_output_matches_per_mode_entries(tmp_path, capsys, monkeypatch):
    report = tmp_path / "report.json"
    for argv in _spectra_argvs(tmp_path):
        outputs = []
        for command in (cli._cmd_spectra, _parent_cmd_spectra):
            monkeypatch.setitem(cli.COMMANDS, "spectra", command)
            outputs.append(_outcomes(tmp_path, capsys, argv, report))
        assert outputs[0] == outputs[1], argv


PARSER_DOCUMENTS = [
    [], {"family": "constant"}, {"n": 2}, {"n": 0, "family": "constant", "value": 1},
    {"n": 2, "family": "nope"}, {"n": 2, "family": "constant"}, {"n": 2, "family": "constant", "value": 1, "x": 1},
    {"n": 2, "family": "constant", "value": -1}, {"n": 2, "family": "constant", "value": True},
    {"n": 2, "family": "constant", "value": 1.5, "depth": 4, "tolerance": 1e-9, "epsilon": 0.1},
    {"n": 2, "family": "scaled", "scales": [1]}, {"n": 2, "family": "scaled", "scales": [1, "a"]},
    {"n": 3, "family": "scaled", "scales": [0.5, 1, 2]},
    {"n": 2, "family": "finite_perturbation", "cutoff": -1, "table": {}, "tail": [1, 1]},
    {"n": 2, "family": "finite_perturbation", "cutoff": 0, "table": {"1:e": 1}, "tail": [1, 1]},
    {"n": 2, "family": "finite_perturbation", "cutoff": 0, "table": {"1:e": 1, "2:e": 1}, "tail": [1]},
    {"n": 2, "family": "finite_perturbation", "cutoff": 0, "table": [], "tail": [1, 1]},
    {"n": 2, "family": "finite_perturbation", "cutoff": 0, "table": {"1:e": 0.5, "2:e": 2}, "tail": [0.9, 1.1]},
    {"n": 2, "family": "periodic", "period": 0, "remainders": {}},
    {"n": 2, "family": "periodic", "period": 1, "remainders": {"1:e": 1}},
    {"n": 2, "family": "periodic", "period": 1, "remainders": {"1:x": 1}},
    {"n": 2, "family": "periodic", "remainders": {}}, PERIODIC,
    {"n": 3, "family": "two_letter_m", "m": 1, "c": 1}, {"n": 3, "family": "two_letter_m", "m": -1, "c": 1},
    {"n": 2, "family": "two_letter_m", "m": 0, "c": 1}, {"n": 2, "family": "two_letter_m", "m": 1, "c": "x"},
    {"n": 2, "family": "two_letter_m", "m": 1}, {"n": 2, "family": "two_letter_m", "m": 4, "c": 1},
    {"n": 2, "family": "constant", "value": 1, "depth": 0},
    {"n": 2, "family": "constant", "value": 1, "tolerance": -1},
    {"n": 2, "family": "constant", "value": 1, "epsilon": "x"},
]


@pytest.mark.parametrize("document", PARSER_DOCUMENTS)
def test_parse_config_matches_if_elif_parser(tmp_path, capsys, monkeypatch, document):
    # one missing field at most: the old parser iterated a set, whose order varied from run to run
    argv = ["check", "--config", _write_config(tmp_path, "config.json", document), "--depth", "3"]
    outputs = []
    for parser in (cli.parse_config, _parent_parse_config):
        monkeypatch.setattr(cli, "parse_config", parser)
        outputs.append(_outcomes(tmp_path, capsys, argv, tmp_path / "report.json"))
    assert outputs[0] == outputs[1]


def test_family_table_keeps_the_schema():
    assert {family: set(fields) for family, (fields, _) in cli.FAMILIES.items()} == _PARENT_FAMILY_FIELDS


def test_zero_left_reads_the_eta_file_and_checks_once(tmp_path, capsys, monkeypatch):
    # the outcome depends on no point: three origin points used to read the file and solve three times
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    etas = tmp_path / "etas.json"
    etas.write_text(json.dumps({"eta1": {"21": [1, 0]}, "eta2": {"e": [0, 0.5]}}))
    calls, opened = [0], []

    def counted(*args):
        calls[0] += 1
        return zero_left_inverses(*args)

    def counted_open(path, *args, **kwargs):
        opened.append(str(path))
        return open(path, *args, **kwargs)

    zero_left_inverses = cli.zero_left_inverses
    monkeypatch.setattr(cli, "zero_left_inverses", counted)
    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    argv = ["spectra", "--config", config, "--mode", "zero_left_inverse", "--depth", "5", "--coeffs", str(etas)]
    assert main([*argv, "--lambda", "0,0", "--lambda", "0,0", "--lambda", "0,0"]) == 0
    assert calls[0] == 1 and opened.count(str(etas)) == 1
    assert capsys.readouterr().out.count("solutions_exist (PASS)") == 3


@pytest.mark.parametrize("document, argv, message", [
    ({"n": 3, "family": "constant", "value": 1.0}, ["--mode", "zero_left_inverse", "--lambda", "0,0,0"],
     "--mode zero_left_inverse is defined for n = 2, not n = 3"),
    ({"n": 2, "family": "constant", "value": 1.0}, ["--mode", "zero_left_inverse", "--lambda", "0.5,0"],
     "--lambda '0.5,0' is not the origin, the only point --mode zero_left_inverse checks"),
    ({"n": 2, "family": "constant", "value": 1.0},
     ["--mode", "zero_left_inverse", "--lambda", "0,0", "--lambda", "0,1e-300i"],
     "--lambda '0,1e-300i' is not the origin"),
    (PERIODIC, ["--lambda", "0.5,0.5"],
     "spectra covers only the unweighted tuple (family 'constant', value 1), not family 'periodic'"),
    ({"n": 2, "family": "scaled", "scales": [2, 3]}, ["--mode", "left_growth", "--lambda", "2,0"],
     "not family 'scaled'"),
    ({"n": 2, "family": "constant", "value": 2}, ["--mode", "zero_left_inverse", "--lambda", "0,0"],
     "spectra covers only the unweighted tuple (family 'constant', value 1), not value 2.0"),
])
def test_spectra_refuses_inputs_it_would_misread(tmp_path, capsys, document, argv, message):
    # each of these used to print a PASS verdict for the unweighted n = 2 tuple at the origin
    config = _write_config(tmp_path, "config.json", document)
    report = tmp_path / "spectra.json"
    assert main(["spectra", "--config", config, "--depth", "4", *argv, "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not report.exists()
    assert captured.err.startswith("configuration error: ") and message in captured.err


def test_fock_space_size_guard_exits_2_before_allocating(tmp_path, capsys):
    # depth 45 used to ask numpy for 512 TiB and exit 1 with a traceback
    with pytest.raises(ValueError, match=r"n = 2, depth = 21 has dimension 4194303, above the 2097152 guard"):
        TruncatedFock(2, 21)
    assert TruncatedFock(2, 20).dimension == 2**21 - 1  # the largest space admitted for n = 2
    # past the guard's level the count stops: the message names a lower bound, never an
    # integer of more digits than Python formats (depth 20000 has 6021)
    with pytest.raises(ValueError, match=r"^Fock space for n = 2, depth = 80000 has dimension over 4194303, above"):
        TruncatedFock(2, 80000)
    # n = 1 has one word per level, so its dimension depth + 1 is exact and refused without counting
    with pytest.raises(ValueError, match=r"^Fock space for n = 1, depth = 1000000000 has dimension 1000000001, "
                                         r"above the 2097152 guard; lower depth or n$"):
        TruncatedFock(1, 10**9)
    config = _write_config(tmp_path, "unw.json", {"n": 2, "family": "constant", "value": 1.0})
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"coeffs": {"e": [0.5, 0], "1": [1, -0.5]}}))
    for argv, depth in ((["cesaro", "--coeffs", str(coeffs)], 45), (["spectra", "--lambda", "2,0"], 45),
                        (["check"], 20000)):
        assert main([argv[0], "--config", config, "--depth", str(depth), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"precondition error: Fock space for n = 2, depth = {depth} has dimension "
                                "over 4194303, above the 2097152 guard; lower depth or n\n")


def test_cli_loads_neither_csgraph_nor_linalg(tmp_path):
    # a fresh interpreter: importing the CLI, or running region, must not pull in these scipy subpackages,
    # whose import time every command would pay (scipy.sparse.csgraph alone takes about 0.1 s)
    config = _write_config(tmp_path, "periodic.json", {
        "n": 2, "family": "periodic", "period": 2,
        "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2}})
    code = (
        "import sys\n"
        "import fockshift.cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith(('scipy.sparse.csgraph', 'scipy.linalg')))\n"
        "print(loaded())\n"
        f"fockshift.cli.main(['region', '--config', {config!r}, '--grid', '0:1.2:0.2', '--depth', '6',"
        f" '--out', {str(tmp_path / 'region.csv')!r}])\n"
        "print(loaded())\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"


def test_only_commands_that_build_sparse_matrices_load_scipy_sparse(tmp_path):
    # a fresh interpreter: check and region compose column maps, spectra --mode right reads one
    # coefficient array and --mode zero_left_inverse the shifts' column maps, and commutant and cesaro
    # read their defects off the support grids, so no verb pays the scipy.sparse import
    config = _write_config(tmp_path, "periodic.json", PERIODIC)
    unweighted = _write_config(tmp_path, "unweighted.json", {"n": 2, "family": "constant", "value": 1.0})
    coeffs = _write_config(tmp_path, "coeffs.json", {"coeffs": {"e": [0.5, 0], "1": [1, -0.5], "21": [0, 0.25]}})
    commands = [["check", "--config", config, "--depth", "6"],
                ["region", "--config", config, "--grid", "0:1.2:0.2", "--depth", "6",
                 "--out", str(tmp_path / "region.csv")],
                ["spectra", "--config", unweighted, "--depth", "6", "--lambda", "0.3,0.4", "--lambda", "1.2,0"],
                ["spectra", "--config", unweighted, "--depth", "6", "--mode", "zero_left_inverse"],
                ["commutant", "--config", config, "--depth", "5"],
                ["cesaro", "--config", config, "--depth", "6", "--coeffs", coeffs, "--k", "2"]]
    code = (
        "import contextlib, io, sys\n"
        "from fockshift.cli import main\n"
        "codes, loaded = [], ['scipy.sparse' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {commands!r}:\n"
        "        codes.append(main(argv))\n"
        "        loaded.append('scipy.sparse' in sys.modules)\n"
        "print(codes, loaded)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0, 0, 0] [False, False, False, False, False, False, False]\n"


def test_region_at_depth_1000_writes_nothing_to_stderr(tmp_path):
    # the README example's level sums add up past the float range at the outer points, whose inf
    # partial sum is judged outside; numpy's overflow warning went to stderr, and the CSV is unchanged
    csv, src = tmp_path / "region.csv", str(Path(__file__).resolve().parent.parent / "src")
    argv = [sys.executable, "-m", "fockshift.cli", "region", "--config", _write_config(tmp_path, "p.json", PERIODIC),
            "--grid", "0:1.5:0.05", "--depth", "1000", "--out", str(csv)]
    result = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "1c43e61341843d02fa75e2d88ac8c3a0b0ce435dc4b36d1c3c33967acc6d9cc4")


# ---------------------------------------------------------------------------
# every verb over generated command lines, config documents and input files
# ---------------------------------------------------------------------------


_DOCUMENTS = [
    {"n": 1, "family": "constant", "value": 2.0},
    {"n": 2, "family": "constant", "value": 1.0},
    {"n": 2, "family": "constant", "value": 1e-200},
    {"n": 3, "family": "scaled", "scales": [0.5, 1.0, 2.0]},
    PERIODIC,
    {"n": 2, "family": "finite_perturbation", "cutoff": 1,
     "table": {"1:e": 0.5, "2:e": 1.5, "1:1": 2.0, "2:1": 0.75, "1:2": 1.25, "2:2": 3.0}, "tail": [0.9, 1.1]},
    {"n": 2, "family": "two_letter_m", "m": 0.81, "c": 0.9},
    {"n": 2, "family": "two_letter_m", "m": 4, "c": 1},
    FAR_SUPREMUM,
]
_FIELDS = ["n", "family", "value", "scales", "period", "remainders", "cutoff", "table", "tail", "m", "c",
           "depth", "tolerance", "epsilon", "bogus"]
_ODD_VALUES = [0, -1, 1.5, 1e-300, 1e300, math.inf, math.nan, "x", None, True, [], {}, [1.0, 1.0]]
_CONFIG_TEXTS = st.one_of(
    st.sampled_from(_DOCUMENTS),
    st.builds(lambda d, key, value: {**d, key: value},
              st.sampled_from(_DOCUMENTS), st.sampled_from(_FIELDS), st.sampled_from(_ODD_VALUES)),
    st.builds(lambda d, key: {k: v for k, v in d.items() if k != key},
              st.sampled_from(_DOCUMENTS), st.sampled_from(_FIELDS)),
    st.builds(lambda value: {"n": 2, "family": "constant", "value": value},
              st.floats(min_value=1e-300, max_value=1e300)),
).map(json.dumps) | st.sampled_from(["", "{", "[]", "null", "\x80"])
_COEFF_TEXTS = st.sampled_from([
    {"coeffs": {"e": [0.5, 0], "1": [1, -0.5]}}, {"coeffs": {"12": [1, 0], "2": [0, 2]}},
    {"coeffs": {"11111111": [1, 0]}}, {"coeffs": {"3": [1, 0]}}, {"coeffs": {"e": [math.nan, 0]}},
    {"coeffs": {"e": "x"}}, {"coeffs": {"1 2": [1, 0]}}, {"coeffs": []}, {}, [],
]).map(json.dumps) | st.sampled_from(["", "{"])
_ETA_TEXTS = st.sampled_from([
    {"eta1": {"e": [0.1, 0]}, "eta2": {"1": [0, 0.2]}}, {"eta1": {}, "eta2": {}}, {"eta1": []},
    {"eta1": {"e": [math.inf, 0]}}, {"eta2": {"zz": [1, 0]}}, [], {"eta1": {"e": [1]}},
]).map(json.dumps) | st.sampled_from(["", "{"])


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_exits_0_1_or_2_and_exit_2_prints_nothing(tmp_path, capsys, data):
    draw = data.draw
    capsys.readouterr()
    (tmp_path / "out").mkdir(exist_ok=True)
    for stale in (tmp_path / "out").iterdir():
        stale.unlink()

    def written(name, texts):
        # one of: a file holding a drawn text, or a path to no file
        if draw(st.booleans(), label=f"{name} missing"):
            return str(tmp_path / "absent" / name)
        path = tmp_path / name
        path.write_text(draw(texts, label=name))
        return str(path)

    def output(name):
        where = draw(st.sampled_from(["none", "file", "missing directory", "directory"]), label=name)
        return {"none": [], "file": [str(tmp_path / "out" / name)], "directory": [str(tmp_path / "out")],
                "missing directory": [str(tmp_path / "absent" / name)]}[where]

    def option(flag, values):
        value = draw(st.sampled_from([None, *values]), label=flag)
        return [] if value is None else [flag, value]

    verb = draw(st.sampled_from(list(cli.COMMANDS)), label="verb")
    argv = [verb, "--config", written("config.json", _CONFIG_TEXTS),
            "--depth", draw(st.sampled_from(["-1", "0", "1", "2", "3", "4"]), label="depth")]
    if verb != "region":
        argv += option("--tol", ["1e-9", "0", "nan", "abc"])
    if verb == "region":
        argv += option("--grid", ["0:1:0.5", "0:1.2:0.4", "0:1:0", "1:0:0.5", "0:1:nan", "a:b:c", "0:1"])
        out = output("region.csv")
        argv += ["--out", *out] if out else []
    elif verb == "cesaro":
        argv += ["--coeffs", written("coeffs.json", _COEFF_TEXTS), *option("--k", ["0", "1", "4", "-1", "x"])]
    elif verb == "spectra":
        argv += option("--mode", ["right", "left_growth", "zero_left_inverse", "bogus"])
        for point in draw(st.lists(st.sampled_from(["0,0", "0.3,0.1", "0.3+0.1i,0.4", "2,0", "1,0", "0.5",
                                                   "1e400,0", "1e300,0", "x,0", "0,0,0"]), max_size=2), label="points"):
            argv += ["--lambda", point]
        argv += option("--k", ["3", "0"]) + option("--bound", ["0", "-1", "nan"])
        if draw(st.booleans(), label="eta file"):
            argv += ["--coeffs", written("eta.json", _ETA_TEXTS)]
    report = output("report.json")
    argv += ["--report", *report] if report else []

    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refused the command line
        code = exc.code
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    assert code != 2 or out == "", argv
