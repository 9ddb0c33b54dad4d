import json
import math

import numpy as np
import pytest

from fockshift import ConstantWeights, PeriodicWeights, TwoLetterRunWeights, cli
from fockshift.algebra import FourierElement, commutant_extract, operator_from_fourier
from fockshift.cli import (
    ConfigError,
    _emit_report,
    main,
    parse_config,
    parse_lambda,
)
from fockshift.fock import TruncatedFock
from fockshift.weights import DIVERGING, condition6_sup, mu_table
from fockshift.words import EMPTY, Word


def test_parse_config_constant_defaults():
    config = parse_config({"n": 2, "family": "constant", "value": 1.0})
    assert isinstance(config.weights, ConstantWeights)
    assert config.depth == 8
    assert config.tolerance == 1e-10
    assert config.epsilon == 0.02


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


def test_exit_code_2_on_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "family": "constant"}))
    assert main(["check", "--config", str(bad)]) == 2
    assert "configuration error" in capsys.readouterr().err


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
    # an infinite tolerance passed every check; an infinite epsilon left every point inconclusive
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


def test_arithmetic_error_exits_2(tmp_path, capsys):
    # W(e, 1^90) = 0.0001^88 underflows to 0, and operator_from_fourier divides by it
    config = _write_config(tmp_path, "deep.json", dict(DEEP_N1, tail=[0.0001]))
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"coeffs": {"1" * 90: [1, 0]}}))
    assert main(["cesaro", "--config", config, "--coeffs", str(coeffs), "--depth", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition error:") and len(err.strip().splitlines()) == 1


def test_deep_commutant_round_trip(tmp_path, capsys):
    # W_mu(e, v) underflows near |v| = 190; the expansion carries only its ratios
    config = _write_config(tmp_path, "deep.json", DEEP_N1)
    assert main(["commutant", "--config", config, "--depth", "200"]) == 0
    assert "round-trip: PASS" in capsys.readouterr().out


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
    for w in TruncatedFock(ws.n, support_cap).basis.words():
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
])
def test_commutant_output_matches_word_keyed_path(tmp_path, capsys, monkeypatch, document, depth):
    config = _write_config(tmp_path, "config.json", document)
    outputs = []
    for command, to_jsonable in ((cli._cmd_commutant, cli._to_jsonable), (_parent_cmd_commutant, _parent_to_jsonable)):
        monkeypatch.setitem(cli.COMMANDS, "commutant", command)
        monkeypatch.setattr(cli, "_to_jsonable", to_jsonable)
        report = tmp_path / "report.json"
        code = main(["commutant", "--config", config, "--depth", str(depth), "--report", str(report)])
        outputs.append((code, capsys.readouterr().out, report.read_bytes()))
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


def test_emit_report_matches_recursive_conversion(tmp_path, capsys):
    report = {
        "floats": [np.float64(0.1), 1e-300, math.inf, np.float32(2.5)],
        "ints": (np.int64(7), 3, True, None),
        "complex": complex(1.5, -2.0),
        "words": {Word([1, 2]): Word([12, 3]), EMPTY: [Word([1])]},
        "set": frozenset({Word([2]), 4}),
        "nested": [[{"x": (np.float64(1.25), [complex(0, 1)])}], {1: "one"}],
    }
    expected = json.dumps(_parent_to_jsonable(report), indent=2, sort_keys=True) + "\n"
    path = tmp_path / "report.json"
    _emit_report(report, str(path))
    assert path.read_text() == expected
    _emit_report(report, None)
    assert capsys.readouterr().out == expected
