"""tools/compare_outputs.py on one seed: a tree against itself on ``verify``
and ``recover``, against a copy whose check lines print another tolerance
format, against a copy whose region CSV prints 16 digits, and against a copy
whose sweeps pick another witness, which only the fixed checks reach; and its
fixed invocations, each run to the exit and the column range it names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _compare(parent: Path, change: Path, workload: str = "verify") -> subprocess.CompletedProcess:
    argv = [sys.executable, str(ROOT / "tools" / "compare_outputs.py"), "--parent", str(parent),
            "--change", str(change), "--seeds", "1", "--workloads", workload]
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself():
    result = _compare(ROOT, ROOT)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "15 invocations on 1 workloads x 1 seeds and 8 fixed invocations: 0 differences\n"


def test_compare_outputs_finds_no_difference_on_recover():
    # recover runs commutant, cesaro and spectra, whose shift products are gathers on the column maps
    result = _compare(ROOT, ROOT, "recover")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "17 invocations on 1 workloads x 1 seeds and 8 fixed invocations: 0 differences\n"


def test_compare_outputs_lists_each_difference_and_exits_1(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = tmp_path / "src" / "fockshift" / "cli.py"
    text = cli.read_text()
    assert text.count("tolerance {entry['tolerance']:.1e}") == 1
    cli.write_text(text.replace("tolerance {entry['tolerance']:.1e}", "tolerance {entry['tolerance']:.2e}"))
    result = _compare(ROOT, tmp_path)
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    # the warm-up, the six checks and the two fixed checks each print changed
    # check lines; reports and stderr are unchanged, and cesaro and commutant print no check line
    assert lines[-1] == "15 invocations on 1 workloads x 1 seeds and 8 fixed invocations: 9 differences"
    assert all(": stdout differs, line " in line for line in lines[:-1])
    assert "tolerance 1.0e-10" in lines[0] and "tolerance 1.00e-10" in lines[0]


def test_compare_outputs_lists_each_csv_difference(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    eigen = tmp_path / "src" / "fockshift" / "eigen.py"
    text = eigen.read_text()
    assert text.count('"%.17g"') == 1
    eigen.write_text(text.replace('"%.17g"', '"%.16g"'))
    result = _compare(ROOT, tmp_path, "region")
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    # the warm-up and the three grids each write a changed CSV; stdout, reports and stderr are unchanged
    assert lines[-1] == "12 invocations on 1 workloads x 1 seeds and 8 fixed invocations: 4 differences"
    assert len(lines) == 5 and all(": csv differs, line " in line for line in lines[:-1])


def test_compare_outputs_always_compares_the_fixed_checks_witnesses(tmp_path):
    # region runs no check, so only the fixed checks see sweeps that take the
    # largest key of the worst defect: constant 1e300 has many NaN defects,
    # and its witness changes; the rounding maximum of scaled (1, 1e-14) is unique
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    weights = tmp_path / "src" / "fockshift" / "weights.py"
    text = weights.read_text()
    assert text.count("keys.append(min(") == 1
    weights.write_text(text.replace("keys.append(min(", "keys.append(max("))
    result = _compare(ROOT, tmp_path, "region")
    assert result.returncode == 1, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-1] == "12 invocations on 1 workloads x 1 seeds and 8 fixed invocations: 1 differences"
    assert lines[0].startswith("fixed seed 0, check constant_1e300 depth 4: report differs")


def test_fixed_invocations_reach_what_they_are_there_for(tmp_path):
    # an invocation refused at its config would read the same on both trees and compare nothing
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); import compare_outputs; "
             "outputs = compare_outputs.collect(sys.argv[2], [], [], sys.argv[3]); "
             "print(json.dumps({key[3]: [out['code'], out['stdout']] for key, out in outputs.items()}))")
    argv = [sys.executable, "-c", probe, str(ROOT / "tools"), str(ROOT), str(tmp_path / "work")]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    outputs = json.loads(result.stdout)
    # the first check fails on purpose, on a NaN defect; the scaled (1, 1e-14) vacuum kernel is the vacuum line
    assert {label: code for label, (code, _) in outputs.items()} == {
        "check constant_1e300 depth 4": 1, "check scaled_1e-14 depth 8": 0,
        "cesaro periodic_support_5 depth 7": 0, "commutant periodic depth 3": 0,
        "commutant periodic_e_support depth 2": 0, "spectra unweighted_3 depth 6": 0,
        "spectra eta_e_1 depth 1": 0, "spectra unweighted_2_repeated depth 3": 0}
    assert "check vacuum_kernel: PASS" in outputs["check scaled_1e-14 depth 8"][1]
    assert outputs["cesaro periodic_support_5 depth 7"][1].endswith("over |v| <= 5)\n")
    assert [line.split(": ")[1] for line in outputs["spectra unweighted_3 depth 6"][1].splitlines()] == [
        "not_in_spectrum (PASS)", "not_in_spectrum (PASS)", "in_spectrum (PASS)"]
    assert outputs["spectra eta_e_1 depth 1"][1] == "lambda [0j, 0j]: solutions_exist (PASS)\n"
    # one result per --lambda, by position: the repeated point twice, the point on the sphere inconclusive
    assert [line.split(": ")[1] for line in outputs["spectra unweighted_2_repeated depth 3"][1].splitlines()] == [
        "in_spectrum (PASS)", "in_spectrum (PASS)", "inconclusive (PASS)", "not_in_spectrum (PASS)"]
    for label in ("commutant periodic depth 3", "commutant periodic_e_support depth 2"):
        assert outputs[label][1].endswith("round-trip: PASS (residual 0.000e+00, recovery 0.000e+00)\n")


def test_cold_start_runs_every_verb_once_and_sees_which_load_scipy_sparse():
    argv = [sys.executable, str(ROOT / "tools" / "cold_start.py"), "--change", str(ROOT), "--runs", "1"]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.startswith("PYTHONDONTWRITEBYTECODE=") and header.endswith("1 runs per verb and tree, medians:")
    # check, region and spectra --mode right build no sparse matrix; commutant and cesaro build theirs
    assert {row.split()[0]: "scipy.sparse loaded" in row for row in rows} == {
        "check": False, "commutant": True, "region": False, "cesaro": True, "spectra": False}
