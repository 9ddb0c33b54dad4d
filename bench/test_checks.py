"""The output checkers accept real CLI output and reject corrupted output.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Good outcomes come from the workloads' small warm-up invocations, run
in-process; each test then corrupts one outcome the way a broken program
could: a flipped verdict, a non-zero exit, a wrong row count.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DIVERGING = {"n": 2, "family": "two_letter_m", "m": 4.0, "c": 1.0}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """verb -> (invocation, outcome) for one small invocation of each subcommand."""
    import fockshift.cli as cli

    result = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 7, str(tmp_path_factory.mktemp(name)))
        for invocation in workload.warmups:
            result[invocation.verb] = (invocation, run.run_invocation(cli, invocation)[1])
    files = workloads._Files(str(tmp_path_factory.mktemp("diverging")))
    invocation = workloads._check_invocation(files, "m4", DIVERGING, 4, "diverging")
    result["check_diverging"] = (invocation, run.run_invocation(cli, invocation)[1])
    return result


def _corrupt(outcomes, verb, edit):
    invocation, outcome = outcomes[verb]
    broken = copy.deepcopy(outcome)
    edit(broken)
    return invocation.check(broken)


def _set_row_verdict(outcome, moduli, verdict):
    lines = outcome.csv.strip("\n").split("\n")
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if all(abs(float(c) - r) < 1e-9 for c, r in zip(cells[:2], moduli)):
            lines[number] = ",".join(cells[:-1] + [verdict])
    outcome.csv = "\n".join(lines) + "\n"


def test_real_outputs_pass(outcomes):
    for verb, (invocation, outcome) in outcomes.items():
        assert invocation.check(outcome) == [], verb


@pytest.mark.parametrize("verb", ["check", "check_diverging", "region", "commutant", "cesaro", "spectra"])
def test_nonzero_exit_rejected(outcomes, verb):
    def edit(outcome):
        outcome.code = 1

    assert any("exit code 1" in p for p in _corrupt(outcomes, verb, edit))


def test_check_flipped_condition6_verdict_rejected(outcomes):
    def edit(outcome):
        entry = next(e for e in outcome.report["checks"] if e["check"] == "condition6")
        entry["witness"]["verdict"] = "diverging"

    assert any("condition6 verdict" in p for p in _corrupt(outcomes, "check", edit))


def test_check_failed_entry_rejected(outcomes):
    def edit(outcome):
        entry = next(e for e in outcome.report["checks"] if e["check"] == "commutation")
        entry["pass"] = False

    assert any("commutation failed" in p for p in _corrupt(outcomes, "check", edit))


def test_check_skip_must_match_divergence(outcomes):
    def edit(outcome):
        entry = next(e for e in outcome.report["checks"] if e["check"] == "intertwining")
        entry.clear()
        entry.update({"check": "intertwining", "max_defect": 0.0, "tolerance": 1e-10, "pass": True})

    assert any("ran although" in p for p in _corrupt(outcomes, "check_diverging", edit))


def test_region_wrong_row_count_rejected(outcomes):
    def edit(outcome):
        outcome.csv = "\n".join(outcome.csv.strip("\n").split("\n")[:-1]) + "\n"

    assert any("rows, expected" in p for p in _corrupt(outcomes, "region", edit))


def test_region_flipped_verdict_rejected(outcomes):
    def inside_judged_outside(outcome):
        _set_row_verdict(outcome, [0.4, 0.4], "outside")

    def outside_judged_inside(outcome):
        _set_row_verdict(outcome, [1.2, 1.2], "inside")

    assert any("guaranteed ellipse" in p for p in _corrupt(outcomes, "region", inside_judged_outside))
    assert any("exact region" in p for p in _corrupt(outcomes, "region", outside_judged_inside))


def test_region_non_monotone_verdict_rejected(outcomes):
    def edit(outcome):
        _set_row_verdict(outcome, [0.4, 0.0], "inconclusive")

    problems = _corrupt(outcomes, "region", edit)
    assert problems and all("dominating" in p for p in problems)


def test_commutant_corrupted_outputs_rejected(outcomes):
    def wrong_mu(outcome):
        key = next(iter(outcome.report["mu_table"]))
        outcome.report["mu_table"][key] *= 1.001

    def failed_round_trip(outcome):
        outcome.report["round_trip"]["pass"] = False

    assert any(p.startswith("mu ") for p in _corrupt(outcomes, "commutant", wrong_mu))
    assert any("round trip" in p for p in _corrupt(outcomes, "commutant", failed_round_trip))


def test_cesaro_failure_rejected(outcomes):
    def edit(outcome):
        outcome.report["pass"] = False

    assert _corrupt(outcomes, "cesaro", edit)


def test_spectra_flipped_verdict_rejected(outcomes):
    def edit(outcome):
        entry = outcome.report["results"][0]
        entry["verdict"] = "not_in_spectrum" if entry["verdict"] == "in_spectrum" else "in_spectrum"

    assert any("right verdict" in p for p in _corrupt(outcomes, "spectra", edit))


def test_left_growth_table_checked_against_closed_form():
    outcome = checks.Outcome(0, "", "", {"results": [
        {"lambda": [[1.0, 0.0], [0.5, 0.0]], "verdict": "in_spectrum", "pass": True,
         "witness": {"bounds": [1.0 - 1.0, 2**0.5 - 1.0]}},
    ]})
    point = [(1 + 0j, 0.5 + 0j)]
    assert checks.check_spectra(outcome, "left_growth", point, bound=1.0, k_max=2) == []
    outcome.report["results"][0]["witness"]["bounds"][1] += 0.01
    assert any("closed form" in p for p in checks.check_spectra(outcome, "left_growth", point, bound=1.0, k_max=2))
