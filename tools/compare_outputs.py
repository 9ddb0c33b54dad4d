"""Compare what two source trees write on the benchmark invocations.

    python3 tools/compare_outputs.py --parent ../base --change . [--seeds 1-12] [--workloads verify recover]

Builds the invocations of ``bench/workloads.py`` (warm-ups included) for
every workload and seed, plus the ``FIXED`` invocations, which run whatever
the workloads and seeds, and runs them on each tree's ``src`` in a fresh
Python process, one tree after the other, through ``fockshift.cli.main`` as
``bench/run.py`` does.  Both trees run in the same scratch directory, so the
argv are the same.  For every invocation it compares the exit code, stdout,
stderr, the CSV and the report (with every ``timing_seconds`` field dropped),
prints each difference, and exits 1 if there is any, 0 otherwise.  The
invocations come from this checkout's ``bench/``, which is only read.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
FIELDS = ("code", "stdout", "stderr", "csv", "report")
PERIODIC = {"n": 2, "family": "periodic", "period": 2,
            "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2}}
PERTURBED = {"n": 2, "family": "finite_perturbation", "cutoff": 1, "tail": [0.8, 1.3],
             "table": {"1:e": 0.7, "2:e": 1.3, "1:1": 1.1, "1:2": 0.9, "2:1": 1.7, "2:2": 0.55}}
# period 4, whose automaton holds 8 states at every level from 3 on
PERIODIC_4 = {"n": 2, "family": "periodic", "period": 4, "remainders": {
    "1:e": 1.247, "2:e": 1.894, "1:1": 0.718, "2:1": 1.365, "1:2": 1.541, "2:2": 0.835, "1:11": 1.012,
    "2:11": 1.659, "1:12": 1.835, "2:12": 1.129, "1:21": 1.306, "2:21": 0.6, "1:22": 0.776, "2:22": 1.424,
    "1:111": 1.6, "2:111": 0.894, "1:112": 1.071, "2:112": 1.718, "1:121": 1.894, "2:121": 1.188,
    "1:122": 1.365, "2:122": 0.659, "1:211": 0.835, "2:211": 1.482, "1:212": 1.659, "2:212": 0.953,
    "1:221": 1.129, "2:221": 1.776, "1:222": 0.6, "2:222": 1.247}}
# period 3, whose check witnesses a cocycle defect of the right law on words that are not palindromes
PERIODIC_3 = {"n": 2, "family": "periodic", "period": 3, "remainders": {
    "1:e": 0.7, "2:e": 1.3, "1:1": 1.1, "1:2": 0.9, "2:1": 1.7, "2:2": 0.55, "1:11": 1.2, "1:12": 0.8,
    "1:21": 1.45, "1:22": 0.6, "2:11": 1.9, "2:12": 1.05, "2:21": 0.75, "2:22": 1.35}}
CESARO_COEFFS = {"e": [0.214, 0.941], "1": [0.574, 0.58], "2": [-0.892, -0.261], "12": [-0.83, -0.613],
                 "21": [-0.572, 0.717], "112": [-0.746, -0.406], "221": [-0.014, 0.699], "2121": [0.5, -0.25]}
# (label, verb, config, depth, options) of invocations no workload reaches: the check
# witnesses of a NaN defect (overflowed products) and of the structural vacuum kernel at
# weights of 1e-14, which a rank cutoff would drop (its cocycle sweep also takes a unique
# nonzero rounding defect); cesaro with support words longer than its order, so its columns
# reach words past the columns it compares (|v| <= 5); commutant at depth 3, whose round
# trip compares |v| <= 2; and commutant at depth 2, whose support is e alone, so its round
# trip reads the top column level; spectra --mode right on the unweighted n = 3 tuple, at
# two points outside the ball with zero coordinates and one inside (the workloads run spectra
# at n = 2 only, with no zero coordinate outside the ball); spectra --mode zero_left_inverse
# at depth 1, whose identities read the vacuum column alone, with eta1 on e and on the top
# word 1 and eta2 empty; and spectra --mode right at n = 2, depth 3, with one point given twice, one on
# the sphere (inconclusive) and one outside, whose results are listed by position; commutant and
# cesaro on the bounded finite perturbation at depth 10, whose weights are not powers of two, so
# its round-trip residual and Cesaro defect are rounding, not 0 (the cesaro support also holds a
# word longer than the order); and commutant and cesaro on constant weights 1e300, whose
# products W(u,w) leave the float range while the ratios the grids carry stay 1; region on
# constant n = 9 weights at the 512 corners of the unit cube, 512 patterns of zero moduli
# with keys of two bytes, and on the unweighted n = 3 tuple at 15,625 points, whose level
# sums repeat; and region at one point of a period-4 system with 8 states a level, whose level
# sums are those of the same point in a wider grid; and check on the unweighted n = 3 tuple at depth 2, the
# smallest depth at which it builds both shift maps (at depth 1 the commutation check has no column); and check at
# depth 5 on a period-3 system whose cocycle witness is ("right", e, 21, 121), whose W_mu columns are read from the
# right, so the sweep reads the witness's words back to front.  An option
# whose value is a dict is passed the path of a file holding it as
# JSON, and one whose value is a list is passed once per item; a region invocation writes
# its CSV to a file given as --out.
FIXED = (
    ("constant_1e300", "check", {"n": 2, "family": "constant", "value": 1e300}, 4, {}),
    ("scaled_1e-14", "check", {"n": 2, "family": "scaled", "scales": [1.0, 1e-14]}, 8, {}),
    ("periodic_support_5", "cesaro", PERIODIC, 7, {"--k": 2, "--coeffs": {"coeffs": {
        "e": [0.5, 0.0], "1": [0.25, -0.5], "21": [-0.75, 0.25], "112": [0.5, 0.5],
        "2121": [-0.25, 1.0], "12212": [1.0, -0.25]}}}),
    ("periodic", "commutant", PERIODIC, 3, {}),
    ("periodic_e_support", "commutant", PERIODIC, 2, {}),
    ("unweighted_3", "spectra", {"n": 3, "family": "constant", "value": 1.0}, 6, {
        "--mode": "right", "--lambda": ["0,1.2,0.3-0.4i", "1.5,0,0", "0.3,0,0.4i"]}),
    ("eta_e_1", "spectra", {"n": 2, "family": "constant", "value": 1.0}, 1, {
        "--mode": "zero_left_inverse", "--coeffs": {"eta1": {"e": [0.5, -0.25], "1": [-1.0, 0.75]}, "eta2": {}}}),
    ("unweighted_2_repeated", "spectra", {"n": 2, "family": "constant", "value": 1.0}, 3, {
        "--mode": "right", "--lambda": ["0.3,0.4", "0.3,0.4", "0.6,0.8i", "2,0"]}),
    ("perturbed", "commutant", PERTURBED, 10, {}),
    ("perturbed", "cesaro", PERTURBED, 10, {"--k": 3, "--coeffs": {"coeffs": CESARO_COEFFS}}),
    ("constant_1e300", "commutant", {"n": 2, "family": "constant", "value": 1e300}, 6, {}),
    ("constant_1e300", "cesaro", {"n": 2, "family": "constant", "value": 1e300}, 6, {
        "--k": 2, "--coeffs": {"coeffs": CESARO_COEFFS}}),
    ("corners_9", "region", {"n": 9, "family": "constant", "value": 1.0}, 3, {"--grid": "0:1:1"}),
    ("unweighted_3", "region", {"n": 3, "family": "constant", "value": 1.0}, 7, {"--grid": "0:1.2:0.05"}),
    ("periodic_4_one_point", "region", PERIODIC_4, 10, {"--grid": "0.5:0.5:1"}),
    ("unweighted_3", "check", {"n": 3, "family": "constant", "value": 1.0}, 2, {}),
    ("periodic_3", "check", PERIODIC_3, 5, {}),
)


def _untimed(value):
    """``value`` with every ``timing_seconds`` entry dropped, at any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k != "timing_seconds"}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _fixed(workloads, workdir: str) -> list:
    """The ``FIXED`` invocations, their configs and option files written under ``workdir``, where a
    region invocation also writes its CSV."""
    invocations = []
    for label, verb, document, depth, options in FIXED:
        config, report = Path(workdir) / f"{label}.json", str(Path(workdir) / f"{label}.{verb}.json")
        config.write_text(json.dumps(document))
        csv = str(Path(workdir) / f"{label}.{verb}.csv") if verb == "region" else None
        argv = [verb, "--config", str(config), "--depth", str(depth), "--report", report]
        argv += ["--out", csv] if csv else []
        for option, value in options.items():
            if isinstance(value, dict):
                path = Path(workdir) / f"{label}.{option.lstrip('-')}.json"
                path.write_text(json.dumps(value))
                value = path
            for item in value if isinstance(value, list) else [value]:
                argv += [option, str(item)]
        invocations.append(workloads.Invocation(f"{verb} {label} depth {depth}", verb, argv, None, report, csv))
    return invocations


def collect(tree: str, names: list[str], seeds: list[int], workdir: str) -> dict[tuple, dict]:
    """Run every invocation on ``tree/src``: {(workload, seed, index, label): fields},
    the fixed invocations under workload "fixed", seed 0.  Meant for a fresh
    process, since it imports the tree's package."""
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    run._limit_blas_threads()
    src = (Path(tree) / "src").resolve()
    sys.path.insert(0, str(src))
    outputs = {}
    for name, seed in [(name, seed) for name in names for seed in seeds] + [("fixed", 0)]:
        for module in [m for m in sys.modules if m == "fockshift" or m.startswith("fockshift.")]:
            del sys.modules[module]
        cli = importlib.import_module("fockshift.cli")
        if not Path(cli.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"fockshift imported from {cli.__file__}, not from {src}")
        shutil.rmtree(workdir, ignore_errors=True)
        Path(workdir).mkdir(parents=True)
        if name == "fixed":
            invocations = _fixed(workloads, workdir)
        else:
            workload = workloads.build(name, seed, workdir)
            invocations = workload.warmups + workload.invocations
        for index, invocation in enumerate(invocations):
            outcome = run.run_invocation(cli, invocation)[1]
            report = json.dumps(_untimed(outcome.report), sort_keys=True)
            outputs[(name, seed, index, invocation.label)] = {
                "code": outcome.code, "stdout": outcome.stdout, "stderr": outcome.stderr,
                "csv": outcome.csv, "report": report,
            }
    return outputs


def _first_difference(before, after) -> str:
    """Where two outputs first differ, with 40 characters around it."""
    if not isinstance(before, str) or not isinstance(after, str):
        return f"{before!r} -> {after!r}"
    at = next((i for i, (x, y) in enumerate(zip(before, after)) if x != y), min(len(before), len(after)))
    lo, line = max(at - 40, 0), before.count("\n", 0, at) + 1
    return f"line {line}: {before[lo:at + 40]!r} -> {after[lo:at + 40]!r}"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the source tree to compare against")
    parser.add_argument("--change", required=True, help="the source tree under review")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-12"), help="a range A-B or a list A,B,C")
    parser.add_argument("--workloads", nargs="+", default=["verify", "region", "recover"])
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (Path(tree) / "src" / "fockshift" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/fockshift package")

    context = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        workdir = str(Path(scratch) / "work")
        results = []
        for tree in (args.parent, args.change):
            with context.Pool(1) as pool:
                results.append(pool.apply(collect, (tree, args.workloads, args.seeds, workdir)))
    before, after = results
    differences = 0
    for key in sorted(before.keys() | after.keys()):
        if key not in before or key not in after:
            differences += 1
            print(f"{key}: only in the {'change' if key in after else 'parent'}")
            continue
        for field in FIELDS:
            if before[key][field] != after[key][field]:
                differences += 1
                name, seed, _, label = key
                print(f"{name} seed {seed}, {label}: {field} differs, {_first_difference(before[key][field], after[key][field])}")
    print(f"{len(after)} invocations on {len(args.workloads)} workloads x {len(args.seeds)} seeds "
          f"and {len(FIXED)} fixed invocations: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
