"""Time each verb of the command line in fresh interpreters.

    python3 tools/cold_start.py --change . [--parent ../base] [--runs 7] [--json out.json]

Runs ``python -m fockshift.cli <verb>`` for each of the five verbs on one
fixed small input at depth 6 (the period-2 system of the README; the
unweighted system for ``spectra``, which covers only that), ``--runs``
times per verb and tree, with ``PYTHONPATH`` set to the tree's ``src``.  The
trees alternate run by run, so drift on the machine falls on both alike.
Each time is the wall time of the whole process, interpreter start included:
what a user waits for.  One more run per verb and tree, under
``python -X importtime``, tells whether ``scipy.sparse`` was loaded.  Prints
the median per verb and tree and the ``PYTHONDONTWRITEBYTECODE`` setting the
runs inherit (set, every start compiles the package from source); ``--json``
also writes every time.  Exits 1 if any run exits with a code other than 0.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

VERBS = ("check", "commutant", "region", "cesaro", "spectra")
PERIODIC = {"n": 2, "family": "periodic", "period": 2,
            "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2}}
UNWEIGHTED = {"n": 2, "family": "constant", "value": 1.0}  # spectra covers only the unweighted tuple
SCIPY_SPARSE = re.compile(r"^import time:.*\|\s*scipy\.sparse$", re.MULTILINE)  # a line of -X importtime


def arguments(verb: str, work: Path) -> list[str]:
    """The fixed invocation of ``verb``, its input files written into ``work``."""
    config, coeffs = work / f"{verb}.json", work / "coeffs.json"
    config.write_text(json.dumps(UNWEIGHTED if verb == "spectra" else PERIODIC))
    coeffs.write_text(json.dumps({"coeffs": {"e": [0.5, 0], "1": [1, -0.5], "21": [0, 0.25]}}))
    options = {
        "check": [],
        "commutant": [],
        "region": ["--grid", "0:1.2:0.2", "--out", str(work / "region.csv")],
        "cesaro": ["--coeffs", str(coeffs), "--k", "2"],
        "spectra": ["--lambda", "0.3,0.4", "--lambda", "1.2,0"],
    }
    return [verb, "--config", str(config), "--depth", "6", *options[verb]]


def run(tree: str, argv: list[str], work: Path, flags: tuple[str, ...] = ()) -> tuple[float, subprocess.CompletedProcess]:
    """The wall time and outcome of one ``python -m fockshift.cli`` process on ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=str((Path(tree) / "src").resolve()))
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *flags, "-m", "fockshift.cli", *argv], cwd=work, env=env,
                            capture_output=True, text=True, timeout=300)
    return time.perf_counter() - start, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--change", required=True, help="the source tree under review")
    parser.add_argument("--parent", help="a source tree to compare against")
    parser.add_argument("--runs", type=int, default=7, help="timed runs per verb and tree")
    parser.add_argument("--json", help="write every time and the medians here")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change} if args.parent else {"change": args.change}
    for tree in trees.values():
        if not (Path(tree) / "src" / "fockshift" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/fockshift package")

    failed, results = False, {}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as scratch:
        work = Path(scratch)
        for verb in VERBS:
            command = arguments(verb, work)
            times = {name: [] for name in trees}
            for _ in range(args.runs):
                for name, tree in trees.items():
                    seconds, result = run(tree, command, work)
                    times[name].append(seconds)
                    if result.returncode != 0:
                        failed = True
                        print(f"{name} {verb} exited {result.returncode}: {result.stderr.strip()}", file=sys.stderr)
            loaded = {name: bool(SCIPY_SPARSE.search(run(tree, command, work, ("-X", "importtime"))[1].stderr))
                      for name, tree in trees.items()}
            results[verb] = {name: {"median_s": statistics.median(times[name]), "times_s": times[name],
                                    "scipy_sparse_loaded": loaded[name]} for name in trees}

    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    compiles = "every start compiles the package" if bytecode else "bytecode written once and reused"
    print(f"PYTHONDONTWRITEBYTECODE={bytecode!r} ({compiles}), {args.runs} runs per verb and tree, medians:")
    for verb, entry in results.items():
        cells = [f"{name} {entry[name]['median_s']:.3f} s "
                 f"(scipy.sparse {'loaded' if entry[name]['scipy_sparse_loaded'] else 'not loaded'})" for name in trees]
        ratio = f", change/parent {entry['change']['median_s'] / entry['parent']['median_s']:.3f}" if args.parent else ""
        print(f"{verb:<10} " + ", ".join(cells) + ratio)
    if args.json:
        document = {"python": sys.version.split()[0], "PYTHONDONTWRITEBYTECODE": bytecode, "runs": args.runs,
                    "trees": trees, "verbs": results}
        Path(args.json).write_text(json.dumps(document, indent=2) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
