"""Benchmark of the fockshift command line.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Runs one workload (see bench/README.md) from the root of a source checkout:
it imports the package from ``src/``, drives every invocation in-process
through ``fockshift.cli.main(argv)``, checks each invocation's output, and
prints the metrics; gated times are scaled to a reference interpreter speed
measured around each call (see ``REFERENCE_LOOP_S``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it record the environment and every metric in readable form.  With
``--trace 1`` the run also times a share of its passes with the public
functions of the package wrapped from outside (see tracing.py) and reports
the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# BLAS threads, capped at the cores available: the dense SVD and
# least-squares steps are threaded, and the count must not vary between runs.
BLAS_THREADS = 2
SETUP_REPEATS = 9
# Invocation times are medians over the passes of a run; three passes let
# one slow pass drop out.
MIN_PASSES = 3
# Share of --seconds a traced run spends on untraced passes, the baseline of
# the tracing overhead.
UNTRACED_SHARE = 1 / 3
# The sandbox's CPU speed drifts by up to 2x over minutes with the load of
# other tenants, which no number of passes averages out.  So a fixed
# pure-Python loop is timed right before and after every timed call, and the
# gated times are the call's time scaled to the loop's reference time:
# seconds at the reference interpreter speed.  Raw times are printed too.
CALIBRATION_LOOPS = 100_000
REFERENCE_LOOP_S = 0.030

VERBS = ("check", "region", "commutant", "cesaro", "spectra")


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _limit_blas_threads() -> None:
    threads = min(BLAS_THREADS, _nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _openblas_threads() -> int | None:
    """Threads numpy's OpenBLAS reports using, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": _nproc(),
        "openblas_threads": _openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_invocation(cli, invocation) -> tuple[float, checks.Outcome]:
    """Call ``cli.main`` on the invocation's argv and collect what it wrote.

    Only the ``main`` call is timed; any exception it raises counts as a
    failed invocation.
    """
    for path in (invocation.report, invocation.csv):
        if path and os.path.exists(path):
            os.unlink(path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(invocation.argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    report = None
    if invocation.report and os.path.exists(invocation.report):
        with open(invocation.report) as handle:
            report = json.load(handle)
    csv = None
    if invocation.csv and os.path.exists(invocation.csv):
        with open(invocation.csv) as handle:
            csv = handle.read()
    return elapsed, checks.Outcome(code, stdout.getvalue(), stderr.getvalue(), report, csv)


class Tally:
    """Invocations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, invocation, outcome) -> None:
        problems = invocation.check(outcome)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{invocation.label}: {p}" for p in problems[:3])


def set_up(name: str, seed: int, workdir: Path, tally: Tally):
    """Import the package afresh, generate the inputs and make the warm-up
    invocations.  Returns (seconds, cli module, workload)."""
    start = time.perf_counter()
    for module in [m for m in sys.modules if m == "fockshift" or m.startswith("fockshift.")]:
        del sys.modules[module]
    cli = importlib.import_module("fockshift.cli")
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    workload = workloads.build(name, seed, str(workdir))
    outcomes = [(invocation, run_invocation(cli, invocation)[1]) for invocation in workload.warmups]
    elapsed = time.perf_counter() - start
    for invocation, outcome in outcomes:  # checking is not part of set-up
        tally.record(invocation, outcome)
    return elapsed, cli, workload


@dataclass
class Pass:
    """One pass over a workload: the raw time of each invocation, in workload
    order, its speed scale, and the region points judged and decided."""

    times: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    points: int = 0
    decisive: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.times)


def loop_seconds() -> float:
    """Time of the fixed calibration loop: how fast the machine runs Python now."""
    start = time.perf_counter()
    table: dict[int, bytes] = {}
    for i in range(CALIBRATION_LOOPS):
        table[i % 1000] = bytes([i % 200 + 1]) * 3
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibration loops to the
    reference speed."""
    return REFERENCE_LOOP_S / ((before + after) / 2)


def run_pass(cli, workload, tally: Tally) -> Pass:
    result = Pass()
    before = loop_seconds()
    for invocation in workload.invocations:
        elapsed, outcome = run_invocation(cli, invocation)
        after = loop_seconds()
        result.times.append(elapsed)
        result.scales.append(speed_scale(before, after))
        before = after
        tally.record(invocation, outcome)
        if invocation.verb == "region" and outcome.csv:
            decisive, points = checks.decisive_count(outcome.csv)
            result.decisive += decisive
            result.points += points
    return result


def run_passes(cli, workload, tally: Tally, seconds: float, min_passes: int, tracer=None) -> list[Pass]:
    """Passes until ``seconds`` have elapsed and at least ``min_passes`` ran."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_pass(len(passes))
        passes.append(run_pass(cli, workload, tally))
        if tracer is not None:
            tracer.end_pass()
    return passes


def verb_times(workload, passes: list[Pass], scaled: bool = True) -> dict[str, float]:
    """Seconds per pass of each subcommand the workload runs: the sum over its
    invocations of each invocation's median time across the passes, at the
    reference speed unless ``scaled`` is false."""
    out: dict[str, float] = {}
    for index, invocation in enumerate(workload.invocations):
        median = statistics.median(p.times[index] * (p.scales[index] if scaled else 1.0) for p in passes)
        out[invocation.verb] = out.get(invocation.verb, 0.0) + median
    return out


def end_to_end_metrics(workload, passes: list[Pass], setup_times: list[float]) -> dict:
    """The gated metrics: defined, and never 0, on every workload.  Times are
    at the reference speed."""
    return {
        "wall_s": (sum(verb_times(workload, passes).values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def issue_metrics(workload, passes: list[Pass], tally: Tally, gated: dict) -> dict:
    """All ten end-to-end metrics by name, None where the workload runs no
    invocation that defines it.  The subcommand and region metrics exist on
    one workload each and fail_frac is 0 when all is well, so only the gated
    three go into the JSON result."""
    times = verb_times(workload, passes)
    first = passes[0]
    region = first.points and (first.points / times["region"], first.decisive / first.points)
    return {
        "setup_s": gated["setup_s"],
        "wall_s": gated["wall_s"],
        **{f"{verb}_s": (times[verb], "s") if verb in times else None for verb in VERBS},
        "points_per_s": (region[0], "1/s") if region else None,
        "decisive_frac": (region[1], "fraction") if region else None,
        "peak_rss_mb": gated["peak_rss_mb"],
        "fail_frac": (tally.failed / tally.attempted, "fraction"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {workloads.WORKLOADS}")
    if not (SRC / "fockshift" / "__init__.py").is_file():
        print(f"bench: no fockshift package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    _limit_blas_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401  (first import, timed apart from set-up)
    import scipy.sparse  # noqa: F401
    cold_import_s = time.perf_counter() - start
    env = _environment()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        setup_times, raw_setup_times = [], []
        for _ in range(SETUP_REPEATS):
            before = loop_seconds()
            seconds, cli, workload = set_up(args.workload, args.seed, workdir, tally)
            setup_times.append(seconds * speed_scale(before, loop_seconds()))
            raw_setup_times.append(seconds)
        if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"bench: fockshift imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
            return 2

        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        print(f"workload {args.workload} seed {args.seed}: {len(workload.invocations)} invocations per pass; "
              f"numpy+scipy cold import {cold_import_s:.3f} s")
        if args.trace:
            import tracing

            baseline = run_passes(cli, workload, tally, args.seconds * UNTRACED_SHARE, 1)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(cli, workload, tally, args.seconds * (1 - UNTRACED_SHARE), 1, tracer)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics([p.wall_s for p in traced], statistics.median(p.wall_s for p in baseline))
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}.npz"
            tracer.write(spans_path)
            print(f"traced {len(traced)} passes after {len(baseline)} untraced; "
                  f"{len(tracer.name)} spans written to {spans_path.relative_to(ROOT)}")
            for name in tracer.missing:
                print(f"trace: {name} not found, its metrics read 0")
            for name, (value, unit) in metrics.items():
                print(f"metric {name} = {value:.6g} {unit}")
        else:
            passes = run_passes(cli, workload, tally, args.seconds, MIN_PASSES)
            metrics = end_to_end_metrics(workload, passes, setup_times)
            print(f"{len(passes)} passes of " + ", ".join(f"{p.wall_s:.3f}" for p in passes)
                  + f" s; set-up repeated {SETUP_REPEATS} times")
            for index, invocation in enumerate(workload.invocations):
                times = ", ".join(f"{p.times[index]:.3f}" for p in passes)
                print(f"invocation {invocation.label}: {times} s")
            scales = [scale for p in passes for scale in p.scales]
            print(f"speed scale to the reference: median {statistics.median(scales):.4f}, "
                  f"range {min(scales):.4f} to {max(scales):.4f}")
            for name, entry in issue_metrics(workload, passes, tally, metrics).items():
                print(f"metric {name} = {entry[0]:.6g} {entry[1]}" if entry else f"metric {name}: not run by {args.workload}")
            print(f"raw wall_s = {sum(verb_times(workload, passes, scaled=False).values()):.6g} s, "
                  f"raw setup_s = {statistics.median(raw_setup_times):.6g} s (not rescaled)")
        for problem in tally.problems[:20]:
            print(f"FAILED {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
