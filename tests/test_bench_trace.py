"""Traced benchmark runs: ``bench/run.py --trace 1`` wraps the package's
public functions, ``cli.COMMANDS``, every family's ``lambda_of`` and
``GradedOperator.to_dense`` by name from outside (``bench/tracing.py``), so a
refactor of the package can break it without any other test noticing.  Each
workload runs for a fraction of a second on a copy of ``bench/`` and ``src/``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# the names the tracer looks for that the package no longer has; their metrics read 0
NOT_FOUND = ["fock.build_shift", "fock.spectral_norm", "eigen.sample_point"]


@pytest.mark.parametrize("workload", ["verify", "region", "recover"])
def test_traced_benchmark_completes_every_workload(tmp_path, workload):
    for tree in ("bench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", "1"]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    missing = [line.split()[1] for line in lines if
               line.startswith("trace: ") and line.endswith(" not found, its metrics read 0")]
    assert missing == NOT_FOUND
