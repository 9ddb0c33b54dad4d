"""The three benchmark workloads as lists of CLI invocations.

Every workload is generated from its seed: weight-system parameters are drawn
on a 0.25 grid from families whose boundedness verdict is known by
construction, and spectra points and Fourier coefficients are drawn from the
same generator.  The grids and depths are fixed, so the amount of work a pass
does does not depend on the seed.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import checks

WORKLOADS = ("verify", "region", "recover")


@dataclass
class Invocation:
    """One `fockshift` command line, with the checker for its output."""

    label: str
    verb: str
    argv: list[str]
    check: Callable[[checks.Outcome], list[str]]
    report: str | None = None
    csv: str | None = None


@dataclass
class Workload:
    name: str
    invocations: list[Invocation]
    warmups: list[Invocation] = field(default_factory=list)


def _quarter(rng: random.Random, lo: float, hi: float) -> float:
    return rng.randint(round(lo * 4), round(hi * 4)) / 4


def periodic_document(rng: random.Random) -> dict:
    """A period-2 system with lambda_{a,e} = alpha_a and lambda_{a,b} = t*alpha_a.

    Prepending two letters multiplies the commutant ratio by
    (t*alpha_a/alpha_a) * (alpha_a'/(t*alpha_a')) = 1, so every cycle of the
    remainder automaton has ratio 1 and the commutant weights are bounded.
    """
    alpha = [_quarter(rng, 0.75, 1.25) for _ in range(2)]
    t = _quarter(rng, 1.5, 2.5)
    remainders = {f"{a}:e": alpha[a - 1] for a in (1, 2)}
    for a in (1, 2):
        for b in (1, 2):
            remainders[f"{a}:{b}"] = t * alpha[a - 1]
    return {"n": 2, "family": "periodic", "period": 2, "remainders": remainders}


def _verify_documents(rng: random.Random) -> list[tuple[str, dict, int, str]]:
    """(label, config, depth, known condition-6 verdict) for the verify workload."""
    table = {f"{i}:{w}": _quarter(rng, 0.5, 2.0) for w in ("e", "1", "2") for i in (1, 2)}
    return [
        ("constant", {"n": 2, "family": "constant", "value": _quarter(rng, 0.5, 2.0)}, 9, "bounded"),
        ("scaled", {"n": 2, "family": "scaled", "scales": [_quarter(rng, 0.5, 3.0) for _ in range(2)]}, 9, "bounded"),
        (
            "finite_perturbation",
            {"n": 2, "family": "finite_perturbation", "cutoff": 1, "table": table,
             "tail": [_quarter(rng, 0.5, 2.0) for _ in range(2)]},
            9,
            "bounded",
        ),
        ("periodic", periodic_document(rng), 9, "bounded"),
        # m > 1: the ratios along 1-runs grow like m^(k/2)
        ("two_letter_m", {"n": 2, "family": "two_letter_m", "m": _quarter(rng, 1.5, 6.0),
                          "c": _quarter(rng, 0.5, 1.5)}, 9, "diverging"),
        ("constant_n3", {"n": 3, "family": "constant", "value": _quarter(rng, 0.5, 2.0)}, 6, "bounded"),
    ]


class _Files:
    """Writes generated inputs into the work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def json(self, name: str, document: dict) -> str:
        path = self.path(name)
        with open(path, "w") as handle:
            json.dump(document, handle)
        return path


def _check_invocation(files: _Files, label: str, document: dict, depth: int, verdict: str) -> Invocation:
    config = files.json(f"{label}.json", document)
    report = files.path(f"{label}.check.json")
    return Invocation(
        f"check {label} depth {depth}",
        "check",
        ["check", "--config", config, "--depth", str(depth), "--report", report],
        lambda out: checks.check_verify(out, verdict),
        report=report,
    )


def _region_invocation(files: _Files, label: str, document: dict, grid: str, depth: int, truth: str | None) -> Invocation:
    config = files.json(f"{label}.json", document)
    out = files.path(f"{label}.csv")
    return Invocation(
        f"region {label} {grid} depth {depth}",
        "region",
        ["region", "--config", config, "--grid", grid, "--depth", str(depth), "--out", out],
        lambda outcome: checks.check_region(outcome, document, grid, depth, truth),
        csv=out,
    )


def _commutant_invocation(files: _Files, label: str, document: dict, depth: int) -> Invocation:
    config = files.json(f"{label}.json", document)
    report = files.path(f"{label}.commutant.json")
    return Invocation(
        f"commutant {label} depth {depth}",
        "commutant",
        ["commutant", "--config", config, "--depth", str(depth), "--report", report],
        lambda out: checks.check_commutant(out, document, depth),
        report=report,
    )


def _cesaro_invocation(files: _Files, label: str, document: dict, coeffs: dict, depth: int, order: int) -> Invocation:
    config = files.json(f"{label}.json", document)
    coeffs_path = files.json(f"{label}.coeffs.json", {"coeffs": coeffs})
    report = files.path(f"{label}.cesaro.json")
    return Invocation(
        f"cesaro {label} depth {depth} order {order}",
        "cesaro",
        ["cesaro", "--config", config, "--coeffs", coeffs_path, "--k", str(order),
         "--depth", str(depth), "--report", report],
        checks.check_cesaro,
        report=report,
    )


def _lambda_text(point: tuple[complex, ...]) -> str:
    return ",".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in point)


def _rounded(z: complex) -> complex:
    return complex(round(z.real, 6), round(z.imag, 6))


def _point(rng: random.Random, norm: float) -> tuple[complex, ...]:
    """A point of C^2 with roughly the given Euclidean norm, rounded as the CLI reads it."""
    share = rng.uniform(0.1, 0.9)
    return tuple(
        _rounded(cmath.rect(norm * math.sqrt(s), rng.uniform(0, 2 * math.pi))) for s in (share, 1 - share)
    )


def _spectra_invocation(files: _Files, label: str, mode: str, points: list, depth: int,
                        coeffs: str | None = None, bound: float = 0.0, k_max: int = 16) -> Invocation:
    config = files.json("unweighted_n2.json", {"n": 2, "family": "constant", "value": 1.0})
    report = files.path(f"{label}.spectra.json")
    argv = ["spectra", "--config", config, "--mode", mode, "--depth", str(depth), "--report", report]
    for point in points:
        argv.append(f"--lambda={_lambda_text(point)}")  # the = form admits a leading minus
    if coeffs:
        argv += ["--coeffs", coeffs]
    if mode == "left_growth":
        argv += ["--k", str(k_max), "--bound", str(bound)]
    return Invocation(
        f"spectra {label} depth {depth}",
        "spectra",
        argv,
        lambda out: checks.check_spectra(out, mode, points, bound, k_max),
        report=report,
    )


def _coefficients(rng: random.Random, max_len: int) -> dict[str, list[float]]:
    """Seeded [re, im] coefficients on every n=2 word of length <= max_len."""
    words, level = ["e"], [""]
    for _ in range(max_len):
        level = [w + a for w in level for a in "12"]
        words += level
    return {w: [round(rng.gauss(0, 1), 6), round(rng.gauss(0, 1), 6)] for w in words}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the inputs of a workload under ``workdir`` and list its invocations."""
    rng = random.Random(f"{name}:{seed}")
    files = _Files(workdir)
    if name == "verify":
        invocations = [_check_invocation(files, *doc) for doc in _verify_documents(rng)]
        warmups = [_check_invocation(files, "warmup", {"n": 2, "family": "constant", "value": 1.0}, 4, "bounded")]
        return Workload(name, invocations, warmups)
    if name == "region":
        scales = [_quarter(rng, 1.5, 2.5), _quarter(rng, 2.5, 3.5)]
        invocations = [
            _region_invocation(files, "scaled", {"n": 2, "family": "scaled", "scales": scales},
                               "0:3.2:0.2", 10, "ellipse"),
            _region_invocation(files, "periodic", periodic_document(rng), "0:1.2:0.05", 10, None),
            _region_invocation(files, "unweighted_n3", {"n": 3, "family": "constant", "value": 1.0},
                               "0:1.2:0.2", 7, "ellipse"),
        ]
        warmups = [_region_invocation(files, "warmup", {"n": 2, "family": "constant", "value": 1.0},
                                      "0:1.2:0.4", 5, "ellipse")]
        return Workload(name, invocations, warmups)
    if name == "recover":
        periodic = periodic_document(rng)
        # m <= 1 and c*sqrt(m) <= 1: the bounded side of the two-letter family
        two_letter = {"n": 2, "family": "two_letter_m", "m": _quarter(rng, 0.25, 1.0), "c": _quarter(rng, 0.5, 1.0)}
        inside = [_point(rng, rng.uniform(0.2, 0.9)) for _ in range(2)]
        outside = [_point(rng, rng.uniform(1.1, 2.0)) for _ in range(2)]
        growth = [
            (rng.choice([1, -1, 1j, -1j]), complex(rng.uniform(0.1, 0.9))),
            (complex(rng.uniform(0.1, 0.9)), complex(rng.uniform(1.1, 2.0))),
            (complex(rng.uniform(0.1, 0.9)), complex(rng.uniform(0.1, 0.9))),
        ]
        growth = [tuple(_rounded(z) for z in p) for p in growth]
        etas = files.json("etas.json", {key: _coefficients(rng, 2) for key in ("eta1", "eta2")})
        invocations = [
            _commutant_invocation(files, "periodic", periodic, 10),
            _commutant_invocation(files, "two_letter_m", two_letter, 10),
            _cesaro_invocation(files, "periodic", periodic, _coefficients(rng, 3), 11, 4),
            _spectra_invocation(files, "right", "right", inside + outside, 10),
            _spectra_invocation(files, "zero_left", "zero_left_inverse", [(0j, 0j)], 8, coeffs=etas),
            _spectra_invocation(files, "left_growth", "left_growth", growth, 8, bound=1.0),
        ]
        warmups = [
            _commutant_invocation(files, "warmup", periodic, 4),
            _cesaro_invocation(files, "warmup", periodic, _coefficients(rng, 1), 4, 2),
            _spectra_invocation(files, "warmup", "right", [inside[0], outside[0]], 4),
        ]
        return Workload(name, invocations, warmups)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
