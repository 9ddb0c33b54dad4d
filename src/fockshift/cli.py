"""Command-line front end: JSON config ingestion, command dispatch, and
report/CSV emission.

Subcommands: check, commutant, region, cesaro, spectra.  Every report embeds
the fully resolved configuration; all content except the timing block is
byte-identical across runs of the same config and version.  Exit code 0 means
every executed check passed (a divergence finding is not a failure), 1 means
a check failed, 2 means a precondition or configuration error.  ``commutant``
builds its mu table once from the level arrays, formats each distinct value
once, and writes the report's ``mu_table`` block as text in sorted-key order.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
from typing import Any

import numpy as np

from .words import Word, level_labels, parse_word, record
from .weights import (
    DIVERGING,
    ConstantWeights,
    FinitePerturbationWeights,
    PeriodicWeights,
    ScaledWeights,
    TwoLetterRunWeights,
    WeightSystem,
    _sweep_guard,
    check_cocycles,
    check_intertwining,
    condition6_sup,
    table_from_strings,
)
from .fock import TruncatedFock, commutation_defect, norm_check, vacuum_kernel_check
from .algebra import FourierElement, cesaro_defect, commutant_round_trip
from .eigen import VERDICTS, GridSpec, region_sample, write_region_csv
from .spectra import (
    MODE_LEFT_GROWTH,
    MODE_RIGHT,
    MODE_ZERO_LEFT_INVERSE,
    left_growth_certificate,
    right_memberships,
    zero_left_inverses,
)

DEFAULT_DEPTH = 8
DEFAULT_TOLERANCE = 1e-10

POSITIVITY_MESSAGE = "weights must be strictly positive (every lambda_{i,w} > 0)"


class ConfigError(ValueError):
    """A configuration document violated the schema."""


@record
class RunConfig:
    weights: WeightSystem
    document: dict
    depth: int
    tolerance: float

    def echo(self) -> dict:
        return {"weights": self.document, "depth": self.depth, "tolerance": self.tolerance}


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _is_number(value: Any) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value: Any, path: str, minimum: int) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
            path, f"expected an integer >= {minimum}")
    return value


def _positive_number(value: Any, path: str) -> float:
    _expect(_is_number(value), path, "expected a number")
    if not float(value) > 0:
        raise ConfigError(f"{path}: {POSITIVITY_MESSAGE}")
    return float(value)


def _positive_list(value: Any, n: int, path: str) -> tuple[float, ...]:
    _expect(isinstance(value, list), path, "expected a list")
    _expect(len(value) == n, path, f"expected {n} entries")
    return tuple(_positive_number(v, f"{path}[{j}]") for j, v in enumerate(value))


def _weight_table(value: Any, n: int, path: str) -> dict:
    _expect(isinstance(value, dict), path, "expected an object with 'i:w' keys")
    for key, entry in value.items():
        _positive_number(entry, f"{path}.{key}")
    try:
        return table_from_strings(value, n)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _two_letter(n: int, document: dict) -> TwoLetterRunWeights:
    _expect(n == 2, "$.n", "family 'two_letter_m' requires n = 2")
    return TwoLetterRunWeights(_positive_number(document["m"], "$.m"), _positive_number(document["c"], "$.c"))


# each family's required fields, in the order they are checked, and its builder
FAMILIES = {
    "constant": (("value",), lambda n, d: ConstantWeights(n, _positive_number(d["value"], "$.value"))),
    "scaled": (("scales",), lambda n, d: ScaledWeights(n, _positive_list(d["scales"], n, "$.scales"))),
    "finite_perturbation": (("cutoff", "table", "tail"), lambda n, d: FinitePerturbationWeights(
        n, _integer(d["cutoff"], "$.cutoff", 0), _weight_table(d["table"], n, "$.table"),
        _positive_list(d["tail"], n, "$.tail"))),
    "periodic": (("period", "remainders"), lambda n, d: PeriodicWeights(
        n, _integer(d["period"], "$.period", 1), _weight_table(d["remainders"], n, "$.remainders"))),
    "two_letter_m": (("m", "c"), _two_letter),
}

RUN_FIELDS = {"depth", "tolerance"}


def parse_config(document: Any) -> RunConfig:
    """Validate a weight-system document (strict: unknown fields rejected) and
    resolve the run defaults."""
    _expect(isinstance(document, dict), "$", "config must be a JSON object")
    _expect("n" in document, "$.n", "missing alphabet size")
    _expect("family" in document, "$.family", "missing weight family")
    n = _integer(document["n"], "$.n", 1)
    family = document["family"]  # any JSON value: compared with ==, not hashed
    _expect(family in list(FAMILIES), "$.family", f"unknown family {family!r}, expected one of {sorted(FAMILIES)}")
    fields, build = FAMILIES[family]

    allowed = {"n", "family", *fields} | RUN_FIELDS
    for key in document:
        _expect(key in allowed, f"$.{key}", f"unknown field for family {family!r}")
    for key in fields:
        _expect(key in document, f"$.{key}", "missing required field")

    try:
        weights = build(n, document)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"$.{family}: {exc}") from exc

    depth = _integer(document.get("depth", DEFAULT_DEPTH), "$.depth", 1)
    tolerance = document.get("tolerance", DEFAULT_TOLERANCE)
    _expect(_is_number(tolerance) and 0 < tolerance < math.inf, "$.tolerance", "expected a positive finite number")
    return RunConfig(weights, dict(document), depth, float(tolerance))


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _json_default(value: Any) -> Any:
    """What ``json`` cannot write itself: a word as its text, a complex number as
    [re, im], a numpy scalar as the Python number, a set as a list."""
    if isinstance(value, Word):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (set, frozenset)):
        return list(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(text: str, path: str | None) -> None:
    if path:
        _write_atomic(path, text)
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, path: str | None) -> None:
    block = report.get("mu_table")  # as text, it is the JSON json.dumps would write there
    spliced = isinstance(block, str)
    text = json.dumps(dict(report, mu_table=None) if spliced else report, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
    # strings hold no raw newline, so only the top-level key starts a line at indent 2
    _emit(text.replace('\n  "mu_table": null', '\n  "mu_table": ' + block, 1) if spliced else text, path)


def parse_lambda(text: str) -> tuple[complex, ...]:
    """Comma-separated complex literals, 'a+bi' with reals as shorthand; each part must be finite."""
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            value = complex(token.replace("i", "j"))
        except ValueError as exc:
            raise ConfigError(f"malformed complex literal {token!r}") from exc
        # 'nan' parses, and '1e400' overflows to inf: no verdict can be trusted on either
        _expect(math.isfinite(value.real) and math.isfinite(value.imag), f"complex literal {token!r}",
                "expected finite numbers")
        values.append(value)
    return tuple(values)


class _CheckRecorder:
    def __init__(self):
        self.entries: list[dict] = []
        self.timing: dict[str, float] = {}

    def run(self, name: str, tolerance: float, fn, summary=lambda r: (r.max_defect, r.witness)) -> Any:
        """Time ``fn()`` and record the (defect, witness) that ``summary`` reads off its result."""
        start = time.perf_counter()
        result = fn()
        self.timing[name] = time.perf_counter() - start
        defect, witness = summary(result)
        self.entries.append(
            {
                "check": name,
                "max_defect": defect,
                "tolerance": tolerance,
                "pass": bool(defect <= tolerance),
                "witness": witness,
            }
        )
        return result

    def skip(self, name: str, reason: str) -> None:
        self.entries.append({"check": name, "skipped": True, "reason": reason})

    @property
    def all_passed(self) -> bool:
        return all(entry.get("pass", True) for entry in self.entries)


def _print_check_lines(entries: list[dict]) -> None:
    for entry in entries:
        if entry.get("skipped"):
            print(f"check {entry['check']}: SKIPPED ({entry['reason']})")
        else:
            status = "PASS" if entry["pass"] else "FAIL"
            print(
                f"check {entry['check']}: {status} "
                f"(defect {entry['max_defect']:.3e}, tolerance {entry['tolerance']:.1e})"
            )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_check(config: RunConfig, args) -> tuple[int, dict]:
    ws = config.weights
    recorder = _CheckRecorder()
    tol = config.tolerance

    sweep_depth = min(config.depth, 6)  # each sweep's entry names it, with the defects taken
    _sweep_guard(ws.n, sweep_depth)  # the sweep's guard, then the dimension guard, refuse before any level
    space = TruncatedFock(ws.n, config.depth)
    ws.kept_commutant_mu().kept_mu_levels(config.depth)  # lambda and mu, built once to the full depth
    cocycles = recorder.run("cocycles", tol, lambda: check_cocycles(ws, None, sweep_depth))
    recorder.entries[-1].update(depth=sweep_depth, checks=cocycles.checks)
    condition = recorder.run(
        "condition6",
        tol,
        lambda: condition6_sup(ws, config.depth),
        lambda c: (0.0, {"sup_value": c.value, "verdict": c.verdict,
                         "argmax": [c.witness[0], c.witness[1]], "certificate": c.certificate}),
    )

    if condition.verdict == DIVERGING:
        recorder.skip("intertwining", "commutant weights diverge; identity not meaningful here")
        recorder.skip("commutation", "right shifts unbounded; commutant checks skipped")
    else:
        intertwining = recorder.run("intertwining", tol, lambda: check_intertwining(ws, sweep_depth))
        recorder.entries[-1].update(depth=sweep_depth, checks=intertwining.checks)
        recorder.run("commutation", tol, lambda: commutation_defect(space, ws))

    recorder.run(
        "norms",
        max(tol, 1e-8),  # kept so the reported tolerance stays as pinned; the exact norms' defect is 0
        lambda: norm_check(space, ws),
        lambda reports: (
            max(r.gap for r in reports),
            [{"letter": r.letter, "operator_norm": r.operator_norm, "weight_sup": r.weight_sup} for r in reports],
        ),
    )
    recorder.entries[-1].update(method="structural")  # read off the certified partial permutation
    recorder.run(
        "vacuum_kernel",
        tol,
        lambda: vacuum_kernel_check(space, ws),
        lambda rep: (
            max(float(abs(rep.joint_kernel_dim - 1)), rep.projection_defect or 0.0),
            {"joint_kernel_dim": rep.joint_kernel_dim, "projection_defect": rep.projection_defect},
        ),
    )
    recorder.entries[-1].update(method="structural")

    _print_check_lines(recorder.entries)
    return (0 if recorder.all_passed else 1), {"checks": recorder.entries, "timing_seconds": recorder.timing}


def _cmd_commutant(config: RunConfig, args) -> tuple[int, dict]:
    ws = config.weights
    condition = condition6_sup(ws, config.depth)
    if condition.verdict == DIVERGING:
        print(f"commutant weights diverge: {condition.certificate}")
        return 0, {"condition6": {"verdict": condition.verdict, "certificate": condition.certificate}, "mu_table": None}

    # round-trip a deterministic polynomial through coefficient extraction
    space = TruncatedFock(ws.n, config.depth)
    rng = np.random.default_rng(0)
    support_cap = max(0, min(3, config.depth - 2))
    coeffs = {}
    for w in TruncatedFock(ws.n, support_cap).words():
        coeffs[w] = complex(rng.standard_normal(), rng.standard_normal())
    element = FourierElement.build(coeffs, ws)
    # the commutation test reads X's columns to depth - 1, the extraction those to depth - support_cap
    extraction = commutant_round_trip(element, space, bound=config.depth - min(support_cap, 1))
    recovery = max(abs(extraction.element.coeffs.get(w, 0.0) - a) for w, a in coeffs.items())
    defect = max(extraction.residual, recovery)
    passed = defect <= config.tolerance

    # printed only now, so a failed round trip leaves stdout empty; each distinct mu is formatted once
    prefixes = [f"{i}:" for i in range(1, ws.n + 1)]
    keys = [prefix + label for labels in level_labels(ws.n, config.depth) for label in labels for prefix in prefixes]
    levels = ws.kept_commutant_mu().kept_mu_levels(config.depth)
    distinct, inverse = np.unique(np.concatenate([level.T.ravel() for level in levels]), return_inverse=True)
    inverse, distinct = inverse.tolist(), distinct.tolist()
    printed = [format(value, ".17g") for value in distinct]
    sys.stdout.write("".join(f"mu {key} = {printed[j]}\n" for key, j in zip(keys, inverse)))
    print(f"round-trip: {'PASS' if passed else 'FAIL'} (residual {extraction.residual:.3e}, recovery {recovery:.3e})")
    table = None
    if args.report:  # mu_table as json.dumps writes it at indent 2; lines sort as their keys, all after '"'
        encoded = [json.dumps(value) for value in distinct]
        table = "{\n" + ",\n".join(sorted([f'    "{key}": {encoded[j]}' for key, j in zip(keys, inverse)])) + "\n  }"

    report = {
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


def _cmd_region(config: RunConfig, args) -> tuple[int, dict]:
    grid = GridSpec.parse(args.grid)
    start = time.perf_counter()
    sample = region_sample(config.weights, grid.points(config.weights.n), config.depth)
    timing = {"region_sample": time.perf_counter() - start}
    start = time.perf_counter()
    buffer = io.StringIO()
    write_region_csv(sample, buffer)
    _emit(buffer.getvalue(), args.out)
    timing["csv"] = time.perf_counter() - start
    report = {
        "grid": {"lo": grid.lo, "hi": grid.hi, "step": grid.step},
        "samples": len(sample.verdict),
        "verdict_rule": sample.rule,
        "verdicts": {verdict: int(np.count_nonzero(sample.verdict == verdict)) for verdict in VERDICTS},
        "csv": args.out,
        "timing_seconds": timing,
    }
    return 0, report


def _complex_pair(pair: Any, path: str) -> complex:
    # json reads NaN and Infinity, which no defect comparison would flag
    _expect(isinstance(pair, list) and len(pair) == 2 and all(_is_number(x) and math.isfinite(x) for x in pair),
            path, "expected [re, im] with finite numbers")
    return complex(pair[0], pair[1])


def _read_json(path: str) -> Any:
    """The JSON document at ``path``; a file that cannot be read or parsed is a
    configuration error naming the path."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _load_fourier_coeffs(path: str) -> dict[Word, complex]:
    document = _read_json(path)
    if not isinstance(document, dict) or not isinstance(document.get("coeffs"), dict):
        raise ConfigError(f"{path}: expected an object with a 'coeffs' field")
    return {parse_word(key): _complex_pair(pair, f"{path}: coeffs.{key}") for key, pair in document["coeffs"].items()}


def _cmd_cesaro(config: RunConfig, args) -> tuple[int, dict]:
    coeffs = _load_fourier_coeffs(args.coeffs)
    order = args.k
    ws = config.weights
    space = TruncatedFock(ws.n, config.depth)
    element = FourierElement.build(coeffs, ws)
    if element.support_length() > config.depth:
        raise ConfigError("coefficient support exceeds the configured depth")
    exact = max(config.depth - order, 0)  # the columns where the compressed identity holds, the only ones built
    worst, idx = cesaro_defect(element, order, space, bound=exact)
    witness = None if idx is None else space.word_at(idx)
    passed = worst <= config.tolerance
    print(f"cesaro order {order}: {'PASS' if passed else 'FAIL'} (max column defect {worst:.3e} over |v| <= {exact})")
    report = {
        "order": order,
        "max_defect": worst,
        "witness": witness,
        "tolerance": config.tolerance,
        "pass": passed,
    }
    return (0 if passed else 1), report


def _cmd_spectra(config: RunConfig, args) -> tuple[int, dict]:
    mode, ws = args.mode, config.weights
    for flag, value, reader in (("--k", args.k, MODE_LEFT_GROWTH), ("--bound", args.bound, MODE_LEFT_GROWTH),
                                ("--coeffs", args.coeffs, MODE_ZERO_LEFT_INVERSE)):
        if value is not None and mode != reader:
            raise ConfigError(f"{flag} is read only by --mode {reader}, not by --mode {mode}")
    if args.lam is None and mode != MODE_ZERO_LEFT_INVERSE:  # argparse's refusal, as if --lambda were required
        print(f"fockshift spectra: error: the following arguments are required: --lambda (--mode {mode})",
              file=sys.stderr)
        raise SystemExit(2)
    if not (isinstance(ws, ConstantWeights) and ws.value == 1.0):
        found = f"value {ws.value!r}" if isinstance(ws, ConstantWeights) else f"family {config.document['family']!r}"
        raise ConfigError(f"spectra covers only the unweighted tuple (family 'constant', value 1), not {found}")
    if mode == MODE_ZERO_LEFT_INVERSE and ws.n != 2:
        raise ConfigError(f"--mode {mode} is defined for n = 2, not n = {ws.n}")
    k, bound = 16 if args.k is None else args.k, 0.0 if args.bound is None else args.bound
    zero_left = None  # the origin's outcome, computed at its first point: it depends on no point
    points, outcomes = [], []  # (verdict, defects, witness, pass) per point
    for text in args.lam or ["0,0"]:  # zero_left_inverse checks the origin when given no point
        point = parse_lambda(text)
        if len(point) != ws.n:
            raise ConfigError(f"--lambda {text!r} has {len(point)} coordinates, expected {ws.n}")
        points.append(point)
        if mode == MODE_LEFT_GROWTH:
            if all(abs(z) < 1.0 - 1e-12 for z in point):
                # no certificate covers the polydisc interior; membership there is open
                outcomes.append(("unknown", {}, {}, True))
                continue
            cert = left_growth_certificate(point, k, bound)
            outcomes.append(("in_spectrum" if cert.unbounded else "inconclusive", {}, {
                "case": cert.case, "operator_index": cert.operator_index, "run_letter": cert.run_letter,
                "assumed_bound": cert.assumed_bound, "bounds": cert.bounds}, True))
        elif mode == MODE_ZERO_LEFT_INVERSE:
            if any(point):
                raise ConfigError(f"--lambda {text!r} is not the origin, the only point --mode {mode} checks")
            if zero_left is None:
                zero_left = _zero_left_outcome(args.coeffs, config)
            outcomes.append(zero_left)
    if mode == MODE_RIGHT:  # every point in one call; the top-level defect is the truncated tail, not a failure
        outcomes = [(result.verdict, result.defects, result.witness, all(
            d <= config.tolerance for name, d in result.defects.items() if name != "identity_top_level"))
            for result in right_memberships(points, config.depth)]
    reports = [{"lambda": list(point), "mode": mode, "verdict": verdict, "defects": defects, "witness": witness,
                "pass": ok} for point, (verdict, defects, witness, ok) in zip(points, outcomes)]
    for entry in reports:
        print(f"lambda {entry['lambda']}: {entry['verdict']} ({'PASS' if entry['pass'] else 'FAIL'})")
    return (0 if all(entry["pass"] for entry in reports) else 1), {"mode": mode, "results": reports}


def _zero_left_outcome(path: str | None, config: RunConfig) -> tuple[str, dict, dict, bool]:
    etas = {"eta1": {}, "eta2": {}}
    if path:
        document = _read_json(path)
        _expect(isinstance(document, dict), path, "expected an object with 'eta1' and 'eta2' fields")
        for key in etas:
            entries = document.get(key, {})
            _expect(isinstance(entries, dict), f"{path}: {key}", "expected an object with word keys")
            etas[key] = {parse_word(k): _complex_pair(v, f"{path}: {key}.{k}") for k, v in entries.items()}
    result = zero_left_inverses(etas["eta1"], etas["eta2"], config.depth)
    tol = max(config.tolerance, 1e-9)
    ok = result.max_identity_defect <= tol and result.reconstruction_residual <= tol
    defects = {"identity": result.max_identity_defect, "reconstruction": result.reconstruction_residual}
    # the reconstruction defect is 0 by construction: the minimum-norm solution is L_1* itself
    witness = {"form": "rank-one perturbations of the adjoint shifts", "method": "structural"}
    return ("solutions_exist" if ok else "check_failed"), defects, witness, ok


COMMANDS = {
    "check": _cmd_check,
    "commutant": _cmd_commutant,
    "region": _cmd_region,
    "cesaro": _cmd_cesaro,
    "spectra": _cmd_spectra,
}


def run_command(verb: str, config: RunConfig, args) -> int:
    code, report = COMMANDS[verb](config, args)
    if args.report:  # every report carries the verb and the config it ran
        _emit_report({"command": verb, "config": config.echo(), **report}, args.report)
    return code


_CONFIG = ("--config", {"required": True, "help": "weight-system JSON document"})
_DEPTH = ("--depth", {"type": int, "help": "truncation depth override"})
_TOL = ("--tol", {"type": float, "help": "tolerance override"})
_REPORT = ("--report", {"help": "JSON report path"})

# each verb's own options, in usage order; any other option exits 2
VERB_OPTIONS = {
    "check": (_CONFIG, _DEPTH, _TOL, _REPORT),
    "commutant": (_CONFIG, _DEPTH, _TOL, _REPORT),
    "region": (_CONFIG, _DEPTH, ("--grid", {"required": True, "help": "grid spec lo:hi:step"}),
               ("--out", {"help": "CSV output path"}), _REPORT),
    "cesaro": (_CONFIG, _DEPTH, _TOL, ("--coeffs", {"required": True, "help": "Fourier coefficient JSON path"}),
               ("--k", {"type": int, "default": 4, "help": "Cesaro order"}), _REPORT),
    "spectra": (
        _CONFIG, _DEPTH, _TOL,
        ("--lambda", {"dest": "lam", "action": "append",
                      "help": "comma-separated complex literals a+bi; repeatable (optional for zero_left_inverse)"}),
        ("--mode", {"default": MODE_RIGHT, "choices": [MODE_RIGHT, MODE_LEFT_GROWTH, MODE_ZERO_LEFT_INVERSE]}),
        ("--k", {"type": int, "help": "growth-table length (left_growth; default 16)"}),
        ("--bound", {"type": float, "help": "assumed vacuum-image bound (left_growth; default 0)"}),
        ("--coeffs", {"help": "eta1/eta2 JSON path (zero_left_inverse)"}),
        _REPORT,
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged.

    Handlers stay out of it: ``run_command`` looks them up in ``COMMANDS`` at
    call time, so a wrapped or replaced entry there is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="fockshift",
        description="Verification toolkit for weighted shifts on truncated Fock space.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, options in VERB_OPTIONS.items():
        cmd = sub.add_parser(verb)
        for flag, settings in options:
            cmd.add_argument(flag, **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(_read_json(args.config))
        depth, tol = args.depth, getattr(args, "tol", None)  # region has no --tol
        if depth is not None and depth < 1:
            raise ConfigError("--depth must be at least 1")
        if tol is not None and not 0 < tol < math.inf:
            raise ConfigError("--tol must be positive and finite")
        config = RunConfig(config.weights, config.document, config.depth if depth is None else depth,
                           config.tolerance if tol is None else tol)
        for flag, path in (("--report", args.report), ("--out", getattr(args, "out", None))):
            directory = os.path.dirname(os.path.abspath(path)) if path else None
            _expect(directory is None or os.path.isdir(directory), f"{flag} {path}", f"no directory {directory}")
            _expect(not (path and os.path.isdir(path)), f"{flag} {path}", "is a directory, not a file path")
        return run_command(args.verb, config, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        # ArithmeticError: no known input reaches it; kept so that an overflow still exits 2 with one line
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
