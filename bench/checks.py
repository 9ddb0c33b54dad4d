"""Output checkers, one per workload.

Each checker takes the outcome of one CLI invocation and returns a list of
problems; an empty list means the output is correct.  The checkers do not
import fockshift: expected values come from closed forms and from a small
scalar re-implementation of the weight families below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INSIDE, OUTSIDE, INCONCLUSIVE = "inside", "outside", "inconclusive"
VERDICT_RANK = {INSIDE: 0, INCONCLUSIVE: 1, OUTSIDE: 2}
CHECK_NAMES = ("cocycles", "condition6", "intertwining", "commutation", "norms", "vacuum_kernel")
SKIPPED_WHEN_DIVERGING = ("intertwining", "commutation")
RELATIVE_TOL = 1e-12


@dataclass
class Outcome:
    """What one invocation of ``fockshift.cli.main`` produced."""

    code: int
    stdout: str
    stderr: str
    report: dict | None = None
    csv: str | None = None


def _exit_problems(out: Outcome) -> list[str]:
    if out.code != 0:
        return [f"exit code {out.code}: {out.stderr.strip()[-200:]}"]
    return []


# ---------------------------------------------------------------------------
# scalar weight oracle
# ---------------------------------------------------------------------------


def _word_text(word: tuple[int, ...]) -> str:
    return "".join(map(str, word)) or "e"


def lambda_of(document: dict, i: int, word: tuple[int, ...]) -> float:
    """The edge weight lambda_{i,w} of a config document, from the family's definition."""
    family = document["family"]
    if family == "constant":
        return float(document["value"])
    if family == "scaled":
        return float(document["scales"][i - 1])
    if family == "finite_perturbation":
        if len(word) <= document["cutoff"]:
            return float(document["table"][f"{i}:{_word_text(word)}"])
        return float(document["tail"][i - 1])
    if family == "periodic":
        prefix = word[: len(word) % document["period"]]
        return float(document["remainders"][f"{i}:{_word_text(prefix)}"])
    if family == "two_letter_m":
        if i == 1 and all(b == 1 for b in word):
            return 1.0 / document["m"]
        if i == 1 and word[-1] == 2 and all(b == 1 for b in word[:-1]):
            return 1.0 / math.sqrt(document["m"])
        return float(document["c"])
    raise ValueError(f"no oracle for family {family!r}")


def left_weight(document: dict, u: tuple[int, ...], w: tuple[int, ...]) -> float:
    """W(u, w): the product of edge weights from xi_u up to xi_{w*u}."""
    total = 1.0
    base = u
    for letter in reversed(w):
        total *= lambda_of(document, letter, base)
        base = (letter,) + base
    return total


def commutant_mu(document: dict, i: int, w: tuple[int, ...]) -> float:
    return left_weight(document, (i,), w) / left_weight(document, (), w)


def min_weight(document: dict, i: int) -> float:
    """The per-letter weight infimum, the axis of the guaranteed ellipse."""
    family = document["family"]
    if family == "constant":
        return float(document["value"])
    if family == "scaled":
        return float(document["scales"][i - 1])
    if family == "periodic":
        return min(float(v) for key, v in document["remainders"].items() if key.split(":")[0] == str(i))
    raise ValueError(f"no weight infimum for family {family!r}")


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# verify: check
# ---------------------------------------------------------------------------


def check_verify(out: Outcome, verdict: str) -> list[str]:
    """Every executed check passes and condition6 gives the known verdict.

    With a diverging verdict exactly the intertwining and commutation checks
    are skipped; otherwise nothing is.
    """
    problems = _exit_problems(out)
    if out.report is None:
        return problems + ["no report written"]
    entries = {entry["check"]: entry for entry in out.report.get("checks", [])}
    if sorted(entries) != sorted(CHECK_NAMES):
        problems.append(f"checks {sorted(entries)} differ from {sorted(CHECK_NAMES)}")
    condition = entries.get("condition6", {}).get("witness", {})
    if condition.get("verdict") != verdict:
        problems.append(f"condition6 verdict {condition.get('verdict')!r}, expected {verdict!r}")
    for name, entry in entries.items():
        should_skip = verdict == "diverging" and name in SKIPPED_WHEN_DIVERGING
        if entry.get("skipped"):
            if not should_skip:
                problems.append(f"check {name} skipped: {entry.get('reason')}")
            continue
        if should_skip:
            problems.append(f"check {name} ran although the commutant weights diverge")
        if not entry.get("pass") or not entry["max_defect"] <= entry["tolerance"]:
            problems.append(f"check {name} failed: defect {entry.get('max_defect')}")
        status = "PASS" if entry.get("pass") else "FAIL"
        if f"check {name}: {status}" not in out.stdout:
            problems.append(f"stdout lacks the {status} line of check {name}")
    return problems


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def grid_values(grid: str) -> list[float]:
    """The grid coordinates, as the CLI documents them: lo + j*step up to hi."""
    lo, hi, step = (float(part) for part in grid.split(":"))
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + j * step for j in range(count)]


def region_rows(csv: str) -> tuple[list[str], list[list[str]]]:
    lines = csv.strip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_region(out: Outcome, document: dict, grid: str, depth: int, truth: str | None) -> list[str]:
    """Schema, row count and order; no verdict contradicting a known region;
    nothing inside the guaranteed ellipse judged outside; verdicts monotone
    under coordinatewise domination.

    ``truth`` is ``"ellipse"`` when the region is exactly the ellipse with the
    family's weight infima as axes (scaled and constant weights), else None.
    """
    problems = _exit_problems(out)
    if out.csv is None:
        return problems + ["no CSV written"]
    n = document["n"]
    values = grid_values(grid)
    header, rows = region_rows(out.csv)
    expected_header = [f"r{j + 1}" for j in range(n)] + ["levels", "partial_sum", "tail_ratio", "verdict"]
    if header != expected_header:
        problems.append(f"header {header} differs from {expected_header}")
    if len(rows) != len(values) ** n:
        return problems + [f"{len(rows)} rows, expected {len(values) ** n}"]

    axes = [min_weight(document, i) for i in range(1, n + 1)]
    verdicts: dict[tuple[int, ...], str] = {}
    for number, row in enumerate(rows):
        index = []
        rest = number
        for _ in range(n):
            rest, j = divmod(rest, len(values))
            index.append(j)
        index = tuple(reversed(index))
        moduli = [values[j] for j in index]
        if len(row) != len(expected_header) or [float(c) for c in row[:n]] != moduli:
            problems.append(f"row {number + 1} is not grid point {moduli}")
            continue
        if int(row[n]) != depth + 1:
            problems.append(f"row {number + 1} has {row[n]} levels, expected {depth + 1}")
        verdict = row[-1]
        if verdict not in VERDICT_RANK:
            problems.append(f"row {number + 1} has unknown verdict {verdict!r}")
            continue
        verdicts[index] = verdict
        q = sum((r / c) ** 2 for r, c in zip(moduli, axes))
        if q < 1.0 and verdict == OUTSIDE:
            problems.append(f"{moduli} lies inside the guaranteed ellipse but is judged outside")
        if truth == "ellipse" and q > 1.0 and verdict == INSIDE:
            problems.append(f"{moduli} lies outside the exact region but is judged inside")

    for index, verdict in verdicts.items():
        for axis in range(n):
            if index[axis] + 1 == len(values):
                continue
            upper = index[:axis] + (index[axis] + 1,) + index[axis + 1:]
            if upper in verdicts and VERDICT_RANK[verdicts[upper]] < VERDICT_RANK[verdict]:
                problems.append(
                    f"verdict {verdict} at {[values[j] for j in index]} but "
                    f"{verdicts[upper]} at the dominating {[values[j] for j in upper]}"
                )
    return problems


def decisive_count(csv: str) -> tuple[int, int]:
    """(points judged inside or outside, points) of a region CSV."""
    _, rows = region_rows(csv)
    return sum(row[-1] in (INSIDE, OUTSIDE) for row in rows), len(rows)


# ---------------------------------------------------------------------------
# recover: commutant, cesaro, spectra
# ---------------------------------------------------------------------------


def _parse_word(text: str) -> tuple[int, ...]:
    return () if text == "e" else tuple(int(ch) for ch in text)


def check_commutant(out: Outcome, document: dict, depth: int) -> list[str]:
    """The round trip passes and every mu table entry matches W(i,w)/W(e,w)."""
    problems = _exit_problems(out)
    report = out.report
    if report is None:
        return problems + ["no report written"]
    if report.get("condition6", {}).get("verdict") != "bounded":
        problems.append(f"condition6 verdict {report.get('condition6')}, expected bounded")
    trip = report.get("round_trip") or {}
    if not trip.get("pass") or not max(trip["residual"], trip["coefficient_recovery"]) <= trip["tolerance"]:
        problems.append(f"round trip failed: {trip}")
    if "round-trip: PASS" not in out.stdout:
        problems.append("stdout lacks the round-trip PASS line")
    table = report.get("mu_table") or {}
    n = document["n"]
    expected_entries = n * sum(n**k for k in range(depth + 1))
    if len(table) != expected_entries:
        problems.append(f"mu table has {len(table)} entries, expected {expected_entries}")
    for key, value in table.items():
        letter, word = key.split(":")
        expected = commutant_mu(document, int(letter), _parse_word(word))
        if _relative(value, expected) > RELATIVE_TOL:
            problems.append(f"mu {key} = {value}, expected {expected}")
            break
    return problems


def check_cesaro(out: Outcome) -> list[str]:
    problems = _exit_problems(out)
    report = out.report
    if report is None:
        return problems + ["no report written"]
    if not report.get("pass") or not report["max_defect"] <= report["tolerance"]:
        problems.append(f"Cesaro defect {report.get('max_defect')} above tolerance")
    return problems


def _expected_spectra(mode: str, point: list[complex], bound: float, k_max: int) -> tuple[str, list[float] | None]:
    """The verdict a point must get, and for left growth the closed-form bound table."""
    if mode == "right":
        norm = math.sqrt(sum(abs(z) ** 2 for z in point))
        return ("in_spectrum" if norm < 1.0 else "not_in_spectrum"), None
    if mode == "zero_left_inverse":
        return "solutions_exist", None
    moduli = [abs(z) for z in point]
    if all(r < 1.0 - 1e-12 for r in moduli):
        return "unknown", None
    for r in moduli:
        if abs(r - 1.0) <= 1e-12:
            return "in_spectrum", [math.sqrt(k) - bound for k in range(1, k_max + 1)]
        if r > 1.0:
            return ("in_spectrum" if bound > 0 else "inconclusive"), [r**k * bound for k in range(1, k_max + 1)]
    raise AssertionError("unreachable")


def check_spectra(out: Outcome, mode: str, points: list, bound: float = 0.0, k_max: int = 16) -> list[str]:
    """Right verdicts follow ||lambda|| < 1 or > 1, zero-left solutions exist,
    and growth tables match their closed forms; every entry passes."""
    problems = _exit_problems(out)
    report = out.report
    if report is None:
        return problems + ["no report written"]
    results = report.get("results", [])
    if len(results) != len(points):
        return problems + [f"{len(results)} results for {len(points)} points"]
    for point, entry in zip(points, results):
        got = [complex(re, im) for re, im in entry["lambda"]]
        if any(abs(a - b) > 1e-12 for a, b in zip(got, point)):
            problems.append(f"result for {got} does not match requested point {point}")
        verdict, table = _expected_spectra(mode, list(point), bound, k_max)
        if entry.get("verdict") != verdict:
            problems.append(f"{mode} verdict {entry.get('verdict')!r} at {point}, expected {verdict!r}")
        if not entry.get("pass"):
            problems.append(f"{mode} check failed at {point}: {entry.get('defects')}")
        if table is not None:
            bounds = entry.get("witness", {}).get("bounds", [])
            if len(bounds) != len(table) or any(_relative(a, b) > RELATIVE_TOL for a, b in zip(bounds, table)):
                problems.append(f"growth table at {point} differs from its closed form")
    return problems
