"""Joint eigenvectors of the adjoint shifts and the eigenvalue-region
machinery: the coefficient formula, residual verification, the level-sum
convergence series, hereditary domination, the ellipse lower bound, and the
region-sampling harness with its CSV emission.

An ``EigenCandidate`` holds its coefficients as a vector in basis order and
builds the ``Word``-keyed dict only on request.

The level-sum kernel carries the doubled terms 2 log(r(w)/W(e,w)), exactly,
since doubling a float only changes its exponent, and extends each level one
letter at a time, so every numpy loop runs over a whole level of words.
Region sampling builds the tables once per grid, sums the points in blocks
of about BLOCK_FLOATS terms at the deepest level, with the same float
operations per point as ``level_sums``, and judges the whole grid at once by
the rule of ``membership_verdict``.  A level sum past the float range is
inf, and the point is judged outside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .words import BasisEnumeration, Word
from .weights import WeightSystem
from .fock import TruncatedFock, left_shift_maps

MAX_DP_WORDS = 1 << 21
# region grids sum this many terms at a time: 256 KiB per level array
BLOCK_FLOATS = 1 << 15

INSIDE = "inside"
OUTSIDE = "outside"
INCONCLUSIVE = "inconclusive"

PARTIAL_SUM_OVERFLOW = 1e18


@dataclass(frozen=True, eq=False)
class EigenCandidate:
    """The joint-eigenvector candidate at a point of complex n-space: the
    vector whose coefficient at w is conj(w(point)) / W(e,w), normalized to 1
    at the vacuum, with the words of length <= depth in basis order."""

    point: tuple[complex, ...]
    depth: int
    vector: np.ndarray

    @property
    def coeffs(self) -> dict[Word, complex]:
        """The coefficients keyed by word, built on each request."""
        words = BasisEnumeration(len(self.point), self.depth).words()
        return dict(zip(words, map(complex, self.vector.real.tolist(), self.vector.imag.tolist())))


def eigenvector_coeffs(ws: WeightSystem, point: Sequence[complex], depth: int) -> EigenCandidate:
    """Coefficients conj(w(point)) W(e,w)^{-1}, built level by level: the word
    i*w has rank (i-1) n^k + r, so row i-1 of the (n, n^k) view of level k+1
    is level k times conj(point_i) / lambda_{i,w}."""
    if len(point) != ws.n:
        raise ValueError(f"expected {ws.n} coordinates, got {len(point)}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    point = tuple(complex(z) for z in point)
    conj, lam = np.conj(np.array(point))[:, None], ws.lambda_levels(depth - 1)
    # Python's complex arithmetic part by part; numpy's differs in the last bit
    re, im = [np.ones(1)], [np.zeros(1)]
    for k in range(depth):
        re.append(((re[k] * conj.real - im[k] * conj.imag) / lam[k]).ravel())
        im.append(((re[k] * conj.imag + im[k] * conj.real) / lam[k]).ravel())
    vector = np.empty(sum(level.size for level in re), dtype=complex)
    vector.real, vector.imag = np.concatenate(re), np.concatenate(im)
    return EigenCandidate(point, depth, vector)


@dataclass(frozen=True)
class ResidualReport:
    per_letter: tuple[float, ...]
    level_cap: int

    @property
    def max_residual(self) -> float:
        return max(self.per_letter)


def eigen_residual(
    ws: WeightSystem,
    space: TruncatedFock,
    point: Sequence[complex],
    coeffs: dict[Word, complex] | None = None,
) -> ResidualReport:
    """Max over i of ||(T_i* - conj(point_i)) nu|| on levels <= depth-1, where
    the top level is excluded because the compression cannot see it.  The
    vector nu is ``coeffs``, or the eigenvector candidate at the point."""
    if coeffs is None:
        vec = eigenvector_coeffs(ws, point, space.depth).vector
    else:
        vec = space.vector_from_coeffs(coeffs)
    keep = space.levels() <= space.depth - 1
    shifts = left_shift_maps(space, ws)
    residuals = []
    for i in range(1, space.n + 1):
        res = shifts.operator(i).adjoint().apply(vec) - complex(point[i - 1]).conjugate() * vec
        residuals.append(float(np.linalg.norm(res[keep])))
    return ResidualReport(tuple(residuals), space.depth - 1)


def joint_eigenspace_dim(
    ws: WeightSystem,
    space: TruncatedFock,
    point: Sequence[complex],
) -> int:
    """Numerical dimension of the joint eigenspace at a point: the nullity of
    the stacked operators (T_i* - conj(point_i)) restricted to levels <= depth-1.

    Row (i, w) reads lambda_{i,w} x_{i*w} - conj(point_i) x_w, with entries at
    or below 1e-8 times the largest entry taken as zero.  A row keeping both
    entries joins w to i*w on the word tree, a row keeping one pins its word,
    and each tree component that no row pins adds one to the nullity.
    """
    conj = [complex(z).conjugate() for z in point]
    lam = ws.lambda_levels(space.depth - 1)
    cut = 1e-8 * max([abs(z) for z in conj] + [float(level.max()) for level in lam])
    pinned = np.zeros(space.dimension, dtype=bool)  # by component
    components, count = np.zeros(1, dtype=np.int64), 1  # the component of each word at level k
    for k in range(space.depth):
        children = []
        for z, weights in zip(conj, lam[k], strict=True):
            pivot, coupled = weights > cut, abs(z) > cut
            fresh = ~pivot | (not coupled)
            ids = np.where(fresh, count + np.cumsum(fresh) - 1, components)
            count += int(np.count_nonzero(fresh))
            pinned[ids[fresh]] = pivot[fresh] & (not coupled)
            if coupled:
                pinned[components[~pivot]] = True
            children.append(ids)
        components = np.concatenate(children)
    return count - int(np.count_nonzero(pinned))


# ---------------------------------------------------------------------------
# the convergence series
# ---------------------------------------------------------------------------


def level_sums(ws: WeightSystem, moduli: Sequence[float], depth: int) -> np.ndarray:
    """sigma_k = sum over |w| = k of (r(w) / W(e,w))^2 for k = 0..depth.

    The series deciding eigenvalue membership depends only on coordinate
    moduli.  Terms are tracked in log space, one per word, so geometric decay
    of the weights cannot overflow the partial sums prematurely; a level sum
    past the float range is inf.
    """
    if len(moduli) != ws.n:
        raise ValueError(f"expected {ws.n} moduli, got {len(moduli)}")
    moduli = [float(r) for r in moduli]
    if any(r < 0 for r in moduli):
        raise ValueError("moduli must be nonnegative")
    return _level_sums_block(_log_tables(ws, depth), np.array([moduli]), depth)[0]


def _log_tables(ws: WeightSystem, depth: int) -> list[np.ndarray]:
    """2 log lambda_{i,w} for |w| < depth, one (n, n^k) table per level k with
    row i-1 and words in frontier order, the order in which prepending
    builds them: i*w follows w at position p n + i-1, the graded-lex rank of
    the reversed word."""
    n = ws.n
    total_words = sum(n**k for k in range(depth + 1))
    if total_words > MAX_DP_WORDS:
        raise ValueError(f"level enumeration of {total_words} words exceeds the {MAX_DP_WORDS} guard")
    tables = []
    ranks = np.zeros(1, dtype=np.int64)  # the word's own rank at each frontier position
    for k, level in enumerate(ws.lambda_levels(depth - 1)):
        tables.append(2.0 * _exact_logs(level)[:, ranks])
        ranks = (ranks[:, None] + np.arange(n) * n**k).ravel()
    return tables


def _level_sums_block(log_lams: list[np.ndarray], moduli: np.ndarray, depth: int) -> np.ndarray:
    """Level sums for a (P, n) array of moduli, one row per point, in blocks of
    about BLOCK_FLOATS terms at the deepest level that share one set of work
    arrays.  Level k extends each doubled frontier term of level k-1 by
    2 log r_i - 2 log lambda_{i,w}, letter i into column i-1 of a (points,
    n^(k-1), n) view; a row's float operations do not depend on its block."""
    n = moduli.shape[1]
    log_moduli = 2.0 * np.array([[math.log(r) if r > 0 else -math.inf for r in row] for row in moduli.tolist()])
    block = max(1, BLOCK_FLOATS // n**depth)
    size = min(block, len(moduli)) * n**depth
    terms, nxt, shifted = np.empty(size), np.empty(size), np.empty(size)
    sums = np.empty((len(moduli), depth + 1))
    sums[:, 0] = 1.0
    for start in range(0, len(moduli), block):
        rows = log_moduli[start:start + block]
        points = len(rows)
        terms[:points] = 0.0  # level 0: the term of e is 0
        for k in range(1, depth + 1):
            width = n**k
            level = nxt[: points * width].reshape(points, width // n, n)
            prev = terms[: points * width // n].reshape(points, width // n)
            for i in range(n):
                column = level[:, :, i]
                np.subtract(rows[:, i, None], log_lams[k - 1][i], out=column)
                np.add(prev, column, out=column)
            logs = level.reshape(points, width)
            peaks = np.max(logs, axis=1)
            peaks[peaks == -math.inf] = 0.0  # every term -inf: the sum is 0
            scaled = shifted[: points * width].reshape(points, width)
            np.exp(np.subtract(logs, peaks[:, None], out=scaled), out=scaled)
            totals = np.sum(scaled, axis=1).tolist()
            sums[start:start + points, k] = [_scaled(peak, total) for peak, total in zip(peaks.tolist(), totals)]
            terms, nxt = nxt, terms
    return sums


def _scaled(peak: float, total: float) -> float:
    """exp(peak) * total, inf past the float range."""
    try:
        return math.exp(peak) * total
    except OverflowError:
        return math.inf


def _exact_logs(values: np.ndarray) -> np.ndarray:
    """Elementwise math.log, which np.log can miss by an ulp, taken once per
    distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([math.log(v) for v in distinct.tolist()])[inverse].reshape(values.shape)


def membership_verdict(sums: Sequence[float], epsilon: float) -> tuple[str, float]:
    """Judge the series from its level sums: inside when the last quartile of
    consecutive ratios is uniformly below 1 - epsilon, outside when uniformly
    above 1 + epsilon or the partial sum has overflowed, else inconclusive.

    Returns (verdict, tail ratio).  The raw sums stay with the caller, who can
    always re-judge; the boundary is genuinely undecidable from finite data.
    """
    verdicts, tail_ratios, _ = _verdicts(np.asarray(sums, dtype=float)[None, :], epsilon)
    return verdicts[0], tail_ratios[0]


def _verdicts(sums: np.ndarray, epsilon: float) -> tuple[list[str], list[float], list[float]]:
    """The rule of ``membership_verdict`` on a (P, levels) block of level
    sums, one row per point: the verdicts, tail ratios and partial sums."""
    if sums.shape[1] < 4:
        raise ValueError("need at least 4 level sums")
    with np.errstate(invalid="ignore"):  # two overflowed levels: inf / inf is nan
        ratios = np.divide(sums[:, 1:], sums[:, :-1], out=np.zeros((len(sums), sums.shape[1] - 1)),
                           where=sums[:, :-1] > 0)
    window = ratios[:, -max(1, ratios.shape[1] // 4):]
    partials = np.sum(sums, axis=1)
    overflowed = ~np.isfinite(partials) | (partials > PARTIAL_SUM_OVERFLOW)
    inside = np.all(window <= 1.0 - epsilon, axis=1)
    growing = np.all(window >= 1.0 + epsilon, axis=1)
    verdicts = np.select([overflowed, inside, growing], [OUTSIDE, INSIDE, OUTSIDE], INCONCLUSIVE)
    return verdicts.tolist(), window[:, -1].tolist(), partials.tolist()


@dataclass(frozen=True)
class RegionSample:
    moduli: tuple[float, ...]
    sums: tuple[float, ...]
    partial_sum: float
    tail_ratio: float
    verdict: str


def sample_point(ws: WeightSystem, moduli: Sequence[float], depth: int, epsilon: float) -> RegionSample:
    return _judged([moduli], level_sums(ws, moduli, depth)[None, :], epsilon)[0]


def _judged(points: Sequence[Sequence[float]], sums: np.ndarray, epsilon: float) -> list[RegionSample]:
    """One RegionSample per row of a (P, levels) block of level sums."""
    verdicts, tail_ratios, partials = _verdicts(sums, epsilon)
    return [
        RegionSample(tuple(float(r) for r in moduli), tuple(row), partial, tail_ratio, verdict)
        for moduli, row, partial, tail_ratio, verdict in zip(points, sums.tolist(), partials, tail_ratios, verdicts)
    ]


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    step: float

    def __post_init__(self):
        spec = f"{self.lo!r}:{self.hi!r}:{self.step!r}"
        for field, value in (("lo", self.lo), ("hi", self.hi), ("step", self.step)):
            if not math.isfinite(value):
                raise ValueError(f"grid {spec}: {field} is not finite")
        if self.lo < 0 or self.hi < self.lo or self.step <= 0:
            raise ValueError("grid requires 0 <= lo <= hi and step > 0")
        if not math.isfinite((self.hi - self.lo) / self.step):
            raise ValueError(f"grid {spec}: the point count (hi - lo) / step is not finite")

    def count(self) -> int:
        """The number of values along each axis."""
        return int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1

    def values(self) -> list[float]:
        return [self.lo + j * self.step for j in range(self.count())]

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {text!r} is not of the form lo:hi:step")
        return cls(float(parts[0]), float(parts[1]), float(parts[2]))


def region_sample(
    ws: WeightSystem,
    grid: GridSpec,
    depth: int,
    epsilon: float,
) -> list[RegionSample]:
    """One RegionSample per grid point over moduli space, in lexicographic
    grid order.  The log-weight tables are built once per grid, the level-sum
    kernel takes all the points in one call, and the whole grid is judged at
    once."""
    if depth < 3:
        raise ValueError(f"region depth {depth} gives {depth + 1} level sums; the verdict needs depth at least 3")
    if grid.count() ** ws.n > MAX_DP_WORDS:
        raise ValueError(f"region grid of {grid.count() ** ws.n} points exceeds the {MAX_DP_WORDS} guard")
    log_lams = _log_tables(ws, depth)
    points = list(itertools.product(grid.values(), repeat=ws.n))
    return _judged(points, _level_sums_block(log_lams, np.array(points, dtype=float), depth), epsilon)


def write_region_csv(samples: Sequence[RegionSample], stream: TextIO) -> None:
    """CSV schema: r1,...,rn,levels,partial_sum,tail_ratio,verdict with floats
    at 17 significant digits."""
    if not samples:
        return
    n = len(samples[0].moduli)
    header = ",".join(f"r{j + 1}" for j in range(n)) + ",levels,partial_sum,tail_ratio,verdict\n"
    row = ",".join(["%.17g"] * n) + ",%d,%.17g,%.17g,%s\n"
    stream.write(header + "".join(row % (*s.moduli, len(s.sums), s.partial_sum, s.tail_ratio, s.verdict)
                                  for s in samples))


# ---------------------------------------------------------------------------
# hereditary domination and the ellipse bound
# ---------------------------------------------------------------------------


def hereditary_check(
    ws: WeightSystem,
    moduli: Sequence[float],
    dominated: Sequence[float],
    depth: int,
) -> bool:
    """Level sums at a dominated point never exceed those of the dominating
    point: the series inherits convergence downward in every coordinate."""
    if any(rp > r for rp, r in zip(dominated, moduli)):
        raise ValueError("second point must be dominated coordinatewise by the first")
    upper = level_sums(ws, moduli, depth)
    lower = level_sums(ws, dominated, depth)
    slack = 1e-12
    return bool(np.all(lower <= upper * (1.0 + slack) + slack))


@dataclass(frozen=True)
class EllipseReport:
    inside: bool
    axes: tuple[float, ...]


def ellipse_predicate(ws: WeightSystem, moduli: Sequence[float], depth_for_inf: int) -> EllipseReport:
    """Whether sum_i (r_i / c_i)^2 < 1 for c_i the per-letter weight infimum.

    The infimum is exact for the structured families (their attained values
    stabilize by a known depth); otherwise it is a minimum over base words of
    length <= depth_for_inf.  Weights must stay away from zero on the range
    inspected.
    """
    if len(moduli) != ws.n:
        raise ValueError(f"expected {ws.n} moduli, got {len(moduli)}")
    axes = [ws.exact_min_weight(i) for i in range(1, ws.n + 1)]
    if None in axes:
        lows = zip(*(level.min(axis=1).tolist() for level in ws.lambda_levels(depth_for_inf)))
        axes = [min(low) if c_i is None else c_i for c_i, low in zip(axes, lows)]
    for i, c_i in enumerate(axes, start=1):
        if c_i <= 1e-12:
            raise ValueError(f"weight infimum for letter {i} vanishes within tolerance")
    value = sum((float(r) / c) ** 2 for r, c in zip(moduli, axes))
    return EllipseReport(value < 1.0, tuple(axes))
