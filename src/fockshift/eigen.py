"""Joint eigenvectors of the adjoint shifts and the eigenvalue-region
machinery: the coefficient formula, residual verification, the level-sum
convergence series, hereditary domination, the ellipse lower bound, and the
region-sampling harness with its CSV emission.

An ``EigenCandidate`` holds its coefficients as a vector in basis order and
builds the ``Word``-keyed dict only on request.  At a finite point the joint
eigenspace is its line, by structure (``joint_eigenspace_dim``).

The level sums come from the transfer matrix M(r) of the family's prepend
automaton, M(r)[s, next[s, j]] += (r_j / lam[s, j])^2: sigma_k is the mass
of one state vector, started at state 0 (the word e), after k steps.  A
system without an automaton (``TabulatedWeights``) runs through the same
propagation with its word tree as per-level maps.  Each step rescales the
vector by a power of two, carried as an exponent per point, so a level sum
is inf only past the float range.  The work per point and level is one pass
over the automaton's edges, so region depth is bounded by what the
propagation allocates (points x states x letters, in blocks of about
WORK_FLOATS), not by word counts.

Region verdicts are exact wherever the family has an automaton: a point is
inside when the spectral radius of M(r), on the states reachable from state
0, is certified below 1 - DELTA, outside when it is certified above
1 + DELTA, and inconclusive when its Collatz-Wielandt bracket lies within
[1 - DELTA, 1 + DELTA] (``_bracket_verdicts``); DELTA = 1e-9 and no option
sets it.  Systems without an automaton keep the tail heuristic of
``membership_verdict``, whose band EPSILON = 0.02 no option sets either.

``region_sample`` returns one ``RegionSample`` per call: the moduli, level
sums, partial sums, tail ratios and verdicts of all its points as arrays, one
row per point, with the rule that judged them; ``write_region_csv`` formats
that table column by column.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence, TextIO

import numpy as np

from .words import MAX_SWEEP_WORDS, BasisEnumeration, Word, record
from .weights import WeightSystem, _prepended_ranks
from .fock import TruncatedFock, complex_product, left_shift_maps

# region work arrays hold about this many floats per block of points
WORK_FLOATS = 1 << 18
# the half-width of the band around 1 in which a spectral radius is inconclusive
DELTA = 1e-9
# the half-width of the tail heuristic's band around 1 for systems without an automaton; no option sets it
EPSILON = 0.02
# power-iteration sweeps a point's bracket may take before it is left inconclusive
MAX_BRACKET_SWEEPS = 1000

INSIDE = "inside"
OUTSIDE = "outside"
INCONCLUSIVE = "inconclusive"
VERDICTS = (INSIDE, OUTSIDE, INCONCLUSIVE)

PARTIAL_SUM_OVERFLOW = 1e18


@record(eq=False)
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


def _finite(point: Sequence[complex]) -> tuple[complex, ...]:
    point = tuple(complex(z) for z in point)
    if not np.isfinite(point).all():
        raise ValueError(f"point {point} is not finite")
    return point


def eigenvector_coeffs(ws: WeightSystem, point: Sequence[complex], depth: int) -> EigenCandidate:
    """Coefficients conj(w(point)) W(e,w)^{-1}: row 0 of ``eigenvector_rows``."""
    vector = eigenvector_rows(ws, [point], depth)[0]
    return EigenCandidate(_finite(point), depth, vector)


def eigenvector_rows(ws: WeightSystem, points: Sequence[Sequence[complex]], depth: int) -> np.ndarray:
    """The coefficients of every point, one row each, built level by level: the word i*w has rank
    (i-1) n^k + r, so row i-1 of the (n, n^k) view of level k+1 is level k times conj(point_i) /
    lambda_{i,w}.  A point with a coordinate that is not finite raises ValueError naming it."""
    for point in points:
        if len(point) != ws.n:
            raise ValueError(f"expected {ws.n} coordinates, got {len(point)}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    conj = np.conj(np.array([_finite(point) for point in points], dtype=complex).reshape(-1, ws.n, 1))
    lam, count = ws.kept_lambda_levels(depth - 1), conj.shape[0]
    re, im = [np.ones((count, 1))], [np.zeros((count, 1))]  # Python's complex arithmetic part by part; numpy's differs
    with np.errstate(over="ignore", invalid="ignore"):  # coefficients past the float range are inf or NaN
        for k in range(depth):
            re.append(((re[k][:, None] * conj.real - im[k][:, None] * conj.imag) / lam[k]).reshape(count, -1))
            im.append(((re[k][:, None] * conj.imag + im[k][:, None] * conj.real) / lam[k]).reshape(count, -1))
    rows = np.empty((count, sum(level.shape[1] for level in re)), dtype=complex)
    rows.real, rows.imag = np.concatenate(re, axis=1), np.concatenate(im, axis=1)
    return rows


@record
class ResidualReport:
    per_letter: tuple[float, ...]
    level_cap: int

    @property
    def max_residual(self) -> float:
        return max(self.per_letter)


def eigen_residual(ws: WeightSystem, space: TruncatedFock, point: Sequence[complex],
                   coeffs: dict[Word, complex] | np.ndarray | None = None) -> ResidualReport:
    """Max over i of ||(T_i* - conj(point_i)) nu|| on levels <= depth-1, where
    the top level is excluded because the compression cannot see it.  The
    vector nu is ``coeffs``, keyed by word or in basis order, or the
    eigenvector candidate at the point, which must be finite, as in
    ``eigenvector_coeffs``."""
    point = _finite(point)
    if coeffs is None:
        vec = eigenvector_coeffs(ws, point, space.depth).vector
    else:
        vec = space.vector_from_coeffs(coeffs) if isinstance(coeffs, dict) else coeffs
    shifts = left_shift_maps(space, ws)
    residuals = []
    for i, (rows, values) in enumerate(zip(shifts.rows, shifts.values)):  # (T_i* nu)_w = lambda_{i,w} nu_{i*w}
        res = complex_product(values, vec[rows]) - complex(point[i]).conjugate() * vec[: rows.size]
        residuals.append(float(np.linalg.norm(res)))
    return ResidualReport(tuple(residuals), space.depth - 1)


def joint_eigenspace_dim(
    ws: WeightSystem,
    space: TruncatedFock,
    point: Sequence[complex],
) -> int:
    """Dimension of the joint eigenspace at a point: the nullity of the stacked
    operators (T_i* - conj(point_i)) restricted to levels <= depth-1, which is 1.

    Row (i, w), |w| <= depth-1, reads lambda_{i,w} x_{i*w} = conj(point_i) x_w.
    Every word other than e is i*w for exactly one row, and since every
    lambda is strictly positive that row fixes x_{i*w} from its parent x_w:
    the vacuum coefficient alone is free, at every finite point.  A point of
    the wrong length, or one that is not finite, raises ValueError.
    """
    if len(point) != ws.n:
        raise ValueError(f"expected {ws.n} coordinates, got {len(point)}")
    _finite(point)
    return 1


# ---------------------------------------------------------------------------
# the convergence series
# ---------------------------------------------------------------------------


def level_sums(ws: WeightSystem, moduli: Sequence[float], depth: int) -> np.ndarray:
    """sigma_k = sum over |w| = k of (r(w) / W(e,w))^2 for k = 0..depth, which
    depend only on the coordinate moduli: the masses of ``_propagate``; a
    level sum past the float range is inf."""
    return _propagate(_transfer_steps(ws, depth), _moduli(ws, [moduli]))[0]


def _moduli(ws: WeightSystem, points: Sequence[Sequence[float]]) -> np.ndarray:
    """The points as a (P, n) array of nonnegative finite moduli."""
    array = np.array(points, dtype=float)
    if array.ndim != 2 or array.shape[1] != ws.n:
        raise ValueError(f"expected {ws.n} moduli, got {array.shape[-1]}")
    if (array < 0).any():
        raise ValueError("moduli must be nonnegative")
    if not np.isfinite(array).all():
        raise ValueError(f"point {array[~np.isfinite(array).all(axis=1)][0].tolist()} is not finite")
    return array


def _transfer_steps(ws: WeightSystem, depth: int) -> list[tuple[np.ndarray, ...]]:
    """Per step k -> k+1 (k < depth), the edges s -> next[s, j] out of the
    states holding level k, as (source, letter, lam[s, j]^-2, heads), sorted
    by target: the edges into the i-th distinct target, state i of the next
    step, start at heads[i].  The states are the kept automaton's states
    reachable in exactly k steps from state 0, or, without an automaton, the
    words of level k in graded-lex order (j*w has rank (j-1) n^k + rank w),
    whose ``BasisEnumeration`` refuses them before any weight is read.
    Repeated state sets share their step."""
    automaton = ws.kept_automaton()
    if automaton is None:
        BasisEnumeration(ws.n, depth)
    maps = [automaton] * depth if automaton is not None else [
        (_prepended_ranks(ws.n, k), level.T) for k, level in enumerate(ws.kept_lambda_levels(depth - 1))]
    states, steps, built = np.zeros(1, dtype=np.int64), [], {}
    for next_state, lam in maps:
        key = (id(lam), states.tobytes())
        if key not in built:
            order = np.argsort(next_state[states], axis=None, kind="stable")
            targets, heads = np.unique(next_state[states].ravel()[order], return_index=True)
            with np.errstate(over="ignore", divide="ignore"):  # a weight past the float range: 0 or inf
                built[key] = targets, (*np.divmod(order, ws.n), 1.0 / np.square(lam[states].ravel()[order]), heads)
        states, step = built[key]
        steps.append(step)
    return steps


def _propagate(steps: list[tuple[np.ndarray, ...]], moduli: np.ndarray) -> np.ndarray:
    """sigma_0 .. sigma_len(steps) for a (P, n) array of moduli, one row per
    point: the total mass after each step of a state vector started as mass
    1 at state 0, where an edge carries r_j^2 lam[s, j]^-2 of the mass at
    its source.  Each step rescales the vector to peak in [0.5, 1) by a
    power of two, exactly, and carries the exponent, so a sum is inf only
    past the float range (or from the level of an edge weight past it on).
    A repeated step is one shared tuple, whose edge flows are formed once per
    block of points: about WORK_FLOATS flows over the distinct steps, and at
    least two points, since numpy sums one column pairwise but two or more row
    by row: a lone last point is propagated twice."""
    count = len(moduli)
    distinct = {id(weight): (letter, weight) for _, letter, weight, _ in steps}
    block = max(2, WORK_FLOATS // max(sum(len(weight) for _, weight in distinct.values()), 1))
    if count % block == 1:
        moduli = np.concatenate([moduli, moduli[-1:]])
    sums = np.ones((len(moduli), len(steps) + 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(moduli), block):
            squares = np.square(moduli[start:start + block].T)
            flows = {key: squares[letter] * weight[:, None] for key, (letter, weight) in distinct.items()}
            mass, exponent, lost = np.ones((1, squares.shape[1])), 0, np.zeros(squares.shape[1], dtype=bool)
            for k, (source, _, weight, heads) in enumerate(steps, start=1):
                mass = np.add.reduceat(mass[source] * flows[id(weight)], heads, axis=0)
                peak = mass.max(axis=0)
                lost |= ~np.isfinite(peak)
                mass[:, lost] = 0.0
                shift = np.frexp(peak)[1]
                mass, exponent = np.ldexp(mass, -shift), exponent + shift.astype(np.int64)
                sums[start:start + block, k] = np.where(lost, math.inf, np.ldexp(mass.sum(axis=0), exponent))
    return sums[:count]


def _classes(next_state: np.ndarray, letters: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states reachable from state 0 along ``letters``, grouped by strongly
    connected class (Tarjan's algorithm, iteratively), each class's offset,
    and each state's depth in the search tree, within which a class is a
    subtree."""
    successors = next_state[:, letters].tolist()
    index, low, depth, on_stack, stack, order, heads = {0: 0}, {0: 0}, {0: 0}, {0}, [0], [], []
    work = [(0, iter(successors[0]))]
    while work:
        state, edges = work[-1]
        for target in edges:
            if target not in index:
                index[target] = low[target] = len(index)
                depth[target] = depth[state] + 1
                stack.append(target)
                on_stack.add(target)
                work.append((target, iter(successors[target])))
                break
            if target in on_stack:
                low[state] = min(low[state], index[target])
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[state])
            if low[state] == index[state]:
                heads.append(len(order))
                while not order or order[-1] != state:
                    order.append(stack.pop())
                    on_stack.discard(order[-1])
    return np.array(order), np.array(heads), np.array([depth[s] for s in order])


def _cycles(next_state: np.ndarray, lam: np.ndarray, letters: np.ndarray) -> list[list[tuple[np.ndarray, ...]]]:
    """Each class of ``_classes`` with a cycle, as its phases: a class's period
    d is the gcd of depth[s] + 1 - depth[t] over its edges s -> t, each edge
    advances the depth modulo d by one, and phase p holds, for each of its
    states and letters, the successor's position in phase p+1 (mod d) and
    lam[s, j]^-2, or 0 for an edge that leaves the class."""
    states, heads, depth = _classes(next_state, letters)
    local = np.full(len(next_state), -1)
    local[states] = np.arange(len(states))
    successor, cls = local[next_state[states]], np.repeat(np.arange(len(heads)), np.diff(heads, append=len(states)))
    inner = (successor >= 0) & (cls[successor] == cls[:, None]) & letters  # the edges within a class
    cycles = []
    for c in np.flatnonzero(np.logical_or.reduceat(inner.any(axis=1), heads)).tolist():
        members = np.flatnonzero(cls == c)
        period = int(np.gcd.reduce(np.abs(depth[members, None] + 1 - depth[successor[members]])[inner[members]]))
        phase, rank = (depth - depth[members[0]]) % period, np.zeros(len(states), dtype=np.int64)
        groups = [members[phase[members] == p] for p in range(period)]
        for group in groups:
            rank[group] = np.arange(len(group))
        cycles.append([(np.where(inner[group], rank[successor[group]], 0),
                        np.where(inner[group], 1.0 / np.square(lam[states[group]]), 0.0)) for group in groups])
    return cycles


def _zero_patterns(moduli: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each pattern of moduli > 0, in the order of the rows' axis-0 unique, and each row's pattern:
    a 1-D unique of one key per row, its bits packed into bytes, first bit highest, so keys compare as rows do."""
    keys = np.packbits(moduli > 0, axis=1)
    return np.unique(keys.view(f"V{keys.shape[1]}").ravel(), return_index=True, return_inverse=True)[1:]


def _bracket_verdicts(next_state: np.ndarray, lam: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """The verdict of each row of moduli from the spectral radius rho of M(r),
    M[s, next[s, j]] += (r_j / lam[s, j])^2, on the states reachable from
    state 0: the largest radius of a class of ``_cycles``, which the letters
    with r_j > 0 fix, once per pattern of zero moduli (``_zero_patterns``),
    its letters read off its first row.  A class with period d
    has rho(M_C)^d = rho(A) for A = M_C^d on its phase 0, where A is
    primitive, and for x > 0, min_s (A x)_s / x_s <= rho(A) <= max_s (A x)_s / x_s
    (Collatz-Wielandt).  From x = 1, sweeps x <- x + A x, each one pass over
    the class's edges, run until the bracket on rho lies below 1 - DELTA
    (inside), above 1 + DELTA (outside) or within [1 - DELTA, 1 + DELTA]
    (inconclusive), for at most MAX_BRACKET_SWEEPS sweeps, after which the
    point is inconclusive."""
    codes = np.full(len(moduli), 2)  # an index into VERDICTS
    firsts, pattern_of = _zero_patterns(moduli)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # weights and radii past the float range
        for pattern, first in enumerate(firsts.tolist()):
            cycles = _cycles(next_state, lam, moduli[first] > 0)
            points = np.flatnonzero(pattern_of == pattern)
            block = max(1, WORK_FLOATS // max([weight.size for phases in cycles for _, weight in phases], default=1))
            for start in range(0, len(points), block):
                rows = points[start:start + block]
                squares, xs = np.square(moduli[rows].T), [np.ones((len(phases[0][0]), len(rows))) for phases in cycles]
                for _ in range(MAX_BRACKET_SWEEPS):
                    upper, lower, images = np.zeros(len(rows)), np.zeros(len(rows)), []
                    for phases, x in zip(cycles, xs):
                        image = x
                        for successor, weight in reversed(phases):  # phase d-1 first
                            image = sum(weight[:, j, None] * squares[j] * image[successor[:, j]]
                                        for j in range(len(squares)))
                        ratio = (image / x) ** (1.0 / len(phases))
                        upper, lower = np.maximum(upper, ratio.max(axis=0)), np.maximum(lower, ratio.min(axis=0))
                        images.append(image)
                    judged = np.select([upper < 1.0 - DELTA, lower > 1.0 + DELTA,
                                        (lower >= 1.0 - DELTA) & (upper <= 1.0 + DELTA)], [0, 1, 2], -1)
                    codes[rows[judged >= 0]] = judged[judged >= 0]
                    keep = judged < 0
                    if not keep.any():
                        break
                    rows, squares = rows[keep], squares[:, keep]
                    xs = [(x + image)[:, keep] / (x + image)[:, keep].max(axis=0) for x, image in zip(xs, images)]
    return np.array(VERDICTS)[codes]


def membership_verdict(sums: Sequence[float]) -> tuple[str, float]:
    """Judge the series from its level sums by the tail heuristic: inside when
    the last quartile of consecutive ratios is uniformly below 1 - EPSILON,
    outside when uniformly above 1 + EPSILON or the partial sum has
    overflowed, else inconclusive.

    Returns (verdict, tail ratio).  The raw sums stay with the caller, who can
    always re-judge; the boundary is genuinely undecidable from finite data.
    Region sampling applies this rule only to systems without an automaton.
    """
    verdicts, tail_ratios, _ = _verdicts(np.asarray(sums, dtype=float)[None, :])
    return str(verdicts[0]), float(tail_ratios[0])


def _verdicts(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule of ``membership_verdict`` on a (P, levels) block of level
    sums, one row per point: the verdicts, tail ratios (copied) and partial sums."""
    if sums.shape[1] < 4:
        raise ValueError("need at least 4 level sums")
    with np.errstate(invalid="ignore"):  # two overflowed levels: inf / inf is nan
        ratios = np.divide(sums[:, 1:], sums[:, :-1], out=np.zeros((len(sums), sums.shape[1] - 1)),
                           where=sums[:, :-1] > 0)
    window = ratios[:, -max(1, ratios.shape[1] // 4):]
    with np.errstate(over="ignore"):  # finite level sums adding up past the float range: inf is judged outside
        partials = np.sum(sums, axis=1)
    overflowed = ~np.isfinite(partials) | (partials > PARTIAL_SUM_OVERFLOW)
    inside = np.all(window <= 1.0 - EPSILON, axis=1)
    growing = np.all(window >= 1.0 + EPSILON, axis=1)
    verdicts = np.select([overflowed, inside, growing], [OUTSIDE, INSIDE, OUTSIDE], INCONCLUSIVE)
    return verdicts, window[:, -1].copy(), partials


@record(eq=False)
class RegionSample:
    """A region sample as arrays, one row per point: the moduli (P, n), the
    level sums (P, depth + 1), the partial sums, tail ratios and verdicts (P,),
    and the rule that judged the points."""

    moduli: np.ndarray
    sums: np.ndarray
    partial_sum: np.ndarray
    tail_ratio: np.ndarray
    verdict: np.ndarray
    rule: dict


@record
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

    def points(self, n: int) -> np.ndarray:
        """The grid's points in moduli n-space as a (count^n, n) array, in
        lexicographic order; refused, counting axis by axis only until the
        count passes MAX_SWEEP_WORDS, before any is listed (%.3g past 15 digits)."""
        if any(self.count() ** axes > MAX_SWEEP_WORDS for axes in range(1, n + 1)):
            shown = self.count() if len(str(self.count())) <= 15 else f"{self.count():.3g}"
            raise ValueError(f"region grid of {shown}^{n} points exceeds the {MAX_SWEEP_WORDS} guard")
        return np.stack(np.meshgrid(*[self.values()] * n, indexing="ij"), axis=-1).reshape(-1, n)

    @classmethod
    def parse(cls, text: str) -> "GridSpec":
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid spec {text!r} is not of the form lo:hi:step")
        return cls(float(parts[0]), float(parts[1]), float(parts[2]))


def region_sample(ws: WeightSystem, points: Sequence[Sequence[float]], depth: int) -> RegionSample:
    """The level sums, tail columns and verdicts of a (P, n) array of moduli,
    all points propagated and judged together: the verdicts by the
    transfer-matrix bracket where the system has an automaton, else by the
    tail rule of ``membership_verdict``."""
    if depth < 3:
        raise ValueError(f"region depth {depth} gives {depth + 1} level sums; the verdict needs depth at least 3")
    moduli = _moduli(ws, points)
    sums = _propagate(_transfer_steps(ws, depth), moduli)
    verdicts, tail_ratios, partials = _verdicts(sums)
    automaton = ws.kept_automaton()
    if automaton is None:
        rule = {"rule": "tail ratios of the level sums (heuristic)", "epsilon": EPSILON}
    else:
        verdicts = _bracket_verdicts(*automaton, moduli)
        rule = {"rule": "Collatz-Wielandt bracket on the transfer matrix's spectral radius", "delta": DELTA}
    return RegionSample(moduli, sums, partials, tail_ratios, verdicts, rule)


def write_region_csv(sample: RegionSample, stream: TextIO) -> None:
    """CSV schema: r1,...,rn,levels,partial_sum,tail_ratio,verdict with floats
    at 17 significant digits, formatted column by column, each distinct bit pattern once."""
    points, n = sample.moduli.shape
    if not points:
        return
    header = ",".join(f"r{j + 1}" for j in range(n)) + ",levels,partial_sum,tail_ratio,verdict\n"
    text, floats = "%.17g".__mod__, []
    for column in (*sample.moduli.T, sample.partial_sum, sample.tail_ratio):
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        texts = list(map(text, bits.view(np.float64).tolist()))
        floats.append([texts[i] for i in inverse.tolist()])
    rows = zip(*floats[:n], itertools.repeat(str(sample.sums.shape[1])), *floats[n:], sample.verdict.tolist())
    stream.write(header + "\n".join(map(",".join, rows)) + "\n")


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


@record
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
    moduli = _moduli(ws, [moduli])[0].tolist()
    axes = [ws.exact_min_weight(i) for i in range(1, ws.n + 1)]
    if None in axes:
        lows = zip(*(level.min(axis=1).tolist() for level in ws.kept_lambda_levels(depth_for_inf)))
        axes = [min(low) if c_i is None else c_i for c_i, low in zip(axes, lows)]
    for i, c_i in enumerate(axes, start=1):
        if c_i <= 1e-12:
            raise ValueError(f"weight infimum for letter {i} vanishes within tolerance")
    value = sum((r / c) ** 2 for r, c in zip(moduli, axes))
    return EllipseReport(value < 1.0, tuple(axes))
