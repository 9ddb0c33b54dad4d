"""Joint right/left spectrum experiments for the unweighted creation tuple: resolvent-series right
inverses, membership verdicts with witnesses for all points of a call read off one array of coefficients,
analytic left-inverse growth certificates, and the rank-one left-inverse family at the origin, read off
the column maps of the shifts (``fock.ShiftMap``).  No mode builds an operator or loads ``scipy.sparse``."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .words import Word, record
from .weights import ConstantWeights
from .fock import TruncatedFock, certify_injective, complex_product, left_shift_maps
from .eigen import WORK_FLOATS, _finite, eigen_residual, eigenvector_rows

BOUNDARY_TOL = 1e-9

IN_SPECTRUM = "in_spectrum"
NOT_IN_SPECTRUM = "not_in_spectrum"
INCONCLUSIVE = "inconclusive"

MODE_RIGHT = "right"
MODE_LEFT_GROWTH = "left_growth"
MODE_ZERO_LEFT_INVERSE = "zero_left_inverse"


@record
class SpectrumReport:
    point: tuple[complex, ...]
    mode: str
    verdict: str
    defects: dict[str, float]
    witness: dict


@record
class ResolventReport:
    point: tuple[complex, ...]
    depth: int
    low_level_defect: float
    top_level_defect: float


def resolvent_check(point: Sequence[complex], depth: int) -> ResolventReport:
    """Verify the geometric resolvent series inverts I - sum_i conj(z_i) L_i.

    The series R = sum_{|u| < depth} c_u L_u, for c the joint eigenvector's coefficients at the point, is
    truncated to terms of length < depth, so the product equals the identity exactly on levels <= depth-1
    while the top level carries the dropped geometric tail, whose norm is exactly ||z||^depth.  Both factors
    raise the level, so their compressions compose exactly, and column v of the product minus I holds d_u at
    row u*v: d_e = c_e - 1 and d_{i*u} = c_{i*u} - conj(z_i) c_u, with c = 0 at level depth.  No operator is
    built: ``max_column_norm`` would add a column's |d_u|^2 one by one in the graded-lex order of u, so the
    low levels' norm is column e's, over |u| <= depth-1, and the top level's one level's, the same floats.
    The low levels' norm is 0 by construction, since conj(z_i) c_u is formed part by part as c_{i*u} was
    (lambda = 1 divides exactly): only the top level's carries information.
    """
    point = _finite(point)
    norm = math.sqrt(sum(abs(z) ** 2 for z in point))
    if norm >= 1.0:
        raise ValueError(f"resolvent series needs ||point|| < 1, got {norm}")
    space = TruncatedFock(len(point), depth)  # the word-count guard, before any level is built
    return _resolvent_reports(space, [point], eigenvector_rows(ConstantWeights(space.n, 1.0), [point], depth))[0]


def _resolvent_reports(space: TruncatedFock, points: list, c: np.ndarray) -> list[ResolventReport]:
    """``resolvent_check`` at each point, from its row of coefficients c, which the top level is cut from."""
    c[:, space.level_slice(space.depth)] = 0.0
    first, tail = space.heads()  # y = a*x reads c_x: every level of d in one product
    d = c - complex_product(np.conj(np.array(points, dtype=complex).reshape(-1, space.n))[:, first - 1], c[:, tail])
    d[:, 0] = c[:, 0] - 1.0
    squares = np.abs(d) ** 2
    low = np.cumsum(squares[:, : space.level_offsets[space.depth]], axis=1)[:, -1]
    top = [np.bincount(space.levels(), weights=row).max() for row in squares]
    return [ResolventReport(p, space.depth, float(np.sqrt(a)), float(np.sqrt(b))) for p, a, b in zip(points, low, top)]


def right_memberships(points: Sequence[Sequence[complex]], depth: int) -> list[SpectrumReport]:
    """Membership of each point in the joint right spectrum of the creation tuple, listed by position.

    Inside the unit ball the joint eigenvector of the adjoints witnesses membership (a right inverse would
    contradict it); outside, the scaled resolvent series yields an explicit right inverse, verified on levels
    <= depth-1 with the top-level truncation defect reported.  Points within ``BOUNDARY_TOL`` of the unit
    sphere are inconclusive: boundary membership follows from verdict continuity, not from a finite witness.
    The others share one space and one array of coefficient rows, in blocks of about ``WORK_FLOATS`` entries.
    """
    points = [_finite(point) for point in points]
    norms = [math.sqrt(sum(abs(z) ** 2 for z in point)) for point in points]
    reports = [SpectrumReport(z, MODE_RIGHT, INCONCLUSIVE, {}, {"norm": norm}) for z, norm in zip(points, norms)]
    solved = [p for p, norm in enumerate(norms) if abs(norm - 1.0) > BOUNDARY_TOL]
    if not solved:
        return reports
    ws, space = ConstantWeights(len(points[solved[0]]), 1.0), TruncatedFock(len(points[solved[0]]), depth)
    size = max(1, WORK_FLOATS // space.dimension)  # rows per array: memory does not grow with the points
    for block in (solved[start: start + size] for start in range(0, len(solved), size)):
        # ||z|| > 1: the right inverse B_i = conj(z_i) / ||z||^2 R, for R the resolvent series at
        # s = z / ||z||^2, has sum_i (z_i - L_i) B_i = (I - sum_i conj(s_i) L_i) R, which resolvent_check checks
        at = [points[p] if norms[p] < 1.0 else tuple(z / norms[p] ** 2 for z in points[p]) for p in block]
        rows, outside = eigenvector_rows(ws, at, depth), [q for q, p in enumerate(block) if norms[p] > 1.0]
        checks = iter(_resolvent_reports(space, [at[q] for q in outside], rows[outside]))
        for q, p in enumerate(block):
            if norms[p] < 1.0:
                verdict, witness = IN_SPECTRUM, "joint eigenvector of the adjoint tuple"
                defects = {"eigen_residual": eigen_residual(ws, space, points[p], rows[q]).max_residual}
            else:
                verdict, witness, check = NOT_IN_SPECTRUM, "resolvent-series right inverse", next(checks)
                defects = {"identity_low_levels": check.low_level_defect, "identity_top_level": check.top_level_defect}
            reports[p] = SpectrumReport(points[p], MODE_RIGHT, verdict, defects, dict(norm=norms[p], witness=witness))
    return reports


def right_membership(point: Sequence[complex], depth: int) -> SpectrumReport:
    """Membership of one point in the joint right spectrum: ``right_memberships`` of it alone."""
    return right_memberships([point], depth)[0]


# ---------------------------------------------------------------------------
# left spectrum
# ---------------------------------------------------------------------------


@record
class GrowthCertificate:
    """An analytic growth table certifying that no bounded left inverse exists.

    Any hypothetical solution of the left-inverse equations satisfies a
    recursion along a run of one letter whose norms the table bounds from
    below; the bounds are closed forms in k, not numerical searches, since
    the argument quantifies over all bounded candidates at once.
    """

    point: tuple[complex, complex]
    case: str  # "marginal" (|z| = 1) or "geometric" (|z| > 1)
    operator_index: int  # which A_j the recursion drives
    run_letter: int  # the letter whose powers form the test words
    assumed_bound: float
    ks: list[int]
    bounds: list[float]

    @property
    def unbounded(self) -> bool:
        if self.case == "marginal":
            return True
        return self.assumed_bound > 0


def left_growth_certificate(point: Sequence[complex], k_max: int, assumed_bound: float) -> GrowthCertificate:
    """Growth table along 1^k or 2^k for a point with some |z_i| >= 1.

    For |z_1| = 1 the recursion A_1 L_1 = z_1 A_1 + I forces
    ||A_1 xi_{1^k}|| >= sqrt(k) - M with M the assumed bound on ||A_1 xi_e||
    (the k tail vectors are orthonormal with unimodular coefficients); for
    |z_1| > 1 the recursion A_2 L_1 = z_1 A_2 forces
    ||A_2 xi_{1^k}|| = |z_1|^k ||A_2 xi_e||.  The z_2 cases are symmetric.
    Points with both |z_i| < 1 admit no certificate of this kind.
    """
    if len(point) != 2:
        raise ValueError("growth certificates are implemented for n = 2")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    if not 0 <= assumed_bound < math.inf:
        raise ValueError(f"assumed bound must be nonnegative and finite, got {assumed_bound}")
    z1, z2 = _finite(point)
    parameters = None
    for modulus, letter in ((abs(z1), 1), (abs(z2), 2)):
        if abs(modulus - 1.0) <= 1e-12:
            parameters = ("marginal", letter, letter, None)
            break
        if modulus > 1.0:
            other = 2 if letter == 1 else 1
            parameters = ("geometric", other, letter, modulus)
            break
    if parameters is None:
        raise ValueError("no growth certificate: both coordinates lie inside the unit disc")
    case, operator_index, run_letter, modulus = parameters
    ks = list(range(1, k_max + 1))
    if case == "marginal":
        bounds = [math.sqrt(k) - assumed_bound for k in ks]
    else:
        bounds = []
        for k in ks:
            try:
                bounds.append(modulus**k * assumed_bound)
            except OverflowError:
                raise ValueError(
                    f"growth bound |z_{run_letter}|^k = {modulus!r}^k leaves the float range at k = {k}") from None
    return GrowthCertificate((z1, z2), case, operator_index, run_letter, assumed_bound, ks, bounds)


@record
class ZeroLeftReport:
    """Verification that rank-one perturbations of the adjoint creation
    operators solve the left-inverse equations at the origin, and that the
    minimum-norm solve recovers exactly that form."""

    identity_defects: dict[tuple[int, int], float]
    max_identity_defect: float
    reconstruction_residual: float


def zero_left_inverses(eta1: Mapping[Word, complex], eta2: Mapping[Word, complex], depth: int) -> ZeroLeftReport:
    """Check A_i = L_i* + (eta_i at the vacuum column) against A_i L_j = delta_ij on levels <= depth-1
    (exactly: each column of L_j is a single 1), then take the minimum-norm solution X of X L_j = delta_1j
    and verify X = L_1* + (X xi_e) at the vacuum column.  V = [L_1 L_2] is a partial isometry, certified by
    its column maps: no two columns share a row and every entry is 1.  So V* is its pseudo-inverse, and
    X = [I 0] V* = L_1*.  Both are read off the maps, with no operator built: column c (|w| < depth) of
    A_i L_j is ``values[j-1, c]`` times column t = ``rows[j-1, c]`` of A_i, which holds
    conj(``values[i-1, c']``) at the one c' that letter i sends to t, if any, and eta_i only if t is the
    vacuum, which no shift reaches.  So a column of A_i L_j - delta_ij I holds at most two entries, and the
    sum of their squares is the one ``max_column_norm`` takes in row order."""
    space = TruncatedFock(2, depth)
    maps = left_shift_maps(space, ConstantWeights(2, 1.0))
    rows, values, columns = maps.rows, maps.values, np.arange(space.level_offsets[depth])
    certify_injective(rows.ravel(), (space.dimension, 2 * space.dimension))
    if np.any(values != 1.0):
        raise ValueError("[L_1 L_2] is not a partial isometry: an entry is not 1")
    for w in [*eta1, *eta2]:
        space.index_of(w)  # each eta word lies in the space
    sends = np.full((2, space.dimension), -1)  # sends[i-1, t]: the column that letter i sends to row t, or -1
    sends[[[0], [1]], rows] = columns
    defects: dict[tuple[int, int], float] = {}
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        hit = sends[i - 1, rows[j - 1]]  # the row of column c's one entry in A_i L_j, or -1
        entry = np.where(hit >= 0, complex_product(np.conj(values[i - 1, hit]), values[j - 1]), 0.0)
        squares = np.abs(entry - ((i == j) & (hit == columns))) ** 2 + ((i == j) & (hit != columns))
        defects[(i, j)] = float(np.sqrt(squares.max()))
    # X = L_1*, so X - L_1* - (X xi_e at the vacuum column) is -X xi_e, read on levels <= depth-1:
    # conj(values[0, c]) at each column c that letter 1 sends to the vacuum row
    residual = float(np.abs(np.where(rows[0] == 0, np.conj(values[0]), 0.0)).max())
    return ZeroLeftReport(defects, max(defects.values()), residual)
