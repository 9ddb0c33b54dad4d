"""Joint right/left spectrum experiments for the unweighted creation tuple:
resolvent-series right inverses, read off one coefficient vector with no
operator built, membership verdicts with witnesses, analytic left-inverse
growth certificates, and the rank-one left-inverse family at the origin, whose
products by a shift are gathers on its column map (``fock.ShiftMap``)."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .words import EMPTY, Word, record
from .weights import ConstantWeights
from .fock import GradedOperator, TruncatedFock, certify_injective, complex_product, left_shift_maps, max_column_norm
from .eigen import _finite, eigen_residual, eigenvector_coeffs

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
    """
    point = _finite(point)
    norm = math.sqrt(sum(abs(z) ** 2 for z in point))
    if norm >= 1.0:
        raise ValueError(f"resolvent series needs ||point|| < 1, got {norm}")
    space = TruncatedFock(len(point), depth)  # the word-count guard, before any level is built
    c = np.append(eigenvector_coeffs(ConstantWeights(space.n, 1.0), point, depth - 1).vector, np.zeros(space.n**depth))
    first, tail = space.heads()  # y = a*x reads c_x: every level of d in one product
    squares = np.abs(np.append(c[:1] - 1.0, (c - complex_product(np.conj(point)[first - 1], c[tail]))[1:])) ** 2
    low, top = np.cumsum(squares[: space.level_offsets[depth]])[-1], np.bincount(space.levels(), weights=squares).max()
    return ResolventReport(point, depth, float(np.sqrt(low)), float(np.sqrt(top)))


def right_membership(point: Sequence[complex], depth: int) -> SpectrumReport:
    """Membership of a point in the joint right spectrum of the creation tuple.

    Inside the unit ball the joint eigenvector of the adjoints witnesses
    membership (a right inverse would contradict it); outside, the scaled
    resolvent series yields an explicit right inverse, verified on levels
    <= depth-1 with the top-level truncation defect reported.  Points within
    ``BOUNDARY_TOL`` of the unit sphere are inconclusive: boundary membership follows
    from verdict continuity, not from a finite witness.
    """
    point = _finite(point)
    norm = math.sqrt(sum(abs(z) ** 2 for z in point))
    if abs(norm - 1.0) <= BOUNDARY_TOL:
        return SpectrumReport(point, MODE_RIGHT, INCONCLUSIVE, {}, {"norm": norm})
    if norm < 1.0:
        residual = eigen_residual(ConstantWeights(len(point), 1.0), TruncatedFock(len(point), depth), point)
        return SpectrumReport(
            point,
            MODE_RIGHT,
            IN_SPECTRUM,
            {"eigen_residual": residual.max_residual},
            {"norm": norm, "witness": "joint eigenvector of the adjoint tuple"},
        )
    # ||point|| > 1: the right inverse B_i = conj(z_i) / ||z||^2 R, for R the resolvent series at
    # s = z / ||z||^2, has sum_i (z_i - L_i) B_i = (I - sum_i conj(s_i) L_i) R, which resolvent_check checks
    report = resolvent_check(tuple(z / norm**2 for z in point), depth)
    return SpectrumReport(
        point,
        MODE_RIGHT,
        NOT_IN_SPECTRUM,
        {"identity_low_levels": report.low_level_defect, "identity_top_level": report.top_level_defect},
        {"norm": norm, "witness": "resolvent-series right inverse"},
    )


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


def left_growth_certificate(
    point: Sequence[complex],
    k_max: int,
    assumed_bound: float,
) -> GrowthCertificate:
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
    return GrowthCertificate(
        (z1, z2), case, operator_index, run_letter, assumed_bound, ks, bounds
    )


@record
class ZeroLeftReport:
    """Verification that rank-one perturbations of the adjoint creation
    operators solve the left-inverse equations at the origin, and that the
    minimum-norm solve recovers exactly that form."""

    identity_defects: dict[tuple[int, int], float]
    max_identity_defect: float
    reconstruction_residual: float


def zero_left_inverses(
    eta1: Mapping[Word, complex],
    eta2: Mapping[Word, complex],
    depth: int,
) -> ZeroLeftReport:
    """Check A_i = L_i* + (eta_i at the vacuum column) against A_i L_j = delta_ij
    on levels <= depth-1 (exactly: each column of L_j is a single 1), then
    take the minimum-norm solution X of X L_j = delta_1j and verify X = L_1* +
    (X xi_e) at the vacuum column.  V = [L_1 L_2] is a partial isometry,
    certified by its column maps: no two columns share a row and every entry
    is 1.  So V* is its pseudo-inverse, and X = [I 0] V* = L_1*."""
    space = TruncatedFock(2, depth)
    maps = left_shift_maps(space, ConstantWeights(2, 1.0))
    certify_injective(maps.rows.ravel(), (space.dimension, 2 * space.dimension))
    if np.any(maps.values != 1.0):
        raise ValueError("[L_1 L_2] is not a partial isometry: an entry is not 1")
    identity, low = GradedOperator.identity(space), space.levels() < depth
    adjoints = [maps.operator(i).adjoint() for i in (1, 2)]  # L_1* and L_2*, each built once

    defects: dict[tuple[int, int], float] = {}
    for i, eta in ((1, eta1), (2, eta2)):
        a_i = adjoints[i - 1] + GradedOperator.from_entries(
            space, [space.index_of(w) for w in eta], [0] * len(eta), list(eta.values()))
        for j in (1, 2):
            product = maps.before(j, a_i)  # A_i L_j, against I for i = j and against 0 otherwise
            defects[(i, j)] = max_column_norm((product - identity if i == j else product).mat, low)[0]

    # X = L_1*, so X - L_1* - (X xi_e at the vacuum column) is -X xi_e, read on levels <= depth-1
    residual = float(np.abs(adjoints[0].column(EMPTY)[: space.level_slice(space.depth).start]).max())
    return ZeroLeftReport(defects, max(defects.values()), residual)
