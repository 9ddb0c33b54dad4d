"""Joint right/left spectrum experiments for the unweighted creation tuple:
resolvent-series right inverses, membership verdicts with witnesses, analytic
left-inverse growth certificates, and the rank-one left-inverse family at the
origin."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .words import Word
from .weights import ConstantWeights
from .fock import GradedOperator, TruncatedFock, column_norms, left_shift_maps
from .algebra import _word_sum
from .eigen import eigen_residual, eigenvector_coeffs

BOUNDARY_TOL = 1e-9

IN_SPECTRUM = "in_spectrum"
NOT_IN_SPECTRUM = "not_in_spectrum"
INCONCLUSIVE = "inconclusive"

MODE_RIGHT = "right"
MODE_LEFT_GROWTH = "left_growth"
MODE_ZERO_LEFT_INVERSE = "zero_left_inverse"


@dataclass(frozen=True)
class SpectrumReport:
    point: tuple[complex, ...]
    mode: str
    verdict: str
    defects: dict[str, float]
    witness: dict


def _split_defect(space: TruncatedFock, diff: GradedOperator) -> tuple[float, float]:
    """Max column norms of a defect matrix over rows below the top level and
    at the top level."""
    top = space.level_slice(space.depth)
    mat = diff.mat.tocsr()
    return float(np.max(column_norms(mat[: top.start, :]))), float(np.max(column_norms(mat[top, :])))


@dataclass(frozen=True)
class ResolventReport:
    point: tuple[complex, ...]
    depth: int
    low_level_defect: float
    top_level_defect: float


def resolvent_check(point: Sequence[complex], depth: int) -> ResolventReport:
    """Verify the geometric resolvent series inverts I - sum_i conj(z_i) L_i.

    The series is truncated to terms of length < depth, so the product equals
    the identity exactly on levels <= depth-1 while the top level carries the
    dropped geometric tail, whose norm is exactly ||z||^depth.
    """
    point = tuple(complex(z) for z in point)
    norm = math.sqrt(sum(abs(z) ** 2 for z in point))
    if norm >= 1.0:
        raise ValueError(f"resolvent series needs ||point|| < 1, got {norm}")
    space = TruncatedFock(len(point), depth)
    unit = ConstantWeights(len(point), 1.0)
    series = _word_sum(space, unit, eigenvector_coeffs(unit, point, depth - 1).vector, normalized=True)
    shifts = left_shift_maps(space, unit)
    affine = GradedOperator.identity(space)
    for i in range(1, space.n + 1):
        affine = affine - point[i - 1].conjugate() * shifts.operator(i)
    diff = affine @ series - GradedOperator.identity(space)
    low, top = _split_defect(space, diff)
    return ResolventReport(point, depth, low, top)


def right_membership(point: Sequence[complex], depth: int) -> SpectrumReport:
    """Membership of a point in the joint right spectrum of the creation tuple.

    Inside the unit ball the joint eigenvector of the adjoints witnesses
    membership (a right inverse would contradict it); outside, the scaled
    resolvent series yields an explicit right inverse, verified on levels
    <= depth-1 with the top-level truncation defect reported.  Points within
    ``BOUNDARY_TOL`` of the unit sphere are inconclusive: boundary membership follows
    from verdict continuity, not from a finite witness.
    """
    point = tuple(complex(z) for z in point)
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


@dataclass(frozen=True)
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
    z1, z2 = (complex(z) for z in point)
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
        bounds = [modulus**k * assumed_bound for k in ks]
    return GrowthCertificate(
        (z1, z2), case, operator_index, run_letter, assumed_bound, ks, bounds
    )


@dataclass(frozen=True)
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
    solve X L_j = delta_1j for the minimum-norm X and verify X = L_1* + (X xi_e)
    at the vacuum column.  V = [L_1 L_2] is a partial isometry, certified by
    V V* being a diagonal 0/1 projection, so V* is its pseudo-inverse and
    X = [I 0] V*."""
    space = TruncatedFock(2, depth)
    maps = left_shift_maps(space, ConstantWeights(2, 1.0))
    shifts = [maps.operator(i) for i in (1, 2)]
    top = space.level_slice(space.depth).start  # levels <= depth-1 come first
    identity, zero = GradedOperator.identity(space), GradedOperator.zero(space)

    defects: dict[tuple[int, int], float] = {}
    for i, eta in ((1, eta1), (2, eta2)):
        a_i = shifts[i - 1].adjoint() + GradedOperator.from_entries(
            space, [space.index_of(w) for w in eta], [0] * len(eta), list(eta.values()))
        for j in (1, 2):
            diff = a_i @ shifts[j - 1] - (identity if i == j else zero)
            defects[(i, j)] = float(np.max(column_norms(diff.mat[:, :top])))

    stacked = sp.hstack([shifts[0].mat, shifts[1].mat])
    gram = (stacked @ stacked.conj().T).tocoo()
    gram.eliminate_zeros()
    if np.any(gram.row != gram.col) or np.any(gram.data != 1.0):
        raise ValueError(f"[L_1 L_2] of shape {stacked.shape} is not a partial isometry")
    x = GradedOperator(space, sp.hstack([identity.mat, zero.mat]) @ stacked.conj().T)
    reconstructed = shifts[0].adjoint() + x @ GradedOperator.from_entries(space, [0], [0], [1.0])
    residual = float(abs((x - reconstructed).mat[:top, :top]).max())
    return ZeroLeftReport(defects, max(defects.values()), residual)
