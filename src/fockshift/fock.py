"""Truncated Fock-space operator models.

Operators live on the span of the basis vectors for words of length <= depth
and are stored sparse.  Raising operators are compressed: their columns at
the top level are zero, so every identity below is checked on the levels
where the compressed statement is exact, making defects true zeros instead
of truncation noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from .words import BasisEnumeration, Word
from .weights import (
    CommutantMu,
    ConstantWeights,
    MuSystem,
    WeightSystem,
    require_bounded_mu,
)

DENSE_LIMIT = 4096


class TruncatedFock:
    """The span of the Fock basis vectors for words of length <= depth."""

    def __init__(self, n: int, depth: int):
        self.basis = BasisEnumeration(n, depth)
        self.n = n
        self.depth = depth
        self.dimension = self.basis.dimension
        levels = np.empty(self.dimension, dtype=np.int64)
        for k in range(depth + 1):
            levels[self.basis.level_slice(k)] = k
        self._levels = levels

    def levels(self) -> np.ndarray:
        """Per-index word length, as an array aligned with the basis."""
        return self._levels

    def level_slice(self, k: int) -> slice:
        return self.basis.level_slice(k)

    def index_of(self, w: Word) -> int:
        return self.basis.index_of(w)

    def word_at(self, index: int) -> Word:
        return self.basis.word_at(index)

    def basis_vector(self, w: Word) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        vec[self.basis.index_of(w)] = 1.0
        return vec

    def vector_from_coeffs(self, coeffs: Mapping[Word, complex]) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        for w, value in coeffs.items():
            vec[self.basis.index_of(w)] = value
        return vec

    def coeffs_from_vector(self, vec: np.ndarray, tol: float = 0.0) -> dict[Word, complex]:
        out: dict[Word, complex] = {}
        for idx in np.nonzero(np.abs(vec) > tol)[0]:
            out[self.basis.word_at(int(idx))] = complex(vec[idx])
        return out

    def __repr__(self) -> str:
        return f"TruncatedFock(n={self.n}, depth={self.depth}, dim={self.dimension})"


class GradedOperator:
    """A sparse operator on the truncated basis, carrying its level-band support.

    Band j holds the entries mapping level k+j into level k, so left and right
    shifts occupy band -1 and their adjoints band +1.
    """

    def __init__(self, space: TruncatedFock, mat):
        self.space = space
        self.mat = sp.csr_array(mat, dtype=complex)
        if self.mat.shape != (space.dimension, space.dimension):
            raise ValueError(f"matrix shape {self.mat.shape} does not match dimension {space.dimension}")

    @classmethod
    def from_entries(cls, space: TruncatedFock, rows, cols, values) -> "GradedOperator":
        mat = sp.coo_array(
            (np.asarray(values, dtype=complex), (rows, cols)),
            shape=(space.dimension, space.dimension),
        )
        return cls(space, mat.tocsr())

    @classmethod
    def identity(cls, space: TruncatedFock) -> "GradedOperator":
        return cls(space, sp.eye_array(space.dimension, dtype=complex, format="csr"))

    @classmethod
    def zero(cls, space: TruncatedFock) -> "GradedOperator":
        return cls(space, sp.csr_array((space.dimension, space.dimension), dtype=complex))

    @property
    def bands(self) -> frozenset[int]:
        coo = self.mat.tocoo()
        levels = self.space.levels()
        mask = coo.data != 0
        return frozenset((levels[coo.col[mask]] - levels[coo.row[mask]]).tolist())

    def adjoint(self) -> "GradedOperator":
        return GradedOperator(self.space, self.mat.conj().T.tocsr())

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.mat @ vec

    def column(self, w: Word) -> np.ndarray:
        return self.mat[:, [self.space.index_of(w)]].toarray().ravel()

    def to_dense(self) -> np.ndarray:
        if self.space.dimension > DENSE_LIMIT:
            raise ValueError(f"dense fallback capped at dimension {DENSE_LIMIT}")
        return self.mat.toarray()

    def __matmul__(self, other: "GradedOperator") -> "GradedOperator":
        return GradedOperator(self.space, self.mat @ other.mat)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return GradedOperator(self.space, self.mat + other.mat)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return GradedOperator(self.space, self.mat - other.mat)

    def __mul__(self, scalar: complex) -> "GradedOperator":
        return GradedOperator(self.space, self.mat * scalar)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GradedOperator(dim={self.space.dimension}, nnz={self.mat.nnz})"


def _level_shift(space: TruncatedFock, i: int, levels: list[np.ndarray], left: bool) -> GradedOperator:
    """The compressed shift xi_w -> levels[|w|][rank of w] xi_{i*w} (left) or
    xi_{w*i} (right), for |w| < depth.

    Prepending i moves rank r at level k to (i-1) n^k + r at level k+1;
    appending i moves it to r n + i-1.
    """
    n, offsets = space.n, space.basis.level_offsets
    cols = np.arange(offsets[space.depth])
    rows = np.empty_like(cols)
    values = np.empty(cols.size)
    for k in range(space.depth):
        rank = np.arange(n**k)
        target = (i - 1) * n**k + rank if left else rank * n + (i - 1)
        rows[space.level_slice(k)] = offsets[k + 1] + target
        values[space.level_slice(k)] = levels[k]
    return GradedOperator.from_entries(space, rows, cols, values)


def weighted_left_shift(space: TruncatedFock, ws: WeightSystem, i: int) -> GradedOperator:
    """The compressed i-th weighted left shift: xi_w -> lambda_{i,w} xi_{i*w}."""
    return _level_shift(space, i, ws.lambda_levels(i, space.depth - 1), left=True)


def weighted_right_shift(space: TruncatedFock, mu: MuSystem, i: int) -> GradedOperator:
    """The compressed i-th weighted right shift: xi_w -> mu_{i,w} xi_{w*i}."""
    if isinstance(mu, CommutantMu):
        require_bounded_mu(mu.weights)
    return _level_shift(space, i, mu.mu_levels(i, space.depth - 1), left=False)


def left_creation(space: TruncatedFock, i: int) -> GradedOperator:
    return weighted_left_shift(space, ConstantWeights(space.n, 1.0), i)


def right_creation(space: TruncatedFock, i: int) -> GradedOperator:
    unit = ConstantWeights(space.n, 1.0).lambda_levels(i, space.depth - 1)
    return _level_shift(space, i, unit, left=False)


def column_norms(mat) -> np.ndarray:
    """The Euclidean norm of every column of a sparse matrix."""
    return np.sqrt(np.asarray(abs(mat).power(2).sum(axis=0)).ravel())


def max_column_norm(mat, mask: np.ndarray) -> tuple[float, int | None]:
    """The largest column norm over the columns in ``mask`` and the first column
    attaining it, None if it is 0.  A NaN norm counts as the largest."""
    norms = np.where(mask, column_norms(mat), 0.0)
    idx = int(np.argmax(norms))
    return float(norms[idx]), (None if norms[idx] == 0.0 else idx)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutationReport:
    max_defect: float
    witness: tuple[int, int, Word] | None
    level_cap: int


def commutation_defect(space: TruncatedFock, ws: WeightSystem, mu: MuSystem | None = None) -> CommutationReport:
    """Max over i, j and |w| <= depth-2 of ||(T_i S_j - S_j T_i) xi_w||.

    Both products stay within the truncation on those columns, so the defect
    vanishes exactly when mu carries the commutant weights of ws.
    """
    if mu is None:
        mu = CommutantMu(ws)
    cap = space.depth - 2
    col_mask = space.levels() <= cap
    lefts = [weighted_left_shift(space, ws, i) for i in range(1, space.n + 1)]
    rights = [weighted_right_shift(space, mu, j) for j in range(1, space.n + 1)]
    defects = [
        (*max_column_norm((t_i @ s_j - s_j @ t_i).mat, col_mask), i, j)
        for i, t_i in enumerate(lefts, start=1)
        for j, s_j in enumerate(rights, start=1)
    ]
    # the first pair attaining the maximum, a NaN defect counting as the largest
    worst, idx, i, j = defects[int(np.argmax([d[0] for d in defects]))]
    witness = None if idx is None else (i, j, space.word_at(idx))
    return CommutationReport(worst, witness, cap)


def spectral_norm(op: GradedOperator, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Operator norm by power iteration on X*X with a deterministic start;
    ArithmeticError when it has not converged within ``max_iter`` steps.

    The iteration runs on X / 2^e, for 2^e the largest power of two at or
    below the largest |entry| (e >= 0), so that X*X cannot overflow where X
    does not.  The power of two scales every step exactly, the stopping
    floor included, so the iterates are those of X itself scaled by 4^-e.
    """
    dim = op.space.dimension
    vec = np.ones(dim, dtype=complex) / math.sqrt(dim)
    exponent = max(0, math.frexp(float(np.abs(op.mat.data).max(initial=0.0)))[1] - 1)
    scale = math.ldexp(1.0, exponent)
    floor = math.ldexp(1.0, -2 * exponent)
    mat = op.mat / scale
    mat_h = mat.conj().T
    estimate, change = 0.0, math.inf
    for _ in range(max_iter):
        nxt = mat_h @ (mat @ vec)
        norm = float(np.linalg.norm(nxt))
        if norm == 0.0:
            return 0.0
        vec = nxt / norm
        if abs(norm - estimate) <= tol * max(norm, floor):
            return scale * math.sqrt(norm)
        change, estimate = abs(norm - estimate), norm
    raise ArithmeticError(
        f"power iteration did not converge (max_iter={max_iter}, last change {change * scale * scale:.3e})"
    )


@dataclass(frozen=True)
class NormReport:
    letter: int
    operator_norm: float
    weight_sup: float

    @property
    def gap(self) -> float:
        return abs(self.operator_norm - self.weight_sup)


def norm_check(space: TruncatedFock, ws: WeightSystem) -> list[NormReport]:
    """Compare ||T_i|| (power iteration) with sup of lambda_{i,w} over the
    columns the compression keeps (|w| < depth)."""
    reports = []
    for i in range(1, space.n + 1):
        op = weighted_left_shift(space, ws, i)
        sup = float(op.mat.data.real.max(initial=0.0))
        reports.append(NormReport(i, spectral_norm(op), sup))
    return reports


@dataclass(frozen=True)
class VacuumReport:
    joint_kernel_dim: int
    projection_defect: float | None


def partial_permutation_rank(mat) -> int:
    """The rank, as ``np.linalg.matrix_rank`` counts it, of a sparse matrix with
    at most one entry per row and column (ValueError for any other pattern):
    its singular values are the absolute values of its entries, so the rank
    counts those above the cutoff sigma_max * max(rows, cols) * eps."""
    mat = sp.csr_array(mat, copy=True)
    mat.eliminate_zeros()
    rows, cols = mat.shape
    if np.diff(mat.indptr).max(initial=0) > 1 or np.bincount(mat.indices, minlength=cols).max(initial=0) > 1:
        raise ValueError(f"the {rows}x{cols} matrix is not a partial permutation with scaled entries")
    singular = np.abs(mat.data)
    return int(np.count_nonzero(singular > singular.max(initial=0.0) * max(rows, cols) * np.finfo(float).eps))


def vacuum_kernel_check(space: TruncatedFock, ws: WeightSystem) -> VacuumReport:
    """The joint kernel of the adjoint shifts is the vacuum line.

    The stacked adjoints [T_1*; ...; T_n*] hold lambda_{i,w} at row (i, w) and
    column i*w, so ``partial_permutation_rank`` certifies their rank.  For the
    unweighted system the vacuum projection identity I - sum_i L_i L_i* = P_e
    is also checked on levels <= depth-1, exactly: every entry is 0 or 1.
    """
    stacked = sp.vstack([weighted_left_shift(space, ws, i).adjoint().mat for i in range(1, space.n + 1)])
    kernel_dim = space.dimension - partial_permutation_rank(stacked)

    projection_defect = None
    if isinstance(ws, ConstantWeights) and ws.value == 1.0:
        diff = GradedOperator.identity(space) - GradedOperator.from_entries(space, [0], [0], [1.0])
        for l_i in (left_creation(space, i) for i in range(1, space.n + 1)):
            diff = diff - l_i @ l_i.adjoint()
        top = space.level_slice(space.depth).start
        projection_defect = float(abs(diff.mat[:top, :top]).max())
    return VacuumReport(kernel_dim, projection_defect)
