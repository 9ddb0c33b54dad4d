"""Truncated Fock-space operator models.

Operators live on the span of the basis vectors for words of length <= depth
and are stored sparse.  Raising operators are compressed: their columns at
the top level are zero, so every identity below is checked on the levels
where the compressed statement is exact, making defects true zeros instead
of truncation noise.  Shifts act through their column maps (``ShiftMap``, the space's
kept rows beside the weight system's kept levels): X S_i gathers columns and S_i X moves
rows, one term per entry.  A map certified injective is a scaled partial permutation:
norms and ranks are read off its weights.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .words import BasisEnumeration, Word, record
from .weights import ConstantWeights, MuSystem, WeightSystem, _kept_once

DENSE_LIMIT = 4096


class TruncatedFock(BasisEnumeration):
    """The span of the Fock basis vectors for words of length <= depth."""

    def __init__(self, n: int, depth: int):
        super().__init__(n, depth)
        self._levels = np.repeat(np.arange(depth + 1), np.diff(self.level_offsets))

    def levels(self) -> np.ndarray:
        """Per-index word length, as an array aligned with the basis."""
        return self._levels

    def heads(self) -> tuple[np.ndarray, np.ndarray]:
        """The first letter a and the tail index of every word y = a*x, aligned with the basis (1 and 0 at e,
        which has neither), built on the first call and kept: index(a*x) = a n^|x| + index(x)."""
        def build():
            offsets, below = np.asarray(self.level_offsets), np.maximum(self._levels - 1, 0)
            first, rank = np.divmod(np.arange(self.dimension) - offsets[self._levels], self.n**below)
            return first + 1, offsets[below] + rank
        return _kept_once(self, "_heads", build)

    def shift_rows(self, left: bool) -> np.ndarray:
        """The rows of i*w (left) or w*i (right), ``_shift_rows``, built once per direction and kept read-only."""
        return _kept_once(self, "_left_rows" if left else "_right_rows", lambda: _shift_rows(self, left))

    def basis_vector(self, w: Word) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        vec[self.index_of(w)] = 1.0
        return vec

    def vector_from_coeffs(self, coeffs: Mapping[Word, complex]) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=complex)
        for w, value in coeffs.items():
            vec[self.index_of(w)] = value
        return vec

    def coeffs_from_vector(self, vec: np.ndarray) -> dict[Word, complex]:
        out: dict[Word, complex] = {}
        for idx in np.nonzero(np.abs(vec) > 0)[0]:  # NaN entries are dropped too
            out[self.word_at(int(idx))] = complex(vec[idx])
        return out

    def __repr__(self) -> str:
        return f"TruncatedFock(n={self.n}, depth={self.depth}, dim={self.dimension})"


class GradedOperator:
    """A sparse operator on the truncated basis, carrying its level-band support.

    Band j holds the entries mapping level k+j into level k, so left and right
    shifts occupy band -1 and their adjoints band +1.
    """

    def __init__(self, space: TruncatedFock, mat):
        import scipy.sparse as sp  # here, not at the top: checks and regions build no sparse matrix
        self.space = space
        self.mat = mat if isinstance(mat, sp.csr_array) and mat.dtype == complex else sp.csr_array(mat, dtype=complex)
        if self.mat.shape != (space.dimension, space.dimension):
            raise ValueError(f"matrix shape {self.mat.shape} does not match dimension {space.dimension}")

    @classmethod
    def from_row_order(cls, space: TruncatedFock, rows, cols, data, keep) -> "GradedOperator":
        """The entries ``data[keep]`` at ``(rows, cols)[keep]``, listed in CSR order: rows nondecreasing."""
        import scipy.sparse as sp
        indptr = np.zeros(space.dimension + 1, dtype=cols.dtype)
        np.cumsum(np.bincount(rows[keep], minlength=space.dimension), out=indptr[1:])
        return cls(space, sp.csr_array((data[keep], cols[keep], indptr), shape=(space.dimension,) * 2))

    @classmethod
    def identity(cls, space: TruncatedFock) -> "GradedOperator":
        diagonal = np.arange(space.dimension)
        return cls.from_row_order(space, diagonal, diagonal, np.ones(space.dimension, dtype=complex), slice(None))

    @classmethod
    def zero(cls, space: TruncatedFock) -> "GradedOperator":
        empty = np.zeros(0, dtype=np.int64)
        return cls.from_row_order(space, empty, empty, np.zeros(0, dtype=complex), slice(None))

    @property
    def bands(self) -> frozenset[int]:
        return frozenset(self.entry_bands()[self.mat.data != 0].tolist())

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, in storage order."""
        return np.repeat(np.arange(self.space.dimension), np.diff(self.mat.indptr))

    def entry_bands(self) -> np.ndarray:
        """The band |column| - |row| of every stored entry, in storage order."""
        return self.space.levels()[self.mat.indices] - self.space.levels()[self.entry_rows()]

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


@record(eq=False)
class ShiftMap:
    """The compressed shifts of all n letters as their column maps: shift i
    sends column c (|w| < depth) to row ``rows[i-1, c]`` with weight
    ``values[i-1, c]``, and its top-level columns to 0.  The rows increase
    with c, so a product by a shift keeps a canonical CSR in order."""

    space: TruncatedFock
    rows: np.ndarray
    values: np.ndarray

    def _letter(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= i <= self.space.n:
            raise ValueError(f"letter {i} outside [1, {self.space.n}]")
        return self.rows[i - 1], self.values[i - 1]

    def before(self, i: int, x: GradedOperator) -> GradedOperator:
        """X S_i: column c (|w| < depth) is column ``rows[i-1, c]`` of X times ``values[i-1, c]``."""
        rows, values = self._letter(i)
        source = np.full(self.space.dimension, -1, dtype=x.mat.indices.dtype)
        source[rows] = np.arange(rows.size)
        cols = source[x.mat.indices]
        data = complex_product(x.mat.data, values[cols])
        return GradedOperator.from_row_order(self.space, x.entry_rows(), cols, data, (cols >= 0) & (data != 0))

    def after(self, i: int, x: GradedOperator) -> GradedOperator:
        """S_i X: row r (|w| < depth) of X, times ``values[i-1, r]``, moves to row ``rows[i-1, r]``."""
        rows, values = self._letter(i)
        counts, end = np.diff(x.mat.indptr[: rows.size + 1]), x.mat.indptr[rows.size]
        data = complex_product(np.repeat(values, counts), x.mat.data[:end])
        return GradedOperator.from_row_order(self.space, np.repeat(rows, counts), x.mat.indices[:end], data, data != 0)

    def operator(self, i: int) -> GradedOperator:
        """The sparse matrix of shift i: S_i times the identity."""
        return self.after(i, GradedOperator.identity(self.space))


def complex_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for arrays of one shape, part by part, as Python and scipy's sparse products
    multiply complex numbers; numpy's complex ``*`` may differ from them in the last bit."""
    out = np.empty(b.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN entries come out as scipy's do
        out.real, out.imag = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return out


def _shift_rows(space: TruncatedFock, left: bool) -> np.ndarray:
    """The row of i*w (left) or w*i (right) at [i-1, index of w], for |w| < depth:
    prepending i moves rank r at level k to (i-1) n^k + r at level k+1;
    appending i moves it to r n + i-1."""
    n, offsets = space.n, space.level_offsets
    rows = np.empty((n, offsets[space.depth]), dtype=np.int64)
    letters = np.arange(n)[:, None]
    for k in range(space.depth):
        rank = np.arange(n**k)
        target = letters * n**k + rank if left else rank * n + letters
        rows[:, space.level_slice(k)] = offsets[k + 1] + target
    rows.setflags(write=False)
    return rows


def _level_shifts(space: TruncatedFock, levels: list[np.ndarray], left: bool) -> ShiftMap:
    """The compressed shifts xi_w -> levels[|w|][i-1, rank of w] xi_{i*w} (left)
    or xi_{w*i} (right), for |w| < depth and every letter i: the space's kept
    rows, and the levels side by side as floats."""
    values = np.concatenate(levels, axis=1, dtype=float) if levels else np.empty((space.n, 0))
    return ShiftMap(space, space.shift_rows(left), values)


def left_shift_maps(space: TruncatedFock, ws: WeightSystem) -> ShiftMap:
    return _level_shifts(space, ws.kept_lambda_levels(space.depth - 1), left=True)


def right_shift_maps(space: TruncatedFock, mu: MuSystem) -> ShiftMap:
    mu.require_bounded()
    return _level_shifts(space, mu.kept_mu_levels(space.depth - 1), left=False)


def weighted_left_shift(space: TruncatedFock, ws: WeightSystem, i: int) -> GradedOperator:
    """The compressed i-th weighted left shift: xi_w -> lambda_{i,w} xi_{i*w}."""
    return left_shift_maps(space, ws).operator(i)


def weighted_right_shift(space: TruncatedFock, mu: MuSystem, i: int) -> GradedOperator:
    """The compressed i-th weighted right shift: xi_w -> mu_{i,w} xi_{w*i}."""
    return right_shift_maps(space, mu).operator(i)


def left_creation(space: TruncatedFock, i: int) -> GradedOperator:
    return weighted_left_shift(space, ConstantWeights(space.n, 1.0), i)


def right_creation(space: TruncatedFock, i: int) -> GradedOperator:
    return weighted_right_shift(space, ConstantWeights(space.n, 1.0).kept_commutant_mu(), i)


def certify_injective(rows: np.ndarray, shape: tuple[int, int]) -> None:
    """ValueError, naming ``shape``, unless no two columns of a column map share
    a row: then its matrix has at most one entry per row and per column, and
    its singular values are the absolute values of its entries."""
    if np.bincount(rows).max(initial=0) > 1:
        raise ValueError(f"the {shape[0]}x{shape[1]} matrix is not a partial permutation with scaled entries")


def column_norms(cols: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """The Euclidean norm of each of ``size`` columns holding ``values`` at ``cols``, listed in row order, at most one
    per row and column (a CSR's ``indices`` and ``data``): one ``np.bincount`` adds each column's squares in row
    order, as scipy's ``sum(axis=0)`` adds them."""
    return np.sqrt(np.bincount(cols, weights=np.abs(values) ** 2, minlength=size))


def max_column_norm(mat, mask: np.ndarray | bool = True) -> tuple[float, int | None]:
    """The largest column norm over the columns in ``mask`` (every column by default), and the first
    column attaining it, None if it is 0.  A NaN norm counts as the largest."""
    return largest_norm(np.where(mask, column_norms(mat.indices, mat.data, mat.shape[1]), 0.0))


def largest_norm(norms: np.ndarray) -> tuple[float, int | None]:
    """The largest of ``norms`` and the first index attaining it, None if it is 0.  A NaN counts as the largest."""
    idx = int(np.argmax(norms))
    return float(norms[idx]), (None if norms[idx] == 0.0 else idx)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@record
class CommutationReport:
    max_defect: float
    witness: tuple[int, int, Word] | None
    level_cap: int


def _commutator_columns(t: ShiftMap, i: int, s: ShiftMap, j: int, cols: int) -> np.ndarray:
    """||(T_i S_j - S_j T_i) xi_c|| for the first ``cols`` columns, whose products
    stay below the top level: one entry each, |a - b| where both hit the same row."""
    t_rows, t_values, s_rows, s_values = t.rows[i - 1], t.values[i - 1], s.rows[j - 1], s.values[j - 1]
    ts_rows, ts = t_rows[s_rows[:cols]], t_values[s_rows[:cols]] * s_values[:cols]
    st_rows, st = s_rows[t_rows[:cols]], s_values[t_rows[:cols]] * t_values[:cols]
    out, apart = np.abs(ts - st), ts_rows != st_rows
    out[apart] = np.sqrt(ts[apart] * ts[apart] + st[apart] * st[apart])
    return out


def commutation_defect(space: TruncatedFock, ws: WeightSystem, mu: MuSystem | None = None) -> CommutationReport:
    """Max over i, j and |w| <= depth-2 of ||(T_i S_j - S_j T_i) xi_w||, composed
    on the shifts' column maps.

    Both products stay within the truncation on those columns, so the defect
    vanishes exactly when mu carries the commutant weights of ws.
    """
    if space.depth < 1:
        raise ValueError("depth must be at least 1")
    mu = ws.kept_commutant_mu() if mu is None else mu
    cap, n = space.depth - 2, space.n
    cols = space.level_offsets[space.depth - 1]
    if cols == 0:
        return CommutationReport(0.0, None, cap)
    lefts, rights = left_shift_maps(space, ws), right_shift_maps(space, mu)
    letters = range(1, n + 1)
    # products may overflow, and inf - inf is a NaN defect that fails the check
    with np.errstate(over="ignore", invalid="ignore"):
        defects = np.concatenate([_commutator_columns(lefts, i, rights, j, cols) for i in letters for j in letters])
    # the first pair, then the first column, attaining the maximum
    worst, at = largest_norm(defects)
    witness = None if at is None else (at // cols // n + 1, at // cols % n + 1, space.word_at(at % cols))
    return CommutationReport(worst, witness, cap)


@record
class NormReport:
    letter: int
    operator_norm: float
    weight_sup: float

    @property
    def gap(self) -> float:
        return abs(self.operator_norm - self.weight_sup)


def norm_check(space: TruncatedFock, ws: WeightSystem) -> list[NormReport]:
    """||T_i||, the largest |weight| of its certified column map, against the
    sup of lambda_{i,w} over the columns the compression keeps (|w| < depth)."""
    if space.depth < 1:
        raise ValueError("depth must be at least 1")
    shifts = left_shift_maps(space, ws)
    for rows in shifts.rows:
        certify_injective(rows, (space.dimension, space.dimension))
    levels = ws.kept_lambda_levels(space.depth - 1)
    norms, sups = np.abs(shifts.values).max(axis=1).tolist(), np.concatenate(levels, axis=1).max(axis=1).tolist()
    return [NormReport(i, norm, sup) for i, (norm, sup) in enumerate(zip(norms, sups), start=1)]


@record
class VacuumReport:
    joint_kernel_dim: int
    projection_defect: float | None


def vacuum_kernel_check(space: TruncatedFock, ws: WeightSystem) -> VacuumReport:
    """The joint kernel of the adjoint shifts is the vacuum line.

    The stacked adjoints [T_1*; ...; T_n*] hold lambda_{i,w} at row (i, w) and
    column i*w.  Once the images i*w of all letters are certified distinct,
    the stack is a partial permutation, so its rank is exactly its count of
    nonzero entries.  For the unweighted system the vacuum projection identity
    I - sum_i L_i L_i* = P_e is also checked on levels <= depth-1, exactly:
    each L_i L_i* is diagonal with the squared weights at the images, and
    every entry is 0 or 1.
    """
    if space.depth < 1:
        raise ValueError("depth must be at least 1")
    dim = space.dimension
    shifts = left_shift_maps(space, ws)
    rows = shifts.rows.ravel()
    certify_injective(rows, (space.n * dim, dim))
    kernel_dim = dim - int(np.count_nonzero(shifts.values))

    projection_defect = None
    if isinstance(ws, ConstantWeights) and ws.value == 1.0:
        diff = np.ones(dim)
        diff[0] = 0.0
        diff -= np.bincount(rows, weights=(shifts.values**2).ravel(), minlength=dim)
        projection_defect = float(np.abs(diff[: space.level_slice(space.depth).start]).max())
    return VacuumReport(kernel_dim, projection_defect)
