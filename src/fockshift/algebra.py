"""Fourier expansions of operators in the shift algebra and the machinery
around them: band decompositions, Cesaro smoothing, polynomial approximants,
extraction of expansion coefficients from commutant members, the injectivity
pairing, and spectral-radius lower bounds from leading coefficients.

Every Fourier operator is one grid, ``_support_grid``: per row and support length, one column and value, to a
column level ``bound``, with W(u,w) or W(u,w)/W(e,w) grown along the words' tails as ``weights._prepend_tables`` grows
it, or ``_append_tables``' ratios.  The operator forms hand it to CSR (``_support_operator``); ``commutant_round_trip``
and ``cesaro_defect`` read the defects of ``commutant_extract`` and of ``cesaro_sum`` minus ``pk_polynomial`` off it.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .words import EMPTY, Word, record
from .weights import (
    MuSystem,
    WeightSystem,
    _append_tables,
    _right_path,
    require_bounded_mu,
    right_weight,
)
from .fock import (GradedOperator, TruncatedFock, column_norms, complex_product, largest_norm, max_column_norm,
                   right_shift_maps)


@record
class FourierElement:
    """A finitely supported coefficient map w -> a_w, the expansion of an
    algebra element A through A xi_e = sum_w a_w xi_w, carried together with
    its weight context."""

    coeffs: dict[Word, complex]
    weights: WeightSystem
    mu: MuSystem

    @classmethod
    def build(
        cls,
        coeffs: Mapping[Word, complex],
        weights: WeightSystem,
        mu: MuSystem | None = None,
    ) -> "FourierElement":
        cleaned = {w: complex(a) for w, a in coeffs.items() if a != 0}
        if mu is None:
            require_bounded_mu(weights)
            mu = weights.kept_commutant_mu()
        return cls(cleaned, weights, mu)

    def support_length(self) -> int:
        return max((len(w) for w in self.coeffs), default=0)

    def min_support_word(self) -> Word:
        """The graded-lex least support word (minimal length, ties by letters)."""
        if not self.coeffs:
            raise ValueError("empty Fourier expansion has no support")
        return min(self.coeffs)

    def vector(self, depth: int) -> np.ndarray:
        """a_w for every word of length <= min(support length, depth), in basis order."""
        support = TruncatedFock(self.weights.n, min(self.support_length(), depth))
        return support.vector_from_coeffs({w: c for w, c in self.coeffs.items() if len(w) <= support.depth})


def _support_grid(space: TruncatedFock, coeffs: np.ndarray, weights, *, bound: int | None = None,
                  lengths: list[int] | None = None) -> tuple:
    """(cols, data, keep, lengths): the entry c_v R_m(y) of row y = v*u, column u (``cols[y, j]``), at ``data[y, j]``
    for the support length m = ``lengths[j]`` (by default each length the support holds, decreasing), kept where
    c_v != 0 and |u| <= ``bound`` (every level if None).  ``coeffs`` holds c for every word of length <= m_max in
    basis order, 0 off the support.  Length m is one step over the rows of levels m .. m + bound: prefix and suffix
    indices are those of m - 1 read at the tails ``at`` (``TruncatedFock.heads``), and ``weights(m, rows, prefix, at)``
    gives R_m there."""
    n, depth, offsets = space.n, space.depth, space.level_offsets
    top, longest = depth if bound is None else bound, offsets.index(coeffs.size) - 1
    first, tail = space.heads()
    if lengths is None:  # the grid's columns
        lengths = [m for m in range(longest, -1, -1) if coeffs[offsets[m]:offsets[m + 1]].any()]
    cols, data, keep = (np.zeros((space.dimension, len(lengths)), dtype) for dtype in (np.int64, complex, bool))
    prefix, suffix = np.zeros(space.dimension, dtype=np.int64), np.arange(space.dimension)  # length 0: e and y
    for m in range(longest + 1 if top >= 0 else 0):  # no column level, so no entry, below bound 0
        rows = slice(offsets[m], offsets[min(m + top, depth) + 1])
        at = tail[rows]
        if m:
            prefix[rows], suffix[rows] = first[rows] * n ** (m - 1) + prefix[at], suffix[at]
        weight = weights(m, rows, prefix[rows], at)
        if m in lengths:
            c, j = coeffs[prefix[rows]], lengths.index(m)
            cols[rows, j], keep[rows, j], data[rows, j] = suffix[rows], c != 0, c * weight
    return cols, data, keep, lengths


def _support_operator(space: TruncatedFock, grid: tuple) -> GradedOperator:
    """The CSR hand-off of a ``_support_grid``: by decreasing m a row's columns increase, so the grid, read row by
    row where it keeps an entry, is a canonical CSR."""
    cols, data, keep, _ = grid
    every = np.broadcast_to(np.arange(space.dimension)[:, None], keep.shape)
    return GradedOperator.from_row_order(space, every, cols, data, keep)


def _expansion_grid(a: FourierElement, space: TruncatedFock, bound: int | None = None, lengths=None) -> tuple:
    """The ``_support_grid`` of ``expansion_operator``."""
    top = space.depth if bound is None else bound
    return _support_grid(space, a.vector(space.depth), lambda m, *_: np.concatenate([table.ravel() for table in
                         _append_tables(a.mu, m, None, min(space.depth - m, top))]), bound=bound, lengths=lengths)


def expansion_operator(a: FourierElement, space: TruncatedFock, *, bound: int | None = None) -> GradedOperator:
    """The compressed operator with columns A xi_v = W_mu(e,v)^{-1} sum_w a_w W_mu(w,v) xi_{w*v},
    less the terms with |w| + |v| > depth, for |v| <= ``bound`` (``_support_grid``).  The weight
    is carried as the ratio W_mu(w,v) / W_mu(e,v) of the append tables (``_append_tables``), since the products
    under- or overflow on long words; over every w of a length, they are that length's rows, raveled, in order."""
    return _support_operator(space, _expansion_grid(a, space, bound))


def apply_fourier(a: FourierElement, v: Word, depth: int) -> dict[Word, complex]:
    """The nonzero components of A xi_v = W_mu(e,v)^{-1} sum_w a_w W_mu(w,v) xi_{w*v}.

    Exact on the truncation; support words with |w| + |v| > depth are refused
    rather than silently dropped.
    """
    if a.support_length() + len(v) > depth:
        raise ValueError(
            f"support length {a.support_length()} plus |v| = {len(v)} exceeds depth {depth}"
        )
    space = TruncatedFock(a.weights.n, a.support_length() + len(v))
    return space.coeffs_from_vector(expansion_operator(a, space).column(v))


def phi_band(x: GradedOperator, j: int) -> GradedOperator:
    """The j-th level band of x: the part mapping level k+j into level k."""
    if abs(j) > x.space.depth:
        raise ValueError(f"band {j} outside the {x.space.depth + 1} levels")
    return GradedOperator.from_row_order(x.space, x.entry_rows(), x.mat.indices, x.mat.data, x.entry_bands() == j)


def cesaro_sum(x: GradedOperator, k: int) -> GradedOperator:
    """The order-k Cesaro smoothing: bands scaled by 1 - |j|/k, |j| < k, in a canonical copy of x."""
    if k < 1:
        raise ValueError("Cesaro order must be at least 1")
    out = GradedOperator(x.space, x.mat.copy())
    out.mat.sum_duplicates()
    offsets = np.abs(out.entry_bands())
    out.mat.data *= np.where(offsets < k, 1.0 - offsets / k, 0.0)
    return out


def _word_grid(space: TruncatedFock, ws: WeightSystem, coeffs: np.ndarray, normalized: bool,
               bound: int | None = None, lengths: list[int] | None = None) -> tuple:
    """The grid of sum_w c_w T_w, or sum_w c_w W(e,w)^{-1} T_w if ``normalized``, for ``coeffs``, the column
    ``bound`` and the ``lengths`` as ``_support_grid`` takes them.  R_m(y), W(u,w) for y = w*u and |w| = m
    (normalized, W(u,w)/W(e,w)), is R_{m-1}(tail y) lambda_{first y, tail y}, divided by lambda_{first y,
    prefix_{m-1}(tail y)} if normalized: the factors of ``_prepend_tables`` in order, read off the raveled lambda
    levels, which line up with the basis one level up.  The normalized entries stay O(1) where both products leave
    the float range."""
    top, longest = space.depth if bound is None else bound, space.level_offsets.index(coeffs.size) - 1
    levels = ws.kept_lambda_levels(max(min(longest + top, space.depth) - 1, 0))
    lam, weight = np.concatenate([np.ones(1)] + [level.ravel() for level in levels]), np.ones(space.dimension)

    def weights(m, rows, prefix, at):
        if m:
            weight[rows] = weight[at] * lam[rows]
            if normalized:
                weight[rows] /= lam[prefix]
        return weight[rows]

    with np.errstate(over="ignore", invalid="ignore"):  # weights past the float range give inf or NaN entries
        return _support_grid(space, coeffs, weights, bound=bound, lengths=lengths)


def word_operator(space: TruncatedFock, ws: WeightSystem, w: Word) -> GradedOperator:
    """The compressed operator T_w: xi_u -> W(u,w) xi_{w*u}, 0 when |w| > depth."""
    if len(w) > space.depth:
        return GradedOperator.zero(space)
    return _support_operator(space, _word_grid(space, ws, TruncatedFock(space.n, len(w)).basis_vector(w), False))


def operator_from_fourier(a: FourierElement, space: TruncatedFock, *, bound: int | None = None) -> GradedOperator:
    """The compressed operator sum_w a_w W(e,w)^{-1} T_w of an expansion, on the columns
    of level <= ``bound`` (every column if None).  Words longer than the depth have T_w = 0."""
    return _support_operator(space, _word_grid(space, a.weights, a.vector(space.depth), True, bound))


def pk_polynomial(a: FourierElement, k: int, space: TruncatedFock, *, bound: int | None = None) -> GradedOperator:
    """The Fejer-weighted polynomial sum_{|w|<k} (1 - |w|/k) a_w W(e,w)^{-1} T_w, on the columns <= ``bound``."""
    if k < 1:
        raise ValueError("polynomial order must be at least 1")
    fejer = {w: (1.0 - len(w) / k) * coeff for w, coeff in a.coeffs.items() if len(w) < k}
    return operator_from_fourier(FourierElement(fejer, a.weights, a.mu), space, bound=bound)


@np.errstate(over="ignore", invalid="ignore")  # inf - inf is NaN, as in scipy's difference
def cesaro_defect(a: FourierElement, k: int, space: TruncatedFock, *, bound: int | None = None) -> tuple:
    """The largest column norm of sigma_k(X) - P_k over |v| <= ``bound`` and its first column, None if 0, as
    ``max_column_norm`` reads it off ``cesaro_sum`` and ``pk_polynomial``, bit for bit, off X's and P_k's grids: an
    entry of length m lies in band -m, so it is (c R)(1 - m/k) - ((1 - m/k) c) R, or (c R) 0 where P_k has none."""
    if k < 1:
        raise ValueError("Cesaro order must be at least 1")
    fejer, vector = lambda m: np.maximum(1.0 - m / k, 0.0), a.vector(space.depth)
    cols, data, keep, lengths = _word_grid(space, a.weights, vector, True, bound)
    polynomial = vector * fejer(space.levels()[:vector.size])
    _, p_data, p_keep, _ = _word_grid(space, a.weights, polynomial, True, bound, lengths)
    scale = np.broadcast_to(fejer(np.array(lengths)), keep.shape)[keep]  # P_k keeps a subset of X's entries
    diff = data[keep] * scale - np.where(p_keep[keep], p_data[keep], 0)
    return largest_norm(column_norms(cols[keep], diff, space.dimension))


@record
class ExtractionResult:
    element: FourierElement
    residual: float
    columns_checked: int


def _require_commuting(space: TruncatedFock, defects) -> None:
    """ValueError at the first letter i whose (defect, column) in ``defects`` passes 1e-9 (absolute, per column)."""
    for i, (defect, idx) in enumerate(defects, start=1):
        if not defect <= 1e-9:
            raise ValueError(f"operator does not commute with right shift {i}: defect {defect:.3e} at column "
                             f"{space.word_at(idx)}")


def commutant_extract(
    x: GradedOperator,
    ws: WeightSystem,
    mu: MuSystem | None = None,
) -> ExtractionResult:
    """Read the expansion coefficients a_w = <X xi_e, xi_w> off a commutant
    member and certify them by re-predicting every column within reach.

    X must commute with the compressed right shifts on levels <= depth-2 up
    to 1e-9 (absolute, per basis column); the returned residual
    is the worst mismatch between X xi_v and the expansion's prediction over
    |v| <= depth - support length.
    """
    space = x.space
    mu = ws.kept_commutant_mu() if mu is None else mu
    levels = space.levels()
    shifts = right_shift_maps(space, mu)
    commutators = (shifts.before(i, x) - shifts.after(i, x) for i in range(1, space.n + 1))
    _require_commuting(space, (max_column_norm(c.mat, levels <= space.depth - 2) for c in commutators))
    element = FourierElement.build(space.coeffs_from_vector(x.column(EMPTY)), ws, mu)
    reach = space.depth - element.support_length()
    residual, _ = max_column_norm((x - expansion_operator(element, space, bound=reach)).mat, levels <= reach)
    return ExtractionResult(element, residual, space.level_offsets[reach + 1])


@np.errstate(over="ignore", invalid="ignore")  # inf - inf is NaN, as in scipy's difference
def _commutation_defects(space: TruncatedFock, grid: tuple, mu: MuSystem) -> list[tuple[float, int | None]]:
    """Per letter i, ``max_column_norm`` of X R_i - R_i X over |u| <= depth - 2, as ``commutant_extract`` reads it, for
    X on a ``_support_grid``: X's entry at row p = v*u (|p| < depth) gives data[p*i] mu_{i,u} - mu_{i,p} data[p] at row
    p*i, both of v's length (the first term where the grid keeps p*i), formed as ``ShiftMap`` forms them."""
    cols, data, keep, lengths = grid
    n, levels, offsets = space.n, space.levels(), np.asarray(space.level_offsets)
    low = levels[:, None] - np.array(lengths, dtype=np.int64) <= space.depth - 2
    parents, js = np.nonzero(keep & low & (levels[:, None] < space.depth))
    u, mu_cols = cols[parents, js], right_shift_maps(space, mu).values
    first_child = offsets[levels[parents] + 1] + (parents - offsets[levels[parents]]) * n  # p*1, one level up
    defects = []
    for i in range(n):
        child, after = first_child + i, complex_product(mu_cols[i, parents], data[parents, js])
        before = np.where(keep[child, js], complex_product(data[child, js], mu_cols[i, u]), 0)
        defects.append(largest_norm(column_norms(u, before - after, space.dimension)))
    return defects


@np.errstate(over="ignore", invalid="ignore")  # inf - inf is NaN, as in scipy's difference
def commutant_round_trip(a: FourierElement, space: TruncatedFock, *, bound: int | None = None) -> ExtractionResult:
    """``commutant_extract(operator_from_fourier(a, space, bound=bound), a.weights, a.mu)``, bit for bit, read off the
    grids of X and of the extracted expansion E: the coefficients are X's column-e entries, and the residual is X's
    grid minus E's, laid on X's lengths, wherever either keeps an entry of a column |v| <= depth - support length."""
    x = cols, data, keep, lengths = _word_grid(space, a.weights, a.vector(space.depth), True, bound)
    _require_commuting(space, _commutation_defects(space, x, a.mu))
    column_e, (rows, js) = np.zeros(space.dimension, dtype=complex), np.nonzero(keep & (cols == 0))
    column_e[rows] = data[rows, js]
    element = FourierElement.build(space.coeffs_from_vector(column_e), a.weights, a.mu)
    reach = space.depth - element.support_length()
    e_cols, e_data, e_keep, _ = _expansion_grid(element, space, reach, lengths)
    at = np.where(keep, cols, e_cols)
    both = (keep | e_keep) & (space.levels()[at] <= reach)
    diff = np.where(keep, data, 0) - np.where(e_keep, e_data, 0)
    residual, _ = largest_norm(column_norms(at[both], diff[both], space.dimension))
    return ExtractionResult(element, residual, space.level_offsets[reach + 1])


@record
class PairingCheck:
    """The matrix element <A xi, xi_{v1*v2}> computed through the expansion
    formula and through its closed form; they agree, and are nonzero whenever
    both leading coefficients are."""

    expansion_value: complex
    closed_form: complex


def _require_minimal_support(v: Word, coeffs: Mapping[Word, complex], what: str) -> None:
    """ValueError unless ``v`` is a word of least length among the nonzero ``coeffs``."""
    support = [w for w, c in coeffs.items() if c != 0]
    if v not in support:
        raise ValueError(f"{v} is not a support word of the {what}")
    if any(len(w) < len(v) for w in support):
        raise ValueError(f"{v} is not of minimal length in the {what} support")


def injectivity_pairing(
    a: FourierElement,
    xi: Mapping[Word, complex],
    v1: Word,
    v2: Word,
) -> PairingCheck:
    """Pair A xi against the basis vector at v1*v2 for minimal-length support
    words v1 (of A) and v2 (of xi)."""
    _require_minimal_support(v1, a.coeffs, "expansion")
    _require_minimal_support(v2, xi, "vector")

    target = v1 * v2
    space = TruncatedFock(a.weights.n, len(target))
    vec = space.vector_from_coeffs({w: b for w, b in xi.items() if len(w) <= space.depth})
    total = complex(expansion_operator(a, space).apply(vec)[space.index_of(target)])
    closed = (
        a.coeffs[v1]
        * xi[v2]
        * right_weight(a.mu, v1, v2)
        / right_weight(a.mu, EMPTY, v2)
    )
    return PairingCheck(total, closed)


def fourier_power_coeffs(a: FourierElement, k: int, depth: int) -> dict[Word, complex]:
    """Coefficients of A^k xi_e, computed by iterating the expansion formula;
    components beyond the depth are dropped, matching the compression."""
    if k < 0:
        raise ValueError("power must be nonnegative")
    space = TruncatedFock(a.weights.n, depth)
    op = expansion_operator(a, space)
    state = space.basis_vector(EMPTY)
    for _ in range(k):
        state = op.apply(state)
    return space.coeffs_from_vector(state)


@record
class SpectralRadiusBounds:
    """Lower bounds |<A^k xi_e, xi_{v^k}>|^{1/k} on the spectral radius, with
    the closed form of the leading coefficient for cross-checking."""

    v: Word
    ks: list[int]
    bounds: list[float]
    power_values: list[complex]
    closed_forms: list[complex]


def spectral_radius_lower(a: FourierElement, v: Word, k_max: int, depth: int) -> SpectralRadiusBounds:
    """For k = 1..k_max, the bound from the v^k component of A^k xi_e.

    ``v`` must be a minimal-length support word with a_v != 0 and
    |v| * k_max <= depth.  The leading coefficient has the closed form
    a_v^k W_mu(e,v)^{-(k-1)} W_mu(v, v^{k-1}); every other component of
    A^k xi_e sits at words of length >= k |v|.
    """
    _require_minimal_support(v, a.coeffs, "expansion")
    if len(v) * k_max > depth:
        raise ValueError(f"|v| * k_max = {len(v) * k_max} exceeds depth {depth}")
    ks: list[int] = []
    bounds: list[float] = []
    power_values: list[complex] = []
    closed_forms: list[complex] = []
    a_v = a.coeffs[v]
    log_base = _right_path(a.mu, EMPTY, v, log=True)[-1]
    path = _right_path(a.mu, v, v, k_max - 1)  # W_mu(v, v^(k-1)) at [k - 1]
    space = TruncatedFock(a.weights.n, depth)
    op = expansion_operator(a, space)
    state = space.basis_vector(EMPTY)
    for k in range(1, k_max + 1):
        state = op.apply(state)
        value = complex(state[space.index_of(v**k)])
        closed = a_v**k * math.exp(-(k - 1) * log_base) * path[k - 1]
        ks.append(k)
        power_values.append(value)
        closed_forms.append(closed)
        bounds.append(abs(value) ** (1.0 / k))
    return SpectralRadiusBounds(v, ks, bounds, power_values, closed_forms)
