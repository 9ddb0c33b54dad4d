"""Fourier expansions of operators in the shift algebra and the machinery
around them: band decompositions, Cesaro smoothing, polynomial approximants,
extraction of expansion coefficients from commutant members, the injectivity
pairing, and spectral-radius lower bounds from leading coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .words import EMPTY, Word
from .weights import (
    CommutantMu,
    MuSystem,
    WeightSystem,
    left_weight,
    log_right_weight,
    require_bounded_mu,
    right_weight,
)
from .fock import GradedOperator, TruncatedFock, column_norms, weighted_right_shift


@dataclass(frozen=True)
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
            mu = CommutantMu(weights)
        return cls(cleaned, weights, mu)

    @property
    def support(self) -> list[Word]:
        return sorted(self.coeffs)

    def support_length(self) -> int:
        return max((len(w) for w in self.coeffs), default=0)

    def min_support_word(self) -> Word:
        """The graded-lex least support word (minimal length, ties by letters)."""
        if not self.coeffs:
            raise ValueError("empty Fourier expansion has no support")
        return min(self.coeffs)


def apply_fourier(a: FourierElement, v: Word, depth: int) -> dict[Word, complex]:
    """Evaluate A xi_v = W_mu(e,v)^{-1} sum_w a_w W_mu(w,v) xi_{w*v}.

    Exact on the truncation; support words with |w| + |v| > depth are refused
    rather than silently dropped.
    """
    if a.support_length() + len(v) > depth:
        raise ValueError(
            f"support length {a.support_length()} plus |v| = {len(v)} exceeds depth {depth}"
        )
    base = right_weight(a.mu, EMPTY, v)
    out: dict[Word, complex] = {}
    for w, coeff in a.coeffs.items():
        out[w * v] = coeff * right_weight(a.mu, w, v) / base
    return out


def phi_band(x: GradedOperator, j: int) -> GradedOperator:
    """The j-th level band of x: the part mapping level k+j into level k."""
    levels = x.space.levels()
    if abs(j) > x.space.depth:
        raise ValueError(f"band {j} outside the {x.space.depth + 1} levels")
    coo = x.mat.tocoo()
    keep = (levels[coo.col] - levels[coo.row]) == j
    return GradedOperator.from_entries(x.space, coo.row[keep], coo.col[keep], coo.data[keep])


def cesaro_sum(x: GradedOperator, k: int) -> GradedOperator:
    """The order-k Cesaro smoothing: bands scaled by 1 - |j|/k, |j| < k."""
    if k < 1:
        raise ValueError("Cesaro order must be at least 1")
    levels = x.space.levels()
    coo = x.mat.tocoo()
    offsets = np.abs(levels[coo.col] - levels[coo.row])
    factors = np.where(offsets < k, 1.0 - offsets / k, 0.0)
    return GradedOperator.from_entries(x.space, coo.row, coo.col, coo.data * factors)


def word_operator(space: TruncatedFock, ws: WeightSystem, w: Word) -> GradedOperator:
    """The compressed operator T_w: xi_u -> W(u,w) xi_{w*u}, with W(u,w)
    multiplied up one letter of w at a time from the right."""
    n, offsets = space.n, space.basis.level_offsets
    lams = {a: ws.lambda_levels(a, space.depth - 1) for a in set(w.letters)}
    top = max(space.depth - len(w) + 1, 0)
    cols = np.arange(offsets[top])
    rows = np.empty_like(cols)
    values = np.ones(cols.size)
    for k in range(top):
        rank = np.arange(n**k)
        level = k
        for letter in reversed(w.letters):
            values[space.level_slice(k)] *= lams[letter][level][rank]
            rank = (letter - 1) * n**level + rank
            level += 1
        rows[space.level_slice(k)] = offsets[level] + rank
    return GradedOperator.from_entries(space, rows, cols, values)


def operator_from_fourier(a: FourierElement, space: TruncatedFock) -> GradedOperator:
    """The compressed operator sum_w a_w W(e,w)^{-1} T_w of an expansion."""
    total = GradedOperator.zero(space)
    for w, coeff in a.coeffs.items():
        total = total + (coeff / left_weight(a.weights, EMPTY, w)) * word_operator(space, a.weights, w)
    return total


def pk_polynomial(a: FourierElement, k: int, space: TruncatedFock) -> GradedOperator:
    """The Fejer-weighted polynomial sum_{|w|<k} (1 - |w|/k) a_w W(e,w)^{-1} T_w."""
    if k < 1:
        raise ValueError("polynomial order must be at least 1")
    total = GradedOperator.zero(space)
    for w, coeff in a.coeffs.items():
        if len(w) >= k:
            continue
        scale = (1.0 - len(w) / k) * coeff / left_weight(a.weights, EMPTY, w)
        total = total + scale * word_operator(space, a.weights, w)
    return total


@dataclass(frozen=True)
class ExtractionResult:
    element: FourierElement
    residual: float
    columns_checked: int


def commutant_extract(
    x: GradedOperator,
    ws: WeightSystem,
    mu: MuSystem | None = None,
    commutation_tol: float = 1e-9,
) -> ExtractionResult:
    """Read the expansion coefficients a_w = <X xi_e, xi_w> off a commutant
    member and certify them by re-predicting every column within reach.

    X must commute with the compressed right shifts on levels <= depth-2 up
    to ``commutation_tol`` (absolute, per basis column); the returned residual
    is the worst mismatch between X xi_v and the expansion's prediction over
    |v| <= depth - support length.
    """
    space = x.space
    if mu is None:
        mu = CommutantMu(ws)
    levels = space.levels()
    col_mask = levels <= space.depth - 2
    for i in range(1, space.n + 1):
        s_i = weighted_right_shift(space, mu, i)
        col_norms = column_norms((x @ s_i - s_i @ x).mat)
        col_norms[~col_mask] = 0.0
        idx = int(np.argmax(col_norms))
        if col_norms[idx] > commutation_tol:
            raise ValueError(
                f"operator does not commute with right shift {i}: defect "
                f"{col_norms[idx]:.3e} at column {space.word_at(idx)}"
            )

    vacuum_column = x.column(EMPTY)
    coeffs = space.coeffs_from_vector(vacuum_column)
    element = FourierElement.build(coeffs, ws, mu)
    support_length = element.support_length()

    worst = 0.0
    checked = 0
    for k in range(space.depth - support_length + 1):
        for v in space.basis.level_words(k):
            predicted = space.vector_from_coeffs(apply_fourier(element, v, space.depth))
            worst = max(worst, float(np.linalg.norm(x.column(v) - predicted)))
            checked += 1
    return ExtractionResult(element, worst, checked)


@dataclass(frozen=True)
class PairingCheck:
    """The matrix element <A xi, xi_{v1*v2}> computed through the expansion
    formula and through its closed form; they agree, and are nonzero whenever
    both leading coefficients are."""

    expansion_value: complex
    closed_form: complex


def injectivity_pairing(
    a: FourierElement,
    xi: Mapping[Word, complex],
    v1: Word,
    v2: Word,
) -> PairingCheck:
    """Pair A xi against the basis vector at v1*v2 for minimal-length support
    words v1 (of A) and v2 (of xi)."""
    if v1 not in a.coeffs or a.coeffs[v1] == 0:
        raise ValueError(f"{v1} is not a support word of the expansion")
    if any(len(w) < len(v1) for w in a.coeffs):
        raise ValueError(f"{v1} is not of minimal length in the expansion support")
    xi_support = [w for w, b in xi.items() if b != 0]
    if v2 not in xi_support:
        raise ValueError(f"{v2} is not a support word of the vector")
    if any(len(w) < len(v2) for w in xi_support):
        raise ValueError(f"{v2} is not of minimal length in the vector support")

    target = v1 * v2
    total = complex(0.0)
    for w in xi_support:
        # coefficient of xi_target in A xi_w, per the expansion formula
        if len(w) > len(target):
            continue
        u_letters = target.letters[: len(target) - len(w)]
        if target.letters[len(target) - len(w):] != w.letters:
            continue
        u = Word(u_letters)
        if u in a.coeffs:
            total += (
                xi[w]
                * a.coeffs[u]
                * right_weight(a.mu, u, w)
                / right_weight(a.mu, EMPTY, w)
            )
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
    state: dict[Word, complex] = {EMPTY: 1.0}
    for _ in range(k):
        nxt: dict[Word, complex] = {}
        for v, value in state.items():
            base = right_weight(a.mu, EMPTY, v)
            for w, coeff in a.coeffs.items():
                if len(w) + len(v) > depth:
                    continue
                target = w * v
                nxt[target] = nxt.get(target, 0.0) + value * coeff * right_weight(a.mu, w, v) / base
        state = nxt
    return state


@dataclass(frozen=True)
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
    if v not in a.coeffs or a.coeffs[v] == 0:
        raise ValueError(f"{v} is not a support word of the expansion")
    if any(len(w) < len(v) for w in a.coeffs):
        raise ValueError(f"{v} is not of minimal length in the expansion support")
    if len(v) * k_max > depth:
        raise ValueError(f"|v| * k_max = {len(v) * k_max} exceeds depth {depth}")
    ks: list[int] = []
    bounds: list[float] = []
    power_values: list[complex] = []
    closed_forms: list[complex] = []
    a_v = a.coeffs[v]
    log_base = log_right_weight(a.mu, EMPTY, v)
    for k in range(1, k_max + 1):
        coeffs_k = fourier_power_coeffs(a, k, depth)
        value = coeffs_k.get(v**k, 0.0)
        closed = (
            a_v**k
            * math.exp(-(k - 1) * log_base)
            * right_weight(a.mu, v, v ** (k - 1))
        )
        ks.append(k)
        power_values.append(value)
        closed_forms.append(closed)
        bounds.append(abs(value) ** (1.0 / k))
    return SpectralRadiusBounds(v, ks, bounds, power_values, closed_forms)
