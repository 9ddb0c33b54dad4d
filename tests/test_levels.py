"""The per-level array paths against the scalar, per-word oracle.

Every comparison but three is exact: the array paths perform the same
floating-point operations in the same order as the per-word loops over
``lambda_of``, ``mu_of`` and ``commutant_mu``.  The expansion operator is
compared at 1e-14 relative: it carries W_mu(w,v) / W_mu(e,v) as a ratio,
where the per-word formula divides two products.  The condition-6 supremum
is compared at 1e-12 relative: the decision sums log factors along the
prepend automaton, where the family oracles multiply ratios.  Level sums are
compared at 1e-13 relative, with inf at the same levels: the transfer matrix
sums linear masses state by state, where the per-word oracle and the
frontier kernel (``level_sum_kernel``) exponentiate log terms word by word.
"""

import cmath
import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from fockshift import (
    BasisEnumeration,
    CommutantMu,
    ConstantWeights,
    FinitePerturbationWeights,
    FourierElement,
    GradedOperator,
    GridSpec,
    ScaledWeights,
    TruncatedFock,
    TwoLetterRunWeights,
    check_cocycles,
    check_intertwining,
    commutant_mu,
    condition6_sup,
    eigenvector_coeffs,
    ellipse_predicate,
    expansion_operator,
    lambda_from_mu,
    left_creation,
    left_weight,
    level_sums,
    membership_verdict,
    operator_from_fourier,
    pk_polynomial,
    region_sample,
    resolvent_check,
    right_creation,
    right_membership,
    right_weight,
    semisimple_estimate,
    spectral_radius_lower,
    weighted_left_shift,
    weighted_right_shift,
    word_operator,
    zero_left_inverses,
)
from fockshift import PeriodicWeights, PrefixWeights, TableMu, TabulatedWeights, algebra, eigen, fock, weights, words
from fockshift.cli import main
from fockshift.eigen import INSIDE, OUTSIDE
from fockshift.weights import BOUNDED, DIVERGING, DefectReport, MuSystem, WeightSystem, mu_table, table_from_strings
from fockshift.words import EMPTY, Word, append, parse_word, prepend

from conftest import ILL_CONDITIONED, SYSTEMS, dense_radius, random_finite_perturbation, system_depth, table_mu
import level_sum_kernel as kernel



def _entry_operator(space: TruncatedFock, rows, cols, values) -> GradedOperator:
    """The operator holding ``values`` at ``(rows, cols)``, duplicates summed, through scipy's COO route."""
    coo = sp.coo_array((np.asarray(values, dtype=complex), (rows, cols)), shape=(space.dimension,) * 2)
    return GradedOperator(space, coo)


def _oracle_shift(space: TruncatedFock, weight, i: int, left: bool) -> GradedOperator:
    rows, cols, values = [], [], []
    for k in range(space.depth):
        for w in space.level_words(k):
            cols.append(space.index_of(w))
            rows.append(space.index_of(prepend(i, w) if left else append(w, i)))
            values.append(weight(i, w))
    return _entry_operator(space, rows, cols, values)


def _oracle_word_operator(space: TruncatedFock, ws, w: Word) -> GradedOperator:
    rows, cols, values = [], [], []
    for k in range(space.depth - len(w) + 1):
        for u in space.level_words(k):
            cols.append(space.index_of(u))
            rows.append(space.index_of(w * u))
            values.append(left_weight(ws, u, w))
    return _entry_operator(space, rows, cols, values)


def _oracle_lambda_from_mu(mu, depth: int) -> dict:
    """lambda_{i,wj} = lambda_{i,w} mu_{j,iw} / mu_{j,w}, one word at a time."""
    table = {}
    for w in BasisEnumeration(mu.n, depth).words():
        for i in range(1, mu.n + 1):
            value = 1.0
            for pos, letter in enumerate(w.letters):
                prefix = Word(w.letters[:pos])
                value = value * mu.mu_of(letter, prepend(i, prefix)) / mu.mu_of(letter, prefix)
            table[(i, w)] = value
    return table


def _assert_generated_lambda(mu, depth: int) -> None:
    """``lambda_from_mu`` against the oracle, bit for bit: from a ``TableMu``
    of cutoff C, a level past C + 1 reads the oracle at its (C + 1)-prefix."""
    ws, oracle = lambda_from_mu(mu, depth), _oracle_lambda_from_mu(mu, depth)
    cut = mu.cutoff + 1 if isinstance(mu, TableMu) else depth
    assert isinstance(ws, PrefixWeights) == isinstance(mu, TableMu)
    assert _lambda_table(ws, depth) == {(i, w): oracle[(i, w[:cut])] for i, w in oracle}
    assert [level.T.ravel().tolist() for level in ws.lambda_levels(depth)] == [
        [oracle[(i, w[:cut])] for w in BasisEnumeration(mu.n, depth).level_words(k) for i in range(1, mu.n + 1)]
        for k in range(depth + 1)]


def _lambda_table(ws, depth: int) -> dict:
    """(i, w) -> ws.lambda_of(i, w) for every |w| <= depth."""
    return {(i, w): ws.lambda_of(i, w) for w in BasisEnumeration(ws.n, depth).words() for i in range(1, ws.n + 1)}


def _oracle_level_sums(ws, moduli, depth: int) -> np.ndarray:
    log_moduli = [math.log(r) if r > 0 else -math.inf for r in moduli]
    sums = np.empty(depth + 1)
    sums[0] = 1.0
    frontier = [(EMPTY, 0.0)]
    for k in range(1, depth + 1):
        frontier = [
            (prepend(i, w), t + (log_moduli[i - 1] - math.log(ws.lambda_of(i, w))))
            for w, t in frontier
            for i in range(1, ws.n + 1)
        ]
        logs = np.array([2.0 * t for _, t in frontier])
        peak = np.max(logs)
        sums[k] = 0.0 if peak == -math.inf else math.exp(peak) * float(np.sum(np.exp(logs - peak)))
    return sums


def _oracle_fourier_sum(space: TruncatedFock, ws, coeffs: dict) -> GradedOperator:
    """sum_w c_w W(e,w)^{-1} T_w in product order, one sparse add per word."""
    total = GradedOperator.zero(space)
    for w, coeff in coeffs.items():
        total = total + (coeff / left_weight(ws, EMPTY, w)) * _oracle_word_operator(space, ws, w)
    return total


def _oracle_ratio_sum(space: TruncatedFock, ws, coeffs: dict) -> GradedOperator:
    """sum_w c_w W(e,w)^{-1} T_w in ratio order: the entry at row w*u, column u
    is c_w r, with r <- r lambda_{j,x*u} / lambda_{j,x} as the letters j of w
    are prepended to x, from the right."""
    rows, cols, values = [], [], []
    for w, coeff in coeffs.items():
        for k in range(space.depth - len(w) + 1):
            for u in space.level_words(k):
                r, x = 1.0, EMPTY
                for j in reversed(w.letters):
                    r = r * ws.lambda_of(j, x * u) / ws.lambda_of(j, x)
                    x = prepend(j, x)
                rows.append(space.index_of(w * u))
                cols.append(space.index_of(u))
                values.append(coeff * r)
    return _entry_operator(space, rows, cols, values)


def _oracle_series(space: TruncatedFock, coeffs: dict) -> GradedOperator:
    """sum_w c_w L_w, one entry per column and term."""
    rows, cols, values = [], [], []
    for v in space.words():
        for w, c_w in coeffs.items():
            if len(w) <= space.depth - len(v):
                rows.append(space.index_of(w * v))
                cols.append(space.index_of(v))
                values.append(c_w)
    return _entry_operator(space, rows, cols, values)


class _CachedMu(MuSystem):
    """Memoised ``mu_of``, which keeps the scalar ``right_weight`` fast."""

    def __init__(self, mu):
        self.n = mu.n
        self.mu_of = functools.cache(mu.mu_of)


def _oracle_expansion(space: TruncatedFock, a: FourierElement) -> dict:
    """(row, column) -> a_w W_mu(w,v) / W_mu(e,v) for every |w| + |v| <= depth."""
    mu = _CachedMu(a.mu)
    entries = {}
    for v in space.words():
        base = right_weight(mu, EMPTY, v)
        for w, coeff in a.coeffs.items():
            if len(w) + len(v) <= space.depth:
                entries[(space.index_of(w * v), space.index_of(v))] = coeff * right_weight(mu, w, v) / base
    return entries


def _oracle_eigenvector(ws, point, depth: int) -> dict:
    coeffs = {EMPTY: 1.0}
    frontier = {EMPTY: 1.0}
    for _ in range(depth):
        frontier = {
            prepend(i, w): value * point[i - 1].conjugate() / ws.lambda_of(i, w)
            for w, value in frontier.items()
            for i in range(1, ws.n + 1)
        }
        coeffs.update(frontier)
    return coeffs


def _same(a: GradedOperator, b: GradedOperator) -> bool:
    return a.mat.nnz == b.mat.nnz and (a.mat != b.mat).nnz == 0


def _close(values: dict, oracle: dict) -> bool:
    return values.keys() == oracle.keys() and all(abs(values[key] - x) <= 1e-14 * abs(x) for key, x in oracle.items())


def _entries(x: GradedOperator) -> dict:
    """(row, column) -> the stored entries of x."""
    coo = x.mat.tocoo()
    return dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))


def _element(ws, seed: int, mu=None) -> FourierElement:
    rng = np.random.default_rng(seed)
    words = list(BasisEnumeration(ws.n, 2).words()) + [Word([ws.n, 1, ws.n])]
    return FourierElement.build({w: complex(*rng.standard_normal(2)) for w in words}, ws, mu)


def _check_expansions(space: TruncatedFock, a: FourierElement) -> None:
    """The level-array builders against the per-word formulas: bit for bit
    against the ratio-order sums, within 1e-14 of the product-order ones."""
    ws = a.weights

    def assert_sum(produced: GradedOperator, coeffs: dict) -> None:
        assert _same(produced, _oracle_ratio_sum(space, ws, coeffs))
        assert _close(_entries(produced), _entries(_oracle_fourier_sum(space, ws, coeffs)))

    assert_sum(operator_from_fourier(a, space), a.coeffs)
    for k in (1, 2, space.depth):
        fejer = {w: (1.0 - len(w) / k) * c for w, c in a.coeffs.items() if len(w) < k}
        assert_sum(pk_polynomial(a, k, space), fejer)
    assert _close(_entries(expansion_operator(a, space)), _oracle_expansion(space, a))
    point = tuple(cmath.rect(0.6, 0.4 + j) for j in range(ws.n))
    assert eigenvector_coeffs(ws, point, space.depth).coeffs == _oracle_eigenvector(ws, point, space.depth)
    # an empty expansion, and a support word past the depth, whose T_w is 0
    assert_sum(operator_from_fourier(FourierElement.build({}, ws, a.mu), space), {})
    longer = {**a.coeffs, Word([ws.n] * (space.depth + 1)): 0.5 - 0.25j}
    assert_sum(operator_from_fourier(FourierElement.build(longer, ws, a.mu), space), longer)


def _oracle_support_operator(space: TruncatedFock, coeffs: np.ndarray, columns) -> GradedOperator:
    """The COO assembly that ``algebra._support_operator`` replaced: the entry
    x[index, rank u] at row w*u, column u, for |u| = k <= depth - m and the
    support words w of length m, whose ranks and coefficients c go to
    ``columns(m, ranks, c)``, which returns x per k; sorted into CSR."""
    n, depth, offsets = space.n, space.depth, space.level_offsets
    rows, cols, values = [], [], []
    for m in range(offsets.index(coeffs.size)):
        ranks = np.flatnonzero(coeffs[offsets[m]:offsets[m + 1]])
        for k, block in enumerate(columns(m, ranks, coeffs[offsets[m] + ranks])):
            rows.append((offsets[m + k] + ranks[:, None] * n**k + np.arange(n**k)).ravel())
            cols.append(np.tile(np.arange(offsets[k], offsets[k + 1]), ranks.size))
            values.append(block.ravel())
    return _entry_operator(space, *map(np.concatenate, (rows, cols, values)))


def _oracle_word_sum(space: TruncatedFock, ws, coeffs: np.ndarray, normalized: bool) -> GradedOperator:
    """The operator on ``algebra._word_grid`` through the COO assembly, every prepend table built first."""
    depth = space.depth
    longest = space.level_offsets.index(coeffs.size) - 1

    def columns(m, ranks, c):
        return [c[:, None] * left[k][m][:, ranks].T for k in range(depth - m + 1)]

    with np.errstate(over="ignore", invalid="ignore"):
        left = {k: weights._prepend_tables(ws, k, min(depth - k, longest), ratio=normalized)
                for k in range(depth, -1, -1)}
        return _oracle_support_operator(space, coeffs, columns)


def _oracle_expansion_assembly(space: TruncatedFock, a: FourierElement) -> GradedOperator:
    """``expansion_operator`` through the COO assembly."""
    depth = space.depth
    return _oracle_support_operator(space, a.vector(depth), lambda m, ranks, c: [
        c[:, None] * ratio for ratio in weights._append_tables(a.mu, m, ranks, depth - m)])


def _oracle_cesaro(x: GradedOperator, k: int) -> GradedOperator:
    """``cesaro_sum`` through a COO copy of x."""
    levels = x.space.levels()
    coo = x.mat.tocoo()
    offsets = np.abs(levels[coo.col] - levels[coo.row])
    factors = np.where(offsets < k, 1.0 - offsets / k, 0.0)
    return _entry_operator(x.space, coo.row, coo.col, coo.data * factors)


def _identical(x: GradedOperator, y: GradedOperator) -> bool:
    """The same CSR arrays, bit for bit but for NaN payloads: ``indptr``,
    ``indices``, and ``data`` compared on its real and imaginary parts."""
    a, b = x.mat, y.mat
    return (a.data.dtype == b.data.dtype == complex and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data.view(float), b.data.view(float), equal_nan=True))


def _columns_to(x: GradedOperator, bound: int) -> GradedOperator:
    """x with its columns above level ``bound`` dropped, still a canonical CSR."""
    kept = x.space.levels()[x.mat.indices] <= bound
    return GradedOperator.from_row_order(x.space, x.entry_rows(), x.mat.indices, x.mat.data, kept)


OVERFLOWING = [("constant-1e300", ConstantWeights(2, 1e300), 6)]


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED + OVERFLOWING,
                         ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED + OVERFLOWING])
def test_compressed_assembly_equals_the_coo_oracle(label, ws, depth):
    n, space = ws.n, TruncatedFock(ws.n, depth)
    rng = np.random.default_rng(depth + n)
    supports = {
        "dense": list(BasisEnumeration(n, 2).words()) + [Word([n, 1, n])],
        "sparse": [Word([n]), Word([1, n, 1]), Word([n] * depth)],
        "e-only": [EMPTY],
        # supports that skip whole lengths: the grid holds only the lengths present, the tails step through all
        "gapped": [EMPTY, Word([1, n, 1]), Word([n, n, 1])],
        "no-e": [Word([n, 1]), Word([1] * (depth - 1))],
    }
    mus = [CommutantMu(ws), table_mu(n, 70 + n)]
    for words_ in supports.values():
        coeffs = {w: complex(*rng.standard_normal(2)) for w in words_}
        for mu in mus:
            a = FourierElement.build(coeffs, ws, mu)
            assert _identical(expansion_operator(a, space), _oracle_expansion_assembly(space, a))
        vector = a.vector(depth)
        x = operator_from_fourier(a, space)
        assert _identical(x, _oracle_word_sum(space, ws, vector, normalized=True))
        for k in (1, 2, depth):
            fejer = FourierElement({w: (1.0 - len(w) / k) * c for w, c in a.coeffs.items() if len(w) < k}, ws, a.mu)
            assert _identical(pk_polynomial(a, k, space), _oracle_word_sum(space, ws, fejer.vector(depth), True))
        for w in words_:
            unit = TruncatedFock(n, len(w)).basis_vector(w)
            assert _identical(word_operator(space, ws, w), _oracle_word_sum(space, ws, unit, normalized=False))
        # a column bound builds the columns at or below it exactly as the unbounded assembly does, and no other;
        # a negative bound builds no column
        for bound in (-1, 0, depth - 2, depth):
            assert _identical(operator_from_fourier(a, space, bound=bound), _columns_to(x, bound))
            for k in (1, 2, depth):
                polynomial = pk_polynomial(a, k, space)
                assert _identical(pk_polynomial(a, k, space, bound=bound), _columns_to(polynomial, bound))
            for mu in mus:
                b = FourierElement.build(coeffs, ws, mu)
                assert _identical(expansion_operator(b, space, bound=bound),
                                  _columns_to(expansion_operator(b, space), bound))
        # a product has unsorted indices; the smoothing of a word operator past the float range has NaN entries
        shifted = x @ weighted_left_shift(space, ws, n)
        with np.errstate(invalid="ignore"):
            for y in (x, shifted, word_operator(space, ws, words_[-1])):
                for k in (1, 2, depth):
                    assert _identical(algebra.cesaro_sum(y, k), _oracle_cesaro(y, k))
    for shifts in (fock.left_shift_maps(space, ws), fock.right_shift_maps(space, mus[0])):
        for i in range(1, n + 1):
            oracle = _entry_operator(space, shifts.rows[i - 1], np.arange(shifts.rows.shape[1]),
                                                 shifts.values[i - 1])
            assert _identical(shifts.operator(i), oracle)


@pytest.mark.parametrize("n, depth", [(1, 7), (2, 6), (3, 4), (11, 3)])
def test_heads_are_the_first_letter_and_the_tail_of_every_word(n, depth):
    space = TruncatedFock(n, depth)
    first, tail = space.heads()
    assert tail[0] == 0 and space.heads()[0] is first
    for y in range(1, space.dimension):
        word = space.word_at(y)
        assert (Word([first[y]]), space.word_at(tail[y])) == (word[:1], word[1:])


def _gather_cases(ws, depth):
    """(maps, X) pairs: the left and right shift maps of ``ws`` and a left map
    with complex values, each against an ``operator_from_fourier`` output, its
    adjoint and a word operator, whose entries past the float range are inf."""
    n, space = ws.n, TruncatedFock(ws.n, depth)
    rng = np.random.default_rng(depth + n)
    words_ = list(BasisEnumeration(n, 2).words()) + [Word([n, 1, n])]
    x = operator_from_fourier(FourierElement.build({w: complex(*rng.standard_normal(2)) for w in words_}, ws,
                                                   CommutantMu(ws)), space)
    lefts = fock.left_shift_maps(space, ws)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, lefts.values.shape))
    complex_map = fock.ShiftMap(space, lefts.rows, lefts.values * phases)
    maps = [lefts, fock.right_shift_maps(space, table_mu(n, 70 + n)), complex_map]
    for shifts in maps:
        for y in (x, x.adjoint(), word_operator(space, ws, words_[-1])):
            yield shifts, y


def _sorted_product(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    mat = a.mat @ b.mat
    mat.sort_indices()
    return GradedOperator(a.space, mat)


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED + OVERFLOWING,
                         ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED + OVERFLOWING])
def test_shift_gathers_equal_sparse_products(label, ws, depth):
    # bit for bit, the complex-valued map too: the gathers multiply part by part, as scipy does
    for shifts, x in _gather_cases(ws, depth):
        for i in range(1, ws.n + 1):
            s_i = shifts.operator(i)
            assert _identical(shifts.before(i, x), _sorted_product(x, s_i))
            assert _identical(shifts.after(i, x), _sorted_product(s_i, x))


def _parent_column_norms(mat) -> np.ndarray:
    """``fock.column_norms`` through scipy's column sums."""
    return np.sqrt(np.asarray(abs(mat).power(2).sum(axis=0)).ravel())


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED + OVERFLOWING,
                         ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED + OVERFLOWING])
def test_column_norms_equal_the_sparse_column_sums(label, ws, depth):
    with np.errstate(over="ignore", invalid="ignore"):
        for shifts, x in _gather_cases(ws, depth):
            for i in range(1, ws.n + 1):
                diff = (shifts.before(i, x) - shifts.after(i, x)).mat
                norms = fock.column_norms(diff.indices, diff.data, diff.shape[1])
                assert np.array_equal(norms, _parent_column_norms(diff), equal_nan=True)


def test_shift_products_form_no_sparse_product(monkeypatch):
    def refused(self, other):
        raise AssertionError("a sparse product of operators")

    monkeypatch.setattr(GradedOperator, "__matmul__", refused)
    ws = ConstantWeights(2, 1.05)
    space = TruncatedFock(2, 5)
    x = operator_from_fourier(_element(ws, 5), space)
    assert algebra.commutant_extract(x, ws).residual <= 1e-12
    assert resolvent_check((0.3, 0.2j), 6).low_level_defect == 0.0
    assert right_membership((0.3, 0.2j), 6).verdict == "in_spectrum"
    assert right_membership((1.3, 0.2j), 6).verdict == "not_in_spectrum"
    assert zero_left_inverses({EMPTY: 1.0, Word([1]): 0.5j}, {EMPTY: 0.5}, 4).max_identity_defect == 0.0


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED, ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED])
def test_level_arrays_equal_scalar_oracle(label, ws, depth):
    n = ws.n
    basis = BasisEnumeration(n, depth)
    space = TruncatedFock(n, depth)
    mu = CommutantMu(ws)
    levels, mu_levels = ws.lambda_levels(depth), mu.mu_levels(depth)
    assert len(levels) == len(mu_levels) == depth + 1
    for i in range(1, n + 1):
        for k, level in enumerate(levels):
            assert level[i - 1].tolist() == [ws.lambda_of(i, w) for w in basis.level_words(k)]
        for k, level in enumerate(mu_levels):
            assert level[i - 1].tolist() == [commutant_mu(ws, i, w) for w in basis.level_words(k)]
        assert _same(weighted_left_shift(space, ws, i), _oracle_shift(space, ws.lambda_of, i, left=True))
        assert _same(weighted_right_shift(space, mu, i), _oracle_shift(space, mu.mu_of, i, left=False))

    words = list(BasisEnumeration(n, 2).words()) + [Word([n, 1, n])]
    for w in words:
        assert _same(word_operator(space, ws, w), _oracle_word_operator(space, ws, w))

    oracle = {(i, w): commutant_mu(ws, i, w) for w in basis.words() for i in range(1, n + 1)}
    table = mu_table(ws, depth)
    assert list(table) == list(oracle)
    assert table == oracle
    _assert_generated_lambda(mu, depth)

    # the ellipse axes: the per-letter minimum over lambda_of where no exact infimum is known
    axes = [ws.exact_min_weight(i) for i in range(1, n + 1)]
    axes = [min(ws.lambda_of(i, w) for w in basis.words()) if c is None else c for i, c in enumerate(axes, 1)]
    if min(axes) > 1e-12:
        assert ellipse_predicate(ws, (0.5,) * n, depth).axes == tuple(axes)
    else:
        with pytest.raises(ValueError, match="vanishes within tolerance"):
            ellipse_predicate(ws, (0.5,) * n, depth)

    best, witness = 0.0, None
    for (i, w), value in oracle.items():
        if value > best:
            best, witness = value, (i, w)
    report = condition6_sup(ws, depth)
    assert (report.value, report.witness) == (best, witness)

    for (i, w), value in oracle.items():
        ratio = left_weight(ws, Word([i]), w) / left_weight(ws, EMPTY, w)
        assert abs(value - ratio) <= 1e-14 * ratio

    for moduli in ((0.0,) * n, tuple(1.0 - 0.2 * j for j in range(n))):
        _assert_sums_close(level_sums(ws, moduli, depth), _oracle_level_sums(ws, moduli, depth))

    _check_expansions(space, _element(ws, 80 + n))


def _level_scan_sup(ws: WeightSystem, depth: int) -> tuple[float, tuple[int, Word]]:
    """The largest commutant ratio and its witness by a strict-greater scan, level by level, each level's
    first maximum in rank-major, letter-minor order: the oracle of ``_enumerated_sup``'s one argmax."""
    basis = BasisEnumeration(ws.n, depth)
    levels = ws.kept_commutant_mu().kept_mu_levels(depth)
    best, witness = 0.0, (1, EMPTY)
    for k in range(depth + 1):
        ratios = levels[k].T.ravel()
        idx = int(np.argmax(ratios))
        if ratios[idx] > best:
            rank, letter = divmod(idx, ws.n)
            best, witness = float(ratios[idx]), (letter + 1, basis.word_at(basis.level_offsets[k] + rank))
    return best, witness


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED, ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED])
def test_enumerated_sup_equals_the_level_by_level_scan(label, ws, depth):
    assert weights._enumerated_sup(ws, depth) == _level_scan_sup(ws, depth)


def _doubled(ws: WeightSystem) -> WeightSystem:
    """The same family with every weight times 2."""
    def twice(table):
        return {key: 2 * value for key, value in table.items()}
    if isinstance(ws, ConstantWeights):
        return ConstantWeights(ws.n, 2 * ws.value)
    if isinstance(ws, ScaledWeights):
        return ScaledWeights(ws.n, tuple(2 * c for c in ws.scales))
    if isinstance(ws, FinitePerturbationWeights):
        return FinitePerturbationWeights(ws.n, ws.cutoff, twice(ws.table), tuple(2 * c for c in ws.tail))
    if isinstance(ws, PeriodicWeights):
        return PeriodicWeights(ws.n, ws.period, twice(ws.remainders))
    return type(ws)(ws.n, ws.depth, [2 * level for level in ws.levels])  # TabulatedWeights and PrefixWeights


DOUBLED = [s for s in SYSTEMS if s[0] != "two_letter_m"]  # its weights 1/m, 1/sqrt(m) and c double in no (m, c)


@pytest.mark.parametrize("label, ws, depth", DOUBLED, ids=[s[0] for s in DOUBLED])
def test_doubling_every_weight_keeps_mu_and_the_region_and_doubles_the_commutation_defect(label, ws, depth):
    # a power of two moves only exponents: mu and the condition-6 supremum are ratios with as many
    # weights above as below, the level sums read (r / lambda)^2, and a commutation defect is one weight
    # times one mu.  The cocycle defect is not pinned: its floor of 1 is not scale-invariant.
    doubled = _doubled(ws)
    lambdas = zip(ws.kept_lambda_levels(depth), doubled.kept_lambda_levels(depth))
    assert all(np.array_equal(2 * a, b) for a, b in lambdas)
    mu, same_mu = (system.kept_commutant_mu().kept_mu_levels(depth) for system in (ws, doubled))
    assert all(np.array_equal(a, b) for a, b in zip(mu, same_mu))
    one, two = condition6_sup(ws, depth), condition6_sup(doubled, depth)
    assert (two.value, two.witness, two.verdict) == (one.value, one.witness, one.verdict)
    grid = np.array(list(itertools.product([0.0, 0.3, 0.7, 1.1, 1.6], repeat=ws.n)))
    one, two = region_sample(ws, grid, depth), region_sample(doubled, 2 * grid, depth)
    assert np.array_equal(one.sums, two.sums) and np.array_equal(one.verdict, two.verdict)
    space = TruncatedFock(ws.n, depth)
    for mu in (None, table_mu(ws.n, 75)):  # the commutant mu, and a prescribed mu whose defect is not rounding
        one, two = fock.commutation_defect(space, ws, mu), fock.commutation_defect(space, doubled, mu)
        assert (two.max_defect, two.witness) == (2 * one.max_defect, one.witness)


def _assert_sums_close(sums, oracle) -> None:
    """The transfer matrix's level sums against an oracle's: inf at the same
    levels, and the finite ones within 1e-13 relative."""
    sums, oracle = np.asarray(sums), np.asarray(oracle)
    assert np.array_equal(np.isinf(sums), np.isinf(oracle))
    finite = np.isfinite(oracle)
    assert np.all(np.abs(sums[finite] - oracle[finite]) <= 1e-13 * oracle[finite])


def _closed_form_radius(ws, moduli) -> float:
    """The spectral radius of the transfer matrix M(r) of each conftest family,
    in closed form: the largest cycle class reachable from e along the
    letters with r_j > 0."""
    squares = [r * r for r in moduli]
    if isinstance(ws, ConstantWeights):
        return sum(squares) / ws.value**2
    if isinstance(ws, ScaledWeights):
        return sum(x / c**2 for x, c in zip(squares, ws.scales))
    if isinstance(ws, FinitePerturbationWeights):  # only the tail state carries a cycle
        return sum(x / c**2 for x, c in zip(squares, ws.tail))
    if isinstance(ws, PeriodicWeights):  # lambda_{a,e} = alpha_a, lambda_{a,b} = t alpha_a: two steps give q^2 / t^2
        alpha = [ws.remainders[(a, EMPTY)] for a in range(1, ws.n + 1)]
        t = ws.remainders[(1, Word([1]))] / alpha[0]
        return sum(x / a**2 for x, a in zip(squares, alpha)) / t
    if isinstance(ws, PrefixWeights):  # no closed form: the eigenvalues of the dense transfer matrix
        return dense_radius(ws.kept_automaton(), moduli)
    # two-letter runs: the 1-run state loops on letter 1, every word with a 2 past the first letter on both
    run = (moduli[0] * ws.m) ** 2 if moduli[0] > 0 else 0.0
    rest = (squares[0] + squares[1]) / ws.c**2 if moduli[1] > 0 else 0.0
    return max(run, rest)


def _assert_closed_form_verdicts(ws, sample) -> None:
    """Every verdict off the band |rho - 1| <= 2 DELTA is the closed form's."""
    for moduli, verdict in zip(map(tuple, sample.moduli.tolist()), sample.verdict.tolist()):
        rho = _closed_form_radius(ws, moduli)
        if abs(rho - 1.0) > 2 * eigen.DELTA:
            assert verdict == (INSIDE if rho < 1.0 else OUTSIDE), (moduli, rho)


@pytest.mark.parametrize("label, ws, depth", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_region_blocks_equal_scalar_oracle(monkeypatch, label, ws, depth):
    # grids from r = 0 on every axis, through r = 1.05; blocks of 4 points, so the last block is partial
    grid = GridSpec(0.0, 1.2, 0.15) if ws.n < 3 else GridSpec(0.0, 1.05, 0.525)
    points = list(itertools.product(grid.values(), repeat=ws.n))
    automaton = ws.automaton()
    widest = ws.n ** (depth + 1) if automaton is None else automaton[0].size
    monkeypatch.setattr(eigen, "WORK_FLOATS", 4 * widest + widest - 1)
    built = []
    build = type(ws).automaton

    def counted(system):
        built.append(system)
        return build(system)

    monkeypatch.setattr(type(ws), "automaton", counted)
    sample = region_sample(ws, grid.points(ws.n), depth)
    assert list(map(tuple, sample.moduli.tolist())) == points and len(points) >= 9 and points[0] == (0.0,) * ws.n
    oracle = [_oracle_level_sums(ws, p, depth) for p in points]
    for sums, expected in zip(sample.sums, oracle):
        _assert_sums_close(sums, expected)
    if automaton is None:
        # tabulated weights keep the tail heuristic
        assert sample.verdict.tolist() == [membership_verdict(sums)[0] for sums in oracle]
    else:
        _assert_closed_form_verdicts(ws, sample)
    # the automaton is built at most once per object: a shared system may already keep it
    assert len(built) <= 1 and all(system is ws for system in built)


def test_region_blocks_at_the_block_size():
    # the kernel oracle at its block size: 2^13 words at the deepest level
    # make 4 points per block, and 9 points take 3 blocks
    ws = SYSTEMS[[s[0] for s in SYSTEMS].index("periodic-n2")][1]
    grid = GridSpec(0.0, 1.0, 0.5)
    assert kernel.BLOCK_FLOATS // 2**13 == 4
    points = list(itertools.product(grid.values(), repeat=2))
    expected = np.array([_oracle_level_sums(ws, p, 13) for p in points])
    assert np.array_equal(kernel.kernel_level_sums(ws, points, 13), expected)
    for sums, oracle in zip(region_sample(ws, grid.points(2), 13).sums, expected):
        _assert_sums_close(sums, oracle)


class _CountedProducts(np.ndarray):
    """A transfer step's weights, counting the products they enter."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedProducts.products += ufunc is np.multiply
        return getattr(ufunc, method)(*(x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs),
                                      **kwargs)


PROPAGATED = ["scaled-n2", "periodic-n2", "two_letter_m", "tabulated-n2", "prefix-n2", "constant-n3", "prefix-n3"]


@pytest.mark.parametrize("per_block", [None, 4], ids=["one-block", "blocks-of-4"])
@pytest.mark.parametrize("label, ws, depth", [s for s in SYSTEMS if s[0] in PROPAGATED], ids=PROPAGATED)
def test_propagation_forms_each_distinct_steps_flows_once_per_block(monkeypatch, per_block, label, ws, depth):
    # repeated steps are one shared tuple: 1 distinct step of 8 on scaled, 3 on periodic and the
    # two-letter runs, 8 of 8 on the word tree; each block of points takes one edge-flow product
    # per distinct step, and the sums are those of a propagation that forms every level's flows
    # anew; the grids leave no block of one point, whose mass numpy sums pairwise
    steps = eigen._transfer_steps(ws, depth)
    counted = {id(step): (*step[:2], step[2].view(_CountedProducts), step[3]) for step in steps}
    steps = [counted[id(step)] for step in steps]
    edges = sum(len(step[0]) for step in counted.values())
    if per_block:
        monkeypatch.setattr(eigen, "WORK_FLOATS", per_block * edges + edges - 1)
    moduli = GridSpec(0.0, 1.25, 0.25).points(2) if ws.n == 2 else GridSpec(0.0, 1.2, 0.6).points(3)
    blocks = 1 if per_block is None else -(-len(moduli) // per_block)
    assert len(moduli) % (per_block or len(moduli)) != 1 and (blocks > 1) == bool(per_block)
    _CountedProducts.products = 0
    sums = eigen._propagate(steps, moduli)
    assert _CountedProducts.products == len(counted) * blocks
    assert len(counted) < len(steps) or label.startswith("tabulated")
    assert np.array_equal(sums, kernel.stepped_level_sums(steps, moduli))
    for row, expected in zip(sums, kernel.kernel_level_sums(ws, moduli, depth)):
        _assert_sums_close(row, expected)


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED, ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED])
def test_level_sums_do_not_depend_on_the_block_width(monkeypatch, label, ws, depth):
    # numpy sums one column of mass pairwise and two or more row by row, which differ from 8 states on:
    # a lone point, alone or last in its grid, is summed as a point of a wide block is
    steps = eigen._transfer_steps(ws, depth)
    moduli = GridSpec(0.0, 1.25, 0.25).points(ws.n) if ws.n < 3 else GridSpec(0.0, 1.2, 0.6).points(ws.n)
    wide = eigen._propagate(steps, moduli)
    assert np.array_equal(wide, kernel.stepped_level_sums(steps, moduli))
    for point, row in zip(moduli, wide):
        assert np.array_equal(level_sums(ws, point, depth), row)
    assert np.array_equal(kernel.stepped_level_sums(steps, moduli[-1:]), wide[-1:])
    edges = sum(len(weight) for weight in {id(step[2]): step[2] for step in steps}.values())
    monkeypatch.setattr(eigen, "WORK_FLOATS", 4 * edges)
    assert np.array_equal(eigen._propagate(steps, moduli[:9]), wide[:9])  # blocks of 4: n > 1 leaves the 9th alone


def test_region_guard_raises_before_building_tables():
    # a system without an automaton propagates on its word tree: sum over k <= 7 of 10^k words
    with pytest.raises(ValueError, match=r"Fock space for n = 10, depth = 7 has dimension 11111111, above"):
        region_sample(_Unbuildable(10), GridSpec(0.0, 1.0, 0.5).points(10), 7)


def _parent_level_sums_block(ws, moduli: np.ndarray, depth: int) -> np.ndarray:
    """The frontier kernel on undoubled terms: one (n^k, n) log-weight table
    per level, and level k as a single broadcast over the n letters."""
    n = ws.n
    log_lams, ranks = [], np.zeros(1, dtype=np.int64)
    for k, level in enumerate(ws.lambda_levels(depth - 1)):
        values = level.T
        distinct, inverse = np.unique(values, return_inverse=True)
        log_lams.append(np.array([math.log(v) for v in distinct.tolist()])[inverse].reshape(values.shape)[ranks])
        ranks = (ranks[:, None] + np.arange(n) * n**k).ravel()
    points = len(moduli)
    log_moduli = np.array([[math.log(r) if r > 0 else -math.inf for r in row] for row in moduli.tolist()])
    sums = np.empty((points, depth + 1))
    sums[:, 0] = 1.0
    terms = np.zeros((points, 1))
    for k in range(1, depth + 1):
        terms = (terms[:, :, None] + (log_moduli[:, None, :] - log_lams[k - 1])).reshape(points, -1)
        logs = 2.0 * terms
        peaks = np.max(logs, axis=1)
        peaks[peaks == -math.inf] = 0.0
        totals = np.sum(np.exp(logs - peaks[:, None]), axis=1)
        for row, (peak, total) in enumerate(zip(peaks.tolist(), totals.tolist())):
            try:
                sums[row, k] = math.exp(peak) * total
            except OverflowError:
                sums[row, k] = math.inf
    return sums


# rows the per-word oracle cannot take: level sums past the float range, zero moduli, n = 1 and n = 4
KERNEL_CASES = [
    ("scaled-1e-150", ScaledWeights(2, (1e-150, 1.0)), 8, [(1.0, 1.0), (0.5, 0.0), (1e-10, 2.0), (0.0, 0.9)]),
    ("n1-scaled-1e-20", ScaledWeights(1, (1e-20,)), 10, [(0.0,), (0.5,), (1.0,), (1e-25,)]),
    ("periodic-zero-moduli", SYSTEMS[[s[0] for s in SYSTEMS].index("periodic-n2")][1], 8,
     [(0.0, 0.0), (0.0, 0.7), (1.3, 0.0), (0.0, 0.0)]),
    ("n1-depth-30", ConstantWeights(1, 0.9), 30, [(0.5,), (0.9,), (1.05,), (0.0,)]),
    ("n4", ScaledWeights(4, (0.5, 1.0, 1.5, 2.0)), 5,
     [(0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 2.0, 0.5), (0.25, 0.25, 0.25, 0.25)]),
]


@pytest.mark.parametrize("label, ws, depth, rows", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_equals_parent_kernel_past_the_oracle(label, ws, depth, rows):
    moduli = np.array(rows, dtype=float)
    for d in (0, 1, depth):
        expected = _parent_level_sums_block(ws, moduli, d)
        assert np.array_equal(kernel._level_sums_block(kernel._log_tables(ws, d), moduli, d), expected, equal_nan=True)
        for row, sums in zip(rows, expected):
            _assert_sums_close(level_sums(ws, row, d), sums)
    # the overflow cases do overflow
    if label == "scaled-1e-150":
        assert np.isinf(expected[0, -1])
    if label == "n1-scaled-1e-20":
        assert np.isinf(expected[1:3, -1]).all() and expected[0, 1:].tolist() == [0.0] * depth


def test_deep_single_letter_sums_match_exact_products():
    # the CLI tests' deep n = 1 system, lambda = 0.5, 2, then 0.01 beyond the cutoff, over 200 levels: inf at
    # the kernel's levels, and the finite sums within 1e-13 of the exact products, since the log kernel itself
    # drifts by up to about 1e-12 relative there
    ws = FinitePerturbationWeights(1, 1, table_from_strings({"1:e": 0.5, "1:1": 2.0}), (0.01,))
    lams = [Fraction(0.5), Fraction(2.0)] + [Fraction(0.01)] * 198
    for r in (0.5, 0.0099, 0.01, 0.0):
        sums = level_sums(ws, (r,), 200)
        assert np.array_equal(np.isinf(sums), np.isinf(kernel.kernel_level_sums(ws, [(r,)], 200)[0]))
        exact = [Fraction(1)]
        for lam in lams:
            exact.append(exact[-1] * (Fraction(r) / lam) ** 2)
        assert np.isinf(sums[-1]) == (r == 0.5)
        for value, term in zip(sums.tolist(), exact):
            if math.isfinite(value):
                assert abs(Fraction(value) - term) <= Fraction(1e-13) * term


def test_region_sample_judges_each_grid_once(monkeypatch):
    # 289 points at depth 10: one pass for the tail columns, one for the verdicts
    calls = {"_verdicts": 0, "_bracket_verdicts": 0}

    def counted(name):
        function = getattr(eigen, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(eigen, name, counted(name))
    sample = region_sample(ScaledWeights(2, (1.5, 2.0)), GridSpec(0.0, 3.2, 0.2).points(2), 10)
    assert len(sample.verdict) == 289
    assert calls == {"_verdicts": 1, "_bracket_verdicts": 1}


@pytest.mark.parametrize("n", (1, 2, 3))
def test_table_mu_and_unweighted_shifts_equal_scalar_oracle(n):
    depth = system_depth(n)
    space = TruncatedFock(n, depth)
    mu = table_mu(n, 70 + n)
    unit = lambda i, w: 1.0  # noqa: E731
    for i in range(1, n + 1):
        assert _same(weighted_right_shift(space, mu, i), _oracle_shift(space, mu.mu_of, i, left=False))
        assert _same(left_creation(space, i), _oracle_shift(space, unit, i, left=True))
        assert _same(right_creation(space, i), _oracle_shift(space, unit, i, left=False))
    _assert_generated_lambda(mu, depth)
    _check_expansions(space, _element(lambda_from_mu(mu, depth), 90 + n, mu))

    # the resolvent series of the spectra checks
    unweighted = ConstantWeights(n, 1.0)
    point = tuple(cmath.rect(0.3, 0.9 + j) for j in range(n))
    candidate = eigenvector_coeffs(unweighted, point, depth - 1)
    oracle = _oracle_series(space, candidate.coeffs)
    assert _same(operator_from_fourier(FourierElement.build(candidate.coeffs, unweighted), space), oracle)
    grid = algebra._word_grid(space, unweighted, candidate.vector, True)
    assert _same(algebra._support_operator(space, grid), oracle)


def _relative_defect(lhs: float, rhs: float) -> float:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale


def _worse(defect: float, worst: float) -> bool:
    """Strictly larger, with a NaN larger than any number."""
    return defect > worst or (math.isnan(defect) and not math.isnan(worst))


def _oracle_cocycles(ws, mu, depth: int) -> DefectReport:
    """Both cocycle laws, one triple at a time through the scalar weight functions."""
    mu = _CachedMu(CommutantMu(ws) if mu is None else mu)
    basis = BasisEnumeration(ws.n, depth)
    worst, witness, checks = 0.0, None, 0
    for lu in range(depth + 1):
        for u in basis.level_words(lu):
            for lv in range(depth - lu + 1):
                for v in basis.level_words(lv):
                    for lw in range(depth - lu - lv + 1):
                        for w in basis.level_words(lw):
                            lhs = left_weight(ws, u, v * w)
                            rhs = left_weight(ws, w * u, v) * left_weight(ws, u, w)
                            defect = _relative_defect(lhs, rhs)
                            if _worse(defect, worst):
                                worst, witness = defect, ("left", u, v, w)
                            lhs = right_weight(mu, u, v * w)
                            rhs = right_weight(mu, u, v) * right_weight(mu, u * v, w)
                            defect = _relative_defect(lhs, rhs)
                            if _worse(defect, worst):
                                worst, witness = defect, ("right", u, v, w)
                            checks += 2
    return DefectReport(worst, witness, checks)


def _oracle_intertwining(ws, depth: int) -> DefectReport:
    """The intertwining sweep with commutant_mu run from the empty word for every value."""
    basis = BasisEnumeration(ws.n, depth)
    worst, witness, checks = 0.0, None, 0
    for lv in range(depth):
        for v in basis.level_words(lv):
            for lw in range(depth - lv):
                for w in basis.level_words(lw):
                    for i in range(1, ws.n + 1):
                        lhs = commutant_mu(ws, i, v) * left_weight(ws, append(v, i), w)
                        rhs = commutant_mu(ws, i, w * v) * left_weight(ws, v, w)
                        defect = _relative_defect(lhs, rhs)
                        if _worse(defect, worst):
                            worst, witness = defect, (i, v, w)
                        checks += 1
    return DefectReport(worst, witness, checks)


SWEEP_SYSTEMS = SYSTEMS + [("two_letter_m_diverging", TwoLetterRunWeights(4.0, 1.0), 8)] + ILL_CONDITIONED


@pytest.mark.parametrize("label, ws, depth", SWEEP_SYSTEMS, ids=[s[0] for s in SWEEP_SYSTEMS])
def test_sweeps_read_one_mu_table(label, ws, depth):
    # the sweeps read one set of mu levels and the prepend tables; the oracle
    # evaluates every weight product word by word
    mu = table_mu(ws.n, 75)
    for d in range(7 if ws.n < 3 else 6):
        assert check_cocycles(ws, None, d) == _oracle_cocycles(ws, None, d)
        assert check_cocycles(ws, mu, d) == _oracle_cocycles(ws, mu, d)
        if d >= 1:
            assert check_intertwining(ws, d) == _oracle_intertwining(ws, d)


def test_overflowed_products_are_nan_defects():
    # W(e, 11) = 1e600 overflows: inf - inf is NaN, and the first NaN is the witness
    ws = ScaledWeights(2, (1e300, 1.0))
    for report, oracle in (
        (check_cocycles(ws, None, 4), _oracle_cocycles(ws, None, 4)),
        (check_intertwining(ws, 4), _oracle_intertwining(ws, 4)),
    ):
        assert math.isnan(report.max_defect) and math.isnan(oracle.max_defect)
        assert report.witness is not None
        assert (report.witness, report.checks) == (oracle.witness, oracle.checks)


class _Unbuildable(WeightSystem):
    def __init__(self, n: int):
        self.n = n

    def lambda_of(self, i, w):
        raise AssertionError("the guard must fire before any weight is read")

    lambda_levels = lambda_of


def test_sweep_guards_raise_before_allocating():
    ws = _Unbuildable(10)
    # sum over k <= 6 of C(k+2, 2) 10^k triples
    with pytest.raises(ValueError, match=r"sweep over 30260631 triples exceeds"):
        check_cocycles(ws, None, 6)
    with pytest.raises(ValueError, match=r"sweep over 30260631 triples exceeds"):
        check_cocycles(ws, table_mu(10, 1), 6)
    # sum over k <= 5 of (k+1) 10^(k+1) triples
    with pytest.raises(ValueError, match=r"sweep over 6543210 triples exceeds"):
        check_intertwining(ws, 6)
    # below the guard the sweeps run
    assert check_cocycles(ConstantWeights(10, 1.0), None, 4).max_defect == 0.0


class _UnbuildableMu(MuSystem):
    def __init__(self, n: int):
        self.n = n

    def mu_of(self, i, w):
        raise AssertionError("the guard must fire before any weight is read")

    mu_levels = mu_of


class _UnbuildableTableMu(TableMu):
    mu_of = mu_levels = _UnbuildableMu.mu_of


def test_every_word_enumeration_meets_the_one_guard(monkeypatch):
    # the guard lowered to 100 words: n = 2 to depth 6 has 127; each entry point
    # that enumerates words refuses with the BasisEnumeration message
    assert kernel.MAX_DP_WORDS == words.MAX_SWEEP_WORDS
    monkeypatch.setattr(words, "MAX_SWEEP_WORDS", 100)
    message = "Fock space for n = 2, depth = 6 has dimension 127, above the 100 guard; lower depth or n"
    tabulated = TabulatedWeights(2, 2, [np.ones((2, 2**k)) for k in range(3)])
    entries = [
        lambda: TruncatedFock(2, 6),
        lambda: condition6_sup(_Unbuildable(2), 6),
        lambda: semisimple_estimate(_Unbuildable(2), 6, 4),
        lambda: semisimple_estimate(_UnbuildableMu(2), 6, 4),
        lambda: lambda_from_mu(_UnbuildableMu(2), 6),
        # a TableMu generates a table to depth C + 1: refused at max(depth, C + 1)
        lambda: lambda_from_mu(_UnbuildableTableMu(2, 1, {(i, w): 1.0 for w in BasisEnumeration(2, 1).words()
                                                          for i in (1, 2)}), 6),
        lambda: lambda_from_mu(_UnbuildableTableMu(2, 5, {(i, w): 1.0 for w in BasisEnumeration(2, 5).words()
                                                          for i in (1, 2)}), 2),
        lambda: level_sums(tabulated, (0.5, 0.5), 6),
        lambda: region_sample(_Unbuildable(2), [[0.5, 0.5]], 6),
    ]
    for entry in entries:
        with pytest.raises(ValueError) as raised:
            entry()
        assert str(raised.value) == message
    assert TruncatedFock(2, 5).dimension == 63


def _planted_cocycle_blocks(n: int, depth: int, planted: dict) -> list:
    """The blocks of ``check_cocycles``, one per law and length s of the word
    both sides share, with both sides 1 but for the planted right-hand values
    ((|u|, |v|, |w|), (rank u, rank v, rank w, label)) -> value."""
    basis = BasisEnumeration(n, depth)
    offsets = basis.level_offsets

    def turned(index):  # the index of the word read from the right
        return basis.index_of(Word(basis.word_at(index).letters[::-1]))

    def key(label, s, a, k, y):
        def one(a, k, y):
            u, x = offsets[a] + y % n**a, offsets[s - a] + y // n**a
            if label == 0:  # [|u|, index of v, rank w*u]
                return u, k, x, 0
            # [|u|, index of w read from the right, rank of u*v read from the right]
            return turned(u), turned(x), turned(k), 1
        return np.vectorize(one)(a, k, y)

    blocks = []
    for label in (0, 1):
        for s in range(depth + 1):
            shape = (s + 1, (offsets[-1] - offsets[s]) // n**s, n**s)
            rhs = np.ones(shape)
            for ((lu, lv, lw), (ru, rv, rw, lab)), value in planted.items():
                u, v, w = offsets[lu] + ru, offsets[lv] + rv, offsets[lw] + rw
                if lab == label == 0 and lw + lu == s:
                    rhs[lu, v, rw * n**lu + ru] = value
                elif lab == label == 1 and lu + lv == s:
                    rhs[lu, turned(w), (turned(v) - offsets[lv]) * n**lu + turned(u) - offsets[lu]] = value
            blocks.append((shape, (np.ones(shape),), (rhs,), functools.partial(key, label, s)))
    return blocks


def test_sweep_witness_is_the_graded_lex_first_maximum(monkeypatch):
    # equal maxima planted in blocks whose flat order [|u|, index of v, rank
    # w*u] (of w and u*v read from the right, for the right law) is not the
    # witness order (u, v, w, label), in one buffer, in several, and cut
    n, depth, planted = 2, 4, {}
    checks = sum(math.comb(k + 2, 2) * n**k * 2 for k in range(depth + 1))

    def sweep() -> DefectReport:
        # one buffer, several, and blocks cut row by row and float by float
        reports = []
        for buffer_floats in (2**13, 24, 1):
            monkeypatch.setattr(weights, "SWEEP_FLOATS", buffer_floats)
            blocks = _planted_cocycle_blocks(n, depth, planted)
            reports.append(weights._sweep(blocks, BasisEnumeration(n, depth), ("left", "right")))
        assert all(_same_report(report, reports[0]) for report in reports)
        return reports[0]

    assert weights.SWEEP_FLOATS == 2**13  # the buffers' size
    assert sweep() == DefectReport(0.0, None, checks)
    planted[((1, 0, 2), (1, 0, 3, 0))] = 3.0  # u = 2, v = e, w = 22, left: a later key in an earlier block
    planted[((1, 1, 0), (0, 1, 0, 1))] = 3.0  # u = 1, v = 2, w = e, right: the first key, in a later block
    planted[((1, 1, 0), (1, 0, 0, 1))] = 3.0  # u = 2, v = 1, w = e, right: a later key, earlier in that block
    planted[((1, 1, 1), (0, 1, 0, 0))] = 3.0  # u = 1, v = 2, w = 1, left: a later key in an earlier block
    planted[((2, 0, 0), (0, 0, 0, 0))] = 3.0  # u = 11, v = w = e, left: a later key, later in that block
    assert sweep() == DefectReport(2.0 / 3.0, ("right", Word([1]), Word([2]), EMPTY), checks)
    # a NaN in a later block outranks every number; of two NaNs the earlier key wins
    planted[((2, 0, 2), (3, 0, 0, 0))] = math.nan  # u = 22, v = e, w = 11, left: a later key in an earlier block
    planted[((2, 1, 1), (0, 1, 0, 1))] = math.nan  # u = 11, v = 2, w = 1, right: the first key, in a later block
    planted[((2, 1, 1), (2, 0, 0, 1))] = math.nan  # u = 21, v = 1, w = 1, right: a later key, earlier in that block
    planted[((2, 2, 0), (0, 3, 0, 0))] = math.nan  # u = 11, v = 22, w = e, left: a later key in an earlier block
    planted[((3, 0, 0), (0, 0, 0, 0))] = math.nan  # u = 111, v = w = e, left: a later key in an earlier block
    report = sweep()
    assert math.isnan(report.max_defect)
    assert (report.witness, report.checks) == (("right", Word([1, 1]), Word([2]), Word([1])), checks)


def test_sweeps_take_whole_table_products_in_one_buffer_pass(monkeypatch):
    # n = 2, depth 6: one block per length of the shared word, whose right side
    # is one broadcast product over the stacked table, 2 (d+1) for the cocycles;
    # one block per |v| with a product a side, 2 d for the intertwining; and
    # every defect fits one buffer pass
    products, passes = [], []
    sweep, defect_pass = weights._sweep, weights._defect_pass

    def counted_sweep(blocks, n, labels):
        products.append(sum(len(side) == 2 for _, *sides, _ in blocks for side in sides))
        passes.append(0)
        return sweep(blocks, n, labels)

    def counted_pass(*args):
        passes[-1] += 1
        return defect_pass(*args)

    monkeypatch.setattr(weights, "_sweep", counted_sweep)
    monkeypatch.setattr(weights, "_defect_pass", counted_pass)
    ws, depth = ConstantWeights(2, 1.5), 6
    check_cocycles(ws, None, depth)
    check_intertwining(ws, depth)
    assert products == [2 * (depth + 1), 2 * depth] == [14, 12]
    assert passes == [1, 1]


def _same_report(report: DefectReport, oracle: DefectReport) -> bool:
    """``==``, with a NaN defect equal to a NaN defect."""
    nan = math.isnan(report.max_defect) and math.isnan(oracle.max_defect)
    return (report.witness, report.checks) == (oracle.witness, oracle.checks) and (
        nan or report.max_defect == oracle.max_defect)


@pytest.mark.parametrize("ws, depth", [(ConstantWeights(2, 1e300), 4), (ConstantWeights(2, 1e300), 6),
                                       (ConstantWeights(3, 1e-150), 6)], ids=["1e300-d4", "1e300-d6", "1e-150-d6"])
def test_float_range_sweeps_match_the_oracle(ws, depth):
    # pinned as they are: past 1e308 the products overflow, inf - inf is a NaN
    # defect with its witness; below 5e-324 they underflow to 0 and compare 0 with 0
    cocycles, intertwining = check_cocycles(ws, None, depth), check_intertwining(ws, depth)
    assert _same_report(cocycles, _oracle_cocycles(ws, None, depth))
    assert _same_report(intertwining, _oracle_intertwining(ws, depth))
    assert math.isnan(cocycles.max_defect) == (ws.value > 1.0) == math.isnan(intertwining.max_defect)


CUT_SYSTEMS = [s for s in SWEEP_SYSTEMS if s[0] in (
    "periodic-n1", "finite_perturbation-n2", "tabulated-n2", "two_letter_m", "periodic-n3", "scaled-1e-14")]


@pytest.mark.parametrize("buffer_floats", (1, 7, 300))
@pytest.mark.parametrize("label, ws, depth", CUT_SYSTEMS, ids=[s[0] for s in CUT_SYSTEMS])
def test_cut_blocks_match_the_oracle(monkeypatch, label, ws, depth, buffer_floats):
    # buffers of 1, 7 and 300 floats cut every block of one length of the shared
    # word (or of one |v|) row by row or float by float, and spread it over passes
    monkeypatch.setattr(weights, "SWEEP_FLOATS", buffer_floats)
    mu = table_mu(ws.n, 75)
    for d in range(6 if ws.n < 3 else 5):
        assert _same_report(check_cocycles(ws, None, d), _oracle_cocycles(ws, None, d))
        assert _same_report(check_cocycles(ws, mu, d), _oracle_cocycles(ws, mu, d))
        if d >= 1:
            assert _same_report(check_intertwining(ws, d), _oracle_intertwining(ws, d))


def _swapped(perm: list[int], i: int, w: Word) -> tuple[int, Word]:
    """(i, w) with its letters relabelled by ``perm``, 0-based."""
    return perm[i - 1] + 1, Word([perm[a - 1] + 1 for a in w.letters])


def _relabelled(ws, perm: list[int]):
    """``ws`` with its letters relabelled by the involution ``perm`` of [0, n): the
    weight of ``_swapped(perm, i, w)`` is that of (i, w)."""
    if isinstance(ws, ScaledWeights):
        return ScaledWeights(ws.n, tuple(ws.scales[p] for p in perm))
    if isinstance(ws, FinitePerturbationWeights):
        table = {_swapped(perm, *key): value for key, value in ws.table.items()}
        return FinitePerturbationWeights(ws.n, ws.cutoff, table, tuple(ws.tail[p] for p in perm))
    if isinstance(ws, PeriodicWeights):
        return PeriodicWeights(ws.n, ws.period, {_swapped(perm, *key): value for key, value in ws.remainders.items()})
    levels = []
    for k, level in enumerate(ws.levels):  # axes: the letter, then the letters of w
        table = level.reshape((ws.n,) * (k + 1))
        for axis in range(k + 1):
            table = np.take(table, perm, axis=axis)
        levels.append(table.reshape(level.shape))
    return TabulatedWeights(ws.n, ws.depth, levels)


RELABELLED = [s for s in SWEEP_SYSTEMS if s[1].n > 1 and type(s[1]) in (
    ScaledWeights, FinitePerturbationWeights, PeriodicWeights, TabulatedWeights)]
RELABELLED += [("scaled-1e300", ScaledWeights(2, (1e300, 1.0)), 4)]


@pytest.mark.parametrize("label, ws, depth", RELABELLED, ids=[s[0] for s in RELABELLED])
def test_swapping_two_letters_keeps_the_sweeps_defects(label, ws, depth):
    # swapping letters 1 and 2 maps each triple to one whose products have the
    # same factors in the same order: the defects are the same, so the maximum
    # (NaN equal to NaN) and the count are; ties may reorder, so not the witness
    perm = [1, 0, *range(2, ws.n)]
    swapped = _relabelled(ws, perm)
    edges = [(i, w) for w in BasisEnumeration(ws.n, 3).words() for i in range(1, ws.n + 1)]
    assert all(swapped.lambda_of(*_swapped(perm, i, w)) == ws.lambda_of(i, w) for i, w in edges)
    assert any(swapped.lambda_of(i, w) != ws.lambda_of(i, w) for i, w in edges)  # another system
    for d in range(6 if ws.n < 3 else 5):
        pairs = [(check_cocycles(ws, None, d), check_cocycles(swapped, None, d))]
        if d >= 1:
            pairs.append((check_intertwining(ws, d), check_intertwining(swapped, d)))
        for report, relabelled in pairs:
            assert report.checks == relabelled.checks
            assert report.max_defect == relabelled.max_defect or (
                math.isnan(report.max_defect) and math.isnan(relabelled.max_defect))


def test_cocycle_sweep_peak_memory():
    # 2,692,496 checks, under the 2^21-triple guard; 13.3 MiB was the peak
    # when every block stacked both sides and took its defects on its own
    tracemalloc.start()
    try:
        report = check_cocycles(ConstantWeights(9, 1.0), None, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == DefectReport(0.0, None, 2_692_496)
    assert peak <= 13.3 * 2**20


def test_check_builds_each_map_and_table_once(tmp_path, capsys, monkeypatch):
    # the shift rows are kept on the space and the sweeps' total-length tables
    # on the weight system: a bounded check builds the left and the right rows
    # once, a diverging one only the left; both sweeps share one build of the
    # W tables, and the cocycle sweep builds the W_mu tables once
    shifts, tables = [], []
    build_rows, build_tables = fock._shift_rows, weights._total_tables

    def counted_rows(space, left):
        shifts.append(left)
        return build_rows(space, left)

    def counted_tables(levels, depth, append):
        tables.append(("W_mu" if append else "W", depth))
        return build_tables(levels, depth, append)

    monkeypatch.setattr(fock, "_shift_rows", counted_rows)
    monkeypatch.setattr(weights, "_total_tables", counted_tables)
    periodic = {"n": 2, "family": "periodic", "period": 2,
                "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2}}
    diverging = {"n": 2, "family": "two_letter_m", "m": 4, "c": 1}
    for document, left_and_right in ((periodic, [True, False]), (diverging, [True])):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(document))
        shifts.clear()
        tables.clear()
        assert main(["check", "--config", str(config), "--depth", "9"]) == 0
        assert (shifts, tables) == (left_and_right, [("W", 6), ("W_mu", 6)])
    capsys.readouterr()


def test_deep_single_letter_system(tmp_path):
    # W(e, 1^k) ~ 0.01^k underflows long before depth 200; the ratios settle at 0.02
    table = table_from_strings({"1:e": 0.5, "1:1": 2.0})
    ws = FinitePerturbationWeights(1, 1, table, (0.01,))
    for (_, w), value in mu_table(ws, 200).items():
        if len(w) >= 2:
            assert value == pytest.approx(0.02, rel=1e-12)
    config = tmp_path / "deep.json"
    config.write_text(
        '{"n": 1, "family": "finite_perturbation", "cutoff": 1,'
        ' "table": {"1:e": 0.5, "1:1": 2.0}, "tail": [0.01]}'
    )
    assert main(["check", "--config", str(config), "--depth", "200"]) == 0


def _oracle_periodic_decision(ws: PeriodicWeights) -> tuple[str, dict]:
    """The remainder automaton on Word-keyed states: (first k-1 letters of w,
    |w| mod k), multipliers read off the remainder table, and the transient
    supremum and entry seeds from commutant_mu word by word."""
    k, n = ws.period, ws.n
    if k == 1:
        return BOUNDED, {"exact_sup": 1.0, "method": "period-1 weights depend only on the letter"}
    basis = BasisEnumeration(n, k - 1)
    transient_best = max(commutant_mu(ws, i, w) for w in basis.words() for i in range(1, n + 1))
    prefixes = list(basis.level_words(k - 1))
    state_index = {}
    for p in prefixes:
        for r in range(k):
            state_index[(p.letters, r)] = len(state_index)
    num = len(state_index)
    edges = []
    for p in prefixes:
        for r in range(k):
            src = state_index[(p.letters, r)]
            r_next = (r + 1) % k
            for a in range(1, n + 1):
                dst = state_index[(prepend(a, p)[: k - 1].letters, r_next)]
                num_w = ws.remainders[(a, p[:r_next])]
                den_w = ws.remainders[(a, p[:r])]
                edges.append((src, dst, math.log(num_w) - math.log(den_w)))
    neg_inf = float("-inf")
    best = [neg_inf] * num
    for p in prefixes:
        best[state_index[(p.letters, k - 1)]] = max(math.log(commutant_mu(ws, i, p)) for i in range(1, n + 1))
    overall = max(v for v in best if v > neg_inf)
    tol = 1e-12
    for _ in range(num + 1):
        nxt = list(best)
        improved = False
        for src, dst, logw in edges:
            if best[src] == neg_inf:
                continue
            cand = best[src] + logw
            if cand > nxt[dst] + tol:
                nxt[dst] = cand
                improved = True
        best = nxt
        overall = max(overall, max(v for v in best if v > neg_inf))
        if not improved:
            break
    else:
        improved = True
    if improved:
        return DIVERGING, {"method": "remainder automaton holds a cycle with ratio product > 1", "states": num}
    return BOUNDED, {
        "exact_sup": max(transient_best, math.exp(overall)),
        "method": "remainder automaton max-cycle-ratio check",
        "states": num,
    }


def _random_periodic(seed: int) -> PeriodicWeights:
    """n in 1..3, period in 1..4; odd seeds draw every remainder, even seeds
    take lambda_{a,u} = alpha_a t_|u|, whose cycle ratios are all 1."""
    rng = np.random.default_rng(seed)
    n, period = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    alpha, t = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, period)
    remainders = {
        (a, w): float(rng.uniform(0.5, 2.0) if seed % 2 else alpha[a - 1] * t[len(w)])
        for w in BasisEnumeration(n, period - 1).words()
        for a in range(1, n + 1)
    }
    return PeriodicWeights(n, period, remainders)


RANDOM_PERIODIC = [_random_periodic(seed) for seed in range(60)]


def _oracle_two_letter_decision(ws: TwoLetterRunWeights) -> tuple[str, dict]:
    """The closed forms of the two-letter family: the ratios grow like m^(k/2)
    along 1^k for i = 2, and like (c sqrt(m))^k along 1^k 2 for i = 1."""
    growth_run = math.sqrt(ws.m)
    growth_tail = ws.c * math.sqrt(ws.m)
    if growth_run > 1.0:
        return DIVERGING, {"path": "1^k", "letter": 2, "per_step_factor": growth_run}
    if growth_tail > 1.0:
        return DIVERGING, {"path": "1^k 2", "letter": 1, "per_step_factor": growth_tail}
    return BOUNDED, {"exact_sup": 1.0}


def _oracle_decision(ws: WeightSystem) -> tuple[str, dict]:
    """Each family's decision as it was made family by family: constant and
    scaled ratios are 1, finite-perturbation ratio factors cancel beyond
    length cutoff + 1, so enumerating commutant_mu that far gives the
    supremum, as it does to length L for weights read off the first L
    letters, and the two-letter and periodic oracles above."""
    if isinstance(ws, (ConstantWeights, ScaledWeights)):
        return BOUNDED, {"exact_sup": 1.0}
    if isinstance(ws, (FinitePerturbationWeights, PrefixWeights)):
        words = BasisEnumeration(ws.n, ws.depth if isinstance(ws, PrefixWeights) else ws.cutoff + 1).words()
        return BOUNDED, {"exact_sup": max(commutant_mu(ws, i, w) for w in words for i in range(1, ws.n + 1))}
    if isinstance(ws, TwoLetterRunWeights):
        return _oracle_two_letter_decision(ws)
    return _oracle_periodic_decision(ws)


def _oracle_min_weight(ws: WeightSystem, i: int) -> float | None:
    """The per-family closed forms of the infimum of lambda_{i,.}."""
    if isinstance(ws, ConstantWeights):
        return ws.value
    if isinstance(ws, ScaledWeights):
        return ws.scales[i - 1]
    if isinstance(ws, FinitePerturbationWeights):
        return min(min(float(level[i - 1].min()) for level in ws.levels), ws.tail[i - 1])
    if isinstance(ws, (PeriodicWeights, PrefixWeights)):
        return min(float(level[i - 1].min()) for level in ws.levels)
    if isinstance(ws, TwoLetterRunWeights):
        return min(1.0 / ws.m, 1.0 / math.sqrt(ws.m), ws.c) if i == 1 else ws.c
    return None


TWO_LETTER_GRID = [TwoLetterRunWeights(m, c) for m in (0.25, 0.81, 1.0, 1.44, 4.0) for c in (0.5, 0.9, 1.0, 1.5)]
FINITE_PERTURBATIONS = [random_finite_perturbation(seed, n, cutoff)
                        for seed, (n, cutoff) in enumerate(itertools.product((1, 2, 3), (0, 1, 2)))]
AUTOMATON_SYSTEMS = [ws for _, ws, _ in SYSTEMS + ILL_CONDITIONED if type(ws) is not TabulatedWeights]
AUTOMATON_SYSTEMS += RANDOM_PERIODIC + FINITE_PERTURBATIONS + TWO_LETTER_GRID


def _assert_decision_matches(decision: tuple[str, dict], oracle: tuple[str, dict]) -> None:
    # the decision sums log factors where the oracles multiply ratios
    assert decision[0] == oracle[0]
    if oracle[0] == BOUNDED:
        assert decision[1]["exact_sup"] == pytest.approx(oracle[1]["exact_sup"], rel=1e-12, abs=0.0)


def test_periodic_decision_equals_word_keyed_oracle():
    verdicts = []
    for ws in RANDOM_PERIODIC:
        decision = weights._decide_condition6(ws)
        _assert_decision_matches(decision, _oracle_periodic_decision(ws))
        verdicts.append(decision[0])
    assert verdicts.count(BOUNDED) >= 10 and verdicts.count(DIVERGING) >= 10


def test_every_family_decision_equals_its_oracle():
    verdicts = []
    for ws in AUTOMATON_SYSTEMS:
        decision = weights._decide_condition6(ws)
        _assert_decision_matches(decision, _oracle_decision(ws))
        assert decision[1]["states"] >= 1
        verdicts.append((type(ws), decision[0]))
    for family in (TwoLetterRunWeights, PeriodicWeights):
        assert {(family, BOUNDED), (family, DIVERGING)} <= set(verdicts)


def test_automaton_walk_reproduces_the_weights():
    # lambda_levels walks the automaton; past the period, the cutoff and the table it still equals lambda_of
    for ws in AUTOMATON_SYSTEMS:
        depth = max(4, getattr(ws, "period", 0) + 2, getattr(ws, "cutoff", 0) + 2, getattr(ws, "depth", 0) + 2)
        levels = ws.lambda_levels(depth)
        assert len(levels) == depth + 1
        basis = BasisEnumeration(ws.n, depth)
        for k, level in enumerate(levels):
            assert level.T.tolist() == [[ws.lambda_of(i, w) for i in range(1, ws.n + 1)] for w in basis.level_words(k)]
        assert [ws.exact_min_weight(i) for i in range(1, ws.n + 1)] == [
            _oracle_min_weight(ws, i) for i in range(1, ws.n + 1)
        ]


def _hand_written_automaton(ws: WeightSystem) -> tuple[np.ndarray, np.ndarray]:
    """Each config family's automaton as it was written family by family: the
    constant and scaled single state, the finite-perturbation word tree and its
    tail, and the periodic tree followed by one state per (head, residue)."""
    n = ws.n
    if isinstance(ws, ConstantWeights):
        return np.zeros((1, n), dtype=np.int64), np.full((1, n), ws.value)
    if isinstance(ws, ScaledWeights):
        return np.zeros((1, n), dtype=np.int64), np.array([ws.scales])
    if isinstance(ws, FinitePerturbationWeights):
        # one state per word up to the cutoff, in graded-lex order, then the tail
        offsets = BasisEnumeration(n, ws.cutoff).level_offsets
        steps = [offsets[k + 1] + weights._prepended_ranks(n, k) for k in range(ws.cutoff)]
        next_state = np.concatenate(steps + [np.full((n**ws.cutoff + 1, n), offsets[-1])])
        return next_state, np.concatenate([level.T for level in ws.levels] + [np.array([ws.tail])])
    # the words shorter than p-1 in graded-lex order, then the state short + q p + r
    # of the words with first p-1 letters of rank q and length r mod p, whose
    # remainder prefix has rank q // n^(p-1-r)
    p = ws.period
    offsets = BasisEnumeration(n, p - 1).level_offsets
    short, heads = offsets[p - 1], n ** (p - 1)
    steps = [offsets[k + 1] + weights._prepended_ranks(n, k) for k in range(p - 2)]
    if p > 1:  # a*w for |w| = p-2 enters with residue p-1
        steps.append(short + weights._prepended_ranks(n, p - 2) * p + p - 1)
    q, r, a = np.ogrid[:heads, :p, :n]
    steps.append((short + (a * heads + q) // n * p + (r + 1) % p).reshape(-1, n))
    long = np.stack([ws.levels[r][:, np.arange(heads) // n ** (p - 1 - r)].T for r in range(p)], axis=1)
    return np.concatenate(steps), np.concatenate([level.T for level in ws.levels[: p - 1]] + [long.reshape(-1, n)])


def test_prefix_builder_lays_out_the_hand_written_automata():
    config = (ConstantWeights, ScaledWeights, FinitePerturbationWeights, PeriodicWeights)
    systems = [ws for _, ws, _ in SYSTEMS + ILL_CONDITIONED] + FINITE_PERTURBATIONS + RANDOM_PERIODIC
    systems = [ws for ws in systems if isinstance(ws, config)]
    assert {type(ws) for ws in systems} == set(config) and len(systems) == 84
    for ws in systems:
        for built, oracle in zip(ws.automaton(), _hand_written_automaton(ws), strict=True):
            assert built.dtype == oracle.dtype and built.shape == oracle.shape
            assert np.array_equal(built, oracle)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_weights_generated_from_a_table_mu_are_decided_exactly(n):
    # the commutant of the generated weights is the prescribed mu, so its exact
    # supremum is the largest prescribed mu: a table entry, or the fill past the cutoff
    for fill in (1.25, 0.5, 4.0):
        base = table_mu(n, 90 + n)
        mu = TableMu(n, base.cutoff, base.entries, fill=fill)
        ws = lambda_from_mu(mu, 4)
        report = condition6_sup(ws, 4)
        largest = max(max(mu.entries.values()), fill)
        assert report.verdict == BOUNDED
        assert report.certificate["exact_sup"] == pytest.approx(largest, rel=1e-12, abs=0.0)
        depth = mu.cutoff + 4
        for generated, prescribed in zip(CommutantMu(ws).mu_levels(depth), mu.mu_levels(depth), strict=True):
            assert np.allclose(generated, prescribed, rtol=1e-12, atol=0.0)


def test_every_weight_family_has_an_automaton_but_tables():
    # a new family without an automaton would fall back to bounded_so_far unnoticed
    families = {
        value for value in vars(weights).values()
        if isinstance(value, type) and issubclass(value, WeightSystem) and value is not WeightSystem
    }
    assert families == {type(ws) for _, ws, _ in SYSTEMS}
    for _, ws, _ in SYSTEMS:
        assert (ws.automaton() is None) == (type(ws) is TabulatedWeights)
        if type(ws) is TabulatedWeights:
            assert weights._decide_condition6(ws) == (weights.BOUNDED_SO_FAR, {})
            assert ws.exact_min_weight(1) is None


class _MalformedAutomaton(WeightSystem):
    n = 2

    def __init__(self, next_state):
        self.next_state = next_state

    def automaton(self):
        return np.array(self.next_state), np.ones((len(self.next_state), 2))


def test_automaton_steps_outside_the_states_are_refused():
    # the walk takes its steps unchecked, so the kept automaton checks each once
    with pytest.raises(ValueError, match=r"automaton state 1 steps on letter 2 to state 2, outside \[0, 2\)"):
        _MalformedAutomaton([[1, 1], [0, 2]]).lambda_levels(3)
    with pytest.raises(ValueError, match=r"automaton state 0 steps on letter 1 to state -1, outside \[0, 1\)"):
        _MalformedAutomaton([[-1, 0]]).kept_automaton()
    assert [level.tolist() for level in _MalformedAutomaton([[1, 1], [0, 1]]).lambda_levels(2)] == [
        [[1.0], [1.0]], [[1.0] * 2] * 2, [[1.0] * 4] * 2]


def test_diverging_certificates_pump_the_ratios():
    diverging = [ws for ws in AUTOMATON_SYSTEMS if weights._decide_condition6(ws)[0] == DIVERGING]
    assert len(diverging) >= 20
    for ws in diverging:
        certificate = weights._decide_condition6(ws)[1]
        i, factor = certificate["letter"], certificate["per_step_factor"]
        prefix, cycle = parse_word(certificate["prefix"], ws.n), parse_word(certificate["cycle"], ws.n)
        assert factor > 1.0 and len(cycle) >= 1
        for k in range(4):
            step = commutant_mu(ws, i, cycle ** (k + 1) * prefix) / commutant_mu(ws, i, cycle**k * prefix)
            assert step == pytest.approx(factor, rel=1e-12, abs=0.0)
    # the two-letter certificates keep their pumping paths: 1^k for i = 2, 1^k 2 for i = 1
    runs = weights._decide_condition6(TwoLetterRunWeights(4.0, 1.0))[1]
    assert (runs["letter"], runs["cycle"], runs["per_step_factor"]) == (2, "1", 2.0)
    tail = weights._decide_condition6(TwoLetterRunWeights(0.81, 1.5))[1]
    assert (tail["letter"], tail["cycle"], tail["prefix"][-1]) == (1, "1", "2")
    assert tail["per_step_factor"] == pytest.approx(1.5 * 0.9, rel=1e-15)


def test_condition6_guard_counts_ratio_pairs():
    # an n = 2 finite perturbation has 3 * 2^cutoff - 1 ratio pairs
    def tree(cutoff):
        levels = [np.ones((2, 2**k)) for k in range(cutoff + 1)]
        return FinitePerturbationWeights.automaton(SimpleNamespace(n=2, cutoff=cutoff, levels=levels, tail=(1.0, 1.0)))

    assert weights._automaton_decision(*tree(15)) == (BOUNDED, {
        "exact_sup": 1.0, "method": "max-plus sweep of the ratio pairs", "states": 98303})
    with pytest.raises(ValueError, match="reaches 131070 ratio pairs, over the 100000 guard"):
        weights._automaton_decision(*tree(16))


def test_condition6_decided_once_per_system(tmp_path, capsys, monkeypatch):
    calls = [0]
    decide = weights._automaton_decision

    def counted(next_state, lam):
        calls[0] += 1
        return decide(next_state, lam)

    monkeypatch.setattr(weights, "_automaton_decision", counted)
    # fresh systems: the shared RANDOM_PERIODIC ones may already hold their decision
    for seed in range(60):
        ws = _random_periodic(seed)
        calls[0] = 0
        oracle = _oracle_periodic_decision(ws)
        decision = weights._decide_condition6(ws)
        _assert_decision_matches(decision, oracle)
        assert condition6_sup(ws, 3).certificate == decision[1]
        if oracle[0] == BOUNDED:
            weights.require_bounded_mu(ws)
        else:
            with pytest.raises(ValueError, match="commutant weights diverge"):
                weights.require_bounded_mu(ws)
        assert calls[0] == 1
        # each caller gets its own certificate: writing to one reaches no other
        weights._decide_condition6(ws)[1]["method"] = None
        assert weights._decide_condition6(ws) == decision

    config = tmp_path / "periodic.json"
    config.write_text(json.dumps({
        "n": 2, "family": "periodic", "period": 2,
        "remainders": {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2},
    }))
    for verb in ("check", "commutant"):
        calls[0] = 0
        assert main([verb, "--config", str(config), "--depth", "10"]) == 0
        assert calls[0] == 1, verb
    capsys.readouterr()


def test_automaton_built_once_per_system(tmp_path, capsys, monkeypatch):
    # every reader of a system's automaton reads the one copy kept on it, which is read-only
    built = []
    build = PeriodicWeights.automaton

    def counted(ws):
        built.append(ws)
        return build(ws)

    monkeypatch.setattr(PeriodicWeights, "automaton", counted)
    remainders = {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2}
    config = tmp_path / "periodic.json"
    config.write_text(json.dumps({"n": 2, "family": "periodic", "period": 2, "remainders": remainders}))
    for argv in (["check", "--depth", "9"], ["commutant", "--depth", "6"],
                 ["region", "--grid", "0:1.2:0.3", "--depth", "8"]):
        built.clear()
        assert main([*argv[:1], "--config", str(config), *argv[1:]]) == 0
        # the list keeps every system it saw alive, so two ids are equal only for one object
        assert built and len(set(map(id, built))) == len(built), argv[0]
    capsys.readouterr()
    ws = PeriodicWeights(2, 2, table_from_strings(remainders))
    built.clear()
    ws.lambda_levels(5)
    assert [ws.exact_min_weight(i) for i in (1, 2)] == [1.0, 1.0]
    weights._decide_condition6(ws)
    eigen.region_sample(ws, GridSpec(0.0, 1.0, 0.5).points(2), 5)
    assert len(built) == 1
    for array in ws.kept_automaton():
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


def test_level_arrays_built_once_per_use(tmp_path, capsys, monkeypatch):
    # a weight system builds its lambda levels once, at the deepest depth asked, and slices them
    calls = [0]
    build = PeriodicWeights.lambda_levels

    def counted(ws, depth):
        calls[0] += 1
        return build(ws, depth)

    def count(run) -> int:
        calls[0] = 0
        run()
        return calls[0]

    remainders = {"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2}

    def fresh() -> PeriodicWeights:
        return PeriodicWeights(2, 2, table_from_strings(remainders))

    monkeypatch.setattr(PeriodicWeights, "lambda_levels", counted)
    space, ws = TruncatedFock(2, 6), fresh()
    assert count(lambda: fock.norm_check(space, fresh())) == 1
    assert count(lambda: CommutantMu(ws).mu_levels(6)) == 1
    # every later use up to depth 6 slices the kept levels: the left map, and the right map through CommutantMu
    assert count(lambda: fock.norm_check(space, ws)) == 0
    assert count(lambda: fock.vacuum_kernel_check(space, ws)) == 0
    assert count(lambda: fock.commutation_defect(space, ws, table_mu(2, 75))) == 0
    weights.require_bounded_mu(ws)
    assert count(lambda: fock.commutation_defect(space, ws)) == 0
    # a deeper request builds once more; the slices equal a fresh build, and are read-only
    assert count(lambda: ws.kept_lambda_levels(9)) == 1
    assert [level.tolist() for level in ws.kept_lambda_levels(4)] == [level.tolist() for level in build(fresh(), 4)]
    with pytest.raises(ValueError, match="read-only"):
        ws.kept_lambda_levels(3)[1][0, 0] = 0.0

    config = tmp_path / "periodic.json"
    config.write_text(json.dumps({"n": 2, "family": "periodic", "period": 2, "remainders": remainders}))
    # one build for the sweeps at depth 6, one when condition 6 asks for depth 9; every other use slices
    assert count(lambda: main(["check", "--config", str(config), "--depth", "9"])) <= 2
    capsys.readouterr()


def test_level_paths_build_no_word(monkeypatch):
    # once a system is built, its level arrays and every family's decision need no Word
    systems = [(ws, depth) for _, ws, depth in SYSTEMS + ILL_CONDITIONED]
    mus = [(table_mu(n, 70 + n), system_depth(n)) for n in (1, 2, 3)]
    tabulated = [ws for ws, _ in systems if isinstance(ws, TabulatedWeights)]
    built = [0]
    init = Word.__init__

    def counted_init(self, letters=()):
        built[0] += 1
        init(self, letters)

    monkeypatch.setattr(Word, "__init__", counted_init)
    for ws, depth in systems:
        ws.lambda_levels(depth)
        CommutantMu(ws).mu_levels(depth)
    for mu, depth in mus:
        mu.mu_levels(depth)
    for ws in AUTOMATON_SYSTEMS:
        # past the decision each system may already hold, diverging certificates included
        weights._automaton_decision(*ws.automaton())
    for ws in tabulated:
        weights._decide_condition6(ws)
    assert built[0] == 0


def test_table_families_hand_out_no_writable_stored_array():
    tables = [ws for _, ws, _ in SYSTEMS + ILL_CONDITIONED if hasattr(ws, "levels")]
    tables += [table_mu(n, 70 + n) for n in (1, 2, 3)]
    kinds = {FinitePerturbationWeights, PeriodicWeights, TabulatedWeights, PrefixWeights, TableMu}
    assert {type(system) for system in tables} == kinds
    for system in tables:
        stored = system.levels
        assert not any(level.flags.writeable for level in stored)
        with pytest.raises(ValueError, match="read-only"):
            stored[-1][0, 0] = 1.0
        depth = len(system.levels) - 1
        levels = system.mu_levels if isinstance(system, MuSystem) else system.lambda_levels
        for level in levels(depth):
            # a writable array is a fresh one: writing to it cannot reach the system
            assert not level.flags.writeable or not any(np.shares_memory(level, s) for s in stored)


# ---------------------------------------------------------------------------
# right-weight paths: one walk along v^(K-1) against one walk per power
# ---------------------------------------------------------------------------


def _parent_right_weight(mu, v: Word, w: Word) -> float:
    total = 1.0
    base = v
    for letter in w.letters:
        total *= mu.mu_of(letter, base)
        base = append(base, letter)
    return total


def _parent_log_right_weight(mu, v: Word, w: Word) -> float:
    total = 0.0
    base = v
    for letter in w.letters:
        total += math.log(mu.mu_of(letter, base))
        base = append(base, letter)
    return total


def _parent_semisimple(mu, max_v_len: int, max_k: int) -> tuple[float, Word]:
    """Re-walks v^(k-1) from v for every power k."""
    k_lo = max(1, math.ceil(max_k / 2))
    best, witness = math.inf, Word([1])
    for length in range(1, max_v_len + 1):
        for v in BasisEnumeration(mu.n, max_v_len).level_words(length):
            log_base = _parent_log_right_weight(mu, EMPTY, v)
            inner = min(_parent_log_right_weight(mu, v, v ** (k - 1)) / k for k in range(k_lo, max_k + 1))
            value = math.exp(inner - log_base)
            if value < best:
                best, witness = value, v
    return best, witness


def _parent_closed_forms(a: FourierElement, v: Word, k_max: int) -> list[complex]:
    a_v = a.coeffs[v]
    log_base = _parent_log_right_weight(a.mu, EMPTY, v)
    return [a_v**k * math.exp(-(k - 1) * log_base) * _parent_right_weight(a.mu, v, v ** (k - 1))
            for k in range(1, k_max + 1)]


# tabulated weights end at their table depth, short of the walks along v^(k-1); prefix weights do not
WALK_SYSTEMS = [s for s in SYSTEMS + ILL_CONDITIONED if type(s[1]) is not TabulatedWeights]
PATH_SYSTEMS = [ws for _, ws, _ in WALK_SYSTEMS] + [table_mu(n, 80 + n) for n in (1, 2, 3)]


@pytest.mark.parametrize("source", PATH_SYSTEMS, ids=lambda s: f"{type(s).__name__}-n{s.n}")
def test_semisimple_estimate_equals_per_power_walks(source):
    mu = CommutantMu(source) if isinstance(source, WeightSystem) else source
    for max_v_len, max_k in ((1, 1), (2, 5), (3 if source.n < 3 else 2, 8)):
        estimate = semisimple_estimate(source, max_v_len, max_k)
        assert (estimate.value, estimate.witness_v) == _parent_semisimple(mu, max_v_len, max_k)


@pytest.mark.parametrize("label, ws, depth", WALK_SYSTEMS, ids=[s[0] for s in WALK_SYSTEMS])
def test_spectral_radius_closed_forms_equal_per_power_walks(label, ws, depth):
    n = ws.n
    cases = [
        ({Word([n]): 0.7 - 0.2j, Word([1, n]): 0.3}, Word([n]), depth),
        ({EMPTY: 0.5 + 0.5j, Word([1]): 1.0}, EMPTY, 3),  # the empty word's powers are all e
        ({Word([n, 1]): -1.5j, Word([1, 1, n]): 0.25}, Word([n, 1]), depth // 2),
    ]
    for coeffs, v, k_max in cases:
        element = FourierElement.build(coeffs, ws)
        bounds = spectral_radius_lower(element, v, k_max, depth)
        assert bounds.closed_forms == _parent_closed_forms(element, v, k_max)
    for v, w in ((EMPTY, EMPTY), (Word([n]), Word([1, n, 1])), (Word([1, n]), Word([n] * depth))):
        assert right_weight(element.mu, v, w) == _parent_right_weight(element.mu, v, w)
