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
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

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
    right_creation,
    right_weight,
    semisimple_estimate,
    spectral_radius_lower,
    weighted_left_shift,
    weighted_right_shift,
    word_operator,
)
from fockshift import PeriodicWeights, TableMu, TabulatedWeights, algebra, eigen, fock, weights
from fockshift.cli import main
from fockshift.eigen import INSIDE, OUTSIDE
from fockshift.weights import BOUNDED, DIVERGING, DefectReport, MuSystem, WeightSystem, mu_table, table_from_strings
from fockshift.words import EMPTY, Word, append, parse_word, prepend

from conftest import ILL_CONDITIONED, SYSTEMS, random_finite_perturbation, system_depth, table_mu
import level_sum_kernel as kernel



def _oracle_shift(space: TruncatedFock, weight, i: int, left: bool) -> GradedOperator:
    rows, cols, values = [], [], []
    for k in range(space.depth):
        for w in space.basis.level_words(k):
            cols.append(space.index_of(w))
            rows.append(space.index_of(prepend(i, w) if left else append(w, i)))
            values.append(weight(i, w))
    return GradedOperator.from_entries(space, rows, cols, values)


def _oracle_word_operator(space: TruncatedFock, ws, w: Word) -> GradedOperator:
    rows, cols, values = [], [], []
    for k in range(space.depth - len(w) + 1):
        for u in space.basis.level_words(k):
            cols.append(space.index_of(u))
            rows.append(space.index_of(w * u))
            values.append(left_weight(ws, u, w))
    return GradedOperator.from_entries(space, rows, cols, values)


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
    """sum_w c_w W(e,w)^{-1} T_w, one sparse add per word."""
    total = GradedOperator.zero(space)
    for w, coeff in coeffs.items():
        total = total + (coeff / left_weight(ws, EMPTY, w)) * _oracle_word_operator(space, ws, w)
    return total


def _oracle_series(space: TruncatedFock, coeffs: dict) -> GradedOperator:
    """sum_w c_w L_w, one entry per column and term."""
    rows, cols, values = [], [], []
    for v in space.basis.words():
        for w, c_w in coeffs.items():
            if len(w) <= space.depth - len(v):
                rows.append(space.index_of(w * v))
                cols.append(space.index_of(v))
                values.append(c_w)
    return GradedOperator.from_entries(space, rows, cols, values)


class _CachedMu(MuSystem):
    """Memoised ``mu_of``, which keeps the scalar ``right_weight`` fast."""

    def __init__(self, mu):
        self.n = mu.n
        self.mu_of = functools.cache(mu.mu_of)


def _oracle_expansion(space: TruncatedFock, a: FourierElement) -> dict:
    """(row, column) -> a_w W_mu(w,v) / W_mu(e,v) for every |w| + |v| <= depth."""
    mu = _CachedMu(a.mu)
    entries = {}
    for v in space.basis.words():
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


def _element(ws, seed: int, mu=None) -> FourierElement:
    rng = np.random.default_rng(seed)
    words = list(BasisEnumeration(ws.n, 2).words()) + [Word([ws.n, 1, ws.n])]
    return FourierElement.build({w: complex(*rng.standard_normal(2)) for w in words}, ws, mu)


def _check_expansions(space: TruncatedFock, a: FourierElement) -> None:
    """The level-array builders against the per-word formulas."""
    ws = a.weights
    assert _same(operator_from_fourier(a, space), _oracle_fourier_sum(space, ws, a.coeffs))
    for k in (1, 2, space.depth):
        fejer = {w: (1.0 - len(w) / k) * c for w, c in a.coeffs.items() if len(w) < k}
        assert _same(pk_polynomial(a, k, space), _oracle_fourier_sum(space, ws, fejer))
    coo = expansion_operator(a, space).mat.tocoo()
    produced = dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist()))
    assert _close(produced, _oracle_expansion(space, a))
    point = tuple(cmath.rect(0.6, 0.4 + j) for j in range(ws.n))
    assert eigenvector_coeffs(ws, point, space.depth).coeffs == _oracle_eigenvector(ws, point, space.depth)
    # an empty expansion, and a support word past the depth, whose T_w is 0
    assert _same(operator_from_fourier(FourierElement.build({}, ws, a.mu), space), _oracle_fourier_sum(space, ws, {}))
    longer = {**a.coeffs, Word([ws.n] * (space.depth + 1)): 0.5 - 0.25j}
    produced = operator_from_fourier(FourierElement.build(longer, ws, a.mu), space)
    assert _same(produced, _oracle_fourier_sum(space, ws, longer))


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
    assert _lambda_table(lambda_from_mu(mu, depth), depth) == _oracle_lambda_from_mu(mu, depth)

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
    # two-letter runs: the 1-run state loops on letter 1, every word with a 2 past the first letter on both
    run = (moduli[0] * ws.m) ** 2 if moduli[0] > 0 else 0.0
    rest = (squares[0] + squares[1]) / ws.c**2 if moduli[1] > 0 else 0.0
    return max(run, rest)


def _assert_closed_form_verdicts(ws, samples) -> None:
    """Every verdict off the band |rho - 1| <= 2 DELTA is the closed form's."""
    for s in samples:
        rho = _closed_form_radius(ws, s.moduli)
        if abs(rho - 1.0) > 2 * eigen.DELTA:
            assert s.verdict == (INSIDE if rho < 1.0 else OUTSIDE), (s.moduli, rho)


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
    samples = region_sample(ws, grid, depth, 0.02)
    assert [s.moduli for s in samples] == points and len(points) >= 9 and points[0] == (0.0,) * ws.n
    oracle = [_oracle_level_sums(ws, p, depth) for p in points]
    for s, sums in zip(samples, oracle):
        _assert_sums_close(s.sums, sums)
    if automaton is None:
        # tabulated weights keep the tail heuristic
        assert [s.verdict for s in samples] == [membership_verdict(sums, 0.02)[0] for sums in oracle]
    else:
        _assert_closed_form_verdicts(ws, samples)
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
    for s, sums in zip(region_sample(ws, grid, 13, 0.02), expected):
        _assert_sums_close(s.sums, sums)


def test_region_guard_raises_before_building_tables():
    # a system without an automaton propagates on its word tree: sum over k <= 7 of 10^k words
    with pytest.raises(ValueError, match=r"level enumeration of 11111111 words exceeds"):
        region_sample(_Unbuildable(10), GridSpec(0.0, 1.0, 0.5), 7, 0.02)


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
    samples = region_sample(ScaledWeights(2, (1.5, 2.0)), GridSpec(0.0, 3.2, 0.2), 10, 0.02)
    assert len(samples) == 289
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
    assert _lambda_table(lambda_from_mu(mu, depth), depth) == _oracle_lambda_from_mu(mu, depth)
    _check_expansions(space, _element(lambda_from_mu(mu, depth), 90 + n, mu))

    # the resolvent series of the spectra checks
    unweighted = ConstantWeights(n, 1.0)
    point = tuple(cmath.rect(0.3, 0.9 + j) for j in range(n))
    candidate = eigenvector_coeffs(unweighted, point, depth - 1)
    oracle = _oracle_series(space, candidate.coeffs)
    assert _same(operator_from_fourier(FourierElement.build(candidate.coeffs, unweighted), space), oracle)
    assert _same(algebra._word_sum(space, unweighted, candidate.vector, normalized=True), oracle)


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
    # the sweeps read one set of mu levels and one left table; the oracle
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
    supremum, and the two-letter and periodic oracles above."""
    if isinstance(ws, (ConstantWeights, ScaledWeights)):
        return BOUNDED, {"exact_sup": 1.0}
    if isinstance(ws, FinitePerturbationWeights):
        words = BasisEnumeration(ws.n, ws.cutoff + 1).words()
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
    if isinstance(ws, PeriodicWeights):
        return min(float(level[i - 1].min()) for level in ws.levels)
    if isinstance(ws, TwoLetterRunWeights):
        return min(1.0 / ws.m, 1.0 / math.sqrt(ws.m), ws.c) if i == 1 else ws.c
    return None


TWO_LETTER_GRID = [TwoLetterRunWeights(m, c) for m in (0.25, 0.81, 1.0, 1.44, 4.0) for c in (0.5, 0.9, 1.0, 1.5)]
FINITE_PERTURBATIONS = [random_finite_perturbation(seed, n, cutoff)
                        for seed, (n, cutoff) in enumerate(itertools.product((1, 2, 3), (0, 1, 2)))]
AUTOMATON_SYSTEMS = [ws for _, ws, _ in SYSTEMS + ILL_CONDITIONED if not isinstance(ws, TabulatedWeights)]
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
    # lambda_levels walks the automaton; past the period and the cutoff it still equals lambda_of
    for ws in AUTOMATON_SYSTEMS:
        depth = max(4, getattr(ws, "period", 0) + 2, getattr(ws, "cutoff", 0) + 2)
        levels = ws.lambda_levels(depth)
        assert len(levels) == depth + 1
        basis = BasisEnumeration(ws.n, depth)
        for k, level in enumerate(levels):
            assert level.T.tolist() == [[ws.lambda_of(i, w) for i in range(1, ws.n + 1)] for w in basis.level_words(k)]
        assert [ws.exact_min_weight(i) for i in range(1, ws.n + 1)] == [
            _oracle_min_weight(ws, i) for i in range(1, ws.n + 1)
        ]


def test_every_weight_family_has_an_automaton_but_tables():
    # a new family without an automaton would fall back to bounded_so_far unnoticed
    families = {
        value for value in vars(weights).values()
        if isinstance(value, type) and issubclass(value, WeightSystem) and value is not WeightSystem
    }
    assert families == {type(ws) for _, ws, _ in SYSTEMS}
    for _, ws, _ in SYSTEMS:
        assert (ws.automaton() is None) == isinstance(ws, TabulatedWeights)
        if isinstance(ws, TabulatedWeights):
            assert weights._decide_condition6(ws) == (weights.BOUNDED_SO_FAR, {})
            assert ws.exact_min_weight(1) is None


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
    eigen.region_sample(ws, GridSpec(0.0, 1.0, 0.5), 5, 0.02)
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
    kinds = {FinitePerturbationWeights, PeriodicWeights, TabulatedWeights, TableMu}
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


# tabulated weights end at their table depth, short of the walks along v^(k-1)
WALK_SYSTEMS = [s for s in SYSTEMS + ILL_CONDITIONED if not isinstance(s[1], TabulatedWeights)]
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
