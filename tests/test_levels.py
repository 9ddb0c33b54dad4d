"""The per-level array paths against the scalar, per-word oracle.

Every comparison but one is exact: the array paths perform the same
floating-point operations in the same order as the per-word loops over
``lambda_of``, ``mu_of`` and ``commutant_mu``.  The expansion operator is
compared at 1e-14 relative: it carries W_mu(w,v) / W_mu(e,v) as a ratio,
where the per-word formula divides two products.
"""

import cmath
import functools
import itertools
import math

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
    operator_from_fourier,
    pk_polynomial,
    region_sample,
    right_creation,
    right_weight,
    weighted_left_shift,
    weighted_right_shift,
    word_operator,
)
from fockshift import algebra, eigen
from fockshift.cli import main
from fockshift.weights import DefectReport, MuSystem, WeightSystem, mu_table, table_from_strings
from fockshift.words import EMPTY, Word, append, prepend

from conftest import ILL_CONDITIONED, SYSTEMS, system_depth, table_mu



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
    for i in range(1, n + 1):
        levels = ws.lambda_levels(i, depth)
        assert len(levels) == depth + 1
        for k, level in enumerate(levels):
            assert level.tolist() == [ws.lambda_of(i, w) for w in basis.level_words(k)]
        for k, level in enumerate(mu.mu_levels(i, depth)):
            assert level.tolist() == [commutant_mu(ws, i, w) for w in basis.level_words(k)]
        assert _same(weighted_left_shift(space, ws, i), _oracle_shift(space, ws.lambda_of, i, left=True))
        assert _same(weighted_right_shift(space, mu, i), _oracle_shift(space, mu.mu_of, i, left=False))

    words = list(BasisEnumeration(n, 2).words()) + [Word([n, 1, n])]
    for w in words:
        assert _same(word_operator(space, ws, w), _oracle_word_operator(space, ws, w))

    oracle = {(i, w): commutant_mu(ws, i, w) for w in basis.words() for i in range(1, n + 1)}
    table = mu_table(ws, depth)
    assert list(table) == list(oracle)
    assert table == oracle
    assert lambda_from_mu(mu, depth).table == _oracle_lambda_from_mu(mu, depth)

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

    # log r = 0 at r = 1 keeps every bit of log lambda in the terms
    for moduli in ((0.0,) * n, tuple(1.0 - 0.2 * j for j in range(n))):
        assert np.array_equal(level_sums(ws, moduli, depth), _oracle_level_sums(ws, moduli, depth))

    _check_expansions(space, _element(ws, 80 + n))


def _oracle_region(monkeypatch, ws, grid: GridSpec, depth: int) -> list:
    """sample_point at every grid point, with the per-word level sums."""
    with monkeypatch.context() as patched:
        patched.setattr(eigen, "level_sums", _oracle_level_sums)
        points = itertools.product(grid.values(), repeat=ws.n)
        return [eigen.sample_point(ws, p, depth, 0.02) for p in points]


@pytest.mark.parametrize("label, ws, depth", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_region_blocks_equal_scalar_oracle(monkeypatch, label, ws, depth):
    # grids from r = 0 on every axis, through r = 1.05, where np.log misses
    # math.log by an ulp; blocks of 4 points, so the last block is partial
    grid = GridSpec(0.0, 1.2, 0.15) if ws.n < 3 else GridSpec(0.0, 1.05, 0.525)
    oracle = _oracle_region(monkeypatch, ws, grid, depth)
    monkeypatch.setattr(eigen, "BLOCK_FLOATS", 4 * ws.n**depth + ws.n**depth - 1)
    calls = {"lambda_levels": 0, "_exact_logs": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(type(ws), "lambda_levels", counted("lambda_levels", type(ws).lambda_levels))
    monkeypatch.setattr(eigen, "_exact_logs", counted("_exact_logs", eigen._exact_logs))
    samples = region_sample(ws, grid, depth, 0.02)
    assert len(samples) == len(oracle) >= 9 and oracle[0].moduli == (0.0,) * ws.n
    assert samples == oracle
    # the tables are built once per grid: one lambda_levels per letter, one log per level
    assert calls == {"lambda_levels": ws.n, "_exact_logs": depth}


def test_region_blocks_at_the_block_size(monkeypatch):
    # 2^13 words at the deepest level: 4 points per block, 9 points in 3 blocks
    ws = SYSTEMS[[s[0] for s in SYSTEMS].index("periodic-n2")][1]
    grid = GridSpec(0.0, 1.0, 0.5)
    assert eigen.BLOCK_FLOATS // 2**13 == 4
    assert region_sample(ws, grid, 13, 0.02) == _oracle_region(monkeypatch, ws, grid, 13)


def test_region_guard_raises_before_building_tables():
    # sum over k <= 7 of 10^k words
    with pytest.raises(ValueError, match=r"level enumeration of 11111111 words exceeds"):
        region_sample(_Unbuildable(10), GridSpec(0.0, 1.0, 0.5), 7, 0.02)


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
    assert lambda_from_mu(mu, depth).table == _oracle_lambda_from_mu(mu, depth)
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
