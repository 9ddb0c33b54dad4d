import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from fockshift import (
    CommutantMu,
    ConstantWeights,
    GradedOperator,
    ScaledWeights,
    TruncatedFock,
    TwoLetterRunWeights,
    commutation_defect,
    left_creation,
    norm_check,
    parse_word,
    right_creation,
    spectral_norm,
    vacuum_kernel_check,
    weighted_left_shift,
    weighted_right_shift,
)
from fockshift.fock import max_column_norm, partial_permutation_rank
from fockshift.weights import TableMu, mu_table
from fockshift.words import EMPTY, prepend

from conftest import ILL_CONDITIONED, ORACLE_DEPTH, SYSTEMS


@pytest.fixture(scope="module")
def space():
    return TruncatedFock(2, 6)


def test_left_unweighted_columns(space):
    l1 = left_creation(space, 1)
    col = l1.column(EMPTY)
    assert col[space.index_of(parse_word("1"))] == 1.0
    assert np.count_nonzero(col) == 1
    # top-level columns vanish under the compression
    top_word = next(space.basis.level_words(space.depth))
    assert np.count_nonzero(l1.column(top_word)) == 0


def test_left_weighted_entry(space, periodic_example):
    t1 = weighted_left_shift(space, periodic_example, 1)
    dense = t1.to_dense()
    row = space.index_of(parse_word("11"))
    col = space.index_of(parse_word("1"))
    assert dense[row, col] == pytest.approx(2.0)  # lambda_{1,1} = c


def test_right_weighted_from_unweighted_is_creation(space, unweighted):
    s1 = weighted_right_shift(space, CommutantMu(unweighted), 1)
    r1 = right_creation(space, 1)
    assert abs((s1 - r1).mat).max() == 0.0
    w = parse_word("21")
    assert s1.column(w)[space.index_of(parse_word("211"))] == 1.0


def test_right_weighted_refuses_diverging(space, run_weights_diverging):
    with pytest.raises(ValueError):
        weighted_right_shift(space, CommutantMu(run_weights_diverging), 1)


def test_adjoint_involution(space, periodic_example):
    t1 = weighted_left_shift(space, periodic_example, 1)
    assert abs((t1.adjoint().adjoint() - t1).mat).max() == 0.0
    ident = GradedOperator.identity(space)
    assert abs((ident.adjoint() - ident).mat).max() == 0.0
    # adjoint lowers: T_1* xi_{1w} = lambda_{1,w} xi_w and kills the vacuum
    w = parse_word("21")
    image = t1.adjoint().column(prepend(1, w))
    assert image[space.index_of(w)] == pytest.approx(periodic_example.lambda_of(1, w))
    assert np.count_nonzero(t1.adjoint().column(EMPTY)) == 0


def test_band_structure(space, periodic_example):
    t1 = weighted_left_shift(space, periodic_example, 1)
    assert t1.bands == frozenset({-1})
    assert t1.adjoint().bands == frozenset({1})
    assert GradedOperator.identity(space).bands == frozenset({0})


def test_columns_orthogonal(space, periodic_example):
    # T_i* T_i is diagonal with entries lambda_{i,w}^2, zero at the top level
    for i in (1, 2):
        t_i = weighted_left_shift(space, periodic_example, i)
        gram = (t_i.adjoint() @ t_i).to_dense()
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) == 0.0
        for k in range(space.depth):
            for w in space.basis.level_words(k):
                idx = space.index_of(w)
                assert gram[idx, idx] == pytest.approx(periodic_example.lambda_of(i, w) ** 2)
        top = space.level_slice(space.depth)
        assert np.max(np.abs(np.diag(gram)[top])) == 0.0


def test_range_sum_diagonal(space, periodic_example):
    total = np.zeros((space.dimension, space.dimension), dtype=complex)
    for i in (1, 2):
        t_i = weighted_left_shift(space, periodic_example, i).to_dense()
        total += t_i @ t_i.conj().T
    off = total - np.diag(np.diag(total))
    assert np.max(np.abs(off)) == 0.0
    assert total[0, 0] == 0.0
    for i in (1, 2):
        for w in space.basis.level_words(2):
            idx = space.index_of(prepend(i, w))
            assert total[idx, idx] == pytest.approx(periodic_example.lambda_of(i, w) ** 2)


def test_commutation_defect_zero(space, periodic_example, unweighted):
    assert commutation_defect(space, unweighted).max_defect == 0.0
    assert commutation_defect(space, periodic_example).max_defect <= 1e-12


def test_commutation_defect_perturbed(space, periodic_example):
    table = mu_table(periodic_example, space.depth - 1)
    target = parse_word("1")
    table[(1, target)] *= 1.01
    perturbed = TableMu(2, space.depth - 1, table)
    report = commutation_defect(space, periodic_example, perturbed)
    assert report.max_defect >= 1e-3
    # the defect shows up where the perturbed weight acts: at its base word or
    # at the column whose image word reaches it
    assert report.witness[2] in (target, EMPTY)


def test_norm_check_families(space, unweighted, scaled23):
    for report in norm_check(space, unweighted):
        assert report.operator_norm == pytest.approx(1.0, abs=1e-8)
    for report in norm_check(space, scaled23):
        assert report.operator_norm == pytest.approx(scaled23.scales[report.letter - 1], abs=1e-8)
        assert report.weight_sup == scaled23.scales[report.letter - 1]
    runs = TwoLetterRunWeights(0.81, 0.9)
    reports = norm_check(space, runs)
    assert reports[0].weight_sup == pytest.approx(1 / 0.81)
    assert reports[0].operator_norm == pytest.approx(1 / 0.81, abs=1e-8)
    assert reports[1].operator_norm == pytest.approx(0.9, abs=1e-8)


def test_spectral_norm_zero_operator(space):
    assert spectral_norm(GradedOperator.zero(space)) == 0.0


def test_spectral_norm_fails_loudly(space, periodic_example):
    op = weighted_left_shift(space, periodic_example, 1)
    with pytest.raises(ArithmeticError, match="max_iter=1"):
        spectral_norm(op, max_iter=1)
    assert spectral_norm(op) == pytest.approx(2.0, abs=1e-8)


def test_spectral_norm_near_the_float_range(space):
    # X*X has norm 1e600: the iteration runs on X / 2^996 and scales back
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = norm_check(space, ScaledWeights(2, (1e300, 1.0)))
    assert abs(reports[0].operator_norm - 1e300) <= 1e-12 * 1e300
    assert reports[1].operator_norm == pytest.approx(1.0, abs=1e-8)


def test_vacuum_kernel(space, unweighted, periodic_example):
    assert vacuum_kernel_check(space, unweighted).joint_kernel_dim == 1
    assert vacuum_kernel_check(space, periodic_example).joint_kernel_dim == 1
    report = vacuum_kernel_check(space, unweighted)
    assert report.projection_defect == 0.0
    assert vacuum_kernel_check(space, periodic_example).projection_defect is None


def _dense_vacuum_oracle(space, ws):
    """The dense rank and projection identity that vacuum_kernel_check replaced."""
    stacked = np.vstack([weighted_left_shift(space, ws, i).adjoint().to_dense() for i in range(1, space.n + 1)])
    kernel_dim = space.dimension - int(np.linalg.matrix_rank(stacked))
    diff = np.eye(space.dimension, dtype=complex)
    diff[0, 0] -= 1.0
    for i in range(1, space.n + 1):
        l_i = left_creation(space, i).to_dense()
        diff -= l_i @ l_i.conj().T
    keep = space.levels() <= space.depth - 1
    return kernel_dim, float(np.max(np.abs(diff[np.ix_(keep, keep)])))


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED, ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED])
def test_vacuum_kernel_matches_dense_oracle(label, ws, depth):
    space = TruncatedFock(ws.n, min(depth, ORACLE_DEPTH[ws.n]))
    kernel_dim, projection_defect = _dense_vacuum_oracle(space, ws)
    assert vacuum_kernel_check(space, ws).joint_kernel_dim == kernel_dim
    assert (kernel_dim > 1) == (label in {s[0] for s in ILL_CONDITIONED})
    assert vacuum_kernel_check(space, ConstantWeights(ws.n, 1.0)).projection_defect == projection_defect == 0.0


def test_partial_permutation_guard(space):
    # an explicit zero is no entry; the cutoff sigma_max * max(rows, cols) * eps is matrix_rank's
    tiny = 3.5 * np.finfo(float).eps
    for shape in ((4, 3), (3, 4)):
        mat = sp.csr_array(([1.0, 0.0, tiny], ([0, 0, 2], [1, 0, 2])), shape=shape)
        assert partial_permutation_rank(mat) == np.linalg.matrix_rank(mat.toarray()) == 1
        assert partial_permutation_rank(mat * 1e100) == 1
    # L_1 + L_2 maps xi_w to xi_{1w} + xi_{2w}: two entries in a column, and in a row of its adjoint
    both = left_creation(space, 1) + left_creation(space, 2)
    dim = space.dimension
    for mat in (both.mat, both.adjoint().mat):
        with pytest.raises(ValueError, match=f"{dim}x{dim} matrix is not a partial permutation"):
            partial_permutation_rank(mat)


def test_grading_moves_levels(space, periodic_example):
    t1 = weighted_left_shift(space, periodic_example, 1)
    s2 = weighted_right_shift(space, CommutantMu(periodic_example), 2)
    levels = space.levels()
    for op in (t1, s2):
        coo = op.mat.tocoo()
        assert np.all(levels[coo.row] == levels[coo.col] + 1)


def test_max_column_norm_witness_and_nan():
    mask = np.array([True, True, True, False])
    values = np.array([[0.0, 3.0, 0.0, 9.0], [0.0, 4.0, 5.0, 0.0]])
    assert max_column_norm(sp.csr_array(values), mask) == (5.0, 1)  # the first column attaining it
    assert max_column_norm(sp.csr_array((2, 4)), mask) == (0.0, None)
    values[0, 2] = np.nan
    value, idx = max_column_norm(sp.csr_array(values), mask)
    assert np.isnan(value) and idx == 2
    values[0, 2] = 0.0
    values[1, 3] = np.nan  # outside the mask
    assert max_column_norm(sp.csr_array(values), mask) == (5.0, 1)
