import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from fockshift import (
    CommutantMu,
    ConstantWeights,
    FourierElement,
    GradedOperator,
    ScaledWeights,
    TabulatedWeights,
    TruncatedFock,
    TwoLetterRunWeights,
    cesaro_sum,
    commutant_extract,
    commutation_defect,
    expansion_operator,
    left_creation,
    norm_check,
    operator_from_fourier,
    parse_word,
    pk_polynomial,
    resolvent_check,
    right_creation,
    vacuum_kernel_check,
    weighted_left_shift,
    weighted_right_shift,
)
from fockshift import fock
from fockshift.fock import certify_injective, left_shift_maps, max_column_norm, right_shift_maps
from fockshift.weights import TableMu, mu_table
from fockshift.words import EMPTY, prepend

from conftest import ILL_CONDITIONED, ORACLE_DEPTH, SYSTEMS, table_mu

HUGE = ScaledWeights(2, (1e300, 1.0))


# ---------------------------------------------------------------------------
# sparse oracles: the products, power iteration and rank the checks replaced
# ---------------------------------------------------------------------------


def _sparse_commutation(space, ws, mu=None):
    """(max_defect, witness) of T_i S_j - S_j T_i formed as sparse products."""
    mu = CommutantMu(ws) if mu is None else mu
    col_mask = space.levels() <= space.depth - 2
    letters = range(1, space.n + 1)
    lefts = [weighted_left_shift(space, ws, i) for i in letters]
    rights = [weighted_right_shift(space, mu, j) for j in letters]
    defects = [
        (*max_column_norm((t_i @ s_j - s_j @ t_i).mat, col_mask), i, j)
        for i, t_i in enumerate(lefts, start=1)
        for j, s_j in enumerate(rights, start=1)
    ]
    worst, idx, i, j = defects[int(np.argmax([d[0] for d in defects]))]
    return worst, (None if idx is None else (i, j, space.word_at(idx)))


def _scale_exponent(mat) -> int:
    """The e >= 0 of the largest power of two 2^e at or below the largest |entry|."""
    return max(0, math.frexp(float(np.abs(mat.data).max(initial=0.0)))[1] - 1)


def spectral_norm(op, tol=1e-10, max_iter=10_000):
    """Operator norm by power iteration on X*X / 4^e, 2^e from ``_scale_exponent``;
    ArithmeticError when it has not converged within ``max_iter`` steps."""
    dim = op.space.dimension
    vec = np.ones(dim, dtype=complex) / math.sqrt(dim)
    exponent = _scale_exponent(op.mat)
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


def partial_permutation_rank(mat) -> int:
    """The rank of a sparse matrix with at most one entry per row and column:
    its count of nonzero entries (ValueError for any other pattern)."""
    mat = sp.csr_array(mat, copy=True)
    mat.eliminate_zeros()
    rows, cols = mat.shape
    if np.diff(mat.indptr).max(initial=0) > 1 or np.bincount(mat.indices, minlength=cols).max(initial=0) > 1:
        raise ValueError(f"the {rows}x{cols} matrix is not a partial permutation with scaled entries")
    return mat.nnz


def _sparse_vacuum_rank(space, ws):
    return partial_permutation_rank(sp.vstack([weighted_left_shift(space, ws, i).adjoint().mat
                                               for i in range(1, space.n + 1)]))


def _same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@pytest.fixture(scope="module")
def space():
    return TruncatedFock(2, 6)


def test_left_unweighted_columns(space):
    l1 = left_creation(space, 1)
    col = l1.column(EMPTY)
    assert col[space.index_of(parse_word("1"))] == 1.0
    assert np.count_nonzero(col) == 1
    # top-level columns vanish under the compression
    top_word = next(space.level_words(space.depth))
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


def test_identity_and_zero_equal_scipys(space):
    import scipy.sparse as sp
    identity, zero = GradedOperator.identity(space).mat, GradedOperator.zero(space).mat
    assert identity.has_canonical_format and zero.has_canonical_format
    assert (identity != sp.eye_array(space.dimension, dtype=complex, format="csr")).nnz == 0
    assert zero.nnz == 0 and zero.shape == identity.shape == (space.dimension,) * 2


def test_columns_orthogonal(space, periodic_example):
    # T_i* T_i is diagonal with entries lambda_{i,w}^2, zero at the top level
    for i in (1, 2):
        t_i = weighted_left_shift(space, periodic_example, i)
        gram = (t_i.adjoint() @ t_i).to_dense()
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) == 0.0
        for k in range(space.depth):
            for w in space.level_words(k):
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
        for w in space.level_words(2):
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


ORACLE_SYSTEMS = SYSTEMS + ILL_CONDITIONED + [("scaled-1e300", HUGE, 6)]


@pytest.mark.parametrize("label, ws, depth", ORACLE_SYSTEMS, ids=[s[0] for s in ORACLE_SYSTEMS])
def test_commutation_matches_sparse_oracle(label, ws, depth):
    space = TruncatedFock(ws.n, depth)
    for mu in (None, table_mu(ws.n, 75)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the 1e300 products overflow
            worst, witness = _sparse_commutation(space, ws, mu)
        report = commutation_defect(space, ws, mu)
        assert report.level_cap == depth - 2
        if worst == math.inf:
            # the oracle squares a defect near 1e300; the map takes |a - b|, which
            # the oracle finds on the left weights divided by 2^996
            assert label == "scaled-1e300" and mu is not None
            scaled = ScaledWeights(2, tuple(math.ldexp(s, -996) for s in ws.scales))
            worst, witness = _sparse_commutation(space, scaled, mu)
            worst = math.ldexp(worst, 996)
        assert _same(report.max_defect, worst) and report.witness == witness
    assert worst > 0.0 and witness is not None  # the table breaks commutation


def test_commutation_matches_oracle_on_a_perturbed_table(periodic_example):
    # the demo's case: one right weight off by 1%
    space = TruncatedFock(2, 8)
    table = mu_table(periodic_example, 7)
    table[(1, parse_word("1"))] *= 1.01
    perturbed = TableMu(2, 7, table)
    report = commutation_defect(space, periodic_example, perturbed)
    assert (report.max_defect, report.witness) == _sparse_commutation(space, periodic_example, perturbed)
    assert report.max_defect > 1e-3
    # mu = 1e10 beyond the vacuum: |1e300 - inf| at the vacuum column, then inf - inf
    overflowing = TableMu(2, 0, {(1, EMPTY): 1.0, (2, EMPTY): 1.0}, fill=1e10)
    report = commutation_defect(space, HUGE, overflowing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        worst, witness = _sparse_commutation(space, HUGE, overflowing)
    assert math.isnan(report.max_defect) and math.isnan(worst)
    assert report.witness == witness == (1, 1, parse_word("1"))  # a NaN counts as the largest
    for depth in (1, 2):
        shallow = TruncatedFock(2, depth)
        assert (commutation_defect(shallow, periodic_example).max_defect, None) == _sparse_commutation(
            shallow, periodic_example
        )


def test_commutator_columns_on_rows_apart(space, periodic_example):
    # T_1 T_2 and T_2 T_1 send xi_w to xi_{12w} and xi_{21w}: two entries per column
    lefts = left_shift_maps(space, periodic_example)
    maps = [(lefts, 1), (lefts, 2), (right_shift_maps(space, table_mu(2, 75)), 1)]
    cols = space.level_offsets[space.depth - 1]
    for t, i in maps:
        for s, j in maps:
            t_op, s_op = t.operator(i), s.operator(j)
            product = (t_op @ s_op - s_op @ t_op).mat
            oracle = fock.column_norms(product.indices, product.data, product.shape[1])[:cols]
            assert np.array_equal(fock._commutator_columns(t, i, s, j, cols), oracle)
    assert np.all(fock._commutator_columns(lefts, 1, lefts, 2, cols) > 0.0)


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED, ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED])
def test_norm_check_matches_power_iteration(label, ws, depth):
    space = TruncatedFock(ws.n, depth)
    levels = ws.lambda_levels(depth - 1)
    for report in norm_check(space, ws):
        assert report.weight_sup == max(float(level[report.letter - 1].max()) for level in levels)
        assert report.operator_norm == report.weight_sup and report.gap == 0.0
        oracle = spectral_norm(weighted_left_shift(space, ws, report.letter))
        assert report.operator_norm == pytest.approx(oracle, abs=1e-8)


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


@pytest.mark.parametrize("label, ws, depth", ORACLE_SYSTEMS, ids=[s[0] for s in ORACLE_SYSTEMS])
def test_vacuum_rank_matches_sparse_oracle(label, ws, depth):
    space = TruncatedFock(ws.n, depth)
    assert vacuum_kernel_check(space, ws).joint_kernel_dim == space.dimension - _sparse_vacuum_rank(space, ws)


def test_maps_that_are_not_injective_are_refused(monkeypatch, space):
    # every column sent to the vacuum row: no norm or rank is read off such a map
    dim, cols = space.dimension, space.level_offsets[space.depth]

    def broken(space, levels, left):
        return fock.ShiftMap(space, np.zeros((space.n, cols), dtype=np.int64), np.ones((space.n, cols)))

    monkeypatch.setattr(fock, "_level_shifts", broken)
    with pytest.raises(ValueError, match=f"the {dim}x{dim} matrix is not a partial permutation"):
        norm_check(space, ConstantWeights(2, 1.0))
    with pytest.raises(ValueError, match=f"the {2 * dim}x{dim} matrix is not a partial permutation"):
        vacuum_kernel_check(space, ConstantWeights(2, 1.0))


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_shift_map_values_are_the_levels_cast_to_float64(dtype):
    # a table of integers or of float32 thirds: the values are its levels side by side, as float64
    levels = [(np.arange(3, 2 * 2**k + 3).reshape(2, 2**k) / 3).astype(dtype) for k in range(4)]
    values = left_shift_maps(TruncatedFock(2, 4), TabulatedWeights(2, 3, levels)).values
    assert values.dtype == np.float64
    assert np.array_equal(values, np.concatenate([level.astype(np.float64) for level in levels], axis=1))


def test_the_space_keeps_one_read_only_row_array_per_direction(periodic_example):
    # the rows belong to the space and the values to the weight system: maps of two systems share the rows
    space = TruncatedFock(2, 5)
    lefts = left_shift_maps(space, periodic_example)
    assert lefts.rows is left_shift_maps(space, ConstantWeights(2, 1.0)).rows is space.shift_rows(True)
    rights = right_shift_maps(space, table_mu(2, 75))
    assert rights.rows is right_shift_maps(space, periodic_example.kept_commutant_mu()).rows is space.shift_rows(False)
    for rows in (lefts.rows, rights.rows):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0
    assert np.array_equal(lefts.values, np.concatenate(periodic_example.kept_lambda_levels(4), axis=1))
    empty = left_shift_maps(TruncatedFock(2, 0), periodic_example)  # no column below the top level
    assert empty.rows.shape == empty.values.shape == (2, 0)


def test_checks_build_no_sparse_matrix(monkeypatch, space, periodic_example):
    def refuse(*args, **kwargs):
        raise AssertionError("a sparse matrix was built")

    for name in ("coo_array", "csr_array"):
        monkeypatch.setattr(sp, name, refuse)
    assert commutation_defect(space, periodic_example).max_defect == 0.0
    assert [r.gap for r in norm_check(space, periodic_example)] == [0.0, 0.0]
    assert vacuum_kernel_check(space, ConstantWeights(2, 1.0)) == fock.VacuumReport(1, 0.0)


def test_operator_forms_build_no_coo_matrix(monkeypatch, space, periodic_example):
    # the Fourier operators, shifts and Cesaro bands are written as compressed arrays directly
    def refuse(*args, **kwargs):
        raise AssertionError("a COO matrix was built")

    monkeypatch.setattr(sp, "coo_array", refuse)
    a = FourierElement.build({EMPTY: 1.0, parse_word("2"): 0.5j, parse_word("121"): -0.25}, periodic_example)
    x = operator_from_fourier(a, space)
    assert expansion_operator(a, space).mat.nnz == x.mat.nnz
    assert commutant_extract(x, periodic_example).element.coeffs == a.coeffs
    assert cesaro_sum(x, 2).mat.nnz == x.mat.nnz
    assert resolvent_check((0.3, 0.4j), space.depth).low_level_defect <= 1e-12


def test_operator_forms_are_written_in_row_order(monkeypatch, space, periodic_example):
    # one assembly writes each operator straight into CSR: no CSC matrix, and no conversion to CSR
    # (a CSR's own tocsr, which scipy calls in toarray, returns the matrix itself)
    def refuse(*args, **kwargs):
        raise AssertionError("a CSC matrix was built, or a matrix converted to CSR")

    for cls in (sp.csc_array, sp.coo_array):
        monkeypatch.setattr(cls, "tocsr", refuse)
    monkeypatch.setattr(sp, "csc_array", refuse)
    a = FourierElement.build({EMPTY: 1.0, parse_word("2"): 0.5j, parse_word("121"): -0.25}, periodic_example)
    x = operator_from_fourier(a, space)
    assert expansion_operator(a, space, bound=space.depth - 3).mat.nnz < expansion_operator(a, space).mat.nnz
    assert commutant_extract(x, periodic_example).element.coeffs == a.coeffs
    assert pk_polynomial(a, 2, space).mat.nnz < x.mat.nnz
    assert resolvent_check((0.3, 0.4j), space.depth).low_level_defect <= 1e-12


def test_vacuum_kernel_near_the_float_range(space):
    # every weight is an entry of the partial permutation, however large or small
    assert vacuum_kernel_check(space, ScaledWeights(2, (1e300, 1.0))).joint_kernel_dim == 1
    # the 1e-14 weights lie below matrix_rank's cutoff relative to the 1e300 ones, yet each is an entry
    assert vacuum_kernel_check(space, ScaledWeights(2, (1e300, 1e-14))).joint_kernel_dim == 1


def _dense_vacuum_oracle(space):
    """The dense rank and projection identity that vacuum_kernel_check replaced, on the unit
    weights: dividing each row of [T_1*; ...; T_n*] by its one weight maps it onto [L_1*; ...; L_n*],
    and that row scaling keeps the rank exactly."""
    stacked = np.vstack([left_creation(space, i).adjoint().to_dense() for i in range(1, space.n + 1)])
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
    kernel_dim, projection_defect = _dense_vacuum_oracle(space)
    assert vacuum_kernel_check(space, ws).joint_kernel_dim == kernel_dim == 1
    assert vacuum_kernel_check(space, ConstantWeights(ws.n, 1.0)).projection_defect == projection_defect == 0.0


def test_partial_permutation_guard(space):
    # an explicit zero is no entry; an entry below matrix_rank's cutoff sigma_max * max(rows, cols) * eps is one
    tiny = 3.5 * np.finfo(float).eps
    for shape in ((4, 3), (3, 4)):
        mat = sp.csr_array(([1.0, 0.0, tiny], ([0, 0, 2], [1, 0, 2])), shape=shape)
        assert np.linalg.matrix_rank(mat.toarray()) == 1
        assert partial_permutation_rank(mat) == partial_permutation_rank(mat * 1e100) == 2
    # L_1 + L_2 maps xi_w to xi_{1w} + xi_{2w}: two entries in a column, and in a row of its adjoint
    both = left_creation(space, 1) + left_creation(space, 2)
    dim = space.dimension
    for mat in (both.mat, both.adjoint().mat):
        with pytest.raises(ValueError, match=f"{dim}x{dim} matrix is not a partial permutation"):
            partial_permutation_rank(mat)
    # as a column map, (L_1 + L_2)* sends xi_{1w} and xi_{2w} both to xi_w: not injective
    shifts = left_shift_maps(space, ConstantWeights(2, 1.0))
    rows = np.concatenate([np.arange(shifts.rows[i - 1].size) for i in (1, 2)])
    with pytest.raises(ValueError, match=f"{dim}x{dim} matrix is not a partial permutation"):
        certify_injective(rows, (dim, dim))
    certify_injective(np.concatenate([shifts.rows[i - 1] for i in (1, 2)]), (dim, dim))


def test_shift_letters_outside_the_alphabet_are_refused(space, periodic_example):
    # letter 0 would otherwise read the last row of the all-letter map
    for i in (0, 3):
        for build in (
            lambda: weighted_left_shift(space, periodic_example, i),
            lambda: weighted_right_shift(space, CommutantMu(periodic_example), i),
            lambda: right_creation(space, i),
        ):
            with pytest.raises(ValueError, match=rf"^letter {i} outside \[1, 2\]$"):
                build()


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


class _Unread(ConstantWeights):
    def lambda_levels(self, depth):
        raise AssertionError("the depth guard must refuse before any weight is read")


def test_commutation_defect_refuses_depth_0():
    # depth 0 has no column below the top level; depth 1 has no column below depth - 1, and a defect of 0
    with pytest.raises(ValueError, match=r"^depth must be at least 1$"):
        commutation_defect(TruncatedFock(2, 0), _Unread(2))
    report = commutation_defect(TruncatedFock(2, 1), ConstantWeights(2, 1.0))
    assert (report.max_defect, report.witness, report.level_cap) == (0.0, None, -1)


def test_norm_check_refuses_depth_0():
    with pytest.raises(ValueError, match=r"^depth must be at least 1$"):
        norm_check(TruncatedFock(2, 0), _Unread(2))
    assert [(r.operator_norm, r.weight_sup) for r in norm_check(TruncatedFock(2, 1), ScaledWeights(2, (2.0, 0.5)))] \
        == [(2.0, 2.0), (0.5, 0.5)]


def test_vacuum_kernel_check_refuses_depth_0():
    with pytest.raises(ValueError, match=r"^depth must be at least 1$"):
        vacuum_kernel_check(TruncatedFock(2, 0), _Unread(2))
    report = vacuum_kernel_check(TruncatedFock(2, 1), ConstantWeights(2, 1.0))
    assert (report.joint_kernel_dim, report.projection_defect) == (1, 0.0)
