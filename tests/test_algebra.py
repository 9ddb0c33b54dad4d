import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockshift import (
    ConstantWeights,
    FourierElement,
    GradedOperator,
    TableMu,
    TruncatedFock,
    apply_fourier,
    cesaro_sum,
    commutant_extract,
    fourier_power_coeffs,
    injectivity_pairing,
    lambda_from_mu,
    left_creation,
    left_weight,
    operator_from_fourier,
    parse_word,
    phi_band,
    pk_polynomial,
    spectral_radius_lower,
    word_operator,
)
from fockshift import algebra
from fockshift.algebra import cesaro_defect, commutant_round_trip
from fockshift.fock import max_column_norm, right_shift_maps
from fockshift.words import EMPTY, BasisEnumeration

from conftest import ILL_CONDITIONED, SYSTEMS, table_mu


@pytest.fixture(scope="module")
def space():
    return TruncatedFock(2, 8)


def random_element(ws, seed, max_len=3):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for w in BasisEnumeration(2, max_len).words():
        coeffs[w] = complex(rng.standard_normal(), rng.standard_normal())
    return FourierElement.build(coeffs, ws)


def test_apply_fourier_identity(periodic_example):
    ident = FourierElement.build({EMPTY: 1.0}, periodic_example)
    v = parse_word("21")
    assert apply_fourier(ident, v, 8) == {v: 1.0}


def test_apply_fourier_word_operator(periodic_example):
    # the element with a_u = W(e,u) is T_u, whose action is xi_v -> W(v,u) xi_{uv}
    u = parse_word("12")
    element = FourierElement.build({u: left_weight(periodic_example, EMPTY, u)}, periodic_example)
    for v in BasisEnumeration(2, 4).words():
        image = apply_fourier(element, v, 8)
        assert set(image) == {u * v}
        assert image[u * v] == pytest.approx(left_weight(periodic_example, v, u))


def test_apply_fourier_against_dense_oracle(space):
    unweighted = ConstantWeights(2, 1.0)
    rng = np.random.default_rng(42)
    words = [EMPTY, parse_word("1"), parse_word("22"), parse_word("121")]
    coeffs = {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words}
    element = FourierElement.build(coeffs, unweighted)
    # dense oracle: sum a_w L_w acting on the basis vector
    dense = np.zeros((space.dimension, space.dimension), dtype=complex)
    for w, a_w in coeffs.items():
        dense += a_w * word_operator(space, unweighted, w).to_dense()
    v = parse_word("21")
    expected = dense @ space.basis_vector(v)
    produced = space.vector_from_coeffs(apply_fourier(element, v, space.depth))
    assert np.linalg.norm(expected - produced) <= 1e-13


def test_apply_fourier_depth_guard(periodic_example):
    element = FourierElement.build({parse_word("111"): 1.0}, periodic_example)
    with pytest.raises(ValueError):
        apply_fourier(element, parse_word("2" * 6), 8)


def test_phi_band(space, periodic_example):
    l1 = left_creation(space, 1)
    assert abs((phi_band(l1, -1) - l1).mat).max() == 0.0
    assert phi_band(l1, 0).mat.nnz == 0
    ident = GradedOperator.identity(space)
    assert abs((phi_band(ident, 0) - ident).mat).max() == 0.0
    # band decomposition is complete
    x = operator_from_fourier(random_element(periodic_example, 3), space)
    total = GradedOperator.zero(space)
    for j in range(-space.depth, space.depth + 1):
        total = total + phi_band(x, j)
    assert abs((total - x).mat).max() == 0.0


def test_cesaro_sum_single_bands(space):
    l1 = left_creation(space, 1)
    assert abs((cesaro_sum(l1, 2) - 0.5 * l1).mat).max() == 0.0
    ident = GradedOperator.identity(space)
    for k in (1, 3, 9):
        assert abs((cesaro_sum(ident, k) - ident).mat).max() == 0.0


def test_cesaro_residual_decreasing(space, periodic_example):
    x = operator_from_fourier(random_element(periodic_example, 5), space)
    vec = space.basis_vector(parse_word("12"))
    residuals = [
        float(np.linalg.norm((cesaro_sum(x, k) - x).apply(vec))) for k in (2, 4, 8, 16)
    ]
    assert all(a >= b - 1e-15 for a, b in zip(residuals, residuals[1:]))


def test_pk_polynomial_basics(space, periodic_example):
    ident = FourierElement.build({EMPTY: 1.0}, periodic_example)
    assert abs((pk_polynomial(ident, 5, space) - GradedOperator.identity(space)).mat).max() == 0.0
    t1_coeff = periodic_example.lambda_of(1, EMPTY)
    element = FourierElement.build({parse_word("1"): t1_coeff}, periodic_example)
    from fockshift import weighted_left_shift

    t1 = weighted_left_shift(space, periodic_example, 1)
    assert abs((pk_polynomial(element, 2, space) - 0.5 * t1).mat).max() <= 1e-15


def test_fejer_identity(space, periodic_example):
    element = random_element(periodic_example, 9)
    x = operator_from_fourier(element, space)
    for k in (2, 4, 8):
        smoothed = cesaro_sum(x, k)
        col = smoothed.column(EMPTY)
        base = x.column(EMPTY)
        for w, a_w in element.coeffs.items():
            idx = space.index_of(w)
            factor = 1.0 - len(w) / k if len(w) < k else 0.0
            assert col[idx] == pytest.approx(factor * base[idx])


def test_cesaro_equals_pk_on_columns(space, periodic_example):
    element = random_element(periodic_example, 7)
    x = operator_from_fourier(element, space)
    for k in (2, 4, 8):
        smoothed = cesaro_sum(x, k)
        polynomial = pk_polynomial(element, k, space)
        for level in range(space.depth - k + 1):
            for v in space.level_words(level):
                defect = np.linalg.norm(smoothed.column(v) - polynomial.column(v))
                assert defect <= 1e-12


def test_commutant_extract_round_trip(space, periodic_example):
    element = random_element(periodic_example, 11)
    x = operator_from_fourier(element, space)
    result = commutant_extract(x, periodic_example)
    assert result.residual <= 1e-12
    for w, a_w in element.coeffs.items():
        assert result.element.coeffs[w] == pytest.approx(a_w, abs=1e-13)


def test_commutant_extract_identity(space, periodic_example):
    result = commutant_extract(GradedOperator.identity(space), periodic_example)
    assert result.element.coeffs == {EMPTY: 1.0}
    assert result.residual == 0.0


def test_commutant_extract_rejects_noncommutant(space):
    unweighted = ConstantWeights(2, 1.0)
    x = left_creation(space, 1).adjoint()
    with pytest.raises(ValueError, match="does not commute"):
        commutant_extract(x, unweighted)


def test_injectivity_pairing_trivial(periodic_example, unweighted):
    ident = FourierElement.build({EMPTY: 1.0}, unweighted)
    check = injectivity_pairing(ident, {EMPTY: 1.0}, EMPTY, EMPTY)
    assert check.expansion_value == 1.0
    assert check.closed_form == 1.0
    a = FourierElement.build({parse_word("1"): 1.0}, unweighted)
    check = injectivity_pairing(a, {parse_word("2"): 1.0}, parse_word("1"), parse_word("2"))
    assert check.expansion_value == pytest.approx(1.0)
    assert check.closed_form == pytest.approx(1.0)


def test_injectivity_pairing_random(periodic_example):
    rng = np.random.default_rng(17)
    words = list(BasisEnumeration(2, 3).words())
    for trial in range(10):
        support = sorted(
            {words[rng.integers(1, len(words))] for _ in range(3)} | {parse_word("1")}
        )
        coeffs = {w: complex(rng.standard_normal(), rng.standard_normal()) for w in support}
        element = FourierElement.build(coeffs, periodic_example)
        xi_support = sorted({words[rng.integers(1, len(words))] for _ in range(2)} | {parse_word("2")})
        xi = {w: complex(rng.standard_normal(), rng.standard_normal()) for w in xi_support}
        v1 = element.min_support_word()
        v2 = min(xi)
        check = injectivity_pairing(element, xi, v1, v2)
        assert check.expansion_value == pytest.approx(check.closed_form, rel=1e-12)
        assert abs(check.closed_form) > 0.0


def test_injectivity_pairing_minimality_enforced(unweighted):
    a = FourierElement.build({EMPTY: 1.0, parse_word("1"): 1.0}, unweighted)
    with pytest.raises(ValueError):
        injectivity_pairing(a, {EMPTY: 1.0}, parse_word("1"), EMPTY)


def test_spectral_radius_unweighted_shift(space, unweighted):
    element = FourierElement.build({parse_word("1"): 1.0}, unweighted)
    bounds = spectral_radius_lower(element, parse_word("1"), 6, 8)
    assert bounds.bounds == pytest.approx([1.0] * 6)
    scaled = FourierElement.build({parse_word("1"): 0.3}, unweighted)
    bounds = spectral_radius_lower(scaled, parse_word("1"), 6, 8)
    assert bounds.bounds == pytest.approx([0.3] * 6)


def test_spectral_radius_matches_dense_power(space):
    # weights generated from prescribed right weights that are free below the
    # cutoff and 1 beyond it
    rng = np.random.default_rng(23)
    entries = {(i, EMPTY): 1.0 for i in (1, 2)}
    for w in BasisEnumeration(2, 1).words():
        for i in (1, 2):
            entries.setdefault((i, w), float(rng.uniform(0.5, 2.0)))
    mu = TableMu(2, 1, entries)
    ws = lambda_from_mu(mu, space.depth)
    words = [parse_word("1"), parse_word("21"), parse_word("112")]
    coeffs = {w: complex(rng.standard_normal(), rng.standard_normal()) for w in words}
    element = FourierElement.build(coeffs, ws, mu)
    v = element.min_support_word()
    bounds = spectral_radius_lower(element, v, 4, space.depth)
    dense = operator_from_fourier(element, space).to_dense()
    state = space.basis_vector(EMPTY)
    for k, power_value, closed in zip(bounds.ks, bounds.power_values, bounds.closed_forms):
        state = dense @ state
        oracle = state[space.index_of(v**k)]
        assert power_value == pytest.approx(oracle, abs=1e-10)
        assert closed == pytest.approx(oracle, abs=1e-10)


def test_power_components_not_below_k_times_min_length(periodic_example):
    element = FourierElement.build(
        {parse_word("12"): 0.5 + 1j, parse_word("21"): -0.25, parse_word("112"): 2.0},
        periodic_example,
    )
    for k in (1, 2, 3):
        coeffs = fourier_power_coeffs(element, k, 8)
        assert all(len(w) >= 2 * k for w in coeffs)
        assert coeffs  # the leading component survives truncation


def test_spectral_radius_depth_guard(periodic_example):
    element = FourierElement.build({parse_word("12"): 1.0}, periodic_example)
    with pytest.raises(ValueError):
        spectral_radius_lower(element, parse_word("12"), 5, 8)


# The grid readings of the commutant round trip and of the Cesaro defect against the operator path they replaced
# in the command line: sparse products on the shifts' column maps, scipy differences and column norms.
GRID_SYSTEMS = SYSTEMS + ILL_CONDITIONED + [("constant-1e300", ConstantWeights(2, 1e300), 6)]
PARTS = st.floats(min_value=-1e308, max_value=1e308) | st.sampled_from([0.0, 1.0, -0.5, 1e300, 1e-320])


def _same(a, b) -> bool:
    """Equal floats, NaN matching NaN, in (norm, column) pairs or alone."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))


def _sparse_commutation_defects(x: GradedOperator, mu) -> list:
    shifts, space = right_shift_maps(x.space, mu), x.space
    return [max_column_norm((shifts.before(i, x) - shifts.after(i, x)).mat, space.levels() <= space.depth - 2)
            for i in range(1, space.n + 1)]


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return exc


def _same_extraction(got, oracle) -> bool:
    if isinstance(oracle, ValueError):
        return isinstance(got, ValueError) and str(got) == str(oracle)
    parts = [np.array(list(r.element.coeffs.values()), dtype=complex).view(float) for r in (got, oracle)]
    return (list(got.element.coeffs) == list(oracle.element.coeffs) and np.array_equal(*parts, equal_nan=True)
            and _same(got.residual, oracle.residual) and got.columns_checked == oracle.columns_checked)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_grid_readings_equal_the_operator_path(data):
    label, ws, top = data.draw(st.sampled_from(GRID_SYSTEMS), label="system")
    depth = data.draw(st.integers(min_value=1, max_value=top), label="depth")
    space, n = TruncatedFock(ws.n, depth), ws.n
    words = list(BasisEnumeration(n, min(depth, 3)).words())
    support = data.draw(st.lists(st.sampled_from(words), max_size=8, unique=True), label="support")
    coeffs = {w: complex(data.draw(PARTS), data.draw(PARTS)) for w in support}
    # the weights' own commutant mu, or another table, whose commutators do not vanish
    mu = data.draw(st.sampled_from([ws.kept_commutant_mu(), table_mu(n, 70 + n)]), label="mu")
    a = FourierElement.build(coeffs, ws, mu)
    bound = data.draw(st.sampled_from([None, 0, max(depth - 2, 0), depth - 1, depth]), label="bound")
    k = data.draw(st.integers(min_value=1, max_value=depth + 1), label="k")
    with np.errstate(over="ignore", invalid="ignore"):  # squares past the float range are inf on both paths
        x = operator_from_fourier(a, space, bound=bound)
        grid = algebra._word_grid(space, ws, a.vector(depth), True, bound)
        assert _same(tuple(algebra._commutation_defects(space, grid, mu)), tuple(_sparse_commutation_defects(x, mu)))
        assert _same_extraction(_outcome(lambda: commutant_round_trip(a, space, bound=bound)),
                                _outcome(lambda: commutant_extract(x, ws, mu)))
        columns = True if bound is None else space.levels() <= bound
        oracle = max_column_norm((cesaro_sum(x, k) - pk_polynomial(a, k, space, bound=bound)).mat, columns)
        assert _same(cesaro_defect(a, k, space, bound=bound), oracle)


def test_round_trip_refuses_a_commutation_defect_as_the_operator_path_does():
    # X is built from the weights' lambda; the shifts of another mu do not commute with it
    ws = ConstantWeights(2, 1.5)
    a = FourierElement.build({EMPTY: 1.0, parse_word("1"): 0.5 - 0.25j, parse_word("21"): 2.0}, ws, table_mu(2, 72))
    space = TruncatedFock(2, 6)
    with pytest.raises(ValueError) as oracle:
        commutant_extract(operator_from_fourier(a, space, bound=5), ws, a.mu)
    with pytest.raises(ValueError) as got:
        commutant_round_trip(a, space, bound=5)
    assert str(got.value) == str(oracle.value)
    assert str(got.value).startswith("operator does not commute with right shift 1: defect ")


def test_cesaro_defect_refuses_order_0_as_cesaro_sum_does():
    a = FourierElement.build({EMPTY: 1.0}, ConstantWeights(2, 1.0))
    with pytest.raises(ValueError, match="^Cesaro order must be at least 1$"):
        cesaro_defect(a, 0, TruncatedFock(2, 3))
