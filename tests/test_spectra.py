import math

import numpy as np
import pytest

from fockshift import (
    ConstantWeights,
    FourierElement,
    GradedOperator,
    TruncatedFock,
    eigen_residual,
    eigenvector_coeffs,
    left_creation,
    left_growth_certificate,
    operator_from_fourier,
    parse_word,
    resolvent_check,
    right_membership,
    zero_left_inverses,
)
from fockshift.spectra import (
    IN_SPECTRUM,
    INCONCLUSIVE,
    MODE_RIGHT,
    NOT_IN_SPECTRUM,
    ResolventReport,
    SpectrumReport,
    _split_defect,
)
from fockshift.words import EMPTY, BasisEnumeration, Word


def test_resolvent_origin():
    report = resolvent_check((0.0, 0.0), 6)
    assert report.low_level_defect == 0.0
    assert report.top_level_defect == 0.0


def test_resolvent_single_path_tail():
    report = resolvent_check((0.5, 0.0), 8)
    assert report.low_level_defect == 0.0
    assert report.top_level_defect == pytest.approx(0.5**8, rel=1e-12)


def test_resolvent_random_points():
    rng = np.random.default_rng(4)
    for _ in range(5):
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        point = tuple(0.7 * direction / np.linalg.norm(direction))
        report = resolvent_check(point, 8)
        assert report.low_level_defect <= 1e-12
        assert report.top_level_defect == pytest.approx(0.7**8, rel=1e-10)


def test_resolvent_tail_decays_geometrically():
    point = (0.4, 0.3)
    norm = math.hypot(*point)
    tops = [resolvent_check(point, depth).top_level_defect for depth in (6, 7, 8)]
    assert tops[1] / tops[0] == pytest.approx(norm, rel=1e-10)
    assert tops[2] / tops[1] == pytest.approx(norm, rel=1e-10)


def test_resolvent_requires_unit_ball():
    with pytest.raises(ValueError):
        resolvent_check((1.0, 0.2), 6)


def test_right_membership_origin():
    report = right_membership((0.0, 0.0), 6)
    assert report.verdict == IN_SPECTRUM
    assert report.defects["eigen_residual"] == 0.0


def test_right_membership_inside():
    report = right_membership((0.6, 0.3), 8)
    assert report.verdict == IN_SPECTRUM
    assert report.defects["eigen_residual"] <= 1e-12


def test_right_membership_outside():
    report = right_membership((2.0, 0.0), 8)
    assert report.verdict == NOT_IN_SPECTRUM
    assert report.defects["identity_low_levels"] <= 1e-12
    assert report.defects["identity_top_level"] > 0


def test_right_membership_boundary():
    assert right_membership((1.0, 0.0), 6).verdict == INCONCLUSIVE
    assert right_membership((1.0 + 5e-10, 0.0), 6).verdict == INCONCLUSIVE


def test_growth_marginal_sqrt_table():
    cert = left_growth_certificate((1.0, 0.0), 100, 0.0)
    assert cert.case == "marginal"
    assert cert.operator_index == 1 and cert.run_letter == 1
    assert cert.bounds[-1] == pytest.approx(10.0)
    assert cert.unbounded
    # with an assumed vacuum bound of 5 the table turns positive at k = 26
    cert = left_growth_certificate((1.0, 0.0), 30, 5.0)
    positive = [k for k, b in zip(cert.ks, cert.bounds) if b > 0]
    assert positive[0] == 26


def test_growth_geometric_table():
    cert = left_growth_certificate((2.0, 0.0), 10, 1.0)
    assert cert.case == "geometric"
    assert cert.operator_index == 2 and cert.run_letter == 1
    assert cert.bounds == pytest.approx([2.0**k for k in range(1, 11)])
    assert cert.unbounded


def test_growth_second_coordinate_symmetric():
    cert = left_growth_certificate((0.3, 1.0), 9, 0.0)
    assert cert.case == "marginal" and cert.run_letter == 2 and cert.operator_index == 2
    cert = left_growth_certificate((0.3, 1.5), 9, 2.0)
    assert cert.case == "geometric" and cert.run_letter == 2 and cert.operator_index == 1
    assert cert.bounds == pytest.approx([2.0 * 1.5**k for k in range(1, 10)])


def test_growth_tables_monotone():
    for point, bound in (((1.0, 0.0), 3.0), ((1.7, 0.2), 0.5)):
        cert = left_growth_certificate(point, 20, bound)
        assert all(b2 >= b1 for b1, b2 in zip(cert.bounds, cert.bounds[1:]))


def test_growth_requires_admissible_point():
    with pytest.raises(ValueError):
        left_growth_certificate((0.5, 0.5), 10, 1.0)


@pytest.mark.parametrize("bound", [-1.0, math.nan, math.inf])
def test_growth_requires_a_finite_nonnegative_bound(bound):
    # a NaN bound gave NaN tables, and an infinite one certified membership
    with pytest.raises(ValueError, match="nonnegative and finite"):
        left_growth_certificate((2.0, 0.0), 10, bound)


def test_zero_left_inverses_unperturbed():
    report = zero_left_inverses({}, {}, 6)
    assert report.max_identity_defect == 0.0
    assert report.reconstruction_residual <= 1e-9


def test_zero_left_inverses_perturbed():
    # (eta_i at the vacuum column) annihilates every shift range
    report = zero_left_inverses({parse_word("21"): 1.0}, {EMPTY: 0.5 - 0.25j}, 6)
    assert report.max_identity_defect == 0.0
    assert report.reconstruction_residual <= 1e-9


def _dense_zero_left_oracle(eta1, eta2, depth):
    """The dense products and least-squares solve that zero_left_inverses replaced."""
    space = TruncatedFock(2, depth)
    shifts = [left_creation(space, i).to_dense() for i in (1, 2)]
    keep = space.levels() <= space.depth - 1
    identity = np.eye(space.dimension, dtype=complex)
    defects = {}
    for i, eta in ((1, eta1), (2, eta2)):
        a_i = shifts[i - 1].conj().T.copy()
        a_i[:, 0] += space.vector_from_coeffs(eta)
        for j in (1, 2):
            diff = (a_i @ shifts[j - 1] - (identity if i == j else 0.0))[:, keep]
            defects[(i, j)] = float(np.max(np.sqrt(np.sum(np.abs(diff) ** 2, axis=0))))
    stacked = np.hstack(shifts)
    target = np.hstack([identity, np.zeros_like(identity)])
    x = np.linalg.lstsq(stacked.T, target.T, rcond=None)[0].T
    reconstructed = shifts[0].conj().T.copy()
    reconstructed[:, 0] += x[:, 0]
    return defects, float(np.max(np.abs((x - reconstructed)[np.ix_(keep, keep)])))


@pytest.mark.parametrize("depth", (1, 4, 8))
def test_zero_left_inverses_match_dense_oracle(depth):
    rng = np.random.default_rng(depth)
    words = [EMPTY, parse_word("1"), parse_word("21")][: depth + 1]
    eta1 = {w: complex(*rng.standard_normal(2)) for w in words}
    eta2 = {EMPTY: 0.5 - 0.25j}
    defects, residual = _dense_zero_left_oracle(eta1, eta2, depth)
    report = zero_left_inverses(eta1, eta2, depth)
    assert report.identity_defects == defects
    # the pseudo-inverse of the partial isometry [L_1 L_2] is its adjoint: no rounding
    assert report.reconstruction_residual == 0.0
    assert residual <= 1e-12


def _dict_series(space, point):
    """The resolvent series through the Word-keyed eigenvector coefficients."""
    unit = ConstantWeights(space.n, 1.0)
    coeffs = eigenvector_coeffs(unit, point, space.depth - 1).coeffs
    return operator_from_fourier(FourierElement.build(coeffs, unit), space)


def _dict_resolvent_check(point, depth):
    point = tuple(complex(z) for z in point)
    space = TruncatedFock(len(point), depth)
    affine = GradedOperator.identity(space)
    for i in range(1, space.n + 1):
        affine = affine - point[i - 1].conjugate() * left_creation(space, i)
    low, top = _split_defect(space, affine @ _dict_series(space, point) - GradedOperator.identity(space))
    return ResolventReport(point, depth, low, top)


def _dict_right_membership(point, depth):
    point = tuple(complex(z) for z in point)
    n = len(point)
    norm = math.sqrt(sum(abs(z) ** 2 for z in point))
    space = TruncatedFock(n, depth)
    unweighted = ConstantWeights(n, 1.0)
    if norm < 1.0:
        coeffs = eigenvector_coeffs(unweighted, point, depth).coeffs
        residual = eigen_residual(unweighted, space, point, coeffs).max_residual
        witness = {"norm": norm, "witness": "joint eigenvector of the adjoint tuple"}
        return SpectrumReport(point, MODE_RIGHT, IN_SPECTRUM, {"eigen_residual": residual}, witness)
    # sum_i (z_i - L_i) (conj(z_i) / ||z||^2) R = (I - sum_i conj(s_i) L_i) R for s = z / ||z||^2
    report = _dict_resolvent_check(tuple(z / norm**2 for z in point), depth)
    defects = {"identity_low_levels": report.low_level_defect, "identity_top_level": report.top_level_defect}
    witness = {"norm": norm, "witness": "resolvent-series right inverse"}
    return SpectrumReport(point, MODE_RIGHT, NOT_IN_SPECTRUM, defects, witness)


# inside the ball, outside it, and with a zero coordinate, which empties most of the support
INSIDE_POINTS = [(0.6, 0.3j), (0.3 + 0.2j, -0.4 + 0.1j), (0.5, 0.0), (0.0, 0.0), (0.2 - 0.5j,), (0.3, 0.0, 0.4j)]
OUTSIDE_POINTS = [(2.0, 0.5), (0.9 - 0.8j, 1.1j), (0.0, 1.7), (1.5,), (0.0, 1.2, 0.3 - 0.4j)]


def test_spectra_vector_path_equals_dict_path():
    for point in INSIDE_POINTS:
        depth = 8 if len(point) < 3 else 5
        assert resolvent_check(point, depth) == _dict_resolvent_check(point, depth)
        assert right_membership(point, depth) == _dict_right_membership(point, depth)
    for point in OUTSIDE_POINTS:
        depth = 8 if len(point) < 3 else 5
        assert right_membership(point, depth) == _dict_right_membership(point, depth)


def test_spectra_allocate_no_words(monkeypatch):
    # the eigenvector stays a vector: no Word is built or looked up on these paths
    calls = {"Word": 0, "index_of": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(Word, "__init__", counted("Word", Word.__init__))
    monkeypatch.setattr(BasisEnumeration, "index_of", counted("index_of", BasisEnumeration.index_of))
    assert right_membership((0.6, 0.3j), 8).verdict == IN_SPECTRUM
    assert right_membership((2.0, 0.5), 8).verdict == NOT_IN_SPECTRUM
    assert resolvent_check((0.4, 0.3), 8).low_level_defect <= 1e-12
    assert calls == {"Word": 0, "index_of": 0}


def test_spectra_build_the_creation_tuple_once_per_call(monkeypatch):
    # one column map holds every creation operator: one lambda build for all letters
    calls = [0]
    build = ConstantWeights.lambda_levels

    def counted(ws, depth):
        calls[0] += 1
        return build(ws, depth)

    def count(run) -> int:
        calls[0] = 0
        run()
        return calls[0]

    monkeypatch.setattr(ConstantWeights, "lambda_levels", counted)
    # the eigenvector coefficients build, the resolvent series deepens that build once, the shifts slice it
    assert count(lambda: resolvent_check((0.4, 0.3), 6)) == 2
    assert count(lambda: right_membership((2.0, 0.5), 6)) == 2
    assert count(lambda: zero_left_inverses({}, {}, 6)) == 1
