import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

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
from fockshift.algebra import _support_operator, _word_grid
from fockshift.fock import ShiftMap, certify_injective, left_shift_maps, max_column_norm
from fockshift.spectra import (
    BOUNDARY_TOL,
    IN_SPECTRUM,
    INCONCLUSIVE,
    MODE_RIGHT,
    NOT_IN_SPECTRUM,
    ResolventReport,
    SpectrumReport,
    ZeroLeftReport,
    right_memberships,
)
from fockshift import spectra
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


@pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, 0.0), (0.5, complex(0.0, math.nan))])
def test_points_that_are_not_finite_are_refused(point):
    # NaN and inf gave not_in_spectrum with NaN defects, and NaN a growth certificate's "inside the unit disc"
    named = re.escape(f"point {tuple(complex(z) for z in point)} is not finite")
    for run in (lambda: right_membership(point, 4), lambda: resolvent_check(point, 4),
                lambda: left_growth_certificate(point, 3, 1.0)):
        with pytest.raises(ValueError, match=named):
            run()


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
    diff, top = (affine @ _dict_series(space, point) - GradedOperator.identity(space)).mat, space.level_slice(depth)
    every = np.ones(space.dimension, dtype=bool)
    low, high = (max_column_norm(diff[rows, :], every)[0] for rows in (slice(top.start), top))
    return ResolventReport(point, depth, low, high)


def _sparse_resolvent_check(point, depth):
    """The sparse product that resolvent_check replaced: the series R as an operator, minus
    sum_i conj(z_i) L_i R through ``after`` gathers, minus I, read through max_column_norm."""
    point = tuple(complex(z) for z in point)
    space, unit = TruncatedFock(len(point), depth), ConstantWeights(len(point), 1.0)
    series = _support_operator(space, _word_grid(space, unit, eigenvector_coeffs(unit, point, depth - 1).vector, True))
    shifts = left_shift_maps(space, unit)
    scaled = ShiftMap(space, shifts.rows, shifts.values * np.conj(point)[:, None])
    lowered = sum((scaled.after(i, series) for i in range(2, space.n + 1)), scaled.after(1, series))
    diff, top = (series - lowered - GradedOperator.identity(space)).mat, space.level_slice(depth)
    low, high = (max_column_norm(diff[rows, :])[0] for rows in (slice(top.start), top))
    return ResolventReport(point, depth, low, high)


def _resolvent_cases():
    """Points at norms in (0.05, 0.95), just below 1 and at 1e-3 and 1e-150, some coordinates zero,
    for n = 1, 2, 3 at depths 1-8 and n = 1 at depths up to 30."""
    rng = np.random.default_rng(3401)
    for n, depths in ((1, range(1, 31)), (2, range(1, 9)), (3, range(1, 9))):
        for depth in depths:
            for norm in (rng.uniform(0.05, 0.95), 1.0 - 1e-12, 1e-3, 1e-150):
                direction = rng.standard_normal(n) + 1j * rng.standard_normal(n) * (rng.random() < 0.7)
                direction[rng.random(n) < 0.3] = 0.0
                if not direction.any():
                    direction[-1] = 1.0
                yield tuple(complex(z) for z in norm * direction / np.linalg.norm(direction)), depth


def test_resolvent_check_equals_the_sparse_and_dict_oracles():
    # the coefficient reading gives the floats of both operator products, bit for bit
    cases = list(_resolvent_cases())
    assert len(cases) == 4 * (30 + 8 + 8)
    for point, depth in cases:
        report = resolvent_check(point, depth)
        assert report == _sparse_resolvent_check(point, depth) == _dict_resolvent_check(point, depth), (point, depth)


def test_right_membership_builds_no_operator(monkeypatch):
    def refuse(*args):
        raise AssertionError("a GradedOperator was built")

    monkeypatch.setattr(GradedOperator, "__init__", refuse)
    assert right_membership((0.6, 0.3j), 8).verdict == IN_SPECTRUM
    assert right_membership((2.0, 0.5), 8).verdict == NOT_IN_SPECTRUM


def test_zero_left_inverses_build_no_operator(monkeypatch):
    # the identities and the reconstruction are read off the shifts' column maps
    def refuse(*args):
        raise AssertionError("a GradedOperator was built")

    monkeypatch.setattr(GradedOperator, "__init__", refuse)
    report = zero_left_inverses({parse_word("21"): 1.0}, {EMPTY: 0.5 - 0.25j}, 6)
    assert report.max_identity_defect == report.reconstruction_residual == 0.0


def test_resolvent_check_guards_the_word_count_before_any_level(monkeypatch):
    # a level of 2^44 weights would be allocated before a later guard could refuse it
    def refuse(ws, depth):
        raise AssertionError(f"lambda levels built to depth {depth}")

    monkeypatch.setattr(ConstantWeights, "lambda_levels", refuse)
    with pytest.raises(ValueError, match=r"^Fock space for n = 2, depth = 45 has dimension over 4194303, above"):
        resolvent_check((0.5, 0.0), 45)


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
    # the eigenvector coefficients build; the resolvent identity is read off them, with no operator
    assert count(lambda: resolvent_check((0.4, 0.3), 6)) == 1
    assert count(lambda: right_membership((2.0, 0.5), 6)) == 1
    assert count(lambda: zero_left_inverses({}, {}, 6)) == 1
    # one weight system per right-mode call: one build whatever the number of points, none for the sphere alone
    inside, outside = [(0.3, 0.4j), (0.0, 0.5)], [(1.5, 0.2), (0.0, 3.0)]
    for points in ([inside[0]], inside + outside, (inside + outside) * 3, outside):
        assert count(lambda: right_memberships(points, 6)) == 1, points
    assert count(lambda: right_memberships([(1.0, 0.0)], 6)) == 0


def _sparse_zero_left_inverses(eta1, eta2, depth):
    """The sparse products that zero_left_inverses replaced: A_i = L_i* plus the eta_i entries at the
    vacuum column, A_i L_j as ``before(j, A_i)``, minus I for i = j, read through max_column_norm."""
    space = TruncatedFock(2, depth)
    maps = left_shift_maps(space, ConstantWeights(2, 1.0))
    certify_injective(maps.rows.ravel(), (space.dimension, 2 * space.dimension))
    if np.any(maps.values != 1.0):
        raise ValueError("[L_1 L_2] is not a partial isometry: an entry is not 1")
    identity, low = GradedOperator.identity(space), space.levels() < depth
    adjoints = [maps.operator(i).adjoint() for i in (1, 2)]
    defects = {}
    for i, eta in ((1, eta1), (2, eta2)):
        entries = sp.coo_array((np.asarray(list(eta.values()), dtype=complex),
                                ([space.index_of(w) for w in eta], [0] * len(eta))), shape=(space.dimension,) * 2)
        a_i = adjoints[i - 1] + GradedOperator(space, entries)
        for j in (1, 2):
            product = maps.before(j, a_i)
            defects[(i, j)] = max_column_norm((product - identity if i == j else product).mat, low)[0]
    residual = float(np.abs(adjoints[0].column(EMPTY)[: space.level_slice(space.depth).start]).max())
    return ZeroLeftReport(defects, max(defects.values()), residual)


FINITE = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_zero_left_inverses_equal_the_sparse_products(data):
    # every field, with eta on any words up to the depth, e among them, or on none
    depth = data.draw(st.integers(min_value=1, max_value=8))
    words = st.sampled_from(list(TruncatedFock(2, depth).words()))
    eta1, eta2 = (data.draw(st.dictionaries(st.just(EMPTY) | words, FINITE, max_size=6)) for _ in range(2))
    assert zero_left_inverses(eta1, eta2, depth) == _sparse_zero_left_inverses(eta1, eta2, depth)


def test_zero_left_inverses_refuse_a_word_outside_the_space():
    # a word past the depth, or with a letter past n, with the message of the sparse entry placement
    for eta1, eta2 in (({parse_word("121"): 1.0}, {}), ({EMPTY: 1.0}, {parse_word("3"): 1.0})):
        messages = []
        for run in (zero_left_inverses, _sparse_zero_left_inverses):
            with pytest.raises(ValueError) as refused:
                run(eta1, eta2, 2)
            messages.append(str(refused.value))
        assert messages[0] == messages[1], messages


def _per_point_right_membership(point, depth):
    """The one-point path that right_memberships replaced: a weight system, a space and a
    coefficient vector per point, through eigen_residual and resolvent_check."""
    point = tuple(complex(z) for z in point)
    norm = math.sqrt(sum(abs(z) ** 2 for z in point))
    if abs(norm - 1.0) <= BOUNDARY_TOL:
        return SpectrumReport(point, MODE_RIGHT, INCONCLUSIVE, {}, {"norm": norm})
    if norm < 1.0:
        residual = eigen_residual(ConstantWeights(len(point), 1.0), TruncatedFock(len(point), depth), point)
        witness = {"norm": norm, "witness": "joint eigenvector of the adjoint tuple"}
        return SpectrumReport(point, MODE_RIGHT, IN_SPECTRUM, {"eigen_residual": residual.max_residual}, witness)
    report = resolvent_check(tuple(z / norm**2 for z in point), depth)
    defects = {"identity_low_levels": report.low_level_defect, "identity_top_level": report.top_level_defect}
    witness = {"norm": norm, "witness": "resolvent-series right inverse"}
    return SpectrumReport(point, MODE_RIGHT, NOT_IN_SPECTRUM, defects, witness)


def _points(data, n: int) -> list:
    """1-6 points inside the ball, outside it, on the sphere or within BOUNDARY_TOL of it, some
    coordinates zero, some points repeated."""
    norms = (st.floats(min_value=0.0, max_value=0.999) | st.floats(min_value=1.001, max_value=4.0)
             | st.floats(min_value=-0.9, max_value=0.9).map(lambda t: 1.0 + t * BOUNDARY_TOL))
    drawn = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        if drawn and data.draw(st.booleans()):
            drawn.append(data.draw(st.sampled_from(drawn)))
            continue
        direction = np.array(data.draw(st.lists(st.just(0j) | FINITE, min_size=n, max_size=n)))
        if not np.abs(direction).max() > 1e-3:
            direction[-1] = 1.0
        drawn.append(tuple(complex(z) for z in data.draw(norms) * direction / np.linalg.norm(direction)))
    return drawn


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_right_memberships_equal_the_per_point_path(data):
    # listed by position: a repeated point, and a point whose scaled s equals another point, each keep their own
    n = data.draw(st.integers(min_value=1, max_value=3))
    depth = data.draw(st.integers(min_value=1, max_value=(8, 7, 5)[n - 1]))
    points = _points(data, n)
    assert right_memberships(points, depth) == [_per_point_right_membership(point, depth) for point in points]


def test_right_memberships_keep_a_point_apart_from_its_scaled_image():
    # s = z / ||z||^2 for z = (2, 0) is (0.5, 0), itself a point inside the ball
    points = [(2.0, 0.0), (0.5, 0.0), (2.0, 0.0), (1.0, 0.0), (0.5, 0.0)]
    reports = right_memberships(points, 6)
    assert [r.verdict for r in reports] == [NOT_IN_SPECTRUM, IN_SPECTRUM, NOT_IN_SPECTRUM, INCONCLUSIVE, IN_SPECTRUM]
    assert reports == [_per_point_right_membership(point, 6) for point in points]
    assert right_memberships([], 6) == []


def test_right_memberships_cut_their_rows_into_blocks(monkeypatch):
    # the coefficient rows of a call come in blocks of about WORK_FLOATS entries, the same floats as one block
    points = [(0.3, 0.4j), (1.5, 0.0), (0.0, 0.2), (0.9, -1.2j), (0.3, 0.4j)]
    whole = right_memberships(points, 6)
    monkeypatch.setattr(spectra, "WORK_FLOATS", 2 * TruncatedFock(2, 6).dimension)
    assert right_memberships(points, 6) == whole == [_per_point_right_membership(point, 6) for point in points]
