import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockshift import (
    BasisEnumeration,
    ConstantWeights,
    GridSpec,
    PeriodicWeights,
    RegionSample,
    ScaledWeights,
    TabulatedWeights,
    TruncatedFock,
    TwoLetterRunWeights,
    eigen_residual,
    eigenvector_coeffs,
    ellipse_predicate,
    hereditary_check,
    joint_eigenspace_dim,
    level_sums,
    membership_verdict,
    parse_word,
    region_sample,
    vacuum_kernel_check,
    weighted_left_shift,
    write_region_csv,
)
from fockshift import eigen
from fockshift.eigen import DELTA, INCONCLUSIVE, INSIDE, OUTSIDE
from fockshift.words import EMPTY, Word

from conftest import ILL_CONDITIONED, ORACLE_DEPTH, SYSTEMS, dense_radius, random_finite_perturbation



def test_eigenvector_coeffs_origin(periodic_example):
    cand = eigenvector_coeffs(periodic_example, (0.0, 0.0), 6)
    assert cand.coeffs[EMPTY] == 1.0
    assert all(v == 0 for w, v in cand.coeffs.items() if w != EMPTY)


def test_eigenvector_coeffs_unweighted_run():
    unweighted = ConstantWeights(2, 1.0)
    z = 0.4 + 0.3j
    cand = eigenvector_coeffs(unweighted, (z, 0.0), 6)
    for k in range(7):
        assert cand.coeffs[Word([1] * k)] == pytest.approx(z.conjugate() ** k)
    assert cand.coeffs[parse_word("21")] == 0


def test_eigenvector_coeffs_periodic_value(periodic_example):
    cand = eigenvector_coeffs(periodic_example, (0.5, 0.5), 4)
    # conj((0.5)(0.5)) / W(e,"21") with W(e,"21") = ad = 2
    assert cand.coeffs[parse_word("21")] == pytest.approx(0.125)


def test_eigen_residual_zero_cases(periodic_example):
    space = TruncatedFock(2, 8)
    assert eigen_residual(periodic_example, space, (0.0, 0.0)).max_residual == 0.0
    rng = np.random.default_rng(2)
    unweighted = ConstantWeights(2, 1.0)
    for _ in range(5):
        point = rng.uniform(-0.5, 0.5, 2) + 1j * rng.uniform(-0.5, 0.5, 2)
        report = eigen_residual(unweighted, space, tuple(point))
        assert report.max_residual <= 1e-12
        assert report.level_cap == 7


def test_eigen_residual_detects_perturbation(periodic_example):
    space = TruncatedFock(2, 8)
    cand = eigenvector_coeffs(periodic_example, (0.5, 0.5), 8)
    coeffs = dict(cand.coeffs)
    coeffs[parse_word("21")] *= 1.01
    report = eigen_residual(periodic_example, space, (0.5, 0.5), coeffs)
    assert report.max_residual > 1e-4


def test_joint_eigenspace_dimension(periodic_example):
    space = TruncatedFock(2, 6)
    for point in ((0.5, 0.5), (0.3 + 0.2j, -0.1), (0.0, 0.0)):
        assert joint_eigenspace_dim(periodic_example, space, point) == 1


def _svd_nullity(ws, space, point, rtol=1e-8):
    """The dense SVD nullity of the stacked (T_i* - conj(point_i)) on levels <= depth-1."""
    keep = space.levels() <= space.depth - 1
    blocks = []
    for i in range(1, space.n + 1):
        t_star = weighted_left_shift(space, ws, i).adjoint().to_dense()
        block = t_star - complex(point[i - 1]).conjugate() * np.eye(space.dimension)
        blocks.append(block[keep, :])
    stacked = np.vstack(blocks)
    singular = np.linalg.svd(stacked, compute_uv=False)
    scale = singular[0] if singular[0] > 0 else 1.0
    return stacked.shape[1] - int(np.sum(singular > rtol * scale))


@pytest.mark.parametrize("label, ws, depth", SYSTEMS + ILL_CONDITIONED, ids=[s[0] for s in SYSTEMS + ILL_CONDITIONED])
def test_joint_eigenspace_dim_matches_svd_oracle(label, ws, depth):
    n = ws.n
    space = TruncatedFock(n, min(depth, ORACLE_DEPTH[n]))
    rng = np.random.default_rng(17 + n)
    points = [(0.0,) * n, (0.5,) + (0.0,) * (n - 1), (0.0,) * (n - 1) + (0.5,), (0.0,) * (n - 1) + (1e-12,)]
    for radius in (0.3, 0.9, 2.5):
        direction = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        points.append(tuple(radius * direction / np.linalg.norm(direction)))
    # the oracle runs on the unit weights: x_w = y_w / W(e,w), with row (i, w) scaled by W(e,w), maps
    # lambda_{i,w} x_{i*w} - conj(z_i) x_w onto y_{i*w} - conj(z_i) y_w and keeps the rank exactly
    unit = ConstantWeights(n, 1.0)
    dims = [joint_eigenspace_dim(ws, space, p) for p in points]
    assert dims == [_svd_nullity(unit, space, p) for p in points] == [1] * len(points)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_and_eigenspace_are_lines_at_every_scale(data):
    # scales across the float range, so any cutoff relative to the largest weight would drop the small
    # ones: at (1, 1e-14) such cutoffs read a kernel of 2^depth and an eigenspace of 2^depth at (0, 0)
    n = data.draw(st.integers(min_value=1, max_value=3))
    exponents = data.draw(st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=n, max_size=n))
    ws = ScaledWeights(n, tuple(10.0**e for e in exponents))
    space = TruncatedFock(n, data.draw(st.integers(min_value=1, max_value=6)))
    assert vacuum_kernel_check(space, ws).joint_kernel_dim == 1
    finite = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)
    point = data.draw(st.lists(st.just(0j) | finite, min_size=n, max_size=n))
    assert joint_eigenspace_dim(ws, space, point) == 1


def test_level_sums_unweighted_geometric():
    unweighted = ConstantWeights(2, 1.0)
    sums = level_sums(unweighted, (0.5, 0.5), 10)
    for k in range(11):
        assert sums[k] == pytest.approx(0.5**k, abs=1e-13)
    assert np.sum(sums) == pytest.approx(1.9990234375, abs=1e-12)


def test_level_sums_origin(periodic_example):
    sums = level_sums(periodic_example, (0.0, 0.0), 5)
    assert sums[0] == 1.0
    assert np.all(sums[1:] == 0.0)


def test_level_sums_scaled_substitution():
    scaled = ScaledWeights(2, (2.0, 3.0))
    s1, s2 = 0.6, 0.5
    sums = level_sums(scaled, (2.0 * s1, 3.0 * s2), 8)
    base = s1**2 + s2**2
    for k in range(9):
        assert sums[k] == pytest.approx(base**k, rel=1e-12)


def test_membership_verdict_cases():
    unweighted = ConstantWeights(2, 1.0)
    r_half = math.sqrt(0.25)  # ||r||^2 = 0.5
    verdict, ratio = membership_verdict(level_sums(unweighted, (r_half, r_half), 10))
    assert verdict == INSIDE and ratio == pytest.approx(0.5)
    verdict, _ = membership_verdict(level_sums(unweighted, (1.0, 1.0), 10))
    assert verdict == OUTSIDE
    boundary = math.sqrt(0.5)
    verdict, _ = membership_verdict(level_sums(unweighted, (boundary, boundary), 10))
    assert verdict == INCONCLUSIVE
    with pytest.raises(ValueError):
        membership_verdict([1.0, 0.5])


def test_hereditary_check_basic(periodic_example):
    assert hereditary_check(periodic_example, (0.7, 0.6), (0.0, 0.0), 8)
    assert hereditary_check(periodic_example, (0.7, 0.6), (0.35, 0.3), 8)
    with pytest.raises(ValueError):
        hereditary_check(periodic_example, (0.5, 0.5), (0.6, 0.4), 8)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_hereditary_check_random(seed):
    ws = random_finite_perturbation(seed)
    rng = np.random.default_rng(seed)
    upper = rng.uniform(0.0, 1.5, 2)
    lower = upper * rng.uniform(0.0, 1.0, 2)
    assert hereditary_check(ws, tuple(upper), tuple(lower), 8)


def test_ellipse_predicate(unweighted, scaled23, periodic_example):
    report = ellipse_predicate(unweighted, (0.6, 0.7), 4)
    assert report.axes == (1.0, 1.0)
    assert report.inside == (0.6**2 + 0.7**2 < 1)
    report = ellipse_predicate(scaled23, (1.0, 1.0), 4)
    assert report.inside and report.axes == (2.0, 3.0)
    assert ellipse_predicate(periodic_example, (0.5, 0.5), 4).axes == (1.0, 1.0)


@pytest.mark.parametrize("point", [(math.nan, 0.5), (0.5, math.inf)])
def test_moduli_that_are_not_finite_are_refused(unweighted, point):
    # a NaN modulus ran the bracket to MAX_BRACKET_SWEEPS, read level sums inf, and lay outside the ellipse
    named = re.escape(f"point {list(point)} is not finite")
    for run in (lambda: region_sample(unweighted, [(0.25, 0.5), point], 6),
                lambda: level_sums(unweighted, point, 6), lambda: hereditary_check(unweighted, point, (0.0, 0.0), 6),
                lambda: ellipse_predicate(unweighted, point, 4)):
        with pytest.raises(ValueError, match=named):
            run()


@pytest.mark.parametrize("point", [(math.nan, 0), (0.5, complex(0, math.inf))])
def test_eigen_candidates_refuse_points_that_are_not_finite(unweighted, point):
    # at (nan, 0) the candidate held NaN coefficients, the residuals read (nan, nan) and the
    # joint eigenspace had dimension 31 at depth 4, all without a word
    named = re.escape(f"point {tuple(complex(z) for z in point)} is not finite")
    space = TruncatedFock(2, 4)
    for run in (lambda: eigenvector_coeffs(unweighted, point, 4), lambda: eigen_residual(unweighted, space, point),
                lambda: eigen_residual(unweighted, space, point, {EMPTY: 1.0}),
                lambda: joint_eigenspace_dim(unweighted, space, point)):
        with pytest.raises(ValueError, match=named):
            run()


def test_region_sample_unweighted_unit_ball(unweighted):
    grid = GridSpec(0.0, 1.2, 0.1)
    sample = region_sample(unweighted, grid.points(2), 10)
    points = list(map(tuple, sample.moduli.tolist()))
    for moduli, verdict in zip(points, sample.verdict.tolist()):
        norm_sq = sum(r * r for r in moduli)
        if verdict == INSIDE:
            assert norm_sq <= 1.0 - 0.02 + 1e-9
        if norm_sq <= 1.0 - 0.02 - 1e-9:
            assert verdict == INSIDE
    # rows are sorted lexicographically in the moduli
    assert points == sorted(points)


def test_region_verdicts_respect_domination(periodic_example):
    sample = region_sample(periodic_example, GridSpec(0.0, 1.4, 0.2).points(2), 8)
    by_point = dict(zip(map(tuple, sample.moduli.tolist()), sample.verdict.tolist()))
    for p, verdict in by_point.items():
        if verdict != INSIDE:
            continue
        for q, other in by_point.items():
            if all(qi <= pi for qi, pi in zip(q, p)):
                assert other != OUTSIDE


def test_region_inside_norm_bounded_by_weight_sup(periodic_example):
    # eigenvalues live inside the ball of radius sup lambda_{i,w} = 2
    sample = region_sample(periodic_example, GridSpec(0.0, 2.4, 0.4).points(2), 8)
    for moduli, verdict in zip(sample.moduli.tolist(), sample.verdict.tolist()):
        if verdict == INSIDE:
            assert math.sqrt(sum(r * r for r in moduli)) <= 2.0 + 1e-9


def test_region_origin_only():
    unweighted = ConstantWeights(2, 1.0)
    sample = region_sample(unweighted, GridSpec(0.0, 0.0, 1.0).points(2), 6)
    assert len(sample.verdict) == 1
    assert sample.verdict[0] == INSIDE
    assert sample.partial_sum[0] == 1.0


def test_tail_ratios_own_their_data(unweighted):
    # a view of the last ratio column kept the whole (points, depth) ratio array alive in the sample
    sample = region_sample(unweighted, GridSpec(0.0, 1.2, 0.2).points(2), 8)
    assert sample.tail_ratio.shape == (49,) and sample.tail_ratio.base is None
    assert eigen._verdicts(sample.sums)[1].base is None


def test_region_csv_schema(unweighted):
    sample = region_sample(unweighted, GridSpec(0.0, 0.4, 0.2).points(2), 6)
    buffer = io.StringIO()
    write_region_csv(sample, buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "r1,r2,levels,partial_sum,tail_ratio,verdict"
    assert len(lines) == 1 + len(sample.verdict)
    first = lines[1].split(",")
    assert first[-1] in (INSIDE, OUTSIDE, INCONCLUSIVE)
    assert int(first[2]) == 7


def _row_oracle_csv(sample) -> str:
    """The region CSV written row by row with one %-format per row."""
    n = sample.moduli.shape[1]
    header = ",".join(f"r{j + 1}" for j in range(n)) + ",levels,partial_sum,tail_ratio,verdict\n"
    row = ",".join(["%.17g"] * n) + ",%d,%.17g,%.17g,%s\n"
    columns = (sample.moduli.tolist(), sample.sums.tolist(), sample.partial_sum.tolist(),
               sample.tail_ratio.tolist(), sample.verdict.tolist())
    return header + "".join(row % (*moduli, len(sums), partial, ratio, verdict)
                            for moduli, sums, partial, ratio, verdict in zip(*columns))


CSV_FLOATS = st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308]),
                       st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_region_csv_bytes_equal_the_row_oracle(data):
    n, points, depth = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 8)), data.draw(st.integers(3, 12))

    def column(size, values=CSV_FLOATS):
        return np.array(data.draw(st.lists(values, min_size=size, max_size=size)))

    sample = RegionSample(column(points * n).reshape(points, n), np.ones((points, depth + 1)), column(points),
                          column(points), column(points, st.sampled_from(eigen.VERDICTS)), {})
    buffer = io.StringIO()
    write_region_csv(sample, buffer)
    assert buffer.getvalue() == _row_oracle_csv(sample)


def test_inside_implies_small_residual(periodic_example):
    # every inside verdict is backed by a true truncated eigenvector
    space = TruncatedFock(2, 8)
    rng = np.random.default_rng(5)
    count = 0
    while count < 10:
        moduli = rng.uniform(0.0, 0.8, 2)
        sample = region_sample(periodic_example, [moduli], 8)
        if sample.verdict[0] != INSIDE:
            continue
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        point = tuple(m * p for m, p in zip(moduli, phases))
        assert eigen_residual(periodic_example, space, point).max_residual <= 1e-12
        count += 1


def test_level_sums_past_the_word_guard():
    # one state vector per point, not a level of words: depth 25 of n = 2 passes 2^21 words
    unweighted = ConstantWeights(2, 1.0)
    assert level_sums(unweighted, (0.5, 0.5), 25).tolist() == [0.5**k for k in range(26)]
    # a system without an automaton propagates on its word tree, which keeps the word guard
    tabulated = TabulatedWeights(2, 2, [np.ones((2, 2**k)) for k in range(3)])
    with pytest.raises(ValueError, match="Fock space for n = 2, depth = 25 has dimension over 4194303, above"):
        level_sums(tabulated, (0.5, 0.5), 25)


# ---------------------------------------------------------------------------
# exact regions: the spectral radius of the transfer matrix
# ---------------------------------------------------------------------------


def _random_periodic(n: int, period: int, seed: int) -> PeriodicWeights:
    rng = np.random.default_rng(seed)
    words = BasisEnumeration(n, period - 1).words()
    return PeriodicWeights(n, period, {(i, w): float(rng.uniform(0.5, 2.0)) for w in words for i in range(1, n + 1)})


RAY_SYSTEMS = [
    ("scaled", ScaledWeights(2, (2.0, 3.0))),
    ("finite_perturbation", random_finite_perturbation(31)),
    ("periodic-p3", _random_periodic(2, 3, 32)),
    # its cycle class has period 6, whose rotating eigenvalues a plain power iteration settles only slowly
    ("periodic-p6", _random_periodic(2, 6, 34)),
    ("periodic-n3-p2", _random_periodic(3, 2, 33)),
    ("two_letter_m", TwoLetterRunWeights(0.81, 0.9)),
]


@pytest.mark.parametrize("label, ws", RAY_SYSTEMS, ids=[s[0] for s in RAY_SYSTEMS])
def test_verdicts_split_rays_at_the_radius(monkeypatch, label, ws):
    # M(t r) = t^2 M(r): along a ray the boundary sits at t* = rho(M(r))^(-1/2)
    # every family's brackets settle within a few sweeps, the periodic ones through their phase-0 powers
    monkeypatch.setattr(eigen, "MAX_BRACKET_SWEEPS", 30)
    rng = np.random.default_rng(len(label))
    for _ in range(5):
        direction = tuple(rng.uniform(0.1, 1.0, ws.n))
        rho = dense_radius(ws.automaton(), direction)
        assert dense_radius(ws.automaton(), tuple(3.0 * r for r in direction)) == pytest.approx(9.0 * rho, rel=1e-12)
        boundary = rho ** -0.5
        for factor in (0.5, 0.9, 1.0 - 1e-8, 1.0 + 1e-8, 1.1, 2.0):
            point = tuple(factor * boundary * r for r in direction)
            assert region_sample(ws, [point], 8).verdict[0] == (INSIDE if factor < 1.0 else OUTSIDE), factor


@pytest.mark.parametrize("period", (1, 3))
@pytest.mark.parametrize("seed", range(4))
def test_bracket_splits_rays_on_random_automata(seed, period):
    # random prepend automata, whose classes have uneven ratios at x = 1 and, for period 3,
    # edges that advance the state's residue mod 3: the rays split at t* = rho^(-1/2)
    rng = np.random.default_rng(seed)
    states = 9
    next_state = np.empty((states, 2), dtype=np.int64)
    for s in range(states):
        targets = [t for t in range(1, states) if period == 1 or t % period == (s + 1) % period]
        next_state[s] = rng.choice(targets, size=2)
    automaton = (next_state, rng.uniform(0.5, 2.0, (states, 2)))
    points, expected = [], []
    for direction in [tuple(rng.uniform(0.1, 1.0, 2)) for _ in range(4)] + [(0.7, 0.0), (0.0, 0.4)]:
        boundary = dense_radius(automaton, direction) ** -0.5
        for factor in (0.5, 1.0 - 1e-8, 1.0 + 1e-8, 2.0):
            points.append(tuple(factor * boundary * r for r in direction))
            expected.append(INSIDE if factor < 1.0 else OUTSIDE)
    assert eigen._bracket_verdicts(*automaton, np.array(points)).tolist() == expected


def _assert_region(sample, value) -> None:
    """Inside where value(moduli) < 1 - 2 DELTA, outside where it is above
    1 + 2 DELTA, and inconclusive exactly on the boundary value 1."""
    for moduli, verdict in zip(map(tuple, sample.moduli.tolist()), sample.verdict.tolist()):
        v = value(moduli)
        if v < 1.0 - 2 * DELTA:
            assert verdict == INSIDE, moduli
        elif v > 1.0 + 2 * DELTA:
            assert verdict == OUTSIDE, moduli
        elif v == 1.0:
            assert verdict == INCONCLUSIVE, moduli


def test_scaled_region_is_the_ellipse(scaled23):
    sample = region_sample(scaled23, GridSpec(0.0, 3.0, 0.25).points(2), 8)
    _assert_region(sample, lambda r: (r[0] / 2.0) ** 2 + (r[1] / 3.0) ** 2)
    assert set(map(tuple, sample.moduli[sample.verdict == INCONCLUSIVE].tolist())) == {(0.0, 3.0), (2.0, 0.0)}


def test_periodic_example_region_is_the_disc_of_radius_sqrt2(periodic_example):
    sample = region_sample(periodic_example, GridSpec(0.0, 1.2, 0.05).points(2), 10)
    _assert_region(sample, lambda r: (r[0] ** 2 + r[1] ** 2) / 2.0)
    verdicts = sample.verdict.tolist()
    assert (verdicts.count(INSIDE), verdicts.count(OUTSIDE), verdicts.count(INCONCLUSIVE)) == (578, 46, 1)
    assert region_sample(periodic_example, [(1.0, 1.0)], 10).verdict[0] == INCONCLUSIVE
    # rho = (r1^2 + r2^2) / 2 = 1 + 0.7 DELTA lies in the band, though rho^2 for the period-2 class does not
    assert region_sample(periodic_example, [(math.sqrt(1.0 + 1.4 * DELTA), 1.0)], 10).verdict[0] == INCONCLUSIVE
    assert region_sample(periodic_example, [(math.sqrt(1.0 + 2.2 * DELTA), 1.0)], 10).verdict[0] == OUTSIDE


@pytest.mark.parametrize("alpha, t", [((0.75, 1.25), 1.5), ((1.0, 1.0), 2.5), ((1.25, 0.75), 2.0), ((1.0, 0.5), 1.75)])
def test_benchmark_periodic_region(alpha, t):
    # lambda_{a,e} = alpha_a and lambda_{a,b} = t alpha_a: the region is sum_a r_a^2 / alpha_a^2 < t
    remainders = {(a, EMPTY): alpha[a - 1] for a in (1, 2)}
    remainders.update({(a, Word([b])): t * alpha[a - 1] for a in (1, 2) for b in (1, 2)})
    ws = PeriodicWeights(2, 2, remainders)
    sample = region_sample(ws, GridSpec(0.0, 1.2, 0.05).points(2), 10)
    _assert_region(sample, lambda r: sum((x / a) ** 2 for x, a in zip(r, alpha)) / t)
    assert OUTSIDE in sample.verdict and INSIDE in sample.verdict


def test_zero_coordinates_drop_their_letters_edges():
    # two-letter runs with m = 0.5, c = 0.1: the 1-run state loops with (r1 m)^2, and every word
    # holding a 2 reaches the state that loops with (r1^2 + r2^2) / c^2, which r2 = 0 cuts off
    ws = TwoLetterRunWeights(0.5, 0.1)
    assert region_sample(ws, [(1.0, 0.0)], 8).verdict[0] == INSIDE
    assert level_sums(ws, (1.0, 0.0), 8).tolist() == [0.25**k for k in range(9)]
    assert region_sample(ws, [(1.0, 1e-300)], 8).verdict[0] == OUTSIDE
    assert region_sample(ws, [(0.0, 0.09)], 8).verdict[0] == INSIDE
    assert region_sample(ws, [(0.0, 0.11)], 8).verdict[0] == OUTSIDE
    assert region_sample(ws, [(0.0, 0.0)], 8).verdict[0] == INSIDE
    # scaled weights: a zero coordinate leaves the other letter's ellipse axis
    assert region_sample(ScaledWeights(2, (2.0, 3.0)), [(0.0, 2.99)], 8).verdict[0] == INSIDE
    assert region_sample(ScaledWeights(2, (2.0, 3.0)), [(0.0, 3.01)], 8).verdict[0] == OUTSIDE


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_packed_zero_patterns_equal_the_rows_unique(data):
    # keys of one to three bytes: the points' patterns drawn from a few, the zero row always among them, and a
    # zero modulus either sign; each pattern's first point gives the rows of the axis-0 unique, in its order
    n = data.draw(st.sampled_from([1, 7, 8, 9, 16, 17]))
    rows = st.lists(st.booleans(), min_size=n, max_size=n)
    pool = [[False] * n] + data.draw(st.lists(rows, min_size=0, max_size=5))
    mask = np.array([pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40))])
    zeros = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=mask.size, max_size=mask.size)))
    moduli = np.where(mask, data.draw(st.floats(5e-324, 1e300)), zeros.reshape(mask.shape))
    firsts, pattern_of = eigen._zero_patterns(moduli)
    patterns, inverse = np.unique(mask, axis=0, return_inverse=True)
    assert np.array_equal(mask[firsts], patterns)
    assert pattern_of.shape == (len(mask),) and np.array_equal(pattern_of, inverse.ravel())


@pytest.mark.parametrize("n", (9, 10))
def test_every_zero_pattern_of_the_unit_cube_corners(n):
    # 2^n patterns with two-byte keys: rho(M(r)) is the number of nonzero moduli, so the origin is inside,
    # a corner with one modulus 1 has rho = 1 in the DELTA band, and every other corner is outside
    sample = region_sample(ConstantWeights(n, 1.0), GridSpec.parse("0:1:1").points(n), 3)
    ones = sample.moduli.sum(axis=1)
    assert len(ones) == 2**n and set(sample.moduli.ravel().tolist()) == {0.0, 1.0}
    assert sample.verdict.tolist() == np.select([ones == 0, ones == 1], [INSIDE, INCONCLUSIVE], OUTSIDE).tolist()
