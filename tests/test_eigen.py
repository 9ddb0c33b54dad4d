import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockshift import (
    ConstantWeights,
    GridSpec,
    ScaledWeights,
    TruncatedFock,
    eigen_residual,
    eigenvector_coeffs,
    ellipse_predicate,
    hereditary_check,
    joint_eigenspace_dim,
    level_sums,
    membership_verdict,
    parse_word,
    region_sample,
    weighted_left_shift,
    write_region_csv,
)
from fockshift.eigen import INCONCLUSIVE, INSIDE, OUTSIDE, sample_point
from fockshift.words import EMPTY, Word

from conftest import ILL_CONDITIONED, ORACLE_DEPTH, SYSTEMS, random_finite_perturbation



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
    """The dense SVD that joint_eigenspace_dim replaced."""
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
    dims = [joint_eigenspace_dim(ws, space, p) for p in points]
    assert dims == [_svd_nullity(ws, space, p) for p in points]
    assert (max(dims) > 1) == (label in {s[0] for s in ILL_CONDITIONED})


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
    verdict, ratio = membership_verdict(level_sums(unweighted, (r_half, r_half), 10), 0.05)
    assert verdict == INSIDE and ratio == pytest.approx(0.5)
    verdict, _ = membership_verdict(level_sums(unweighted, (1.0, 1.0), 10), 0.05)
    assert verdict == OUTSIDE
    boundary = math.sqrt(0.5)
    verdict, _ = membership_verdict(level_sums(unweighted, (boundary, boundary), 10), 0.05)
    assert verdict == INCONCLUSIVE
    with pytest.raises(ValueError):
        membership_verdict([1.0, 0.5], 0.05)


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


def test_region_sample_unweighted_unit_ball(unweighted):
    grid = GridSpec(0.0, 1.2, 0.1)
    samples = region_sample(unweighted, grid, 10, 0.02)
    for s in samples:
        norm_sq = sum(r * r for r in s.moduli)
        if s.verdict == INSIDE:
            assert norm_sq <= 1.0 - 0.02 + 1e-9
        if norm_sq <= 1.0 - 0.02 - 1e-9:
            assert s.verdict == INSIDE
    # rows are sorted lexicographically in the moduli
    assert [s.moduli for s in samples] == sorted(s.moduli for s in samples)


def test_region_verdicts_respect_domination(periodic_example):
    samples = region_sample(periodic_example, GridSpec(0.0, 1.4, 0.2), 8, 0.02)
    by_point = {s.moduli: s.verdict for s in samples}
    for p, verdict in by_point.items():
        if verdict != INSIDE:
            continue
        for q, other in by_point.items():
            if all(qi <= pi for qi, pi in zip(q, p)):
                assert other != OUTSIDE


def test_region_inside_norm_bounded_by_weight_sup(periodic_example):
    # eigenvalues live inside the ball of radius sup lambda_{i,w} = 2
    samples = region_sample(periodic_example, GridSpec(0.0, 2.4, 0.4), 8, 0.02)
    for s in samples:
        if s.verdict == INSIDE:
            assert math.sqrt(sum(r * r for r in s.moduli)) <= 2.0 + 1e-9


def test_region_origin_only():
    unweighted = ConstantWeights(2, 1.0)
    samples = region_sample(unweighted, GridSpec(0.0, 0.0, 1.0), 6, 0.02)
    assert len(samples) == 1
    assert samples[0].verdict == INSIDE
    assert samples[0].partial_sum == 1.0


def test_region_csv_schema(unweighted):
    samples = region_sample(unweighted, GridSpec(0.0, 0.4, 0.2), 6, 0.02)
    buffer = io.StringIO()
    write_region_csv(samples, buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "r1,r2,levels,partial_sum,tail_ratio,verdict"
    assert len(lines) == 1 + len(samples)
    first = lines[1].split(",")
    assert first[-1] in (INSIDE, OUTSIDE, INCONCLUSIVE)
    assert int(first[2]) == 7


def test_inside_implies_small_residual(periodic_example):
    # every inside verdict is backed by a true truncated eigenvector
    space = TruncatedFock(2, 8)
    rng = np.random.default_rng(5)
    count = 0
    while count < 10:
        moduli = rng.uniform(0.0, 0.8, 2)
        sample = sample_point(periodic_example, tuple(moduli), 8, 0.02)
        if sample.verdict != INSIDE:
            continue
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
        point = tuple(m * p for m, p in zip(moduli, phases))
        assert eigen_residual(periodic_example, space, point).max_residual <= 1e-12
        count += 1


def test_level_sums_guard():
    unweighted = ConstantWeights(2, 1.0)
    with pytest.raises(ValueError):
        level_sums(unweighted, (0.5, 0.5), 25)
