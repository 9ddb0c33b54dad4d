"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, not configured.
"""

import math

import numpy as np
import pytest

from fockshift import (
    BasisEnumeration,
    ConstantWeights,
    FourierElement,
    GridSpec,
    PeriodicWeights,
    ScaledWeights,
    TableMu,
    TruncatedFock,
    TwoLetterRunWeights,
    check_cocycles,
    check_intertwining,
    commutant_extract,
    commutant_mu,
    commutation_defect,
    condition6_sup,
    eigen_residual,
    hereditary_check,
    joint_eigenspace_dim,
    lambda_from_mu,
    left_growth_certificate,
    level_sums,
    operator_from_fourier,
    parse_word,
    region_sample,
    resolvent_check,
    right_membership,
    spectral_radius_lower,
    zero_left_inverses,
)
from fockshift.algebra import cesaro_sum, pk_polynomial
from fockshift.eigen import INSIDE
from fockshift.weights import BOUNDED, DIVERGING, mu_table
from fockshift.words import EMPTY, Word

from conftest import random_finite_perturbation

DEPTH = 8


def _passed(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def _bounded_families():
    return [
        ("unweighted", ConstantWeights(2, 1.0)),
        ("scaled(2,3)", ScaledWeights(2, (2.0, 3.0))),
        (
            "periodic(2; 1,1,2,2,2,2)",
            PeriodicWeights(
                2,
                2,
                {
                    (1, EMPTY): 1.0,
                    (2, EMPTY): 1.0,
                    (1, parse_word("1")): 2.0,
                    (2, parse_word("1")): 2.0,
                    (1, parse_word("2")): 2.0,
                    (2, parse_word("2")): 2.0,
                },
            ),
        ),
        ("finite perturbation", random_finite_perturbation(2024, cutoff=2)),
        ("two-letter runs (0.81, 0.9)", TwoLetterRunWeights(0.81, 0.9)),
    ]


def test_criterion_01_cocycle_suites():
    for name, ws in _bounded_families():
        cocycles = check_cocycles(ws, None, 6)
        assert cocycles.max_defect <= 1e-12, f"{name}: cocycle defect {cocycles.max_defect}"
        intertwining = check_intertwining(ws, 6)
        assert intertwining.max_defect <= 1e-12, f"{name}: intertwining defect {intertwining.max_defect}"
    _passed(1, "cocycle and intertwining identities at depth 6")


def test_criterion_02_commutant_condition():
    periodic = _bounded_families()[2][1]
    for depth in range(2, 11):
        report = condition6_sup(periodic, depth)
        assert report.value == 2.0
        assert report.verdict == BOUNDED
    diverging = TwoLetterRunWeights(4.0, 1.0)
    for k in range(11):
        assert commutant_mu(diverging, 2, Word([1] * k)) == 2.0**k
    assert condition6_sup(diverging, 10).verdict == DIVERGING
    bounded = TwoLetterRunWeights(0.81, 0.9)
    report = condition6_sup(bounded, 10)
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.verdict == BOUNDED
    _passed(2, "boundedness condition decided across the example families")


def test_criterion_03_commutation():
    for name, ws in _bounded_families():
        space = TruncatedFock(2, DEPTH)
        report = commutation_defect(space, ws)
        assert report.max_defect <= 1e-12, f"{name}: commutation defect {report.max_defect}"
    # the converse: one perturbed right weight is detected with its witness
    periodic = _bounded_families()[2][1]
    space = TruncatedFock(2, DEPTH)
    table = mu_table(periodic, DEPTH - 1)
    target = parse_word("21")
    table[(2, target)] *= 1.01
    report = commutation_defect(space, periodic, TableMu(2, DEPTH - 1, table))
    assert report.max_defect >= 1e-3
    assert report.witness[2] in (target, parse_word("1"))
    _passed(3, "commutation defects vanish exactly for commutant weights")


def test_criterion_04_cesaro_recovery():
    periodic = _bounded_families()[2][1]
    space = TruncatedFock(2, DEPTH)
    rng = np.random.default_rng(404)
    coeffs = {
        w: complex(rng.standard_normal(), rng.standard_normal())
        for w in BasisEnumeration(2, 3).words()
    }
    element = FourierElement.build(coeffs, periodic)
    operator = operator_from_fourier(element, space)
    for k in (2, 4, 8):
        smoothed = cesaro_sum(operator, k)
        polynomial = pk_polynomial(element, k, space)
        for level in range(DEPTH - k + 1):
            for v in space.level_words(level):
                defect = float(np.linalg.norm(smoothed.column(v) - polynomial.column(v)))
                assert defect <= 1e-12, f"k={k}, v={v}: defect {defect}"
    extraction = commutant_extract(operator, periodic)
    assert extraction.residual <= 1e-12
    for w, a_w in coeffs.items():
        assert abs(extraction.element.coeffs[w] - a_w) <= 1e-12
    _passed(4, "Cesaro sums equal the Fejer polynomials and recover coefficients")


def test_criterion_05_unweighted_eigenvalue_region():
    unweighted = ConstantWeights(2, 1.0)
    r = math.sqrt(0.25)
    sums = level_sums(unweighted, (r, r), 10)
    for k in range(11):
        assert abs(sums[k] - 0.5**k) <= 1e-13
    assert abs(float(np.sum(sums)) - 1.9990234375) <= 1e-12
    epsilon = 0.02
    sample = region_sample(unweighted, GridSpec(0.0, 1.2, 0.1).points(2), 10)
    points = list(map(tuple, sample.moduli.tolist()))
    inside = {moduli for moduli, verdict in zip(points, sample.verdict.tolist()) if verdict == INSIDE}
    expected = {
        moduli
        for moduli in points
        if moduli[0] ** 2 + moduli[1] ** 2 <= 1.0 - epsilon + 1e-12
    }
    assert inside == expected
    _passed(5, "unweighted level sums are geometric and the inside set is the ball")


def test_criterion_06_eigenvector_residuals():
    periodic = _bounded_families()[2][1]
    space = TruncatedFock(2, DEPTH)
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 100:
        moduli = tuple(rng.uniform(0.0, 0.65, 2))
        sample = region_sample(periodic, [moduli], DEPTH)
        if sample.verdict[0] != INSIDE:
            continue
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))
        point = tuple(m * p for m, p in zip(moduli, phases))
        report = eigen_residual(periodic, space, point)
        assert report.max_residual <= 1e-12
        assert joint_eigenspace_dim(periodic, space, point) == 1
        checked += 1
    _passed(6, "100 inside points carry exact one-dimensional joint eigenvectors")


def test_criterion_07_ellipse_lower_bound():
    scaled = ScaledWeights(2, (2.0, 3.0))
    epsilon = 0.02
    sample = region_sample(scaled, GridSpec(0.0, 3.0, 0.25).points(2), DEPTH)
    for moduli, verdict in zip(map(tuple, sample.moduli.tolist()), sample.verdict.tolist()):
        ellipse_value = (moduli[0] / 2.0) ** 2 + (moduli[1] / 3.0) ** 2
        if ellipse_value <= 0.95:
            assert verdict == INSIDE, f"{moduli}: {verdict}"
    rng = np.random.default_rng(707)
    ws = random_finite_perturbation(808)
    for _ in range(1000):
        upper = tuple(rng.uniform(0.0, 1.5, 2))
        lower = tuple(u * f for u, f in zip(upper, rng.uniform(0.0, 1.0, 2)))
        assert hereditary_check(ws, upper, lower, 6)
    _passed(7, "ellipse points are inside and domination is hereditary")


def test_criterion_08_right_spectrum():
    rng = np.random.default_rng(808)
    for _ in range(50):
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        point = tuple(direction / np.linalg.norm(direction) * rng.uniform(0.0, 0.9))
        report = right_membership(point, DEPTH)
        assert report.verdict == "in_spectrum"
        assert report.defects["eigen_residual"] <= 1e-12
    for _ in range(50):
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        point = tuple(direction / np.linalg.norm(direction) * rng.uniform(1.1, 3.0))
        report = right_membership(point, DEPTH)
        assert report.verdict == "not_in_spectrum"
        assert report.defects["identity_low_levels"] <= 1e-12
    for _ in range(5):
        direction = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        point = tuple(direction / np.linalg.norm(direction) * rng.uniform(0.2, 0.9))
        norm = math.sqrt(sum(abs(z) ** 2 for z in point))
        top = resolvent_check(point, DEPTH).top_level_defect
        assert 0.5 * norm**DEPTH <= top <= 2.0 * norm**DEPTH
    _passed(8, "right-spectrum verdicts and resolvent tails verified both ways")


def test_criterion_09_left_spectrum_certificates():
    marginal = left_growth_certificate((1.0, 0.0), 100, 0.0)
    assert marginal.bounds == [math.sqrt(k) - 0.0 for k in range(1, 101)]
    assert marginal.bounds[-1] == 10.0
    shifted = left_growth_certificate((1.0, 0.0), 30, 5.0)
    assert shifted.bounds == [math.sqrt(k) - 5.0 for k in range(1, 31)]
    geometric = left_growth_certificate((2.0, 0.0), 10, 1.0)
    assert geometric.bounds == [2.0**k * 1.0 for k in range(1, 11)]
    for cert in (marginal, geometric):
        assert cert.unbounded
        assert all(b2 >= b1 for b1, b2 in zip(cert.bounds, cert.bounds[1:]))
    report = zero_left_inverses({parse_word("21"): 1.0}, {EMPTY: 0.5j}, 6)
    assert report.max_identity_defect <= 1e-12
    assert report.reconstruction_residual <= 1e-9
    _passed(9, "growth tables match their closed forms and rank-one solves recover")


def test_criterion_10_spectral_radius_bound():
    rng = np.random.default_rng(1010)
    words_len2 = list(BasisEnumeration(2, 2).level_words(2))
    for trial in range(20):
        entries = {(i, EMPTY): 1.0 for i in (1, 2)}
        for w in BasisEnumeration(2, 1).words():
            for i in (1, 2):
                entries.setdefault((i, w), float(rng.uniform(0.5, 2.0)))
        mu = TableMu(2, 1, entries)
        ws = lambda_from_mu(mu, DEPTH)
        # right weights round-trip through the generated left weights
        for w in BasisEnumeration(2, DEPTH - 1).words():
            for i in (1, 2):
                assert abs(commutant_mu(ws, i, w) - mu.mu_of(i, w)) <= 1e-12
        v = Word([int(rng.integers(1, 3))])
        support = {v} | {words_len2[rng.integers(len(words_len2))] for _ in range(2)}
        coeffs = {w: complex(rng.standard_normal(), rng.standard_normal()) for w in support}
        element = FourierElement.build(coeffs, ws, mu)
        bounds = spectral_radius_lower(element, v, 4, DEPTH)
        space = TruncatedFock(2, DEPTH)
        dense = operator_from_fourier(element, space).to_dense()
        state = space.basis_vector(EMPTY)
        for k, closed in zip(bounds.ks, bounds.closed_forms):
            state = dense @ state
            oracle = state[space.index_of(v**k)]
            assert abs(abs(oracle) - abs(closed)) <= 1e-10
    _passed(10, "leading power coefficients match their closed form over generated weights")
