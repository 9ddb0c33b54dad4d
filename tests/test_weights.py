import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fockshift import (
    BasisEnumeration,
    CommutantMu,
    ConstantWeights,
    FinitePerturbationWeights,
    PeriodicWeights,
    ScaledWeights,
    TableMu,
    TabulatedWeights,
    TwoLetterRunWeights,
    check_cocycles,
    check_intertwining,
    commutant_mu,
    condition6_sup,
    lambda_from_mu,
    left_weight,
    parse_word,
    right_weight,
    semisimple_estimate,
)
from fockshift.weights import (
    BOUNDED,
    DIVERGING,
    _append_tables,
    _prepend_tables,
    table_from_strings,
)
from fockshift.words import EMPTY, Word

from conftest import random_finite_perturbation


def test_lambda_of_examples(periodic_example):
    assert ConstantWeights(2, 1.0).lambda_of(1, parse_word("212")) == 1.0
    # remainder prefix of "11" has length 0, so the edge carries the a-scalar
    assert periodic_example.lambda_of(1, parse_word("11")) == 1.0
    assert TwoLetterRunWeights(4.0, 1.0).lambda_of(1, parse_word("112")) == 0.5


def test_lambda_positivity_enforced():
    with pytest.raises(ValueError):
        ConstantWeights(2, 0.0)
    with pytest.raises(ValueError):
        ScaledWeights(2, (1.0, -2.0))
    with pytest.raises(ValueError):
        PeriodicWeights(2, 2, table_from_strings({"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2}))


def test_tables_name_their_first_bad_entry():
    # word by word, letter by letter: (2, 1) is read before the missing (2, 2)
    remainders = table_from_strings({"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 0, "1:2": 2})
    with pytest.raises(ValueError, match=r"^remainder \(2, 1\) must be strictly positive and finite, got 0.0$"):
        PeriodicWeights(2, 2, remainders)
    remainders[(2, parse_word("1"))] = 2.0
    with pytest.raises(ValueError, match=r"^missing remainder scalar for \(2, 2\)$"):
        PeriodicWeights(2, 2, remainders)
    with pytest.raises(ValueError, match=r"^missing table entry for \(1, 1\)$"):
        FinitePerturbationWeights(2, 1, table_from_strings({"1:e": 1, "2:e": 1}), (1.0, 1.0))
    with pytest.raises(ValueError, match=r"^missing right weight for \(2, e\)$"):
        TableMu(2, 0, {(1, EMPTY): 1.0})


def test_tabulated_weights_refuse_queries_past_the_table():
    ws = TabulatedWeights(2, 2, _unit_levels(2))
    assert ws.lambda_of(2, parse_word("21")) == 1.0
    for query in (lambda: ws.lambda_levels(3), lambda: ws.lambda_of(1, parse_word("111"))):
        with pytest.raises(ValueError, match=r"^weight \(1, 111\) not tabulated \(table depth 2\)$"):
            query()
    with pytest.raises(ValueError, match=r"weight \(1, 3\) not tabulated"):
        ws.lambda_of(1, parse_word("3"))


def test_left_weight_periodic(periodic_example):
    # W(e, w_k) = (ad)^k and W(2, w_k) = (eb)^k for w_k = (21)^k
    w1 = parse_word("21")
    for k in range(5):
        assert left_weight(periodic_example, EMPTY, w1**k) == pytest.approx(2.0**k)
        assert left_weight(periodic_example, parse_word("2"), w1**k) == pytest.approx(2.0**k)
    assert left_weight(ConstantWeights(2, 1.0), parse_word("12"), parse_word("221")) == 1.0


def test_left_weight_log_space_consistency():
    ws = ScaledWeights(2, (0.01, 3.0))
    w = Word([1] * 40)
    assert math.log(left_weight(ws, EMPTY, w)) == pytest.approx(40 * math.log(0.01))
    assert left_weight(ws, EMPTY, w) == pytest.approx(0.01**40, rel=1e-12)


def test_commutant_mu_values(periodic_example):
    unweighted = ConstantWeights(2, 1.0)
    for w in BasisEnumeration(2, 4).words():
        for i in (1, 2):
            assert commutant_mu(unweighted, i, w) == 1.0
            expected = 1.0 if len(w) % 2 == 0 else 2.0
            assert commutant_mu(periodic_example, i, w) == pytest.approx(expected)


def test_commutant_mu_single_variable_proportional_to_weights():
    # for n = 1 the commutant weights are a constant multiple of the shift weights
    ws = random_finite_perturbation(7, n=1, cutoff=3)
    ratios = {
        commutant_mu(ws, 1, Word([1] * k)) / ws.lambda_of(1, Word([1] * k))
        for k in range(8)
    }
    first = next(iter(ratios))
    assert all(r == pytest.approx(first) for r in ratios)


def test_right_weight_values(periodic_example):
    mu = CommutantMu(periodic_example)
    assert right_weight(mu, EMPTY, parse_word("11")) == pytest.approx(2.0)
    assert right_weight(mu, parse_word("2"), EMPTY) == 1.0
    trivial = CommutantMu(ConstantWeights(2, 1.0))
    assert right_weight(trivial, parse_word("12"), parse_word("21")) == 1.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_right_cocycle_random_systems(seed):
    ws = random_finite_perturbation(seed)
    mu = CommutantMu(ws)
    rng = np.random.default_rng(seed)
    basis = BasisEnumeration(2, 3)
    words = list(basis.words())
    for _ in range(5):
        u, v, w = (words[rng.integers(len(words))] for _ in range(3))
        lhs = right_weight(mu, u, v * w)
        rhs = right_weight(mu, u, v) * right_weight(mu, u * v, w)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_check_cocycles(unweighted, periodic_example):
    assert check_cocycles(unweighted, None, 6).max_defect == 0.0
    assert check_cocycles(periodic_example, None, 6).max_defect <= 1e-12
    assert check_cocycles(random_finite_perturbation(99), None, 5).max_defect <= 1e-12


def test_check_intertwining(unweighted, periodic_example):
    assert check_intertwining(unweighted, 6).max_defect == 0.0
    assert check_intertwining(periodic_example, 6).max_defect <= 1e-12
    assert check_intertwining(random_finite_perturbation(5), 5).max_defect <= 1e-12


def test_condition6_periodic_bounded(periodic_example):
    for depth in range(2, 11):
        report = condition6_sup(periodic_example, depth)
        assert report.value == 2.0
        assert report.verdict == BOUNDED
    assert report.certificate["exact_sup"] == pytest.approx(2.0)


def test_condition6_periodic_diverging():
    # eb > ad pumps the ratio along (21)^k
    ws = PeriodicWeights(
        2, 2, table_from_strings({"1:e": 1, "2:e": 2, "1:1": 1, "2:1": 1, "1:2": 3, "2:2": 1})
    )
    assert condition6_sup(ws, 8).verdict == DIVERGING


def test_condition6_two_letter_family(run_weights_bounded, run_weights_diverging):
    report = condition6_sup(run_weights_diverging, 10)
    assert report.verdict == DIVERGING
    # the ratio along 1^k is m^(k/2) = 2^k for m = 4
    for k in range(11):
        assert commutant_mu(run_weights_diverging, 2, Word([1] * k)) == pytest.approx(2.0**k)
    report = condition6_sup(run_weights_bounded, 10)
    assert report.verdict == BOUNDED
    assert report.value == pytest.approx(1.0)


def test_condition6_constant_scaled_fp(unweighted, scaled23, finite_perturbation):
    assert condition6_sup(unweighted, 6).value == 1.0
    assert condition6_sup(scaled23, 6).verdict == BOUNDED
    assert condition6_sup(scaled23, 6).value == 1.0
    report = condition6_sup(finite_perturbation, 6)
    assert report.verdict == BOUNDED
    # beyond cutoff + 1 the ratio factors cancel, so the sweep value equals the exact sup
    assert report.value == pytest.approx(report.certificate["exact_sup"])


def test_two_letter_growth_law():
    ws = TwoLetterRunWeights(0.81, 0.9)
    m = 0.81
    for k in range(11):
        w = Word([1] * k)
        ratio = left_weight(ws, parse_word("2"), w) / left_weight(ws, EMPTY, w)
        assert ratio == pytest.approx(m ** (k / 2), rel=1e-13)


def test_semisimple_estimate_values(unweighted, scaled23):
    assert semisimple_estimate(unweighted, 2, 8).value == pytest.approx(1.0)
    # scaled weights have mu == 1, so the estimate is exactly 1 as well
    assert semisimple_estimate(scaled23, 2, 8).value == pytest.approx(1.0)


def test_semisimple_estimate_single_table_value():
    # mu(1,'1') = 4, every other right weight 1: the minimum sits at v = '11',
    # where W_mu(e,'11') = 4 and W_mu('11', .) == 1, giving 1/4
    entries = {(i, w): 1.0 for w in BasisEnumeration(2, 1).words() for i in (1, 2)}
    entries[(1, parse_word("1"))] = 4.0
    mu = TableMu(2, 1, entries)
    estimate = semisimple_estimate(mu, 2, 8)
    assert estimate.value == pytest.approx(0.25)
    assert estimate.witness_v == parse_word("11")


def test_semisimple_estimate_free_below_cutoff_positive():
    rng = np.random.default_rng(11)
    entries = {(i, EMPTY): 1.0 for i in (1, 2)}
    for w in BasisEnumeration(2, 2).words():
        for i in (1, 2):
            entries.setdefault((i, w), float(rng.uniform(0.5, 2.0)))
    mu = TableMu(2, 2, entries)
    assert semisimple_estimate(mu, 3, 8).value > 0.0


def test_semisimple_estimate_refuses_diverging(run_weights_diverging):
    with pytest.raises(ValueError):
        semisimple_estimate(run_weights_diverging, 2, 4)


def test_table_mu_requires_normalization():
    entries = {(i, w): 1.0 for w in BasisEnumeration(2, 1).words() for i in (1, 2)}
    entries[(1, EMPTY)] = 2.0
    with pytest.raises(ValueError):
        TableMu(2, 1, entries)


@pytest.mark.parametrize("ratio", [False, True])
def test_prepend_and_append_tables_match_the_scalar_weights(ratio):
    # W(u, w) and W_mu(v, w) for two words of length 2 and every w with |w| <= 3, against the scalar walks;
    # the append tables hold only the ratios W_mu(v, w) / W_mu(e, w)
    ws = random_finite_perturbation(8, n=3, cutoff=2)
    mu = CommutantMu(ws)
    basis, ranks = BasisEnumeration(3, 5), np.array([7, 2])
    words = [basis.word_at(basis.level_offsets[2] + rank) for rank in ranks]
    prepended = [table[ranks] for table in _prepend_tables(ws, 2, 3, ratio)]
    appended = _append_tables(mu, 2, ranks, 3)
    for b in range(4):
        for rank, w in enumerate(basis.level_words(b)):
            for index, x in enumerate(words):
                left = left_weight(ws, x, w) / (left_weight(ws, EMPTY, w) if ratio else 1.0)
                assert prepended[b][index, rank] == pytest.approx(left, rel=1e-12)
                if ratio:
                    right = right_weight(mu, x, w) / right_weight(mu, EMPTY, w)
                    assert appended[b][index, rank] == pytest.approx(right, rel=1e-12)
    # every rank, read through views, holds the same numbers; no rank gives (0, n^b) arrays
    full = _append_tables(mu, 2, None, 3)
    assert all(np.array_equal(table[ranks], part) for table, part in zip(full, appended))
    assert [table.shape for table in _append_tables(mu, 2, ranks[:0], 3)] == [(0, 3**b) for b in range(4)]


def test_each_weight_system_keeps_one_commutant_mu(periodic_example):
    mu = periodic_example.kept_commutant_mu()
    assert mu is periodic_example.kept_commutant_mu() and mu == CommutantMu(periodic_example)
    assert ConstantWeights(2, 1.0).kept_commutant_mu() is not ConstantWeights(2, 1.0).kept_commutant_mu()


def _unit_levels(depth: int) -> list:
    return [np.ones((2, 2**k)) for k in range(depth + 1)]


@pytest.mark.parametrize("depth, levels, message", [
    (3, [np.ones((2, 1))], r"^table depth 3 needs 4 weight levels, got 1$"),
    (1, [np.ones((2, 1)), np.ones((2, 3))], r"^weight level 1 has shape \(2, 3\), expected \(2, 2\)$"),
    (1, [np.ones((2, 1)), np.ones(2)], r"^weight level 1 has shape \(2,\), expected \(2, 2\)$"),
    # word by word, letter by letter: (2, 1) at [1, 0] is read before (1, 2) at [0, 1]
    (2, [*_unit_levels(0), np.array([[1.0, -2.0], [0.0, 1.0]]), np.ones((2, 4))],
     r"^weight \(2, 1\) at level 1 must be strictly positive and finite, got 0.0$"),
    (2, [*_unit_levels(1), np.where(np.arange(4) == 3, -2.0, 1.0) * np.ones((2, 1))],
     r"^weight \(1, 22\) at level 2 must be strictly positive and finite, got -2.0$"),
    (1, [np.array([[1.0], [math.inf]]), np.ones((2, 2))],
     r"^weight \(2, e\) at level 0 must be strictly positive and finite, got inf$"),
    (0, [np.array([[math.nan], [1.0]])], r"^weight \(1, e\) at level 0 must be strictly positive and finite, got nan$"),
])
def test_tabulated_weights_validate_their_levels(depth, levels, message):
    with pytest.raises(ValueError, match=message):
        TabulatedWeights(2, depth, levels)


def test_tabulated_weights_accept_full_tables_and_lambda_from_mu_outputs():
    assert len(TabulatedWeights(2, 3, _unit_levels(3)).lambda_levels(3)) == 4
    rng = np.random.default_rng(5)
    entries = {(i, w): 1.0 if w == EMPTY else float(rng.uniform(0.5, 2.0))
               for w in BasisEnumeration(3, 2).words() for i in (1, 2, 3)}
    ws = lambda_from_mu(TableMu(3, 2, entries), 4)
    # a TableMu of cutoff 2 gives a table to depth 3, walked to any depth
    assert [level.shape for level in ws.levels] == [(3, 3**k) for k in range(4)]
    assert [level.shape for level in ws.lambda_levels(5)] == [(3, 3**k) for k in range(6)]


def test_lambda_from_mu_unweighted_fixed_point():
    entries = {(i, w): 1.0 for w in BasisEnumeration(2, 1).words() for i in (1, 2)}
    mu = TableMu(2, 1, entries)
    ws = lambda_from_mu(mu, 5)
    for w in BasisEnumeration(2, 5).words():
        for i in (1, 2):
            assert ws.lambda_of(i, w) == pytest.approx(1.0)


def test_lambda_from_mu_round_trip():
    rng = np.random.default_rng(21)
    entries = {(i, EMPTY): 1.0 for i in (1, 2)}
    for w in BasisEnumeration(2, 2).words():
        for i in (1, 2):
            entries.setdefault((i, w), float(rng.uniform(0.5, 2.0)))
    mu = TableMu(2, 2, entries)
    depth = 6
    ws = lambda_from_mu(mu, depth)
    # left weights are generally nontrivial far beyond the right-weight cutoff
    deep = [abs(ws.lambda_of(i, w) - 1.0) for w in BasisEnumeration(2, depth).level_words(5) for i in (1, 2)]
    assert max(deep) > 1e-3
    # the commutant weights of the generated system reproduce the input
    for w in BasisEnumeration(2, depth - 1).words():
        for i in (1, 2):
            assert commutant_mu(ws, i, w) == pytest.approx(mu.mu_of(i, w), rel=1e-12)


def test_commutant_then_generate_recovers_normalized_weights():
    # systems with lambda_{i,e} = 1 are recovered exactly from their commutant weights
    rng = np.random.default_rng(31)
    basis = BasisEnumeration(2, 2)
    table = {}
    for w in basis.words():
        for i in (1, 2):
            table[(i, w)] = 1.0 if w == EMPTY else float(rng.uniform(0.5, 2.0))
    ws = FinitePerturbationWeights(2, 2, table, (1.0, 1.0))
    regenerated = lambda_from_mu(CommutantMu(ws), 5)
    for w in BasisEnumeration(2, 5).words():
        for i in (1, 2):
            assert regenerated.lambda_of(i, w) == pytest.approx(ws.lambda_of(i, w), rel=1e-12)


def test_lambda_from_mu_rejects_unnormalized():
    from fockshift.weights import MuSystem

    class ScaledMu(MuSystem):
        n = 2

        def mu_of(self, i, w):
            return 1.5

    with pytest.raises(ValueError):
        lambda_from_mu(ScaledMu(), 3)
