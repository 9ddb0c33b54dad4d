import numpy as np
import pytest

from fockshift import (
    BasisEnumeration,
    ConstantWeights,
    FinitePerturbationWeights,
    PeriodicWeights,
    ScaledWeights,
    TableMu,
    TabulatedWeights,
    TwoLetterRunWeights,
    lambda_from_mu,
)
from fockshift.weights import _append_tables, table_from_strings
from fockshift.words import EMPTY, Word


@pytest.fixture(scope="session")
def unweighted():
    return ConstantWeights(2, 1.0)


@pytest.fixture(scope="session")
def scaled23():
    return ScaledWeights(2, (2.0, 3.0))


@pytest.fixture(scope="session")
def periodic_example():
    # 2-periodic subclass with a = b = 1 and c = d = e = f = 2
    return PeriodicWeights(
        2, 2, table_from_strings({"1:e": 1, "2:e": 1, "1:1": 2, "2:1": 2, "1:2": 2, "2:2": 2})
    )


@pytest.fixture(scope="session")
def run_weights_bounded():
    # m = 0.81, c = 0.9 = sqrt(m): the commutant ratio supremum equals 1
    return TwoLetterRunWeights(0.81, 0.9)


@pytest.fixture(scope="session")
def run_weights_diverging():
    return TwoLetterRunWeights(4.0, 1.0)


def random_finite_perturbation(seed: int, n: int = 2, cutoff: int = 2) -> FinitePerturbationWeights:
    rng = np.random.default_rng(seed)
    basis = BasisEnumeration(n, cutoff)
    table = {
        (i, w): float(rng.uniform(0.5, 2.0))
        for w in basis.words()
        for i in range(1, n + 1)
    }
    tail = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(n))
    return FinitePerturbationWeights(n, cutoff, table, tail)


@pytest.fixture(scope="session")
def finite_perturbation():
    return random_finite_perturbation(12345)


def periodic_weights(n: int, seed: int) -> PeriodicWeights:
    # lambda_{a,e} = alpha_a and lambda_{a,b} = t alpha_a: every cycle ratio is 1
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 2.0, n)
    t = float(rng.uniform(1.5, 2.5))
    remainders = {(a, EMPTY): float(alpha[a - 1]) for a in range(1, n + 1)}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            remainders[(a, Word([b]))] = t * float(alpha[a - 1])
    return PeriodicWeights(n, 2, remainders)


def table_mu(n: int, seed: int) -> TableMu:
    rng = np.random.default_rng(seed)
    entries = {(i, w): float(rng.uniform(0.5, 2.0)) for w in BasisEnumeration(n, 2).words() for i in range(1, n + 1)}
    for i in range(1, n + 1):
        entries[(i, EMPTY)] = 1.0
    return TableMu(n, 2, entries, fill=1.25)


def system_depth(n: int) -> int:
    return 8 if n < 3 else 6


def _systems():
    """(label, system, depth): the five families, a ``TabulatedWeights`` table
    of the append ratios of a ``TableMu`` (the heuristic path) and the
    ``PrefixWeights`` that ``lambda_from_mu`` generates from it, for n in
    {1, 2, 3}."""
    for n in (1, 2, 3):
        depth = system_depth(n)
        # np.log(1.05) is one ulp off math.log(1.05): level sums must use the latter
        yield f"constant-n{n}", ConstantWeights(n, 1.05), depth
        yield f"scaled-n{n}", ScaledWeights(n, tuple(0.5 + 0.75 * j for j in range(n))), depth
        yield f"finite_perturbation-n{n}", random_finite_perturbation(40 + n, n=n, cutoff=2), depth
        yield f"periodic-n{n}", periodic_weights(n, 50 + n), depth
        mu = table_mu(n, 60 + n)
        yield f"tabulated-n{n}", TabulatedWeights(n, depth, _append_tables(mu, 1, None, depth)), depth
        yield f"prefix-n{n}", lambda_from_mu(mu, depth), depth
    yield "two_letter_m", TwoLetterRunWeights(0.81, 0.9), 8


SYSTEMS = list(_systems())

# depths at which the dense oracles stay fast
ORACLE_DEPTH = {1: 8, 2: 7, 3: 5}

# Systems with pivots of 1e-14, below the cutoffs of dense rank and SVD
# nullity counts on the weighted matrices; the structural counts, and the
# dense oracles run on the unit weights, keep them.  The finite
# perturbation has its tiny pivot at one word only.
ILL_CONDITIONED = [
    ("scaled-1e-14", ScaledWeights(2, (1.0, 1e-14)), 8),
    ("scaled-n3-1e-14", ScaledWeights(3, (2.0, 1e-14, 1.0)), 5),
    (
        "finite_perturbation-1e-14",
        FinitePerturbationWeights(
            2, 1, table_from_strings({"1:e": 1, "2:e": 1, "1:1": 1, "2:1": 1e-14, "1:2": 1, "2:2": 1}), (1.0, 1.0)
        ),
        8,
    ),
]


def dense_radius(automaton, moduli) -> float:
    """rho(M(r)) by np.linalg.eigvals on the states reachable from e along the
    letters with r_j > 0: the oracle of the Collatz-Wielandt bracket."""
    next_state, lam = automaton
    letters = [j for j, r in enumerate(moduli) if r > 0]
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [t for s in frontier for t in next_state[s, letters].tolist() if t not in reached]
        reached.update(frontier)
    states = sorted(reached)
    position = {s: p for p, s in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for s in states:
        for j in letters:
            matrix[position[s], position[int(next_state[s, j])]] += (moduli[j] / lam[s, j]) ** 2
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))
