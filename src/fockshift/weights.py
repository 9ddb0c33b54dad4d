"""Weight systems on the Fock-space tree and their weight functions.

A weight system assigns a strictly positive scalar to every edge of the tree:
``lambda_of(i, w)`` weights the edge from the basis vector at ``w`` to the one
at ``i*w``.  Every family but ``TabulatedWeights`` defines only that and one
finite automaton along the prepend direction (``automaton``), built once per
object and kept read-only (``kept_automaton``); its weight levels, weight
infima and commutant boundedness are all read off that one copy.
``lambda_levels`` gives the weights as one (n, n^k) array per level k, row
i-1 for letter i, and ``kept_lambda_levels`` (``kept_mu_levels`` for mu)
builds them once per object, at the deepest depth asked, and slices them.
The table families, ``TableMu`` included, hold their tables in that layout
as read-only arrays ``levels[k]``, built once, at construction.  From the
weights derive the left weight function W(u, w) (products of edge weights
down the tree), the commutant weights mu, and the right weight function
W_mu.  This module also houses the identities and conditions those
functions satisfy: both cocycle laws, the intertwining identity, the
boundedness condition governing the commutant description (decided once per
weight-system object), a finite-range semisimplicity estimate, and the
generation of left weights from prescribed right weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .words import EMPTY, BasisEnumeration, Word, append, parse_word, prepend, word_label

# enumeration guards for sweeps over all words of bounded length
MAX_SWEEP_WORDS = 1 << 21
MAX_AUTOMATON_STATES = 100_000

BOUNDED = "bounded"
BOUNDED_SO_FAR = "bounded_so_far"
DIVERGING = "diverging"


def _check_positive(value: float, what: str) -> float:
    value = float(value)
    if not value > 0.0 or math.isinf(value):
        raise ValueError(f"{what} must be strictly positive and finite, got {value}")
    return value


def _table_levels(table: Mapping[tuple[int, Word], float], n: int, depth: int, entry: str, what: str) -> list:
    """Read-only (n, n^k) level arrays [k][i-1] of a (letter, word) table, for |w| = k
    <= depth in graded-lex order; the first entry missing or not strictly
    positive, word by word and letter by letter, raises ValueError."""
    basis = BasisEnumeration(n, depth)
    values = []
    for w in basis.words():
        for i in range(1, n + 1):
            if (i, w) not in table:
                raise ValueError(f"missing {entry} for ({i}, {w})")
            values.append(_check_positive(table[(i, w)], f"{what} ({i}, {w})"))
    by_letter = np.array(values).reshape(-1, n).T.copy()
    by_letter.setflags(write=False)  # the families hand these arrays out as they are
    return np.split(by_letter, basis.level_offsets[1:-1], axis=1)


def _kept_levels(owner, name: str, depth: int, build) -> list[np.ndarray]:
    """``build(depth)``, kept read-only on ``owner`` under ``name`` at the deepest
    depth asked so far and sliced to ``depth``; a deeper request builds again."""
    kept = vars(owner).get(name)
    if kept is None or len(kept) <= depth:
        kept = build(depth)
        for level in kept:
            level.setflags(write=False)
        object.__setattr__(owner, name, kept)
    return kept[: depth + 1]


def _prepended_ranks(n: int, k: int) -> np.ndarray:
    """[r, a-1]: the rank of a*w at level k+1 for w of rank r at level k."""
    return np.arange(n) * n**k + np.arange(n**k)[:, None]


def table_from_strings(entries: Mapping[str, float], n: int | None = None) -> dict[tuple[int, Word], float]:
    """Convert a mapping with 'i:w' string keys into a (letter, Word) table."""
    table: dict[tuple[int, Word], float] = {}
    for key, value in entries.items():
        try:
            letter_text, word_text = key.split(":", 1)
            letter = int(letter_text)
        except ValueError as exc:
            raise ValueError(f"malformed table key {key!r}, expected 'i:w'") from exc
        word = parse_word(word_text, n)
        if n is not None and not 1 <= letter <= n:
            raise ValueError(f"table key {key!r} has letter outside [1, {n}]")
        table[(letter, word)] = float(value)
    return table


class WeightSystem:
    """Base class: the rule (i, w) -> positive edge weight."""

    n: int

    def lambda_of(self, i: int, w: Word) -> float:
        raise NotImplementedError

    def automaton(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The family as a finite automaton along the prepend direction, or None
        where it has none: ``next[s, a-1]`` is the state of a*w for w in state
        s, ``lam[s, i-1]`` is lambda_{i,w}, and state 0 holds e.  Callers read
        ``kept_automaton``."""
        return None

    def kept_automaton(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``automaton()``, built once per object and kept read-only on it."""
        if "_automaton" not in vars(self):
            automaton = self.automaton()
            for array in automaton or ():
                array.setflags(write=False)
            object.__setattr__(self, "_automaton", automaton)
        return vars(self)["_automaton"]

    def lambda_levels(self, depth: int) -> list[np.ndarray]:
        """lambda_{i,w} for every |w| <= depth: one (n, n^k) array per level k,
        row i-1 for letter i, words in graded-lex order, read off the kept
        automaton walked from state 0: a*w has rank (a-1) n^k + r at level
        k+1 for w of rank r at level k."""
        next_state, lam = self.kept_automaton()
        steps, weights = np.ascontiguousarray(next_state.T, dtype=np.int32), np.ascontiguousarray(lam.T)
        states, levels = np.zeros(1, dtype=np.int32), []
        for k in range(depth + 1):
            levels.append(np.take(weights, states, axis=1))
            if k < depth:
                states = np.take(steps, states, axis=1).ravel()
        return levels

    def kept_lambda_levels(self, depth: int) -> list[np.ndarray]:
        """``lambda_levels(depth)``, built once per object at the deepest depth
        asked and sliced; the arrays are read-only."""
        return _kept_levels(self, "_lambda_levels", depth, self.lambda_levels)

    def _check_letter(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"letter {i} outside [1, {self.n}]")

    def exact_min_weight(self, i: int) -> float | None:
        """The infimum of lambda_{i,.}, read off the automaton; None without one."""
        automaton = self.kept_automaton()
        return None if automaton is None else float(automaton[1].min(axis=0)[i - 1])


@dataclass(frozen=True)
class ConstantWeights(WeightSystem):
    """lambda_{i,w} == value; value 1 is the unweighted system."""

    n: int
    value: float = 1.0

    def __post_init__(self):
        _check_positive(self.value, "constant weight")

    def lambda_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        return self.value

    def automaton(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((1, self.n), dtype=np.int64), np.full((1, self.n), self.value)


@dataclass(frozen=True)
class ScaledWeights(WeightSystem):
    """lambda_{i,w} == scales[i-1]: scalar multiples of the unweighted shifts."""

    n: int
    scales: tuple[float, ...]

    def __post_init__(self):
        if len(self.scales) != self.n:
            raise ValueError(f"expected {self.n} scales, got {len(self.scales)}")
        object.__setattr__(self, "scales", tuple(_check_positive(c, "scale") for c in self.scales))

    def lambda_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        return self.scales[i - 1]

    def automaton(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((1, self.n), dtype=np.int64), np.array([self.scales])


@dataclass(frozen=True, eq=False)
class FinitePerturbationWeights(WeightSystem):
    """Free weights on base words up to the cutoff length, constant per letter beyond."""

    n: int
    cutoff: int
    table: Mapping[tuple[int, Word], float]
    tail: tuple[float, ...]

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        if len(self.tail) != self.n:
            raise ValueError(f"expected {self.n} tail scales, got {len(self.tail)}")
        object.__setattr__(self, "tail", tuple(_check_positive(c, "tail scale") for c in self.tail))
        object.__setattr__(self, "levels", _table_levels(self.table, self.n, self.cutoff, "table entry", "weight"))

    def lambda_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        if len(w) <= self.cutoff:
            return self.table[(i, w)]
        return self.tail[i - 1]

    def automaton(self) -> tuple[np.ndarray, np.ndarray]:
        # one state per word up to the cutoff, in graded-lex order, then the tail
        n, cutoff = self.n, self.cutoff
        offsets = BasisEnumeration(n, cutoff).level_offsets
        steps = [offsets[k + 1] + _prepended_ranks(n, k) for k in range(cutoff)]
        next_state = np.concatenate(steps + [np.full((n**cutoff + 1, n), offsets[-1])])
        return next_state, np.concatenate([level.T for level in self.levels] + [np.array([self.tail])])


@dataclass(frozen=True, eq=False)
class PeriodicWeights(WeightSystem):
    """lambda_{i,w} = lambda_{i,u} for the decomposition w = u*v with
    |u| = |w| mod period; the remainder scalars determine the system."""

    n: int
    period: int
    remainders: Mapping[tuple[int, Word], float]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be at least 1")
        levels = _table_levels(self.remainders, self.n, self.period - 1, "remainder scalar", "remainder")
        object.__setattr__(self, "levels", levels)

    def lambda_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        u = w[: len(w) % self.period]
        return self.remainders[(i, u)]

    def automaton(self) -> tuple[np.ndarray, np.ndarray]:
        # the words shorter than p-1 in graded-lex order, then the state
        # short + q p + r of the words with first p-1 letters of rank q and
        # length r mod p, whose remainder prefix has rank q // n^(p-1-r)
        n, p = self.n, self.period
        offsets = BasisEnumeration(n, p - 1).level_offsets
        short, heads = offsets[p - 1], n ** (p - 1)
        steps = [offsets[k + 1] + _prepended_ranks(n, k) for k in range(p - 2)]
        if p > 1:  # a*w for |w| = p-2 enters with residue p-1
            steps.append(short + _prepended_ranks(n, p - 2) * p + p - 1)
        q, r, a = np.ogrid[:heads, :p, :n]
        steps.append((short + (a * heads + q) // n * p + (r + 1) % p).reshape(-1, n))
        long = np.stack([self.levels[r][:, np.arange(heads) // n ** (p - 1 - r)].T for r in range(p)], axis=1)
        return np.concatenate(steps), np.concatenate([level.T for level in self.levels[: p - 1]] + [long.reshape(-1, n)])


@dataclass(frozen=True)
class TwoLetterRunWeights(WeightSystem):
    """The two-letter family with lambda_{1,1^k} = 1/m, lambda_{1,1^k 2} = 1/sqrt(m),
    and every other weight equal to c.

    The ratio of weight products along 1-runs grows like m^(k/2), so the
    commutant boundedness condition holds exactly when m <= 1 and c*sqrt(m) <= 1.
    """

    m: float
    c: float

    def __post_init__(self):
        _check_positive(self.m, "m")
        _check_positive(self.c, "c")

    @property
    def n(self) -> int:
        return 2

    def lambda_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        if i == 1:
            body = w.letters
            if all(b == 1 for b in body):
                return 1.0 / self.m
            if body[-1] == 2 and all(b == 1 for b in body[:-1]):
                return 1.0 / math.sqrt(self.m)
        return self.c

    def automaton(self) -> tuple[np.ndarray, np.ndarray]:
        # states e, 1^k (k >= 1), 1^k 2, and every other word
        next_state = np.array([[1, 2], [1, 3], [2, 3], [3, 3]])
        run, end = 1.0 / self.m, 1.0 / math.sqrt(self.m)
        return next_state, np.array([[run, self.c], [run, self.c], [end, self.c], [self.c, self.c]])


@dataclass(frozen=True, eq=False)
class TabulatedWeights(WeightSystem):
    """Explicitly tabulated weights ``levels[k][i-1]``, one (n, n^k) array per
    level (made read-only), for base words up to a depth; queries beyond the
    table are an error."""

    n: int
    depth: int
    levels: list[np.ndarray]

    def __post_init__(self):
        for level in self.levels:
            level.setflags(write=False)

    def lambda_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        if len(w) > self.depth or any(letter > self.n for letter in w.letters):
            raise ValueError(f"weight ({i}, {w}) not tabulated (table depth {self.depth})")
        rank = sum((letter - 1) * self.n**p for p, letter in enumerate(reversed(w.letters)))
        return float(self.levels[len(w)][i - 1, rank])

    def lambda_levels(self, depth: int) -> list[np.ndarray]:
        if depth > self.depth:
            self.lambda_of(1, Word([1] * (self.depth + 1)))  # raises: the first word past the table
        return self.levels[: depth + 1]


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


def left_weight(ws: WeightSystem, u: Word, w: Word) -> float:
    """W(u, w): the product of edge weights on the path from xi_u to xi_{wu}.

    W(u, e) = 1.
    """
    total = 1.0
    base = u
    for letter in reversed(w.letters):
        total *= ws.lambda_of(letter, base)
        base = prepend(letter, base)
    return total


class MuSystem:
    """Right-shift weights mu_{i,w} > 0 normalized so that mu_{i,e} = 1."""

    n: int

    def mu_of(self, i: int, w: Word) -> float:
        raise NotImplementedError

    def mu_levels(self, depth: int) -> list[np.ndarray]:
        """mu_{i,w} for every |w| <= depth: one (n, n^k) array per level k, row
        i-1 for letter i, words in graded-lex order."""
        raise NotImplementedError

    def kept_mu_levels(self, depth: int) -> list[np.ndarray]:
        """``mu_levels(depth)``, built once per object at the deepest depth asked
        and sliced; the arrays are read-only."""
        return _kept_levels(self, "_mu_levels", depth, self.mu_levels)


@dataclass(frozen=True)
class CommutantMu(MuSystem):
    """The commutant weights mu_{i,w} = W(i,w) / W(e,w) of a weight system."""

    weights: WeightSystem

    @property
    def n(self) -> int:
        return self.weights.n

    def mu_of(self, i: int, w: Word) -> float:
        return commutant_mu(self.weights, i, w)

    def kept_mu_levels(self, depth: int) -> list[np.ndarray]:
        # kept on the weight system, since each caller builds its own CommutantMu
        return _kept_levels(self.weights, "_commutant_mu_levels", depth, self.mu_levels)

    def mu_levels(self, depth: int) -> list[np.ndarray]:
        """The ratio recursion of ``commutant_mu``, one level at a time: j*w has
        rank (j-1) n^k + r, and lambda_{j,w*i} sits at [i-1, j-1, r] of level k+1."""
        n = self.weights.n
        lam = self.weights.kept_lambda_levels(depth)
        levels = [np.ones((n, 1))]
        for k in range(depth):
            appended = lam[k + 1].reshape(n, n**k, n).transpose(2, 0, 1)
            levels.append((levels[k][:, None, :] * appended / lam[k]).reshape(n, n ** (k + 1)))
        return levels


@dataclass(frozen=True, eq=False)
class TableMu(MuSystem):
    """Explicit right-shift weights: tabulated up to the cutoff length and
    equal to ``fill`` beyond it.

    The table must be complete up to the cutoff, strictly positive, and
    normalized with mu_{i,e} = 1.
    """

    n: int
    cutoff: int
    entries: Mapping[tuple[int, Word], float]
    fill: float = 1.0

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be nonnegative")
        _check_positive(self.fill, "fill value")
        levels = _table_levels(self.entries, self.n, self.cutoff, "right weight", "right weight")
        for i, mu_e in enumerate(levels[0][:, 0].tolist(), start=1):
            if mu_e != 1.0:
                raise ValueError(f"right weights must be normalized: mu_({i}, e) != 1")
        object.__setattr__(self, "levels", levels)

    _check_letter = WeightSystem._check_letter

    def mu_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        if len(w) <= self.cutoff:
            return self.entries[(i, w)]
        return self.fill

    def mu_levels(self, depth: int) -> list[np.ndarray]:
        tail = [np.full((self.n, self.n**k), self.fill, dtype=float) for k in range(self.cutoff + 1, depth + 1)]
        return self.levels[: depth + 1] + tail


def commutant_mu(ws: WeightSystem, i: int, w: Word) -> float:
    """mu_{i,w} = W(i,w) / W(e,w), the unique right-shift weights commuting
    with the left shifts under the mu_{i,e} = 1 normalization.

    Computed by the ratio recursion mu_{i,jw} = mu_{i,w} lambda_{j,wi} / lambda_{j,w},
    which never forms the products W(i,w) and W(e,w): those under- or
    overflow on long words even where their ratio stays bounded.
    """
    ws._check_letter(i)
    mu = 1.0
    tail = EMPTY
    for letter in reversed(w.letters):
        mu = mu * ws.lambda_of(letter, append(tail, i)) / ws.lambda_of(letter, tail)
        tail = prepend(letter, tail)
    return mu


def right_weight(mu: MuSystem, v: Word, w: Word) -> float:
    """W_mu(v, w): the product of right-shift weights appending w to v.

    W_mu(v, e) = 1.
    """
    return _right_path(mu, v, w)[-1]


def _right_path(mu: MuSystem, v: Word, u: Word, count: int = 1, log: bool = False) -> list[float]:
    """W_mu(v, u^m), or its log, for m = 0 .. count: one walk appending count
    copies of u to v, read after each copy."""
    total = 0.0 if log else 1.0
    path = [total]
    base = v
    for _ in range(count):
        for letter in u.letters:
            value = mu.mu_of(letter, base)
            total = total + math.log(value) if log else total * value
            base = append(base, letter)
        path.append(total)
    return path


def mu_table(ws: WeightSystem, depth: int) -> dict[tuple[int, Word], float]:
    """Tabulate the commutant weights for all base words up to ``depth``,
    keyed by (letter, word): words in graded-lex order, letters in order."""
    levels = CommutantMu(ws).kept_mu_levels(depth)
    basis = BasisEnumeration(ws.n, depth)
    table: dict[tuple[int, Word], float] = {}
    for k, level in enumerate(levels):
        for w, column in zip(basis.level_words(k), level.T.tolist()):
            table.update(((i, w), value) for i, value in enumerate(column, start=1))
    return table


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DefectReport:
    """Maximum relative defect of an identity over a swept range, with the
    witnessing tuple attaining it."""

    max_defect: float
    witness: tuple | None
    checks: int


def _left_tables(ws: WeightSystem, depth: int, longest: int) -> list[list[np.ndarray]]:
    """The left table: [a][b] holds W(u, w) for |u| = a, |w| = b <= min(depth - a, longest)
    at [rank w, rank u], by the recursion W(u, j*w) = W(u, w) lambda_{j,w*u} of
    ``left_weight``; j*w has rank (j-1) n^b + rank w, w*u rank w n^a + rank u."""
    n = ws.n
    lam = ws.kept_lambda_levels(max(depth - 1, 0))
    tables = [[np.ones((1, n**a))] for a in range(depth + 1)]
    for a, row in enumerate(tables):
        for b in range(min(depth - a, longest)):
            row.append((row[b] * lam[a + b].reshape(n, n**b, n**a)).reshape(n ** (b + 1), n**a))
    return tables


def _right_tables(mu: MuSystem, depth: int) -> list[list[np.ndarray]]:
    """The right table: [a][b] holds W_mu(v, w) for |v| = a, |w| = b <= depth - a
    at [rank v, rank w], by the recursion W_mu(v, w*j) = W_mu(v, w) mu_{j,v*w} of
    ``right_weight``; w*j has rank rank w n + j-1, v*w rank v n^b + rank w."""
    n = mu.n
    m = mu.kept_mu_levels(max(depth - 1, 0))
    tables = [[np.ones((n**a, 1))] for a in range(depth + 1)]
    for a, row in enumerate(tables):
        for b in range(depth - a):
            row.append((row[b][:, :, None] * m[a + b].reshape(n, n**a, n**b).transpose(1, 2, 0)).reshape(n**a, -1))
    return tables


def _sweep_report(block, blocks: list[tuple[int, ...]], n: int, labels) -> DefectReport:
    """The relative defects |lhs - rhs| / max(|lhs|, |rhs|, 1) of the sides
    ``block(*levels)`` returns for each entry of ``blocks``: arrays with one
    rank axis per word length in ``levels`` and a last axis indexing
    ``labels``.  The sweep visits (length, rank) pairs in order, the label
    last; the witness is the first maximum in that order, a NaN defect
    counting as the largest."""
    candidates, checks = [], 0
    for levels in blocks:
        lhs, rhs = block(*levels)
        defects = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        # argmax finds the first maximum in C order, or the first NaN
        idx = tuple(int(x) for x in np.unravel_index(int(np.argmax(defects)), defects.shape))
        candidates.append((float(defects[idx]), sum(zip(levels, idx), ()) + idx[-1:]))
        checks += defects.size
    nans = [key for value, key in candidates if math.isnan(value)]
    worst = math.nan if nans else max(value for value, _ in candidates)
    if worst == 0.0:
        return DefectReport(0.0, None, checks)
    *pairs, label = min(nans or [key for value, key in candidates if value == worst])
    basis = BasisEnumeration(n, max(pairs[::2]))
    words = (basis.word_at(basis.level_offsets[k] + rank) for k, rank in zip(pairs[::2], pairs[1::2]))
    return DefectReport(worst, (labels[label], *words), checks)


def check_cocycles(ws: WeightSystem, mu: MuSystem | None, depth: int) -> DefectReport:
    """Sweep both cocycle identities over all triples with |u|+|v|+|w| <= depth:

        W(u, v*w)    = W(w*u, v) * W(u, w)
        W_mu(u, v*w) = W_mu(u, v) * W_mu(u*v, w)

    ``mu`` None means ``CommutantMu(ws)``.  Both sides are read off the left
    and right tables (``_left_tables``, ``_right_tables``) one block of fixed
    |u|, |v|, |w| at a time.  The witness is the first maximum in the order
    u, v, w, left before right; a NaN defect (an overflowed product) counts
    as the largest.  More than ``MAX_SWEEP_WORDS`` triples raise
    ``ValueError`` before any table is built.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = ws.n
    _sweep_guard(n, depth, lambda k: math.comb(k + 2, 2), "triples")

    def block(a, b, c):
        # [rank u, rank v, rank w]: v*w has rank rank v n^c + rank w, w*u
        # rank w n^a + rank u, and u*v rank u n^b + rank v
        by_w, shape = (n**b, n**c, n**a), (n**a, n**b, n**c)
        lhs = [left[a][b + c].reshape(by_w).transpose(2, 0, 1), right[a][b + c].reshape(shape)]
        rhs = [
            left[a + c][b].reshape(by_w).transpose(2, 0, 1) * left[a][c].T[:, None, :],
            right[a][b][:, :, None] * right[a + b][c].reshape(shape),
        ]
        return np.stack(lhs, axis=3), np.stack(rhs, axis=3)

    triples = [(a, b, c) for a in range(depth + 1) for b in range(depth - a + 1) for c in range(depth - a - b + 1)]
    # products overflow as the scalar ones do, and inf - inf is a NaN defect
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = _left_tables(ws, depth, depth), _right_tables(CommutantMu(ws) if mu is None else mu, depth)
        return _sweep_report(block, triples, n, ("left", "right"))


def check_intertwining(ws: WeightSystem, depth: int) -> DefectReport:
    """Sweep the intertwining identity mu_{i,v} W(v*i, w) = mu_{i,w*v} W(v, w)
    over all i, v, w with |v| + |w| + 1 <= depth.

    W is read off the left table (``_left_tables``) and mu_{i,x} = W_mu(x, i)
    off the right table (``_right_tables``) of ``CommutantMu(ws)``, one block
    of fixed |v|, |w| at a time.  The witness is the first maximum in the
    order v, w, i; a NaN defect counts as the largest.  More than
    ``MAX_SWEEP_WORDS`` triples raise ``ValueError`` before any table is built.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = ws.n
    _sweep_guard(n, depth - 1, lambda k: (k + 1) * n, "triples")

    def block(a, b):
        # [rank v, rank w, i]: v*i has rank rank v n + i-1, w*v rank w n^a + rank v
        lhs = right[a][1][:, None, :] * left[a + 1][b].reshape(n**b, n**a, n).transpose(1, 0, 2)
        return lhs, right[a + b][1].reshape(n**b, n**a, n).transpose(1, 0, 2) * left[a][b].T[:, :, None]

    pairs = [(a, b) for a in range(depth) for b in range(depth - a)]
    with np.errstate(over="ignore", invalid="ignore"):
        left, right = _left_tables(ws, depth, depth), _right_tables(CommutantMu(ws), depth)
        return _sweep_report(block, pairs, n, range(1, n + 1))


# ---------------------------------------------------------------------------
# the commutant boundedness condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Condition6Report:
    """Supremum of W(i,w)/W(e,w) over the swept range, with the verdict of the
    decision on the family's automaton.

    ``value`` is the exact supremum over |w| <= depth.  ``verdict`` is
    ``bounded`` or ``diverging`` when the family has an automaton and
    ``bounded_so_far`` otherwise; ``certificate`` carries the reasoning
    (exact supremum, or the cycle whose ratios grow geometrically).
    """

    value: float
    verdict: str
    witness: tuple[int, Word] | None
    certificate: dict


def _sweep_guard(n: int, depth: int, per_word=lambda k: 1, what: str = "words") -> None:
    # per_word(k) items for each word of length k <= depth
    total = sum(per_word(k) * n**k for k in range(depth + 1))
    if total > MAX_SWEEP_WORDS:
        raise ValueError(f"sweep over {total} {what} exceeds the {MAX_SWEEP_WORDS} guard; lower depth or n")


def _enumerated_sup(ws: WeightSystem, depth: int) -> tuple[float, tuple[int, Word]]:
    _sweep_guard(ws.n, depth)
    levels = CommutantMu(ws).kept_mu_levels(depth)
    basis = BasisEnumeration(ws.n, depth)
    best = 0.0
    witness = (1, EMPTY)
    for k in range(depth + 1):
        # rank-major, letter-minor: argmax keeps the first maximum in sweep order
        ratios = levels[k].T.ravel()
        idx = int(np.argmax(ratios))
        if ratios[idx] > best:
            rank, letter = divmod(idx, ws.n)
            best, witness = float(ratios[idx]), (letter + 1, basis.word_at(basis.level_offsets[k] + rank))
    return best, witness


def _decide_condition6(ws: WeightSystem) -> tuple[str, dict]:
    """The family's verdict and certificate, decided once per weight-system
    object and kept on it; each caller gets its own copy of the certificate."""
    decision = vars(ws).get("_condition6")
    if decision is None:
        automaton = ws.kept_automaton()
        decision = (BOUNDED_SO_FAR, {}) if automaton is None else _automaton_decision(*automaton)
        object.__setattr__(ws, "_condition6", decision)
    verdict, certificate = decision
    return verdict, dict(certificate)


def _ratio_pairs(next_state: np.ndarray) -> np.ndarray:
    """The sorted codes s * states + t of the pairs (state of w*i, state of w)
    over all words w and letters i, found breadth-first from the start pairs
    (state of i, state of e).  More than ``MAX_AUTOMATON_STATES`` pairs raise
    ``ValueError`` before any sweep."""
    states = next_state.shape[0]
    level = seen = np.unique(next_state[0]) * states
    while level.size:
        s, t = np.divmod(level, states)
        reached = np.unique(next_state[s] * states + next_state[t])
        at = np.searchsorted(seen, reached)
        fresh = seen[np.minimum(at, seen.size - 1)] != reached
        level = reached[fresh]
        seen = np.sort(np.concatenate([seen, level]))
        if seen.size > MAX_AUTOMATON_STATES:
            raise ValueError(
                f"condition-6 automaton reaches {seen.size} ratio pairs, over the {MAX_AUTOMATON_STATES} guard")
    return seen


def _automaton_decision(next_state: np.ndarray, lam: np.ndarray) -> tuple[str, dict]:
    """Condition 6 on a prepend automaton: prepending a to w multiplies mu_{i,w}
    by lambda_{a,w*i} / lambda_{a,w}, read off the ratio pair (state of w*i,
    state of w); the start pair of i holds mu_{i,e} = 1.  A max-plus iteration
    over the log factors finds the log of the supremum; a pair that still
    gains more than 1e-12 after as many sweeps as pairs certifies a cycle u,
    read off the predecessors, and a prefix x, read off the edges that first
    reached each pair, with mu_{i,u^(k+1) x} = per_step_factor * mu_{i,u^k x}."""
    states, n = next_state.shape
    codes = _ratio_pairs(next_state)
    s, t = np.divmod(codes, states)
    target = np.searchsorted(codes, next_state[s] * states + next_state[t]).ravel()
    by_target = np.argsort(target, kind="stable")
    src, dst, letter = by_target // n, target[by_target], by_target % n + 1
    log_lam = np.log(lam)
    gain = (log_lam[s] - log_lam[t]).ravel()[by_target]
    head = np.concatenate([[True], dst[1:] != dst[:-1]])  # the first edge into each target
    heads, segment, targets = np.flatnonzero(head), np.cumsum(head) - 1, dst[head]
    best, pred, parent = np.full(codes.size, -np.inf), np.full(codes.size, -1), np.full(codes.size, -1)
    starts = np.searchsorted(codes, next_state[0] * states)  # the start pair of letter i at [i-1]
    best[starts] = 0.0
    for _ in range(codes.size):
        candidate = best[src] + gain
        top = np.maximum.reduceat(candidate, heads)
        gains = top > best[targets] + 1e-12
        if not gains.any():
            return BOUNDED, {"exact_sup": math.exp(best.max()), "method": "max-plus sweep of the ratio pairs",
                             "states": codes.size}
        argmax = np.minimum.reduceat(np.where(candidate == top[segment], np.arange(dst.size), dst.size), heads)
        improved, argmax = targets[gains], argmax[gains]
        # a pair first reached in sweep d is reached from one first reached in sweep d - 1
        first = best[improved] == -np.inf
        parent[improved[first]] = argmax[first]
        best[improved], pred[improved] = top[gains], argmax
    # walking back as many predecessors as pairs from a pair that still gains ends on a cycle
    node = improved[0]
    for _ in range(codes.size):
        node = src[pred[node]]
    cycle, factor, at = [], 1.0, node
    while not cycle or at != node:
        edge, at = pred[at], src[pred[at]]
        cycle.append(int(letter[edge]))
        factor *= lam[s[at], letter[edge] - 1] / lam[t[at], letter[edge] - 1]
    prefix = []
    while parent[at] >= 0:
        prefix.append(int(letter[parent[at]]))
        at = src[parent[at]]
    return DIVERGING, {"method": "the ratio pairs hold a cycle with factor > 1", "states": codes.size,
                       "letter": int(np.flatnonzero(starts == at)[0]) + 1, "prefix": word_label(prefix),
                       "cycle": word_label(cycle), "per_step_factor": float(factor)}


def condition6_sup(ws: WeightSystem, depth: int) -> Condition6Report:
    """Supremum of the commutant ratios W(i,w)/W(e,w) over |w| <= depth,
    together with the boundedness verdict.

    Every family with a prepend automaton is decided exactly by one max-plus
    sweep of its ratio pairs (``_automaton_decision``): ``bounded`` with the
    exact supremum over all words, or ``diverging`` with a cycle whose factor
    exceeds 1.  Tabulated systems can only report ``bounded_so_far``.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    value, witness = _enumerated_sup(ws, depth)
    verdict, certificate = _decide_condition6(ws)
    return Condition6Report(value, verdict, witness, certificate)


def require_bounded_mu(ws: WeightSystem) -> None:
    """Refuse to build right shifts from weights whose commutant ratios diverge."""
    verdict, certificate = _decide_condition6(ws)
    if verdict == DIVERGING:
        raise ValueError(f"commutant weights diverge: {certificate}")


# ---------------------------------------------------------------------------
# semisimplicity estimate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemisimpleEstimate:
    """Finite-range proxy for the semisimplicity constant.

    The true constant is an infimum over all words of a liminf over all
    powers; this estimate restricts to |v| <= max_v_len and to roots of order
    k in [max_k/2, max_k], and is exact only for families whose right weights
    are eventually constant.
    """

    value: float
    witness_v: Word
    max_v_len: int
    max_k: int


def semisimple_estimate(source: WeightSystem | MuSystem, max_v_len: int, max_k: int) -> SemisimpleEstimate:
    """Estimate  inf_v W_mu(e,v)^{-1} min_{max_k/2 <= k <= max_k} W_mu(v, v^{k-1})^{1/k}."""
    if max_v_len < 1:
        raise ValueError("max_v_len must be at least 1")
    if max_k < 1:
        raise ValueError("max_k must be at least 1")
    if isinstance(source, WeightSystem):
        require_bounded_mu(source)
        mu: MuSystem = CommutantMu(source)
    else:
        mu = source
    _sweep_guard(mu.n, max_v_len)
    basis = BasisEnumeration(mu.n, max_v_len)
    k_lo = max(1, math.ceil(max_k / 2))
    best = math.inf
    witness = Word([1])
    for length in range(1, max_v_len + 1):
        for v in basis.level_words(length):
            log_base = _right_path(mu, EMPTY, v, log=True)[-1]
            logs = _right_path(mu, v, v, max_k - 1, log=True)  # log W_mu(v, v^(k-1)) at [k - 1]
            inner = min(logs[k - 1] / k for k in range(k_lo, max_k + 1))
            value = math.exp(inner - log_base)
            if value < best:
                best, witness = value, v
    return SemisimpleEstimate(best, witness, max_v_len, max_k)


# ---------------------------------------------------------------------------
# right-to-left weight generation
# ---------------------------------------------------------------------------


def lambda_from_mu(mu: MuSystem, depth: int) -> TabulatedWeights:
    """Generate the left weights lambda_{i,w} = W_mu(i,w) / W_mu(e,w) induced
    by prescribed right weights, tabulated for |w| <= depth.

    The right weights must be normalized (mu_{i,e} = 1); the commutant weights
    of the result reproduce ``mu`` on the tabulated range.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    for i in range(1, mu.n + 1):
        if abs(mu.mu_of(i, EMPTY) - 1.0) > 1e-12:
            raise ValueError(f"right weights must be normalized: mu_({i}, e) != 1")
    _sweep_guard(mu.n, depth)
    # ratio recursion lambda_{i,wj} = lambda_{i,w} mu_{j,iw} / mu_{j,w}: the word
    # w*j has rank r n + j-1, and mu_{j,i*w} sits at [i-1, r, j-1] of level k+1
    n = mu.n
    m = mu.kept_mu_levels(depth)
    levels = [np.ones((n, 1))]
    for k in range(depth):
        prepended = m[k + 1].reshape(n, n, n**k).transpose(1, 2, 0)
        levels.append((levels[k][:, :, None] * prepended / m[k].T).reshape(n, n ** (k + 1)))
    return TabulatedWeights(n, depth, levels)
