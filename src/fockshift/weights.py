"""Weight systems on the Fock-space tree and their weight functions.

A weight system assigns a strictly positive scalar to every edge of the tree:
``lambda_of(i, w)`` weights the edge from the basis vector at ``w`` to the one
at ``i*w``.  Every family defines only that and one prepend automaton
(``automaton``, from ``_prefix_automaton`` but for the two-letter family),
built once per object and kept read-only (``kept_automaton``): weight levels,
infima and commutant boundedness are read off it.  Only a ``TabulatedWeights``
table (hand-made, or from a mu without structure) has none; it gets the tail
heuristic and ``bounded_so_far``.  ``lambda_levels`` gives the weights as one
(n, n^k) array per level k, row i-1 for letter i, and ``kept_lambda_levels``
(``kept_mu_levels`` for mu) builds them once per object, at the deepest depth
asked, and slices them.  The table families and ``TableMu`` hold read-only
``levels[k]`` in that layout, built at construction.  From the weights derive
the left weight function W(u, w) (products of edge weights down the tree), the
commutant weights mu, and the right weight function W_mu, all by one recursion
read in two directions (``_prepend_tables``, ``_append_tables``).  This module
also houses the identities and conditions those functions satisfy: both
cocycle laws, the intertwining identity, the boundedness condition governing
the commutant description, a finite-range semisimplicity estimate, and the
generation of left weights from prescribed right weights.  The identity sweeps
take their defects one chunk of blocks at a time, in one numpy pass over
reused buffers, with the witness rule of a block-by-block sweep.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from itertools import accumulate
from typing import Mapping

import numpy as np

from .words import EMPTY, MAX_SWEEP_WORDS, BasisEnumeration, Word, append, parse_word, prepend, record, word_label

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


def _kept_once(owner, name: str, build):
    """``build()``, run on the first call for ``owner`` and kept on it under ``name``."""
    if name not in vars(owner):
        object.__setattr__(owner, name, build())
    return vars(owner)[name]


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


def _prefix_automaton(short: list[np.ndarray], long: np.ndarray, period: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The automaton of weights read off the first L = len(short) letters of a
    word and its length mod ``period``: a state per word shorter than L, in
    graded-lex order, lambda ``short[k][:, rank]``, then the state S + q period
    + r, lambda ``long[q, r]``, of the words whose first L letters have rank q
    (``long`` holds n^L heads, or one if they do not matter) and length r mod period."""
    heads, n, size = long.shape[0], long.shape[-1], len(short)
    offsets = list(accumulate((n**k for k in range(size)), initial=0))
    steps = [offsets[k + 1] + _prepended_ranks(n, k) for k in range(size - 1)]
    if size:  # a*w for |w| = L-1 is a head with residue L mod period
        steps.append(offsets[-1] + _prepended_ranks(n, size - 1) % heads * period + size % period)
    q, r, a = np.arange(heads)[:, None, None], np.arange(period)[:, None], np.arange(n)
    steps.append((offsets[-1] + (a * n**size + q) // n % heads * period + (r + 1) % period).reshape(-1, n))
    return np.concatenate(steps), np.concatenate([level.T for level in short] + [long.reshape(-1, n)])


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
        """``automaton()``, built once per object and kept read-only on it; a
        step outside [0, states) raises ValueError naming the state it leaves."""
        def build():
            automaton = self.automaton()
            for array in automaton or ():
                array.setflags(write=False)
            if automaton is not None:
                next_state = automaton[0]
                bad = np.flatnonzero((next_state < 0) | (next_state >= next_state.shape[0]))
                if bad.size:
                    state, a = divmod(int(bad[0]), next_state.shape[1])
                    raise ValueError(f"automaton state {state} steps on letter {a + 1} to state "
                                     f"{next_state[state, a]}, outside [0, {next_state.shape[0]})")
            return automaton
        return _kept_once(self, "_automaton", build)

    def lambda_levels(self, depth: int) -> list[np.ndarray]:
        """lambda_{i,w} for every |w| <= depth: one (n, n^k) array per level k,
        row i-1 for letter i, words in graded-lex order, read off the kept
        automaton walked from state 0: a*w has rank (a-1) n^k + r at level
        k+1 for w of rank r at level k.  ``kept_automaton`` checked every step
        in range, so the walk skips numpy's bounds check (``mode="wrap"``)."""
        next_state, lam = self.kept_automaton()
        steps, weights = np.ascontiguousarray(next_state.T, dtype=np.int32), np.ascontiguousarray(lam.T)
        states, levels = np.zeros(1, dtype=np.int32), []
        for k in range(depth + 1):
            levels.append(np.take(weights, states, axis=1, mode="wrap"))
            if k < depth:
                states = np.take(steps, states, axis=1, mode="wrap").ravel()
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


@record
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
        return _prefix_automaton([], np.full((1, 1, self.n), self.value))


@record
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
        return _prefix_automaton([], np.array([[self.scales]]))


@record(eq=False)
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
        return _prefix_automaton(self.levels, np.array([[self.tail]]))


@record(eq=False)
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
        # the head of rank q and residue r has the remainder prefix of rank q // n^(p-1-r)
        n, p = self.n, self.period
        long = np.stack([self.levels[r][:, np.arange(n ** (p - 1)) // n ** (p - 1 - r)].T for r in range(p)], axis=1)
        return _prefix_automaton(self.levels[: p - 1], long, p)


@record
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


@record(eq=False)
class TabulatedWeights(WeightSystem):
    """Explicitly tabulated weights ``levels[k][i-1]``, one (n, n^k) array per
    level k <= depth (made read-only), for base words up to a depth; queries
    beyond the table are an error.  A missing level, a level of another shape
    or a weight not strictly positive and finite raises ValueError at
    construction, naming the first bad weight word by word, letter by letter."""

    n: int
    depth: int
    levels: list[np.ndarray]

    def __post_init__(self):
        if len(self.levels) != self.depth + 1:
            raise ValueError(f"table depth {self.depth} needs {self.depth + 1} weight levels, got {len(self.levels)}")
        basis = BasisEnumeration(self.n, self.depth)
        for k, level in enumerate(self.levels):
            if np.shape(level) != (self.n, self.n**k):
                raise ValueError(f"weight level {k} has shape {np.shape(level)}, expected {(self.n, self.n**k)}")
            bad = np.flatnonzero(~((level.T > 0.0) & (level.T < math.inf)))
            if bad.size:
                rank, i = divmod(int(bad[0]), self.n)
                w = basis.word_at(basis.level_offsets[k] + rank)
                _check_positive(level[i, rank], f"weight ({i + 1}, {w}) at level {k}")
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


class PrefixWeights(TabulatedWeights):
    """Weights tabulated to depth L; a longer word reads those of its first L letters."""

    lambda_levels = WeightSystem.lambda_levels  # walked off the automaton, to any depth

    def lambda_of(self, i: int, w: Word) -> float:
        return super().lambda_of(i, w[: self.depth])

    def automaton(self) -> tuple[np.ndarray, np.ndarray]:
        return _prefix_automaton(self.levels[:-1], self.levels[-1].T[:, None])


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


@record
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
        """W(i,w) / W(e,w), the ratio prepend tables of the one-letter words."""
        with np.errstate(over="ignore"):  # a ratio past the float range is inf
            return _prepend_tables(self.weights, 1, depth, ratio=True)


@record(eq=False)
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


def _prepend_tables(ws: WeightSystem, a: int, bound: int, ratio: bool) -> list[np.ndarray]:
    """[b][rank u, rank w] = W(u, w), or W(u, w) / W(e, w) if ``ratio``, for
    every u of length a and |w| = b <= bound: W(u, j*w) = W(u, w)
    lambda_{j,w*u} (/ lambda_{j,w}); j*w has rank (j-1) n^b + rank w, and w*u
    rank (rank w) n^a + rank u."""
    n = ws.n
    lam = ws.kept_lambda_levels(max(a + bound - 1, 0))
    tables = [np.ones((n**a, 1))]
    for b in range(bound):
        step = lam[a + b].reshape(n, n**b, n**a).transpose(2, 0, 1)  # [rank u, j-1, rank w]
        table = tables[b][:, None, :] * step
        if ratio:
            table /= lam[b]
        tables.append(table.reshape(-1, n ** (b + 1)))
    return tables


def _append_tables(mu: MuSystem, a: int, ranks: np.ndarray | None, bound: int, ratio: bool) -> list[np.ndarray]:
    """``_prepend_tables`` for W_mu(v, w), appending, with row index for v of
    rank ``ranks[index]`` (every rank, through views, if None): W_mu(v, w*j)
    = W_mu(v, w) mu_{j,v*w} (/ mu_{j,w}); w*j has rank (rank w) n + j-1, and
    v*w rank (rank v) n^b + rank w."""
    n = mu.n
    m = mu.kept_mu_levels(max(a + bound - 1, 0))
    tables = [np.ones((n**a if ranks is None else ranks.size, 1))]
    for b in range(bound):
        step = m[a + b].reshape(n, n**a, n**b).transpose(1, 2, 0)  # [rank v, rank w, j-1]
        table = tables[b][:, :, None] * (step if ranks is None else step[ranks])
        if ratio:
            table /= m[b].T
        tables.append(table.reshape(-1, n ** (b + 1)))
    return tables


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


@record
class DefectReport:
    """Maximum relative defect of an identity over a swept range, with the
    witnessing tuple attaining it."""

    max_defect: float
    witness: tuple | None
    checks: int


def _sweep_report(write, chunks: list[tuple[tuple[int, ...], range]], n: int, labels) -> DefectReport:
    """The relative defects |lhs - rhs| / max(|lhs|, |rhs|, 1) of an identity,
    one chunk (head, lasts) of blocks at a time: the leading words have the
    lengths ``head``, the last one each length in ``lasts``, and
    ``write(*head, last, lhs, rhs)`` writes both sides of a block into views
    of shape (n^h for h in head, n^last, len(labels)).  The views tile buffers
    sized to the largest chunk and reused; each chunk's defects take one pass,
    in place.  A chunk's flat order is the witness key ((length, rank) of
    each word, then the label), so its first maximum or NaN is its witness;
    the report's is the smallest key of the worst, a NaN counting as largest."""
    width = len(labels)
    layouts = []
    for head, lasts in chunks:
        starts = list(accumulate((n**last for last in lasts), initial=0))
        layouts.append((head, lasts, starts, (*(n**h for h in head), starts[-1], width)))
    capacity = max(math.prod(shape) for *_, shape in layouts)
    lhs_buffer, rhs_buffer, defect_buffer = np.empty(capacity), np.empty(capacity), np.empty(capacity)
    worst, key, checks = (False, 0.0), None, 0  # (NaN, defect): a NaN outranks every number
    for head, lasts, starts, shape in layouts:
        size = math.prod(shape)
        lhs, rhs, defects = lhs_buffer[:size], rhs_buffer[:size], defect_buffer[:size]
        lhs_blocks, rhs_blocks = lhs.reshape(shape), rhs.reshape(shape)
        for last, start, stop in zip(lasts, starts, starts[1:]):
            write(*head, last, lhs_blocks[..., start:stop, :], rhs_blocks[..., start:stop, :])
        np.subtract(lhs, rhs, out=defects)
        np.abs(defects, out=defects)
        np.abs(lhs, out=lhs)
        np.abs(rhs, out=rhs)
        np.maximum(lhs, rhs, out=lhs)
        np.maximum(lhs, 1.0, out=lhs)
        np.divide(defects, lhs, out=defects)
        checks += size
        at = int(defects.argmax())  # the first maximum, or the first NaN
        value = float(defects[at])
        rank = (True, 0.0) if math.isnan(value) else (False, value)
        if rank < worst or rank == (False, 0.0):
            continue
        *ranks, position, label = (int(x) for x in np.unravel_index(at, shape))
        last = bisect_right(starts, position) - 1
        chunk_key = (*(x for pair in zip(head, ranks) for x in pair), lasts[last], position - starts[last], label)
        if rank > worst or chunk_key < key:
            worst, key = rank, chunk_key
    if key is None:
        return DefectReport(0.0, None, checks)
    *pairs, label = key
    basis = BasisEnumeration(n, max(pairs[::2]))
    words = (basis.word_at(basis.level_offsets[k] + rank) for k, rank in zip(pairs[::2], pairs[1::2]))
    return DefectReport(math.nan if worst[0] else worst[1], (labels[label], *words), checks)


def _kept_prepend_tables(ws: WeightSystem, depth: int) -> list[list[np.ndarray]]:
    """[a][b] = W(u, w) for |u| = a, |w| = b and a + b <= depth, the sweeps'
    prepend tables: one list per a, each kept by ``_kept_levels``."""
    return [_kept_levels(ws, f"_sweep_tables_{a}", depth - a, partial(_prepend_tables, ws, a, ratio=False))
            for a in range(depth + 1)]


def check_cocycles(ws: WeightSystem, mu: MuSystem | None, depth: int) -> DefectReport:
    """Sweep both cocycle identities over all triples with |u|+|v|+|w| <= depth:

        W(u, v*w)    = W(w*u, v) * W(u, w)
        W_mu(u, v*w) = W_mu(u, v) * W_mu(u*v, w)

    ``mu`` None means ``CommutantMu(ws)``.  Both sides are read off the
    prepend and append tables (``_kept_prepend_tables``, ``_append_tables``),
    written block by block of fixed |u|, |v|, |w|, and their defects taken
    in one pass per chunk of fixed |u|, |v| (``_sweep_report``).  The witness
    is the first maximum in the order u, v, w, left before right; a NaN defect
    (an overflowed product) counts as the largest.  More than
    ``MAX_SWEEP_WORDS`` triples raise ``ValueError`` before any table is built.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = ws.n
    _sweep_guard(n, depth, lambda k: math.comb(k + 2, 2))

    def write(a, b, c, lhs, rhs):
        # [rank u, rank v, rank w, label]: v*w has rank rank v n^c + rank w,
        # w*u rank w n^a + rank u, and u*v rank u n^b + rank v
        shape = (n**a, n**b, n**c)
        lhs[..., 0] = left[a][b + c].reshape(shape)
        lhs[..., 1] = right[a][b + c].reshape(shape)
        shifted = left[a + c][b].reshape(n**c, n**a, n**b).transpose(1, 2, 0)
        np.multiply(shifted, left[a][c][:, None, :], out=rhs[..., 0])
        np.multiply(right[a][b][:, :, None], right[a + b][c].reshape(shape), out=rhs[..., 1])

    chunks = [((a, b), range(depth - a - b + 1)) for a in range(depth + 1) for b in range(depth - a + 1)]
    mu = CommutantMu(ws) if mu is None else mu
    # products overflow as the scalar ones do, and inf - inf is a NaN defect
    with np.errstate(over="ignore", invalid="ignore"):
        left = _kept_prepend_tables(ws, depth)
        right = [_append_tables(mu, a, None, depth - a, ratio=False) for a in range(depth + 1)]
        return _sweep_report(write, chunks, n, ("left", "right"))


def check_intertwining(ws: WeightSystem, depth: int) -> DefectReport:
    """Sweep the intertwining identity mu_{i,v} W(v*i, w) = mu_{i,w*v} W(v, w)
    over all i, v, w with |v| + |w| + 1 <= depth.

    W is read off the prepend tables (``_kept_prepend_tables``) and mu off the
    levels of ``CommutantMu(ws)``, written block by block of fixed |v|, |w|,
    and their defects taken in one pass per chunk of fixed |v|
    (``_sweep_report``).  The witness is the first maximum in the order v, w,
    i; a NaN defect counts as the largest.  More than ``MAX_SWEEP_WORDS``
    triples raise ``ValueError`` before any table is built.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = ws.n
    _sweep_guard(n, depth - 1, lambda k: (k + 1) * n)

    def write(a, b, lhs, rhs):
        # [rank v, rank w, i]: v*i has rank rank v n + i-1, w*v rank w n^a + rank v
        np.multiply(mu[a].T[:, None, :], left[a + 1][b].reshape(n**a, n, n**b).transpose(0, 2, 1), out=lhs)
        np.multiply(mu[a + b].reshape(n, n**b, n**a).transpose(2, 1, 0), left[a][b][:, :, None], out=rhs)

    chunks = [((a,), range(depth - a)) for a in range(depth)]
    with np.errstate(over="ignore", invalid="ignore"):
        left = _kept_prepend_tables(ws, depth)
        mu = CommutantMu(ws).kept_mu_levels(depth - 1)
        return _sweep_report(write, chunks, n, range(1, n + 1))


# ---------------------------------------------------------------------------
# the commutant boundedness condition
# ---------------------------------------------------------------------------


@record
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


def _sweep_guard(n: int, depth: int, per_word) -> None:
    # per_word(k) triples for each word of length k <= depth
    total = sum(per_word(k) * n**k for k in range(depth + 1))
    if total > MAX_SWEEP_WORDS:
        raise ValueError(f"sweep over {total} triples exceeds the {MAX_SWEEP_WORDS} guard; lower depth or n")


def _enumerated_sup(ws: WeightSystem, depth: int) -> tuple[float, tuple[int, Word]]:
    basis = BasisEnumeration(ws.n, depth)
    levels = CommutantMu(ws).kept_mu_levels(depth)
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
    def decide():
        automaton = ws.kept_automaton()
        return (BOUNDED_SO_FAR, {}) if automaton is None else _automaton_decision(*automaton)
    verdict, certificate = _kept_once(ws, "_condition6", decide)
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
            try:
                sup = math.exp(best.max())
            except OverflowError:
                raise ValueError(f"commutant weights are bounded, but their supremum exp({best.max():.2f}) "
                                 "is past the float range") from None
            return BOUNDED, {"exact_sup": sup, "method": "max-plus sweep of the ratio pairs",
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
    exact supremum over all words (a ValueError naming its log if that is past
    the float range), or ``diverging`` with a cycle whose factor exceeds 1.
    ``TabulatedWeights`` tables can only report ``bounded_so_far``.
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


@record
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
    of the result reproduce ``mu`` on the tabulated range.  The levels are the
    ratio append tables of the one-letter words (``_append_tables``); from a
    ``TableMu`` of cutoff C, ``PrefixWeights`` of depth C + 1, defined at every depth.
    """
    BasisEnumeration(mu.n, depth)  # refuses a negative depth or too many words before any weight is read
    if isinstance(mu, TableMu):  # normalized at construction; every factor past letter C + 1 is fill / fill
        BasisEnumeration(mu.n, mu.cutoff + 1)
        return PrefixWeights(mu.n, mu.cutoff + 1, _append_tables(mu, 1, None, mu.cutoff + 1, ratio=True))
    for i in range(1, mu.n + 1):
        if abs(mu.mu_of(i, EMPTY) - 1.0) > 1e-12:
            raise ValueError(f"right weights must be normalized: mu_({i}, e) != 1")
    return TabulatedWeights(mu.n, depth, _append_tables(mu, 1, None, depth, ratio=True))
