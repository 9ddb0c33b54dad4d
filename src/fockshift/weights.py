"""Weight systems on the Fock-space tree and their weight functions.

A weight system assigns a strictly positive scalar to every edge of the tree:
``lambda_of(i, w)`` weights the edge from the basis vector at ``w`` to the one
at ``i*w``.  Every family defines only that and one prepend automaton
(``automaton``, from ``_prefix_automaton`` but for the two-letter family),
kept read-only once built (``kept_automaton``): weight levels, infima and
commutant boundedness are read off it.  Only a ``TabulatedWeights`` table
(hand-made, or from a mu without structure) has none; it gets the tail
heuristic and ``bounded_so_far``.  ``lambda_levels`` gives one (n, n^k) array
per level k, row i-1 for letter i, the layout of the read-only ``levels`` the
table families and ``TableMu`` build at construction; ``kept_lambda_levels``
(``kept_mu_levels``) keeps them per object at the deepest depth asked, and
each system keeps one commutant mu (``kept_commutant_mu``).  From them derive
W(u, w), the commutant weights mu and W_mu, by one recursion read in two
directions (``_prepend_tables``, the mu ratios of ``_append_tables``, and the
sweeps' total-length tables, ``_total_tables``: one stacked array per law,
W_mu's words read from the right, so each identity takes one block per length
of the word its sides share, a side one copy or product in reused buffers).
Also here: the cocycle laws, the intertwining identity, the commutant's
boundedness condition, a semisimplicity estimate and right-to-left weights.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate
from typing import Mapping

import numpy as np

from .words import EMPTY, MAX_SWEEP_WORDS, BasisEnumeration, Word, append, parse_word, prepend, record, word_label

MAX_AUTOMATON_STATES = 100_000
SWEEP_FLOATS = 2**13  # the floats of each buffer the identity sweeps reuse

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
        for level in [kept] if isinstance(kept, np.ndarray) else kept:
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

    def kept_commutant_mu(self) -> "CommutantMu":
        """The commutant weights of this system, one ``CommutantMu`` built once per object and kept on it."""
        return _kept_once(self, "_commutant_mu", lambda: CommutantMu(self))

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
    """W(u, w): the product of edge weights on the path from xi_u to xi_{wu}; W(u, e) = 1."""
    total, base = 1.0, u
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

    def require_bounded(self) -> None:
        """Refuse right shifts from weights known to be unbounded; prescribed weights pass."""


@record
class CommutantMu(MuSystem):
    """The commutant weights mu_{i,w} = W(i,w) / W(e,w) of a weight system; each
    system keeps one (``WeightSystem.kept_commutant_mu``)."""

    weights: WeightSystem

    @property
    def n(self) -> int:
        return self.weights.n

    def mu_of(self, i: int, w: Word) -> float:
        return commutant_mu(self.weights, i, w)

    def require_bounded(self) -> None:
        require_bounded_mu(self.weights)

    def mu_levels(self, depth: int) -> list[np.ndarray]:
        """W(i,w) / W(e,w), the ratio prepend tables of the one-letter words."""
        with np.errstate(over="ignore"):  # a ratio past the float range is inf
            return _prepend_tables(self.weights, 1, depth, ratio=True)


@record(eq=False)
class TableMu(MuSystem):
    """Explicit right-shift weights: tabulated up to the cutoff length, complete,
    strictly positive and normalized with mu_{i,e} = 1, and ``fill`` beyond it."""

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
    mu, tail = 1.0, EMPTY
    for letter in reversed(w.letters):
        mu = mu * ws.lambda_of(letter, append(tail, i)) / ws.lambda_of(letter, tail)
        tail = prepend(letter, tail)
    return mu


def right_weight(mu: MuSystem, v: Word, w: Word) -> float:
    """W_mu(v, w): the product of right-shift weights appending w to v; W_mu(v, e) = 1."""
    return _right_path(mu, v, w)[-1]


def _right_path(mu: MuSystem, v: Word, u: Word, count: int = 1, log: bool = False) -> list[float]:
    """W_mu(v, u^m), or its log, for m = 0 .. count: one walk appending count
    copies of u to v, read after each copy."""
    total, base = 0.0 if log else 1.0, v
    path = [total]
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


def _append_tables(mu: MuSystem, a: int, ranks: np.ndarray | None, bound: int) -> list[np.ndarray]:
    """The ratio ``_prepend_tables`` for W_mu(v, w) / W_mu(e, w), appending, with
    row index for v of rank ``ranks[index]`` (every rank, through views, if None):
    the ratio at w*j is that at w times mu_{j,v*w} / mu_{j,w}; w*j has rank
    (rank w) n + j-1, and v*w rank (rank v) n^b + rank w."""
    n = mu.n
    m = mu.kept_mu_levels(max(a + bound - 1, 0))
    tables = [np.ones((n**a if ranks is None else ranks.size, 1))]
    for b in range(bound):
        step = m[a + b].reshape(n, n**a, n**b).transpose(1, 2, 0)  # [rank v, rank w, j-1]
        table = tables[b][:, :, None] * (step if ranks is None else step[ranks])
        table /= m[b].T
        tables.append(table.reshape(-1, n ** (b + 1)))
    return tables


def mu_table(ws: WeightSystem, depth: int) -> dict[tuple[int, Word], float]:
    """Tabulate the commutant weights for all base words up to ``depth``,
    keyed by (letter, word): words in graded-lex order, letters in order."""
    levels = ws.kept_commutant_mu().kept_mu_levels(depth)
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


def _total_tables(levels, depth: int, append: bool) -> np.ndarray:
    """[a, off_t + rank y], |y| = t <= depth, off_t = sum n^k over k < t: W(u, x) for y = x*u, |u| = a <= t,
    off ``levels(depth - 1)`` of lambda, or if ``append`` W_mu(v, w) for y = v*w, |v| = a, off those of mu,
    y ranked read from the right; row t of level t is 1.  Both prepend: j*y (y*j read from the right) has rank
    (j-1) n^t + rank y, times lambda_{j,y} (mu_{j,y}), the factors of ``_prepend_tables`` (``_append_tables``)."""
    levels = levels(max(depth - 1, 0))[:depth]
    offsets = list(accumulate([1] + [level.size for level in levels], initial=0))
    table = np.ones((depth + 1, offsets[-1]))
    for t, level in enumerate(levels):
        level = level[:, np.arange(level.shape[1]).reshape((len(level),) * t).T.ravel()] if append else level
        out = table[: t + 1, offsets[t + 1]: offsets[t + 2]].reshape(t + 1, *level.shape)
        np.multiply(table[: t + 1, None, offsets[t]: offsets[t + 1]], level, out=out)
    return table


def _cut_block(shape: tuple[int, ...], lhs: tuple, rhs: tuple, key, axis: int = 0):
    """A block as blocks of at most ``SWEEP_FLOATS`` floats, in flat order: runs of whole rows along
    ``axis`` where a row fits, else each row cut along the next axis.  An operand's axes of length 1 stay whole."""
    inner = math.prod(shape[axis + 1:])
    step = max(SWEEP_FLOATS // inner, 1)
    for i in range(0, shape[axis], step):
        cut = (slice(None),) * axis + (slice(i, i + step),)
        sides = [tuple(x[cut] if x.shape[axis] > 1 else x for x in side) for side in (lhs, rhs)]
        piece = ((*shape[:axis], min(step, shape[axis] - i), *shape[axis + 1:]), *sides,
                 lambda *at, i=i: key(*at[:axis], at[axis] + i, *at[axis + 1:]))
        yield from _cut_block(*piece, axis + 1) if inner > SWEEP_FLOATS else [piece]


def _defect_pass(buffers: np.ndarray, fill: int, placed: list) -> tuple[tuple[bool, float], tuple | None]:
    """The relative defects of the first ``fill`` floats of the (lhs, rhs, defect)
    ``buffers``, in place: the worst, (is NaN, value), and the smallest key of
    the ``placed`` blocks (start, shape, key) attaining it, None at 0."""
    lhs, rhs, defects = buffers[:, :fill]
    np.subtract(lhs, rhs, out=defects)
    np.abs(buffers[:, :fill], out=buffers[:, :fill])
    np.maximum(lhs, rhs, out=lhs)
    value = float(np.divide(defects, np.maximum(lhs, 1.0, out=lhs), out=defects).max())  # NaN if any
    if value == 0.0:
        return (False, 0.0), None
    ties = np.flatnonzero(np.isnan(defects) if math.isnan(value) else defects == value)
    owners, keys = np.searchsorted([start for start, *_ in placed], ties, "right") - 1, []
    for owner in np.unique(owners).tolist():
        start, shape, key = placed[owner]
        columns = np.broadcast_arrays(*key(*np.unravel_index(ties[owners == owner] - start, shape)))
        keys.append(min(zip(*(column.tolist() for column in columns))))
    return (math.isnan(value), 0.0 if math.isnan(value) else value), min(keys)


def _sweep(blocks: list, basis: BasisEnumeration, labels) -> DefectReport:
    """The relative defects |lhs - rhs| / max(|lhs|, |rhs|, 1) of an identity over ``blocks`` (shape, lhs,
    rhs, key): each side one array (copied) or two (multiplied), of the block's ndim and broadcast over it;
    ``key(*index)`` gives the keys (``basis`` index of each word, label index) of positions.  Blocks fill
    three reused buffers of ``SWEEP_FLOATS`` floats (cut by ``_cut_block`` if larger), one ``_defect_pass``
    each.  The witness is the smallest key of the worst defect, NaN (inf - inf) the worst."""
    buffers, placed, fill, passes, checks = np.empty((3, SWEEP_FLOATS)), [], 0, [], 0
    for block in blocks:
        for shape, lhs, rhs, key in [block] if math.prod(block[0]) <= SWEEP_FLOATS else _cut_block(*block):
            size = math.prod(shape)
            if fill + size > SWEEP_FLOATS:
                passes.append(_defect_pass(buffers, fill, placed))
                placed, fill = [], 0
            for buffer, side in zip(buffers, (lhs, rhs)):
                out = buffer[fill: fill + size].reshape(shape)
                if len(side) == 2:
                    np.multiply(*side, out=out)
                else:
                    out[...] = side[0]
            placed.append((fill, shape, key))
            fill, checks = fill + size, checks + size
    passes.append(_defect_pass(buffers, fill, placed))
    worst = max(rank for rank, _ in passes)
    if worst == (False, 0.0):
        return DefectReport(0.0, None, checks)
    *words, label = min(key for rank, key in passes if rank == worst)
    return DefectReport(math.nan if worst[0] else worst[1], (labels[label], *map(basis.word_at, words)), checks)


def check_cocycles(ws: WeightSystem, mu: MuSystem | None, depth: int) -> DefectReport:
    """Sweep both cocycle identities over all triples with |u|+|v|+|w| <= depth:

        W(u, v*w)    = W(w*u, v) * W(u, w)
        W_mu(u, v*w) = W_mu(u, v) * W_mu(u*v, w)

    ``mu`` None means ``ws.kept_commutant_mu()``.  Per law and length s of the word y both sides
    share, w*u (u*v), a block [|u|, k, rank y] holds the columns x*y of the stacked total-length
    table T (``_total_tables``), x = v (w) of graded-lex index k, the words of W_mu read from the
    right: its left side is their rows T[:s+1], its right one broadcast product of their row s and
    the rows T[:s+1] of y, for ``_sweep``.  More than ``MAX_SWEEP_WORDS`` triples raise
    ``ValueError`` before any table is built.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = ws.n
    _sweep_guard(n, depth)
    mu = ws.kept_commutant_mu() if mu is None else mu
    basis = BasisEnumeration(n, depth)
    offsets, end = np.array(basis.level_offsets), basis.dimension
    turned = np.concatenate([offsets[t] + np.arange(n**t).reshape((n,) * t).T.ravel() for t in range(depth + 1)])

    def key(law, s, a, k, y):  # y = rank w n^a + rank u; for W_mu those of v and u, read from the right
        u, x = offsets[a] + y % n**a, offsets[s - a] + y // n**a
        return (u, k, x, 0) if law == 0 else (turned[u], turned[x], turned[k], 1)
    with np.errstate(over="ignore", invalid="ignore"):  # products overflow as the scalar ones do
        left = _kept_levels(ws, "_left_tables", depth, partial(_total_tables, ws.kept_lambda_levels, append=False))
        right = _kept_levels(mu, "_right_tables", depth, partial(_total_tables, mu.kept_mu_levels, append=True))
        blocks = []
        for law, table in enumerate((left, right)):
            for s, start in enumerate(basis.level_offsets[:-1]):
                shape = (s + 1, (end - start) // n**s, n**s)
                rhs = (table[s, start:end].reshape(1, *shape[1:]), table[: s + 1, None, start: start + n**s])
                blocks.append((shape, (table[: s + 1, start:end].reshape(shape),), rhs, partial(key, law, s)))
        return _sweep(blocks, basis, ("left", "right"))


def check_intertwining(ws: WeightSystem, depth: int) -> DefectReport:
    """Sweep the intertwining identity mu_{i,v} W(v*i, w) = mu_{i,w*v} W(v, w)
    over all i, v, w with |v| + |w| + 1 <= depth.

    Per a = |v|, a block [k, rank v, i] holds every w, of graded-lex index k: its left side one
    broadcast product of row a + 1 of the stacked total-length table T (``_total_tables``) over the
    words w*v*i and mu_{i,v}, its right one of row a over the words w*v and the mu levels a .. depth - 1
    of ``ws.kept_commutant_mu()`` stacked as rows, for ``_sweep``.  More than ``MAX_SWEEP_WORDS``
    triples raise ``ValueError`` before any table is built.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    n = ws.n
    _sweep_guard(n, depth - 1, lambda k: (k + 1) * n)
    basis = BasisEnumeration(n, depth)
    offsets = basis.level_offsets
    with np.errstate(over="ignore", invalid="ignore"):
        left = _kept_levels(ws, "_left_tables", depth, partial(_total_tables, ws.kept_lambda_levels, append=False))
        mu = np.concatenate([level.T for level in ws.kept_commutant_mu().kept_mu_levels(depth - 1)])
        blocks = []
        for a, (start, stop) in enumerate(zip(offsets[:depth], offsets[1:])):
            shape = ((offsets[depth] - start) // n**a, n**a, n)  # w*v of rank (rank w) n^a + rank v
            lhs = (left[a + 1, stop: offsets[-1]].reshape(shape), mu[start:stop][None])
            rhs = (left[a, start: offsets[depth]].reshape(*shape[:2], 1), mu[start:].reshape(shape))
            blocks.append((shape, lhs, rhs, partial(lambda start, k, v, i: (start + v, k, i), start)))
        return _sweep(blocks, basis, range(1, n + 1))


# ---------------------------------------------------------------------------
# the commutant boundedness condition
# ---------------------------------------------------------------------------


@record
class Condition6Report:
    """The exact supremum ``value`` of W(i,w)/W(e,w) over |w| <= depth, and the
    ``verdict`` decided on the family's automaton, ``bounded`` or ``diverging``
    (``bounded_so_far`` without one); ``certificate`` carries the reasoning
    (exact supremum, or the cycle whose ratios grow geometrically)."""

    value: float
    verdict: str
    witness: tuple[int, Word] | None
    certificate: dict


def _sweep_guard(n: int, depth: int, per_word=lambda k: math.comb(k + 2, 2)) -> None:
    # per_word(k) triples for each word of length k <= depth; by default the cocycle sweep's, which check runs first
    total = sum(per_word(k) * n**k for k in range(depth + 1))
    if total > MAX_SWEEP_WORDS:
        raise ValueError(f"sweep over {total} triples exceeds the {MAX_SWEEP_WORDS} guard; lower depth or n")


def _enumerated_sup(ws: WeightSystem, depth: int) -> tuple[float, tuple[int, Word]]:
    basis = BasisEnumeration(ws.n, depth)  # the word guard refuses before any weight is read
    # rank-major, letter-minor: argmax keeps the first maximum in sweep order
    ratios = np.concatenate([level.T.ravel() for level in ws.kept_commutant_mu().kept_mu_levels(depth)])
    best = int(np.argmax(ratios))
    index, letter = divmod(best, ws.n)
    return float(ratios[best]), (letter + 1, basis.word_at(index))


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
        level = reached[seen[np.minimum(at, seen.size - 1)] != reached]
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
    """Finite-range proxy for the semisimplicity constant, an infimum over all
    words of a liminf over all powers: restricted to |v| <= max_v_len and roots
    of order k in [max_k/2, max_k], exact only for eventually constant right weights."""

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
    mu = source.kept_commutant_mu() if isinstance(source, WeightSystem) else source
    mu.require_bounded()
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
        return PrefixWeights(mu.n, mu.cutoff + 1, _append_tables(mu, 1, None, mu.cutoff + 1))
    for i in range(1, mu.n + 1):
        if abs(mu.mu_of(i, EMPTY) - 1.0) > 1e-12:
            raise ValueError(f"right weights must be normalized: mu_({i}, e) != 1")
    return TabulatedWeights(mu.n, depth, _append_tables(mu, 1, None, depth))
