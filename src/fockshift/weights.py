"""Weight systems on the Fock-space tree and their weight functions.

A weight system assigns a strictly positive scalar to every edge of the tree:
``lambda_of(i, w)`` weights the edge from the basis vector at ``w`` to the one
at ``i*w``; ``lambda_levels`` gives them as one array per level.  The table
families, ``TableMu`` included, hold their tables as read-only level arrays
``levels[i-1][k]``, built once, at construction.  From the weights derive the
left weight function W(u, w) (products of edge weights down the tree), the
commutant weights mu, and the right weight function W_mu.  This module also
houses the identities and conditions those functions satisfy: both cocycle
laws, the intertwining identity, the boundedness condition governing the
commutant description, a finite-range semisimplicity estimate, and the
generation of left weights from prescribed right weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .words import EMPTY, BasisEnumeration, Word, append, parse_word, prepend

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
    """Read-only level arrays [i-1][k] of a (letter, word) table, for |w| = k <= depth
    in graded-lex order; the first entry missing or not strictly positive, word
    by word and letter by letter, raises ValueError."""
    basis = BasisEnumeration(n, depth)
    values = []
    for w in basis.words():
        for i in range(1, n + 1):
            if (i, w) not in table:
                raise ValueError(f"missing {entry} for ({i}, {w})")
            values.append(_check_positive(table[(i, w)], f"{what} ({i}, {w})"))
    by_letter = np.array(values).reshape(-1, n).T.copy()
    by_letter.setflags(write=False)  # the families hand these arrays out as they are
    return [np.split(row, basis.level_offsets[1:-1]) for row in by_letter]


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

    def lambda_levels(self, i: int, depth: int) -> list[np.ndarray]:
        """lambda_{i,w} for every |w| <= depth, one array per level in graded-lex order."""
        raise NotImplementedError

    def _check_letter(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise ValueError(f"letter {i} outside [1, {self.n}]")

    # Exact infimum of lambda_{i,.}, when the family structure decides it.
    def exact_min_weight(self, i: int) -> float | None:
        return None


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

    def lambda_levels(self, i: int, depth: int) -> list[np.ndarray]:
        self._check_letter(i)
        return [np.full(self.n**k, self.value) for k in range(depth + 1)]

    def exact_min_weight(self, i: int) -> float:
        return self.value


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

    def lambda_levels(self, i: int, depth: int) -> list[np.ndarray]:
        self._check_letter(i)
        return [np.full(self.n**k, self.scales[i - 1]) for k in range(depth + 1)]

    def exact_min_weight(self, i: int) -> float:
        return self.scales[i - 1]


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

    def lambda_levels(self, i: int, depth: int) -> list[np.ndarray]:
        self._check_letter(i)
        head = self.levels[i - 1][: depth + 1]
        return head + [np.full(self.n**k, self.tail[i - 1]) for k in range(self.cutoff + 1, depth + 1)]

    def exact_min_weight(self, i: int) -> float:
        return min(min(float(level.min()) for level in self.levels[i - 1]), self.tail[i - 1])


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

    def lambda_levels(self, i: int, depth: int) -> list[np.ndarray]:
        # the remainder prefix of the rank-r word at level k has rank r // n^(k - k mod p)
        self._check_letter(i)
        remainders, n, p = self.levels[i - 1], self.n, self.period
        return [remainders[k % p][np.arange(n**k) // n ** (k - k % p)] for k in range(depth + 1)]

    def exact_min_weight(self, i: int) -> float:
        return min(float(level.min()) for level in self.levels[i - 1])


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

    def lambda_levels(self, i: int, depth: int) -> list[np.ndarray]:
        self._check_letter(i)
        levels = [np.full(2**k, self.c) for k in range(depth + 1)]
        if i == 1:
            # rank 0 is the run 1^k, rank 1 the word 1^(k-1) 2
            for k, level in enumerate(levels):
                level[0] = 1.0 / self.m
                if k > 0:
                    level[1] = 1.0 / math.sqrt(self.m)
        return levels

    def exact_min_weight(self, i: int) -> float:
        if i == 1:
            return min(1.0 / self.m, 1.0 / math.sqrt(self.m), self.c)
        return self.c


@dataclass(frozen=True, eq=False)
class TabulatedWeights(WeightSystem):
    """Explicitly tabulated weights ``levels[i-1][k]`` (made read-only) for base
    words up to a depth; queries beyond the table are an error."""

    n: int
    depth: int
    levels: list[list[np.ndarray]]

    def __post_init__(self):
        for level in (level for levels in self.levels for level in levels):
            level.setflags(write=False)

    def lambda_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        if len(w) > self.depth or any(letter > self.n for letter in w.letters):
            raise ValueError(f"weight ({i}, {w}) not tabulated (table depth {self.depth})")
        rank = sum((letter - 1) * self.n**p for p, letter in enumerate(reversed(w.letters)))
        return float(self.levels[i - 1][len(w)][rank])

    def lambda_levels(self, i: int, depth: int) -> list[np.ndarray]:
        self._check_letter(i)
        if depth > self.depth:
            self.lambda_of(i, Word([1] * (self.depth + 1)))  # raises: the first word past the table
        return self.levels[i - 1][: depth + 1]


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

    def mu_levels(self, i: int, depth: int) -> list[np.ndarray]:
        """mu_{i,w} for every |w| <= depth, one array per level in graded-lex order."""
        raise NotImplementedError


@dataclass(frozen=True)
class CommutantMu(MuSystem):
    """The commutant weights mu_{i,w} = W(i,w) / W(e,w) of a weight system."""

    weights: WeightSystem

    @property
    def n(self) -> int:
        return self.weights.n

    def mu_of(self, i: int, w: Word) -> float:
        return commutant_mu(self.weights, i, w)

    def mu_levels(self, i: int, depth: int) -> list[np.ndarray]:
        """The ratio recursion of ``commutant_mu``, one level at a time: the
        word j*w has rank (j-1) n^k + r, and w*i sits at rank r n + i-1."""
        ws = self.weights
        ws._check_letter(i)
        n = ws.n
        lams = [ws.lambda_levels(j, depth) for j in range(1, n + 1)]
        levels = [np.ones(1)]
        for k in range(depth):
            mu = levels[-1]
            appended = np.arange(n**k) * n + (i - 1)
            levels.append(np.concatenate([mu * lam[k + 1][appended] / lam[k] for lam in lams]))
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
        for i, letter_levels in enumerate(levels, start=1):
            if letter_levels[0][0] != 1.0:
                raise ValueError(f"right weights must be normalized: mu_({i}, e) != 1")
        object.__setattr__(self, "levels", levels)

    _check_letter = WeightSystem._check_letter

    def mu_of(self, i: int, w: Word) -> float:
        self._check_letter(i)
        if len(w) <= self.cutoff:
            return self.entries[(i, w)]
        return self.fill

    def mu_levels(self, i: int, depth: int) -> list[np.ndarray]:
        self._check_letter(i)
        head = self.levels[i - 1][: depth + 1]
        return head + [np.full(self.n**k, self.fill, dtype=float) for k in range(self.cutoff + 1, depth + 1)]


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
    total = 1.0
    base = v
    for letter in w.letters:
        total *= mu.mu_of(letter, base)
        base = append(base, letter)
    return total


def log_right_weight(mu: MuSystem, v: Word, w: Word) -> float:
    total = 0.0
    base = v
    for letter in w.letters:
        total += math.log(mu.mu_of(letter, base))
        base = append(base, letter)
    return total


def mu_table(ws: WeightSystem, depth: int) -> dict[tuple[int, Word], float]:
    """Tabulate the commutant weights for all base words up to ``depth``,
    keyed by (letter, word): words in graded-lex order, letters in order."""
    mu = CommutantMu(ws)
    per_letter = [mu.mu_levels(i, depth) for i in range(1, ws.n + 1)]
    basis = BasisEnumeration(ws.n, depth)
    table: dict[tuple[int, Word], float] = {}
    for k in range(depth + 1):
        rows = [levels[k].tolist() for levels in per_letter]
        for r, w in enumerate(basis.level_words(k)):
            for i, row in enumerate(rows, start=1):
                table[(i, w)] = row[r]
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
    lams = [ws.lambda_levels(j, max(depth - 1, 0)) for j in range(1, n + 1)]
    tables = [[np.ones((1, n**a))] for a in range(depth + 1)]
    for a, row in enumerate(tables):
        for b in range(min(depth - a, longest)):
            row.append(np.concatenate([row[b] * lam[a + b].reshape(n**b, n**a) for lam in lams]))
    return tables


def _right_tables(mu: MuSystem, depth: int) -> list[list[np.ndarray]]:
    """The right table: [a][b] holds W_mu(v, w) for |v| = a, |w| = b <= depth - a
    at [rank v, rank w], by the recursion W_mu(v, w*j) = W_mu(v, w) mu_{j,v*w} of
    ``right_weight``; w*j has rank rank w n + j-1, v*w rank v n^b + rank w."""
    n = mu.n
    mus = [mu.mu_levels(j, max(depth - 1, 0)) for j in range(1, n + 1)]
    tables = [[np.ones((n**a, 1))] for a in range(depth + 1)]
    for a, row in enumerate(tables):
        for b in range(depth - a):
            row.append(np.stack([row[b] * m[a + b].reshape(n**a, n**b) for m in mus], axis=2).reshape(n**a, -1))
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
    family decision procedure.

    ``value`` is the exact supremum over |w| <= depth.  ``verdict`` is
    ``bounded`` or ``diverging`` when the family admits an exact decision and
    ``bounded_so_far`` otherwise; ``certificate`` carries the reasoning
    (exact supremum, or the pumping path whose ratios grow geometrically).
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
    mu = CommutantMu(ws)
    per_letter = [mu.mu_levels(i, depth) for i in range(1, ws.n + 1)]
    basis = BasisEnumeration(ws.n, depth)
    best = 0.0
    witness = (1, EMPTY)
    for k in range(depth + 1):
        # rank-major, letter-minor: argmax keeps the first maximum in sweep order
        ratios = np.stack([levels[k] for levels in per_letter], axis=1).ravel()
        idx = int(np.argmax(ratios))
        if ratios[idx] > best:
            rank, letter = divmod(idx, ws.n)
            best, witness = float(ratios[idx]), (letter + 1, basis.word_at(basis.level_offsets[k] + rank))
    return best, witness


def _two_letter_decision(ws: TwoLetterRunWeights) -> tuple[str, dict]:
    growth_run = math.sqrt(ws.m)  # per-letter ratio growth along 1-runs for i = 2
    growth_tail = ws.c * math.sqrt(ws.m)  # per-letter growth along words ending in 2
    if growth_run > 1.0:
        return DIVERGING, {
            "path": "1^k",
            "letter": 2,
            "per_step_factor": growth_run,
            "reason": "W(2,1^k)/W(e,1^k) = m^(k/2)",
        }
    if growth_tail > 1.0:
        return DIVERGING, {
            "path": "1^k 2",
            "letter": 1,
            "per_step_factor": growth_tail,
            "reason": "W(i,1^k 2)/W(e,1^k 2) = (c sqrt(m))^k",
        }
    return BOUNDED, {"exact_sup": 1.0, "method": "closed forms of the two-letter family"}


def _periodic_decision(ws: PeriodicWeights) -> tuple[str, dict]:
    k, n = ws.period, ws.n
    if k == 1:
        return BOUNDED, {"exact_sup": 1.0, "method": "period-1 weights depend only on the letter"}
    num = k * n ** (k - 1)
    if num > MAX_AUTOMATON_STATES:
        raise ValueError(f"remainder automaton with {num} states exceeds the guard")

    # transient: the ratios for all |w| <= k-1, one mu_levels call per letter
    per_letter = [CommutantMu(ws).mu_levels(i, k - 1) for i in range(1, n + 1)]
    transient_best = max(float(level.max()) for levels in per_letter for level in levels)

    # recurrent states p k + r, for p the rank of the first k-1 letters of w and r = |w| mod k;
    # prepending a multiplies the ratio by remainders[a, new prefix] / remainders[a, old prefix].
    # The length-r prefix of p has rank p // n^(k-1-r); a*p cut to k-1 letters, ((a-1) n^(k-1) + p) // n.
    prefixes = n ** (k - 1)
    remainders = [[level.tolist() for level in levels] for levels in ws.levels]
    edges = []  # (src, dst, log multiplier)
    for p in range(prefixes):
        for r in range(k):
            r_next = (r + 1) % k
            for a in range(1, n + 1):
                dst = (((a - 1) * prefixes + p) // n) * k + r_next
                num_w = remainders[a - 1][r_next][p // n ** (k - 1 - r_next)]
                den_w = remainders[a - 1][r][p // n ** (k - 1 - r)]
                edges.append((p * k + r, dst, math.log(num_w) - math.log(den_w)))

    neg_inf = float("-inf")
    best = [neg_inf] * num
    # the level k-1 words enter at residue k-1
    seeds = [levels[k - 1].tolist() for levels in per_letter]
    for p in range(prefixes):
        best[p * k + k - 1] = max(math.log(ratios[p]) for ratios in seeds)
    overall = max(v for v in best if v > neg_inf)

    # Bellman-Ford value iteration: with every cycle ratio <= 1, path maxima
    # settle within num rounds; a further improving round certifies a cycle
    # with ratio > 1 and hence divergence.
    tol = 1e-12
    for sweep in range(num + 1):
        nxt = list(best)
        improved = False
        for src, dst, logw in edges:
            if best[src] == neg_inf:
                continue
            cand = best[src] + logw
            if cand > nxt[dst] + tol:
                nxt[dst] = cand
                improved = True
        best = nxt
        overall = max(overall, max(v for v in best if v > neg_inf))
        if not improved:
            break
    else:
        improved = True
    if improved:
        return DIVERGING, {
            "method": "remainder automaton holds a cycle with ratio product > 1",
            "states": num,
        }
    return BOUNDED, {
        "exact_sup": max(transient_best, math.exp(overall)),
        "method": "remainder automaton max-cycle-ratio check",
        "states": num,
    }


def _decide_condition6(ws: WeightSystem) -> tuple[str, dict]:
    if isinstance(ws, (ConstantWeights, ScaledWeights)):
        return BOUNDED, {"exact_sup": 1.0, "method": "weights do not depend on the base word"}
    if isinstance(ws, FinitePerturbationWeights):
        sup, _ = _enumerated_sup(ws, ws.cutoff + 1)
        return BOUNDED, {
            "exact_sup": sup,
            "method": f"ratio factors cancel beyond length {ws.cutoff + 1}",
        }
    if isinstance(ws, TwoLetterRunWeights):
        return _two_letter_decision(ws)
    if isinstance(ws, PeriodicWeights):
        return _periodic_decision(ws)
    if isinstance(ws, TabulatedWeights):
        return BOUNDED_SO_FAR, {"inspected_depth": ws.depth}
    return BOUNDED_SO_FAR, {}


def condition6_sup(ws: WeightSystem, depth: int) -> Condition6Report:
    """Supremum of the commutant ratios W(i,w)/W(e,w) over |w| <= depth,
    together with the per-family boundedness verdict.

    Constant and scaled families are trivially bounded with supremum 1; the
    finite-perturbation ratios stabilize past the cutoff; the two-letter run
    family is decided by its closed forms; and periodic families are decided
    by a max-cycle-ratio check on the finite automaton of remainder-prefix
    states.  Tabulated systems can only report ``bounded_so_far``.
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
            log_base = log_right_weight(mu, EMPTY, v)
            inner = min(
                log_right_weight(mu, v, v ** (k - 1)) / k for k in range(k_lo, max_k + 1)
            )
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
    # w*j has rank r n + j-1, and i*w sits at rank (i-1) n^k + r
    n = mu.n
    mus = [mu.mu_levels(j, depth) for j in range(1, n + 1)]
    per_letter = []
    for i in range(1, n + 1):
        levels = [np.ones(1)]
        for k in range(depth):
            prepended = (i - 1) * n**k + np.arange(n**k)
            levels.append(np.stack([levels[k] * m[k + 1][prepended] / m[k] for m in mus], axis=1).ravel())
        per_letter.append(levels)
    return TabulatedWeights(n, depth, per_letter)
