"""The frontier kernel: level sums word by word in log space, the test
oracle for the transfer-matrix propagation ``eigen._propagate``.

It carries the doubled terms 2 log(r(w)/W(e,w)), exactly, since doubling a
float only changes its exponent, and extends each level one letter at a
time, so every numpy loop runs over a whole level of words.  Points go in
blocks of about BLOCK_FLOATS terms at the deepest level, each row with the
same float operations whatever its block.  A level sum past the float range
is inf.  ``stepped_level_sums`` is the propagation itself with every
level's edge flows formed anew: the oracle its bits are compared with.
"""

import math

import numpy as np

MAX_DP_WORDS = 1 << 21
# region grids sum this many terms at a time: 256 KiB per level array
BLOCK_FLOATS = 1 << 15


def kernel_level_sums(ws, moduli, depth: int) -> np.ndarray:
    """The kernel's level sums for a sequence of points, one row each."""
    return _level_sums_block(_log_tables(ws, depth), np.array(moduli, dtype=float).reshape(-1, ws.n), depth)


def _log_tables(ws, depth: int) -> list[np.ndarray]:
    """2 log lambda_{i,w} for |w| < depth, one (n, n^k) table per level k with
    row i-1 and words in frontier order, the order in which prepending
    builds them: i*w follows w at position p n + i-1, the graded-lex rank of
    the reversed word."""
    n = ws.n
    total_words = sum(n**k for k in range(depth + 1))
    if total_words > MAX_DP_WORDS:
        raise ValueError(f"level enumeration of {total_words} words exceeds the {MAX_DP_WORDS} guard")
    tables = []
    ranks = np.zeros(1, dtype=np.int64)  # the word's own rank at each frontier position
    for k, level in enumerate(ws.lambda_levels(depth - 1)):
        tables.append(2.0 * _exact_logs(level)[:, ranks])
        ranks = (ranks[:, None] + np.arange(n) * n**k).ravel()
    return tables


def _level_sums_block(log_lams: list[np.ndarray], moduli: np.ndarray, depth: int) -> np.ndarray:
    """Level sums for a (P, n) array of moduli, one row per point, in blocks of
    about BLOCK_FLOATS terms at the deepest level that share one set of work
    arrays.  Level k extends each doubled frontier term of level k-1 by
    2 log r_i - 2 log lambda_{i,w}, letter i into column i-1 of a (points,
    n^(k-1), n) view; a row's float operations do not depend on its block."""
    n = moduli.shape[1]
    log_moduli = 2.0 * np.array([[math.log(r) if r > 0 else -math.inf for r in row] for row in moduli.tolist()])
    block = max(1, BLOCK_FLOATS // n**depth)
    size = min(block, len(moduli)) * n**depth
    terms, nxt, shifted = np.empty(size), np.empty(size), np.empty(size)
    sums = np.empty((len(moduli), depth + 1))
    sums[:, 0] = 1.0
    for start in range(0, len(moduli), block):
        rows = log_moduli[start:start + block]
        points = len(rows)
        terms[:points] = 0.0  # level 0: the term of e is 0
        for k in range(1, depth + 1):
            width = n**k
            level = nxt[: points * width].reshape(points, width // n, n)
            prev = terms[: points * width // n].reshape(points, width // n)
            for i in range(n):
                column = level[:, :, i]
                np.subtract(rows[:, i, None], log_lams[k - 1][i], out=column)
                np.add(prev, column, out=column)
            logs = level.reshape(points, width)
            peaks = np.max(logs, axis=1)
            peaks[peaks == -math.inf] = 0.0  # every term -inf: the sum is 0
            scaled = shifted[: points * width].reshape(points, width)
            np.exp(np.subtract(logs, peaks[:, None], out=scaled), out=scaled)
            totals = np.sum(scaled, axis=1).tolist()
            sums[start:start + points, k] = [_scaled(peak, total) for peak, total in zip(peaks.tolist(), totals)]
            terms, nxt = nxt, terms
    return sums


def _scaled(peak: float, total: float) -> float:
    """exp(peak) * total, inf past the float range."""
    try:
        return math.exp(peak) * total
    except OverflowError:
        return math.inf


def _exact_logs(values: np.ndarray) -> np.ndarray:
    """Elementwise math.log, which np.log can miss by an ulp, taken once per
    distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([math.log(v) for v in distinct.tolist()])[inverse].reshape(values.shape)


def stepped_level_sums(steps, moduli: np.ndarray) -> np.ndarray:
    """The level sums of ``eigen._propagate`` on its transfer steps with every
    level's edge flows formed anew from its step, all points in one block
    with the last point once more, so that even one point is summed over two
    columns, row by row: the same float operations on every row that a block
    of two or more points takes."""
    count, moduli = len(moduli), np.concatenate([moduli, moduli[-1:]])
    squares = np.square(moduli.T)
    sums = np.ones((len(moduli), len(steps) + 1))
    mass, exponent, lost = np.ones((1, len(moduli))), 0, np.zeros(len(moduli), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, (source, letter, weight, heads) in enumerate(steps, start=1):
            mass = np.add.reduceat(mass[source] * (squares[letter] * weight[:, None]), heads, axis=0)
            peak = mass.max(axis=0)
            lost |= ~np.isfinite(peak)
            mass[:, lost] = 0.0
            shift = np.frexp(peak)[1]
            mass, exponent = np.ldexp(mass, -shift), exponent + shift.astype(np.int64)
            sums[:, k] = np.where(lost, math.inf, np.ldexp(mass.sum(axis=0), exponent))
    return sums[:count]
