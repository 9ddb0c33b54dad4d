"""Free-semigroup words and the graded enumeration of the truncated Fock basis."""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Sequence

MAX_ALPHABET = 255
# the most words of length <= depth that any stage enumerates: the one word guard
MAX_SWEEP_WORDS = 1 << 21


def _refuse(self, name, *value):  # a record's __setattr__ (one value) and __delattr__ (none)
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls=None, *, eq: bool = True):
    """The class as a frozen record, as ``dataclass(frozen=True, eq=eq)`` makes it, from
    closures: dataclasses compile their methods with ``exec`` at every import.  The fields
    are the annotations of its record bases, then its own; class attributes give defaults.
    ``__init__`` takes them by position or keyword, then calls ``__post_init__``, which sets
    attributes with ``object.__setattr__``; ``repr`` is the dataclass text; with ``eq``,
    records of one class compare and hash by their field tuples."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    names = tuple(dict.fromkeys([*getattr(cls, "_record_fields", ()), *cls.__dict__.get("__annotations__", ())]))
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    post_init, init = hasattr(cls, "__post_init__"), f"{cls.__qualname__}.__init__()"

    def bind(args: tuple, kwargs: dict) -> list:
        if len(args) > len(names):
            raise TypeError(f"{init} takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name not in kwargs and name not in defaults:
                raise TypeError(f"{init} missing required argument {name!r}")
            values.append(kwargs.pop(name) if name in kwargs else defaults[name])
        if kwargs:
            raise TypeError(f"{init} got an unexpected or repeated keyword argument {next(iter(kwargs))!r}")
        return values

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, args if len(args) == len(names) and not kwargs else bind(args, kwargs)):
            object.__setattr__(self, name, value)  # keeps the values inline, where attribute reads are fastest
        if post_init:
            self.__post_init__()

    def fields_of(self) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        return fields_of(self) == fields_of(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    cls._record_fields, cls.__init__, cls.__repr__ = names, __init__, __repr__
    cls.__setattr__ = cls.__delattr__ = _refuse
    if eq:
        cls.__eq__, cls.__hash__ = __eq__, lambda self: hash(fields_of(self))
    return cls


class Word:
    """A finite word over the alphabet {1..n}; the empty word is the unit.

    Letters are stored left to right, matching the string form, so that
    string concatenation realizes the semigroup product.  The basis vector
    for ``i * w`` is the one obtained by prepending the letter ``i`` to ``w``.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        data = bytes(letters)
        if 0 in data:
            raise ValueError("letters must lie in [1, 255]")
        self.letters = data

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, item):
        picked = self.letters[item]
        return Word(picked) if isinstance(item, slice) else picked

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            raise ValueError("negative word powers are undefined")
        return Word(self.letters * k)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __lt__(self, other: "Word") -> bool:
        # graded-lexicographic: shorter words first, then letterwise
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def __le__(self, other: "Word") -> bool:
        return self == other or self < other

    def __str__(self) -> str:
        return word_label(self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def word_label(letters: Sequence[int]) -> str:
    """``str(w)`` of the word with these letters, built without a ``Word``: digits
    up to 9, else dot-joined; a one-letter word above 9 keeps a trailing dot."""
    if not letters:
        return "e"
    if max(letters) <= 9:
        return "".join(str(b) for b in letters)
    return ".".join(str(b) for b in letters) + ("." if len(letters) == 1 else "")


EMPTY = Word()


def prepend(i: int, w: Word) -> Word:
    """The word i*w, indexing the target of the i-th left shift applied at w."""
    return Word(bytes([i]) + w.letters)


def append(w: Word, i: int) -> Word:
    """The word w*i, indexing the target of the i-th right shift applied at w."""
    return Word(w.letters + bytes([i]))


def parse_word(text: str, n: int | None = None) -> Word:
    """Parse the string form: 'e' is the unit, digits otherwise, dot-separated
    decimal tokens for alphabets larger than 9 ('11.' is the letter 11)."""
    text = text.strip()
    if text == "e" or text == "":
        return EMPTY
    if "." in text:
        letters = [int(tok) for tok in text.removesuffix(".").split(".")]
    else:
        if not text.isdigit():
            raise ValueError(f"malformed word {text!r}")
        letters = [int(ch) for ch in text]
    if any(l < 1 or l > MAX_ALPHABET for l in letters):
        raise ValueError(f"letters of {text!r} must lie in [1, {MAX_ALPHABET}]")
    w = Word(letters)
    if n is not None:
        validate_word(w, n)
    return w


def validate_word(w: Word, n: int) -> None:
    if any(l > n for l in w.letters):
        raise ValueError(f"word {w} uses letters outside [1, {n}]")


def eval_word(w: Word, point: Sequence[complex]) -> complex:
    """The product of the coordinates of ``point`` over the letters of w.

    The empty word evaluates to 1.
    """
    out = complex(1.0)
    for letter in w.letters:
        if letter > len(point):
            raise ValueError(f"word {w} uses letters outside [1, {len(point)}]")
        out *= point[letter - 1]
    return out


class BasisEnumeration:
    """Graded-lexicographic enumeration of all words of length <= depth.

    Level k occupies the contiguous index range [offset(k), offset(k+1)), so
    level projections are slices, and index 0 is the empty word.  More than
    ``MAX_SWEEP_WORDS`` words raise ValueError naming n, the depth and the
    dimension (a lower bound if the count passed the guard at a shallower
    level), so every stage that enumerates words is refused here, before it
    allocates anything.
    """

    def __init__(self, n: int, depth: int):
        if n < 1:
            raise ValueError("alphabet size must be at least 1")
        if n > MAX_ALPHABET:
            raise ValueError(f"alphabet size capped at {MAX_ALPHABET}")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self.n = n
        self.depth = depth
        offsets = [0]
        for k in range(depth + 1):  # counted only until the guard trips, so the message is short
            offsets.append(offsets[-1] + n**k)
            count = depth + 1 if n == 1 else offsets[-1]  # one word per level: n = 1 is refused at once
            if count > MAX_SWEEP_WORDS:
                size = count if n == 1 or k == depth else f"over {count}"
                raise ValueError(f"Fock space for n = {n}, depth = {depth} has dimension {size}, "
                                 f"above the {MAX_SWEEP_WORDS} guard; lower depth or n")
        self.level_offsets = offsets  # length depth + 2
        self.dimension = offsets[-1]

    def index_of(self, w: Word) -> int:
        k = len(w)
        if k > self.depth:
            raise ValueError(f"word {w} exceeds depth {self.depth}")
        validate_word(w, self.n)
        rank = 0
        for letter in w.letters:
            rank = rank * self.n + (letter - 1)
        return self.level_offsets[k] + rank

    def word_at(self, index: int) -> Word:
        if not 0 <= index < self.dimension:
            raise IndexError(f"index {index} outside [0, {self.dimension})")
        k = bisect_right(self.level_offsets, index) - 1
        rank = index - self.level_offsets[k]
        letters = bytearray(k)
        for pos in range(k - 1, -1, -1):
            rank, digit = divmod(rank, self.n)
            letters[pos] = digit + 1
        return Word(letters)

    def level_slice(self, k: int) -> slice:
        if not 0 <= k <= self.depth:
            raise ValueError(f"level {k} outside [0, {self.depth}]")
        return slice(self.level_offsets[k], self.level_offsets[k + 1])

    def level_words(self, k: int) -> Iterator[Word]:
        if k == 0:
            yield EMPTY
            return
        word = bytearray([1] * k)
        while True:
            yield Word(word)
            pos = k - 1
            while pos >= 0 and word[pos] == self.n:
                word[pos] = 1
                pos -= 1
            if pos < 0:
                return
            word[pos] += 1

    def words(self) -> Iterator[Word]:
        for k in range(self.depth + 1):
            yield from self.level_words(k)


def level_labels(n: int, depth: int) -> list[list[str]]:
    """``str(w)`` for every word of each level k <= depth, in graded-lex
    order, without building a ``Word``: level k appends each letter to level
    k-1, so w*j sits at rank r n + j-1."""
    letters = [str(j) for j in range(1, n + 1)]
    labels, plain, dotted = [["e"]], [""], [""]  # plain is None once a letter above 9 appears
    for k in range(depth):
        plain = [u + j if u is not None and len(j) == 1 else None for u in plain for j in letters]
        if n > 9:
            dotted = [u + "." + j if k else j for u in dotted for j in letters]
        suffix = "" if k else "."  # a one-letter word above 9 keeps a trailing dot, as in Word.__str__
        labels.append(plain if n <= 9 else [d + suffix if u is None else u for u, d in zip(plain, dotted)])
    return labels
