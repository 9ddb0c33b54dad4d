import numpy as np
import pytest

from fockshift import BasisEnumeration, Word, eval_word, parse_word
from fockshift.words import EMPTY, append, level_labels, prepend, validate_word


def test_concat_unit_laws():
    w = parse_word("21")
    assert EMPTY * w == w
    assert w * EMPTY == w
    assert str(w * w) == "2121"
    assert str(parse_word("1") * parse_word("2")) == "12"


def test_concat_associative():
    u, v, w = parse_word("12"), parse_word("2"), parse_word("211")
    assert (u * v) * w == u * (v * w)
    assert len(u * w) == len(u) + len(w)


def test_prepend_append():
    w = parse_word("21")
    assert str(prepend(1, w)) == "121"
    assert str(append(w, 1)) == "211"


def test_letters_validated():
    with pytest.raises(ValueError):
        Word([0])
    with pytest.raises(ValueError):
        validate_word(parse_word("3"), 2)
    with pytest.raises(ValueError):
        parse_word("13", n=2)


def test_string_forms():
    assert str(EMPTY) == "e"
    assert parse_word("e") == EMPTY
    assert parse_word("112") == Word([1, 1, 2])
    big = Word([3, 12, 255])
    assert str(big) == "3.12.255"
    assert parse_word("3.12.255") == big
    with pytest.raises(ValueError):
        parse_word("1a2")


def test_enumeration_dimensions():
    assert BasisEnumeration(2, 1).dimension == 3
    assert BasisEnumeration(2, 3).dimension == 15
    assert BasisEnumeration(3, 2).dimension == 13
    assert BasisEnumeration(1, 5).dimension == 6
    with pytest.raises(ValueError):
        BasisEnumeration(0, 3)


def test_enumeration_order_and_roundtrip():
    basis = BasisEnumeration(2, 4)
    words = list(basis.words())
    assert len(words) == basis.dimension
    assert words[0] == EMPTY
    assert [str(w) for w in words[1:7]] == ["1", "2", "11", "12", "21", "22"]
    for idx, w in enumerate(words):
        assert basis.index_of(w) == idx
        assert basis.word_at(idx) == w
    # shorter words sort first
    for u in words:
        for w in words:
            if len(u) < len(w):
                assert basis.index_of(u) < basis.index_of(w)


@pytest.mark.parametrize("n, depth", [(1, 0), (1, 9), (2, 0), (2, 8), (3, 5), (10, 3), (11, 3)])
def test_level_labels_match_word_strings(n, depth):
    labels = level_labels(n, depth)
    basis = BasisEnumeration(n, depth)
    assert labels == [[str(w) for w in basis.level_words(k)] for k in range(depth + 1)]
    if n >= 10:
        # words with no letter above 9 stay plain, the others are dot-joined
        assert labels[2][:2] == ["11", "12"] and labels[2][9] == "1.10"
        assert labels[3][-1] == f"{n}.{n}.{n}"


def test_level_slices_contiguous():
    basis = BasisEnumeration(3, 3)
    for k in range(4):
        sl = basis.level_slice(k)
        assert sl.stop - sl.start == 3**k
        for idx in range(sl.start, sl.stop):
            assert len(basis.word_at(idx)) == k


def test_eval_word_examples():
    assert eval_word(EMPTY, (0.3, 0.7)) == 1
    assert eval_word(parse_word("21"), (0.5, 0.2)) == pytest.approx(0.1)
    z = 0.3 + 0.4j
    for k in range(5):
        assert eval_word(Word([1] * k), (z, 0)) == pytest.approx(z**k)


def test_eval_word_multiplicative():
    rng = np.random.default_rng(0)
    basis = BasisEnumeration(2, 3)
    words = list(basis.words())
    point = tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    for v in words:
        for w in words:
            assert eval_word(v * w, point) == pytest.approx(
                eval_word(v, point) * eval_word(w, point)
            )


def test_eval_word_modulus_depends_on_moduli_only():
    rng = np.random.default_rng(1)
    moduli = (0.7, 1.3)
    w = parse_word("12212")
    values = set()
    for _ in range(10):
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2))
        point = tuple(m * p for m, p in zip(moduli, phases))
        values.add(round(abs(eval_word(w, point)), 12))
    assert len(values) == 1
    assert abs(eval_word(w, moduli)) == pytest.approx(next(iter(values)))
