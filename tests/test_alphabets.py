from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from zpindex.alphabets import (
    circle_grid,
    cyclic_group,
    parse_alphabet,
    product_alphabet,
)
from zpindex.errors import ShapeError

Z3 = cyclic_group(3)
S8 = circle_grid(8)
S12 = circle_grid(12)
SMALL = [Z3, cyclic_group(2), cyclic_group(5), S8, S12, product_alphabet(Z3, cyclic_group(4))]


def test_group_op_examples():
    assert Z3.add(2, 2) == (1,)
    assert S8.sub(1, 5) == (4,)
    for x in range(3):
        assert Z3.sub(x, x) == (0,)


def test_metric_examples():
    assert Z3.metric(0, 2) == 1
    assert S8.metric(0, 5) == Fraction(3, 4)
    for a in SMALL:
        for e in a.all_elements():
            assert a.metric(e, e) == 0


def test_metric_against_exhaustive_table_q8():
    # every value is min(|i-j| mod 8, 8-(|i-j| mod 8)) quarter-steps
    for i, j in product(range(8), repeat=2):
        d = abs(i - j) % 8
        assert S8.metric(i, j) == Fraction(2 * min(d, 8 - d), 8)


def test_diameter_is_one():
    for a in SMALL:
        assert a.diameter == 1


@pytest.mark.parametrize("alpha", SMALL, ids=lambda a: a.factors[0].__class__.__name__ + str(tuple(f.order for f in a.factors)))
def test_metric_axioms_exhaustive(alpha):
    els = alpha.all_elements()
    assert len(els) <= 24
    for x in els:
        for y in els:
            d = alpha.metric(x, y)
            assert d == alpha.metric(y, x)
            assert (d == 0) == (x == y)
    for x in els:
        for y in els:
            dxy = alpha.metric(x, y)
            for z in els:
                assert dxy <= alpha.metric(x, z) + alpha.metric(z, y)


@given(st.data())
def test_translation_invariance(data):
    alpha = data.draw(st.sampled_from(SMALL))
    n = alpha.order
    a = alpha.unindex(data.draw(st.integers(0, n - 1)))
    b = alpha.unindex(data.draw(st.integers(0, n - 1)))
    g = alpha.unindex(data.draw(st.integers(0, n - 1)))
    assert alpha.metric(alpha.add(a, g), alpha.add(b, g)) == alpha.metric(a, b)


@given(st.data())
def test_index_unindex_roundtrip(data):
    alpha = data.draw(st.sampled_from(SMALL))
    i = data.draw(st.integers(0, alpha.order - 1))
    assert alpha.index(alpha.unindex(i)) == i


def test_circle_grid_thresholds_are_exact():
    # 1/2 and 1 are multiples of the grid step for 4 | q
    for q in (8, 12, 16):
        s = circle_grid(q)
        assert s.metric(0, q // 4) == Fraction(1, 2)
        assert s.metric(0, q // 2) == 1


def test_constructor_validation():
    with pytest.raises(ShapeError):
        cyclic_group(1)
    with pytest.raises(ShapeError):
        circle_grid(6)  # not a multiple of 4
    with pytest.raises(ShapeError):
        circle_grid(0)
    with pytest.raises(ShapeError):
        product_alphabet()


def test_element_validation():
    assert Z3.element(5) == (2,)
    assert S8.element((-1,)) == (7,)
    with pytest.raises(ShapeError):
        Z3.element((0, 1))
    with pytest.raises(ShapeError):
        product_alphabet(Z3, Z3).element(1)  # bare int is ambiguous


def test_tokens_roundtrip():
    for token in ("Z3", "S:q=8", "S^2:q=8"):
        assert parse_alphabet(token).token() == token
    with pytest.raises(ShapeError):
        parse_alphabet("Q5")
    s2 = parse_alphabet("S^2:q=8")
    assert s2.n_factors == 2 and s2.order == 64
    # max metric on the product
    assert s2.metric((0, 0), (1, 4)) == 1


def test_word_texts_read_one_head_text_per_alphabet(monkeypatch):
    from zpindex.alphabets import Alphabet
    from zpindex.shiftspaces import CyclicWord

    token, calls = Alphabet.token, []
    monkeypatch.setattr(Alphabet, "token", lambda self: calls.append(self) or token(self))
    for alpha in (cyclic_group(7), circle_grid(16), parse_alphabet("S^2:q=4")):
        words = [CyclicWord(alpha, tuple(alpha.unindex((3 * i + j) % alpha.order) for j in range(4)))
                 for i in range(5)]
        texts = [w.text() for w in words]
        assert texts[0] == f"{token(alpha)}:[" + ",".join(map(alpha.letter_text, words[0].letters)) + "]"
        assert len(set(texts)) == 5 and calls.count(alpha) == 1
