from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, strategies as st

from conftest import brute_sigma_words, brute_z_words
from zpindex.alphabets import circle_grid, cyclic_group
from zpindex.errors import ResourceCapError, ShapeError
from zpindex.shiftspaces import (
    AdjacentGap,
    CyclicWord,
    Separation,
    SubshiftSpec,
    mismatch_shift,
    neighbor_gap_shift,
    orbit_decompose,
    parse_word,
    periodic_point_complex,
)

Z3 = cyclic_group(3)
S8 = circle_grid(8)
SIGMA1 = mismatch_shift(1)
SIGMA2 = mismatch_shift(2)
ZQ8 = neighbor_gap_shift(S8, Fraction(1, 2))


def w3(*letters):
    return CyclicWord(Z3, tuple((x,) for x in letters))


def w8(*letters):
    return CyclicWord(S8, tuple((x,) for x in letters))


def test_satisfies_examples():
    assert SIGMA1.satisfies(w3(0, 1, 2))
    assert not SIGMA1.satisfies(w3(0, 0, 1))
    assert ZQ8.satisfies(w8(0, 4))  # gap 1 >= 1/2
    assert not ZQ8.satisfies(w8(0, 1))  # gap 1/4


def test_shift_examples():
    w = w3(0, 1, 2)
    assert w.shift(1) == w3(1, 2, 0)
    assert w.shift(w.period) == w


@given(st.integers(-9, 9), st.integers(-9, 9))
def test_shift_group_law(a, b):
    w = w3(0, 1, 0, 2, 1)
    assert w.shift(a).shift(b) == w.shift(a + b)


def test_shift_invariance_of_satisfies():
    words = [w3(0, 1, 2), w3(0, 0, 1), w8(0, 4, 1), w8(0, 4, 0, 4, 1)]
    for spec in (SIGMA1, SIGMA2, ZQ8):
        for w in words:
            if w.alphabet != spec.alphabet:
                continue
            for k in range(w.period):
                assert spec.satisfies(w) == spec.satisfies(w.shift(k))


def test_enumerate_sigma1():
    assert SIGMA1.enumerate_periodic(1) == ()
    words = SIGMA1.enumerate_periodic(3)
    assert len(words) == 6
    assert [w.text() for w in words[:2]] == ["Z3:[0,1,2]", "Z3:[0,2,1]"]
    assert {tuple(x[0] for x in w.letters) for w in words} == set(brute_sigma_words(1, 3))


def test_enumerate_recoding_matches_direct_and_brute():
    for p in (5, 7):
        rec = SIGMA2.enumerate_periodic(p, method="recoded")
        direct = SIGMA2.enumerate_periodic(p, method="direct")
        assert rec == direct
        assert len(rec) == len(brute_sigma_words(2, p))
    # non-coprime with recoding requested falls back to direct search
    assert SIGMA2.enumerate_periodic(2, method="recoded") == ()


def test_enumerate_z_family_matches_brute():
    for p in (2, 3):
        got = {tuple(x[0] for x in w.letters) for w in ZQ8.enumerate_periodic(p)}
        assert got == set(brute_z_words(8, p))


def test_count_matches_enumeration_exhaustively():
    specs = [
        SIGMA1,
        SIGMA2,
        mismatch_shift(3),
        SubshiftSpec(S8, Separation(1, Fraction(1, 2))),
        SubshiftSpec(S8, Separation(2, Fraction(1, 2))),
    ]
    for spec in specs:
        for p in range(1, 8):
            assert spec.count_periodic(p) == len(spec.enumerate_periodic(p))


def test_count_nonprime_cycle_decomposition():
    # step 3! = 6 on period 4 splits into gcd(6,4) = 2 cycles of length 2
    spec = mismatch_shift(3)
    assert spec.count_periodic(4) == len(brute_sigma_words(3, 4)) == 36


def test_proper_coloring_law():
    for L in range(2, 10):
        expected = 2**L + 2 * (-1) ** L
        assert SIGMA1.count_periodic(L) == expected
        if L <= 9:
            assert len(brute_sigma_words(1, L)) == expected


def test_count_rejects_adjacent_gap_family():
    with pytest.raises(ShapeError):
        ZQ8.count_periodic(3)


def test_recoding_bijection_cardinality():
    for p in (5, 7):
        assert SIGMA2.count_periodic(p) == SIGMA1.count_periodic(p)
        assert gcd(factorial(2), p) == 1


def test_orbit_decomposition():
    words = SIGMA1.enumerate_periodic(3)
    dec = orbit_decompose(words, 3)
    assert dec.n_orbits == 2 and dec.free and dec.witness is None
    assert all(len(o) == 3 for o in dec.orbits)

    dec5 = orbit_decompose(SIGMA1.enumerate_periodic(5), 5)
    assert dec5.n_orbits == 6 and dec5.free

    empty = orbit_decompose([], 5)
    assert empty.n_orbits == 0 and empty.free


def test_orbit_freeness_for_fixed_point_free_specs():
    for spec, ps in ((SIGMA1, (2, 3, 5, 7)), (SIGMA2, (3, 5, 7)), (ZQ8, (2, 3, 5))):
        for p in ps:
            words = spec.enumerate_periodic(p)
            if words:
                assert orbit_decompose(words, p).free


def test_orbit_negative_cases():
    const = w3(0, 0, 0)
    dec = orbit_decompose([const], 3)
    assert not dec.free and dec.witness == const

    with pytest.raises(ShapeError):
        orbit_decompose([w3(0, 1, 2), w3(0, 1, 0, 1, 2)], 3)  # mixed periods
    with pytest.raises(ShapeError):
        orbit_decompose([w3(0, 1, 2)], 3)  # not closed under the shift


def test_word_text_roundtrip():
    for w in (w3(0, 1, 2), w8(0, 4)):
        assert parse_word(w.text()) == w
    s2 = parse_word("S^2:q=8:[[0,4],[4,0]]")
    assert s2.period == 2 and s2.letters[0] == (0, 4)


def test_alphabet_mismatch_is_shape_error():
    with pytest.raises(ShapeError):
        SIGMA1.satisfies(w8(0, 4))


def test_node_cap():
    with pytest.raises(ResourceCapError):
        ZQ8.enumerate_periodic(5, node_cap=10)


def test_node_counts_are_exact():
    # the smallest caps that let each search finish: pair checks, recoded pair
    # checks, a split index cycle, and the adjacent-gap triples
    for spec, p, nodes in ((SIGMA1, 7, 570), (SIGMA2, 7, 570), (SIGMA2, 6, 309), (ZQ8, 3, 584)):
        assert spec.enumerate_periodic(p, node_cap=nodes)
        with pytest.raises(ResourceCapError):
            spec.enumerate_periodic(p, node_cap=nodes - 1)


def test_deep_search_reaches_a_cap_not_the_recursion_limit():
    # one search level per letter: period 1500 is deeper than Python's recursion limit
    with pytest.raises(ResourceCapError, match="node cap"):
        SIGMA1.enumerate_periodic(1500, node_cap=10**4)
    # 2^1500 words: the search stops once its words would pass 10^7 letters
    with pytest.raises(ResourceCapError, match=r"6666 words of 1500 letters.*\(10000000 letters\)"):
        SIGMA1.enumerate_periodic(1500)


def test_spec_validation():
    with pytest.raises(ShapeError):
        SubshiftSpec(Z3, Separation(0, Fraction(1, 2)))
    with pytest.raises(ShapeError):
        SubshiftSpec(Z3, Separation(1, Fraction(3, 2)))  # above the diameter
    with pytest.raises(ShapeError):
        SubshiftSpec(Z3, AdjacentGap(Fraction(1, 2)))  # needs a circle grid


def test_antipodal_family():
    y = neighbor_gap_shift(S8, Fraction(1), exact=True)
    assert y.satisfies(w8(0, 4))
    assert not y.satisfies(w8(0, 3))  # gap 3/4 is not exactly 1
    got = {tuple(x[0] for x in w.letters) for w in y.enumerate_periodic(2)}
    assert got == {(i, (i + 4) % 8) for i in range(8)}


def test_periodic_point_complex():
    c = periodic_point_complex(SIGMA1, 5)
    assert c.n_vertices == 30 and c.dim == 0 and c.p == 5
    assert c.is_free
    assert c.join_factors == (30,)
    # the action is the shift on the labels
    w = parse_word(c.labels[0])
    assert parse_word(c.labels[int(c.action[0])]) == w.shift(1)
