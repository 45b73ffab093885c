import random
from fractions import Fraction
from itertools import product
from math import factorial, gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    brute_separated_words,
    brute_sigma_words,
    brute_z_words,
    gap_ok,
    int_matrix_trace_power,
    parse_word,
)
from zpindex import shiftspaces
from zpindex.alphabets import Alphabet, circle_grid, cyclic_group, parse_alphabet
from zpindex.errors import ResourceCapError, ShapeError
from zpindex.shiftspaces import (
    AdjacentGap,
    CyclicWord,
    Separation,
    SubshiftSpec,
    mismatch_shift,
    neighbor_gap_shift,
    orbit_decompose,
    periodic_point_complex,
)
from zpindex.torusgrid import build_approx, separated_torus_spec

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


def test_clauses_state_each_family_once_per_index():
    assert SIGMA1.clauses(3) == [((0, 1),), ((1, 2),), ((2, 0),)]
    assert mismatch_shift(3).clauses(4) == [((0, 2),), ((1, 3),), ((2, 0),), ((3, 1),)]
    assert SIGMA2.clauses(1) == [((0, 0),)]
    assert ZQ8.clauses(3) == [((2, 0), (0, 1)), ((0, 1), (1, 2)), ((1, 2), (2, 0))]
    assert ZQ8.clauses(1) == [((0, 0), (0, 0))]


BRUTE_SPECS = [
    pytest.param(SIGMA1, range(1, 8), lambda L: brute_sigma_words(1, L), id="Sigma-m1"),
    pytest.param(SIGMA2, range(1, 8), lambda L: brute_sigma_words(2, L), id="Sigma-m2"),
    pytest.param(mismatch_shift(3), range(1, 8), lambda L: brute_sigma_words(3, L), id="Sigma-m3"),
    pytest.param(SubshiftSpec(S8, Separation(2, Fraction(1, 4))), range(1, 5),
                 lambda L: brute_separated_words(8, L, 2, Fraction(1, 4)), id="XS-m2-q8"),
    pytest.param(ZQ8, range(1, 5), lambda L: brute_z_words(8, L), id="Z-q8"),
    pytest.param(neighbor_gap_shift(S8, Fraction(1), exact=True), range(1, 5),
                 lambda L: brute_z_words(8, L, Fraction(1), exact=True), id="Y-q8"),
]


@pytest.mark.parametrize("spec,periods,brute", BRUTE_SPECS)
def test_satisfies_matches_the_brute_predicates_on_every_word(spec, periods, brute):
    # Sigma covers L = 1, 2 and the L dividing m! (1, 2, 3, 6), where letters m!
    # apart are the same letter and no word passes
    q = spec.alphabet.order
    for L in periods:
        want = set(brute(L))
        for w in product(range(q), repeat=L):
            assert spec.satisfies(CyclicWord(spec.alphabet, tuple((x,) for x in w))) == (w in want)


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
    # every method finds the same words, where the recoding applies and where
    # it does not (m! = 0 or 1 mod p, or gcd(m!, p) > 1)
    for spec, periods in ((SIGMA1, range(1, 10)), (SIGMA2, range(1, 10)),
                          (mismatch_shift(3), range(1, 10)),
                          (SubshiftSpec(S8, Separation(2, Fraction(1, 4))), range(1, 5))):
        for p in periods:
            words = spec.enumerate_periodic(p)
            assert words == spec.enumerate_periodic(p, method="direct")
            assert words == spec.enumerate_periodic(p, method="recoded")


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
    # 2^1500 words: every level triples the prefixes, so the node cap comes first
    with pytest.raises(ResourceCapError, match=r"node cap \(10000000\)"):
        SIGMA1.enumerate_periodic(1500)


def test_word_letter_cap_is_checked_after_the_last_level():
    # 2^20 + 2 words of 20 letters (20,971,560 letters) take 4,718,586 nodes, and
    # the words' letters are counted before they are read back from the levels
    for cap in (None, 4718586):
        with pytest.raises(ResourceCapError, match=r"500000 words of 20 letters.*\(10000000 letters\)"):
            SIGMA1.enumerate_periodic(20, node_cap=cap)
    with pytest.raises(ResourceCapError, match=r"node cap \(4718585\)"):
        SIGMA1.enumerate_periodic(20, node_cap=4718585)
    assert SIGMA1.count_periodic(20) * 20 == 20971560
    assert len(SIGMA1.periodic_words(19)) * 19 == 9961434  # fits


def test_level_letter_cap_is_checked_before_the_prefixes(monkeypatch):
    # Sigma m=3 at period 12 sets 6 letters before its first clause completes,
    # so level 4 keeps 3^5 prefixes of the 5 letters later clauses read; from
    # level 6 on, each level doubles the prefixes and keeps one letter fewer,
    # and levels 9 and 10 hold the most
    spec = mismatch_shift(3)
    monkeypatch.setattr(shiftspaces, "_LEVEL_LETTER_CAP", 1214)
    with pytest.raises(ResourceCapError, match=r"level 4 would hold 243 prefixes of 5 letters \(1215 letters\), "
                                               r"above the level letter cap \(1214\)"):
        spec.periodic_words(12)
    monkeypatch.setattr(shiftspaces, "_LEVEL_LETTER_CAP", 23327)
    with pytest.raises(ResourceCapError, match=r"level 9 would hold 11664 prefixes of 2 letters"):
        spec.periodic_words(12)
    monkeypatch.setattr(shiftspaces, "_LEVEL_LETTER_CAP", 23328)
    assert len(spec.periodic_words(12)) == spec.count_periodic(12)


@pytest.mark.parametrize("spec,p,dtype", [
    (SIGMA1, 5, np.uint8), (neighbor_gap_shift(circle_grid(256), Fraction(1, 2)), 2, np.uint8),
    (SubshiftSpec(parse_alphabet("S^2:q=20"), Separation(1, Fraction(1))), 2, np.int16),
], ids=["Z3", "S:q=256", "S^2:q=20"])
def test_words_are_letter_indices_in_the_narrowest_type(spec, p, dtype):
    words = spec.periodic_words(p)
    assert words.dtype == dtype and words.shape[1] == p and len(words)
    assert words.tolist() == sorted(words.tolist())
    elements = spec.alphabet.all_elements()
    assert [tuple(elements[i] for i in w) for w in words.tolist()] == [
        w.letters for w in spec.enumerate_periodic(p)]


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


def test_word_complex_refuses_a_set_that_is_not_shift_closed():
    # [0, 1] shifts to [1, 0], which is missing; unsorted rows are refused alike
    for rows in ([[0, 1]], [[1, 0], [0, 1]]):
        with pytest.raises(ShapeError, match="not a sorted shift-closed set"):
            shiftspaces._word_complex(np.array(rows, dtype=np.uint8), circle_grid(8), 2)


def test_letter_pair_table_cap(monkeypatch):
    # S^3:q=8 has 512 letters (262144 pairs) and stays under the cap
    spec = SubshiftSpec(parse_alphabet("S^3:q=8"), Separation(1, Fraction(1, 2)))
    assert spec.pair_table.shape == (512, 512)
    assert spec.pair_table[0].tolist() == [
        gap_ok(spec, (0, 0, 0), b) for b in spec.alphabet.all_elements()]
    big = SubshiftSpec(parse_alphabet("S^4:q=8"), Separation(1, Fraction(1, 2)))

    def no_letters(self):
        raise AssertionError("letters were listed")

    monkeypatch.setattr(Alphabet, "all_elements", no_letters)
    # the torus approximation's search reads the same table: the 4096 letters
    # of (S^1)^4 do not fit
    torus = separated_torus_spec(2, 8, 4, Fraction(1, 2))
    for call in (lambda: big.pair_table, lambda: big.count_periodic(5),
                 lambda: big.enumerate_periodic(5), lambda: build_approx(torus)):
        with pytest.raises(ResourceCapError, match=r"4096 letters .* 16777216 pairs.*\(1048576\)"):
            call()


def test_satisfies_reads_the_bar_and_no_pair_table(monkeypatch):
    # S^2:q=64 has 4096 letters, so its 2^24 pairs pass the pair table cap
    spec = SubshiftSpec(parse_alphabet("S^2:q=64"), Separation(1, Fraction(1, 2)))

    def refused(self):
        raise AssertionError("a letter table was read")

    monkeypatch.setattr(SubshiftSpec, "pair_table", property(refused))
    monkeypatch.setattr(Alphabet, "all_elements", refused)
    assert spec.satisfies(CyclicWord(spec.alphabet, ((0, 0), (16, 0), (32, 63))))
    assert not spec.satisfies(CyclicWord(spec.alphabet, ((0, 0), (15, 49), (32, 0))))
    rng = random.Random(0)
    for _ in range(200):
        L = rng.randrange(1, 6)
        w = CyclicWord(spec.alphabet, tuple((rng.randrange(64), rng.randrange(64)) for _ in range(L)))
        assert spec.satisfies(w) == all(gap_ok(spec, w[n], w[n + 1]) for n in range(L))


PAIR_SPECS = [
    SIGMA1, SIGMA2, mismatch_shift(3),
    SubshiftSpec(S8, Separation(1, Fraction(1, 2))),
    SubshiftSpec(S8, Separation(2, Fraction(1, 4))),
    SubshiftSpec(parse_alphabet("S^2:q=8"), Separation(1, Fraction(1, 2))),
    ZQ8,
    neighbor_gap_shift(S8, Fraction(1), exact=True),
    neighbor_gap_shift(circle_grid(16), Fraction(1, 2)),
]


def spec_id(spec):
    f = spec.family
    if isinstance(f, Separation):
        return f"{spec.alphabet.token()}:m={f.m},delta={f.delta}"
    return f"{spec.alphabet.token()}:bar={f.bar}" + (",exact" if f.exact else "")


@pytest.mark.parametrize("spec", PAIR_SPECS, ids=spec_id)
def test_pair_table_is_the_exact_pair_relation(spec):
    table = spec.pair_table
    letters = spec.alphabet.all_elements()
    assert table.dtype == bool and table.shape == (len(letters),) * 2
    assert not table.flags.writeable
    assert spec.pair_table is table  # built once per spec
    loop = np.array([[gap_ok(spec, a, b) for b in letters] for a in letters], dtype=bool)
    assert table.tobytes() == loop.tobytes()


@pytest.mark.parametrize("spec", PAIR_SPECS[:6], ids=spec_id)
def test_count_matches_the_list_power_oracle(spec):
    letters = spec.alphabet.all_elements()
    a = [[1 if gap_ok(spec, x, y) else 0 for y in letters] for x in letters]
    for p in range(1, 14):
        g = gcd(spec.family.step, p)
        assert spec.count_periodic(p) == int_matrix_trace_power(a, p // g) ** g


@pytest.mark.parametrize("spec,k", [(SIGMA1, 61), (SIGMA1, 62), (SIGMA2, 61), (SIGMA2, 62),
                                    (PAIR_SPECS[5], 9), (PAIR_SPECS[5], 10)])
def test_count_power_is_int64_only_below_the_exactness_bound(monkeypatch, spec, k):
    # n * r^k < 2^63 bounds every entry and partial sum of the power: int64 then,
    # Python ints from the first k past it (3 * 2^61 < 2^63 <= 3 * 2^62 over Z3, and
    # 64 * 55^9 < 2^63 <= 64 * 55^10 over S^2:q=8)
    n, r = len(spec.pair_table), int(spec.pair_table.sum(axis=1).max())
    dtypes = []
    power = np.linalg.matrix_power

    def spy(a, e):
        dtypes.append(a.dtype)
        return power(a, e)

    monkeypatch.setattr(np.linalg, "matrix_power", spy)
    p = k * spec.family.step  # g = gcd(m!, p) = m!, so the power is k
    g = gcd(spec.family.step, p)
    assert p // g == k
    a = spec.pair_table.astype(int).tolist()
    assert spec.count_periodic(p) == int_matrix_trace_power(a, k) ** g
    assert dtypes == [np.dtype(np.int64) if n * r**k < 2**63 else np.dtype(object)]
