import random
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    cyclic_pair_embedding,
    letter_sub,
    list_section_trial,
    satisfies,
    tuple_block_sum_step,
    tuple_pair_embed_cyclic,
    tuple_section_apply,
    tuple_section_input_range,
    tuple_section_suite,
    tuple_separated_window,
    tuple_separation_violations,
)
from zpindex import seqmaps, verify
from zpindex.alphabets import circle_grid, cyclic_group, parse_alphabet, product_alphabet
from zpindex.errors import NeededRangeError, ShapeError
from zpindex.seqmaps import (
    AnchorSeq,
    Window,
    block_sum_step,
    pair_embed,
    pair_embed_rows,
    section_apply,
    section_input_range,
    separation_violations,
)
from zpindex.shiftspaces import CyclicWord, neighbor_gap_shift, SubshiftSpec, Separation
from zpindex.verify import (
    _random_separated_window,
    check_pair_embedding,
    check_roundtrip,
    check_section_containment,
    section_shift_mismatch,
)

Z3 = cyclic_group(3)
S8 = circle_grid(8)
S12 = circle_grid(12)
S2_8 = parse_alphabet("S^2:q=8")
HALF = Fraction(1, 2)
ORACLE_ALPHABETS = (Z3, S12, S2_8)


def zw(offset, *letters):
    return Window(Z3, offset, tuple((x,) for x in letters))


def test_block_sum_step_example():
    out = block_sum_step(2, zw(0, 0, 0, 1, 1, 2))
    assert out.offset == 0
    assert [x[0] for x in out.letters] == [0, 1, 2, 0]


def test_block_sum_zero_window():
    out = block_sum_step(2, zw(0, 0, 0, 0, 0, 0))
    assert len(out) == 4 and all(x == (0,) for x in out.letters)


def test_block_sum_needed_range_error_names_indices():
    # m = 3 consumes (m-1)*(m-1)! = 4 extra letters; a 3-letter window starting
    # at 5 is short by exactly indices 8 and 9
    with pytest.raises(NeededRangeError) as ei:
        block_sum_step(3, zw(5, 0, 1, 2))
    err = ei.value
    assert err.needed == (5, 9)
    assert err.missing == (8, 9)
    assert "8" in str(err) and "9" in str(err)


def test_block_sum_equivariance():
    rng = random.Random(0)
    for _ in range(50):
        letters = tuple((rng.randrange(3),) for _ in range(8))
        w = Window(Z3, rng.randrange(-5, 5), letters)
        s = rng.randrange(-3, 4)
        a = block_sum_step(2, w.shift(s))
        b = block_sum_step(2, w).shift(s)
        assert a.offset == b.offset and a.letters == b.letters


def test_block_sum_constraint_transport():
    # a valid level-m window maps to a valid level-(m-1) window
    rng = random.Random(1)
    for m in (2, 3):
        gap = factorial(m)
        for _ in range(30):
            x = _random_separated_window(rng, Z3, HALF, gap, 0, 3 * gap + (m - 1) * factorial(m - 1))
            y = block_sum_step(m, x)
            assert separation_violations(y, factorial(m - 1), HALF) == []


def test_section_example_m2():
    y = section_apply(2, AnchorSeq(lambda k: (0,)), zw(0, 1), 0, 1)
    assert [v[0] for v in y.letters] == [0, 1]


def test_section_input_ranges():
    assert section_input_range(2, 0, 1) == (0, 0)
    assert section_input_range(2, 2, 3) == (0, 2)
    assert section_input_range(2, -2, -1) == (-2, 0)
    assert section_input_range(2, 0, 0) is None  # anchor-only prefix
    assert section_input_range(3, 0, 5) == (0, 1)
    # the reported range is exactly what evaluation needs
    for m in (2, 3):
        for lo in range(-8, 6):
            for width in (1, 3, 7):
                rng_need = section_input_range(m, lo, lo + width)
                if rng_need is None:
                    continue
                x = Window(Z3, rng_need[0], tuple((0,) for _ in range(rng_need[1] - rng_need[0] + 1)))
                section_apply(m, AnchorSeq(lambda k: (0,)), x, lo, lo + width)


def test_section_missing_input_error():
    with pytest.raises(NeededRangeError) as ei:
        section_apply(2, AnchorSeq(lambda k: (0,)), zw(0, 1), 2, 3)  # needs x_2 as well
    assert ei.value.missing == (1, 2)


def test_roundtrip_and_containment_suites():
    for m, alpha in ((2, Z3), (3, Z3), (2, S12), (3, S12)):
        r = check_roundtrip(m, alpha, HALF, trials=120, seed=7)
        assert r.passed, r.first_counterexample
        c = check_section_containment(m, alpha, HALF, trials=120, seed=7)
        assert c.passed, c.first_counterexample


def test_section_suites_report_the_first_failed_trial(monkeypatch):
    # break each suite's final check: every trial fails, and the record names trial 0
    one = Z3.index((1,))
    monkeypatch.setattr(verify, "_block_sums", lambda m, alpha, ys: np.full(
        (ys.shape[0], ys.shape[1] - 1), one, dtype=np.int64))
    monkeypatch.setattr(verify, "_violations", lambda far, alpha, ys, step: np.ones(
        (ys.shape[0], ys.shape[1] - step), dtype=bool))
    for check, key, extend in ((check_roundtrip, "first_bad_index", 1),
                               (check_section_containment, "first_bad_pair", 2)):
        r = check(2, Z3, HALF, trials=5, seed=7)
        assert not r.passed and r.failures == 5
        first = r.first_counterexample
        assert first["trial"] == 0 and first["m"] == 2 and first["alphabet"] == "Z3"
        assert key in first and {"anchor_seed", "window", "offset"} <= set(first)
        # trial 0 of seed 7 redrawn through the public functions
        rng = random.Random(7)
        lo = rng.randrange(-4, 2)
        hi = lo + rng.randrange(1, 7)
        nlo, nhi = section_input_range(2, lo, hi + extend)
        x = _random_separated_window(rng, Z3, HALF, 1, nlo, nhi)
        assert first["window"] == [list(e) for e in x.letters] and first["offset"] == nlo
        assert first["anchor_seed"] == rng.randrange(10**9)
        if key == "first_bad_pair":
            assert first[key] == [lo, lo + 2]
        else:
            assert first[key] == next(k for k in range(lo, hi + 1) if x[k] != (1,))


def test_roundtrip_anchor_independence():
    rng = random.Random(3)
    for anchor in (AnchorSeq(lambda k: (0,)), AnchorSeq(lambda k: 2), AnchorSeq.seeded(Z3, 99)):
        x = _random_separated_window(rng, Z3, HALF, 1, 0, 10)
        y = section_apply(2, anchor, x, 0, 9)
        back = block_sum_step(2, y)
        assert all(back[k] == x[k] for k in range(0, 9))


def test_section_is_not_equivariant():
    witness = section_shift_mismatch(2, Z3, HALF, seed=5)
    assert witness is not None
    # recompute both sides at the reported index and confirm they differ
    s, k = witness["shift"], witness["index"]
    assert witness["left"] != witness["right"]


def test_anchor_seeded_is_deterministic():
    a1 = AnchorSeq.seeded(Z3, 42)
    a2 = AnchorSeq.seeded(Z3, 42)
    assert [a1.letter(Z3, k) for k in range(-5, 5)] == [a2.letter(Z3, k) for k in range(-5, 5)]


def test_pair_embed_window():
    w = Window(S8, 0, ((0,), (4,), (0,)))
    out = pair_embed(w)
    assert out.letters == ((0, 4), (4, 0))
    assert out.alphabet.token() == "S^2:q=8"
    # sliding-block codes commute with the shift on overlapping ranges
    assert pair_embed(w.shift(2)).letters == pair_embed(w).shift(2).letters
    with pytest.raises(ShapeError):
        pair_embed(Window(S8, 0, ((0,),)))


def test_pair_embed_cyclic_transport():
    # the stencil on the word array, read cyclically, lands in the target and commutes with the shift
    words = neighbor_gap_shift(S8, HALF).periodic_words(3)
    pairs = product_alphabet(S8, S8)
    target = SubshiftSpec(pairs, Separation(1, HALF))
    img = pair_embed_rows(words, S8.order)
    assert np.array_equal(pair_embed_rows(np.roll(words, -1, axis=1), S8.order), np.roll(img, -1, axis=1))
    for row in img.tolist():
        assert satisfies(target, CyclicWord(pairs, tuple(map(pairs.unindex, row))))


def test_pair_embed_cyclic_injective_on_fixed_period():
    words = neighbor_gap_shift(S8, HALF).periodic_words(3)
    img = pair_embed_rows(words, S8.order)
    assert len(np.unique(img, axis=0)) == len(words)
    # left inverse: the first coordinate of each pair recovers the source word
    pairs = product_alphabet(S8, S8)
    for row, images in zip(words.tolist(), img.tolist()):
        assert [pairs.unindex(i)[:1] for i in images] == list(map(S8.unindex, row))


def test_window_helpers():
    w = zw(3, 0, 1, 2)
    assert w[4] == (1,)
    with pytest.raises(NeededRangeError):
        w[6]


# -- the letter-index kernels against the tuple oracles in conftest -------------


def outcome(call):
    """What a call gives: its value (a window by alphabet, offset and letters),
    or the type, text and fields of its error."""
    try:
        out = call()
    except NeededRangeError as e:
        return ("needed-range", str(e), e.needed, e.missing)
    except ShapeError as e:
        return ("shape", str(e))
    if isinstance(out, Window):
        return ("window", out.alphabet, out.offset, out.letters)
    return ("value", out)


def random_window(alpha, start, stop, seed):
    rng = random.Random(seed)
    return Window(alpha, start, tuple(alpha.unindex(rng.randrange(alpha.order))
                                      for _ in range(stop - start + 1)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_section_input_range_is_the_span_of_the_needed_indices(m):
    # every small range: the ends per residue class against the whole needed set
    block = factorial(m)
    for lo in range(-2 * block - 1, 2 * block + 2):
        for hi in range(lo, lo + 2 * block + 2):
            need = seqmaps._needed_indices(m, lo, hi)
            assert section_input_range(m, lo, hi) == ((min(need), max(need)) if need else None)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_section_input_range_matches_the_needed_sets(m):
    block = factorial(m)
    widths = sorted({0, 1, 2, block - 1, block, block + 1, 2 * block + 3, 3 * block})
    ranges = [(lo, lo + w) for lo in range(-3 * block - 1, 3 * block + 2) for w in widths]
    if m == 5:  # 120 classes a block: a sample keeps the oracle's set unions fast
        ranges = random.Random(5).sample(ranges, 100)
    for lo, hi in ranges:
        assert section_input_range(m, lo, hi) == tuple_section_input_range(m, lo, hi), (lo, hi)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_anchor_keys_are_the_anchors_the_oracle_reads(m):
    # the suites read anchor letters at these keys only; a key missing here
    # would leave its anchor letter 0 with no error
    block = factorial(m)
    ranges = [(lo, hi) for lo in range(-2 * block - 1, 2 * block + 2)
              for hi in range(lo, lo + block + 2)]
    if m == 5:
        ranges = random.Random(5).sample(ranges, 100)
    for lo, hi in ranges:
        read = set()
        anchor = AnchorSeq(lambda k: read.add(k) or 0)
        nlo, nhi = tuple_section_input_range(m, lo, hi) or (lo, lo)
        tuple_section_apply(m, anchor, Window(Z3, nlo, (0,) * (nhi - nlo + 1)), lo, hi)
        assert list(seqmaps._anchor_keys(m, lo, hi)) == sorted(read), (lo, hi)


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([2, 3, 4]),
    alpha=st.sampled_from(ORACLE_ALPHABETS),
    lo=st.integers(-80, 80),
    width=st.integers(-1, 80),
    slack=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    seed=st.integers(0, 2**32),
    seeded=st.booleans(),
)
def test_section_matches_the_tuple_oracle(m, alpha, lo, width, slack, seed, seeded):
    # windows around the needed range, missing up to three inputs on either side
    hi = lo + width
    need = tuple_section_input_range(m, lo, hi) if width >= 0 else None
    nlo, nhi = need or (lo, lo)
    start, stop = nlo + slack[0], max(nlo + slack[0], nhi + slack[1])
    x = random_window(alpha, start, stop, seed)
    if seeded:
        anchor = AnchorSeq.seeded(alpha, seed)
    else:
        anchor = AnchorSeq(lambda k: alpha.unindex((3 * k + seed) % alpha.order))
    assert outcome(lambda: section_apply(m, anchor, x, lo, hi)) == outcome(
        lambda: tuple_section_apply(m, anchor, x, lo, hi))


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from([1, 2, 3, 4]),
    alpha=st.sampled_from(ORACLE_ALPHABETS),
    offset=st.integers(-60, 60),
    length=st.integers(1, 60),
    seed=st.integers(0, 2**32),
)
def test_block_sum_step_matches_the_tuple_oracle(m, alpha, offset, length, seed):
    w = random_window(alpha, offset, offset + length - 1, seed)
    assert outcome(lambda: block_sum_step(m, w)) == outcome(lambda: tuple_block_sum_step(m, w))


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.sampled_from(ORACLE_ALPHABETS),
    offset=st.integers(-30, 30),
    length=st.integers(1, 30),
    step=st.integers(-2, 8),
    delta=st.sampled_from([Fraction(1, 6), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1)]),
    seed=st.integers(0, 2**32),
)
def test_separation_violations_match_the_tuple_oracle(alpha, offset, length, step, delta, seed):
    w = random_window(alpha, offset, offset + length - 1, seed)
    assert outcome(lambda: separation_violations(w, step, delta)) == outcome(
        lambda: tuple_separation_violations(w, step, delta))


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(-1)])
def test_separation_violations_refuse_a_delta_of_zero_or_below(delta):
    # the bar of the separation family: d >= 0 would pass every pair
    with pytest.raises(ShapeError, match=r"^separation family needs delta > 0$"):
        separation_violations(zw(0, 0, 0, 1), 1, delta)


SUITES = [(2, Z3, HALF, 80), (2, S12, HALF, 80), (3, S12, Fraction(5, 6), 30), (2, S2_8, Fraction(1), 40)]


@pytest.mark.parametrize("m,alpha,delta,trials", SUITES,
                         ids=[f"m={m}-{a.token()}-delta={d}" for m, a, d, _ in SUITES])
def test_section_suites_match_the_tuple_oracle_loop(m, alpha, delta, trials):
    for seed in range(5):
        for lemma, check in (("3.1", check_section_containment), ("3.2", check_roundtrip)):
            got = check(m, alpha, delta, trials, seed).to_json()
            assert got == tuple_section_suite(lemma, m, alpha, delta, trials, seed), (lemma, seed)


TRIALS_AT = {2: 40, 3: 15, 4: 6, 5: 3}


@pytest.mark.parametrize("token", ["Z3", "S:q=12", "S^2:q=4", "S^3:q=8"])
@pytest.mark.parametrize("m", sorted(TRIALS_AT))
def test_section_trials_match_the_per_trial_kernel(m, token):
    # every trial's range, input window, anchor seed and section letters, drawn
    # in stream order and evaluated as prefix sums, against the trial-by-trial
    # list walk drawn with randrange; S^3:q=8 (512 letters) reads lazy rows
    alpha = parse_alphabet(token)
    block, span = factorial(m), (m - 1) * factorial(m - 1)
    assert verify._SectionSuite(m, alpha, HALF, 0).rows.tabled is (token != "S^3:q=8")
    for seed in range(3):
        for extend in (span, block):
            suite = verify._SectionSuite(m, alpha, HALF, extend)
            rng, oracle = random.Random(seed), random.Random(seed)
            drawn = suite.draw(rng, TRIALS_AT[m])
            ys = suite.section(drawn)
            for t in range(TRIALS_AT[m]):
                lo, hi, start, xs, anchor_seed, want = list_section_trial(oracle, m, alpha, HALF, extend)
                got = [int(v[t]) for v in drawn[:5]]
                assert got == [lo, hi, start, len(xs), anchor_seed], (seed, extend, t)
                pad = start + 2 * block
                assert drawn.xs[t, pad : pad + len(xs)].tolist() == xs, (seed, extend, t)
                assert ys[t, lo + 2 * block : hi + extend + 2 * block + 1].tolist() == want
            assert rng.getstate() == oracle.getstate()


def test_inline_draws_are_the_randrange_stream():
    # CPython's randrange(n) is getrandbits(n.bit_length()) until below n; the
    # suites inline that loop, so a CPython that changes it must fail here
    orders = [parse_alphabet(t).order for t in ("Z3", "S:q=8", "S:q=12", "S^2:q=4", "S^2:q=8",
                                                "S^2:q=16", "S^3:q=8", "S:q=1024", "S:q=4096")]
    widths = list(range(1, 3 * factorial(5) + 2)) + orders + [10**9]
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert [seqmaps._below(rng.getrandbits, w) for w in widths] == [
            ref.randrange(w) for w in widths]
        assert [w - 7 + seqmaps._below(rng.getrandbits, w) for w in widths] == [
            ref.randrange(w - 7, 2 * w - 7) for w in widths]
    for token in ("Z3", "S:q=12", "S^2:q=4", "S^3:q=8", "S:q=4096"):
        alpha = parse_alphabet(token)
        far = SubshiftSpec(alpha, Separation(1, HALF)).bar
        for tabled in (True, False) if alpha.order <= 512 else (False,):
            rows = seqmaps._FarRows(alpha, far, tabled)
            for seed, gap in ((0, 1), (1, 2), (2, 6)):
                rng, ref = random.Random(seed), random.Random(seed)
                xs = seqmaps._separated_letters(rng, rows, gap, 50)
                want: list[int] = []
                for t in range(50):
                    e = ref.randrange(alpha.order)
                    while t >= gap and not far[letter_sub(alpha, want[t - gap], e)]:
                        e = ref.randrange(alpha.order)
                    want.append(e)
                assert xs == want and rng.getstate() == ref.getstate(), (token, tabled, seed)


@pytest.mark.parametrize("check", [check_roundtrip, check_section_containment],
                         ids=lambda c: c.__name__)
def test_section_suites_evaluate_in_bounded_batches(monkeypatch, check):
    # m = 6: each trial's padded rows hold 7 * 720 = 5040 letters, so a batch of
    # 2^14 letters holds 3 trials; the same 12 trials in one batch peak over the bound
    import tracemalloc

    def peak():
        tracemalloc.start()
        try:
            out = check(6, Z3, HALF, 12, 0).to_json()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert verify._BATCH_LETTERS // (7 * factorial(6)) == 3
    batched, low = peak()
    monkeypatch.setattr(verify, "_BATCH_LETTERS", 12 * 7 * factorial(6))
    whole, high = peak()
    assert batched == whole and batched["passed"]
    bound = 1_000_000  # about 60 bytes per letter of one batch's rows
    assert low < bound < high, (low, high)


@pytest.mark.parametrize("alpha", [Z3, S12], ids=lambda a: a.token())
def test_section_suites_without_tables_agree(monkeypatch, alpha):
    # above the pair table cap every read computes its entry
    with_tables = [check(m, alpha, HALF, 60, seed).to_json()
                   for check in (check_section_containment, check_roundtrip)
                   for m in (2, 3) for seed in (0, 1)]
    assert verify._SectionSuite(2, alpha, HALF, 1).rows.tabled
    monkeypatch.setattr(verify, "_PAIR_TABLE_CAP", 0)
    assert not verify._SectionSuite(2, alpha, HALF, 1).rows.tabled
    without = [check(m, alpha, HALF, 60, seed).to_json()
               for check in (check_section_containment, check_roundtrip)
               for m in (2, 3) for seed in (0, 1)]
    assert without == with_tables


def test_large_alphabet_windows_match_the_tuple_oracle():
    # S:q=4096 is past the pair table cap, so every read computes its entry
    big = circle_grid(4096)
    assert not verify._SectionSuite(2, big, HALF, 1).rows.tabled
    for m, seed in ((2, 0), (3, 1), (2, 2)):
        lo, hi = -factorial(m), 2 * factorial(m)
        nlo, nhi = section_input_range(m, lo, hi)
        x = _random_separated_window(random.Random(seed), big, HALF, factorial(m - 1), nlo, nhi)
        assert x == tuple_separated_window(random.Random(seed), big, HALF, factorial(m - 1), nlo, nhi)
        anchor = AnchorSeq.seeded(big, seed)
        y = section_apply(m, anchor, x, lo, hi)
        assert y == tuple_section_apply(m, anchor, x, lo, hi)
        assert block_sum_step(m, y) == tuple_block_sum_step(m, y)
        assert separation_violations(y, factorial(m), HALF) == tuple_separation_violations(
            y, factorial(m), HALF)


@pytest.mark.parametrize("token,tabled", [("Z3", True), ("S^2:q=16", True), ("S:q=360", True),
                                          ("S:q=364", False), ("S:q=1024", False),
                                          ("S^2:q=32", False)])
def test_suite_tables_fit_the_bytes_of_the_pair_table_cap(token, tabled):
    # one full table of n^2 list slots, 8 bytes each: 256 letters take 2^19 bytes,
    # 360 letters 1,036,800, and 364 letters 1,059,968, past the cap of 2^20
    assert verify._SectionSuite(2, parse_alphabet(token), HALF, 1).rows.tabled is tabled


def test_single_public_calls_build_no_rows(monkeypatch):
    # one call computes the few entries it reads: no row of the alphabet is
    # built, and no array is longer than the window
    from zpindex.alphabets import Alphabet

    missing, digitwise = seqmaps._FarRows.__missing__, Alphabet.digitwise
    longest = []

    def one_entry(self, a):
        row = missing(self, a)
        assert isinstance(row, seqmaps._LazyRow), "a single public call built a row"
        return row

    def within_the_window(self, fn, *letters):
        longest.append(max(np.size(a) for a in letters))
        return digitwise(self, fn, *letters)

    monkeypatch.setattr(seqmaps._FarRows, "__missing__", one_entry)
    monkeypatch.setattr(Alphabet, "digitwise", within_the_window)
    for alpha in ORACLE_ALPHABETS:
        x = _random_separated_window(random.Random(4), alpha, HALF, 1, -4, 12)
        assert x == tuple_separated_window(random.Random(4), alpha, HALF, 1, -4, 12)
        anchor = AnchorSeq.seeded(alpha, 4)
        y = section_apply(2, anchor, x, -3, 9)
        assert y == tuple_section_apply(2, anchor, x, -3, 9)
        assert block_sum_step(2, y) == tuple_block_sum_step(2, y)
        assert separation_violations(y, 2, HALF) == tuple_separation_violations(y, 2, HALF)
    assert longest and max(longest) <= len(x)


# -- the pair embedding on word arrays against the cyclic-word oracles ------------


@pytest.mark.parametrize("token", ["Z3", "S:q=8", "S^2:q=4", "S:q=32"])
def test_pair_embedding_matches_the_tuple_stencil(token):
    alpha = parse_alphabet(token)
    pairs = product_alphabet(alpha, alpha)
    rng = random.Random(token)
    for _ in range(40):
        row = [rng.randrange(alpha.order) for _ in range(rng.randrange(1, 8))]
        img = pair_embed_rows(np.array([row]), alpha.order)[0].tolist()
        w = CyclicWord(alpha, tuple(map(alpha.unindex, row)))
        assert CyclicWord(pairs, tuple(map(pairs.unindex, img))) == tuple_pair_embed_cyclic(w)


@pytest.mark.parametrize("q", [8, 32])
def test_pair_embed_rows_of_a_word_array_match_the_tuple_stencil(q):
    # the search's rows are uint8, and at q = 32 their pair indices pass 255
    alpha = circle_grid(q)
    words = neighbor_gap_shift(alpha, HALF).periodic_words(3)
    assert words.dtype == np.uint8
    got = pair_embed_rows(words, q)
    assert got.dtype == np.int64 and got.shape == words.shape
    pairs = product_alphabet(alpha, alpha)
    for row, img in zip(words.tolist(), got.tolist()):
        w = CyclicWord(alpha, tuple(map(alpha.unindex, row)))
        assert tuple(map(pairs.unindex, img)) == tuple_pair_embed_cyclic(w).letters


@pytest.mark.parametrize("p,q", [(2, 8), (3, 8), (3, 16), (5, 8), (2, 32)])
def test_pair_embedding_suite_matches_the_cyclic_word_loop(p, q):
    assert check_pair_embedding(p, q).to_json() == cyclic_pair_embedding(p, q)


def test_pair_embedding_suite_reports_the_first_failing_word_as_the_loop_does(monkeypatch):
    # a strict separation bar fails every image with two pair letters exactly 1/2 apart
    meets = SubshiftSpec._meets_bar

    def strict(self, d):
        return d > self.family.delta if isinstance(self.family, Separation) else meets(self, d)

    monkeypatch.setattr(SubshiftSpec, "_meets_bar", strict)
    got = check_pair_embedding(3, 8).to_json()
    assert 0 < got["failures"] < got["trials"]
    assert got["first_counterexample"]["predicate"] is False
    assert got == cyclic_pair_embedding(3, 8)
