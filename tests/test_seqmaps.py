import random
from fractions import Fraction
from math import factorial

import pytest

from zpindex.alphabets import circle_grid, cyclic_group
from zpindex.errors import NeededRangeError, ShapeError
from zpindex.seqmaps import (
    AnchorSeq,
    Window,
    block_sum_step,
    pair_embed,
    pair_embed_cyclic,
    section_apply,
    section_input_range,
    separation_violations,
)
from zpindex.shiftspaces import CyclicWord, neighbor_gap_shift, SubshiftSpec, Separation
from zpindex.verify import (
    _random_separated_window,
    check_roundtrip,
    check_section_containment,
    section_shift_mismatch,
)

Z3 = cyclic_group(3)
S8 = circle_grid(8)
S12 = circle_grid(12)
HALF = Fraction(1, 2)


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
    import zpindex.verify as verify

    monkeypatch.setattr(verify, "block_sum_step", lambda m, y: Window(Z3, y.offset, ((1,),) * len(y)))
    monkeypatch.setattr(verify, "separation_violations", lambda y, step, delta: [y.start])
    for check, key in ((check_roundtrip, "first_bad_index"), (check_section_containment, "first_bad_pair")):
        r = check(2, Z3, HALF, trials=5, seed=7)
        assert not r.passed and r.failures == 5
        first = r.first_counterexample
        assert first["trial"] == 0 and first["m"] == 2 and first["alphabet"] == "Z3"
        assert key in first and {"anchor_seed", "window", "offset"} <= set(first)


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
    zq8 = neighbor_gap_shift(S8, HALF)
    target = SubshiftSpec(out_alpha := pair_embed_cyclic(CyclicWord(S8, ((0,), (4,)))).alphabet,
                          Separation(1, HALF))
    for w in zq8.enumerate_periodic(3):
        img = pair_embed_cyclic(w)
        assert target.satisfies(img)
        assert pair_embed_cyclic(w.shift(1)) == img.shift(1)


def test_pair_embed_cyclic_injective_on_fixed_period():
    zq8 = neighbor_gap_shift(S8, HALF)
    words = zq8.enumerate_periodic(3)
    images = {pair_embed_cyclic(w) for w in words}
    assert len(images) == len(words)
    # left inverse: first coordinate recovers the source word
    for w in words:
        img = pair_embed_cyclic(w)
        assert tuple((x[0],) for x in img.letters) == w.letters


def test_window_helpers():
    w = zw(3, 0, 1, 2)
    assert w[4] == (1,)
    with pytest.raises(NeededRangeError):
        w[6]
