"""Windowed sliding-block maps between separation shifts.

The forward code sums m letters spaced (m-1)! apart, mapping the
m-separated shift into the (m-1)-separated one; it is equivariant.  Its
right inverse ("section") rebuilds a configuration from an anchor sequence
on a base block plus telescoping sums; it is continuous but deliberately
not equivariant, so it is exposed only on finite windows, never on cyclic
words (images of periodic points need not be periodic).

All index arithmetic is absolute: a Window knows its offset, and every
operation reports the exact missing indices when given too little input.

Inside, letters are mixed-radix indices (``Alphabet.index``).  The
section, the forward code and the distance test are row kernels on int64
arrays of letter indices (``_section_rows``, ``_block_sums``,
``_violations``), computed one alphabet digit at a time
(``Alphabet.digitwise``), as every alphabet is a product of cyclic groups.
The section is a base block plus prefix sums along each residue class mod
m!: y(n m! + j) = base(j) + P(n, j) - P(0, j), where P sums
d(k) = x(k + (m-1)!) - x(k) down the class, for n >= 0 and n < 0 alike.  A
single public call is one row, spanning the blocks from block 0 to its
outputs; the verify suites 3.1 and 3.2 first draw all their trials from the
random stream in its order, then evaluate them together, one padded row per
trial.  Every ``randrange`` of those draws is CPython's own rejection loop
(``_below``), inlined where letters are drawn (``_separated_letters``), so
the stream is the one ``randrange`` gives.  Separated letters are drawn
against a distance table (``_FarRows``) whose rows are lists while the table
fits the pair table cap, and computed entry by entry otherwise and in single
calls.  Distance thresholds are the ``bar`` of
``SubshiftSpec(alphabet, Separation(m, delta))``.  One walk over the
residue classes of an output range, in runs (``_classes``), gives the
section's input range and anchor keys, and the needed set that names the
missing inputs in an error.  The public
functions convert windows of tuples to indices and back around these
kernels.  The pair embedding is one index formula on rows of letter indices
(``pair_embed_rows``), for windows, cyclic words and the word array.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

import numpy as np

from .alphabets import Alphabet, Element, ElementLike, product_alphabet
from .errors import NeededRangeError, ShapeError
from .shiftspaces import CyclicWord, Separation, SubshiftSpec

__all__ = [
    "Window",
    "AnchorSeq",
    "block_sum_step",
    "section_input_range",
    "section_apply",
    "pair_embed",
    "pair_embed_cyclic",
    "pair_embed_rows",
    "separation_violations",
]


@dataclass(frozen=True)
class Window:
    """A finite view of a configuration: letter i sits at absolute index offset+i."""

    alphabet: Alphabet
    offset: int
    letters: tuple[Element, ...]

    def __post_init__(self):
        if not self.letters:
            raise ShapeError("window must be nonempty")
        object.__setattr__(
            self, "letters", tuple(self.alphabet.element(x) for x in self.letters)
        )

    @property
    def start(self) -> int:
        return self.offset

    @property
    def stop(self) -> int:  # exclusive
        return self.offset + len(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, k: int) -> Element:
        """Letter at absolute index k."""
        if not self.start <= k < self.stop:
            raise NeededRangeError(
                f"index {k} outside window [{self.start}, {self.stop})",
                needed=(k, k),
                missing=(k,),
            )
        return self.letters[k - self.offset]

    def shift(self, s: int) -> Window:
        """The window of the s-th shift image (new letter at k is old letter at k+s)."""
        return Window(self.alphabet, self.offset - s, self.letters)


@dataclass(frozen=True)
class AnchorSeq:
    """A pure, total rule index -> letter, fixed before applying the section."""

    rule: Callable[[int], ElementLike]

    def letter(self, alphabet: Alphabet, k: int) -> Element:
        return alphabet.element(self.rule(k))

    @staticmethod
    def seeded(alphabet: Alphabet, seed: int) -> AnchorSeq:
        """Deterministic pseudo-random anchor; the same (seed, k) always agrees."""

        def rule(k: int) -> Element:
            return alphabet.unindex(_seeded_index(seed, k, alphabet.order))

        return AnchorSeq(rule)


def _seeded_index(seed: int, k: int, n: int) -> int:
    """The letter index of the seeded anchor at k over n letters."""
    return random.Random(f"{seed}|{k}").randrange(n)


# -- letter indices: draws and row kernels ----------------------------------------


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, as CPython draws it
    (``Random._randbelow_with_getrandbits``): k = n.bit_length() bits at a
    time until the value falls below n.  The same loop is inlined in
    ``_separated_letters``; both give the stream that ``randrange`` gives."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


class _LazyRow:
    """Row a of a ``_FarRows`` table that is not built: entry e is computed on each read."""

    __slots__ = ("alphabet", "far", "a")

    def __init__(self, alphabet: Alphabet, far, a: int):
        self.alphabet, self.far, self.a = alphabet, far, a

    def __getitem__(self, e: int) -> bool:
        return self.far[self.alphabet.digitwise(operator.sub, self.a, e)]


class _FarRows(dict):
    """``rows[a][e]``: do letters a and e pass the distance bar ``far``, read
    at the index of a - e?  The separated draws read it once per candidate.

    Row a is made on first read: with ``tabled``, a list of n bools, and
    otherwise a ``_LazyRow``.  Both come from ``Alphabet.digitwise``.
    """

    __slots__ = ("alphabet", "n", "far", "tabled")

    def __init__(self, alphabet: Alphabet, far, tabled: bool):
        super().__init__()
        self.alphabet, self.n, self.far, self.tabled = alphabet, alphabet.order, far, tabled

    def __missing__(self, a: int):
        alpha = self.alphabet
        if self.tabled:
            diffs = alpha.digitwise(operator.sub, a, np.arange(self.n, dtype=np.int64))
            row = self.far.read_all(diffs).tolist()
        else:
            row = _LazyRow(alpha, self.far, a)
        self[a] = row
        return row


def _separated_letters(rng: random.Random, rows: _FarRows, gap: int, length: int) -> list[int]:
    """Letter indices t = 0..length-1 with letters t - gap and t passing ``rows``,
    drawn by rejection, one ``rng.randrange(n)`` per candidate letter (the loop
    of ``_below``, inlined).  It ends: a separation bar is at most the
    diameter, which every alphabet attains."""
    n = rows.n
    getrandbits, k = rng.getrandbits, n.bit_length()
    xs: list[int] = []
    for _ in range(min(gap, length)):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        xs.append(r)
    for t in range(length - gap):
        row = rows[xs[t]]
        r = getrandbits(k)
        while r >= n or not row[r]:
            r = getrandbits(k)
        xs.append(r)
    return xs


def _random_separated_window(
    rng: random.Random, alphabet: Alphabet, delta: Fraction, gap: int, lo: int, hi: int
) -> Window:
    """A window on [lo, hi] whose letters at distance `gap` are delta-separated."""
    rows = _FarRows(alphabet, SubshiftSpec(alphabet, Separation(1, delta)).bar, tabled=False)
    return _window(alphabet, lo, _separated_letters(rng, rows, gap, hi - lo + 1))


def _indices(alphabet: Alphabet, letters) -> np.ndarray:
    """Letters as one (1, len) row of int64 letter indices."""
    return np.array([[alphabet.index(e) for e in letters]], dtype=np.int64)


def _window(alphabet: Alphabet, offset: int, letters) -> Window:
    return Window(alphabet, offset, tuple(map(alphabet.unindex, letters)))


def _block_sums(m: int, alphabet: Alphabet, xs: np.ndarray) -> np.ndarray:
    """Forward code on each row of letter indices: entry t sums xs[:, t + i*(m-1)!]
    for i < m, so a row loses (m-1)*(m-1)! entries on the right."""
    gap = factorial(m - 1)
    width = xs.shape[1] - (m - 1) * gap

    def digit(x: np.ndarray) -> np.ndarray:
        out = x[:, :width].copy()
        for i in range(1, m):
            out += x[:, i * gap : i * gap + width]
        return out

    return alphabet.digitwise(digit, xs)


def _violations(far, alphabet: Alphabet, ys: np.ndarray, step: int) -> np.ndarray:
    """Per row of letter indices, a bool per position t < len - step: do letters
    t and t + step fail the distance bar ``far``?"""
    width = max(ys.shape[1] - step, 0)
    return ~far.read_all(alphabet.digitwise(np.subtract, ys[:, :width], ys[:, step : step + width]))


def block_sum_step(m: int, w: Window) -> Window:
    """One step of the forward code: output at k sums inputs k + i*(m-1)! for i < m.

    The output window shrinks by (m-1)*(m-1)! letters on the right.
    """
    if m < 2:
        raise ShapeError(f"block-sum step needs m >= 2, got {m}")
    span = (m - 1) * factorial(m - 1)
    if len(w) <= span:
        needed = (w.start, w.start + span)
        missing = tuple(range(w.stop, w.start + span + 1))
        raise NeededRangeError(
            f"window [{w.start}, {w.stop}) too short: output at {w.start} needs inputs "
            f"{needed[0]}..{needed[1]}; missing {missing[0]}..{missing[-1]}",
            needed=needed,
            missing=missing,
        )
    ys = _block_sums(m, w.alphabet, _indices(w.alphabet, w.letters))
    return _window(w.alphabet, w.start, ys[0].tolist())


# -- the anchored section -------------------------------------------------------


def _section_shape(m: int, lo: int, hi: int) -> tuple[int, int, int]:
    """(gap, block, head) = ((m-1)!, m!, (m-1)*(m-1)!) after checking the arguments;
    outputs at 0 <= k < head are anchor letters only."""
    if m < 2:
        raise ShapeError(f"section needs m >= 2, got {m}")
    if lo > hi:
        raise ShapeError(f"empty requested range [{lo}, {hi}]")
    gap = factorial(m - 1)
    return gap, m * gap, (m - 1) * gap


def _classes(m: int, lo: int, hi: int):
    """The residue classes mod m! that [lo, hi] meets, in at most four runs
    (j0, j1, a, b): for j0 <= j < j1 the outputs of class j read the
    differences x(n m! + (m-1)! + j) - x(n m! + j) for a <= n < b, and x(j -
    head) too where j >= head = (m-1)*(m-1)!."""
    block = factorial(m)
    last, cut = divmod(hi, block)  # classes above cut end one block earlier
    stop = min(hi + 1, lo + block)
    for n in range(lo // block, (stop - 1) // block + 1):
        j0, j1, a = max(lo - n * block, 0), min(stop - n * block, block), min(n, 0)
        if j0 <= cut:
            yield j0, min(j1, cut + 1), a, max(last, 0)
        if j1 > cut + 1:
            yield max(j0, cut + 1), j1, a, max(last - 1, 0)


def _needed_indices(m: int, lo: int, hi: int) -> set[int]:
    """Every input index the section reads on [lo, hi]."""
    gap, block, head = _section_shape(m, lo, hi)
    out = set()
    for j0, j1, a, b in _classes(m, lo, hi):
        out.update(range(max(j0, head) - head, j1 - head))
        for s in range(a * block, b * block, block):  # the pairs of each block a <= n < b
            out.update(range(s + j0, s + j1), range(s + gap + j0, s + gap + j1))
    return out


def _anchor_keys(m: int, lo: int, hi: int) -> Sequence[int]:
    """The indices k < (m-1)*(m-1)! whose anchor letters the section reads on
    [lo, hi], in increasing order: a residue class j below the head reads
    anchor j, one above it reads anchors j - i*(m-1)! for 0 < i < m."""
    gap, block, head = _section_shape(m, lo, hi)
    if hi - lo + 1 >= block:
        return range(head)
    keys = set()
    for j0, j1, _, _ in _classes(m, lo, hi):
        keys.update(range(j0, min(j1, head)))
        for i in range(1, m):
            keys.update(range(max(j0, head) - i * gap, j1 - i * gap))
    return sorted(keys)


def _section_rows(m: int, alphabet: Alphabet, xs: np.ndarray, anchors: np.ndarray,
                  n0: int) -> np.ndarray:
    """The section on every row of ``xs`` at once, as letter indices.

    Row entry c of ``xs`` is the input at absolute index n0 * m! + c, and a
    row spans whole blocks of m! entries from block n0 <= 0 on, block 0
    included; row entry k < (m-1)*(m-1)! of ``anchors`` is the anchor letter
    at k.  Output k = n m! + j is base(j) plus the prefix sum of
    d(i) = x(i + (m-1)!) - x(i) along its residue class j, taken from block
    0 to block n: y(n, j) = base(j) + P(n, j) - P(0, j), where P(n, j) sums
    d over the blocks before n, for n >= 0 and n < 0 alike.  base(j) is the
    anchor at j on the head of block 0 and x(j - head) minus m - 1 anchors
    on its tail.  Each output is exact wherever ``xs`` holds the inputs it
    reads (``section_input_range``), whatever the other entries hold.
    """
    gap, block, head = _section_shape(m, 0, 0)
    r0 = -n0
    rows, blocks = xs.shape[0], xs.shape[1] // block
    tail = np.arange(head, block)[:, None] - gap * np.arange(1, m)

    def digit(x: np.ndarray, a: np.ndarray) -> np.ndarray:
        base = np.empty((rows, block), dtype=np.int64)
        base[:, :head] = a
        base[:, head:] = x[:, r0 * block : r0 * block + gap] - a[:, tail].sum(axis=2)
        # d one block late, so the running sum down each class stops before its block
        p = np.zeros_like(x)
        np.subtract(x[:, gap : x.shape[1] - block + gap], x[:, : x.shape[1] - block],
                    out=p[:, block:])
        p = p.reshape(rows, blocks, block)
        np.cumsum(p, axis=1, out=p)
        p += base[:, None] - p[:, r0, None]
        return p.reshape(x.shape)

    return alphabet.digitwise(digit, xs, anchors)


def section_input_range(m: int, lo: int, hi: int) -> tuple[int, int] | None:
    """Minimal absolute input range needed to produce every output in [lo, hi].

    Returns None when no input letter is read at all (the requested range
    sits inside the anchor-only prefix of the base block).  Each run of
    residue classes (``_classes``) gives its ends: the inputs under the tail
    of the base block, and the first and last pair of its telescoping sums.
    """
    gap, block, head = _section_shape(m, lo, hi)
    ends = []
    for j0, j1, a, b in _classes(m, lo, hi):
        if j1 > head:
            ends += [max(j0, head) - head, j1 - 1 - head]
        if a < b:
            ends += [a * block + j0, (b - 1) * block + gap + j1 - 1]
    return (min(ends), max(ends)) if ends else None


def section_apply(m: int, anchor: AnchorSeq, x: Window, lo: int, hi: int) -> Window:
    """Evaluate the section of the level-(m-1) -> level-m code on [lo, hi].

    The four defining cases: anchor letters on the head of the base block,
    a shifted input minus anchor sums on its tail, and telescoping sums of
    input differences (one direction per sign of the block index) added to
    the base value elsewhere.  Raises NeededRangeError naming the exact
    missing indices when x does not cover what the outputs read.  The
    outputs come from ``_section_rows`` on one row: the blocks from the
    lower of block 0 and lo's block to the higher of block 0 and hi's.
    """
    need = section_input_range(m, lo, hi)
    if need is not None and not x.start <= need[0] <= need[1] < x.stop:
        missing = tuple(sorted(i for i in _needed_indices(m, lo, hi) if not x.start <= i < x.stop))
        raise NeededRangeError(
            f"section input window [{x.start}, {x.stop}) is missing indices {missing}",
            needed=need,
            missing=missing,
        )
    gap, block, head = _section_shape(m, lo, hi)
    alpha = x.alphabet
    n0 = min(lo // block, 0)
    row = np.zeros((1, (max(hi // block, 0) - n0 + 1) * block), dtype=np.int64)
    if need is not None:
        letters = x.letters[need[0] - x.start : need[1] - x.start + 1]
        row[:, need[0] - n0 * block : need[1] - n0 * block + 1] = _indices(alpha, letters)
    anchors = np.zeros((1, head), dtype=np.int64)
    for k in _anchor_keys(m, lo, hi):
        anchors[0, k] = alpha.index(anchor.rule(k))
    ys = _section_rows(m, alpha, row, anchors, n0)[0, lo - n0 * block : hi - n0 * block + 1]
    return _window(alpha, lo, ys.tolist())


# -- embeddings and checks -------------------------------------------------------


def pair_embed(w: Window) -> Window:
    """Slide a length-2 stencil: output letter at k is the pair (x_k, x_{k+1})."""
    if len(w) < 2:
        raise ShapeError("pair embedding needs a window of length >= 2")
    target = product_alphabet(w.alphabet, w.alphabet)
    pairs = pair_embed_rows(_indices(w.alphabet, w.letters), w.alphabet.order)
    return _window(target, w.offset, pairs[0, :-1].tolist())


def pair_embed_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The pair stencil on each row of a (words, L) array of letter indices of
    an n-letter alphabet, the successor read cyclically: entry k is the index
    of the pair (x_k, x_{k+1}) in the product of the alphabet with itself,
    in int64, whatever the type of the rows."""
    rows = rows.astype(np.int64)
    return rows * n + np.roll(rows, -1, axis=1)


def pair_embed_cyclic(word: CyclicWord) -> CyclicWord:
    """The same stencil on a cyclic word, reading the successor cyclically."""
    alpha = word.alphabet
    target = product_alphabet(alpha, alpha)
    pairs = pair_embed_rows(_indices(alpha, word.letters), alpha.order)[0].tolist()
    return CyclicWord(target, tuple(map(target.unindex, pairs)))


def separation_violations(w: Window, step: int, delta: Fraction) -> list[int]:
    """Indices k with both ends visible where dist(x_k, x_{k+step}) < delta;
    delta must lie in (0, diameter], as for a separation family."""
    if step < 0:
        w[w.start + step]  # raises NeededRangeError: the first partner lies left of w
    far = SubshiftSpec(w.alphabet, Separation(1, delta)).bar
    bad = _violations(far, w.alphabet, _indices(w.alphabet, w.letters), step)[0]
    return (w.start + np.flatnonzero(bad)).tolist()
