"""Windowed sliding-block maps between separation shifts.

The forward code sums m letters spaced (m-1)! apart, mapping the
m-separated shift into the (m-1)-separated one; it is equivariant.  Its
right inverse ("section") rebuilds a configuration from an anchor sequence
on a base block plus telescoping sums; it is continuous but deliberately
not equivariant, so it is exposed only on finite windows, never on cyclic
words (images of periodic points need not be periodic).

All index arithmetic is absolute: a Window knows its offset, and every
operation reports the exact missing indices when given too little input.

Inside, letters are mixed-radix indices (``Alphabet.index``) and the group
operations are reads of exact tables (``_LetterOps``), row by row.  For the
many trials of the verify suites (``_SectionTrials``) rows are int lists,
built while both tables fit the bytes of the pair table cap; otherwise, and
in single public calls, which read only a few entries, each read computes
its entry.  Both use the digit arithmetic of ``Alphabet.letter_op``.  Distance
thresholds are the ``bar`` of ``SubshiftSpec(alphabet, Separation(m, delta))``.
The section walks each residue class mod m! out from its base block by
y(k + m!) = y(k) + x(k + (m-1)!) - x(k); its needed input range is the span
of each class's ends, and the set of needed indices is listed only to name
the missing ones in an error.  The trials draw their seeded anchors as
letter indices.  The public functions convert windows of tuples to indices
and back around these kernels.  The pair embedding of cyclic words is one
index formula on rows of letter indices (``pair_embed_rows``), which the
embedding suite applies to the whole period-p word array at once.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

import numpy as np

from .alphabets import Alphabet, Element, ElementLike, product_alphabet
from .errors import NeededRangeError, ShapeError
from .shiftspaces import _PAIR_TABLE_CAP, CyclicWord, Separation, SubshiftSpec

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


# -- letter indices and their tables ---------------------------------------------


class _LazyRow:
    """Row a of a letter table that is not built: entry b is computed on each read."""

    __slots__ = ("alphabet", "op", "a")

    def __init__(self, alphabet: Alphabet, op: str, a: int):
        self.alphabet, self.op, self.a = alphabet, op, a

    def __getitem__(self, b: int) -> int:
        return self.alphabet.letter_op(self.op, self.a, b)


class _Rows(dict):
    """The (n, n) letter table of ``op`` ("add" or "sub"), read as ``table[a][b]``.

    Row a is made on first read: with ``tabled``, a list of n indices, and
    otherwise a ``_LazyRow``.  Both come from ``Alphabet.letter_op``.
    """

    __slots__ = ("alphabet", "op", "tabled")

    def __init__(self, alphabet: Alphabet, op: str, tabled: bool):
        super().__init__()
        self.alphabet, self.op, self.tabled = alphabet, op, tabled

    def __missing__(self, a: int):
        alpha = self.alphabet
        if self.tabled:
            row = alpha.letter_op(self.op, a, np.arange(alpha.order, dtype=np.int64)).tolist()
        else:
            row = _LazyRow(alpha, self.op, a)
        self[a] = row
        return row


class _LetterOps:
    """Group operations on the letter indices of one alphabet, read
    ``add[a][b]`` and ``sub[a][b]``, with the conversions at the window boundary.

    Rows are built only with ``tabled``: a single call reads a few entries,
    which digit arithmetic gives faster than a row build.
    """

    def __init__(self, alphabet: Alphabet, tabled: bool = False):
        self.alphabet = alphabet
        self.add = _Rows(alphabet, "add", tabled)
        self.sub = _Rows(alphabet, "sub", tabled)

    def indices(self, w: Window) -> list[int]:
        return [self.alphabet.index(e) for e in w.letters]

    def window(self, offset: int, letters: list[int]) -> Window:
        return Window(self.alphabet, offset, tuple(map(self.alphabet.unindex, letters)))


def _block_sums(add, m: int, xs: list[int]) -> list[int]:
    """Forward code on letter indices: output t sums xs[t + i*(m-1)!] for i < m."""
    gap = factorial(m - 1)
    out = xs[: len(xs) - (m - 1) * gap]
    for i in range(1, m):
        out = [add[a][b] for a, b in zip(out, xs[i * gap :])]
    return out


def _violations(sub, far, ys: list[int], step: int) -> list[int]:
    """Positions t with d(ys[t], ys[t + step]) below the bar of ``far``."""
    return [t for t, (a, b) in enumerate(zip(ys, ys[step:])) if not far[sub[a][b]]]


def _separated_letters(rng: random.Random, ops: _LetterOps, far, gap: int, length: int) -> list[int]:
    """Letter indices t = 0..length-1 with letters t and t + gap passing ``far``,
    drawn by rejection: one ``rng.randrange(n)`` per candidate letter.  It ends:
    a separation bar is at most the diameter, which every alphabet attains."""
    letters: list[int] = []
    order = ops.alphabet.order
    for t in range(length):
        row = ops.sub[letters[t - gap]] if t >= gap else None
        while True:
            e = rng.randrange(order)
            if row is None or far[row[e]]:
                letters.append(e)
                break
    return letters


def _random_separated_window(
    rng: random.Random, alphabet: Alphabet, delta: Fraction, gap: int, lo: int, hi: int
) -> Window:
    """A window on [lo, hi] whose letters at distance `gap` are delta-separated."""
    far = SubshiftSpec(alphabet, Separation(1, delta)).bar
    ops = _LetterOps(alphabet)
    return ops.window(lo, _separated_letters(rng, ops, far, gap, hi - lo + 1))


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
    ops = _LetterOps(w.alphabet)
    return ops.window(w.start, _block_sums(ops.add, m, ops.indices(w)))


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


def _needed_indices(m: int, lo: int, hi: int) -> set[int]:
    """Every input index the section reads on [lo, hi], residue class by class."""
    gap, block, head = _section_shape(m, lo, hi)
    out = set()
    for first in range(lo, min(hi, lo + block - 1) + 1):
        j = first % block
        if j >= head:
            out.add(j - head)
        for i in range(min((first - j) // block, 0), max((hi - j) // block, 0)):
            out.update((i * block + j, i * block + gap + j))
    return out


def _section_letters(
    m: int, anchor: Callable[[int], int], ops: _LetterOps, xs: list[int], start: int,
    lo: int, hi: int,
) -> list[int]:
    """The section on [lo, hi] as letter indices; xs[i] is the input at start + i
    and covers ``section_input_range(m, lo, hi)``, and ``anchor(k)`` is the
    anchor's letter index at k, drawn once per index."""
    gap, block, head = _section_shape(m, lo, hi)
    add, sub = ops.add, ops.sub
    anchors: dict[int, int] = {}

    def letter(k: int) -> int:
        if k not in anchors:
            anchors[k] = anchor(k)
        return anchors[k]

    out = [0] * (hi - lo + 1)
    for first in range(lo, min(hi, lo + block - 1) + 1):
        j = first % block
        if j < head:
            base = letter(j)
        else:
            base = xs[j - head - start]
            for i in range(1, m):
                base = sub[base][letter(j - i * gap)]
        n_lo, n_hi = (first - j) // block, (hi - j) // block
        if n_lo <= 0 <= n_hi:
            out[j - lo] = base
        # walk y(k + m!) = y(k) + x(k + (m-1)!) - x(k) away from k = j
        y, p = base, j - start
        for n in range(1, n_hi + 1):
            y = add[y][sub[xs[p + gap]][xs[p]]]
            p += block
            if n >= n_lo:
                out[n * block + j - lo] = y
        y, p = base, j - start
        for n in range(-1, n_lo - 1, -1):
            p -= block
            y = sub[y][sub[xs[p + gap]][xs[p]]]
            if n <= n_hi:
                out[n * block + j - lo] = y
    return out


def section_input_range(m: int, lo: int, hi: int) -> tuple[int, int] | None:
    """Minimal absolute input range needed to produce every output in [lo, hi].

    Returns None when no input letter is read at all (the requested range
    sits inside the anchor-only prefix of the base block).  Each residue class
    gives its ends as ``_needed_indices`` walks it: the input under the tail
    of the base block, and the first and last pair of its telescoping sums.
    """
    gap, block, head = _section_shape(m, lo, hi)
    ends = []
    for first in range(lo, min(hi, lo + block - 1) + 1):
        j = first % block
        if j >= head:
            ends.append(j - head)
        a, b = min((first - j) // block, 0), max((hi - j) // block, 0)
        if a < b:
            ends += [a * block + j, (b - 1) * block + gap + j]
    return (min(ends), max(ends)) if ends else None


def section_apply(m: int, anchor: AnchorSeq, x: Window, lo: int, hi: int) -> Window:
    """Evaluate the section of the level-(m-1) -> level-m code on [lo, hi].

    The four defining cases: anchor letters on the head of the base block,
    a shifted input minus anchor sums on its tail, and telescoping sums of
    input differences (one direction per sign of the block index) added to
    the base value elsewhere.  Raises NeededRangeError naming the exact
    missing indices when x does not cover what the outputs read.
    """
    need = section_input_range(m, lo, hi)
    if need is not None and not x.start <= need[0] <= need[1] < x.stop:
        missing = tuple(sorted(i for i in _needed_indices(m, lo, hi) if not x.start <= i < x.stop))
        raise NeededRangeError(
            f"section input window [{x.start}, {x.stop}) is missing indices {missing}",
            needed=need,
            missing=missing,
        )
    alpha, ops = x.alphabet, _LetterOps(x.alphabet)
    letters = _section_letters(m, lambda k: alpha.index(anchor.rule(k)), ops, ops.indices(x),
                               x.start, lo, hi)
    return ops.window(lo, letters)


class _SectionTrials:
    """Random trials of the level-m section on letter indices, the work of the
    section suites 3.1 and 3.2.

    One set of letter tables, one distance bar and one anchor generator,
    reseeded for each anchor letter, serve every trial.  The tables are built
    while both, fully read, fit the bytes of the pair table cap: 2 n^2 list
    slots of 8 bytes, every index below 257 being one of Python's shared
    small ints.  A trial draws from the random stream exactly as
    ``_random_separated_window`` and then ``rng.randrange(10**9)`` for the
    anchor seed; it returns (input offset, input letter indices, anchor seed,
    first failing index or None).
    """

    def __init__(self, m: int, alphabet: Alphabet, delta: Fraction):
        self.m = m
        self.gap, self.block, self.span = _section_shape(m, 0, 0)
        n = alphabet.order
        self.ops = _LetterOps(alphabet, tabled=16 * n * n <= _PAIR_TABLE_CAP)
        self.far = SubshiftSpec(alphabet, Separation(m, delta)).bar
        self.anchor = random.Random()

    def _draw(self, rng: random.Random, lo: int, hi: int):
        need = section_input_range(self.m, lo, hi)
        start, stop = need if need is not None else (0, 0)
        xs = _separated_letters(rng, self.ops, self.far, self.gap, stop - start + 1)
        seed, n, anchor = rng.randrange(10**9), self.ops.alphabet.order, self.anchor

        def index(k: int) -> int:  # _seeded_index(seed, k, n): Random(x) is Random() seeded with x
            anchor.seed(f"{seed}|{k}")
            return anchor.randrange(n)

        ys = _section_letters(self.m, index, self.ops, xs, start, lo, hi)
        return start, xs, seed, ys

    def roundtrip(self, rng: random.Random, lo: int, hi: int):
        """The first k in [lo, hi] where the forward code of the section differs
        from the input; the section is evaluated far enough right to cover it."""
        start, xs, seed, ys = self._draw(rng, lo, hi + self.span)
        back = _block_sums(self.ops.add, self.m, ys)
        bad = next((k for k in range(lo, hi + 1) if back[k - lo] != xs[k - start]), None)
        return start, xs, seed, bad

    def containment(self, rng: random.Random, lo: int, hi: int):
        """The first k with section letters k and k + m! not delta-separated,
        evaluated on [lo, hi + m!] so at least one such pair is visible."""
        start, xs, seed, ys = self._draw(rng, lo, hi + self.block)
        bad = _violations(self.ops.sub, self.far, ys, self.block)
        return start, xs, seed, (lo + bad[0] if bad else None)

    def letters(self, xs: list[int]) -> list[Element]:
        return [self.ops.alphabet.unindex(e) for e in xs]


# -- embeddings and checks -------------------------------------------------------


def pair_embed(w: Window) -> Window:
    """Slide a length-2 stencil: output letter at k is the pair (x_k, x_{k+1})."""
    if len(w) < 2:
        raise ShapeError("pair embedding needs a window of length >= 2")
    target = product_alphabet(w.alphabet, w.alphabet)
    letters = tuple(
        w.letters[i] + w.letters[i + 1] for i in range(len(w) - 1)
    )
    return Window(target, w.offset, letters)


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
    row = np.array([[alpha.index(e) for e in word.letters]])
    pairs = pair_embed_rows(row, alpha.order)[0].tolist()
    return CyclicWord(target, tuple(map(target.unindex, pairs)))


def separation_violations(w: Window, step: int, delta: Fraction) -> list[int]:
    """Indices k with both ends visible where dist(x_k, x_{k+step}) < delta;
    delta must lie in (0, diameter], as for a separation family."""
    if step < 0:
        w[w.start + step]  # raises NeededRangeError: the first partner lies left of w
    far = SubshiftSpec(w.alphabet, Separation(1, delta)).bar
    ops = _LetterOps(w.alphabet)
    return [w.start + t for t in _violations(ops.sub, far, ops.indices(w), step)]
