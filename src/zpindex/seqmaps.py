"""Windowed sliding-block maps between separation shifts.

The forward code sums m letters spaced (m-1)! apart, mapping the
m-separated shift into the (m-1)-separated one; it is equivariant.  Its
right inverse ("section") rebuilds a configuration from an anchor sequence
on a base block plus telescoping sums; it is continuous but deliberately
not equivariant, so it is exposed only on finite windows, never on cyclic
words (images of periodic points need not be periodic).

All index arithmetic is absolute: a Window knows its offset, and every
operation reports the exact missing indices when given too little input.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from .alphabets import Alphabet, Element, ElementLike, product_alphabet
from .errors import NeededRangeError, ShapeError
from .shiftspaces import CyclicWord

__all__ = [
    "Window",
    "AnchorSeq",
    "block_sum_step",
    "section_input_range",
    "section_apply",
    "pair_embed",
    "pair_embed_cyclic",
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
            r = random.Random(f"{seed}|{k}")
            return alphabet.unindex(r.randrange(alphabet.order))

        return AnchorSeq(rule)


def block_sum_step(m: int, w: Window) -> Window:
    """One step of the forward code: output at k sums inputs k + i*(m-1)! for i < m.

    The output window shrinks by (m-1)*(m-1)! letters on the right.
    """
    if m < 2:
        raise ShapeError(f"block-sum step needs m >= 2, got {m}")
    gap = factorial(m - 1)
    span = (m - 1) * gap
    out_len = len(w) - span
    if out_len <= 0:
        needed = (w.start, w.start + span)
        missing = tuple(range(w.stop, w.start + span + 1))
        raise NeededRangeError(
            f"window [{w.start}, {w.stop}) too short: output at {w.start} needs inputs "
            f"{needed[0]}..{needed[1]}; missing {missing[0]}..{missing[-1]}",
            needed=needed,
            missing=missing,
        )
    alpha = w.alphabet
    out = []
    for k in range(w.start, w.start + out_len):
        acc = alpha.identity
        for i in range(m):
            acc = alpha.add(acc, w[k + i * gap])
        out.append(acc)
    return Window(alpha, w.start, tuple(out))


# -- the anchored section -------------------------------------------------------


def _needed_x_indices(m: int, k: int) -> set[int]:
    """Absolute input indices the section's case formula reads to produce output k."""
    gap = factorial(m - 1)
    block = factorial(m)
    head = (m - 1) * gap  # anchor-only prefix of the base block
    if 0 <= k < head:
        return set()
    if head <= k < block:
        return {k - head}
    n, j = divmod(k, block)
    if n > 0:
        idx = {i * block + j for i in range(n)} | {i * block + gap + j for i in range(n)}
    else:
        idx = {i * block + j for i in range(n, 0)} | {i * block + gap + j for i in range(n, 0)}
    return idx | _needed_x_indices(m, j)


def section_input_range(m: int, lo: int, hi: int) -> tuple[int, int] | None:
    """Minimal absolute input range needed to produce every output in [lo, hi].

    Returns None when no input letter is read at all (the requested range
    sits inside the anchor-only prefix of the base block).
    """
    if m < 2:
        raise ShapeError(f"section needs m >= 2, got {m}")
    if lo > hi:
        raise ShapeError(f"empty requested range [{lo}, {hi}]")
    needed: set[int] = set()
    for k in range(lo, hi + 1):
        needed |= _needed_x_indices(m, k)
    if not needed:
        return None
    return (min(needed), max(needed))


def section_apply(m: int, anchor: AnchorSeq, x: Window, lo: int, hi: int) -> Window:
    """Evaluate the section of the level-(m-1) -> level-m code on [lo, hi].

    The four defining cases: anchor letters on the head of the base block,
    a shifted input minus anchor sums on its tail, and telescoping sums of
    input differences (one direction per sign of the block index) added to
    the base value elsewhere.
    """
    if m < 2:
        raise ShapeError(f"section needs m >= 2, got {m}")
    if lo > hi:
        raise ShapeError(f"empty requested range [{lo}, {hi}]")
    alpha = x.alphabet
    needed = set()
    for k in range(lo, hi + 1):
        needed |= _needed_x_indices(m, k)
    missing = tuple(sorted(i for i in needed if not x.start <= i < x.stop))
    if missing:
        raise NeededRangeError(
            f"section input window [{x.start}, {x.stop}) is missing indices {missing}",
            needed=(min(needed), max(needed)),
            missing=missing,
        )

    gap = factorial(m - 1)
    block = factorial(m)
    head = (m - 1) * gap
    base: dict[int, Element] = {}

    def y_base(j: int) -> Element:
        if j in base:
            return base[j]
        if j < head:
            v = anchor.letter(alpha, j)
        else:
            v = x[j - head]
            for i in range(1, m):
                v = alpha.sub(v, anchor.letter(alpha, j - i * gap))
        base[j] = v
        return v

    def y_at(k: int) -> Element:
        n, j = divmod(k, block)
        if n == 0:
            return y_base(j)
        acc = y_base(j)
        if n > 0:
            for i in range(n):
                acc = alpha.add(acc, alpha.sub(x[i * block + gap + j], x[i * block + j]))
        else:
            for i in range(n, 0):
                acc = alpha.add(acc, alpha.sub(x[i * block + j], x[i * block + gap + j]))
        return acc

    return Window(alpha, lo, tuple(y_at(k) for k in range(lo, hi + 1)))


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


def pair_embed_cyclic(word: CyclicWord) -> CyclicWord:
    """The same stencil on a cyclic word, reading the successor cyclically."""
    target = product_alphabet(word.alphabet, word.alphabet)
    L = word.period
    letters = tuple(word.letters[i] + word.letters[(i + 1) % L] for i in range(L))
    return CyclicWord(target, letters)


def separation_violations(w: Window, step: int, delta: Fraction) -> list[int]:
    """Indices k with both ends visible where dist(x_k, x_{k+step}) < delta."""
    bad = []
    for k in range(w.start, w.stop - step):
        if w.alphabet.metric(w[k], w[k + step]) < delta:
            bad.append(k)
    return bad
