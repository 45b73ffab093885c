"""Finite abelian alphabets with exact translation-invariant metrics.

Two base kinds are supported: a cyclic group of order n carrying the
discrete metric, and a circle of circumference 2 discretized to q grid
points carrying the arc-length metric.  Products combine factors with the
max metric.  Every distance is a `Fraction`, so threshold predicates such
as ``dist >= delta`` are decided exactly, with no tolerance anywhere.

Elements are tuples of integer residues, one per factor, always reduced
into ``[0, order)``.  Single-factor alphabets accept and print bare ints
for convenience.  Inner loops may instead name a letter by its mixed-radix
index (``index``/``unindex``, the ``all_elements`` order): ``digitwise``
is their one digit arithmetic, so ``digitwise(operator.sub, a, b)`` is the
index of a - b, on single indices or on numpy arrays that make whole tables.
The metric is translation invariant, d(a, b) = d(a - b, 0), so a
``DistanceBar`` of at most n exact comparisons, read at the difference
index, decides a distance test on every letter pair.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product as _iproduct
from typing import Callable, Iterable, Union

import numpy as np

from .errors import ShapeError

Element = tuple[int, ...]
ElementLike = Union[int, Iterable[int]]

__all__ = [
    "Alphabet",
    "DistanceBar",
    "Element",
    "LetterTexts",
    "cyclic_group",
    "circle_grid",
    "product_alphabet",
    "parse_alphabet",
]


@dataclass(frozen=True)
class _Cyclic:
    order: int

    def metric(self, a: int, b: int) -> Fraction:
        # discrete metric: 0 iff equal, else 1
        return Fraction(0) if a == b else Fraction(1)

    @property
    def diameter(self) -> Fraction:
        return Fraction(1)

    @property
    def token(self) -> str:
        return f"Z{self.order}"


@dataclass(frozen=True)
class _CircleGrid:
    points: int  # grid point j sits at j * (2/q) on the circle of circumference 2

    def metric(self, a: int, b: int) -> Fraction:
        q = self.points
        d = abs(a - b) % q
        return Fraction(2 * min(d, q - d), q)

    @property
    def order(self) -> int:
        return self.points

    @property
    def diameter(self) -> Fraction:
        return Fraction(1)

    @property
    def token(self) -> str:
        return f"S:q={self.points}"


_Factor = Union[_Cyclic, _CircleGrid]


@dataclass(frozen=True)
class Alphabet:
    """A finite abelian group with a translation-invariant rational metric."""

    factors: tuple[_Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ShapeError("product alphabet needs at least one factor")

    # -- structure ---------------------------------------------------------

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f.order
        return n

    @property
    def identity(self) -> Element:
        return (0,) * self.n_factors

    @property
    def diameter(self) -> Fraction:
        return max(f.diameter for f in self.factors)

    def element(self, value: ElementLike) -> Element:
        """Normalize an int (single factor) or sequence of ints to a reduced tuple."""
        if isinstance(value, int):
            if self.n_factors != 1:
                raise ShapeError(
                    f"alphabet {self.token()} has {self.n_factors} factors; "
                    "a bare int is ambiguous"
                )
            coords: tuple[int, ...] = (value,)
        else:
            coords = tuple(int(v) for v in value)
        if len(coords) != self.n_factors:
            raise ShapeError(
                f"element of arity {len(coords)} does not fit alphabet {self.token()}"
            )
        return tuple(c % f.order for c, f in zip(coords, self.factors))

    # -- group structure and metric ----------------------------------------

    def add(self, a: ElementLike, b: ElementLike) -> Element:
        a, b = self.element(a), self.element(b)
        return tuple((x + y) % f.order for x, y, f in zip(a, b, self.factors))

    def sub(self, a: ElementLike, b: ElementLike) -> Element:
        a, b = self.element(a), self.element(b)
        return tuple((x - y) % f.order for x, y, f in zip(a, b, self.factors))

    def metric(self, a: ElementLike, b: ElementLike) -> Fraction:
        """Max over factors of the factor metric; exact rational."""
        a, b = self.element(a), self.element(b)
        return max(f.metric(x, y) for x, y, f in zip(a, b, self.factors))

    # -- enumeration helpers -------------------------------------------------

    def all_elements(self) -> list[Element]:
        return list(_iproduct(*[range(f.order) for f in self.factors]))

    def index(self, a: ElementLike) -> int:
        """Mixed-radix rank of an element, consistent with all_elements order."""
        a = self.element(a)
        i = 0
        for c, f in zip(a, self.factors):
            i = i * f.order + c
        return i

    def unindex(self, i: int) -> Element:
        coords = []
        for f in reversed(self.factors):
            coords.append(i % f.order)
            i //= f.order
        return tuple(reversed(coords))

    # -- letter arithmetic ---------------------------------------------------

    def digitwise(self, fn: Callable, *letters):
        """Letter indices of ``fn`` applied factor by factor: each argument
        (letter indices, ints or int64 arrays that broadcast) is split into its
        mixed-radix digits, ``fn`` maps the digits of one factor to integers,
        and their residues mod that factor's order are the digits of the
        result.  Every alphabet is a product of cyclic groups, so any map
        built of sums and differences of letters, prefix sums included, is
        such an ``fn``.  The
        arguments must lie in [0, order): the leading digit is then a quotient
        and the last a remainder, and one factor needs neither."""
        out, stride, top = 0, 1, self.order
        for f in reversed(self.factors):
            digits = [a // stride if stride > 1 else a for a in letters]
            if stride * f.order < top:
                digits = [d % f.order for d in digits]
            part = fn(*digits) % f.order
            out = part if stride == 1 else out + part * stride
            stride *= f.order
        return out

    # -- text form -----------------------------------------------------------

    def token(self) -> str:
        if self.n_factors == 1:
            return self.factors[0].token
        if all(isinstance(f, _CircleGrid) for f in self.factors):
            qs = {f.points for f in self.factors}
            if len(qs) == 1:
                return f"S^{self.n_factors}:q={qs.pop()}"
        raise ShapeError("no serialization token for this product alphabet")

    def letter_text(self, a: Element) -> str:
        """Text of a normalized element, as stored in words."""
        return str(a[0]) if self.n_factors == 1 else "[" + ",".join(map(str, a)) + "]"

    @cached_property
    def word_head(self) -> str:
        """The text a word's letters follow: ``token()`` and an opening bracket,
        made on first read."""
        return f"{self.token()}:["

    @cached_property
    def letter_texts(self) -> LetterTexts:
        """``letter_texts[a]``: the text of normalized element a, made on first read."""
        return LetterTexts(self)

    def word_texts(self, words: np.ndarray) -> list[str]:
        """The text of each row of an (n_words, L) letter-index array, as
        ``CyclicWord.text`` writes the word: joined column by column from one
        text per letter index."""
        texts = np.array([self.letter_texts[e] for e in self.all_elements()], dtype=object)
        return [self.word_head + ",".join(row) + "]" for row in zip(*texts[words.T].tolist())]


class LetterTexts(dict):
    """``texts[a]``: ``letter_text(a)`` of a normalized element, one text per
    letter, made on first read."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet: Alphabet):
        super().__init__()
        self.alphabet = alphabet

    def __missing__(self, a: Element) -> str:
        text = self[a] = self.alphabet.letter_text(a)
        return text


class DistanceBar(dict):
    """``bar[d]``: does the distance from letter index d to the identity pass
    ``test``?  One exact comparison per letter, made on first read.  By
    translation invariance ``bar[i - j]``, read at the index of the difference
    of letters i and j, decides ``test(d(i, j))``."""

    __slots__ = ("alphabet", "test")

    def __init__(self, alphabet: Alphabet, test: Callable[[Fraction], bool]):
        super().__init__()
        self.alphabet, self.test = alphabet, test

    def __missing__(self, d: int) -> bool:
        a = self.alphabet
        ok = self[d] = self.test(a.metric(a.unindex(d), a.identity))
        return ok

    def read_all(self, d: np.ndarray) -> np.ndarray:
        """``bar[d]`` for every entry of an int array of letter indices, as a
        bool array of its shape: one read per letter when the array has at
        least as many entries as the alphabet has letters, and otherwise one
        per distinct index."""
        n = self.alphabet.order
        if n <= d.size:
            return np.array([self[v] for v in range(n)], dtype=bool)[d]
        diffs, at = np.unique(d, return_inverse=True)
        return np.array([self[v] for v in diffs.tolist()], dtype=bool)[at].reshape(d.shape)


def cyclic_group(n: int) -> Alphabet:
    """Z/nZ with the discrete metric (0 on the diagonal, 1 off it)."""
    if n < 2:
        raise ShapeError(f"cyclic group needs order >= 2, got {n}")
    return Alphabet((_Cyclic(n),))


def circle_grid(q: int) -> Alphabet:
    """The circle of circumference 2 sampled at q points, arc metric.

    q must be a multiple of 4 so the thresholds 1/2 and 1 fall exactly on
    grid distances.
    """
    if q < 4 or q % 4 != 0:
        raise ShapeError(f"circle grid needs q >= 4 with 4 | q, got {q}")
    return Alphabet((_CircleGrid(q),))


def product_alphabet(*alphabets: Alphabet) -> Alphabet:
    if not alphabets:
        raise ShapeError("product of zero alphabets")
    factors: tuple[_Factor, ...] = ()
    for a in alphabets:
        factors += a.factors
    return Alphabet(factors)


_TOKEN_RE = re.compile(r"^(?:Z(?P<n>\d+)|S(?:\^(?P<N>\d+))?:q=(?P<q>\d+))$")


def parse_alphabet(token: str) -> Alphabet:
    """Parse "Z3", "S:q=8" or "S^2:q=8"."""
    m = _TOKEN_RE.match(token.strip())
    if not m:
        raise ShapeError(f"unrecognized alphabet token: {token!r}")
    if m.group("n") is not None:
        return cyclic_group(int(m.group("n")))
    q = int(m.group("q"))
    n = int(m.group("N") or 1)
    if n < 1:
        raise ShapeError(f"bad product arity in token: {token!r}")
    return product_alphabet(*[circle_grid(q)] * n)
