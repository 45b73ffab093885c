"""Shift-space constraint families and their periodic points.

A period-L point of a shift is represented intrinsically as a cyclic word
of length L; constraints read indices mod L, so wraparound pairs are
checked exactly.  Two constraint families cover everything this library
studies:

* ``Separation(m, delta)``: letters m! apart must sit at metric distance
  at least delta.  Over a 3-letter group with the discrete metric this is
  the "letters m! apart differ" shift.
* ``AdjacentGap(bar, exact)``: at every index, at least one of the two
  adjacent letter gaps meets the bar (``>= bar``, or ``== bar`` in the
  exact variant).

A family is one clause of index pairs per index of a cyclic word
(``SubshiftSpec.clauses``) and one distance bar (``SubshiftSpec.bar``): the
metric is translation invariant, so the bar read at a letter difference
decides a pair, one exact ``Fraction`` comparison per difference.
``satisfies`` reads the bar at each clause pair of a single word;
``pair_table`` is the bar at every letter pair, an (n, n) read-only bool
array refused above 2^20 pairs before any letter is listed.  One search,
level by level, finds the period-p words as an (n_words, p) array of letter
indices (``periodic_words``), filing each clause under the depth that
completes it; enumeration, the torus approximations and the word complex
read that array.  The word complex (``periodic_point_complex``) takes its
shift action from one lexsort of the rows rolled one column, and its labels
from one text per letter index.
The count is the trace of a power of the pair table as a transfer matrix,
in int64 where a bound proves it exact and in Python ints otherwise, refused
above 10^9 multiply-adds before the table is built; counts are
cross-checkable against enumeration.
"""
from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import factorial, gcd

import numpy as np

from .alphabets import Alphabet, DistanceBar, Element, cyclic_group, parse_alphabet
from .errors import ResourceCapError, ShapeError

__all__ = [
    "Separation",
    "AdjacentGap",
    "SubshiftSpec",
    "CyclicWord",
    "mismatch_shift",
    "neighbor_gap_shift",
    "OrbitDecomposition",
    "orbit_decompose",
    "parse_word",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 10**7
# letters the words found by one search may hold: Sigma m=1, p=19 (9,961,434) fits
_WORD_LETTER_CAP = 10**7
# letters the prefixes kept at one search level may hold
_LEVEL_LETTER_CAP = 10**8
# Python writes no int of more than 4300 digits as text (sys.get_int_max_str_digits)
_COUNT_DIGIT_CAP = 4300
# letter pairs one table may hold: S^3:q=8 (512^2) fits
_PAIR_TABLE_CAP = 1 << 20
# multiply-adds of one transfer-matrix power: S^3:q=8 at p = 5 (3 * 512^3) fits
_POWER_WORK_CAP = 10**9


@dataclass(frozen=True)
class Separation:
    """Letters m! apart must be at metric distance >= delta."""

    m: int
    delta: Fraction

    def __post_init__(self):
        if self.m < 1:
            raise ShapeError(f"separation family needs m >= 1, got {self.m}")
        if not 0 < self.delta:
            raise ShapeError("separation family needs delta > 0")

    @property
    def step(self) -> int:
        return factorial(self.m)


@dataclass(frozen=True)
class AdjacentGap:
    """At every index, one of the two adjacent gaps meets the bar.

    ``exact=False`` reads the bar as ``gap >= bar``; ``exact=True`` as
    ``gap == bar`` (on a circle grid with bar 1 that is the antipodal
    relation).
    """

    bar: Fraction
    exact: bool = False

    def __post_init__(self):
        if not 0 < self.bar:
            raise ShapeError("adjacent-gap family needs bar > 0")


Family = Separation | AdjacentGap


@dataclass(frozen=True)
class SubshiftSpec:
    alphabet: Alphabet
    family: Family

    def __post_init__(self):
        if isinstance(self.family, Separation):
            if self.family.delta > self.alphabet.diameter:
                raise ShapeError(
                    f"delta {self.family.delta} exceeds alphabet diameter "
                    f"{self.alphabet.diameter}"
                )
        else:
            from .alphabets import _CircleGrid  # single circle only

            if self.alphabet.n_factors != 1 or not isinstance(
                self.alphabet.factors[0], _CircleGrid
            ):
                raise ShapeError("adjacent-gap families require a single circle-grid alphabet")

    # -- predicates ----------------------------------------------------------

    def _meets_bar(self, d: Fraction) -> bool:
        """Does a letter gap of exact distance d meet the family's bar?"""
        if isinstance(self.family, Separation):
            return d >= self.family.delta
        return d == self.family.bar if self.family.exact else d >= self.family.bar

    @cached_property
    def bar(self) -> DistanceBar:
        """The family's one distance test: read at the index of i - j
        (``digitwise``), it says whether letters i and j meet the bar."""
        return DistanceBar(self.alphabet, self._meets_bar)

    def clauses(self, L: int) -> list[tuple[tuple[int, int], ...]]:
        """The defining constraint on a cyclic word of length L: one clause per
        index n, a tuple of index pairs.  A word passes when, in every clause,
        the letters at some pair meet the family's bar.  Separation asks the
        pair (n, n + m!) mod L; AdjacentGap asks one of (n-1, n) and (n, n+1)
        mod L.  The search and ``satisfies`` read this list."""
        if isinstance(self.family, Separation):
            d = self.family.step
            return [((n, (n + d) % L),) for n in range(L)]
        return [(((n - 1) % L, n), (n, (n + 1) % L)) for n in range(L)]

    def satisfies(self, w: CyclicWord) -> bool:
        """Does every clause hold on the cyclic word?  Each pair is one read of
        ``bar`` at its letter difference; no table is built, so no cap applies."""
        if w.alphabet != self.alphabet:
            raise ShapeError("word alphabet does not match the spec alphabet")
        x = [self.alphabet.index(e) for e in w.letters]
        diff, bar = self.alphabet.digitwise, self.bar
        return all(any(bar[diff(operator.sub, x[a], x[b])] for a, b in c)
                   for c in self.clauses(w.period))

    # -- enumeration -----------------------------------------------------------

    def enumerate_periodic(self, p: int, method: str = "auto",
                           node_cap: int | None = None) -> tuple[CyclicWord, ...]:
        """The rows of ``periodic_words`` as cyclic words, in the same order."""
        words = self.periodic_words(p, method, node_cap).tolist()
        elements = self.alphabet.all_elements()
        return tuple(CyclicWord(self.alphabet, tuple(elements[i] for i in w)) for w in words)

    def periodic_words(self, p: int, method: str = "auto", node_cap: int | None = None) -> np.ndarray:
        """All period-p points as one (n_words, p) array of letter indices in
        ``all_elements`` order, uint8 up to 256 letters and int16 above, rows
        sorted lexicographically.

        The search sets positions in the order 0, 1, ..., p-1.  For the
        separation family with gcd(m!, p) = 1 it may instead set them in the
        order 0, m!, 2*m!, ... mod p (the recoding k -> k*m! mod p), which
        puts the two positions of each clause at neighbouring depths.
        ``method`` is "auto", "direct" or "recoded"; a recoded request falls
        back to direct search when the recoding does not apply.  A period
        above the word letter cap, which one word would break, is refused first.
        """
        if p < 1:
            raise ShapeError(f"period must be >= 1, got {p}")
        if method not in ("auto", "direct", "recoded"):
            raise ShapeError(f"unknown enumeration method {method!r}")
        if p > _WORD_LETTER_CAP:
            raise ResourceCapError(
                f"a period-{p} word has {p} letters, above the word letter cap "
                f"({_WORD_LETTER_CAP} letters); nothing was enumerated"
            )
        order = list(range(p))
        if method != "direct" and isinstance(self.family, Separation):
            d = self.family.step % p
            if d > 1 and gcd(d, p) == 1:
                order = [k * d % p for k in range(p)]
        cap = DEFAULT_NODE_CAP if node_cap is None else node_cap
        return _search(self.pair_table, order, self.clauses(p), cap)

    def count_periodic(self, p: int) -> int:
        """Number of period-p points via the transfer matrix, exact.

        The letter matrix A is ``pair_table`` read as 0/1: A[a][b] = 1 iff
        the pair (a, b) meets the separation bar.  With g = gcd(m!, p) the
        index cycle splits into g independent cycles of length p/g, so the
        count is trace(A^(p/g))**g.  For g = p (m! a multiple of p) each cycle is a
        self-loop and the count is 0, matching the empty enumeration.

        With n letters and largest row sum r, trace(A^k) <= n * r^k, so the
        count is at most n^g * r^p; a count that could pass the digit cap is
        refused with ResourceCapError before any matrix power.  So is a power
        whose n^3 multiply-adds per product, times its products, pass the
        work cap; that is predicted before the table is built.  Every entry
        and partial sum of the power is at most r^k, so the power runs on
        int64 when n * r^k < 2^63, which keeps it exact, and on Python ints
        otherwise.
        """
        if not isinstance(self.family, Separation):
            raise ShapeError("transfer-matrix counting applies to separation families only")
        if p < 1:
            raise ShapeError(f"period must be >= 1, got {p}")
        n = self._letter_count()
        g = gcd(self.family.step, p)
        k = p // g
        products = k.bit_length() + k.bit_count() - 2  # squarings, then multiplies
        if n**3 * products > _POWER_WORK_CAP:
            raise ResourceCapError(
                f"the period-{p} count needs {products} products of {n}x{n} matrices "
                f"({n**3 * products} multiply-adds), above the transfer-matrix work cap "
                f"({_POWER_WORK_CAP}); nothing was computed"
            )
        table = self.pair_table
        r = int(table.sum(axis=1).max())
        limit = 10**_COUNT_DIGIT_CAP
        if _saturating_pow(n, g, limit) * _saturating_pow(r, p, limit) >= limit:
            raise ResourceCapError(
                f"the period-{p} count may have more than {_COUNT_DIGIT_CAP} decimal digits "
                f"(bound {n}^{g}*{r}^{p} >= 10^{_COUNT_DIGIT_CAP}), above the count digit "
                f"cap ({_COUNT_DIGIT_CAP}); nothing was computed"
            )
        # entries are non-negative, so every partial sum of every product in
        # the power is at most r^k and the trace at most n * r^k
        dtype = np.int64 if n * r**k < 2**63 else object
        t = np.linalg.matrix_power(table.astype(dtype), k).trace()
        return int(t) ** g

    # -- internals ---------------------------------------------------------------

    @cached_property
    def pair_table(self) -> np.ndarray:
        """The letter-pair relation, read-only and built once per spec: [i, j],
        in ``all_elements`` order, is ``bar`` at the difference of i and j."""
        letters = np.arange(self._letter_count(), dtype=np.int64)
        table = self.bar.read_all(self.alphabet.digitwise(operator.sub, letters[:, None], letters))
        table.flags.writeable = False
        return table

    def _letter_count(self) -> int:
        """The number of letters; refused with ResourceCapError, before any
        letter is listed, when their pairs pass the pair table cap."""
        n = self.alphabet.order
        if n * n > _PAIR_TABLE_CAP:
            raise ResourceCapError(
                f"the letter-pair table of {n} letters would hold {n * n} pairs, "
                f"above the pair table cap ({_PAIR_TABLE_CAP}); nothing was compared"
            )
        return n


def _search(table, order, clauses, cap):
    """The words that pass every clause, found level by level.

    Level i sets position order[i] to each of the n letters for every prefix
    kept by level i - 1, and keeps the rows that pass each distinct clause
    whose last position that sets, read from the pair table with the
    prefixes' letters broadcast against the n new ones.  A prefix holds only
    the letters that later levels read; each level records its rows as
    (parent, letter), through which the words are read back at the end.
    Every letter tried is one node, as depth first.  The node cap is checked
    before each level, the level letter cap before its prefixes and the word
    letter cap before the words.  Only a recoded order needs a final sort.
    """
    L, n = len(order), len(table)
    depth = [0] * L
    for i, pos in enumerate(order):
        depth[pos] = i
    checks_at = [[] for _ in range(L)]
    last = list(range(L))  # the last depth that reads the letter set at each depth
    seen = set()
    for clause in clauses:
        key = frozenset(frozenset(pair) for pair in clause)  # the table is symmetric
        if key not in seen:
            seen.add(key)
            pairs = [(depth[a], depth[b]) for a, b in clause]
            at = max(map(max, pairs))
            checks_at[at].append(pairs)
            for j in chain.from_iterable(pairs):
                last[j] = max(last[j], at)
    dtype = np.uint8 if n <= 256 else np.int16
    held, prefix = [], np.zeros((1, 0), dtype=dtype)  # depths read later, and their letters
    levels, nodes = [], 0
    for i in range(L):
        nodes += len(prefix) * n
        if nodes > cap:
            raise ResourceCapError(
                f"search level {i} would reach {nodes} nodes, above the node cap ({cap}); "
                "nothing was enumerated")
        read = {j: prefix[:, k, None] for k, j in enumerate(held)}
        read[i] = np.arange(n, dtype=dtype)
        keep = np.ones((len(prefix), n), dtype=bool)
        for pairs in checks_at[i]:
            keep &= reduce(operator.or_, (table[read[a], read[b]] for a, b in pairs))
        parent, letter = np.divmod(np.flatnonzero(keep), n)
        levels.append((parent, letter := letter.astype(dtype)))
        cols = [k for k, j in enumerate(held) if last[j] > i]
        held = [held[k] for k in cols] + [i] * (last[i] > i)
        if len(parent) * len(held) > _LEVEL_LETTER_CAP:
            raise ResourceCapError(
                f"search level {i} would hold {len(parent)} prefixes of {len(held)} letters "
                f"({len(parent) * len(held)} letters), above the level letter cap ({_LEVEL_LETTER_CAP})")
        prefix = np.column_stack([prefix[:, cols][parent], letter][: 1 + (last[i] > i)])
    if len(prefix) * L > _WORD_LETTER_CAP:
        raise ResourceCapError(
            f"enumeration found more than {_WORD_LETTER_CAP // L} words of {L} letters, above "
            f"the word letter cap ({_WORD_LETTER_CAP} letters); nothing is returned"
        )
    words = np.empty((len(prefix), L), dtype=dtype)
    at = np.arange(len(prefix))
    for i in range(L - 1, -1, -1):
        parent, letter = levels[i]
        words[:, order[i]] = letter[at]
        at = parent[at]
    return words if order == sorted(order) else words[np.lexsort(words.T[::-1])]


def _saturating_pow(base: int, exp: int, limit: int) -> int:
    """min(base**exp, limit) for base >= 0, never forming a number above limit**2."""
    out = 1
    while exp:
        if exp & 1:
            out = min(out * base, limit)
        exp >>= 1
        if exp:
            base = min(base * base, limit)
    return out


# -- cyclic words ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CyclicWord:
    """A period-L configuration; the index set is Z/LZ."""

    alphabet: Alphabet
    letters: tuple[Element, ...]

    def __post_init__(self):
        if not self.letters:
            raise ShapeError("cyclic word needs period >= 1")
        object.__setattr__(
            self, "letters", tuple(self.alphabet.element(x) for x in self.letters)
        )

    @property
    def period(self) -> int:
        return len(self.letters)

    def __getitem__(self, n: int) -> Element:
        return self.letters[n % self.period]

    def shift(self, k: int = 1) -> CyclicWord:
        """The image under the k-th shift power: new letter at i is old letter at i+k."""
        L = self.period
        return CyclicWord(self.alphabet, tuple(self.letters[(i + k) % L] for i in range(L)))

    def text(self) -> str:
        body = ",".join(map(self.alphabet.letter_texts.__getitem__, self.letters))
        return f"{self.alphabet.word_head}{body}]"

    def __lt__(self, other: CyclicWord) -> bool:
        return self.letters < other.letters


_WORD_RE = re.compile(r"^(?P<alpha>.*):\[(?P<body>.*)\]$")


def parse_word(text: str) -> CyclicWord:
    """Inverse of CyclicWord.text, e.g. "Z3:[0,1,2]" or "S^2:q=8:[[0,4],[4,0]]"."""
    m = _WORD_RE.match(text.strip())
    if not m:
        raise ShapeError(f"unrecognized word text: {text!r}")
    alphabet = parse_alphabet(m.group("alpha"))
    body = json.loads("[" + m.group("body") + "]")
    return CyclicWord(alphabet, tuple(alphabet.element(x) for x in body))


def mismatch_shift(m: int, n_letters: int = 3, delta: Fraction = Fraction(1, 2)) -> SubshiftSpec:
    """Letters m! apart must differ, over a cyclic group with the discrete metric.

    Any 0 < delta <= 1 gives the same predicate there; the default sits
    strictly inside the interval.
    """
    return SubshiftSpec(cyclic_group(n_letters), Separation(m, delta))


def neighbor_gap_shift(alphabet: Alphabet, bar: Fraction, exact: bool = False) -> SubshiftSpec:
    """At every index one of the two adjacent gaps meets the bar."""
    return SubshiftSpec(alphabet, AdjacentGap(bar, exact))


# -- orbit structure -----------------------------------------------------------


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple[CyclicWord, ...], ...]
    free: bool
    witness: CyclicWord | None  # a word with a short orbit, when not free

    @property
    def n_orbits(self) -> int:
        return len(self.orbits)


def orbit_decompose(words, p: int) -> OrbitDecomposition:
    """Partition period-p words into shift orbits and flag freeness.

    Freeness means every orbit has size exactly p.  For prime p the only
    other possibility is a shift-fixed (constant) word, which is returned
    as the witness.
    """
    words = list(words)
    for w in words:
        if w.period != p:
            raise ShapeError(f"word of period {w.period} in a period-{p} decomposition")
    given = {w: w for w in words}  # orbits hold the caller's words, not shifted copies
    placed = set()
    orbits = []
    free = True
    witness = None
    # ascending order: each orbit is met first at its least word
    for w in sorted(given):
        if w in placed:
            continue
        seen = set()
        x = w
        while x not in seen:
            seen.add(x)
            x = x.shift(1)
        if not seen <= given.keys():
            raise ShapeError("orbit leaves the input set; input is not shift-closed")
        orbits.append(tuple(sorted(given[x] for x in seen)))
        if len(seen) != p:
            free = False
            if witness is None:
                witness = w
        placed |= seen
    return OrbitDecomposition(tuple(orbits), free, witness)


def periodic_point_complex(spec: SubshiftSpec, p: int):
    """The period-p point set as a discrete complex with the shift action."""
    return _word_complex(spec.periodic_words(p), spec.alphabet, p)


def _word_action(words: np.ndarray) -> np.ndarray:
    """The shift action on the rows of a shift-closed (n_words, p) letter-index
    array, sorted lexicographically as ``periodic_words`` returns them: entry i
    is the row of word i shifted once.

    Shifting a word rolls its row one column left.  One lexsort of the rolled
    rows sorts them back onto the rows exactly when the set is shift-closed,
    and the action is the inverse of that sort.
    """
    rolled = np.roll(words, -1, axis=1)
    order = np.lexsort(rolled.T[::-1])
    if not np.array_equal(rolled[order], words):
        raise ShapeError("the words are not a sorted shift-closed set")
    action = np.empty(len(words), dtype=np.int64)
    action[order] = np.arange(len(words))
    return action


def _word_complex(words: np.ndarray, alphabet: Alphabet, p: int):
    """The rows of a sorted shift-closed letter-index array as a discrete
    complex with the shift action (``_word_action``), vertices in row order.
    The labels are the words' texts, joined column by column from one text
    per letter index.
    """
    from .complexes import SimplicialComplex

    action = _word_action(words)
    texts = np.array([alphabet.letter_texts[e] for e in alphabet.all_elements()], dtype=object)
    head = alphabet.word_head
    labels = [head + ",".join(row) + "]" for row in zip(*texts[words.T].tolist())]
    return SimplicialComplex.discrete(len(words), action, p, labels=labels)
