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

Enumeration is depth-first search with constraint propagation; counting
uses a transfer matrix and is cross-checkable against enumeration.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .alphabets import Alphabet, Element, cyclic_group, parse_alphabet
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
# letters the words found by one search may hold: Sigma m=1, p=19 (9,961,510) fits
_WORD_LETTER_CAP = 10**7
# Python writes no int of more than 4300 digits as text (sys.get_int_max_str_digits)
_COUNT_DIGIT_CAP = 4300


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

    def _gap_ok(self, a: Element, b: Element) -> bool:
        d = self.alphabet.metric(a, b)
        if isinstance(self.family, Separation):
            return d >= self.family.delta
        return d == self.family.bar if self.family.exact else d >= self.family.bar

    def satisfies(self, w: CyclicWord) -> bool:
        """Does the defining constraint hold at every index of the cyclic word?"""
        if w.alphabet != self.alphabet:
            raise ShapeError("word alphabet does not match the spec alphabet")
        L = w.period
        x = w.letters
        if isinstance(self.family, Separation):
            d = self.family.step % L
            return all(self._gap_ok(x[n], x[(n + d) % L]) for n in range(L))
        return all(
            self._gap_ok(x[(n - 1) % L], x[n]) or self._gap_ok(x[n], x[(n + 1) % L])
            for n in range(L)
        )

    # -- enumeration -----------------------------------------------------------

    def enumerate_periodic(
        self,
        p: int,
        method: str = "auto",
        node_cap: int | None = None,
    ) -> tuple[CyclicWord, ...]:
        """All period-p points, sorted lexicographically on letter indices.

        For the separation family with gcd(m!, p) = 1 the search recodes
        indices by k -> k*m! mod p, which turns the constraint into a
        nearest-neighbour one, enumerates by backtracking, and inverts the
        recoding.  ``method`` is "auto", "direct" or "recoded"; a recoded
        request falls back to direct search when the recoding does not
        apply.
        """
        if p < 1:
            raise ShapeError(f"period must be >= 1, got {p}")
        if method not in ("auto", "direct", "recoded"):
            raise ShapeError(f"unknown enumeration method {method!r}")
        cap = DEFAULT_NODE_CAP if node_cap is None else node_cap
        elements = self.alphabet.all_elements()

        if isinstance(self.family, Separation):
            d = self.family.step % p
            recodable = d != 0 and gcd(self.family.step, p) == 1
            if method in ("auto", "recoded") and recodable and d != 1:
                raw = self._dfs_pairs(elements, p, 1, cap)
                words = []
                for y in raw:
                    x = [0] * p
                    for k in range(p):
                        x[(k * self.family.step) % p] = y[k]
                    words.append(tuple(x))
            else:
                words = self._dfs_pairs(elements, p, d, cap)
        else:
            words = self._dfs_adjacent(elements, p, cap)

        out = sorted(set(words))
        return tuple(CyclicWord(self.alphabet, tuple(elements[i] for i in w)) for w in out)

    def count_periodic(self, p: int) -> int:
        """Number of period-p points via the transfer matrix, exact.

        The 0/1 letter matrix A has A[a][b] = 1 iff the pair (a, b) meets
        the separation bar.  With g = gcd(m!, p) the index cycle splits
        into g independent cycles of length p/g, so the count is
        trace(A^(p/g))**g.  For g = p (m! a multiple of p) each cycle is a
        self-loop and the count is 0, matching the empty enumeration.

        With n letters and largest row sum r, trace(A^k) <= n * r^k, so the
        count is at most n^g * r^p; a count that could pass the digit cap is
        refused with ResourceCapError before any matrix power.
        """
        if not isinstance(self.family, Separation):
            raise ShapeError("transfer-matrix counting applies to separation families only")
        if p < 1:
            raise ShapeError(f"period must be >= 1, got {p}")
        elements = self.alphabet.all_elements()
        ok = self._pair_table(elements)
        n = len(elements)
        a = [[1 if ok[i][j] else 0 for j in range(n)] for i in range(n)]
        g = gcd(self.family.step, p)
        r = max(sum(row) for row in a)
        limit = 10**_COUNT_DIGIT_CAP
        if _saturating_pow(n, g, limit) * _saturating_pow(r, p, limit) >= limit:
            raise ResourceCapError(
                f"the period-{p} count may have more than {_COUNT_DIGIT_CAP} decimal digits "
                f"(bound {n}^{g}*{r}^{p} >= 10^{_COUNT_DIGIT_CAP}), above the count digit "
                f"cap ({_COUNT_DIGIT_CAP}); nothing was computed"
            )
        t = _int_matrix_trace_power(a, p // g)
        return t**g

    # -- internals ---------------------------------------------------------------

    def _pair_table(self, elements: list[Element]) -> list[list[bool]]:
        return [[self._gap_ok(a, b) for b in elements] for a in elements]

    def _dfs_pairs(self, elements, L, d, cap):
        """Backtracking over letter indices with the pair constraint (n, n+d mod L)."""
        ok = self._pair_table(elements)
        if d == 0:
            return []  # the pair (n, n) can never meet a positive bar
        checks_at = [[] for _ in range(L)]
        seen = set()
        for n in range(L):
            pair = frozenset((n, (n + d) % L))
            if pair in seen:
                continue
            seen.add(pair)
            j, i = sorted(pair)
            checks_at[i].append((j, i))

        def accept(word, t):
            j, i = t
            return ok[word[j]][word[i]]

        return _run_dfs_general(len(elements), L, checks_at, accept, cap)

    def _dfs_adjacent(self, elements, L, cap):
        """Backtracking for the disjunctive adjacent-gap constraint."""
        ok = self._pair_table(elements)
        # constraint at n involves (n-1, n, n+1); trigger once all three are set
        triples = [((n - 1) % L, n, (n + 1) % L) for n in range(L)]
        checks_at = [[] for _ in range(L)]
        for t in triples:
            checks_at[max(t)].append(t)

        def accept(word, t):
            a, b, c = t
            return ok[word[a]][word[b]] or ok[word[b]][word[c]]

        return _run_dfs_general(len(elements), L, checks_at, accept, cap)


def _run_dfs_general(n_letters, L, checks_at, accept, cap):
    """Backtracking over letter indices; checks_at[i] are the checks that
    become decidable once letter i is set, each passed to accept(word, check).

    The search keeps an explicit stack (the next letter to try at each
    position), so its depth is not bounded by Python's recursion limit.
    Every letter tried counts as one node.  The words found may hold at most
    the word letter cap, so a deep period is refused before its words fill
    memory.
    """
    out = []
    word = [0] * L
    nxt = [0] * L
    nodes = 0
    i = 0
    while i >= 0:
        if i == L:
            if (len(out) + 1) * L > _WORD_LETTER_CAP:
                raise ResourceCapError(
                    f"enumeration found more than {len(out)} words of {L} letters, above "
                    f"the word letter cap ({_WORD_LETTER_CAP} letters); nothing is returned"
                )
            out.append(tuple(word))
            i -= 1
            continue
        u = nxt[i]
        if u == n_letters:
            nxt[i] = 0
            i -= 1
            continue
        nxt[i] = u + 1
        nodes += 1
        if nodes > cap:
            raise ResourceCapError(f"enumeration exceeded the node cap ({cap})")
        word[i] = u
        if all(accept(word, t) for t in checks_at[i]):
            i += 1
    return out


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


def _int_matrix_trace_power(a: list[list[int]], k: int) -> int:
    """trace(a^k) with exact Python ints (k >= 1)."""
    n = len(a)

    def mul(x, y):
        return [
            [sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

    result = None
    base = [row[:] for row in a]
    e = k
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    assert result is not None
    return sum(result[i][i] for i in range(n))


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
        body = ",".join(map(self.alphabet.letter_text, self.letters))
        return f"{self.alphabet.token()}:[{body}]"

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


def periodic_point_complex(spec: SubshiftSpec, p: int, node_cap: int | None = None):
    """The period-p point set as a discrete complex with the shift action."""
    from .complexes import SimplicialComplex

    words = spec.enumerate_periodic(p, node_cap=node_cap)
    pos = {w: i for i, w in enumerate(words)}
    action = [pos[w.shift(1)] for w in words]
    return SimplicialComplex.discrete(
        len(words),
        action,
        p,
        labels=[w.text() for w in words],
    )
