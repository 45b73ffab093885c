"""Seeded property suites for the identities this library implements.

Each check reruns one proven statement on randomized or exhaustively
enumerated desk-scale instances and reports trials, failures and the first
counterexample.  The suites are part of the shipped surface (reachable
from the command line), not only of the test suite: the point of the
artifact is auditable reproduction, so the verifiers must be rerunnable by
a reader with one command and one seed.

The section suites 3.1 and 3.2 run in two phases (``_SectionSuite``).
First they draw every trial from the seeded random stream in its order,
exactly as the tuple-based public functions draw it, so a seed gives the
same trials either way; then they evaluate the drawn trials together, as
prefix sums on one padded row of letter indices per trial, in batches of
at most 2^14 padded letters.  They build letter tuples only for a failure
record.  The embedding suite embed-1.5 checks all
period-p words at once, as rows of the search's word array, and writes out
a word only for its first counterexample.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import factorial
from typing import NamedTuple, Sequence

import numpy as np

from .alphabets import Alphabet, circle_grid, product_alphabet
from .complexes import SimplicialComplex, _check_copies, is_EnZp, join_power
from .coindex import (
    IndexReport,
    MapEvidence,
    coindex_join_lower,
    coindex_transport,
    exact_index_finite_free,
    index_of_join_of_finite,
)
from .errors import ResourceCapError, ShapeError
from .homology import betti_numbers
from .seqmaps import (
    AnchorSeq,
    _anchor_keys,
    _below,
    _block_sums,
    _FarRows,
    _random_separated_window,
    _section_rows,
    _section_shape,
    _separated_letters,
    _violations,
    pair_embed_rows,
    section_apply,
    section_input_range,
)
from .shiftspaces import (
    _PAIR_TABLE_CAP,
    CyclicWord,
    Separation,
    SubshiftSpec,
    _word_action,
    mismatch_shift,
    neighbor_gap_shift,
    orbit_decompose,
    periodic_point_complex,
)

__all__ = [
    "VerifyResult",
    "check_roundtrip",
    "check_section_containment",
    "check_periodic_finite",
    "check_join_model",
    "check_pair_embedding",
    "section_shift_mismatch",
    "LEMMA_IDS",
    "run_lemma_check",
]

# letters a section trial window may hold; m = 8 (282,240) runs, m = 9 is refused
_WINDOW_CAP = 10**6
# padded letters a batch of section trials holds, or one trial if its window is
# larger: 128 KiB per int64 array of a batch
_BATCH_LETTERS = 1 << 14


@dataclass(frozen=True)
class VerifyResult:
    lemma: str
    passed: bool
    trials: int
    failures: int
    first_counterexample: dict | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        doc = {
            "lemma": self.lemma,
            "passed": self.passed,
            "trials": self.trials,
            "failures": self.failures,
            "details": self.details,
        }
        if self.first_counterexample is not None:
            doc["first_counterexample"] = self.first_counterexample
        return doc


# anchor seeds of the section trials are drawn below this bound
_ANCHOR_SEEDS = 10**9


class _Drawn(NamedTuple):
    """A batch of drawn section trials: per trial its check range [lo, hi], input
    offset and length and anchor seed, and its rows of input and anchor letters."""

    lo: np.ndarray
    hi: np.ndarray
    start: np.ndarray
    length: np.ndarray
    seed: np.ndarray
    xs: np.ndarray
    anchors: np.ndarray


class _SectionSuite:
    """The trials of section suite 3.1 or 3.2 in two phases.

    Phase one, ``draw``, takes each trial from the random stream in its
    order: the output range [lo, hi], a delta-separated input window over
    ``section_input_range`` of [lo, hi + extend] and an anchor seed, then the
    anchor letters its outputs read, each from the seeded anchor generator
    reseeded for it.  Every ``randrange`` of the stream is the loop of
    ``_below``.  Phase two evaluates a batch of drawn trials at once, one
    padded row per trial: each row holds absolute indices [-2 m!, 5 m!), where
    every input and output of a trial lies, and ``_section_rows`` gives the
    section on all rows, which ``roundtrip`` or ``containment`` compares.  One
    distance table, one cache of ranges and one anchor generator serve every
    trial of a call; the table is built while, fully read, its n^2 list slots
    of 8 bytes fit the bytes of the pair table cap.
    """

    def __init__(self, m: int, alphabet: Alphabet, delta: Fraction, extend: int):
        self.m, self.alphabet, self.extend = m, alphabet, extend
        self.gap, self.block, self.head = _section_shape(m, 0, 0)
        self.frame = 7 * self.block
        n = alphabet.order
        self.far = SubshiftSpec(alphabet, Separation(m, delta)).bar
        self.rows = _FarRows(alphabet, self.far, tabled=8 * n * n <= _PAIR_TABLE_CAP)
        self.shapes: dict[tuple[int, int], tuple[int, int, Sequence[int]]] = {}
        self.anchor = random.Random()

    def _shape(self, lo: int, hi: int) -> tuple[int, int, Sequence[int]]:
        """(input start, input length, anchor keys) of output range [lo, hi + extend]."""
        top = hi + self.extend
        start, stop = section_input_range(self.m, lo, top) or (0, 0)
        shape = self.shapes[lo, hi] = (start, stop - start + 1, _anchor_keys(self.m, lo, top))
        return shape

    def draw(self, rng: random.Random, count: int) -> _Drawn:
        """Phase one for the next ``count`` trials."""
        block, head, n = self.block, self.head, self.alphabet.order
        getrandbits = rng.getrandbits
        reseed, anchor_bits = self.anchor.seed, self.anchor.getrandbits
        trials, letters, anchors = [], [], []
        for _ in range(count):
            lo = _below(getrandbits, 3 * block) - 2 * block  # rng.randrange(-2 m!, m!)
            hi = lo + 1 + _below(getrandbits, 3 * block)  # lo + rng.randrange(1, 3 m! + 1)
            start, length, keys = self.shapes.get((lo, hi)) or self._shape(lo, hi)
            letters += _separated_letters(rng, self.rows, self.gap, length)
            seed = _below(getrandbits, _ANCHOR_SEEDS)
            row = [0] * head
            for k in keys:  # the letter of AnchorSeq.seeded(alphabet, seed) at k
                reseed(f"{seed}|{k}")
                row[k] = _below(anchor_bits, n)
            anchors += row
            trials.append((lo, hi, start, length, seed))
        lo, hi, start, length, seed = (np.array(v, dtype=np.int64) for v in zip(*trials))
        # trial i's letters go to row i from column start + 2 m! on
        firsts = np.arange(count) * self.frame + start + 2 * block - np.cumsum(length) + length
        xs = np.zeros((count, self.frame), dtype=np.int64)
        xs.ravel()[np.repeat(firsts, length) + np.arange(len(letters))] = letters
        return _Drawn(lo, hi, start, length, seed, xs,
                      np.array(anchors, dtype=np.int64).reshape(count, head))

    def _failures(self, drawn: _Drawn, bad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The trials of a batch with a bad entry in their check range, and the
        absolute index of the first one; row entry c is absolute c - 2 m!."""
        cols = np.arange(bad.shape[1]) - 2 * self.block
        bad &= (cols >= drawn.lo[:, None]) & (cols <= drawn.hi[:, None])
        failed = np.flatnonzero(bad.any(axis=1))
        return failed, cols[bad[failed].argmax(axis=1)]

    def section(self, drawn: _Drawn) -> np.ndarray:
        return _section_rows(self.m, self.alphabet, drawn.xs, drawn.anchors, -2)

    def roundtrip(self, drawn: _Drawn):
        """Trials where the forward code of the section differs from the input
        at some k in [lo, hi], with the first such k."""
        back = _block_sums(self.m, self.alphabet, self.section(drawn))
        return self._failures(drawn, back != drawn.xs[:, : back.shape[1]])

    def containment(self, drawn: _Drawn):
        """Trials with section letters k and k + m! not delta-separated for
        some k in [lo, hi], with the first such k."""
        bad = _violations(self.far, self.alphabet, self.section(drawn), self.block)
        return self._failures(drawn, bad)


def _section_suite(lemma, m, alphabet, delta, trials, seed) -> VerifyResult:
    """One trial loop for the section suites 3.1 and 3.2.

    3.1 evaluates the section m! past each check range and checks
    containment, 3.2 evaluates it (m-1)*(m-1)! past and checks the round
    trip.  The trials are drawn and then evaluated in batches
    (``_SectionSuite``) whose padded rows hold at most ``_BATCH_LETTERS``
    letters, or one trial when its rows are longer; those stay within the
    window cap, checked first.  The first failing index of the first failing
    trial goes into its record.
    """
    gap, block, head = _section_shape(m, 0, 0)
    suite = _SectionSuite(m, alphabet, delta, block if lemma == "3.1" else head)
    check = suite.containment if lemma == "3.1" else suite.roundtrip
    window = suite.frame  # outputs lie in [-2 m!, 5 m!)
    if window > _WINDOW_CAP:
        raise ResourceCapError(
            f"verify {lemma} at m={m}: a trial window can reach {window} letters, "
            f"above the window cap ({_WINDOW_CAP}); no trial was run"
        )
    batch = max(_BATCH_LETTERS // window, 1)
    rng = random.Random(seed)
    failures = 0
    first = None
    for done in range(0, trials, batch):
        drawn = suite.draw(rng, min(batch, trials - done))
        failed, at = check(drawn)
        failures += len(failed)
        if first is None and len(failed):
            i, k = int(failed[0]), int(at[0])
            start = int(drawn.start[i])
            xs = drawn.xs[i, start + 2 * block : start + 2 * block + drawn.length[i]].tolist()
            bad = {"first_bad_pair": [k, k + block]} if lemma == "3.1" else {"first_bad_index": k}
            first = {
                "trial": done + i,
                "m": m,
                "alphabet": alphabet.token(),
                "anchor_seed": int(drawn.seed[i]),
                "window": [list(alphabet.unindex(e)) for e in xs],
                "offset": start,
                **bad,
            }
    return VerifyResult(
        lemma, failures == 0, trials, failures, first,
        details={"m": m, "alphabet": alphabet.token(), "seed": seed},
    )


def check_roundtrip(
    m: int, alphabet: Alphabet, delta: Fraction, trials: int, seed: int
) -> VerifyResult:
    """Forward code after the section is the identity, bit-exact, on random
    valid windows and random anchors."""
    return _section_suite("3.2", m, alphabet, delta, trials, seed)


def check_section_containment(
    m: int, alphabet: Alphabet, delta: Fraction, trials: int, seed: int
) -> VerifyResult:
    """Section outputs satisfy the level-m pair constraint at every checkable pair."""
    return _section_suite("3.1", m, alphabet, delta, trials, seed)


def check_periodic_finite(m: int, p: int) -> VerifyResult:
    """No fixed point; for a prime p coprime to m! the period-p set is a
    nonempty finite free orbit set whose size matches the transfer count."""
    spec = mismatch_shift(m)
    failures = []
    fixed = spec.enumerate_periodic(1)
    if fixed:
        failures.append({"check": "no fixed point", "got": len(fixed)})
    words = spec.enumerate_periodic(p)
    count = spec.count_periodic(p)
    if count != len(words):
        failures.append({"check": "count matches enumeration", "count": count,
                         "enumerated": len(words)})
    if factorial(m) % p != 0:
        if not words:
            failures.append({"check": "nonempty", "p": p})
        dec = orbit_decompose(words, p)
        if not dec.free:
            failures.append({"check": "free orbits",
                             "witness": dec.witness.text() if dec.witness else None})
    return VerifyResult(
        "4.1", not failures, 3, len(failures),
        failures[0] if failures else None,
        details={"m": m, "p": p, "period_p_points": len(words)},
    )


def check_join_model(m: int, p: int, copies: int, ell: int | None = None) -> VerifyResult:
    """A join of copies of the period-p set is the expected free model: exact
    index and coindex copies-1, certified structurally, homology agreeing."""
    _check_copies(copies)
    k = copies - 1
    base = periodic_point_complex(mismatch_shift(m), p)
    n = base.n_vertices
    failures = []
    if n == 0:
        failures.append({"check": "nonempty period-p set", "p": p, "m": m})
        return VerifyResult("4.2", False, 1, 1, failures[0], details={"m": m, "p": p})
    joined = join_power(base, copies)
    report = index_of_join_of_finite([base] * copies)
    if not (report.exact and report.coind_lower == k):
        failures.append({"check": "exact index of join", "report": report.to_json()})
    iterated = exact_index_finite_free(base)
    acc = iterated.coind_lower
    for _ in range(k):
        acc = coindex_join_lower(IndexReport.exact_value(p, acc, "step"), iterated)
    if acc != k:
        failures.append({"check": "iterated join lower bound", "got": acc})
    bv = betti_numbers(joined, ell if ell is not None else p)
    en = is_EnZp(joined, k, betti=bv)
    if not (en.free and en.certified and en.dimension == k and en.connectivity == k - 1):
        failures.append({"check": "model recognition", "report": {
            "free": en.free, "certified": en.certified,
            "dimension": en.dimension, "connectivity": en.connectivity}})
    expected_top = (n - 1) ** copies
    if bv.reduced[k] != expected_top:
        failures.append({"check": "top Betti number", "got": bv.reduced[k],
                         "expected": expected_top})
    return VerifyResult(
        "4.2", not failures, 4, len(failures),
        failures[0] if failures else None,
        details={"m": m, "p": p, "copies": copies, "points": n,
                 "betti": list(bv.reduced)},
    )


def _pair_embedding_rows(words: np.ndarray, q: int, target: SubshiftSpec):
    """Per row of a (words, p) array over the q-point circle: does its pair
    image meet the target family, and does the embedding commute with the
    shift there?  A row meets the target when every clause of
    ``target.clauses(p)`` holds at one of its pairs, each read from
    ``target.bar`` once per distinct letter difference of its column pair; it
    is equivariant when the image of the row rolled one column left is its
    image rolled one column left."""
    img = pair_embed_rows(words, q)
    diff, bar = target.alphabet.digitwise, target.bar

    def meets(i: int, j: int) -> np.ndarray:
        return bar.read_all(diff(operator.sub, img[:, i], img[:, j]))

    ok_pred = np.ones(len(img), dtype=bool)
    for clause in target.clauses(words.shape[1]):
        ok_pred &= reduce(operator.or_, (meets(i, j) for i, j in clause))
    ok_eq = (pair_embed_rows(np.roll(words, -1, axis=1), q) == np.roll(img, -1, axis=1)).all(axis=1)
    return ok_pred, ok_eq


def check_pair_embedding(p: int, q: int) -> VerifyResult:
    """Every period-p word of the half-gap family embeds, pair by pair, into
    the two-circle one-step separation family, equivariantly.

    The words are the rows of ``periodic_words``, checked all at once; only
    the first failing row is written out as a word.
    """
    circle = circle_grid(q)
    source = neighbor_gap_shift(circle, Fraction(1, 2))
    target = SubshiftSpec(
        product_alphabet(circle, circle), Separation(1, Fraction(1, 2))
    )
    words = source.periodic_words(p)
    # the images live in the helper's frame, so they are freed before the word complex is built
    ok_pred, ok_eq = _pair_embedding_rows(words, q, target)
    bad = np.flatnonzero(~(ok_pred & ok_eq))
    first = None
    if len(bad):
        i = int(bad[0])
        w = CyclicWord(circle, tuple(map(circle.unindex, words[i].tolist())))
        first = {"word": w.text(), "predicate": bool(ok_pred[i]), "equivariant": bool(ok_eq[i])}
    transported = None
    if len(words):
        # the index reads the vertex count and the action only: no labels
        src_complex = SimplicialComplex.discrete(len(words), _word_action(words), p)
        src_report = exact_index_finite_free(src_complex)
        tgt_report = coindex_transport(
            MapEvidence.pair_embedding(), src_report, IndexReport.nonempty_free(p)
        )
        transported = tgt_report.coind_lower
    return VerifyResult(
        "embed-1.5", not len(bad), len(words), len(bad), first,
        details={"p": p, "q": q, "words": len(words),
                 "transported_coind_lower": transported},
    )


def section_shift_mismatch(
    m: int, alphabet: Alphabet, delta: Fraction, seed: int, budget: int = 200
) -> dict | None:
    """Search for a witness that the section does not commute with the shift.

    Returns the first (window, shift, index) with section(shift x) differing
    from shift(section x), or None if the budget is exhausted.
    """
    rng = random.Random(seed)
    gap = factorial(m - 1)
    block = factorial(m)
    for t in range(budget):
        s = rng.randrange(1, block + 1)
        lo, hi = 0, 2 * block
        need = section_input_range(m, lo - s, hi + s)
        nlo, nhi = need if need is not None else (0, 0)
        nlo, nhi = min(nlo, nlo - s), max(nhi, nhi + s)
        x = _random_separated_window(rng, alphabet, delta, gap, nlo, nhi)
        anchor = AnchorSeq.seeded(alphabet, rng.randrange(10**9))
        left = section_apply(m, anchor, x.shift(s), lo, hi)
        right = section_apply(m, anchor, x, lo + s, hi + s).shift(s)
        for k in range(lo, hi + 1):
            if left[k] != right[k]:
                return {
                    "m": m,
                    "alphabet": alphabet.token(),
                    "shift": s,
                    "index": k,
                    "left": list(left[k]),
                    "right": list(right[k]),
                    "trial": t,
                }
    return None


LEMMA_IDS = ("3.1", "3.2", "4.1", "4.2", "embed-1.5")


def run_lemma_check(
    lemma: str,
    seed: int = 0,
    m: int = 2,
    alphabet: Alphabet | None = None,
    delta: Fraction = Fraction(1, 2),
    trials: int = 500,
    p: int = 5,
    q: int = 8,
    copies: int = 2,
    ell: int | None = None,
) -> VerifyResult:
    """Dispatch a lemma id to its property suite with explicit parameters."""
    if lemma == "3.1":
        alpha = alphabet if alphabet is not None else circle_grid(12)
        return check_section_containment(m, alpha, delta, trials, seed)
    if lemma == "3.2":
        alpha = alphabet if alphabet is not None else circle_grid(12)
        return check_roundtrip(m, alpha, delta, trials, seed)
    if lemma == "4.1":
        return check_periodic_finite(m, p)
    if lemma == "4.2":
        return check_join_model(m, p, copies, ell)
    if lemma == "embed-1.5":
        return check_pair_embedding(p, q)
    raise ShapeError(f"unknown lemma id {lemma!r}; known: {', '.join(LEMMA_IDS)}")
