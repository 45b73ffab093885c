"""Seeded property suites for the identities this library implements.

Each check reruns one proven statement on randomized or exhaustively
enumerated desk-scale instances and reports trials, failures and the first
counterexample.  The suites are part of the shipped surface (reachable
from the command line), not only of the test suite: the point of the
artifact is auditable reproduction, so the verifiers must be rerunnable by
a reader with one command and one seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .alphabets import Alphabet, circle_grid, product_alphabet
from .complexes import join_complex, is_EnZp
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
    Window,
    block_sum_step,
    pair_embed_cyclic,
    section_apply,
    section_input_range,
    separation_violations,
)
from .shiftspaces import (
    Separation,
    SubshiftSpec,
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


def _random_separated_window(
    rng: random.Random, alphabet: Alphabet, delta: Fraction, gap: int, lo: int, hi: int
) -> Window:
    """A window on [lo, hi] whose letters at distance `gap` are delta-separated."""
    letters: list = []
    order = alphabet.order
    for k in range(lo, hi + 1):
        while True:
            e = alphabet.unindex(rng.randrange(order))
            prev = k - gap - lo
            if prev < 0 or alphabet.metric(letters[prev], e) >= delta:
                letters.append(e)
                break
    return Window(alphabet, lo, tuple(letters))


def _trial_ranges(rng: random.Random, m: int) -> tuple[int, int]:
    block = factorial(m)
    lo = rng.randrange(-2 * block, block)
    hi = lo + rng.randrange(1, 3 * block + 1)
    return lo, hi


def _section_suite(lemma, m, alphabet, delta, trials, seed, extend, first_bad) -> VerifyResult:
    """One trial loop for the section suites 3.1 and 3.2.

    Each trial draws an output range [lo, hi], a delta-separated input
    window covering what the section reads on [lo, hi + extend] and a seeded
    anchor, then evaluates the section there.  ``first_bad(lo, hi, x, y)``
    returns the failure fields of the trial, or None when it passes.
    """
    window = 7 * factorial(m)  # outputs lie in [-2 m!, 5 m!)
    if window > _WINDOW_CAP:
        raise ResourceCapError(
            f"verify {lemma} at m={m}: a trial window can reach {window} letters, "
            f"above the window cap ({_WINDOW_CAP}); no trial was run"
        )
    rng = random.Random(seed)
    gap = factorial(m - 1)
    failures = 0
    first = None
    for t in range(trials):
        lo, hi = _trial_ranges(rng, m)
        need = section_input_range(m, lo, hi + extend)
        nlo, nhi = need if need is not None else (0, 0)
        x = _random_separated_window(rng, alphabet, delta, gap, nlo, nhi)
        anchor_seed = rng.randrange(10**9)
        y = section_apply(m, AnchorSeq.seeded(alphabet, anchor_seed), x, lo, hi + extend)
        bad = first_bad(lo, hi, x, y)
        if bad is not None:
            failures += 1
            if first is None:
                first = {
                    "trial": t,
                    "m": m,
                    "alphabet": alphabet.token(),
                    "anchor_seed": anchor_seed,
                    "window": [list(e) for e in x.letters],
                    "offset": x.offset,
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

    def first_bad(lo, hi, x, y):
        back = block_sum_step(m, y)
        bad = [k for k in range(lo, hi + 1) if back[k] != x[k]]
        return {"first_bad_index": bad[0]} if bad else None

    span = (m - 1) * factorial(m - 1)
    return _section_suite("3.2", m, alphabet, delta, trials, seed, span, first_bad)


def check_section_containment(
    m: int, alphabet: Alphabet, delta: Fraction, trials: int, seed: int
) -> VerifyResult:
    """Section outputs satisfy the level-m pair constraint at every checkable pair."""
    block = factorial(m)

    def first_bad(lo, hi, x, y):
        bad = separation_violations(y, block, delta)
        return {"first_bad_pair": [bad[0], bad[0] + block]} if bad else None

    # extending by m! makes at least one (k, k + m!) pair visible
    return _section_suite("3.1", m, alphabet, delta, trials, seed, block, first_bad)


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
    if copies < 1:
        raise ShapeError("need at least one copy")
    k = copies - 1
    base = periodic_point_complex(mismatch_shift(m), p)
    n = base.n_vertices
    failures = []
    if n == 0:
        failures.append({"check": "nonempty period-p set", "p": p, "m": m})
        return VerifyResult("4.2", False, 1, 1, failures[0], details={"m": m, "p": p})
    joined = base
    for _ in range(k):
        joined = join_complex(joined, base)
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


def check_pair_embedding(p: int, q: int) -> VerifyResult:
    """Every period-p word of the half-gap family embeds, pair by pair, into
    the two-circle one-step separation family, equivariantly."""
    circle = circle_grid(q)
    source = neighbor_gap_shift(circle, Fraction(1, 2))
    target = SubshiftSpec(
        product_alphabet(circle, circle), Separation(1, Fraction(1, 2))
    )
    words = source.enumerate_periodic(p)
    failures = 0
    first = None
    for w in words:
        img = pair_embed_cyclic(w)
        ok_pred = target.satisfies(img)
        ok_eq = pair_embed_cyclic(w.shift(1)) == img.shift(1)
        if not (ok_pred and ok_eq):
            failures += 1
            if first is None:
                first = {"word": w.text(), "predicate": ok_pred, "equivariant": ok_eq}
    transported = None
    if words:
        src_complex = periodic_point_complex(source, p)
        src_report = exact_index_finite_free(src_complex)
        tgt_report = coindex_transport(
            MapEvidence.pair_embedding(), src_report, IndexReport.nonempty_free(p)
        )
        transported = tgt_report.coind_lower
    return VerifyResult(
        "embed-1.5", failures == 0, len(words), failures, first,
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
