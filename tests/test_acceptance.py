"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (run with
``pytest -s tests/test_acceptance.py`` to see them live) and enforces the
stated exact tolerances and time caps.
"""
import time
from fractions import Fraction

import pytest

from conftest import brute_sigma_words, satisfies
from zpindex.alphabets import circle_grid, cyclic_group, product_alphabet
from zpindex.coindex import (
    EquivariantMapCert,
    IndexReport,
    MapEvidence,
    apply_certificate,
    coindex_join_lower,
    coindex_transport,
    exact_index_finite_free,
    index_of_join_of_finite,
    verify_certificate,
)
from zpindex.complexes import is_EnZp, join_complex
from zpindex.errors import NeededRangeError, NonFreeActionError
from zpindex.homology import betti_numbers
from zpindex.seqmaps import Window, block_sum_step, pair_embed_rows
from zpindex.shiftspaces import (
    CyclicWord,
    Separation,
    SubshiftSpec,
    mismatch_shift,
    neighbor_gap_shift,
    orbit_decompose,
    periodic_point_complex,
)
from zpindex.torusgrid import build_approx, canonical_certificate_P2, z_torus_spec
from zpindex.verify import check_pair_embedding, check_roundtrip, check_section_containment


def _report(num: int, ok: bool, elapsed: float, cap: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num}: {status} ({elapsed:.2f}s / cap {cap:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < cap, f"criterion {num} exceeded its time cap: {elapsed:.2f}s >= {cap}s"


def test_criterion_1_periodic_counts():
    t0 = time.monotonic()
    spec = mismatch_shift(1)
    expected = {2: 6, 3: 6, 5: 30, 7: 126, 11: 2046}
    got = {p: spec.count_periodic(p) for p in expected}
    ok = got == expected
    for p in (2, 3, 5, 7):
        brute = len(brute_sigma_words(1, p))
        enum = len(spec.enumerate_periodic(p))
        ok = ok and brute == enum == expected[p]
    _report(1, ok, time.monotonic() - t0, 5, f"counts {got}")


def test_criterion_2_recoding_bijection():
    t0 = time.monotonic()
    s1, s2 = mismatch_shift(1), mismatch_shift(2)
    ok = True
    detail = []
    for p in (5, 7):
        w2 = s2.enumerate_periodic(p)
        ok = ok and len(w2) == len(s1.enumerate_periodic(p))
        dec = orbit_decompose(w2, p)
        ok = ok and dec.free and all(len(o) == p for o in dec.orbits)
        detail.append(f"p={p}: {len(w2)} points, {dec.n_orbits} orbits")
    _report(2, ok, time.monotonic() - t0, 5, "; ".join(detail))


TRIAL_MATRIX = [
    (2, cyclic_group(3)),
    (3, cyclic_group(3)),
    (2, circle_grid(12)),
    (3, circle_grid(12)),
]


def test_criterion_3_roundtrip_identity():
    t0 = time.monotonic()
    ok = True
    total = 0
    for m, alpha in TRIAL_MATRIX:
        res = check_roundtrip(m, alpha, Fraction(1, 2), trials=1000, seed=20260808)
        ok = ok and res.passed and res.failures == 0
        total += res.trials
    _report(3, ok, time.monotonic() - t0, 30, f"{total} seeded trials, zero failures")


def test_criterion_4_section_containment():
    t0 = time.monotonic()
    ok = True
    total = 0
    for m, alpha in TRIAL_MATRIX:
        res = check_section_containment(m, alpha, Fraction(1, 2), trials=1000, seed=20260808)
        ok = ok and res.passed and res.failures == 0
        total += res.trials
    _report(4, ok, time.monotonic() - t0, 30, f"{total} seeded trials, zero failures")


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_criterion_5_join_model_recognition(p, k):
    t0 = time.monotonic()
    cap = 600 if (p, k) == (7, 2) else 30
    spec = mismatch_shift(1)
    n = spec.count_periodic(p)
    base = periodic_point_complex(spec, p)
    joined = base
    for _ in range(k):
        joined = join_complex(joined, base)
    bv = betti_numbers(joined, p)
    rep = is_EnZp(joined, k, ell=p, betti=bv)
    ok = (
        rep.free
        and rep.dimension == k
        and all(bv.reduced[i] == 0 for i in range(k))
        and bv.reduced[k] == (n - 1) ** (k + 1)
    )
    _report(
        5, ok, time.monotonic() - t0, cap,
        f"p={p} K={k}: betti={bv.reduced[-1]} expected {(n - 1) ** (k + 1)}",
    )


def test_criterion_6_join_coindex_arithmetic():
    t0 = time.monotonic()
    ok = True
    for p in (5, 7):
        base = periodic_point_complex(mismatch_shift(1), p)
        single = exact_index_finite_free(base)
        for k in (0, 1, 2):
            rep = index_of_join_of_finite([base] * (k + 1))
            acc = single.coind_lower
            for _ in range(k):
                acc = coindex_join_lower(IndexReport.exact_value(p, acc, "step"), single)
            ok = ok and rep.exact and rep.coind_lower == k == acc
    _report(6, ok, time.monotonic() - t0, 1, "exact K from both routes, p in {5, 7}")


def test_criterion_7_annulus_ground_truth():
    t0 = time.monotonic()
    ok = True
    detail = []
    for q in (8, 16):
        target = build_approx(z_torus_spec(2, q))
        bv = betti_numbers(target, 2)
        free = target.is_free
        cert = canonical_certificate_P2(q, target=target)
        verdict = verify_certificate(cert, target)
        bound = apply_certificate(verdict, IndexReport.nonempty_free(2)).coind_lower
        ok = ok and bv.reduced[0] == 0 and bv.reduced[1] == 1 and free
        ok = ok and verdict.accepted and bound == 1
        detail.append(f"q={q}: betti={bv.reduced}, coind_lower={bound}")
    _report(7, ok, time.monotonic() - t0, 60, "; ".join(detail))


def test_criterion_8_embedding_transport():
    t0 = time.monotonic()
    p, q = 5, 8
    circle = circle_grid(q)
    source = neighbor_gap_shift(circle, Fraction(1, 2))
    words = source.periodic_words(p)
    approx = build_approx(z_torus_spec(p, q))
    suite = check_pair_embedding(p, q)
    ok = suite.passed and suite.trials == len(words) == approx.n_vertices > 0
    # cross-check of the suite's array path: the clause oracle, word by word
    pairs = product_alphabet(circle, circle)
    target = SubshiftSpec(pairs, Separation(1, Fraction(1, 2)))
    for row in pair_embed_rows(words, circle.order).tolist():
        if not satisfies(target, CyclicWord(pairs, tuple(map(pairs.unindex, row)))):
            ok = False
            break
    src_report = exact_index_finite_free(periodic_point_complex(source, p))
    moved = coindex_transport(
        MapEvidence.pair_embedding(), src_report, IndexReport.nonempty_free(p)
    )
    ok = ok and moved.coind_lower >= 0
    ok = ok and suite.details["transported_coind_lower"] == moved.coind_lower
    _report(
        8, ok, time.monotonic() - t0, 60,
        f"{len(words)} period-{p} grid words all embed; transported bound "
        f"{moved.coind_lower}",
    )


def test_criterion_9_negative_controls():
    t0 = time.monotonic()
    ok = True

    target = build_approx(z_torus_spec(2, 8))
    cert = canonical_certificate_P2(8, target=target)
    vmap = list(cert.vertex_map)
    vmap[0] = target.vertex_index((0, 2))
    tampered = EquivariantMapCert(2, 1, tuple(vmap), cert.target_ref, domain=cert.domain)
    verdict = verify_certificate(tampered, target)
    ok = ok and not verdict.accepted and verdict.witness is not None

    from zpindex.complexes import SimplicialComplex

    nonfree = SimplicialComplex.discrete(3, [1, 0, 2], 2)
    try:
        exact_index_finite_free(nonfree)
        ok = False
    except NonFreeActionError as e:
        ok = ok and e.witness == (0, (2,))

    try:
        block_sum_step(3, Window(cyclic_group(3), 5, ((0,), (1,), (2,))))
        ok = False
    except NeededRangeError as e:
        ok = ok and e.needed == (5, 9) and e.missing == (8, 9)

    _report(9, ok, time.monotonic() - t0, 1,
            "tampered certificate, non-free action and short window all rejected "
            "with witnesses")
