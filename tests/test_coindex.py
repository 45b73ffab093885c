import json

import pytest

from zpindex.coindex import (
    EquivariantMapCert,
    IndexReport,
    MapEvidence,
    apply_certificate,
    apply_dimension_bound,
    coindex_join_lower,
    coindex_transport,
    exact_index_finite_free,
    ind_upper_by_dimension,
    index_of_join_of_finite,
    verify_certificate,
)
from zpindex.complexes import SimplicialComplex, join_complex, standard_join_model
from zpindex.errors import NonFreeActionError, ShapeError
from zpindex.shiftspaces import mismatch_shift, periodic_point_complex


def P(p, m=1):
    return periodic_point_complex(mismatch_shift(m), p)


def test_exact_index_finite_free():
    rep = exact_index_finite_free(P(5))
    assert rep.exact and rep.coind_lower == rep.ind_upper == 0
    assert "30 points" in rep.provenance[0] and "6 orbits" in rep.provenance[0]

    empty = exact_index_finite_free(SimplicialComplex.empty(5))
    assert empty.exact and empty.coind_lower == empty.ind_upper == -1

    z7 = standard_join_model(7, 1)
    rep7 = exact_index_finite_free(z7)
    assert rep7.exact and rep7.coind_lower == 0


def test_exact_index_rejects_non_free_with_witness():
    bad = SimplicialComplex.discrete(3, [1, 0, 2], 2)
    with pytest.raises(NonFreeActionError) as ei:
        exact_index_finite_free(bad)
    assert ei.value.witness == (0, (2,))


def test_exact_index_rejects_positive_dimension():
    with pytest.raises(ShapeError):
        exact_index_finite_free(standard_join_model(3, 2))


def test_index_of_join_of_finite():
    assert index_of_join_of_finite([P(5), P(5)]).coind_lower == 1
    rep = index_of_join_of_finite([P(7, m=2)] * 3)
    assert rep.exact and rep.coind_lower == 2
    assert index_of_join_of_finite([P(5)]).coind_lower == 0
    # the empty set is the join identity
    withempty = index_of_join_of_finite([SimplicialComplex.empty(5), P(5), P(5)])
    assert withempty.coind_lower == 1
    allempty = index_of_join_of_finite([SimplicialComplex.empty(5)] * 2)
    assert allempty.coind_lower == -1 and allempty.exact
    with pytest.raises(ShapeError):
        index_of_join_of_finite([P(5), P(7)])  # mixed primes


def test_coindex_join_lower_arithmetic():
    r0 = IndexReport.exact_value(5, 0, "test")
    r1 = IndexReport.exact_value(5, 1, "test")
    r2 = IndexReport.exact_value(5, 2, "test")
    rempty = IndexReport.empty_space(5)
    assert coindex_join_lower(r0, r0) == 1
    assert coindex_join_lower(rempty, r2) == 2
    assert coindex_join_lower(r1, r2) == 4
    assert coindex_join_lower(r1, r2) == coindex_join_lower(r2, r1)
    with pytest.raises(ShapeError):
        coindex_join_lower(r0, IndexReport.exact_value(7, 0, "test"))


def test_transport():
    src = IndexReport.exact_value(5, 2, "source is a 2-model")
    tgt = IndexReport.nonempty_free(5)
    moved = coindex_transport(MapEvidence.pair_embedding(), src, tgt)
    assert moved.coind_lower == 2 and moved.ind_lower == 2
    assert any("transport" in s for s in moved.provenance)

    same = coindex_transport(MapEvidence.identity(), tgt, tgt)
    assert same.coind_lower == tgt.coind_lower  # no change beyond provenance

    with pytest.raises(ShapeError):
        coindex_transport(MapEvidence("structural", "unchecked", verified=False), src, tgt)
    with pytest.raises(ShapeError):
        coindex_transport(MapEvidence.identity(), src, IndexReport.nonempty_free(7))


def test_report_invariants():
    with pytest.raises(ShapeError):
        IndexReport(5, 2, 1, 2, 2, False)  # coind_lower > coind_upper
    with pytest.raises(ShapeError):
        IndexReport(5, 1, 1, 0, 1, False)  # coind_lower > ind_lower
    with pytest.raises(ShapeError):
        IndexReport(5, 0, 2, 0, 1, False)  # coind_upper > ind_upper
    with pytest.raises(ShapeError):
        IndexReport(5, 0, 1, 0, 1, True)  # exact must pin all bounds
    doc = IndexReport.nonempty_free(5).to_json()
    assert doc["ind_upper"] == "inf" and doc["coind_lower"] == 0


def test_identity_certificate_on_standard_model():
    model = standard_join_model(3, 2)
    cert = EquivariantMapCert(3, 1, tuple(range(model.n_vertices)), "self")
    rep = verify_certificate(cert, model)
    assert rep.accepted, rep.reason
    updated = apply_certificate(rep, IndexReport.nonempty_free(3))
    assert updated.coind_lower == 1


def test_certificate_equivariance_violation_rejected_with_witness():
    model = standard_join_model(3, 2)
    vmap = list(range(model.n_vertices))
    vmap[0], vmap[1] = vmap[1], vmap[0]  # breaks commutation at vertex 0
    rep = verify_certificate(EquivariantMapCert(3, 1, tuple(vmap), "self"), model)
    assert not rep.accepted and rep.witness is not None
    assert "equivariance" in rep.reason
    with pytest.raises(ShapeError):
        apply_certificate(rep, IndexReport.nonempty_free(3))


def test_certificate_continuity_violation_rejected():
    # collapse both factors to one: images of mixed edges are same-side pairs,
    # which span no cell of the model
    model = standard_join_model(3, 2)
    vmap = tuple(v % 3 for v in range(6))
    rep = verify_certificate(EquivariantMapCert(3, 1, vmap, "self"), model)
    assert not rep.accepted
    assert "no single target cell" in rep.reason or "equivariance" in rep.reason


def test_certificate_arity_and_range_checks():
    model = standard_join_model(3, 2)
    assert not verify_certificate(EquivariantMapCert(3, 1, (0, 1), "self"), model).accepted
    assert not verify_certificate(
        EquivariantMapCert(3, 1, tuple([99] * 6), "self"), model
    ).accepted
    assert not verify_certificate(
        EquivariantMapCert(5, 1, tuple(range(6)), "self"), model
    ).accepted  # prime mismatch


def test_certificate_explicit_domain_needs_small_n():
    dom = standard_join_model(3, 3)  # a 2-model as an explicit domain
    cert = EquivariantMapCert(3, 2, tuple(range(9)), "self", domain=dom)
    rep = verify_certificate(cert, standard_join_model(3, 3))
    assert not rep.accepted and "n <= 1" in rep.reason


def test_certificate_json_roundtrip_reverifies():
    model = standard_join_model(3, 2)
    cert = EquivariantMapCert(3, 1, tuple(range(model.n_vertices)), "self")
    doc = json.loads(json.dumps(cert.to_json()))
    back = EquivariantMapCert.from_json(doc)
    assert verify_certificate(back, model).accepted


def test_ind_upper_by_dimension():
    assert ind_upper_by_dimension(standard_join_model(3, 2)) == 1
    assert ind_upper_by_dimension(P(5)) == 0
    assert ind_upper_by_dimension(join_complex(join_complex(P(5), P(5)), P(5))) == 2
    with pytest.raises(NonFreeActionError):
        ind_upper_by_dimension(SimplicialComplex.discrete(3, [1, 0, 2], 2))

    rep = apply_dimension_bound(IndexReport.nonempty_free(3), standard_join_model(3, 2))
    assert rep.ind_upper == 1 and rep.coind_upper == 1
    assert any("standard-theory" in s for s in rep.provenance)


def test_acceptance_chain_consistency_after_rules():
    # rules keep the inequality chain intact
    rep = IndexReport.nonempty_free(5)
    rep = coindex_transport(MapEvidence.identity(), IndexReport.exact_value(5, 1, "t"), rep)
    rep = apply_dimension_bound(rep, join_complex(P(5), P(5)))
    assert rep.coind_lower <= rep.coind_upper <= rep.ind_upper
    assert rep.coind_lower <= rep.ind_lower <= rep.ind_upper


def test_composite_order_report_rejected():
    with pytest.raises(ShapeError, match="prime"):
        IndexReport.nonempty_free(4)
    with pytest.raises(ShapeError, match="prime"):
        IndexReport.exact_value(6, 0, "rule")
