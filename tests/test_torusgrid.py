from fractions import Fraction

import pytest

from conftest import brute_separated_words, brute_z_words, dense_betti
from zpindex.coindex import EquivariantMapCert, IndexReport, apply_certificate, verify_certificate
from zpindex.errors import ResourceCapError, ShapeError
from zpindex.shiftspaces import AdjacentGap
from zpindex.torusgrid import (
    TorusGridSpec,
    betti_profile,
    build_approx,
    canonical_certificate_P2,
    separated_torus_spec,
    stability_check,
    z_torus_spec,
)


def test_spec_validation():
    with pytest.raises(ShapeError):
        z_torus_spec(4, 8)  # period must be prime
    with pytest.raises(ShapeError):
        z_torus_spec(2, 6)  # 4 | q required
    with pytest.raises(ShapeError):
        z_torus_spec(2, 4)  # q >= 8
    with pytest.raises(ShapeError):
        separated_torus_spec(3, 8, 1, Fraction(1, 3))  # threshold off the grid
    with pytest.raises(ShapeError):
        separated_torus_spec(3, 8, 1, Fraction(5, 4))  # above the diameter


def test_vertex_scan_oracle_p2():
    c = build_approx(z_torus_spec(2, 8))
    words = brute_z_words(8, 2)
    assert c.n_vertices == len(words) == 40
    got = {tuple(int(x) for x in row) for row in c.cells[0][:, : c.n_axes]}
    assert got == set(words)


def test_vertex_scan_oracle_p3():
    c = build_approx(z_torus_spec(3, 8))
    assert c.n_vertices == len(brute_z_words(8, 3)) == 408


def test_vertex_scan_oracle_xs():
    spec = separated_torus_spec(3, 8, 1, Fraction(1, 2))
    c = build_approx(spec)
    words = brute_separated_words(8, 3, 1, Fraction(1, 2))
    assert c.n_vertices == len(words) == 96
    assert c.is_free


def test_free_action_all_specs():
    for spec in (z_torus_spec(2, 8), z_torus_spec(3, 8),
                 separated_torus_spec(2, 8, 2, Fraction(1, 2))):
        c = build_approx(spec)
        assert c.is_free, spec.token()


def test_annulus_profile_and_stability():
    for q in (8, 16):
        bv = betti_profile(z_torus_spec(2, q), 2)
        assert bv.reduced == (0, 1, 0)
    rep = stability_check(z_torus_spec(2, 8), 2)
    assert rep.agree and rep.coarse.reduced == rep.fine.reduced == (0, 1, 0)


def test_annulus_cross_checked_by_dense_elimination():
    c = build_approx(z_torus_spec(2, 8))
    assert dense_betti(c, 2) == (0, 1, 0)


def test_p3_profile_frozen_and_stability_recorded():
    bv = betti_profile(z_torus_spec(3, 8), 3)
    assert bv.reduced == (0, 3, 2, 0)  # frozen from an independent dense-elimination run
    rep = stability_check(z_torus_spec(3, 8), 3)
    assert rep.coarse.reduced == (0, 3, 2, 0)
    assert isinstance(rep.agree, bool)
    assert len(rep.fine.reduced) == 4


def test_inclusion_monotonicity_under_refinement():
    spec = z_torus_spec(2, 8)
    coarse = build_approx(spec)
    fine = build_approx(spec.refined())
    fine_vertices = {tuple(int(x) for x in row) for row in fine.cells[0][:, : fine.n_axes]}
    for row in coarse.cells[0][:, : coarse.n_axes]:
        doubled = tuple(2 * int(x) for x in row)
        assert doubled in fine_vertices


def test_cell_cap():
    with pytest.raises(ResourceCapError):
        build_approx(z_torus_spec(2, 8), cell_cap=10)


def test_canonical_certificate_accepted():
    for q in (8, 16):
        target = build_approx(z_torus_spec(2, q))
        cert = canonical_certificate_P2(q, target=target)
        rep = verify_certificate(cert, target)
        assert rep.accepted, rep.reason
        updated = apply_certificate(rep, IndexReport.nonempty_free(2))
        assert updated.coind_lower == 1


def test_certificate_rebuilds_deterministically():
    cert = canonical_certificate_P2(8)  # builds its own copy of the target
    target = build_approx(z_torus_spec(2, 8))
    assert verify_certificate(cert, target).accepted


def test_tampered_stencil_is_not_even_a_vertex():
    # the map x -> (x, x+1) lands at grid distance 1/4 < 1/2, so its image
    # is not in the approximation at all
    target = build_approx(z_torus_spec(2, 8))
    with pytest.raises(ShapeError):
        target.vertex_index((0, 1))


def test_tampered_vertex_map_rejected_with_witness():
    q = 8
    target = build_approx(z_torus_spec(2, q))
    cert = canonical_certificate_P2(q, target=target)
    vmap = list(cert.vertex_map)
    vmap[0] = target.vertex_index((0, 2))  # valid vertex, wrong place
    bad = EquivariantMapCert(2, 1, tuple(vmap), cert.target_ref, domain=cert.domain)
    rep = verify_certificate(bad, target)
    assert not rep.accepted and rep.witness is not None


def test_carrier_cells_on_cubical_target():
    target = build_approx(z_torus_spec(2, 8))
    # the diagonal pair (x, x+4) -> (x+1, x+5) sits inside one square
    a = target.vertex_index((0, 4))
    b = target.vertex_index((1, 5))
    assert target.carrier_cell({a, b}) is not None
    c = target.vertex_index((0, 2))
    d = target.vertex_index((4, 6))
    assert target.carrier_cell({c, d}) is None


def test_y_family_torus():
    spec = TorusGridSpec(2, 8, family=AdjacentGap(Fraction(1), exact=True))
    c = build_approx(spec)
    # antipodal pairs only, no higher cells
    assert c.cell_counts() == {0: 8}
    assert c.is_free
