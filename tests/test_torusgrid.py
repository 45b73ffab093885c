import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import conftest
from conftest import brute_separated_words, brute_z_words, dense_betti, loop_vertex_mask
from zpindex import torusgrid
from zpindex.complexes import _row_keys
from zpindex.coindex import EquivariantMapCert, IndexReport, apply_certificate, verify_certificate
from zpindex.errors import ResourceCapError, ShapeError
from zpindex.shiftspaces import AdjacentGap, SubshiftSpec
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


def test_the_uint8_word_boundary_builds_its_approximation():
    # 256 letters are the most a uint8 word array holds; the session fixture
    # checks the whole table against the general constructor
    c = build_approx(z_torus_spec(2, 256))
    assert c.cell_counts() == {0: 256 * 129, 1: 2 * 256 * 128, 2: 256 * 127} and c.is_free


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
    # the 40 vertices alone pass the cap; the refusal names both
    with pytest.raises(ResourceCapError, match=r"has at least 40 cells, above the cell cap \(10\)"):
        build_approx(z_torus_spec(2, 8), cell_cap=10)


def grid_points(spec, words: np.ndarray) -> np.ndarray:
    """Each word's grid point in C order: its letters' circle coordinates,
    slot by slot, read in radix q."""
    x = np.zeros(len(words), dtype=np.int64)
    for letter in words.T:
        for t in range(spec.n_circles - 1, -1, -1):
            x = x * spec.q + letter // spec.q**t % spec.q
    return x


@pytest.mark.parametrize("spec", [
    z_torus_spec(5, 16), z_torus_spec(2, 64),
    separated_torus_spec(3, 8, 2, Fraction(1, 2)), separated_torus_spec(5, 8, 1, Fraction(1, 4)),
    TorusGridSpec(3, 8, family=AdjacentGap(Fraction(1), exact=True)),
], ids=lambda spec: spec.token())
def test_vertex_mask_matches_the_loop_oracle(spec):
    # the approximation's vertices are the search's words; the session fixture
    # checks every approximation the tests build, and these specs no other test builds
    words = spec.subshift().periodic_words(spec.p)
    assert np.array_equal(grid_points(spec, words), np.flatnonzero(loop_vertex_mask(spec)))


@pytest.mark.parametrize("spec", [
    z_torus_spec(5, 8),
    TorusGridSpec(3, 8, family=AdjacentGap(Fraction(1), exact=True)),
    TorusGridSpec(5, 8, family=AdjacentGap(Fraction(1), exact=True)),
    separated_torus_spec(3, 8, 2, Fraction(1)), separated_torus_spec(5, 8, 1, Fraction(1, 4)),
], ids=lambda spec: spec.token())
def test_grid_build_matches_the_general_constructor(spec):
    # the session fixture compares every approximation the tests build with the
    # general constructor's; these specs no other test builds
    assert build_approx(spec).is_free


def test_large_grids_are_refused_at_the_node_cap():
    # 40^5, 32^5 and 8^9 grid points: the search stops at its node cap, so
    # nothing grid-sized is built
    for spec in (z_torus_spec(5, 40), z_torus_spec(5, 16).refined(),
                 separated_torus_spec(3, 8, 3, Fraction(1, 2))):
        t0 = time.perf_counter()
        with pytest.raises(ResourceCapError, match=r"above the node cap \(10000000\)"):
            build_approx(spec)
        assert time.perf_counter() - t0 < 1.0, spec.token()


def test_key_limit_is_checked_before_the_search(monkeypatch):
    # keys x * 2^D + M stay below (2q)^D: 16^15 = 2^60 passes the check, 16^17 = 2^68 does not
    def no_search(self, p, *args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(SubshiftSpec, "periodic_words", no_search)
    with pytest.raises(AssertionError, match="the search ran"):
        build_approx(separated_torus_spec(5, 8, 3, Fraction(1, 2)))
    for p in (17, 1000000000000000003):
        with pytest.raises(ShapeError, match=rf"x\*2\^{p} \+ M on 8\^{p} grid points would reach 2\^63"):
            build_approx(z_torus_spec(p, 8))


def inject_vertices(monkeypatch, spec, words: np.ndarray) -> None:
    """Hand the grid build and its oracle the same vertex set: the words as
    the search's result, and their grid points as the oracle's mask."""
    mask = np.zeros(spec.q**spec.n_axes, dtype=bool)
    mask[grid_points(spec, words)] = True
    monkeypatch.setattr(SubshiftSpec, "periodic_words", lambda self, p, *args, **kwargs: words)
    monkeypatch.setattr(conftest, "grid_vertex_mask", lambda spec: mask.reshape((spec.q,) * spec.n_axes))


def test_grid_build_refuses_a_vertex_mask_the_rotation_moves(monkeypatch):
    spec = z_torus_spec(3, 8)
    words = spec.subshift().periodic_words(3)
    gone = words.tolist().index([0, 2, 4])  # the vertex [4, 0, 2] rotates onto it
    inject_vertices(monkeypatch, spec, np.delete(words, gone, axis=0))
    with pytest.raises(ShapeError, match="not invariant under the letter rotation"):
        build_approx(spec)


def test_grid_build_refuses_a_face_read_that_finds_no_cell(monkeypatch):
    spec = z_torus_spec(3, 8)
    honest = build_approx(spec)
    square = honest.cells[2][honest.cells[2][:, 3] == 0b101][0]  # spans axes 0 and 2
    base = honest.vertex_index(square[:3])
    grow = torusgrid._grow

    def damaged(cells, n, faces, lower):
        out = grow(cells, n, faces, lower)
        if faces is None:  # the edge from that square's base along axis 2 is lost
            cells.grow[cells.start[2] + cells.rank[base]] = -1
        return out

    monkeypatch.setattr(torusgrid, "_grow", damaged)
    with pytest.raises(ShapeError, match="face closure fails between dimensions 2 and 1"):
        build_approx(spec)


def test_keys_past_2_to_the_31_on_grid_points_below_it_are_formed_in_int64(monkeypatch):
    # XSN:p=2,q=8,N=4: 8^8 = 2^24 grid points, so a word's grid point x is int32,
    # but keys x * 2^8 + M reach 16^8 = 2^32, so they are int64.  Three words:
    # two rotate onto each other, and each is one step from the constant word
    spec = separated_torus_spec(2, 8, 4, Fraction(1, 2))
    words = np.array([[4094, 4095], [4095, 4094], [4095, 4095]], dtype=np.int16)
    assert _row_keys(words, [8**4] * 2).dtype == np.int32
    monkeypatch.setattr(SubshiftSpec, "periodic_words", lambda self, p, *args, **kwargs: words)
    grow, seen = torusgrid._grow, {}

    class Grown(Exception):
        pass

    def first_growth(cells, n, faces, lower):
        seen["vertices"] = cells.key.copy()
        seen["edges"] = grow(cells, n, faces, lower)[0].key
        # stop here: the general constructor would roll a 2^24-point mask 1024 times
        raise Grown

    monkeypatch.setattr(torusgrid, "_grow", first_growth)
    with pytest.raises(Grown):
        build_approx(spec)
    x = grid_points(spec, words)
    assert seen["vertices"].dtype == np.int64 and seen["vertices"].tolist() == (x << 8).tolist()
    assert max(x << 8) >= 2**31
    # edges along axis 3 (letter 0's last circle) and axis 7 into the constant word
    edges = sorted([(int(x[0]) << 8) + (1 << 3), (int(x[1]) << 8) + (1 << 7)])
    assert seen["edges"].dtype == np.int64 and seen["edges"].tolist() == edges


def test_grid_build_reports_the_fixed_cell_of_a_mask_with_constant_words(monkeypatch):
    # every grid point is a vertex, so the diagonal cells are rotation-fixed; the
    # session fixture checks the witness and the whole table against the oracle
    spec = z_torus_spec(3, 8)
    inject_vertices(monkeypatch, spec, np.array(list(product(range(8), repeat=3)), dtype=np.uint8))
    c = build_approx(spec)
    assert c.total_cells() == 8**3 * 2**3
    assert c.free_witness() == (0, (0, 0, 0, 0)) and not c.is_free


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


def test_move_tables_past_the_int32_flat_index_are_refused_before_they_exist(monkeypatch):
    # the first size whose flat indices axis * (n + 1) wrap, on six axes: the
    # refusal is arithmetic on the counts, and nothing is allocated
    n = (1 << 31) // 6
    with pytest.raises(ResourceCapError, match=rf"dimension 3 would have {n} cells on 6 axes: its "
                       rf"move table of 6 x {n + 1} = {6 * (n + 1)} entries is past the int32 "
                       rf"flat index limit 2\^31; nothing of that dimension was built"):
        torusgrid._check_move_table(3, n, 6)
    torusgrid._check_move_table(3, n - 1, 6)
    # Z:p=3,q=8 has 408, 1104, 960 and 264 cells on 3 axes: a limit of 3 x 1105
    # refuses dimension 1 before any growth, one entry more builds everything
    grow, grown = torusgrid._grow, []
    monkeypatch.setattr(torusgrid, "_grow", lambda *a: grown.append(a) or grow(*a))
    monkeypatch.setattr(torusgrid, "_INDEX_LIMIT", 3 * 1105)
    with pytest.raises(ResourceCapError, match="dimension 1 would have 1104 cells on 3 axes"):
        build_approx(z_torus_spec(3, 8))
    assert not grown
    monkeypatch.setattr(torusgrid, "_INDEX_LIMIT", 3 * 1105 + 1)
    assert build_approx(z_torus_spec(3, 8)).cell_counts() == {0: 408, 1: 1104, 2: 960, 3: 264}
