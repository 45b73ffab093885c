import json
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    COMPOSE_BLOCK,
    GeneralCubicalComplex,
    column_reduction_rank,
    composition_vanishes,
    compositions_vanish,
    csc,
    csc_to_dense,
    damaged_complex,
    dense_betti,
    dense_rank_mod,
    dense_rank_np,
    gathered_boundary_square,
    held_arrays,
    projective_plane_6,
    shape_error_text,
    sorted_coboundary_lows,
    torus_7,
    whole_table_lows,
)
from zpindex import complexes, homology
from zpindex.cli import main
from zpindex.complexes import (
    SimplicialComplex,
    cycle_complex,
    join_complex,
    standard_join_model,
)
from zpindex.errors import ShapeError
from zpindex.homology import (
    BettiVector,
    ChainComplexFp,
    betti,
    betti_numbers,
    boundary_matrices,
    connectivity_from_betti,
)
from zpindex.shiftspaces import AdjacentGap, mismatch_shift, periodic_point_complex
from zpindex.torusgrid import TorusGridSpec, build_approx, separated_torus_spec, z_torus_spec


@pytest.fixture(autouse=True, scope="module")
def sort_check_every_assembly():
    """Every chain complex this file assembles from a complex, whose
    compositions the face identities vouched for, must also pass the
    oracle that expands the products and sums them by sorting."""
    assemble = homology.boundary_matrices

    def checked(c, ell):
        cc = assemble(c, ell)
        assert compositions_vanish([csc(b) for b in cc.boundaries], ell)
        return cc

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "boundary_matrices", checked)
        mp.setitem(globals(), "boundary_matrices", checked)
        yield


def discrete(n, p=2):
    return SimplicialComplex.discrete(n, None, p)


def join_of(*sizes, p=2):
    out = discrete(sizes[0], p)
    for s in sizes[1:]:
        out = join_complex(out, discrete(s, p))
    return out


def triangle_boundary_complex():
    cells = {1: np.array([[0, 1], [0, 2], [1, 2]])}
    return SimplicialComplex(3, cells, [1, 2, 0], 3)


def test_triangle_edge_boundary_rank():
    c = triangle_boundary_complex()
    for ell in (2, 3, 5):
        cc = boundary_matrices(c, ell)
        b1 = cc.boundaries[0]
        assert (b1.n_rows, b1.n_cols) == (3, 3)
        assert cc.rank(1) == 2 == dense_rank_mod(csc_to_dense(csc(b1)), ell)


def test_cycle_betti():
    c = triangle_boundary_complex()
    assert betti_numbers(c, 5).reduced == (0, 1)
    assert betti_numbers(c, 2).reduced == (0, 1)


def test_k33_rank_and_betti():
    k33 = join_of(3, 3)
    cc = boundary_matrices(k33, 5)
    b1 = cc.boundaries[0]
    assert (b1.n_rows, b1.n_cols) == (6, 9)
    assert cc.rank(1) == 5 == dense_rank_mod(csc_to_dense(csc(b1)), 5)
    assert betti_numbers(k33, 5).reduced == (0, 4)


def test_single_vertex_trivial():
    c = discrete(1)
    assert betti_numbers(c, 2).reduced == (0,)
    assert connectivity_from_betti(betti_numbers(c, 2).reduced, c.dim) == 0  # everything vanishes: report the dimension


def test_six_points_squared():
    assert betti_numbers(join_of(6, 6), 3).reduced == (0, 25)


@pytest.mark.parametrize(
    "sizes",
    [(2,), (5,), (1, 3), (2, 2), (2, 3), (3, 3), (4, 6), (2, 2, 2), (2, 2, 3),
     (2, 3, 5), (3, 3, 3), (1, 2, 2), (2, 2, 2, 2)],
)
def test_join_of_discrete_homology_law(sizes):
    total = 1
    for s in sizes:
        total *= s
    assert total <= 30 or sum(sizes) <= 30
    c = join_of(*sizes)
    k = len(sizes) - 1
    expected_top = 1
    for s in sizes:
        expected_top *= s - 1
    for ell in (2, 3, 5):
        bv = betti_numbers(c, ell)
        expected = tuple([0] * k + [expected_top])
        assert bv.reduced == expected
        # independent dense elimination on the same matrices
        assert dense_betti(c, ell) == expected


def test_field_independence_on_join_corpus():
    for sizes in [(2, 2), (3, 3), (2, 3, 5)]:
        profiles = {ell: betti_numbers(join_of(*sizes), ell).reduced for ell in (2, 3, 5)}
        assert len(set(profiles.values())) == 1


def test_connectivity_examples():
    def connectivity(c, ell):
        return connectivity_from_betti(betti_numbers(c, ell).reduced, c.dim)

    assert connectivity(join_of(3, 3), 3) == 0
    pt = discrete(1, 3)
    cone = join_complex(pt, join_of(3, 3, p=3))
    assert connectivity(cone, 3) == cone.dim == 2
    assert connectivity(SimplicialComplex.empty(3), 3) == -1


def test_connectivity_from_betti_conventions():
    assert connectivity_from_betti((), -1) == -1
    assert connectivity_from_betti((1,), 0) == -1
    assert connectivity_from_betti((0, 4), 1) == 0
    assert connectivity_from_betti((0, 0, 0), 2) == 2


def full_torus_q4():
    # every cubical cell of the 2-torus at q = 4, with the axis swap action
    q, D = 4, 2
    cells = {}
    for base in product(range(q), repeat=D):
        for mask in range(1 << D):
            d = bin(mask).count("1")
            cells.setdefault(d, []).append(list(base) + [mask])
    cells = {d: np.array(v, dtype=np.int32) for d, v in cells.items()}
    return GeneralCubicalComplex(q, D, cells, [1, 0], 2)


def test_full_torus_homology():
    torus = full_torus_q4()
    assert not torus.is_free  # diagonal squares are swap-invariant
    for ell in (2, 3):
        bv = betti_numbers(torus, ell)
        assert bv.reduced == (0, 2, 1)
        assert dense_betti(torus, ell) == (0, 2, 1)


def test_betti_vector_json():
    bv = BettiVector(5, (0, 4))
    doc = bv.to_json()
    assert doc == {"field": 5, "reduced_betti": [0, 4], "connectivity": 0}


def test_composition_check_rejects_bad_chain():
    # d1 maps the single edge to one endpoint only: the oracle's augmentation test fails
    bad = SimpleNamespace(n_rows=2, n_cols=1, indptr=np.array([0, 1]), indices=np.array([0]),
                          data=np.array([1]))
    assert not compositions_vanish([bad], 2)


def test_nonprime_field_rejected():
    with pytest.raises(ShapeError):
        betti_numbers(join_of(2, 2), 6)


def test_euler_identity_holds_on_corpus():
    for sizes in [(2, 2), (3, 3), (2, 3, 5)]:
        c = join_of(*sizes)
        bv = betti_numbers(c, 3)
        counts = c.cell_counts()
        euler_cells = sum((-1) ** d * n for d, n in counts.items())
        euler_betti = sum((-1) ** d * b for d, b in enumerate(bv.reduced))
        assert euler_betti == euler_cells - 1


# -- the coboundary rank engine against independent oracles -------------------------

JOIN_SIZES = [(2,), (5,), (1, 3), (2, 2), (2, 3), (3, 3), (4, 6), (2, 2, 2), (2, 2, 3),
              (2, 3, 5), (3, 3, 3), (1, 2, 2), (2, 2, 2, 2), (6, 6)]

# every complex this file and test_torusgrid.py build that dense elimination can hold
TEST_COMPLEXES = {
    "triangle": triangle_boundary_complex,
    "point": lambda: discrete(1),
    "cone": lambda: join_complex(discrete(1, 3), join_of(3, 3, p=3)),
    "full-torus-q4": full_torus_q4,
    **{f"join{sizes}": (lambda sizes=sizes: join_of(*sizes)) for sizes in JOIN_SIZES},
    "Z:p=2,q=8": lambda: build_approx(z_torus_spec(2, 8)),
    "Z:p=2,q=16": lambda: build_approx(z_torus_spec(2, 16)),
    "Z:p=3,q=8": lambda: build_approx(z_torus_spec(3, 8)),
    "XS:p=3,q=8,N=1": lambda: build_approx(separated_torus_spec(3, 8, 1, Fraction(1, 2))),
    "Y:p=2,q=8": lambda: build_approx(TorusGridSpec(2, 8, family=AdjacentGap(Fraction(1), exact=True))),
}
# the two 4-dimensional approximations test_torusgrid.py builds are too large to
# densify; the left-to-right reduction of the boundary itself checks them
LARGE_TEST_COMPLEXES = {
    "Z:p=3,q=16": lambda: build_approx(z_torus_spec(3, 16)),
    "XS:p=2,q=8,N=2": lambda: build_approx(separated_torus_spec(2, 8, 2, Fraction(1, 2))),
}


def engine_ranks(cc):
    return [cc.rank(d) for d in range(1, cc.top_dim + 1)]


@pytest.mark.parametrize("name", sorted(TEST_COMPLEXES))
def test_ranks_match_dense_elimination(name):
    c = TEST_COMPLEXES[name]()
    for ell in (2, 3, 5):
        cc = boundary_matrices(c, ell)
        assert engine_ranks(cc) == [dense_rank_np(csc(b), ell) for b in cc.boundaries], ell


@pytest.mark.parametrize("name", sorted(LARGE_TEST_COMPLEXES))
def test_ranks_match_column_reduction(name):
    c = LARGE_TEST_COMPLEXES[name]()
    for ell in (2, 3):
        cc = boundary_matrices(c, ell)
        assert engine_ranks(cc) == [column_reduction_rank(csc(b), ell) for b in cc.boundaries]
        assert sum(cc.reduction_counts[d]["colliding"] for d in cc.reduction_counts) > 0


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 7))
    cells = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=8))
    ell = draw(st.sampled_from([2, 3, 5, 7]))
    return SimplicialComplex.from_maximal(n, [sorted(c) for c in cells], None, ell), ell


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_ranks_match_dense_on_random_complexes(case):
    c, ell = case
    cc = boundary_matrices(c, ell)
    assert engine_ranks(cc) == [dense_rank_mod(csc_to_dense(csc(b)), ell) for b in cc.boundaries]


@pytest.mark.parametrize("name", ["join(2, 2, 2, 2)", "Z:p=3,q=8"])
def test_rank_order_does_not_matter(name):
    c = TEST_COMPLEXES[name]()
    ascending = boundary_matrices(c, 3)
    expected = [ascending.rank(d) for d in range(c.dim + 2)]
    top_first = boundary_matrices(c, 3)
    got = {d: top_first.rank(d) for d in [3, 1, 2, 0, 4]}
    assert [got[d] for d in range(c.dim + 2)] == expected


@pytest.mark.parametrize("name", sorted(TEST_COMPLEXES) + sorted(LARGE_TEST_COMPLEXES))
def test_live_columns_are_the_uncleared_ones(name):
    c = {**TEST_COMPLEXES, **LARGE_TEST_COMPLEXES}[name]()
    cc = boundary_matrices(c, 3)
    ranks = [cc.rank(d) for d in range(cc.top_dim + 2)]
    for d in range(1, cc.top_dim + 1):
        counts = cc.reduction_counts[d]
        if cc.top_down:  # the columns of boundary_d, cleared by the lows of boundary_{d+1}
            assert counts["live"] == cc.n_cells[d] - ranks[d + 1]
            assert counts["cleared"] == ranks[d + 1]
        else:  # the columns of delta^{d-1}, cleared by the lows of delta^{d-2}
            assert counts["live"] == cc.n_cells[d - 1] - ranks[d - 1]
            assert counts["cleared"] == ranks[d - 1]
        assert counts["apparent"] + counts["colliding"] <= counts["live"]
        assert counts["apparent"] <= ranks[d]
    if cc.top_down:
        assert cc.reduction_counts[cc.top_dim]["live"] == cc.n_cells[-1]


@pytest.mark.parametrize("name", ["join(2, 2, 2, 2)", "Z:p=3,q=8"])  # reduced up, and down
def test_pivot_rows_are_dropped_once_the_next_reduction_has_read_them(name):
    c = TEST_COMPLEXES[name]()
    cc = boundary_matrices(c, 3)
    betti(cc)
    ranks = [cc.rank(d) for d in range(cc.top_dim + 2)]
    assert not list(held_arrays(vars(cc)))  # the counts are kept, no pivot array
    for order in ([3, 1, 2, 0, 4], [1, 0, 4, 3, 2], [2, 4, 0, 3, 1]):
        fresh = boundary_matrices(c, 3)
        for d in order:
            assert fresh.rank(d) == ranks[d], (order, d)
            # at most the pivot rows of the last matrix reduced, until the next reads them
            assert len(list(held_arrays(vars(fresh)))) <= 1, (order, d)
        assert not list(held_arrays(vars(fresh))) and fresh.reduction_counts == cc.reduction_counts


COUNT_FIELDS = ("cleared", "live", "apparent", "colliding", "steps", "max_work", "stale_pops")


def assert_counts_pinned(c, want, ranks):
    for ell in (2, 3):
        cc = boundary_matrices(c, ell)
        assert engine_ranks(cc) == ranks[ell]
        for d, row in want.items():
            row = tuple(v[ell] if isinstance(v, dict) else v for v in row)
            assert tuple(cc.reduction_counts[d][f] for f in COUNT_FIELDS) == row, (ell, d)


def test_reduction_counts_are_pinned_on_the_z3_torus():
    # reduced down, boundary_3 first; the max scan the heap replaced takes the
    # same steps, which conftest checks on every call
    c = LARGE_TEST_COMPLEXES["Z:p=3,q=16"]()
    want = {
        1: (5230, 2930, 2914, 16, 73, 2, 0),
        2: (2256, 5232, 5162, 70, {2: 1511, 3: 1514}, 80, {2: 1478, 3: 1476}),
        3: (0, 2256, 2256, 0, 0, 0, 0),
    }
    assert_counts_pinned(c, want, {2: [2927, 5230, 2256], 3: [2927, 5230, 2256]})


def test_reduction_counts_are_pinned_on_the_benchmark_torus():
    # Z:p=5,q=8, 372,880 cells, reduced down over F_5 as ``approx-z --p 5 --q 8``
    # does; the apparent columns' owners serve every colliding dimension
    cc = boundary_matrices(build_approx(z_torus_spec(5, 8)), 5)
    assert betti(cc).reduced == (0, 5, 4, 0, 0, 0)
    want = {
        1: (58676, 17964, 17926, 38, 87, 2, 0),
        2: (68920, 58680, 57862, 818, 2450, 94, 2042),
        3: (34600, 68920, 67926, 994, 683, 190, 13),
        4: (6280, 34600, 34316, 284, 142, 14, 0),
        5: (0, 6280, 6280, 0, 0, 0, 0),
    }
    assert {d: tuple(cc.reduction_counts[d][f] for f in COUNT_FIELDS) for d in want} == want


def test_reduction_counts_are_pinned_on_a_join_of_two_surfaces():
    # 140 top cells against 13 vertices: reduced up, coboundary delta^0 first
    c = join_complex(RP2_6, TORUS_7)
    want = {
        1: (1, 12, 12, 0, 0, 0, 0),
        2: (12, 66, 61, 5, 9, 36, 2),
        3: (66, 189, 162, 27, 46, 30, 10),
        4: (189, 280, 220, 60, 103, 12, {2: 50, 3: 60}),
        5: ({2: 278, 3: 280}, {2: 142, 3: 140}, {2: 115, 3: 116}, {2: 27, 3: 24},
            {2: 22, 3: 14}, 2, 0),
    }
    assert_counts_pinned(c, want, {2: [12, 66, 189, 278, 139], 3: [12, 66, 189, 280, 140]})


@pytest.mark.parametrize("name", sorted(TEST_COMPLEXES))
def test_both_pivot_helpers_match_dense_elimination(name):
    # each matrix on its own, with nothing cleared, and then cleared the way
    # its direction clears it
    cc = boundary_matrices(TEST_COMPLEXES[name](), 3)
    none = np.empty(0, dtype=np.int64)
    dense = [dense_rank_np(csc(b), 3) for b in cc.boundaries]
    up = [len(homology._coboundary_pivots(b, none, 3, {})) for b in cc.boundaries]
    down = [len(homology._boundary_pivots(b, none, 3, {})) for b in cc.boundaries]
    assert up == down == dense
    cleared = np.arange(max(cc.n_cells[0] - 1, 0), cc.n_cells[0])
    for b in cc.boundaries:
        pivots = homology._coboundary_pivots(b, cleared, 3, {})
        assert len(pivots) == dense[b.d - 1]
        cleared = pivots
    cleared = none
    for b in reversed(cc.boundaries):
        pivots = homology._boundary_pivots(b, cleared, 3, {})
        assert len(pivots) == dense[b.d - 1]
        cleared = pivots


def test_the_smaller_end_decides_the_direction():
    torus = boundary_matrices(LARGE_TEST_COMPLEXES["Z:p=3,q=16"](), 3)
    assert torus.n_cells[-1] < torus.n_cells[0] and torus.top_down
    assert torus.rank_order == (4, 3, 2, 1, 0)
    sigma = periodic_point_complex(mismatch_shift(1), 5)  # the 30 period-5 points of Sigma_1
    join = boundary_matrices(join_complex(join_complex(sigma, sigma), sigma), 5)
    assert join.n_cells == (90, 2700, 27000) and not join.top_down
    assert join.rank_order == (0, 1, 2, 3)
    assert not boundary_matrices(Z3_CYCLE6, 3).top_down  # 6 edges, 6 vertices: a tie goes up


@pytest.mark.parametrize("name, down", [("Z:p=3,q=8", True), ("join(2, 3, 5)", False)])
def test_betti_asks_for_the_ranks_in_the_order_they_reduce(name, down, monkeypatch):
    # so that a span around each rank(d) times the reduction of one matrix
    cc = boundary_matrices(TEST_COMPLEXES[name](), 3)
    assert cc.top_down == down
    rank, calls = cc.rank, []

    def spy(d):
        before = len(cc.reduction_counts)
        out = rank(d)
        calls.append((d, len(cc.reduction_counts) - before))
        return out

    monkeypatch.setattr(cc, "rank", spy)
    betti(cc)
    assert [d for d, _ in calls] == list(cc.rank_order)
    assert [n for _, n in calls] == [int(1 <= d <= cc.top_dim) for d in cc.rank_order]


@pytest.mark.parametrize("name", ["join(2, 3, 5)", "Z:p=3,q=8"])
def test_indptr_is_one_read_only_array(name):
    for b in boundary_matrices(TEST_COMPLEXES[name](), 3).boundaries:
        n, k = b.complex.faces[b.d].shape
        ptr = b.indptr
        assert np.array_equal(ptr, np.arange(n + 1, dtype=np.int64) * k)
        assert ptr.dtype == np.int32 and b.indptr is ptr
        with pytest.raises(ValueError, match="read-only"):
            ptr[0] = 1


def test_composition_check_rejects_bad_column_in_a_later_block():
    c = join_of(41, 41, 41, p=3)  # 68921 triangles: more than one block
    cc = boundary_matrices(c, 3)
    lo, hi = map(csc, cc.boundaries)
    assert hi.n_cols > COMPOSE_BLOCK
    data = hi.data.copy()
    data[-1] = (data[-1] + 1) % 3  # one sign of the last triangle is wrong
    bad = SimpleNamespace(n_rows=hi.n_rows, n_cols=hi.n_cols, indptr=hi.indptr,
                          indices=hi.indices, data=data)
    assert not composition_vanishes(lo, bad, 3)


# -- the one constructor: the boundaries of one complex, read from its face table ----


def test_constructor_rebuilds_a_chain_complex_from_its_boundaries():
    cc = boundary_matrices(join_of(3, 3, 3, p=3), 3)
    again = ChainComplexFp(3, cc.n_cells, cc.boundaries)  # as the benchmark's probe does
    assert engine_ranks(again) == engine_ranks(cc) == [8, 19]


@pytest.mark.parametrize(
    "case", ["foreign", "two-complexes", "out-of-order", "missing-dimension", "n_cells",
             "no-boundaries"])
def test_constructor_refuses_what_is_not_one_complexs_boundaries(case):
    cc = boundary_matrices(join_of(3, 3, 3, p=3), 3)
    b1, b2 = cc.boundaries
    n0, n1, n2 = cc.n_cells
    foreign = csc(b1)  # a CSC triple with b1's entries
    twin = boundary_matrices(join_of(3, 3, 3, p=3), 3).boundaries[1]  # equal, but another complex's
    n_cells, boundaries = {
        "foreign": (cc.n_cells, [foreign, b2]),
        "two-complexes": (cc.n_cells, [b1, twin]),
        "out-of-order": (cc.n_cells, [b2, b1]),
        "missing-dimension": ((n0, n1), [b1]),
        "n_cells": ((n0, n1, n2 + 1), [b1, b2]),
        "no-boundaries": ((n0, n1), []),
    }[case]
    with pytest.raises(ShapeError, match="boundaries"):
        ChainComplexFp(3, n_cells, boundaries)


@pytest.mark.parametrize("table", ["faces", "face_signs", "keys"])
def test_validated_tables_refuse_assignment(table):
    # validated from rows, joined from factors (a generated top), grown on the grid
    for c in (full_torus_q4(), join_of(3, 3, 3, p=3), build_approx(z_torus_spec(3, 8))):
        cc = boundary_matrices(c, 3)
        tables = getattr(c, table)
        with pytest.raises(TypeError):
            tables[2] = tables[1]
        with pytest.raises(TypeError):
            del tables[2]
        if table != "face_signs":
            with pytest.raises(ValueError, match="read-only"):
                tables[1][0] = 0
        with pytest.raises(AttributeError, match="cannot be replaced"):
            setattr(c, table, tables)
        # so the boundaries read what was checked, and stay those of one complex
        assert engine_ranks(ChainComplexFp(3, cc.n_cells, cc.boundaries)) == engine_ranks(cc)


# -- the composition check by face identities ---------------------------------------


@pytest.mark.parametrize(
    "build", [lambda: join_of(3, 3, 3, p=3), full_torus_q4], ids=["join", "torus"]
)
def test_face_identity_check_refuses_a_corrupted_face_index(build):
    c = build()
    faces = c.faces[2].copy()
    faces[0, 0] = (faces[0, 0] + 1) % c.n_cells(1)  # still an edge, but the wrong one
    c = damaged_complex(c, faces={2: faces})
    for ell in (2, 3):
        with pytest.raises(ShapeError, match=r"between dimensions 2 and 0: face \d of face \d differs"):
            boundary_matrices(c, ell)


def test_face_identity_check_refuses_corrupted_sign_patterns():
    c = damaged_complex(join_of(3, 3, 3, p=3), signs={2: (1, 1, 1)})
    with pytest.raises(ShapeError, match="equal signs"):
        boundary_matrices(c, 3)
    # the base and far faces of axis 1 swapped
    torus = damaged_complex(full_torus_q4(), signs={2: (1, -1, 1, -1)})
    with pytest.raises(ShapeError, match="equal signs"):
        boundary_matrices(torus, 3)
    # over F_2 the edge column sums of (1, 1) vanish; over the integers they do not
    edges = damaged_complex(join_of(3, 3, p=3), signs={1: (1, 1)})
    for ell in (2, 3):
        with pytest.raises(ShapeError, match="augmentation"):
            boundary_matrices(edges, ell)


@pytest.mark.parametrize("damage", ["drop", "repeat"])
def test_face_identity_check_refuses_a_pairing_that_is_not_a_perfect_matching(damage, monkeypatch):
    honest = SimplicialComplex._face_pairs

    def broken(self, d):
        pairs = honest(self, d)
        return pairs[1:] if damage == "drop" else pairs + pairs[:1]

    monkeypatch.setattr(SimplicialComplex, "_face_pairs", broken)
    with pytest.raises(ShapeError, match="perfect matching"):
        boundary_matrices(join_of(2, 2, 2), 3)


@pytest.mark.parametrize("where", ["middle", "last"])
@pytest.mark.parametrize(
    "build", [lambda: join_of(3, 3, 3, p=3), full_torus_q4], ids=["join", "torus"]
)
def test_face_identity_check_names_the_pair_of_a_face_tampered_in_any_block(build, where, monkeypatch):
    # 48 entries a block: 8 triangles (3 faces of 2 edges each) or 6 squares (4 of 2)
    monkeypatch.setattr(complexes, "_BLOCK_ENTRIES", 48)
    c = build()
    faces = c.faces[2].copy()
    n, k = faces.shape
    step = 48 // (k * c.faces[1].shape[1])
    assert n > 2 * step and n % step  # a middle block and a partial last block
    row = step + step // 2 if where == "middle" else n - 1
    # the last face slot made an edge with neither end of the old one, so
    # every pair through that slot fails, and the first must be named
    ends = c.faces[1]
    old = set(ends[faces[row, k - 1]].tolist())
    faces[row, k - 1] = next(e for e in range(len(ends)) if not old & set(ends[e].tolist()))
    c = damaged_complex(c, faces={2: faces})
    want = shape_error_text(gathered_boundary_square, c)
    assert want is not None and "differs" in want
    with pytest.raises(ShapeError) as err:
        boundary_matrices(c, 3)
    assert str(err.value) == want


def test_boundary_lows_going_down_are_the_row_maxima_in_every_block(monkeypatch):
    # 20 entries a block: 5 squares of 4 faces (16 = 5 + 5 + 5 + 1) or 10 edges
    # of 2 (32 = 10 + 10 + 10 + 2); at 48, the 16 squares fill one block and part of another
    monkeypatch.setattr(complexes, "_BLOCK_ENTRIES", 20)
    torus = full_torus_q4()
    cc = boundary_matrices(torus, 3)
    assert not cc.top_down  # 16 squares against 16 vertices go up; down is asked for here
    cc.top_down = True
    for b in cc.boundaries:
        step = 20 // len(b.signs)
        assert b.n_cols > 2 * step and b.n_cols % step  # a middle block and a partial last block
        # every read is also checked by the every_boundary_low_matches_the_row_max fixture
        assert np.array_equal(homology._boundary_lows(b), b.complex.faces[b.d].max(axis=1))
    assert cc.rank_order == (3, 2, 1, 0)
    assert betti(cc).reduced == betti_numbers(torus, 3).reduced == (0, 2, 1)


# a * b edges of two faces each, against a block of 2^16 / 2 = 32768 of them
@pytest.mark.parametrize("a, b, past", [(217, 151, -1), (128, 256, 0), (99, 331, 1)],
                         ids=["below", "equal", "one-past"])
def test_coboundary_lows_match_the_oracles_around_one_block(a, b, past):
    bnd = boundary_matrices(join_of(a, b), 2).boundaries[0]
    assert bnd.n_cols == complexes._BLOCK_ENTRIES // 2 + past
    got = homology._coboundary_lows(bnd)
    assert np.array_equal(got, whole_table_lows(bnd))
    assert np.array_equal(got, sorted_coboundary_lows(bnd))


def test_apparent_flags_are_the_unshared_lows_whether_counted_or_sorted(monkeypatch):
    fast, by_sort = homology._apparent, []

    def spy(lows):
        got = fast(lows)
        assert np.array_equal(got, np.bincount(lows)[lows] == 1)
        by_sort.append(len(lows) > 0 and int(lows.max()) >= homology._COUNT_FACTOR * len(lows))
        return got

    monkeypatch.setattr(homology, "_apparent", spy)
    for c in (join_of(8, 8, 8), join_of(3, 3, 3, p=3), build_approx(z_torus_spec(3, 8)), full_torus_q4()):
        for ell in (2, 3):
            betti_numbers(c, ell)
    assert set(by_sort) == {False, True}
    # on either side of the threshold: the lows counted, then sorted
    for top in (homology._COUNT_FACTOR * 5 - 1, homology._COUNT_FACTOR * 5):
        assert fast(np.array([top, 3, 0, 3, 7])).tolist() == [True, False, True, False, True]


@pytest.mark.parametrize("ell, dtype", [(2, np.int8), (127, np.int8), (131, np.int16),
                                        (32749, np.int16), (32771, np.int32)])
def test_boundary_data_is_the_narrowest_signed_type(ell, dtype, monkeypatch):
    coefficients = homology._coefficients
    seen = []

    def spy(b, ell):
        got = coefficients(b, ell)
        seen.append(got.dtype)  # the coefficients the columns of a colliding reduction carry
        return got

    monkeypatch.setattr(homology, "_coefficients", spy)
    for c in (join_of(2, 3, 5), RP2_6, full_torus_q4()):
        cc = boundary_matrices(c, ell)  # also composition-checked by sorting
        assert engine_ranks(cc) == [dense_rank_np(csc(b), ell) for b in cc.boundaries]
    assert seen and set(seen) == {np.dtype(dtype)}


# -- Kunneth formula for joins of non-discrete factors ----------------------------

Z3_CYCLE6 = cycle_complex(6, [2, 3, 4, 5, 0, 1], 3)
Z3_CYCLE3 = cycle_complex(3, [1, 2, 0], 3)
Z3_K33 = standard_join_model(3, 2)
Z3_POINTS = SimplicialComplex.discrete(3, [1, 2, 0], 3)
# two surfaces without an action, whose coboundaries have colliding lows: the
# 6-vertex projective plane (b~ = (0,1,1) over F_2, acyclic over odd fields)
# and the 7-vertex torus
RP2_6 = projective_plane_6(3)
TORUS_7 = torus_7(3)


def kunneth(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Reduced Betti numbers of A*B over a field from those of A and B:
    b~_{n+1}(A*B) = sum over i + j = n of b~_i(A) b~_j(B)."""
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j + 1] += x * y
    return tuple(out)


@pytest.mark.parametrize(
    "factors, collides",
    [
        ((Z3_CYCLE6, Z3_CYCLE6), False),
        ((Z3_CYCLE6, Z3_K33), False),
        ((Z3_CYCLE3, Z3_K33), False),
        ((Z3_K33, Z3_CYCLE6, Z3_POINTS), False),
        ((RP2_6, Z3_CYCLE6), True),
        ((RP2_6, Z3_K33), True),
        ((Z3_CYCLE3, TORUS_7), True),
        ((TORUS_7, RP2_6), True),
    ],
    ids=["C6*C6", "C6*K33", "C3*K33", "K33*C6*P3", "RP2*C6", "RP2*K33", "C3*T7", "T7*RP2"],
)
def test_kunneth_formula_for_joins(factors, collides):
    joined = factors[0]
    for f in factors[1:]:
        joined = join_complex(joined, f)
    for ell in (2, 3, 5):
        expected = betti_numbers(factors[0], ell).reduced
        for f in factors[1:]:
            expected = kunneth(expected, betti_numbers(f, ell).reduced)
        cc = boundary_matrices(joined, ell)
        assert betti(cc).reduced == expected
        if collides:  # the fallback reduction, not only apparent pivots, was needed
            assert sum(cc.reduction_counts[d]["colliding"] for d in cc.reduction_counts) > 0


# -- the transpose, built only when columns collide ----------------------------------


@pytest.fixture
def transposes(monkeypatch):
    """The (d, ell) of every coboundary transpose built while a test runs."""
    transpose, calls = homology._coboundary_transpose, []

    def spy(b, ell):
        calls.append((b.d, ell))
        return transpose(b, ell)

    monkeypatch.setattr(homology, "_coboundary_transpose", spy)
    return calls


def test_the_transpose_is_not_built_when_no_columns_collide(transposes, capsys):
    # the 3-fold join of the 30 period-5 points of Sigma_1: 27000 triangles, every
    # live coboundary column apparent
    assert main(["homology", "--join-of", "Sigma:m=1,p=5", "--copies", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["reduced_betti"] == [0, 0, 29 ** 3]
    sigma = periodic_point_complex(mismatch_shift(1), 5)
    cc = boundary_matrices(join_complex(join_complex(sigma, sigma), sigma), 5)
    edges, triangles = cc.boundaries
    # boundary_2 is 2700 x 27000, too large to densify; its own column reduction checks it
    assert engine_ranks(cc) == [dense_rank_np(csc(edges), 5), column_reduction_rank(csc(triangles), 5)]
    assert transposes == []


@pytest.mark.parametrize("factors", [(RP2_6, Z3_CYCLE6), (TORUS_7, RP2_6)], ids=["RP2*C6", "T7*RP2"])
def test_the_transpose_is_built_for_each_coboundary_whose_columns_collide(factors, transposes):
    c = join_complex(*factors)
    for ell in (2, 3):
        transposes.clear()
        cc = boundary_matrices(c, ell)
        assert not cc.top_down
        assert engine_ranks(cc) == [dense_rank_np(csc(b), ell) for b in cc.boundaries]
        colliding = [(d, ell) for d in sorted(cc.reduction_counts) if cc.reduction_counts[d]["colliding"]]
        assert colliding and transposes == colliding
