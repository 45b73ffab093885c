import re
import tracemalloc
from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GeneralCubicalComplex,
    assert_same_complex,
    general_join,
    projective_plane_6,
    torus_7,
)

from zpindex.complexes import (
    _row_keys,
    SimplicialComplex,
    cycle_complex,
    is_EnZp,
    join_cell_count,
    join_complex,
    join_power,
    standard_join_model,
)
from zpindex import complexes
from zpindex.errors import ResourceCapError, ShapeError
from zpindex.shiftspaces import mismatch_shift, periodic_point_complex
from zpindex.torusgrid import build_approx, z_torus_spec

Z3PTS = SimplicialComplex.discrete(3, [1, 2, 0], 3)


def test_join_of_discrete_is_complete_bipartite():
    k33 = join_complex(Z3PTS, Z3PTS)
    assert k33.n_vertices == 6
    assert k33.cell_counts() == {0: 6, 1: 9}
    assert k33.dim == 1
    assert k33.join_factors == (3, 3)


def test_join_counting_laws():
    shapes = [
        Z3PTS,
        join_complex(Z3PTS, Z3PTS),
        standard_join_model(2, 2),
        cycle_complex(8, [(j + 4) % 8 for j in range(8)], 2),
    ]
    for a in shapes:
        for b in shapes:
            if a.p != b.p:
                with pytest.raises(ShapeError):
                    join_complex(a, b)
                continue
            j = join_complex(a, b)
            assert j.dim == a.dim + b.dim + 1
            assert j.n_vertices == a.n_vertices + b.n_vertices
            ca, cb, cj = a.total_cells(), b.total_cells(), j.total_cells()
            assert cj == (ca + 1) * (cb + 1) - 1 == join_cell_count([ca, cb])


def test_join_cell_cap_is_checked_before_allocation():
    assert join_cell_count([126] * 3) == 2_048_382  # the 3-fold join of the period-7 set
    big = SimplicialComplex.discrete(4000, None, 3)
    with pytest.raises(ResourceCapError, match=r"16008000 cells.*\(10000000\)"):
        join_complex(big, big)


def test_join_identity_is_empty_complex():
    e = SimplicialComplex.empty(3)
    assert join_complex(e, Z3PTS) is Z3PTS
    assert join_complex(Z3PTS, e) is Z3PTS


def test_cone_is_contractible():
    from zpindex.homology import betti_numbers

    pt = SimplicialComplex.discrete(1, None, 3)
    cone = join_complex(pt, join_complex(Z3PTS, Z3PTS))
    assert betti_numbers(cone, 3).reduced == (0, 0, 0)
    with pytest.raises(ShapeError):
        cone.free_witness()  # the cone carries no action


def test_free_action_examples():
    assert Z3PTS.is_free
    assert join_complex(Z3PTS, Z3PTS).free_witness() is None


def test_identity_action_rejected():
    with pytest.raises(ShapeError):
        SimplicialComplex.discrete(1, [0], 2)
    with pytest.raises(ShapeError):
        SimplicialComplex.discrete(4, [0, 1, 2, 3], 2)


def test_wrong_order_action_rejected():
    with pytest.raises(ShapeError):
        SimplicialComplex.discrete(3, [1, 2, 0], 2)  # order 3 under p = 2
    with pytest.raises(ShapeError):
        SimplicialComplex.discrete(3, [1, 0, 0], 3)  # not a permutation


def test_invariant_edge_is_a_freeness_witness():
    # two swapped points joined by the edge between them: the edge is setwise fixed
    c = SimplicialComplex(2, {1: np.array([[0, 1]])}, [1, 0], 2)
    assert c.free_witness() == (1, (0, 1))


def test_fixed_vertex_is_a_freeness_witness():
    c = SimplicialComplex.discrete(3, [1, 0, 2], 2)
    assert c.free_witness() == (0, (2,))


def test_join_freeness_is_conjunction():
    free = SimplicialComplex.discrete(2, [1, 0], 2)
    not_free = SimplicialComplex.discrete(3, [1, 0, 2], 2)
    assert join_complex(free, free).is_free
    assert not join_complex(free, not_free).is_free
    assert not join_complex(not_free, not_free).is_free


def test_face_closure_enforced():
    with pytest.raises(ShapeError):
        SimplicialComplex(3, {1: np.array([[0, 1]]), 2: np.array([[0, 1, 2]])},
                          [1, 2, 0], 3)


def test_action_must_map_cells_to_cells():
    # 3 vertices in a cycle action but only one edge: the action breaks closure
    with pytest.raises(ShapeError):
        SimplicialComplex(3, {1: np.array([[0, 1]])}, [1, 2, 0], 3)


def test_standard_join_model():
    m = standard_join_model(3, 2)
    assert m.n_vertices == 6 and m.dim == 1 and m.is_free
    assert m.join_factors == (3, 3)
    rep = is_EnZp(m, 1)
    assert rep.free and rep.certified and rep.is_model and rep.connectivity == 0


def test_is_EnZp_on_periodic_join():
    base = periodic_point_complex(mismatch_shift(1), 5)
    rep0 = is_EnZp(base, 0)
    assert rep0.is_model and rep0.certified and rep0.dimension == 0
    j = join_complex(base, base)
    rep1 = is_EnZp(j, 1)
    assert rep1.is_model and rep1.certified and rep1.connectivity == 0
    assert rep1.betti == (0, 29 * 29)


def test_is_EnZp_rejects_non_free():
    c = SimplicialComplex(2, {1: np.array([[0, 1]])}, [1, 0], 2)
    rep = is_EnZp(c, 1)
    assert not rep.free and not rep.is_model and rep.witness == (1, (0, 1))


def test_cycle_complex_structure():
    q = 8
    c = cycle_complex(q, [(j + 4) % q for j in range(q)], 2)
    assert c.cell_counts() == {0: 8, 1: 8}
    assert c.is_free
    rep = is_EnZp(c, 1, ell=2)
    assert rep.is_model and not rep.certified  # homology evidence, not structural


def test_carrier_cell_simplicial():
    k33 = join_complex(Z3PTS, Z3PTS)
    assert k33.carrier_cell([0, 3]) == (0, 3)
    assert k33.carrier_cell([3]) == (3,)
    assert k33.carrier_cell([0, 1]) is None  # same-side pairs span no cell


def test_exchange_json_roundtrip():
    for c in (join_complex(Z3PTS, Z3PTS), standard_join_model(2, 3),
              cycle_complex(8, [(j + 4) % 8 for j in range(8)], 2)):
        doc = c.to_json()
        back = SimplicialComplex.from_json(doc)
        assert back.cell_counts() == c.cell_counts()
        assert np.array_equal(back.action, c.action)
        for d in c.cells:
            assert np.array_equal(back.cells[d], c.cells[d])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=8))))
def test_maximal_cells_are_the_cells_in_no_other_cell(case):
    n, given_cells = case
    c = SimplicialComplex.from_maximal(n, [sorted(s) for s in given_cells], None, 2)
    cells = [tuple(int(v) for v in row) for d in c.cells for row in c.cells[d]]
    brute = [list(s) for s in cells if not any(set(s) < set(t) for t in cells)]
    assert c.maximal_cells() == sorted(brute, key=lambda s: (len(s), s))


def test_cubical_validation():
    # a lone square without its edges breaks closure
    with pytest.raises(ShapeError):
        GeneralCubicalComplex(8, 2, {2: np.array([[0, 0, 3]])}, [1, 0], 2)
    with pytest.raises(ShapeError):
        GeneralCubicalComplex(8, 2, {1: np.array([[0, 0, 3]])}, [1, 0], 2)  # popcount 2 != 1


def test_composite_order_rejected():
    # perm^4 = id holds for a swap, but Z/4 would act with Z/2 stabilisers
    with pytest.raises(ShapeError, match="prime"):
        SimplicialComplex.discrete(2, [1, 0], 4)
    with pytest.raises(ShapeError, match="prime"):
        GeneralCubicalComplex(8, 2, {0: np.array([[0, 0, 0]])}, [1, 0], 4)


def trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_prime_check_matches_trial_division():
    assert [n for n in range(100000) if complexes._is_prime(n)] == [
        n for n in range(100000) if trial_division_is_prime(n)]
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 23
    assert 3215031751 == 151 * 751 * 28351 and 3825123056546413051 == 149491 * 747451 * 34233211
    assert not complexes._is_prime(3215031751) and not complexes._is_prime(3825123056546413051)
    assert complexes._is_prime(9223372036854775783)  # the largest prime below 2^63
    assert complexes._is_prime(2**64 - 59) and not complexes._is_prime(2**64 - 1)
    with pytest.raises(ShapeError, match=r"primality is decided only below 2\^64, got 18446744073709551616"):
        complexes._is_prime(2**64)


def test_action_order_is_checked_by_repeated_squaring():
    # a free orbit of 1000003 points: p - 1 compositions of the permutation
    # took longer than 20 s, about 20 squarings do not
    p = 1000003
    c = SimplicialComplex.discrete(p, np.roll(np.arange(p), -1), p)
    assert c.is_free and c.n_vertices == p
    for perm in ([1, 2, 0, 4, 3], [1, 0, 2, 3, 4]):  # orders 6 and 2
        with pytest.raises(ShapeError, match=r"does not satisfy perm\^5 = id"):
            SimplicialComplex.discrete(5, perm, 5)


# -- the cell table ----------------------------------------------------------------


def full_torus(q=4, D=2):
    """Every cubical cell of the D-torus at resolution q, with a cyclic axis shift."""
    cells = {}
    for base in product(range(q), repeat=D):
        for mask in range(1 << D):
            cells.setdefault(bin(mask).count("1"), []).append(list(base) + [mask])
    axis_map = [(t + 1) % D for t in range(D)]
    return GeneralCubicalComplex(q, D, {d: np.array(v) for d, v in cells.items()}, axis_map, D)


def test_keys_sort_rows_like_lexsort():
    rng = np.random.default_rng(7)
    q, D, n = 5, 3, 11
    simplicial = rng.integers(0, n, size=(400, 3))
    cubical = np.hstack([rng.integers(0, q, size=(400, D)), rng.integers(0, 1 << D, size=(400, 1))])
    for rows, radices in ((simplicial, [n] * 3), (cubical, [q] * D + [1 << D])):
        keys = _row_keys(rows, radices)
        lex = np.lexsort(rows.T[::-1])
        assert np.array_equal(rows[np.argsort(keys, kind="stable")], rows[lex])

    # stored rows are in lexicographic order, whatever order they came in
    edges = {tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(30)}
    shuffled = np.array(sorted(edges, key=lambda e: rng.random()))
    c = SimplicialComplex(n, {1: shuffled}, None, 2)
    assert [tuple(r) for r in c.cells[1].tolist()] == sorted(edges)
    t = full_torus(q=5, D=3)
    for d, rows in t.cells.items():
        assert np.array_equal(rows, rows[np.lexsort(rows.T[::-1])])
        assert np.all(np.diff(t.keys[d]) > 0)


def test_key_overflow_guard_refuses():
    # 16^16 * 2^16 = 2^80 possible cells: refused before any key is formed
    with pytest.raises(ShapeError, match="2\\^63"):
        GeneralCubicalComplex(16, 16, {0: np.zeros((1, 17), dtype=np.int32)}, list(range(1, 16)) + [0], 2)
    with pytest.raises(ShapeError, match="2\\^63"):
        _row_keys(np.array([[1, 1]]), [1 << 32, 1 << 31])
    # just below the limit the largest row keeps a positive, exact key
    top = np.array([[(1 << 31) - 1, (1 << 31) - 1]])
    assert int(_row_keys(top, [1 << 31, 1 << 31])[0]) == (1 << 62) - 1


def _corners(c, row):
    D = c.n_axes
    base, mask = [int(x) for x in row[:D]], int(row[D])
    axes = [t for t in range(D) if mask >> t & 1]
    out = set()
    for steps in product((0, 1), repeat=len(axes)):
        pt = list(base)
        for a, s in zip(axes, steps):
            pt[a] = (pt[a] + s) % c.q
        out.add(tuple(pt))
    return frozenset(out)


def test_stored_faces_match_plain_python():
    m = standard_join_model(3, 2)
    for d in range(1, m.dim + 1):
        index = {tuple(r): j for j, r in enumerate(m.cells[d - 1].tolist())}
        expected = [
            [index[t[:i] + t[i + 1:]] for i in range(d + 1)]
            for t in map(tuple, m.cells[d].tolist())
        ]
        assert m.faces[d].tolist() == expected
        assert m.face_signs[d] == tuple((-1) ** i for i in range(d + 1))

    # the general constructor's full torus, and an approximation laid out on the grid
    for t in (full_torus(), build_approx(z_torus_spec(3, 8))):
        D = t.n_axes
        for d in range(1, t.dim + 1):
            index = {_corners(t, r): j for j, r in enumerate(t.cells[d - 1])}
            expected = []
            for row in t.cells[d]:
                cube = _corners(t, row)
                faces = []
                for a in [a for a in range(D) if int(row[D]) >> a & 1]:
                    far = (int(row[a]) + 1) % t.q
                    faces.append(index[frozenset(x for x in cube if x[a] == far)])
                    faces.append(index[frozenset(x for x in cube if x[a] == row[a])])
                expected.append(faces)
            assert t.faces[d].tolist() == expected
            assert t.face_signs[d] == tuple(s for k in range(d) for s in ((-1) ** k, -((-1) ** k)))

    from zpindex.homology import boundary_matrices

    for c in (m, t):
        cc = boundary_matrices(c, 3)
        for d, b in enumerate(cc.boundaries, start=1):
            assert not c.faces[d].flags.writeable
            assert np.shares_memory(b.indices, c.faces[d])  # a view, not a copy


# -- the join built from its factors against the general constructor ----------------


def _factors(p):
    """Factors of the joins the tests build, over Z/p: discrete sets with and
    without an action, free and not, joins of those, cycles, the empty complex,
    and (for p = 3) two surfaces with no action."""
    if p == 5:  # the period-5 points of the mismatch shift, as in the acceptance joins
        base = periodic_point_complex(mismatch_shift(1), 5)
        return {"P5": base, "P5*P5": general_join(base, base)}
    cyc = [(i + 1) % p for i in range(p)]
    out = {
        "empty": SimplicialComplex.empty(p),
        "point": SimplicialComplex.discrete(1, None, p),
        "orbit": SimplicialComplex.discrete(p, cyc, p, labels=[f"g{i}" for i in range(p)]),
        "orbit+fixed": SimplicialComplex.discrete(p + 1, cyc + [p], p),
        "plain-4": SimplicialComplex.discrete(4, None, p),
        f"model({p},2)": standard_join_model(p, 2),
        f"model({p},3)": standard_join_model(p, 3),
        "cycle": cycle_complex(2 * p, [(j + 2) % (2 * p) for j in range(2 * p)], p),
        "orbit-simplex": SimplicialComplex.from_maximal(p, [range(p)], cyc, p),  # top cell fixed
    }
    if p == 3:
        out["RP2"] = projective_plane_6(3)
        out["T7"] = torus_7(3)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_join_matches_general_constructor(p):
    factors = _factors(p)
    for (na, a), (nb, b) in product(factors.items(), repeat=2):
        try:
            assert_same_complex(join_complex(a, b), general_join(a, b))
        except AssertionError as e:
            raise AssertionError(f"{na} * {nb}: {e}") from e


def test_join_key_overflow_is_refused_like_the_general_constructor():
    # two 7-simplices: the 15-cell of the join has 16 vertices among 16, 16^16 >= 2^63
    simplex = SimplicialComplex.from_maximal(8, [range(8)], None, 2)
    for build in (join_complex, general_join):
        with pytest.raises(ShapeError, match=re.escape(f"radices {[16] * 16} would reach 2^63")):
            build(simplex, simplex)


def test_join_key_overflow_is_refused_before_dimension_0():
    # the 15-cells overflow; building the dimensions below them would take
    # about 7 MB
    simplex = SimplicialComplex.from_maximal(8, [range(8)], None, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="join of 2 complexes: the 15-cell keys"):
            join_complex(simplex, simplex)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


def _left_fold(base, copies):
    out = base
    for _ in range(copies - 1):
        out = join_complex(out, base)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_join_power_is_the_left_fold_of_join_complex(p):
    cyc = [(i + 1) % p for i in range(p)]
    bases = {
        "orbit": SimplicialComplex.discrete(p, cyc, p, labels=[f"g{i}" for i in range(p)]),
        "empty": SimplicialComplex.empty(p),
        "no action": SimplicialComplex.discrete(3, None, p),
    }
    for (name, base), copies in product(bases.items(), range(1, 5)):
        try:
            assert_same_complex(join_power(base, copies), _left_fold(base, copies))
        except AssertionError as e:
            raise AssertionError(f"{name}^{copies}: {e}") from e
    with pytest.raises(ShapeError, match="need at least one copy, got 0"):
        join_power(bases["orbit"], 0)


def test_join_power_checks_the_whole_product_before_the_first_step(monkeypatch):
    steps = []
    monkeypatch.setattr(complexes, "join_complex", lambda a, b: steps.append((a, b)))
    sigma7 = periodic_point_complex(mismatch_shift(1), 7)  # 126 points
    with pytest.raises(ResourceCapError, match="join of 4 complexes would have 260144640 cells"):
        join_power(sigma7, 4)
    # under the cell cap (3^14 - 1 cells), but 28^14 >= 2^63 in dimension 13
    orbit = SimplicialComplex.discrete(2, [1, 0], 2)
    with pytest.raises(ShapeError, match=re.escape(f"join of 14 complexes: the 13-cell keys with "
                                                   f"radices {[28] * 14} would reach 2^63")):
        join_power(orbit, 14)
    # the standard 20-model, join(Z_2)^21; the count stops at the 15th factor
    with pytest.raises(ResourceCapError, match="join of 21 complexes would have at least 14348906"):
        standard_join_model(2, 21)
    with pytest.raises(ResourceCapError, match="join of 1000000000 complexes"):
        join_power(orbit, 10**9)
    assert steps == []
    assert join_power(SimplicialComplex.empty(2), 10**9).is_empty


@st.composite
def acted_complexes(draw, p):
    """A random complex closed under faces and under a vertex permutation of
    order p made of p-cycles and fixed points; the action is sometimes dropped."""
    cycles, fixed = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    n = cycles * p + fixed
    action = [v - v % p + (v + 1) % p if v < cycles * p else v for v in range(n)]
    cells = set()
    for c in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=4)):
        for _ in range(p):
            cells.add(tuple(sorted(c)))
            c = {action[v] for v in c}
    kept = action if draw(st.booleans()) else None
    return SimplicialComplex.from_maximal(n, sorted(cells), kept, p)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda p: st.tuples(acted_complexes(p), acted_complexes(p))))
@example((SimplicialComplex.discrete(2, [1, 0], 2), SimplicialComplex.discrete(2, [1, 0], 2)))
@example((SimplicialComplex.discrete(2, [1, 0], 2),
          SimplicialComplex(2, {1: np.array([[0, 1]])}, [1, 0], 2)))
def test_join_matches_general_constructor_on_random_factors(pair):
    a, b = pair
    joined = join_complex(a, b)
    assert_same_complex(joined, general_join(a, b))
    if joined.action is not None:  # free exactly when both factors are
        assert joined.is_free == (a.is_free and b.is_free)


# -- a join's top dimension: faces stored, keys generated from the factors ----------


def _fold(build, factors):
    out = factors[0]
    for f in factors[1:]:
        out = build(out, f)
    return out


def _generated_top_cases():
    cyc = [1, 2, 0]
    orbit = SimplicialComplex.discrete(3, cyc, 3)
    simplex = SimplicialComplex.from_maximal(3, [range(3)], cyc, 3)  # its 2-cell is fixed
    sigma5 = periodic_point_complex(mismatch_shift(1), 5)
    return {
        "Sigma5^3": [sigma5] * 3,  # free; the second fold reads a generated top dimension
        "orbit+fixed*orbit*orbit": [SimplicialComplex.discrete(4, cyc + [3], 3), orbit, orbit],
        # every top cell is fixed; the witness is (sigma, empty), in dimension 2 of 5
        "simplex*simplex": [simplex, simplex],
        "cycle*simplex*plain": [cycle_complex(6, [(j + 2) % 6 for j in range(6)], 3), simplex,
                                SimplicialComplex.discrete(2, None, 3)],
        "RP2*T7": [projective_plane_6(3), torus_7(3)],  # no action
    }


@pytest.mark.parametrize("name", sorted(_generated_top_cases()))
def test_generated_top_dimension_matches_the_general_join(name):
    factors = _generated_top_cases()[name]
    got, want = _fold(join_complex, factors), _fold(general_join, factors)
    top = got.dim
    assert isinstance(got.keys._tables[top], complexes._JoinTop)
    assert_same_complex(got, want)  # keys, cells, faces, witness; every array read-only
    assert got.keys[top] is not got.keys[top]  # generated on each read, never kept
    assert got.maximal_cells() == want.maximal_cells()
    rng = np.random.default_rng(0)
    n = got.n_cells(top)
    at = rng.integers(0, n, size=40)
    for x in (at, at.tolist(), [], np.arange(n - 1, -1, -7)):
        rows = got._rows(top, x)
        assert not rows.flags.writeable and not got.keys.take(top, x).flags.writeable
        assert np.array_equal(rows, want._rows(top, x))
    # top cells, and rows of top + 1 vertices (repeats allowed) that mostly are not
    strangers = np.sort(rng.integers(0, got.n_vertices, size=(200, top + 1)), axis=1)
    for row in [*want.cells[top][at].tolist(), *strangers.tolist()]:
        assert got._find_cell(top, row) == want._find_cell(top, row)
        assert got.carrier_cell(row) == want.carrier_cell(row)
    assert got._find_cell(top, [got.n_vertices] * (top + 1)) == -1


def test_homology_counts_and_lookups_generate_no_top_keys(monkeypatch):
    from zpindex.homology import betti_numbers

    generated = []
    real = complexes._JoinTop.take

    def counting(self, at=None):
        generated.append(("all", len(self)) if at is None else ("at", len(at)))
        return real(self, at)

    monkeypatch.setattr(complexes._JoinTop, "take", counting)
    sigma5 = periodic_point_complex(mismatch_shift(1), 5)  # 30 points
    joined = join_power(sigma5, 3)
    assert generated == [("all", 900)]  # the second fold reads the first one's top once
    generated.clear()
    assert joined.cell_counts() == {0: 90, 1: 2700, 2: 27000}
    assert (joined.total_cells(), joined.n_cells(2), joined.dim) == (29790, 27000, 2)
    assert joined.is_free and not joined.is_empty and 2 in joined.cells
    assert betti_numbers(joined, 5).reduced == (0, 0, 24389)
    assert generated == []
    # lookups go through the factors' keys; a read of a few cells takes only those
    assert joined._find_cell(2, [0, 30, 60]) >= 0 and joined.carrier_cell([0, 1, 60]) is None
    assert generated == []
    assert joined._rows(2, [3, 5]).shape == (2, 3) and generated == [("at", 2)]


# -- one table per cell: keys and int32 faces, rows decoded on read -----------------


def _held_arrays(obj):
    """Every numpy array reachable from obj through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _held_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _held_arrays(v)


def test_no_complex_stores_a_row_array():
    sigma5 = periodic_point_complex(mismatch_shift(1), 5)
    built = [
        sigma5,  # the word complex
        join_power(sigma5, 3),  # the join, from the factors' keys
        standard_join_model(3, 3),
        projective_plane_6(2),  # the general simplicial constructor
        build_approx(z_torus_spec(3, 8)),  # grown cubical dimensions
        GeneralCubicalComplex(4, 2, {0: np.array([[0, 0, 0], [2, 2, 0]])}, [1, 0], 2),
    ]
    for c in built:
        assert "cells" not in vars(c)
        # the only tables of more than one column are the faces, all int32
        wide = {id(a) for a in _held_arrays(vars(c)) if a.ndim > 1}
        assert wide == {id(f) for f in c.faces.values()}
        assert all(f.dtype == np.int32 and not f.flags.writeable for f in c.faces.values())
        for d in c.cells:  # decoded on each read, never kept
            rows = c.cells[d]
            assert rows.dtype == np.int32 and not rows.flags.writeable
            assert c.cells[d] is not rows and np.array_equal(c.cells[d], rows)
            assert np.array_equal(_row_keys(rows, c._radices(d)), c.keys[d])


def test_carrier_cell_and_vertex_label_decode_only_the_keys_they_are_given(monkeypatch):
    from zpindex.coindex import verify_certificate
    from zpindex.torusgrid import canonical_certificate_P2

    q = 8
    torus = build_approx(z_torus_spec(2, q))
    cert = canonical_certificate_P2(q, torus)
    m = standard_join_model(3, 2)
    decoded = []
    real = complexes._key_rows

    def counting(keys, radices):
        decoded.append(len(keys))
        return real(keys, radices)

    monkeypatch.setattr(complexes, "_key_rows", counting)
    assert torus.vertex_label(5) == ",".join(map(str, torus.cells[0][5, :2].tolist()))
    assert decoded == [1, torus.n_vertices]  # the label's one key, then the whole read
    decoded.clear()
    x = cert.vertex_map[0]
    assert torus.carrier_cell([x, cert.vertex_map[1], x]) is not None
    assert decoded == [2]
    decoded.clear()
    assert m.carrier_cell([0, 4]) == (0, 4) and m.vertex_label(4) == "1:1"
    assert decoded == []  # simplicial lookups build a key and decode nothing
    # one decode of the domain's q edges, then each edge's two image vertices
    assert verify_certificate(cert, torus).accepted
    assert decoded == [q] + [2] * q


GUARD_CHILD = """
import tracemalloc
from zpindex import complexes
from zpindex.complexes import SimplicialComplex, _check_cell_count, join_complex
from zpindex.errors import ResourceCapError
complexes._JOIN_CELL_CAP = 1 << 62  # only the int32 face limit is left to refuse
_check_cell_count(1, (1 << 31) - 1)
a = SimplicialComplex.discrete(46341, None, 2)  # 46341^2 = 2147488281 edges in the join
tracemalloc.start()
try:
    join_complex(a, a)
except ResourceCapError as e:
    print(tracemalloc.get_traced_memory()[1])
    print(e)
"""


def test_a_dimension_of_2_to_the_31_cells_is_refused_before_allocation():
    # in a child whose address space is limited, so a missing guard fails
    # with a MemoryError instead of filling the machine's memory
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", GUARD_CHILD], capture_output=True, text=True,
                          env=env, preexec_fn=limit, timeout=30)
    assert proc.returncode == 0, proc.stderr[-2000:]
    peak, reason = proc.stdout.strip().split("\n")
    assert int(peak) < 1 << 16
    assert reason == ("dimension 1 would have 2147488281 cells; int32 face indices address "
                      "fewer than 2^31 cells a dimension; nothing was built")
    with pytest.raises(ResourceCapError, match="2147483648 cells"):
        complexes._check_cell_count(3, 1 << 31)
