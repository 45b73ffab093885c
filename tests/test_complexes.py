import random
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np
import pytest

from zpindex.alphabets import cyclic_group
from zpindex.complexes import (
    CubicalComplex,
    _row_keys,
    JoinPoint,
    SimplicialComplex,
    apply_join_of_maps,
    cycle_complex,
    is_EnZp,
    join_cell_count,
    join_complex,
    standard_join_model,
    verify_free_action,
)
from zpindex.errors import ResourceCapError, ShapeError
from zpindex.seqmaps import block_sum_step, separation_violations
from zpindex.shiftspaces import mismatch_shift, periodic_point_complex
from zpindex.verify import _random_separated_window

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
    ok, witness = verify_free_action(join_complex(Z3PTS, Z3PTS))
    assert ok and witness is None


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
    ok, witness = verify_free_action(c)
    assert not ok and witness == (1, (0, 1))


def test_fixed_vertex_is_a_freeness_witness():
    c = SimplicialComplex.discrete(3, [1, 0, 2], 2)
    ok, witness = verify_free_action(c)
    assert not ok and witness == (0, (2,))


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


def test_join_point_validation_and_collapse():
    x = JoinPoint((Fraction(1), Fraction(0)), ("a", None))
    y = JoinPoint((Fraction(1), Fraction(0)), ("a", "ignored"))
    assert x == y and hash(x) == hash(y)
    assert x != JoinPoint((Fraction(0), Fraction(1)), (None, "a"))
    with pytest.raises(ShapeError):
        JoinPoint((Fraction(1, 2),), ("a",))  # weights must sum to 1
    with pytest.raises(ShapeError):
        JoinPoint((Fraction(1, 2), Fraction(1, 2)), ("a", None))
    with pytest.raises(ShapeError):
        JoinPoint((Fraction(-1, 2), Fraction(3, 2)), ("a", "b"))


def test_apply_join_of_maps():
    x = JoinPoint((Fraction(1, 2), Fraction(1, 2)), (1, 2))
    assert apply_join_of_maps([lambda v: v, lambda v: v], x) == x
    collapsed = JoinPoint((Fraction(1), Fraction(0)), (1, None))
    out = apply_join_of_maps([lambda v: v + 10, lambda v: v], collapsed)
    assert out.points[0] == 11 and out.points[1] is None
    with pytest.raises(ShapeError):
        apply_join_of_maps([lambda v: v], x)


def test_join_of_block_codes_preserves_validity():
    # one forward-code step per factor keeps every factor window valid
    rng = random.Random(4)
    z3 = cyclic_group(3)
    m = 2
    windows = [
        _random_separated_window(rng, z3, Fraction(1, 2), factorial(m), 0, 10)
        for _ in range(3)
    ]
    x = JoinPoint((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), tuple(windows))
    out = apply_join_of_maps([lambda w: block_sum_step(m, w)] * 3, x)
    for w in out.points:
        assert separation_violations(w, factorial(m - 1), Fraction(1, 2)) == []


def test_cubical_validation():
    # a lone square without its edges breaks closure
    with pytest.raises(ShapeError):
        CubicalComplex(8, 2, {2: np.array([[0, 0, 3]])}, [1, 0], 2)
    with pytest.raises(ShapeError):
        CubicalComplex(8, 2, {1: np.array([[0, 0, 3]])}, [1, 0], 2)  # popcount 2 != 1


def test_composite_order_rejected():
    # perm^4 = id holds for a swap, but Z/4 would act with Z/2 stabilisers
    with pytest.raises(ShapeError, match="prime"):
        SimplicialComplex.discrete(2, [1, 0], 4)
    with pytest.raises(ShapeError, match="prime"):
        CubicalComplex(8, 2, {0: np.array([[0, 0, 0]])}, [1, 0], 4)


# -- the cell table ----------------------------------------------------------------


def full_torus(q=4, D=2):
    """Every cubical cell of the D-torus at resolution q, with a cyclic axis shift."""
    cells = {}
    for base in product(range(q), repeat=D):
        for mask in range(1 << D):
            cells.setdefault(bin(mask).count("1"), []).append(list(base) + [mask])
    axis_map = [(t + 1) % D for t in range(D)]
    return CubicalComplex(q, D, {d: np.array(v) for d, v in cells.items()}, axis_map, D)


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
        CubicalComplex(16, 16, {0: np.zeros((1, 17), dtype=np.int32)}, list(range(1, 16)) + [0], 2)
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

    t = full_torus()
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
