"""Shared independent oracles for the test suite.

These deliberately re-derive results with different machinery than the
package: dense row-echelon elimination and a left-to-right column
reduction of the boundary itself instead of the package's coboundary
reduction with clearing, boundary compositions expanded and summed instead
of the complex's face identities, plain itertools scans instead of the
search, joins validated from scratch by the general simplicial
constructor instead of built from their factors, a join's top faces filled
whole, as they were once stored, and a few of them found by binary search,
instead of generated from the factors on read, a transfer-matrix power
by hand-written Python list products instead of numpy object arrays, the
period-p words found depth first, one letter at a time with an explicit
stack, instead of level by level, torus vertices from masks over the whole
grid instead of the search's words (one mask from the pair table on open
axes, checked against one from a double loop over letter pairs, each decided
by one metric call, ``gap_ok``, on full index grids), torus approximations validated
by the general cubical constructor (binary-search face lookup, per-cell action
images) instead of grown on the grid, colliding columns reduced with a
``max`` scan of the working column instead of a heap, coboundary lows read off
a transpose built by one stable sort, and by one ``maximum.at`` per face slot
over the whole face table, instead of block by block, the face identities
checked by two gathers per pair over the whole face table instead of one
gather per block of rows shared by every pair, the block-sum code, its
section and the section suites on windows of letter tuples through the exact
``Alphabet`` operations, with the needed input set spelled out index by index,
instead of letter indices in padded arrays, the section's trials drawn one by
one with ``randrange`` and walked on lists residue class by residue class, one
letter operation per step, instead of drawn by the inlined rejection loop and
evaluated for all trials at once as prefix sums, and the word complex, the
word texts, the pair embedding and the embedding suite on ``CyclicWord``
objects (each word shifted as an object and looked up in a dict, each text
written letter by letter, each image built from letter tuples and checked by
the clause oracle ``satisfies``, each orbit of suite 4.1 walked by
``orbit_decompose``) instead of the rows of the word array (one lexsort of the
rolled rows, one text per letter index, one index formula, one read of the bar
per distinct letter difference, the word complex's action check), and the word
action on rows as tuples, each rolled and looked up in a dict.
"""
from __future__ import annotations

import json
import operator
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from itertools import product
from math import factorial, prod
from types import SimpleNamespace

import numpy as np
import pytest

from zpindex import complexes
from zpindex.complexes import CubicalComplex, _row_keys
from zpindex.errors import ShapeError


def dense_rank_mod(rows: list[list[int]], ell: int) -> int:
    """Row-echelon rank over F_ell on a dense list-of-lists matrix."""
    rows = [[x % ell for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], ell - 2, ell)
        rows[r] = [(x * inv) % ell for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % ell for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def csc(b) -> SimpleNamespace:
    """A boundary as the CSC triple the oracles below read: column j holds
    row j of the complex's whole face table, with the dimension's signs."""
    signs = np.array(b.complex.face_signs[b.d], dtype=np.int64)
    indptr = np.arange(0, (b.n_cols + 1) * len(signs), len(signs), dtype=np.int32)
    return SimpleNamespace(n_rows=b.n_rows, n_cols=b.n_cols, indptr=indptr,
                           indices=b.complex.faces[b.d].reshape(-1), data=np.tile(signs, b.n_cols))


def dense_rank_np(b, ell: int) -> int:
    """Row-echelon rank over F_ell of a sparse boundary matrix, densified into
    numpy; the same elimination as ``dense_rank_mod``, one pivot row at a time."""
    m = np.zeros((b.n_rows, b.n_cols), dtype=np.int64)
    cols = np.repeat(np.arange(b.n_cols), np.diff(b.indptr))
    np.add.at(m, (b.indices, cols), b.data)
    m %= ell
    rank = 0
    for col in range(b.n_cols):
        nz = np.flatnonzero(m[rank:, col])
        if not nz.size:
            continue
        piv = rank + int(nz[0])
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), ell - 2, ell) % ell
        below = rank + 1 + np.flatnonzero(m[rank + 1 :, col])
        m[below] = (m[below] - m[below, col][:, None] * m[rank]) % ell
        rank += 1
        if rank == b.n_rows:
            break
    return rank


def column_reduction_rank(b, ell: int) -> int:
    """Left-to-right reduction of the boundary columns over F_ell, keeping one
    normalized pivot column per pivot row (lowest = largest row index); no
    clearing and no apparent pivots."""
    pivots: dict[int, list[tuple[int, int]]] = {}
    rank = 0
    ptr = b.indptr.tolist()
    idx = b.indices.tolist()
    dat = b.data.tolist()
    for j in range(b.n_cols):
        work: dict[int, int] = {}
        for t in range(ptr[j], ptr[j + 1]):
            v = dat[t] % ell
            if v:
                work[idx[t]] = v
        while work:
            low = max(work)
            piv = pivots.get(low)
            f = work.pop(low)
            if piv is None:
                inv = pow(f, ell - 2, ell)
                pivots[low] = [(r, v * inv % ell) for r, v in work.items()]
                rank += 1
                break
            for r, v in piv:
                nv = (work.get(r, 0) - f * v) % ell
                if nv:
                    work[r] = nv
                else:
                    work.pop(r, None)
    return rank


def reduce_colliding_by_max(colliding, owner, column, ell, counts) -> list[int]:
    """``homology._reduce_colliding`` with each low found by scanning the
    working column with ``max`` instead of reading a heap, and each apparent
    column normalized here from its raw entries ``column(a)``."""
    pivots: dict[int, list[tuple[int, int]]] = {}
    found: list[int] = []
    steps = 0

    def normalized(col, low):
        f = col.pop(low)
        inv = pow(f, ell - 2, ell)
        return [(r, v * inv % ell) for r, v in col.items()]

    for j in colliding.tolist():
        work = dict(zip(*column(j)))
        while work:
            low = max(work)
            piv = pivots.get(low)
            if piv is None:
                a = owner.pop(low, None)
                if a is not None:
                    piv = pivots[low] = normalized(dict(zip(*column(a))), low)
            if piv is None:
                pivots[low] = normalized(work, low)
                found.append(low)
                break
            f = work.pop(low)
            steps += 1
            for r, v in piv:
                nv = (work.get(r, 0) - f * v) % ell
                if nv:
                    work[r] = nv
                else:
                    work.pop(r, None)
    counts["steps"] = steps
    return found


def sorted_coboundary_lows(b) -> np.ndarray:
    """The low of each column of the coboundary b^T, or -1 when it is empty:
    the last entry of each column of the transpose built by one stable sort
    of the raveled face table by row."""
    faces = b.complex.faces[b.d]
    t_rows = np.argsort(faces, axis=None, kind="stable") // faces.shape[1]
    t_ptr = np.zeros(b.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(faces.reshape(-1), minlength=b.n_rows), out=t_ptr[1:])
    nonempty = t_ptr[1:] > t_ptr[:-1]
    lows = np.full(b.n_rows, -1, dtype=np.int64)
    lows[nonempty] = t_rows[t_ptr[1:][nonempty] - 1]
    return lows


def whole_table_lows(b) -> np.ndarray:
    """The coboundary lows by one ``maximum.at`` per face slot over the whole
    face table, with one int64 column id per column of b."""
    lows = np.full(b.n_rows, -1, dtype=np.int64)
    cols = np.arange(b.n_cols, dtype=np.int64)
    faces = b.complex.faces[b.d]
    for t in range(faces.shape[1]):
        np.maximum.at(lows, faces[:, t], cols)
    return lows


def gathered_boundary_square(c) -> None:
    """``CellComplex._check_boundary_square`` without blocks: the augmentation,
    the matching and the signs checked the same way, then each pair's two
    columns of faces of faces gathered over the whole face table, refusing at
    the first pair, in ``_face_pairs`` order, whose columns differ."""
    if 1 in c.faces and sum(c.face_signs[1]):
        raise ShapeError("augmentation composed with the edge boundary is nonzero")
    for d in range(2, c.dim + 1):
        top, low = c.faces[d], c.faces[d - 1]
        signs, low_signs = c.face_signs[d], c.face_signs[d - 1]
        pairs = c._face_pairs(d)
        covered = sorted(x for pair in pairs for x in pair)
        if covered != [(i, i2) for i in range(len(signs)) for i2 in range(len(low_signs))]:
            raise ShapeError(f"face-of-face pairing in dimension {d} is not a perfect matching")
        for (i, i2), (j, j2) in pairs:
            if signs[i] * low_signs[i2] != -signs[j] * low_signs[j2]:
                raise ShapeError(
                    f"boundary composition does not vanish between dimensions {d} and "
                    f"{d - 2}: faces ({i}, {i2}) and ({j}, {j2}) carry equal signs"
                )
        for (i, i2), (j, j2) in pairs:
            if not np.array_equal(low[top[:, i], i2], low[top[:, j], j2]):
                raise ShapeError(
                    f"boundary composition does not vanish between dimensions {d} and "
                    f"{d - 2}: face {i2} of face {i} differs from face {j2} of face {j}"
                )


def damaged_complex(c, faces=None, signs=None):
    """A copy of c whose face arrays and sign patterns are those of ``faces``
    and ``signs`` (dimension -> replacement) where given, and c's own
    elsewhere, assembled by ``_from_table``, which checks nothing: a
    validated complex's tables are read-only, so a damaged table is only
    ever a new complex's."""
    from zpindex import complexes

    faces, signs = faces or {}, signs or {}
    # the library class of c: a test's subclass may derive its action from the cells
    base = next(k for k in type(c).__mro__ if k.__module__ == complexes.__name__)

    class Damaged(base):
        def _face_signs(self, d):
            return signs[d] if d in signs else base._face_signs(self, d)

    attrs = {k: v for k, v in vars(c).items()
             if k in ("n_vertices", "labels", "join_factors", "q", "n_axes", "axis_map")}
    tables = {d: complexes._Stored(faces[d]) if d in faces else c.faces.table(d) for d in c.faces}
    return Damaged._from_table(c.p, {d: c.keys.table(d) for d in c.keys}, tables, c.action,
                               c._witness, **attrs)


def shape_error_text(check, *args) -> str | None:
    """The text of the ShapeError ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except ShapeError as e:
        return str(e)
    return None


COMPOSE_BLOCK = 1 << 16  # columns of the upper boundary expanded at once by the composition check


def composition_vanishes(lo, hi, ell: int) -> bool:
    """Does lo @ hi vanish mod ell?  Entries are expanded, grouped and summed,
    one block of hi columns at a time."""
    from zpindex.errors import ShapeError

    if hi.n_cols == 0 or lo.n_cols == 0:
        return True
    per_col = np.diff(lo.indptr)
    if np.any(per_col != per_col[0]):
        raise ShapeError("boundary columns of unequal width cannot be composition-checked")
    c1 = int(per_col[0])
    rows_mat = lo.indices.reshape(lo.n_cols, c1)
    vals_mat = lo.data.reshape(lo.n_cols, c1)
    hi_width = np.diff(hi.indptr)
    for j0 in range(0, hi.n_cols, COMPOSE_BLOCK):
        j1 = min(j0 + COMPOSE_BLOCK, hi.n_cols)
        s, e = int(hi.indptr[j0]), int(hi.indptr[j1])
        cols = np.repeat(np.arange(j1 - j0, dtype=np.int64), hi_width[j0:j1])
        mids = hi.indices[s:e]
        key = (cols[:, None] * lo.n_rows + rows_mat[mids]).reshape(-1)
        val = (hi.data[s:e].astype(np.int64)[:, None] * vals_mat[mids]).reshape(-1)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.concatenate([[0], np.nonzero(key[1:] != key[:-1])[0] + 1])
        if np.any(np.add.reduceat(val[order], starts) % ell):
            return False
    return True


def compositions_vanish(boundaries: list, ell: int) -> bool:
    """Do augmentation o boundary_1 and every boundary_d o boundary_{d+1}
    vanish mod ell?  The first by column sums, the rest by
    ``composition_vanishes``: products formed, not face identities."""
    if boundaries:
        b1 = boundaries[0]
        sums = np.zeros(b1.n_cols, dtype=np.int64)
        np.add.at(sums, np.repeat(np.arange(b1.n_cols), np.diff(b1.indptr)), b1.data)
        if np.any(sums % ell):
            return False
    return all(composition_vanishes(lo, hi, ell) for lo, hi in zip(boundaries, boundaries[1:]))


def csc_to_dense(b) -> list[list[int]]:
    """Densify one of the package's sparse boundary matrices (rows x cols)."""
    out = [[0] * b.n_cols for _ in range(b.n_rows)]
    for j in range(b.n_cols):
        for t in range(b.indptr[j], b.indptr[j + 1]):
            out[int(b.indices[t])][j] += int(b.data[t])
    return out


def dense_betti(complex_obj, ell: int) -> tuple[int, ...]:
    """Reduced Betti numbers recomputed by dense elimination on the package's
    boundary matrices (the matrices are shared; the elimination is not)."""
    from zpindex.homology import boundary_matrices

    cc = boundary_matrices(complex_obj, ell)
    ranks = [1 if cc.n_cells[0] else 0]
    for b in cc.boundaries:
        ranks.append(dense_rank_mod(csc_to_dense(csc(b)), ell))
    ranks.append(0)
    return tuple(
        cc.n_cells[d] - ranks[d] - ranks[d + 1] for d in range(len(cc.n_cells))
    )


def general_join(a, b):
    """The join of two simplicial complexes, validated from scratch: every
    pair of cells is spelled out as a vertex row and handed to the general
    ``SimplicialComplex`` constructor, which sorts the rows by key and finds
    faces, action images and the freeness witness by binary search."""
    from zpindex.complexes import SimplicialComplex, join_cell_count
    from zpindex.errors import ShapeError

    if a.p != b.p:
        raise ShapeError(f"cannot join complexes over different primes {a.p} and {b.p}")
    join_cell_count([a.total_cells(), b.total_cells()])
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    na = a.n_vertices
    cells: dict[int, list[np.ndarray]] = {}
    for d, arr in a.cells.items():
        cells.setdefault(d, []).append(arr)
    for d, arr in b.cells.items():
        cells.setdefault(d, []).append(arr + na)
    for da, arra in a.cells.items():
        for db, arrb in b.cells.items():
            d = da + db + 1
            left = np.repeat(arra, len(arrb), axis=0)
            right = np.tile(arrb + na, (len(arra), 1))
            cells.setdefault(d, []).append(np.hstack([left, right]))
    merged = {
        d: np.vstack(parts) if len(parts) > 1 else parts[0] for d, parts in cells.items()
    }
    if a.action is None or b.action is None:
        action = None
    else:
        action = np.concatenate([a.action, b.action + na])
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = a.labels + b.labels
    jf = None
    if a.join_factors is not None and b.join_factors is not None:
        jf = a.join_factors + b.join_factors
    return SimplicialComplex(
        na + b.n_vertices, merged, action, a.p, labels=labels, join_factors=jf
    )


def _popcount(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    v = x.copy()
    while np.any(v):
        out += v & 1
        v >>= 1
    return out


class GeneralCubicalComplex(CubicalComplex):
    """A cubical complex validated from given rows: keys sorted, every face
    found by binary search among the keys, the action checked by looking up
    every cell's image, and the freeness witness found there."""

    def __init__(self, q, n_axes, cells, axis_map, p):
        self.q = int(q)
        self.n_axes = int(n_axes)
        self._set_order(p)
        if self.q < 3:
            raise ShapeError("grid needs q >= 3 so cell corners stay distinct")
        self.axis_map = np.asarray(axis_map, dtype=np.int64).reshape(-1)
        D = self.n_axes
        norm: dict[int, np.ndarray] = {}
        for d, arr in cells.items():
            a = np.asarray(arr, dtype=np.int32).reshape(-1, D + 1)
            if len(a) == 0:
                continue
            base, mask = a[:, :D], a[:, D].astype(np.int64)
            if base.min() < 0 or base.max() >= self.q:
                raise ShapeError("cell base corner outside the grid")
            if mask.min() < 0 or mask.max() >= 1 << D:
                raise ShapeError(f"cell mask outside 0..2^{D}-1")
            if np.any(_popcount(mask) != d):
                raise ShapeError(f"mask popcount does not match dimension {d}")
            norm[d] = a
        rows = self._set_cells(norm)
        self._check_order(self.axis_map, self.n_axes, "axis_map", "axes")
        self._finish(rows, True)

    def _action_rows(self, rows):
        D = self.n_axes
        mask = rows[:, D].astype(np.int64)
        new_mask = np.zeros_like(mask)
        for t in range(D):
            new_mask |= ((mask >> int(self.axis_map[t])) & 1) << t
        out = np.empty_like(rows)
        out[:, :D] = rows[:, :D][:, self.axis_map]
        out[:, D] = new_mask
        return out

    def _face_rows(self, d, rows, i):
        """Drop the (i // 2)-th set mask bit; even i steps the base across it."""
        D = self.n_axes
        mask = rows[:, D].astype(np.int64)
        bits = (mask[:, None] >> np.arange(D)) & 1
        axis = np.argmax(np.cumsum(bits, axis=1) == i // 2 + 1, axis=1)
        face = rows.copy()
        face[:, D] = mask & ~(1 << axis)
        if i % 2 == 0:
            r = np.arange(len(rows))
            face[r, axis] = (face[r, axis] + 1) % self.q
        return face

    @property
    def action(self):
        """The vertex permutation, each image looked up among the vertex keys."""
        img = self._action_rows(self.cells[0])
        return self.keys.table(0).search(_row_keys(img, self._radices(0)))


# grid points the oracle's vertex mask may cover: Z p=5 q=16 (2^20) fits
ORACLE_GRID_POINTS = 1 << 24


def grid_vertex_mask(spec) -> np.ndarray:
    """Boolean grid over (q,)*n_axes marking vertices that satisfy the family,
    checked against ``loop_vertex_mask``.

    Slot j's letter index is its n circle coordinates read in radix q, formed
    on open axes (one arange per axis) that broadcast.  The grid is the AND,
    over the subshift's clauses on the p slots, of the OR of the pair table
    read at each clause pair's two slot indices.
    """
    q, p, n, D = spec.q, spec.p, spec.n_circles, spec.n_axes
    assert q**D <= ORACLE_GRID_POINTS, f"{q}^{D} grid points are too many for the oracle"
    sub = spec.subshift()
    table = sub.pair_table
    axes = [np.arange(q).reshape((q,) + (1,) * (D - 1 - a)) for a in range(D)]
    letters = []
    for j in range(p):
        li = 0
        for t in range(n):
            li = li * q + axes[j * n + t]
        letters.append(li)
    ok = np.ones((q,) * D, dtype=bool)
    for clause in sub.clauses(p):
        ok &= reduce(operator.or_, (table[letters[a], letters[b]] for a, b in clause))
    assert_same_mask(ok, loop_vertex_mask(spec))
    return ok


def general_approx(spec, cell_cap=None):
    """The torus approximation through the general cubical constructor: every
    mask's cells listed by ``argwhere`` on the rolled grid vertex mask, then
    validated from scratch."""
    from zpindex import torusgrid
    from zpindex.errors import ResourceCapError

    cap = torusgrid.DEFAULT_CELL_CAP if cell_cap is None else cell_cap
    D, q = spec.n_axes, spec.q
    vertex_ok = grid_vertex_mask(spec)
    total = 0
    cells: dict[int, list[np.ndarray]] = {}
    for mask in range(1 << D):
        ok = vertex_ok
        for d in range(D):
            if mask >> d & 1:
                ok = ok & np.roll(ok, -1, axis=d)
        count = int(ok.sum())
        if count == 0:
            continue
        total += count
        if total > cap:
            raise ResourceCapError(f"more than {cap} cells")
        bases = np.argwhere(ok).astype(np.int32)
        rows = np.hstack([bases, np.full((count, 1), mask, dtype=np.int32)])
        cells.setdefault(bin(mask).count("1"), []).append(rows)
    merged = {
        d: np.vstack(parts) if len(parts) > 1 else parts[0] for d, parts in cells.items()
    }
    axis_map = [(t + spec.n_circles) % D for t in range(D)]
    return GeneralCubicalComplex(q, D, merged, axis_map, spec.p)


def assert_same_complex(x, y) -> None:
    """Two complexes of one kind agree byte for byte: cells, keys, faces and
    their dtypes, sign patterns, action, witness, and for simplicial complexes
    labels and factor sizes, for cubical ones the grid and the axis map."""
    if hasattr(y, "axis_map"):
        fields = ("p", "q", "n_axes", "n_vertices")
        assert np.array_equal(x.axis_map, y.axis_map)
    else:
        fields = ("p", "n_vertices", "labels", "join_factors")
    assert [getattr(x, f) for f in fields] == [getattr(y, f) for f in fields]
    for table in ("cells", "keys", "faces"):
        xs, ys = getattr(x, table), getattr(y, table)
        assert list(xs) == list(ys), table
        for d in xs:
            assert xs[d].dtype == ys[d].dtype and xs[d].shape == ys[d].shape, (table, d)
            assert np.array_equal(xs[d], ys[d]), (table, d)
            assert not xs[d].flags.writeable, (table, d)
    assert x.face_signs == y.face_signs
    if not x.cells:  # the oracle's cubical action reads the vertex table, which is absent
        assert x.action is None or len(x.action) == 0
        assert x.free_witness() is None
    elif y.action is None:
        assert x.action is None
    else:
        assert x.action.dtype == y.action.dtype and np.array_equal(x.action, y.action)
        assert not x.action.flags.writeable
        assert x.free_witness() == y.free_witness()


def projective_plane_6(p: int):
    """The 6-vertex real projective plane, with no action."""
    from zpindex.complexes import SimplicialComplex

    return SimplicialComplex.from_maximal(
        6, [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
            (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)], None, p)


def torus_7(p: int):
    """The 7-vertex torus, with no action."""
    from zpindex.complexes import SimplicialComplex

    return SimplicialComplex.from_maximal(
        7, [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
        + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)], None, p)


# -- independent word-level predicates -----------------------------------------


def grid_dist(q: int, a: int, b: int) -> Fraction:
    d = abs(a - b) % q
    return Fraction(2 * min(d, q - d), q)


def brute_sigma_words(m: int, L: int) -> list[tuple[int, ...]]:
    """All ternary period-L words with letters m! apart distinct (plain scan)."""
    step = factorial(m)
    return [
        w
        for w in product(range(3), repeat=L)
        if all(w[i] != w[(i + step) % L] for i in range(L))
    ]


def brute_z_words(q: int, L: int, bar: Fraction = Fraction(1, 2), exact: bool = False):
    """Period-L words on the q-point circle with, at every index, one adjacent
    gap at least the bar (the Z family), or exactly the bar when ``exact``
    (the Y family with bar 1)."""

    def meets(d: Fraction) -> bool:
        return d == bar if exact else d >= bar

    out = []
    for w in product(range(q), repeat=L):
        if all(
            meets(grid_dist(q, w[(n - 1) % L], w[n])) or meets(grid_dist(q, w[n], w[(n + 1) % L]))
            for n in range(L)
        ):
            out.append(w)
    return out


def brute_separated_words(q: int, L: int, step: int, delta: Fraction) -> list[tuple[int, ...]]:
    return [
        w
        for w in product(range(q), repeat=L)
        if all(grid_dist(q, w[i], w[(i + step) % L]) >= delta for i in range(L))
    ]


def depth_first_search(table, order, clauses) -> tuple[list[tuple[int, ...]], int]:
    """The words passing every clause and the nodes it took, by backtracking
    over letter indices with an explicit stack (the next letter to try at each
    depth): depth i sets position order[i], each distinct clause is checked at
    the depth that sets the last of its positions, and every letter tried is
    one node."""
    ok = table.tolist()
    L = len(order)
    depth = [0] * L
    for i, n in enumerate(order):
        depth[n] = i
    checks_at = [[] for _ in range(L)]
    seen = set()
    for clause in clauses:
        key = frozenset(frozenset(pair) for pair in clause)
        if key not in seen:
            seen.add(key)
            checks_at[max(depth[n] for pair in clause for n in pair)].append(clause)
    n_letters = len(ok)
    out = []
    word = [0] * L
    nxt = [0] * L
    nodes = 0
    i = 0
    while i >= 0:
        if i == L:
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
        word[order[i]] = u
        for clause in checks_at[i]:
            for a, b in clause:
                if ok[word[a]][word[b]]:
                    break
            else:
                break  # no pair of this clause meets the bar
        else:
            i += 1
    return out, nodes


# -- transfer-matrix counts and torus vertex masks -----------------------------


def int_matrix_trace_power(a: list[list[int]], k: int) -> int:
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


def gap_ok(spec, a, b) -> bool:
    """Do letters a and b meet the family's bar of ``spec``?  One call of
    ``Alphabet.metric`` on the pair itself, with no letter difference and no
    ``DistanceBar``."""
    return spec._meets_bar(spec.alphabet.metric(a, b))


def loop_vertex_mask(spec) -> np.ndarray:
    """Boolean grid over (q,)*n_axes marking vertices that satisfy the family."""
    from zpindex.shiftspaces import Separation

    q, p, n = spec.q, spec.p, spec.n_circles
    alpha = spec.letter_alphabet()
    sub = spec.subshift()
    R = alpha.order
    elements = alpha.all_elements()
    table = np.zeros((R, R), dtype=bool)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = gap_ok(sub, a, b)

    idx = np.indices((q,) * spec.n_axes)
    letters = []
    for j in range(p):
        li = np.zeros((q,) * spec.n_axes, dtype=np.int64)
        for t in range(n):
            li = li * q + idx[j * n + t]
        letters.append(li)
    edges = [table[letters[j], letters[(j + 1) % p]] for j in range(p)]
    if isinstance(spec.family, Separation):
        ok = edges[0].copy()
        for e in edges[1:]:
            ok &= e
    else:
        ok = edges[-1] | edges[0]
        for j in range(1, p):
            ok &= edges[j - 1] | edges[j]
    return ok


# -- the block-sum code and its section on windows of letter tuples ------------


def tuple_block_sum_step(m: int, w):
    """One step of the forward code: output at k sums inputs k + i*(m-1)! for i < m."""
    from zpindex.errors import NeededRangeError, ShapeError
    from zpindex.seqmaps import Window

    if m < 2:
        raise ShapeError(f"block-sum step needs m >= 2, got {m}")
    gap = factorial(m - 1)
    span = (m - 1) * gap
    out_len = len(w) - span
    if out_len <= 0:
        needed = (w.start, w.start + span)
        missing = tuple(range(w.stop, w.start + span + 1))
        raise NeededRangeError(
            f"window [{w.start}, {w.stop}) too short: output at {w.start} needs inputs "
            f"{needed[0]}..{needed[1]}; missing {missing[0]}..{missing[-1]}",
            needed=needed,
            missing=missing,
        )
    alpha = w.alphabet
    out = []
    for k in range(w.start, w.start + out_len):
        acc = alpha.identity
        for i in range(m):
            acc = alpha.add(acc, w[k + i * gap])
        out.append(acc)
    return Window(alpha, w.start, tuple(out))


def needed_x_indices(m: int, k: int) -> set[int]:
    """Absolute input indices the section's case formula reads to produce output k."""
    gap = factorial(m - 1)
    block = factorial(m)
    head = (m - 1) * gap  # anchor-only prefix of the base block
    if 0 <= k < head:
        return set()
    if head <= k < block:
        return {k - head}
    n, j = divmod(k, block)
    if n > 0:
        idx = {i * block + j for i in range(n)} | {i * block + gap + j for i in range(n)}
    else:
        idx = {i * block + j for i in range(n, 0)} | {i * block + gap + j for i in range(n, 0)}
    return idx | needed_x_indices(m, j)


def tuple_section_input_range(m: int, lo: int, hi: int):
    """Minimal absolute input range needed to produce every output in [lo, hi]."""
    from zpindex.errors import ShapeError

    if m < 2:
        raise ShapeError(f"section needs m >= 2, got {m}")
    if lo > hi:
        raise ShapeError(f"empty requested range [{lo}, {hi}]")
    needed: set[int] = set()
    for k in range(lo, hi + 1):
        needed |= needed_x_indices(m, k)
    if not needed:
        return None
    return (min(needed), max(needed))


def tuple_section_apply(m: int, anchor, x, lo: int, hi: int):
    """Evaluate the section of the level-(m-1) -> level-m code on [lo, hi]."""
    from zpindex.errors import NeededRangeError, ShapeError
    from zpindex.seqmaps import Window

    if m < 2:
        raise ShapeError(f"section needs m >= 2, got {m}")
    if lo > hi:
        raise ShapeError(f"empty requested range [{lo}, {hi}]")
    alpha = x.alphabet
    needed = set()
    for k in range(lo, hi + 1):
        needed |= needed_x_indices(m, k)
    missing = tuple(sorted(i for i in needed if not x.start <= i < x.stop))
    if missing:
        raise NeededRangeError(
            f"section input window [{x.start}, {x.stop}) is missing indices {missing}",
            needed=(min(needed), max(needed)),
            missing=missing,
        )

    gap = factorial(m - 1)
    block = factorial(m)
    head = (m - 1) * gap
    base: dict = {}

    def y_base(j: int):
        if j in base:
            return base[j]
        if j < head:
            v = anchor.letter(alpha, j)
        else:
            v = x[j - head]
            for i in range(1, m):
                v = alpha.sub(v, anchor.letter(alpha, j - i * gap))
        base[j] = v
        return v

    def y_at(k: int):
        n, j = divmod(k, block)
        if n == 0:
            return y_base(j)
        acc = y_base(j)
        if n > 0:
            for i in range(n):
                acc = alpha.add(acc, alpha.sub(x[i * block + gap + j], x[i * block + j]))
        else:
            for i in range(n, 0):
                acc = alpha.add(acc, alpha.sub(x[i * block + j], x[i * block + gap + j]))
        return acc

    return Window(alpha, lo, tuple(y_at(k) for k in range(lo, hi + 1)))


def tuple_separation_violations(w, step: int, delta: Fraction) -> list[int]:
    """Indices k with both ends visible where dist(x_k, x_{k+step}) < delta."""
    bad = []
    for k in range(w.start, w.stop - step):
        if w.alphabet.metric(w[k], w[k + step]) < delta:
            bad.append(k)
    return bad


def tuple_separated_window(rng, alphabet, delta: Fraction, gap: int, lo: int, hi: int):
    """A window on [lo, hi] whose letters at distance `gap` are delta-separated."""
    from zpindex.seqmaps import Window

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


def tuple_section_suite(lemma: str, m: int, alphabet, delta: Fraction, trials: int, seed: int) -> dict:
    """The ``to_json()`` of verify suite 3.1 or 3.2, rerun trial by trial on
    letter tuples with the same random stream: the output range, the
    separated window, the anchor seed, the section and the final check."""
    import random

    from zpindex.seqmaps import AnchorSeq

    block, gap = factorial(m), factorial(m - 1)
    extend = block if lemma == "3.1" else (m - 1) * gap
    rng = random.Random(seed)
    failures, first = 0, None
    for t in range(trials):
        lo = rng.randrange(-2 * block, block)
        hi = lo + rng.randrange(1, 3 * block + 1)
        nlo, nhi = tuple_section_input_range(m, lo, hi + extend) or (0, 0)
        x = tuple_separated_window(rng, alphabet, delta, gap, nlo, nhi)
        anchor_seed = rng.randrange(10**9)
        anchor = AnchorSeq(lambda k: alphabet.unindex(
            random.Random(f"{anchor_seed}|{k}").randrange(alphabet.order)))
        y = tuple_section_apply(m, anchor, x, lo, hi + extend)
        if lemma == "3.1":
            v = tuple_separation_violations(y, block, delta)
            bad = {"first_bad_pair": [v[0], v[0] + block]} if v else None
        else:
            back = tuple_block_sum_step(m, y)
            v = [k for k in range(lo, hi + 1) if back[k] != x[k]]
            bad = {"first_bad_index": v[0]} if v else None
        if bad is not None:
            failures += 1
            if first is None:
                first = {"trial": t, "m": m, "alphabet": alphabet.token(),
                         "anchor_seed": anchor_seed, "window": [list(e) for e in x.letters],
                         "offset": x.offset, **bad}
    doc = {"lemma": lemma, "passed": failures == 0, "trials": trials, "failures": failures,
           "details": {"m": m, "alphabet": alphabet.token(), "seed": seed}}
    if first is not None:
        doc["first_counterexample"] = first
    return doc


def assert_same_mask(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


@pytest.fixture(autouse=True, scope="session")
def every_word_array_matches_the_depth_first_search():
    """Every search any test runs to the end, through the library, the CLI or a
    demo, must find the depth-first search's words, in the same order and
    type, and finish exactly at its node count: with that many nodes as the
    cap, and not with one fewer."""
    from zpindex import shiftspaces
    from zpindex.errors import ResourceCapError

    fast = shiftspaces._search

    def checked(table, order, clauses, cap):
        got = fast(table, order, clauses, cap)
        want, nodes = depth_first_search(table, order, clauses)
        assert got.dtype == (np.uint8 if len(table) <= 256 else np.int16)
        assert got.shape == (len(want), len(order)) and got.tolist() == sorted(map(list, want))
        assert nodes <= cap
        assert np.array_equal(fast(table, order, clauses, nodes), got)
        with pytest.raises(ResourceCapError, match=rf"node cap \({nodes - 1}\)"):
            fast(table, order, clauses, nodes - 1)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shiftspaces, "_search", checked)
        yield


@pytest.fixture(autouse=True, scope="session")
def every_colliding_reduction_matches_the_max_scan():
    """Every reduction of colliding columns any test runs must find the same
    pivot rows, in the same order and in as many steps, as the ``max`` scan.
    The owners arrive as an int32 array indexed by low, one past the largest
    low of the apparent and colliding columns; the scan reads them as a dict
    {low: column}."""
    from zpindex import homology

    fast = homology._reduce_colliding

    def checked(colliding, owner, column, ell, counts):
        assert isinstance(owner, np.ndarray) and owner.dtype == np.int32 and owner.ndim == 1
        by_low = {low: col for low, col in enumerate(owner.tolist()) if col >= 0}
        assert len(owner) == 1 + max([*by_low, *(max(column(j)[0]) for j in colliding.tolist())])
        want_counts: dict[str, int] = {}
        want = reduce_colliding_by_max(colliding, by_low, column, ell, want_counts)
        got = fast(colliding, owner, column, ell, counts)
        assert got == want and counts["steps"] == want_counts["steps"]
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_reduce_colliding", checked)
        yield


@pytest.fixture(autouse=True, scope="session")
def every_coboundary_low_matches_the_sort():
    """Every coboundary's lows any test reads must equal those of the
    transpose built by sorting, and those of the whole-table ``maximum.at``,
    value for value, and be int32, as the boundary lows are."""
    from zpindex import homology

    fast = homology._coboundary_lows

    def checked(b):
        got = fast(b)
        assert got.dtype == np.int32
        for want in (sorted_coboundary_lows(b), whole_table_lows(b)):
            assert np.array_equal(got, want)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_coboundary_lows", checked)
        yield


@pytest.fixture(autouse=True, scope="session")
def every_boundary_low_matches_the_row_max():
    """Every boundary's lows any test reads must equal the row-wise max of its
    face table, value for value, and be int32, the rank engine's candidate
    width, whether the face table is uint16 or int32."""
    from zpindex import homology

    fast = homology._boundary_lows

    def checked(b):
        got = fast(b)
        want = b.complex.faces[b.d].max(axis=1)
        assert got.dtype == np.int32 and np.array_equal(got, want)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_boundary_lows", checked)
        yield


@pytest.fixture(autouse=True, scope="session")
def every_boundary_square_check_matches_the_whole_table_gathers():
    """Every composition check by face identities any test runs must pass or
    refuse as the gathers over the whole face table do, with the same text."""
    from zpindex.complexes import CellComplex

    fast = CellComplex._check_boundary_square

    def checked(self):
        want = shape_error_text(gathered_boundary_square, self)
        try:
            fast(self)
        except ShapeError as e:
            assert str(e) == want
            raise
        assert want is None

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CellComplex, "_check_boundary_square", checked)
        yield


def key_width(bound: int) -> np.dtype:
    """The width keys below ``bound`` are held in: int32 up to 2^31, else int64."""
    return np.dtype(np.int32 if bound <= 1 << 31 else np.int64)


def assert_key_widths(c) -> None:
    """Each key table of c has the width of its bound, the product of its
    radices; a join's generated top keys have theirs, and the factors' keys
    they are formed from have their own (outer below bound // scale, inner
    below scale).  No key is read, so no generated table is formed."""
    for d in c.keys:
        bound, table = prod(c._radices(d)), c.keys.table(d)
        assert table.dtype == key_width(bound), (d, bound, table.dtype)
        if isinstance(table, complexes._JoinTop):
            assert table.outer.dtype == key_width(bound // table.scale), d
            assert table.inner.dtype == key_width(table.scale), d


@pytest.fixture(autouse=True, scope="session")
def every_complex_holds_its_keys_in_the_width_of_their_bound():
    """Every complex any test builds, validated from rows (``_set_cells``) or
    from tables known to be valid (``_from_table``: joins and torus
    approximations), must hold each key table in the width its bound gives."""
    from zpindex.complexes import CellComplex

    set_cells, from_table = CellComplex._set_cells, CellComplex._from_table.__func__

    def checked_set_cells(self, cells):
        rows = set_cells(self, cells)
        assert_key_widths(self)
        return rows

    def checked_from_table(cls, *args, **kwargs):
        c = from_table(cls, *args, **kwargs)
        assert_key_widths(c)
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CellComplex, "_set_cells", checked_set_cells)
        mp.setattr(CellComplex, "_from_table", classmethod(checked_from_table))
        yield


def face_width(n_below: int) -> np.dtype:
    """The width faces into a dimension of ``n_below`` cells are held in:
    uint16 up to 2^16 cells, else int32."""
    return np.dtype(np.uint16 if n_below <= 1 << 16 else np.int32)


def assert_face_widths(c) -> None:
    """Each face table of c has the width of the dimension below it; a join's
    generated top faces have it, and so do the positions in that dimension
    they are gathered from, (n_sigma, n_tau) arrays, while the factors' top
    faces index those positions' rows and columns, in the widths of those
    counts (a vertex's one face, the empty cell, is uint16).  No face is
    read, so no generated table is formed."""
    for d in c.faces:
        below, table = c.n_cells(d - 1), c.faces.table(d)
        assert table.dtype == face_width(below), (d, below, table.dtype)
        if isinstance(table, complexes._JoinFaces):
            assert table.left.dtype == table.right.dtype == face_width(below), d
            assert table.fa.dtype == face_width(len(table.left)), d
            assert table.fb.dtype == face_width(table.right.shape[1]), d


@pytest.fixture(autouse=True, scope="session")
def every_complex_holds_its_faces_in_the_width_of_their_bound():
    """Every complex any test builds, with its faces found by closure
    (``_find_faces``: word complexes and general simplicial and cubical
    complexes) or given as tables known to be valid (``_from_table``: joins
    and grown cubical complexes), must hold each face table in the width
    the cell count of the dimension below gives."""
    from zpindex.complexes import CellComplex

    find_faces, from_table = CellComplex._find_faces, CellComplex._from_table.__func__

    def checked_find_faces(self, rows):
        find_faces(self, rows)
        assert_face_widths(self)

    def checked_from_table(cls, *args, **kwargs):
        c = from_table(cls, *args, **kwargs)
        assert_face_widths(c)
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CellComplex, "_find_faces", checked_find_faces)
        mp.setattr(CellComplex, "_from_table", classmethod(checked_from_table))
        yield


def held_arrays(obj):
    """Every numpy array reachable from obj through the slots of cell tables
    and their mappings, and through mappings, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (complexes._Tables, complexes._Table)):
        for cls in type(obj).__mro__:
            for name in getattr(cls, "__slots__", ()):
                yield from held_arrays(getattr(obj, name))
    elif isinstance(obj, Mapping):
        for v in obj.values():
            yield from held_arrays(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from held_arrays(v)


def _replace_everywhere(mp, fast, checked) -> None:
    """Bind ``checked`` to every name bound to ``fast`` in a loaded package or
    test module: modules that import a function bind their own name to it."""
    import sys

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith(("zpindex", "test_")):
            for name, value in list(vars(mod).items()):
                if value is fast:
                    mp.setattr(mod, name, checked)


@pytest.fixture(autouse=True, scope="session")
def every_approximation_matches_the_general_constructor():
    """Every torus approximation any test builds, through the library, the CLI
    or a demo, must equal the general constructor's byte for byte."""
    from zpindex import torusgrid

    fast = torusgrid.build_approx

    def checked(spec, cell_cap=None):
        got = fast(spec, cell_cap=cell_cap)
        assert_same_complex(got, general_approx(spec, cell_cap))
        return got

    with pytest.MonkeyPatch.context() as mp:
        _replace_everywhere(mp, fast, checked)
        yield


def stored_top_faces(table) -> np.ndarray:
    """A join's generated top faces as ``join_complex`` stored them: the whole
    table at once, one (n_sigma, n_tau) gather of the positions per face slot."""
    fa, fb = table.fa, table.fb
    face = np.empty((len(fa), len(fb), fa.shape[1] + fb.shape[1]), dtype=table.left.dtype)
    for i in range(fa.shape[1]):  # (d_i sigma, tau)
        face[:, :, i] = table.left[fa[:, i]]
    for j in range(fb.shape[1]):  # (sigma, d_j tau)
        face[:, :, fa.shape[1] + j] = table.right[:, fb[:, j]]
    return face.reshape(len(table), -1)


def searched_top_faces(c, at) -> np.ndarray:
    """The faces of a join's top cells at the indices ``at``, found as
    validation finds them: each cell's key formed from its factors' keys by
    hand, its row decoded, and the row without one vertex looked up among the
    keys below by binary search."""
    d, top, below = c.dim, c.keys.table(c.dim), c.keys.table(c.dim - 1)
    i, j = np.divmod(at, len(top.inner))
    keys = top.outer.take()[i].astype(np.int64) * top.scale + top.inner.take()[j]
    rows = complexes._key_rows(keys, c._radices(d))
    return np.stack([below.search(_row_keys(np.delete(rows, k, axis=1), c._radices(d - 1)))
                     for k in range(d + 1)], axis=1)


@pytest.fixture(autouse=True, scope="session")
def every_generated_top_face_matches_the_stored_fill():
    """Every join any test builds, through the library, the CLI or a demo, must
    generate its top faces as the stored fill has them, read-only and in its
    width: the whole table, a few rows at once and one at a time (those also
    found again by binary search among the keys below), and the blocks of the
    widths the lows and the face-identity check ask for, concatenated."""
    fast = complexes.join_complex

    def checked(a, b):
        got = fast(a, b)
        table = got.faces.table(got.dim) if got.dim > 0 else None
        if isinstance(table, complexes._JoinFaces):
            want, whole = stored_top_faces(table), table.take()
            assert whole.dtype == want.dtype and not whole.flags.writeable
            assert np.array_equal(whole, want)
            at = np.random.default_rng(len(table)).integers(0, len(table), size=16)
            assert np.array_equal(table.take(at), want[at])
            assert np.array_equal(searched_top_faces(got, at), want[at])
            for j in at[:4].tolist():
                row = table.take(j)
                assert row.dtype == want.dtype and np.array_equal(row, want[j])
            k = want.shape[1]
            for width in (k, k * (k - 1)):
                starts, blocks = zip(*table.blocks(width))
                assert list(starts) == np.cumsum([0, *map(len, blocks[:-1])]).tolist()
                assert all(b.dtype == want.dtype and not b.flags.writeable for b in blocks)
                assert np.array_equal(np.concatenate(blocks), want)
        return got

    with pytest.MonkeyPatch.context() as mp:
        _replace_everywhere(mp, fast, checked)
        yield


# -- period-p words as cyclic word objects -------------------------------------


_WORD_RE = re.compile(r"^(?P<alpha>.*):\[(?P<body>.*)\]$")


def parse_word(text: str):
    """Inverse of CyclicWord.text, e.g. "Z3:[0,1,2]" or "S^2:q=8:[[0,4],[4,0]]"."""
    from zpindex.alphabets import parse_alphabet
    from zpindex.shiftspaces import CyclicWord

    m = _WORD_RE.match(text.strip())
    if not m:
        raise ShapeError(f"unrecognized word text: {text!r}")
    alphabet = parse_alphabet(m.group("alpha"))
    body = json.loads("[" + m.group("body") + "]")
    return CyclicWord(alphabet, tuple(alphabet.element(x) for x in body))


def satisfies(spec, w) -> bool:
    """The clause oracle: does every clause of ``spec.clauses`` hold on the
    cyclic word?  Each pair is one read of ``spec.bar`` at its letter
    difference; no table is built, so no cap applies."""
    if w.alphabet != spec.alphabet:
        raise ShapeError("word alphabet does not match the spec alphabet")
    x = [spec.alphabet.index(e) for e in w.letters]
    diff, bar = spec.alphabet.digitwise, spec.bar
    return all(any(bar[diff(operator.sub, x[a], x[b])] for a, b in c)
               for c in spec.clauses(w.period))


def cyclic_word_complex(words, p: int):
    """A shift-closed list of period-p ``CyclicWord``s as a discrete complex
    with the shift action, vertices in list order: each word shifted as an
    object and looked up in a dict, each label its ``text()``."""
    from zpindex.complexes import SimplicialComplex

    pos = {w: i for i, w in enumerate(words)}
    action = [pos[w.shift(1)] for w in words]
    return SimplicialComplex.discrete(len(words), action, p, labels=[w.text() for w in words])


def tuple_word_action(words) -> list[int]:
    """The shift action on the rows of a word array as tuples: each row rolled
    once and looked up in a dict."""
    rows = [tuple(r) for r in words.tolist()]
    pos = {r: i for i, r in enumerate(rows)}
    return [pos[r[1:] + r[:1]] for r in rows]


def tuple_pair_embed_cyclic(word):
    """The pair stencil on a cyclic word by letter tuples: letter k of the
    image is x_k followed by x_{k+1}, the successor read cyclically."""
    from zpindex.alphabets import product_alphabet
    from zpindex.shiftspaces import CyclicWord

    L = word.period
    letters = tuple(word.letters[i] + word.letters[(i + 1) % L] for i in range(L))
    return CyclicWord(product_alphabet(word.alphabet, word.alphabet), letters)


def cyclic_pair_embedding(p: int, q: int) -> dict:
    """The ``to_json()`` of verify suite embed-1.5, rerun word by word on
    ``CyclicWord``s: the tuple stencil, ``satisfies`` on each image, and the
    image of the shifted word against the shifted image."""
    from zpindex.alphabets import circle_grid, product_alphabet
    from zpindex.coindex import IndexReport, MapEvidence, coindex_transport, exact_index_finite_free
    from zpindex.shiftspaces import Separation, SubshiftSpec, neighbor_gap_shift

    circle = circle_grid(q)
    target = SubshiftSpec(product_alphabet(circle, circle), Separation(1, Fraction(1, 2)))
    words = neighbor_gap_shift(circle, Fraction(1, 2)).enumerate_periodic(p)
    failures, first = 0, None
    for w in words:
        img = tuple_pair_embed_cyclic(w)
        ok_pred = satisfies(target, img)
        ok_eq = tuple_pair_embed_cyclic(w.shift(1)) == img.shift(1)
        if not (ok_pred and ok_eq):
            failures += 1
            if first is None:
                first = {"word": w.text(), "predicate": ok_pred, "equivariant": ok_eq}
    transported = None
    if words:
        src = exact_index_finite_free(cyclic_word_complex(words, p))
        transported = coindex_transport(
            MapEvidence.pair_embedding(), src, IndexReport.nonempty_free(p)).coind_lower
    doc = {"lemma": "embed-1.5", "passed": failures == 0, "trials": len(words),
           "failures": failures,
           "details": {"p": p, "q": q, "words": len(words), "transported_coind_lower": transported}}
    if first is not None:
        doc["first_counterexample"] = first
    return doc


def cyclic_periodic_finite(m: int, p: int) -> dict:
    """The ``to_json()`` of verify suite 4.1 on ``CyclicWord``s: the fixed
    points and the period-p words enumerated as objects, and freeness from
    their orbits walked by ``orbit_decompose``."""
    from zpindex.shiftspaces import mismatch_shift, orbit_decompose

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
    doc = {"lemma": "4.1", "passed": not failures, "trials": 3, "failures": len(failures),
           "details": {"m": m, "p": p, "period_p_points": len(words)}}
    if failures:
        doc["first_counterexample"] = failures[0]
    return doc


@pytest.fixture(autouse=True, scope="session")
def every_word_complex_matches_the_cyclic_words():
    """Every word complex any test builds, through the library, the CLI or a
    demo, must equal the one built from the rows as ``CyclicWord``s byte for
    byte, labels included; every word action, labelled complex or not, must be
    the one of the rows as tuples."""
    from zpindex import shiftspaces
    from zpindex.shiftspaces import CyclicWord

    fast, fast_action = shiftspaces._word_complex, shiftspaces._word_action

    def checked_action(words):
        got = fast_action(words)
        assert got.dtype == np.int64 and got.tolist() == tuple_word_action(words)
        return got

    def checked(words, alphabet, p):
        got = fast(words, alphabet, p)
        cyclic = [CyclicWord(alphabet, tuple(map(alphabet.unindex, row))) for row in words.tolist()]
        assert_same_complex(got, cyclic_word_complex(cyclic, p))
        return got

    with pytest.MonkeyPatch.context() as mp:
        _replace_everywhere(mp, fast, checked)
        _replace_everywhere(mp, fast_action, checked_action)
        yield


@pytest.fixture(autouse=True, scope="session")
def every_word_text_matches_the_cyclic_words():
    """Every word text any test writes from letter-index rows, through the
    library, the CLI or a demo, must be the ``text()`` of its row as a
    ``CyclicWord``."""
    from zpindex.alphabets import Alphabet
    from zpindex.shiftspaces import CyclicWord

    fast = Alphabet.word_texts

    def checked(self, words):
        got = fast(self, words)
        assert got == [CyclicWord(self, tuple(map(self.unindex, row))).text() for row in words.tolist()]
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Alphabet, "word_texts", checked)
        yield


# -- the section suites trial by trial on letter indices ------------------------


def letter_add(alphabet, a: int, b: int) -> int:
    """Index of the sum of letters a and b, through the tuple API."""
    return alphabet.index(alphabet.add(alphabet.unindex(a), alphabet.unindex(b)))


def letter_sub(alphabet, a: int, b: int) -> int:
    """Index of the difference of letters a and b, through the tuple API."""
    return alphabet.index(alphabet.sub(alphabet.unindex(a), alphabet.unindex(b)))


def list_section_letters(m: int, anchor, alphabet, xs: list[int], start: int, lo: int, hi: int):
    """The section on [lo, hi] as letter indices, walked residue class by residue
    class on lists, one tuple sum or difference per step: xs[i] is the input at start + i,
    and ``anchor(k)`` is the anchor's letter index at k, read once per index."""
    gap, block, head = factorial(m - 1), factorial(m), (m - 1) * factorial(m - 1)

    def add(a, b):
        return letter_add(alphabet, a, b)

    def sub(a, b):
        return letter_sub(alphabet, a, b)

    anchors: dict[int, int] = {}

    def letter(k: int) -> int:
        if k not in anchors:
            anchors[k] = anchor(k)
        return anchors[k]

    out = [0] * (hi - lo + 1)
    for first in range(lo, min(hi, lo + block - 1) + 1):
        j = first % block
        if j < head:
            base = letter(j)
        else:
            base = xs[j - head - start]
            for i in range(1, m):
                base = sub(base, letter(j - i * gap))
        n_lo, n_hi = (first - j) // block, (hi - j) // block
        if n_lo <= 0 <= n_hi:
            out[j - lo] = base
        # walk y(k + m!) = y(k) + x(k + (m-1)!) - x(k) away from k = j
        y, p = base, j - start
        for n in range(1, n_hi + 1):
            y = add(y, sub(xs[p + gap], xs[p]))
            p += block
            if n >= n_lo:
                out[n * block + j - lo] = y
        y, p = base, j - start
        for n in range(-1, n_lo - 1, -1):
            p -= block
            y = sub(y, sub(xs[p + gap], xs[p]))
            if n <= n_hi:
                out[n * block + j - lo] = y
    return out


def list_section_trial(rng, m: int, alphabet, delta: Fraction, extend: int):
    """One trial of a section suite drawn with ``rng.randrange`` as the suites
    drew it trial by trial: the output range [lo, hi], the separated input
    window over the needed range of [lo, hi + extend], the anchor seed, and the
    section on [lo, hi + extend] under that seed's anchor.  Returns
    (lo, hi, input offset, input letter indices, anchor seed, section letters)."""
    import random

    from zpindex.seqmaps import section_input_range
    from zpindex.shiftspaces import Separation, SubshiftSpec

    block, gap, n = factorial(m), factorial(m - 1), alphabet.order
    far = SubshiftSpec(alphabet, Separation(m, delta)).bar
    lo = rng.randrange(-2 * block, block)
    hi = lo + rng.randrange(1, 3 * block + 1)
    start, stop = section_input_range(m, lo, hi + extend) or (0, 0)
    xs: list[int] = []
    for t in range(stop - start + 1):
        while True:
            e = rng.randrange(n)
            if t < gap or far[letter_sub(alphabet, xs[t - gap], e)]:
                xs.append(e)
                break
    seed = rng.randrange(10**9)
    ys = list_section_letters(m, lambda k: random.Random(f"{seed}|{k}").randrange(n), alphabet,
                              xs, start, lo, hi + extend)
    return lo, hi, start, xs, seed, ys
