"""Finite complexes with a prime-order action by cell permutations.

Both kinds of complex share one cell table.  The k-cells of each dimension
are integer rows: sorted vertex ids for a simplex, (base corner, extent
mask) on a periodic grid for a cube.  Each row gets one int64 mixed-radix
key (radix n_vertices per vertex slot; q per base coordinate and 2^D for
the mask), and the rows are stored sorted by key, which is their
lexicographic order.  Every lookup is a binary search among the keys; a
complex whose keys would reach 2^63 is refused, never wrapped.

Validation checks that the group order p is prime, that the action is a
permutation of exact order p mapping cells to cells, and face closure.
Closure finds every face of every cell once and keeps the face indices
with their sign pattern, which is all boundary assembly needs.  A
setwise-invariant cell, found during the action check, is reported as a
freeness counterexample.

Joins are implemented for simplicial complexes: vertex sets are disjoint
unions and cells are unions of one cell (or nothing) from each side.  A
join of discrete complexes remembers its factor sizes, which is the one
structural situation where high connectivity is a theorem rather than
homological evidence.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ResourceCapError, ShapeError

__all__ = [
    "CellComplex",
    "SimplicialComplex",
    "CubicalComplex",
    "join_complex",
    "join_cell_count",
    "standard_join_model",
    "cycle_complex",
    "verify_free_action",
    "EnReport",
    "is_EnZp",
    "JoinPoint",
    "apply_join_of_maps",
]

_KEY_LIMIT = 1 << 63  # keys are int64: the product of a row's radices stays below this
# cells a join may have: about 5x the 2,048,382 of the 3-fold join of the period-7 set
_JOIN_CELL_CAP = 10**7


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _row_keys(rows: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Mixed-radix int64 key of each row; keys sort as the rows do lexicographically."""
    if prod(radices) >= _KEY_LIMIT:
        raise ShapeError(
            f"cell keys with radices {list(radices)} would reach 2^63; complex too large to index"
        )
    key = np.zeros(len(rows), dtype=np.int64)
    for j, r in enumerate(radices):
        key *= r
        key += rows[:, j]
    return key


class CellComplex:
    """Cells per dimension sorted by key, their faces, and the action's fixed cell.

    A subclass sets ``p`` through ``_set_order``, hands its normalized rows
    to ``_set_cells`` and calls ``_finish``.  It supplies only its own rules:
    ``_radices(d)`` (the key radices of a d-cell row), ``_action_rows(rows)``
    (the image rows under the action, normalized) and ``_face_signs(d)`` /
    ``_face_rows(d, rows, i)`` (the i-th face of each d-cell and its sign).

    After validation ``faces[d]`` is a read-only (n_d, k) array: entry
    (j, i) is the index among the (d-1)-cells of the i-th face of d-cell j,
    whose boundary coefficient is ``face_signs[d][i]``.
    """

    p: int
    cells: dict[int, np.ndarray]
    keys: dict[int, np.ndarray]
    faces: dict[int, np.ndarray]
    face_signs: dict[int, tuple[int, ...]]

    def _radices(self, d: int) -> list[int]:
        raise NotImplementedError

    def _action_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _face_signs(self, d: int) -> tuple[int, ...]:
        raise NotImplementedError

    def _face_rows(self, d: int, rows: np.ndarray, i: int) -> np.ndarray:
        raise NotImplementedError

    # -- building -----------------------------------------------------------------

    def _set_order(self, p: int) -> None:
        self.p = int(p)
        if not _is_prime(self.p):
            raise ShapeError(f"the acting group order must be a prime, got {p}")

    def _set_cells(self, cells: dict[int, np.ndarray]) -> None:
        """Store each dimension's rows sorted by key; duplicates are refused."""
        self.cells, self.keys = {}, {}
        for d in sorted(cells):
            key = _row_keys(cells[d], self._radices(d))
            order = np.argsort(key, kind="stable")
            key = key[order]
            if np.any(key[1:] == key[:-1]):
                raise ShapeError(f"duplicate cells in dimension {d}")
            self.cells[d], self.keys[d] = cells[d][order], key

    def _finish(self, has_action: bool) -> None:
        """Check the action (when there is one) and closure, then freeze the table."""
        self._has_action = has_action
        self._witness = None
        if has_action:
            self._check_action()
        self._find_faces()
        for table in (self.cells, self.keys, self.faces):
            for a in table.values():
                a.setflags(write=False)

    def _check_action(self) -> None:
        for d, rows in self.cells.items():
            img = _row_keys(self._action_rows(rows), self._radices(d))
            if np.any(self._index_of_keys(d, img) < 0):
                raise ShapeError(f"action does not map dimension-{d} cells to cells")
            hits = np.flatnonzero(img == self.keys[d])
            if self._witness is None and len(hits):
                self._witness = (d, tuple(int(v) for v in rows[hits[0]]))

    def _find_faces(self) -> None:
        self.faces, self.face_signs = {}, {}
        for d, rows in self.cells.items():
            if d == 0:
                continue
            if d - 1 not in self.cells:
                raise ShapeError(f"dimension {d} cells present but no {d - 1} cells")
            signs = self._face_signs(d)
            idx = np.empty((len(rows), len(signs)), dtype=np.int64)
            for i in range(len(signs)):
                face = self._face_rows(d, rows, i)
                idx[:, i] = self._index_of_keys(d - 1, _row_keys(face, self._radices(d - 1)))
            if np.any(idx < 0):
                raise ShapeError(f"face closure fails between dimensions {d} and {d - 1}")
            self.faces[d], self.face_signs[d] = idx, signs

    # -- lookups --------------------------------------------------------------------

    def _index_of_keys(self, d: int, want: np.ndarray) -> np.ndarray:
        """Index of each key among the d-cells; -1 when absent."""
        keys = self.keys[d]
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, pos, -1)

    def _find_cell(self, d: int, row: Sequence[int]) -> int:
        """Index of one row among the d-cells, or -1 (also for rows off the grid)."""
        if d not in self.keys:
            return -1
        radices = self._radices(d)
        if len(row) != len(radices) or not all(0 <= v < r for v, r in zip(row, radices)):
            return -1
        want = _row_keys(np.array([row], dtype=np.int64), radices)
        return int(self._index_of_keys(d, want)[0])

    # -- queries ----------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self.cells) if self.cells else -1

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def n_cells(self, d: int) -> int:
        return len(self.cells.get(d, ()))

    def cell_counts(self) -> dict[int, int]:
        return {d: len(a) for d, a in self.cells.items()}

    def total_cells(self) -> int:
        return sum(len(a) for a in self.cells.values())

    def free_witness(self) -> tuple[int, tuple[int, ...]] | None:
        """A setwise-invariant cell (dimension, row), or None if the action is free."""
        if not self._has_action:
            raise ShapeError("freeness is undefined: this complex carries no action")
        return self._witness

    @property
    def is_free(self) -> bool:
        return self.free_witness() is None


class SimplicialComplex(CellComplex):
    """A finite simplicial complex plus a vertex permutation of order p."""

    def __init__(
        self,
        n_vertices: int,
        cells: dict[int, np.ndarray],
        action: Sequence[int] | np.ndarray | None,
        p: int,
        labels: list[str] | None = None,
        join_factors: tuple[int, ...] | None = None,
    ):
        self._set_order(p)
        self.n_vertices = int(n_vertices)
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n_vertices:
            raise ShapeError("label count does not match vertex count")
        self.join_factors = join_factors

        norm: dict[int, np.ndarray] = {}
        if self.n_vertices:
            norm[0] = np.arange(self.n_vertices, dtype=np.int32).reshape(-1, 1)
        for d, arr in cells.items():
            if d == 0:
                continue
            a = np.asarray(arr, dtype=np.int32).reshape(-1, d + 1)
            if len(a) == 0:
                continue
            if a.min() < 0 or a.max() >= self.n_vertices:
                raise ShapeError(f"cell of dimension {d} uses an unknown vertex id")
            a = np.sort(a, axis=1)
            if np.any(a[:, 1:] == a[:, :-1]):
                raise ShapeError(f"degenerate cell with a repeated vertex in dimension {d}")
            norm[d] = a
        self._set_cells(norm)

        if action is None:
            # a plain complex: joins and homology work, freeness queries do not
            self.action = None
        else:
            self.action = np.asarray(action, dtype=np.int64).reshape(-1)
            if len(self.action) != self.n_vertices:
                raise ShapeError("action length does not match vertex count")
            self._check_permutation()
            self.action.setflags(write=False)
        self._finish(self.action is not None)

    # -- cell rules -------------------------------------------------------------------

    def _radices(self, d: int) -> list[int]:
        return [self.n_vertices] * (d + 1)

    def _action_rows(self, rows: np.ndarray) -> np.ndarray:
        img = self.action.astype(np.int32)[rows]
        img.sort(axis=1)
        return img

    def _face_signs(self, d: int) -> tuple[int, ...]:
        return tuple((-1) ** i for i in range(d + 1))

    def _face_rows(self, d: int, rows: np.ndarray, i: int) -> np.ndarray:
        return np.delete(rows, i, axis=1)

    def _check_permutation(self):
        n = self.n_vertices
        if n == 0:
            return
        if sorted(self.action.tolist()) != list(range(n)):
            raise ShapeError("action is not a permutation of the vertices")
        cur = self.action.copy()
        for _ in range(self.p - 1):
            cur = self.action[cur]
        if not np.array_equal(cur, np.arange(n)):
            raise ShapeError(f"action does not satisfy perm^{self.p} = id")
        if np.array_equal(self.action, np.arange(n)):
            raise ShapeError(
                f"action must have exact order {self.p} on a nonempty complex, got the identity"
            )

    # -- queries ------------------------------------------------------------------------

    def carrier_cell(self, vertex_ids: Iterable[int]) -> tuple[int, ...] | None:
        """The cell spanned by the given vertices, if it is in the complex."""
        tup = tuple(sorted(set(int(v) for v in vertex_ids)))
        return tup if self._find_cell(len(tup) - 1, tup) >= 0 else None

    def vertex_label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def empty(cls, p: int) -> SimplicialComplex:
        return cls(0, {}, [], p)

    @classmethod
    def discrete(
        cls,
        n_points: int,
        action: Sequence[int] | None,
        p: int,
        labels: list[str] | None = None,
    ) -> SimplicialComplex:
        """A 0-dimensional complex; remembers itself as a 1-factor join."""
        jf = (n_points,) if n_points else None
        return cls(n_points, {}, action, p, labels=labels, join_factors=jf)

    @classmethod
    def from_maximal(
        cls,
        n_vertices: int,
        maximal_cells: Iterable[Sequence[int]],
        action: Sequence[int],
        p: int,
        labels: list[str] | None = None,
    ) -> SimplicialComplex:
        """Close the given cells under taking faces."""
        by_dim: dict[int, set[tuple[int, ...]]] = {}
        stack = [tuple(sorted(set(int(v) for v in c))) for c in maximal_cells]
        seen = set(stack)
        while stack:
            c = stack.pop()
            by_dim.setdefault(len(c) - 1, set()).add(c)
            if len(c) > 1:
                for i in range(len(c)):
                    f = c[:i] + c[i + 1 :]
                    if f not in seen:
                        seen.add(f)
                        stack.append(f)
        cells = {
            d: np.array(sorted(cs), dtype=np.int32)
            for d, cs in by_dim.items()
            if d > 0
        }
        return cls(n_vertices, cells, action, p, labels=labels)

    # -- exchange format -----------------------------------------------------------

    def maximal_cells(self) -> list[list[int]]:
        out: list[list[int]] = []
        marked: set[tuple[int, ...]] = set()
        for d in sorted(self.cells, reverse=True):
            for row in self.cells[d]:
                c = tuple(int(v) for v in row)
                if c in marked:
                    continue
                out.append(list(c))
                stack = [c]
                while stack:
                    t = stack.pop()
                    if len(t) > 1:
                        for i in range(len(t)):
                            f = t[:i] + t[i + 1 :]
                            if f not in marked:
                                marked.add(f)
                                stack.append(f)
                marked.add(c)
        return sorted(out, key=lambda c: (len(c), c))

    def to_json(self) -> dict:
        return {
            "kind": "simplicial",
            "p": self.p,
            "vertices": [self.vertex_label(v) for v in range(self.n_vertices)],
            "action": None if self.action is None else [int(v) for v in self.action],
            "maximal_cells": self.maximal_cells(),
        }

    @classmethod
    def from_json(cls, doc: dict) -> SimplicialComplex:
        if doc.get("kind", "simplicial") != "simplicial":
            raise ShapeError("not a simplicial complex document")
        try:
            labels = [str(x) for x in doc["vertices"]]
            return cls.from_maximal(
                len(labels), doc["maximal_cells"], doc["action"], int(doc["p"]), labels=labels
            )
        except KeyError as e:
            raise ShapeError(f"simplicial complex document lacks the key {e}") from None


def join_cell_count(totals: Sequence[int]) -> int:
    """Cells of the join of complexes with these total cell counts,
    prod(c_i + 1) - 1; refused with ResourceCapError above the join cell cap."""
    predicted = prod(int(t) + 1 for t in totals) - 1
    if predicted > _JOIN_CELL_CAP:
        raise ResourceCapError(
            f"join of {len(totals)} complexes would have {predicted} cells, "
            f"above the join cell cap ({_JOIN_CELL_CAP}); nothing was built"
        )
    return predicted


def join_complex(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """The join: disjoint vertices, cells are unions of one side's cell or nothing.

    The empty complex is the join identity.  dim(A*B) = dim A + dim B + 1
    and the nonempty-cell counts satisfy (cA+1)(cB+1)-1, which is checked
    against the join cell cap before anything is allocated.
    """
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


def standard_join_model(p: int, copies: int) -> SimplicialComplex:
    """The (copies)-fold join of the p-point free orbit; the reference model
    of maximal-connectivity free complexes in each dimension."""
    if copies < 1:
        raise ShapeError(f"need at least one copy, got {copies}")
    cyc = [(i + 1) % p for i in range(p)]
    one = SimplicialComplex.discrete(p, cyc, p, labels=[f"g{i}" for i in range(p)])
    out = one
    for _ in range(copies - 1):
        out = join_complex(out, one)
    if out.labels is not None:
        out.labels = [f"{i // p}:{i % p}" for i in range(out.n_vertices)]
    return out


def cycle_complex(q: int, action: Sequence[int], p: int) -> SimplicialComplex:
    """The q-cycle graph (vertices 0..q-1, edges {j, j+1 mod q}) with an action."""
    if q < 3:
        raise ShapeError(f"cycle complex needs q >= 3, got {q}")
    edges = np.array(
        sorted(tuple(sorted((j, (j + 1) % q))) for j in range(q)), dtype=np.int32
    )
    return SimplicialComplex(q, {1: edges}, action, p)


def verify_free_action(c) -> tuple[bool, tuple | None]:
    """(True, None) when no cell is setwise invariant, else (False, witness)."""
    w = c.free_witness()
    return (w is None, w)


# -- cubical complexes -----------------------------------------------------------


def _popcount(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    v = x.copy()
    while np.any(v):
        out += v & 1
        v >>= 1
    return out


class CubicalComplex(CellComplex):
    """Cells (base corner, extent mask) on a periodic grid, q points per axis.

    A mask bit set at axis t extends the cell one grid step along t; a
    k-cell has k bits set.  The action is an axis permutation: image base
    coordinate t is drawn from source axis axis_map[t].
    """

    def __init__(
        self,
        q: int,
        n_axes: int,
        cells: dict[int, np.ndarray],
        axis_map: Sequence[int],
        p: int,
    ):
        self.q = int(q)
        self.n_axes = int(n_axes)
        self._set_order(p)
        if self.q < 3:
            raise ShapeError("grid needs q >= 3 so cell corners stay distinct")
        self.axis_map = np.asarray(axis_map, dtype=np.int64).reshape(-1)
        if len(self.axis_map) != self.n_axes or sorted(self.axis_map.tolist()) != list(
            range(self.n_axes)
        ):
            raise ShapeError("axis_map is not a permutation of the axes")

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
        self._set_cells(norm)
        self._check_axis_order()
        self._finish(True)

    # -- cell rules -------------------------------------------------------------------

    def _radices(self, d: int) -> list[int]:
        return [self.q] * self.n_axes + [1 << self.n_axes]

    def _action_rows(self, rows: np.ndarray) -> np.ndarray:
        D = self.n_axes
        mask = rows[:, D].astype(np.int64)
        new_mask = np.zeros_like(mask)
        for t in range(D):
            new_mask |= ((mask >> int(self.axis_map[t])) & 1) << t
        out = np.empty_like(rows)
        out[:, :D] = rows[:, :D][:, self.axis_map]
        out[:, D] = new_mask
        return out

    def _face_signs(self, d: int) -> tuple[int, ...]:
        # per set mask bit s (in axis order): the far face, then the base face
        return tuple(sign for s in range(d) for sign in ((-1) ** s, -((-1) ** s)))

    def _face_rows(self, d: int, rows: np.ndarray, i: int) -> np.ndarray:
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

    def _check_axis_order(self):
        cur = self.axis_map.copy()
        for _ in range(self.p - 1):
            cur = self.axis_map[cur]
        if not np.array_equal(cur, np.arange(self.n_axes)):
            raise ShapeError(f"axis permutation does not satisfy perm^{self.p} = id")
        if self.cells and np.array_equal(self.axis_map, np.arange(self.n_axes)):
            raise ShapeError(
                f"axis permutation must have exact order {self.p} on a nonempty complex"
            )

    # -- queries ---------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.n_cells(0)

    @property
    def join_factors(self):
        return None  # cubical complexes are never structural joins

    def vertex_bases(self) -> np.ndarray:
        return self.cells[0][:, : self.n_axes] if 0 in self.cells else np.zeros((0, self.n_axes), np.int32)

    def vertex_index(self, coords: Sequence[int]) -> int:
        idx = self._find_cell(0, [int(x) for x in coords] + [0])
        if idx < 0:
            raise ShapeError(f"grid point {tuple(coords)} is not a vertex of the complex")
        return idx

    @property
    def action(self) -> np.ndarray:
        """The vertex permutation induced by the axis permutation."""
        img = self._action_rows(self.cells[0])
        return self._index_of_keys(0, _row_keys(img, self._radices(0)))

    def vertex_label(self, v: int) -> str:
        return ",".join(str(int(x)) for x in self.cells[0][v, : self.n_axes])

    def carrier_cell(self, vertex_ids: Iterable[int]) -> tuple[int, ...] | None:
        """Smallest grid cell whose corner set contains the given vertices."""
        ids = sorted(set(int(v) for v in vertex_ids))
        if not ids:
            return None
        D = self.n_axes
        coords = self.cells[0][ids, :D]
        row = [0] * D + [0]
        for t in range(D):
            vals = sorted(set(int(x) for x in coords[:, t]))
            if len(vals) == 1:
                row[t] = vals[0]
            elif len(vals) == 2:
                a, b = vals
                if (a + 1) % self.q == b:
                    row[t] = a
                elif (b + 1) % self.q == a:
                    row[t] = b
                else:
                    return None
                row[D] |= 1 << t
            else:
                return None
        d = bin(row[D]).count("1")
        return tuple(row) if self._find_cell(d, row) >= 0 else None


# -- model recognition ------------------------------------------------------------


@dataclass(frozen=True)
class EnReport:
    """Evidence that a complex is a free, n-dimensional, (n-1)-connected model.

    ``certified`` is True only in the structural case (a join of n+1
    nonempty discrete free factors), where the connectivity is a theorem.
    Otherwise the homological connectivity over F_ell is evidence, with the
    explicit caveat that vanishing reduced homology does not decide
    higher homotopy connectivity.
    """

    n: int
    free: bool
    dimension: int
    connectivity: int
    certified: bool
    is_model: bool
    betti: tuple[int, ...]
    field: int
    witness: tuple | None


def is_EnZp(c, n: int, ell: int | None = None, betti=None) -> EnReport:
    """Check freeness, dimension n, and vanishing reduced homology below n."""
    from .homology import betti_numbers, connectivity_from_betti

    free, witness = verify_free_action(c)
    field = ell if ell is not None else c.p
    if betti is None:
        betti = betti_numbers(c, field)
    bt = tuple(betti.reduced)
    conn = connectivity_from_betti(bt, c.dim)
    certified = (
        free
        and c.join_factors is not None
        and len(c.join_factors) == n + 1
        and all(s >= 1 for s in c.join_factors)
        and c.dim == n
    )
    is_model = free and c.dim == n and conn >= n - 1
    return EnReport(
        n=n,
        free=free,
        dimension=c.dim,
        connectivity=conn,
        certified=certified,
        is_model=is_model,
        betti=bt,
        field=field,
        witness=witness,
    )


# -- join points and joins of maps ---------------------------------------------------


@dataclass(frozen=True)
class JoinPoint:
    """A formal convex point of a join: weights sum to 1, coordinates with
    weight zero are ignored by equality (the collapse rule)."""

    weights: tuple[Fraction, ...]
    points: tuple[Any, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.points):
            raise ShapeError("weights and points have different arities")
        if not self.weights:
            raise ShapeError("join point needs at least one factor")
        w = tuple(Fraction(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if any(x < 0 for x in w) or sum(w) != 1:
            raise ShapeError("weights must be nonnegative rationals summing to 1")
        for t, pt in zip(w, self.points):
            if t > 0 and pt is None:
                raise ShapeError("a factor with positive weight needs a point")

    def support(self) -> tuple[tuple[int, Fraction, Any], ...]:
        return tuple(
            (i, t, pt) for i, (t, pt) in enumerate(zip(self.weights, self.points)) if t > 0
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, JoinPoint):
            return NotImplemented
        return len(self.weights) == len(other.weights) and self.support() == other.support()

    def __hash__(self):
        return hash((len(self.weights), self.support()))


def apply_join_of_maps(maps: Sequence[Callable[[Any], Any]], x: JoinPoint) -> JoinPoint:
    """Apply one map per factor, keeping weights; zero-weight factors stay opaque."""
    if len(maps) != len(x.points):
        raise ShapeError(
            f"got {len(maps)} maps for a join point with {len(x.points)} factors"
        )
    new_points = tuple(
        maps[i](pt) if t > 0 else None for i, (t, pt) in enumerate(zip(x.weights, x.points))
    )
    return JoinPoint(x.weights, new_points)
