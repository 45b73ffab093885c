"""Finite complexes with a prime-order action by cell permutations.

Both kinds of complex share one cell table.  A k-cell is an integer row:
sorted vertex ids for a simplex, (base corner, extent mask) on a periodic
grid for a cube.  Each row has one mixed-radix key (radix n_vertices per
vertex slot; q per base coordinate and 2^D for the mask), and the key is a
cell's only identity.  A table's keys are int32 when the product of its
radices, which bounds them, is at most 2^31, and int64 otherwise.  Per
dimension, the keys, sorted (the rows' lexicographic order), and the faces,
indices into the dimension below, are each a ``_Table``, stored as a
read-only array or generated on each read (a join's top keys; the rows,
decoded from the keys).  Faces are uint16 when the dimension below has at
most 2^16 cells, and int32 otherwise (``_face_dtype``).  Every
reader goes through a table: ``take`` for all rows or a few, ``blocks`` for
cache-sized blocks, ``search`` for a binary search among keys; no table can
be replaced after validation.  Keys that would reach 2^63 are refused,
never wrapped, and so is a dimension of 2^31 or more cells, which the
widest faces, int32, cannot index, before anything is allocated.

Validation of given simplices checks that the group order p is prime,
that the action is a permutation of exact order p mapping cells to cells,
and face closure.  Closure finds every face of every cell once and keeps
the face indices with their sign pattern, which is all boundary assembly
needs.  A setwise-invariant cell, found during the action check, is
reported as a freeness counterexample.  ``torusgrid.build_approx`` grows
cubical tables one dimension from the one below, searching only among
their vertices, and the general cubical validation (keys, binary-search
face lookup, per-cell action images) is the oracle that
the tests compare it with.  ``_check_boundary_square`` proves that the
boundary squares to zero from the stored faces alone: each kind of
complex names which face of a face equals which (the simplicial identities
d_i d_j = d_{j-1} d_i for i < j, and their cubical analogue), and the
shared check tests those integer-array equalities, that the named pairs
match up every face of a face exactly once with opposite signs, and that
the edge signs sum to zero.  It reads the face table block by block,
gathering each block's faces of faces once for all pairs.  Together
these give boundary o boundary = 0 and augmentation o boundary = 0 over the
integers, hence over every field.

Joins are implemented for simplicial complexes.  The N vertices of A*B
are those of A followed by those of B, and a cell is a pair (sigma, tau)
of a cell of each side, either of which may be empty.  The join is built
from its validated factors' keys and faces without searching: the row of
(sigma, tau) is sigma followed by tau shifted past A's vertices, so its
radix-N key is key(sigma) * N^|tau| + key(tau + |V(A)|); its faces are
(d_i sigma, tau) and then (sigma, d_j tau), the Leibniz rule for joins; and
it is setwise fixed exactly when sigma and tau are (an empty side counts as
fixed).  Each split (dim sigma, dim tau) of a dimension is already in key
order; one stable argsort of the keys merges the splits.  The top dimension
is the one split (top of A, top of B), so its keys are that formula,
generated on read, never stored; homology reads faces and counts only and
never generates them.  ``join_power`` checks the caps for a whole k-fold
join before it folds the copies.  A join of discrete complexes remembers
its factor sizes, which is the one structural situation where high
connectivity is a theorem rather than homological evidence.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from math import prod
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceCapError, ShapeError

__all__ = [
    "CellComplex",
    "SimplicialComplex",
    "CubicalComplex",
    "join_complex",
    "join_power",
    "join_cell_count",
    "standard_join_model",
    "cycle_complex",
    "EnReport",
    "is_EnZp",
]

_KEY_LIMIT = 1 << 63  # keys are at most int64: the product of a row's radices stays below this
_INT32_KEYS = 1 << 31  # keys whose radices multiply to at most this are int32
_INDEX_LIMIT = 1 << 31  # faces are at most int32: a dimension holds fewer cells than this
_UINT16_FACES = 1 << 16  # faces into a dimension of at most this many cells are uint16
# entries a pass over a face table handles at once: 256 KiB of int32 faces (128
# of uint16), so a block's gathers and index casts stay in cache
_BLOCK_ENTRIES = 1 << 16
# cells a join may have: about 5x the 2,048,382 of the 3-fold join of the period-7 set
_JOIN_CELL_CAP = 10**7


# Miller-Rabin with these bases decides every n < 2^64 (Jaeschke 1993)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n of 2^64 or more is refused with ShapeError."""
    if n >= 1 << 64:
        raise ShapeError(f"primality is decided only below 2^64, got {n}")
    if n < 2 or any(n % b == 0 for b in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for b in _PRIME_BASES:  # b^d = 1, or b^(d * 2^k) = -1 for some k < s, if n is prime
        if pow(b, d, n) != 1 and all(pow(b, d << k, n) != n - 1 for k in range(s)):
            return False
    return True


def _check_radices(radices: Sequence[int]) -> None:
    if prod(radices) >= _KEY_LIMIT:
        raise ShapeError(
            f"cell keys with radices {list(radices)} would reach 2^63; complex too large to index"
        )


def _key_dtype(radices: Sequence[int]) -> np.dtype:
    """The width of keys with these radices: int32 when their product, which
    bounds every key, is at most 2^31, and int64 otherwise."""
    return np.dtype(np.int32 if prod(radices) <= _INT32_KEYS else np.int64)


def _face_dtype(n_below: int) -> np.dtype:
    """The width of faces into a dimension of n_below cells: uint16 when it
    has at most 2^16 cells, and int32 otherwise."""
    return np.dtype(np.uint16 if n_below <= _UINT16_FACES else np.int32)


def _row_keys(rows: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Mixed-radix key of each row, in the width of its radices (``_key_dtype``),
    where no partial key can wrap; keys sort as the rows do lexicographically."""
    _check_radices(radices)
    key = rows[:, 0].astype(_key_dtype(radices))
    for j in range(1, len(radices)):
        key *= radices[j]
        key += rows[:, j]
    return key


def _key_rows(keys: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """The int32 rows whose mixed-radix keys these are: ``_row_keys`` undone,
    one digit at a time from the last."""
    rows = np.empty((len(keys), len(radices)), dtype=np.int32)
    rest = np.asarray(keys)
    for j in range(len(radices) - 1, 0, -1):
        rest, rows[:, j] = np.divmod(rest, radices[j])
    rows[:, 0] = rest
    return rows


def _check_cell_count(d: int, n: int) -> None:
    """Refuse a dimension of 2^31 or more cells, which int32 faces cannot index."""
    if n >= _INDEX_LIMIT:
        raise ResourceCapError(
            f"dimension {d} would have {n} cells; int32 face indices address fewer than "
            f"2^31 cells a dimension; nothing was built"
        )


class _Table:
    """One dimension of a complex: a sorted key per cell (in the width
    ``_key_dtype`` gives for its radices), a row of face indices per cell (in
    the width ``_face_dtype`` gives for the dimension below), or the cells'
    rows.  ``_Stored`` holds it in one read-only array; ``_JoinTop`` (a
    join's top keys) and ``_Decoded`` (rows from keys) generate it on every
    read and keep nothing.

    Each is read the same way: ``take(at)``, the rows at the indices or
    slice ``at`` (all of them when None), ``blocks(width)`` and, for keys,
    ``search(want)``, the index of each wanted key (-1 when absent), given
    in the keys' own width, as the one codec ``_row_keys`` forms it."""

    __slots__ = ()

    def blocks(self, width: int):
        """(start, rows) of consecutive blocks of rows of ``width`` entries
        each: ``_BLOCK_ENTRIES`` entries a block, at least one row."""
        n, step = len(self), max(1, _BLOCK_ENTRIES // width)
        return ((s, self.take(slice(s, min(s + step, n)))) for s in range(0, n, step))


class _Stored(_Table):
    """A table held in one array, made read-only here."""

    __slots__ = ("_array",)

    def __init__(self, array: np.ndarray):
        array.setflags(write=False)
        self._array = array

    def __len__(self) -> int:
        return len(self._array)

    @property
    def dtype(self) -> np.dtype:
        return self._array.dtype

    def take(self, at=None) -> np.ndarray:
        return self._array if at is None else self._array[at]

    def search(self, want: np.ndarray) -> np.ndarray:
        keys = self._array  # sorted and nonempty
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, pos, -1)


class _JoinTop(_Table):
    """The keys of a join's top dimension, generated on every read, never kept.

    That dimension is one split, (top cell of A, top cell of B), in
    row-major order: cell i * len(inner) + j has the key outer[i] * scale +
    inner[j], where outer and inner are the factors' top keys in the join's
    radix, stored, and scale = N^(dim B + 1) is above every inner key.  So a
    divmod by scale splits a key into its factors' keys.  The keys are formed
    in ``dtype``, the width of the top dimension's bound, which may be wider
    than the factors' keys."""

    __slots__ = ("outer", "inner", "scale", "dtype")

    def __init__(self, outer: np.ndarray, inner: np.ndarray, scale: int, dtype: np.dtype):
        self.outer, self.inner, self.scale, self.dtype = _Stored(outer), _Stored(inner), scale, dtype

    def __len__(self) -> int:
        return len(self.outer) * len(self.inner)

    def take(self, at=None) -> np.ndarray:
        if at is None:
            outer = np.multiply(self.outer.take(), self.scale, dtype=self.dtype)
            key = np.add.outer(outer, self.inner.take()).reshape(-1)
        else:
            if isinstance(at, slice):
                at = np.arange(*at.indices(len(self)))
            i, j = np.divmod(np.asarray(at, dtype=np.int64), len(self.inner))
            key = np.multiply(self.outer.take(i), self.scale, dtype=self.dtype)
            key += self.inner.take(j)
        key.setflags(write=False)
        return key

    def search(self, want: np.ndarray) -> np.ndarray:
        # each part is below its factor's bound, so it is exact in that factor's width
        i, j = np.divmod(want, self.scale)
        i = self.outer.search(i.astype(self.outer.dtype, copy=False))
        j = self.inner.search(j.astype(self.inner.dtype, copy=False))
        return np.where((i >= 0) & (j >= 0), i * len(self.inner) + j, -1)


class _Decoded(_Table):
    """The int32 rows of a key table, decoded from the keys, digit by digit,
    on every read and returned read-only; nothing is kept."""

    __slots__ = ("keys", "radices")

    def __init__(self, keys: _Table, radices: Sequence[int]):
        self.keys, self.radices = keys, radices

    def __len__(self) -> int:
        return len(self.keys)

    def take(self, at=None) -> np.ndarray:
        rows = _key_rows(self.keys.take(at), self.radices)
        rows.setflags(write=False)
        return rows


class _Tables(Mapping):
    """A complex's keys, faces or cells, one ``_Table`` per dimension, read-only:
    ``[d]`` is dimension d's whole array (generated on the read where its
    table is generated), and ``table(d)`` the table itself, for sizes,
    reads of a few rows, blocks and searches that never form the whole."""

    __slots__ = ("_tables",)

    def __init__(self, tables: dict[int, _Table]):
        self._tables = tables

    def __getitem__(self, d: int) -> np.ndarray:
        return self._tables[d].take()

    def __contains__(self, d) -> bool:
        return d in self._tables

    def __iter__(self):
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    def table(self, d: int) -> _Table:
        return self._tables[d]

    def size(self, d: int) -> int:
        """Rows in dimension d; 0 for a dimension with none."""
        return len(self._tables.get(d, ()))


class CellComplex:
    """Cell keys per dimension, sorted, their faces, and the action's fixed cell.

    A subclass supplies its own rules: ``_radices(d)`` (the key radices of
    a d-cell row), ``_face_signs(d)`` (the sign of each face slot) and
    ``_face_pairs(d)`` (its face identities).  One that validates given rows
    sets ``p`` through ``_set_order``, hands the normalized rows to
    ``_set_cells``, supplies ``_action_rows(rows)`` (the image rows under the
    action, normalized) and ``_face_rows(d, rows, i)`` (the i-th face of
    each d-cell) and calls ``_finish`` with the rows ``_set_cells`` returned.

    ``keys``, ``faces`` and ``cells`` map each dimension to its whole table
    (``_Tables``).  ``faces[d]`` is an (n_d, k) array in the width
    ``_face_dtype`` gives for n_{d-1}, uint16 or int32: entry (j, i) is the
    index among the (d-1)-cells of the i-th face of d-cell j, whose boundary
    coefficient is ``face_signs[d][i]``.  Once set, ``keys``, ``faces`` and
    ``face_signs`` are never rebound.
    """

    p: int
    keys: _Tables
    faces: _Tables
    face_signs: Mapping[int, tuple[int, ...]]

    def _radices(self, d: int) -> list[int]:
        raise NotImplementedError

    def _action_rows(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _face_signs(self, d: int) -> tuple[int, ...]:
        raise NotImplementedError

    def _face_rows(self, d: int, rows: np.ndarray, i: int) -> np.ndarray:
        raise NotImplementedError

    def _face_pairs(self, d: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Pairs ((i, i2), (j, j2)): face i2 of face i of every d-cell is its
        face j2 of face j."""
        raise NotImplementedError

    def __setattr__(self, name: str, value) -> None:
        if name in ("keys", "faces", "face_signs") and name in vars(self):
            raise AttributeError(f"the {name} of a complex cannot be replaced once set")
        super().__setattr__(name, value)

    # -- building -----------------------------------------------------------------

    def _set_order(self, p: int) -> None:
        self.p = int(p)
        if not _is_prime(self.p):
            raise ShapeError(f"the acting group order must be a prime, got {p}")

    def _set_cells(self, cells: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        """Store each dimension's keys, sorted; duplicates are refused.  Returns
        the rows in key order, for the checks of ``_finish``; nothing keeps them."""
        keys, rows = {}, {}
        for d in sorted(cells):
            _check_cell_count(d, len(cells[d]))
            key = _row_keys(cells[d], self._radices(d))
            order = np.argsort(key, kind="stable")
            key = key[order]
            if np.any(key[1:] == key[:-1]):
                raise ShapeError(f"duplicate cells in dimension {d}")
            rows[d], keys[d] = cells[d][order], _Stored(key)
        self.keys = _Tables(keys)
        return rows

    def _finish(self, rows: dict[int, np.ndarray], has_action: bool) -> None:
        """Check the action (when there is one) and closure on the sorted rows."""
        self._has_action = has_action
        self._witness = None
        if has_action:
            self._check_action(rows)
        self._find_faces(rows)

    @classmethod
    def _from_table(cls, p, keys, faces, action, witness, **attrs):
        """A complex from tables already known to be valid (sorted, closed,
        action of order p with the given witness), plus the subclass's own
        attributes; nothing is checked.  ``keys`` and ``faces`` map each
        dimension to its ``_Table``."""
        c = cls.__new__(cls)
        c.p, c.keys, c.faces = p, _Tables(keys), _Tables(faces)
        c.__dict__.update(attrs)
        c.face_signs = MappingProxyType({d: c._face_signs(d) for d in faces})
        c.action, c._has_action, c._witness = action, action is not None, witness
        if action is not None:
            action.setflags(write=False)
        return c

    def _check_order(self, perm: np.ndarray, n: int, what: str, items: str) -> None:
        """perm permutes range(n), perm^p = id, and perm is not the identity
        on a nonempty complex (so its order is exactly the prime p)."""
        ident = np.arange(n)
        if len(perm) != n or not np.array_equal(np.sort(perm), ident):
            raise ShapeError(f"{what} is not a permutation of the {items}")
        power = ident
        for bit in bin(self.p)[2:]:  # perm^p by repeated squaring, from the top bit down
            power = power[power] if bit == "0" else perm[power[power]]
        if not np.array_equal(power, ident):
            raise ShapeError(f"{what} does not satisfy perm^{self.p} = id")
        if self.keys and np.array_equal(perm, ident):
            raise ShapeError(
                f"{what} must have exact order {self.p} on a nonempty complex, got the identity"
            )

    def _image_keys(self, d: int, rows: np.ndarray) -> np.ndarray:
        """Key of the image of each d-cell, given the d-cells' rows, under the action."""
        return _row_keys(self._action_rows(rows), self._radices(d))

    def _check_action(self, rows: dict[int, np.ndarray]) -> None:
        for d, r in rows.items():
            img = self._image_keys(d, r)
            if np.any(self.keys.table(d).search(img) < 0):
                raise ShapeError(f"action does not map dimension-{d} cells to cells")
            hits = np.flatnonzero(img == self.keys[d])
            if self._witness is None and len(hits):
                self._witness = (d, tuple(int(v) for v in r[hits[0]]))

    def _find_faces(self, rows: dict[int, np.ndarray]) -> None:
        faces, face_signs = {}, {}
        for d, r in rows.items():
            if d == 0:
                continue
            if d - 1 not in self.keys:
                raise ShapeError(f"dimension {d} cells present but no {d - 1} cells")
            signs = self._face_signs(d)
            idx = np.empty((len(r), len(signs)), dtype=np.int32)
            for i in range(len(signs)):
                face = self._face_rows(d, r, i)
                idx[:, i] = self.keys.table(d - 1).search(_row_keys(face, self._radices(d - 1)))
            # checked in int32: a missing face, -1, would read as 65535 in uint16
            if np.any(idx < 0):
                raise ShapeError(f"face closure fails between dimensions {d} and {d - 1}")
            idx = idx.astype(_face_dtype(self.keys.size(d - 1)), copy=False)
            faces[d], face_signs[d] = _Stored(idx), signs
        self.faces, self.face_signs = _Tables(faces), MappingProxyType(face_signs)

    def _check_boundary_square(self) -> None:
        """Refuse with ShapeError unless boundary o boundary = 0 and the
        augmentation o boundary = 0, exactly, for the stored faces and signs.

        Face i2 of face i of a d-cell enters the double boundary with sign
        face_signs[d][i] * face_signs[d-1][i2].  When the pairs of
        ``_face_pairs(d)`` cover every (i, i2) exactly once, give equal
        face-of-face indices and opposite signs, all terms cancel.  The
        matching and the signs are checked first; then the d-cells' faces are
        read one block at a time (``_Table.blocks``): the block's faces of
        faces are gathered once and every pair is compared on them.  A pair
        that fails in any block is named after the last block, the first
        such pair in ``_face_pairs(d)`` order.
        """
        if 1 in self.faces and sum(self.face_signs[1]):
            raise ShapeError("augmentation composed with the edge boundary is nonzero")
        for d in range(2, self.dim + 1):
            signs, low_signs = self.face_signs[d], self.face_signs[d - 1]
            pairs = self._face_pairs(d)
            covered = sorted(x for pair in pairs for x in pair)
            if covered != [(i, i2) for i in range(len(signs)) for i2 in range(len(low_signs))]:
                raise ShapeError(
                    f"face-of-face pairing in dimension {d} is not a perfect matching"
                )
            for (i, i2), (j, j2) in pairs:
                if signs[i] * low_signs[i2] != -signs[j] * low_signs[j2]:
                    raise ShapeError(
                        f"boundary composition does not vanish between dimensions {d} and "
                        f"{d - 2}: faces ({i}, {i2}) and ({j}, {j2}) carry equal signs"
                    )
            # column i * k2 + i2 of a gathered block is face i2 of face i
            k2, low = len(low_signs), self.faces[d - 1]
            left = [i * k2 + i2 for (i, i2), _ in pairs]
            right = [j * k2 + j2 for _, (j, j2) in pairs]
            same = np.ones(len(pairs), dtype=bool)
            for _, top in self.faces.table(d).blocks(len(signs) * k2):
                gathered = np.take(low, top, axis=0).reshape(len(top), -1)
                same &= (gathered[:, left] == gathered[:, right]).all(axis=0)
            if not same.all():
                (i, i2), (j, j2) = pairs[int(np.argmin(same))]
                raise ShapeError(
                    f"boundary composition does not vanish between dimensions {d} and "
                    f"{d - 2}: face {i2} of face {i} differs from face {j2} of face {j}"
                )

    # -- lookups --------------------------------------------------------------------

    def _find_cell(self, d: int, row: Sequence[int]) -> int:
        """Index of one row among the d-cells, or -1 (also for rows off the grid)."""
        if d not in self.keys:
            return -1
        radices = self._radices(d)
        if len(row) != len(radices) or not all(0 <= v < r for v, r in zip(row, radices)):
            return -1
        want = _row_keys(np.array([row], dtype=np.int64), radices)
        return int(self.keys.table(d).search(want)[0])

    def _rows(self, d: int, at=None) -> np.ndarray:
        """Read-only rows of the d-cells at the indices ``at`` (all of them when
        None), decoded from those cells' keys alone."""
        return _Decoded(self.keys.table(d), self._radices(d)).take(at)

    # -- queries ----------------------------------------------------------------------

    @property
    def cells(self) -> _Tables:
        """Each dimension's rows in key order, decoded on every read."""
        return _Tables({d: _Decoded(self.keys.table(d), self._radices(d)) for d in self.keys})

    @property
    def dim(self) -> int:
        return max(self.keys) if self.keys else -1

    @property
    def is_empty(self) -> bool:
        return not self.keys

    def n_cells(self, d: int) -> int:
        return self.keys.size(d)

    def cell_counts(self) -> dict[int, int]:
        return {d: self.keys.size(d) for d in self.keys}

    def total_cells(self) -> int:
        return sum(self.keys.size(d) for d in self.keys)

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
        rows = self._set_cells(norm)

        if action is None:
            # a plain complex: joins and homology work, freeness queries do not
            self.action = None
        else:
            self.action = np.asarray(action, dtype=np.int64).reshape(-1)
            if len(self.action) != self.n_vertices:
                raise ShapeError("action length does not match vertex count")
            self._check_order(self.action, self.n_vertices, "action", "vertices")
            self.action.setflags(write=False)
        self._finish(rows, self.action is not None)

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

    def _face_pairs(self, d: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        # d_i d_j = d_{j-1} d_i for i < j: both drop vertices i and j
        return [((j, i), (i, j - 1)) for j in range(d + 1) for i in range(j)]

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
        """Cells that are a face of no other cell, by dimension, then in key order."""
        out: list[list[int]] = []
        for d in sorted(self.keys):
            keep = np.ones(self.n_cells(d), dtype=bool)
            if d + 1 in self.faces:
                keep[self.faces[d + 1].ravel()] = False
            out.extend(self._rows(d, np.flatnonzero(keep)).tolist())
        return out

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
        what = "simplicial complex document"
        if _read_field(doc, "kind", what, str, optional=True) not in (None, "simplicial"):
            raise ShapeError("not a simplicial complex document")
        labels = _read_field(doc, "vertices", what, str, depth=1)
        n = len(labels)
        return cls.from_maximal(
            n, _read_field(doc, "maximal_cells", what, int, depth=2, below=n),
            _read_field(doc, "action", what, int, depth=1, optional=True, below=n),
            _read_field(doc, "p", what, int), labels=labels,
        )


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_PLURALS = {str: "strings", int: "integers"}


def _json_type(v) -> str:
    return _JSON_TYPES.get(type(v), type(v).__name__)


def _misfit(value, leaf: tuple[type, ...], depth: int, below: int | None) -> str | None:
    """What the first part of ``value`` that is not ``depth`` nested arrays
    of values of a ``leaf`` type (integers in [0, below) if a bound is
    given) is, or None when all of it is."""
    if depth == 0:
        if type(value) not in leaf:
            return _json_type(value)
        return None if below is None or 0 <= value < below else str(value)
    if type(value) is not list:
        return _json_type(value)
    for v in value:
        found = _misfit(v, leaf, depth - 1, below)
        if found is not None:
            return found + " in an array"
    return None


def _read_field(doc, key: str, what: str, leaf, depth: int = 0, optional: bool = False,
               below: int | None = None):
    """``doc[key]`` of a JSON document, read exactly: ``depth`` nested arrays
    of values of ``leaf``, a type or a tuple of types, where int takes a JSON
    integer only (``type(v) is int``: no boolean, number with a fraction or
    string), str a JSON string and dict an object; with ``below``, integers
    must lie in [0, below).  With ``optional`` a missing key or null reads as
    None.  A document that is not an object, a missing key or a value of
    another shape raises ShapeError naming the key and what it found; nothing
    is converted, so nothing is truncated."""
    if type(doc) is not dict:
        raise ShapeError(f"{what} must be an object, found {_json_type(doc)}")
    if key not in doc:
        if optional:
            return None
        raise ShapeError(f"{what} lacks the key {key!r}")
    value = doc[key]
    if value is None and optional:
        return None
    leaf = leaf if isinstance(leaf, tuple) else (leaf,)
    found = _misfit(value, leaf, depth, below)
    if found is not None:
        if depth:
            want = "an array of " + "arrays of " * (depth - 1) + " or ".join(_PLURALS[t] for t in leaf)
        else:
            want = " or ".join(_JSON_TYPES[t] for t in leaf)
        if below is not None:
            want += f" in [0, {below})"
        raise ShapeError(f"{what}: {key!r} must be {want}, found {found}")
    return value


def join_cell_count(totals: Sequence[int]) -> int:
    """Cells of the join of complexes with these total cell counts,
    prod(c_i + 1) - 1; refused with ResourceCapError above the join cell cap."""
    return _join_cells(len(totals), totals)


def _join_cells(factors: int, totals: Iterable[int]) -> int:
    # the product stops at the first factor that passes the cap, so the count
    # reported stays a few digits long however many factors there are
    predicted = 1
    for i, t in enumerate(totals, start=1):
        predicted *= int(t) + 1
        if predicted - 1 > _JOIN_CELL_CAP:
            bound = "" if i == factors else "at least "
            raise ResourceCapError(
                f"join of {factors} complexes would have {bound}{predicted - 1} cells, "
                f"above the join cell cap ({_JOIN_CELL_CAP}); nothing was built"
            )
    return predicted - 1


def _check_join_keys(factors: int, n: int, dim: int) -> None:
    """Refuse a join on n vertices up to dimension dim whose cell keys would
    reach 2^63, naming the lowest dimension that would."""
    d = next((d for d in range(dim + 1) if n ** (d + 1) >= _KEY_LIMIT), None)
    if d is not None:
        raise ShapeError(f"join of {factors} complexes: the {d}-cell keys with radices "
                         f"{[n] * (d + 1)} would reach 2^63; nothing was built")


class _JoinSide:
    """One factor of a join, in the join's vertex numbering and key radix.

    Dimension -1 holds the empty cell (key 0), which a join cell may take on
    either side.  Each vertex has the empty cell as its only face, index 0.
    Each dimension's keys are read once (a factor that is itself a join
    generates its top dimension here) and decoded once: the rows shifted past
    the vertices before this side give its radix-n keys, in the width of
    their own bound n^(d+1), and their action images give ``fixed[d]``, the
    d-cells fixed setwise (the empty cell is fixed).
    """

    def __init__(self, f: SimplicialComplex, shift: int, n: int, with_action: bool):
        self.keys = {-1: np.zeros(1, dtype=np.int32)}
        self.faces = {}
        self.fixed = {-1: np.ones(1, dtype=bool)}
        for d, key in f.keys.items():
            rows = _key_rows(key, f._radices(d))
            self.keys[d] = _row_keys(rows + shift, [n] * (d + 1))
            self.faces[d] = f.faces[d] if d else np.zeros((len(key), 1), dtype=np.int32)
            if with_action:
                self.fixed[d] = f._image_keys(d, rows) == key


def join_complex(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """The join: disjoint vertices, cells are unions of one side's cell or nothing.

    The empty complex is the join identity.  dim(A*B) = dim A + dim B + 1
    and the nonempty-cell counts satisfy (cA+1)(cB+1)-1, which is checked
    against the join cell cap, as the key limit is, before anything is
    allocated, as is each dimension's count against the int32 face limit.
    Keys, faces and the freeness witness are computed from the factors'
    tables, with no lookup among the join's cells (see the module docstring).
    The top dimension stores its faces only: its keys are a ``_JoinTop``.
    """
    if a.p != b.p:
        raise ShapeError(f"cannot join complexes over different primes {a.p} and {b.p}")
    join_cell_count([a.total_cells(), b.total_cells()])
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    n, top = a.n_vertices + b.n_vertices, a.dim + b.dim + 1
    _check_join_keys(2, n, top)
    count_a, count_b = {-1: 1, **a.cell_counts()}, {-1: 1, **b.cell_counts()}
    # per dimension: its splits (dim sigma, dim tau) and their sizes (n_sigma, n_tau)
    splits, shapes = {}, {}
    for d in range(top + 1):
        splits[d] = [(s, d - 1 - s) for s in range(max(-1, d - 1 - b.dim), min(a.dim, d) + 1)]
        shapes[d] = [(count_a[s], count_b[t]) for s, t in splits[d]]
        _check_cell_count(d, sum(ns * nt for ns, nt in shapes[d]))
    has_action = a.action is not None and b.action is not None
    left, right = _JoinSide(a, 0, n, has_action), _JoinSide(b, a.n_vertices, n, has_action)
    keys: dict[int, _Table] = {}
    faces: dict[int, _Table] = {}
    witness = None
    # per split (dim sigma, dim tau) of the previous dimension: the sorted
    # position of each of its cells, as an (n_sigma, n_tau) array
    place: dict[tuple[int, int], np.ndarray] = {}
    for d in range(top + 1):
        bounds = np.cumsum([0] + [ns * nt for ns, nt in shapes[d]]).tolist()
        blocks = list(zip(splits[d], shapes[d], bounds, bounds[1:]))
        if d:
            face = np.empty((bounds[-1], d + 1), dtype=_face_dtype(len(keys[d - 1])))
            for (s, t), (ns, nt), r0, r1 in blocks:
                block = face[r0:r1].reshape(ns, nt, d + 1)
                for i in range(s + 1):  # (d_i sigma, tau)
                    block[:, :, i] = place[s - 1, t][left.faces[s][:, i]]
                for j in range(t + 1):  # (sigma, d_j tau)
                    block[:, :, s + 1 + j] = place[s, t - 1][:, right.faces[t][:, j]]
        if d == top:
            # one split, (top of A, top of B), already in key order, so its keys
            # are generated from the factors' on read and no position table is
            # needed.  Nor can it hold the first fixed cell: if sigma and tau
            # are both fixed, so is (sigma, empty), a cell of lower dimension.
            keys[d] = _JoinTop(left.keys[a.dim], right.keys[b.dim], n ** (b.dim + 1),
                               _key_dtype([n] * (d + 1)))
            faces[d] = _Stored(face)
            break
        # formed in the width of this dimension's bound, which may be wider than the splits'
        width = _key_dtype([n] * (d + 1))
        key = np.empty(bounds[-1], dtype=width)
        fixed = np.empty(bounds[-1], dtype=bool)
        for (s, t), (ns, nt), r0, r1 in blocks:
            outer = np.multiply(left.keys[s], n ** (t + 1), dtype=width)
            np.add.outer(outer, right.keys[t], out=key[r0:r1].reshape(ns, nt))
            if has_action:
                np.logical_and.outer(
                    left.fixed[s], right.fixed[t], out=fixed[r0:r1].reshape(ns, nt)
                )
        # below the top every dimension has two splits or more; the sort merges them
        order = np.argsort(key, kind="stable")
        key, fixed = key[order], fixed[order]
        if d:
            face = face[order]
        pos = np.empty(len(order), dtype=np.int32)
        pos[order] = np.arange(len(order), dtype=np.int32)
        hits = np.flatnonzero(fixed) if has_action and witness is None else ()
        if len(hits):
            witness = (d, tuple(_key_rows(key[hits[:1]], [n] * (d + 1))[0].tolist()))
        place = {split: pos[r0:r1].reshape(shape) for split, shape, r0, r1 in blocks}
        keys[d] = _Stored(key)
        if d:
            faces[d] = _Stored(face)
    labels = a.labels + b.labels if a.labels is not None and b.labels is not None else None
    jf = None
    if a.join_factors is not None and b.join_factors is not None:
        jf = a.join_factors + b.join_factors
    action = np.concatenate([a.action, b.action + a.n_vertices]) if has_action else None
    return SimplicialComplex._from_table(a.p, keys, faces, action, witness, n_vertices=n,
                                         labels=labels, join_factors=jf)


def _check_copies(copies: int) -> None:
    if copies < 1:
        raise ShapeError(f"need at least one copy, got {copies}")


def join_power(base: SimplicialComplex, copies: int) -> SimplicialComplex:
    """The join of ``copies`` copies of base, folded from the left by
    ``join_complex``.  The caps are checked for the whole product first,
    without listing the copies, so a refusal comes before anything is built."""
    _check_copies(copies)
    if base.is_empty:
        return base  # the empty complex is the join identity
    _join_cells(copies, repeat(base.total_cells(), copies))
    _check_join_keys(copies, copies * base.n_vertices, copies * (base.dim + 1) - 1)
    out = base
    for _ in range(copies - 1):
        out = join_complex(out, base)
    return out


def standard_join_model(p: int, copies: int) -> SimplicialComplex:
    """The (copies)-fold join of the p-point free orbit; the reference model
    of maximal-connectivity free complexes in each dimension.  The caps of the
    whole join, p cells a copy, are checked before the orbit is listed."""
    _check_copies(copies)
    _join_cells(copies, repeat(p, copies))
    _check_join_keys(copies, copies * p, copies - 1)
    cyc = [(i + 1) % p for i in range(p)]
    one = SimplicialComplex.discrete(p, cyc, p, labels=[f"g{i}" for i in range(p)])
    out = join_power(one, copies)
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


# -- cubical complexes -----------------------------------------------------------


class CubicalComplex(CellComplex):
    """Cells (base corner, extent mask) on a periodic grid, q points per axis.

    A mask bit set at axis t extends the cell one grid step along t; a
    k-cell has k bits set.  The action is an axis permutation: image base
    coordinate t is drawn from source axis axis_map[t].  Its tables are
    grown one dimension from the one below by ``torusgrid.build_approx``,
    with ``action`` the vertex permutation that the axis permutation induces.
    """

    # -- cell rules -------------------------------------------------------------------

    def _radices(self, d: int) -> list[int]:
        return [self.q] * self.n_axes + [1 << self.n_axes]

    def _face_signs(self, d: int) -> tuple[int, ...]:
        # per set mask bit s (in axis order): the far face, which steps the
        # base across that axis, then the base face
        return tuple(sign for s in range(d) for sign in ((-1) ** s, -((-1) ** s)))

    def _face_pairs(self, d: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        # dropping set bits s < t with choices e, f in either order: bit t is
        # bit t-1 once bit s is gone, while bit s keeps its place
        return [
            ((2 * s + e, 2 * (t - 1) + f), (2 * t + f, 2 * s + e))
            for t in range(d) for s in range(t) for e in (0, 1) for f in (0, 1)
        ]

    # -- queries ---------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.n_cells(0)

    @property
    def join_factors(self):
        return None  # cubical complexes are never structural joins

    def vertex_index(self, coords: Sequence[int]) -> int:
        idx = self._find_cell(0, [int(x) for x in coords] + [0])
        if idx < 0:
            raise ShapeError(f"grid point {tuple(coords)} is not a vertex of the complex")
        return idx

    def vertex_label(self, v: int) -> str:
        return ",".join(map(str, self._rows(0, [v])[0, : self.n_axes].tolist()))

    def carrier_cell(self, vertex_ids: Iterable[int]) -> tuple[int, ...] | None:
        """Smallest grid cell whose corner set contains the given vertices."""
        ids = sorted(set(int(v) for v in vertex_ids))
        if not ids:
            return None
        D = self.n_axes
        coords = self._rows(0, ids)[:, :D]
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

    witness = c.free_witness()
    free = witness is None
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
