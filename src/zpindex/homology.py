"""Reduced Betti numbers over a prime field by exact boundary-matrix ranks.

The boundary leaving dimension d of a simplicial or cubical complex is its
face table: column j lists the faces of d-cell j that validation found,
with the dimension's sign pattern.  A boundary (``_Boundary``) is only the
complex and d; it reads the faces through the table's ``take`` and
``blocks``, and the tables are read-only, so what is reduced is what was
checked.  ``ChainComplexFp`` takes only the boundaries of one complex and
checks boundary o boundary = 0 and augmentation o boundary = 0 by the
complex's face identities (``_check_boundary_square``), which give zero
over the integers without forming any product.

rank(boundary_d) is the number of pivot rows ("lows", largest rows of the
reduced columns) of one of two matrices, reduced from the smaller end of
the complex: down from the top dimension when it has fewer cells than
dimension 0, otherwise up from dimension 0 (ties go up).  The first matrix
reduced has (almost) nothing cleared, so its end should be the smaller.

* Down.  The boundary itself: its column j is face-table row j, whose low
  is its largest face, a running maximum over the face slots of each block
  of the table; no transpose is formed.  Ranks go from the top down.  A
  d-cell that was a low of the reduced boundary_{d+1} is the largest entry
  of a boundary, which boundary_d kills; so its column is a combination of
  the columns of smaller d-cells and is skipped unread.  Nothing is
  cleared at the top.
* Up.  The coboundary delta^{d-1} = boundary_d^T, whose column i lists the
  cofaces of (d-1)-cell i.  Its low is the largest d-cell with i as a
  face, found by one ``np.maximum.at`` per face slot over each
  cache-sized block of the face table; the transpose itself is built, by
  one stable sort of the whole table, only when some live column collides.
  Ranks go from dimension 0 up.  A (d-1)-cell that was a low of the
  reduced delta^{d-2} is cleared the same way; for d = 1 the
  augmentation's all-ones coboundary clears the last vertex.

Both directions then share one tail, with the coefficients mod ell in the
narrowest signed type that holds ell - 1 (a larger ell is refused):

* Clearing.  The cleared columns are the pivot rows of the matrix reduced
  just before, an int32 array kept only until this reduction has read it;
  each rank is remembered as a count.
* Apparent pivots.  Of the remaining columns, every one whose low no
  other column shares is a pivot as it stands; columns with distinct lows
  are independent.  This is found in numpy, without a Python loop: by
  counting every possible low when they are few against the columns, else
  by sorting the lows (``_apparent``).  The candidate columns and their
  lows are int32, as no dimension holds 2^31 cells.  The apparent columns
  are kept in one int32 array indexed by low, -1 where none owns it.
* Fallback.  Only the columns that share a low are reduced, by a column
  reduction that keeps one normalized pivot column per pivot row.  A low
  owned by an apparent column is served by normalizing that column on
  first use.  It reads each column through one accessor: going down, a
  face-table row with the dimension's sign list, normalized at its low by
  a sign list precomputed per face slot; going up, a slice of the
  transpose.  The working column is a dict of its entries plus a max-heap
  of its rows with lazy deletion, the working-column scheme of Ripser
  (Bauer, J. Appl. Comput. Topol. 2021, arXiv:1908.02518): a row is pushed
  when it enters the dict, an entry that cancels stays in the heap, and a
  heap top no longer in the dict is popped as stale.  The low is then the
  heap top, found without scanning the column.

Clearing works in both directions (Chen & Kerber, "Persistent homology
computation with a twist", EuroCG 2011; de Silva, Morozov &
Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse
Problems 2011).  ``ChainComplexFp.rank_order`` gives the order in which
each rank(d) reduces one matrix, and ``reduction_counts[d]`` describes the
matrix reduced for rank d, whichever direction that was.

The rank is the number of pivot rows.  All arithmetic is exact over F_ell:
no floating point, no randomization.  The augmentation to the ground field
is the implicit dimension-0 boundary, so all Betti numbers are reduced.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

import numpy as np

from .complexes import CellComplex, _is_prime
from .errors import ShapeError

__all__ = [
    "BettiVector",
    "ChainComplexFp",
    "boundary_matrices",
    "betti",
    "betti_numbers",
    "connectivity_from_betti",
]


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers b~_k, k = 0..dim, over F_field."""

    field: int
    reduced: tuple[int, ...]

    def to_json(self) -> dict:
        conn = connectivity_from_betti(self.reduced, len(self.reduced) - 1)
        return {
            "field": self.field,
            "reduced_betti": list(self.reduced),
            "connectivity": conn,
        }


@dataclass(frozen=True, eq=False)
class _Boundary:
    """The boundary leaving dimension d of a complex: column j has the rows
    of row j of the complex's face table ``faces.table(d)``, with the
    coefficients ``face_signs[d]``, both read from the complex on each use.
    ``indptr``, the column pointers of the matrix in CSC form, is built once
    on first read, read-only."""

    complex: CellComplex
    d: int

    @property
    def signs(self) -> tuple[int, ...]:
        return self.complex.face_signs[self.d]

    @property
    def n_rows(self) -> int:
        return self.complex.n_cells(self.d - 1)

    @property
    def n_cols(self) -> int:
        return self.complex.n_cells(self.d)

    @cached_property
    def indptr(self) -> np.ndarray:
        k = len(self.signs)
        end = (self.n_cols + 1) * k
        ptr = np.arange(0, end, k, dtype=np.int32 if end < 1 << 31 else np.int64)
        ptr.flags.writeable = False
        return ptr


class ChainComplexFp:
    """The boundaries of one complex over F_ell, checked by its face identities."""

    def __init__(self, ell: int, n_cells: tuple[int, ...], boundaries: list[_Boundary]):
        """Refuse with ShapeError unless ell is a prime below 2^63, ``boundaries``
        are those of one complex from d = 1 up and ``n_cells`` are its cell
        counts; then check its face identities."""
        if not _is_prime(ell):
            raise ShapeError(f"homology field order must be prime, got {ell}")
        if ell - 1 > np.iinfo(np.int64).max:
            raise ShapeError(f"homology field order {ell} is too large: {ell - 1} fits no signed numpy type")
        if boundaries:
            c = getattr(boundaries[0], "complex", None)
            if not (
                isinstance(c, CellComplex) and len(boundaries) == c.dim
                and tuple(n_cells) == tuple(c.n_cells(d) for d in range(c.dim + 1))
                and all(isinstance(b, _Boundary) and b.complex is c and b.d == d
                        for d, b in enumerate(boundaries, start=1))
            ):
                raise ShapeError(
                    "a chain complex takes the boundaries of one complex and that "
                    "complex's cell counts"
                )
            c._check_boundary_square()
        elif len(n_cells) > 1:
            raise ShapeError(f"cell counts {tuple(n_cells)} given without boundaries")
        self.ell = ell
        self.n_cells = n_cells
        self.boundaries = boundaries  # index d-1 holds the boundary C_d -> C_{d-1}
        # reduce from the smaller end: down from the top when it has fewer cells than dimension 0
        self.top_down = bool(n_cells) and n_cells[-1] < n_cells[0]
        self._ranks: dict[int, int] = {}
        # pivot rows of a reduced matrix whose successor in rank_order has not read them yet
        self._pivot_rows: dict[int, np.ndarray] = {}
        # per dimension d, for the matrix reduced for rank d (the boundary going
        # down, the coboundary delta^{d-1} going up): cleared, live, apparent and
        # colliding columns, the reduction steps the colliding ones took, the most
        # entries a working column held and the stale heap tops popped
        self.reduction_counts: dict[int, dict[str, int]] = {}

    @property
    def top_dim(self) -> int:
        return len(self.n_cells) - 1

    @property
    def rank_order(self) -> tuple[int, ...]:
        """The dimensions 0 .. top_dim + 1 in the order the reduction reaches
        them; asking for rank(d) in this order reduces one matrix per call."""
        dims = tuple(range(self.top_dim + 2))
        return dims[::-1] if self.top_down else dims

    def rank(self, d: int) -> int:
        """Rank of the boundary leaving dimension d (d = 0 is the augmentation)."""
        if d == 0:
            return 1 if self.n_cells and self.n_cells[0] > 0 else 0
        if d < 0 or d > self.top_dim:
            return 0
        if d not in self._ranks:
            self._reduce(d)
        return self._ranks[d]

    def _reduce(self, d: int) -> None:
        """Reduce the matrix for rank d, 1 <= d <= top_dim, and remember its
        rank.  Its pivot rows are kept only when the next matrix in
        ``rank_order`` reads them: going down, the (d-1)-cells that clear
        boundary_{d-1}, for d > 1; going up, the d-cells that clear delta^d,
        for d < top_dim."""
        counts = self.reduction_counts[d] = {}
        b = self.boundaries[d - 1]
        if self.top_down:
            piv = _boundary_pivots(b, self._cleared(d + 1), self.ell, counts)
        else:
            piv = _coboundary_pivots(b, self._cleared(d - 1), self.ell, counts)
        self._ranks[d] = len(piv)
        if (d > 1) if self.top_down else (d < self.top_dim):
            self._pivot_rows[d] = piv

    def _cleared(self, d: int) -> np.ndarray:
        """The pivot rows of the matrix reduced for rank d, read once by the
        next reduction, which clears its columns with them, and dropped."""
        if d > self.top_dim:  # going down, nothing is cleared at the top
            return np.empty(0, dtype=np.int32)
        if d == 0:
            # going up, the augmentation's coboundary is the all-ones column: its low is the last vertex
            n0 = self.n_cells[0]
            return np.arange(max(n0 - 1, 0), n0, dtype=np.int32)
        if d not in self._ranks:
            self._reduce(d)
        return self._pivot_rows.pop(d)


def _coboundary_pivots(b: _Boundary, cleared: np.ndarray, ell: int, counts: dict[str, int]) -> np.ndarray:
    """Pivot rows of the coboundary delta = b^T over F_ell, reduced exactly.

    The lows come from the face table alone, by ``np.maximum.at``
    (``_coboundary_lows``); delta is formed (``_coboundary_transpose``) only
    when some live column collides.
    """
    return _reduced_pivots(_coboundary_lows(b), cleared, ell, counts,
                           lambda: _slice_columns(*_coboundary_transpose(b, ell), ell))


def _coboundary_lows(b: _Boundary) -> np.ndarray:
    """The low of each column i of delta = b^T: the largest column of b that
    has row i, or -1 when there is none.  The face table is read one block of
    columns of b at a time (``_Table.blocks``), with one ``maximum.at`` per
    face slot on that slot's faces cast to intp."""
    lows = np.full(b.n_rows, -1, dtype=np.int64)
    for s, faces in b.complex.faces.table(b.d).blocks(len(b.signs)):
        cols = np.arange(s, s + len(faces), dtype=np.int64)
        for slot in faces.T:
            np.maximum.at(lows, slot.astype(np.intp), cols)
    return lows


def _coboundary_transpose(b: _Boundary, ell: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """delta = b^T over F_ell as a CSC triple; column i lists the cofaces of
    row-cell i of b, ascending.

    Raveled face-table entry e lies in column e // k of b, with coefficient
    signs[e % k] mod ell; one stable sort of the entries by row turns b into
    delta.
    """
    k, entries = len(b.signs), b.complex.faces.table(b.d).take().reshape(-1)
    # int32 column ids where they fit: the transpose sets the peak RSS of the largest joins
    order = np.argsort(entries, kind="stable")
    t_rows = np.empty(len(order), dtype=np.int32 if b.n_cols < 1 << 31 else np.int64)
    np.floor_divide(order, k, out=t_rows, casting="unsafe")
    order %= k
    t_data = _coefficients(b, ell)[order]
    del order
    t_ptr = np.zeros(b.n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(entries, minlength=b.n_rows), out=t_ptr[1:])
    return t_ptr, t_rows, t_data


def _boundary_pivots(b: _Boundary, cleared: np.ndarray, ell: int, counts: dict[str, int]) -> np.ndarray:
    """Pivot rows of the boundary b itself over F_ell, reduced exactly.

    Column j is face-table row j, whose low is its largest face; no
    transpose is formed.
    """
    return _reduced_pivots(_boundary_lows(b), cleared, ell, counts, lambda: _row_columns(b, ell))


def _boundary_lows(b: _Boundary) -> np.ndarray:
    """The largest face of each column of b, by a running maximum over the
    face slots of each block of the face table: several times faster than a
    max along the short rows.  The lows are int32, the rank engine's
    candidate width, whether the faces are uint16 or int32."""
    lows = np.empty(b.n_cols, dtype=np.int32)
    for s, faces in b.complex.faces.table(b.d).blocks(len(b.signs)):
        slots, out = faces.T, lows[s:s + len(faces)]
        np.copyto(out, slots[0])
        for slot in slots[1:]:
            np.maximum(out, slot, out=out)
    return lows


def _coefficients(b: _Boundary, ell: int) -> np.ndarray:
    """The sign pattern of b mod ell, never 0 since the signs are +-1, in the
    narrowest signed type that holds ell - 1."""
    coef_type = next(t for t in (np.int8, np.int16, np.int32, np.int64) if ell - 1 <= np.iinfo(t).max)
    return (np.array(b.signs, dtype=np.int64) % ell).astype(coef_type)


def _row_columns(b: _Boundary, ell: int):
    """The columns of b as ``_reduce_colliding`` reads them: column j is
    face-table row j with the dimension's coefficients.  Normalized at its
    low, the entry of face slot k, it is the row without slot k and the
    coefficients times that slot's, precomputed per slot: the signs are
    +-1, their own inverses."""
    take, coef = b.complex.faces.table(b.d).take, _coefficients(b, ell).tolist()
    scaled = [[v * f % ell for i, v in enumerate(coef) if i != k] for k, f in enumerate(coef)]

    def column(j: int, low: int | None = None):
        rows = take(j).tolist()
        if low is None:
            return rows, coef
        k = rows.index(low)
        return rows[:k] + rows[k + 1:], scaled[k]

    return column


def _slice_columns(ptr: np.ndarray, rows: np.ndarray, data: np.ndarray, ell: int):
    """The columns of a CSC triple as ``_reduce_colliding`` reads them:
    column j is the slice ptr[j]:ptr[j + 1] of rows and data."""

    def column(j: int, low: int | None = None):
        s, e = int(ptr[j]), int(ptr[j + 1])
        entries = rows[s:e].tolist(), data[s:e].tolist()
        return entries if low is None else _normalized(dict(zip(*entries)), low, ell)

    return column


def _reduced_pivots(lows, cleared, ell, counts, matrix) -> np.ndarray:
    """Pivot rows over F_ell of a matrix whose columns have the largest rows
    ``lows`` (-1 for an empty column), one per rank.

    Columns in ``cleared`` are skipped; every other column whose low no other
    column shares is a pivot as it stands; the rest are reduced by
    ``_reduce_colliding`` on the columns that ``matrix()`` returns, called
    only then.
    """
    live = np.ones(len(lows), dtype=bool)
    live[cleared] = False
    n_live = int(live.sum())
    counts["cleared"], counts["live"] = len(lows) - n_live, n_live
    # column ids and lows fit int32: no dimension holds 2^31 cells (complexes._INDEX_LIMIT)
    live &= lows >= 0
    cand = np.arange(len(lows), dtype=np.int32)[live]
    lows = lows[live].astype(np.int32, copy=False)
    del live
    apparent = _apparent(lows)
    colliding = cand[~apparent]
    counts["apparent"] = int(apparent.sum())
    counts["colliding"] = len(colliding)
    counts["steps"] = counts["max_work"] = counts["stale_pops"] = 0
    if not len(colliding):
        return lows
    owner = np.full(int(lows.max()) + 1, -1, dtype=np.int32)
    owner[lows[apparent]] = cand[apparent]
    found = _reduce_colliding(colliding, owner, matrix(), ell, counts)
    return np.concatenate([lows[apparent], np.array(found, dtype=np.int32)])


# counts per candidate up to which ``_apparent`` counts every value by bincount
_COUNT_FACTOR = 8


def _apparent(lows: np.ndarray) -> np.ndarray:
    """Which of the nonnegative ``lows`` no other entry shares.

    When every low is below ``_COUNT_FACTOR`` times the number of lows, one
    ``np.bincount`` counts them (an array at most that factor times the
    lows), read through a bool table of the counts that are 1; above it, one
    sort of the lows finds the equal neighbours, so a few candidates with
    large lows allocate nothing per possible low.
    """
    n = len(lows)
    if not n or int(lows.max()) < _COUNT_FACTOR * n:
        return (np.bincount(lows) == 1)[lows]
    order = np.argsort(lows)
    ranked = lows[order]
    alone = np.ones(n + 1, dtype=bool)  # alone[i]: ranked[i - 1] and ranked[i] differ
    alone[1:-1] = ranked[1:] != ranked[:-1]
    apparent = np.empty(n, dtype=bool)
    apparent[order] = alone[:-1] & alone[1:]
    return apparent


def _reduce_colliding(colliding, owner, column, ell, counts) -> list[int]:
    """Column reduction over F_ell of the colliding columns; returns their new pivot rows.

    column(j) is column j as a list of rows and a list of values, and
    column(j, low) the same scaled so its entry at row low is 1, without
    that entry (``_row_columns`` going down, ``_slice_columns`` going up).
    ``pivots`` keeps one normalized column per pivot row in that form.
    ``owner[low]`` is the apparent column whose low is ``low``, or -1; that
    column is normalized on first use, and is already counted in the rank.
    ``heap`` holds the negated rows of ``work``, and stale rows that
    cancelled, so its live top is the low.
    """
    pivots: dict[int, tuple[list[int], list[int]]] = {}
    found: list[int] = []
    steps = stale = max_work = 0
    get_piv = pivots.get
    for j in colliding.tolist():
        rows, values = column(j)
        work = dict(zip(rows, values))
        get = work.get
        heap = [-r for r in rows]
        heapify(heap)
        while work:
            low = -heap[0]
            if low not in work:
                heappop(heap)
                stale += 1
                continue
            max_work = max(max_work, len(work))
            piv = get_piv(low)
            if piv is None:
                a = int(owner[low])  # read once: pivots[low] is set here on first use
                if a >= 0:
                    piv = pivots[low] = column(a, low)
            if piv is None:
                pivots[low] = _normalized(work, low, ell)
                found.append(low)
                break
            f = work.pop(low)
            heappop(heap)
            steps += 1
            for r, v in zip(*piv):
                old = get(r)
                if old is None:  # f and v are units mod the prime ell, so f * v is too
                    work[r] = -f * v % ell
                    heappush(heap, -r)
                elif nv := (old - f * v) % ell:
                    work[r] = nv
                else:
                    del work[r]
    counts["steps"], counts["max_work"], counts["stale_pops"] = steps, max_work, stale
    return found


def _normalized(col: dict[int, int], low: int, ell: int) -> tuple[list[int], list[int]]:
    """The column scaled so its low entry is 1, with that entry removed, as
    parallel lists of rows and values (no tuple per entry)."""
    f = col.pop(low)
    if f == 1:
        return list(col), list(col.values())
    inv = pow(f, ell - 2, ell)
    return list(col), [v * inv % ell for v in col.values()]


def boundary_matrices(c, ell: int) -> ChainComplexFp:
    """The chain complex of a complex over F_ell: the boundary leaving dimension
    d reads the faces and signs validation found, checked by face identities."""
    if not isinstance(c, CellComplex):
        raise ShapeError(f"cannot assemble boundaries for {type(c).__name__}")
    bnds = [_Boundary(c, d) for d in range(1, c.dim + 1)]
    return ChainComplexFp(ell, tuple(c.n_cells(d) for d in range(c.dim + 1)), bnds)


def betti(cc: ChainComplexFp) -> BettiVector:
    """b~_k = dim ker(boundary_k) - rank(boundary_{k+1}), with the augmentation
    standing in for the dimension-0 boundary."""
    if not cc.n_cells:
        return BettiVector(cc.ell, ())
    ranks = {d: cc.rank(d) for d in cc.rank_order}
    reduced = []
    for d in range(cc.top_dim + 1):
        b = cc.n_cells[d] - ranks[d] - ranks[d + 1]
        if b < 0:
            raise ShapeError(f"negative Betti number computed in dimension {d}")
        reduced.append(b)
    euler_cells = sum((-1) ** d * cc.n_cells[d] for d in range(cc.top_dim + 1))
    euler_betti = sum((-1) ** d * reduced[d] for d in range(len(reduced)))
    if euler_betti != euler_cells - 1:
        raise ShapeError("reduced Euler identity violated; rank computation inconsistent")
    return BettiVector(cc.ell, tuple(reduced))


def betti_numbers(c, ell: int | None = None) -> BettiVector:
    """Reduced Betti numbers of a complex; the field defaults to the acting prime."""
    field = ell if ell is not None else c.p
    if getattr(c, "is_empty", False) or c.dim < 0:
        return BettiVector(field, ())
    return betti(boundary_matrices(c, field))


def connectivity_from_betti(reduced: tuple[int, ...], dim: int) -> int:
    """Largest k with b~_i = 0 for all i <= k; -1 when b~_0 != 0 or the
    complex is empty; dim when everything vanishes."""
    if dim < 0:
        return -1
    k = -1
    for i, b in enumerate(reduced):
        if b != 0:
            return i - 1
        k = i
    return dim if k == len(reduced) - 1 else k
