"""Reduced Betti numbers over a prime field by exact boundary-matrix ranks.

One assembler serves simplicial and cubical complexes alike: the boundary
leaving dimension d is a sparse matrix whose column j lists the faces of
d-cell j, read from the face indices and sign pattern the complex found
once at validation.  The composition of consecutive boundaries is
verified to vanish at construction.  Ranks come from a left-to-right
column reduction over F_ell that keeps one normalized pivot column per
pivot row: each incoming column is reduced against existing pivots at its
largest remaining row until it either dies (a cycle) or claims a new
pivot.  With boundary columns ordered lexicographically this stays near
the input sparsity on the join and grid complexes this library produces,
which is what makes the million-column cases tractable.  No floating
point, no randomization.

The augmentation to the ground field is the implicit dimension-0 boundary,
so all Betti numbers are reduced.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import CellComplex, _is_prime
from .errors import ShapeError

__all__ = [
    "BettiVector",
    "ChainComplexFp",
    "boundary_matrices",
    "betti",
    "betti_numbers",
    "connectivity",
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


@dataclass
class _Csc:
    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray  # already reduced mod ell, nonzero


class ChainComplexFp:
    """Boundary matrices of one complex over F_ell, composition-checked."""

    def __init__(self, ell: int, n_cells: tuple[int, ...], boundaries: list[_Csc]):
        if not _is_prime(ell):
            raise ShapeError(f"homology field order must be prime, got {ell}")
        self.ell = ell
        self.n_cells = n_cells
        self.boundaries = boundaries  # index d-1 holds the boundary C_d -> C_{d-1}
        self._check_compositions()

    @property
    def top_dim(self) -> int:
        return len(self.n_cells) - 1

    def _check_compositions(self):
        ell = self.ell
        # augmentation after the edge boundary: column sums of the d=1 matrix
        if self.boundaries:
            b1 = self.boundaries[0]
            sums = np.zeros(b1.n_cols, dtype=np.int64)
            np.add.at(sums, np.repeat(np.arange(b1.n_cols), np.diff(b1.indptr)), b1.data)
            if np.any(sums % ell):
                raise ShapeError("augmentation composed with the edge boundary is nonzero")
        for d in range(1, len(self.boundaries)):
            lo, hi = self.boundaries[d - 1], self.boundaries[d]
            if not _composition_vanishes(lo, hi, ell):
                raise ShapeError(
                    f"boundary composition does not vanish between dimensions {d + 1} and {d - 1}"
                )

    def rank(self, d: int) -> int:
        """Rank of the boundary leaving dimension d (d = 0 is the augmentation)."""
        if d == 0:
            return 1 if self.n_cells and self.n_cells[0] > 0 else 0
        if d > self.top_dim:
            return 0
        b = self.boundaries[d - 1]
        return _rank_from_csc(b.n_cols, b.indptr, b.indices, b.data, self.ell)


def _composition_vanishes(lo: _Csc, hi: _Csc, ell: int) -> bool:
    """Does lo @ hi vanish mod ell?  Entries are expanded, grouped, summed."""
    if hi.n_cols == 0 or lo.n_cols == 0:
        return True
    per_col = np.diff(lo.indptr)
    if np.any(per_col != per_col[0]):
        raise ShapeError("boundary columns of unequal width cannot be composition-checked")
    c1 = int(per_col[0])
    rows_mat = lo.indices.reshape(lo.n_cols, c1).astype(np.int64)
    vals_mat = lo.data.reshape(lo.n_cols, c1).astype(np.int64)
    cols = np.repeat(np.arange(hi.n_cols, dtype=np.int64), np.diff(hi.indptr))
    mids = hi.indices.astype(np.int64)
    key = (cols[:, None] * lo.n_rows + rows_mat[mids]).reshape(-1)
    val = (hi.data.astype(np.int64)[:, None] * vals_mat[mids]).reshape(-1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    val = val[order]
    starts = np.concatenate([[0], np.nonzero(key[1:] != key[:-1])[0] + 1])
    sums = np.add.reduceat(val, starts)
    return not np.any(sums % ell)


def _rank_from_csc(n_cols, indptr, indices, data, ell) -> int:
    """Column reduction over F_ell; returns the number of pivot columns."""
    pivots: dict[int, list[tuple[int, int]]] = {}
    rank = 0
    ptr = indptr.tolist()
    idx = indices.tolist()
    dat = data.tolist()
    get_piv = pivots.get
    for j in range(n_cols):
        s, e = ptr[j], ptr[j + 1]
        if s == e:
            continue
        work: dict[int, int] = {}
        for t in range(s, e):
            v = dat[t] % ell
            if v:
                work[idx[t]] = v
        while work:
            low = max(work)
            piv = get_piv(low)
            if piv is None:
                f = work.pop(low)
                if f != 1:
                    inv = pow(f, ell - 2, ell)
                    piv_col = [(r, v * inv % ell) for r, v in work.items()]
                else:
                    piv_col = list(work.items())
                pivots[low] = piv_col
                rank += 1
                break
            f = work.pop(low)
            for r, v in piv:
                nv = (work.get(r, 0) - f * v) % ell
                if nv:
                    work[r] = nv
                else:
                    work.pop(r, None)
    return rank


def boundary_matrices(c, ell: int) -> ChainComplexFp:
    """Assemble and composition-check all boundary matrices of a complex.

    Column j of the boundary leaving dimension d lists the faces of d-cell j
    found at validation; its row indices are a view of the face array.
    """
    if not _is_prime(ell):
        raise ShapeError(f"homology field order must be prime, got {ell}")
    if not isinstance(c, CellComplex):
        raise ShapeError(f"cannot assemble boundaries for {type(c).__name__}")
    bnds = []
    for d in range(1, c.dim + 1):
        faces = c.faces[d]
        n, k = faces.shape
        signs = np.array(c.face_signs[d], dtype=np.int64) % ell
        bnds.append(
            _Csc(
                n_rows=c.n_cells(d - 1),
                n_cols=n,
                indptr=np.arange(n + 1, dtype=np.int64) * k,
                indices=faces.reshape(-1),
                data=np.tile(signs, n),
            )
        )
    counts = tuple(c.n_cells(d) for d in range(c.dim + 1))
    return ChainComplexFp(ell, counts, bnds)


def betti(cc: ChainComplexFp) -> BettiVector:
    """b~_k = dim ker(boundary_k) - rank(boundary_{k+1}), with the augmentation
    standing in for the dimension-0 boundary."""
    if not cc.n_cells:
        return BettiVector(cc.ell, ())
    ranks = [cc.rank(d) for d in range(cc.top_dim + 2)]
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


def connectivity(c, ell: int | None = None) -> int:
    bv = betti_numbers(c, ell)
    return connectivity_from_betti(bv.reduced, c.dim)
