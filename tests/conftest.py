"""Shared independent oracles for the test suite.

These deliberately re-derive results with different machinery than the
package: dense row-echelon elimination and a left-to-right column
reduction of the boundary itself instead of the package's coboundary
reduction with clearing, and plain itertools scans instead of
backtracking enumeration.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np


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
        ranks.append(dense_rank_mod(csc_to_dense(b), ell))
    ranks.append(0)
    return tuple(
        cc.n_cells[d] - ranks[d] - ranks[d + 1] for d in range(len(cc.n_cells))
    )


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


def brute_z_words(q: int, L: int) -> list[tuple[int, ...]]:
    half = Fraction(1, 2)
    out = []
    for w in product(range(q), repeat=L):
        if all(
            grid_dist(q, w[(n - 1) % L], w[n]) >= half
            or grid_dist(q, w[n], w[(n + 1) % L]) >= half
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
