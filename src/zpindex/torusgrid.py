"""Cubical approximations of periodic-point sets inside a discretized torus.

A period-p point over a circle-valued alphabet is a point of the p-torus
(the (p*N)-torus when letters are N-tuples).  On a grid of q points per
circle the approximation keeps the cubical cells all of whose corners
satisfy the defining constraint.  This is an inner, vertex-wise
approximation: the constraint is not convex on cells, so outputs carry their
resolution and are read beside a stability check at 2q, never as a
homotopy-equivalence claim.  Thresholds must be multiples of the grid step
2/q, so every comparison is exact; 4 | q keeps 1/2 and 1 on the grid.

The vertices are the rows of the subshift's ``periodic_words``, under that
search's caps.  Their grid points and coordinates come from the shared key
codec (``_row_keys``, ``_key_rows``), and the rotation action is the shared
shift action (``_word_action``).  Each dimension grows from the one below with
the grid and face reads of Wagner, Chen and Vucini, *Efficient computation of
persistent homology for cubical data* (2012), in time and memory that follow
the cells, not the grid.  Caps, each checked before its allocation: cell keys
below 2^63, the cell cap, and int32 move tables.  The growths read int32
column-major faces, -1 where a growth found no cell; each face table is kept
row-major, uint16 when the dimension below has at most 2^16 cells, and int32
otherwise (``_face_dtype``).  The general cubical validation is the tests'
oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alphabets import circle_grid, product_alphabet
from .complexes import (_INDEX_LIMIT, _KEY_LIMIT, CubicalComplex, _face_dtype, _Stored,
                        _is_prime, _key_dtype, _key_rows, _row_keys, cycle_complex)
from .coindex import EquivariantMapCert
from .errors import ResourceCapError, ShapeError
from .homology import BettiVector, betti_numbers
from .shiftspaces import AdjacentGap, Separation, SubshiftSpec, _word_action

__all__ = [
    "TorusGridSpec",
    "z_torus_spec",
    "separated_torus_spec",
    "build_approx",
    "betti_profile",
    "StabilityReport",
    "stability_check",
    "canonical_certificate_P2",
    "DEFAULT_CELL_CAP",
]

DEFAULT_CELL_CAP = 2_000_000


@dataclass(frozen=True)
class TorusGridSpec:
    """Which periodic-point set to approximate, and at what resolution."""

    p: int
    q: int
    family: AdjacentGap | Separation
    n_circles: int = 1

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ShapeError(f"period must be prime, got {self.p}")
        if self.q < 8 or self.q % 4:
            raise ShapeError(f"resolution needs q >= 8 with 4 | q, got {self.q}")
        if self.n_circles < 1:
            raise ShapeError("letters need at least one circle factor")
        step = Fraction(2, self.q)
        if isinstance(self.family, Separation):
            if self.family.m != 1:
                raise ShapeError("torus approximations cover the one-step separation family only")
            bar = self.family.delta
        else:
            bar = self.family.bar
        if bar % step != 0:
            raise ShapeError(f"threshold {bar} is not a multiple of the grid step {step}")
        if bar > 1:
            raise ShapeError(f"threshold {bar} exceeds the circle diameter 1")

    @property
    def n_axes(self) -> int:
        return self.p * self.n_circles

    def letter_alphabet(self):
        return product_alphabet(*[circle_grid(self.q)] * self.n_circles)

    def subshift(self) -> SubshiftSpec:
        return SubshiftSpec(self.letter_alphabet(), self.family)

    def refined(self) -> TorusGridSpec:
        return TorusGridSpec(self.p, 2 * self.q, self.family, self.n_circles)

    def token(self) -> str:
        if isinstance(self.family, AdjacentGap):
            kind = "Y" if self.family.exact else "Z"
            return f"{kind}:p={self.p},q={self.q}"
        return f"XSN:p={self.p},q={self.q},N={self.n_circles},delta={self.family.delta}"


def z_torus_spec(p: int, q: int) -> TorusGridSpec:
    """Approximation spec for the 'one adjacent gap is at least 1/2' family."""
    return TorusGridSpec(p, q, AdjacentGap(Fraction(1, 2)))


def separated_torus_spec(p: int, q: int, n_circles: int, delta: Fraction) -> TorusGridSpec:
    """Approximation spec for consecutive letters at distance >= delta on (S^1)^N."""
    return TorusGridSpec(p, q, Separation(1, Fraction(delta)), n_circles)


def _check_cell_cap(spec: TorusGridSpec, total: int, cap: int) -> None:
    if total > cap:
        raise ResourceCapError(
            f"approximation for {spec.token()} has at least {total} cells, above the "
            f"cell cap ({cap}); no partial complex is returned"
        )


def _check_move_table(d: int, n: int, n_axes: int) -> None:
    """Refuse a dimension of n cells whose move and growth tables, at most
    n_axes int32 slots per cell and n_axes of padding, could hold 2^31 or more
    entries: their int32 slot indices would wrap.  This also keeps n below
    the int32 face limit."""
    if n_axes * (n + 1) >= _INDEX_LIMIT:
        raise ResourceCapError(
            f"dimension {d} would have {n} cells on {n_axes} axes: its move table of "
            f"{n_axes} x {n + 1} = {n_axes * (n + 1)} entries is past the int32 flat index "
            f"limit 2^31; nothing of that dimension was built"
        )


@dataclass(eq=False)
class _Cells:
    """One dimension's cells as their growth reads them.

    A cell is read only along the axes t above its top mask bit (-1 for a
    vertex).  ``by_top`` lists the cells by ascending top bit, the first
    below[t] of them with top < t, and rank[c] is cell c's place in that
    list.  So each int32 table holds for each axis t one block of below[t]
    slots from start[t], slot start[t] + rank[c] for cell c, closed by one
    -1: ``move`` each cell's move one step along t and ``grow`` (set by this
    dimension's growth) the cell grown from it along t, -1 where that is no
    cell.  rank[n] is -1, so a read at cell -1 finds a block's closing -1.
    """

    key: np.ndarray
    by_top: np.ndarray | None
    rank: np.ndarray
    start: np.ndarray  # start[D] is the table length
    move: np.ndarray | None
    grow: np.ndarray | None = None


def _starts(below: list[int]) -> np.ndarray:
    """The start of each axis block of a slot table, and its length last."""
    return np.cumsum([0] + [b + 1 for b in below], dtype=np.int32)


def _grow(cells: _Cells, n: int, faces, lower: _Cells | None):
    """The n (d+1)-cells grown from the d-cells along each axis t where
    cells.move holds their move along t: their ``_Cells`` and their faces in
    column-major order, both in key order.

    faces are the d-cells' (None for d = 0) and lower the (d-1)-cells', whose
    growths give the new faces.  This sets cells.grow, and drops each input
    table after its last read: cells.by_top, cells.move and lower.grow.
    The cell grown from c along t has as faces along t the move of c and c
    itself, and along a lower bit the t-growth of that face of c, or -1
    where that growth found no cell.
    """
    D, d = len(cells.start) - 1, 0 if faces is None else faces.shape[1] // 2
    move, rank, start = cells.move, cells.rank, cells.start
    # the (t, src) pairs where the move is a cell: the slots of the moves, in one
    # block per axis t of the cells with top < t, ascending in src's rank; found
    # one block at a time, so no intp index of the whole table is held
    hit = move >= 0
    blocks = [0]
    slot = np.empty(n, dtype=np.int32)
    for t in range(D):
        r = np.flatnonzero(hit[start[t]:start[t + 1]])
        blocks.append(blocks[-1] + len(r))
        np.add(r, start[t], out=slot[blocks[-2]:blocks[-1]], casting="unsafe")
    del hit, r
    axis = np.repeat(np.arange(D, dtype=np.int8), np.diff(blocks))
    grow_at = np.take(start, axis)  # where each pair's own axis block starts, in both tables
    far = np.take(move, slot)
    rsrc = slot - grow_at
    src = np.take(cells.by_top, rsrc)
    cells.by_top = None
    key = np.take(cells.key, src)
    key += np.left_shift(1, axis, dtype=key.dtype)
    order = np.argsort(key, kind="stable")  # merges the blocks' runs into key order
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    # the new cells by top bit are the pairs in block order: rank is order
    rank_up = np.empty(n + 1, dtype=np.int32)
    rank_up[:-1], rank_up[-1] = order, -1
    key = np.take(key, order)
    src = np.take(src, order)
    far = np.take(far, order)
    top = np.take(axis, order)
    del order
    cells.grow = grow = np.full(len(move), -1, dtype=np.int32)
    grow[slot] = pos
    del slot
    # moving commutes with growing: the move along u of c grown along t is the
    # t-growth of c's move, read only along u > t, which the pairs of the
    # first u blocks have; those pairs, in order, are block u of the new table
    start_up = _starts(blocks[:D])
    move_up = np.empty(start_up[-1], dtype=np.int32)
    # each slot read is worked out in place, in the slice of the table it fills.
    # Each take into out has mode="wrap", so it writes unbuffered; it reads -1 as
    # the last entry, as "raise" does, and takes no index out of range here
    for u in range(D):
        k, s = blocks[u], start_up[u]
        at = move_up[s:s + k]
        np.add(rsrc[:k], start[u], out=at)
        np.take(move, at, out=at, mode="wrap")  # the move of src along u
        np.take(rank, at, out=at, mode="wrap")
        at += grow_at[:k]
        np.take(grow, at, out=at, mode="wrap")
        move_up[s + k] = -1
    cells.move = None
    del move, rsrc, axis, grow_at
    face = np.empty((n, 2 * d + 2), dtype=np.int32, order="F")
    face[:, 2 * d], face[:, 2 * d + 1] = far, src
    src = face[:, 2 * d + 1]  # read from its face column: one copy is kept
    del far
    if d:
        grow_at = np.take(lower.start, top)
        for j in range(2 * d):
            at = face[:, j]  # worked out in place, in the column it fills
            np.take(faces[:, j], src, out=at, mode="wrap")
            np.take(lower.rank, at, out=at, mode="wrap")
            at += grow_at
            np.take(lower.grow, at, out=at, mode="wrap")
        lower.grow = None
    return _Cells(key, pos, rank_up, start_up, move_up), face


def build_approx(spec: TorusGridSpec, cell_cap: int | None = None) -> CubicalComplex:
    """The inner cubical approximation with the letter-rotation action.

    A cell enters iff all of its corners satisfy the family predicate.  The
    rotation action is free on every valid approximation: a rotation-fixed
    cell would contain a rotation-fixed corner, i.e. a constant word, and
    constant words violate every positive-threshold family.

    Keys are x * 2^D + M for grid point x in C order (the word read in radix
    q^N) and extent mask M; their 2^63 limit is checked before the search.
    They are int32 when their bound (2q)^D is at most 2^31 (``_key_dtype``),
    and the vertices' x, below q^D, may be int32 when their keys are not.
    For t above the top bit of M, (x, M + e_t) is a cell iff (x, M) and its
    move (x + e_t, M) are, so each dimension grows from the one below, its
    cells counted against the cell cap and the int32 limit of its move table
    (``_check_move_table``) before any of their tables exists.  Each
    dimension keeps its keys and its faces only, the faces in the width
    ``_face_dtype`` gives for the dimension below.
    """
    cap = DEFAULT_CELL_CAP if cell_cap is None else cell_cap
    q, n, D = spec.q, spec.n_circles, spec.n_axes
    # keys stay below (2q)^D >= 2^(D * (bit_length(2q) - 1)); only a small D forms the power
    if D * ((2 * q).bit_length() - 1) >= 63 or (2 * q) ** D >= _KEY_LIMIT:
        raise ShapeError(f"approximation for {spec.token()}: the cell keys x*2^{D} + M on "
                         f"{q}^{D} grid points would reach 2^63; nothing was built")
    words = spec.subshift().periodic_words(spec.p)
    total = len(words)
    # a word read in radix q^n is its grid point's index in C order
    flat = _row_keys(words, [q**n] * spec.p)
    try:
        action = _word_action(words)
    except ShapeError:
        raise ShapeError(f"vertex set of {spec.token()} is not invariant under the letter rotation") from None
    del words
    # image axis t reads source axis t + n: the rotation of the p letter slots
    axis_map = np.array([(t + n) % D for t in range(D)], dtype=np.int64)
    _check_cell_cap(spec, total, cap)
    _check_move_table(0, total, D)
    key = np.left_shift(flat, D, dtype=_key_dtype([q] * D + [1 << D]))
    coords = _key_rows(flat, [q] * D)
    # a fixed cell's base corner is a fixed vertex: the first fixed cell is one
    fixed = np.flatnonzero(action == np.arange(total))
    witness = None
    if len(fixed):
        witness = (0, (*coords[fixed[0]].tolist(), 0))
    at_edge = coords == q - 1  # where a move along each axis wraps round
    del coords, fixed
    # a vertex is read along every axis: block t of its tables is row t
    move = np.full((D, total + 1), -1, dtype=np.int32)
    for t in range(D):
        stride = q ** (D - 1 - t)
        moved = flat.copy()
        moved[at_edge[:, t]] -= q * stride  # the wrap first, so no sum passes q^D
        moved += stride
        at = np.searchsorted(flat, moved)  # len(flat) past the last vertex, clipped below
        np.copyto(move[t, :-1], at, where=np.take(flat, at, mode="clip") == moved)
    del flat, at_edge, moved, at
    rank = np.arange(total + 1, dtype=np.int32)
    rank[-1] = -1
    cells = _Cells(key, rank[:-1], rank, _starts([total] * D), move.reshape(-1))
    del key, move, rank
    keys, faces = {}, {}
    lower, d = None, 0
    while len(cells.key):
        keys[d] = _Stored(cells.key)
        grown = int(np.count_nonzero(cells.move >= 0))
        total += grown
        _check_cell_cap(spec, total, cap)
        _check_move_table(d + 1, grown, D)
        upper, face = _grow(cells, grown, faces.get(d), lower)
        if face.min(initial=0) < 0:
            raise ShapeError(f"face closure fails between dimensions {d + 1} and {d}")
        lower, cells, d = cells, upper, d + 1
        if len(cells.key):
            faces[d] = face  # column-major until the next growth has read it
    # beside the tables, each copy would set the build's peak
    for d in faces:
        faces[d] = _Stored(faces[d].astype(_face_dtype(len(keys[d - 1])), order="C"))
    return CubicalComplex._from_table(spec.p, keys, faces, action, witness, q=spec.q,
                                      n_axes=D, axis_map=axis_map)


def betti_profile(spec: TorusGridSpec, ell: int, cell_cap: int | None = None) -> BettiVector:
    """Reduced Betti numbers of the approximation at the spec's resolution."""
    return betti_numbers(build_approx(spec, cell_cap=cell_cap), ell)


@dataclass(frozen=True)
class StabilityReport:
    spec: TorusGridSpec
    coarse: BettiVector
    fine: BettiVector

    @property
    def agree(self) -> bool:
        return self.coarse.reduced == self.fine.reduced

    def to_json(self) -> dict:
        return {
            "spec": self.spec.token(),
            "resolution": self.spec.q,
            "refined_resolution": self.spec.q * 2,
            "coarse": self.coarse.to_json(),
            "fine": self.fine.to_json(),
            "agree": self.agree,
        }


def stability_check(spec: TorusGridSpec, coarse: BettiVector,
                    cell_cap: int | None = None) -> StabilityReport:
    """The profile at q, ``coarse``, beside a fresh one at 2q over the same
    field, with a plain agree/disagree verdict.

    Disagreement is reported as-is; profiles are never merged or averaged.
    """
    return StabilityReport(spec, coarse,
                           betti_profile(spec.refined(), coarse.field, cell_cap=cell_cap))


def canonical_certificate_P2(q: int, target: CubicalComplex) -> EquivariantMapCert:
    """The antipodal-circle certificate into ``target``, the period-2
    approximation at q.

    Domain: the q-cycle with the antipodal action (free, connected, one
    dimensional, so a genuine 1-model).  Vertex map: x -> (x, x + q/2).
    Image pairs sit at distance exactly 1 >= 1/2, and the antipode goes to
    the coordinate swap because x + q is x on the grid.
    """
    if q < 8 or q % 4:
        raise ShapeError(f"certificate needs q >= 8 with 4 | q, got {q}")
    half = q // 2
    domain = cycle_complex(q, [(j + half) % q for j in range(q)], 2)
    vertex_map = tuple(target.vertex_index((x, (x + half) % q)) for x in range(q))
    return EquivariantMapCert(
        p=2,
        n=1,
        vertex_map=vertex_map,
        target_ref=f"Z:p=2,q={q}",
        domain=domain,
    )
