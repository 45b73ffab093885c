"""Cubical approximations of periodic-point sets inside a discretized torus.

A period-p point over a circle-valued alphabet is a point of the p-torus
(or the (p*N)-torus when letters are N-tuples).  On a grid with q points
per circle the approximation keeps exactly the cubical cells all of whose
corners satisfy the defining constraint, read cyclically in the p letter
slots.  This is an inner, vertex-wise approximation: the disjunctive
constraint is not convex on cells, so outputs are labeled with their
resolution and should be read together with a stability check at the
doubled resolution, never as a homotopy-equivalence claim.

Thresholds must be exact multiples of the grid step 2/q so that every
comparison is decided exactly; 4 | q keeps 1/2 and 1 on grid boundaries.
The vertices are the period-p words of the spec's subshift, from the same
search that enumerates them, so its letter-pair, node and word caps guard
the approximation too.  An approximation whose cell keys could reach 2^63
is refused before the search.

The cubical table grows one dimension from the one below, with the grid
and face reads of Wagner, Chen and Vucini, *Efficient computation of
persistent homology for cubical data* (2012), in time and memory that
follow the cells, not the grid: nothing grid-sized is allocated.  The
general cubical validation (keys sorted, every face and image found by
binary search) is the tests' oracle, compared byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alphabets import circle_grid, product_alphabet
from .complexes import (_INDEX_LIMIT, _KEY_LIMIT, CubicalComplex, _is_prime, _key_rows,
                        cycle_complex)
from .coindex import EquivariantMapCert
from .errors import ResourceCapError, ShapeError
from .homology import BettiVector, betti_numbers
from .shiftspaces import AdjacentGap, Separation, SubshiftSpec

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
    """Refuse a dimension of n cells whose move and growth tables, n_axes rows
    of n + 1 int32 entries read flat at axis * (n + 1) + cell, would hold 2^31
    or more entries: those int32 products would wrap.  This also keeps n below
    the int32 face limit."""
    if n_axes * (n + 1) >= _INDEX_LIMIT:
        raise ResourceCapError(
            f"dimension {d} would have {n} cells on {n_axes} axes: its move table of "
            f"{n_axes} x {n + 1} = {n_axes * (n + 1)} entries is past the int32 flat index "
            f"limit 2^31; nothing of that dimension was built"
        )


def _grow(key, faces, grow, shift):
    """The (d+1)-cells grown from the d-cells along each axis t where shift
    holds their move along t.

    Takes the d-cells' key and faces (None for d = 0, else in column-major
    order), grow (the d-cell each (d-1)-cell grew into along each axis) and
    shift (each d-cell moved one step along each axis above its top bit),
    and returns the same four tables of d + 1 in key order.
    The cell grown from c along t has as faces along t the move of c and c
    itself, and along a lower bit the t-growth of that face of c, or -1
    where that growth found no cell.
    """
    (D, width), d = shift.shape, 0 if faces is None else faces.shape[1] // 2
    # the (t, src) pairs, flat in shift and grow: ascending, in one block per axis
    at = np.flatnonzero(shift >= 0)
    blocks = np.searchsorted(at, np.arange(D + 1) * width)
    axis = np.repeat(np.arange(D, dtype=np.int32), np.diff(blocks))
    src, far = at - axis * width, np.take(shift, at)
    key = key[src] + (np.int64(1) << axis)
    order = np.argsort(key, kind="stable")  # merges the blocks into key order
    n = len(key)
    pos = np.empty(n, dtype=np.int32)
    pos[order] = np.arange(n, dtype=np.int32)
    grow_up = np.full(shift.shape, -1, dtype=np.int32)
    grow_up.ravel()[at] = pos
    # moving commutes with growing: the move along u of c grown along t is the
    # t-growth of c's move.  Later growths read moves only along axes u > t,
    # which the pairs of the first u blocks have.
    shift_up = np.full((D, n + 1), -1, dtype=np.int32)
    for u in range(1, D):
        k = blocks[u]
        shift_up[u, pos[:k]] = np.take(grow_up, np.take(shift[u], src[:k]) + axis[:k] * width)
    axis, src, far, key = axis[order], src[order], far[order], key[order]
    del at, pos, order
    face = np.empty((n, 2 * d + 2), dtype=np.int32, order="F")
    face[:, 2 * d], face[:, 2 * d + 1] = far, src
    if d:
        lower = axis.astype(np.int64) * grow.shape[1]
        for j in range(2 * d):
            face[:, j] = np.take(grow, faces[:, j][src] + lower)
    return key, face, grow_up, shift_up


def build_approx(spec: TorusGridSpec, cell_cap: int | None = None) -> CubicalComplex:
    """The inner cubical approximation with the letter-rotation action.

    A cell enters iff all of its corners satisfy the family predicate.  The
    rotation action is free on every valid approximation: a rotation-fixed
    cell would contain a rotation-fixed corner, i.e. a constant word, and
    constant words violate every positive-threshold family.

    The vertices are the subshift's period-p words, whose letters' digits are
    the coordinates.  Keys are x * 2^D + M for grid point x in C order, the
    word read in radix q^N, and extent mask M; their 2^63 limit is checked
    before the search.  The action maps cells to cells exactly when every
    word rotated by one letter slot is again a vertex, which the one lookup
    that gives the vertex action checks.  For t above the top bit
    of M, (x, M + e_t) is a cell iff (x, M) and its move (x + e_t, M) are,
    so each dimension grows from the one below, its cells counted against
    the cell cap and the int32 limit of its flat move table
    (``_check_move_table``) before any of their tables exists.  Each
    dimension keeps its keys and int32 faces only; no row table is built.
    Moves and growths are int32 tables, one row per axis,
    whose last column of -1 is what a flat read at a missing cell (-1) finds.
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
    flat, image = np.zeros(total, dtype=np.int64), np.zeros(total, dtype=np.int64)
    for a, b in zip(words.T, np.roll(words, -1, axis=1).T):
        flat, image = flat * q**n + a, image * q**n + b
    # image axis t reads source axis t + n: the rotation of the p letter slots
    axis_map = np.array([(t + n) % D for t in range(D)], dtype=np.int64)
    action = np.searchsorted(flat, image)
    if not np.array_equal(np.take(flat, action, mode="clip"), image):
        raise ShapeError(f"vertex set of {spec.token()} is not invariant under the letter rotation")
    _check_cell_cap(spec, total, cap)
    _check_move_table(0, total, D)
    key = flat << D
    # a fixed cell's base corner is a fixed vertex: the first fixed cell is one
    fixed = np.flatnonzero(action == np.arange(total))
    witness = None
    if len(fixed):
        witness = (0, tuple(_key_rows(key[fixed[:1]], [q] * D + [1 << D])[0].tolist()))
    shift = np.full((D, total + 1), -1, dtype=np.int32)
    for t in range(D):
        stride = q ** (D - 1 - t)
        # axis t is digit n - 1 - t % n of letter t // n, in radix q
        at_edge = words[:, t // n] // q ** (n - 1 - t % n) % q == q - 1
        moved = flat + np.where(at_edge, (1 - q) * stride, stride)
        at = np.searchsorted(flat, moved)  # len(flat) past the last vertex, clipped below
        shift[t, :-1] = np.where(np.take(flat, at, mode="clip") == moved, at, -1)
    keys, faces = {}, {}
    grow, d = None, 0
    while len(key):
        keys[d] = key
        grown = int(np.count_nonzero(shift >= 0))
        total += grown
        _check_cell_cap(spec, total, cap)
        _check_move_table(d + 1, grown, D)
        key, face, grow, shift = _grow(key, faces.get(d), grow, shift)
        if face.min(initial=0) < 0:
            raise ShapeError(f"face closure fails between dimensions {d + 1} and {d}")
        d += 1
        if len(key):
            faces[d] = face  # column-major until the last growth has read it
    for d in faces:
        faces[d] = np.ascontiguousarray(faces[d])
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
    agree: bool

    def to_json(self) -> dict:
        return {
            "spec": self.spec.token(),
            "resolution": self.spec.q,
            "refined_resolution": self.spec.q * 2,
            "coarse": self.coarse.to_json(),
            "fine": self.fine.to_json(),
            "agree": self.agree,
        }


def stability_check(spec: TorusGridSpec, ell: int, cell_cap: int | None = None) -> StabilityReport:
    """Betti profiles at q and 2q with a plain agree/disagree verdict.

    Disagreement is reported as-is; profiles are never merged or averaged.
    """
    coarse = betti_profile(spec, ell, cell_cap=cell_cap)
    fine = betti_profile(spec.refined(), ell, cell_cap=cell_cap)
    return StabilityReport(spec, coarse, fine, coarse.reduced == fine.reduced)


def canonical_certificate_P2(q: int, target: CubicalComplex | None = None) -> EquivariantMapCert:
    """The antipodal-circle certificate for the period-2 approximation.

    Domain: the q-cycle with the antipodal action (free, connected, one
    dimensional, so a genuine 1-model).  Vertex map: x -> (x, x + q/2).
    Image pairs sit at distance exactly 1 >= 1/2, and the antipode goes to
    the coordinate swap because x + q is x on the grid.
    """
    if q < 8 or q % 4:
        raise ShapeError(f"certificate needs q >= 8 with 4 | q, got {q}")
    if target is None:
        target = build_approx(z_torus_spec(2, q))
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
