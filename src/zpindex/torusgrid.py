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
The vertex mask ANDs the clauses of the spec's subshift over the p letter
slots, reading its letter-pair table, so the pair table cap guards it too.
Before anything is allocated, a grid of more than 2^24 points, q^(p*N), is
refused with ResourceCapError.

The cubical table is laid out by index arithmetic on the grid, as in
Wagner, Chen and Vucini, *Efficient computation of persistent homology for
cubical data* (2012): a cell's position, faces and image under the letter
rotation follow from its grid point and extent mask, with no search.  The
general cubical validation (keys sorted, every face and image found by
binary search) is the tests' oracle, compared byte for byte.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .alphabets import circle_grid, product_alphabet
from .complexes import CubicalComplex, _is_prime, cycle_complex
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
# grid points of one vertex mask: Z p=5 q=16 (2^20) fits, Z p=5 q=32 does not
_GRID_POINT_CAP = 1 << 24
# bytes of position grids the build holds at once: Z p=5 q=16 needs 40 MiB
_GRID_BYTE_CAP = 1 << 28


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


def _vertex_mask(spec: TorusGridSpec) -> np.ndarray:
    """Boolean grid over (q,)*n_axes marking vertices that satisfy the family.

    Slot j's letter index is its n circle coordinates read in radix q, formed
    on open axes (one arange per axis) that broadcast.  The grid is the AND,
    over the subshift's clauses on the p slots, of the OR of the pair table
    read at each clause pair's two slot indices, so only the final grid is
    full-size.
    """
    q, p, n, D = spec.q, spec.p, spec.n_circles, spec.n_axes
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
    return ok


def _cell_bases(vertex_ok: np.ndarray, mask: int) -> np.ndarray:
    """Boolean grid of the base corners x whose cell (x, mask) has every
    corner in the vertex mask."""
    ok = vertex_ok
    for t in range(vertex_ok.ndim):
        if mask >> t & 1:
            ok = ok & np.roll(ok, -1, axis=t)
    return ok


def build_approx(spec: TorusGridSpec, cell_cap: int | None = None) -> CubicalComplex:
    """The inner cubical approximation with the letter-rotation action.

    A cell enters iff all of its corners satisfy the family predicate.  The
    rotation action is free on every valid approximation: a rotation-fixed
    cell would contain a rotation-fixed corner, i.e. a constant word, and
    constant words violate every positive-threshold family.

    The table is laid out on the grid (point x in C order, key x * 2^D + M).
    Cells are counted mask by mask against the cell cap before any table
    exists; in dimension d the sorted runs of the masks of popcount d merge
    into key order.  Face t of (x, M) is one read of the int32 position grid
    of M - e_t, at x (base face) or x + e_t (far face), and a read that finds
    no cell is refused; the grids' bytes are checked against a cap first.
    The action maps cells to cells exactly when the vertex mask is invariant
    under the letter rotation, which is checked.
    """
    cap = DEFAULT_CELL_CAP if cell_cap is None else cell_cap
    D = spec.n_axes
    q = spec.q
    size = q**D
    if size > _GRID_POINT_CAP:
        raise ResourceCapError(
            f"approximation for {spec.token()} would have {size} grid points ({q}^{D}), "
            f"above the grid point cap ({_GRID_POINT_CAP}); nothing was allocated"
        )
    vertex_ok = _vertex_mask(spec)
    # image axis t reads source axis t + n: the rotation of the p letter slots
    axis_map = np.array([(t + spec.n_circles) % D for t in range(D)], dtype=np.int64)
    if not np.array_equal(vertex_ok, vertex_ok.transpose(axis_map)):
        raise ShapeError(f"vertex mask of {spec.token()} is not invariant under the letter rotation")
    bases: dict[int, np.ndarray] = {}  # mask -> flat grid indices of its cells' bases
    by_dim: dict[int, list[int]] = {}  # popcount -> masks with cells, ascending
    total = 0
    for mask in range(1 << D):
        ok = _cell_bases(vertex_ok, mask)
        count = int(np.count_nonzero(ok))
        if count == 0:
            continue
        total += count
        if total > cap:
            raise ResourceCapError(
                f"approximation for {spec.token()} has at least {total} cells, above the "
                f"cell cap ({cap}); no partial complex is returned"
            )
        bases[mask] = np.flatnonzero(ok).astype(np.int32)  # the grid point cap is below 2^31
        by_dim.setdefault(bin(mask).count("1"), []).append(mask)
    del ok
    top = max(by_dim, default=-1)
    # one int32 position per grid point and mask of dimension d < top, held one
    # dimension at a time; the cap also keeps positions below 2^31
    grid_bytes = 4 * size * max((len(by_dim.get(d, ())) for d in range(top)), default=0)
    if grid_bytes > _GRID_BYTE_CAP:
        raise ResourceCapError(
            f"approximation for {spec.token()} would hold {grid_bytes} bytes of position "
            f"grids at once, above the grid byte cap ({_GRID_BYTE_CAP}); no grid was allocated"
        )
    strides = [q ** (D - 1 - t) for t in range(D)]
    cells, keys, faces = {}, {}, {}
    column = pos = None  # of dimension d-1: each mask's row of pos, its cells' positions
    for d in range(max(top, 0) + 1):
        masks = by_dim.get(d, [])
        # (grid point, mask column) pairs, one sorted run per mask; merging the
        # runs puts the cells in key order
        runs = np.concatenate([bases[mask] * np.int64(len(masks)) + j for j, mask in enumerate(masks)]
                              or [np.zeros(0, dtype=np.int64)])
        order = np.argsort(runs, kind="stable")
        flat = runs[order]
        x, j = np.divmod(flat, max(len(masks), 1))
        m = np.array(masks, dtype=np.int64)[j]
        rows = np.empty((len(flat), D + 1), dtype=np.int32)
        x32 = x.astype(np.int32)
        for t in range(D):
            rows[:, t] = x32 // strides[t] % q
        rows[:, D] = m
        if d == 0:
            image = rows[:, axis_map].astype(np.int64) @ np.array(strides)
            action = np.searchsorted(flat, image)
            # a fixed cell's base corner is a fixed vertex: the first fixed cell is one
            fixed = np.flatnonzero(image == x)
            witness = (0, tuple(int(v) for v in rows[fixed[0]])) if len(fixed) else None
        else:
            # run by run, each face slot is one read of a position row at the
            # bases or at the bases stepped across the slot's axis
            by_mask = np.empty((len(flat), 2 * d), dtype=np.int64)
            start = 0
            for mask in masks:
                at = bases.pop(mask)
                stop = start + len(at)
                for s, t in enumerate(t for t in range(D) if mask >> t & 1):
                    row = pos[column[mask ^ 1 << t]]  # M - e_t has cells, as M's lie among them
                    far = at + strides[t]
                    far[at // strides[t] % q == q - 1] -= q * strides[t]
                    by_mask[start:stop, 2 * s] = row[far]
                    by_mask[start:stop, 2 * s + 1] = row[at]
                start = stop
            if len(by_mask) and by_mask.min() < 0:
                raise ShapeError(f"face closure fails between dimensions {d} and {d - 1}")
            faces[d] = by_mask[order]
        if len(flat):
            cells[d], keys[d] = rows, x * (1 << D) + m
        pos = None  # freed before the next grid exists
        if d < top:
            column = dict(zip(masks, range(len(masks))))
            pos = np.full((len(masks), size), -1, dtype=np.int32)
            pos[j, x] = np.arange(len(flat), dtype=np.int32)
    return CubicalComplex._from_table(spec.p, cells, keys, faces, action, witness, q=q, n_axes=D,
                                      axis_map=axis_map)


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
