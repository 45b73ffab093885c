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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    """Boolean grid over (q,)*n_axes marking vertices that satisfy the family."""
    q, p, n = spec.q, spec.p, spec.n_circles
    alpha = spec.letter_alphabet()
    sub = spec.subshift()
    R = alpha.order
    elements = alpha.all_elements()
    table = np.zeros((R, R), dtype=bool)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            table[i, j] = sub._gap_ok(a, b)

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


def build_approx(spec: TorusGridSpec, cell_cap: int | None = None) -> CubicalComplex:
    """The inner cubical approximation with the letter-rotation action.

    A cell enters iff all of its corners satisfy the family predicate.  The
    rotation action is free on every valid approximation: a rotation-fixed
    cell would contain a rotation-fixed corner, i.e. a constant word, and
    constant words violate every positive-threshold family.
    """
    cap = DEFAULT_CELL_CAP if cell_cap is None else cell_cap
    D = spec.n_axes
    q = spec.q
    vertex_ok = _vertex_mask(spec)
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
            raise ResourceCapError(
                f"approximation for {spec.token()} exceeds the cell cap ({cap}); "
                "no partial complex is returned"
            )
        bases = np.argwhere(ok).astype(np.int32)
        rows = np.hstack([bases, np.full((count, 1), mask, dtype=np.int32)])
        cells.setdefault(bin(mask).count("1"), []).append(rows)
    merged = {
        d: np.vstack(parts) if len(parts) > 1 else parts[0] for d, parts in cells.items()
    }
    axis_map = [(t + spec.n_circles) % D for t in range(D)]
    return CubicalComplex(q, D, merged, axis_map, spec.p)


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
