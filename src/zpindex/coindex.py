"""Index/coindex reports with provenance, plus equivariant-map certificates.

Exact values are claimed only where they are theorems at desk scale: a
nonempty finite free set has index = coindex = 0 (orbit-representative
maps go both ways), and a join of K+1 such sets is a K-dimensional,
(K-1)-connected free complex, so its index and coindex are exactly K.
Everything else carries bounds, and every bound names the rule or
certificate that produced it.  A bound without provenance is never
emitted.

Certificates pin an explicit vertex map from a reference free model into a
target complex; verification checks the model structure, equivariance on
vertices, and that every domain cell lands inside a single target cell
(the carrier condition, which for simplicial targets is exactly
simplicial continuity).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .complexes import SimplicialComplex, _is_prime, standard_join_model
from .errors import NonFreeActionError, ShapeError

__all__ = [
    "INF",
    "IndexReport",
    "exact_index_finite_free",
    "index_of_join_of_finite",
    "coindex_join_lower",
    "MapEvidence",
    "coindex_transport",
    "EquivariantMapCert",
    "CertReport",
    "verify_certificate",
    "apply_certificate",
    "ind_upper_by_dimension",
    "apply_dimension_bound",
]

INF = float("inf")


def _fmt(v) -> str:
    return "inf" if v == INF else str(int(v))


@dataclass(frozen=True)
class IndexReport:
    """Bounds (or exact values) for the index and coindex of one space."""

    p: int
    coind_lower: int
    coind_upper: float  # int or INF
    ind_lower: int
    ind_upper: float  # int or INF
    exact: bool
    provenance: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ShapeError(f"the acting group order must be a prime, got {self.p}")
        lo_ok = self.coind_lower >= -1 and self.ind_lower >= -1
        chain = (
            self.coind_lower <= self.coind_upper
            and self.ind_lower <= self.ind_upper
            and self.coind_lower <= self.ind_lower
            and self.coind_upper <= self.ind_upper
        )
        if not (lo_ok and chain):
            raise ShapeError(f"inconsistent index report bounds: {self.bounds_text()}")
        if self.exact and not (
            self.coind_lower == self.coind_upper == self.ind_lower == self.ind_upper
        ):
            raise ShapeError("a report marked exact must pin all four bounds")

    def bounds_text(self) -> str:
        return (
            f"coind in [{_fmt(self.coind_lower)}, {_fmt(self.coind_upper)}], "
            f"ind in [{_fmt(self.ind_lower)}, {_fmt(self.ind_upper)}]"
        )

    @classmethod
    def empty_space(cls, p: int) -> IndexReport:
        return cls(p, -1, -1, -1, -1, True, ("empty space: ind = coind = -1",))

    @classmethod
    def exact_value(cls, p: int, n: int, rule: str) -> IndexReport:
        return cls(p, n, n, n, n, True, (rule,))

    @classmethod
    def nonempty_free(cls, p: int, rule: str = "nonempty free space: coind >= 0") -> IndexReport:
        return cls(p, 0, INF, 0, INF, False, (rule,))

    def updated(self, rule: str, **changes) -> IndexReport:
        rep = replace(self, provenance=self.provenance + (rule,), **changes)
        return rep

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "coind_lower": self.coind_lower,
            "coind_upper": "inf" if self.coind_upper == INF else int(self.coind_upper),
            "ind_lower": self.ind_lower,
            "ind_upper": "inf" if self.ind_upper == INF else int(self.ind_upper),
            "exact": self.exact,
            "provenance": list(self.provenance),
        }


def _require_discrete_free(s: SimplicialComplex, what: str) -> None:
    if not isinstance(s, SimplicialComplex):
        raise ShapeError(f"{what} must be a simplicial complex")
    if s.dim > 0:
        raise ShapeError(f"{what} must be a finite set (dimension 0), got dimension {s.dim}")
    if s.is_empty:
        return
    if s.action is None:
        raise ShapeError(f"{what} carries no action")
    w = s.free_witness()
    if w is not None:
        raise NonFreeActionError(f"{what} is not free; fixed cell {w[1]}", witness=w)


def exact_index_finite_free(s: SimplicialComplex) -> IndexReport:
    """ind = coind = 0 for a nonempty finite free set; -1 for the empty set."""
    _require_discrete_free(s, "input set")
    if s.is_empty:
        return IndexReport.empty_space(s.p)
    n_orbits = s.n_vertices // s.p
    return IndexReport.exact_value(
        s.p,
        0,
        f"finite free set ({s.n_vertices} points, {n_orbits} orbits): "
        "orbit-representative maps both ways give ind = coind = 0",
    )


def index_of_join_of_finite(factors: list[SimplicialComplex]) -> IndexReport:
    """Exact value K for a join of K+1 nonempty finite free sets.

    Empty factors are dropped (the empty set is the join identity); if
    nothing remains the report is the empty-space one.
    """
    if not factors:
        raise ShapeError("need at least one factor")
    ps = {f.p for f in factors}
    if len(ps) != 1:
        raise ShapeError(f"factors live over different primes {sorted(ps)}")
    for f in factors:
        _require_discrete_free(f, "join factor")
    live = [f for f in factors if not f.is_empty]
    p = factors[0].p
    if not live:
        return IndexReport.empty_space(p)
    k = len(live) - 1
    sizes = [f.n_vertices for f in live]
    return IndexReport.exact_value(
        p,
        k,
        f"structural model: join of {k + 1} nonempty finite free sets "
        f"(sizes {sizes}) is free, {k}-dimensional and ({k - 1})-connected, "
        f"so ind = coind = {k}",
    )


def coindex_join_lower(r1: IndexReport, r2: IndexReport) -> int:
    """Lower bound for the coindex of a join: sum of the factors' bounds plus one."""
    if r1.p != r2.p:
        raise ShapeError(f"reports over different primes {r1.p} and {r2.p}")
    return r1.coind_lower + r2.coind_lower + 1


@dataclass(frozen=True)
class MapEvidence:
    """Why an equivariant continuous map is known to exist."""

    kind: str  # "structural" or "certificate"
    name: str
    verified: bool
    detail: str = ""

    @staticmethod
    def pair_embedding() -> MapEvidence:
        return MapEvidence(
            kind="structural",
            name="pair embedding x -> (x_k, x_{k+1})",
            verified=True,
            detail="sliding-block stencil; equivariant by construction",
        )

    @staticmethod
    def identity() -> MapEvidence:
        return MapEvidence(kind="structural", name="identity map", verified=True)


def coindex_transport(
    evidence: MapEvidence, source: IndexReport, target: IndexReport
) -> IndexReport:
    """Push a coindex lower bound along a verified equivariant map source -> target."""
    if not evidence.verified:
        raise ShapeError(f"map evidence {evidence.name!r} is not verified; transport refused")
    if source.p != target.p:
        raise ShapeError(f"reports over different primes {source.p} and {target.p}")
    new_lo = max(target.coind_lower, source.coind_lower)
    if new_lo == target.coind_lower:
        return target.updated(
            f"transport along {evidence.name}: no improvement "
            f"(source coind_lower {_fmt(source.coind_lower)})"
        )
    return IndexReport(
        target.p,
        new_lo,
        target.coind_upper,
        max(target.ind_lower, new_lo),
        target.ind_upper,
        False,
        target.provenance
        + (f"transport along {evidence.name}: coind_lower raised to {new_lo}",),
    )


# -- certificates ----------------------------------------------------------------


@dataclass(frozen=True)
class EquivariantMapCert:
    """A claimed equivariant map from a reference free model into a target.

    ``domain`` is None for the standard model (the (n+1)-fold join of the
    p-point orbit) or an explicit complex carrying its own action.
    """

    p: int
    n: int
    vertex_map: tuple[int, ...]
    target_ref: str
    domain: SimplicialComplex | None = None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "domain": "join(Zp)^{n+1}" if self.domain is None else self.domain.to_json(),
            "vertex_map": list(self.vertex_map),
            "target_ref": self.target_ref,
        }

    @classmethod
    def from_json(cls, doc: dict) -> EquivariantMapCert:
        try:
            dom = doc["domain"]
            domain = None if isinstance(dom, str) else SimplicialComplex.from_json(dom)
            return cls(
                p=int(doc["p"]),
                n=int(doc["n"]),
                vertex_map=tuple(int(v) for v in doc["vertex_map"]),
                target_ref=str(doc["target_ref"]),
                domain=domain,
            )
        except KeyError as e:
            raise ShapeError(f"certificate document lacks the key {e}") from None


@dataclass(frozen=True)
class CertReport:
    accepted: bool
    n: int
    checks: tuple[str, ...]
    reason: str = ""
    witness: tuple | None = None

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "n": self.n,
            "checks": list(self.checks),
            "reason": self.reason,
            "witness": None if self.witness is None else list(map(str, self.witness)),
        }


def _domain_complex(cert: EquivariantMapCert):
    """Materialize and validate the certificate's domain as a free n-model."""
    if cert.domain is None:
        dom = standard_join_model(cert.p, cert.n + 1)
        return dom, "domain: standard join model, structurally a free n-model"
    dom = cert.domain
    if dom.p != cert.p:
        raise ShapeError(f"domain prime {dom.p} does not match certificate prime {cert.p}")
    if cert.n > 1:
        raise ShapeError(
            "explicit certificate domains are accepted only for n <= 1, where "
            "homology decides the connectivity requirement; use the standard "
            "join model for higher n"
        )
    if dom.action is None:
        raise ShapeError("explicit certificate domain carries no action")
    witness = dom.free_witness()
    if witness is not None:
        raise NonFreeActionError(f"certificate domain is not free at {witness}", witness)
    if dom.dim != cert.n:
        raise ShapeError(f"certificate domain has dimension {dom.dim}, expected {cert.n}")
    from .homology import betti_numbers, connectivity_from_betti

    bt = betti_numbers(dom, dom.p)
    conn = connectivity_from_betti(bt.reduced, dom.dim)
    if conn < cert.n - 1:
        raise ShapeError(
            f"certificate domain has connectivity {conn} < {cert.n - 1}; not an n-model"
        )
    return dom, (
        f"domain: explicit free complex, dim {dom.dim}, connectivity {conn} "
        f"(conclusive for n <= 1)"
    )


def verify_certificate(cert: EquivariantMapCert, target) -> CertReport:
    """Check the three certificate obligations against a concrete target.

    (i) the domain is a valid free n-model, (ii) every domain cell maps
    into a single cell of the target, (iii) the vertex map intertwines the
    two actions.  Rejection carries the first violated vertex or cell.
    """
    checks: list[str] = []
    try:
        dom, note = _domain_complex(cert)
    except (ShapeError, NonFreeActionError) as e:
        return CertReport(False, cert.n, tuple(checks), reason=str(e),
                          witness=getattr(e, "witness", None))
    checks.append(note)

    if target.p != cert.p:
        return CertReport(False, cert.n, tuple(checks),
                          reason=f"target prime {target.p} != certificate prime {cert.p}")
    if getattr(target, "action", None) is None:
        return CertReport(False, cert.n, tuple(checks), reason="target carries no action")
    witness = target.free_witness()
    if witness is not None:
        return CertReport(False, cert.n, tuple(checks),
                          reason="target action is not free", witness=witness)
    checks.append("target: free action verified")

    vmap = cert.vertex_map
    if len(vmap) != dom.n_vertices:
        return CertReport(False, cert.n, tuple(checks),
                          reason=f"vertex map has {len(vmap)} entries for "
                                 f"{dom.n_vertices} domain vertices")
    n_tgt = target.n_vertices
    for v, w in enumerate(vmap):
        if not 0 <= w < n_tgt:
            return CertReport(False, cert.n, tuple(checks),
                              reason=f"vertex {v} maps outside the target", witness=(v, w))
    checks.append("vertex map: total on domain vertices")

    tgt_action = target.action
    for v in range(dom.n_vertices):
        if vmap[int(dom.action[v])] != int(tgt_action[vmap[v]]):
            return CertReport(
                False, cert.n, tuple(checks),
                reason=f"equivariance fails at domain vertex {v}",
                witness=(v, vmap[v]),
            )
    checks.append("equivariance: map commutes with both actions on vertices")

    for d in sorted(dom.cells):
        if d == 0:
            continue
        for row in dom.cells[d]:
            image = {vmap[int(v)] for v in row}
            if target.carrier_cell(image) is None:
                return CertReport(
                    False, cert.n, tuple(checks),
                    reason=f"cell {tuple(int(v) for v in row)} maps to {sorted(image)}, "
                           "which lies in no single target cell",
                    witness=tuple(int(v) for v in row),
                )
    checks.append("continuity: every domain cell lands inside one target cell")

    return CertReport(True, cert.n, tuple(checks))


def apply_certificate(report: CertReport, target_report: IndexReport) -> IndexReport:
    """Raise the target's coindex lower bound to the certified n."""
    if not report.accepted:
        raise ShapeError("cannot apply a rejected certificate")
    evidence = MapEvidence(
        kind="certificate",
        name=f"verified vertex-map certificate (n = {report.n})",
        verified=True,
    )
    source = IndexReport(
        target_report.p, report.n, report.n, report.n, report.n, True,
        (f"certificate domain is an E_{report.n} model",),
    )
    return coindex_transport(evidence, source, target_report)


# -- dimension bound ---------------------------------------------------------------


def ind_upper_by_dimension(c) -> int:
    """dim C as an index upper bound for a free complex (standard theory)."""
    if getattr(c, "action", None) is None:
        raise ShapeError("dimension bound needs an action")
    witness = c.free_witness()
    if witness is not None:
        raise NonFreeActionError(f"dimension bound needs a free action; fixed cell {witness}",
                                 witness)
    return c.dim


def apply_dimension_bound(report: IndexReport, c) -> IndexReport:
    n = ind_upper_by_dimension(c)
    new_ind_upper = min(report.ind_upper, n)
    return IndexReport(
        report.p,
        report.coind_lower,
        min(report.coind_upper, new_ind_upper),
        report.ind_lower,
        new_ind_upper,
        report.exact,
        report.provenance
        + (f"ind_upper <= dim = {n} (standard-theory bound, not verified internally)",),
    )
