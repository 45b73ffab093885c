"""Periodic points of constrained shift spaces, equivariant joins, homology
over prime fields, and index/coindex reports with machine-checkable
certificates.  Everything numeric is exact: rational metrics, integer
transfer counts, finite-field elimination."""

__version__ = "0.1.0"

from .alphabets import (
    Alphabet,
    circle_grid,
    cyclic_group,
    parse_alphabet,
    product_alphabet,
)
from .coindex import (
    EquivariantMapCert,
    IndexReport,
    MapEvidence,
    apply_certificate,
    apply_dimension_bound,
    coindex_join_lower,
    coindex_transport,
    exact_index_finite_free,
    ind_upper_by_dimension,
    index_of_join_of_finite,
    verify_certificate,
)
from .complexes import (
    CubicalComplex,
    EnReport,
    SimplicialComplex,
    cycle_complex,
    is_EnZp,
    join_complex,
    standard_join_model,
)
from .errors import (
    NeededRangeError,
    NonFreeActionError,
    ResourceCapError,
    ShapeError,
)
from .homology import (
    BettiVector,
    ChainComplexFp,
    betti,
    betti_numbers,
    boundary_matrices,
    connectivity,
)
from .seqmaps import (
    AnchorSeq,
    Window,
    block_sum_step,
    pair_embed,
    pair_embed_cyclic,
    section_apply,
    section_input_range,
    separation_violations,
)
from .shiftspaces import (
    AdjacentGap,
    CyclicWord,
    OrbitDecomposition,
    Separation,
    SubshiftSpec,
    mismatch_shift,
    neighbor_gap_shift,
    orbit_decompose,
    parse_word,
    periodic_point_complex,
)
from .torusgrid import (
    StabilityReport,
    TorusGridSpec,
    betti_profile,
    build_approx,
    canonical_certificate_P2,
    separated_torus_spec,
    stability_check,
    z_torus_spec,
)
