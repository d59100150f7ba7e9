"""Exact singularity invariants for germs of toric Fano contractions.

Computes minimal log discrepancies over the central fiber, log
canonical thresholds of pulled-back invariant hyperplane sections, and
constructs hyperplane sections with an independently verifiable
certificate that the rescaled pair stays generalized log canonical.
All arithmetic is exact rational.
"""

from .lattice import (
    Sublattice,
    extend_hom,
    hnf,
    kernel_sublattice,
    primitive,
    quotient_by_span,
    snf,
)
from .pairs import (
    BoxData,
    Fan,
    GPair,
    NotRCartier,
    PairError,
    ToricContraction,
    analyze,
    cartier_psi,
    fold_general,
    is_f_nef,
    is_glc,
    lct_pullback,
    log_discrepancy,
    make_contraction,
    make_fan,
    make_pair,
    mld_over_fiber,
    nef_values,
    oracle_mld,
    validate_contraction,
)
from .polyhedra import (
    Cone,
    Polyhedron,
    SupportSet,
    from_generators,
    from_inequalities,
    gauge,
    interval_image,
    lattice_points,
    make_cone,
    make_support,
)
from .search import (
    ExtensionTrace,
    HyperplaneCertificate,
    SliceData,
    WidthResult,
    extend_functional,
    find_hyperplane,
    gamma,
    gamma_closed,
    lift_hyperplane,
    make_slice,
    subdivide_fan,
    verify_certificate,
    width_functional,
)

__version__ = "0.1.0"
