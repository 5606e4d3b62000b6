"""Regularity workbench for finitely presented connected graded algebras."""

from .corealg import (
    AlgebraPresentation,
    CertificationError,
    ModulePresentation,
    Poly,
    PresentationError,
    ResourceLimitError,
    make_module_presentation,
    make_presentation,
    opposite_module,
    opposite_presentation,
    parse_field,
    parse_module,
    parse_presentation,
)
from .gbasis import GroebnerBasis, groebner
from .series import (
    RationalSeries,
    TruncatedSeries,
    hilbert_rational,
    hilbert_truncated,
    series_product,
    stanley_check,
)
from .resolution import (
    BettiTable,
    ExtTable,
    Resolution,
    betti_table,
    ext_into_algebra,
    minimal_resolution,
    module_via_map,
    trivial_module,
)
from .regularity import (
    AlgebraArtifacts,
    BoundedValue,
    RegularityReport,
    as_regular_verdict,
    as_regularity,
    build_report,
    concavity_certificate,
    hilbert_criterion,
    inequality_harness,
    invariant_ring_obstruction,
    koszul_verdict,
    ta_tc_pairs,
    tor_regularity,
)
from .constructions import (
    FiniteMapCertificate,
    NormalElementCertificate,
    concavity_witness,
    convolve_betti,
    finite_map_check,
    quotient_by_normal_element,
    tensor_product,
)

__version__ = "0.1.0"
