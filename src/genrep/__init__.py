"""Generic-module invariants of truncated path algebras.

Layering varieties of a truncated path algebra are governed by skeleta:
forests of paths that template a basis.  This package enumerates them and
derives the downstream invariants: generic presentations, hypergraphs,
bundle-tower dimensions, syzygy profiles, projective dimensions,
socle/Hom/Ext dimensions of generic modules, and irreducible-component
sifting reports.
"""

__version__ = "0.1.0"

from .algebra_core import (
    Arrow,
    Path,
    Quiver,
    SemisimpleSequence,
    TruncatedAlgebra,
    dominates,
    enumerate_paths,
    enumerate_sequences,
    realizable,
)
from .errors import (
    EnumerationCapError,
    GenrepError,
    MethodDisagreementError,
    SeedStabilityError,
    UnrealizableError,
    ValidationError,
)
from .generic_builder import (
    BundleReport,
    GenericPresentation,
    Hypergraph,
    bundle_tower,
    generic_presentation,
    hypergraph,
)
from .homology import (
    CyclicType,
    SyzygyProfile,
    first_syzygy,
    iterated_syzygy,
    projective_dimension,
    syzygy_of_cyclic,
)
from .matrix_rep import (
    FieldSpec,
    Representation,
    decomposability,
    distinguished_skeleta_of,
    hom_dim,
    materialize,
    module_point,
    radical_layering,
    seeded_assignment,
    socle,
)
from .components import (
    ComponentReport,
    annihilating_arrows,
    closure_containment_test,
    component_report,
)
from .skeleta import (
    Skeleton,
    canonical_skeleton,
    count_skeleta,
    critical_paths,
    iter_skeleta,
)

__all__ = [
    "Arrow", "Path", "Quiver", "SemisimpleSequence", "TruncatedAlgebra",
    "dominates", "enumerate_paths", "enumerate_sequences", "realizable",
    "Skeleton", "canonical_skeleton", "count_skeleta", "critical_paths", "iter_skeleta",
    "BundleReport", "GenericPresentation", "Hypergraph", "bundle_tower",
    "generic_presentation", "hypergraph",
    "CyclicType", "SyzygyProfile", "first_syzygy", "iterated_syzygy",
    "projective_dimension", "syzygy_of_cyclic",
    "FieldSpec", "Representation", "decomposability", "distinguished_skeleta_of", "hom_dim",
    "materialize", "module_point", "radical_layering", "seeded_assignment", "socle",
    "ComponentReport", "annihilating_arrows", "closure_containment_test",
    "component_report",
    "GenrepError", "ValidationError", "UnrealizableError", "EnumerationCapError",
    "MethodDisagreementError", "SeedStabilityError",
]
