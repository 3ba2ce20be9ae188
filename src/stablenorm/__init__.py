"""Stable norms on the 2-torus, discretely.

Strictly convex norms on the plane, exact geodesic graphs on the flat
torus, periodic weighted graphs whose marked length spectra pin a
prescribed finite set of homology classes, and the lattice-polygon
counts that bound length-spectrum multiplicities.
"""

from stablenorm.errors import (
    ConstructionError,
    InvariantError,
    SearchBudgetError,
    ValidationError,
)
from stablenorm.experiments import ConvergenceReport, StageReport, run_convergence
from stablenorm.lattice_polygons import (
    EIGHT_PI_SQUARED_FLOOR,
    LatticePolygon,
    MinAreaResult,
    PickCounts,
    SymmetricInteriorResult,
    canonical_form,
    cubic_ratio_exceeds_floor,
    f_of_m,
    i_of_k,
    min_area_convex_kgon,
    min_area_table,
    min_interior_symmetric,
    pick_counts,
)
from stablenorm.multiplicity import (
    MultiplicityProfile,
    SharpnessReport,
    construct_sharp_norm,
    multiplicity_profile,
    verify_sharpness,
)
from stablenorm.norms import (
    ArcPolygon,
    Ellipse,
    IntegralClass,
    NormSpec,
    PNorm,
    enumerate_classes,
    eval_norm,
    euclidean,
    hexagonal,
    leading_primitive_classes,
    lipschitz_bound,
    strict_convexity_check,
)
from stablenorm.periodic_metric import (
    PeriodicWeightedGraph,
    SpectrumResult,
    StableNormEstimate,
    build_canyon_graph,
    marked_min_length,
    spectrum,
    stable_norm_estimate,
    uniform_grid,
)
from stablenorm.toral_graph import (
    Cycle,
    ToralGeodesicGraph,
    TubeConstants,
    build_graph,
    compute_zeta_epsilon_theta,
    minimal_cycle,
)

__all__ = [
    "ArcPolygon",
    "ConstructionError",
    "ConvergenceReport",
    "Cycle",
    "EIGHT_PI_SQUARED_FLOOR",
    "Ellipse",
    "IntegralClass",
    "InvariantError",
    "LatticePolygon",
    "MinAreaResult",
    "MultiplicityProfile",
    "NormSpec",
    "PNorm",
    "PeriodicWeightedGraph",
    "PickCounts",
    "SearchBudgetError",
    "SharpnessReport",
    "SpectrumResult",
    "StableNormEstimate",
    "StageReport",
    "SymmetricInteriorResult",
    "ToralGeodesicGraph",
    "TubeConstants",
    "ValidationError",
    "build_canyon_graph",
    "build_graph",
    "canonical_form",
    "compute_zeta_epsilon_theta",
    "construct_sharp_norm",
    "cubic_ratio_exceeds_floor",
    "enumerate_classes",
    "eval_norm",
    "euclidean",
    "f_of_m",
    "hexagonal",
    "i_of_k",
    "leading_primitive_classes",
    "lipschitz_bound",
    "marked_min_length",
    "min_area_convex_kgon",
    "min_area_table",
    "min_interior_symmetric",
    "minimal_cycle",
    "multiplicity_profile",
    "pick_counts",
    "run_convergence",
    "spectrum",
    "stable_norm_estimate",
    "strict_convexity_check",
    "uniform_grid",
    "verify_sharpness",
]

__version__ = "0.1.0"
