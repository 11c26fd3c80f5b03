"""Exact tropicalization of truncated moment cones and pseudo-moment cones.

Supports are finite sets of lattice points; the underlying semialgebraic
sets are cut out by pure binomial inequalities, so their tropicalizations
are polyhedral cones and every valid moment inequality of binomial shape
corresponds to a facet of a polyhedral cone of functions on the support.
All arithmetic is exact (integers and fractions); there are no numeric
tolerances anywhere.
"""

from .cones import (
    Cone,
    double_description,
    project_hrep,
    tropical_hull,
)
from .errors import PreconditionError, ResourceLimitError, SchemaError
from .funcones import (
    cone_K,
    cone_K_even,
    cone_M,
    is_midpoint_facet,
    projection_equality_KM,
)
from .lattice import (
    AlmostEmptySimplex,
    MidpointTriple,
    PointConfig,
    a_hat,
    almost_empty_simplices,
    cubical_hull,
    delta_simplex,
    graded_lex_sorted,
    lattice_points,
    mediated_set,
    midpoint_triples,
)
from .moments import (
    BinomialIneq,
    RegularSupportWarning,
    SemialgSpec,
    amgm_moment_cone,
    binomial_facets,
    order_cone,
    render_binomial,
    semigroup_generation_check,
    trop_moment_cone,
    trop_of_set,
)
from .pseudo import (
    ScanReport,
    clamp_extension,
    f_s_d,
    gap_report,
    normal_valid_on,
    sigma_dual_trop,
    stabilization_scan,
    stabilized_pseudomoment,
    trop_pseudomoment,
    trop_pseudomoment_cube_stable,
    trop_pseudomoment_stable,
)

__version__ = "0.1.0"

__all__ = [
    "AlmostEmptySimplex",
    "BinomialIneq",
    "Cone",
    "MidpointTriple",
    "PointConfig",
    "PreconditionError",
    "RegularSupportWarning",
    "ResourceLimitError",
    "ScanReport",
    "SchemaError",
    "SemialgSpec",
    "a_hat",
    "almost_empty_simplices",
    "amgm_moment_cone",
    "binomial_facets",
    "clamp_extension",
    "cone_K",
    "cone_K_even",
    "cone_M",
    "cubical_hull",
    "delta_simplex",
    "double_description",
    "f_s_d",
    "gap_report",
    "graded_lex_sorted",
    "is_midpoint_facet",
    "lattice_points",
    "mediated_set",
    "midpoint_triples",
    "normal_valid_on",
    "order_cone",
    "project_hrep",
    "projection_equality_KM",
    "render_binomial",
    "semigroup_generation_check",
    "sigma_dual_trop",
    "stabilization_scan",
    "stabilized_pseudomoment",
    "trop_moment_cone",
    "trop_of_set",
    "trop_pseudomoment",
    "trop_pseudomoment_cube_stable",
    "trop_pseudomoment_stable",
    "tropical_hull",
]
