"""Partition oracle for bounded-degree minor-closed graph families.

Local clustering by truncated diffusion, a phase-coordinated size-threshold
search, consistent per-vertex piece queries, and the applications they
enable (property testing, additive estimation), plus an analysis harness
for structural measurements.
"""
from .analysis import (
    differential_check,
    good_seed_census,
    leaky_census,
    measure_cut,
    viability_census,
)
from .applications import (
    DECIDERS,
    SCORERS,
    EstimatorConfig,
    TesterConfig,
    estimate_cut_fraction,
    run_estimator,
    run_tester,
)
from .diffusion import (
    exact_number,
    lazy_step,
    ranked_vertices,
    truncate,
    truncated_diffusion,
)
from .graphs import (
    BoundedDegreeGraph,
    GraphFormatError,
    connected_components,
    gen_grid,
    gen_random_tree,
    gen_triangulated_grid,
    induced_edges,
    load_graph,
    save_graph,
)
from .oracle import Partition, PartitionOracle, PhaseThresholds, cluster
from .params import OracleConfigError, ParamError, derive_params, params_to_dict
from .seeds import SeedContext, geometric_from_uniform
from .solvers import (
    SolverCapError,
    contains_subgraph,
    is_bipartite,
    is_triangle_free,
    maximum_independent_set,
    maximum_matching,
    minimum_dominating_set,
    minimum_vertex_cover,
    two_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedDegreeGraph",
    "DECIDERS",
    "EstimatorConfig",
    "GraphFormatError",
    "OracleConfigError",
    "ParamError",
    "Partition",
    "PartitionOracle",
    "PhaseThresholds",
    "SCORERS",
    "SeedContext",
    "SolverCapError",
    "TesterConfig",
    "cluster",
    "connected_components",
    "contains_subgraph",
    "derive_params",
    "differential_check",
    "estimate_cut_fraction",
    "exact_number",
    "gen_grid",
    "gen_random_tree",
    "gen_triangulated_grid",
    "geometric_from_uniform",
    "good_seed_census",
    "induced_edges",
    "is_bipartite",
    "is_triangle_free",
    "lazy_step",
    "leaky_census",
    "load_graph",
    "maximum_independent_set",
    "maximum_matching",
    "measure_cut",
    "minimum_dominating_set",
    "minimum_vertex_cover",
    "params_to_dict",
    "ranked_vertices",
    "run_estimator",
    "run_tester",
    "save_graph",
    "truncate",
    "truncated_diffusion",
    "two_coloring",
    "viability_census",
]
