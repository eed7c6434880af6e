"""Two-server secure triangle counting with distributed differential privacy."""

from .baselines import CentralResult, central_lap
from .graph import EdgeListFormatError, Graph, exact_triangle_count, load_edge_list
from .harness import (
    ExperimentConfig,
    TrialRecord,
    emit_csv,
    run,
    run_cargo,
    run_central,
    run_exact,
    run_project_compare,
    summarize,
)
from .perturbation import NoiseParams, perturb
from .projection import (
    NoisyDegrees,
    ProjectedGraph,
    effective_theta,
    max_private,
    project,
    project_random,
)
from .ring import (
    DealerRng,
    MGReuseError,
    MultiplicationGroup,
    OpeningChannel,
    SharePair,
    deal_mg,
    mul3,
    reconstruct,
    share,
)
from .secure_count import (
    SharedAdjacency,
    count,
    effective_bits,
    effective_graph,
    share_adjacency,
)

__all__ = [
    "CentralResult",
    "DealerRng",
    "EdgeListFormatError",
    "ExperimentConfig",
    "Graph",
    "MGReuseError",
    "MultiplicationGroup",
    "NoiseParams",
    "NoisyDegrees",
    "OpeningChannel",
    "ProjectedGraph",
    "SharePair",
    "SharedAdjacency",
    "TrialRecord",
    "central_lap",
    "count",
    "deal_mg",
    "effective_bits",
    "effective_graph",
    "effective_theta",
    "emit_csv",
    "exact_triangle_count",
    "load_edge_list",
    "max_private",
    "mul3",
    "perturb",
    "project",
    "project_random",
    "reconstruct",
    "run",
    "run_cargo",
    "run_central",
    "run_exact",
    "run_project_compare",
    "share",
    "share_adjacency",
    "summarize",
]
