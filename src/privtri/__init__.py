"""Two-server secure triangle counting with distributed differential privacy."""

from .baselines import central_lap
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
    ProjectedGraph,
    effective_theta,
    max_private,
    project,
    project_random,
)
from .ring import (
    DealerRng,
    OpeningChannel,
    SharePair,
    reconstruct,
    share,
)
from .secure_count import (
    SharedAdjacency,
    count,
    effective_graph,
    share_adjacency,
)

__all__ = [
    "DealerRng",
    "EdgeListFormatError",
    "ExperimentConfig",
    "Graph",
    "NoiseParams",
    "OpeningChannel",
    "ProjectedGraph",
    "SharePair",
    "SharedAdjacency",
    "TrialRecord",
    "central_lap",
    "count",
    "effective_graph",
    "effective_theta",
    "emit_csv",
    "exact_triangle_count",
    "load_edge_list",
    "max_private",
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
