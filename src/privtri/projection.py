"""Degree-bounded local projection of adjacency vectors.

Two pieces: a private estimate of the maximum degree (every user perturbs
its degree with Laplace noise of sensitivity 1, the server takes the max),
and the per-user projection that truncates adjacency rows to at most theta
neighbors. The similarity-based variant keeps the neighbors whose noisy
degrees are closest, relatively, to the user's own degree; since the three
degrees of a triangle tend to be similar, this preserves far more triangles
than deleting uniformly at random, which is kept as a baseline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class NoisyDegrees:
    """Per-user noisy degrees d'_i = d_i + Lap(1/epsilon1), and their max.

    Values are real and may be negative; they are used raw, both as the
    bound estimate and as similarity inputs.
    """

    values: np.ndarray
    d_max_noisy: float

    @classmethod
    def exact(cls, degree_vector: np.ndarray) -> "NoisyDegrees":
        """Noiseless stand-in (used by projection-only comparisons)."""
        values = np.asarray(degree_vector, dtype=np.float64)
        return cls(values, float(values.max()))


@dataclass(frozen=True)
class ProjectedGraph:
    """Per-user projected adjacency rows, bounded by theta.

    Rows only lose bits relative to the input graph. The matrix may be
    asymmetric, so it is not a Graph: each user truncates its own row
    without coordinating with the other endpoint. A pair is counted only
    if both endpoints kept it (secure_count.effective_bits);
    secure_count.effective_graph is the Graph of those pairs.
    """

    adj: np.ndarray
    theta: int

    def __post_init__(self):
        adj = np.ascontiguousarray(self.adj, dtype=np.uint8)
        adj.flags.writeable = False
        object.__setattr__(self, "adj", adj)

    @property
    def n(self) -> int:
        return self.adj.shape[0]


def max_private(degree_vector: np.ndarray, epsilon1: float, rng) -> NoisyDegrees:
    """Perturb every degree with an independent Laplace(1/epsilon1) draw.

    Sensitivity is 1: the two directions of an edge are separate secrets,
    so one edge changes one degree by one.
    """
    if not 0 < epsilon1 < math.inf:
        raise ValueError(f"epsilon1 must be positive and finite, got {epsilon1}")
    degree_vector = np.asarray(degree_vector, dtype=np.float64)
    values = degree_vector + rng.laplace(0.0, 1.0 / epsilon1, size=degree_vector.size)
    return NoisyDegrees(values, float(values.max()))


def effective_theta(noisy: NoisyDegrees) -> int:
    """Integer projection bound: round the noisy max, floored at 1.

    The floor keeps a negative or near-zero noisy max from producing a
    degenerate bound.
    """
    return max(int(round(noisy.d_max_noisy)), 1)


def project(g: Graph, noisy: NoisyDegrees, theta: int | None = None) -> ProjectedGraph:
    """Similarity-based projection of every row to at most theta neighbors.

    Users with degree <= theta keep their row. Others keep exactly the
    theta neighbors with the smallest degree similarity to their own true
    degree, computed against the neighbors' noisy degrees; ties break by
    ascending neighbor index, so the output is deterministic.
    """
    if noisy.values.size != g.n:
        raise ValueError("noisy degrees do not match graph size")
    if theta is None:
        theta = effective_theta(noisy)
    if theta < 1:
        raise ValueError(f"theta must be positive, got {theta}")
    adj = np.array(g.adj, dtype=np.uint8)
    for i in np.flatnonzero(g.degrees > theta):
        nbrs = np.flatnonzero(adj[i])
        ds = np.abs(g.degrees[i] - noisy.values[nbrs]) / g.degrees[i]
        order = np.lexsort((nbrs, ds))
        keep = nbrs[order[:theta]]
        adj[i] = 0
        adj[i, keep] = 1
    return ProjectedGraph(adj, int(theta))


def project_random(g: Graph, theta: int, rng) -> ProjectedGraph:
    """Baseline projection: over-degree users keep a uniform random subset."""
    if theta < 1:
        raise ValueError(f"theta must be positive, got {theta}")
    adj = np.array(g.adj, dtype=np.uint8)
    for i in np.flatnonzero(g.degrees > theta):
        nbrs = np.flatnonzero(adj[i])
        keep = rng.choice(nbrs, size=theta, replace=False)
        adj[i] = 0
        adj[i, keep] = 1
    return ProjectedGraph(adj, int(theta))
