"""Degree-bounded local projection of adjacency vectors.

Two pieces: a private estimate of the maximum degree (every user perturbs
its degree with Laplace noise of sensitivity 1, the server takes the max),
and the per-user projection that truncates adjacency rows to at most theta
neighbors. The similarity-based variant keeps the neighbors whose noisy
degrees are closest, relatively, to the user's own degree; since the three
degrees of a triangle tend to be similar, this preserves far more triangles
than deleting uniformly at random, which is kept as a baseline.

Both projections take the edges of every over-theta row in one pass and
clear and refill those rows in bulk. The similarity rule sorts them in
one lexsort. The random baseline still draws once per over-theta row,
rng.choice(d_i, theta, replace=False): that is the stream the seeded
sweep results were made with, and one bulk draw would consume the
generator differently and change them.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class ProjectedGraph:
    """Per-user projected adjacency rows, bounded by theta.

    Rows only lose bits relative to the input graph. The matrix may be
    asymmetric, so it is not a Graph: each user truncates its own row
    without coordinating with the other endpoint. A pair is counted only
    if both endpoints kept it; secure_count.effective_graph is the Graph
    of those pairs.
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
    ascending neighbor index, so the output is deterministic. One lexsort
    orders the edges of every over-theta row at once; an edge is kept
    when its rank within its row is below theta. Raises TypeError for a
    non-integral theta and ValueError for theta < 1.
    """
    if noisy.values.size != g.n:
        raise ValueError("noisy degrees do not match graph size")
    if theta is None:
        theta = effective_theta(noisy)
    theta = _check_theta(theta)
    rows, i, j, start = _over_theta_edges(g, theta)
    d = g.degrees[i]
    ds = np.abs(d - noisy.values[j]) / d
    order = np.lexsort((j, ds, i))
    rank = np.arange(order.size) - np.repeat(start, g.degrees[rows])
    keep = order[rank < theta]
    return _keep_edges(g, theta, rows, i[keep], j[keep])


def project_random(g: Graph, theta: int, rng) -> ProjectedGraph:
    """Baseline projection: over-degree users keep a uniform random subset.

    Row i draws rng.choice(d_i, theta, replace=False) positions in its
    ascending neighbor list, rows in ascending order. theta is checked
    as in project.
    """
    theta = _check_theta(theta)
    rows, i, j, start = _over_theta_edges(g, theta)
    picks = np.array(
        [rng.choice(d, size=theta, replace=False) for d in g.degrees[rows].tolist()],
        dtype=np.int64,
    ).reshape(-1, theta)
    keep = (picks + start[:, None]).reshape(-1)
    return _keep_edges(g, theta, rows, i[keep], j[keep])


def _check_theta(theta) -> int:
    """theta as an int; raises TypeError unless integral, ValueError unless >= 1."""
    theta = operator.index(theta)
    if theta < 1:
        raise ValueError(f"theta must be positive, got {theta}")
    return theta


def _over_theta_edges(g: Graph, theta: int):
    """The directed edges (i, j) of the rows with degree > theta.

    Returns those rows, the edges in row-major order, and the offset of
    each row's first edge; row rows[r] holds edges start[r] to
    start[r] + degrees[rows[r]] - 1.
    """
    rows = np.flatnonzero(g.degrees > theta)
    d = g.degrees[rows]
    r, j = np.divmod(np.flatnonzero(g.adj[rows].view(bool)), g.n)
    return rows, rows[r], j, np.cumsum(d) - d


def _keep_edges(g: Graph, theta: int, rows, i, j) -> ProjectedGraph:
    """A copy of g's adjacency whose rows `rows` hold only the edges (i, j)."""
    adj = np.array(g.adj, dtype=np.uint8)
    adj[rows] = 0
    adj[i, j] = 1
    return ProjectedGraph(adj, theta)
