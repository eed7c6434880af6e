"""Degree-bounded local projection of adjacency vectors.

Two pieces: a private estimate of the maximum degree (every user perturbs
its degree with Laplace noise of sensitivity 1, the server takes the max),
and the per-user projection that truncates adjacency rows to at most theta
neighbors. The similarity-based variant keeps the neighbors whose noisy
degrees are closest to the user's own noisy degree; since the three
degrees of a triangle tend to be similar, this preserves far more triangles
than deleting uniformly at random, which is kept as a baseline. Ranking
against the user's published noisy degree, not its true one, is what
bounds the count's sensitivity: one added bit in a row then adds or
removes at most one kept neighbour, and changes no other row.

A projection is a flag per directed slot of the source graph (see
graph.Slots): whether the slot's tail kept that neighbour. Both
projections take the slots of every over-theta row in one pass, clear
their flags and set those of the neighbours kept, with no n x n matrix.
The similarity rule sorts them in one lexsort. The random baseline still
draws once per over-theta row, rng.choice(d_i, theta, replace=False):
that is the stream the seeded sweep results were made with, and one bulk
draw would consume the generator differently and change them.
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

    kept[s] tells whether the user graph.slots.tail[s] kept its neighbour
    graph.slots.head[s], so rows only lose neighbours relative to graph.
    The rows may disagree, so they are not a Graph: each user truncates
    its own row without coordinating with the other endpoint. A pair is
    counted only if both endpoints kept it; secure_count.effective_graph
    is the Graph of those pairs.
    """

    graph: Graph
    theta: int
    kept: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def adj(self) -> np.ndarray:
        """The (n, n) uint8 0/1 projected rows, read-only.

        Row i holds the neighbours user i kept. Built on every access and
        not kept: the projection itself never needs it.
        """
        slots = self.graph.slots
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        adj[slots.tail[self.kept], slots.head[self.kept]] = 1
        adj.flags.writeable = False
        return adj


def max_private(degree_vector: np.ndarray, epsilon1: float, rng) -> NoisyDegrees:
    """Perturb every degree with an independent Laplace(1/epsilon1) draw.

    Sensitivity is 1 under the one-bit neighbouring relation of edge LDP:
    the two directions of an edge are separate secrets, and one adjacency
    bit changes one degree by one. Under a whole-edge relation the degree
    vector's L1 sensitivity would be 2; that relation is out of scope.
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
    theta neighbors whose noisy degrees are closest to their own noisy
    degree, |d'_i - d'_j|; ties break by ascending neighbor index, so the
    output is deterministic. One lexsort
    orders the slots of every over-theta row at once; a slot is kept
    when its rank within its row is below theta. Raises TypeError for a
    non-integral theta and ValueError for theta < 1.
    """
    if noisy.values.size != g.n:
        raise ValueError("noisy degrees do not match graph size")
    if theta is None:
        theta = effective_theta(noisy)
    theta = _check_theta(theta)
    over, d_rows, start = _over_theta_slots(g, theta)
    i, j = g.slots.tail[over], g.slots.head[over]
    ds = np.abs(noisy.values[i] - noisy.values[j])
    order = np.lexsort((j, ds, i))
    rank = np.arange(order.size) - np.repeat(start, d_rows)
    return _keep_slots(g, theta, over, over[order[rank < theta]])


def project_random(g: Graph, theta: int, rng) -> ProjectedGraph:
    """Baseline projection: over-degree users keep a uniform random subset.

    Row i draws rng.choice(d_i, theta, replace=False) positions in its
    ascending neighbor list, rows in ascending order. theta is checked
    as in project.
    """
    theta = _check_theta(theta)
    over, d_rows, start = _over_theta_slots(g, theta)
    picks = np.array(
        [rng.choice(d, size=theta, replace=False) for d in d_rows.tolist()],
        dtype=np.int64,
    ).reshape(-1, theta)
    return _keep_slots(g, theta, over, over[(picks + start[:, None]).reshape(-1)])


def _check_theta(theta) -> int:
    """theta as an int; raises TypeError unless integral, ValueError unless >= 1."""
    theta = operator.index(theta)
    if theta < 1:
        raise ValueError(f"theta must be positive, got {theta}")
    return theta


def _over_theta_slots(g: Graph, theta: int):
    """The slots of the rows with degree > theta, in row-major order.

    Returns those slots, the degrees of those rows, and the offset of
    each row's first slot: the r-th such row holds over[start[r]] to
    over[start[r] + d[r] - 1].
    """
    over_rows = g.degrees > theta
    d = g.degrees[over_rows]
    return np.flatnonzero(np.repeat(over_rows, g.degrees)), d, np.cumsum(d) - d


def _keep_slots(g: Graph, theta: int, over, keep) -> ProjectedGraph:
    """g's rows with the slots `over` dropped but for the slots `keep`."""
    kept = np.ones(2 * len(g.edges), dtype=bool)
    kept[over] = False
    kept[keep] = True
    kept.flags.writeable = False
    return ProjectedGraph(g, theta, kept)
