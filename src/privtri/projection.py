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
They share one kernel: every over-theta row keeps its theta slots of
lowest key, ties to the lower neighbour index, found by a sort by key and
a stable sort by row over all those slots at once. The similarity rule's
key is |d'_i - d'_j|, equal at both slots of an edge between two
over-theta rows, so it is sorted stably. The random baseline draws its
keys in one rng.random call, a value per slot, and the theta lowest of a
row's i.i.d. uniform keys are a uniform theta-subset of its neighbours.
Those keys are almost never equal, so they take the faster unstable
sort, and the stable one only when two tie: distinct keys have one
sorted order, so either sort keeps the same slots.
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
    output is deterministic. Raises TypeError for a non-integral theta
    and ValueError for theta < 1.
    """
    if noisy.values.size != g.n:
        raise ValueError("noisy degrees do not match graph size")
    if theta is None:
        theta = effective_theta(noisy)
    theta = check_theta(theta)
    over, d_rows, start = _over_theta_slots(g, theta)
    key = np.abs(noisy.values[g.slots.tail[over]] - noisy.values[g.slots.head[over]])
    return _keep_lowest(g, theta, over, d_rows, start, np.argsort(key, kind="stable"))


def project_random(g: Graph, theta: int, rng) -> ProjectedGraph:
    """Baseline projection: over-degree users keep a uniform random subset.

    One rng.random draw gives every slot of the over-theta rows a key, in
    row-major order, and each such row keeps the theta neighbors of lowest
    key, ties to the lower neighbor index. theta is checked as in project,
    before anything is drawn.
    """
    theta = check_theta(theta)
    over, d_rows, start = _over_theta_slots(g, theta)
    key = rng.random(over.size)
    by_key = np.argsort(key)
    ranked = key[by_key]
    if np.any(ranked[1:] == ranked[:-1]):
        by_key = np.argsort(key, kind="stable")
    return _keep_lowest(g, theta, over, d_rows, start, by_key)


def check_theta(theta) -> int:
    """theta as an int; raises TypeError unless integral, ValueError unless >= 1."""
    try:
        theta = operator.index(theta)
    except TypeError:
        raise TypeError(f"theta must be an integer, got {theta!r}") from None
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


def _keep_lowest(g: Graph, theta: int, over, d_rows, start, by_key) -> ProjectedGraph:
    """g's rows with the slots `over` cut to the theta of lowest key per row.

    over, d_rows and start are as _over_theta_slots returns them, and
    by_key lists the positions k of over in the order of their slots'
    keys, tied keys by ascending k: a stable argsort of the keys. A
    stable sort by row after it orders each row by (key, neighbour),
    since over lists a row's neighbours in ascending order. The row
    numbers take the smallest unsigned type that holds them, so that
    numpy radix-sorts that pass whenever they fit 16 bits.
    """
    row = np.repeat(np.arange(d_rows.size, dtype=np.min_scalar_type(d_rows.size)), d_rows)
    order = by_key[np.argsort(row[by_key], kind="stable")]
    rank = np.arange(order.size) - np.repeat(start, d_rows)
    kept = np.ones(2 * len(g.edges), dtype=bool)
    kept[over] = False
    kept[over[order[rank < theta]]] = True
    kept.flags.writeable = False
    return ProjectedGraph(g, theta, kept)
