"""Undirected graphs as adjacency bit matrices, with an exact triangle oracle.

Graphs are loaded from SNAP-style edge lists: one edge per line, two
whitespace-separated decimal node ids, '#' comment lines ignored. Node ids
are remapped to 0..n-1 in order of first appearance, so loading the same
file twice gives the same graph and prefix truncation is reproducible.

The triangle oracle here is plain and non-private; it is the ground truth
the secure counting path is tested against.
"""

from dataclasses import dataclass, field

import numpy as np


class EdgeListFormatError(ValueError):
    """Edge-list line that is not two non-negative integers."""


@dataclass(frozen=True)
class Graph:
    """Symmetric, loop-free adjacency matrix plus per-node degrees.

    adj is an (n, n) uint8 0/1 matrix; degrees[i] is the popcount of row i.
    Instances are immutable after construction.
    """

    n: int
    adj: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        adj = np.ascontiguousarray(self.adj, dtype=np.uint8)
        if adj.ndim != 2 or adj.shape != (self.n, self.n):
            raise ValueError(f"adjacency must be ({self.n}, {self.n})")
        if np.any(adj > 1):
            raise ValueError("adjacency entries must be 0/1")
        if np.any(np.diagonal(adj)):
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.flags.writeable = False
        degrees = adj.sum(axis=1, dtype=np.int64)
        degrees.flags.writeable = False
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "degrees", degrees)

    @property
    def d_max(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if u == v:
                continue
            adj[u, v] = 1
            adj[v, u] = 1
        return cls(n, adj)


def load_edge_list(path, limit_n: int | None = None) -> Graph:
    """Load a SNAP edge list into a Graph.

    Duplicate and reversed-duplicate edges collapse to one undirected edge;
    self-loop lines are dropped. With limit_n, only edges among the first
    limit_n distinct node ids encountered (in file order, u before v) are
    kept; nodes whose edges all leave the prefix stay as isolated nodes.

    Raises EdgeListFormatError naming the offending line, or ValueError if
    no nodes survive.
    """
    if limit_n is not None and limit_n < 1:
        raise ValueError("limit_n must be positive")
    id_map: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()

    def admit(raw: int) -> int | None:
        if raw in id_map:
            return id_map[raw]
        if limit_n is not None and len(id_map) >= limit_n:
            return None
        id_map[raw] = len(id_map)
        return id_map[raw]

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise EdgeListFormatError(
                    f"line {lineno}: expected two node ids, got {text!r}"
                )
            try:
                raw_u, raw_v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: expected two node ids, got {text!r}"
                ) from None
            if raw_u < 0 or raw_v < 0:
                raise EdgeListFormatError(f"line {lineno}: negative node id")
            u = admit(raw_u)
            v = admit(raw_v)
            if u is None or v is None or u == v:
                continue
            edges.add((min(u, v), max(u, v)))

    n = len(id_map)
    if n == 0:
        raise ValueError(f"no nodes found in {path}")
    return Graph.from_edges(n, edges)


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack an (n, m) 0/1 matrix into (n, ceil(m/64)) uint64 bitset rows."""
    packed = np.packbits(rows, axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def exact_triangle_count(g: Graph) -> int:
    """Number of unordered triples {i, j, k} with all three edges present.

    For every edge (i, j) with i < j, counts common neighbors k > j by
    intersecting the packed upper-triangle rows of i and j: row j only
    holds bits k > j, so each triangle is counted once, at its smallest edge.
    """
    n = g.n
    if n < 3:
        return 0
    upper = np.triu(g.adj, 1)
    packed = _pack_rows(upper)
    total = 0
    for i in range(n - 2):
        nbrs = np.flatnonzero(upper[i])
        if nbrs.size == 0:
            continue
        total += int(np.bitwise_count(packed[nbrs] & packed[i]).sum())
    return total
