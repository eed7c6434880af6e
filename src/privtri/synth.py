"""Synthetic graph builders for benchmarks and examples.

clique_hub_proxy is the desk-scale stand-in for a large social graph when
no real edge list is on disk: dense same-degree communities carry the
triangles, and a single dominant hub gives the degree distribution an
isolated, well-separated maximum.
"""

import numpy as np

from .graph import Graph

# Edges per %-format in write_edge_list: the ids of one block are held as
# Python ints at a time, about 0.3 MB, not those of the whole file.
_WRITE_EDGES = 4096


def clique_hub_proxy(
    n: int = 2000, clique_size: int = 20, hub_reach: int = 1881
) -> Graph:
    """Disjoint cliques plus one hub of isolated maximum degree.

    Nodes [c*clique_size, (c+1)*clique_size) form a clique; node 0
    additionally links to nodes clique_size .. clique_size + hub_reach - 1.
    Deterministic, so prefix subgraphs are reproducible. The edges are
    built in row-major order, the form Graph keeps as it is.
    """
    if n % clique_size:
        raise ValueError("n must be a multiple of clique_size")
    if hub_reach > n - clique_size:
        raise ValueError("hub_reach exceeds nodes outside the hub's clique")
    bases = np.arange(0, n, clique_size)[:, None]
    a, b = np.triu_indices(clique_size, 1)
    u, v = (bases + a).ravel(), (bases + b).ravel()
    # node 0's hub edges follow its clique_size - 1 clique edges in row 0
    hub = np.arange(clique_size, clique_size + hub_reach)
    k = clique_size - 1
    u = np.concatenate((u[:k], np.zeros_like(hub), u[k:]))
    v = np.concatenate((v[:k], hub, v[k:]))
    return Graph(n, np.stack((u, v), axis=1))


def write_edge_list(g: Graph, path) -> None:
    """Write g as a SNAP-style edge list: one 'u v' line per edge, u < v,
    in row-major order."""
    edges = g.edges
    with open(path, "w", encoding="utf-8") as fh:
        # one %-format per block of _WRITE_EDGES lines: a write or f-string
        # per line takes more than twice as long
        for start in range(0, len(edges), _WRITE_EDGES):
            block = edges[start : start + _WRITE_EDGES]
            fh.write(("%d %d\n" * len(block)) % tuple(block.ravel().tolist()))
