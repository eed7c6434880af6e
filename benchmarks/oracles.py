"""Reference values the benchmark checks the program against.

None of this code calls privtri: the triangle counter is a dense matrix
product, and the proxy's counts follow from how the graph is built.
"""

import math

import numpy as np

# clique_hub_proxy(n=2000, clique_size=20, hub_reach=1881): disjoint
# 20-cliques, and node 0 (in clique 0) also joined to nodes 20..1900
PROXY_N = 2000
CLIQUE = 20
HUB_REACH = 1881
_BLOCK = 250


def proxy_triangles(n: int) -> int:
    """Triangles among the first n nodes of the proxy, n a multiple of 20.

    Each clique holds C(20, 3) = 1140 triangles; each clique lying wholly
    inside the hub's reach adds C(20, 2) = 190 triangles through the hub.
    """
    reach_end = min(n, CLIQUE + HUB_REACH)  # one past the last node joined to the hub
    cliques = n // CLIQUE
    inside = sum(1 for c in range(1, cliques) if (c + 1) * CLIQUE <= reach_end)
    return math.comb(CLIQUE, 3) * cliques + math.comb(CLIQUE, 2) * inside


def proxy_hub_degree(n: int) -> int:
    """Degree of node 0, the maximum degree of every prefix of 40 or more nodes."""
    return (CLIQUE - 1) + min(n, CLIQUE + HUB_REACH) - CLIQUE


def trace_triangles(adj: np.ndarray) -> int:
    """trace(A^3) / 6 in float64, in blocks of rows and columns.

    Exact while n^3 < 2^53: every partial sum is an integer below that.
    The blocks keep the float copy small next to the program's own memory.
    """
    a = np.asarray(adj)
    n = a.shape[0]
    if n**3 >= 2**53:
        raise ValueError(f"n={n} is too large for an exact float64 count")
    total = 0.0
    for lo_j in range(0, n, _BLOCK):
        cols = a[:, lo_j : lo_j + _BLOCK].astype(np.float64)
        for lo_i in range(0, n, _BLOCK):
            rows = a[lo_i : lo_i + _BLOCK].astype(np.float64)
            paths2 = rows @ cols  # (A^2)[I, J]
            total += float((paths2 * cols[lo_i : lo_i + _BLOCK]).sum())  # A[I, J] = A[J, I].T
    six_t = int(total)
    if six_t != total or six_t % 6:
        raise ValueError(f"trace(A^3) = {total} is not a multiple of 6")
    return six_t // 6
