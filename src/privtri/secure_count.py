"""Two-server triangle counting over secret-shared adjacency bits.

Users secret-share the bit of every unordered pair to two semi-honest,
non-colluding servers. With U the strictly upper-triangular matrix of the
effective bits, (U @ U)[i, k] counts the paths i < j < k, so the triangle
count is exactly T = sum over i < k of U[i, k] * (U @ U)[i, k] in Z_2^64.
The servers compute it on shares in two rounds of Beaver-masked openings:
one matrix triple for U @ U and one element-wise triple per pair for the
final product. Neither server sees a bit in the clear: the only
cross-server traffic is the masked openings, routed through an
OpeningChannel so the exchange is auditable.

The simulation runs both servers in one process. Each server's values are
computed only from its own shares, its dealer shares, and opened values.
"""

from dataclasses import dataclass

import numpy as np

from .graph import Graph, upper_edges
from .projection import ProjectedGraph
from .ring import (
    DealerRng,
    OpeningChannel,
    SharePair,
    beaver_share,
    check_matmul_inner,
    pair_index,
    ring_matmul,
)


def effective_edges(pg: ProjectedGraph) -> np.ndarray:
    """The (m, 2) pairs i < j actually counted, in row-major order.

    Projection is per-row, so A_hat[i, j] and A_hat[j, i] can disagree.
    A pair counts only if both endpoints kept it, so an edge either side
    dropped is never counted and the count stays below the true one. The
    pairs i < j that row i kept are checked against row j's bit in one
    gather.
    """
    i, j = upper_edges(pg.adj).T
    both = pg.adj[j, i].view(bool)
    return np.stack((i[both], j[both]), axis=1)


def effective_graph(pg: ProjectedGraph) -> Graph:
    """The graph actually counted: the Graph of effective_edges."""
    return Graph(pg.n, effective_edges(pg))


@dataclass(frozen=True)
class SharedAdjacency:
    """Additive shares of every pair bit, one uint64 vector per server.

    Both are pair vectors: entry p is the p-th pair i < j in the row-major
    order of ring.pair_mask, and s1[p] + s2[p] wraps to that pair's
    effective bit.
    """

    n: int
    s1: np.ndarray
    s2: np.ndarray


def share_adjacency(
    pg: ProjectedGraph, rng: DealerRng, policy: str = "and"
) -> SharedAdjacency:
    """Secret-share each pair's effective bit between the two servers."""
    # only 'and' remains; benchmarks/workloads.py reads this argument from its trace
    if policy != "and":
        raise ValueError(f"unknown bit policy {policy!r}; only 'and' is supported")
    i, j = effective_edges(pg).T
    bits = np.zeros(pg.n * (pg.n - 1) // 2, dtype=np.uint64)
    bits[pair_index(i, j, pg.n)] = 1
    masks = rng.elements(bits.size)
    return SharedAdjacency(n=pg.n, s1=masks, s2=bits - masks)


def count(
    sa: SharedAdjacency,
    n: int,
    dealer: DealerRng,
    channel: OpeningChannel | None = None,
) -> SharePair:
    """Shares of the triangle count T = sum_{i<k} U[i, k] * (U @ U)[i, k].

    All data, the shared bits u included, are pair vectors over the
    m = C(n, 2) pairs i < k (ring.pair_mask), and v @ w below stands for
    ring_matmul(v, w, n), the pair vector of the matrix product V @ W. The
    dealer draws, in this order, pair vectors of server shares x1, x2, z1
    (a square triple: z = x @ x) and a1, a2, b1, b2, c1 (an element-wise
    triple c = a * b), 8 * m elements in one call.

    Round 1 opens e = u - x and f = u - a. Server 1 computes
    p1 = e @ x1 + x1 @ e + z1 and server 2 p2 = x2 @ e + e @ (x2 + e) + z2,
    so p1 + p2 = (e + x) @ (e + x) = u @ u. Round 2 opens g = p - b, and
    each server sums its beaver_share of u * p. That is 2 rounds, 3 * m
    openings and 5 ring_matmul products (one by the dealer). A given dealer
    seed fixes every share and opened value; the reconstructed count
    depends only on the shared bits.
    """
    if n != sa.n:
        raise ValueError(f"n={n} does not match shared adjacency n={sa.n}")
    check_matmul_inner(n)
    if channel is None:
        channel = OpeningChannel()

    # dealer: both triples, server 2's product shares derived from the values
    x1, x2, z1, a1, a2, b1, b2, c1 = dealer.elements((8, n * (n - 1) // 2))
    x = x1 + x2
    z2 = ring_matmul(x, x, n) - z1
    c2 = (a1 + a2) * (b1 + b2) - c1

    # round 1
    e = channel.open_array(sa.s1 - x1, sa.s2 - x2)
    f = channel.open_array(sa.s1 - a1, sa.s2 - a2)

    # each server's share of u @ u, then round 2
    p1 = ring_matmul(e, x1, n) + ring_matmul(x1, e, n) + z1
    p2 = ring_matmul(x2, e, n) + ring_matmul(e, x2 + e, n) + z2
    g = channel.open_array(p1 - b1, p2 - b2)

    t1 = beaver_share(f, g, a1, b1, c1, public=False).sum(dtype=np.uint64)
    t2 = beaver_share(f, g, a2, b2, c2, public=True).sum(dtype=np.uint64)
    return SharePair(int(t1), int(t2))
