"""Two-server triangle counting over secret-shared adjacency bits.

Users secret-share the bit of every unordered pair to two semi-honest,
non-colluding servers. The servers walk all triples i < j < k in
lexicographic order and run one three-way share multiplication per triple,
accumulating output shares of the triangle count. Neither server sees a
bit in the clear: the only cross-server traffic is the masked openings
(e, f, g), routed through an OpeningChannel so the exchange is auditable.

The simulation runs both servers in one process; triples are processed in
vectorized chunks, which batches the openings without changing what is
opened or in which order.
"""

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .projection import ProjectedGraph
from .ring import MASK, DealerRng, OpeningChannel, SharePair, mul3_batch, share

BIT_POLICIES = ("and", "or", "row-owner")

# chunk bound for the vectorized triple loop; keeps peak memory flat at
# large n without affecting the dealer stream layout
MAX_CHUNK = 1 << 19


def effective_bits(pg: ProjectedGraph, policy: str = "and") -> np.ndarray:
    """Resolve the two directed post-projection bits of each pair into one.

    Projection is per-row, so A_hat[i, j] and A_hat[j, i] can disagree.
    'and' keeps an edge only if both endpoints kept it (never counts an
    edge either side dropped, so the count stays below the true one),
    'or' keeps it if either did, 'row-owner' trusts the lower-indexed
    endpoint's row. Returns a symmetric 0/1 matrix.
    """
    a = pg.adj
    if policy == "and":
        eff = a & a.T
    elif policy == "or":
        eff = a | a.T
    elif policy == "row-owner":
        upper = np.triu(a, 1)
        eff = upper | upper.T
    else:
        raise ValueError(f"unknown bit policy {policy!r}")
    eff = np.ascontiguousarray(eff, dtype=np.uint8)
    np.fill_diagonal(eff, 0)
    return eff


def effective_graph(pg: ProjectedGraph, policy: str = "and") -> Graph:
    """The symmetric graph actually counted under the given policy."""
    eff = effective_bits(pg, policy)
    return Graph(eff.shape[0], eff)


@dataclass(frozen=True)
class SharedAdjacency:
    """Additive shares of every pair bit, one uint64 matrix per server.

    Entries are valid for i < j (the triple loop only reads the upper
    triangle); s1[i, j] + s2[i, j] wraps to the effective bit.
    """

    n: int
    s1: np.ndarray
    s2: np.ndarray

    def reconstruct_bits(self) -> np.ndarray:
        """Upper-triangle effective bits, for round-trip checks."""
        total = self.s1 + self.s2
        return np.triu(total.astype(np.uint8), 1)


def share_adjacency(
    pg: ProjectedGraph, rng: DealerRng, policy: str = "and"
) -> SharedAdjacency:
    """Secret-share each pair's effective bit between the two servers."""
    eff = effective_bits(pg, policy).astype(np.uint64)
    n = eff.shape[0]
    masks = rng.elements((n, n))
    return SharedAdjacency(n=n, s1=masks, s2=eff - masks)


def count(
    sa: SharedAdjacency,
    n: int,
    dealer: DealerRng,
    channel: OpeningChannel | None = None,
) -> SharePair:
    """Accumulate shares of the triangle count over all triples i < j < k.

    One fresh multiplication group per triple, drawn from the dealer stream
    in lexicographic triple order, so a given dealer seed fixes every share
    while the reconstructed count depends only on the shared bits. The
    result equals a loop of mul3 calls over the triples with deal_mg groups
    from the same stream; chunking only batches the openings.
    """
    if n != sa.n:
        raise ValueError(f"n={n} does not match shared adjacency n={sa.n}")
    if n < 3:
        return share(0, dealer)
    if channel is None:
        channel = OpeningChannel()

    jj, kk = np.triu_indices(n, 1)
    n_pairs = jj.size
    s1m, s2m = sa.s1, sa.s2
    t1 = t2 = 0
    for i in range(n - 2):
        # pairs (j, k) with j > i are a suffix of the row-major pair order
        start = n_pairs - ((n - 1 - i) * (n - 2 - i)) // 2
        j_all = jj[start:]
        k_all = kk[start:]
        for lo in range(0, j_all.size, MAX_CHUNK):
            j = j_all[lo : lo + MAX_CHUNK]
            k = k_all[lo : lo + MAX_CHUNK]
            draws = dealer.elements((j.size, 10))
            u1, u2 = mul3_batch(
                s1m[i, j], s2m[i, j],
                s1m[i, k], s2m[i, k],
                s1m[j, k], s2m[j, k],
                draws,
                channel,
            )
            t1 = (t1 + int(u1.sum(dtype=np.uint64))) & MASK
            t2 = (t2 + int(u2.sum(dtype=np.uint64))) & MASK
    return SharePair(t1, t2)
