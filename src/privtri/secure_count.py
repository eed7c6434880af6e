"""Two-server triangle counting over secret-shared adjacency bits.

Users secret-share the bit of every unordered pair to two semi-honest,
non-colluding servers. For a pair vector v, with V_s the symmetric
zero-diagonal matrix that holds it, P_v = V_s @ V_s on the pairs counts
the paths through a third node, and each triangle closes three of them,
so the triangle count is T(v) = 3^-1 <v, P_v> in Z_2^32 (3 is odd, so it
is invertible mod 2**32). Every pair vector is uint32, 4 bytes per share,
opening and dealer element, and wraps mod 2**32 by itself. A count over
n <= ring.MAX_USERS = 2345 users is at most C(n, 3) < 2**31, so Z_2^32
holds it; count refuses a larger n before dealing. perturbation later adds
integer noise to the count shares in the same ring.

The servers count in one round, from a dealer correlation fitted to T:
the function-dependent preprocessing of ABY2.0 (Patra et al., USENIX
Security 2021) on a matrix correlation as in SecureML (Mohassel & Zhang,
S&P 2017). With the shared bits u = e + x for a dealt mask x, T is cubic,
so

    T(u) = T(e) + <x, P_e> + <e, P_x> + T(x),

and the dealer shares P_x and T(x) with ring.share, the one sharing
kernel, which also splits the users' bits. The servers open e = u - x
once and finish from the public P_e, each with ring.ring_square, the one
product kernel. Neither server sees a bit in the clear: the only
cross-server traffic is the masked opening, routed through an
OpeningChannel so the exchange is auditable.

The simulation runs both servers in one process. Each server's values are
computed only from its own shares, its dealer shares, and opened values.
"""

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .projection import ProjectedGraph
from .ring import (
    MASK, MAX_USERS, DealerRng, OpeningChannel, SharePair, pair_index, ring_square, share,
)


def effective_edges(pg: ProjectedGraph) -> np.ndarray:
    """The (m, 2) pairs i < j actually counted, in row-major order.

    Projection is per-row, so A_hat[i, j] and A_hat[j, i] can disagree.
    A pair counts only if both endpoints kept it, so an edge either side
    dropped is never counted and the count stays below the true one. The
    source graph's edges (i, j) are kept where both of their slots, (i, j)
    and (j, i), are, by one gather of each; they stay in canonical order.
    """
    slots = pg.graph.slots
    return pg.graph.edges[pg.kept[slots.fwd] & pg.kept[slots.rev]]


def effective_graph(pg: ProjectedGraph) -> Graph:
    """The graph actually counted: the Graph of effective_edges."""
    return Graph(pg.n, effective_edges(pg))


@dataclass(frozen=True, eq=False)
class SharedAdjacency:
    """Additive shares of every pair bit, one vector per server.

    Both are uint32 pair vectors in Z_2^32: entry p is the p-th pair
    i < j in the row-major order of ring.pair_mask, and s1[p] + s2[p]
    wraps to that pair's effective bit mod 2**32.
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
    bits = np.zeros(pg.n * (pg.n - 1) // 2, dtype=np.uint32)
    bits[pair_index(i, j, pg.n)] = 1
    return SharedAdjacency(pg.n, *share(bits, rng))


def count(
    sa: SharedAdjacency,
    n: int,
    dealer: DealerRng,
    channel: OpeningChannel | None = None,
) -> SharePair:
    """Shares of the triangle count T(u) = 3^-1 <u, P_u>, in one round.

    All data, the shared bits u included, are pair vectors over the
    m = C(n, 2) pairs i < k (ring.pair_mask), and P_v = ring_square(v) is
    the pair vector of V_s @ V_s, V_s = V + V.T. The dealer draws pair
    vectors x1 and x2 from one stream and, with ring.share from the same
    stream, splits W = P_x and T(x) = 3^-1 <x, W>, x = x1 + x2: server 1
    gets the masks w1 and tx1, server 2 w2 = W - w1 and tx2 = T(x) - tx1.

    The one round opens e = u - x (m openings). P_e is a function of the
    opened e alone, so like e itself the simulation computes it once for
    both servers. Since T(u) = T(e) + <x, P_e> + <e, P_x> + T(x), server 1
    outputs 3^-1 <e, P_e> + <x1, P_e> + <e, w1> + tx1 and server 2
    <x2, P_e> + <e, w2> + tx2. A given dealer seed fixes every share and
    opened value; the reconstructed count depends only on the shared bits.

    Each value is dropped once its last use is done, so beside the
    caller's shares and ring_square's resident workspace the count holds
    at most five pair vectors of 4 m bytes: x1 and x2 are drawn; e is
    opened from the servers' messages u1 - x1 and u2 - x2, then dropped;
    the dealer forms x, P_x and T(x), drops x, and shares P_x in its own
    array, then T(x); <e, w1> + tx1 and <e, w2> + tx2 go into the shares
    and w1 and w2 are dropped; only then is P_e squared. The dealer never
    reads e, and the stream is read in the same order (x1, x2, w1, tx1) as
    if it dealt before the round, so dealing P_x after the opening moves
    no value, and each server still computes only from its own view. The
    caller's shares are read, never written.

    Everything runs in Z_2^32 on uint32 pair vectors, which wrap mod
    2**32 by themselves, so no value that leaves the dealer or a server
    carries a bit above the ring. n above ring.MAX_USERS, whose count
    would not fit the signed range of the ring, is refused before dealing.
    """
    if n != sa.n:
        raise ValueError(f"n={n} does not match shared adjacency n={sa.n}")
    if n > MAX_USERS:
        raise ValueError(f"a count over {n} users does not fit the ring; at most {MAX_USERS}")
    if channel is None:
        channel = OpeningChannel()
    third = pow(3, -1, 1 << 32)

    # the one round opens e before the dealer squares, so the servers'
    # messages are gone before P_x exists. x1, x2 and w1 are drawn one at
    # a time: glibc serves each from its heap, where one fresh (3, m)
    # block was mapped and page-faulted in anew on every count
    m = n * (n - 1) // 2
    x1, x2 = dealer.elements(m), dealer.elements(m)
    e = channel.open_array(sa.s1 - x1, sa.s2 - x2)

    # dealer: W = P_x and T(x) of x = x1 + x2; w2 overwrites W's array
    x = x1 + x2
    w = ring_square(x, n)
    tx = third * int(np.dot(x, w))
    del x
    (w1, w2), (tx1, tx2) = share(w, dealer), share(tx, dealer)

    # np.dot wraps in uint32, exact mod 2**32
    t1 = int(np.dot(e, w1)) + tx1
    t2 = int(np.dot(e, w2)) + tx2
    del w, w1, w2
    pe = ring_square(e, n)
    t1 += third * int(np.dot(e, pe)) + int(np.dot(x1, pe))
    t2 += int(np.dot(x2, pe))
    return SharePair(t1 & MASK, t2 & MASK)
