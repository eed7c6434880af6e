import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

from privtri import (
    DealerRng,
    Graph,
    OpeningChannel,
    SharedAdjacency,
    count,
    exact_triangle_count,
    project,
    reconstruct,
    share_adjacency,
)
from privtri import ring
from privtri.ring import MASK, MAX_USERS, RING_BITS
from privtri.secure_count import effective_edges, effective_graph

from conftest import (
    as_projected, complete_graph, erdos_renyi, projected_rows, relaxed_caveman, upper_edges,
)


def secure_count_of(g: Graph, dealer_seed: int = 0) -> int:
    sa = share_adjacency(as_projected(g), DealerRng(dealer_seed, 0))
    return reconstruct(count(sa, g.n, DealerRng(dealer_seed, 1)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Graph(3, [(0, 1)]),
        lambda: projected_rows(np.zeros((3, 3), dtype=np.uint8), theta=1),
        lambda: SharedAdjacency(3, np.zeros(3, dtype=np.uint32), np.ones(3, dtype=np.uint32)),
    ],
    ids=["Graph", "ProjectedGraph", "SharedAdjacency"],
)
def test_array_holders_compare_and_hash_by_identity(make):
    # a field-wise == over arrays has no single truth value; identity does
    a, b = make(), make()
    assert a == a and a != b
    assert a in [b, a] and a not in [b]
    assert len({a, b, a}) == 2


def test_effective_graph_policies():
    adj = np.zeros((3, 3), dtype=np.uint8)
    adj[0, 1] = 1  # row 0 kept the edge, row 1 dropped it
    pg = projected_rows(adj, theta=1)
    assert effective_graph(pg).adj[0, 1] == effective_graph(pg).adj[1, 0] == 0
    adj2 = np.zeros((3, 3), dtype=np.uint8)
    adj2[1, 0] = 1  # row 1 kept the edge, row 0 dropped it
    pg2 = projected_rows(adj2, theta=1)
    assert effective_graph(pg2).adj[0, 1] == effective_graph(pg2).adj[1, 0] == 0
    with pytest.raises(ValueError):
        share_adjacency(pg, DealerRng(0), "or")


def test_effective_edges_and_shares_match_dense_and_rule():
    # independent of effective_edges: the dense 'and' of the matrix and its
    # transpose, upper triangle only, so diagonal bits never count; the
    # smallest sizes, all-one matrices and set diagonals come first
    rng = np.random.default_rng(59)
    adjs = [np.zeros((n, n), dtype=np.uint8) for n in (0, 1, 2)]
    adjs += [np.ones((n, n), dtype=np.uint8) for n in (1, 2)]
    for _ in range(20):
        n = int(rng.integers(0, 40))
        adjs.append((rng.random((n, n)) < rng.uniform(0.1, 0.9)).astype(np.uint8))
    for trial, adj in enumerate(adjs):
        n = adj.shape[0]
        pg = projected_rows(adj, theta=max(n, 1))
        both = np.triu(adj & adj.T, 1)
        assert np.array_equal(effective_edges(pg), np.argwhere(both))
        eg = effective_graph(pg)
        assert eg.n == n
        assert np.array_equal(eg.adj, both | both.T)
        assert np.array_equal(eg.degrees, (both | both.T).sum(axis=1))
        sa = share_adjacency(pg, DealerRng(trial))
        assert sa.s1.dtype == sa.s2.dtype == np.uint32
        assert np.array_equal(sa.s1, DealerRng(trial).elements(comb(n, 2)))
        assert np.array_equal(sa.s1 + sa.s2, both[np.triu_indices(n, 1)])  # wraps in the dtype


def test_share_adjacency_roundtrip_symmetric():
    rng = np.random.default_rng(3)
    g = erdos_renyi(20, 0.3, rng)
    sa = share_adjacency(as_projected(g), DealerRng(1))
    assert np.array_equal(sa.s1 + sa.s2, g.adj[np.triu_indices(g.n, 1)])


def test_share_adjacency_roundtrip_asymmetric():
    rng = np.random.default_rng(5)
    adj = (rng.random((15, 15)) < 0.4).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    pg = projected_rows(adj, theta=15)
    sa = share_adjacency(pg, DealerRng(2))
    assert np.array_equal(sa.s1 + sa.s2, effective_graph(pg).adj[np.triu_indices(15, 1)])


def test_count_small_graphs():
    assert secure_count_of(complete_graph(3)) == 1
    assert secure_count_of(complete_graph(4)) == 4


def test_count_tiny_graph_returns_zero_shares():
    # below three nodes the general protocol runs on its 0 or 1 pairs
    for n in (0, 1, 2):
        g = Graph(n, list(combinations(range(n), 2)))
        sa = share_adjacency(as_projected(g), DealerRng(0, 0))
        channel = OpeningChannel()
        assert reconstruct(count(sa, n, DealerRng(0, 1), channel)) == 0
        assert channel.openings == comb(n, 2)


def test_count_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for trial in range(10):
        g = erdos_renyi(30, 0.2, rng)
        assert secure_count_of(g, dealer_seed=trial) == exact_triangle_count(g)


def test_count_matches_oracle_on_a_caveman_graph():
    # 300 nodes in communities of 5 to 80 with cross edges, counted whole
    # and after similarity projection at theta = 10, which cuts rows
    g = relaxed_caveman(300, seed=3)
    assert secure_count_of(g) == exact_triangle_count(g)
    pg = project(g, g.degrees, theta=10)
    assert np.sum(g.degrees > 10) >= 30
    sa = share_adjacency(pg, DealerRng(4, 0))
    assert reconstruct(count(sa, g.n, DealerRng(4, 1))) == exact_triangle_count(effective_graph(pg))


def test_count_value_independent_of_dealer_seed():
    g = erdos_renyi(25, 0.25, np.random.default_rng(13))
    shares = []
    for seed in (1, 2):
        sa = share_adjacency(as_projected(g), DealerRng(seed, 0))
        shares.append(count(sa, g.n, DealerRng(seed, 1)))
    assert reconstruct(shares[0]) == reconstruct(shares[1]) == exact_triangle_count(g)
    assert shares[0] != shares[1]  # masks moved, value did not


def test_count_deterministic_for_fixed_dealer():
    g = erdos_renyi(18, 0.3, np.random.default_rng(17))

    def one_run():
        sa = share_adjacency(as_projected(g), DealerRng(9, 0))
        return count(sa, g.n, DealerRng(9, 1))

    assert one_run() == one_run()


def test_count_with_a_warm_workspace_matches_a_cleared_one():
    # ring_square keeps its workspace between calls; a count run right after
    # another count of the same n gives the same shares and openings as one
    # run after the cache is cleared
    rng = np.random.default_rng(43)
    g, other = erdos_renyi(150, 0.3, rng), erdos_renyi(150, 0.6, rng)

    def one_run(graph, seed):
        sa = share_adjacency(as_projected(graph), DealerRng(seed, 0))
        channel = OpeningChannel(record=True)
        return count(sa, graph.n, DealerRng(seed, 1), channel), channel.values

    ring._workspace.clear()
    cold = one_run(g, 1)
    one_run(other, 2)
    warm = one_run(g, 1)
    assert warm == cold
    assert reconstruct(cold[0]) == exact_triangle_count(g) > 0


def test_count_disjoint_union_linearity():
    rng = np.random.default_rng(19)
    g1 = erdos_renyi(20, 0.3, rng)
    g2 = erdos_renyi(25, 0.25, rng)
    edges = np.concatenate((upper_edges(g1.adj), upper_edges(g2.adj) + g1.n))
    union = Graph(g1.n + g2.n, edges)
    assert secure_count_of(union) == secure_count_of(g1) + secure_count_of(g2)


def test_count_asymmetric_projection_respects_policy():
    rng = np.random.default_rng(23)
    adj = (rng.random((20, 20)) < 0.35).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    pg = projected_rows(adj, theta=20)
    sa = share_adjacency(pg, DealerRng(31, 0))
    got = reconstruct(count(sa, 20, DealerRng(31, 1)))
    assert got == exact_triangle_count(effective_graph(pg))


def test_count_spans_several_row_blocks():
    # sizes past 128 and 256 rows, where BLAS splits its products into
    # blocks; the last is one row beyond
    for n, seed in ((150, 43), (193, 47), (257, 53)):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.3).astype(np.uint8)
        np.fill_diagonal(adj, 0)
        pg = projected_rows(adj, theta=n)
        sa = share_adjacency(pg, DealerRng(seed, 0))
        got = reconstruct(count(sa, n, DealerRng(seed, 1)))
        assert got == exact_triangle_count(effective_graph(pg)) > 0


def pinned_count_input():
    # an n = 300 Erdős–Rényi graph at p = 0.1, shared under DealerRng(13, 0)
    n = 300
    g = erdos_renyi(n, 0.1, np.random.default_rng(113))
    return g, share_adjacency(as_projected(g), DealerRng(13, 0))


@pytest.mark.parametrize("bits", [RING_BITS])
def test_count_peak_is_the_draw_a_few_pair_vectors_and_the_workspace(bits):
    # count's traced peak at n = 300 is at most the workspace it allocates
    # (two limb matrices and one scratch matrix, n x n float64 each), five
    # uint32 pair vectors (x1, x2, the opened e, x and P_x, then x1, x2, e,
    # w1 and w2), the n x n bool pair_mask it caches on a first square at
    # n, one band of _square_pairs temporaries (a float64 gather and its
    # int64 copy of at most _PAIR_BLOCK + n pairs) and 128 KB for numpy's
    # cast buffers; a sixth pair vector held across either square fails it.
    # A count at another n first loads what a first call imports lazily
    g, sa = pinned_count_input()
    n, m = g.n, comb(g.n, 2)
    warm = erdos_renyi(40, 0.3, np.random.default_rng(1))
    count(share_adjacency(as_projected(warm), DealerRng(1, 0)), warm.n, DealerRng(1, 1))
    ring._workspace.clear()
    tracemalloc.start()
    try:
        t = count(sa, n, DealerRng(13, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    workspace = (bits // 16 + 1) * n * n * 8
    band = 2 * 8 * (ring._PAIR_BLOCK + n)
    assert peak < workspace + 5 * bits // 8 * m + n * n + band + 131072
    assert reconstruct(t) == exact_triangle_count(g) > 0


def test_count_reads_the_dealer_stream_in_order_and_never_writes_the_shares():
    # the dealer stream is read as x1, x2, w1, then tx1, so these seeds fix
    # the output shares; a reorder that moves a draw changes them, and one
    # that writes into the caller's shares fails the byte comparison
    g, sa = pinned_count_input()
    s1, s2 = sa.s1.tobytes(), sa.s2.tobytes()
    assert count(sa, g.n, DealerRng(13, 1)) == (3083888135, 1211083591)
    assert sa.s1.tobytes() == s1 and sa.s2.tobytes() == s2


def test_count_mismatched_n_rejected():
    g = complete_graph(4)
    sa = share_adjacency(as_projected(g), DealerRng(1, 0))
    with pytest.raises(ValueError):
        count(sa, 5, DealerRng(1, 1))


class CallCountingChannel(OpeningChannel):
    def __init__(self):
        super().__init__(record=True)
        self.calls = 0
        self.dtypes = []

    def open_array(self, s1, s2):
        self.calls += 1
        value = super().open_array(s1, s2)
        self.dtypes.append(value.dtype)
        return value


def test_count_transcript():
    # one round: e, one opened value per pair i < k, each an element of
    # Z_2^32 like the output shares
    g = erdos_renyi(12, 0.5, np.random.default_rng(37))
    opened = []
    for seed in (1, 2):
        sa = share_adjacency(as_projected(g), DealerRng(seed, 0))
        channel = CallCountingChannel()
        t = count(sa, g.n, DealerRng(seed, 1), channel=channel)
        assert channel.calls == 1
        assert channel.openings == len(channel.values) == comb(g.n, 2)
        assert reconstruct(t) == exact_triangle_count(g) > 0
        assert max(channel.values) <= MASK and max(t) <= MASK
        assert channel.dtypes == [np.uint32]
        opened.append(np.array(channel.values, dtype=np.uint64))
    # same graph, different masks: the opened values move
    assert np.count_nonzero(opened[0] == opened[1]) == 0


def test_count_matches_plain_triple_sum():
    # independent of ring_square and the oracle: the plain sum over every
    # triple i < j < k of the products of its reconstructed pair bits
    rng = np.random.default_rng(29)
    adj = (rng.random((9, 9)) < 0.6).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    pg = projected_rows(adj, theta=9)
    sa = share_adjacency(pg, DealerRng(41, 0))
    bit = dict(zip(combinations(range(pg.n), 2), (sa.s1 + sa.s2).tolist()))
    want = 0
    for i, j, k in combinations(range(pg.n), 3):
        want += bit[i, j] * bit[i, k] * bit[j, k]
    got = reconstruct(count(sa, pg.n, DealerRng(41, 1)))
    assert got == want & MASK > 0


def test_count_refuses_inexact_size_before_dealing():
    # above MAX_USERS users the count would not fit the signed range of
    # the ring; count refuses before any dealer draw, also at 2**19 users,
    # where ring_square's float64 limb sums would no longer be exact
    tiny = np.zeros(1, dtype=np.uint32)
    dealer = DealerRng(3)
    for n in (MAX_USERS + 1, 1 << 19):
        with pytest.raises(ValueError, match=f"at most {MAX_USERS}"):
            count(SharedAdjacency(n, tiny, tiny), n, dealer)
    assert np.array_equal(dealer.elements(4), DealerRng(3).elements(4))


class RecordingDealer(DealerRng):
    def __init__(self, *seed):
        super().__init__(*seed)
        self.draws = []

    def elements(self, shape):
        self.draws.append(super().elements(shape))
        return self.draws[-1]


def test_count_pair_vectors_are_uint32_in_the_32_bit_ring():
    # at every admitted n the shares, the dealer draws and the openings are
    # uint32, 4 bytes each; a count at n = MAX_USERS would take seconds, so
    # only its shares are checked
    for n in (3, 30, MAX_USERS):
        g = erdos_renyi(n, 0.4, np.random.default_rng(n)) if n < 100 else Graph(n, [(0, 1)])
        sa = share_adjacency(as_projected(g), DealerRng(7, 0))
        assert sa.s1.dtype == sa.s2.dtype == np.uint32
        assert np.array_equal(sa.s1, DealerRng(7, 0).elements(comb(n, 2)))
    for n in (3, 30):
        g = erdos_renyi(n, 0.4, np.random.default_rng(n))
        sa = share_adjacency(as_projected(g), DealerRng(7, 0))
        dealer, channel = RecordingDealer(7, 1), CallCountingChannel()
        t = count(sa, n, dealer, channel)
        # x1, x2 and w1 are three pair vectors drawn one after another,
        # then tx1 is one 0-d draw
        shapes = [(comb(n, 2),)] * 3 + [()]
        assert [(d.dtype, d.shape) for d in dealer.draws] == [(np.uint32, s) for s in shapes]
        fresh = DealerRng(7, 1)
        for draw, shape in zip(dealer.draws, shapes):
            assert np.array_equal(draw, fresh.elements(shape))
        assert channel.dtypes == [np.uint32]
        assert reconstruct(t) == exact_triangle_count(g)


class NegatedMaskDealer(RecordingDealer):
    """A broken dealer whose x2 is the negated user masks s1: the count
    stays exact, but server 1's e - s1 + x1 is then the bits themselves."""

    def __init__(self, masks, *seed):
        super().__init__(*seed)
        self.masks = masks

    def elements(self, shape):
        draw = super().elements(shape)
        if len(self.draws) == 2:
            draw = self.draws[-1] = np.uint32(0) - self.masks
        return draw


# the hiding audit: dealer seeds per graph, and the two-sided normal
# quantile at 10^-6, the level of each of its two-sample tests
HIDING_SEEDS = 1000
HIDING_Z = 4.8916


def server_views(g: Graph, make_dealer, first_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each server's view of count on g, one row per dealer seed from
    first_seed on.

    Server 1 holds its user shares s1, its dealer values x1, w1 and tx1,
    and the opened e. Server 2 holds s2, x2 and e, and its dealer values
    w2 = P_x - w1 and tx2 = T(x) - tx1, rebuilt from the recorded draws.
    Each view ends with what its server can combine: e - s1 + x1 for
    server 1 and e - s2 + x2 for server 2. make_dealer(sa, seed) gives
    the count's dealer. Two (HIDING_SEEDS, 5 m + 1) uint32 arrays.
    """
    third = pow(3, -1, 1 << 32)
    views = ([], [])
    for seed in range(first_seed, first_seed + HIDING_SEEDS):
        sa = share_adjacency(as_projected(g), DealerRng(seed, 0))
        dealer, channel = make_dealer(sa, seed), CallCountingChannel()
        count(sa, g.n, dealer, channel)
        x1, x2, w1, tx1 = dealer.draws
        e = np.array(channel.values, dtype=np.uint32)
        x = x1 + x2
        px = ring.ring_square(x, g.n)
        tx2 = (third * int(np.dot(x, px)) - int(tx1)) & MASK
        views[0].append(np.concatenate((sa.s1, x1, w1, [tx1], e, e - sa.s1 + x1)))
        views[1].append(np.concatenate((sa.s2, x2, px - w1, [tx2], e, e - sa.s2 + x2)))
    return tuple(np.array(v, dtype=np.uint32) for v in views)


def flagged(view_a: np.ndarray, view_b: np.ndarray) -> np.ndarray:
    """The coordinates whose low or top bit is set at rates that differ
    between two views, by a two-proportion z-test at HIDING_Z."""
    z = np.zeros(view_a.shape[1])
    for shift in (0, RING_BITS - 1):
        pa = (view_a >> shift & 1).mean(axis=0)
        pb = (view_b >> shift & 1).mean(axis=0)
        pool = (pa + pb) / 2
        se = np.sqrt(pool * (1 - pool) * 2 / HIDING_SEEDS)
        z = np.maximum(z, np.abs(pa - pb) / np.where(se > 0, se, np.inf))
    return np.flatnonzero(z > HIDING_Z)


def test_count_views_hide_the_bits():
    # the simulation paradigm of semi-honest security (Goldreich,
    # Foundations of Cryptography II, 2004; Lindell, "How to Simulate It",
    # 2017): each server's view must be distributed alike whatever the
    # bits are, so the views on the empty and the complete graph at n = 8
    # are compared coordinate by coordinate, each graph under its own
    # dealer seeds. It catches correlations and proves nothing
    empty, full = Graph(8, []), complete_graph(8)
    m = comb(8, 2)

    def honest(sa, seed):
        return RecordingDealer(seed, 1)

    views = zip(server_views(empty, honest, 0), server_views(full, honest, HIDING_SEEDS))
    for a, b in views:
        assert a.shape == (HIDING_SEEDS, 5 * m + 1)
        assert flagged(a, b).size == 0

    # positive control: a dealer that reuses the user masks for x2 lets
    # server 1 read every bit from e - s1 + x1, its last m coordinates
    def leaky(sa, seed):
        return NegatedMaskDealer(sa.s1, seed, 1)

    server1 = server_views(empty, leaky, 0)[0], server_views(full, leaky, HIDING_SEEDS)[0]
    assert flagged(*server1).tolist() == list(range(4 * m + 1, 5 * m + 1))


@pytest.mark.parametrize("bits", [RING_BITS])
def test_count_at_every_width(bits):
    # a count in the ring reconstructs the exact count, and no opened value
    # or output share carries a bit at or above the width
    g = erdos_renyi(40, 0.5, np.random.default_rng(137))
    sa = share_adjacency(as_projected(g), DealerRng(17, 0))
    channel = OpeningChannel(record=True)
    t = count(sa, g.n, DealerRng(17, 1), channel)
    assert max(channel.values) < 1 << bits and max(t) < 1 << bits
    assert reconstruct(t) == exact_triangle_count(g) > 0
