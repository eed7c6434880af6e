from itertools import combinations
from math import comb

import numpy as np
import pytest

from privtri import (
    DealerRng,
    Graph,
    OpeningChannel,
    ProjectedGraph,
    SharedAdjacency,
    count,
    exact_triangle_count,
    reconstruct,
    share_adjacency,
)
from privtri.graph import upper_edges
from privtri.ring import MASK, MATMUL_MAX_INNER
from privtri.secure_count import effective_edges, effective_graph

from conftest import complete_graph, erdos_renyi


def as_projected(g: Graph) -> ProjectedGraph:
    return ProjectedGraph(g.adj, theta=max(g.d_max, 1))


def secure_count_of(g: Graph, dealer_seed: int = 0) -> int:
    sa = share_adjacency(as_projected(g), DealerRng(dealer_seed, 0))
    return reconstruct(count(sa, g.n, DealerRng(dealer_seed, 1)))


def test_effective_graph_policies():
    adj = np.zeros((3, 3), dtype=np.uint8)
    adj[0, 1] = 1  # row 0 kept the edge, row 1 dropped it
    pg = ProjectedGraph(adj, theta=1)
    assert effective_graph(pg).adj[0, 1] == effective_graph(pg).adj[1, 0] == 0
    adj2 = np.zeros((3, 3), dtype=np.uint8)
    adj2[1, 0] = 1  # row 1 kept the edge, row 0 dropped it
    pg2 = ProjectedGraph(adj2, theta=1)
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
        pg = ProjectedGraph(adj, theta=max(n, 1))
        both = np.triu(adj & adj.T, 1)
        assert np.array_equal(effective_edges(pg), np.argwhere(both))
        eg = effective_graph(pg)
        assert eg.n == n
        assert np.array_equal(eg.adj, both | both.T)
        assert np.array_equal(eg.degrees, (both | both.T).sum(axis=1))
        sa = share_adjacency(pg, DealerRng(trial))
        assert np.array_equal(sa.s1, DealerRng(trial).elements(comb(n, 2)))
        assert np.array_equal(sa.s1 + sa.s2, both[np.triu_indices(n, 1)])


def test_share_adjacency_roundtrip_symmetric():
    rng = np.random.default_rng(3)
    g = erdos_renyi(20, 0.3, rng)
    sa = share_adjacency(as_projected(g), DealerRng(1))
    assert np.array_equal(sa.s1 + sa.s2, g.adj[np.triu_indices(g.n, 1)])


def test_share_adjacency_roundtrip_asymmetric():
    rng = np.random.default_rng(5)
    adj = (rng.random((15, 15)) < 0.4).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    pg = ProjectedGraph(adj, theta=15)
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
        assert channel.openings == 3 * comb(n, 2)


def test_count_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for trial in range(10):
        g = erdos_renyi(30, 0.2, rng)
        assert secure_count_of(g, dealer_seed=trial) == exact_triangle_count(g)


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
    pg = ProjectedGraph(adj, theta=20)
    sa = share_adjacency(pg, DealerRng(31, 0))
    got = reconstruct(count(sa, 20, DealerRng(31, 1)))
    assert got == exact_triangle_count(effective_graph(pg))


def test_count_spans_several_row_blocks():
    # n = 150 and 193 run 3 and 4 row blocks of ring_matmul, the last partial
    for n, seed in ((150, 43), (193, 47)):
        rng = np.random.default_rng(seed)
        adj = (rng.random((n, n)) < 0.3).astype(np.uint8)
        np.fill_diagonal(adj, 0)
        pg = ProjectedGraph(adj, theta=n)
        sa = share_adjacency(pg, DealerRng(seed, 0))
        got = reconstruct(count(sa, n, DealerRng(seed, 1)))
        assert got == exact_triangle_count(effective_graph(pg)) > 0


def test_count_mismatched_n_rejected():
    g = complete_graph(4)
    sa = share_adjacency(as_projected(g), DealerRng(1, 0))
    with pytest.raises(ValueError):
        count(sa, 5, DealerRng(1, 1))


class CallCountingChannel(OpeningChannel):
    def __init__(self):
        super().__init__(record=True)
        self.calls = 0

    def open_array(self, s1, s2):
        self.calls += 1
        return super().open_array(s1, s2)


def test_count_transcript():
    # two rounds: e and f, then g, each one opened value per pair i < k
    g = erdos_renyi(12, 0.5, np.random.default_rng(37))
    opened = []
    for seed in (1, 2):
        sa = share_adjacency(as_projected(g), DealerRng(seed, 0))
        channel = CallCountingChannel()
        t = count(sa, g.n, DealerRng(seed, 1), channel=channel)
        assert channel.calls == 3
        assert channel.openings == len(channel.values) == 3 * comb(g.n, 2)
        assert reconstruct(t) == exact_triangle_count(g) > 0
        opened.append(np.array(channel.values, dtype=np.uint64))
    # same graph, different masks: the opened values move
    assert np.count_nonzero(opened[0] == opened[1]) == 0


def test_count_matches_plain_triple_sum():
    # independent of ring_matmul and the oracle: the plain sum over every
    # triple i < j < k of the products of its reconstructed pair bits
    rng = np.random.default_rng(29)
    adj = (rng.random((9, 9)) < 0.6).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    pg = ProjectedGraph(adj, theta=9)
    sa = share_adjacency(pg, DealerRng(41, 0))
    bit = dict(zip(combinations(range(pg.n), 2), (sa.s1 + sa.s2).tolist()))
    want = 0
    for i, j, k in combinations(range(pg.n), 3):
        want += bit[i, j] * bit[i, k] * bit[j, k]
    got = reconstruct(count(sa, pg.n, DealerRng(41, 1)))
    assert got == want & MASK > 0


def test_count_refuses_inexact_size_before_dealing():
    n = MATMUL_MAX_INNER
    tiny = np.zeros(1, dtype=np.uint64)
    dealer = DealerRng(3)
    with pytest.raises(ValueError, match="inner dimension"):
        count(SharedAdjacency(n, tiny, tiny), n, dealer)
    assert np.array_equal(dealer.elements(4), DealerRng(3).elements(4))
