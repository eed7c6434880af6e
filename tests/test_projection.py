from itertools import product
from math import comb

import numpy as np
import pytest

from privtri import (
    Graph,
    NoisyDegrees,
    effective_theta,
    exact_triangle_count,
    max_private,
    project,
    project_random,
)
from privtri.secure_count import effective_graph
from privtri.synth import erdos_renyi, planted_hub

from conftest import complete_graph, facebook_path, requires_facebook


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def test_max_private_high_budget_recovers_max():
    degs = np.array([3, 9, 4, 9, 1])
    noisy = max_private(degs, 1e9, rng_for(0))
    assert abs(noisy.d_max_noisy - 9) < 1e-6
    assert effective_theta(noisy) == 9


def test_max_private_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        max_private(np.array([1, 2]), 0.0, rng_for(0))
    with pytest.raises(ValueError):
        max_private(np.array([1, 2]), -1.0, rng_for(0))


def test_max_private_laplace_moments():
    # single user of degree 0 at epsilon1=1: the noisy degree is a raw
    # Laplace(1) draw, mean 0 and variance 2
    n = 10**5
    rng = rng_for(42)
    draws = np.array(
        [max_private(np.array([0]), 1.0, rng).values[0] for _ in range(n)]
    )
    se_mean = np.sqrt(2.0 / n)
    assert abs(draws.mean()) < 3 * se_mean
    assert abs(draws.var() - 2.0) < 0.05 * 2.0


def test_effective_theta_floors_at_one():
    noisy = NoisyDegrees(values=np.array([-3.0]), d_max_noisy=-3.0, epsilon1=1.0)
    assert effective_theta(noisy) == 1


def test_project_noop_when_theta_covers_max():
    g = erdos_renyi(20, 0.3, rng_for(1))
    pg = project(g, NoisyDegrees.exact(g.degrees), theta=g.d_max)
    assert np.array_equal(pg.adj, g.adj)


def test_project_keeps_most_similar_neighbors():
    # degree-4 user 2 with neighbors 1, 3, 4, 5 of degrees 1, 4, 3, 1 and a
    # bound of 2 keeps 3 and 4, dropping the edges to 1 and 5
    edges = [(2, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (3, 7), (4, 6)]
    g = Graph.from_edges(8, edges)
    assert g.degrees[2] == 4 and g.degrees[3] == 4 and g.degrees[4] == 3
    assert g.degrees[1] == 1 and g.degrees[5] == 1
    pg = project(g, NoisyDegrees.exact(g.degrees), theta=2)
    assert list(np.flatnonzero(pg.adj[2])) == [3, 4]


def test_project_tie_break_by_index():
    g = complete_graph(5)  # all degrees equal: every similarity ties
    pg = project(g, NoisyDegrees.exact(g.degrees), theta=2)
    assert list(np.flatnonzero(pg.adj[0])) == [1, 2]
    assert list(np.flatnonzero(pg.adj[3])) == [0, 1]


def test_project_uses_raw_negative_noisy_degrees():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # d_self = 3; DS(3, -2) = 5/3 beats DS(3, 9) = 2; no clamping
    noisy = NoisyDegrees(values=np.array([3.0, 9.0, -2.0, 40.0]),
                         d_max_noisy=40.0, epsilon1=1.0)
    pg = project(g, noisy, theta=1)
    assert list(np.flatnonzero(pg.adj[0])) == [2]


def test_planted_hub_projection_preserves_triangles():
    g = planted_hub()
    assert g.degrees[0] == 20
    assert exact_triangle_count(g) == 4
    pg = project(g, NoisyDegrees.exact(g.degrees), theta=5)
    kept = set(np.flatnonzero(pg.adj[0]).tolist())
    assert {1, 2, 3} <= kept
    assert exact_triangle_count(effective_graph(pg, "and")) == 4


def test_planted_hub_random_keep_probability():
    # hub keeps 5 of 20 neighbors uniformly; all three partner edges
    # survive with probability C(17,2)/C(20,5)
    g = planted_hub()
    p_exact = comb(17, 2) / comb(20, 5)
    trials = 10**4
    rng = rng_for(77)
    hits = 0
    for _ in range(trials):
        pg = project_random(g, 5, rng)
        if pg.adj[0, 1] and pg.adj[0, 2] and pg.adj[0, 3]:
            hits += 1
    p_hat = hits / trials
    se = np.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(p_hat - p_exact) < 4 * se


def test_planted_hub_similarity_beats_random():
    g = planted_hub()
    t_true = exact_triangle_count(g)
    kept_proj = exact_triangle_count(
        effective_graph(project(g, NoisyDegrees.exact(g.degrees), theta=5), "and")
    )
    rng = rng_for(5)
    kept_rand = [
        exact_triangle_count(effective_graph(project_random(g, 5, rng), "and"))
        for _ in range(1000)
    ]
    assert kept_proj == t_true
    assert kept_proj >= np.mean(kept_rand)
    assert np.mean(kept_rand) < t_true  # random really does lose triangles


def test_project_random_noop_and_theta_bound():
    g = erdos_renyi(25, 0.4, rng_for(9))
    pg = project_random(g, g.d_max, rng_for(10))
    assert np.array_equal(pg.adj, g.adj)
    with pytest.raises(ValueError):
        project_random(g, 0, rng_for(10))


def test_k4_theta_one_kills_all_triangles():
    g = complete_graph(4)
    # exhaustive: whichever single neighbor each node keeps, the and-policy
    # graph has max degree 1, so no triangle can survive
    for choice in product(range(3), repeat=4):
        adj = np.zeros((4, 4), dtype=np.uint8)
        for i, pick in enumerate(choice):
            j = [v for v in range(4) if v != i][pick]
            adj[i, j] = 1
        sym = adj & adj.T
        assert int(np.einsum("ij,ik,jk->", sym.astype(np.int64),
                             sym.astype(np.int64), sym.astype(np.int64))) // 6 == 0
    rng = rng_for(11)
    for _ in range(50):
        pg = project_random(g, 1, rng)
        assert exact_triangle_count(effective_graph(pg, "and")) == 0


def test_random_keep_fraction_matches_theta_over_degree():
    g = planted_hub()  # hub degree 20
    theta = 5
    trials = 10**4
    rng = rng_for(13)
    kept = np.zeros(trials)
    for t in range(trials):
        pg = project_random(g, theta, rng)
        kept[t] = pg.adj[0, 4]  # one fixed hub edge
    p_hat = kept.mean()
    expect = theta / 20
    assert abs(p_hat - expect) < 4 * np.sqrt(expect * (1 - expect) / trials)


def test_projection_degree_bound_and_monotonicity():
    rng = rng_for(15)
    for trial in range(5):
        g = erdos_renyi(40, 0.4, rng)
        theta = 4 + trial
        noisy = max_private(g.degrees, 0.5, rng)
        for pg in (project(g, noisy, theta=theta), project_random(g, theta, rng)):
            assert pg.adj.sum(axis=1).max() <= theta
            assert np.all(pg.adj <= g.adj)  # deletion only
            t_after = exact_triangle_count(effective_graph(pg, "and"))
            assert t_after <= exact_triangle_count(g)


def test_project_deterministic():
    rng = rng_for(21)
    g = erdos_renyi(30, 0.3, rng)
    noisy = max_private(g.degrees, 0.2, rng)
    a = project(g, noisy, theta=5)
    b = project(g, noisy, theta=5)
    assert np.array_equal(a.adj, b.adj)
    assert a.theta == b.theta


@requires_facebook
def test_facebook_noisy_max_stays_near_true_max():
    from privtri import load_edge_list

    g = load_edge_list(facebook_path())
    rng = rng_for(31)
    hits = 0
    for _ in range(50):
        noisy = max_private(g.degrees, 0.2, rng)  # the 0.1 split of epsilon 2
        if abs(noisy.d_max_noisy - 1045) / 1045 < 0.05:
            hits += 1
    assert hits >= 48
