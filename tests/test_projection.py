import math
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from scipy import stats

from privtri import (
    Graph,
    effective_theta,
    exact_triangle_count,
    max_private,
    project,
    project_random,
)
from privtri.secure_count import effective_edges, effective_graph

from conftest import (
    audit_epsilon,
    complete_graph,
    dense_effective_edges,
    dense_project,
    dense_project_random,
    discrete_variance,
    erdos_renyi,
    facebook_path,
    planted_hub,
    relaxed_caveman,
    requires_facebook,
    rng_for,
    star_graph,
    upper_edges,
)


def loop_project(g, noisy, theta):
    """Row-by-row reference for project: sort each over-theta row alone."""
    adj = np.array(g.adj, dtype=np.uint8)
    for i in np.flatnonzero(g.degrees > theta):
        nbrs = np.flatnonzero(adj[i])
        ds = np.abs(noisy[i] - noisy[nbrs])
        keep = nbrs[np.lexsort((nbrs, ds))[:theta]]
        adj[i] = 0
        adj[i, keep] = 1
    return adj


def loop_project_random(g, theta, rng):
    """Row-by-row reference for project_random: one rng.random key per
    over-theta slot, drawn at once in row-major order; each row sorts its
    own keys and keeps the neighbors of the theta lowest."""
    adj = np.array(g.adj, dtype=np.uint8)
    rows = np.flatnonzero(g.degrees > theta)
    keys = rng.random(int(g.degrees[rows].sum()))
    at = 0
    for i in rows:
        nbrs = np.flatnonzero(adj[i])
        row_keys, at = keys[at : at + nbrs.size], at + nbrs.size
        keep = nbrs[np.argsort(row_keys, kind="stable")[:theta]]
        adj[i] = 0
        adj[i, keep] = 1
    return adj


class FixedKeys:
    """A generator stand-in whose random(size) repeats a fixed key pattern."""

    def __init__(self, pattern):
        self.pattern = pattern

    def random(self, size):
        return np.resize(np.asarray(self.pattern, dtype=np.float64), size)


class DrawnKeys:
    """A generator stand-in whose random(size) returns draw(rng, size) from
    its own seeded generator, and which shows that generator's state."""

    def __init__(self, seed, draw):
        self.rng, self.draw = rng_for(seed), draw

    def random(self, size):
        return self.draw(self.rng, size)

    @property
    def bit_generator(self):
        return self.rng.bit_generator


def random_projection_input(rng):
    """An Erdos-Renyi graph with isolated nodes appended, and noisy degrees.

    Half the time the noisy degrees are small integers, many tied and some
    negative; otherwise true degrees plus Laplace noise.
    """
    core = erdos_renyi(int(rng.integers(1, 40)), float(rng.uniform(0.05, 0.8)), rng)
    g = Graph(core.n + int(rng.integers(0, 4)), upper_edges(core.adj))
    if rng.random() < 0.5:
        values = rng.integers(-3, g.d_max + 3, size=g.n).astype(np.float64)
    else:
        values = g.degrees + rng.laplace(0.0, 2.0, size=g.n)
    return g, values


def test_max_private_high_budget_recovers_max():
    degs = np.array([3, 9, 4, 9, 1])
    noisy = max_private(degs, 1e9, rng_for(0))
    assert abs(noisy.max() - 9) < 1e-6
    assert effective_theta(noisy) == 9


def test_max_private_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        max_private(np.array([1, 2]), 0.0, rng_for(0))
    with pytest.raises(ValueError):
        max_private(np.array([1, 2]), -1.0, rng_for(0))


@pytest.mark.parametrize("epsilon1", [math.nan, math.inf])
def test_max_private_rejects_non_finite_epsilon(epsilon1):
    with pytest.raises(ValueError, match="finite"):
        max_private(np.array([1, 2]), epsilon1, rng_for(0))


def test_max_private_names_a_scale_out_of_range():
    # epsilon1 1e-19 asks for a scale of 1e19, whose noise tail does not fit int64
    with pytest.raises(ValueError, match="noise scale 1e\\+19 is too large"):
        max_private(np.array([3, 4]), 1e-19, rng_for(0))


def test_max_private_laplace_moments():
    # users of degree 0 at epsilon1=1: each noisy degree is a raw discrete
    # Laplace(1) draw, mean 0 and variance 2 alpha / (1 - alpha)**2 at
    # alpha = e**-1, about 1.84
    n = 10**5
    draws = max_private(np.zeros(n, dtype=np.int64), 1.0, rng_for(42))
    assert draws.dtype == np.int64
    var = discrete_variance(1.0)
    assert abs(draws.mean()) < 3 * np.sqrt(var / n)
    assert abs(draws.var() - var) < 0.05 * var


def test_max_private_output_is_read_only():
    noisy = max_private(np.array([3, 9, 4]), 1.0, rng_for(0))
    assert noisy.dtype == np.int64 and noisy.shape == (3,)
    with pytest.raises(ValueError):
        noisy[0] = 7


def test_privacy_audit_of_one_degree_stays_within_epsilon1():
    # one bit of a user's row moves its degree by one, so degrees d and
    # d + 1 are a neighbouring pair, and max_private must not tell them
    # apart by more than epsilon1. Discrete Laplace is exactly epsilon1
    # apart at the midpoint cut, so the audit's lower bound sits just
    # below it. The control pair, 5 apart, is far beyond the bound, and
    # the same audit must flag it, so a pass is not for want of power
    epsilon1, runs = 0.5, 20000

    def audit(d_low, d_high, seed):
        rng = rng_for(seed)
        low, high = (max_private(np.full(runs, d), epsilon1, rng)
                     for d in (d_low, d_high))
        return audit_epsilon(low, high, (d_low + d_high) / 2)

    assert audit(40, 41, seed=97) <= epsilon1
    assert audit(40, 45, seed=101) > epsilon1


def test_effective_theta_floors_at_one():
    assert effective_theta(np.array([-3])) == 1
    assert effective_theta(np.array([0, -2])) == 1


def test_project_noop_when_theta_covers_max():
    g = erdos_renyi(20, 0.3, rng_for(1))
    pg = project(g, g.degrees, theta=g.d_max)
    assert np.array_equal(pg.adj, g.adj)


def test_project_keeps_most_similar_neighbors():
    # degree-4 user 2 with neighbors 1, 3, 4, 5 of degrees 1, 4, 3, 1 and a
    # bound of 2 keeps 3 and 4, dropping the edges to 1 and 5
    edges = [(2, 1), (2, 3), (2, 4), (2, 5), (3, 4), (3, 6), (3, 7), (4, 6)]
    g = Graph(8, edges)
    assert g.degrees[2] == 4 and g.degrees[3] == 4 and g.degrees[4] == 3
    assert g.degrees[1] == 1 and g.degrees[5] == 1
    pg = project(g, g.degrees, theta=2)
    assert list(np.flatnonzero(pg.adj[2])) == [3, 4]


def test_project_tie_break_by_index():
    g = complete_graph(5)  # all degrees equal: every similarity ties
    pg = project(g, g.degrees, theta=2)
    assert list(np.flatnonzero(pg.adj[0])) == [1, 2]
    assert list(np.flatnonzero(pg.adj[3])) == [0, 1]


def test_project_rejects_a_wrong_shaped_noisy_vector():
    # a 5-node star at theta 2: the hub keeps two leaves given the (n,)
    # degrees, and an (n, 1) or (n + 1,) vector is refused, not broadcast
    g = star_graph(4)
    assert project(g, g.degrees, theta=2).adj[0].sum() == 2
    for noisy in (g.degrees.reshape(-1, 1), np.append(g.degrees, 1)):
        with pytest.raises(ValueError, match="do not match 5 users"):
            project(g, noisy, theta=2)


def test_project_uses_raw_negative_noisy_degrees():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    # own noisy degree 3; |3 - (-2)| = 5 beats |3 - 9| = 6; no clamping
    noisy = np.array([3.0, 9.0, -2.0, 40.0])
    pg = project(g, noisy, theta=1)
    assert list(np.flatnonzero(pg.adj[0])) == [2]


def projected_count(g, noisy, theta):
    return exact_triangle_count(effective_graph(project(g, noisy, theta=theta)))


def test_one_added_bit_cannot_swap_a_whole_kept_set():
    # user u = 0 has theta independent neighbours L with noisy degree
    # 2 * theta - 0.45 and a theta-clique H at 2 * theta + 0.55, and its own
    # noisy degree is 2 * theta. Adding the edge to w, of noisy degree 0,
    # moves u's true degree from 2 * theta to 2 * theta + 1; ranked against
    # that, u would swap L for H and the count would go from 120 to 165.
    # Ranked against its own noisy degree, u keeps L either way
    theta = 10
    low, high, w = range(1, 11), range(11, 21), 21
    edges = [(0, j) for j in [*low, *high]] + list(combinations(high, 2))
    noisy = np.zeros(22)
    noisy[0], noisy[list(low)], noisy[list(high)] = 2 * theta, 2 * theta - 0.45, 2 * theta + 0.55
    before = projected_count(Graph(22, edges), noisy, theta)
    after = projected_count(Graph(22, edges + [(0, w)]), noisy, theta)
    assert before == after == comb(theta, 3)


def test_one_added_bit_moves_the_projected_count_by_less_than_theta():
    # the sensitivity the perturbation noise is scaled to: on seeded random
    # graphs with the noisy degrees held fixed, adding an edge (u, w) whose
    # w keeps its whole row (degree at most theta after the edge) changes
    # u's kept set by at most one neighbour in and one out, so the count
    # moves by at most theta - 1. The noisy degrees sit around u's true
    # degree, where ranking against that degree would reorder u's row
    rng = rng_for(73)
    for _ in range(200):
        core = erdos_renyi(int(rng.integers(6, 25)), float(rng.uniform(0.3, 1.0)), rng)
        g = Graph(core.n + 1, core.edges)  # the last node is isolated
        theta = int(rng.integers(1, g.d_max + 2))
        u = int(rng.integers(0, core.n))
        adj = g.adj
        ws = np.flatnonzero((adj[u] == 0) & (g.degrees < theta) & (np.arange(g.n) != u))
        w = int(rng.choice(ws))
        values = g.degrees[u] + rng.uniform(-2, 2, size=g.n)
        assert abs(count_change_of_one_bit(g, values, theta, u, w)) <= theta - 1


def count_change_of_one_bit(g, noisy, theta, u, w):
    """How far adding the edge (u, w) moves the projected count, noisy degrees held."""
    added = Graph(g.n, np.concatenate((g.edges, [sorted((u, w))])))
    return projected_count(added, noisy, theta) - projected_count(g, noisy, theta)


def test_one_added_bit_moves_the_count_by_less_than_theta_on_a_caveman_graph():
    # the same property where the projection cuts hundreds of rows of
    # widely spread degrees: u's row is one of those cut, w keeps its whole
    # row, and the noisy degrees are the true ones plus Laplace noise
    rng = rng_for(79)
    g = relaxed_caveman(500, seed=2)
    adj = g.adj
    for _ in range(30):
        theta = int(rng.choice((10, 20, 40)))
        assert np.sum(g.degrees > theta) >= 30
        u = int(rng.choice(np.flatnonzero(g.degrees > theta)))
        ws = np.flatnonzero((adj[u] == 0) & (g.degrees < theta) & (np.arange(g.n) != u))
        values = g.degrees + rng.laplace(0.0, 2.0, size=g.n)
        change = count_change_of_one_bit(g, values, theta, u, int(rng.choice(ws)))
        assert abs(change) <= theta - 1


def test_project_matches_row_loop_reference():
    rng = rng_for(61)
    seen_exact_theta = seen_isolated = seen_negative = 0
    for _ in range(50):
        g, noisy = random_projection_input(rng)
        seen_isolated += int(np.any(g.degrees == 0))
        seen_negative += int(np.any(noisy < 0))
        for theta in range(1, g.d_max + 2):
            seen_exact_theta += int(np.any(g.degrees == theta))
            pg = project(g, noisy, theta=theta)
            assert pg.theta == theta
            assert np.array_equal(pg.adj, loop_project(g, noisy, theta))
    assert min(seen_exact_theta, seen_isolated, seen_negative) > 0


def test_project_random_matches_the_row_loop_keys():
    rng = rng_for(67)
    for trial in range(30):
        g, _ = random_projection_input(rng)
        for theta in sorted({1, 2, g.d_max // 2 + 1, g.d_max, g.d_max + 1} - {0}):
            ours, ref = rng_for([67, trial, theta]), rng_for([67, trial, theta])
            pg = project_random(g, theta, ours)
            assert np.array_equal(pg.adj, loop_project_random(g, theta, ref))
            assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("tied", [True, False])
def test_project_random_orders_tied_and_distinct_keys_as_the_row_loop(tied):
    # keys drawn from {0.25, 0.5, 0.75} tie within every row of four or more
    # slots, so the unstable sort alone could keep any of the tied slots and
    # project_random has to sort them stably, ties to the lower neighbour;
    # a shuffled 0, 1/size, 2/size, ... has no tie, and any sort gives its
    # one order
    def draw(r, size):
        return r.choice([0.25, 0.5, 0.75], size) if tied else r.permutation(size) / size

    rng = rng_for(71)
    graphs = [random_projection_input(rng)[0] for _ in range(20)] + [complete_graph(60)]
    for trial, g in enumerate(graphs):
        for theta in sorted({1, 2, 5, g.d_max // 2 + 1, g.d_max} - {0}):
            ours, ref = DrawnKeys([71, trial, theta], draw), DrawnKeys([71, trial, theta], draw)
            pg = project_random(g, theta, ours)
            assert np.array_equal(pg.adj, loop_project_random(g, theta, ref))
            assert ours.bit_generator.state == ref.bit_generator.state
    keys = DrawnKeys(0, draw).random(60 * 59)  # as many as complete_graph(60) draws
    assert (np.unique(keys).size < keys.size) == tied


def test_project_random_keeps_each_row_apart_at_extreme_keys():
    # keys of exactly 0.0 and of the two largest below 1, 1 - 2**-53 and
    # 1 - 2**-52, in every row: a sort on the float row + key would round
    # both onto the next row's value and lose their order. Each of the 40
    # rows has 39 slots, so every row gets 13 of each key, in this order
    g = complete_graph(40)
    keys = FixedKeys([1 - 2**-53, 0.0, 1 - 2**-52])
    for theta in (1, 13, 14, 26, 27, 38):
        adj = project_random(g, theta, keys).adj
        assert np.all(adj.sum(axis=1) == theta)
        assert np.all(adj <= g.adj)
        assert np.array_equal(adj, loop_project_random(g, theta, keys))
    top = np.resize([True, False, False], 39)
    assert np.all(project_random(g, 26, keys).kept.reshape(40, 39) == ~top)


def test_project_random_keeps_uniform_subsets():
    # 286 disjoint 7-cliques: 2002 rows of degree 6, each cut to theta = 2.
    # Over three seeded calls, every row's kept pair is one of the C(6, 2) =
    # 15 pairs of neighbour positions, and each pair turns up equally often
    g = Graph(7 * 286, [(7 * c + a, 7 * c + b) for c in range(286)
                        for a, b in combinations(range(7), 2)])
    pairs = {1 << a | 1 << b: k for k, (a, b) in enumerate(combinations(range(6), 2))}
    counts = np.zeros(len(pairs), dtype=np.int64)
    for seed in range(3):
        kept = project_random(g, 2, rng_for([79, seed])).kept.reshape(g.n, 6)
        masks = kept @ (1 << np.arange(6))
        assert set(masks.tolist()) <= pairs.keys()
        counts += np.bincount([pairs[m] for m in masks.tolist()], minlength=len(pairs))
    assert stats.chisquare(counts).pvalue > 1e-6


def test_slot_projections_match_the_dense_references():
    # seeded random graphs, noisy degrees and every theta: the projected
    # rows and the pairs both ends kept equal those of the dense n x n
    # projections, which the random one matches key for key on the same
    # rng.random stream; no row gains an edge its source lacks, and
    # neither the rows nor the flags can be written
    rng = rng_for(71)
    for trial in range(40):
        g, noisy = random_projection_input(rng)
        src = g.adj
        for theta in range(1, g.d_max + 2):
            ours, ref = rng_for([71, trial, theta]), rng_for([71, trial, theta])
            for pg, want in ((project(g, noisy, theta=theta), dense_project(g, noisy, theta)),
                             (project_random(g, theta, ours), dense_project_random(g, theta, ref))):
                assert pg.graph is g and pg.theta == theta
                assert pg.kept.dtype == bool and pg.kept.shape == (2 * len(g.edges),)
                adj = pg.adj
                assert adj.dtype == np.uint8 and np.array_equal(adj, want)
                assert np.all(adj <= src)
                assert np.array_equal(effective_edges(pg), dense_effective_edges(want))
                assert not adj.flags.writeable and not pg.kept.flags.writeable
            assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("theta, error", [(2.5, TypeError), (0, ValueError), (-1, ValueError)])
def test_projections_reject_bad_theta_before_any_work(theta, error):
    g = complete_graph(5)
    rng = rng_for(0)
    state = rng.bit_generator.state
    with pytest.raises(error):
        project(g, g.degrees, theta=theta)
    with pytest.raises(error):
        project_random(g, theta, rng)
    assert rng.bit_generator.state == state


def test_projections_accept_numpy_integer_theta():
    g = complete_graph(5)
    for pg in (project(g, g.degrees, theta=np.int64(2)),
               project_random(g, np.int32(2), rng_for(0))):
        assert type(pg.theta) is int and pg.theta == 2
        assert pg.adj.sum(axis=1).max() == 2


def test_planted_hub_projection_preserves_triangles():
    g = planted_hub()
    assert g.degrees[0] == 20
    assert exact_triangle_count(g) == 4
    pg = project(g, g.degrees, theta=5)
    kept = set(np.flatnonzero(pg.adj[0]).tolist())
    assert {1, 2, 3} <= kept
    assert exact_triangle_count(effective_graph(pg)) == 4


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
        effective_graph(project(g, g.degrees, theta=5))
    )
    rng = rng_for(5)
    kept_rand = [
        exact_triangle_count(effective_graph(project_random(g, 5, rng)))
        for _ in range(1000)
    ]
    assert kept_proj == t_true
    assert kept_proj >= np.mean(kept_rand)
    assert np.mean(kept_rand) < t_true  # random really does lose triangles


def test_similarity_beats_random_on_a_caveman_graph():
    # a graph the rule was not built for: communities of 5 to 80 nodes and
    # cross edges, where theta = 10, 20 and 40 cut hundreds of rows.
    # Similarity keeps at least as many triangles as random deletion does
    # on average over five draws
    g = relaxed_caveman(2000, seed=1)
    for theta in (10, 20, 40):
        assert np.sum(g.degrees > theta) >= 300
        kept = exact_triangle_count(effective_graph(project(g, g.degrees, theta=theta)))
        rand = [exact_triangle_count(effective_graph(project_random(g, theta, rng_for(s))))
                for s in range(5)]
        assert kept >= np.mean(rand)


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
        assert exact_triangle_count(effective_graph(pg)) == 0


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
            t_after = exact_triangle_count(effective_graph(pg))
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
        if abs(noisy.max() - 1045) / 1045 < 0.05:
            hits += 1
    assert hits >= 48
