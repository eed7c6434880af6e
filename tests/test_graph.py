import numpy as np
import pytest

from privtri import EdgeListFormatError, Graph, exact_triangle_count, load_edge_list
from privtri.synth import erdos_renyi

from conftest import (
    brute_triangles,
    complete_graph,
    facebook_path,
    requires_facebook,
    star_graph,
    write_lines,
)


def test_load_k3(tmp_path):
    path = write_lines(tmp_path / "k3.txt", ["0 1", "1 2", "2 0"])
    g = load_edge_list(path)
    assert g.n == 3
    assert exact_triangle_count(g) == 1


def test_load_collapses_duplicates(tmp_path):
    path = write_lines(tmp_path / "dup.txt", ["0 1", "0 1"])
    g = load_edge_list(path)
    assert int(g.degrees.sum()) // 2 == 1
    assert g.degrees[0] == 1


def test_load_collapses_reversed_duplicates(tmp_path):
    path = write_lines(tmp_path / "rev.txt", ["0 1", "1 0", "2 0"])
    g = load_edge_list(path)
    assert int(g.degrees.sum()) // 2 == 2


def test_load_skips_comments_and_blanks(tmp_path):
    path = write_lines(tmp_path / "c.txt", ["# header", "", "0 1", "# tail"])
    g = load_edge_list(path)
    assert g.n == 2
    assert int(g.degrees.sum()) // 2 == 1


def test_load_drops_self_loops(tmp_path):
    path = write_lines(tmp_path / "loop.txt", ["0 0", "0 1"])
    g = load_edge_list(path)
    assert int(g.degrees.sum()) // 2 == 1
    assert np.all(np.diagonal(g.adj) == 0)


def test_malformed_line_names_line_number(tmp_path):
    path = write_lines(tmp_path / "bad.txt", ["0 1", "1 2", "1 two"])
    with pytest.raises(EdgeListFormatError, match="line 3"):
        load_edge_list(path)
    path = write_lines(tmp_path / "bad2.txt", ["0 1 2"])
    with pytest.raises(EdgeListFormatError, match="line 1"):
        load_edge_list(path)


def test_empty_graph_errors(tmp_path):
    path = write_lines(tmp_path / "empty.txt", ["# nothing here"])
    with pytest.raises(ValueError):
        load_edge_list(path)


def test_load_is_deterministic(tmp_path):
    lines = ["5 9", "9 2", "2 5", "7 5", "11 7"]
    path = write_lines(tmp_path / "g.txt", lines)
    g1 = load_edge_list(path)
    g2 = load_edge_list(path)
    assert np.array_equal(g1.adj, g2.adj)
    # ids remap in first-appearance order: 5->0, 9->1, 2->2, 7->3, 11->4
    assert g1.adj[0, 1] == 1 and g1.adj[3, 4] == 1


def test_limit_n_keeps_prefix_ids(tmp_path):
    lines = ["0 1", "1 2", "2 0", "0 3", "3 4"]
    path = write_lines(tmp_path / "g.txt", lines)
    g = load_edge_list(path, limit_n=3)
    assert g.n == 3
    assert exact_triangle_count(g) == 1
    assert int(g.degrees.sum()) // 2 == 3


def test_limit_n_admits_first_endpoint_of_dropped_edge(tmp_path):
    # 'u v' admits u before v, so a node can enter with no surviving edges
    lines = ["0 1", "2 3"]
    path = write_lines(tmp_path / "g.txt", lines)
    g = load_edge_list(path, limit_n=3)
    assert g.n == 3
    assert g.degrees[2] == 0


def test_triangle_counts_on_known_graphs():
    assert exact_triangle_count(complete_graph(3)) == 1
    assert exact_triangle_count(complete_graph(4)) == 4
    assert exact_triangle_count(star_graph(5)) == 0
    assert exact_triangle_count(Graph.from_edges(2, [(0, 1)])) == 0


def test_degrees_known():
    assert list(complete_graph(3).degrees) == [2, 2, 2]
    assert star_graph(5).degrees[0] == 5
    assert star_graph(5).d_max == 5


def test_oracle_matches_brute_force():
    rng = np.random.default_rng(123)
    for trial in range(20):
        n = int(rng.integers(5, 51))
        p = float(rng.uniform(0.05, 0.5))
        g = erdos_renyi(n, p, rng)
        assert exact_triangle_count(g) == brute_triangles(g)


def test_graph_invariants_enforced():
    bad = np.zeros((3, 3), dtype=np.uint8)
    bad[0, 1] = 1  # asymmetric
    with pytest.raises(ValueError):
        Graph(3, bad)
    loop = np.zeros((2, 2), dtype=np.uint8)
    loop[0, 0] = 1
    with pytest.raises(ValueError):
        Graph(2, loop)


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.adj[0, 1] = 0
    with pytest.raises(ValueError):
        g.degrees[0] = 7


@requires_facebook
def test_facebook_reference_stats():
    g = load_edge_list(facebook_path())
    assert g.n == 4039
    assert int(g.degrees.sum()) // 2 == 88234
    assert g.d_max == 1045
