import warnings
from math import comb

import numpy as np
import pytest

from privtri import EdgeListFormatError, Graph, exact_triangle_count, graph, load_edge_list
from privtri.graph import _GATHER_EDGES, upper_edges
from privtri.synth import clique_hub_proxy, write_edge_list

from conftest import (
    brute_triangles,
    complete_graph,
    erdos_renyi,
    facebook_path,
    planted_hub,
    reference_load,
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


def random_edge_file(path, rng, offset: int = 0) -> None:
    """A seeded edge list with every feature the reader must handle.

    Ids up to 10**12 (plus offset) drawn from a small pool (so duplicates
    and reversed duplicates recur, besides explicit ones), self-loops, '#'
    lines with more '#' inside, blank and whitespace-only lines, tab and
    space separators with padding, and either '\n' or '\r\n' line endings.
    """
    pool = [offset + int(x) for x in rng.integers(0, 10**12 + 1, size=12)]
    pool += [offset + x for x in range(4)]
    lines, edges = [], []
    for _ in range(int(rng.integers(1, 60))):
        kind = rng.random()
        if kind < 0.08:
            lines.append("# comment # with more")
        elif kind < 0.12:
            lines.append("")
        elif kind < 0.16:
            lines.append(" \t ")
        else:
            if edges and kind < 0.3:
                u, v = edges[int(rng.integers(len(edges)))][:: int(rng.choice([1, -1]))]
            else:
                u, v = (pool[i] for i in rng.integers(len(pool), size=2))
            edges.append((u, v))
            pad, sep = rng.choice(["", " ", "\t"]), rng.choice([" ", "\t", "  ", " \t"])
            lines.append(f"{pad}{u}{sep}{v}{pad}")
    if not edges:
        lines.append(f"{pool[0]} {pool[1]}")
    newline = "\r\n" if rng.random() < 0.5 else "\n"
    path.write_bytes((newline.join(lines) + newline).encode())


def scan_must_not_run(path):
    raise AssertionError(f"line scan ran on {path}, which np.loadtxt reads")


@pytest.mark.parametrize("block_chars", [graph._BLOCK_CHARS, 40], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("offset", [0, 1 << 63], ids=["int64", "beyond-int64"])
def test_load_matches_reference_parser_on_random_files(tmp_path, monkeypatch, block_chars, offset):
    # 40 characters split a file into many loadtxt blocks; ids from 2**63
    # up are beyond int64 and go through the line scan, in blocks of 7 rows
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    monkeypatch.setattr(graph, "_SCAN_ROWS", 7)
    if offset == 0:
        monkeypatch.setattr(graph, "_scanned_blocks", scan_must_not_run)
    rng = np.random.default_rng(2024)
    path = tmp_path / "random.txt"
    for _ in range(60):
        random_edge_file(path, rng, offset)
        n_all = reference_load(path)[0]
        for limit_n in (None, 1, 3, 10, n_all + 1):
            n, adj = reference_load(path, limit_n)
            g = load_edge_list(path, limit_n)
            assert g.n == n
            assert np.array_equal(g.adj, adj)


def test_malformed_line_names_line_number(tmp_path, monkeypatch):
    good = [f"{i} {i + 1}" for i in range(40)]
    cases = [
        (["0 1", "1 2", "1 two", "-1 2"], 3),
        (["0 1 2"], 1),
        (["0 1", "-1 2", "x y"], 2),  # the first bad line, not the first unparsable one
        (["# header", "0 1 # note", "1 2"], 2),
        (["# header", "", "5", "0 1"], 3),
    ]
    cases += [(["0 1", f"{token} 1"], 2) for token in ("1.5", "1.", "1e3", "0x1", "inf", "\ufeff0")]
    cases += [(good + [bad] + good, 41) for bad in ("7 x", "-7 1", "7 8 # c")]
    # 16 characters per block put most bad lines past the first loadtxt call
    for block_chars in (graph._BLOCK_CHARS, 16):
        monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
        for lines, lineno in cases:
            path = write_lines(tmp_path / "bad.txt", lines)
            with pytest.raises(EdgeListFormatError, match=f"^line {lineno}:") as got:
                load_edge_list(path)
            with pytest.raises(EdgeListFormatError) as want:
                reference_load(path)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("token", ["1_0", "\uff15", str(1 << 63), str(1 << 70), "+5", "-0"])
def test_node_ids_are_what_int_reads(tmp_path, token):
    # int() reads these; the ones numpy's reader rejects go through the line scan
    path = write_lines(tmp_path / "ok.txt", ["0 1", f"{token} 1", f"2 {token}"])
    n, adj = reference_load(path)
    g = load_edge_list(path)
    assert g.n == n
    assert np.array_equal(g.adj, adj)


def test_empty_graph_errors(tmp_path):
    path = write_lines(tmp_path / "empty.txt", ["# nothing here"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no nodes found"):
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
    for k in range(3, 71):
        g = complete_graph(k)
        assert exact_triangle_count(g) == comb(k, 3) == brute_triangles(g)
    for k in range(3):
        assert exact_triangle_count(complete_graph(k)) == 0
    assert exact_triangle_count(star_graph(5)) == 0
    assert exact_triangle_count(Graph(2, [(0, 1)])) == 0


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


def test_oracle_matches_brute_force_over_several_gather_steps():
    rng = np.random.default_rng(321)
    for n, p in [(130, 0.55), (150, 0.6), (200, 0.5)]:
        g = erdos_renyi(n, p, rng)
        m = len(upper_edges(g.adj))
        assert m > _GATHER_EDGES and m % _GATHER_EDGES  # the last step is partial
        assert exact_triangle_count(g) == brute_triangles(g)


@pytest.mark.parametrize("n", [*range(1, 10), 63, 64, 65, 129])
def test_degrees_and_oracle_at_packed_padding_sizes(n):
    # packed rows hold ceil(n/64) words, so the last word carries padding
    # bits except at n = 64; the fan and the book have triangles that share
    # edges, the book n - 2 of them on the one edge (0, 1)
    rng = np.random.default_rng(n)
    fan = [(0, k) for k in range(1, n)] + [(k, k + 1) for k in range(1, n - 1)]
    book = [(0, 1)] * (n > 1) + [(v, k) for k in range(2, n) for v in (0, 1)]
    for g in (Graph(n, []), complete_graph(n), erdos_renyi(n, 0.5, rng),
              Graph(n, fan), Graph(n, book)):
        assert g.degrees.dtype == np.int64
        assert np.array_equal(g.degrees, g.adj.sum(axis=1))
        assert exact_triangle_count(g) == brute_triangles(g)
    if n >= 3:
        assert exact_triangle_count(Graph(n, book)) == n - 2


def test_graph_scatters_any_edge_array():
    want = np.zeros((4, 4), dtype=np.uint8)
    for u, v in [(0, 1), (1, 3)]:
        want[u, v] = want[v, u] = 1
    edges = [(0, 1), (1, 0), (2, 2), (1, 3), (0, 1)]  # duplicate, reversed, self-loop
    for form in (edges, np.array(edges, dtype=np.int32), tuple(map(list, edges))):
        assert np.array_equal(Graph(4, form).adj, want)
    assert not Graph(3, []).adj.any()
    dense = np.ones((4, 4), dtype=np.uint8)  # an adjacency matrix is not an edge array
    for bad in ([0, 1], [(0, 1, 2)], [(0, 4)], [(-1, 2)], dense):
        with pytest.raises(ValueError):
            Graph(4, bad)


def test_upper_edges_round_trip():
    rng = np.random.default_rng(7)
    for g in [erdos_renyi(30, 0.3, rng), planted_hub(), complete_graph(1)]:
        edges = upper_edges(g.adj)
        assert np.array_equal(edges, np.argwhere(np.triu(g.adj, 1)))
        assert np.array_equal(Graph(g.n, edges).adj, g.adj)


def test_write_edge_list_matches_triu_lines(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "out.txt"
    graphs = [erdos_renyi(40, 0.3, rng), planted_hub(), clique_hub_proxy(100, 20, 50)]
    # several blocks of the writer's 4096 lines, the last partial, and one full
    proxy = clique_hub_proxy()
    graphs += [proxy, Graph(proxy.n, proxy.edges[:4096])]
    for g in graphs + [Graph(3, [])]:
        write_edge_list(g, path)
        want = "".join(f"{u} {v}\n" for u, v in np.argwhere(np.triu(g.adj, 1)).tolist())
        assert path.read_bytes() == want.encode()


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


def test_graph_keeps_its_canonical_edge_list():
    # edges is upper_edges(adj): each pair once, i < j, row-major, whether
    # the input needed the sort (duplicates, reversals, self-loops, any
    # order) or was already in that form
    rng = np.random.default_rng(13)
    messy = [(3, 1), (0, 1), (1, 0), (2, 2), (1, 3), (0, 1), (2, 0)]
    assert Graph(4, messy).edges.tolist() == [[0, 1], [0, 2], [1, 3]]
    for g in [erdos_renyi(40, 0.3, rng), planted_hub(), clique_hub_proxy(100, 20, 50),
              Graph(0, []), Graph(3, []), complete_graph(1)]:
        assert g.edges.dtype == np.int64 and g.edges.shape[1] == 2
        assert np.array_equal(g.edges, upper_edges(g.adj))
        shuffled = rng.permutation(g.edges)[:, :: int(rng.choice([1, -1]))]
        for form in (g.edges, shuffled, np.concatenate((shuffled, g.edges))):
            assert np.array_equal(Graph(g.n, form).edges, g.edges)
    canonical = upper_edges(complete_graph(5).adj)
    assert Graph(5, canonical).edges is canonical  # kept, not copied
    assert not canonical.flags.writeable
    with pytest.raises(ValueError):
        complete_graph(3).edges[0, 0] = 1
