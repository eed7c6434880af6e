import tracemalloc
import warnings
from math import comb

import numpy as np
import pytest

from privtri import EdgeListFormatError, Graph, exact_triangle_count, graph, load_edge_list
from privtri.graph import _GATHER_EDGES
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
    upper_edges,
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


def random_edge_file(path, rng, pool) -> None:
    """A seeded edge list over the node ids in pool, with every feature the
    reader must handle.

    Ids drawn from a small pool (so duplicates and reversed duplicates
    recur, besides explicit ones), self-loops, '#' lines with more '#' and
    digits inside and whitespace before them, blank and whitespace-only
    lines, tab, space, '\v' and '\f' separators with padding, and '\n',
    '\r\n' or bare '\r' line endings.
    """
    lines, edges = [], []
    for _ in range(int(rng.integers(1, 60))):
        kind = rng.random()
        if kind < 0.05:
            lines.append("# comment # with more")
        elif kind < 0.08:
            lines.append(str(rng.choice([" \t# 12 34", "#1 2", "\f#"])))
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
            pad = rng.choice(["", " ", "\t", "\v"])
            sep = rng.choice([" ", "\t", "  ", " \t", "\v", "\f "])
            lines.append(f"{pad}{u}{sep}{v}{pad}")
    if not edges:
        lines.append(f"{pool[0]} {pool[1]}")
    newline = str(rng.choice(["\n", "\r\n", "\r"]))
    path.write_bytes((newline.join(lines) + newline).encode())


def id_pool(rng, ids: str) -> list[int]:
    """Node ids for random_edge_file.

    'int64': up to 10**12, plus 18-digit ids and 0..3, ranked by sorting.
    'dense': below 300, as in the proxy, ranked through the id table.
    """
    if ids == "dense":
        return [int(x) for x in rng.integers(0, 300, size=16)]
    wide = rng.integers(0, 10**12 + 1, size=10).tolist() + [10**17, 10**18 - 1]
    return [int(x) for x in wide] + list(range(4))


@pytest.mark.parametrize("block_chars", [graph._BLOCK_CHARS, 40], ids=["one-block", "many-blocks"])
@pytest.mark.parametrize("ids", ["int64", "dense"])
def test_load_matches_reference_parser_on_random_files(tmp_path, monkeypatch, block_chars, ids):
    # 40 bytes split a file into many tokenizer blocks
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    rng = np.random.default_rng(2024)
    path = tmp_path / "random.txt"
    for _ in range(60):
        random_edge_file(path, rng, id_pool(rng, ids))
        n_all = reference_load(path)[0]
        for limit_n in (None, 1, 3, 10, n_all + 1):
            n, adj = reference_load(path, limit_n)
            g = load_edge_list(path, limit_n)
            assert g.n == n
            assert np.array_equal(g.adj, adj)


@pytest.mark.parametrize("block_chars", [1, 40], ids=["line-blocks", "many-blocks"])
def test_load_switches_between_rank_table_and_sort(tmp_path, monkeypatch, block_chars):
    # one byte per read makes every line its own block: small ids go
    # through the id table, 10**12 ids through the sort, and a small id
    # the sort ranked (3, 7) must be in the table the next small block uses
    monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
    big = 10**12
    lines = ["0 9", f"{big} 3", "3 4", "9 5", f"{big} 0", f"{big + 1} 7", "7 8", "4 7"]
    lines += [f"{u} {u + 2}" for u in range(10, 30)] + [f"{big + 1} 29", "29 0"]
    path = write_lines(tmp_path / "switch.txt", lines)
    n_all = reference_load(path)[0]
    for limit_n in (None, *range(1, n_all + 2)):
        n, adj = reference_load(path, limit_n)
        g = load_edge_list(path, limit_n)
        assert g.n == n
        assert np.array_equal(g.adj, adj)


def test_blocks_end_at_any_line_break(tmp_path, monkeypatch):
    # a file with bare '\r' line breaks is still read a block at a time
    monkeypatch.setattr(graph, "_BLOCK_CHARS", 16)
    sizes = []
    read_ids = graph._read_ids

    def sized_read_ids(block, lines):
        sizes.append(len(block))
        return read_ids(block, lines)

    monkeypatch.setattr(graph, "_read_ids", sized_read_ids)
    path = tmp_path / "cr.txt"
    path.write_bytes(b"".join(b"%d %d\r" % (i, i + 1) for i in range(100)))
    assert load_edge_list(path).n == 101
    assert max(sizes) <= 16 + len(b"99 100\r")


@pytest.mark.parametrize("limit_n", [100, 500, None])
def test_proxy_file_loads_as_the_reference_reads_it(proxy_graph_file, limit_n):
    # the benchmark loads this file on every round
    n, adj = reference_load(proxy_graph_file, limit_n)
    g = load_edge_list(proxy_graph_file, limit_n)
    assert g.n == n
    assert np.array_equal(g.adj, adj)


def test_malformed_line_names_line_number(tmp_path, monkeypatch):
    good = [f"{i} {i + 1}" for i in range(40)]
    cases = [
        (["0 1", "1 2", "1 two", "-1 2"], 3),
        (["0 1 2"], 1),
        (["0 1", "2 3 4 5"], 2),
        (["0 1 2", "3"], 1),
        (["1\r2"], 1),  # a bare '\r' ends the line
        (["0 1", "-1 2", "x y"], 2),  # the first bad line, not the first unparsable one
        (["# header", "0 1 # note", "1 2"], 2),
        (["# header", "", "5", "0 1"], 3),
        # with '\r\n' endings the first 16-byte read ends in the first '\r'
        (["# 3456789012345", "0 1", "2 3 4"], 3),
    ]
    cases += [(["0 1", f"{token} 1"], 2) for token in ("1.5", "1.", "1e3", "0x1", "inf", "\ufeff0")]
    # 19 digits, still below 2**63; the other ids int() reads are refused below
    cases += [(["0 1", f"{10**18} 1"], 2), (["0 1", "# c", f"2 {10**18}"], 3)]
    cases += [(good + [bad] + good, 41) for bad in ("7 x", "-7 1", "7 8 # c", "7 8 9", "7 8 9 10")]
    # 16 bytes per block put most bad lines past the first tokenizer block
    for block_chars in (graph._BLOCK_CHARS, 16):
        monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
        for newline in ("\n", "\r\n", "\r"):
            for lines, lineno in cases:
                path = write_lines(tmp_path / "bad.txt", lines, newline)
                with pytest.raises(EdgeListFormatError, match=f"^line {lineno}:") as got:
                    load_edge_list(path)
                with pytest.raises(EdgeListFormatError) as want:
                    reference_load(path)
                assert str(got.value) == str(want.value)


@pytest.mark.parametrize("token", ["1_0", "\uff15", str(1 << 63), str(1 << 70), "+5", "-0"])
def test_node_ids_are_what_int_reads(tmp_path, monkeypatch, token):
    # int() reads these, but a node id is a run of at most 18 ASCII digits:
    # the loader refuses each as the reference parser does, as a first or a
    # second id, in any block and under any line ending
    for block_chars in (graph._BLOCK_CHARS, 16):
        monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
        for newline in ("\n", "\r\n", "\r"):
            for lines, lineno in (
                (["0 1", f"{token} 1", f"2 {token}"], 2),
                (["0 1", "# c", f"2 {token}"], 3),
            ):
                path = write_lines(tmp_path / "int.txt", lines, newline)
                with pytest.raises(EdgeListFormatError, match=f"^line {lineno}:") as got:
                    load_edge_list(path)
                with pytest.raises(EdgeListFormatError) as want:
                    reference_load(path)
                assert str(got.value) == str(want.value)


def test_comment_lines_must_be_utf8(tmp_path, monkeypatch):
    # the tokenizer drops '#' lines unread, but the file is UTF-8 throughout;
    # the error names the line of the bad byte, also past the first block
    path = tmp_path / "latin1.txt"
    good = b"".join(b"%d %d\n" % (i, i + 1) for i in range(10))
    cases = [
        (b"# caf\xe9\n0 1\n", 1),
        (b"0 1\n1 caf\xe9\n", 2),
        (b"0 1\n1 \xe9\n", 2),
        (b"0 1\n# caf\xe9\n1 2\n", 2),
        (good + b"1 \xe9\n" + good, 11),
        (good + b"0 1\r\n# caf\xe9\n" + good, 12),
    ]
    # 16 bytes per block put the last two bad lines past the first block
    for block_chars in (graph._BLOCK_CHARS, 16):
        monkeypatch.setattr(graph, "_BLOCK_CHARS", block_chars)
        for data, lineno in cases:
            path.write_bytes(data)
            with pytest.raises(UnicodeDecodeError) as got:
                load_edge_list(path)
            assert got.value.reason.startswith(f"line {lineno}: ")
            assert got.value.object[got.value.start] == 0xE9
            with pytest.raises(UnicodeDecodeError):
                reference_load(path)
    path.write_bytes("# café\n0 1\n".encode())
    assert load_edge_list(path).n == 2


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
    assert load_edge_list(path, limit_n=np.int64(3)).n == 3
    for bad, error in ((1.5, TypeError), (2.0, TypeError), (0, ValueError)):
        with pytest.raises(error, match="limit_n"):
            load_edge_list(path, limit_n=bad)


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


def step_start_words(g):
    """The bitset word each of exact_triangle_count's steps starts reading at:
    that of the higher (degree, id) rank of the step's first edge, with the
    edges sorted by it."""
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(g.n)
    return np.sort(rank[g.edges].max(axis=1))[::_GATHER_EDGES] >> 6


def test_oracle_matches_brute_force_over_several_gather_steps():
    rng = np.random.default_rng(321)
    for n, p in [(130, 0.55), (150, 0.6), (200, 0.5), (300, 0.1), (400, 0.06)]:
        g = erdos_renyi(n, p, rng)
        m = len(upper_edges(g.adj))
        assert m > _GATHER_EDGES and m % _GATHER_EDGES  # the last step is partial
        assert len(set(step_start_words(g))) > 1  # steps start in different words
        assert exact_triangle_count(g) == brute_triangles(g)


@pytest.mark.parametrize("n", [5, 7, 63, 64, 65, 128, 131])
def test_oracle_on_regular_graphs(n):
    # every node of a circulant C_n(1..k) has degree 2k, so every rank tie
    # goes to id order; relabelled, it is still regular, with ties in a
    # new order
    perm = np.random.default_rng(n).permutation(n)
    for k in (1, 2, 3):
        if n < 2 * k + 1:
            continue
        g = Graph(n, [(v, (v + d) % n) for v in range(n) for d in range(1, k + 1)])
        assert np.all(g.degrees == 2 * k)
        want = brute_triangles(g)
        assert exact_triangle_count(g) == want
        assert exact_triangle_count(Graph(n, perm[g.edges])) == want


def test_oracle_on_stars_and_hubs():
    # a hub has the highest degree, ranks last and keeps an empty forward
    # row: a wheel (hub and cycle) has one triangle per rim edge, a star
    # none, and two hubs joined to each other and to every other node of a
    # path close n - 2 triangles on their edge and two on each path edge
    for n in (5, 6, 64, 65, 200):
        wheel = [(0, k) for k in range(1, n)] + [(k, k % (n - 1) + 1) for k in range(1, n)]
        hubs = [(0, 1)] + [(h, k) for h in (0, 1) for k in range(2, n)]
        path = [(k, k + 1) for k in range(2, n - 1)]
        for edges, want in [(wheel, n - 1), (hubs + path, n - 2 + 2 * (n - 3))]:
            for ids in (np.arange(n), np.arange(n)[::-1]):  # hub at the first or last id
                g = Graph(n, ids[np.array(edges)])
                assert exact_triangle_count(g) == brute_triangles(g) == want
        assert exact_triangle_count(star_graph(n - 1)) == 0
    for n_partners in (2, 3, 5):
        g = planted_hub(n_partners=n_partners)
        assert exact_triangle_count(g) == brute_triangles(g) == comb(n_partners + 1, 3)


def test_oracle_ignores_node_labels():
    # any total order counts each triangle once, so relabelling the nodes,
    # which reorders the rank ties and moves the bitset words, keeps the count
    rng = np.random.default_rng(17)
    for g in (clique_hub_proxy(), erdos_renyi(150, 0.3, rng), planted_hub(), complete_graph(70)):
        want = exact_triangle_count(g)
        for _ in range(3):
            perm = rng.permutation(g.n)
            assert exact_triangle_count(Graph(g.n, perm[g.edges])) == want


@pytest.mark.parametrize("n", [*range(1, 10), 63, 64, 65, 127, 128, 129])
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
    forms = (edges, np.array(edges, dtype=np.int32), np.array(edges, dtype=np.uint16),
             np.array(edges, dtype=np.float64), tuple(map(list, edges)))
    for form in forms:
        assert np.array_equal(Graph(4, form).adj, want)
    assert not Graph(3, []).adj.any()
    dense = np.ones((4, 4), dtype=np.uint8)  # an adjacency matrix is not an edge array
    # a non-integral id is refused, not truncated: (0.5, 1.7) is not the edge (0, 1)
    non_integral = ([(0.5, 1.7)], [(0, 1), (1, 2.5)], [(0.0, np.nan)], [(0.0, np.inf)])
    for bad in ([0, 1], [(0, 1, 2)], [(0, 4)], [(-1, 2)], dense, *non_integral):
        with pytest.raises(ValueError):
            Graph(4, bad)
    with pytest.raises(ValueError, match="n must be a non-negative integer, got -1"):
        Graph(-1, [])
    with pytest.raises(TypeError, match="n must be an integer, got 1.5"):
        Graph(1.5, [])
    assert type(Graph(np.int64(4), edges).n) is int


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
    for held in g.slots:
        with pytest.raises(ValueError):
            held[0] = 1


def test_slots_list_every_edge_from_both_ends():
    # the directed slots are the pairs (i, j) and (j, i) of every edge,
    # sorted by (tail, head), so row i is degrees[i] slots in neighbour
    # order; fwd and rev name each edge's two slots; built once per graph
    rng = np.random.default_rng(17)
    for g in [erdos_renyi(40, 0.3, rng), planted_hub(), clique_hub_proxy(100, 20, 50),
              Graph(0, []), Graph(3, []), complete_graph(2)]:
        s = g.slots
        assert g.slots is s
        want = np.argwhere(g.adj)
        assert np.array_equal(np.stack((s.tail, s.head), axis=1), want)
        assert np.array_equal(np.bincount(s.tail, minlength=g.n), g.degrees)
        assert np.array_equal(np.stack((s.tail[s.fwd], s.head[s.fwd]), axis=1), g.edges)
        assert np.array_equal(np.stack((s.head[s.rev], s.tail[s.rev]), axis=1), g.edges)


def test_small_file_is_read_in_reads_of_its_own_size(k4_graph_file):
    # a sized read allocates its full size before it shrinks, so reading a
    # 24-byte file in reads of _BLOCK_CHARS would peak above a megabyte
    assert k4_graph_file.stat().st_size < 64
    tracemalloc.start()
    try:
        blocks = list(graph._parsed_blocks(k4_graph_file))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.concatenate(blocks).tolist() == [[u, v] for u in range(4) for v in range(u + 1, 4)]
    assert peak < 65536


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
