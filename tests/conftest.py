"""Shared test helpers: independent oracles, small graph builders, data paths."""

import os
from pathlib import Path

import numpy as np
import pytest

from privtri import EdgeListFormatError, Graph, ProjectedGraph


def brute_triangles(g: Graph) -> int:
    """Independent triangle oracle: full triple sum over the dense matrix.

    (1/6) * sum_{i,j,k} a_ij * a_ik * a_jk, kept deliberately naive so the
    optimized bitset path is checked against something with no shared code.
    """
    a = g.adj.astype(np.int64)
    return int(np.einsum("ij,ik,jk->", a, a, a)) // 6


def reference_load(path, limit_n: int | None = None) -> tuple[int, np.ndarray]:
    """Independent edge-list parser: (n, adj) by one Python pass per line.

    The per-line reading rules load_edge_list must reproduce: strip, skip
    blank and '#' lines, exactly two int() tokens, no negative id, ids
    admitted in first-appearance order (u before v) while fewer than
    limit_n are known. Raises EdgeListFormatError with the messages
    load_edge_list uses, or ValueError when no node is found.
    """
    id_map: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()

    def admit(raw: int) -> int | None:
        if raw not in id_map and (limit_n is None or len(id_map) < limit_n):
            id_map[raw] = len(id_map)
        return id_map.get(raw)

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            try:
                if len(parts) != 2:
                    raise ValueError
                raw_u, raw_v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: expected two node ids, got {text!r}"
                ) from None
            if raw_u < 0 or raw_v < 0:
                raise EdgeListFormatError(f"line {lineno}: negative node id")
            u, v = admit(raw_u), admit(raw_v)
            if u is not None and v is not None and u != v:
                edges.add((min(u, v), max(u, v)))
    n = len(id_map)
    if n == 0:
        raise ValueError(f"no nodes found in {path}")
    adj = np.zeros((n, n), dtype=np.uint8)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    return n, adj


def upper_edges(adj: np.ndarray) -> np.ndarray:
    """The (m, 2) int64 pairs (i, j), i < j, set in a square 0/1 matrix, row-major."""
    i, j = np.divmod(np.flatnonzero(np.asarray(adj).view(bool)), adj.shape[0])
    upper = i < j
    return np.stack((i[upper], j[upper]), axis=1)


def as_projected(g: Graph) -> ProjectedGraph:
    """g with every row kept, at theta = max(d_max, 1)."""
    return ProjectedGraph(g, max(g.d_max, 1), np.ones(2 * len(g.edges), dtype=bool))


def projected_rows(adj: np.ndarray, theta: int) -> ProjectedGraph:
    """The ProjectedGraph whose row i keeps the set bits of row i of adj.

    adj is any square 0/1 matrix, asymmetric or not; its source graph has
    an edge wherever either row has the bit, and diagonal bits are dropped.
    """
    adj = np.asarray(adj, dtype=bool)
    g = Graph(adj.shape[0], np.argwhere(adj | adj.T))
    return ProjectedGraph(g, theta, adj[g.slots.tail, g.slots.head])


# Dense references for the slot-based projections and the 'and' rule: each
# builds or reads n x n uint8 matrices, with the same lexsort rule and the
# same rng.random keys as projection.project and project_random.


def dense_over_theta_edges(g: Graph, theta: int):
    """The rows with degree > theta, their edges in row-major order, and
    the offset of each row's first edge."""
    rows = np.flatnonzero(g.degrees > theta)
    d = g.degrees[rows]
    r, j = np.divmod(np.flatnonzero(g.adj[rows].view(bool)), g.n)
    return rows, rows[r], j, np.cumsum(d) - d


def dense_keep_edges(g: Graph, rows, i, j) -> np.ndarray:
    """A copy of g's adjacency whose rows `rows` hold only the edges (i, j)."""
    adj = np.array(g.adj, dtype=np.uint8)
    adj[rows] = 0
    adj[i, j] = 1
    return adj


def dense_project(g: Graph, noisy, theta: int) -> np.ndarray:
    """projection.project as an (n, n) uint8 matrix: one lexsort of every
    over-theta row's edges by (row, similarity, neighbour)."""
    rows, i, j, start = dense_over_theta_edges(g, theta)
    ds = np.abs(noisy.values[i] - noisy.values[j])
    order = np.lexsort((j, ds, i))
    rank = np.arange(order.size) - np.repeat(start, g.degrees[rows])
    keep = order[rank < theta]
    return dense_keep_edges(g, rows, i[keep], j[keep])


def dense_project_random(g: Graph, theta: int, rng) -> np.ndarray:
    """projection.project_random as an (n, n) uint8 matrix: one
    rng.random key per over-theta edge, in row-major order, and each
    row's edges of its theta lowest keys, by one stable argsort per row."""
    rows, i, j, start = dense_over_theta_edges(g, theta)
    keys = rng.random(i.size)
    keep = np.array(
        [s + np.argsort(keys[s : s + d], kind="stable")[:theta]
         for s, d in zip(start.tolist(), g.degrees[rows].tolist())],
        dtype=np.int64,
    ).reshape(-1)
    return dense_keep_edges(g, rows, i[keep], j[keep])


def dense_effective_edges(adj: np.ndarray) -> np.ndarray:
    """The pairs i < j whose bits are set in both row i and row j of adj."""
    i, j = upper_edges(adj).T
    both = adj[j, i].view(bool)
    return np.stack((i[both], j[both]), axis=1)


def complete_graph(n: int) -> Graph:
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


def star_graph(n_leaves: int) -> Graph:
    return Graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def erdos_renyi(n: int, p: float, rng) -> Graph:
    """G(n, p): each pair independently an edge with probability p."""
    return Graph(n, np.argwhere(np.triu(rng.random((n, n)) < p, 1)))


def planted_hub(
    n_partners: int = 3, n_leaves: int = 17, partner_degree: int = 19
) -> Graph:
    """Hub whose triangles live on a few equal-degree partners.

    Node 0 is the hub, joined to n_partners mutually adjacent partners and
    to n_leaves pendant leaves. Each partner gets its own pendant leaves
    until it reaches partner_degree, so partner degrees sit close to the
    hub's while leaf degrees are far from it. Projection that keeps
    degree-similar neighbors retains every triangle; uniform deletion
    rarely keeps all partner edges.
    """
    if partner_degree < n_partners:
        raise ValueError("partner_degree below its forced minimum")
    edges = []
    partners = list(range(1, 1 + n_partners))
    for a_idx, a in enumerate(partners):
        edges.append((0, a))
        for b in partners[a_idx + 1 :]:
            edges.append((a, b))
    nxt = 1 + n_partners
    for _ in range(n_leaves):
        edges.append((0, nxt))
        nxt += 1
    boost = partner_degree - n_partners
    for a in partners:
        for _ in range(boost):
            edges.append((a, nxt))
            nxt += 1
    return Graph(nxt, edges)


def write_lines(path: Path, lines) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def facebook_path() -> Path | None:
    """Real SNAP edge list, if the user has dropped one in; else None."""
    env = os.environ.get("PRIVTRI_DATA")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "facebook_combined.txt")
    for cand in candidates:
        if cand.is_file():
            return cand
    return None


requires_facebook = pytest.mark.skipif(
    facebook_path() is None,
    reason="SNAP facebook edge list not present (set PRIVTRI_DATA or add data/facebook_combined.txt)",
)


@pytest.fixture(scope="session")
def proxy_graph_file(tmp_path_factory) -> Path:
    """Edge list of the deterministic social-graph stand-in (n=2000).

    Used in place of a real SNAP download: dense cliques carry the
    triangles and node 0 is a dominant hub, so prefix subgraphs keep a
    clear maximum degree.
    """
    from privtri.synth import clique_hub_proxy, write_edge_list

    path = tmp_path_factory.mktemp("data") / "proxy2000.txt"
    write_edge_list(clique_hub_proxy(), path)
    return path


@pytest.fixture(scope="session")
def planted_graph_file(tmp_path_factory) -> Path:
    from privtri.synth import write_edge_list

    path = tmp_path_factory.mktemp("data") / "planted.txt"
    write_edge_list(planted_hub(), path)
    return path


@pytest.fixture(scope="session")
def k4_graph_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("data") / "k4.txt"
    lines = [f"{u} {v}" for u in range(4) for v in range(u + 1, 4)]
    return write_lines(path, lines)
