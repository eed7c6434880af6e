"""Shared test helpers: independent oracles, small graph builders, data paths."""

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from privtri import EdgeListFormatError, Graph, ProjectedGraph
from privtri.perturbation import discrete_laplace


def rng_for(seed) -> np.random.Generator:
    """A numpy Generator on PCG64, seeded by SeedSequence(seed), seed an
    int or a list of ints; SeedSequence(5) and SeedSequence([5]) agree."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def brute_triangles(g: Graph) -> int:
    """Independent triangle oracle: full triple sum over the dense matrix.

    (1/6) * sum_{i,j,k} a_ij * a_ik * a_jk, kept deliberately naive so the
    optimized bitset path is checked against something with no shared code.
    """
    a = g.adj.astype(np.int64)
    return int(np.einsum("ij,ik,jk->", a, a, a)) // 6


# one data line, once stripped of ASCII whitespace: two runs of 1 to 18
# ASCII digits separated by ASCII whitespace
_ID_PAIR = re.compile(r"([0-9]{1,18})[ \t\v\f]+([0-9]{1,18})")


def reference_load(path, limit_n: int | None = None) -> tuple[int, np.ndarray]:
    """Independent edge-list parser: (n, adj) by one Python pass per line.

    The per-line reading rules load_edge_list must reproduce: the file is
    UTF-8 text whose lines end in '\n', '\r\n' or '\r'; strip ASCII
    whitespace, skip blank and '#' lines, and read every other line as
    two ids of 1 to 18 ASCII digits separated by ASCII whitespace. Ids are
    admitted in first-appearance order (u before v) while fewer than
    limit_n are known. Raises EdgeListFormatError with the message
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
            text = line.strip(" \t\n\r\v\f")
            if not text or text.startswith("#"):
                continue
            ids = _ID_PAIR.fullmatch(text)
            if ids is None:
                raise EdgeListFormatError(
                    f"line {lineno}: expected two node ids, got {text!r}"
                )
            u, v = admit(int(ids[1])), admit(int(ids[2]))
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
    ds = np.abs(noisy[i] - noisy[j])
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


def noise_sums(params, rng, samples: int) -> np.ndarray:
    """samples sums of the n_users partial noises perturb adds, as int64.

    Drawn through perturbation.discrete_laplace with parts = n_users, as
    perturb draws them, about 2**18 users' partial noises a call, so a
    draw holds a few MB at any n_users.
    """
    n = params.n_users
    chunk = max(1, (1 << 18) // n)
    return np.concatenate([
        discrete_laplace(params.scale, rng, size=(min(chunk, samples - start), n), parts=n)
        .sum(axis=-1)
        for start in range(0, samples, chunk)
    ])


def discrete_variance(scale: float) -> float:
    """Variance of discrete Laplace of the scale, 2 alpha / (1 - alpha)**2."""
    alpha = math.exp(-1 / scale)
    return 2 * alpha / (1 - alpha) ** 2


def audit_epsilon(low, high, cut, alpha=0.05) -> float:
    """Lower confidence bound on the privacy loss two samples of a mechanism show.

    low and high are equally many outputs of the mechanism on two
    neighbouring inputs, the lower and the higher, and a test guesses the
    higher input when an output lies above cut. With one-sided
    Clopper-Pearson upper bounds (confidence 1 - alpha each) on its false
    positive rate and its false negative rate, ln((1 - FNR_hi) / FPR_hi)
    is a lower bound on any epsilon the pair satisfies.
    """
    runs = len(low)
    assert len(high) == runs

    def upper(errors):
        if errors == runs:
            return 1.0
        return float(stats.beta.ppf(1 - alpha, errors + 1, runs - errors))

    fpr_hi = upper(int(np.sum(np.asarray(low) > cut)))
    fnr_hi = upper(int(np.sum(np.asarray(high) <= cut)))
    return math.log((1 - fnr_hi) / fpr_hi)


def relaxed_caveman(n: int, seed: int) -> Graph:
    """Seeded heterogeneous caveman graph on n nodes.

    After Watts's relaxed caveman (Small Worlds, 1999): community sizes
    come from a Pareto law of index 1 truncated to [5, 80], drawn until
    they cover n nodes (the last cut to fit). Each pair inside a community
    is kept with probability 0.8, and random cross pairs, 15% as many as
    the kept pairs, are added (Graph drops self-loops and repeats among
    them). Degrees spread from a few to about 70, unlike the proxy's
    equal-degree cliques or planted_hub, which the projection was tried on
    first. At n = 2000 and seed 1: 24,288 edges, d_max 69 and 184,694
    triangles.
    """
    rng = np.random.default_rng(seed)
    blocks, start = [], 0
    while start < n:
        size = min(int(5 / (1 - rng.random() * (1 - 5 / 80))), n - start)
        i, j = np.triu_indices(size, 1)
        keep = rng.random(i.size) < 0.8
        blocks.append(start + np.stack((i[keep], j[keep]), axis=1))
        start += size
    kept = sum(len(b) for b in blocks)
    blocks.append(rng.integers(0, n, size=(int(0.15 * kept), 2)))
    return Graph(n, np.concatenate(blocks))


def write_lines(path: Path, lines, newline: str = "\n") -> Path:
    """lines as UTF-8 text, each ended by newline."""
    path.write_bytes("".join(line + newline for line in lines).encode())
    return path


def write_path(path: Path, n: int) -> Path:
    """The path graph 0 - 1 - ... - (n-1) as an edge list of n - 1 lines."""
    return write_lines(path, [f"{i} {i + 1}" for i in range(n - 1)])


class ReachedCount(Exception):
    """Raised by the cargo_calls stub of count, to stop a cargo run there."""


@pytest.fixture
def cargo_calls(monkeypatch) -> dict[str, list]:
    """What harness.run_cargo hands its loader, oracle and count.

    'load' gets every Graph load_edge_list returns, 'oracle' the n of
    every exact_triangle_count call and 'count' the n of every count
    call. The loader and the oracle run as usual; count only records its
    n and raises ReachedCount.
    """
    from privtri import graph, harness

    calls = {"load": [], "oracle": [], "count": []}

    def load(path, limit_n=None):
        calls["load"].append(graph.load_edge_list(path, limit_n))
        return calls["load"][-1]

    def oracle(g):
        calls["oracle"].append(g.n)
        return graph.exact_triangle_count(g)

    def count(sa, n, dealer, channel=None):
        calls["count"].append(n)
        raise ReachedCount

    monkeypatch.setattr(harness, "load_edge_list", load)
    monkeypatch.setattr(harness, "exact_triangle_count", oracle)
    monkeypatch.setattr(harness, "count", count)
    return calls


def cargo_under_two_dealers(monkeypatch, cfg):
    """run_cargo(cfg) with the run's own dealer, then with another one.

    The other dealer reads every stream one path step further, so it deals
    other masks from the same seed. Returns each run's records and the
    users' share masks s1 of each of its trials.
    """
    from privtri import DealerRng, harness
    from privtri.secure_count import share_adjacency

    masks = []

    def spy(pg, dealer):
        sa = share_adjacency(pg, dealer)
        masks.append(sa.s1)
        return sa

    monkeypatch.setattr(harness, "share_adjacency", spy)
    runs = [harness.run_cargo(cfg)]
    monkeypatch.setattr(harness, "DealerRng", lambda seed, *path: DealerRng(seed, *path, 7))
    runs.append(harness.run_cargo(cfg))
    return runs, (masks[:cfg.trials], masks[cfg.trials:])


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
