"""Undirected graphs as adjacency bit matrices, with an exact triangle oracle.

Graphs are loaded from SNAP-style edge lists: one edge per line, two
whitespace-separated decimal node ids, '#' comment lines ignored. Node ids
are remapped to 0..n-1 in order of first appearance, so loading the same
file twice gives the same graph and prefix truncation is reproducible.
The file is parsed by numpy's C reader, one call per block of about a
megabyte; a line-by-line scan runs only when that parse fails or reads a
line differently, to name the first malformed line.

The triangle oracle here is plain and non-private; it is the ground truth
the secure counting path is tested against. It intersects the packed
adjacency rows of both endpoints of every edge, a fixed number of edges
per step, so each triangle is counted at all three of its edges.
"""

import io
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

# Edges per gather step of exact_triangle_count. Each step holds two
# gathered (step, ceil(n/64)) uint64 blocks, 2 MB at n=2000, so peak memory
# stays near the adjacency's own size while the Python loop stays short.
_GATHER_EDGES = 4096

# Characters of edge list per np.loadtxt call in load_edge_list (about
# 70,000 SNAP lines), and rows per block on the line-scan path.
_BLOCK_CHARS = 1 << 20
_SCAN_ROWS = 1 << 16

_COMMENT = re.compile(r"#[^\n]*")


class EdgeListFormatError(ValueError):
    """Edge-list line that is not two non-negative integers."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on nodes 0..n-1, built from an (m, 2) edge array.

    edges is any integer array-like of node ids in [0, n); duplicate and
    reversed-duplicate edges collapse to one undirected edge and self-loops
    are dropped. The Graph keeps the result as edges, the (m, 2) int64
    pairs (i, j), i < j, each once and in row-major order. An int64 array
    already in that form (effective_edges gives one) is kept as it is,
    with no copy, and becomes read-only; any other is listed again from
    adj, the (n, n) uint8 0/1 matrix scattered from it. adj is symmetric
    with a zero diagonal by construction. degrees[i] is the popcount of
    row i. edges, adj and degrees are read-only. Raises ValueError unless
    edges has shape (m, 2) and every id is in [0, n).
    """

    n: int
    edges: np.ndarray
    adj: np.ndarray = field(init=False)
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError(f"edges must be an (m, 2) array, got shape {e.shape}")
        if e.size and (e.min() < 0 or e.max() >= self.n):
            raise ValueError(f"node ids must be in [0, {self.n})")
        i, j = e.T
        canonical = not (np.any(i >= j) or np.any(np.diff(i * self.n + j) <= 0))
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        adj[i, j] = 1
        adj[j, i] = 1
        np.fill_diagonal(adj, 0)
        if not canonical:
            e = upper_edges(adj)
        degrees = np.bitwise_count(_pack_rows(adj)).sum(axis=1, dtype=np.int64)
        for name, value in (("edges", e), ("adj", adj), ("degrees", degrees)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def d_max(self) -> int:
        return int(self.degrees.max()) if self.n else 0


def upper_edges(adj: np.ndarray) -> np.ndarray:
    """The (m, 2) int64 pairs (i, j), i < j, set in a square uint8 0/1 matrix.

    Row-major order. flatnonzero runs on the bool view, which is several
    times faster than on the uint8 matrix itself.
    """
    i, j = np.divmod(np.flatnonzero(adj.view(bool)), adj.shape[0])
    upper = i < j
    return np.stack((i[upper], j[upper]), axis=1)


def load_edge_list(path, limit_n: int | None = None) -> Graph:
    """Load a SNAP edge list into a Graph.

    Duplicate and reversed-duplicate edges collapse to one undirected edge;
    self-loop lines are dropped. With limit_n, only edges among the first
    limit_n distinct node ids encountered (in file order, u before v) are
    kept; nodes whose edges all leave the prefix stay as isolated nodes.
    A node id is any non-negative integer Python's int() reads.

    The file is read in blocks of about _BLOCK_CHARS characters, each
    parsed by one np.loadtxt call, so memory stays near one block plus
    the admitted ids and kept edges. Only when a block fails that parse,
    or holds a negative id or a '#' after data (which loadtxt would drop
    silently), does a line scan run from the top of the file: it names the
    first bad line, or, when every line is valid (an id of 2**63 or more,
    '1_0', non-ASCII digits), reads the ids itself.

    Raises EdgeListFormatError naming the offending line, or ValueError if
    no nodes survive.
    """
    if limit_n is not None and limit_n < 1:
        raise ValueError("limit_n must be positive")
    try:
        with warnings.catch_warnings():
            # an empty block is skipped; older numpy parses "1.5" as 1 and
            # only warns
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("error", "loadtxt.*integer via a float", DeprecationWarning)
            n, edges = _rank_blocks(_parsed_blocks(path), limit_n)
    except ValueError:
        n, edges = _rank_blocks(_scanned_blocks(path), limit_n)
    if n == 0:
        raise ValueError(f"no nodes found in {path}")
    return Graph(n, edges)


def _rank_blocks(blocks, limit_n: int | None) -> tuple[int, np.ndarray]:
    """(n, edges) from blocks of (m, 2) node ids, in file order.

    Ids are ranked by first appearance (u before v) while fewer than
    limit_n are known; edges are the rank pairs of rows whose two ids are
    both ranked.
    """
    seen = np.empty(0, dtype=np.int64)  # ranked ids, in rank order
    kept = []
    for ids in blocks:
        flat = ids.reshape(-1)
        room = flat.size if limit_n is None else limit_n - seen.size
        if room > 0:
            new, first = np.unique(flat, return_index=True)
            fresh = ~np.isin(new, seen)
            seen = np.concatenate((seen, new[fresh][np.argsort(first[fresh])][:room]))
        order = np.argsort(seen)
        rank = order[np.searchsorted(seen, flat, sorter=order).clip(max=seen.size - 1)]
        ranked = (seen[rank] == flat).reshape(-1, 2).all(axis=1)
        kept.append(rank.reshape(-1, 2)[ranked])
    return seen.size, np.concatenate(kept) if kept else np.empty((0, 2), dtype=np.int64)


def _parsed_blocks(path):
    """The file's (m, 2) int64 node ids, one np.loadtxt call per block.

    Raises ValueError at the first block that loadtxt cannot parse or
    reads differently from _scanned_blocks: other than two columns, a
    negative id, or a '#' after data on a line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        while block := fh.read(_BLOCK_CHARS) + fh.readline():
            ids = np.loadtxt(io.StringIO(block), dtype=np.int64, comments="#", ndmin=2)
            if ids.size == 0:
                continue
            if ids.shape[1] != 2 or ids.min() < 0 or _has_inline_comment(block):
                raise ValueError("block needs the line scan")
            yield ids


def _scanned_blocks(path):
    """The file's node ids as (m, 2) object arrays, one Python pass per line.

    The reference reading rules: strip, skip blank and '#' lines, exactly
    two int() tokens, no negative id. Raises EdgeListFormatError naming
    the first line that breaks them.
    """
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                u, v = map(int, text.split())
            except ValueError:
                raise EdgeListFormatError(
                    f"line {lineno}: expected two node ids, got {text!r}"
                ) from None
            if u < 0 or v < 0:
                raise EdgeListFormatError(f"line {lineno}: negative node id")
            pairs.append((u, v))
            if len(pairs) == _SCAN_ROWS:
                yield np.array(pairs, dtype=object)
                pairs = []
    if pairs:
        yield np.array(pairs, dtype=object)


def _has_inline_comment(text: str) -> bool:
    """Whether some line has a '#' after data; visits only lines with a '#'."""
    for hit in _COMMENT.finditer(text):
        start = text.rfind("\n", 0, hit.start()) + 1
        if text[start : hit.start()].strip():
            return True
    return False


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack an (n, m) 0/1 matrix into (n, ceil(m/64)) uint64 bitset rows."""
    packed = np.packbits(rows, axis=1)
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def exact_triangle_count(g: Graph) -> int:
    """Number of unordered triples {i, j, k} with all three edges present.

    For every edge (i, j) of g.edges, counts the common neighbors of i and
    j by intersecting their packed adjacency rows. Each triangle is seen
    once at each of its three edges, so the sum is three times the count.
    The edges go through in steps of _GATHER_EDGES, each one gather of
    both endpoints' rows, an AND and a popcount.
    """
    if g.n < 3:
        return 0
    edges = g.edges
    packed = _pack_rows(g.adj)
    total = 0
    for s in range(0, len(edges), _GATHER_EDGES):
        i, j = edges[s : s + _GATHER_EDGES].T
        total += int(np.bitwise_count(packed[i] & packed[j]).sum())
    return total // 3
