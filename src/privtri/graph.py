"""Undirected graphs as canonical edge lists, with an exact triangle oracle.

Graphs are loaded from SNAP-style edge lists: one edge per line, two
whitespace-separated decimal node ids, '#' comment lines ignored. Node ids
are remapped to 0..n-1 in order of first appearance, so loading the same
file twice gives the same graph and prefix truncation is reproducible.
The file is read as bytes, about a megabyte per block, and each block
goes through one vectorised tokenizer pass; dense ids are ranked through
an id-indexed table. A line-by-line scan runs only when a block holds
something other than '#' lines, ASCII digits and whitespace, or a line
other than two ids of at most 18 digits: it names the first malformed
line, or reads the ids int() takes that the tokenizer does not.

A Graph holds its edges once, as sorted pairs i < j, and its degrees;
no n x n matrix is kept. The directed slots, each edge seen from both
endpoints in row-major order, are sorted once per graph, on first use:
projection keeps or drops neighbours by slot. The dense adjacency is
built only when asked for.

The triangle oracle here is plain and non-private; it is the ground truth
the secure counting path is tested against. It sets bitset rows from the
edges and intersects the rows of both endpoints of every edge, a fixed
number of edges per step, so each triangle is counted at all three of
its edges.
"""

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Edges per gather step of exact_triangle_count. Each step holds two
# gathered (step, ceil(n/64)) uint64 blocks, 2 MB at n=2000, so peak memory
# stays near the bitset rows' own size while the Python loop stays short.
_GATHER_EDGES = 4096

# Bytes of edge list per tokenizer pass in load_edge_list (about 70,000
# SNAP lines; the pass's temporaries take a few bytes per byte of block),
# and rows per block on the line-scan path.
_BLOCK_CHARS = 1 << 20
_SCAN_ROWS = 1 << 16

# The bytes a block may hold once '\r' is read as '\n' and its '#' lines
# are dropped: ASCII digits and the ASCII whitespace str.split() splits
# on. Every id of at most _MAX_DIGITS digits is below 2**63.
_TOKEN_BYTES = b"0123456789 \t\n\v\f"
_LINE_SPACE = b" \t\v\f"
_MAX_DIGITS = 18

# A block is ranked through an id-indexed table only while its largest id
# is below _TABLE_PER_ID per id read so far, plus _TABLE_MIN, so the table
# (grown by doubling) stays within a few times the size of the ids read.
_TABLE_PER_ID = 2
_TABLE_MIN = 1 << 12
_UNRANKED = np.iinfo(np.int64).max


class EdgeListFormatError(ValueError):
    """Edge-list line that is not two non-negative integers."""


class Slots(NamedTuple):
    """The 2m directed slots of a graph: each edge (i, j) seen from i and from j.

    Slot s is the directed edge (tail[s], head[s]); the slots are sorted
    by (tail, head), so row i's neighbours are degrees[i] consecutive
    slots in ascending order. Edge e = (i, j) of Graph.edges sits in
    slot fwd[e] as (i, j) and in slot rev[e] as (j, i).
    """

    tail: np.ndarray
    head: np.ndarray
    fwd: np.ndarray
    rev: np.ndarray


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph on nodes 0..n-1, built from an (m, 2) edge array.

    edges is any integer array-like of node ids in [0, n); duplicate and
    reversed-duplicate edges collapse to one undirected edge and self-loops
    are dropped. The Graph keeps the result as edges, the (m, 2) int64
    pairs (i, j), i < j, each once and in row-major order. An int64 array
    already in that form (effective_edges gives one) is kept as it is,
    with no copy, and becomes read-only; any other is put in that form by
    sorting the pair keys i * n + j. degrees[i] counts the edges at i.
    edges and degrees are read-only. Raises ValueError unless edges has
    shape (m, 2) and every id is in [0, n).
    """

    n: int
    edges: np.ndarray
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
        if np.any(i >= j) or np.any(np.diff(i * self.n + j) <= 0):
            lo, hi = np.minimum(i, j), np.maximum(i, j)
            keys = np.unique((lo * self.n + hi)[lo != hi])
            e = np.stack(np.divmod(keys, self.n), axis=1)
        degrees = np.bincount(e.reshape(-1), minlength=self.n)
        for name, value in (("edges", e), ("degrees", degrees)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def d_max(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @cached_property
    def slots(self) -> Slots:
        """The directed slots, sorted by one argsort on first use, then kept."""
        i, j = self.edges.T
        order = np.argsort(np.concatenate((i * self.n + j, j * self.n + i)))
        where = np.empty_like(order)
        where[order] = np.arange(order.size)
        tail = np.concatenate((i, j))[order]
        head = np.concatenate((j, i))[order]
        slots = Slots(tail, head, where[: i.size], where[i.size :])
        for value in slots:
            value.flags.writeable = False
        return slots

    @property
    def adj(self) -> np.ndarray:
        """The (n, n) uint8 0/1 adjacency matrix, read-only.

        Symmetric with a zero diagonal. Built from edges on every access
        and not kept: the graph itself never needs it.
        """
        adj = np.zeros((self.n, self.n), dtype=np.uint8)
        i, j = self.edges.T
        adj[i, j] = 1
        adj[j, i] = 1
        adj.flags.writeable = False
        return adj


def load_edge_list(path, limit_n: int | None = None) -> Graph:
    r"""Load a SNAP edge list into a Graph.

    Duplicate and reversed-duplicate edges collapse to one undirected edge;
    self-loop lines are dropped. With limit_n, only edges among the first
    limit_n distinct node ids encountered (in file order, u before v) are
    kept; nodes whose edges all leave the prefix stay as isolated nodes.
    A node id is any non-negative integer Python's int() reads.

    The file is read as bytes in blocks of about _BLOCK_CHARS, each cut
    at a line break ('\n' or '\r') and read by one vectorised tokenizer
    pass, so memory stays near one block plus the admitted ids and kept
    edges. The tokenizer takes a block whose '#' lines are dropped and
    whose other bytes are ASCII digits and whitespace, with 0 or 2 digit
    runs of at most 18 digits per line. Dense ids (the largest below a
    small multiple of the ids read) are ranked through an id-indexed
    table, others by sorting. Only when a block breaks those rules (a bad
    line, a '#' after data, an id of 19 digits or more, '+5', '1_0',
    non-ASCII digits or whitespace) does a line scan run from the top of
    the file: it names the first bad line, or, when every line is valid,
    reads the ids itself.

    Raises EdgeListFormatError naming the offending line, or ValueError if
    no nodes survive.
    """
    if limit_n is not None and limit_n < 1:
        raise ValueError("limit_n must be positive")
    try:
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
    both ranked. An int64 block whose largest id is below _TABLE_PER_ID
    times the ids read so far, plus _TABLE_MIN, is ranked through an
    id-indexed table: np.minimum.at finds each new id's first position
    and one gather maps ids to ranks. Other blocks (sparse ids, and the
    line scan's object ids) are ranked by sorting the ranked ids.
    """
    seen = np.empty(0, dtype=np.int64)  # ranked ids, in rank order
    table = np.empty(0, dtype=np.int64)  # table[id]: rank of id, or _UNRANKED
    read = 0
    kept = []
    for ids in blocks:
        flat = ids.reshape(-1)
        read += flat.size
        room = flat.size if limit_n is None else limit_n - seen.size
        top = flat.max()
        if flat.dtype != object and top < _TABLE_PER_ID * read + _TABLE_MIN:
            if top >= table.size:
                table = np.full(max(top + 1, 2 * table.size), _UNRANKED)
                inside = seen < table.size
                table[seen[inside]] = np.flatnonzero(inside)
            if room > 0:
                # each unranked id's first position, offset past every rank
                # so that ranked ids keep theirs; then those entries are reset
                np.minimum.at(table, flat, np.arange(seen.size, seen.size + flat.size))
                firsts = np.flatnonzero((table >= seen.size) & (table != _UNRANKED))
                fresh = flat[np.sort(table[firsts]) - seen.size][:room]
                table[firsts] = _UNRANKED
                table[fresh] = np.arange(seen.size, seen.size + fresh.size)
                seen = np.concatenate((seen, fresh))
            rank = table[flat]
            ranked = rank != _UNRANKED
        else:
            if room > 0:
                new, first = np.unique(flat, return_index=True)
                fresh = ~np.isin(new, seen)
                seen = np.concatenate((seen, new[fresh][np.argsort(first[fresh])][:room]))
                table = table[:0]  # rebuilt from seen by the next dense block
            order = np.argsort(seen)
            rank = order[np.searchsorted(seen, flat, sorter=order).clip(max=seen.size - 1)]
            ranked = seen[rank] == flat
        kept.append(np.compress(ranked[0::2] & ranked[1::2], rank.reshape(-1, 2), axis=0))
    return seen.size, np.concatenate(kept) if kept else np.empty((0, 2), dtype=np.int64)


def _parsed_blocks(path):
    """The file's (m, 2) int64 node ids, one _read_ids pass per block.

    Each block ends at the last line break of about _BLOCK_CHARS bytes
    read; the part after it starts the next block. A file smaller than
    _BLOCK_CHARS is read in reads of its own size, since a sized read
    allocates its full size first. Raises ValueError at the first block
    that _read_ids does not read.
    """
    with open(path, "rb") as fh:
        step = min(_BLOCK_CHARS, os.fstat(fh.fileno()).st_size) or _BLOCK_CHARS
        rest = b""
        while True:
            chunk = fh.read(step)
            block = rest + chunk
            cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1 if chunk else len(block)
            block, rest = block[:cut], block[cut:]
            ids = _read_ids(block)
            if ids.size:
                yield ids
            if not chunk:
                return


def _read_ids(block: bytes) -> np.ndarray:
    r"""The (m, 2) int64 ids of a block of whole lines, by one tokenizer pass.

    '\r' counts as a line break, as in the line scan's text mode, and '#'
    lines are dropped. Raises ValueError unless what is left is ASCII
    digits and whitespace, with 0 or 2 digit runs on every line and no
    run longer than _MAX_DIGITS; such a block is read as the line scan
    would read it.
    """
    if b"\r" in block:
        block = block.replace(b"\r", b"\n")
    if b"#" in block:
        if not block.isascii():
            block.decode("utf-8")  # the line scan reads '#' lines as UTF-8 too
        block = _drop_comment_lines(block)
    if not block or block.isspace():
        return np.empty((0, 2), dtype=np.int64)
    if block.translate(None, _TOKEN_BYTES) or not _two_runs_per_line(block):
        raise ValueError("block needs the line scan")
    return np.fromstring(block, dtype=np.int64, sep=" ").reshape(-1, 2)


def _two_runs_per_line(block: bytes) -> bool:
    r"""Whether each '\n'-ended line of block, all ASCII digits and
    whitespace, holds 0 or 2 digit runs, none longer than _MAX_DIGITS.

    A function of its own so that its block-sized temporaries are freed
    before np.fromstring allocates the ids.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    digit = a >= ord("0")
    event = a == ord("\n")
    event[:1] |= digit[:1]
    event[1:] |= digit[1:] > digit[:-1]
    # the line breaks and digit-run starts in block order, True at run
    # starts: a line of 0 or 2 runs leaves every True with one True
    # neighbour, so a True whose two neighbours are equal breaks the rule
    starts = np.concatenate(([False], np.compress(event, digit), [False]))
    if np.any(starts[1:-1] & (starts[:-2] == starts[2:])):
        return False
    long, width = digit, 1  # long[i]: bytes i..i+width-1 are all digits
    while width <= _MAX_DIGITS:
        step = min(width, _MAX_DIGITS + 1 - width)
        long, width = long[step:] & long[:-step], width + step
    return not long.any()


def _drop_comment_lines(block: bytes) -> bytes:
    r"""block without its '#' lines, those with only whitespace before the '#'.

    Lines break at '\n' only. At a '#' after data it stops dropping and
    keeps the rest of the block, whose '#' then fails the tokenizer's
    byte check. One Python step per comment line.
    """
    kept = []
    start = 0  # first byte not yet kept or dropped
    while (hit := block.find(b"#", start)) >= 0:
        line = block.rfind(b"\n", 0, hit) + 1
        if block[line:hit].strip(_LINE_SPACE):
            break
        kept.append(block[start:line])
        start = block.find(b"\n", hit)
        if start < 0:
            start = len(block)
    kept.append(block[start:])
    return b"".join(kept)


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


def _packed_rows(g: Graph) -> np.ndarray:
    """g's adjacency as (n, ceil(n/64)) uint64 bitset rows, set from its edges."""
    words = -(-g.n // 64)
    i, j = g.edges.T
    tail, head = np.concatenate((i, j)), np.concatenate((j, i))
    packed = np.zeros(g.n * words, dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (head & 63).astype(np.uint64))
    np.bitwise_or.at(packed, tail * words + (head >> 6), bits)
    return packed.reshape(g.n, words)


def exact_triangle_count(g: Graph) -> int:
    """Number of unordered triples {i, j, k} with all three edges present.

    For every edge (i, j) of g.edges, counts the common neighbors of i and
    j by intersecting their bitset rows. Each triangle is seen once at
    each of its three edges, so the sum is three times the count. The
    edges go through in steps of _GATHER_EDGES, each one gather of both
    endpoints' rows, an AND and a popcount.
    """
    if g.n < 3:
        return 0
    edges = g.edges
    packed = _packed_rows(g)
    total = 0
    for s in range(0, len(edges), _GATHER_EDGES):
        i, j = edges[s : s + _GATHER_EDGES].T
        total += int(np.bitwise_count(packed[i] & packed[j]).sum())
    return total // 3
