"""Undirected graphs as canonical edge lists, with an exact triangle oracle.

Graphs are loaded from SNAP-style edge lists. A line holds two node ids
separated by ASCII whitespace, or is blank, or is a '#' line; a node id is
a run of at most 18 ASCII digits, and lines end in '\n', '\r\n' or '\r'.
Node ids are remapped to 0..n-1 in order of first appearance, so loading
the same file twice gives the same graph and prefix truncation is
reproducible. The file is read as bytes, about a megabyte per block, and
each block goes through one vectorised tokenizer pass; dense ids are
ranked through an id-indexed table. The tokenizer refuses any other line
itself, naming it by its line number.

A Graph holds its edges once, as sorted pairs i < j, and its degrees;
no n x n matrix is kept. The directed slots, each edge seen from both
endpoints in row-major order, are sorted once per graph, on first use:
projection keeps or drops neighbours by slot. The dense adjacency is
built only when asked for.

The triangle oracle here is plain and non-private; it is the ground truth
the secure counting path is tested against. It ranks the nodes by
(degree, id), points every edge from its lower-ranked end to its higher
one and keeps one bitset row per node of only its forward neighbours.
Each triangle is then counted once, at the edge of its two lowest-ranked
nodes, by intersecting those two rows; a fixed number of edges per step,
each step reading the rows only from the word of its first edge's
higher end on.
"""

import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Edges per gather step of exact_triangle_count. Each step holds two
# gathered (step, ceil(n/64)) uint64 blocks, at most 0.5 MB at n=2000, and
# a smaller step lets more steps start reading at a later word.
_GATHER_EDGES = 1024

# Bytes of edge list per tokenizer pass in load_edge_list (about 70,000
# SNAP lines; the pass's temporaries take a few bytes per byte of block).
_BLOCK_CHARS = 1 << 20

# The bytes a block may hold once its line breaks are read as '\n' and its
# '#' lines are dropped: ASCII digits and ASCII whitespace. Every id of at
# most _MAX_DIGITS digits is below 2**63.
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
    """Edge-list line that is not blank, a '#' line or two node ids, each a
    run of at most 18 ASCII digits; the message gives the line's number."""


def check_int(name: str, value, least: int) -> int:
    """value as an int; raises TypeError naming name unless value is
    integral, ValueError unless it is at least least (0 or 1)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value}")
    return value


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
    edges and degrees are read-only. Raises TypeError unless n is an
    integer, and ValueError unless n >= 0, edges has shape (m, 2) and every
    id is an integer in [0, n); ids of a float dtype pass only if integral.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", check_int("n", self.n, 0))
        e = np.asarray(self.edges)
        if e.dtype.kind not in "iu":
            # ids of any other dtype are kept only where the int64 cast is exact
            with np.errstate(invalid="ignore"):
                cast = e.astype(np.int64)
            if np.any(cast != e):
                raise ValueError("node ids must be integers")
            e = cast
        e = e.astype(np.int64, copy=False)
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

    Every line is blank, a '#' line (whose first byte other than ASCII
    whitespace is '#'), or two node ids separated by ASCII whitespace. A
    node id is a run of at most 18 ASCII digits, and lines end in '\n',
    '\r\n' or '\r'. Duplicate and reversed-duplicate edges collapse to one
    undirected edge; self-loop lines are dropped. With limit_n, only edges
    among the first limit_n distinct node ids encountered (in file order,
    u before v) are kept; nodes whose edges all leave the prefix stay as
    isolated nodes.

    The file is read as bytes in blocks of about _BLOCK_CHARS, each cut
    at a line break and read by one vectorised tokenizer pass, so memory
    stays near one block plus the admitted ids and kept edges. Dense ids
    (the largest below a small multiple of the ids read) are ranked
    through an id-indexed table, others by sorting.

    Raises EdgeListFormatError naming the first line that is none of the
    three, UnicodeDecodeError naming the line if that line or a '#' line
    is not UTF-8, TypeError unless limit_n is None or an integer, or
    ValueError if limit_n is below 1 or no nodes are found.
    """
    if limit_n is not None:
        limit_n = check_int("limit_n", limit_n, 1)
    n, edges = _rank_blocks(_parsed_blocks(path), limit_n)
    if n == 0:
        raise ValueError(f"no nodes found in {path}")
    return Graph(n, edges)


def _rank_blocks(blocks, limit_n: int | None) -> tuple[int, np.ndarray]:
    """(n, edges) from blocks of (m, 2) int64 node ids, in file order.

    Ids are ranked by first appearance (u before v) while fewer than
    limit_n are known; edges are the rank pairs of rows whose two ids are
    both ranked. A block whose largest id is below _TABLE_PER_ID times
    the ids read so far, plus _TABLE_MIN, is ranked through an id-indexed
    table: np.minimum.at finds each new id's first position and one
    gather maps ids to ranks. A block of sparse ids is ranked by sorting
    the ranked ids.
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
        if top < _TABLE_PER_ID * read + _TABLE_MIN:
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
    r"""The file's (m, 2) int64 node ids, one _read_ids pass per block.

    Each block ends at the last line break of about _BLOCK_CHARS bytes
    read, a '\r' only if a byte follows it, so that no cut splits a
    '\r\n'; the part after it starts the next block. A file smaller than
    _BLOCK_CHARS is read in reads of its own size, since a sized read
    allocates its full size first.
    """
    with open(path, "rb") as fh:
        step = min(_BLOCK_CHARS, os.fstat(fh.fileno()).st_size) or _BLOCK_CHARS
        rest = b""
        lines = 0  # line breaks before the block
        while True:
            chunk = fh.read(step)
            block = rest + chunk
            cut = max(block.rfind(b"\n"), block.rfind(b"\r", 0, -1)) + 1 if chunk else len(block)
            block, rest = block[:cut], block[cut:]
            ids, breaks = _read_ids(block, lines)
            lines += breaks
            if ids.size:
                yield ids
            if not chunk:
                return


def _read_ids(block: bytes, lines: int) -> tuple[np.ndarray, int]:
    r"""The (m, 2) int64 ids of a block of whole lines, by one tokenizer
    pass, and the number of line breaks in the block.

    '\r\n' and '\r' are read as '\n', and '#' lines are dropped but for
    their line breaks. What is left must be ASCII digits and whitespace, with
    0 or 2 digit runs on every line and no run longer than _MAX_DIGITS.
    Otherwise raises EdgeListFormatError naming the first line that is
    not, numbered after the lines line breaks before the block. The line
    is located only then: it holds the first byte outside those bytes or
    the first run that breaks those rules, whichever comes first.
    """
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in block:
        if not block.isascii():
            _decode(block, lines + 1)  # '#' lines are dropped unread, but must be UTF-8
        block = _drop_comment_lines(block)
    if not block or block.isspace():
        return np.empty((0, 2), dtype=np.int64), block.count(b"\n")
    events, bad = _digit_runs(block)
    if block.translate(None, _TOKEN_BYTES):
        bad = min(bad, len(block) - len(block.lstrip(_TOKEN_BYTES)))
    if bad < len(block):
        first = block.rfind(b"\n", 0, bad) + 1
        lineno = lines + 1 + block.count(b"\n", 0, first)
        line = _decode(block[first:].partition(b"\n")[0].strip(), lineno)
        raise EdgeListFormatError(f"line {lineno}: expected two node ids, got {line!r}")
    ids = np.fromstring(block, dtype=np.int64, sep=" ").reshape(-1, 2)
    # every event is a line break or the first digit of one id
    return ids, events - ids.size


def _decode(text: bytes, lineno: int) -> str:
    """text, which starts on line lineno, as UTF-8; a UnicodeDecodeError
    keeps its position and gains the number of the line that holds it."""
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno += text.count(b"\n", 0, exc.start)
        reason = f"line {lineno}: {exc.reason}"
        raise UnicodeDecodeError(exc.encoding, exc.object, exc.start, exc.end, reason) from None


def _digit_runs(block: bytes) -> tuple[int, int]:
    r"""(events, bad) for a block of '\n'-ended lines.

    events counts the line breaks and digit-run starts of block. bad is
    the position of a run in the first line that holds other than 0 or 2
    runs or a run longer than _MAX_DIGITS, or len(block) if no line does.
    Every byte from '0' up is read as a digit, so runs are exact on the
    lines that are ASCII digits and whitespace. A function of its own so
    that its block-sized temporaries are freed before np.fromstring
    allocates the ids.
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
    lonely = starts[1:-1] & (starts[:-2] == starts[2:])
    long, width = digit, 1  # long[i]: bytes i..i+width-1 are all digits
    while width <= _MAX_DIGITS:
        step = min(width, _MAX_DIGITS + 1 - width)
        long, width = long[step:] & long[:-step], width + step
    bad = a.size
    if lonely.any():
        bad = int(np.flatnonzero(event)[lonely.argmax()])
    if long.any():
        bad = min(bad, int(long.argmax()))
    return starts.size - 2, bad


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


def exact_triangle_count(g: Graph) -> int:
    """Number of unordered triples {i, j, k} with all three edges present.

    Nodes are ranked by (degree, id), and row r of a bitset holds the
    ranks above r among the neighbours of the node of rank r: its forward
    neighbours. For every edge, from its lower-ranked end lo to its
    higher one hi, the triangles whose two lowest-ranked nodes are lo and
    hi are the common forward neighbours of lo and hi, so each triangle is
    counted exactly once; any total order would do, and the degree order
    keeps the hubs' rows short. The edges go sorted by the word of hi, in
    steps of _GATHER_EDGES, each one gather of both ends' rows, an AND and
    a popcount; a step reads from the word of its first hi on, since every
    common forward neighbour ranks above hi.
    """
    if g.n < 3:
        return 0
    words = -(-g.n // 64)
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(g.n)
    i, j = g.edges.T
    i, j = rank[i], rank[j]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # the word index as the smallest type that holds it, so numpy radix-sorts it
    order = np.argsort((hi >> 6).astype(np.min_scalar_type(words - 1)), kind="stable")
    lo, hi = lo[order], hi[order]
    # every edge sets a bit of its own, so adding the bits ORs them; numpy
    # runs add.at on a flat index several times faster than bitwise_or.at
    forward = np.zeros(g.n * words, dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (hi & 63).astype(np.uint64))
    np.add.at(forward, lo * words + (hi >> 6), bits)
    forward = forward.reshape(g.n, words)
    total = 0
    for s in range(0, lo.size, _GATHER_EDGES):
        w = hi[s] >> 6
        both = forward[lo[s : s + _GATHER_EDGES], w:]
        both &= forward[hi[s : s + _GATHER_EDGES], w:]
        total += int(np.bitwise_count(both).sum())
    return total
