"""Graphs stored as a sorted CSR adjacency, freeness checks, biclique counting.

A BitGraph holds its edges once, as CSR arrays: offsets and nbr, the
neighbours of each vertex in increasing order. Edge lists, degrees, the
file text and every subset scan read these arrays. K_{s,m}-freeness and
the biclique counts come from one engine: each s-subset of a
neighbourhood N(w) is an int64 key, a key occurs once per common
neighbour of its set, and sorted blocks of keys give the co-degrees in
time and memory O(sum of C(deg w, s)), not O(C(n, s)). The brute-force
subset scans are kept in the tests as the oracles.

One digit writer makes the edge lines of every graph file: graph_to_text
feeds it a BitGraph's edges, and biadjacency_to_text the edges of each
row block of a bipartite matrix, so a file can be written block by block
without a BitGraph.

graph_from_text is the one validator of graphs from outside the program;
the BitGraph constructor checks nothing and trusts its in-program callers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import GraphFormatError, ParameterError

# Subset keys per scan above which a scan is refused: a forced cold verify of
# 9.1e7 keys took 0.9 s (K_{450,450}) to 1.9 s (random, n = 20000) on a 2-core VM.
KEY_BUDGET = 10**8
# int64 entries per block of subset keys, over the arrays of all growth steps.
CODEGREE_BLOCK = 1 << 16


class BitGraph:
    """Simple undirected graph on 0..n-1, stored as a sorted CSR adjacency.

    The neighbours of v are nbr[offsets[v]:offsets[v + 1]], in increasing
    order. If `sides` is set the graph is bipartite with left vertices
    0..L-1 and right vertices L..L+R-1, and every edge crosses the
    bipartition.
    """

    def __init__(self, n: int, edges, sides: Optional[tuple[int, int]] = None):
        """The CSR of a simple graph's edges, each once as (u, v) or (v, u); checks nothing."""
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        src = np.concatenate((pairs[:, 0], pairs[:, 1]))
        keys = np.sort(src * n + np.concatenate((pairs[:, 1], pairs[:, 0])))
        self.n = n
        self.sides = sides
        self.nbr = keys % max(n, 1)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.offsets[1:])

    @classmethod
    def from_biadjacency(cls, blocks, shape: tuple[int, int]) -> "BitGraph":
        """Bipartite graph from the row blocks, top to bottom, of an (L, R) boolean matrix."""
        left, right = shape
        edges = [np.empty((0, 2), dtype=np.int64)]
        edges += (np.column_stack(uv) for uv in _block_edges(blocks, shape))
        return cls(left + right, np.concatenate(edges), (left, right))

    def edge_count(self) -> int:
        return self.nbr.size // 2

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v): every edge once with u < v, in increasing order, as two arrays."""
        src = np.repeat(np.arange(self.n), np.diff(self.offsets))
        up = src < self.nbr
        return src[up], self.nbr[up]


def _block_edges(blocks, shape: tuple[int, int]):
    """Yield (u, v) for the edges of each row block, top to bottom, of an (L, R) boolean matrix.

    Row-major order within a block and blocks top to bottom: the edges come
    in increasing (u, v), the order of the graph file.
    """
    left, right = shape
    row = 0
    for block in blocks:
        u, v = np.divmod(np.flatnonzero(block), max(1, right))
        yield u + row, v + left
        row += len(block)


@dataclass(frozen=True)
class FreenessResult:
    free: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None


def is_ksm_free(graph: BitGraph, s: int, m: int, force: bool = False) -> FreenessResult:
    """No s vertices (per side, if bipartite) have m or more common neighbors.

    One scan of all s-subsets covers both orientations of a bipartite
    graph: a set with a common neighbour lies inside one side, and the left
    vertices come first, so the left side's subsets are met before the
    right side's. On failure the witness is (S, the m smallest common
    neighbors of S), S being the first failing subset in
    itertools.combinations order. The co-degrees are counted from the
    s-subsets of every neighbourhood (see _first_rich_subset), and a graph
    whose scan needs more than KEY_BUDGET keys is refused unless forced.
    """
    check_sizes(s, m)
    _check_key_budget(graph, s, force)
    offsets, nbr = graph.offsets, graph.nbr
    subset = _first_rich_subset(offsets, nbr, s, m)
    if subset is None:
        return FreenessResult(True)
    common = reduce(np.intersect1d, (nbr[offsets[v]:offsets[v + 1]] for v in subset))
    return FreenessResult(False, (subset, tuple(common[:m].tolist())))


def check_sizes(s: int, m: int) -> None:
    """Reject the sizes of a K_{s,m} unless 1 <= s <= m."""
    if not 1 <= s <= m:
        raise ParameterError(f"need 1 <= s <= m, got ({s}, {m})")


def _check_key_budget(graph: BitGraph, s: int, force: bool) -> None:
    """Refuse a scan of more than KEY_BUDGET keys unless forced, and always
    one whose keys, s base-n digits, need n^s >= 2^63: its C(n, s) subsets
    were never within reach of a plain enumeration either.
    """
    # n^s >= 2^s, so s >= 63 is refused without building the s*log2(n)-bit n^s
    if graph.n >= 2 and (s >= 63 or graph.n ** s >= 2**63):
        raise ParameterError(f"n = {graph.n} is too large for a scan of {s}-subsets")
    # one key per s-subset of each neighbourhood
    hist = np.bincount(np.diff(graph.offsets))
    keys = sum(int(hist[d]) * math.comb(int(d), s) for d in np.flatnonzero(hist))
    if keys > KEY_BUDGET and not force:
        raise ParameterError(f"{s}-subset scan needs {keys} keys, above the budget of {KEY_BUDGET}")


def _reverse_positions(nbr: np.ndarray) -> np.ndarray:
    """rev[e]: where the reverse of edge e = (v, w) sits in nbr, i.e. v inside N(w).

    The positions sorted by (nbr, position); n * E < 2^63 for any graph in memory.
    """
    return np.sort(nbr * nbr.size + np.arange(nbr.size)) % max(nbr.size, 1)


def _subset_keys(offsets: np.ndarray, nbr: np.ndarray, s: int):
    """Yield, block by block, the sorted keys of the s-subsets of every neighbourhood.

    A set v1 < ... < vs inside N(w) gives the key v1*n^(s-1) + ... + vs
    once per such w, so a key occurs as often as its set has common
    neighbours. A key grows from an edge (v1, w) by s - 1 two-hop steps,
    each appending a neighbour of w later than the last vertex. First
    vertices are taken in increasing order, in blocks whose arrays hold at
    most about CODEGREE_BLOCK entries (a step keeps about four arrays as
    long as its tuples; a single first vertex with more is a block of its
    own), so the keys of one set never straddle two blocks.
    """
    n = len(offsets) - 1
    deg = np.diff(offsets)
    rev = _reverse_positions(nbr)
    # entries an edge (v1, w) adds at step j: C(neighbours of w after v1, j)
    later = offsets[nbr + 1] - rev - 1
    weight = term = np.ones_like(later)
    for j in range(s - 1):
        term = term * (later - j) // (j + 1)
        weight = weight + term
    cum = np.concatenate(([0], np.cumsum(weight)))
    ends = cum[offsets[1:]]
    at = 0
    while at < n:
        limit = cum[offsets[at]] + CODEGREE_BLOCK // 4
        stop = max(int(np.searchsorted(ends, limit, side="right")), at + 1)
        e0, e1 = offsets[at], offsets[stop]
        keys = np.repeat(np.arange(at, stop), deg[at:stop])
        # w: the far end of the last step; pos: the last vertex's place in nbr
        w, pos = nbr[e0:e1], rev[e0:e1]
        for _ in range(s - 1):
            count = offsets[w + 1] - pos - 1
            first = pos + 1 - (np.cumsum(count) - count)
            pos = np.arange(int(count.sum())) + np.repeat(first, count)
            keys = np.repeat(keys, count)
            keys *= n
            keys += nbr[pos]
            w = np.repeat(w, count)
        keys.sort()
        yield keys
        at = stop


def _first_rich_subset(
    offsets: np.ndarray, nbr: np.ndarray, s: int, m: int
) -> Optional[tuple[int, ...]]:
    """First s-subset, in combinations order, with co-degree >= m.

    Blocks come in increasing first vertex and their keys are sorted, so
    the first key repeated m times is the set that combinations() meets
    first.
    """
    n = len(offsets) - 1
    for keys in _subset_keys(offsets, nbr, s):
        rich = np.flatnonzero(keys[m - 1:] == keys[:max(keys.size - m + 1, 0)])
        if rich.size:
            return tuple(int(v) for v in np.unravel_index(keys[rich[0]], (n,) * s))
    return None


def count_biclique_general(graph: BitGraph, a: int, b: int) -> int:
    """Unordered pairs {A, B} of disjoint vertex sets, |A|=a, |B|=b, fully joined.

    Each a-set A with c common neighbours gives C(c, b) sets B; common
    neighbourhoods never contain their own set (no loops), so disjointness
    is automatic. The a-sets and their co-degrees come from the keys of
    _subset_keys, under the same budget as is_ksm_free. For a = b every
    pair is seen from both sides, hence the halving. Needs 1 <= a <= b.
    """
    _check_key_budget(graph, a, force=False)
    total = 0
    for keys in _subset_keys(graph.offsets, graph.nbr, a):
        hist = np.bincount(np.unique(keys, return_counts=True)[1])
        total += sum(int(hist[c]) * math.comb(int(c), b) for c in np.flatnonzero(hist))
    if a == b:
        assert total % 2 == 0
        total //= 2
    return total


# --- graph file format -----------------------------------------------------
#
# Header "bipartite <L> <R>" or "general <n>", then one "u v" line per edge
# with 0-based global indices, u < v, sorted lexicographically. Bipartite
# edges must cross (u on the left, v on the right).


def graph_to_text(graph: BitGraph) -> str:
    """The graph file of a BitGraph, as one str."""
    if graph.sides is not None:
        head = f"bipartite {graph.sides[0]} {graph.sides[1]}\n"
    else:
        head = f"general {graph.n}\n"
    return head + _edge_lines(*graph.edge_arrays())


def biadjacency_to_text(blocks, shape: tuple[int, int]):
    """Yield the file of BitGraph.from_biadjacency(blocks, shape) in chunks, one per block.

    No graph is built: a block's edges are the next lines of the file.
    """
    yield f"bipartite {shape[0]} {shape[1]}\n"
    for u, v in _block_edges(blocks, shape):
        yield _edge_lines(u, v)


def _edge_lines(u: np.ndarray, v: np.ndarray) -> str:
    """The lines "u v\n" of the edges (u, v), written as ASCII digits into one byte buffer."""
    # decimal digits of each number, counted by where it falls among 10, 100, ...
    tens = 10 ** np.arange(1, 19, dtype=np.int64)
    du = np.searchsorted(tens, u, side="right") + 1
    dv = np.searchsorted(tens, v, side="right") + 1
    ends = np.cumsum(du + dv + 2)  # one past each line's "\n"
    buf = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    buf[ends - 1] = ord("\n")
    buf[ends - dv - 2] = ord(" ")
    _put_digits(buf, ends - dv - 3, u, du)
    _put_digits(buf, ends - 2, v, dv)
    return buf.tobytes().decode("ascii")


def _put_digits(buf: np.ndarray, last: np.ndarray, x: np.ndarray, digits: np.ndarray) -> None:
    """Write each x[i], of digits[i] decimal digits, into buf ending at position last[i].

    One digit column at a time, least significant first, so every
    temporary is one entry per number.
    """
    rest = x.copy()
    for k in range(int(digits.max()) if digits.size else 0):
        live = digits > k
        buf[last[live] - k] = rest[live] % 10 + ord("0")
        rest //= 10


def graph_from_text(text: str) -> BitGraph:
    """Parse a graph file; GraphFormatError names the first bad line.

    Edge lines in the form graph_to_text writes are converted in one numpy
    call, others one by one as str.split and int() read them; the checks
    of every line then run on arrays.
    """
    first, _, body = text.partition("\n")
    # the fast path needs the first line to end at this "\n" for splitlines() too
    plain = len((first + "\n").splitlines()) == 1
    edges = _plain_edges(body.removesuffix("\n")) if plain else None
    rows = text.splitlines() if edges is None else [first]
    if not rows:
        raise GraphFormatError("line 1: empty graph file")
    head = rows[0].split()
    sides: Optional[tuple[int, int]] = None
    if len(head) == 3 and head[0] == "bipartite":
        try:
            sides = (int(head[1]), int(head[2]))
        except ValueError as exc:
            raise GraphFormatError("line 1: bad bipartite header") from exc
        if sides[0] < 0 or sides[1] < 0:
            raise GraphFormatError("line 1: negative side size")
        n = sides[0] + sides[1]
    elif len(head) == 2 and head[0] == "general":
        try:
            n = int(head[1])
        except ValueError as exc:
            raise GraphFormatError("line 1: bad general header") from exc
        if n < 0:
            raise GraphFormatError("line 1: negative vertex count")
    else:
        raise GraphFormatError("line 1: expected 'bipartite <L> <R>' or 'general <n>'")
    if n > 1_000_000:
        raise GraphFormatError(f"line 1: vertex count {n} too large")
    if edges is None:
        flat = array("q")  # u0, v0, u1, v1, ...: 16 bytes per edge
        for lineno, row in enumerate(rows[1:], start=2):
            parts = row.split()
            try:
                u, v = map(int, parts)  # a wrong token count fails here too
            except ValueError:
                # a line before this one may fail a check of its own
                _reject_lines(np.frombuffer(flat, dtype=np.int64).reshape(-1, 2), n, sides)
                why = "bad vertex index" if len(parts) == 2 else "expected 'u v'"
                raise GraphFormatError(f"line {lineno}: {why}") from None
            flat.extend(x if 0 <= x < n else -1 for x in (u, v))
        edges = np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)
    _reject_lines(edges, n, sides)
    return BitGraph(n, edges, sides)


def _plain_edges(body: str) -> Optional[np.ndarray]:
    """The (u, v) rows of "u v" lines joined by "\n", else None.

    Every number must be 1 to 18 decimal digits, so that it fits in int64.
    """
    c = np.frombuffer(body.encode(), dtype=np.uint8)
    seps = np.flatnonzero((c < ord("0")) | (c > ord("9")))
    runs = np.diff(seps, prepend=-1, append=c.size) - 1  # digits around each separator
    kinds = c[seps]
    if (seps.size % 2 and (kinds[0::2] == ord(" ")).all() and (kinds[1::2] == ord("\n")).all()
            and ((runs >= 1) & (runs <= 18)).all()):
        return np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    return None


def _reject_lines(edges: np.ndarray, n: int, sides: Optional[tuple[int, int]]) -> None:
    """Raise for the first edge line (file line i + 2 for row i) that fails a check.

    The checks of one line are taken in a fixed order; a value outside
    0..n-1 (the line-by-line path stores -1 for it) is out of range.
    """
    u, v = edges[:, 0], edges[:, 1]
    pu, pv = np.concatenate(([-1], u[:-1])), np.concatenate(([-1], v[:-1]))
    uncrossed = (u >= sides[0]) | (v < sides[0]) if sides else np.zeros(len(u), np.bool_)
    bad = [(u < 0) | (u >= n) | (v < 0) | (v >= n), u == v, u > v, uncrossed,
           (u == pu) & (v == pv), (u < pu) | ((u == pu) & (v < pv))]
    first = [int(np.argmax(b)) if np.any(b) else len(u) for b in bad]
    i = min(first)
    if i == len(u):
        return
    x, y = int(u[i]), int(v[i])
    why = [f"vertex out of range 0..{n - 1}", f"loop at {x}", "edges must satisfy u < v",
           "edge does not cross the bipartition", f"duplicate edge ({x}, {y})",
           "edges not sorted"]
    raise GraphFormatError(f"line {i + 2}: {why[first.index(i)]}")


def read_graph(path) -> BitGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: {exc.reason}") from None
    return graph_from_text(text)
