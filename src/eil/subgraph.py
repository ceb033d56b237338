"""Bitset adjacency graphs, freeness checks, and biclique counting.

Adjacency rows are Python ints used as n-bit masks, so common-neighborhood
queries are single AND/popcount chains. The biclique counts and the s >= 3
freeness scan enumerate vertex subsets by brute force; the s = 2 freeness
check counts co-degrees over the two-hop paths of a sparse edge list
instead, in time O(sum of deg^2) and memory O(E + block), and its
brute-force pair scan is kept in the tests as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GraphFormatError, ParameterError

# C(n,3) row intersections beyond this size is no longer desk scale.
TRIPLE_SCAN_LIMIT = 5000
# Entries per temporary array of the s = 2 check: packed row bytes per
# unpacking block, two-hop paths per counting block.
CODEGREE_BLOCK = 1 << 16


class BitGraph:
    """Simple undirected graph with int-bitmask adjacency rows.

    If `sides` is set the graph is bipartite with left vertices 0..L-1 and
    right vertices L..L+R-1, and every edge crosses the bipartition.
    """

    def __init__(self, n: int, rows: Sequence[int], sides: Optional[tuple[int, int]] = None):
        if len(rows) != n:
            raise ParameterError(f"need {n} adjacency rows, got {len(rows)}")
        if sides is not None and sides[0] + sides[1] != n:
            raise ParameterError(f"bipartition {sides} does not sum to n = {n}")
        full = (1 << n) - 1
        left_mask = ((1 << sides[0]) - 1) if sides else 0
        for v, row in enumerate(rows):
            if row & ~full:
                raise ParameterError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ParameterError(f"loop at vertex {v}")
            if sides is not None:
                same = left_mask if v < sides[0] else full ^ left_mask
                if row & same:
                    raise ParameterError(f"vertex {v} has an edge inside its side")
        for v, row in enumerate(rows):
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                if not rows[u] >> v & 1:
                    raise ParameterError(f"adjacency not symmetric at ({v}, {u})")
                m &= m - 1
        self.n = n
        self.rows = tuple(rows)
        self.sides = sides

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int]], sides: Optional[tuple[int, int]] = None
    ) -> "BitGraph":
        rows = [0] * n
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ParameterError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, sides)

    @classmethod
    def from_biadjacency(cls, adj: np.ndarray) -> "BitGraph":
        """Bipartite graph from an (L, R) boolean matrix."""
        left, right = adj.shape
        rows = [r << left for r in bit_rows(adj)] + bit_rows(adj.T)
        return cls(left + right, rows, (left, right))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1) << (u + 1)
            while m:
                v = (m & -m).bit_length() - 1
                out.append((u, v))
                m &= m - 1
        return out

    def left_vertices(self) -> range:
        if self.sides is None:
            raise ParameterError("graph is not bipartite")
        return range(self.sides[0])

    def right_vertices(self) -> range:
        if self.sides is None:
            raise ParameterError("graph is not bipartite")
        return range(self.sides[0], self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitGraph):
            return NotImplemented
        return self.n == other.n and self.sides == other.sides and self.rows == other.rows


def bit_rows(adj: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int mask, bit j = column j."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(r.tobytes(), "little") for r in packed]


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def common_neighbors(graph: BitGraph, vertices: Iterable[int]) -> set[int]:
    """Intersection of the neighborhoods of a nonempty vertex set."""
    vs = list(vertices)
    if not vs:
        raise ParameterError("common_neighbors needs a nonempty vertex set")
    mask = (1 << graph.n) - 1
    for v in vs:
        mask &= graph.rows[v]
    return set(_mask_to_vertices(mask))


@dataclass(frozen=True)
class FreenessResult:
    free: bool
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

    def __bool__(self) -> bool:
        return self.free


def is_ksm_free(graph: BitGraph, s: int, m: int, force: bool = False) -> FreenessResult:
    """No s vertices (per side, if bipartite) have m or more common neighbors.

    Checks s-subsets of each side for bipartite graphs (both orientations)
    and all s-subsets otherwise. On failure the witness is (S, the m
    smallest common neighbors of S), S being the first failing subset in
    itertools.combinations order. For s = 2 the co-degrees are counted
    over two-hop paths (see _first_rich_pair); larger s scans every subset
    and refuses graphs above TRIPLE_SCAN_LIMIT vertices unless forced.
    """
    if not 1 <= s <= m:
        raise ParameterError(f"need 1 <= s <= m, got ({s}, {m})")
    if s >= 3 and graph.n > TRIPLE_SCAN_LIMIT and not force:
        raise ParameterError(
            f"n = {graph.n} exceeds the s>=3 scan limit {TRIPLE_SCAN_LIMIT}; pass force=True"
        )
    if graph.sides is not None:
        groups = [graph.left_vertices(), graph.right_vertices()]
    else:
        groups = [range(graph.n)]
    rows = graph.rows
    if s == 2:
        edges = _edge_arrays(graph)
        for group in groups:
            pair = _first_rich_pair(*edges, group, m)
            if pair is not None:
                common = rows[pair[0]] & rows[pair[1]]
                return FreenessResult(False, (pair, _mask_to_vertices(common)[:m]))
        return FreenessResult(True)
    for group in groups:
        for subset in combinations(group, s):
            mask = rows[subset[0]]
            for v in subset[1:]:
                mask &= rows[v]
            if mask.bit_count() >= m:
                return FreenessResult(False, (subset, _mask_to_vertices(mask)[:m]))
    return FreenessResult(True)


def _edge_arrays(graph: BitGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed edges (src, dst) sorted by src then dst, and CSR offsets into them.

    Nonempty rows are unpacked a block at a time: the packed bytes of a block
    take about CODEGREE_BLOCK bytes, and only their nonzero bytes are
    unpacked into bits.
    """
    n = graph.n
    nbytes = (n + 7) // 8
    busy = [v for v, row in enumerate(graph.rows) if row]
    per_block = max(1, CODEGREE_BLOCK // max(nbytes, 1))
    srcs, dsts = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for at in range(0, len(busy), per_block):
        chunk = busy[at:at + per_block]
        buf = b"".join(graph.rows[v].to_bytes(nbytes, "little") for v in chunk)
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(chunk), nbytes)
        row, byte = np.nonzero(packed)
        bits = np.unpackbits(packed[row, byte][:, None], axis=1, bitorder="little")
        hit, bit = np.nonzero(bits)
        srcs.append(np.asarray(chunk, dtype=np.int64)[row[hit]])
        dsts.append(byte[hit].astype(np.int64) * 8 + bit)
    src, dst = np.concatenate(srcs), np.concatenate(dsts)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return src, dst, offsets


def _first_rich_pair(
    src: np.ndarray, dst: np.ndarray, offsets: np.ndarray, group: range, m: int
) -> Optional[tuple[int, int]]:
    """First pair u < v of the group, in combinations order, with co-degree >= m.

    Every path u - w - v adds one to the co-degree of (u, v); two hops from
    one side of a bipartite graph land on the same side, so v stays in the
    group. First vertices u are taken in increasing order, in blocks of
    about CODEGREE_BLOCK paths (a single u with more paths is a block of its
    own, still O(E)). The keys u*n + v of a block are sorted, so the first
    key repeated m times is the pair that combinations() meets first.
    """
    n = len(offsets) - 1
    deg = np.diff(offsets)
    # paths[e]: two-hop paths that leave through the edges before edge e
    paths = np.concatenate(([0], np.cumsum(deg[dst])))
    ends = paths[offsets[group.start + 1:group.stop + 1]]
    at = group.start
    while at < group.stop:
        limit = paths[offsets[at]] + CODEGREE_BLOCK
        stop = max(group.start + int(np.searchsorted(ends, limit, side="right")), at + 1)
        e0, e1 = offsets[at], offsets[stop]
        w = dst[e0:e1]
        lens = deg[w]
        first = offsets[w] - (np.cumsum(lens) - lens)
        v = dst[np.arange(paths[e1] - paths[e0]) + np.repeat(first, lens)]
        u = np.repeat(src[e0:e1], lens)
        later = v > u
        u *= n
        u += v
        keys = np.sort(u[later])
        rich = np.flatnonzero(keys[m - 1:] == keys[:max(keys.size - m + 1, 0)])
        if rich.size:
            return divmod(int(keys[rich[0]]), n)
        at = stop
    return None


def count_biclique(graph: BitGraph, a: int, b: int) -> int:
    """Number of (A in left, B in right) with |A| = a, |B| = b, fully joined.

    The sides are labeled, so (a, b) and (b, a) are different counts and any
    order is accepted. Enumerates subsets on whichever side yields fewer of
    them and adds C(|common neighborhood|, other) for each; both routes
    count the same set of bicliques.
    """
    if a < 1 or b < 1:
        raise ParameterError(f"part sizes must be >= 1, got ({a}, {b})")
    if graph.sides is None:
        raise ParameterError("count_biclique needs a bipartite graph")
    left, right = graph.sides
    rows = graph.rows
    total = 0
    if math.comb(left, a) <= math.comb(right, b):
        for subset in combinations(range(left), a):
            mask = rows[subset[0]]
            for v in subset[1:]:
                mask &= rows[v]
            total += math.comb(mask.bit_count(), b)
    else:
        for subset in combinations(range(left, graph.n), b):
            mask = rows[subset[0]]
            for v in subset[1:]:
                mask &= rows[v]
            total += math.comb(mask.bit_count(), a)
    return total


def count_biclique_general(graph: BitGraph, a: int, b: int) -> int:
    """Unordered pairs {A, B} of disjoint vertex sets, |A|=a, |B|=b, fully joined.

    Common neighborhoods never contain their own subset (no loops), so
    disjointness is automatic. For a = b every pair is seen from both sides,
    hence the halving.
    """
    if a > b:
        raise ParameterError(f"need a <= b, got ({a}, {b})")
    if a < 1:
        raise ParameterError(f"need a >= 1, got {a}")
    rows = graph.rows
    total = 0
    for subset in combinations(range(graph.n), a):
        mask = rows[subset[0]]
        for v in subset[1:]:
            mask &= rows[v]
        total += math.comb(mask.bit_count(), b)
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
    if graph.sides is not None:
        head = f"bipartite {graph.sides[0]} {graph.sides[1]}"
    else:
        head = f"general {graph.n}"
    lines = [head]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges()))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> BitGraph:
    rows = text.splitlines()
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
    edges = []
    prev = None
    for lineno, row in enumerate(rows[1:], start=2):
        parts = row.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad vertex index") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop at {u}")
        if u > v:
            raise GraphFormatError(f"line {lineno}: edges must satisfy u < v")
        if sides is not None and not (u < sides[0] <= v):
            raise GraphFormatError(f"line {lineno}: edge does not cross the bipartition")
        if prev is not None:
            if (u, v) == prev:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
            if (u, v) < prev:
                raise GraphFormatError(f"line {lineno}: edges not sorted")
        prev = (u, v)
        edges.append((u, v))
    return BitGraph.from_edges(n, edges, sides)


def write_graph(graph: BitGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(graph_to_text(graph))


def read_graph(path) -> BitGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read())
