"""Graphs stored as a sorted CSR adjacency, freeness checks, biclique counting.

A BitGraph holds its edges once, as CSR arrays: offsets and nbr, the
neighbours of each vertex in increasing order. Edge lists, degrees, the
file text and the s = 2 freeness check read these arrays; the s = 2 check
counts co-degrees over two-hop paths in time O(sum of deg^2) and memory
O(E + block), and its brute-force pair scan is kept in the tests as the
oracle. The s >= 3 freeness scan and the biclique counts enumerate vertex
subsets by brute force over int-bitmask rows (n-bit Python ints, so a
common neighbourhood is one AND chain), derived from the CSR on first use.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import GraphFormatError, ParameterError

# C(n,3) row intersections beyond this size is no longer desk scale.
TRIPLE_SCAN_LIMIT = 5000
# Entries per temporary array: dense bits per block of derived rows,
# two-hop paths per counting block of the s = 2 check.
CODEGREE_BLOCK = 1 << 16


class BitGraph:
    """Simple undirected graph on 0..n-1, stored as a sorted CSR adjacency.

    The neighbours of v are nbr[offsets[v]:offsets[v + 1]], in increasing
    order. If `sides` is set the graph is bipartite with left vertices
    0..L-1 and right vertices L..L+R-1, and every edge crosses the
    bipartition. `rows`, the int-bitmask rows of the subset scans, is
    derived from the CSR on first use.
    """

    def __init__(self, n: int, edges, sides: Optional[tuple[int, int]] = None):
        """Any (u, v) pairs, as a sequence or an (E, 2) int array, each edge once."""
        if sides is not None and sides[0] + sides[1] != n:
            raise ParameterError(f"bipartition {sides} does not sum to n = {n}")
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ParameterError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        u, v = pairs[:, 0], pairs[:, 1]
        _reject(pairs, (u < 0) | (u >= n) | (v < 0) | (v >= n), "is out of range")
        _reject(pairs, u == v, "is a loop")
        if sides is not None:
            _reject(pairs, (u < sides[0]) == (v < sides[0]), "lies inside one side")
        src = np.concatenate((u, v))
        keys = np.sort(src * n + np.concatenate((v, u)))
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            a, b = divmod(int(keys[dup[0]]), n)
            raise ParameterError(f"duplicate edge ({a}, {b})")
        self.n = n
        self.sides = sides
        self.nbr = keys % max(n, 1)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.offsets[1:])

    @classmethod
    def from_biadjacency(cls, adj: np.ndarray) -> "BitGraph":
        """Bipartite graph from an (L, R) boolean matrix."""
        left, right = adj.shape
        u, v = np.nonzero(adj)
        return cls(left + right, np.column_stack((u, v + left)), (left, right))

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Adjacency rows as n-bit int masks, bit w of row v set for each edge vw."""
        n, offsets = self.n, self.offsets
        per_block = max(1, CODEGREE_BLOCK // max(n, 1))
        rows: list[int] = []
        for at in range(0, n, per_block):
            stop = min(at + per_block, n)
            dense = np.zeros((stop - at, n), dtype=np.bool_)
            local = np.repeat(np.arange(stop - at), np.diff(offsets[at:stop + 1]))
            dense[local, self.nbr[offsets[at]:offsets[stop]]] = True
            packed = np.packbits(dense, axis=1, bitorder="little")
            rows.extend(int.from_bytes(r.tobytes(), "little") for r in packed)
        return tuple(rows)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def edge_count(self) -> int:
        return self.nbr.size // 2

    def edges(self) -> list[tuple[int, int]]:
        """Every edge once as (u, v) with u < v, in increasing order."""
        src = np.repeat(np.arange(self.n), np.diff(self.offsets))
        up = src < self.nbr
        return list(zip(src[up].tolist(), self.nbr[up].tolist()))

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
        return (self.n == other.n and self.sides == other.sides
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.nbr, other.nbr))


def _reject(pairs: np.ndarray, bad: np.ndarray, what: str) -> None:
    hit = np.flatnonzero(bad)
    if hit.size:
        u, v = pairs[hit[0]].tolist()
        raise ParameterError(f"edge ({u}, {v}) {what}")


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


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
    over two-hop paths of the CSR (see _first_rich_pair); larger s scans
    every subset and refuses graphs above TRIPLE_SCAN_LIMIT vertices
    unless forced.
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
    if s == 2:
        offsets, nbr = graph.offsets, graph.nbr
        for group in groups:
            pair = _first_rich_pair(offsets, nbr, group, m)
            if pair is not None:
                u, v = pair
                common = np.intersect1d(nbr[offsets[u]:offsets[u + 1]],
                                        nbr[offsets[v]:offsets[v + 1]], assume_unique=True)
                return FreenessResult(False, (pair, tuple(common[:m].tolist())))
        return FreenessResult(True)
    rows = graph.rows
    for group in groups:
        for subset in combinations(group, s):
            mask = rows[subset[0]]
            for v in subset[1:]:
                mask &= rows[v]
            if mask.bit_count() >= m:
                return FreenessResult(False, (subset, _mask_to_vertices(mask)[:m]))
    return FreenessResult(True)


def _first_rich_pair(
    offsets: np.ndarray, nbr: np.ndarray, group: range, m: int
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
    paths = np.concatenate(([0], np.cumsum(deg[nbr])))
    ends = paths[offsets[group.start + 1:group.stop + 1]]
    at = group.start
    while at < group.stop:
        limit = paths[offsets[at]] + CODEGREE_BLOCK
        stop = max(group.start + int(np.searchsorted(ends, limit, side="right")), at + 1)
        e0, e1 = offsets[at], offsets[stop]
        w = nbr[e0:e1]
        lens = deg[w]
        first = offsets[w] - (np.cumsum(lens) - lens)
        v = nbr[np.arange(paths[e1] - paths[e0]) + np.repeat(first, lens)]
        u = np.repeat(np.repeat(np.arange(at, stop), deg[at:stop]), lens)
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
    lines.extend(f"{u} {v}" for u, v in graph.edges())
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
    flat = array("q")  # u0, v0, u1, v1, ...: 16 bytes per edge
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
        flat.extend((u, v))
    return BitGraph(n, np.frombuffer(flat, dtype=np.int64).reshape(-1, 2), sides)


def write_graph(graph: BitGraph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(graph_to_text(graph))


def read_graph(path) -> BitGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read())
