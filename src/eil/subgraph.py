"""Bitset adjacency graphs, freeness checks, and biclique counting.

Adjacency rows are Python ints used as n-bit masks, so common-neighborhood
queries are single AND/popcount chains. Everything here is brute force on
purpose: these are the oracles the constructions are verified against.
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
        n = left + right
        rows = [0] * n
        for i in range(left):
            bits = int.from_bytes(np.packbits(adj[i], bitorder="little").tobytes(), "little")
            rows[i] = bits << left
        for j in range(right):
            bits = int.from_bytes(np.packbits(adj[:, j], bitorder="little").tobytes(), "little")
            rows[left + j] = bits
        return cls(n, rows, (left, right))

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

    Scans s-subsets of each side for bipartite graphs (both orientations)
    and all s-subsets otherwise; on failure the witness is (S, m common
    neighbors of S).
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
    for group in groups:
        for subset in combinations(group, s):
            mask = rows[subset[0]]
            for v in subset[1:]:
                mask &= rows[v]
            if mask.bit_count() >= m:
                return FreenessResult(False, (subset, _mask_to_vertices(mask)[:m]))
    return FreenessResult(True)


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
