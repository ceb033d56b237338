"""Scalar reference implementations that the tests check the array code against.

None of these is on a production path: field residues and inverses, points
and lines one tuple at a time, the row of a line and of its dual (by
Cramer's rule), equality of built sets and graphs, the whole table of
lines, its row count, the q points of every row and line counts gathered
through it,
the streamed line counts joined into one array of every row,
the polynomial sampler on numpy's own Philox bit generator,
pointwise polynomial evaluation, symbolic restriction of a polynomial to
a line (one line at a time, or to every line through the restriction
tensor), the prune by its count rule (the rows with more than t points),
Furedi orbits one member at a time and Furedi's graph from the
dense n x n product of its classes, edge lists, graph neighbourhoods as
sets or n-bit masks, brute-force subset scans, the line-by-line graph
parser and the per-edge graph writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from eil.errors import GraphFormatError, ParameterError
from eil.evasive import PointSet, TriPoly, monomials, restriction_tensor
from eil.furedi import FurediGraph
from eil.geom3 import line_at, line_counts, line_points
from eil.gf import inverses, subgroup_of_order
from eil.subgraph import BitGraph, graph_to_text

Point3 = tuple[int, int, int]
ORIGIN: Point3 = (0, 0, 0)


@dataclass(frozen=True)
class AffineLine:
    base: Point3
    dir: Point3


def same(a, b) -> bool:
    """Equal content: point sets by q and points, graphs by their CSR,
    dataclasses and tuples field by field, anything else by ==."""
    if isinstance(a, PointSet):
        return isinstance(b, PointSet) and a.q == b.q and np.array_equal(a.points, b.points)
    if isinstance(a, BitGraph):
        return (isinstance(b, BitGraph) and a.n == b.n and a.sides == b.sides
                and np.array_equal(a.offsets, b.offsets) and np.array_equal(a.nbr, b.nbr))
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def point_index(q: int, p: Point3) -> int:
    """Index of a point in the fixed 0..q^3-1 layout (x1*q^2 + x2*q + x3)."""
    return (p[0] * q + p[1]) * q + p[2]


def check_residue(q: int, a: int) -> int:
    """Reject values that are not canonical residues of the field."""
    if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < q:
        raise ParameterError(f"{a!r} is not a canonical residue mod {q}")
    return a


def inverse(q: int, a: int) -> int:
    """Multiplicative inverse via Fermat; a = 0 is rejected."""
    if check_residue(q, a) == 0:
        raise ParameterError("0 has no multiplicative inverse")
    return pow(a, q - 2, q)


def check_point(q: int, p: Point3) -> Point3:
    if len(p) != 3:
        raise ParameterError(f"a point needs 3 coordinates, got {p!r}")
    for c in p:
        check_residue(q, c)
    return tuple(p)


def canonical_line(q: int, base: Point3, direction: Point3) -> AffineLine:
    """Canonicalize (base, direction); direction must be nonzero."""
    base = check_point(q, base)
    direction = check_point(q, direction)
    if direction == ORIGIN:
        raise ParameterError("line direction must be nonzero")
    pivot = next(i for i in range(3) if direction[i] != 0)
    inv = inverse(q, direction[pivot])
    d = tuple(c * inv % q for c in direction)
    s = base[pivot]
    b = tuple((base[i] - s * d[i]) % q for i in range(3))
    return AffineLine(b, d)


def line_through(q: int, p: Point3, r: Point3) -> AffineLine:
    """The unique line containing two distinct points."""
    p = check_point(q, p)
    r = check_point(q, r)
    if p == r:
        raise ParameterError("two distinct points are needed to span a line")
    direction = tuple((r[i] - p[i]) % q for i in range(3))
    return canonical_line(q, p, direction)


def points_on(q: int, line: AffineLine) -> list[Point3]:
    """The q points base + s*dir, in increasing s order."""
    b, d = line.base, line.dir
    return [tuple((b[i] + s * d[i]) % q for i in range(3)) for s in range(q)]


def passes_origin(line: AffineLine) -> bool:
    """True iff (0,0,0) lies on the (canonical) line."""
    return line.base == ORIGIN


def n_lines(q: int) -> int:
    """How many canonical lines F_q^3 has: q^2 (q^2 + q + 1)."""
    return q * q * (q * q + q + 1)


def line_index(q: int, base, direction) -> np.ndarray:
    """Row of each canonical line (base, direction), vectorised over rows.

    With pivot p the first nonzero coordinate of direction, the row is
    offset[p] + tail*q^2 + v0*q + v1: tail is the number whose base-q digits
    are direction[p+1:], and v0, v1 are the two non-pivot base coordinates
    in increasing position order. geom3.line_at is its inverse.
    """
    b = np.asarray(base, dtype=np.int64)
    d = np.asarray(direction, dtype=np.int64)
    p = np.argmax(d != 0, axis=-1)
    tail = np.where(p == 0, d[..., 1] * q + d[..., 2], np.where(p == 1, d[..., 2], 0))
    v0 = np.where(p == 0, b[..., 1], b[..., 0])
    v1 = np.where(p == 2, b[..., 1], b[..., 2])
    offset = np.array([0, q**4, q**4 + q**3], dtype=np.int64)
    return offset[p] + (tail * q + v0) * q + v1


def _pivot_block(q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(base, dir) of the canonical lines with pivot p, in row order."""
    tail, free = np.divmod(np.arange(q ** (4 - p), dtype=np.int64), q * q)
    d = np.zeros((tail.size, 3), dtype=np.int64)
    d[:, p] = 1
    for c in range(p + 1, 3):
        d[:, c] = tail // q ** (2 - c) % q
    b = np.zeros_like(d)
    i, j = (c for c in range(3) if c != p)
    b[:, i], b[:, j] = np.divmod(free, q)
    return b, d


def dual_index(q: int, rows) -> np.ndarray:
    """Row of the dual of each off-origin row (rows that are not 0 mod q^2).

    The dual of base + F_q*dir is {z : b.z = 1, d.z = 0}. Its direction is
    w = b x d, scaled so its pivot coordinate k is 1. Its canonical base has
    z_k = 0; for the other two coordinates i < j, Cramer's rule gives
    z_i = d_j / det and z_j = -d_i / det with det = b_i d_j - b_j d_i, which
    is w_k for k = 0, 2 and -w_k for k = 1. z_i and z_j are the v0, v1 of
    the dual's row.
    """
    base, direction = line_at(q, rows)
    b0, b1, b2 = base.T
    d0, d1, d2 = direction.T
    w0 = (b1 * d2 - b2 * d1) % q
    w1 = (b2 * d0 - b0 * d2) % q
    w2 = (b0 * d1 - b1 * d0) % q
    k0 = w0 != 0
    k2 = ~k0 & (w1 == 0)
    k1 = ~k0 & ~k2
    s = inverses(q)[np.where(k0, w0, np.where(k1, w1, w2))]  # 1 / w_k
    tail = np.where(k0, w1 * s % q * q + w2 * s % q, np.where(k1, w2 * s % q, 0))
    inv_det = np.where(k1, q - s, s)
    v0 = np.where(k2, d1, d2) * inv_det % q
    v1 = -np.where(k0, d1, d0) * inv_det % q
    offset = np.where(k0, 0, np.where(k1, q**4, q**4 + q**3))
    return offset + (tail * q + v0) * q + v1


@dataclass(frozen=True)
class LineTable:
    """Every canonical line as a row: base, dir, the q point indices
    base + s*dir, an origin flag (base = 0), and the row of the dual line
    (-1 for a line through the origin)."""

    base: np.ndarray
    dir: np.ndarray
    point_idx: np.ndarray
    origin_mask: np.ndarray
    dual_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.base)


@lru_cache(maxsize=None)
def line_table_oracle(q: int) -> LineTable:
    """The whole table of lines, enumerated block by block, for q <= 13.

    Rows are grouped by the pivot p of dir (blocks of q^4, q^3 and q^2
    rows) and run over the direction tail dir[p+1:], then the two free base
    coordinates, all in increasing order.
    """
    assert q <= 13, "the table holds q^2 (q^2 + q + 1) x q point indices"
    blocks = [_pivot_block(q, p) for p in range(3)]
    base = np.concatenate([b for b, _ in blocks])
    direction = np.concatenate([d for _, d in blocks])
    s = np.arange(q)
    pts = (base[:, None, :] + s[None, :, None] * direction[:, None, :]) % q
    origin = (base == 0).all(axis=1)
    dual = np.full(len(base), -1, dtype=np.int64)
    dual[~origin] = dual_index(q, np.flatnonzero(~origin))
    return LineTable(base, direction, (pts[..., 0] * q + pts[..., 1]) * q + pts[..., 2],
                     origin, dual)


def line_count_array(q: int, points) -> np.ndarray:
    """The stream of geom3.line_counts as one array of every row, q^4 bytes and more."""
    return np.concatenate([counts for _, counts in line_counts(q, points)])


def gather_line_counts(x: PointSet) -> np.ndarray:
    """|X intersect l| for every row, by gathering membership of its q points."""
    return np.isin(line_table_oracle(x.q).point_idx, x.points).sum(axis=1)


def prune_by_counts(x0: PointSet, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of x0 on no row carrying more than t of them, and those rows."""
    q = x0.q
    rows = np.flatnonzero(line_count_array(q, x0.points) > t)
    gone = line_points(q, *line_at(q, rows)).ravel()
    return x0.points[~np.isin(x0.points, gone)], rows


def ktt_count_by_table(x: PointSet, y: PointSet, t: int) -> int:
    """Off-origin rows t-rich in Y whose dual row is t-rich in X, over the table."""
    table = line_table_oracle(x.q)
    cx, cy = gather_line_counts(x), gather_line_counts(y)
    ok = ~table.origin_mask & (cy == t)
    return int((ok & (cx[table.dual_idx] == t)).sum())


def philox_poly(q: int, t: int, seed: int) -> TriPoly:
    """sample_poly's rejection loop on the words of numpy's Philox(seed), drawn
    as many at a time as coefficients are still missing."""
    n = math.comb(t + 3, 3)
    limit = (1 << 64) - (1 << 64) % q
    bits = np.random.Philox(seed)
    kept = []
    while len(kept) < n:
        kept += [w % q for w in bits.random_raw(n - len(kept)).tolist() if w < limit]
    return TriPoly(q, t, tuple(kept))


def evaluate(f: TriPoly, p) -> int:
    """f at a single point, by direct monomial summation."""
    q = f.q
    powers = [[pow(c, e, q) for e in range(f.t + 1)] for c in p]
    acc = 0
    for (i, j, k), a in zip(monomials(f.t), f.coeffs):
        if a:
            acc += a * powers[0][i] * powers[1][j] % q * powers[2][k]
    return acc % q


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial of degree <= t; coeffs[d] multiplies s^d."""

    q: int
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def restrict_to_line(q: int, f: TriPoly, line: AffineLine) -> UniPoly:
    """Symbolic substitution of base + s*dir into f, collected in s.

    Returns the full coefficient list of length t+1 (high coefficients may
    be zero); g(s) = f(base + s*dir) for every s.
    """
    t = f.t
    # expansions[c][e] = coefficient list of (base[c] + s*dir[c])^e
    expansions = []
    for b, d in zip(line.base, line.dir):
        per_e = [[1]]
        for e in range(1, t + 1):
            per_e.append(
                [math.comb(e, m) * pow(b, e - m, q) * pow(d, m, q) % q for m in range(e + 1)]
            )
        expansions.append(per_e)
    g = [0] * (t + 1)
    for (i, j, k), a in zip(monomials(t), f.coeffs):
        if a == 0:
            continue
        ei, ej, ek = expansions[0][i], expansions[1][j], expansions[2][k]
        for m1, c1 in enumerate(ei):
            if c1 == 0:
                continue
            ac1 = a * c1 % q
            for m2, c2 in enumerate(ej):
                if c2 == 0:
                    continue
                ac12 = ac1 * c2 % q
                for m3, c3 in enumerate(ek):
                    if c3:
                        g[m1 + m2 + m3] = (g[m1 + m2 + m3] + ac12 * c3) % q
    return UniPoly(q, tuple(g))


def restrict_all_lines(q: int, f: TriPoly) -> np.ndarray:
    """(n_lines, t+1) coefficients of f restricted to every canonical line.

    The symbolic oracle for prune_bad_lines, through restriction_tensor.
    """
    t = f.t
    tensor = restriction_tensor(q, t)
    a = np.asarray(f.coeffs, dtype=np.int64)
    flat = tensor.reshape(-1, a.size) @ a % q
    return flat.reshape(tensor.shape[0], t + 1)


def evaluate_uni(g: UniPoly, s: int) -> int:
    """g at s, by Horner's rule."""
    acc = 0
    for c in reversed(g.coeffs):
        acc = (acc * s + c) % g.q
    return acc


def orbit_of(q: int, subgroup, pair: tuple[int, int]) -> list[tuple[int, int]]:
    """The Furedi orbit {(ha, hb) : h in subgroup} of pair, one member per h."""
    a, b = pair
    return [(h * a % q, h * b % q) for h in subgroup]


def furedi_adjacency(q: int, subgroup, reps) -> np.ndarray:
    """(n, n) bool: reps i != j are adjacent iff their dot product mod q is in subgroup."""
    arr = np.asarray(reps, dtype=np.int64)
    adj = np.isin(arr @ arr.T % q, np.asarray(sorted(subgroup), dtype=np.int64))
    np.fill_diagonal(adj, False)
    return adj


def furedi_dense(q: int, t: int) -> FurediGraph:
    """Furedi's graph from its definition: the orbit minima of the nonzero
    points, sorted, as classes, and the upper triangle of furedi_adjacency
    as edges."""
    h = np.array(sorted(subgroup_of_order(q, t)), dtype=np.int64)[:, None]
    a, b = np.divmod(np.arange(1, q * q, dtype=np.int64), q)
    codes = np.unique((h * a % q * q + h * b % q).min(axis=0))
    reps = np.stack(np.divmod(codes, q), axis=1)
    adj = furedi_adjacency(q, h.ravel().tolist(), reps)
    graph = BitGraph(len(reps), np.argwhere(np.triu(adj, 1)))
    return FurediGraph(q, t, tuple(map(tuple, reps.tolist())), graph)


def edge_list(graph) -> list[tuple[int, int]]:
    """Every edge once as (u, v) with u < v, in increasing order."""
    u, v = graph.edge_arrays()
    return list(zip(u.tolist(), v.tolist()))


def sides_of(graph) -> list[range]:
    """The two sides of a bipartite graph, else all of its vertices as one group."""
    if graph.sides is None:
        return [range(graph.n)]
    return [range(graph.sides[0]), range(graph.sides[0], graph.n)]


def adjacency_sets(graph) -> list[set[int]]:
    """The neighbourhood of every vertex as a set, read from edge_list(graph)."""
    adj: list[set[int]] = [set() for _ in range(graph.n)]
    for u, v in edge_list(graph):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def common_neighbors(graph, vertices) -> set[int]:
    """Intersection of the neighbourhoods of a nonempty vertex set."""
    vs = list(vertices)
    if not vs:
        raise ValueError("common_neighbors needs a nonempty vertex set")
    adj = adjacency_sets(graph)
    return set.intersection(*(adj[v] for v in vs))


def bitmask_rows(graph) -> list[int]:
    """Adjacency rows as n-bit int masks, bit w of row v set for each edge vw."""
    return [sum(1 << w for w in adj) for adj in adjacency_sets(graph)]


def _mask_to_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _common_masks(rows, group, s):
    """(subset, common-neighbourhood mask) for every s-subset, in combinations order."""
    for subset in combinations(group, s):
        mask = rows[subset[0]]
        for v in subset[1:]:
            mask &= rows[v]
        yield subset, mask


def subset_scan(graph, s: int, m: int):
    """K_{s,m}-freeness by an AND chain over every s-subset of each side.

    Returns (free, witness) with the witness of is_ksm_free: the first
    subset in combinations order with m common neighbours, and the m
    smallest of them.
    """
    rows = bitmask_rows(graph)
    for group in sides_of(graph):
        for subset, mask in _common_masks(rows, group, s):
            if mask.bit_count() >= m:
                return False, (subset, _mask_to_vertices(mask)[:m])
    return True, None


def count_biclique(graph, a: int, b: int) -> int:
    """Number of (A in left, B in right) with |A| = a, |B| = b, fully joined.

    The sides are labeled, so (a, b) and (b, a) are different counts.
    Enumerates subsets on whichever side yields fewer of them and adds
    C(|common neighborhood|, other) for each.
    """
    if a < 1 or b < 1:
        raise ParameterError(f"part sizes must be >= 1, got ({a}, {b})")
    if graph.sides is None:
        raise ParameterError("count_biclique needs a bipartite graph")
    left, right = graph.sides
    rows = bitmask_rows(graph)
    if math.comb(left, a) <= math.comb(right, b):
        group, size, other = range(left), a, b
    else:
        group, size, other = range(left, graph.n), b, a
    return sum(math.comb(mask.bit_count(), other)
               for _, mask in _common_masks(rows, group, size))


def count_biclique_general_scan(graph, a: int, b: int) -> int:
    """count_biclique_general by an AND chain over every a-subset of the vertices."""
    rows = bitmask_rows(graph)
    total = sum(math.comb(mask.bit_count(), b)
                for _, mask in _common_masks(rows, range(graph.n), a))
    return total // 2 if a == b else total


def graph_text_oracle(graph) -> str:
    """The graph file with one f-string per edge, as graph_to_text must write it."""
    if graph.sides is not None:
        head = f"bipartite {graph.sides[0]} {graph.sides[1]}"
    else:
        head = f"general {graph.n}"
    lines = [head]
    lines.extend(f"{u} {v}" for u, v in edge_list(graph))
    return "\n".join(lines) + "\n"


def write_graph(graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(graph_to_text(graph))


def parse_graph_loop(text: str) -> BitGraph:
    """The graph file parser one line at a time, as graph_from_text must behave."""
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
    return BitGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2), sides)
