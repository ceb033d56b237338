"""Scalar reference implementations that the tests check the array code against.

None of these is on a production path: points and lines one tuple at a
time, pointwise polynomial evaluation, and graph neighbourhoods as sets.
"""

from __future__ import annotations

from eil.errors import ParameterError
from eil.evasive import TriPoly, UniPoly, monomials
from eil.geom3 import AffineLine, Point3
from eil.gf import FieldCtx

ORIGIN: Point3 = (0, 0, 0)


def point_index(ctx: FieldCtx, p: Point3) -> int:
    """Index of a point in the fixed 0..q^3-1 layout (x1*q^2 + x2*q + x3)."""
    q = ctx.q
    return (p[0] * q + p[1]) * q + p[2]


def check_point(ctx: FieldCtx, p: Point3) -> Point3:
    if len(p) != 3:
        raise ParameterError(f"a point needs 3 coordinates, got {p!r}")
    for c in p:
        ctx.check(c)
    return tuple(p)


def canonical_line(ctx: FieldCtx, base: Point3, direction: Point3) -> AffineLine:
    """Canonicalize (base, direction); direction must be nonzero."""
    q = ctx.q
    base = check_point(ctx, base)
    direction = check_point(ctx, direction)
    if direction == ORIGIN:
        raise ParameterError("line direction must be nonzero")
    pivot = next(i for i in range(3) if direction[i] != 0)
    inv = ctx.inv(direction[pivot])
    d = tuple(c * inv % q for c in direction)
    s = base[pivot]
    b = tuple((base[i] - s * d[i]) % q for i in range(3))
    return AffineLine(b, d)


def line_through(ctx: FieldCtx, p: Point3, r: Point3) -> AffineLine:
    """The unique line containing two distinct points."""
    p = check_point(ctx, p)
    r = check_point(ctx, r)
    if p == r:
        raise ParameterError("two distinct points are needed to span a line")
    direction = tuple((r[i] - p[i]) % ctx.q for i in range(3))
    return canonical_line(ctx, p, direction)


def points_on(ctx: FieldCtx, line: AffineLine) -> list[Point3]:
    """The q points base + s*dir, in increasing s order."""
    q = ctx.q
    b, d = line.base, line.dir
    return [tuple((b[i] + s * d[i]) % q for i in range(3)) for s in range(q)]


def passes_origin(line: AffineLine) -> bool:
    """True iff (0,0,0) lies on the (canonical) line."""
    return line.base == ORIGIN


def evaluate(f: TriPoly, p) -> int:
    """f at a single point, by direct monomial summation."""
    q = f.q
    powers = [[pow(c, e, q) for e in range(f.t + 1)] for c in p]
    acc = 0
    for (i, j, k), a in zip(monomials(f.t), f.coeffs):
        if a:
            acc += a * powers[0][i] * powers[1][j] % q * powers[2][k]
    return acc % q


def evaluate_uni(g: UniPoly, s: int) -> int:
    """g at s, by Horner's rule."""
    acc = 0
    for c in reversed(g.coeffs):
        acc = (acc * s + c) % g.q
    return acc


def adjacency_sets(graph) -> list[set[int]]:
    """The neighbourhood of every vertex as a set, read from graph.edges()."""
    adj: list[set[int]] = [set() for _ in range(graph.n)]
    for u, v in graph.edges():
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
