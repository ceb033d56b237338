"""The bipartite point-plane incidence graph on two evasive sets.

Two independently sampled evasive sets X, Y in F_q^3 are joined by the
bilinear relation x1*y1 + x2*y2 + x3*y3 = 1 (y acting as the plane H_y).
The graph is K_{2,t+1}-free outright: two left vertices pin their common
neighborhood into a line or the empty set, and lines carry at most t
points of either set (IncidenceConstruction.evasive). Copies of K_{t,t}
are counted exactly by scanning lines: a line l off the origin yields a
copy precisely when l carries t points of Y and t planes H_x of X hold
it (so its dual carries t points of X), and every copy arises that way
exactly once. Both read Y's line counts (PointSet.line_counts), the
count also the plane counts of X (geom3.plane_counts), so neither needs
the graph, which is built on first use of IncidenceConstruction.graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .evasive import PointSet, prune_bad_lines, sample_poly, zero_set
from .geom3 import blocks, plane_counts, point_coords
from .geom3 import line_table  # noqa: F401  (perfbench/spans.py traces this name)
from .gf import check_field
from .report import StatsReport
from .subgraph import BitGraph, is_ksm_free

# Y's seed is X's seed XOR this salt; being nonzero, it makes the two
# seeds, and so the two coefficient streams, differ.
SEED_Y_SALT = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class IncidenceConstruction:
    q: int
    t: int
    seed_x: int
    seed_y: int
    x_set: PointSet
    y_set: PointSet
    vanishing_x: int  # lines cleared by pruning
    vanishing_y: int

    @property
    def n(self) -> int:
        return self.x_set.count + self.y_set.count

    @property
    def evasive(self) -> bool:
        """No line meets X or Y in more than t points; then the graph is K_{2,t+1}-free.

        Two points of X share neighbours only on the line where their planes
        meet, which holds at most t points of Y; likewise for Y. Sufficient,
        not necessary: t + 1 points of Y on a line need two of X on its dual.
        """
        return max(int(s.line_counts.max()) for s in (self.x_set, self.y_set)) <= self.t

    @cached_property
    def graph(self) -> BitGraph:
        """The incidence graph, X as the left side; built on first use."""
        xc, yc = (point_coords(self.q, s.points) for s in (self.x_set, self.y_set))
        return BitGraph.from_biadjacency(_incidence_blocks(xc, yc, self.q), (len(xc), len(yc)))


def _incidence_blocks(xc: np.ndarray, yc: np.ndarray, q: int):
    """Row blocks of the boolean matrix x.y == 1 (mod q), x a row of xc and y of yc."""
    for rows in blocks(len(xc), len(yc)):
        dots = xc[rows] @ yc.T
        yield np.remainder(dots, q, out=dots) == 1


def build_incidence(q: int, t: int, seed_x: int) -> IncidenceConstruction:
    """The pruned sets X from seed_x and Y from seed_x ^ SEED_Y_SALT; checks all args."""
    check_field(q)
    if t < 3:
        raise ParameterError(f"degree bound t must be >= 3, got {t}")
    if t > q:
        raise ParameterError(f"t = {t} exceeds q = {q}; a line has only q points")
    if not isinstance(seed_x, int) or seed_x < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed_x!r}")
    seed_y = seed_x ^ SEED_Y_SALT
    sets = []
    vanishing = []
    for seed in (seed_x, seed_y):
        f = sample_poly(q, t, seed)
        pruned, gone = prune_bad_lines(q, f, zero_set(q, f))
        sets.append(pruned)
        vanishing.append(len(gone))
    assert all(s.count <= t * q * q for s in sets)
    return IncidenceConstruction(q, t, seed_x, seed_y, *sets, *vanishing)


def count_ktt_via_lines(c: IncidenceConstruction) -> int:
    """Exact K_{t,t} count: lines l with |Y on l| = t and |X on dual(l)| = t.

    |X on dual(l)| is the number of x in X whose plane H_x holds l, which
    is 0 on lines through the origin (geom3.plane_counts). Its blocks are
    compared with the same rows of Y's line counts one at a time.
    """
    cy, t = c.y_set.line_counts, c.t
    return sum(int(np.count_nonzero((cy[rows] == t) & (px == t)))
               for rows, px in plane_counts(c.q, c.x_set.points))


def verify_construction(c: IncidenceConstruction) -> StatsReport:
    """Freeness, exact count, count/n^2 ratio, and the C(n,2) upper bound."""
    freeness = is_ksm_free(c.graph, 2, c.t + 1)
    count = count_ktt_via_lines(c)
    n = c.n
    upper = math.comb(n, 2)
    record = {
        "trial": 0,
        "seed_x": c.seed_x,
        "seed_y": c.seed_y,
        "n": n,
        "x_size": c.x_set.count,
        "y_size": c.y_set.count,
        "vanishing_lines_x": c.vanishing_x,
        "vanishing_lines_y": c.vanishing_y,
        "ktt_count": count,
        "k2_free": freeness.free,
        "freeness_witness": freeness.witness,
        "ratio_count_n2": count / (n * n) if n else 0.0,
    }
    checks = [
        {"name": "k2_t1_free_both_orientations", "passed": freeness.free,
         "witness": record["freeness_witness"]},
        {"name": "ktt_count_at_most_n_choose_2", "passed": count <= upper,
         "count": count, "bound": upper},
        {"name": "n_at_most_2tq2", "passed": n <= 2 * c.t * c.q * c.q,
         "n": n, "bound": 2 * c.t * c.q * c.q},
    ]
    return StatsReport(
        kind="incidence",
        params={"q": c.q, "t": c.t, "seed_x": c.seed_x, "seed_y": c.seed_y},
        trials=[record],
        aggregates={
            "ktt_count": count,
            "n": n,
            "ratio_count_n2": record["ratio_count_n2"],
        },
        checks=checks,
    )
