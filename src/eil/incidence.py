"""The bipartite point-plane incidence graph on two evasive sets.

Two independently sampled evasive sets X, Y in F_q^3 are joined by the
bilinear relation x1*y1 + x2*y2 + x3*y3 = 1 (y acting as the plane H_y).
Two vertices of one side share neighbours only on the line where their
planes meet: a point of Y on a line l is joined to the points x of X whose
plane H_x holds l, which are the points of X on l*, the dual of l (geom3;
no H_x holds a line through the origin). So with cy = |Y on l| and
px = |X on l*|, every biclique with two or more vertices on each side lies
on exactly one row l.

One pass zips Y's line counts and X's plane counts (geom3) into the joint
histogram H (IncidenceConstruction.line_histogram), a (t+2) x (t+2) int64
array: H[c, p] counts the rows with min(cy, px) >= 2 and c = min(cy, t+1),
p = min(px, t+1). Both checks of a construction read H, not the graph:
- k2_free: the graph is K_{2,t+1}-free iff row t+1 and column t+1 of H are
  zero, no row having min(cy, px) >= 2 and max(cy, px) > t. Built sets are
  free since the prune leaves at most t of their points on any line.
- count_ktt_via_lines: the number of K_{t,t} is H[t, t], the rows whose
  cy = t points of Y and px = t points of X make one copy each.

The graph itself comes from one generator, IncidenceConstruction.biadjacency,
which yields the matrix x.y == 1 (mod q) q rows of X at a time. graph_text
turns each block into the next lines of the graph file, so `construct`
writes the file with no BitGraph; the graph property builds one from the
same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .evasive import PointSet, prune_bad_lines, sample_poly, zero_set
from .geom3 import line_counts, plane_counts, point_coords
from .geom3 import line_table  # noqa: F401  (perfbench/spans.py traces this name)
from .gf import check_field
from .report import StatsReport
from .subgraph import BitGraph, FreenessResult, biadjacency_to_text, is_ksm_free

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
    def k2_free(self) -> bool:
        """Exact K_{2,t+1}-freeness, read from H (see the module docstring)."""
        t, h = self.t, self.line_histogram
        return not (h[t + 1].any() or h[:, t + 1].any())

    @cached_property
    def line_histogram(self) -> np.ndarray:
        """H, from Y's line counts and X's plane counts zipped slice by slice."""
        t = self.t
        h = np.zeros((t + 2) ** 2, dtype=np.int64)
        for (_, cy), (_, px) in zip(line_counts(self.q, self.y_set.points),
                                    plane_counts(self.q, self.x_set.points)):
            rich = np.flatnonzero(np.minimum(cy, px) >= 2)
            c, p = (np.minimum(a[rich], t + 1).astype(np.int64) for a in (cy, px))
            h += np.bincount(c * (t + 2) + p, minlength=(t + 2) ** 2)
        h.flags.writeable = False  # cached and shared by every reader
        return h.reshape(t + 2, t + 2)

    def biadjacency(self):
        """Yield the boolean matrix x.y == 1 (mod q), X's points as rows, q rows at a time.

        A block holds at most q |Y| <= t q^3 int64 entries of the product.
        """
        q = self.q
        xc, yc = (point_coords(q, s.points) for s in (self.x_set, self.y_set))
        for lo in range(0, len(xc), q):
            dots = xc[lo : lo + q] @ yc.T
            yield np.remainder(dots, q, out=dots) == 1

    def graph_text(self):
        """Yield the graph file in chunks, the edges of one block of the product each."""
        return biadjacency_to_text(self.biadjacency(), (self.x_set.count, self.y_set.count))

    @cached_property
    def graph(self) -> BitGraph:
        """The incidence graph, X as the left side; built on first use.

        It reads the blocks that graph_text writes. No command needs it: only
        a construction that is not free is scanned for its witness.
        """
        return BitGraph.from_biadjacency(self.biadjacency(), (self.x_set.count, self.y_set.count))


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
    """Exact K_{t,t} count, H[t, t] (see the module docstring)."""
    return int(c.line_histogram[c.t, c.t])


def verify_construction(c: IncidenceConstruction) -> StatsReport:
    """Freeness, exact count, count/n^2 ratio, and the C(n,2) upper bound.
    Freeness is exact from the line counts (k2_free); the K_{2,t+1} scan
    runs only on a graph that is not free, to give its witness."""
    count = count_ktt_via_lines(c)
    freeness = FreenessResult(True) if c.k2_free else is_ksm_free(c.graph, 2, c.t + 1)
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
