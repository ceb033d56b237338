"""The bipartite point-plane incidence graph on two evasive sets.

Two independently sampled evasive sets X, Y in F_q^3 are joined by the
bilinear relation x1*y1 + x2*y2 + x3*y3 = 1 (y acting as the plane H_y).
Two vertices of one side share neighbours only on the line where their
planes meet, so K_{2,t+1}-freeness is exact from line counts
(IncidenceConstruction.k2_free); built sets are free since the prune
leaves at most t of their points on any line. Copies of K_{t,t} are
counted exactly by scanning lines: a line l off the origin yields a copy
precisely when l carries t points of Y and t planes H_x of X hold it (so
its dual carries t points of X), and every copy arises that way exactly
once. One pass zips Y's line counts and X's plane counts (geom3) for
both, without the graph, built on first use of IncidenceConstruction.graph.
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
from .subgraph import BitGraph, FreenessResult, is_ksm_free

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
        """No row l has min(cy, px) >= 2 and max(cy, px) > t (cy = |Y on l|,
        px = |X on l*|); exactly then the graph is K_{2,t+1}-free.

        Two points of X whose planes meet in l share Y on l; two points of Y
        on l share X on l*, the line where their planes meet. Rows through
        the origin have px = 0.
        """
        return self._line_pass[0]

    @cached_property
    def _line_pass(self) -> tuple[bool, int]:
        """(k2_free, the K_{t,t} count): Y's line and X's plane counts zipped."""
        t = self.t
        free, count = True, 0
        for (_, cy), (_, px) in zip(line_counts(self.q, self.y_set.points),
                                    plane_counts(self.q, self.x_set.points)):
            free = free and not np.any((np.maximum(cy, px) > t) & (np.minimum(cy, px) >= 2))
            count += int(np.count_nonzero((cy == t) & (px == t)))
        return free, count

    @cached_property
    def graph(self) -> BitGraph:
        """The incidence graph, X as the left side; built on first use.

        The boolean matrix x.y == 1 (mod q) streams q rows of X at a time,
        at most q |Y| <= t q^3 int64 entries per block.
        """
        q = self.q
        xc, yc = (point_coords(q, s.points) for s in (self.x_set, self.y_set))

        def rows():
            for lo in range(0, len(xc), q):
                dots = xc[lo : lo + q] @ yc.T
                yield np.remainder(dots, q, out=dots) == 1

        return BitGraph.from_biadjacency(rows(), (len(xc), len(yc)))


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
    """Exact K_{t,t} count: lines l with |Y on l| = t and |X on dual(l)| = t,
    the number of x in X whose plane H_x holds l (0 through the origin).

    Read from the one line pass, which zips the slices of both streams: two
    pivot-0 slices and pivots 1 and 2 at q = 13, q + 2 slices from q = 21 on
    (geom3.step_groups)."""
    return c._line_pass[1]


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
