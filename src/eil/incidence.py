"""The bipartite point-plane incidence graph on two evasive sets.

Two independently sampled evasive sets X, Y in F_q^3 are joined by the
bilinear relation x1*y1 + x2*y2 + x3*y3 = 1 (y acting as the plane H_y).
The graph is K_{2,t+1}-free outright: two left vertices pin their common
neighborhood into a line or the empty set, and lines carry at most t
points of either set. Copies of K_{t,t} are counted exactly by scanning
lines: a line l off the origin yields a copy precisely when l carries t
points of Y and its dual carries t points of X, and every copy arises
that way exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .evasive import (
    PointSet,
    line_intersection_counts,
    prune_bad_lines,
    sample_poly,
    zero_set,
)
from .geom3 import dual_index
from .geom3 import line_table  # noqa: F401  (perfbench/spans.py traces this name)
from .gf import check_field
from .report import StatsReport
from .subgraph import BitGraph, is_ksm_free

# Salt for deriving the second seed when only one is given; any fixed
# nonzero constant keeps the two coefficient streams distinct.
SEED_Y_SALT = 0x9E3779B97F4A7C15

# Rows that count_ktt_via_lines dualises at once.
_DUAL_CHUNK = 1 << 16
# Entries of the point-plane product that build_incidence holds at once:
# 8 MB of int64, where the whole |X| x |Y| product is 107 MB at q = 61.
_PRODUCT_BLOCK = 1 << 20


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
    graph: BitGraph

    @property
    def n(self) -> int:
        return self.graph.n


def _coords_of(indices: np.ndarray, q: int) -> np.ndarray:
    return np.stack([indices // (q * q), (indices // q) % q, indices % q], axis=1)


def _row_slices(rows: int, cols: int):
    """Consecutive row slices of a (rows, cols) matrix, about _PRODUCT_BLOCK entries each."""
    step = max(1, _PRODUCT_BLOCK // max(1, cols))
    for lo in range(0, rows, step):
        yield slice(lo, lo + step)


def _incidence_blocks(xc: np.ndarray, yc: np.ndarray, q: int):
    """Row blocks of the boolean matrix x.y == 1 (mod q), x a row of xc and y of yc."""
    for rows in _row_slices(len(xc), len(yc)):
        dots = xc[rows] @ yc.T
        yield np.remainder(dots, q, out=dots) == 1


def build_incidence(
    q: int, t: int, seed_x: int, seed_y: int | None = None
) -> IncidenceConstruction:
    """Deterministic construction from two independent seeded polynomials; checks every argument."""
    if seed_y is None:
        seed_y = seed_x ^ SEED_Y_SALT
    check_field(q)
    if t < 3:
        raise ParameterError(f"degree bound t must be >= 3, got {t}")
    if t > q:
        raise ParameterError(f"t = {t} exceeds q = {q}; a line has only q points")
    for seed in (seed_x, seed_y):
        if not isinstance(seed, int) or seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    if seed_x == seed_y:
        raise ParameterError("seed_x and seed_y must differ (independent samples)")
    sets = []
    vanishing = []
    for seed in (seed_x, seed_y):
        f = sample_poly(q, t, seed)
        pruned, gone = prune_bad_lines(q, f, zero_set(q, f))
        sets.append(pruned)
        vanishing.append(len(gone))
    x_set, y_set = sets
    assert x_set.count <= t * q * q and y_set.count <= t * q * q
    xc, yc = _coords_of(x_set.indices(), q), _coords_of(y_set.indices(), q)
    graph = BitGraph.from_biadjacency(_incidence_blocks(xc, yc, q), (len(xc), len(yc)))
    return IncidenceConstruction(q, t, seed_x, seed_y, x_set, y_set, *vanishing, graph)


def count_ktt_via_lines(c: IncidenceConstruction) -> int:
    """Exact K_{t,t} count: lines l with |Y on l| = t and |X on dual(l)| = t.

    Only the off-origin rows (not 0 mod q^2) that are t-rich in Y are
    dualised, each in closed form.
    """
    rows = np.flatnonzero(line_intersection_counts(c.y_set) == c.t)
    rows = rows[rows % (c.q * c.q) != 0]
    cx = line_intersection_counts(c.x_set)
    # in chunks: dual_index holds a dozen int64 temporaries per row
    return sum(int((cx[dual_index(c.q, rows[lo : lo + _DUAL_CHUNK])] == c.t).sum())
               for lo in range(0, len(rows), _DUAL_CHUNK))


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
        "freeness_witness": list(map(list, freeness.witness)) if freeness.witness else None,
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
