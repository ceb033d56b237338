"""Furedi's K_{2,t+1}-free graph on H-orbits of F_q^2 minus the origin.

H is the multiplicative subgroup of order t (needs t | q-1); vertices are
the (q^2-1)/t orbits of the free scaling action h.(a,b) = (ha,hb); classes
[a,b] and [x,y] are adjacent when ax + by lands in H. The relation is
H-invariant so it is well-defined on orbits; self-incident classes would
be loops and are dropped to keep the graph simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf import subgroup_of_order
from .report import StatsReport
from .subgraph import BitGraph, count_biclique_general, is_ksm_free


@dataclass(frozen=True)
class FurediGraph:
    q: int
    t: int
    subgroup: tuple[int, ...]
    classes: tuple[tuple[int, int], ...]
    graph: BitGraph

    @property
    def n(self) -> int:
        return self.graph.n


def build_furedi(q: int, t: int) -> FurediGraph:
    """Canonical representatives are the lexicographically smallest orbit members.

    A nonzero (a, b) is coded a*q + b, so the smallest code of an orbit
    {(ha, hb) : h in H} is its lexicographically smallest member. Needs a
    prime q, t >= 2 and t | q - 1, as the CLI checks.
    """
    subgroup = tuple(sorted(subgroup_of_order(q, t)))
    h = np.array(subgroup, dtype=np.int64)[:, None]
    a, b = np.divmod(np.arange(1, q * q, dtype=np.int64), q)
    codes = np.unique((h * a % q * q + h * b % q).min(axis=0))
    # orbits have at most t points and cover the q^2 - 1 nonzero points, so
    # this count also means every orbit has exactly t
    assert len(codes) == (q * q - 1) // t
    reps = np.stack(np.divmod(codes, q), axis=1)
    classes = tuple(map(tuple, reps.tolist()))
    dots = reps @ reps.T % q
    adj = np.isin(dots, np.array(subgroup, dtype=np.int64))
    # each edge once; the diagonal (self-incident classes) is left out
    graph = BitGraph(len(classes), np.argwhere(np.triu(adj, 1)))
    return FurediGraph(q, t, subgroup, classes, graph)


def verify_appendix(g: FurediGraph) -> StatsReport:
    """Vertex count, degree range, K_{2,t+1}- and K_{3,t}-freeness, K_{t,t} count."""
    q, t = g.q, g.t
    n_expected = (q * q - 1) // t
    degrees = np.diff(g.graph.offsets).tolist()
    degrees_ok = all(d in (q - 1, q) for d in degrees)
    free_k2 = is_ksm_free(g.graph, 2, t + 1)
    free_k3t = is_ksm_free(g.graph, min(3, t), max(3, t))
    # a K_{t,t} with t >= 3 contains a K_{3,t}, so a K_{3,t}-free graph has none
    ktt_count = None
    if t >= 3:
        ktt_count = 0 if free_k3t.free else count_biclique_general(g.graph, t, t)
    edge_count = g.graph.edge_count()
    record = {
        "trial": 0,
        "q": q,
        "t": t,
        "n": g.n,
        "n_expected": n_expected,
        "edge_count": edge_count,
        "min_degree": min(degrees),
        "max_degree": max(degrees),
        "k2_free": free_k2.free,
        "k3t_free": free_k3t.free,
        "ktt_count": ktt_count,
        "e_over_n32": edge_count / g.n**1.5,
    }
    checks = [
        {"name": "vertex_count_q2_minus_1_over_t", "passed": g.n == n_expected,
         "n": g.n, "expected": n_expected},
        {"name": "degrees_in_q_minus_1_q", "passed": degrees_ok,
         "min": min(degrees), "max": max(degrees)},
        {"name": "k2_t1_free", "passed": free_k2.free,
         "witness": list(map(list, free_k2.witness)) if free_k2.witness else None},
        {"name": "k3_t_free", "passed": free_k3t.free,
         "witness": list(map(list, free_k3t.witness)) if free_k3t.witness else None},
    ]
    if t >= 3:
        checks.append({"name": "ktt_count_zero", "passed": ktt_count == 0,
                       "count": ktt_count})
        checks.append({
            "name": "ktt_count_at_most_n_choose_2",
            "passed": (ktt_count or 0) <= math.comb(g.n, 2),
            "count": ktt_count, "bound": math.comb(g.n, 2),
        })
    return StatsReport(
        kind="furedi",
        params={"q": q, "t": t},
        trials=[record],
        aggregates={
            "n": g.n,
            "edge_count": edge_count,
            "e_over_n32": record["e_over_n32"],
            "sqrt_t_over_2": math.sqrt(t) / 2,
        },
        checks=checks,
    )


def classes_to_text(g: FurediGraph) -> str:
    """Sidecar mapping 'index a b', one vertex per line."""
    lines = [f"{i} {a} {b}" for i, (a, b) in enumerate(g.classes)]
    return "\n".join(lines) + "\n"
