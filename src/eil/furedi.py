"""Furedi's K_{2,t+1}-free graph on H-orbits of F_q^2 minus the origin.

H is the multiplicative subgroup of order t (needs t | q-1); vertices are
the (q^2-1)/t orbits of the free scaling action h.(a,b) = (ha,hb); classes
[a,b] and [x,y] are adjacent when ax + by lands in H. The relation is
H-invariant so it is well-defined on orbits; self-incident classes would
be loops and are dropped to keep the graph simple.

The neighbours of [a,b] are the classes of the q points of the affine line
ax + by = 1, less [a,b] itself. An orbit [x,y] with ax + by = h in H has
exactly one member on that line: g.(x,y) lies on it iff gh = 1, so the
member is h^-1.(x,y). Hence the q points of the line lie in q distinct
orbits, each adjacent to [a,b], and every neighbour is one of them. [a,b]
is among them exactly when a^2 + b^2 is in H, so every degree is q - 1 or
q, as verify_appendix checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf import inverses, subgroup_of_order
from .report import StatsReport
from .subgraph import BitGraph, count_biclique_general, is_ksm_free


@dataclass(frozen=True)
class FurediGraph:
    q: int
    t: int
    classes: tuple[tuple[int, int], ...]
    graph: BitGraph

    @property
    def n(self) -> int:
        return self.graph.n


def build_furedi(q: int, t: int) -> FurediGraph:
    """Canonical representatives are the lexicographically smallest orbit members.

    A point (a, b) is coded a*q + b, so the smallest code over its orbit
    {(ha, hb) : h in H}, its class code, is the orbit's lexicographically
    smallest member; the representatives are the nonzero points equal to
    their own class code. Row [a, b] lists the classes of the line
    ax + by = 1 (module docstring): (s, (1 - as)/b) if b != 0, else (1/a, s).
    Needs a prime q, t >= 2 and t | q - 1, as the CLI checks.
    """
    h = np.array(sorted(subgroup_of_order(q, t)), dtype=np.int64)[:, None]
    a, b = np.divmod(np.arange(q * q, dtype=np.int64), q)
    code = (h * a % q * q + h * b % q).min(axis=0)
    reps = np.flatnonzero(code == np.arange(q * q))[1:]  # the origin is its own orbit
    # orbits have at most t points and cover the q^2 - 1 nonzero points, so
    # this count also means every orbit has exactly t
    n = reps.size
    assert n == (q * q - 1) // t
    index = np.zeros(q * q, dtype=np.int64)
    index[reps] = np.arange(n)
    a, b, s, inv = a[reps, None], b[reps, None], np.arange(q, dtype=np.int64), inverses(q)
    nbr = index[code][np.where(b != 0, s * q + (1 - a * s) % q * inv[b] % q, inv[a] * q + s)]
    # each edge once; the loop at a self-incident class is left out
    u, i = np.nonzero(np.arange(n)[:, None] < nbr)
    graph = BitGraph(n, np.column_stack((u, nbr[u, i])))
    return FurediGraph(q, t, tuple(zip(a.ravel().tolist(), b.ravel().tolist())), graph)


def verify_appendix(g: FurediGraph) -> StatsReport:
    """Vertex count, degree range, K_{2,t+1}- and K_{3,t}-freeness, K_{t,t} count."""
    q, t = g.q, g.t
    n_expected = (q * q - 1) // t
    deg = np.diff(g.graph.offsets)
    lo, hi = int(deg.min()), int(deg.max())
    degrees_ok = q - 1 <= lo and hi <= q
    free_k2 = is_ksm_free(g.graph, 2, t + 1)
    free_k3t = free_k2 if t == 2 else is_ksm_free(g.graph, 3, t)
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
        "min_degree": lo,
        "max_degree": hi,
        "k2_free": free_k2.free,
        "k3t_free": free_k3t.free,
        "ktt_count": ktt_count,
        "e_over_n32": edge_count / g.n**1.5,
    }
    checks = [
        {"name": "vertex_count_q2_minus_1_over_t", "passed": g.n == n_expected,
         "n": g.n, "expected": n_expected},
        {"name": "degrees_in_q_minus_1_q", "passed": degrees_ok,
         "min": lo, "max": hi},
        {"name": "k2_t1_free", "passed": free_k2.free, "witness": free_k2.witness},
        {"name": "k3_t_free", "passed": free_k3t.free, "witness": free_k3t.witness},
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
