import math

import numpy as np
import pytest

from eil.errors import ParameterError
from eil.evasive import PointSet
from eil.geom3 import line_at, line_points
from eil.incidence import (
    IncidenceConstruction,
    build_incidence,
    count_ktt_via_lines,
    verify_construction,
)
from eil.report import validate_report
from eil.subgraph import BitGraph, is_ksm_free
from oracles import adjacency_sets, count_biclique, dual_index, edge_list, point_index, same


def test_build_is_deterministic():
    a = build_incidence(7, 3, 42)
    b = build_incidence(7, 3, 42)
    assert same(a.graph, b.graph)
    assert same(a.x_set, b.x_set) and same(a.y_set, b.y_set)
    assert a.seed_y == b.seed_y != 42
    assert same(a, b)
    c = build_incidence(7, 3, 43)
    assert not same(c.graph, a.graph)


def test_build_validation():
    with pytest.raises(ParameterError):
        build_incidence(7, 2, 1)  # t < 3
    with pytest.raises(ParameterError):
        build_incidence(3, 4, 1)  # t > q
    with pytest.raises(ParameterError):
        build_incidence(6, 3, 1)  # q not prime
    with pytest.raises(ParameterError):
        build_incidence(7, 3, -1)  # negative seed
    with pytest.raises(ParameterError):
        build_incidence(8, 3, 1)  # q not prime


def test_size_bounds_and_edges():
    for seed in range(100):
        c = build_incidence(7, 3, 1000 + seed)
        assert c.n == c.x_set.count + c.y_set.count <= 2 * 3 * 49
        assert c.x_set.line_counts.max() <= 3
        assert c.y_set.line_counts.max() <= 3


def test_edges_match_incidence_relation():
    c = build_incidence(5, 3, 11)
    xs = [tuple(map(int, divmod_point)) for divmod_point in _coords(c.x_set)]
    ys = [tuple(map(int, divmod_point)) for divmod_point in _coords(c.y_set)]
    adj = adjacency_sets(c.graph)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            expected = sum(a * b for a, b in zip(x, y)) % 5 == 1
            assert (len(xs) + j in adj[i]) == expected
    # the origin, when present, is isolated: the form vanishes at 0
    origin = point_index(5, (0, 0, 0))
    if origin in c.x_set.points:
        v = c.x_set.points.tolist().index(origin)
        assert c.graph.offsets[v + 1] == c.graph.offsets[v]


def _coords(point_set):
    q = point_set.q
    for idx in point_set.points.tolist():
        yield (idx // (q * q), (idx // q) % q, idx % q)


@pytest.mark.parametrize("q", [3, 5])
def test_count_matches_bruteforce_oracle(q):
    for seed in range(10):
        c = build_incidence(q, 3, 500 + seed)
        assert count_ktt_via_lines(c) == count_biclique(c.graph, 3, 3)


def test_count_matches_bruteforce_oracle_t4():
    for seed in range(5):
        c = build_incidence(5, 4, 520 + seed)
        assert count_ktt_via_lines(c) == count_biclique(c.graph, 4, 4)


def test_count_zero_for_empty_x():
    c = build_incidence(5, 3, 7)
    gutted = IncidenceConstruction(
        q=5, t=3, seed_x=7, seed_y=c.seed_y,
        x_set=PointSet(5, np.zeros(0, dtype=np.int64)), y_set=c.y_set,
        vanishing_x=0, vanishing_y=c.vanishing_y,
    )
    assert count_ktt_via_lines(gutted) == 0


def _points_of_row(q, row):
    base, direction = line_at(q, [row])
    return line_points(q, base[0], direction[0])


def _by_hand(q, t, x_points, y_points):
    """A construction whose X and Y are the given point indices."""
    sets = [PointSet(q, np.unique(points)) for points in (x_points, y_points)]
    return IncidenceConstruction(q, t, 0, 0, *sets, 0, 0)


# Two off-origin rows of F_7^3 (not 0 mod q^2).
ROW, OTHER_ROW = 7**4 + 3 * 7 * 7 + 2 * 7 + 5, 2 * 7**3 + 4 * 7 + 1


def test_a_t_plus_1_rich_line_with_two_dual_points_fails_both_checks():
    # Y holds t + 1 points of l and X two points of its dual l*: every point
    # of l* is joined to every point of l, a K_{2,t+1}
    q, t = 7, 3
    line = _points_of_row(q, ROW)
    dual = _points_of_row(q, int(dual_index(q, [ROW])[0]))
    c = _by_hand(q, t, dual[:2], line[: t + 1])
    assert not c.evasive
    result = is_ksm_free(c.graph, 2, t + 1)
    assert not result.free
    assert result.witness == ((0, 1), (2, 3, 4, 5))


def test_the_evasive_certificate_is_sufficient_not_necessary():
    # the same Y, but X has one point on l*: no two points of X have l as
    # the meeting line of their planes, so the graph is free though Y is not
    # evasive
    q, t = 7, 3
    line = _points_of_row(q, ROW)
    dual_row = int(dual_index(q, [ROW])[0])
    dual = _points_of_row(q, dual_row)
    other = _points_of_row(q, OTHER_ROW)
    x_points = np.union1d(dual[:1], other[:t])
    c = _by_hand(q, t, x_points, line[: t + 1])
    assert c.x_set.line_counts[dual_row] == 1 and c.x_set.count == t + 1
    assert not c.evasive
    assert is_ksm_free(c.graph, 2, t + 1).free


def test_freeness_is_deterministic():
    for seed in (1, 2, 3, 4, 5):
        c = build_incidence(7, 3, seed)
        assert is_ksm_free(c.graph, 2, 4).free


def test_vertex_removal_never_increases_count():
    for seed in (3, 14):
        c = build_incidence(5, 3, seed)
        base_count = count_biclique(c.graph, 3, 3)
        left, right = c.graph.sides
        for victim in list(range(c.n))[:: max(1, c.n // 8)]:
            keep = [v for v in range(c.n) if v != victim]
            remap = {v: i for i, v in enumerate(keep)}
            edges = [
                (remap[u], remap[v]) for u, v in edge_list(c.graph) if victim not in (u, v)
            ]
            sides = (left - 1, right) if victim < left else (left, right - 1)
            sub = BitGraph(c.n - 1, edges, sides)
            assert count_biclique(sub, 3, 3) <= base_count


def test_verify_construction_report():
    c = build_incidence(7, 3, 42)
    report = verify_construction(c)
    validate_report(report.to_json_dict())
    assert report.all_passed()
    rec = report.trials[0]
    assert rec["n"] == c.n
    assert rec["ktt_count"] == count_ktt_via_lines(c)
    assert rec["ktt_count"] <= math.comb(c.n, 2)
    assert rec["ratio_count_n2"] == rec["ktt_count"] / c.n**2
