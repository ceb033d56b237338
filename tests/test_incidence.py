import collections
import math
import random
import tracemalloc

import numpy as np
import pytest

import eil.incidence
from eil.cli import _write
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
from eil.subgraph import BitGraph, count_biclique_general, graph_to_text, is_ksm_free
from oracles import (
    adjacency_sets,
    count_biclique,
    dual_index,
    edge_list,
    ksm_count_from_histogram,
    line_count_array,
    point_index,
    same,
)


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
        assert line_count_array(7, c.x_set.points).max() <= 3
        assert line_count_array(7, c.y_set.points).max() <= 3


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



def test_graph_streams_the_point_plane_product_in_blocks_of_q_rows():
    # |X| = 1333 and |Y| = 1379 at (37, 3, 1): the whole int64 product
    # takes 14.7 MB, a block of q rows 0.4 MB
    c = build_incidence(37, 3, 1)
    tracemalloc.start()
    try:
        edges = c.graph.edge_count()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges > 0
    assert peak < 8_000_000, peak


@pytest.mark.parametrize("q,t,seed", [(7, 3, 42), (13, 4, 1), (23, 3, 1), (61, 3, 3)])
def test_graph_text_streams_the_text_of_the_graph(q, t, seed):
    # a header, then one chunk per block of q rows of X
    c = build_incidence(q, t, seed)
    chunks = list(c.graph_text())
    assert len(chunks) == 1 + -(-c.x_set.count // q)
    assert "".join(chunks) == graph_to_text(c.graph)


def test_graph_file_is_written_one_block_at_a_time(tmp_path):
    # at (61, 3, 3) the graph and its whole text took the writing to 21.0
    # MiB traced; one block of the product at a time takes it to 3.9 MiB
    c = build_incidence(61, 3, 3)
    path = tmp_path / "g.txt"
    tracemalloc.start()
    try:
        _write(path, c.graph_text())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "graph" not in vars(c)  # the cached BitGraph was never built
    assert peak < 6_000_000, peak
    assert path.stat().st_size > 0


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


@pytest.mark.parametrize("q,t", [(7, 3), (11, 3), (13, 3), (11, 4)])
def test_ksm_counts_read_from_the_histogram_match_the_graph(q, t):
    # a built construction is K_{2,t+1}-free, so every K_{s,m} with
    # 2 <= s <= m <= t lies on one row and its count follows from H alone
    c = build_incidence(q, t, q)
    for s in range(2, t + 1):
        for m in range(s, t + 1):
            expected = count_biclique_general(c.graph, s, m)
            assert ksm_count_from_histogram(c.line_histogram, s, m) == expected, (s, m)
    assert expected > 0


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


@pytest.mark.parametrize("rich", ["x-pair", "y-pair"])
def test_a_t_plus_1_rich_line_with_two_dual_points_fails_both_checks(rich):
    # x-pair: Y holds t + 1 points of l and X two points of its dual l*;
    # y-pair: X holds t + 1 points of l* and Y two points of l. Every point
    # of l* is joined to every point of l, a K_{2,t+1} on one side
    q, t = 7, 3
    line = _points_of_row(q, ROW)
    dual = _points_of_row(q, int(dual_index(q, [ROW])[0]))
    if rich == "x-pair":
        c = _by_hand(q, t, dual[:2], line[: t + 1])
        pair = (0, 1)
    else:
        c = _by_hand(q, t, dual[: t + 1], line[:2])
        pair = (t + 1, t + 2)
    assert not c.k2_free
    result = is_ksm_free(c.graph, 2, t + 1)
    assert not result.free
    assert result.witness[0] == pair and len(result.witness[1]) == t + 1
    # the scan runs to give the witness of a graph that is not free
    record = verify_construction(c).trials[0]
    assert not record["k2_free"]
    assert record["freeness_witness"] == result.witness


def test_a_non_evasive_set_can_be_free(monkeypatch):
    # the same Y, t + 1 points on l, but X has one point on l*: no two points
    # of X have l as the meeting line of their planes, so the graph is free
    # though Y is not evasive, and the line counts say so without a scan
    q, t = 7, 3
    line = _points_of_row(q, ROW)
    dual_row = int(dual_index(q, [ROW])[0])
    dual = _points_of_row(q, dual_row)
    other = _points_of_row(q, OTHER_ROW)
    x_points = np.union1d(dual[:1], other[:t])
    c = _by_hand(q, t, x_points, line[: t + 1])
    assert line_count_array(q, c.x_set.points)[dual_row] == 1 and c.x_set.count == t + 1
    assert line_count_array(q, c.y_set.points)[ROW] == t + 1
    assert is_ksm_free(c.graph, 2, t + 1).free

    def refuse(*args, **kwargs):
        raise AssertionError("a free construction was scanned")

    monkeypatch.setattr(eil.incidence, "is_ksm_free", refuse)
    assert c.k2_free
    record = verify_construction(c).trials[0]
    assert record["k2_free"] and record["freeness_witness"] is None


def _histogram_by_rows(c):
    """H from arrays of every row: cy from line_count_array of Y, and px as
    the count of X on the dual row (0 for a row through the origin)."""
    q, t = c.q, c.t
    cy = line_count_array(q, c.y_set.points).astype(np.int64)
    px = np.zeros_like(cy)
    off = np.flatnonzero(np.arange(cy.size) % (q * q))
    px[off] = line_count_array(q, c.x_set.points)[dual_index(q, off)]
    rich = np.minimum(cy, px) >= 2
    h = np.zeros((t + 2, t + 2), dtype=np.int64)
    np.add.at(h, (np.minimum(cy[rich], t + 1), np.minimum(px[rich], t + 1)), 1)
    return h


@pytest.mark.parametrize("seed", range(3))
def test_k2_free_matches_the_scan_on_random_sets(seed):
    # dense random X and Y at q in {3, 5, 7} and 3 <= t <= q: the rule read
    # from the line counts agrees with the K_{2,t+1} scan, and the sides that
    # fail, found from the co-degrees of the x.y = 1 matrix, include X alone
    # and Y alone. H is the histogram of the rows' counts taken whole, its
    # row and column t + 1 included
    rng = random.Random(seed)
    sides = collections.Counter()
    for _ in range(100):
        q = rng.choice((3, 5, 7))
        t = rng.randint(3, q)
        x_points, y_points = (rng.sample(range(q**3), rng.randint(1, 2 * q * q))
                              for _ in range(2))
        c = _by_hand(q, t, x_points, y_points)
        assert c.k2_free == is_ksm_free(c.graph, 2, t + 1).free
        assert np.array_equal(c.line_histogram, _histogram_by_rows(c))
        a = (np.array(list(_coords(c.x_set))) @ np.array(list(_coords(c.y_set))).T % q == 1)
        a = a.astype(np.int64)
        rich = [bool(np.any(np.triu(co, 1) > t)) for co in (a @ a.T, a.T @ a)]
        assert c.k2_free == (rich == [False, False])
        sides[tuple(rich)] += 1
    assert sides[True, False] and sides[False, True] and sides[False, False]


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
