import math
import random
from itertools import combinations

import pytest

from eil.errors import GraphFormatError, ParameterError
from eil.subgraph import (
    BitGraph,
    common_neighbors,
    count_biclique,
    count_biclique_general,
    graph_from_text,
    graph_to_text,
    is_ksm_free,
    read_graph,
    write_graph,
)


def complete_bipartite(a, b):
    return BitGraph.from_edges(
        a + b, [(i, a + j) for i in range(a) for j in range(b)], (a, b)
    )


def cycle(n):
    return BitGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def count_biclique_oracle(graph, a, b):
    """Naive: enumerate subsets of both sides and test all cross edges."""
    left, right = graph.sides
    total = 0
    for sub_a in combinations(range(left), a):
        for sub_b in combinations(range(left, left + right), b):
            if all(graph.rows[u] >> v & 1 for u in sub_a for v in sub_b):
                total += 1
    return total


def count_biclique_general_oracle(graph, a, b):
    """Naive: unordered pairs of disjoint subsets, complete between."""
    total = 0
    for sub_a in combinations(range(graph.n), a):
        for sub_b in combinations(range(graph.n), b):
            if set(sub_a) & set(sub_b):
                continue
            if a == b and sub_b < sub_a:
                continue
            if all(graph.rows[u] >> v & 1 for u in sub_a for v in sub_b):
                total += 1
    return total


def random_bipartite(left, right, p, seed):
    rng = random.Random(seed)
    edges = [
        (i, left + j)
        for i in range(left)
        for j in range(right)
        if rng.random() < p
    ]
    return BitGraph.from_edges(left + right, edges, (left, right))


def test_construction_validation():
    with pytest.raises(ParameterError):
        BitGraph.from_edges(3, [(0, 0)])
    with pytest.raises(ParameterError):
        BitGraph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ParameterError):
        BitGraph.from_edges(3, [(0, 3)])
    with pytest.raises(ParameterError):
        BitGraph.from_edges(4, [(0, 1)], (2, 2))  # edge inside the left side
    with pytest.raises(ParameterError):
        BitGraph(2, [1, 0])  # asymmetric rows


def test_common_neighbors():
    path = BitGraph.from_edges(3, [(0, 1), (1, 2)])
    assert common_neighbors(path, [0, 2]) == {1}
    assert common_neighbors(path, [1]) == {0, 2}
    k23 = complete_bipartite(2, 3)
    assert common_neighbors(k23, [0, 1]) == {2, 3, 4}
    with pytest.raises(ParameterError):
        common_neighbors(path, [])


def test_is_ksm_free_fixtures():
    k23 = complete_bipartite(2, 3)
    res = is_ksm_free(k23, 2, 3)
    assert not res.free
    assert res.witness == ((0, 1), (2, 3, 4))
    assert not is_ksm_free(cycle(4), 2, 2).free  # C_4 = K_{2,2}
    assert is_ksm_free(cycle(5), 2, 2).free  # girth 5
    with pytest.raises(ParameterError):
        is_ksm_free(k23, 3, 2)
    with pytest.raises(ParameterError):
        is_ksm_free(k23, 0, 2)


def test_is_ksm_free_checks_both_orientations():
    # K_{3,2}: the 2-subset with 3 common neighbors lives on the right side
    k32 = complete_bipartite(3, 2)
    res = is_ksm_free(k32, 2, 3)
    assert not res.free
    assert res.witness[0] == (3, 4)


def test_triple_scan_guard(monkeypatch):
    import eil.subgraph as sg

    monkeypatch.setattr(sg, "TRIPLE_SCAN_LIMIT", 10)
    big = BitGraph.from_edges(11, [(0, 1)])
    with pytest.raises(ParameterError):
        is_ksm_free(big, 3, 3)
    assert is_ksm_free(big, 3, 3, force=True).free
    assert is_ksm_free(big, 2, 3).free  # pair scans are not guarded


def test_count_biclique_fixtures():
    assert count_biclique(complete_bipartite(2, 3), 2, 3) == 1
    empty = BitGraph.from_edges(5, [], (2, 3))
    assert count_biclique(empty, 1, 1) == 0
    k33_minus = BitGraph.from_edges(
        6, [(i, 3 + j) for i in range(3) for j in range(3) if (i, j) != (0, 0)], (3, 3)
    )
    assert count_biclique(k33_minus, 3, 3) == 0
    with pytest.raises(ParameterError):
        count_biclique(cycle(4), 1, 1)  # not bipartite
    with pytest.raises(ParameterError):
        count_biclique(complete_bipartite(2, 2), 0, 1)


def test_count_biclique_edges_and_oracle():
    for seed in range(8):
        g = random_bipartite(6, 7, 0.4, seed)
        assert count_biclique(g, 1, 1) == g.edge_count()
        for a, b in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            assert count_biclique(g, a, b) == count_biclique_oracle(g, a, b), (seed, a, b)


def mirror(g):
    """The same bipartite graph with left and right swapped."""
    left, right = g.sides
    relabel = [v + right for v in range(left)] + [v - left for v in range(left, g.n)]
    edges = [(relabel[u], relabel[v]) for u, v in g.edges()]
    return BitGraph.from_edges(g.n, edges, (right, left))


def test_count_biclique_mirror_symmetry():
    for seed in range(6):
        g = random_bipartite(5, 8, 0.5, 100 + seed)
        m = mirror(g)
        assert m.edge_count() == g.edge_count()
        for a, b in [(1, 1), (1, 3), (2, 2), (2, 4), (3, 1)]:
            assert count_biclique(g, a, b) == count_biclique(m, b, a)


def test_count_biclique_general_fixtures():
    triangle = cycle(3)
    assert count_biclique_general(triangle, 1, 2) == 3
    star = BitGraph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert count_biclique_general(star, 1, 1) == 4
    assert count_biclique_general(cycle(4), 2, 2) == 1


def test_count_biclique_general_oracle():
    rng = random.Random(7)
    for seed in range(6):
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        g = BitGraph.from_edges(n, edges)
        for a, b in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
            assert count_biclique_general(g, a, b) == count_biclique_general_oracle(g, a, b)


def test_free_graphs_have_quadratic_biclique_count():
    # K_{2,t+1}-free forces at most one K_{t,t} per vertex pair
    for seed in range(10):
        g = random_bipartite(7, 7, 0.35, 200 + seed)
        t = 3
        if is_ksm_free(g, 2, t + 1).free:
            assert count_biclique(g, t, t) <= math.comb(g.n, 2)


def test_graph_text_roundtrip_bipartite(tmp_path):
    g = random_bipartite(4, 5, 0.5, 3)
    text = graph_to_text(g)
    assert text.splitlines()[0] == "bipartite 4 5"
    assert graph_from_text(text) == g
    path = tmp_path / "g.graph.txt"
    write_graph(g, path)
    assert read_graph(path) == g


def test_graph_text_roundtrip_general(tmp_path):
    g = cycle(5)
    text = graph_to_text(g)
    assert text.splitlines()[0] == "general 5"
    assert graph_from_text(text) == g


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "line 1"),
        ("trigraph 3\n", "line 1"),
        ("bipartite 2\n", "line 1"),
        ("general 3\n0\n", "line 2"),
        ("general 3\n0 3\n", "out of range"),
        ("general 3\n1 1\n", "loop"),
        ("general 3\n1 0\n", "u < v"),
        ("general 3\n0 1\n0 1\n", "duplicate"),
        ("general 3\n0 2\n0 1\n", "not sorted"),
        ("bipartite 2 2\n0 1\n", "cross"),
        ("general 3\n0 x\n", "bad vertex"),
        ("general 99999999\n", "too large"),
    ],
)
def test_graph_parser_rejections(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        graph_from_text(text)
    assert fragment in str(err.value)


def test_edges_listing():
    g = complete_bipartite(2, 2)
    assert g.edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
    assert g.degree(0) == 2
