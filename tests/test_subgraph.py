import json
import math
import os
import random
import subprocess
import sys
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eil
import eil.subgraph as sg
from eil.cli import main
from eil.errors import GraphFormatError, ParameterError
from eil.furedi import build_furedi
from eil.incidence import build_incidence
from eil.subgraph import (
    BitGraph,
    biadjacency_to_text,
    count_biclique_general,
    graph_from_text,
    graph_to_text,
    is_ksm_free,
    read_graph,
)
from oracles import (
    adjacency_sets,
    common_neighbors,
    count_biclique,
    count_biclique_general_scan,
    edge_list,
    graph_text_oracle,
    parse_graph_loop,
    same,
    sides_of,
    subset_scan,
    write_graph,
)


def complete_bipartite(a, b):
    return BitGraph(
        a + b, [(i, a + j) for i in range(a) for j in range(b)], (a, b)
    )


def cycle(n):
    return BitGraph(n, [(i, (i + 1) % n) for i in range(n)])


def count_biclique_oracle(graph, a, b):
    """Naive: enumerate subsets of both sides and test all cross edges."""
    left, right = graph.sides
    adj = adjacency_sets(graph)
    total = 0
    for sub_a in combinations(range(left), a):
        for sub_b in combinations(range(left, left + right), b):
            if all(v in adj[u] for u in sub_a for v in sub_b):
                total += 1
    return total


def count_biclique_general_oracle(graph, a, b):
    """Naive: unordered pairs of disjoint subsets, complete between."""
    adj = adjacency_sets(graph)
    total = 0
    for sub_a in combinations(range(graph.n), a):
        for sub_b in combinations(range(graph.n), b):
            if set(sub_a) & set(sub_b):
                continue
            if a == b and sub_b < sub_a:
                continue
            if all(v in adj[u] for u in sub_a for v in sub_b):
                total += 1
    return total


def pair_scan_oracle(graph, m):
    """K_{2,m}-freeness by intersecting the neighbour sets of every pair of each side.

    Returns (free, witness) with the witness of is_ksm_free: the first pair
    in combinations order with m common neighbors, and the m smallest of them.
    """
    adj = adjacency_sets(graph)
    for group in sides_of(graph):
        for u, v in combinations(group, 2):
            common = sorted(adj[u] & adj[v])
            if len(common) >= m:
                return False, ((u, v), tuple(common[:m]))
    return True, None


def random_general(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return BitGraph(n, edges)


def random_bipartite(left, right, p, seed):
    rng = random.Random(seed)
    edges = [
        (i, left + j)
        for i in range(left)
        for j in range(right)
        if rng.random() < p
    ]
    return BitGraph(left + right, edges, (left, right))


def random_biadjacency_graphs():
    rng = np.random.default_rng(5)
    for left, right in [(0, 0), (0, 6), (6, 0), (1, 1), (7, 5), (12, 9)]:
        adj = rng.random((left, right)) < 0.4
        yield BitGraph.from_biadjacency([adj[:3], adj[3:]], (left, right))


def test_every_built_graph_passes_the_parser():
    # the constructor trusts the builders, so each must make a graph that
    # the one validator accepts unchanged
    graphs = [
        *(build_furedi(q, t).graph for q, t in [(5, 2), (7, 3), (13, 4), (31, 3)]),
        *(build_incidence(q, t, seed).graph
          for q, t, seed in [(7, 3, 42), (11, 4, 7), (13, 3, 1)]),
        *random_biadjacency_graphs(),
    ]
    for g in graphs:
        assert same(graph_from_text(graph_to_text(g)), g)


def test_common_neighbors():
    path = BitGraph(3, [(0, 1), (1, 2)])
    assert common_neighbors(path, [0, 2]) == {1}
    assert common_neighbors(path, [1]) == {0, 2}
    k23 = complete_bipartite(2, 3)
    assert common_neighbors(k23, [0, 1]) == {2, 3, 4}
    with pytest.raises(ValueError):
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


PAIR_CHECK_GRAPHS = [
    *[random_bipartite(left, right, p, seed)
      for seed, (left, right, p) in enumerate(
          [(0, 0, 0.5), (0, 6, 0.5), (6, 0, 0.5), (1, 1, 1.0), (1, 7, 0.9), (7, 1, 0.9),
           (6, 7, 0.3), (6, 7, 0.6), (9, 5, 0.8), (12, 12, 0.35), (12, 12, 0.7)])],
    *[random_general(n, p, 50 + seed)
      for seed, (n, p) in enumerate(
          [(0, 0.5), (1, 0.5), (2, 1.0), (3, 1.0), (8, 0.2), (8, 0.5), (14, 0.3), (14, 0.75)])],
    complete_bipartite(2, 6),
    complete_bipartite(6, 2),
    cycle(4),
    cycle(9),
]


@pytest.mark.parametrize("block", [1, 3, sg.CODEGREE_BLOCK])
@pytest.mark.parametrize("m", range(2, 7))
def test_pair_check_matches_pair_scan_oracle(monkeypatch, m, block):
    monkeypatch.setattr(sg, "CODEGREE_BLOCK", block)
    for g in PAIR_CHECK_GRAPHS:
        res = is_ksm_free(g, 2, m)
        assert (res.free, res.witness) == pair_scan_oracle(g, m), (g.n, g.sides, m)


@st.composite
def edge_lists(draw):
    """(n, edges, sides): distinct edges in any order, each in either orientation."""
    if draw(st.booleans()):
        left, right = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        pairs = [(i, left + j) for i in range(left) for j in range(right)]
        n, sides = left + right, (left, right)
    else:
        n = draw(st.integers(0, 12))
        pairs = list(combinations(range(n), 2))
        sides = None
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = draw(st.permutations([e for e, k in zip(pairs, keep) if k]))
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)], sides


def small_graphs():
    return edge_lists().map(lambda case: BitGraph(*case))


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(2, 6), st.sampled_from([1, 2, 5, 17, sg.CODEGREE_BLOCK]))
def test_pair_check_property(graph, m, block):
    # small blocks split the two-hop paths of one side across many blocks,
    # so the first witness must survive the block boundaries
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "CODEGREE_BLOCK", block)
        res = is_ksm_free(graph, 2, m)
    assert (res.free, res.witness) == pair_scan_oracle(graph, m)


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.integers(2, 4), st.integers(0, 4),
       st.sampled_from([1, 2, 5, 17, sg.CODEGREE_BLOCK]))
def test_subset_check_and_count_property(graph, s, extra, block):
    # every s-subset check and biclique count of the key engine against the
    # AND-chain scans, with blocks that split the keys of one side
    m = s + extra
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sg, "CODEGREE_BLOCK", block)
        res = is_ksm_free(graph, s, m)
        counts = [count_biclique_general(graph, a, b) for a in (1, s) for b in (a, m)]
    assert (res.free, res.witness) == subset_scan(graph, s, m)
    assert counts == [count_biclique_general_scan(graph, a, b)
                      for a in (1, s) for b in (a, m)]


def test_scan_key_budget(monkeypatch, tmp_path, capsys):
    # 4 vertices of degree 3 in K_4 give 4 * C(3, 2) = 12 pair keys and 4 triple keys
    k4 = BitGraph(4, list(combinations(range(4), 2)))
    monkeypatch.setattr(sg, "KEY_BUDGET", 11)
    with pytest.raises(ParameterError, match="needs 12 keys"):
        is_ksm_free(k4, 2, 2)
    with pytest.raises(ParameterError, match="needs 12 keys"):
        count_biclique_general(k4, 2, 2)
    assert is_ksm_free(k4, 2, 2, force=True).witness == ((0, 1), (2, 3))
    assert is_ksm_free(k4, 3, 3).free  # 4 triple keys, within the budget
    monkeypatch.setattr(sg, "KEY_BUDGET", 12)
    assert count_biclique_general(k4, 2, 2) == 3
    # the CLI: verify exits 1 unless --force; construct has no --force to offer
    monkeypatch.setattr(sg, "KEY_BUDGET", 11)
    graph = tmp_path / "k4.graph.txt"
    write_graph(k4, graph)
    assert main(["verify", str(graph), "--s", "2", "--m", "2"]) == 1
    assert "above the budget of 11" in capsys.readouterr().err
    assert main(["verify", str(graph), "--s", "2", "--m", "2", "--force"]) == 2
    capsys.readouterr()
    assert main(["construct", "furedi", "--q", "7", "--t", "3", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "above the budget of 11" in err and "force" not in err


def test_scan_refuses_keys_that_overflow_int64(tmp_path, capsys):
    # keys are s base-n digits: n^s must stay below 2^63, even when forced
    with pytest.raises(ParameterError, match="too large"):
        is_ksm_free(BitGraph(2**21, []), 3, 3, force=True)  # n^s = 2^63 exactly
    top = int(2 ** (63 / 4))
    while top**4 >= 2**63:
        top -= 1
    while (top + 1) ** 4 < 2**63:
        top += 1
    assert is_ksm_free(BitGraph(top, []), 4, 4).free
    with pytest.raises(ParameterError, match="too large"):
        is_ksm_free(BitGraph(top + 1, []), 4, 4, force=True)
    graph = tmp_path / "edgeless.graph.txt"
    graph.write_text(f"general {top + 1}\n")
    assert main(["verify", str(graph), "--s", "4", "--m", "4", "--force"]) == 1
    assert "too large" in capsys.readouterr().err


def test_verify_refuses_a_huge_s_at_once(tmp_path):
    # n^s for s = 10^9 has about 2.5 * 10^9 digits; the refusal must not build it.
    # In a child process, so that a regression is killed by the timeout.
    graph = tmp_path / "one-edge.graph.txt"
    graph.write_text("general 320\n0 1\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "eil", "verify", str(graph), "--s", "1000000000",
         "--m", "1000000000"], capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 1
    assert "error: n = 320 is too large for a scan of 1000000000-subsets" in proc.stderr


def test_count_biclique_fixtures():
    assert count_biclique(complete_bipartite(2, 3), 2, 3) == 1
    empty = BitGraph(5, [], (2, 3))
    assert count_biclique(empty, 1, 1) == 0
    k33_minus = BitGraph(
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
    edges = [(relabel[u], relabel[v]) for u, v in edge_list(g)]
    return BitGraph(g.n, edges, (right, left))


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
    star = BitGraph(5, [(0, i) for i in range(1, 5)])
    assert count_biclique_general(star, 1, 1) == 4
    assert count_biclique_general(cycle(4), 2, 2) == 1


def test_count_biclique_general_oracle():
    rng = random.Random(7)
    for seed in range(6):
        n = 8
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45]
        g = BitGraph(n, edges)
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
    assert same(graph_from_text(text), g)
    path = tmp_path / "g.graph.txt"
    write_graph(g, path)
    assert same(read_graph(path), g)


def test_graph_text_roundtrip_general(tmp_path):
    g = cycle(5)
    text = graph_to_text(g)
    assert text.splitlines()[0] == "general 5"
    assert same(graph_from_text(text), g)


def boundary_graph(n, left, keep=None):
    """Graph on the ids 9/10, 99/100, ... (and n - 1) below n, general if left is None.

    keep selects edges by position among the allowed pairs; None keeps them all.
    """
    ids = sorted({x for p in (1, 10, 100, 1000, 10**4, 10**5, 10**6)
                  for x in (p - 1, p) if x < n} | ({n - 1} if n else set()))
    if left is None:
        pairs = list(combinations(ids, 2))
    else:
        pairs = [(u, v) for u in ids for v in ids if u < left <= v]
    edges = [e for i, e in enumerate(pairs) if keep is None or i in keep]
    return BitGraph(n, edges, None if left is None else (left, n - left))


@st.composite
def boundary_graphs(draw):
    n = draw(st.sampled_from([0, 1, 2, 11, 101, 1001, 10**4 + 1, 10**6]))
    left = draw(st.one_of(st.none(), st.sampled_from([0, 1, 10, 100, 10**4, n // 2, n])
                          .filter(lambda x: x <= n)))
    keep = draw(st.sets(st.integers(0, 90)))
    return boundary_graph(n, left, keep)


# every pair of boundary ids at once, so each digit count meets each other one
@example(boundary_graph(10**6, None))
@example(boundary_graph(10**6, 100))
@example(boundary_graph(1001, 10))
@example(boundary_graph(1, None))
@example(boundary_graph(0, 0))
@settings(max_examples=200, deadline=None)
@given(st.one_of(small_graphs(), boundary_graphs()))
def test_graph_text_matches_the_per_edge_writer(g):
    text = graph_to_text(g)
    assert text == graph_text_oracle(g)
    assert same(graph_from_text(text), g)


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
        # edge lists that are not simple graphs: the parser is their one check,
        # BitGraph itself checks nothing
        ("general 3\n0 0\n", "line 2: loop at 0"),
        ("general 3\n0 1\n1 0\n", "line 3: edges must satisfy u < v"),
        ("bipartite 2 2\n0 2\n3 2\n", "line 3: edges must satisfy u < v"),
        ("bipartite 2 2\n0 2\n2 3\n", "line 3: edge does not cross the bipartition"),
        ("general 3\n0 1 2\n", "line 2: expected 'u v'"),
    ],
)
def test_graph_parser_rejections(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        graph_from_text(text)
    assert fragment in str(err.value)


@st.composite
def graph_texts(draw):
    """Graph files in or near the plain form: edge lines, junk, odd line breaks."""
    head = draw(st.sampled_from(
        ["general 6", "bipartite 3 3", "general 0", "bipartite 2 4", " general\t6 ",
         "general 6\r", "general 6\x85", "general x", "bipartite -1 7", "digraph 3", ""]))
    number = st.integers(0, 7).map(str)
    breaks = st.just("\n")
    if draw(st.booleans()):  # off the plain form
        number = st.one_of(st.integers(-1, 7).map(str), st.sampled_from(
            ["007", "0000000000000000000003", "99999999999999999999", "+1", "1_0"]))
        breaks = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\u2028"])
    pair = st.tuples(number, number).map(" ".join)
    junk = st.text(alphabet="0123456789 -+_x\t\r\x0b\x1c\u00a0\u0663", max_size=6)
    lines = draw(st.lists(st.one_of(pair, pair, pair, junk), max_size=12))
    if draw(st.booleans()):
        lines = sorted(lines)
    text = head
    for line in lines:
        text += draw(breaks) + line
    return text + draw(st.sampled_from(["", "\n", "\n\n", " "]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(graph_texts(), st.text(max_size=40)))
def test_parser_matches_the_line_by_line_parser(text):
    # any text gives the same graph or the identical GraphFormatError message
    outcomes = []
    for parse in (parse_graph_loop, graph_from_text):
        try:
            outcomes.append(("graph", parse(text)))
        except GraphFormatError as exc:
            outcomes.append(("error", str(exc)))
    assert same(outcomes[0], outcomes[1])


def test_edges_listing():
    g = complete_bipartite(2, 2)
    u, v = g.edge_arrays()
    assert (u.tolist(), v.tolist()) == ([0, 0, 1, 1], [2, 3, 2, 3])
    assert np.diff(g.offsets).tolist() == [2, 2, 2, 2]


@pytest.mark.parametrize("step", [1, 3, pytest.param(None, id="all-rows")])
def test_streamed_biadjacency_matches_argwhere(step):
    # the graph and its file text, one chunk per block after the header
    rng = np.random.default_rng(step or 0)
    # 7 rows of 1 column: slices of 3 rows leave a last slice of 1
    for left, right in [(7, 1), (7, 5), (10, 3), (0, 4), (4, 0), (0, 0), (1, 1)]:
        adj = rng.random((left, right)) < 0.4
        rows = step or max(1, left)
        starts = range(0, left, rows)
        expected = BitGraph(left + right, np.argwhere(adj) + [0, left], (left, right))
        blocks = (adj[lo : lo + rows] for lo in starts)
        assert same(BitGraph.from_biadjacency(blocks, (left, right)), expected)
        blocks = (adj[lo : lo + rows] for lo in starts)
        chunks = list(biadjacency_to_text(blocks, (left, right)))
        assert len(chunks) == 1 + len(starts)
        assert "".join(chunks) == graph_to_text(expected)


@settings(max_examples=200, deadline=None)
@given(edge_lists(), st.booleans())
def test_csr_form_matches_adjacency_sets(case, as_array):
    # every view of the CSR against sets built from the raw edge list
    n, edges, sides = case
    given_edges = np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges
    g = BitGraph(n, given_edges, sides)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    expected = sorted((min(e), max(e)) for e in edges)
    assert edge_list(g) == expected
    assert g.edge_count() == len(edges)
    assert np.diff(g.offsets).tolist() == [len(a) for a in adj]
    head = f"bipartite {sides[0]} {sides[1]}" if sides else f"general {n}"
    text = "".join(f"{line}\n" for line in [head, *(f"{u} {v}" for u, v in expected)])
    assert graph_to_text(g) == text
    assert same(graph_from_text(text), g)


def test_key_blocks_are_bounded_and_hold_the_budgeted_keys(monkeypatch):
    # A block holds at most CODEGREE_BLOCK // 4 tuples over all its steps
    # unless it has a single first vertex; together the blocks of one scan
    # hold exactly the sum over w of C(deg w, s) keys that the budget counts.
    graphs = [build_incidence(7, 3, 42).graph, random_general(30, 0.3, 5), cycle(9)]
    for block in [1, 160, sg.CODEGREE_BLOCK]:
        monkeypatch.setattr(sg, "CODEGREE_BLOCK", block)
        for g, s in product(graphs, [1, 2, 3, 4]):
            total = 0
            for keys in sg._subset_keys(g.offsets, g.nbr, s):
                firsts = np.unique(keys // g.n ** (s - 1))
                assert firsts.size == 1 or keys.size <= block // 4
                total += keys.size
            assert total == sum(math.comb(int(d), s) for d in np.diff(g.offsets))


# --- the s = 2 check on graphs whose C(n, 2) pair scan is out of reach ---------

BIG = 20_000


def write_general(path, n, edges):
    path.write_text(f"general {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges)))


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def test_verify_pair_check_on_big_sparse_graphs(tmp_path, capsys):
    for name, edges in [("path", path_edges(BIG)), ("edgeless", [])]:
        graph = tmp_path / f"{name}.graph.txt"
        write_general(graph, BIG, edges)
        assert main(["verify", str(graph), "--s", "2", "--m", "2"]) == 0, name
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregates"]["free"] is True


def test_verify_pair_check_finds_a_c4_planted_at_the_end_of_a_long_path(tmp_path, capsys):
    # The edge (n-4, n-1) closes a 4-cycle on the last four vertices. Every
    # other pair has co-degree <= 1, so the witness sits at the same place
    # relative to the end as on a path short enough for the pair scan.
    def planted(n):
        return path_edges(n) + [(n - 4, n - 1)]

    small = 12
    free, (pair, common) = pair_scan_oracle(BitGraph(small, planted(small)), 2)
    assert not free
    shift = BIG - small
    expected = [[v + shift for v in pair], [v + shift for v in common]]
    graph = tmp_path / "planted.graph.txt"
    write_general(graph, BIG, planted(BIG))
    assert main(["verify", str(graph), "--s", "2", "--m", "2"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"][0]["witness"] == expected == [[BIG - 4, BIG - 2], [BIG - 3, BIG - 1]]


def test_verify_triple_check_finds_a_k33_planted_at_the_end_of_a_long_path(tmp_path, capsys):
    # The last six path vertices, evens against odds, are completed to a
    # K_{3,3}. Elsewhere three vertices share at most one neighbour, so the
    # witness sits at the same place relative to the end as on a path short
    # enough for the AND-chain scan.
    def planted(n):
        return path_edges(n) + [(n - 6, n - 3), (n - 6, n - 1), (n - 5, n - 2), (n - 4, n - 1)]

    n = 100_000
    small = 12
    free, (triple, common) = subset_scan(BitGraph(small, planted(small)), 3, 3)
    assert not free
    shift = n - small
    expected = [[v + shift for v in triple], [v + shift for v in common]]
    graph = tmp_path / "planted.graph.txt"
    write_general(graph, n, planted(n))
    assert main(["verify", str(graph), "--s", "3", "--m", "3"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"][0]["witness"] == expected == [[n - 6, n - 4, n - 2], [n - 5, n - 3, n - 1]]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("n", [BIG, 100_000])
def test_verify_pair_check_memory_on_a_big_path(tmp_path, n):
    # VmHWM is the peak RSS of the process's own address space; ru_maxrss
    # would also carry the peak of this test process across fork and exec.
    graph = tmp_path / "path.graph.txt"
    write_general(graph, n, path_edges(n))
    probe = (
        "import sys\n"
        "from eil.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(status[status.index('VmHWM:') + 1], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", probe, "verify", str(graph), "--s", "2", "--m", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.split()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 200, peak_mb
