import random
from itertools import combinations

import numpy as np
import pytest

from eil import furedi
from eil.furedi import (
    FurediGraph,
    build_furedi,
    classes_to_text,
    verify_appendix,
)
from eil.gf import subgroup_of_order
from eil.report import validate_report
from eil.subgraph import BitGraph, count_biclique_general, is_ksm_free
from oracles import (
    adjacency_sets,
    common_neighbors,
    count_biclique_general_scan,
    edge_list,
    furedi_adjacency,
    furedi_dense,
    orbit_of,
)


def test_vertex_counts_frozen():
    assert build_furedi(7, 3).n == 16
    assert build_furedi(5, 2).n == 12
    assert build_furedi(13, 4).n == 42


@pytest.mark.parametrize("q,t", [
    (3, 2), (5, 2), (7, 3), (13, 2), (13, 4), (31, 3), (31, 5), (61, 3)])
def test_build_matches_the_dense_product(q, t):
    # build_furedi reads each class's row off one line; the oracle tests
    # every pair of classes
    g, dense = build_furedi(q, t), furedi_dense(q, t)
    assert g.classes == dense.classes
    assert edge_list(g.graph) == edge_list(dense.graph)


@pytest.mark.parametrize("q,t", [(5, 2), (7, 3), (13, 4), (31, 3)])
def test_orbits_partition_the_punctured_plane(q, t):
    g = build_furedi(q, t)
    assert list(g.classes) == sorted(g.classes)
    seen = set()
    for rep in g.classes:
        orbit = orbit_of(q, subgroup_of_order(q, t), rep)
        assert len(set(orbit)) == t
        assert min(orbit) == rep
        assert not (set(orbit) & seen)
        seen |= set(orbit)
    assert len(seen) == q * q - 1
    assert (0, 0) not in seen


@pytest.mark.parametrize("q,t", [(5, 2), (7, 3), (13, 3), (13, 4)])
def test_degree_profile(q, t):
    g = build_furedi(q, t)
    degrees = np.diff(g.graph.offsets)
    assert set(degrees.tolist()) <= {q - 1, q}


def test_edge_relation_is_rescaling_invariant():
    q, t = 13, 3
    g = build_furedi(q, t)
    subgroup = sorted(subgroup_of_order(q, t))
    rng = random.Random(99)
    baseline = set(edge_list(g.graph))
    for _ in range(50):
        # replace every representative by a random orbit member
        reps = []
        for a, b in g.classes:
            h = rng.choice(subgroup)
            reps.append((h * a % q, h * b % q))
        adj = furedi_adjacency(q, subgroup, reps)
        edges = {
            (i, j) for i in range(len(reps)) for j in range(i + 1, len(reps)) if adj[i, j]
        }
        assert edges == baseline


def test_pairs_with_common_neighbors_are_linearly_independent():
    for q, t in [(7, 3), (13, 4)]:
        g = build_furedi(q, t)
        adj = adjacency_sets(g.graph)
        for u, v in combinations(range(g.n), 2):
            if adj[u] & adj[v]:
                (a, b), (c, d) = g.classes[u], g.classes[v]
                assert (a * d - b * c) % q != 0


@pytest.mark.parametrize("q,t", [(5, 2), (7, 3), (13, 3), (13, 4)])
def test_common_neighborhoods_at_most_t_and_tight(q, t):
    g = build_furedi(q, t)
    best = 0
    for u, v in combinations(range(g.n), 2):
        size = len(common_neighbors(g.graph, [u, v]))
        assert size <= t
        best = max(best, size)
    assert best == t


@pytest.mark.parametrize("q,t", [(7, 3), (13, 3), (13, 4)])
def test_no_k3t_and_no_ktt(q, t):
    g = build_furedi(q, t)
    assert is_ksm_free(g.graph, 3, t).free
    assert count_biclique_general(g.graph, t, t) == 0


def test_verify_appendix_report():
    g = build_furedi(7, 3)
    report = verify_appendix(g)
    validate_report(report.to_json_dict())
    assert report.all_passed()
    rec = report.trials[0]
    assert rec["n"] == rec["n_expected"] == 16
    assert rec["k2_free"] and rec["k3t_free"]
    assert rec["ktt_count"] == 0


def _counting_calls(monkeypatch):
    calls = []

    def spy(graph, a, b):
        calls.append((a, b))
        return count_biclique_general(graph, a, b)

    monkeypatch.setattr(furedi, "count_biclique_general", spy)
    return calls


@pytest.mark.parametrize("q,t", [(7, 3), (13, 4)])
def test_verify_appendix_skips_the_count_on_a_k3t_free_graph(q, t, monkeypatch):
    # a K_{t,t} with t >= 3 contains a K_{3,t}, so K_{3,t}-freeness settles it
    calls = _counting_calls(monkeypatch)
    rec = verify_appendix(build_furedi(q, t)).trials[0]
    assert rec["k3t_free"] and rec["ktt_count"] == 0
    assert calls == []


def test_verify_appendix_counts_when_not_k3t_free(monkeypatch):
    # K_{4,4} as a general graph under a Furedi wrapper: it holds K_{3,3}s,
    # so the count must come from count_biclique_general
    k44 = BitGraph(8, [(u, v) for u in range(4) for v in range(4, 8)])
    g = FurediGraph(7, 3, tuple((0, v) for v in range(1, 9)), k44)
    calls = _counting_calls(monkeypatch)
    report = verify_appendix(g)
    rec = report.trials[0]
    assert not rec["k3t_free"]
    assert calls == [(3, 3)]
    assert rec["ktt_count"] == count_biclique_general_scan(k44, 3, 3) == 16
    assert not [c for c in report.checks if c["name"] == "ktt_count_zero"][0]["passed"]


def test_verify_appendix_t2(monkeypatch):
    scans = []

    def spy(graph, s, m, force=False):
        scans.append((s, m))
        return is_ksm_free(graph, s, m, force)

    monkeypatch.setattr(furedi, "is_ksm_free", spy)
    report = verify_appendix(build_furedi(5, 2))
    assert report.all_passed()
    # at t = 2 the K_{3,t} check is the K_{2,t+1} check, made once
    assert scans == [(2, 3)]
    assert report.trials[0]["ktt_count"] is None  # only tracked for t >= 3


def test_classes_sidecar_roundtrip():
    g = build_furedi(7, 3)
    text = classes_to_text(g)
    rows = [tuple(map(int, row.split())) for row in text.splitlines()]
    assert rows == [(i, a, b) for i, (a, b) in enumerate(g.classes)]
    assert text.splitlines()[0] == "0 0 1" and text.endswith("\n")
