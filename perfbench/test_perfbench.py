"""Tests of the benchmark's own code: spans, percentiles, metric names, gate inputs.

    python -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import compare
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(it))


def test_self_time_subtracts_nested_children(monkeypatch):
    # root [0,10] > a [1,4] > b [2,3]; root > c [5,6]; run covers [0,12]
    _fake_clock(monkeypatch, [0, 0, 1, 2, 3, 4, 5, 6, 10, 12])
    tr = spans.Tracer()
    with tr.run():
        with tr.span("root"):
            with tr.span("a"):
                with tr.span("b"):
                    pass
            with tr.span("c"):
                pass
    st = spans.self_times(tr.spans)
    assert st == {"root": 6, "a": 2, "b": 1, "c": 1}
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert spans.unattributed(tr) == 2


def test_self_time_sums_repeated_names_and_counts_overlap_once():
    s = spans.Span
    tree = [s("p", 0, 10, -1, 0), s("p", 2, 5, 0, 0), s("q", 1, 3, 0, 0)]
    # p's children cover [1,5] (overlap [2,3] counted once): 10 - 4 + 3 = 9
    assert spans.self_times(tree)["p"] == 9
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.covered([(0, 10)], 2, 4) == 2


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, (50, 10)), (100, (90, 90)), (1000, (99, 990)),
     (20000, (99.9, 19980))],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))
    assert run.tail_percentile(values) == expected
    if expected:
        p, v = expected
        assert sum(x > v for x in values) >= 10


def test_summary_reports_median_tail_and_count():
    s = run.summarize([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "tail_pct": None, "tail": None, "n": 3}


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    emitted = spans.layer_metrics(spans.Tracer(), 2.0, 1.0)
    assert {k: v["unit"] for k, v in emitted.items()} == declared


def test_traced_cli_run_records_layers_and_restores_patches(tmp_path, monkeypatch):
    import eil
    import eil.cli

    before = {(id(o), a): o.__dict__[a] for o, a, _, _ in spans.call_sites(eil)}
    tr = spans.Tracer()
    monkeypatch.chdir(tmp_path)
    with spans.patched(tr, eil), tr.run():
        assert eil.cli.main(["construct", "incidence", "--q", "7", "--t", "3", "--out", "."]) == 0
    after = {(id(o), a): o.__dict__[a] for o, a, _, _ in spans.call_sites(eil)}
    assert after == before
    m = spans.layer_metrics(tr, tr.runs[0][1] - tr.runs[0][0], 1.0)
    assert m["geom3.lines"]["value"] == 7 * 7 * (7 * 7 + 7 + 1)
    assert m["incidence.lines_scanned"]["value"] == m["geom3.lines"]["value"]
    for name in ("geom3.line_table_s", "evasive.prune_s", "subgraph.k2_scan_s",
                 "report.render_s", "report.bytes"):
        assert m[name]["value"] > 0, name
    assert m["furedi.build_s"]["value"] == 0
    assert 0 < m["evasive.keep_ratio"]["value"] <= 1
    assert 0 <= m["unattributed_s"]["value"] < tr.runs[0][1] - tr.runs[0][0]


def test_relabel_keeps_the_graph_and_depends_on_the_seed(tmp_path):
    text = "general 4\n0 1\n0 2\n1 2\n2 3\n"
    (tmp_path / run.FUREDI_GRAPH).write_text(text)
    outs = []
    for seed in (1, 2, 1):
        run.relabel_furedi(tmp_path, seed)
        outs.append((tmp_path / "input.graph.txt").read_text())
    assert outs[0] == outs[2]
    for out in outs:
        head, *rows = out.splitlines()
        edges = [tuple(map(int, r.split())) for r in rows]
        assert head == "general 4" and edges == sorted(edges)
        assert all(u < v for u, v in edges)
        degrees = sorted(sum(x in e for e in edges) for x in range(4))
        assert degrees == [1, 2, 2, 3]


def test_compare_flags_results_from_other_machines():
    env = {"cpu_model": "A", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    old = {"workload": "w", "environment": env,
           "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    new = {"workload": "w", "environment": dict(env, cpu_model="B"),
           "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    lines = compare.compare(old, new)
    assert lines[0].startswith("WARNING: measured on different machines")
    assert lines[-1].endswith("0.500x")
    assert not any("WARNING" in line for line in compare.compare(old, old))
