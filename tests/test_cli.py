import ast
import concurrent.futures
import csv
import functools
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eil
from eil.cli import _run_indexed, main, run_montecarlo, run_sweep
from eil.report import StatsReport, validate_report
from eil.subgraph import BitGraph
from oracles import write_graph
from test_benchmark_call_sites import load_spans


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_construct_incidence_is_byte_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["construct", "incidence", "--q", "7", "--t", "3", "--seed", "42",
                 "--out", str(d1)]) == 0
    assert main(["construct", "incidence", "--q", "7", "--t", "3", "--seed", "42",
                 "--out", str(d2)]) == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == [
        "incidence-q7-t3-seed42.graph.txt",
        "incidence-q7-t3-seed42.report.json",
        "incidence-q7-t3-seed42.x.txt",
        "incidence-q7-t3-seed42.y.txt",
    ]
    for name in names:
        assert read_bytes(d1 / name) == read_bytes(d2 / name)


def test_construct_furedi_writes_expected_graph(tmp_path):
    assert main(["construct", "furedi", "--q", "7", "--t", "3",
                 "--out", str(tmp_path)]) == 0
    graph = (tmp_path / "furedi-q7-t3.graph.txt").read_text()
    assert graph.splitlines()[0] == "general 16"
    doc = json.loads((tmp_path / "furedi-q7-t3.report.json").read_text())
    validate_report(doc)
    assert all(c["passed"] for c in doc["checks"])


def test_construct_furedi_q37_t4_counts_k44_within_a_minute(tmp_path):
    # The K_{4,4} count runs over C(342, 4) vertex sets when done by brute
    # force (about 300 s); from neighbourhood subsets it takes seconds. A
    # silent return to brute force fails here instead of stalling the suite.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "eil", "construct", "furedi", "--q", "37", "--t", "4",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "furedi-q37-t4.report.json").read_text())
    assert doc["trials"][0]["ktt_count"] == 0


def test_construct_rejects_non_prime_q(tmp_path, capsys):
    assert main(["construct", "incidence", "--q", "4", "--t", "3",
                 "--out", str(tmp_path)]) == 1
    assert "q must be prime" in capsys.readouterr().err


def test_verify_furedi_graph_is_free(tmp_path, capsys):
    assert main(["construct", "furedi", "--q", "7", "--t", "3",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["verify", str(tmp_path / "furedi-q7-t3.graph.txt"),
                 "--s", "3", "--m", "3"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    validate_report(doc)
    assert doc["aggregates"]["free"] is True


def test_verify_k23_fixture_reports_witness(tmp_path, capsys):
    fixture = tmp_path / "k23.graph.txt"
    g = BitGraph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)], (2, 3))
    write_graph(g, fixture)
    code = main(["verify", str(fixture), "--s", "2", "--m", "3"])
    out = capsys.readouterr().out
    assert code == 2
    doc = json.loads(out)
    assert doc["aggregates"]["free"] is False
    assert doc["checks"][0]["witness"] == [[0, 1], [2, 3, 4]]
    # --format sets stdout too, and --out gets the same bytes
    report = tmp_path / "r.csv"
    assert main(["verify", str(fixture), "--s", "2", "--m", "3", "--format", "csv",
                 "--out", str(report)]) == 2
    out = capsys.readouterr().out
    assert out.encode() == read_bytes(report)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["trial", "n", "edge_count", "free", "witness"]
    assert rows[1][4] == "[[0, 1], [2, 3, 4]]"


def test_verify_can_write_report_file(tmp_path, capsys, monkeypatch):
    fixture = tmp_path / "c5.graph.txt"
    g = BitGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    write_graph(g, fixture)
    out = tmp_path / "c5.report.json"
    renders = []
    to_json = StatsReport.to_json

    def spy(self):
        renders.append(self.kind)
        return to_json(self)

    monkeypatch.setattr(StatsReport, "to_json", spy)
    assert main(["verify", str(fixture), "--s", "2", "--m", "2",
                 "--out", str(out)]) == 0
    assert renders == ["verify"]  # rendered once, for stdout and the file
    assert capsys.readouterr().out.encode() == read_bytes(out)
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["aggregates"]["free"] is True  # C_5 has girth 5


def test_verify_truncated_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.graph.txt"
    bad.write_text("bipartite 2\n")
    assert main(["verify", str(bad), "--s", "2", "--m", "3"]) == 3
    assert "parse error" in capsys.readouterr().err
    missing = tmp_path / "missing.graph.txt"
    assert main(["verify", str(missing), "--s", "2", "--m", "3"]) == 3


def test_verify_checks_s_and_m_before_reading_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.graph.txt"
    assert main(["verify", str(missing), "--s", "0", "--m", "2"]) == 1
    assert capsys.readouterr().err == "error: need 1 <= s <= m, got (0, 2)\n"


def test_verify_file_that_is_not_utf8_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.graph.txt"
    bad.write_bytes(b"general 3\n0 1\n\xff 2\n")
    assert main(["verify", str(bad), "--s", "2", "--m", "2"]) == 3
    assert capsys.readouterr().err.startswith("parse error: not UTF-8 text")


@pytest.mark.parametrize("argv, message", [
    (["construct", "incidence", "--q", "7", "--t", "2"], "t must be >= 3, got 2"),
    (["construct", "incidence", "--q", "5", "--t", "7"], "t = 7 exceeds q = 5"),
    (["montecarlo", "--q", "5", "--t", "7"], "t = 7 exceeds q = 5"),
    (["sweep", "--q", "5,7", "--t", "6"], "t = 6 exceeds q = 5"),
    (["construct", "incidence", "--q", "7", "--t", "3", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    (["montecarlo", "--q", "5", "--t", "3", "--workers", "0"], "workers must be >= 1, got 0"),
    (["sweep", "--q", "7,x", "--t", "3"], "bad q list '7,x'"),
    (["sweep", "--q", "7,7", "--t", "3"], "sweep needs at least 2 distinct q values"),
    (["sweep", "--q", "7", "--t", "3", "--trials", "100"], "sweep needs at least 2 distinct q values"),
    (["montecarlo", "--q", "7", "--t", "3", "--trials", "10"], "trials must be >= 100, got 10"),
    (["construct", "furedi", "--q", "7", "--t", "4"], "t = 4 does not divide q - 1 = 6"),
    (["construct", "furedi", "--q", "7", "--t", "1"], "t must be >= 2, got 1"),
    (["construct", "incidence", "--q", "8", "--t", "3"], "q must be prime, got 8"),
    (["montecarlo", "--q", "1048583", "--t", "3"], "q must be <= 2^20, got 1048583"),
], ids=[
    "t-below-3", "t-above-q-incidence", "t-above-q-montecarlo", "t-above-q-sweep",
    "negative-seed", "zero-workers", "bad-q-list", "repeated-q", "single-q",
    "trials-below-100", "furedi-t-not-dividing", "furedi-t-below-2", "q-not-prime",
    "q-above-limit",
])
def test_bad_parameters_exit_1(argv, message, tmp_path, capsys):
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()  # nothing is created before the parameters pass


@pytest.mark.parametrize("argv,name", [
    (["construct", "incidence", "--q", "1048573", "--t", "3"], "cli.build_incidence"),
    (["montecarlo", "--q", "1048573", "--t", "3"], "cli.zero_set"),
    (["construct", "incidence", "--q", "7", "--t", "3"],
     "incidence.IncidenceConstruction.biadjacency"),
], ids=["construct", "montecarlo", "construct-stream"])
def test_out_of_memory_exits_1_and_writes_nothing(argv, name, tmp_path, monkeypatch, capsys):
    # numpy raises MemoryError for an array it cannot allocate, such as the
    # 32 TiB of values at q = 1048573; whether the allocation is refused
    # depends on the machine, so the command raises it here instead. The
    # stream case refuses after its first block of the point-plane product,
    # once main has made --out and its parent and begun the graph file.
    def refuse(*args):
        raise MemoryError("Unable to allocate 32.0 TiB for an array")

    blocks = eil.incidence.IncidenceConstruction.biadjacency
    begun = []

    def first_block_then_refuse(c):
        yield next(blocks(c))
        begun.append([p.name for p in out.iterdir()])
        refuse()

    stream = name.endswith("biadjacency")
    monkeypatch.setattr(f"eil.{name}", first_block_then_refuse if stream else refuse)
    out = tmp_path / "d" / "e"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 32.0 TiB for an array\n"
    assert begun == ([["incidence-q7-t3-seed1.graph.txt"]] if stream else [])
    assert not any(tmp_path.iterdir())


def test_bad_flags_exit_1(tmp_path, capsys):
    assert main(["construct", "incidence", "--q", "7"]) == 1  # missing --t
    assert main(["frobnicate"]) == 1
    # construct reads neither --trials nor --workers, only verify has --force,
    # and a Furedi graph has no randomness to seed
    for argv in (
        ["construct", "incidence", "--q", "7", "--t", "3", "--force"],
        ["construct", "furedi", "--q", "7", "--t", "3", "--seed", "5"],
        ["construct", "furedi", "--q", "7", "--t", "3", "--trials", "100"],
        ["construct", "incidence", "--q", "7", "--t", "3", "--workers", "2"],
        ["montecarlo", "--q", "5", "--t", "3", "--force"],
        ["sweep", "--q", "5,7", "--t", "3", "--force"],
    ):
        assert main(argv + ["--out", str(tmp_path)]) == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_montecarlo_report_and_worker_independence(tmp_path):
    r1 = run_montecarlo(5, 3, 9, 120, workers=1)
    r2 = run_montecarlo(5, 3, 9, 120, workers=2)
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv() == r2.to_csv()
    validate_report(r1.to_json_dict())
    assert len(r1.trials) == 120
    assert r1.trials[0]["seed"] == 9 and r1.trials[119]["seed"] == 128


def _binomial_check(report):
    return next(c for c in report["checks"] if c["name"] == "binomial_mean_z")


def test_montecarlo_t_equals_q_without_spread_passes(tmp_path):
    # at q = t = 5 the statistic C(ref_count, 5) is nonzero only when all 5
    # reference points are zeros (probability 5^-5), so all 300 are 0 and
    # the z-score falls back to the largest standard error of a statistic
    # in [0, C(5, 5)] with mean 5^-5
    assert main(["montecarlo", "--q", "5", "--t", "5", "--seed", "7",
                 "--trials", "300", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "montecarlo-q5-t5-seed7-trials300.report.json").read_text())
    assert doc["aggregates"]["binom_std"] == 0 and doc["aggregates"]["binom_mean"] == 0
    e = 5**-5
    check = _binomial_check(doc)
    assert check["passed"] and check["z"] == pytest.approx(-e / (e * (1 - e) / 300) ** 0.5)


def test_montecarlo_constant_statistic_far_from_target_fails(monkeypatch):
    from eil import cli

    real = cli._montecarlo_trial

    def constant(args):
        return dict(real(args), binom_stat=1)

    monkeypatch.setattr(cli, "_montecarlo_trial", constant)
    doc = run_montecarlo(5, 5, 7, 300).to_json_dict()
    assert doc["aggregates"]["binom_std"] == 0 and doc["aggregates"]["binom_mean"] == 1
    check = _binomial_check(doc)
    assert not check["passed"] and check["z"] > 3


def test_montecarlo_exact_t_target_at_t_equal_q():
    # at t = q = 3 the reference line holds all 3 points of X0 exactly when f
    # restricts to c (s^3 - s), zero or not: rate 1/27, not (1 - 1/q) C(q,t) q^-t
    doc = run_montecarlo(3, 3, 11, 10000).to_json_dict()
    check = next(c for c in doc["checks"] if c["name"] == "exact_t_rate_z")
    assert check["target"] == 1 / 27
    assert check["passed"] and abs(check["rate"] - 1 / 27) < 0.006


def test_montecarlo_cli_writes_report(tmp_path):
    assert main(["montecarlo", "--q", "5", "--t", "3", "--seed", "9",
                 "--trials", "120", "--out", str(tmp_path)]) == 0
    path = tmp_path / "montecarlo-q5-t3-seed9-trials120.report.json"
    doc = json.loads(path.read_text())
    validate_report(doc)
    assert doc["params"] == {"q": 5, "t": 3, "seed": 9, "trials": 120}
    assert main(["montecarlo", "--q", "5", "--t", "3", "--seed", "9",
                 "--trials", "120", "--out", str(tmp_path), "--format", "csv"]) == 0
    rows = list(csv.DictReader(
        (tmp_path / "montecarlo-q5-t3-seed9-trials120.report.csv").open()
    ))
    assert len(rows) == 120
    assert [r["trial"] for r in rows[:3]] == ["0", "1", "2"]


def test_workers_come_from_the_flag_alone(tmp_path, monkeypatch):
    # --workers defaults to 1; no environment variable stands in for it
    argv = ["montecarlo", "--q", "5", "--t", "3", "--seed", "9", "--trials", "100"]
    name = "montecarlo-q5-t3-seed9-trials100.report.json"
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("EIL_WORKERS", "zebra")
    assert main(argv + ["--out", str(tmp_path / "env")]) == 0
    assert (tmp_path / "env" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_worker_pool_is_capped_by_items_and_cpus(tmp_path, monkeypatch):
    # a real pool forks all its workers up front, so only a fake one that
    # records its size may be asked for a huge count
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    items = list(range(5))
    assert _run_indexed(abs, items, 100_000) == items
    assert _run_indexed(abs, items[:2], 100_000) == items[:2]
    assert _run_indexed(abs, items, 2) == items
    assert main(["montecarlo", "--q", "5", "--t", "3", "--seed", "9", "--trials", "100",
                 "--workers", "100000", "--out", str(tmp_path)]) == 0
    assert sizes == [3, 2, 2, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one process
    assert _run_indexed(abs, items, 100_000) == items
    assert len(sizes) == 4


def test_csv_and_json_agree_field_by_field(tmp_path):
    report = run_montecarlo(5, 3, 4, 100)
    doc = report.to_json_dict()
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(rows) == len(doc["trials"])
    for csv_row, trial in zip(rows, doc["trials"]):
        for key, value in trial.items():
            if isinstance(value, bool):
                assert csv_row[key] == ("true" if value else "false")
            else:
                assert csv_row[key] == str(value)


def test_sweep_report_structure(tmp_path):
    report = run_sweep([3, 5], 3, 2, 100, workers=1)
    validate_report(report.to_json_dict())
    per_q = report.aggregates["per_q"]
    assert [row["q"] for row in per_q] == [3, 5]
    assert all(row["all_free"] for row in per_q)
    assert report.aggregates["log_log_slope"] is not None
    # csv view is the per-q plotting table
    rows = list(csv.DictReader(io.StringIO(report.to_csv())))
    assert len(rows) == 2
    for csv_row, row in zip(rows, per_q):
        for key, value in row.items():
            if isinstance(value, bool):
                assert csv_row[key] == ("true" if value else "false")
            else:
                assert csv_row[key] == str(value)


def test_sweep_cli_round_trip(tmp_path):
    code = main(["sweep", "--q", "5,3", "--t", "3", "--seed", "2",
                 "--trials", "100", "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    path = tmp_path / "sweep-q3-5-t3-seed2-trials100.report.csv"
    rows = path.read_text().splitlines()
    assert rows[0].startswith("q,t,trials,mean_count")
    assert len(rows) == 3  # header + one row per q


def test_no_command_enumerates_every_line(tmp_path, monkeypatch, capsys):
    # line_table and restriction_tensor are O(q^4)-memory enumerations kept
    # for the oracles; every command must produce the same bytes without them
    import eil.evasive
    import eil.geom3
    import eil.incidence

    argvs = [
        ["construct", "incidence", "--q", "7", "--t", "3", "--seed", "42"],
        ["montecarlo", "--q", "5", "--t", "3", "--seed", "7", "--trials", "150"],
        ["sweep", "--q", "5,7", "--t", "3", "--trials", "100", "--workers", "2"],
    ]

    def outputs(out):
        for argv in argvs:
            assert main(argv + ["--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    expected = outputs(tmp_path / "plain")

    def refuse(*args, **kwargs):
        raise AssertionError("a command enumerated every line")

    for module in (eil.cli, eil.evasive, eil.geom3, eil.incidence):
        monkeypatch.setattr(module, "line_table", refuse)
    monkeypatch.setattr(eil.evasive, "restriction_tensor", refuse)
    assert outputs(tmp_path / "guarded") == expected
    capsys.readouterr()


def test_line_counts_are_projected_only_where_read(tmp_path, monkeypatch, capsys):
    # a montecarlo trial looks the reference line's points up in X0 and X,
    # and construct streams Y's line counts and X's plane counts once each,
    # in the one pass that gives K_{2,t+1}-freeness and the K_tt count
    import eil.geom3
    import eil.incidence

    streamed = []

    def spy(name, stream):
        def spied(q, points):
            streamed.append((name, points.tolist()))
            return stream(q, points)
        return spied

    for name in ("line_counts", "plane_counts"):
        spied = spy(name, getattr(eil.geom3, name))
        for module in (eil.geom3, eil.incidence):
            monkeypatch.setattr(module, name, spied)
    out = ["--out", str(tmp_path)]
    assert main(["montecarlo", "--q", "7", "--t", "3", "--trials", "100", *out]) == 0
    assert streamed == []
    assert main(["construct", "incidence", "--q", "7", "--t", "3", "--seed", "1", *out]) == 0
    c = eil.incidence.build_incidence(7, 3, 1)
    assert streamed == [("line_counts", c.y_set.points.tolist()),
                        ("plane_counts", c.x_set.points.tolist())]
    capsys.readouterr()


def test_a_q13_sweep_trial_makes_13_bincounts(monkeypatch):
    # a step fills up to STEP_BINS counts, so at q = 13 a stream takes 7 + 6
    # d1 values in two pivot-0 steps, not one step per d1 (35 bincounts):
    # X's prune takes 1 step (11 zero directions, all of pivot 0), Y's 2
    # (9 of pivot 0, 1 of pivot 1); Y's line counts 2 + 2; X's plane counts
    # its fold, 2 pivot-0 steps, 2 for pivot 1 and 1 for pivot 2. The joint
    # histogram H takes one more of (t + 2)^2 bins for each of the 4 zipped
    # slices (two of pivot 0, one each of pivots 1 and 2)
    import numpy as np

    from eil.cli import _sweep_trial

    calls = []
    bincount = np.bincount

    def spy(*args, **kwargs):
        calls.append(kwargs.get("minlength") == (3 + 2) ** 2)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    record = _sweep_trial((13, 3, 1, 0))
    monkeypatch.undo()
    assert record["k2_free"] and calls.count(False) == 1 + 2 + 4 + 6
    assert calls.count(True) == 4


@pytest.mark.parametrize("q,t,seed", [(7, 3, 0), (11, 3, 1), (13, 4, 2), (23, 3, 1), (37, 4, 9)])
def test_verify_scans_the_graph_that_construct_certifies(q, t, seed, tmp_path, capsys):
    # construct reports freeness read from the line counts; the K_{2,t+1}
    # scan of verify reads the graph file it wrote and agrees
    assert main(["construct", "incidence", "--q", str(q), "--t", str(t), "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    base = tmp_path / f"incidence-q{q}-t{t}-seed{seed}"
    record = json.loads(Path(f"{base}.report.json").read_text())["trials"][0]
    assert record["k2_free"] and record["freeness_witness"] is None
    capsys.readouterr()
    assert main(["verify", f"{base}.graph.txt", "--s", "2", "--m", str(t + 1)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["aggregates"]["free"] is True
    assert doc["trials"][0]["edge_count"] > 0


def test_sweep_builds_no_graph(tmp_path, monkeypatch, capsys):
    # a sweep trial reads K_{2,t+1}-freeness from the line counts of its two
    # sets (IncidenceConstruction.k2_free): no graph, no subset scan
    argv = ["sweep", "--q", "5,7", "--t", "3", "--trials", "100"]

    def outputs(out):
        assert main(argv + ["--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    expected = outputs(tmp_path / "plain")

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep built or scanned a graph")

    monkeypatch.setattr(BitGraph, "from_biadjacency", refuse)
    monkeypatch.setattr(eil.cli, "is_ksm_free", refuse)
    assert outputs(tmp_path / "guarded") == expected
    capsys.readouterr()


def test_every_traced_cli_name_is_reached(tmp_path, monkeypatch, capsys):
    # perfbench/spans.py times a layer by patching its name on eil.cli, so a
    # command that stops calling through that name reads 0 for the layer;
    # line_table is traced but no command enumerates every line
    names = {attr for owner, attr, *_ in load_spans().call_sites(eil) if owner is eil.cli}
    reached = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(eil.cli, name, counting(name, getattr(eil.cli, name)))
    out = tmp_path / "out"
    for argv in (
        ["construct", "incidence", "--q", "7", "--t", "3", "--out", str(out)],
        ["construct", "furedi", "--q", "7", "--t", "3", "--out", str(out)],
        ["verify", str(out / "furedi-q7-t3.graph.txt"), "--s", "2", "--m", "4"],
        # one worker: the wrapped trial functions cannot be pickled
        ["montecarlo", "--q", "5", "--t", "3", "--trials", "100", "--workers", "1",
         "--out", str(out)],
        ["sweep", "--q", "5,7", "--t", "3", "--trials", "100", "--workers", "1",
         "--out", str(out)],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    missing = names - reached - {"line_table"}
    assert not missing, sorted(missing)


# Functions of src/eil that no command reaches, each with why it stays there.
# A reason that names the benchmark holds only for a name that
# perfbench/spans.py::call_sites patches or perfbench/run.py imports.
UNREACHED = {
    "geom3.line_table": "the benchmark traces it (ROADMAP item 1)",
    "geom3.line_at": "called only by geom3.line_table; moves to tests/oracles.py with it "
                     "(ROADMAP item 1)",
    "evasive.restriction_tensor": "the benchmark traces it (ROADMAP item 1)",
    "report.validate_report": "the benchmark's gate checks every report with it",
    "subgraph.count_biclique_general": "only a Furedi graph that fails its K_{3,t} check",
    "incidence.IncidenceConstruction.graph": "built only for the witness of a construction "
                                             "that is not free, which no command makes",
    "subgraph.BitGraph.from_biadjacency": "called only by IncidenceConstruction.graph; the "
                                          "benchmark traces it (ROADMAP item 1)",
}
RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def benchmark_names() -> set:
    """module.qualname of each eil function that the benchmark patches or imports.

    The benchmark files are loaded and parsed, not changed.
    """
    names = set()
    for owner, attr, *_ in load_spans().call_sites(eil):
        fn = getattr(owner, attr)
        names.add(f"{fn.__module__.removeprefix('eil.')}.{fn.__qualname__}")
    for node in ast.walk(ast.parse(RUN.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eil."):
            names |= {f"{node.module.removeprefix('eil.')}.{a.name}" for a in node.names}
    return names


def test_allowlist_reasons_that_name_the_benchmark_hold():
    names = benchmark_names()
    assert {"geom3.line_table", "subgraph.BitGraph.from_biadjacency",
            "report.validate_report"} <= names
    claimed = {name for name, reason in UNREACHED.items() if "benchmark" in reason}
    assert claimed and not claimed - names, sorted(claimed - names)


def package_functions() -> dict:
    """{module.qualname: code} of every function and method written in src/eil/*.py.

    lru_cache functions are read through __wrapped__, and their caches are
    cleared so that a call made before does not hide the body from a run;
    a cached_property is read through its func.
    The dunders that dataclass generates have no code in the module file
    and are left out.
    """
    found = {}
    for path in Path(eil.__file__).parent.glob("*.py"):
        if path.stem == "__main__":
            continue  # defines no function, and importing it runs the CLI
        module = importlib.import_module(f"eil.{path.stem}")
        members = list(vars(module).values())
        members += [v for c in members if inspect.isclass(c) for v in vars(c).values()]
        for obj in members:
            if isinstance(obj, property):
                obj = obj.fget
            if isinstance(obj, functools.cached_property):
                obj = obj.func
            if isinstance(obj, (classmethod, staticmethod)):
                obj = obj.__func__
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
                obj = obj.__wrapped__
            if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
                found[f"{path.stem}.{obj.__qualname__}"] = obj.__code__
    return found


def test_every_package_function_is_reached_by_a_command(tmp_path, capsys):
    # code that no command calls belongs in tests/oracles.py or nowhere
    out = tmp_path / "out"
    furedi = str(out / "furedi-q13-t4.graph.txt")
    runs = [
        ["construct", "incidence", "--q", "7", "--t", "3", "--out", str(out)],
        ["construct", "incidence", "--q", "7", "--t", "3", "--format", "csv", "--out", str(out)],
        ["construct", "furedi", "--q", "13", "--t", "4", "--out", str(out)],
        ["verify", furedi, "--s", "2", "--m", "5"],
        ["verify", furedi, "--s", "3", "--m", "4"],
        # q = t = 3: no line is pruned, and the reference line is often all zeros
        ["montecarlo", "--q", "3", "--t", "3", "--seed", "7", "--trials", "300",
         "--workers", "1", "--out", str(out)],
        ["sweep", "--q", "5,7", "--t", "3", "--trials", "100", "--workers", "1",
         "--out", str(out)],
    ]
    functions = package_functions()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    outer = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(outer)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    reached = {name for name, code in functions.items() if code in called}
    assert not set(UNREACHED) - set(functions), "an allowlisted name no longer exists"
    assert not set(UNREACHED) & reached, "an allowlisted name is now reached"
    missing = sorted(set(functions) - reached - set(UNREACHED))
    assert not missing, missing


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("q,t,seed,bound_mb", [
    (37, 3, 1, 60), (31, 7, 1, 70), (61, 3, 1, 50), (61, 3, 3, 50), (101, 3, 3, 110),
    pytest.param(109, 3, None, 120, id="furedi-109-3-120")])
def test_construct_incidence_memory(q, t, seed, bound_mb, tmp_path):
    # the zero set is O(q^3) and no array of every line is made: no table
    # of lines or of monomial values is built, which the t = 7 case checks;
    # the line counts of Y and the plane counts of X are streamed one d1 at
    # a time (a q^4-byte array of Y's line counts took q = 61 to 66 and
    # 68 MB). The graph file is written from the |X| x |Y| point-plane
    # product q rows of X at a time, with no BitGraph and no whole file
    # text, which q = 61 and 101 check: with both they peaked at 54 / 58
    # MB and 153 MB, streamed at 44.5 MB and 94 MB. The prune counts X0
    # only on the lines of the zero directions of f's top form, and seed
    # 3 prunes two lines of Y. Freeness is read from the line counts, so
    # no subset scan refuses (101, 3, 3), whose K_{2,4} scan needs 1.03e8
    # keys.
    # seed None runs `construct furedi`, which takes no seed: its graph is
    # built from one line per class in O(q^3/t) memory, not from the n x n
    # product of the classes (336 MB at q = 109), and the key budget of the
    # K_{3,3} scan then refuses it
    kind = ["furedi"] if seed is None else ["incidence", "--seed", str(seed)]
    probe = (
        "import sys\n"
        "from eil.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(status[status.index('VmHWM:') + 1], 'numpy.random' in sys.modules,\n"
        "      file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", probe, "construct", kind[0], "--q", str(q), "--t", str(t),
         *kind[1:], "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    if seed is None:
        assert proc.returncode == 1 and "3-subset scan needs" in proc.stderr, proc.stderr
    else:
        assert proc.returncode == 0, proc.stderr
    peak_kb, numpy_random = proc.stderr.split()[-2:]
    assert numpy_random == "False"  # its import alone adds about 5.6 MB
    peak_mb = int(peak_kb) / 1024  # VmHWM is in kB
    assert peak_mb < bound_mb, (q, t, seed, peak_mb)


def test_cli_import_leaves_out_the_process_pool():
    # only a run with more than one worker imports concurrent.futures
    probe = "import sys, eil.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_commands_leave_out_numpy_ma(tmp_path):
    # numpy.ma (loaded by np.unique and np.intersect1d, among others) adds
    # about 1.8 MB to a run's peak RSS
    probe = (
        "import sys\n"
        "from eil.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['construct', 'incidence', '--q', '7', '--t', '3'],\n"
        "             ['sweep', '--q', '5,7', '--t', '3'],\n"
        "             ['montecarlo', '--q', '5', '--t', '3', '--trials', '100'],\n"
        "             ['construct', 'furedi', '--q', '13', '--t', '4']):\n"
        "    main(argv + ['--out', out])\n"
        "main(['verify', out + '/furedi-q13-t4.graph.txt', '--s', '3', '--m', '4'])\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_commands_leave_out_numpy_random(tmp_path):
    # the sampler makes its own Philox words: importing numpy.random (and
    # OpenSSL through it) would add about 5.6 MB to a run's peak RSS
    probe = (
        "import sys\n"
        "from eil.cli import main\n"
        f"out = {str(tmp_path)!r}\n"
        "for argv in (['construct', 'incidence', '--q', '7', '--t', '3'],\n"
        "             ['construct', 'furedi', '--q', '13', '--t', '4'],\n"
        "             ['verify', out + '/furedi-q13-t4.graph.txt', '--s', '3', '--m', '4'],\n"
        "             ['montecarlo', '--q', '5', '--t', '3', '--trials', '100'],\n"
        "             ['sweep', '--q', '5,7', '--t', '3', '--workers', '1']):\n"
        "    code = main(argv if argv[0] == 'verify' else argv + ['--out', out])\n"
        "    assert code == 0, argv\n"
        "print('numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_package_import_leaves_out_numpy():
    # `python -m eil` imports the package before eil.cli can limit numpy's BLAS threads
    probe = "import sys, eil; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(not os.path.exists("/proc/self/status") or (os.cpu_count() or 1) < 2,
                    reason="reads Threads from /proc; one CPU starts no BLAS pool")
@pytest.mark.parametrize("blas_threads,threads", [(None, 1), ("2", 2)])
def test_cli_process_has_one_blas_thread_unless_the_caller_sets_more(
        tmp_path, blas_threads, threads):
    # a `python -m eil` process, which reports its thread count as it exits
    probe = (
        "import atexit, runpy, sys\n"
        "def threads():\n"
        "    status = open('/proc/self/status').read().split()\n"
        "    print(status[status.index('Threads:') + 1], file=sys.stderr)\n"
        "atexit.register(threads)\n"
        "runpy.run_module('eil', run_name='__main__')\n"
    )
    # this process has imported eil.cli, which sets the variable for its children
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(eil.__file__))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", probe, "construct", "furedi", "--q", "7", "--t", "3",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr.split()[-1]) == threads
