import concurrent.futures
import csv
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
from eil.report import validate_report
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


def test_verify_can_write_report_file(tmp_path, capsys):
    fixture = tmp_path / "c5.graph.txt"
    g = BitGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    write_graph(g, fixture)
    out = tmp_path / "c5.report.json"
    assert main(["verify", str(fixture), "--s", "2", "--m", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
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
def test_bad_parameters_exit_1(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("EIL_WORKERS", raising=False)
    out = tmp_path / "d"
    assert main(argv + ["--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()  # nothing is created before the parameters pass


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


def test_env_var_worker_default(tmp_path, monkeypatch):
    monkeypatch.setenv("EIL_WORKERS", "2")
    assert main(["montecarlo", "--q", "5", "--t", "3", "--seed", "9",
                 "--trials", "100", "--out", str(tmp_path)]) == 0
    monkeypatch.setenv("EIL_WORKERS", "zebra")
    assert main(["montecarlo", "--q", "5", "--t", "3", "--seed", "9",
                 "--trials", "100", "--out", str(tmp_path)]) == 1


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
UNREACHED = {
    "geom3.line_table": "the benchmark traces it (ROADMAP item 1)",
    "evasive.restriction_tensor": "the benchmark traces it (ROADMAP item 1)",
    "evasive._pow_mod": "restriction_tensor's helper (ROADMAP item 1)",
    "report.validate_report": "the benchmark's gate checks every report with it",
    "subgraph.BitGraph.__eq__": "tests compare builds with ==",
    "evasive.PointSet.__eq__": "tests compare builds with ==",
    "subgraph.count_biclique_general": "only a Furedi graph that fails its K_{3,t} check",
}


def package_functions() -> dict:
    """{module.qualname: code} of every function and method written in src/eil/*.py.

    lru_cache functions are read through __wrapped__, and their caches are
    cleared so that a call made before does not hide the body from a run.
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
        # q = t = 3: the reference line is often all zeros, so top_coefficient runs
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
def test_construct_incidence_q37_memory(tmp_path):
    # the line counts are O(q^4) bytes and the zero set O(q^3): no table of
    # lines or of monomial values is built, which the t = 7 case checks; the
    # |X| x |Y| point-plane product is built in row blocks, which q = 61 checks
    probe = (
        "import sys\n"
        "from eil.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "status = open('/proc/self/status').read().split()\n"
        "print(status[status.index('VmHWM:') + 1], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    for q, t, bound_mb in [(37, 3, 300), (31, 7, 70), (61, 3, 160)]:
        proc = subprocess.run(
            [sys.executable, "-c", probe, "construct", "incidence", "--q", str(q),
             "--t", str(t), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stderr.split()[-1]) / 1024  # VmHWM is in kB
        assert peak_mb < bound_mb, (q, t, peak_mb)


def test_cli_import_leaves_out_the_process_pool():
    # only a run with more than one worker imports concurrent.futures
    probe = "import sys, eil.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eil.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
