#!/usr/bin/env python3
"""Benchmark of whole `eil` CLI runs, plus an in-process traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload construct-q23 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, every metric

With --trace 0 each timed command runs as its own cold `python -m eil`
process, one after another (a closed loop with one client): once untimed as
a warm-up, then again and again until --seconds have been measured; the
end-to-end metrics are medians over the timed runs. With --trace 1 the
command runs as above but is timed once, then runs in-process with the layer
spans of perfbench/spans.py, and the per-layer metrics are reported. Every
timed command is a single process. Every run is checked for correctness.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a results file with the environment, every
sample and every problem found goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
PINS = BENCH / "pins.json"
DEFAULT_SEED = 1
# Set-up repeats: at least 3, more while they are cheap, for a steadier median.
SETUP_REPEATS = (3, 9)
SETUP_MIN_TOTAL_S = 2.0
# Every run must end within 180 s; leave room for the traced run and output.
DEADLINE_S = 170.0
FUREDI_GRAPH = "furedi-q31-t3.graph.txt"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
    "setup_s": "s",
}


def relabel_furedi(setup_dir: Path, seed: int) -> None:
    """Write input.graph.txt: the Furedi graph renumbered by a seeded permutation.

    The verify scan visits every vertex triple of a K_{3,3}-free graph, so
    its work does not depend on the labels, but each seed gives new input bytes.
    """
    head, *rows = (setup_dir / FUREDI_GRAPH).read_text().splitlines()
    perm = list(range(int(head.split()[1])))
    random.Random(seed).shuffle(perm)
    edges = sorted(
        tuple(sorted((perm[int(u)], perm[int(v)]))) for u, v in (r.split() for r in rows)
    )
    text = head + "\n" + "".join(f"{u} {v}\n" for u, v in edges)
    (setup_dir / "input.graph.txt").write_text(text)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    trials: int  # trials per timed command, for trials_per_s
    setup_argv: Optional[list[str]] = None
    prepare: Optional[Callable[[Path, int], None]] = None


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "construct-q23",
            lambda seed: ["construct", "incidence", "--q", "23", "--t", "3",
                          "--seed", str(seed), "--out", "."],
            trials=1,
        ),
        Workload(
            "sweep-q11-13",
            lambda seed: ["sweep", "--q", "11,13", "--t", "3", "--seed", str(seed),
                          "--trials", "100", "--workers", "1", "--out", "."],
            trials=200,
        ),
        Workload(
            "verify-furedi-q31",
            lambda seed: ["verify", "../setup/input.graph.txt", "--s", "3", "--m", "3"],
            trials=1,
            setup_argv=["construct", "furedi", "--q", "31", "--t", "3", "--out", "."],
            prepare=relabel_furedi,
        ),
    ]
}


# --- statistics ---------------------------------------------------------------


def tail_percentile(values, min_beyond: int = 10):
    """(p, value) for the highest standard percentile with min_beyond samples above it.

    Nearest-rank percentiles; None when there are too few samples for any.
    """
    xs = sorted(values)
    n = len(xs)
    for permille in (999, 990, 950, 900, 750, 500):
        rank = -(-permille * n // 1000)  # ceil, in exact integer arithmetic
        if rank >= 1 and n - rank >= min_beyond:
            return permille / 10, xs[rank - 1]
    return None


def summarize(values) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail_pct": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
        "n": len(values),
    }


# --- environment --------------------------------------------------------------


def _git(*args) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for row in fh:
                if row.startswith("model name"):
                    return row.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment() -> dict:
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# --- running the program --------------------------------------------------------


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes


def run_cli(argv: list[str], cwd: Path, log: Path, deadline: float) -> Sample:
    """One cold `python -m eil` process; rusage covers it and its reaped workers."""
    env = {k: v for k, v in os.environ.items() if k != "EIL_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "eil", *argv], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, log.read_bytes())


def digests(workdir: Path, stdout: bytes) -> dict[str, str]:
    """SHA-256 of stdout and of every file the setup and the timed command wrote."""
    out = {"stdout": hashlib.sha256(stdout).hexdigest()}
    for sub in ("setup", "run"):
        for path in sorted((workdir / sub).rglob("*")):
            if path.is_file():
                out[path.relative_to(workdir).as_posix()] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
    return out


def check(wl: Workload, workdir: Path, code: int, stdout: bytes, seed: int,
          pins: dict) -> tuple[list[str], dict]:
    """Problems with one run of the timed command, and its output digests."""
    from eil.report import validate_report

    problems = []
    found = digests(workdir, stdout)
    try:
        # verify prints its report; the other commands write one under run/
        if wl.argv(seed)[0] == "verify":
            main_report = stdout
        else:
            (path,) = (workdir / "run").glob("*.report.json")
            main_report = path.read_bytes()
        docs = [json.loads(main_report)]
        docs += [json.loads(p.read_bytes()) for p in (workdir / "setup").glob("*.report.json")]
        for doc in docs:
            validate_report(doc)
        passed = all(c["passed"] for c in docs[0]["checks"])
        if code != (0 if passed else 2):
            problems.append(f"exit code {code} disagrees with the report's checks")
        if not passed:
            problems.append("a report check failed")
        if not all(c["passed"] for doc in docs[1:] for c in doc["checks"]):
            problems.append("a check of the setup's report failed")
    except (ValueError, OSError) as exc:
        problems.append(f"report: {exc}")
    pin = pins.get(wl.name)
    if seed == DEFAULT_SEED:
        if pin is None:
            problems.append("no pinned digests for the default seed")
        else:
            if code != pin["exit"]:
                problems.append(f"exit code {code}, pinned {pin['exit']}")
            bad = sorted(k for k in pin["digests"].keys() | found.keys()
                         if pin["digests"].get(k) != found.get(k))
            if bad:
                problems.append(f"bytes differ from pinned digests: {bad}")
    return problems, found


def reset(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "setup").mkdir(parents=True)
    (workdir / "run").mkdir()


def setup(wl: Workload, workdir: Path, seed: int, deadline: float) -> tuple[float, list[str]]:
    """Prepare the inputs; without a setup command, probe that the CLI imports."""
    reset(workdir)
    start = time.perf_counter()
    s = run_cli(wl.setup_argv or ["--help"], workdir / "setup", workdir / "setup.out", deadline)
    if wl.prepare is not None and s.code == 0:
        wl.prepare(workdir / "setup", seed)
    elapsed = time.perf_counter() - start
    return elapsed, [] if s.code == 0 else [f"setup exited with {s.code}"]


def traced_run(wl: Workload, workdir: Path, seed: int):
    """The workload in this process, with every layer span recorded."""
    import eil.cli

    from spans import Tracer, patched

    reset(workdir)
    tracer = Tracer()
    codes, stdout = [], b""
    here = Path.cwd()
    steps = [] if wl.setup_argv is None else [(wl.setup_argv, "setup")]
    steps.append((wl.argv(seed), "run"))
    try:
        for argv, sub in steps:
            os.chdir(workdir / sub)
            buf = io.StringIO()
            with patched(tracer, eil), contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()), tracer.run():
                codes.append(eil.cli.main(argv))
            if sub == "setup" and wl.prepare is not None:
                wl.prepare(workdir / "setup", seed)
            stdout = buf.getvalue().encode()
    finally:
        os.chdir(here)
    return tracer, codes, stdout


# --- one workload -------------------------------------------------------------


def bench(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    pins = json.loads(PINS.read_text())
    workdir = RESULTS / "work" / wl.name
    attempted = failed = 0
    problems: list[str] = []

    def record(found: list[str], what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{what}: {p}" for p in found)

    setups = []
    least, most = (1, 1) if trace else SETUP_REPEATS
    while len(setups) < least or len(setups) < most and sum(setups) < SETUP_MIN_TOTAL_S:
        took, found = setup(wl, workdir, seed, deadline)
        record(found, "setup")
        setups.append(took)

    reference = None

    def sample(what: str) -> Sample:
        nonlocal reference
        shutil.rmtree(workdir / "run")
        (workdir / "run").mkdir()
        s = run_cli(wl.argv(seed), workdir / "run", workdir / "run.out", deadline)
        found, reference_now = check(wl, workdir, s.code, s.stdout, seed, pins)
        if reference is None:
            reference = reference_now
        elif reference_now != reference:
            found.append("bytes differ between repeated runs")
        record(found, what)
        return s

    # The first run after set-up is checked and gives the reference bytes, but is
    # not timed: the caches it fills are warm for every timed run.
    warmup = sample("warm-up")
    samples: list[Sample] = []
    measure_start = time.perf_counter()

    def more() -> bool:
        if not samples:
            return True
        typical = statistics.median(s.wall for s in samples)
        return (not trace
                and time.perf_counter() - measure_start + typical <= seconds
                and time.monotonic() + 2 * max(s.wall for s in samples) < deadline)

    while more():
        samples.append(sample(f"run {len(samples)}"))

    result = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "argv": wl.argv(seed),
        "environment": environment(),
        "digests": reference,
        "setup_s": setups,
        "warmup_wall_s": warmup.wall,
        "samples": [
            {"wall_s": s.wall, "cpu_s": s.cpu, "peak_rss_mb": s.rss_mb, "exit": s.code}
            for s in samples
        ],
    }
    walls = [s.wall for s in samples]
    if trace:
        from spans import layer_metrics

        tdir = workdir.with_name(wl.name + ".traced")
        tracer, codes, stdout = traced_run(wl, tdir, seed)
        found, traced_digests = check(wl, tdir, codes[-1], stdout, seed, pins)
        if any(codes[:-1]):
            found.append(f"traced setup exited with {codes[:-1]}")
        if traced_digests != reference:
            found.append("traced bytes differ from the untraced run")
        record(found, "traced run")
        traced_wall = tracer.runs[-1][1] - tracer.runs[-1][0]
        metrics = layer_metrics(tracer, traced_wall, statistics.median(walls))
        (RESULTS / f"spans_{wl.name}_seed{seed}.json").write_text(
            json.dumps(tracer.to_json()) + "\n")
    else:
        series = {
            "wall_s": walls,
            "cpu_s": [s.cpu for s in samples],
            "peak_rss_mb": [s.rss_mb for s in samples],
            "trials_per_s": [wl.trials / w for w in walls],
            "setup_s": setups,
        }
        result["summary"] = {k: summarize(v) for k, v in series.items()}
        metrics = {
            k: {"value": result["summary"][k]["median"], "unit": END_TO_END_UNITS[k]}
            for k in series
        }
    result.update(problems=problems, attempted=attempted, failed=failed, metrics=metrics)
    name = f"BENCH_{wl.name}_seed{seed}_trace{int(trace)}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=2) + "\n")
    return result


def describe(result: dict) -> list[str]:
    lines = [f"{result['workload']}:"]
    for name, m in result["metrics"].items():
        extra = ""
        if "summary" in result:
            s = result["summary"][name]
            tail = f"p{s['tail_pct']:g}={s['tail']:.6g}" if s["tail"] is not None else \
                "no percentile with 10 samples beyond it"
            extra = f"  (median of n={s['n']}; {tail})"
        lines.append(f"  {name:32s} {m['value']:>14.6g} {m['unit']}{extra}")
    lines.append(f"  fail_rate {result['failed']}/{result['attempted']}")
    lines.extend(f"  problem: {p}" for p in result["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eil" / "cli.py").is_file():
        print(f"perfbench: no eil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all" and args.trace:
        # traced runs are in-process, so one after another they would share warm caches
        parser.error("--trace 1 needs a single workload")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    RESULTS.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench(WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names]
    for r in results:
        print("\n".join(describe(r)))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
