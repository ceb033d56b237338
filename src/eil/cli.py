"""Command-line front end: construct, verify, montecarlo, sweep.

construct, montecarlo and sweep share one path: _check rejects bad
parameters, the command returns (report, {path: text}, stdout lines), and
main creates --out, writes each file with _write and prints it, the lines
and the checks. A rejected run creates nothing. verify prints its report.

Exit codes: 0 success, 1 parameter/validation error, 2 an acceptance-style
check failed, 3 I/O or parse error. Outputs are byte-identical across
reruns of the same configuration regardless of worker count: every trial
owns the seed base_seed + trial_index, results are merged in trial order,
and serialized reports carry no volatile fields (durations go to stderr).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .errors import GraphFormatError, ParameterError
from .evasive import (
    REFERENCE_LINE,
    exact_probabilities,
    prune_bad_lines,
    sample_poly,
    top_coefficient,
    zero_set,
)
from .furedi import build_furedi, classes_to_text, verify_appendix
from .geom3 import line_points
from .geom3 import line_table  # noqa: F401  (perfbench/spans.py traces this name)
from .gf import check_field
from .incidence import build_incidence, count_ktt_via_lines, verify_construction
from .report import StatsReport
from .subgraph import graph_to_text, is_ksm_free, read_graph

WORKERS_ENV = "EIL_WORKERS"


def _run_indexed(fn, argslist, workers: int) -> list:
    """Map fn over argslist in order, with at most one process per item and per CPU."""
    workers = min(workers, len(argslist), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(a) for a in argslist]
    # imported here: the process pool costs every run about 15 ms and 1.5 MB
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(argslist) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, argslist, chunksize=chunk))


def _montecarlo_trial(args: tuple[int, int, int, int]) -> dict:
    q, t, base_seed, index = args
    f = sample_poly(q, t, base_seed + index)
    x0 = zero_set(q, f)
    pruned, vanishing = prune_bad_lines(q, f, x0)
    ref_points = line_points(q, REFERENCE_LINE.base, REFERENCE_LINE.dir)
    ref_count = int(x0.member[ref_points].sum())
    # f restricts to the zero polynomial on the line iff it is zero at all q
    # points and its s^t coefficient is 0: for t < q a zero function of
    # degree <= t is the zero polynomial, for t = q it is c * (s^q - s)
    ref_vanished = ref_count == q and top_coefficient(f, REFERENCE_LINE.dir) == 0
    removed = x0.member & ~pruned.member
    return {
        "trial": index,
        "seed": base_seed + index,
        "x0_size": x0.count,
        "x_size": pruned.count,
        "vanishing_lines": len(vanishing),
        "ref_count_x0": ref_count,
        "ref_exact_t": ref_count == t,
        "ref_vanished": ref_vanished,
        "ref_bad": bool(removed[ref_points].any()),
        "binom_stat": math.comb(ref_count, t),
    }


def _z_against(rate: float, p: float, n: int) -> float:
    return (rate - p) / math.sqrt(p * (1 - p) / n)


def run_montecarlo(q: int, t: int, seed: int, trials: int, workers: int = 1) -> StatsReport:
    """Per-line statistics of the unpruned zero set over seeded trials.

    z-scores compare empirical rates for the fixed reference line against
    the closed-form targets; the rate checks use the binomial standard
    error at the target rate, the mean statistic uses its sample standard
    error, or the largest one its range allows when the sample has no
    spread. The bad-line rate is checked against twice the first-moment
    bound (q^3+q^2+1) * q^-(t+1).
    """
    exact = exact_probabilities(q, t)
    records = _run_indexed(
        _montecarlo_trial, [(q, t, seed, i) for i in range(trials)], workers
    )
    n = len(records)
    exact_t_rate = sum(r["ref_exact_t"] for r in records) / n
    vanish_rate = sum(r["ref_vanished"] for r in records) / n
    bad_rate = sum(r["ref_bad"] for r in records) / n
    stats = np.array([r["binom_stat"] for r in records], dtype=np.float64)
    binom_mean = float(stats.mean())
    binom_std = float(stats.std(ddof=1))
    z_exact = _z_against(exact_t_rate, exact.p_exact_t, n)
    z_vanish = _z_against(vanish_rate, exact.p_vanish, n)
    if binom_std > 0:
        binom_se = binom_std / math.sqrt(n)
    else:
        # No spread to estimate from (at t = q every statistic is usually
        # 0): use the largest standard deviation that a statistic in
        # [0, C(q,t)] with mean e_binom can have, which for t = q is the
        # Bernoulli error of the rate checks.
        top = math.comb(q, t)
        binom_se = math.sqrt(exact.e_binom * (top - exact.e_binom) / n)
    z_binom = (binom_mean - exact.e_binom) / binom_se
    bad_bound = 2 * (q**3 + q**2 + 1) / q ** (t + 1)
    checks = [
        {"name": "exact_t_rate_z", "passed": abs(z_exact) <= 3.0,
         "rate": exact_t_rate, "target": exact.p_exact_t, "z": z_exact},
        {"name": "vanish_rate_z", "passed": abs(z_vanish) <= 3.0,
         "rate": vanish_rate, "target": exact.p_vanish, "z": z_vanish},
        {"name": "binomial_mean_z", "passed": abs(z_binom) <= 3.0,
         "mean": binom_mean, "target": exact.e_binom, "z": z_binom},
        {"name": "bad_rate_bound", "passed": bad_rate <= bad_bound,
         "rate": bad_rate, "bound": bad_bound},
    ]
    return StatsReport(
        kind="montecarlo",
        params={"q": q, "t": t, "seed": seed, "trials": trials},
        trials=records,
        aggregates={
            "exact_t_rate": exact_t_rate,
            "exact_t_se": math.sqrt(exact.p_exact_t * (1 - exact.p_exact_t) / n),
            "vanish_rate": vanish_rate,
            "vanish_se": math.sqrt(exact.p_vanish * (1 - exact.p_vanish) / n),
            "bad_rate": bad_rate,
            "binom_mean": binom_mean,
            "binom_std": binom_std,
            "binom_mean_se": binom_std / math.sqrt(n),
            "p_exact_t": exact.p_exact_t,
            "p_vanish": exact.p_vanish,
            "e_binom": exact.e_binom,
        },
        checks=checks,
    )


def _sweep_trial(args: tuple[int, int, int, int]) -> dict:
    q, t, base_seed, index = args
    c = build_incidence(q, t, base_seed + index)
    count = count_ktt_via_lines(c)
    freeness = is_ksm_free(c.graph, 2, t + 1)
    n = c.n
    return {
        "q": q,
        "trial": index,
        "seed_x": c.seed_x,
        "seed_y": c.seed_y,
        "n": n,
        "x_size": c.x_set.count,
        "y_size": c.y_set.count,
        "ktt_count": count,
        "k2_free": freeness.free,
        "upper_bound_ok": count <= math.comb(n, 2),
        "ratio_count_n2": count / (n * n) if n else 0.0,
    }


def log_log_slope(qs: list[int], means: list[float]) -> float | None:
    """Least-squares slope of log(mean) against log(q)."""
    if any(m <= 0 for m in means):
        return None
    xs = np.log(np.asarray(qs, dtype=np.float64))
    ys = np.log(np.asarray(means, dtype=np.float64))
    xc = xs - xs.mean()
    return float((xc * (ys - ys.mean())).sum() / (xc * xc).sum())


def run_sweep(qs: list[int], t: int, seed: int, trials: int, workers: int = 1) -> StatsReport:
    """Mean K_{t,t} counts per q, ratios to n^2 and q^4, log-log slope."""
    qs = sorted(set(qs))
    args = [(q, t, seed, i) for q in qs for i in range(trials)]
    records = _run_indexed(_sweep_trial, args, workers)
    per_q = []
    means = []
    for q in qs:
        recs = [r for r in records if r["q"] == q]
        counts = np.array([r["ktt_count"] for r in recs], dtype=np.float64)
        mean_count = float(counts.mean())
        means.append(mean_count)
        per_q.append({
            "q": q,
            "t": t,
            "trials": len(recs),
            "mean_count": mean_count,
            "mean_count_se": float(counts.std(ddof=1) / math.sqrt(len(recs))),
            "min_count": int(counts.min()),
            "max_count": int(counts.max()),
            "mean_n": sum(r["n"] for r in recs) / len(recs),
            "mean_ratio_count_n2": sum(r["ratio_count_n2"] for r in recs) / len(recs),
            "count_over_q4": mean_count / q**4,
            "all_free": all(r["k2_free"] for r in recs),
        })
    slope = log_log_slope(qs, means)
    checks = [
        {"name": "all_trials_k2_free", "passed": all(r["k2_free"] for r in records)},
        {"name": "all_counts_at_most_n_choose_2",
         "passed": all(r["upper_bound_ok"] for r in records)},
    ]
    return StatsReport(
        kind="sweep",
        params={"q_values": qs, "t": t, "seed": seed, "trials": trials},
        trials=records,
        aggregates={"per_q": per_q, "log_log_slope": slope},
        checks=checks,
        csv_rows=per_q,
    )


def cmd_construct(args) -> tuple[StatsReport, dict, list[str]]:
    q, t, ext = args.q, args.t, args.format
    if args.kind == "incidence":
        c = build_incidence(q, t, args.seed)
        report = verify_construction(c)
        base = Path(args.out) / f"incidence-q{q}-t{t}-seed{args.seed}"
        files = {
            f"{base}.graph.txt": graph_to_text(c.graph),
            f"{base}.x.txt": c.x_set.to_text(),
            f"{base}.y.txt": c.y_set.to_text(),
            f"{base}.report.{ext}": report.render(ext),
        }
    else:
        g = build_furedi(q, t)
        report = verify_appendix(g)
        base = Path(args.out) / f"furedi-q{q}-t{t}"
        files = {
            f"{base}.graph.txt": graph_to_text(g.graph),
            f"{base}.classes.txt": classes_to_text(g),
            f"{base}.report.{ext}": report.render(ext),
        }
    return report, files, []


def cmd_montecarlo(args) -> tuple[StatsReport, dict, list[str]]:
    report = run_montecarlo(args.q, args.t, args.seed, args.trials, args.workers)
    path = Path(args.out) / (
        f"montecarlo-q{args.q}-t{args.t}-seed{args.seed}-trials{args.trials}"
        f".report.{args.format}"
    )
    lines = [f"{key} = {value}" for key, value in report.aggregates.items()]
    return report, {path: report.render(args.format)}, lines


def cmd_sweep(args) -> tuple[StatsReport, dict, list[str]]:
    report = run_sweep(args.q, args.t, args.seed, args.trials, args.workers)
    qtag = "-".join(map(str, report.params["q_values"]))
    path = Path(args.out) / (
        f"sweep-q{qtag}-t{args.t}-seed{args.seed}-trials{args.trials}.report.{args.format}"
    )
    lines = [
        f"q={row['q']} mean_count={row['mean_count']:.3f} "
        f"count/q^4={row['count_over_q4']:.5f} all_free={row['all_free']}"
        for row in report.aggregates["per_q"]
    ]
    lines.append(f"log_log_slope = {report.aggregates['log_log_slope']}")
    return report, {path: report.render(args.format)}, lines


def cmd_verify(args) -> int:
    """Prints the report JSON and writes --out if given; no other output."""
    graph = read_graph(args.path)
    result = is_ksm_free(graph, args.s, args.m, force=args.force)
    witness = list(map(list, result.witness)) if result.witness else None
    report = StatsReport(
        kind="verify",
        params={"path": str(args.path), "s": args.s, "m": args.m},
        trials=[{"trial": 0, "n": graph.n, "edge_count": graph.edge_count(),
                 "free": result.free, "witness": witness}],
        aggregates={"free": result.free},
        checks=[{"name": f"k_{args.s}_{args.m}_free", "passed": result.free,
                 "witness": witness}],
    )
    sys.stdout.write(report.to_json())
    if args.out:
        _write(args.out, report.render(args.format))
    return 0 if result.free else 2


COMMANDS = {"construct": cmd_construct, "montecarlo": cmd_montecarlo, "sweep": cmd_sweep}


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eil",
        description="Construct and verify evasive-set incidence graphs and Furedi graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--t", type=int, required=True)
        if seed:
            p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", default=".")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def trial_options(p, trials_default):
        p.add_argument("--trials", type=int, default=trials_default)
        p.add_argument("--workers", type=int, default=None)

    p_construct = sub.add_parser("construct", help="build a graph and verify it")
    kinds = p_construct.add_subparsers(dest="kind", required=True)
    p_incidence = kinds.add_parser("incidence", help="incidence graph of two evasive sets")
    p_incidence.add_argument("--q", type=int, required=True)
    common(p_incidence)
    p_furedi = kinds.add_parser("furedi", help="Furedi's orbit graph (no randomness)")
    p_furedi.add_argument("--q", type=int, required=True)
    common(p_furedi, seed=False)

    p_verify = sub.add_parser("verify", help="K_{s,m}-freeness of a graph file")
    p_verify.add_argument("path")
    p_verify.add_argument("--s", type=int, required=True)
    p_verify.add_argument("--m", type=int, required=True)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--force", action="store_true", help="scan past the key budget")

    p_mc = sub.add_parser("montecarlo", help="per-line statistics of the zero set")
    p_mc.add_argument("--q", type=int, required=True)
    common(p_mc)
    trial_options(p_mc, 1000)

    p_sweep = sub.add_parser("sweep", help="mean K_{t,t} counts across several q")
    p_sweep.add_argument("--q", required=True, help="comma-separated list, e.g. 7,11,13")
    common(p_sweep)
    trial_options(p_sweep, 100)
    return parser


def _check(args) -> None:
    """Reject the parameters of construct, montecarlo or sweep before any work.

    The one check of these parameters: the functions the commands call
    trust them. Parses the sweep's q list into args.q and reads
    args.workers from EIL_WORKERS when not given (default 1). An option a
    command does not take is absent from args and not checked.
    """
    if args.command == "sweep":
        try:
            args.q = [int(v) for v in args.q.split(",") if v != ""]
        except ValueError as exc:
            raise ParameterError(f"bad q list {args.q!r}") from exc
    if "workers" in args and args.workers is None:
        env = os.environ.get(WORKERS_ENV, "1")
        try:
            args.workers = int(env)
        except ValueError as exc:
            raise ParameterError(f"{WORKERS_ENV} must be an integer, got {env!r}") from exc
    qs = args.q if args.command == "sweep" else [args.q]
    for q in qs:
        check_field(q)
    if getattr(args, "kind", None) == "furedi":
        if args.t < 2:
            raise ParameterError(f"t must be >= 2, got {args.t}")
        if (args.q - 1) % args.t != 0:
            raise ParameterError(f"t = {args.t} does not divide q - 1 = {args.q - 1}")
    else:
        if args.t < 3:
            raise ParameterError(f"t must be >= 3, got {args.t}")
        for q in qs:
            if args.t > q:
                raise ParameterError(f"t = {args.t} exceeds q = {q}")
    if "trials" in args and args.trials < 100:
        raise ParameterError(f"trials must be >= 100, got {args.trials}")
    if args.command == "sweep" and len(set(qs)) < 2:
        raise ParameterError("sweep needs at least 2 distinct q values")
    if "seed" in args and args.seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {args.seed}")
    if "workers" in args and args.workers < 1:
        raise ParameterError(f"workers must be >= 1, got {args.workers}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    started = time.monotonic()
    try:
        if args.command == "verify":
            code = cmd_verify(args)
        else:
            _check(args)
            report, files, lines = COMMANDS[args.command](args)
            Path(args.out).mkdir(parents=True, exist_ok=True)
            for path, text in files.items():
                _write(path, text)
                print(f"wrote {path}")
            for line in lines:
                print(line)
            for chk in report.checks:
                print(f"[{'PASS' if chk['passed'] else 'FAIL'}] {chk['name']}")
            code = 0 if report.all_passed() else 2
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
