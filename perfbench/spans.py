"""In-process span tracer and the map from eil call sites to layer spans.

The traced run patches the public functions each caller reaches (the names
as bound in the calling module, since `eil` imports them by name), runs
`eil.cli.main` in this process, and restores every patch afterwards. The
program itself carries no tracing code; spans are recorded only here.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

MB = 1 << 20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: int


@dataclass
class Tracer:
    """Spans and counters kept in memory until the benchmark writes them out."""

    spans: list[Span] = field(default_factory=list)
    runs: list[tuple[float, float]] = field(default_factory=list)
    counts: defaultdict = field(default_factory=lambda: defaultdict(float))
    seen: set = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, len(self.runs)))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    @contextmanager
    def run(self):
        """One top-level program invocation; its wall time is the traced wall."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.runs.append((start, time.perf_counter()))

    def first_time(self, obj) -> bool:
        """True once per cached object, so table sizes are counted per build."""
        key = id(obj)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def to_json(self) -> dict:
        return {
            "runs": [{"run": i, "start": a, "end": b} for i, (a, b) in enumerate(self.runs)],
            "spans": [vars(s) for s in self.spans],
            "counts": dict(self.counts),
        }


def covered(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - covered(children[i], s.start, s.end)
    return out


def unattributed(tracer: Tracer) -> float:
    """Wall time of the traced runs that no span covers."""
    roots = defaultdict(list)
    for s in tracer.spans:
        if s.parent < 0:
            roots[s.run].append((s.start, s.end))
    return sum((b - a) - covered(roots[i], a, b) for i, (a, b) in enumerate(tracer.runs))


# --- counters, called with the traced function's result and arguments -------


def _count_table(tr: Tracer, table, q) -> None:
    if tr.first_time(table):
        arrays = (table.base, table.dir, table.point_idx, table.origin_mask, table.dual_idx)
        tr.counts["geom3.table_bytes"] += sum(a.nbytes for a in arrays)
        tr.counts["geom3.lines"] += len(table)


def _count_tensor(tr: Tracer, tensor, q, t) -> None:
    if tr.first_time(tensor):
        tr.counts["evasive.tensor_bytes"] += tensor.nbytes


def _count_prune(tr: Tracer, out, ctx, f, x0) -> None:
    pruned, vanishing = out
    tr.counts["evasive.vanishing_lines"] += len(vanishing)
    tr.counts["evasive.x0_points"] += x0.count
    tr.counts["evasive.x_points"] += pruned.count


def _count_ktt(tr: Tracer, count, c) -> None:
    tr.counts["incidence.lines_scanned"] += c.q**2 * (c.q**2 + c.q + 1)


def _count_subsets(tr: Tracer, result, graph, s, *rest, **kw) -> None:
    # A scan that found a witness stopped early at an unknown point, so only
    # full scans are counted.
    if result.free:
        groups = [graph.sides[0], graph.sides[1]] if graph.sides else [graph.n]
        tr.counts[f"subgraph.k{s}_subsets"] += sum(math.comb(g, s) for g in groups)


def _count_bytes(tr: Tracer, text, report) -> None:
    tr.counts["report.bytes"] += len(text.encode())


def _scan_name(graph, s, *rest, **kw) -> str:
    return f"subgraph.k{s}_scan"


def call_sites(eil) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name or name function, counter) per traced call site."""
    cli, ev, inc, fu = eil.cli, eil.evasive, eil.incidence, eil.furedi
    return [
        *[(m, "line_table", "geom3.line_table", _count_table) for m in (cli, ev, inc)],
        (ev, "restriction_tensor", "evasive.restriction_tensor", _count_tensor),
        *[(m, "sample_poly", "evasive.sample", None) for m in (cli, inc)],
        *[(m, "zero_set", "evasive.zero_set", None) for m in (cli, inc)],
        *[(m, "prune_bad_lines", "evasive.prune", _count_prune) for m in (cli, inc)],
        (cli, "build_incidence", "incidence.build", None),
        *[(m, "count_ktt_via_lines", "incidence.ktt_count", _count_ktt) for m in (cli, inc)],
        (eil.subgraph.BitGraph, "from_biadjacency", "subgraph.from_biadjacency", None),
        *[(m, "is_ksm_free", _scan_name, _count_subsets) for m in (cli, inc, fu)],
        (cli, "read_graph", "subgraph.parse", None),
        (cli, "graph_to_text", "subgraph.to_text", None),
        (cli, "build_furedi", "furedi.build", None),
        (cli, "verify_appendix", "furedi.verify", None),
        (fu, "count_biclique_general", "subgraph.biclique", None),
        *[(eil.report.StatsReport, a, "report.render", _count_bytes) for a in ("to_json", "to_csv")],
        *[(cli, a, "cli.trial", None) for a in ("_montecarlo_trial", "_sweep_trial")],
    ]


def _traced(tr: Tracer, fn, name, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(name if isinstance(name, str) else name(*args, **kwargs)):
            out = fn(*args, **kwargs)
        if counter is not None:
            counter(tr, out, *args, **kwargs)
        return out

    return wrapper


@contextmanager
def patched(tr: Tracer, eil):
    """Route every call site in call_sites(eil) through tr while active."""
    saved = []
    try:
        for owner, attr, name, counter in call_sites(eil):
            orig = owner.__dict__[attr]
            if isinstance(orig, classmethod):
                new = classmethod(_traced(tr, orig.__func__, name, counter))
            else:
                new = _traced(tr, orig, name, counter)
            saved.append((owner, attr, orig))
            setattr(owner, attr, new)
        yield tr
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, dict]:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    st = defaultdict(float, self_times(tr.spans))
    c = tr.counts
    x0, x = c["evasive.x0_points"], c["evasive.x_points"]
    values = {
        "geom3.line_table_s": (st["geom3.line_table"], "s"),
        "geom3.table_mb": (c["geom3.table_bytes"] / MB, "MB"),
        "geom3.lines": (c["geom3.lines"], "count"),
        "evasive.restriction_tensor_s": (st["evasive.restriction_tensor"], "s"),
        "evasive.tensor_mb": (c["evasive.tensor_bytes"] / MB, "MB"),
        "evasive.sample_s": (st["evasive.sample"], "s"),
        "evasive.zero_set_s": (st["evasive.zero_set"], "s"),
        "evasive.prune_s": (st["evasive.prune"], "s"),
        "evasive.vanishing_lines": (c["evasive.vanishing_lines"], "count"),
        "evasive.points_pruned": (x0 - x, "count"),
        "evasive.keep_ratio": (x / x0 if x0 else 0.0, "ratio"),
        "incidence.build_self_s": (st["incidence.build"], "s"),
        "incidence.ktt_count_s": (st["incidence.ktt_count"], "s"),
        "incidence.lines_scanned": (c["incidence.lines_scanned"], "count"),
        "subgraph.from_biadjacency_s": (st["subgraph.from_biadjacency"], "s"),
        "subgraph.k2_scan_s": (st["subgraph.k2_scan"], "s"),
        "subgraph.k2_subsets": (c["subgraph.k2_subsets"], "count"),
        "subgraph.k3_scan_s": (st["subgraph.k3_scan"], "s"),
        "subgraph.k3_subsets": (c["subgraph.k3_subsets"], "count"),
        "subgraph.parse_s": (st["subgraph.parse"], "s"),
        "subgraph.to_text_s": (st["subgraph.to_text"], "s"),
        "subgraph.biclique_s": (st["subgraph.biclique"], "s"),
        "furedi.build_s": (st["furedi.build"], "s"),
        "furedi.verify_self_s": (st["furedi.verify"], "s"),
        "report.render_s": (st["report.render"], "s"),
        "report.bytes": (c["report.bytes"], "bytes"),
        "cli.trial_s": (st["cli.trial"], "s"),
        # computed: traced in-process wall over the untraced wall of the same command
        "cli.speedup": (traced_wall / untraced_wall, "ratio"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "unattributed_s": (unattributed(tr), "s"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
