"""Experiment reports: one schema, deterministic JSON and CSV encodings.

A report holds the run parameters, one record per trial (or per sweep row),
recomputable aggregates, and named pass/fail checks with witnesses. A
report holds no timings (the CLI prints its elapsed time to stderr), so
the serialized bytes are a pure function of the run configuration and
identical configs always produce identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Optional

SCHEMA = "report-v1"

_KINDS = ("incidence", "furedi", "montecarlo", "sweep", "verify")


@dataclass
class StatsReport:
    kind: str
    params: dict
    trials: list[dict]
    aggregates: dict
    checks: list[dict] = field(default_factory=list)
    # rows for the CSV encoding when it is not the per-trial table (the
    # sweep's plotting table lives in aggregates["per_q"])
    csv_rows: Optional[list[dict]] = None

    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "params": self.params,
            "trials": self.trials,
            "aggregates": self.aggregates,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv(self) -> str:
        """Tabular encoding; every cell mirrors the matching JSON field."""
        rows = self.csv_rows if self.csv_rows is not None else self.trials
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            header = list(rows[0].keys())
            writer.writerow(header)
            for rec in rows:
                writer.writerow([_csv_cell(rec[k]) for k in header])
        return out.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format {fmt!r}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return str(value)


def validate_report(doc: dict) -> None:
    """Raise ValueError unless doc is a well-formed report-v1 document."""
    if not isinstance(doc, dict):
        raise ValueError("report must be a JSON object")
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if doc.get("kind") not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {doc.get('kind')!r}")
    for key, typ in (
        ("params", dict),
        ("trials", list),
        ("aggregates", dict),
        ("checks", list),
    ):
        if not isinstance(doc.get(key), typ):
            raise ValueError(f"report key {key!r} must be a {typ.__name__}")
    keys = None
    for i, rec in enumerate(doc["trials"]):
        if not isinstance(rec, dict):
            raise ValueError(f"trial {i} must be an object")
        if keys is None:
            keys = set(rec)
        elif set(rec) != keys:
            raise ValueError(f"trial {i} has a different field set")
    for i, chk in enumerate(doc["checks"]):
        if not isinstance(chk, dict) or "name" not in chk or "passed" not in chk:
            raise ValueError(f"check {i} needs 'name' and 'passed'")
        if not isinstance(chk["passed"], bool):
            raise ValueError(f"check {i} 'passed' must be boolean")

