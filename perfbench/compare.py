#!/usr/bin/env python3
"""Compare two results files of perfbench/run.py, metric by metric.

    python3 perfbench/compare.py perfbench/results/OLD.json perfbench/results/NEW.json

Prints new/old for every metric the two files share. Results measured on
different machines (CPU model or core count) are flagged, because their
difference says nothing about the code.
"""

from __future__ import annotations

import json
import sys

MACHINE_KEYS = ("cpu_model", "nproc")
SOFTWARE_KEYS = ("python", "numpy")


def compare(old: dict, new: dict) -> list[str]:
    lines = []
    if old["workload"] != new["workload"]:
        lines.append(f"WARNING: different workloads ({old['workload']} vs {new['workload']})")
    for keys, what in ((MACHINE_KEYS, "machines"), (SOFTWARE_KEYS, "software")):
        diff = [f"{k}: {old['environment'].get(k)!r} vs {new['environment'].get(k)!r}"
                for k in keys if old["environment"].get(k) != new["environment"].get(k)]
        if diff:
            lines.append(f"WARNING: measured on different {what} ({'; '.join(diff)})")
    for name, m in old["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:.3f}x" if a else "n/a"
        lines.append(f"{name:32s} {a:>12.6g} -> {b:>12.6g} {m['unit']:6s} {ratio}")
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    print("\n".join(compare(*docs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
