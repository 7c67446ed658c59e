"""Summarize or compare sets of results files written by run.py.

usage: python3 perfbench/compare.py DIR            summary JSON of DIR's runs
       python3 perfbench/compare.py OLD_DIR NEW_DIR

Each DIR holds results files (.bench_results/*.json). For every workload and
metric, the summary gives the median and quartiles over the runs: under
"untraced" the end-to-end metrics and per-command times, under "traced" the
per-layer metrics. A comparison prints old and new medians side by side; it
is marked INVALID, and exits 1, when the runs do not all share one Python
version and one big-integer backend (gmpy2 or plain int), because then it
compares two different programs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def summarize(runs: list[dict]) -> dict:
    values: dict = {}
    for r in runs:
        if not r["correct"]:
            continue
        kind = "traced" if r["trace"] else "untraced"
        table = values.setdefault(r["workload"], {}).setdefault(kind, {})
        for name, value in (r["metrics"] | ({} if r["trace"] else r["summary"])).items():
            table.setdefault(name, []).append(value)
    out = {}
    for workload, kinds in sorted(values.items()):
        for kind, table in kinds.items():
            for name, vals in sorted(table.items()):
                q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                out.setdefault(workload, {}).setdefault(kind, {})[name] = {
                    "median": statistics.median(vals), "q1": q1, "q3": q3, "runs": len(vals)}
    return out


def environments(runs: list[dict]) -> set:
    return {(r["environment"]["python"], r["environment"]["backend"]) for r in runs}


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        runs = load(argv[0])
        print(json.dumps({"environment": sorted(environments(runs)),
                          "workloads": summarize(runs)}, indent=1))
        return 0
    old_runs, new_runs = load(argv[0]), load(argv[1])
    envs = environments(old_runs) | environments(new_runs)
    old, new = summarize(old_runs), summarize(new_runs)
    for workload in sorted(old.keys() & new.keys()):
        for kind in sorted(old[workload].keys() & new[workload].keys()):
            a, b = old[workload][kind], new[workload][kind]
            for name in sorted(a.keys() & b.keys()):
                m0, m1 = a[name]["median"], b[name]["median"]
                change = f"{(m1 - m0) / m0:+8.1%}" if m0 else "     n/a"
                spread = (a[name]["q3"] - a[name]["q1"]) / m0 if m0 else 0.0
                print(f"{workload:<10} {name:<32} {m0:>12.6g} {m1:>12.6g} {change}"
                      f"  old spread {spread:.1%}")
    if len(envs) > 1:
        print(f"INVALID: runs use different Python versions or backends: {sorted(envs)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
