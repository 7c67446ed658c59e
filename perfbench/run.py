"""sagan's benchmark: drives the `sagan` CLI the way a user does.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each operation runs in a fresh interpreter (perfbench/worker.py), one at a
time, from this single-process closed loop with one client; operations never
share a process, so sagan's in-process memo of computed series cannot carry
over from one to the next. Every pass gets an empty SAGAN_CACHE_DIR inside
the checkout. A run repeats passes of its workload's operations (see
workloads.py) while another pass fits in --seconds, always at least one, and
checks every operation's exit code and stdout digest (expected.json) plus
independent anchors.

--trace 0 reports the end-to-end metrics:
  setup_s      median time to `import sagan.cli` in a fresh interpreter,
               over the interpreters of every operation in the run
  wall_s       median over passes of the summed time inside `cli.main`
  peak_rss_mb  largest max-RSS of any operation's process
--trace 1 runs each pass untraced and then traced and reports the per-layer
metrics of spans.py, plus setup.scipy_import_s (python -X importtime) and
trace.overhead_s (traced minus untraced time inside `cli.main`).

Per-command times (digits.pi_s, bbp_s, search.*_ns_per_digit, cache.*_s,
normality_s, error_rate) are printed above the result line and kept, with
the environment and every operation's record, in a results file under
.bench_results/. compare.py compares two sets of results files.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170
SEARCH_LABELS = ("search.stream", "search.scan")


class Aborted(Exception):
    pass


def environment() -> dict:
    try:
        import gmpy2
        backend = f"gmpy2 {gmpy2.version()}"
    except ImportError:
        backend = "int"
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "backend": backend,
            "nproc": os.cpu_count(), "cpu": cpu}


def scipy_import_s(stderr: str) -> float:
    """scipy's cumulative import time from `python -X importtime` output,
    summed over scipy modules not imported by another scipy module."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(2)), m.group(3), int(m.group(1))))
    total, stack = 0, []
    for depth, name, cumulative in reversed(rows):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not (stack and stack[-1][1]):
            total += cumulative
        stack.append((depth, is_scipy))
    return total / 1e6


class Runner:
    def __init__(self, tmp: Path, expected: dict, deadline: float):
        self.tmp = tmp
        self.expected = expected
        self.deadline = deadline
        self.children = 0
        self.import_s: list[float] = []
        self.maxrss_kb: list[int] = []
        self.records: list[dict] = []   # every operation run, traced or not

    def child(self, argv=(), trace=False, cache_dir=None, python_flags=()):
        self.children += 1
        report_path = self.tmp / f"report-{self.children}.json"
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
                   SAGAN_CACHE_DIR=str(cache_dir or self.tmp / "cache-unused"))
        cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), str(report_path),
               "1" if trace else "0"]
        if argv:
            cmd += ["--", *argv]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Aborted("time limit reached")
        try:
            proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise Aborted(f"`sagan {' '.join(argv)}` passed the time limit") from None
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            report = {"error": f"no report; exit {proc.returncode}; "
                               f"{proc.stderr.decode(errors='replace')[-2000:]}"}
        report_path.unlink(missing_ok=True)
        if "import_s" in report and not python_flags:
            self.import_s.append(report["import_s"])
        if "maxrss_kb" in report:
            self.maxrss_kb.append(report["maxrss_kb"])
        return proc, report

    def op(self, op: workloads.Op, trace: bool, cache_dir: Path) -> dict:
        proc, report = self.child(op.argv, trace, cache_dir)
        out = proc.stdout
        digest = hashlib.sha256(out).hexdigest()
        want = self.expected.get(op.key)
        reason = report.get("error")
        if reason is None and want is None:
            reason = "no recorded digest"
        elif reason is None and (proc.returncode != op.exit or want["exit"] != op.exit):
            reason = f"exit {proc.returncode}, expected {op.exit}"
        elif reason is None and digest != want["sha256"]:
            reason = "stdout digest differs from the recorded one"
        text = out.decode(errors="replace")
        if reason is None and op.check is not None:
            reason = op.check(text)
        examined = re.search(r"digits examined: (\d+)|\((\d+) examined\)", text)
        record = {"label": op.label, "key": op.key, "trace": trace, "exit": proc.returncode,
                  "sha256": digest, "ok": reason is None, "reason": reason,
                  "main_s": report.get("main_s", 0.0), "import_s": report.get("import_s"),
                  "maxrss_kb": report.get("maxrss_kb"),
                  "examined": int(next(g for g in examined.groups() if g)) if examined else 0,
                  "not_traced": report.get("not_traced", []),
                  "spans": report.get("spans")}
        self.records.append(record)
        return record

    def run_pass(self, ops, trace: bool, number: int) -> list[dict]:
        cache_dir = self.tmp / f"cache-{number}-{int(trace)}"
        cache_dir.mkdir()
        return [self.op(op, trace, cache_dir) for op in ops]


def label_metrics(records) -> dict:
    """Per-command times of one pass, named as in the summary lines."""
    sums, examined = {}, {}
    for r in records:
        sums[r["label"]] = sums.get(r["label"], 0.0) + r["main_s"]
        examined[r["label"]] = examined.get(r["label"], 0) + r["examined"]
    out = {}
    for label, total in sums.items():
        if label in SEARCH_LABELS:
            out[f"{label}_ns_per_digit"] = total / max(1, examined[label]) * 1e9
        else:
            out[f"{label}_s"] = total
    return out


def median_of(dicts) -> dict:
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


UNITS = {"peak_rss_mb": "MB", "error_rate": "ratio", "digits.stream.useful_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ns_per_digit"):
        return "ns"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    src = ROOT / "src" / "sagan"
    if not (src / "cli.py").is_file():
        print(f"benchmark: no sagan sources at {src}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    compileall.compile_dir(str(src), quiet=1)  # the build: bytecode inside the checkout
    ops = workloads.build(args.workload, args.seed, probes=bool(args.trace))
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    runner = Runner(tmp, expected, started + HARD_LIMIT_S)
    passes, aborted = [], None
    try:
        deadline = time.monotonic() + args.seconds
        while True:
            began = time.monotonic()
            p = {"untraced": runner.run_pass(ops, False, len(passes))}
            if args.trace:
                p["traced"] = runner.run_pass(ops, True, len(passes))
                proc, _ = runner.child(python_flags=("-X", "importtime"))
                p["scipy_import_s"] = scipy_import_s(proc.stderr.decode(errors="replace"))
                for plain, traced in zip(p["untraced"], p["traced"]):
                    if traced["ok"] and traced["sha256"] != plain["sha256"]:
                        traced["ok"], traced["reason"] = False, "traced stdout differs"
            passes.append(p)
            now = time.monotonic()
            if now + (now - began) > deadline:
                break
    except Aborted as exc:
        aborted = str(exc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    records = runner.records
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = aborted is None and failed == 0 and bool(passes)
    summary, metrics = {}, {}
    if passes:
        walls = [sum(r["main_s"] for r in p["untraced"]) for p in passes]
        summary = median_of([label_metrics(p["untraced"]) for p in passes])
        summary["error_rate"] = failed / max(1, attempted)
        e2e = {"setup_s": statistics.median(runner.import_s),
               "wall_s": statistics.median(walls),
               "peak_rss_mb": max(runner.maxrss_kb) / 1024}
        summary.update(e2e)
        if args.trace:
            layers = []
            for p, wall in zip(passes, walls):
                t = spans.layer_totals([r["spans"] or [] for r in p["traced"]])
                t["setup.scipy_import_s"] = p["scipy_import_s"]
                t["trace.overhead_s"] = sum(r["main_s"] for r in p["traced"]) - wall
                layers.append(t)
            metrics = median_of(layers)
        else:
            metrics = e2e

    for name, value in summary.items():
        print(f"{name:<32} {value:>14.6g} {unit_of(name)}")
    for r in records:
        if not r["ok"]:
            print(f"FAILED {'traced ' if r['trace'] else ''}sagan {r['key']}: {r['reason']}")
    if aborted:
        print(f"ABORTED: {aborted}")
    not_traced = sorted({n for r in records for n in r["not_traced"]})
    if not_traced:
        print(f"not traced, missing from sagan: {', '.join(not_traced)}")

    results = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(), "passes": len(passes),
               "correct": correct, "attempted": attempted, "failed": failed,
               "aborted": aborted, "metrics": metrics, "summary": summary,
               "operations": records}
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (out_dir / name).write_text(json.dumps(results))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
