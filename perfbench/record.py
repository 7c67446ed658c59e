"""Record expected.json: the exit code and stdout digest of every operation
any seed can run, each checked independently before it is written.

usage: python3 perfbench/record.py

Run it only on a commit whose outputs are known good. Each operation runs
once in a fresh interpreter, as in a benchmark run. On top of the anchors in
workloads.py, `digits` outputs are compared in full with mpmath in both
bases, and every BBP window with mpmath's pi and log 2. Writes nothing if a
check fails.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time

import mpmath

import run
import workloads


def mp_value(constant: str):
    """The constant at mpmath's current working precision."""
    return {"pi": lambda: +mpmath.pi, "e": lambda: +mpmath.e,
            "sqrt2": lambda: mpmath.sqrt(2), "log2": lambda: mpmath.log(2)}[constant]()


def frac_digits(constant: str, base: int, first: int, count: int) -> list[int]:
    """Digits first..first+count-1 of frac(constant) in `base`, by mpmath."""
    last = first + count - 1
    with mpmath.workprec(int(last * mpmath.log(base, 2)) + 64):
        x = mp_value(constant)
        scaled = int(mpmath.floor((x - mpmath.floor(x)) * mpmath.mpf(base) ** last))
    scaled %= base ** count
    out = []
    for _ in range(count):
        scaled, d = divmod(scaled, base)
        out.append(d)
    return out[::-1]


def glyphs(digits) -> str:
    return "".join("0123456789abcdefghijklmnopqrstuvwxyz"[d] for d in digits)


def independent_check(op: workloads.Op, out: str) -> str | None:
    args = dict(zip(op.argv[1::2], op.argv[2::2]))
    if op.argv[0] == "digits":
        constant, base, count = args["--constant"], int(args["--base"]), int(args["--count"])
        if out.strip() != glyphs(frac_digits(constant, base, 1, count)):
            return "digits differ from mpmath"
    if op.argv[0] == "bbp":
        base = 16 if args["--constant"] == "pi" else 2
        want = glyphs(frac_digits(args["--constant"], base, int(args["--position"]), 8))
        if out.split()[0] != want:
            return f"BBP window {out.split()[0]} is not mpmath's {want}"
    return None


def main() -> int:
    tmp = run.ROOT / ".bench_tmp" / "record"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    runner = run.Runner(tmp, {}, time.monotonic() + 3600)
    expected, bad = {}, []
    try:
        for i, op in enumerate(workloads.all_ops()):
            cache_dir = tmp / f"cache-{i}"
            cache_dir.mkdir()
            proc, report = runner.child(op.argv, False, cache_dir)
            out = proc.stdout.decode()
            reason = report.get("error")
            if reason is None and proc.returncode != op.exit:
                reason = f"exit {proc.returncode}, expected {op.exit}"
            reason = reason or (op.check and op.check(out)) or independent_check(op, out)
            print(f"{'ok ' if reason is None else 'BAD'} {report.get('main_s', 0):8.3f}s "
                  f"sagan {op.key}" + (f": {reason}" if reason else ""), flush=True)
            if reason:
                bad.append(op.key)
            expected[op.key] = {"exit": proc.returncode,
                                "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if bad:
        print(f"{len(bad)} operations failed their checks; expected.json not written")
        return 1
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
