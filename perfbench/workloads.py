"""The sagan CLI operations each workload runs, in order, and their checks.

Seed 0 gives the inputs listed here. Any other seed only moves choices that
keep the amount of work fixed: the BBP positions (within 1% of 10**5) and the
digit classes of the Champernowne scan, which are never matched, so the scan
always runs to its limit.

In a traced run, every workload also runs a few small probe operations (a
short pi search, a short normality scan, a small cache miss and hit, a BBP
extraction at position 1000) for the commands it does not focus on, in both
its untraced and its traced passes. They take a few percent of its time and
make every layer show up on every workload, so no per-layer time is a
constant zero. Untraced runs leave them out.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable

SERIES = ("pi", "e", "sqrt2", "log2")
BBP_POSITIONS = tuple(range(99000, 101001, 125))
# (circle digit, background digit) pairs that the n=4 circle never matches in
# the first 2*10**6 digits of Champernowne's constant; record.py checks them
SCAN_CLASSES = ((2, 3), (4, 5), (6, 7), (8, 9), (3, 1), (5, 2), (7, 4), (9, 6))
SCAN_LIMIT = 2_000_000


@dataclass(frozen=True)
class Op:
    label: str                      # metric group, e.g. "digits.pi", "search.scan"
    argv: tuple                     # arguments of the `sagan` command
    exit: int = 0                   # expected exit code; 1 is "not found"
    check: Callable[[str], str | None] | None = None  # returns a failure reason

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _first_line(expected: str):
    def check(out: str):
        line = out.split("\n", 1)[0]
        if not line.startswith(expected):
            return f"first line {line!r} does not start with {expected!r}"
        return None
    return check


_MP_DIGITS = 2000


def _mpmath_prefix(constant: str):
    """Compare the first digits of a base-10 `digits` output with mpmath."""
    def check(out: str):
        import mpmath
        with mpmath.workdps(_MP_DIGITS + 20):
            value = {"pi": mpmath.pi, "e": mpmath.e, "sqrt2": mpmath.sqrt(2),
                     "log2": mpmath.log(2)}[constant]
            frac = value - mpmath.floor(value)
            want = str(int(mpmath.floor(frac * mpmath.mpf(10) ** _MP_DIGITS))).zfill(_MP_DIGITS)
        got = out.strip()[:_MP_DIGITS]
        if got != want[:len(got)]:
            return f"{constant} digits differ from mpmath"
        return None
    return check


def _chi2(k1: int, k2: int):
    def check(out: str):
        rows = re.findall(r"^\s+([12])\s+\d+\s+\d+\s+([\d.]+)", out, re.M)
        stats = {int(k): float(v) for k, v in rows}
        if abs(stats.get(1, -9) - k1) >= 1 or abs(stats.get(2, -9) - k2) >= 1:
            return f"chi2 {stats} is not ({k1}, {k2})"
        return None
    return check


def digits(constant: str, base: int, count: int, cache: bool = False, label=None) -> Op:
    argv = ("digits", "--constant", constant, "--base", str(base), "--count", str(count))
    check = _mpmath_prefix(constant) if base == 10 and constant in SERIES else None
    return Op(label or f"digits.{constant}", argv + (("--cache",) if cache else ()), 0, check)


def bbp(constant: str, position: int) -> Op:
    check = _first_line("535ea16c") if (constant, position) == ("pi", 100000) else None
    return Op("bbp", ("bbp", "--constant", constant, "--position", str(position)), 0, check)


def search(label: str, constant: str, base: int, n: int, limit: int, classes=None,
           exit: int = 0, check=None) -> Op:
    argv = ("search", "--constant", constant, "--base", str(base), "-n", str(n))
    if classes is not None:
        argv += ("--circle-digits", classes[0], "--background-digits", classes[1])
    return Op(label, argv + ("--limit", str(limit)), exit, check)


def normality(length: int, check=None) -> Op:
    return Op("normality", ("normality", "--constant", "champernowne10",
                            "--length", str(length), "--kmax", "2"), 0, check)


S10_PI = search("search.stream", "pi", 10, 2, 20000, check=_first_line("position 12700 "))
PROBES = {
    "search": [S10_PI],
    "normality": [normality(100000)],
    "cache": [digits("sqrt2", 10, 10000, cache=True, label="cache.miss"),
              digits("sqrt2", 10, 10000, cache=True, label="cache.hit")],
    "bbp": [bbp("pi", 1000)],
}


def build(workload: str, seed: int, probes: bool = False) -> list[Op]:
    """Operations of one pass of `workload` for `seed`, in run order."""
    rng = random.Random(seed)
    pi_pos = log2_pos = 100000
    scan_classes = None
    if seed != 0:
        pi_pos, log2_pos = rng.choice(BBP_POSITIONS), rng.choice(BBP_POSITIONS)
        a, b = rng.choice(SCAN_CLASSES)
        scan_classes = (str(a), str(b))
    if workload == "constants":
        ops = [digits(c, base, 10 ** 4 if c == "log2" else 10 ** 5)
               for c in SERIES for base in (10, 11)]
        ops += [bbp("pi", pi_pos), bbp("log2", log2_pos)]
        probed = ("search", "normality", "cache")
    elif workload == "search":
        ops = [
            S10_PI,
            search("search.stream", "pi", 11, 2, 100000, check=_first_line("position 5627 ")),
            search("search.stream", "pi", 10, 3, 100000, exit=1),
            search("search.stream", "e", 10, 4, 200000, ("1,3,5,7,9", "0,2,4,6,8"),
                   check=_first_line("position 113732 ")),
            search("search.scan", "champernowne10", 10, 4, SCAN_LIMIT, scan_classes, exit=1),
        ]
        probed = ("normality", "cache", "bbp")
    elif workload == "digit-io":
        ops = [
            digits("pi", 10, 100000, cache=True, label="cache.miss"),
            digits("pi", 10, 100000, cache=True, label="cache.hit"),
            normality(1000000, check=_chi2(72520, 154218)),
        ]
        probed = ("search", "bbp")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if probes:
        ops += [op for name in probed for op in PROBES[name]]
    return ops


WORKLOADS = ("constants", "search", "digit-io")


def all_ops() -> list[Op]:
    """Every distinct operation any seed can run, for recording digests."""
    ops = {}
    for workload in WORKLOADS:
        for op in build(workload, 0, probes=True):
            ops[op.key] = op
    for pos in BBP_POSITIONS:
        for constant in ("pi", "log2"):
            op = bbp(constant, pos)
            ops[op.key] = op
    for a, b in SCAN_CLASSES:
        op = search("search.scan", "champernowne10", 10, 4, SCAN_LIMIT, (str(a), str(b)), exit=1)
        ops[op.key] = op
    return list(ops.values())
