"""Spans around calls into sagan's public functions, for the traced pass.

`install` replaces each traced function under every name a sagan module
looks it up by (modules that did `from .digits import int_to_digits` hold
their own reference), so a call made through any of them is recorded.
Spans stay in memory; the worker writes them out once, when the operation
ends. `layer_totals` turns the spans of a pass into per-layer metrics, where
a layer without its own entry point is measured as self time: its span's
duration minus that of its child spans.
"""

from __future__ import annotations

import sys
from time import perf_counter

SERIES = ("pi", "e", "sqrt2", "log2")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end, info]
        self._open: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, open_[-1] if open_ else -1, 0.0, 0.0, None]
            open_.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                open_.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap sagan's layer entry points; returns the names it could not find."""
    from sagan import bbp, cache, digits, normality, search

    functions = [
        (digits, "digits_in_base", lambda a, r: (a[0].kind, len(r))),
        (digits, "int_to_digits", lambda a, r: len(r)),
        (search, "find_first", lambda a, r: r.digits_examined),
        (bbp, "digit_extract_info", lambda a, r: r[1]),
        (cache, "encode", lambda a, r: len(r)),
        (cache, "decode", lambda a, r: len(a[0])),
        (normality, "kgram_counts", lambda a, r: r.samples),
        (normality, "chi_square_uniform", None),
    ]
    methods = [
        (digits.DigitBlock, "__init__", "DigitBlock", lambda a, r: len(a[0])),
        (digits.DigitStream, "next_block", "next_block", lambda a, r: (a[0].source.kind, len(r))),
    ]
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "sagan" or name.startswith("sagan."))]
    missing = []
    for module, name, info in functions:
        original = getattr(module, name, None)
        if original is None:
            missing.append(f"{module.__name__}.{name}")
            continue
        traced = recorder.wrap(name, original, info)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, traced)
    for cls, attr, name, info in methods:
        original = cls.__dict__.get(attr)
        if original is None:
            missing.append(f"{cls.__name__}.{attr}")
            continue
        setattr(cls, attr, recorder.wrap(name, original, info))
    return missing


GUARD_LEVELS = (64, 128, 256)

LAYER_METRICS = (
    "digits.series.self_s", "digits.concat.self_s",
    "digits.radix.s", "digits.radix.digits",
    "digits.block.s", "digits.block.digits",
    "digits.stream.refills", "digits.stream.computed_digits",
    "digits.stream.useful_ratio", "digits.stream.refill_s",
    "digits.stream.next_block.self_s",
    "search.scan.self_s", "search.digits_examined",
    "bbp.extract.s", "bbp.guard_retries",
    "cache.encode_s", "cache.decode_s", "cache.bytes",
    "normality.kgram.s", "normality.kgram.samples", "normality.chi2.s",
    "cli.self_s",
)


def layer_totals(span_lists) -> dict:
    """Per-layer sums over the spans of every operation in one pass."""
    t = dict.fromkeys(LAYER_METRICS, 0)
    consumed = 0
    for spans in span_lists:
        child = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end, info) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            if name == "digits_in_base":
                kind, count = info
                t["digits.series.self_s" if kind in SERIES else "digits.concat.self_s"] += own
                if parent >= 0 and spans[parent][0] == "next_block":
                    t["digits.stream.refills"] += 1
                    t["digits.stream.computed_digits"] += count
                    t["digits.stream.refill_s"] += dur
            elif name == "int_to_digits":
                t["digits.radix.s"] += dur
                t["digits.radix.digits"] += info
            elif name == "DigitBlock":
                t["digits.block.s"] += dur
                t["digits.block.digits"] += info
            elif name == "next_block":
                t["digits.stream.next_block.self_s"] += own
                if info[0] in SERIES:
                    consumed += info[1]
            elif name == "find_first":
                t["search.scan.self_s"] += own
                t["search.digits_examined"] += info
            elif name == "digit_extract_info":
                t["bbp.extract.s"] += dur
                t["bbp.guard_retries"] += GUARD_LEVELS.index(info)
            elif name in ("encode", "decode"):
                t[f"cache.{name}_s"] += dur
                t["cache.bytes"] += info
            elif name == "kgram_counts":
                t["normality.kgram.s"] += dur
                t["normality.kgram.samples"] += info
            elif name == "chi_square_uniform":
                t["normality.chi2.s"] += dur
            elif name == "main":
                t["cli.self_s"] += own
    computed = t["digits.stream.computed_digits"]
    t["digits.stream.useful_ratio"] = consumed / computed if computed else 0.0
    return t
