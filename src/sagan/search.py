"""Streaming first-occurrence search for digital n-circle patterns,
plus the expected-position and CPU-cost estimators.

Matching runs over the flattened 1-D digit string; the square raster view
of a matched window is a rendering concern. A matcher compiles the runs of
equal bytes in a raster to one regex of byte classes; the leftmost match of
that fixed-length pattern is the minimal anchor.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, chain, groupby, repeat
from math import prod
from operator import itemgetter

from .digits import DigitBlock, DigitStream
from .errors import BaseMismatch, BaseTooSmall, DigitOutOfRange, LimitTooSmall
from .raster import GeneralizedPattern, RasterPattern

# big-decimal context: magnitudes like 11**2048 need huge exponents
_CTX = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)

CONTEXT_WIDTH = 12  # digits of context each side of a match: find_first and `sagan search`
NANOSECONDS_PER_YEAR = Decimal("3.2E+16")
UNIVERSE_AGE_YEARS = Decimal("1.35E+10")


def _byte_class(digits: frozenset) -> bytes:
    """Regex for one byte in `digits`: hex escapes, runs as ranges."""
    runs: list[list[int]] = []
    for d in sorted(digits):
        if runs and runs[-1][1] == d - 1:
            runs[-1][1] = d
        else:
            runs.append([d, d])
    body = b"".join(b"\\x%02x" % lo if lo == hi else b"\\x%02x-\\x%02x" % (lo, hi)
                    for lo, hi in runs)
    return body if len(digits) == 1 else b"[" + body + b"]"


class CompiledMatcher:
    """Admissible digit sets as `runs` of (set, count), equal neighbours
    merged, which `admits` checks slice by slice and `admissible` expands per
    position on first read, and `regex`, which matches a window of digits
    exactly when every digit is admissible: a class per run, [P]{k}."""

    __slots__ = ("base", "runs", "length", "regex", "_admissible")

    def __init__(self, base: int, runs):
        runs = [(frozenset(int(d) for d in s), count) for s, count in runs]
        for s, _ in runs:
            if not s:
                raise ValueError("admissible sets must be non-empty")
            if any(d < 0 or d >= base for d in s):
                raise BaseTooSmall(f"digit set {sorted(s)} not representable in base {base}")
        if not runs:
            raise ValueError("matcher needs at least one position")
        self.base = base
        self.runs = tuple((s, sum(count for _, count in group))
                          for s, group in groupby(runs, itemgetter(0)))
        self.length = sum(count for _, count in self.runs)
        self.regex = re.compile(b"".join(
            _byte_class(s) + (b"{%d}" % k if k > 1 else b"") for s, k in self.runs))
        self._admissible = None

    @property
    def admissible(self) -> tuple[frozenset, ...]:
        if self._admissible is None:
            self._admissible = tuple(chain.from_iterable(
                repeat(s, count) for s, count in self.runs))
        return self._admissible

    def admits(self, window) -> bool:
        if len(window) != self.length:
            return False
        ends = accumulate(count for _, count in self.runs)
        return all(s.issuperset(window[end - count:end])
                   for (s, count), end in zip(self.runs, ends))


def compile(pattern, base: int) -> CompiledMatcher:
    """Compile a GeneralizedPattern into a matcher, run by run; a RasterPattern
    is the plain circle, GeneralizedPattern(shape)."""
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    if isinstance(pattern, RasterPattern):
        pattern = GeneralizedPattern(pattern)
    elif not isinstance(pattern, GeneralizedPattern):
        raise TypeError(f"cannot compile {type(pattern).__name__}")
    if base <= pattern.max_digit:
        raise BaseTooSmall(f"base {base} <= max digit {pattern.max_digit} of P and Q")
    sets, data = (pattern.background_set, pattern.circle_set), pattern.shape.data
    return CompiledMatcher(base, ((sets[data[m.start()]], m.end() - m.start())
                                  for m in re.finditer(rb"\x00+|\x01+", data)))


@dataclass(frozen=True)
class SearchResult:
    found: bool
    position: int | None
    window: DigitBlock | None
    context_before: tuple
    context_after: tuple
    digits_examined: int
    limit: int
    base: int


def find_first(stream: DigitStream, matcher: CompiledMatcher, limit: int,
               context_width: int = CONTEXT_WIDTH) -> SearchResult:
    """Smallest anchor p with digits p..p+len-1 all admissible, among the
    first `limit` digits from the stream's cursor, in the stream's positions.

    Reserves the `limit` + `context_width` digits it can read and reads no
    more: blocks go into one buffer, the last read stops at the limit, and
    after each read one regex search covers the anchors whose windows the
    buffer now holds. Between reads the buffer keeps only the last
    len - 1 + context_width digits, for the next window and its context.
    """
    if stream.base != matcher.base:
        raise BaseMismatch(
            f"stream base {stream.base} != matcher base {matcher.base}")
    length = matcher.length
    if limit < length:
        raise LimitTooSmall(f"limit {limit} < window length {length}")
    if context_width < 0:
        raise ValueError("context width must be >= 0")

    stream.reserve(limit + context_width)
    search = matcher.regex.search
    start = stream.cursor
    stop = start + limit          # first position past the limit
    buf, first = bytearray(), start  # buf[0] is the digit at position `first`
    anchor = start                # smallest anchor not yet searched
    hit = None
    while hit is None and first + len(buf) < stop:
        keep = max(first, anchor - context_width)
        del buf[:keep - first]
        first = keep
        left = stop - first - len(buf)
        buf += (stream.next_block() if left >= stream.block_size else stream.take(left)).data
        m = search(buf, anchor - first)
        if m is not None:
            hit = first + m.start()
        anchor = max(anchor, first + len(buf) - length + 1)

    if hit is None:
        return SearchResult(False, None, None, (), (), limit, limit, matcher.base)

    i = hit - first
    buf += stream.take(max(0, i + length + context_width - len(buf))).data
    window = DigitBlock(matcher.base, hit, buf[i:i + length])
    before = tuple(buf[max(0, i - context_width):i])
    after = tuple(buf[i + length:i + length + context_width])
    examined = hit + length - start
    return SearchResult(True, hit, window, before, after, examined, limit, matcher.base)


def find_digit(stream: DigitStream, digit: int, limit: int) -> SearchResult:
    """First position of a single digit; a length-1 matcher."""
    if not 0 <= digit < stream.base:
        raise DigitOutOfRange(f"digit {digit} not valid in base {stream.base}")
    matcher = CompiledMatcher(stream.base, [(frozenset((digit,)), 1)])
    return find_first(stream, matcher, limit)


# ---------------------------------------------------------------------------
# estimators

def expected_position(base: int, window_length: int) -> Decimal:
    """base**window_length as a Decimal rounded to 40 significant digits."""
    if base < 2:
        raise BaseTooSmall(f"base {base} < 2")
    if window_length < 1:
        raise ValueError("window_length must be >= 1")
    try:
        return _CTX.power(Decimal(base), window_length)
    except decimal.Overflow:
        raise ValueError(f"base**window_length is at least 10**{_CTX.Emax + 1}, "
                         "past decimal.MAX_EMAX") from None


def class_frequency_gain(matcher: CompiledMatcher) -> int:
    """Number of distinct windows the matcher admits: the expected-frequency
    multiplier versus a plain pattern under a uniform digit model."""
    return prod(len(s) ** count for s, count in matcher.runs)


@dataclass(frozen=True)
class CostEstimate:
    expected_digits: Decimal
    cpu_seconds: Decimal
    cpu_years: Decimal
    universe_age_multiples: Decimal


def _as_decimal(value) -> Decimal:
    if isinstance(value, Decimal):
        return value
    if isinstance(value, Fraction):
        return _CTX.divide(Decimal(value.numerator), Decimal(value.denominator))
    if isinstance(value, int):
        return Decimal(value)
    return Decimal(str(value))


def cost_estimate(expected_digits, ns_per_digit=1) -> CostEstimate:
    """CPU time to examine `expected_digits` digits at `ns_per_digit` each,
    using 3.2e16 ns per year and 1.35e10 years per universe age."""
    digits = _as_decimal(expected_digits)
    ns = _as_decimal(ns_per_digit)
    if digits <= 0 or ns <= 0:
        raise ValueError("expected_digits and ns_per_digit must be positive")
    try:
        total_ns = _CTX.multiply(digits, ns)
    except decimal.Overflow:
        raise ValueError(f"expected_digits * ns_per_digit is at least 10**{_CTX.Emax + 1}, "
                         "past decimal.MAX_EMAX") from None
    seconds = _CTX.divide(total_ns, Decimal("1E+9"))
    years = _CTX.divide(total_ns, NANOSECONDS_PER_YEAR)
    ages = _CTX.divide(years, UNIVERSE_AGE_YEARS)
    return CostEstimate(digits, seconds, years, ages)


# ---------------------------------------------------------------------------
# JSON record (the CLI's machine-readable output)

def compact_digit_string(digits) -> str:
    """Digit values as text; 10..255 rendered in bracketed decimal."""
    return "".join(str(d) if d < 10 else f"[{d}]" for d in digits)


def result_record(result: SearchResult, *, constant_id: str,
                  pattern: GeneralizedPattern) -> dict:
    """The JSON record of a search for `pattern`: its scheme, n, P and Q."""
    return {
        "constant": constant_id,
        "base": result.base,
        "scheme": pattern.shape.scheme,
        "n": pattern.shape.n,
        "P": sorted(pattern.circle_set),
        "Q": sorted(pattern.background_set),
        "position": result.position,
        "window": compact_digit_string(result.window.data) if result.found else None,
        "context_before": compact_digit_string(result.context_before),
        "context_after": compact_digit_string(result.context_after),
        "digits_examined": result.digits_examined,
        "limit": result.limit,
        "found": result.found,
    }
