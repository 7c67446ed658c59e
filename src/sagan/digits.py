"""Fractional digit generation for supported constants in bases 2..256.

All digit production runs on exact integer arithmetic. A value is computed
as a scaled integer X with a known bound on |X - frac(value) * base**prec|,
and digits are released only when the guard band certifies that no carry can
reach them. Emitted digits are truncations of the true value, never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    InsufficientInputDigits,
    InvalidDigit,
    NonPositiveCoefficient,
    PrecisionExhausted,
    UnsupportedConstant,
)

try:
    from gmpy2 import mpz, isqrt as _isqrt
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    mpz = int
    from math import isqrt as _isqrt

DEFAULT_GUARD = 12
MIN_BASE = 2
MAX_BASE = 256

PI = "pi"
SQRT2 = "sqrt2"
LOG2 = "log2"
E = "e"
RATIONAL = "rational"
CHAMPERNOWNE = "champernowne"
COPELAND_ERDOS = "copeland-erdos"
FIBONACCI_CONCAT = "fibonacci-concat"
FIBONACCI_CFRAC = "fibonacci-cfrac"

_KINDS = (PI, SQRT2, LOG2, E, RATIONAL, CHAMPERNOWNE,
          COPELAND_ERDOS, FIBONACCI_CONCAT, FIBONACCI_CFRAC)


@dataclass(frozen=True)
class ConstantSpec:
    """Names a computable real plus its parameters."""

    kind: str
    p: int | None = None
    q: int | None = None
    base: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedConstant(f"unknown constant kind {self.kind!r}")
        if self.kind == RATIONAL:
            if self.p is None or self.q is None:
                raise UnsupportedConstant("rational constant needs p and q")
            if self.q < 1:
                raise UnsupportedConstant("rational denominator must be >= 1")
        if self.kind == CHAMPERNOWNE:
            if self.base is None or self.base < 2:
                raise UnsupportedConstant("champernowne base must be >= 2")

    @classmethod
    def pi(cls) -> "ConstantSpec":
        return cls(PI)

    @classmethod
    def sqrt2(cls) -> "ConstantSpec":
        return cls(SQRT2)

    @classmethod
    def log2(cls) -> "ConstantSpec":
        return cls(LOG2)

    @classmethod
    def e(cls) -> "ConstantSpec":
        return cls(E)

    @classmethod
    def rational(cls, p: int, q: int) -> "ConstantSpec":
        return cls(RATIONAL, p=p, q=q)

    @classmethod
    def champernowne(cls, base: int = 10) -> "ConstantSpec":
        return cls(CHAMPERNOWNE, base=base)

    @classmethod
    def copeland_erdos(cls) -> "ConstantSpec":
        return cls(COPELAND_ERDOS)

    @classmethod
    def fibonacci_concat(cls) -> "ConstantSpec":
        return cls(FIBONACCI_CONCAT)

    @classmethod
    def fibonacci_cfrac(cls) -> "ConstantSpec":
        return cls(FIBONACCI_CFRAC)

    def identifier(self) -> str:
        """Canonical text id, also used by the digit cache file format."""
        if self.kind == RATIONAL:
            return f"rational:{self.p}/{self.q}"
        if self.kind == CHAMPERNOWNE:
            return f"champernowne{self.base}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "ConstantSpec":
        """Inverse of identifier(); accepts e.g. 'pi', 'rational:1/3', 'champernowne10'."""
        s = text.strip().lower()
        if s in (PI, SQRT2, LOG2, E, COPELAND_ERDOS, FIBONACCI_CONCAT, FIBONACCI_CFRAC):
            return cls(s)
        if s.startswith("rational:"):
            body = s[len("rational:"):]
            try:
                p_str, q_str = body.split("/", 1)
                return cls.rational(int(p_str), int(q_str))
            except ValueError as exc:
                raise UnsupportedConstant(f"bad rational spec {text!r}") from exc
        if s.startswith(CHAMPERNOWNE):
            tail = s[len(CHAMPERNOWNE):]
            try:
                return cls.champernowne(int(tail) if tail else 10)
            except ValueError as exc:
                raise UnsupportedConstant(f"bad champernowne spec {text!r}") from exc
        raise UnsupportedConstant(f"unknown constant {text!r}")

    def native_base(self) -> int | None:
        """Base in which this constant is defined digit-by-digit, if any."""
        if self.kind == CHAMPERNOWNE:
            return self.base
        if self.kind in (COPELAND_ERDOS, FIBONACCI_CONCAT):
            return 10
        return None


class DigitBlock:
    """A contiguous run of fractional digits, 1-indexed by position."""

    __slots__ = ("base", "start_position", "digits")

    def __init__(self, base: int, start_position: int, digits: Sequence[int]):
        if not MIN_BASE <= base <= MAX_BASE:
            raise InvalidDigit(f"base {base} outside [{MIN_BASE}, {MAX_BASE}]")
        if start_position < 1:
            raise ValueError("start_position is 1-indexed and must be >= 1")
        digits = tuple(int(d) for d in digits)
        for d in digits:
            if not 0 <= d < base:
                raise InvalidDigit(f"digit {d} out of range for base {base}")
        self.base = base
        self.start_position = start_position
        self.digits = digits

    def __len__(self) -> int:
        return len(self.digits)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DigitBlock)
                and self.base == other.base
                and self.start_position == other.start_position
                and self.digits == other.digits)

    def __hash__(self) -> int:
        return hash((self.base, self.start_position, self.digits))

    @property
    def end_position(self) -> int:
        return self.start_position + len(self.digits) - 1

    def digit_at(self, position: int) -> int:
        if not self.start_position <= position <= self.end_position:
            raise IndexError(f"position {position} outside block")
        return self.digits[position - self.start_position]

    def __repr__(self) -> str:
        shown = ",".join(str(d) for d in self.digits[:12])
        if len(self.digits) > 12:
            shown += ",..."
        return (f"DigitBlock(base={self.base}, start={self.start_position}, "
                f"len={len(self.digits)}, digits=[{shown}])")


# ---------------------------------------------------------------------------
# integer <-> digit vector conversion (divide and conquer)

def digits_to_int(digits: Sequence[int], base: int):
    """Value of a most-significant-first digit vector as an integer."""
    n = len(digits)
    if n == 0:
        return mpz(0)
    powers: dict[int, object] = {}

    def power(e: int):
        v = powers.get(e)
        if v is None:
            half = power(e // 2)
            v = half * half * (base if e % 2 else 1)
            powers[e] = v
        return v

    powers[0] = mpz(1)
    powers[1] = mpz(base)

    def build(lo: int, hi: int):
        if hi - lo <= 64:
            acc = mpz(0)
            for i in range(lo, hi):
                acc = acc * base + digits[i]
            return acc
        mid = (lo + hi) // 2
        return build(lo, mid) * power(hi - mid) + build(mid, hi)

    return build(0, n)


def int_to_digits(value, base: int, count: int) -> list[int]:
    """Exactly `count` base-`base` digits of `value`, most significant first.

    Requires 0 <= value < base**count; the result is zero padded on the left.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    powers: dict[int, object] = {1: mpz(base)}

    def power(e: int):
        v = powers.get(e)
        if v is None:
            half = power(e // 2)
            v = half * half * (base if e % 2 else 1)
            powers[e] = v
        return v

    out: list[int] = []

    def emit(v, n: int):
        if n <= 64:
            small: list[int] = []
            for _ in range(n):
                v, d = divmod(v, base)
                small.append(int(d))
            small.reverse()
            out.extend(small)
            return
        lo_n = n // 2
        hi, lo = divmod(v, power(lo_n))
        emit(hi, n - lo_n)
        emit(lo, lo_n)

    if value >= power(count):
        raise ValueError("value does not fit in count digits")
    emit(mpz(value), count)
    return out


# ---------------------------------------------------------------------------
# scaled-fraction generators: X with |X - frac(value) * base**prec| <= err
#
# Each series is one _split sum and one floor division, so X is off by under
# one unit from that floor plus the scaled tail past the last term (and any
# rounding of the division's inputs), which each series' term count keeps
# below one unit. Integer offsets (frac(e) = e - 2) are exact: err = 2.

_SERIES_ERR = 2


def _split(term, lo: int, hi: int):
    """Binary splitting (Haible & Papanikolaou 1998): (P, Q, B, T) for
    S = sum_{lo<=k<hi} a(k)/b(k) * p(lo)..p(k) / (q(lo)..q(k)), where
    term(k) = (p, q, a, b), P, Q, B are the products of p, q, b over the
    range, and T = B * Q * S exactly."""
    if hi - lo == 1:
        p, q, a, b = term(mpz(lo))
        return p, q, b, a * p
    mid = (lo + hi) // 2
    p1, q1, b1, t1 = _split(term, lo, mid)
    p2, q2, b2, t2 = _split(term, mid, hi)
    return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2


def _chudnovsky_term(k):
    # 1/pi = 12 sum_k (-1)^k (6k)! (13591409 + 545140134k) / ((3k)! k!^3 640320^(3k+3/2))
    if k == 0:
        return 1, 1, 13591409, 1
    return ((6 * k - 5) * (2 * k - 1) * (6 * k - 1), k * k * k * 10939058860032000,
            (-1) ** k * (13591409 + 545140134 * k), 1)  # q: k^3 * 640320^3 / 24


def _pi_scaled(base: int, prec: int):
    # p(k)/q(k) < 72/10939058860032000 < 10**-14.18 and a(k) grows linearly,
    # so N >= prec*log10(base)/14 + 1 terms leave a tail far below one unit;
    # the isqrt error (< 1) is scaled by 426880 Q/T ~ pi/100.
    terms = max(2, int(prec * math.log10(base) / 14) + 2)
    _, q, _, t = _split(_chudnovsky_term, 0, terms)
    scale = mpz(base) ** prec
    root = _isqrt(10005 * scale * scale)
    return (426880 * q * root) // t - 3 * scale, _SERIES_ERR


def _sqrt2_scaled(base: int, prec: int):
    scale = mpz(base) ** prec
    return _isqrt(2 * scale * scale) - scale, 1


def _e_scaled(base: int, prec: int):
    # e = sum_k 1/k!; the tail past N terms is below 2/N!, and N! > 2 * scale
    # once lgamma(N + 1) clears ln(scale) + 1 (ln 2 plus float slack)
    target = prec * math.log(base) + 1
    terms = 2
    while math.lgamma(terms + 1) <= target:
        terms += 1
    _, q, _, t = _split(lambda k: (1, k or 1, 1, 1), 0, terms)
    scale = mpz(base) ** prec
    return (scale * t) // q - 2 * scale, _SERIES_ERR


def _log2_scaled(base: int, prec: int):
    # ln 2 = 2 atanh(1/3) = (2/3) sum_k 9**-k / (2k+1): the tail past N terms
    # is below 9**-N <= 1/scale (+2 terms of float slack)
    terms = int(prec * math.log(base) / math.log(9)) + 2
    _, q, b, t = _split(lambda k: (1, 9 if k else 1, 1, 2 * k + 1), 0, terms)
    return (2 * mpz(base) ** prec * t) // (3 * b * q), _SERIES_ERR


_SCALED_FNS = {PI: _pi_scaled, SQRT2: _sqrt2_scaled, E: _e_scaled, LOG2: _log2_scaled}

# largest scaled fraction computed so far, per (kind, base): (prec, X, err)
_scaled_cache: dict[tuple[str, int], tuple[int, object, int]] = {}


def _scaled_frac(kind: str, base: int, prec: int):
    cached = _scaled_cache.get((kind, base))
    if cached is not None and cached[0] >= prec:
        cprec, x, err = cached
        if cprec == prec:
            return x, err
        shift = mpz(base) ** (cprec - prec)
        return x // shift, err // shift + 2
    x, err = _SCALED_FNS[kind](base, prec)
    _scaled_cache[(kind, base)] = (prec, x, err)
    return x, err


def _certify(scaled, base: int, count: int, guard: int, what: str) -> list[int]:
    """The `count` fractional digits of X // base**g, X, err = scaled(count + g),
    once X mod base**g is more than err from both ends of the band, so that
    no value within err of X carries into them; g doubles, four tries."""
    g = guard
    for _ in range(4):
        x, err = scaled(count + g)
        band = mpz(base) ** g
        rem = x % band
        margin = err + 1
        if margin <= rem < band - margin:
            return int_to_digits(x // band % mpz(base) ** count, base, count)
        g *= 2
    raise PrecisionExhausted(f"could not certify {what}")


# ---------------------------------------------------------------------------
# exact digit sources

def _rational_frac_digits(p: int, q: int, base: int, start: int, count: int) -> list[int]:
    """Long-division digits of frac(|p/q|) from `start`, exact."""
    r = abs(p) % q
    r = (r * pow(base, start - 1, q)) % q
    out = []
    for _ in range(count):
        r *= base
        d, r = divmod(r, q)
        out.append(int(d))
    return out


def primes() -> Iterator[int]:
    """Unbounded incremental sieve."""
    yield 2
    sieve: dict[int, int] = {}
    n = 3
    while True:
        step = sieve.pop(n, 0)
        if step:
            m = n + step
            while m in sieve:
                m += step
            sieve[m] = step
        else:
            yield n
            sieve[n * n] = 2 * n
        n += 2


def fibonacci_numbers() -> Iterator[int]:
    a, b = 0, 1
    while True:
        yield a
        a, b = b, a + b


def _small_digits(n: int, base: int) -> list[int]:
    if n == 0:
        return [0]
    out = []
    while n:
        n, d = divmod(n, base)
        out.append(d)
    out.reverse()
    return out


def _concat_digit_gen(spec: ConstantSpec) -> Iterator[int]:
    if spec.kind == CHAMPERNOWNE:
        b = spec.base
        n = 1
        while True:
            yield from _small_digits(n, b)
            n += 1
    elif spec.kind == COPELAND_ERDOS:
        for p in primes():
            yield from _small_digits(p, 10)
    elif spec.kind == FIBONACCI_CONCAT:
        for f in fibonacci_numbers():
            yield from _small_digits(f, 10)
    else:
        raise UnsupportedConstant(f"{spec.kind} is not a concatenation constant")


def concat_constant_digits(spec: ConstantSpec, count: int) -> DigitBlock:
    """First `count` digits of a concatenation constant in its native base."""
    if count < 1:
        raise ValueError("count must be >= 1")
    gen = _concat_digit_gen(spec)
    digits = [next(gen) for _ in range(count)]
    return DigitBlock(spec.native_base(), 1, digits)


# ---------------------------------------------------------------------------
# continued fractions

def cfrac_digits(coefficients: Iterable[int], base: int, count: int) -> DigitBlock:
    """Fractional digits of [a0; a1, a2, ...] via convergent bracketing.

    Consecutive convergents bracket the value, so digits are released only
    once both interval ends truncate identically and the interval width is
    below base**-(count+2). A finite coefficient list denotes the exact
    rational it spells out.
    """
    _check_base(base)
    if count < 1:
        raise ValueError("count must be >= 1")
    it = iter(coefficients)
    try:
        a0 = int(next(it))
    except StopIteration:
        raise NonPositiveCoefficient("empty coefficient sequence") from None

    scale = mpz(base) ** count
    bound = scale * base * base  # interval width must be < base**-(count+2)
    p_prev, q_prev = mpz(1), mpz(0)
    p_cur, q_cur = mpz(a0), mpz(1)
    exhausted = False
    for _ in range(10 ** 7):
        try:
            a = int(next(it))
        except StopIteration:
            exhausted = True
            break
        if a < 1:
            raise NonPositiveCoefficient(f"coefficient {a} must be >= 1")
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_prev and q_cur * q_prev > bound:
            lo = ((p_cur - a0 * q_cur) * scale) // q_cur
            hi = ((p_prev - a0 * q_prev) * scale) // q_prev
            if lo == hi:
                return DigitBlock(base, 1, int_to_digits(lo, base, count))
    if not exhausted:
        raise PrecisionExhausted("convergents did not certify the digits")
    # exact rational endpoint
    num = p_cur - a0 * q_cur
    return DigitBlock(base, 1, _rational_frac_digits(int(num), int(q_cur), base, 1, count))


# ---------------------------------------------------------------------------
# base conversion

def _ceil_digits_needed(out_count: int, target_base: int, source_base: int) -> int:
    """Smallest D with source_base**D >= target_base**out_count, exactly."""
    estimate = int(out_count * math.log(target_base) / math.log(source_base)) + 1
    t = mpz(target_base) ** out_count
    d = estimate
    while mpz(source_base) ** d < t:
        d += 1
    while d > 1 and mpz(source_base) ** (d - 1) >= t:
        d -= 1
    return d


def _convert_run(src_digits: Sequence[int], src_base: int, used: int,
                 dst_base: int, out_count: int) -> list[int]:
    x = digits_to_int(src_digits[:used], src_base)
    y = (x * mpz(dst_base) ** out_count) // (mpz(src_base) ** used)
    return int_to_digits(y, dst_base, out_count)


def base_convert(decimal_fraction, target_base: int, out_count: int,
                 guard: int = DEFAULT_GUARD) -> DigitBlock:
    """Convert leading decimal fraction digits to `out_count` digits in `target_base`.

    Consumes ceil(out_count * log10(target_base)) + guard input digits and
    certifies the output by recomputing with the guard doubled; disagreement
    raises PrecisionExhausted instead of returning unstable digits.
    """
    _check_base(target_base)
    if out_count < 1:
        raise ValueError("out_count must be >= 1")
    if isinstance(decimal_fraction, DigitBlock):
        if decimal_fraction.base != 10:
            raise InvalidDigit("input block must be base 10")
        if decimal_fraction.start_position != 1:
            raise InvalidDigit("input block must start at position 1")
        src = decimal_fraction.digits
    else:
        src = tuple(int(d) for d in decimal_fraction)
        for d in src:
            if not 0 <= d <= 9:
                raise InvalidDigit(f"decimal input digit {d} >= 10")
    need = _ceil_digits_needed(out_count, target_base, 10)
    if len(src) < need + guard:
        raise InsufficientInputDigits(
            f"need at least {need + guard} decimal digits, got {len(src)}")
    first = _convert_run(src, 10, need + guard, target_base, out_count)
    second = _convert_run(src, 10, min(len(src), need + 2 * guard), target_base, out_count)
    if first != second:
        raise PrecisionExhausted(
            "base conversion unstable under guard doubling; supply more digits")
    return DigitBlock(target_base, 1, first)


def _convert_from_native(spec: ConstantSpec, base: int, count: int) -> list[int]:
    """Convert a concatenation constant to a foreign base with an exact
    truncation-interval certificate (the native source is unbounded)."""
    src_base = spec.native_base()
    need = _ceil_digits_needed(count, base, src_base) + 8
    for _ in range(5):
        src = concat_constant_digits(spec, need).digits
        x = digits_to_int(src, src_base)
        denom = mpz(src_base) ** need
        numer = mpz(base) ** count
        lo = (x * numer) // denom
        hi = ((x + 1) * numer) // denom
        if lo == hi:
            return int_to_digits(lo, base, count)
        need *= 2
    raise PrecisionExhausted(
        f"conversion of {spec.identifier()} to base {base} did not stabilize")


# ---------------------------------------------------------------------------
# public digit operations

def _check_base(base: int):
    if not MIN_BASE <= base <= MAX_BASE:
        raise UnsupportedConstant(f"base {base} outside [{MIN_BASE}, {MAX_BASE}]")


def digits_in_base(constant: ConstantSpec, base: int, count: int,
                   guard: int = DEFAULT_GUARD) -> DigitBlock:
    """First `count` fractional digits of `constant` in `base`, position exact."""
    _check_base(base)
    if count < 1:
        raise ValueError("count must be >= 1")
    kind = constant.kind
    if kind == RATIONAL:
        digits = _rational_frac_digits(constant.p, constant.q, base, 1, count)
    elif kind in (CHAMPERNOWNE, COPELAND_ERDOS, FIBONACCI_CONCAT):
        if base == constant.native_base():
            return concat_constant_digits(constant, count)
        digits = _convert_from_native(constant, base, count)
    elif kind == FIBONACCI_CFRAC:
        return cfrac_digits(fibonacci_numbers(), base, count)
    elif kind in _SCALED_FNS:
        digits = _certify(lambda prec: _scaled_frac(kind, base, prec), base, count,
                          max(1, guard), f"{count} base-{base} digits of {kind}")
    else:  # pragma: no cover - _KINDS is exhaustive
        raise UnsupportedConstant(kind)
    return DigitBlock(base, 1, digits)


def decimal_digits(constant: ConstantSpec, count: int,
                   guard: int = DEFAULT_GUARD) -> DigitBlock:
    """First `count` fractional decimal digits of `constant`."""
    return digits_in_base(constant, 10, count, guard)


# ---------------------------------------------------------------------------
# streams

class DigitStream:
    """Single-consumer pull stream of contiguous DigitBlocks.

    Two independent streams over the same (constant, base) produce identical
    digit prefixes; precision for recomputed constants grows geometrically.
    """

    def __init__(self, source: ConstantSpec, base: int, block_size: int):
        _check_base(base)
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        kind = source.kind
        if kind not in _KINDS:
            raise UnsupportedConstant(kind)
        self.source = source
        self.base = base
        self.block_size = block_size
        self.cursor = 1
        self._digits: list[int] = []
        self._gen: Iterator[int] | None = None
        if kind in (CHAMPERNOWNE, COPELAND_ERDOS, FIBONACCI_CONCAT) and base == source.native_base():
            self._gen = _concat_digit_gen(source)

    def _ensure(self, upto: int):
        if len(self._digits) >= upto:
            return
        if self._gen is not None:
            gen = self._gen
            self._digits.extend(next(gen) for _ in range(upto - len(self._digits)))
            return
        target = max(upto, 2 * len(self._digits), 4 * self.block_size, 64)
        block = digits_in_base(self.source, self.base, target)
        self._digits = list(block.digits)

    def next_block(self) -> DigitBlock:
        start = self.cursor
        self._ensure(start + self.block_size - 1)
        digits = self._digits[start - 1:start - 1 + self.block_size]
        self.cursor = start + self.block_size
        return DigitBlock(self.base, start, digits)

    def take(self, count: int) -> DigitBlock:
        """Next `count` digits from the cursor as one block."""
        start = self.cursor
        self._ensure(start + count - 1)
        digits = self._digits[start - 1:start - 1 + count]
        self.cursor = start + count
        return DigitBlock(self.base, start, digits)

    def skip(self, count: int):
        """Advance the cursor without emitting digits."""
        self.cursor += count

    def __iter__(self) -> Iterator[DigitBlock]:
        while True:
            yield self.next_block()


def open_stream(constant: ConstantSpec, base: int, block_size: int = 1024) -> DigitStream:
    return DigitStream(constant, base, block_size)
