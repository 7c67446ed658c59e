"""Fractional digit generation for supported constants in bases 2..256.

All digit production runs on exact integer arithmetic. A value is computed
as a scaled integer X with a known bound on |X - frac(value) * base**prec|,
and digits are released only when the guard band certifies that no carry can
reach them. Emitted digits are truncations of the true value, never rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _arith
from ._arith import isqrt, mpz, mul
from .errors import (
    InsufficientInputDigits,
    InvalidDigit,
    NonPositiveCoefficient,
    PrecisionExhausted,
    UnsupportedConstant,
)

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
    """A contiguous run of fractional digits, 1-indexed by position.

    The digits are held as one `bytes` object, `data`, one byte per digit
    (MAX_BASE is 256); `digits` is the same run as a tuple of ints.
    """

    __slots__ = ("base", "start_position", "data")

    def __init__(self, base: int, start_position: int, digits: Sequence[int]):
        if not MIN_BASE <= base <= MAX_BASE:
            raise InvalidDigit(f"base {base} outside [{MIN_BASE}, {MAX_BASE}]")
        if start_position < 1:
            raise ValueError("start_position is 1-indexed and must be >= 1")
        data = _digit_bytes(digits, base)
        bad = data.translate(None, bytes(range(base)))
        if bad:
            raise InvalidDigit(f"digit {max(bad)} out of range for base {base}")
        self.base = base
        self.start_position = start_position
        self.data = data

    @property
    def digits(self) -> tuple:
        return tuple(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DigitBlock)
                and self.base == other.base
                and self.start_position == other.start_position
                and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.base, self.start_position, self.data))

    @property
    def end_position(self) -> int:
        return self.start_position + len(self.data) - 1

    def digit_at(self, position: int) -> int:
        if not self.start_position <= position <= self.end_position:
            raise IndexError(f"position {position} outside block")
        return self.data[position - self.start_position]

    def __repr__(self) -> str:
        shown = ",".join(map(str, self.data[:12]))
        if len(self.data) > 12:
            shown += ",..."
        return (f"DigitBlock(base={self.base}, start={self.start_position}, "
                f"len={len(self.data)}, digits=[{shown}])")


def _digit_bytes(digits, base: int) -> bytes:
    """One byte per digit. Bytes pass through; other input is taken as ints
    (coerced with int() when bytes() refuses it), each in 0..255."""
    if isinstance(digits, (bytes, bytearray)):
        return bytes(digits)
    if not isinstance(digits, (list, tuple)):
        digits = list(digits)
    try:
        return bytes(digits)
    except (TypeError, ValueError):  # a non-int digit, or one outside 0..255
        values = [int(d) for d in digits]
        for d in values:
            if not 0 <= d < base:
                raise InvalidDigit(f"digit {d} out of range for base {base}") from None
        return bytes(values)


# ---------------------------------------------------------------------------
# integer <-> digit vector conversion (divide and conquer)

def _powers(base: int):
    """power(e) = base**e, by squaring with mul, memoized in one table per call."""
    table = {0: mpz(1), 1: mpz(base)}

    def power(e: int):
        v = table.get(e)
        if v is None:
            half = power(e // 2)
            v = table[e] = mul(half, half) * (base if e % 2 else 1)
        return v

    return power


def digits_to_int(digits: Sequence[int], base: int):
    """Value of a most-significant-first digit vector as an integer."""
    power = _powers(base)

    def build(lo: int, hi: int):
        if hi - lo <= 64:
            acc = mpz(0)
            for i in range(lo, hi):
                acc = acc * base + digits[i]
            return acc
        mid = (lo + hi) // 2
        return mul(build(lo, mid), power(hi - mid)) + build(mid, hi)

    return build(0, len(digits))


def int_to_digits(value, base: int, count: int) -> list[int]:
    """Exactly `count` base-`base` digits of `value`, most significant first.

    Requires 0 <= value < base**count; the result is zero padded on the left.
    """
    return list(int_to_digit_bytes(value, base, count))


def int_to_digit_bytes(value, base: int, count: int) -> bytes:
    """int_to_digits as bytes, one byte per digit.

    A power-of-two base reads the digits off the bits of `value`. Any other
    base splits `value` by divisions by powers of base**k into leaves below
    base**k, k the largest with base**k < 2**63, and takes the k digits of
    every leaf in one pass of uint64 divisions.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if base & (base - 1) == 0:
        width = base.bit_length() - 1
        if value.bit_length() > width * count:
            raise ValueError("value does not fit in count digits")
        raw = np.frombuffer(int(value).to_bytes(-(-width * count // 8), "big"), np.uint8)
        bits = np.unpackbits(raw)[len(raw) * 8 - width * count:].reshape(count, width)
        return (np.packbits(bits, axis=1) >> (8 - width)).tobytes()
    k = 1
    while base ** (k + 1) < 2 ** 63:
        k += 1
    power = _powers(base ** k)
    leaves: list[int] = []

    def split(v, blocks: int):
        if blocks == 1:
            leaves.append(int(v))
            return
        lo_blocks = blocks // 2
        hi, lo = _arith.divmod(v, power(lo_blocks))
        split(hi, blocks - lo_blocks)
        split(lo, lo_blocks)

    blocks = max(1, -(-count // k))
    split(mpz(value), blocks)
    # value < base**(k * blocks) exactly when the top leaf is below base**k
    if leaves[0] >= base ** k:
        raise ValueError("value does not fit in count digits")
    q = np.array(leaves, dtype=np.uint64)
    out = np.empty((blocks, k), np.uint8)
    for i in reversed(range(k)):
        q, out[:, i] = np.divmod(q, base)
    data = out.tobytes()
    if data[:k * blocks - count].strip(b"\0"):
        raise ValueError("value does not fit in count digits")
    return data[k * blocks - count:]


# ---------------------------------------------------------------------------
# scaled-fraction sources: scaled(prec) = X, err with |X - frac(value) * base**prec| <= err
#
# Each series is one _split sum and one _quotient, so X is off from the scaled
# value V by the division's error plus the scaled tail past the last term,
# which the term count keeps below one unit; extra terms only shrink the tail.
# Integer offsets (frac(e) = e - 2) are exact: err = 2.
#
# _quotient(m, t, q), q > 0, shifts t and q right by the least s >= 0 that
# leaves q' = q >> s at most bl(m) + _SLACK bits and returns floor(m t' / q'),
# t' = t >> s. With t = 2**s t' + a and q = 2**s q' + b, 0 <= a, b < 2**s,
#     |m t/q - m t'/q'| = |m (a q' - b t')| / (q q') < |m| 2**s (q' + |t'|) / (q q'),
# and for s > 0, 2**s q' <= q, 2**s |t'| <= |t| + 2**s and
# q' >= 2**(bl(m) + _SLACK - 1) > |m| 2**(_SLACK - 1) take that under
#     2**(1 - _SLACK) (1 + |t/q| + 2**(1 - _SLACK)) < 2**(3 - _SLACK) = 2**-29
# for |t/q| < e, so each division is off by under 1 + 2**-29. The callers:
# - pi, _quotient(426880 R, Q, T), R = isqrt(10005 scale**2): T/Q, the partial
#   Chudnovsky sum, is over 1.3e7 > 2**23, so |t/q| < 2**-23; with R's error
#   (< 1 unit times 426880 Q/T < 0.04) and a tail far below one unit, X stays
#   within err = 2.
# - e, _quotient(scale, T, Q): T/Q < e, and the tail is under 3/4 unit: err = 2.
# - a part of _linear_sum, _quotient(c scale, T, d Q): T/(d Q) < 1/(1 - 1/r) <= 2.
#
# A sum of n parts (_linear_sum) is kept 2**-g units below the unit, 2**g > 2n,
# so 2**g >= 2n + 2 (both even): each part is cut where its tail is under 2**-g
# units and divided there, so the parts' sum Y is within n (2 + 2**-29) 2**-g
# <= 1 unit of V for n <= 2**30 parts, and one floor of Y keeps err = 2. That n
# sets _SLACK = 32, the least slack that holds it (pi needs 2 and e 5); a tuple
# of 2**30 parts would not fit in memory.

_SERIES_ERR = 2
_SLACK = 32


def _quotient(m, t, q):
    """floor(m t' / q') for q > 0, t' and q' being t and q shifted right
    together until q' has at most bl(m) + _SLACK bits: under 1 + 2**-29 from
    m t / q while |t/q| < e (derived above)."""
    s = max(0, q.bit_length() - m.bit_length() - _SLACK)
    return _arith.divmod(mul(m, t >> s), q >> s)[0]


def _combine(left, right):  # (P, Q, T) of two adjacent ranges, left first
    (p1, q1, t1), (p2, q2, t2) = left, right
    return mul(p1, p2), mul(q1, q2), mul(q2, t1) + mul(p1, t2)


def _split(term, lo: int, hi: int):
    """Binary splitting (Haible & Papanikolaou 1998): (P, Q, T) for
    S = sum_{lo<=k<hi} a(k) * p(lo)..p(k) / (q(lo)..q(k)), where
    term(k) = (p, q, a), P and Q are the products of p and q over the range,
    and T = Q * S exactly. A denominator b(k) of term k goes into p(k) b(k-1)
    and q(k) b(k), b(-1) = 1: the ratios telescope to 1/b(k) at term k."""
    if hi - lo == 1:
        p, q, a = term(mpz(lo))
        return p, q, a * p
    mid = (lo + hi) // 2
    return _combine(_split(term, lo, mid), _split(term, mid, hi))


def _series(term):
    """upto(n): (P, Q, T) of the first m >= n terms, kept to split only [m, n)."""
    state, done = None, 0  # (P, Q, T) of the first `done` terms

    def upto(n: int):
        nonlocal state, done
        if n > done:
            state, done = _combine(state, _split(term, done, n)) if done else _split(term, 0, n), n
        return state
    return upto


def _linear_sum(parts, base: int):
    """scaled(prec) = X, _SERIES_ERR for the sum over parts (c, d, m, j, r)
    of c/d * sum_k r**-k / (m*k + j), d, j >= 1, r >= 2 (derived above); each
    part is its own _series, with p = 1, q = r (1 at k = 0), a = 1, b(k) = m*k + j."""
    g = (2 * len(parts)).bit_length()
    series = tuple(_series(lambda k, m=m, j=j, r=r: (m * k - m + j, r * (m * k + j), 1)
                           if k else (1, j, 1)) for _, _, m, j, r in parts)

    def scaled(prec: int):
        scale = _powers(base)(prec) << g
        y = 0
        for (c, d, _, _, r), upto in zip(parts, series):
            # the tail past n terms is under 2|c| r**-n / d, and r**n > 2**bits (+1 term of
            # float slack) makes that under 1/scale, 2**-g units: bits > log2(2|c| scale / d)
            bits = prec * math.log2(base) + g + 1 + abs(c).bit_length() + 1 - d.bit_length()
            _, q, t = upto(max(1, int(bits / math.log2(r)) + 2))
            y += _quotient(c * scale, t, d * q)
        return y >> g, _SERIES_ERR
    return scaled


def _root(c: int, base: int):
    """root(prec, scale) = isqrt(n), n = c * scale**2, scale = base**prec, c not
    a square. From root r at prec0 <= prec <= 2 prec0, d = prec - prec0, the
    irrational sqrt(n) lies below x0 = (r + 1) * base**d by e0 in (0, base**d);
    one Newton step (x0 + n // x0) // 2 = floor((x0 + n/x0) / 2) is >= sqrt(n)
    and above it by e0**2 / (2 x0) < base**(2d) / (2 scale) < 1: isqrt(n) + 0|1."""
    prec0, r = math.inf, 0  # the last prec and root

    def root(prec: int, scale):
        nonlocal prec0, r
        n = c * mul(scale, scale)
        if prec0 <= prec <= 2 * prec0:
            x = mul(r + 1, _powers(base)(prec - prec0))
            x = (x + _arith.divmod(n, x)[0]) >> 1
            r = x - (mul(x, x) > n)
        else:
            r = isqrt(n)
        prec0 = prec
        return r
    return root


def _chudnovsky_term(k):
    # 1/pi = 12 sum_k (-1)^k (6k)! (13591409 + 545140134k) / ((3k)! k!^3 640320^(3k+3/2))
    if k == 0:
        return 1, 1, 13591409
    return ((6 * k - 5) * (2 * k - 1) * (6 * k - 1), k * k * k * 10939058860032000,
            (-1) ** k * (13591409 + 545140134 * k))  # q: k^3 * 640320^3 / 24


def _pi_source(base: int):
    # p(k)/q(k) < 72/10939058860032000 < 10**-14.18 and a(k) grows linearly,
    # so N >= prec*log10(base)/14 + 1 terms leave a tail far below one unit.
    series, root = _series(_chudnovsky_term), _root(10005, base)

    def scaled(prec: int):
        _, q, t = series(max(2, int(prec * math.log10(base) / 14) + 2))
        scale = _powers(base)(prec)
        return _quotient(426880 * root(prec, scale), q, t) - 3 * scale, _SERIES_ERR
    return scaled


def _sqrt2_source(base: int):
    root = _root(2, base)

    def scaled(prec: int):
        scale = _powers(base)(prec)
        return root(prec, scale) - scale, 1
    return scaled


def _e_source(base: int):
    # e = sum_k 1/k!; the tail past N >= 2 terms is below 3/(2 N!), and N! > 2 * scale
    # once lgamma(N + 1) clears ln(scale) + 1 (ln 2 plus float slack): under 3/4 unit
    series = _series(lambda k: (1, k or 1, 1))
    terms = 2  # the last call's term count; later calls search up from it

    def scaled(prec: int):
        nonlocal terms
        target = prec * math.log(base) + 1
        if math.lgamma(terms + 1) <= target:  # gallop up, then bisect
            step = 1
            while math.lgamma(terms + step + 1) <= target:
                terms, step = terms + step, 2 * step
            while step > 1:  # lgamma(terms + 1) <= target < lgamma(terms + step + 1)
                step //= 2
                if math.lgamma(terms + step + 1) <= target:
                    terms += step
            terms += 1
        _, q, t = series(terms)
        scale = _powers(base)(prec)
        return _quotient(scale, t, q) - 2 * scale, _SERIES_ERR
    return scaled


def _log2_source(base: int):
    # ln 2 = 18 atanh(1/26) - 2 atanh(1/4801) + 8 atanh(1/8749), and
    # atanh(1/x) = 1/x * sum_k (x*x)**-k / (2k+1)
    return _linear_sum(tuple((c, x, 2, 1, x * x) for c, x in ((18, 26), (-2, 4801), (8, 8749))),
                       base)


_SOURCES = {PI: _pi_source, SQRT2: _sqrt2_source, E: _e_source, LOG2: _log2_source}


def _certify(scaled, base: int, count: int, guard: int, what: str, done: int = 0):
    """Digits done+1..count of X // base**g, X, err = scaled(count + g), once
    X mod base**g is more than err from both ends of the band, so that no
    value within err of X carries into them, and the g that certified them;
    g doubles, four tries.

    A band of base**g <= 2 * (err + 1) leaves no remainder that certifies, so
    g starts at the smallest g >= guard whose band is wider than that for
    _SERIES_ERR, the largest err of a series source; BBP windows start at
    64 bits of guard, far above it."""
    g = guard
    while base ** g <= 2 * (_SERIES_ERR + 1):
        g += 1
    for _ in range(4):
        x, err = scaled(count + g)
        band = mpz(base) ** g
        rem = x % band
        margin = err + 1
        if margin <= rem < band - margin:
            return int_to_digit_bytes(_arith.divmod(x // band, _powers(base)(count - done))[1],
                                      base, count - done), g
        g *= 2
    raise PrecisionExhausted(f"could not certify {what}")


# ---------------------------------------------------------------------------
# exact digit sources

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


_CHUNK = 4096  # numbers per chunk of a concatenation constant, digits per rational chunk
_ASCII_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def _decimal_bytes(numbers) -> bytes:
    """The decimal digits of `numbers`, concatenated, one byte per digit."""
    return "".join(map(str, numbers)).encode("ascii").translate(_ASCII_DIGITS)


def _champernowne_chunks(base: int) -> Iterator[bytes]:
    # numbers n..stop-1 all have `width` digits; each row of the quotient
    # table is one number's digits, most significant first
    n, width, top = 1, 1, base
    while True:
        stop = min(n + _CHUNK, top)
        values = np.arange(n, stop, dtype=np.int64)[:, None]
        powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
        yield (values // powers % base).astype(np.uint8).tobytes()
        n = stop
        if n == top:
            width, top = width + 1, top * base


def _concat_chunks(spec: ConstantSpec) -> Iterator[bytes]:
    """Digits of a concatenation constant in its native base, in chunks."""
    if spec.kind == CHAMPERNOWNE:
        yield from _champernowne_chunks(spec.base)
    elif spec.kind == COPELAND_ERDOS:
        found = primes()
        while True:
            yield _decimal_bytes(islice(found, _CHUNK))
    elif spec.kind == FIBONACCI_CONCAT:
        for f in fibonacci_numbers():
            if f.bit_length() < 12000:  # str() refuses ints past 4300 digits
                yield _decimal_bytes((f,))
            else:
                width = int(f.bit_length() * math.log10(2)) + 1
                while mpz(10) ** width <= f:
                    width += 1
                yield int_to_digit_bytes(f, 10, width).lstrip(b"\0")
    else:
        raise UnsupportedConstant(f"{spec.kind} is not a concatenation constant")


def _rational_chunks(p: int, q: int, base: int) -> Iterator[bytes]:
    """Long-division digits of frac(|p/q|), _CHUNK at a time; the remainder
    carries over from one chunk to the next."""
    r = abs(p) % q
    while True:
        chunk = bytearray()
        for _ in range(_CHUNK):
            r *= base
            d, r = divmod(r, q)
            chunk.append(d)
        yield bytes(chunk)


def _exact_chunks(spec: ConstantSpec, base: int) -> Iterator[bytes] | None:
    """The digits of `spec` in `base` generated exactly, in chunks, or None
    when they can only be certified from a scaled value."""
    if spec.kind == RATIONAL:
        return _rational_chunks(spec.p, spec.q, base)
    if base == spec.native_base():
        return _concat_chunks(spec)
    return None


def _take(chunks: Iterator[bytes], count: int) -> bytes:
    """The first `count` digits of a chunk iterator."""
    data = bytearray()
    while len(data) < count:
        data += next(chunks)
    return bytes(data[:count])


def concat_constant_digits(spec: ConstantSpec, count: int) -> DigitBlock:
    """First `count` digits of a concatenation constant in its native base."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return DigitBlock(spec.native_base(), 1, _take(_concat_chunks(spec), count))


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
    # bl(x*y) <= bl(x) + bl(y), so below this sum the product is below bound
    bound_bits = bound.bit_length()
    p_prev, q_prev = mpz(1), mpz(0)
    p_cur, q_cur = mpz(a0), mpz(1)
    for _ in range(10 ** 7):
        try:
            a = int(next(it))
        except StopIteration:  # a finite list: its exact rational endpoint
            break
        if a < 1:
            raise NonPositiveCoefficient(f"coefficient {a} must be >= 1")
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if (q_prev and q_cur.bit_length() + q_prev.bit_length() >= bound_bits
                and q_cur * q_prev > bound):
            lo = _arith.divmod(mul(p_cur - a0 * q_cur, scale), q_cur)[0]
            hi = _arith.divmod(mul(p_prev - a0 * q_prev, scale), q_prev)[0]
            if lo == hi:
                return DigitBlock(base, 1, int_to_digit_bytes(lo, base, count))
    else:
        raise PrecisionExhausted("convergents did not certify the digits")
    num = p_cur - a0 * q_cur
    return DigitBlock(base, 1, _take(_rational_chunks(int(num), int(q_cur), base), count))


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
                 dst_base: int, out_count: int, upper: bool = False) -> bytes:
    """out_count dst_base digits of the fraction src_digits[:used]; with
    `upper`, of the largest value below it plus one unit in its last place."""
    x = digits_to_int(src_digits[:used], src_base) + upper
    y = _arith.divmod(mul(x, mpz(dst_base) ** out_count) - upper, mpz(src_base) ** used)[0]
    return int_to_digit_bytes(y, dst_base, out_count)


def base_convert(decimal_fraction, target_base: int, out_count: int,
                 guard: int = DEFAULT_GUARD) -> DigitBlock:
    """Convert leading decimal fraction digits to `out_count` digits in `target_base`.

    Returns the digits of the value that the first need + guard input digits
    represent, need = ceil(out_count * log10(target_base)), once they agree
    with a run over need + 2*guard digits. With that many digits supplied the
    second run reads them; with fewer, it checks both ends of the interval
    that every continuation of the supplied digits lies in, so the check
    never repeats the first run. Disagreement raises PrecisionExhausted
    instead of returning unstable digits. With guard 0 nothing past the
    first need digits is checked.
    """
    _check_base(target_base)
    if out_count < 1:
        raise ValueError("out_count must be >= 1")
    if isinstance(decimal_fraction, DigitBlock):
        if decimal_fraction.base != 10:
            raise InvalidDigit("input block must be base 10")
        if decimal_fraction.start_position != 1:
            raise InvalidDigit("input block must start at position 1")
        src = decimal_fraction.data
    else:
        src = DigitBlock(10, 1, decimal_fraction).data
    need = _ceil_digits_needed(out_count, target_base, 10)
    if len(src) < need + guard:
        raise InsufficientInputDigits(
            f"need at least {need + guard} decimal digits, got {len(src)}")
    first = _convert_run(src, 10, need + guard, target_base, out_count)
    used = min(len(src), need + 2 * guard)
    checks = [_convert_run(src, 10, used, target_base, out_count)]
    if used < need + 2 * guard:
        checks.append(_convert_run(src, 10, used, target_base, out_count, upper=True))
    if any(c != first for c in checks):
        raise PrecisionExhausted(
            "base conversion unstable under guard doubling; supply more digits")
    return DigitBlock(target_base, 1, first)


def _concat_scaled(spec: ConstantSpec, base: int):
    """scaled(prec) for a concatenation constant in a foreign base.

    With the first `need` native digits read as the integer x, where
    src**need >= base**prec, the constant lies in [x, x+1] / src**need, so
    V = value * base**prec lies in [x*B/S, (x+1)*B/S] with B = base**prec and
    S = src**need. X = floor(x*B/S) is at most x*B/S, and more than
    x*B/S - 1, so 0 <= V - X < 1 + B/S <= 2: err = 2.
    """
    src = spec.native_base()

    def scaled(prec: int):
        need = _ceil_digits_needed(prec, base, src)
        x = digits_to_int(concat_constant_digits(spec, need).data, src)
        return _arith.divmod(mul(x, mpz(base) ** prec), mpz(src) ** need)[0], 2

    return scaled


# ---------------------------------------------------------------------------
# public digit operations

def _check_base(base: int):
    if not MIN_BASE <= base <= MAX_BASE:
        raise UnsupportedConstant(f"base {base} outside [{MIN_BASE}, {MAX_BASE}]")


def _computed(constant: ConstantSpec, base: int, guard: int):
    """digits(count, done): digits done+1..count, all from one source."""
    if constant.kind == FIBONACCI_CFRAC:
        return lambda count, done: cfrac_digits(fibonacci_numbers(), base, count).data[done:]
    scaled = _SOURCES.get(constant.kind, lambda b: _concat_scaled(constant, b))(base)
    what = f"base-{base} digits of {constant.identifier()}"
    return lambda count, done: _certify(scaled, base, count, guard, f"{count} {what}", done)[0]


def digits_in_base(constant: ConstantSpec, base: int, count: int,
                   guard: int = DEFAULT_GUARD) -> DigitBlock:
    """First `count` fractional digits of `constant` in `base`, position exact."""
    _check_base(base)
    if count < 1:
        raise ValueError("count must be >= 1")
    chunks = _exact_chunks(constant, base)
    data = _take(chunks, count) if chunks else _computed(constant, base, guard)(count, 0)
    return DigitBlock(base, 1, data)


def decimal_digits(constant: ConstantSpec, count: int,
                   guard: int = DEFAULT_GUARD) -> DigitBlock:
    """First `count` fractional decimal digits of `constant`."""
    return digits_in_base(constant, 10, count, guard)


# ---------------------------------------------------------------------------
# streams

class DigitStream:
    """Single-consumer pull stream of contiguous DigitBlocks.

    Two independent streams over the same (constant, base) produce identical
    digit prefixes. Exact sources are generated chunk by chunk; any other
    constant keeps one source, which each refill extends geometrically, up to
    what reserve() says will be read, converting only the new digits. Digits
    behind the cursor are dropped once they fill half the buffer.
    """

    def __init__(self, source: ConstantSpec, base: int, block_size: int):
        _check_base(base)
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.source = source
        self.base = base
        self.block_size = block_size
        self.cursor = 1
        self._buf = bytearray()  # digits from position self._first on
        self._first = 1
        self._need = 0           # last position the current read needs
        self._horizon = math.inf  # see reserve()
        self._chunks = _exact_chunks(source, base) or self._extended()

    def _extended(self) -> Iterator[bytes]:
        """Chunks of a constant without an exact source: each one extends
        the digits to twice the last target (at least the current need,
        at most the horizon) and yields those past the last target."""
        digits = _computed(self.source, self.base, DEFAULT_GUARD)
        done = 0
        while True:
            read = self._need + 1 - self.cursor
            grow = min(max(2 * done, 4 * min(self.block_size, read), 64), self._horizon)
            target = max(self._need, grow)
            yield digits(target, done)
            done = target

    def _read(self, count: int) -> bytes:
        """The `count` digits from the cursor; advances the cursor past them."""
        if count < 0:
            raise ValueError("count must be >= 0")
        start, stop = self.cursor, self.cursor + count
        self._need = stop - 1
        while self._first + len(self._buf) < stop:
            self._buf += next(self._chunks)
        if start - self._first > len(self._buf) // 2:
            del self._buf[:start - self._first]
            self._first = start
        self.cursor = stop
        return bytes(self._buf[start - self._first:stop - self._first])

    def reserve(self, count: int):
        """Only the next `count` digits will be read: a refill computes no
        digit past the last of them, unless a read goes past it."""
        self._horizon = self.cursor - 1 + max(0, count)

    def next_block(self) -> DigitBlock:
        return self.take(self.block_size)

    def take(self, count: int) -> DigitBlock:
        """Next `count` digits from the cursor as one block."""
        return DigitBlock(self.base, self.cursor, self._read(count))

    def skip(self, count: int):
        """Advance the cursor without emitting digits."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self.cursor += count

    def __iter__(self) -> Iterator[DigitBlock]:
        while True:
            yield self.next_block()


def open_stream(constant: ConstantSpec, base: int, block_size: int = 1024) -> DigitStream:
    return DigitStream(constant, base, block_size)
