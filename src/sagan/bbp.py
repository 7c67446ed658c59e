"""BBP-type series: evaluation and arbitrary-position digit extraction.

A formula denotes  value = base**(-shift) * sum_{k>=0} base**(-k) * p(k)/q(k)
with the linear-term shape p(k)/q(k) = sum_j c_j / (m*k + j), which is what
makes modular-exponentiation digit extraction possible (Bailey, Borwein &
Plouffe 1997).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .digits import DEFAULT_GUARD, DigitBlock, _certify, _linear_sum
from .errors import CarryAmbiguity, PrecisionExhausted


@dataclass(frozen=True)
class BBPFormula:
    """Linear-term series: sum_j coefficient_j / (modulus*k + offset_j)."""

    base: int
    modulus: int
    terms: tuple
    shift: int = 0
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple((int(c), int(j)) for c, j in self.terms))
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not self.terms:
            raise ValueError("at least one term required")
        offsets = [j for _, j in self.terms]
        if len(set(offsets)) != len(offsets):
            raise ValueError("offsets must be distinct")
        if any(not 1 <= j <= self.modulus for j in offsets):
            raise ValueError("offsets must lie in 1..modulus")


def pi_formula() -> BBPFormula:
    """Base-16 series for pi: 4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)."""
    return BBPFormula(16, 8, ((4, 1), (-2, 4), (-1, 5), (-1, 6)),
                      description="pi in base 16")


def log2_formula() -> BBPFormula:
    """Base-2 series for log 2: (1/2) * sum 2**(-k) / (k+1)."""
    return BBPFormula(2, 1, ((1, 1),), shift=1, description="log 2 in base 2")


def _parts(formula: BBPFormula, head: int, d: int) -> tuple:
    """_linear_sum's parts for the terms k >= head of the series, divided by
    d and indexed by i = k - head: one (c, d, m, m*head + j, base) per term."""
    m = formula.modulus
    return tuple((c, d, m, m * head + j, formula.base) for c, j in formula.terms)


def evaluate(formula: BBPFormula, digit_count: int, guard: int = DEFAULT_GUARD) -> DigitBlock:
    """Leading fractional digits of the series value, guard-band certified."""
    if digit_count < 1:
        raise ValueError("digit_count must be >= 1")
    base = formula.base
    scaled = _linear_sum(_parts(formula, 0, base ** formula.shift), base)
    digits = _certify(scaled, base, digit_count, guard,
                      f"{digit_count} digits of {formula.description or formula}")[0]
    return DigitBlock(base, 1, digits)


# ---------------------------------------------------------------------------
# arbitrary-position extraction

_CHUNK = 1 << 12  # head indices per numpy pass
_LIMB = 32        # bits per long-division step


def _head_sum(formula: BBPFormula, top: int, width: int, start: int, stop: int) -> int:
    """Exact sum over k in [start, stop) and the terms (c, j) of
    trunc(c * (base**(top-k) mod q) * 2**width / q), q = modulus*k + j,
    with _CHUNK values of k per numpy pass. int64 is exact while q < 2**31:
    residues and remainders stay below q, products of two below 2**62 and
    remainders shifted by _LIMB = 32 bits below 2**63; |c| * q < 2**63 is
    checked, and a row sums at most q values below 2**32 or below |c|.
    Other chunks run the same code on Python ints (dtype=object). The
    exponents top - k are int64 in every chunk, so top < 2**63."""
    base, m = formula.base, formula.modulus
    coeffs, offsets = zip(*formula.terms)
    signs = [1 if c >= 0 else -1 for c in coeffs]
    cmax, jmax = max(map(abs, coeffs)), max(offsets)
    steps = [_LIMB] * (width // _LIMB) + [width % _LIMB] * (width % _LIMB > 0)
    total = 0
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        qmax = m * (hi - 1) + jmax
        dtype = np.int64 if max(qmax, base) < 2**31 and cmax * qmax < 2**63 else object
        k = np.arange(lo, hi, dtype=np.int64)
        q = m * k.astype(dtype) + np.array(offsets, dtype=dtype)[:, None]
        # base**(top-k) mod q, bits high to low; the bits above `vary` are
        # the same for every k in the chunk and need no per-element select
        emax, e = top - lo, top - k
        vary = (emax ^ (top - hi + 1)).bit_length()
        b, r = base % q, 1 % q
        for bit in reversed(range(emax.bit_length())):
            r = r * r % q
            if bit >= vary:
                if emax >> bit & 1:
                    r = r * b % q
            else:
                r = np.where(e >> bit & 1, r * b % q, r)
        # floor(|c| * r * 2**width / q): the whole part, then long division;
        # each term's sign goes on after its floor, which truncates toward 0
        num = np.array([abs(c) for c in coeffs], dtype=dtype)[:, None] * r
        acc = 0
        for step in [0, *steps]:
            num <<= step
            digit = num // q  # numpy has no divmod loop for dtype=object
            num -= digit * q
            acc = (acc << step) + sum(map(operator.mul, signs, digit.sum(axis=1).tolist()))
        total += acc
    return total


# base**(position-1) * value = sum_k sum_(c, j) c base**(top-k) / (m*k + j)
# with top = position - 1 - shift, and _scaled_fraction keeps its fraction
# in width bits, modulo 2**width:
# - the head, k < head = max(0, top + 1), has exponents top - k >= 0, so
#   c (base**(top-k) mod q) / q differs from the term by an integer; _head_sum
#   truncates each of these toward zero, under one unit off: head * len(terms).
# - the tail, k = head + i, is sum_i (c/d) base**-i / (m*i + m*head + j) with
#   d = base**(head - top) >= 1: one _linear_sum part per term with offset
#   j' = m*head + j >= 1, so T/(d Q) <= sum_i base**-i / j' < 2 and the bound
#   derived in digits.py holds: X is within its err, _SERIES_ERR, units of
#   the tail.
# acc is thus within head * len(terms) + _SERIES_ERR units of the scaled
# fraction (modulo 2**width), whatever the width.
#
# digit_extract_info certifies X = floor(acc * base**prec / 2**width) at
# width = prec * b, b bits per digit: base**prec <= 2**width, so X is within
# err + 1 units of frac * base**prec (for power-of-two bases X is acc itself,
# for any other base the floor adds under one unit). X is known only modulo
# base**prec, which is enough: _certify reads only X mod base**g and
# (X // base**g) mod base**count, and prec = count + g.

def _scaled_fraction(formula: BBPFormula, position: int, width: int):
    """acc, err: frac(base**(position-1) * value) * 2**width, modulo 2**width."""
    top = position - 1 - formula.shift
    head = max(0, top + 1)
    tail, err = _linear_sum(_parts(formula, head, formula.base ** (head - top)), 2)(width)
    acc = (_head_sum(formula, top, width, 0, head) + tail) % (1 << width)
    return acc, head * len(formula.terms) + err


def digit_extract(formula: BBPFormula, position: int, count: int) -> DigitBlock:
    """Digits at `position`..`position+count-1` without earlier digits.

    count is capped at 8 per call; extract_digits takes any width.
    Retries at 128, 256 and 512 guard bits before raising CarryAmbiguity.
    """
    if not 1 <= count <= 8:
        raise ValueError("count must be in 1..8")
    return digit_extract_info(formula, position, count)[0]


def digit_extract_info(formula: BBPFormula, position: int, count: int):
    """The window of any width >= 1 at `position`, and its guard bits."""
    if not isinstance(formula, BBPFormula):
        raise TypeError("digit extraction requires the linear-term form")
    if position < 1:
        raise ValueError("position is 1-indexed")
    if count < 1:
        raise ValueError("count must be >= 1")
    if position - 1 - formula.shift >= 2**63:
        raise ValueError(f"position must be at most 2**63 + shift = {2**63 + formula.shift}")
    base = formula.base
    bits = max(1, (base - 1).bit_length())
    guard = -(-64 // bits)  # in digits; _certify doubles it on each of three retries

    def scaled(prec: int):
        acc, err = _scaled_fraction(formula, position, prec * bits)
        return acc * base ** prec >> prec * bits, err + 1

    try:
        digits, g = _certify(scaled, base, count, guard, f"{count} digits at {position}")
    except PrecisionExhausted:
        raise CarryAmbiguity(f"carry not resolved at position {position} after "
                             f"{8 * guard * bits} guard bits") from None
    return DigitBlock(base, position, digits), g * bits


def extract_digits(formula: BBPFormula, position: int, count: int) -> DigitBlock:
    """Window of any length from one extraction."""
    return digit_extract_info(formula, position, count)[0]
