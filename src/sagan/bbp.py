"""BBP-type series: evaluation and arbitrary-position digit extraction.

A formula denotes  value = base**(-shift) * sum_{k>=0} base**(-k) * p(k)/q(k).
The shipped constants use the linear-term shape sum_j c_j / (m*k + j), which
is what makes modular-exponentiation digit extraction possible; `evaluate`
also accepts arbitrary small-degree polynomial p, q via PolySeries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digits import _SERIES_ERR, DigitBlock, _certify, _split, int_to_digits, mpz
from .errors import CarryAmbiguity


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


@dataclass(frozen=True)
class PolySeries:
    """General series with polynomial p and q, evaluate-only."""

    base: int
    p: tuple
    q: tuple
    shift: int = 0
    description: str = ""


def pi_formula() -> BBPFormula:
    """Base-16 series for pi: 4/(8k+1) - 2/(8k+4) - 1/(8k+5) - 1/(8k+6)."""
    return BBPFormula(16, 8, ((4, 1), (-2, 4), (-1, 5), (-1, 6)),
                      description="pi in base 16")


def log2_formula() -> BBPFormula:
    """Base-2 series for log 2: (1/2) * sum 2**(-k) / (k+1)."""
    return BBPFormula(2, 1, ((1, 1),), shift=1, description="log 2 in base 2")


def _poly(coeffs, k: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _signed_floor(num, den):
    """num/den truncated toward zero: |result - num/den| < 1 for den > 0."""
    if num < 0:
        return -((-num) // den)
    return num // den


def _term(formula, k):
    """(a, b) with b > 0 and a/b = p(k)/q(k), the k-th term without base**-k."""
    if isinstance(formula, BBPFormula):
        dens = [formula.modulus * k + j for _, j in formula.terms]
        b = math.prod(dens)
        return sum(c * (b // d) for (c, _), d in zip(formula.terms, dens)), b
    num = _poly(formula.p, k)
    den = _poly(formula.q, k)
    if den == 0:
        raise ZeroDivisionError(f"q({k}) = 0")
    if den < 0:
        num, den = -num, -den
    return num, den


def _abs_coeff_sum(formula) -> int:
    if isinstance(formula, BBPFormula):
        return sum(abs(c) for c, _ in formula.terms)
    # crude magnitude bound for |p(k)/q(k)|, adequate for sane series
    bound = 1
    for k in range(0, 65):
        num, den = _term(formula, k)
        bound = max(bound, abs(num) // den + 1)
    return 2 * bound


def _evaluate_scaled(formula, prec: int):
    """X with |X - value * base**prec| <= returned error bound."""
    base = formula.base
    top = prec - formula.shift
    if top < 0:
        raise ValueError("precision smaller than formula shift")
    coeff_sum = _abs_coeff_sum(formula)
    # with |p/q| <= C = coeff_sum, the scaled tail past term top + extra is
    # at most C * base**-extra * base/(base-1) <= 2C * base**-extra < 1
    extra = 1
    while base ** extra <= 2 * coeff_sum:
        extra += 1
    _, q, b, t = _split(lambda k: (1, base if k else 1, *_term(formula, k)),
                        0, top + extra)
    return (mpz(base) ** top * t) // (b * q), _SERIES_ERR


def evaluate(formula, digit_count: int, guard: int = 12) -> DigitBlock:
    """Leading fractional digits of the series value, guard-band certified."""
    if digit_count < 1:
        raise ValueError("digit_count must be >= 1")
    digits = _certify(lambda prec: _evaluate_scaled(formula, prec), formula.base,
                      digit_count, max(4, guard),
                      f"{digit_count} digits of {formula.description or formula}")
    return DigitBlock(formula.base, 1, digits)


# ---------------------------------------------------------------------------
# arbitrary-position extraction

_GUARD_BITS = (64, 128, 256)


def _extract_attempt(formula: BBPFormula, position: int, count: int, guard_bits: int):
    """Fixed-point fractional accumulation of base**(position-1) * value."""
    base = formula.base
    m = formula.modulus
    bits_per_digit = max(1, (base - 1).bit_length())
    width = count * bits_per_digit + guard_bits
    mod = 1 << width
    top = position - 1 - formula.shift
    coeff_sum = sum(abs(c) for c, _ in formula.terms)

    acc = 0
    divisions = 0
    # head: integer parts drop out modulo 1 via modular exponentiation
    for k in range(0, max(0, top + 1)):
        e = top - k
        for c, j in formula.terms:
            q = m * k + j
            r = pow(base, e, q)
            acc = (acc + _signed_floor((c * r) << width, q)) % mod
            divisions += 1
    # tail: terms with negative exponent until they underflow the register
    k = max(0, top + 1)
    while True:
        e = top - k
        scale = mpz(base) ** (-e)
        if scale * m * max(k, 1) > mod * coeff_sum:
            break
        for c, j in formula.terms:
            q = (m * k + j) * scale
            acc = (acc + _signed_floor(mpz(c) << width, q)) % mod
            divisions += 1
        k += 1

    err = divisions + 2 * len(formula.terms) + 2
    value = acc * mpz(base) ** count
    digits_scaled, rem = divmod(value, mod)
    # carry ambiguity: the window is trusted only when the residue keeps a
    # 2**8-fold safety factor away from both carry boundaries
    margin = err * (mpz(base) ** count) * 256
    if not margin <= rem < mod - margin:
        return None
    return int_to_digits(int(digits_scaled % (mpz(base) ** count)), base, count)


def digit_extract(formula: BBPFormula, position: int, count: int) -> DigitBlock:
    """Digits at `position`..`position+count-1` without earlier digits.

    count is capped at 8 per call; longer windows go through extract_digits.
    Retries at 128 and 256 guard bits before raising CarryAmbiguity.
    """
    block, _ = digit_extract_info(formula, position, count)
    return block


def digit_extract_info(formula: BBPFormula, position: int, count: int):
    """digit_extract plus the guard level that certified the window."""
    if not isinstance(formula, BBPFormula):
        raise TypeError("digit extraction requires the linear-term form")
    if position < 1:
        raise ValueError("position is 1-indexed")
    if not 1 <= count <= 8:
        raise ValueError("count must be in 1..8")
    for guard_bits in _GUARD_BITS:
        digits = _extract_attempt(formula, position, count, guard_bits)
        if digits is not None:
            return DigitBlock(formula.base, position, digits), guard_bits
    raise CarryAmbiguity(
        f"carry not resolved at position {position} after "
        f"{_GUARD_BITS[-1]} guard bits")


def extract_digits(formula: BBPFormula, position: int, count: int) -> DigitBlock:
    """Assemble window of any length from overlapping 8-digit extractions,
    checking that each overlap agrees."""
    if count < 1:
        raise ValueError("count must be >= 1")
    digits: list[int] = []
    pos = position
    overlap = 2
    while len(digits) < count:
        chunk = digit_extract(formula, pos, min(8, count - len(digits) + (overlap if digits else 0)))
        got = list(chunk.digits)
        if digits:
            if digits[-overlap:] != got[:overlap]:
                raise CarryAmbiguity(
                    f"overlapping extractions disagree at position {pos}")
            got = got[overlap:]
        digits.extend(got)
        pos = position + len(digits) - overlap
    return DigitBlock(formula.base, position, digits[:count])
