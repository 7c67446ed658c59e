"""Digit generation tests. Expected values come from independent oracles:
digit-by-digit root extraction, exact Fraction long division, and known
printed expansions."""

import math
import random
from fractions import Fraction

import pytest

from sagan.digits import (
    ConstantSpec,
    DigitBlock,
    base_convert,
    cfrac_digits,
    concat_constant_digits,
    decimal_digits,
    digits_in_base,
    digits_to_int,
    int_to_digits,
    fibonacci_numbers,
    open_stream,
    primes,
)
from sagan.digits import _SCALED_FNS, _certify
from sagan.errors import (
    InsufficientInputDigits,
    InvalidDigit,
    NonPositiveCoefficient,
    PrecisionExhausted,
    UnsupportedConstant,
)

PI = ConstantSpec.pi()


def sqrt_digits_oracle(radicand: int, count: int) -> list[int]:
    """Digit-by-digit square root: fractional digits of sqrt(radicand),
    via integer square root of radicand * 100**(count)."""
    scaled = radicand * 100 ** count
    root, floor_sq = 0, 0
    # classic schoolbook: bring down digit pairs of `scaled`
    pairs = []
    n = scaled
    while n:
        pairs.append(n % 100)
        n //= 100
    pairs.reverse()
    remainder = 0
    for pair in pairs:
        remainder = remainder * 100 + pair
        digit = 9
        while (20 * root + digit) * digit > remainder:
            digit -= 1
        remainder -= (20 * root + digit) * digit
        root = root * 10 + digit
    digits = []
    for _ in range(count):
        digits.append(root % 10)
        root //= 10
    digits.reverse()
    return digits


def rational_digits_oracle(p: int, q: int, base: int, count: int) -> list[int]:
    value = Fraction(abs(p), q)
    value -= int(value)
    out = []
    for _ in range(count):
        value *= base
        d = int(value)
        out.append(d)
        value -= d
    return out


class TestConstantSpec:
    def test_parse_roundtrip(self):
        for text in ("pi", "sqrt2", "log2", "e", "rational:22/7",
                     "champernowne10", "champernowne2", "copeland-erdos",
                     "fibonacci-concat", "fibonacci-cfrac"):
            spec = ConstantSpec.parse(text)
            assert spec.identifier() == text

    def test_bad_specs(self):
        with pytest.raises(UnsupportedConstant):
            ConstantSpec.parse("zeta3")
        with pytest.raises(UnsupportedConstant):
            ConstantSpec.rational(1, 0)
        with pytest.raises(UnsupportedConstant):
            ConstantSpec.champernowne(1)


class TestDigitBlock:
    def test_validation(self):
        with pytest.raises(InvalidDigit):
            DigitBlock(10, 1, [3, 10])
        with pytest.raises(InvalidDigit):
            DigitBlock(1, 1, [0])
        with pytest.raises(ValueError):
            DigitBlock(10, 0, [1])

    def test_positions(self):
        block = DigitBlock(10, 5, [7, 8, 9])
        assert block.end_position == 7
        assert block.digit_at(6) == 8
        with pytest.raises(IndexError):
            block.digit_at(8)


class TestDecimalDigits:
    def test_pi_first_six(self):
        assert decimal_digits(PI, 6).digits == (1, 4, 1, 5, 9, 2)

    def test_rational_third(self):
        assert decimal_digits(ConstantSpec.rational(1, 3), 5).digits == (3,) * 5

    def test_sqrt2_against_root_oracle(self):
        expected = sqrt_digits_oracle(2, 10)
        assert expected == [4, 1, 4, 2, 1, 3, 5, 6, 2, 3]
        assert decimal_digits(ConstantSpec.sqrt2(), 10).digits == tuple(expected)

    def test_e_and_log2_prefixes(self):
        # e = 2.718281828459..., ln 2 = 0.693147180559...
        assert decimal_digits(ConstantSpec.e(), 12).digits == tuple(
            int(c) for c in "718281828459")
        assert decimal_digits(ConstantSpec.log2(), 12).digits == tuple(
            int(c) for c in "693147180559")


class TestDigitsInBase:
    def test_pi_base11(self):
        assert digits_in_base(PI, 11, 6).digits == (1, 6, 1, 5, 0, 7)

    def test_rational_half_base2(self):
        assert digits_in_base(ConstantSpec.rational(1, 2), 2, 3).digits == (1, 0, 0)

    def test_pi_base16_matches_bbp(self):
        from sagan.bbp import digit_extract, pi_formula
        block = digits_in_base(PI, 16, 8)
        assert block.digits == (2, 4, 3, 15, 6, 10, 8, 8)
        assert block.digits == digit_extract(pi_formula(), 1, 8).digits

    def test_guard_stability(self):
        for spec in (PI, ConstantSpec.sqrt2(), ConstantSpec.e(), ConstantSpec.log2()):
            for base in (2, 10, 16, 255):
                a = digits_in_base(spec, base, 50, guard=12)
                b = digits_in_base(spec, base, 50, guard=24)
                assert a.digits == b.digits

    def test_random_rationals_against_long_division(self):
        rng = random.Random(20260809)
        for _ in range(100):
            q = rng.randint(2, 10 ** 6)
            p = rng.randint(1, q - 1)
            base = rng.randint(2, 256)
            count = rng.randint(1, 1000)
            block = digits_in_base(ConstantSpec.rational(p, q), base, count)
            assert list(block.digits) == rational_digits_oracle(p, q, base, count)

    def test_digit_range_invariant(self):
        rng = random.Random(7)
        for _ in range(20):
            base = rng.randint(2, 256)
            block = digits_in_base(PI, base, 100)
            assert all(0 <= d < base for d in block.digits)

    def test_base_boundaries(self):
        assert digits_in_base(PI, 2, 1).digits == (0,)  # 0.1415 < 1/2
        assert len(digits_in_base(PI, 256, 30)) == 30
        with pytest.raises(UnsupportedConstant):
            digits_in_base(PI, 257, 4)
        with pytest.raises(UnsupportedConstant):
            digits_in_base(PI, 1, 4)
        with pytest.raises(ValueError):
            digits_in_base(PI, 10, 0)


class TestBaseConvert:
    def test_half_to_binary_with_zero_guard(self):
        assert base_convert([5], 2, 1, guard=0).digits == (1,)

    def test_default_guard_rejects_short_input(self):
        with pytest.raises(InsufficientInputDigits):
            base_convert([5], 2, 1)

    def test_pi_to_base11(self):
        block = base_convert(decimal_digits(PI, 30), 11, 6)
        assert block.digits == (1, 6, 1, 5, 0, 7)

    def test_truncated_seventh_to_base7(self):
        # the 40-digit decimal truncation of 1/7 represents a value slightly
        # below 1/7, so its base-7 expansion reads 0.0666...; the exact
        # rational oracle over the represented value is authoritative
        src = decimal_digits(ConstantSpec.rational(1, 7), 40)
        represented = Fraction(int("".join(map(str, src.digits))), 10 ** 40)
        oracle = rational_digits_oracle(represented.numerator, represented.denominator, 7, 6)
        block = base_convert(src, 7, 6)
        assert list(block.digits) == oracle == [0, 6, 6, 6, 6, 6]
        # the true rational 1/7 itself is exact in base 7
        assert digits_in_base(ConstantSpec.rational(1, 7), 7, 6).digits == (1, 0, 0, 0, 0, 0)

    def test_rejects_non_decimal_block(self):
        with pytest.raises(InvalidDigit):
            base_convert(digits_in_base(PI, 16, 30), 2, 4)
        with pytest.raises(InvalidDigit):
            base_convert([1, 11, 3], 2, 1, guard=0)

    def test_agrees_with_native_base_generation(self):
        rng = random.Random(99)
        for base in (2, 7, 11, 16, 101):
            count = rng.randint(5, 40)
            need = len(decimal_digits(PI, 1).digits)  # warm cache
            dec = decimal_digits(PI, count * 3 + 30)
            assert base_convert(dec, base, count).digits == \
                digits_in_base(PI, base, count).digits


class TestConcatConstants:
    def test_champernowne10(self):
        block = concat_constant_digits(ConstantSpec.champernowne(10), 11)
        assert block.digits == (1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 0)

    def test_copeland_erdos(self):
        block = concat_constant_digits(ConstantSpec.copeland_erdos(), 7)
        assert block.digits == (2, 3, 5, 7, 1, 1, 1)

    def test_fibonacci_concat(self):
        block = concat_constant_digits(ConstantSpec.fibonacci_concat(), 6)
        assert block.digits == (0, 1, 1, 2, 3, 5)

    def test_binary_champernowne(self):
        # 0.1 10 11 100 101 ...
        block = concat_constant_digits(ConstantSpec.champernowne(2), 11)
        assert block.digits == (1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1)

    def test_rejects_non_concat(self):
        with pytest.raises(UnsupportedConstant):
            concat_constant_digits(PI, 5)

    def test_primes_generator(self):
        gen = primes()
        first = [next(gen) for _ in range(10)]
        assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_champernowne_base16_numerals(self):
        # 0.123456789abcdef1011...
        block = concat_constant_digits(ConstantSpec.champernowne(16), 19)
        assert block.digits == tuple(range(1, 16)) + (1, 0, 1, 1)

    def test_champernowne_foreign_base(self):
        # binary champernowne in base 10 must match its converted value
        native = concat_constant_digits(ConstantSpec.champernowne(2), 200)
        value = Fraction(digits_to_int(native.digits, 2), 2 ** 200)
        oracle = rational_digits_oracle(value.numerator, value.denominator, 10, 20)
        got = digits_in_base(ConstantSpec.champernowne(2), 10, 20)
        assert list(got.digits) == oracle


class TestContinuedFractions:
    def test_golden_ratio(self):
        assert cfrac_digits([1] + [1] * 100, 10, 5).digits == (6, 1, 8, 0, 3)

    def test_one_half(self):
        assert cfrac_digits([0, 2], 10, 3).digits == (5, 0, 0)

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveCoefficient):
            cfrac_digits([1, 2, 0, 3], 10, 4)

    def test_fibonacci_cfrac_depth_stability(self):
        fib = [f for _, f in zip(range(60), fibonacci_numbers())]
        shallow = cfrac_digits(iter(fib[:30]), 10, 20)
        deep = cfrac_digits(iter(fib), 10, 20)
        streamed = digits_in_base(ConstantSpec.fibonacci_cfrac(), 10, 20)
        assert shallow.digits == deep.digits == streamed.digits

    def test_against_fraction_oracle(self):
        # deep convergent evaluated exactly, digits by long division
        coeffs = [0] + [f for _, f in zip(range(40), fibonacci_numbers()) if f >= 1]
        p_prev, q_prev, p_cur, q_cur = 1, 0, coeffs[0], 1
        for a in coeffs[1:]:
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
        value = Fraction(p_cur, q_cur)
        oracle = rational_digits_oracle(value.numerator, value.denominator, 10, 30)
        assert list(digits_in_base(ConstantSpec.fibonacci_cfrac(), 10, 30).digits) == oracle

    def test_interval_width_invariant(self):
        # digits from one depth must be a prefix of digits from much deeper
        for count in (5, 20, 60):
            a = digits_in_base(ConstantSpec.fibonacci_cfrac(), 7, count).digits
            b = digits_in_base(ConstantSpec.fibonacci_cfrac(), 7, count + 20).digits
            assert b[:count] == a


class TestStreams:
    def test_pi_first_digit(self):
        stream = open_stream(PI, 10, 100)
        assert stream.next_block().digits[0] == 1

    def test_rational_blocks_all_threes(self):
        stream = open_stream(ConstantSpec.rational(1, 3), 10, 4)
        for _ in range(5):
            assert stream.next_block().digits == (3, 3, 3, 3)

    def test_prefix_property(self):
        stream = open_stream(PI, 10, 50)
        pulled = []
        for _ in range(3):
            pulled.extend(stream.next_block().digits)
        assert tuple(pulled) == decimal_digits(PI, 150).digits

    def test_block_positions_contiguous(self):
        stream = open_stream(ConstantSpec.sqrt2(), 10, 7)
        expected_start = 1
        for _ in range(4):
            block = stream.next_block()
            assert block.start_position == expected_start
            expected_start = block.end_position + 1

    def test_determinism_across_streams(self):
        for spec in (PI, ConstantSpec.champernowne(10), ConstantSpec.fibonacci_cfrac()):
            a = open_stream(spec, 10, 64)
            b = open_stream(spec, 10, 64)
            for _ in range(3):
                assert a.next_block().digits == b.next_block().digits


class TestHighPrecisionOracle:
    def test_analytic_constants_against_mpmath(self):
        import mpmath
        sources = {
            "pi": lambda: +mpmath.pi,
            "sqrt2": lambda: mpmath.sqrt(2),
            "e": lambda: +mpmath.e,
            "log2": lambda: mpmath.log(2),
        }
        for name, make in sources.items():
            spec = ConstantSpec.parse(name)
            for base, count in ((10, 500), (16, 300), (2, 600)):
                with mpmath.workdps(int(count * mpmath.log(base, 10)) + 40):
                    frac = make()
                    frac -= int(frac)
                    expected = []
                    for _ in range(count):
                        frac *= base
                        d = int(frac)
                        expected.append(d)
                        frac -= d
                got = list(digits_in_base(spec, base, count).digits)
                assert got == expected, (name, base)


class TestSeriesBounds:
    """|X - frac(value) * base**prec| <= err for every scaled generator.

    Every prec in 1..60 is checked, so each step of a series' term count is
    crossed, including the prec just below a step, where the neglected tail
    is largest against the one unit the bound allows it.
    """

    VALUES = {
        "pi": lambda mpmath: +mpmath.pi,
        "e": lambda mpmath: +mpmath.e,
        "log2": lambda mpmath: mpmath.log(2),
        "sqrt2": lambda mpmath: mpmath.sqrt(2),
    }

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_scaled_value_within_err(self, kind):
        import mpmath
        cases = [(base, prec) for base in (2, 10, 11, 256) for prec in range(1, 61)]
        cases += [(10, 139), (11, 2000), (256, 700), (2, 5000)]
        for base, prec in cases:
            x, err = _SCALED_FNS[kind](base, prec)
            with mpmath.workprec(int(prec * math.log2(base)) + 64):
                value = self.VALUES[kind](mpmath)
                diff = x - mpmath.frac(value) * mpmath.mpf(base) ** prec
                assert abs(diff) <= err, (kind, base, prec, diff)


class TestCertifier:
    """X = 123 * 10**g + rem with err = 2, for three certified digits."""

    @staticmethod
    def certify(rem_of_band):
        calls = []

        def scaled(prec):
            g = prec - 3
            calls.append(g)
            return 123 * 10 ** g + rem_of_band(10 ** g), 2

        try:
            return _certify(scaled, 10, 3, 2, "test digits"), calls
        except PrecisionExhausted:
            return None, calls

    def test_lower_end_of_band(self):
        assert self.certify(lambda band: 2) == (None, [2, 4, 8, 16])
        assert self.certify(lambda band: 3) == ([1, 2, 3], [2])

    def test_upper_end_of_band(self):
        assert self.certify(lambda band: band - 1 - 2) == (None, [2, 4, 8, 16])
        assert self.certify(lambda band: band - 1 - 3) == ([1, 2, 3], [2])


class TestIntDigitHelpers:
    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            base = rng.randint(2, 256)
            count = rng.randint(1, 200)
            digits = [rng.randrange(base) for _ in range(count)]
            value = digits_to_int(digits, base)
            assert int_to_digits(value, base, count) == digits

    def test_int_to_digits_overflow(self):
        with pytest.raises(ValueError):
            int_to_digits(16, 2, 4)
