"""BBP tests. The digit extractor is checked against the independent
full-precision pipeline (different algorithm, different code path)."""

import random
from fractions import Fraction

import pytest

from sagan.bbp import (
    BBPFormula,
    PolySeries,
    _evaluate_scaled,
    digit_extract,
    digit_extract_info,
    evaluate,
    extract_digits,
    log2_formula,
    pi_formula,
)
from sagan.digits import ConstantSpec, digits_in_base

PI = ConstantSpec.pi()
LOG2 = ConstantSpec.log2()


class TestFormulas:
    def test_pi_formula_shape(self):
        f = pi_formula()
        assert f.base == 16 and f.modulus == 8 and f.shift == 0
        assert f.terms == ((4, 1), (-2, 4), (-1, 5), (-1, 6))
        assert len(f.terms) == 4

    def test_pi_partial_sum_k0(self):
        f = pi_formula()
        partial = sum(Fraction(c, j) for c, j in f.terms)
        assert partial == Fraction(47, 15)

    def test_log2_formula_value(self):
        f = log2_formula()
        assert f.base == 2 and f.modulus == 1 and f.terms == ((1, 1),)
        # (1/2) * sum_{k<64} 2^-k/(k+1) lands in (0.693, 0.6932): the tail
        # sum_{k>=64} 2^-k/(k+1) is below 2^-64 * 2/65, far inside the gap
        partial = Fraction(1, 2) * sum(Fraction(1, (k + 1) * 2 ** k) for k in range(64))
        tail_bound = Fraction(2, 65 * 2 ** 64)
        assert Fraction(693, 1000) < partial < partial + tail_bound < Fraction(6932, 10000)

    def test_validation(self):
        with pytest.raises(ValueError):
            BBPFormula(16, 8, ())
        with pytest.raises(ValueError):
            BBPFormula(16, 8, ((1, 1), (2, 1)))
        with pytest.raises(ValueError):
            BBPFormula(16, 8, ((1, 9),))


class TestEvaluate:
    def test_pi_eight_hex_digits(self):
        assert evaluate(pi_formula(), 8).digits == (2, 4, 3, 15, 6, 10, 8, 8)

    def test_pi_against_native_pipeline(self):
        for count in (1, 10, 40, 200):
            assert evaluate(pi_formula(), count).digits == \
                digits_in_base(PI, 16, count).digits

    def test_log2_against_native_pipeline(self):
        for count in (1, 16, 20, 100):
            assert evaluate(log2_formula(), count).digits == \
                digits_in_base(LOG2, 2, count).digits

    def test_rational_poly_series(self):
        third = PolySeries(4, p=(1,), q=(4,))  # sum 4^-k * (1/4) = 1/3
        assert evaluate(third, 6).digits == \
            digits_in_base(ConstantSpec.rational(1, 3), 4, 6).digits
        ninth = PolySeries(10, p=(1,), q=(9,))  # sum 10^-k / 9 = 10/81
        assert evaluate(ninth, 8).digits == \
            digits_in_base(ConstantSpec.rational(10, 81), 10, 8).digits

    @pytest.mark.parametrize("formula, value", [
        (pi_formula(), lambda mpmath: +mpmath.pi),
        (log2_formula(), lambda mpmath: mpmath.log(2)),
    ])
    def test_scaled_value_within_err(self, formula, value):
        # every prec in range crosses each step of the term count, including
        # the prec just below a step, where the neglected tail is largest
        import mpmath
        for prec in [*range(formula.shift, 120), 1000]:
            x, err = _evaluate_scaled(formula, prec)
            with mpmath.workprec(prec * (formula.base - 1).bit_length() + 64):
                diff = x - value(mpmath) * mpmath.mpf(formula.base) ** prec
                assert abs(diff) <= err, (formula.description, prec, diff)


class TestDigitExtract:
    def test_first_window(self):
        assert digit_extract(pi_formula(), 1, 8).digits == (2, 4, 3, 15, 6, 10, 8, 8)

    def test_mid_window_consistency(self):
        native = digits_in_base(PI, 16, 104).digits
        block = digit_extract(pi_formula(), 101, 4)
        assert block.digits == native[100:104]
        assert block.start_position == 101

    def test_log2_first_digit(self):
        assert digit_extract(log2_formula(), 1, 1).digits == (1,)

    def test_window_consistency_sampled(self):
        native = digits_in_base(PI, 16, 10007).digits
        rng = random.Random(161)
        positions = {1, 10, 100, 1000, 10000} | {rng.randint(1, 9999) for _ in range(40)}
        for p in positions:
            block, guard = digit_extract_info(pi_formula(), p, 8)
            assert tuple(block.digits) == native[p - 1:p + 7], f"position {p}"
            assert guard in (64, 128, 256)

    def test_log2_window_consistency(self):
        native = digits_in_base(LOG2, 2, 2020).digits
        for p in (1, 7, 64, 512, 2013):
            assert tuple(digit_extract(log2_formula(), p, 8).digits) == native[p - 1:p + 7]

    def test_position_locality(self):
        a = digit_extract(pi_formula(), 500, 8)
        b = digit_extract(pi_formula(), 500, 8)
        assert a.digits == b.digits

    def test_hex_to_binary_coherence(self):
        binary = digits_in_base(PI, 2, 100).digits
        for p in range(1, 26):
            hex_digit = digit_extract(pi_formula(), p, 1).digits[0]
            expected_bits = tuple(int(b) for b in format(hex_digit, "04b"))
            assert binary[4 * (p - 1):4 * p] == expected_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            digit_extract(pi_formula(), 0, 4)
        with pytest.raises(ValueError):
            digit_extract(pi_formula(), 1, 9)
        with pytest.raises(TypeError):
            digit_extract(PolySeries(4, (1,), (4,)), 1, 4)


class TestExtractDigits:
    def test_chained_window(self):
        native = digits_in_base(PI, 16, 60).digits
        assert extract_digits(pi_formula(), 1, 40).digits == native[:40]
        assert extract_digits(pi_formula(), 17, 30).digits == native[16:46]

    def test_short_window_passthrough(self):
        assert extract_digits(pi_formula(), 9, 4).digits == \
            digit_extract(pi_formula(), 9, 4).digits
