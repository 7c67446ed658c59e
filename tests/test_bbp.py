"""BBP tests. The digit extractor is checked against the independent
full-precision pipeline (different algorithm, different code path)."""

import random
import time
from fractions import Fraction

import pytest

from sagan import bbp, digits
from sagan.bbp import (
    BBPFormula,
    _head_sum,
    _scaled_fraction,
    digit_extract,
    digit_extract_info,
    evaluate,
    log2_formula,
    pi_formula,
)
from sagan.digits import ConstantSpec, _linear_sum, digits_in_base
from sagan.errors import CarryAmbiguity

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


# large and negative coefficients; 2**40 * q stays in int64 below k ~ 2**20
USER = BBPFormula(10, 7, ((2 ** 40, 1), (-(3 ** 20), 3), (-5, 7), (12345, 4)))


def user_value(mpmath):
    """USER's value at the working precision: its terms fall by 10 per k, so
    the sum stops once they are far below the last bit."""
    total, k = mpmath.mpf(0), 0
    while k < mpmath.mp.prec / 3 + 60:
        total += sum(mpmath.mpf(c) / (7 * k + j) for c, j in USER.terms) / mpmath.mpf(10) ** k
        k += 1
    return total


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

    @pytest.mark.parametrize("formula, value", [
        (pi_formula(), lambda mpmath: +mpmath.pi),
        (log2_formula(), lambda mpmath: mpmath.log(2)),
        (USER, user_value),
    ])
    def test_scaled_value_within_err(self, formula, value):
        # evaluate's parts, one per term with d = base**shift; every prec in
        # range crosses each step of a part's term count, including the prec
        # just below a step, where the neglected tail is largest
        import mpmath
        base = formula.base
        scaled = _linear_sum(bbp._parts(formula, 0, base ** formula.shift), base)
        for prec in [*range(formula.shift, 120), 1000]:
            x, err = scaled(prec)
            with mpmath.workprec(prec * (base - 1).bit_length() + 64):
                diff = x - value(mpmath) * mpmath.mpf(base) ** prec
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
            digit_extract(object(), 1, 4)

    def test_rejects_positions_past_int64_exponents(self):
        # the head sum's exponents position - 1 - shift - k are int64
        with pytest.raises(ValueError, match="2\\*\\*63"):
            digit_extract(pi_formula(), 2 ** 64, 1)
        with pytest.raises(ValueError):
            digit_extract_info(pi_formula(), 2 ** 63 + 1, 1)[0]
        with pytest.raises(ValueError):
            digit_extract_info(log2_formula(), 2 ** 63 + 2, 1)


class TestExtractDigits:
    def test_chained_window(self):
        native = digits_in_base(PI, 16, 60).digits
        assert digit_extract_info(pi_formula(), 1, 40)[0].digits == native[:40]
        assert digit_extract_info(pi_formula(), 17, 30)[0].digits == native[16:46]

    def test_short_window_passthrough(self):
        assert digit_extract_info(pi_formula(), 9, 4)[0].digits == \
            digit_extract(pi_formula(), 9, 4).digits


def _signed_floor(num, den):
    """num/den truncated toward zero: |result - num/den| < 1 for den > 0."""
    if num < 0:
        return -((-num) // den)
    return num // den


def scalar_head_sum(formula, top, width, start, stop):
    """The head sum one term at a time, with Python's pow."""
    return sum(_signed_floor((c * pow(formula.base, top - k, formula.modulus * k + j)) << width,
                             formula.modulus * k + j)
               for k in range(start, stop) for c, j in formula.terms)


CHUNK = bbp._CHUNK


class TestHeadSum:
    @pytest.mark.parametrize("formula", [pi_formula(), log2_formula(), USER],
                             ids=["pi", "log2", "user"])
    @pytest.mark.parametrize("width", [8, 72, 96, 4064])
    def test_equals_scalar_reference(self, formula, width):
        # ranges that end on, just before and just past the chunk edges
        top = 2 * CHUNK + 50
        for start, stop in [(0, 1), (0, CHUNK), (0, CHUNK + 1), (3, 2 * CHUNK + 2),
                            (CHUNK - 1, CHUNK + 1), (top - 5, top + 1)]:
            assert _head_sum(formula, top, width, start, stop) == \
                scalar_head_sum(formula, top, width, start, stop), (start, stop)

    @pytest.mark.parametrize("formula", [pi_formula(), USER], ids=["pi", "user"])
    def test_moduli_past_int64_range(self, formula):
        # pi: the first chunk has every q = m*k + j below 2**31 and runs in
        # int64, the second starts where q passes 2**31 and runs on Python
        # ints; the user formula's |c| * q passes 2**63 in both chunks
        first = (2 ** 31 - max(j for _, j in formula.terms)) // formula.modulus - CHUNK
        top = first + CHUNK + 40
        for width in (72, 96):
            assert _head_sum(formula, top, width, first, top + 1) == \
                scalar_head_sum(formula, top, width, first, top + 1)

    def test_empty_range(self):
        assert _head_sum(pi_formula(), 10, 96, 5, 5) == 0


class TestWideWindows:
    @pytest.mark.parametrize("count", [9, 64, 1000])
    def test_pi_against_native_pipeline(self, count):
        native = digits_in_base(PI, 16, 1300 + count).digits
        for p in (1, 1300):
            block, guard = digit_extract_info(pi_formula(), p, count)
            assert block.digits == native[p - 1:p - 1 + count] and guard in (64, 128, 256)
            assert digit_extract_info(pi_formula(), p, count)[0].digits == block.digits

    @pytest.mark.parametrize("count", [9, 64, 1000])
    def test_log2_against_native_pipeline(self, count):
        native = digits_in_base(LOG2, 2, 500 + count).digits
        for p in (1, 500):
            block, _ = digit_extract_info(log2_formula(), p, count)
            assert block.digits == native[p - 1:p - 1 + count]
            assert digit_extract_info(log2_formula(), p, count)[0].digits == block.digits

    def test_position_100000(self):
        block, _ = digit_extract_info(pi_formula(), 100000, 8)
        assert "".join(f"{d:x}" for d in block.digits) == "535ea16c"

    def test_position_one_million_in_time(self):
        start = time.perf_counter()
        block, _ = digit_extract_info(pi_formula(), 10 ** 6, 8)
        assert time.perf_counter() - start < 20
        assert "".join(f"{d:x}" for d in block.digits) == "26c65e52"

    def test_count_validation(self):
        with pytest.raises(ValueError):
            digit_extract_info(pi_formula(), 1, 0)
        with pytest.raises(ValueError):
            digit_extract_info(pi_formula(), 1, 0)[0]

    @pytest.mark.parametrize("formula", [pi_formula(), log2_formula()], ids=["pi", "log2"])
    def test_carry_rejections_match_scalar_head(self, formula, monkeypatch):
        # the numpy head and the scalar head give one (acc, err) at the widths
        # of a 4-digit window's first two tries, so the certifier sees the
        # same X and accepts or rejects the same windows
        bits = (formula.base - 1).bit_length()
        cases = [(p, (4 + guard // bits) * bits) for p in range(1, 400) for guard in (64, 128)]
        fast = [_scaled_fraction(formula, p, width) for p, width in cases]
        monkeypatch.setattr(bbp, "_head_sum", scalar_head_sum)
        assert fast == [_scaled_fraction(formula, p, width) for p, width in cases]

    @pytest.mark.parametrize("formula, spec, positions", [
        (pi_formula(), PI, (1, 17)),
        (log2_formula(), LOG2, (1, 5)),
    ], ids=["pi", "log2"])
    def test_3000_digits(self, formula, spec, positions):
        native = digits_in_base(spec, formula.base, 3020).digits
        for p in positions:
            assert digit_extract_info(formula, p, 3000)[0].digits == native[p - 1:p + 2999], p

    @pytest.mark.parametrize("formula", [pi_formula(), log2_formula()], ids=["pi", "log2"])
    def test_one_tail_quotient_per_term(self, formula, monkeypatch):
        # the tail is one _linear_sum part per formula term, at every width
        calls, quotient = [], digits._quotient
        monkeypatch.setattr(digits, "_quotient",
                            lambda *args: calls.append(args) or quotient(*args))
        for count in (1, 8, 100, 3000):
            calls.clear()
            assert digit_extract_info(formula, 17, count)[1] == 64  # one try
            assert len(calls) == len(formula.terms), count


def series_fraction(formula, terms):
    """The first `terms` terms of the value as a Fraction, and a bound on the
    rest: sum_{k>=terms} |c| base**-k / (m*k + j) <= 2 sum|c| base**-terms."""
    base, m = formula.base, formula.modulus
    head = sum(Fraction(c, (m * k + j) * base ** k)
               for k in range(terms) for c, j in formula.terms)
    rest = Fraction(2 * sum(abs(c) for c, _ in formula.terms), base ** terms)
    return head / base ** formula.shift, rest / base ** formula.shift


class TestScaledFraction:
    @pytest.mark.parametrize("formula", [pi_formula(), log2_formula(), USER],
                             ids=["pi", "log2", "user"])
    def test_within_err_of_exact_sum(self, formula):
        # positions 1..200; position p takes every 37th width from 8 + p % 37
        # up to 600, so together they take every width in 8..600. The exact
        # sum's rest, times base**199 * 2**600, stays below 2**-64 units.
        base = formula.base
        coeffs = sum(abs(c) for c, _ in formula.terms)
        terms = 200 + (600 + 64 + 2 + coeffs.bit_length()) // (base.bit_length() - 1)
        value, rest = series_fraction(formula, terms)
        assert rest * base ** 199 * 2 ** 600 < Fraction(1, 2 ** 64)
        for p in range(1, 201):
            frac = value * base ** (p - 1) % 1
            for width in range(8 + p % 37, 601, 37):
                acc, err = _scaled_fraction(formula, p, width)
                mod = 1 << width
                diff = (acc - frac * mod + mod // 2) % mod - mod // 2
                assert abs(diff) + rest * base ** (p - 1) * mod <= err, (p, width, float(diff))


class TestCarryMargin:
    @pytest.mark.parametrize("formula", [pi_formula(), log2_formula()], ids=["pi", "log2"])
    @pytest.mark.parametrize("position, count", [(1, 1), (2, 8), (300, 3)])
    def test_residue_at_the_margin_edges(self, formula, position, count, monkeypatch):
        # the first try reads X = acc at width count * bits + 64 (both bases
        # are powers of two) with err + 1 for the floor, and certifies when
        # err + 2 <= X mod 2**64 < 2**64 - err - 2, err being
        # _scaled_fraction's. At that width _head_sum is replaced by a value
        # that puts acc = rem, which sets the window's digits to 0; a refused
        # first try certifies the true digits at 128 guard bits.
        truth = digit_extract_info(formula, position, count)[0].data
        width, band = count * (formula.base - 1).bit_length() + 64, 1 << 64
        head_sum = bbp._head_sum
        monkeypatch.setattr(bbp, "_head_sum", lambda *args: 0)
        tail, err = _scaled_fraction(formula, position, width)
        for rem, accepted in [(err + 2, True), (err + 1, False),
                              (band - err - 3, True), (band - err - 2, False)]:
            monkeypatch.setattr(bbp, "_head_sum", lambda f, top, w, *rest, acc=rem - tail:
                                acc if w == width else head_sum(f, top, w, *rest))
            block, guard = digit_extract_info(formula, position, count)
            assert (block.data, guard) == ((bytes(count), 64) if accepted else (truth, 128)), rem

    @pytest.mark.parametrize("formula", [pi_formula(), log2_formula()], ids=["pi", "log2"])
    def test_unresolved_carry_raises_carry_ambiguity(self, formula, monkeypatch):
        # acc = 0 sits on a band edge at every width, so all four tries fail
        monkeypatch.setattr(bbp, "_scaled_fraction", lambda *args: (0, 2))
        with pytest.raises(CarryAmbiguity, match="after 512 guard bits"):
            digit_extract_info(formula, 5, 1)
