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
from sagan import _arith, bbp
from sagan import digits as digits_module
from sagan.digits import (DEFAULT_GUARD, _SOURCES, _certify, _computed, _concat_scaled,
                          _linear_sum, _quotient, _root, _series, _split)
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

    def test_rejects_out_of_range_digits(self):
        for base in (2, 10, 255, 256):
            for bad in (-1, 256, base):
                with pytest.raises(InvalidDigit):
                    DigitBlock(base, 1, [0, bad])
            if base < 256:
                with pytest.raises(InvalidDigit):
                    DigitBlock(base, 1, bytes([0, base]))
            assert DigitBlock(base, 1, bytes([0, base - 1])).digits == (0, base - 1)

    def test_message_names_the_largest_rejected_digit(self):
        with pytest.raises(InvalidDigit, match="^digit 12 out of range for base 10$"):
            DigitBlock(10, 1, bytes([3, 12, 9, 11, 0]))
        with pytest.raises(InvalidDigit, match="^digit 255 out of range for base 2$"):
            DigitBlock(2, 1, bytes([1, 255, 2, 0]))

    def test_bytes_payload_and_int_coercion(self):
        block = DigitBlock(16, 1, (1, 15, "7", 2.0))
        assert block.data == b"\x01\x0f\x07\x02"
        assert block.digits == (1, 15, 7, 2)
        assert block == DigitBlock(16, 1, bytearray(b"\x01\x0f\x07\x02"))
        assert DigitBlock(16, 1, iter([3, 4])).digits == (3, 4)

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

    def test_short_input_checks_every_continuation(self):
        # 0.33 gives base-3 digit 0, but continuations past 1/3 give 1: with
        # only need + guard digits the check must not repeat the first run
        with pytest.raises(PrecisionExhausted):
            base_convert([3, 3], 3, 1, guard=1)
        assert base_convert([3, 3, 3], 3, 1, guard=1).digits == (0,)
        need = 7  # ceil(6 * log10(11))
        for supplied in range(need + DEFAULT_GUARD, need + 2 * DEFAULT_GUARD + 1):
            block = base_convert(decimal_digits(PI, supplied), 11, 6)
            assert block.digits == digits_in_base(PI, 11, 6).digits

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

    def test_champernowne_against_numerals(self):
        # every base across several numeral-width changes
        for base in (2, 3, 7, 10, 16, 255, 256):
            ref = []
            n = 1
            while len(ref) < 70000:
                numeral = []
                m = n
                while m:
                    m, d = divmod(m, base)
                    numeral.append(d)
                ref.extend(reversed(numeral))
                n += 1
            got = concat_constant_digits(ConstantSpec.champernowne(base), 70000)
            assert got.digits == tuple(ref[:70000])

    def test_fibonacci_concat_large_numbers(self):
        # from 12000 bits on, numbers are converted without str(), which
        # refuses ints past 4300 decimal digits
        from sagan.digits import _concat_chunks
        chunks = _concat_chunks(ConstantSpec.fibonacci_concat())
        for n, f in zip(range(17400), fibonacci_numbers()):
            chunk = next(chunks)
            if n % 97 == 0 or n > 17200:
                assert chunk[0] != 0 or f == 0
                assert digits_to_int(chunk, 10) == f

    def test_champernowne_foreign_base(self):
        # binary champernowne in base 10 must match its converted value
        native = concat_constant_digits(ConstantSpec.champernowne(2), 200)
        value = Fraction(digits_to_int(native.digits, 2), 2 ** 200)
        oracle = rational_digits_oracle(value.numerator, value.denominator, 10, 20)
        got = digits_in_base(ConstantSpec.champernowne(2), 10, 20)
        assert list(got.digits) == oracle


def cfrac_reference(coefficients, base: int, count: int) -> int:
    """floor(base**count * (x - a0)) for x = [a0; a1, ...], by the same
    bracketing as cfrac_digits but with the full product q_cur * q_prev
    compared with the bound at every coefficient."""
    it = iter(coefficients)
    a0 = next(it)
    scale = base ** count
    p_prev, q_prev, p_cur, q_cur = 1, 0, a0, 1
    for a in it:
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur * q_prev > scale * base * base:
            lo = (p_cur - a0 * q_cur) * scale // q_cur
            if lo == (p_prev - a0 * q_prev) * scale // q_prev:
                return lo
    return abs(p_cur - a0 * q_cur) % q_cur * scale // q_cur


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

    @pytest.mark.parametrize("base", [2, 10, 11])
    def test_fibonacci_cfrac_matches_full_product_reference(self, base):
        for count in (1, 2, 9, 100, 1001, 4097, 20000):
            got = digits_in_base(ConstantSpec.fibonacci_cfrac(), base, count)
            assert len(got) == count
            assert digits_to_int(got.digits, base) == cfrac_reference(
                fibonacci_numbers(), base, count), count

    def test_finite_cfracs_match_full_product_reference(self):
        rng = random.Random(808)
        for _ in range(100):
            coeffs = [rng.choice((0, rng.randint(-10 ** 6, 10 ** 6)))]
            for _ in range(rng.randint(0, 60)):
                coeffs.append(rng.choice((1, rng.randint(1, 9), rng.randint(1, 3 ** 90))))
            base = rng.choice((2, 3, 7, 10, 11, 16, 256))
            count = rng.randint(1, 300)
            got = cfrac_digits(coeffs, base, count)
            assert digits_to_int(got.digits, base) == cfrac_reference(coeffs, base, count), \
                (coeffs, base, count)

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

    def test_reads_match_one_block(self):
        # take, skip, reserve and next_block in any order read the same
        # digits as one block, for generated (native base) and recomputed
        # streams
        rng = random.Random(7)
        for spec, base in ((ConstantSpec.champernowne(10), 10), (PI, 10),
                           (ConstantSpec.copeland_erdos(), 10),
                           (ConstantSpec.champernowne(3), 3),
                           (ConstantSpec.rational(22, 7), 256),
                           (ConstantSpec.champernowne(10), 11),
                           (ConstantSpec.fibonacci_cfrac(), 10)):
            whole = digits_in_base(spec, base, 30000).digits
            stream = open_stream(spec, base, rng.randint(1, 300))
            while stream.cursor < 25000:
                start = stream.cursor
                step = rng.choice(("next", "take", "skip", "reserve"))
                if step == "skip":
                    stream.skip(rng.randint(0, 3000))
                    continue
                if step == "reserve":  # reads may still go past it
                    stream.reserve(rng.randint(0, 3000))
                    continue
                block = stream.next_block() if step == "next" else stream.take(rng.randint(0, 500))
                assert block.start_position == start
                assert block.digits == whole[start - 1:start - 1 + len(block)]

    def test_negative_counts_raise(self):
        # a backwards skip or take would move the cursor behind digits the
        # buffer has already dropped
        for spec in (PI, ConstantSpec.champernowne(10)):
            stream = open_stream(spec, 10, 64)
            for _ in range(20):
                stream.take(1000)
            with pytest.raises(ValueError):
                stream.skip(-10)
            with pytest.raises(ValueError):
                stream.take(-5)
            assert stream.take(5) == DigitBlock(
                10, 20001, digits_in_base(spec, 10, 20005).digits[20000:])

    def test_rational_stream_computes_each_digit_once(self, monkeypatch):
        spec = ConstantSpec.rational(1, 997)
        whole = digits_in_base(spec, 10, 10 ** 5).data

        def recompute(*args, **kwargs):
            raise AssertionError("a rational stream recomputed its digits")

        monkeypatch.setattr(digits_module, "digits_in_base", recompute)
        monkeypatch.setattr(digits_module, "_computed", recompute)
        stream = open_stream(spec, 10, 1000)
        assert b"".join(stream.next_block().data for _ in range(100)) == whole

    def test_short_first_read_computes_only_its_floor(self, monkeypatch):
        # the first refill is 4 blocks, or 4 reads when the read is shorter,
        # and at least 64 digits
        first = digits_in_base(PI, 10, 10).data
        targets = []
        real = digits_module._computed

        def recording(*args):
            digits = real(*args)
            return lambda count, done: targets.append(count) or digits(count, done)

        monkeypatch.setattr(digits_module, "_computed", recording)
        stream = open_stream(PI, 10, 10 ** 5)
        assert stream.take(10).data == first
        assert targets == [64]
        targets.clear()
        stream = open_stream(PI, 10, 100)
        stream.take(1000)
        stream.take(10)
        assert targets == [1000, 2000]

    def test_determinism_across_streams(self):
        for spec in (PI, ConstantSpec.champernowne(10), ConstantSpec.fibonacci_cfrac()):
            a = open_stream(spec, 10, 64)
            b = open_stream(spec, 10, 64)
            for _ in range(3):
                assert a.next_block().digits == b.next_block().digits


def held_ints(obj):
    """Every integer a source holds, through closures and tuples."""
    if hasattr(obj, "bit_length"):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from held_ints(item)
    elif getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            yield from held_ints(cell.cell_contents)


class TestGrowingSources:
    """A stream over a series constant extends one source: each refill
    splits only its new terms and converts only its new digits."""

    SERIES = (PI, ConstantSpec.e(), ConstantSpec.log2(), ConstantSpec.sqrt2())

    def test_pi_stream_costs_one_call(self, monkeypatch):
        counts = {"terms": 0, "digits": 0}
        term, to_digits = digits_module._chudnovsky_term, digits_module.int_to_digit_bytes

        def counted_term(k):
            counts["terms"] += 1
            return term(k)

        def counted_digits(value, base, count):
            counts["digits"] += count
            return to_digits(value, base, count)

        monkeypatch.setattr(digits_module, "_chudnovsky_term", counted_term)
        monkeypatch.setattr(digits_module, "int_to_digit_bytes", counted_digits)
        total, block = 102400, 4096
        whole = digits_in_base(PI, 10, total).data
        one_call = dict(counts)
        counts.update(terms=0, digits=0)
        stream = open_stream(PI, 10, block)
        stream.reserve(total)  # refills to 16384, 32768, 65536 and 102400
        assert b"".join(stream.next_block().data for _ in range(total // block)) == whole
        assert counts["terms"] <= one_call["terms"] + 16, (counts, one_call)
        assert counts["digits"] <= one_call["digits"] + 16, (counts, one_call)

    def test_e_stream_term_search_starts_from_the_last_count(self, monkeypatch):
        calls = []
        lgamma = math.lgamma
        monkeypatch.setattr(math, "lgamma", lambda x: calls.append(x) or lgamma(x))
        total, block = 131072, 4096
        stream = open_stream(ConstantSpec.e(), 10, block)
        got = b"".join(stream.next_block().data for _ in range(total // block))
        # a few refills, each a galloping search of about 2 log2(terms) steps;
        # a search that restarts at 2 makes tens of thousands of calls
        assert len(calls) <= 200, len(calls)
        assert got == digits_in_base(ConstantSpec.e(), 10, total).data

    @pytest.mark.parametrize("spec", SERIES, ids=ConstantSpec.identifier)
    def test_held_state_stays_bounded(self, spec):
        # the state is the split of one call at the largest prec, nothing more
        bound = {"pi": 3, "e": 2, "log2": 3, "sqrt2": 1}[spec.kind]
        for base in (2, 10, 256):
            source = _SOURCES[spec.kind](base)
            for count in (64, 1000, 2000, 4000, 8000, 16000):
                source(count)
                bits = max(v.bit_length() for v in held_ints(source))
                assert bits <= bound * count * math.log2(base) + 200, (base, count, bits)

    @pytest.mark.parametrize("spec", SERIES, ids=ConstantSpec.identifier)
    def test_random_refills_match_one_call(self, spec):
        rng = random.Random(spec.kind)
        total = 3000 if spec.kind == "log2" else 6000
        for base in (2, 10, 11, 256):
            whole = digits_in_base(spec, base, total).data
            # with guard 1 most calls retry, so retries follow extensions
            for guard in (1, DEFAULT_GUARD):
                digits, done, got = _computed(spec, base, guard), 0, b""
                while done < total:
                    count = done + rng.choice((1, 7, rng.randint(1, 2 * done + 64)))
                    got += digits(count, done)
                    done = count
                assert got[:total] == whole, (base, guard)

    @pytest.mark.parametrize("spec", SERIES, ids=ConstantSpec.identifier)
    def test_stream_reads_match_one_call(self, spec):
        rng = random.Random(spec.kind)
        total = 3000 if spec.kind == "log2" else 8000
        for base in (2, 10, 11, 256):
            whole = digits_in_base(spec, base, total).data
            stream = open_stream(spec, base, rng.randint(1, 300))
            while stream.cursor < total - 800:
                start = stream.cursor
                step = rng.choice(("next", "take", "skip", "reserve"))
                if step == "skip":
                    stream.skip(rng.randint(0, 500))
                    continue
                if step == "reserve":  # reads may still go past it
                    stream.reserve(rng.randint(0, 500))
                    continue
                block = stream.next_block() if step == "next" else stream.take(rng.randint(0, 500))
                assert block.data == whole[start - 1:start - 1 + len(block)], (base, start)


def random_poly(rng, low):
    """k -> a random polynomial of degree <= 2 in k, its coefficients >= low."""
    coeffs = [rng.randint(low, 9) for _ in range(rng.randint(1, 3))]
    return lambda k: sum(c * k ** i for i, c in enumerate(coeffs))


class TestBinarySplitting:
    """_split and _series against exact Fraction sums, on random term
    functions with a denominator b(k) folded into p and q."""

    @staticmethod
    def folded(rng):
        """(term, p, q, a, b): term(k) folds b into p and q, b(-1) = 1."""
        p, q, a = random_poly(rng, -9), random_poly(rng, 1), random_poly(rng, -9)
        b = random_poly(rng, 1)
        while all(b(k) == 1 for k in range(3)):
            b = random_poly(rng, 1)

        def term(k):
            return p(k) * (b(k - 1) if k else 1), q(k) * b(k), a(k)
        return term, p, q, a, b

    def test_split_equals_fraction_sum(self):
        rng = random.Random(1998)
        for _ in range(200):
            term, p, q, a, b = self.folded(rng)
            lo = rng.randint(0, 30)
            hi = lo + rng.randint(1, 40)
            big_p, big_q, big_t = _split(term, lo, hi)
            # the folded b(k-1)/b(k) ratios telescope to b(lo-1)/b(k)
            ratio, total = Fraction(b(lo - 1) if lo else 1), Fraction(0)
            for k in range(lo, hi):
                ratio *= Fraction(p(k), q(k))
                total += Fraction(a(k), b(k)) * ratio
            assert big_p == math.prod(term(k)[0] for k in range(lo, hi))
            assert big_q == math.prod(term(k)[1] for k in range(lo, hi))
            assert Fraction(big_t, big_q) == total, (lo, hi)

    def test_extended_series_equals_one_split(self):
        rng = random.Random(1997)
        for _ in range(200):
            term = self.folded(rng)[0]
            upto, n = _series(term), 0
            for _ in range(rng.randint(1, 5)):
                n += rng.randint(1, 30)
                state = upto(n)
            assert state == _split(term, 0, n)
            assert upto(rng.randint(1, n)) == state  # fewer terms: the held state


class TestSeededRoot:
    """_root seeds a Newton step from its last root when prec at most
    doubles, and takes a full isqrt otherwise."""

    @pytest.mark.parametrize("c,base", [(2, 2), (2, 10), (2, 256), (10005, 10), (10005, 11)])
    def test_matches_isqrt(self, c, base, monkeypatch):
        full = []
        monkeypatch.setattr(digits_module, "isqrt", lambda n: full.append(n) or math.isqrt(n))
        for prec0, prec in ((1, 2), (1, 3), (2, 3), (40, 41), (40, 80), (40, 81),
                            (999, 1000), (1000, 2000), (1000, 2001), (777, 1553)):
            root = _root(c, base)
            assert root(prec0, base ** prec0) == math.isqrt(c * base ** (2 * prec0))
            full.clear()
            assert root(prec, base ** prec) == math.isqrt(c * base ** (2 * prec)), (prec0, prec)
            assert bool(full) == (prec > 2 * prec0), (prec0, prec)

    def test_chain_of_seeded_roots(self):
        rng = random.Random(3)
        for c, base in ((2, 10), (10005, 11), (2, 3)):
            root, prec = _root(c, base), 1
            while prec < 5000:
                prec = rng.randint(prec, 2 * prec)
                scale = base ** prec
                assert root(prec, scale) == math.isqrt(c * scale * scale), (c, base, prec)


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
            for base, count in ((10, 500), (16, 300), (2, 600), (3, 600), (11, 500), (256, 200)):
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

    CASES = [(base, prec) for base in (2, 10, 11, 256) for prec in range(1, 61)]
    CASES += [(10, 139), (11, 2000), (256, 700), (2, 5000)]

    def check(self, kind, base, prec, x, err):
        import mpmath
        with mpmath.workprec(int(prec * math.log2(base)) + 64):
            value = self.VALUES[kind](mpmath)
            diff = x - mpmath.frac(value) * mpmath.mpf(base) ** prec
            assert abs(diff) <= err, (kind, base, prec, diff)

    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_scaled_value_within_err(self, kind):
        for base, prec in self.CASES:
            self.check(kind, base, prec, *_SOURCES[kind](base)(prec))

    @pytest.mark.parametrize("rising", (True, False), ids=("rising", "falling"))
    @pytest.mark.parametrize("kind", sorted(VALUES))
    def test_grown_source_within_err(self, kind, rising):
        # one source per base serves every case: rising, each call extends
        # the terms and seeds the root from the last call; falling, each call
        # holds more terms than its prec needs and takes a full root
        sources = {}
        for base, prec in sorted(self.CASES, reverse=not rising):
            source = sources.setdefault(base, _SOURCES[kind](base))
            self.check(kind, base, prec, *source(prec))

    @staticmethod
    def linear_sum_value(mpmath, parts):
        # |c| < 2**40: the terms left out sum to far below the last bit
        total, tiny = mpmath.mpf(0), mpmath.mpf(2) ** -(mpmath.mp.prec + 60)
        for c, d, m, j, r in parts:
            k, term = 0, mpmath.mpf(1)
            while term > tiny:
                total += c * term / (m * k + j) / d
                term /= r
                k += 1
        return total

    def test_random_linear_sums_within_err(self):
        # sums of parts c/d * sum_k r**-k / (m*k + j) with few terms per part
        # (small r) and large and negative coefficients
        import mpmath
        rng = random.Random(1997)
        for _ in range(40):
            parts = tuple((rng.choice((1, -1)) * rng.randint(0, 10 ** rng.randint(0, 12)),
                           rng.randint(1, 10 ** rng.randint(0, 6)), rng.randint(1, 8),
                           rng.randint(1, 8), rng.randint(2, 40))
                          for _ in range(rng.randint(1, 5)))
            base = rng.choice((2, 3, 10, 256))
            scaled = _linear_sum(parts, base)
            with mpmath.workprec(80 * 8 + 96):
                value = self.linear_sum_value(mpmath, parts)
                for prec in sorted(rng.sample(range(1, 80), 12)):
                    x, err = scaled(prec)
                    diff = x - value * mpmath.mpf(base) ** prec
                    assert abs(diff) <= err, (parts, base, prec, diff)


class TestQuotient:
    """_quotient(m, t, q) against exact Fraction values. The _SERIES_ERR
    derivation bounds its shift error by 2**(1 - SLACK) (1 + |t/q| +
    2**(1 - SLACK)), reached when both shifted-out remainders are 2**s - 1
    and t < 0 (for t > 0 their errors partly cancel), the shifted divisor
    has its fewest bits, |m| has all its bits set and |t/q| is at a
    caller's bound."""

    SLACK = 32  # the least slack the derivation allows (2**30 linear-sum parts)
    RATIOS = {"pi": Fraction(1, 2 ** 23), "e": Fraction(math.e), "linear": Fraction(2)}

    @classmethod
    def bound(cls, t, q):
        unit = Fraction(1, 2 ** (cls.SLACK - 1))
        return unit * (1 + abs(Fraction(t, q)) + unit)

    @classmethod
    def tight(cls, m_sign, t_sign, ratio):
        """(m, t, q) as above, with t' and q' odd, |t/q| within 0.5% under
        `ratio`, and m t / q past the bound, by at most a quarter of it,
        from the integer that the shift error moves m t' / q' toward."""
        bits, s = 64, 48
        m, rem = m_sign * (2 ** bits - 1), 2 ** s - 1
        q_hi = 2 ** (bits + cls.SLACK - 1) + 1
        q = (q_hi << s) + rem
        # m t/q - m t'/q' = m rem (q' - t') / (q q'): its sign picks the side
        toward = m_sign if t_sign < 0 or ratio < 1 else -m_sign
        offset = cls.bound(ratio, 1) * 9 / 8
        for j in range(1, 5000):
            near = math.floor(m * t_sign * ratio * (1 - Fraction(j, 10 ** 6)))
            target = near + (offset if toward > 0 else 1 - offset)
            t_hi = math.floor((target * q / m - rem) / 2 ** s) | 1
            t = (t_hi << s) + rem
            v, limit = Fraction(m * t, q), cls.bound(t, q)
            gap = v - math.floor(v) if toward > 0 else math.ceil(v) - v
            if limit < gap <= limit * 5 / 4:
                return m, t, q
        raise AssertionError("no operands in the window")

    @pytest.mark.parametrize("ratio", RATIOS.values(), ids=RATIOS.keys())
    @pytest.mark.parametrize("m_sign, t_sign", ((1, 1), (1, -1), (-1, 1), (-1, -1)))
    def test_floor_where_the_bound_is_tight(self, m_sign, t_sign, ratio):
        m, t, q = self.tight(m_sign, t_sign, ratio)
        assert q.bit_length() - m.bit_length() - self.SLACK == 48  # the shift s
        assert abs(Fraction(t, q)) < ratio
        assert _quotient(m, t, q) == math.floor(Fraction(m * t, q))

    def test_random_operands_within_bound(self):
        rng = random.Random(1998)
        for _ in range(2000):
            m = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 200))
            q = rng.getrandbits(rng.randint(1, 300)) | 1
            t = rng.choice((1, -1)) * rng.randint(0, 3 * q)
            v = Fraction(m * t, q) - _quotient(m, t, q)
            limit = self.bound(t, q)
            assert -limit < v < 1 + limit, (m, t, q)


class TestDivisionSize:
    """Each series divides at its quotient's size. _quotient keeps the
    divisor at bl(m) + _SLACK bits, and the quotient m t / q is shorter than
    m by under 2 + log2|q/t| bits. SHORTER holds that log2, rounded up, for
    the smallest |t/q| a source passes: pi's Q/T > 2**-24, e's T/Q > 1, log
    2's part 8/8749 atanh(1/8749) and BBP parts T/(d Q) >= 1/6 (pi) and
    >= 1/2 (log 2)."""

    SHORTER = {"pi": 24, "e": 0, "log2": 14}
    BBP = {"pi": (bbp.pi_formula(), 3), "log2": (bbp.log2_formula(), 1)}

    @staticmethod
    def series_divisions(monkeypatch, run):
        """(divisor bits, quotient bits) of each division made inside a
        scaled source while run() runs."""
        sizes, inside = [], []
        real_divmod, real_certify = _arith.divmod, digits_module._certify

        def traced_divmod(a, b):
            q, r = real_divmod(a, b)
            if inside:
                sizes.append((b.bit_length(), q.bit_length()))
            return q, r

        def traced_certify(scaled, *args, **kwargs):
            def traced(prec):
                inside.append(prec)
                try:
                    return scaled(prec)
                finally:
                    inside.pop()
            return real_certify(traced, *args, **kwargs)

        monkeypatch.setattr(_arith, "divmod", traced_divmod)
        monkeypatch.setattr(digits_module, "_certify", traced_certify)
        monkeypatch.setattr(bbp, "_certify", traced_certify)
        run()
        assert sizes
        return sizes

    @pytest.mark.parametrize("name", sorted(SHORTER))
    @pytest.mark.parametrize("base", (10, 256))
    def test_constants(self, name, base, monkeypatch):
        sizes = self.series_divisions(
            monkeypatch, lambda: digits_in_base(ConstantSpec.parse(name), base, 20000))
        assert max(d - q for d, q in sizes) <= digits_module._SLACK + 2 + self.SHORTER[name], sizes

    @pytest.mark.parametrize("name", sorted(BBP))
    def test_bbp_evaluate(self, name, monkeypatch):
        formula, shorter = self.BBP[name]
        sizes = self.series_divisions(monkeypatch, lambda: bbp.evaluate(formula, 20000))
        assert max(d - q for d, q in sizes) <= digits_module._SLACK + 2 + shorter, sizes


class TestConcatScaledBound:
    """0 <= V - X < err for a concatenation constant in a foreign base, where
    V = value * base**prec is bracketed by a much longer native prefix."""

    SPECS = (ConstantSpec.champernowne(10), ConstantSpec.champernowne(2),
             ConstantSpec.champernowne(7), ConstantSpec.copeland_erdos(),
             ConstantSpec.fibonacci_concat())

    @pytest.mark.parametrize("spec", SPECS, ids=ConstantSpec.identifier)
    def test_scaled_value_within_err(self, spec):
        src = spec.native_base()
        cases = [(base, prec) for base in (2, 3, 11, 16, 256) for prec in range(1, 61)]
        cases += [(2, 1000), (11, 2000), (256, 700)]
        long = 8000
        y = digits_to_int(concat_constant_digits(spec, long).data, src)
        scale = src ** long
        for base, prec in cases:
            x, err = _concat_scaled(spec, base)(prec)
            big = base ** prec
            # V lies in [y, y + 1] * big / scale
            assert x * scale <= y * big, (spec, base, prec)
            assert (y + 1) * big < (x + err) * scale, (spec, base, prec)


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
        assert self.certify(lambda band: 3) == ((bytes([1, 2, 3]), 2), [2])
        # refused at g = 2, certified (and reported) at g = 4
        assert self.certify(lambda band: 2 + (band > 100)) == ((bytes([1, 2, 3]), 4), [2, 4])

    def test_upper_end_of_band(self):
        assert self.certify(lambda band: band - 1 - 2) == (None, [2, 4, 8, 16])
        assert self.certify(lambda band: band - 1 - 3) == ((bytes([1, 2, 3]), 2), [2])

    @pytest.mark.parametrize("guard, first", [(0, 3), (1, 3), (3, 3), (4, 4)])
    def test_guard_starts_where_a_band_can_certify(self, guard, first):
        # in base 2 with err = 2 the bands 2**1 and 2**2 cannot certify, 2**3 can
        calls = []

        def scaled(prec):
            g = prec - 3
            calls.append(g)
            return 5 * 2 ** g + 2 ** (g - 1), 2

        assert _certify(scaled, 2, 3, guard, "test digits") == (bytes([1, 0, 1]), first)
        assert calls == [first]

    @pytest.mark.parametrize("spec", (PI, ConstantSpec.e(), ConstantSpec.sqrt2()),
                             ids=ConstantSpec.identifier)
    def test_small_guards_certify_in_base_2(self, spec):
        rng = random.Random(spec.kind)
        whole = digits_in_base(spec, 2, 4000, guard=DEFAULT_GUARD).data
        for guard in (0, 1):
            for _ in range(400):
                count = rng.randint(1, 4000)
                assert digits_in_base(spec, 2, count, guard=guard).data == whole[:count], \
                    (guard, count)

    def test_done_digits_are_not_returned(self):
        scaled = lambda prec: (123 * 10 ** (prec - 3) + 5 * 10 ** (prec - 5), 2)
        assert _certify(scaled, 10, 3, 2, "test digits", done=1) == (bytes([2, 3]), 2)
        assert _certify(scaled, 10, 3, 2, "test digits", done=3) == (b"", 2)


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
