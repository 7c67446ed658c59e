"""Exactness of the pure-Python big-integer fallback in sagan._arith.

The fallback functions are called directly, so these tests cover them
whether or not gmpy2 is installed. Oracles are the builtin divmod,
math.isqrt and str().
"""

import math
import random
import sys

import pytest

from sagan import _arith
from sagan._arith import _DIV_LIMIT, py_divmod, py_isqrt
from sagan.digits import digits_to_int, int_to_digits

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def check_divmod(a, b):
    for sa, sb in SIGNS:
        assert py_divmod(sa * a, sb * b) == divmod(sa * a, sb * b), (
            a.bit_length(), b.bit_length(), sa, sb)


def random_bits(rng, bits):
    """A random integer of exactly `bits` bits."""
    return rng.getrandbits(bits - 1) | (1 << (bits - 1)) if bits > 1 else 1


class TestDivmod:
    def test_random_operands(self):
        rng = random.Random(4)
        for _ in range(200):
            sa, sb = rng.choice(SIGNS)
            a = sa * random_bits(rng, rng.randrange(1, 200_000))
            b = sb * random_bits(rng, rng.randrange(1, 100_000))
            assert py_divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length(), sa, sb)

    def test_sizes_around_the_limit(self):
        rng = random.Random(5)
        for b_bits in (_DIV_LIMIT - 1, _DIV_LIMIT, _DIV_LIMIT + 1, 2 * _DIV_LIMIT + 1):
            for q_bits in (_DIV_LIMIT - 1, _DIV_LIMIT, _DIV_LIMIT + 1, 2 * _DIV_LIMIT + 2):
                check_divmod(random_bits(rng, b_bits + q_bits), random_bits(rng, b_bits))

    def test_divisor_shapes(self):
        rng = random.Random(6)
        a = random_bits(rng, 90_001)
        for b in (random_bits(rng, 30_001),       # odd bit length
                  random_bits(rng, 30_000),
                  1 << 30_000, 1 << 30_001,       # powers of two
                  (1 << 30_000) - 1,              # all ones
                  random_bits(rng, 44_999)):      # just under half of a
            check_divmod(a, b)

    def test_dividend_shapes(self):
        rng = random.Random(7)
        q = random_bits(rng, 50_000)
        for bits in (40_002, 40_003):
            b = random_bits(rng, bits)
            ones = (1 << bits) - 1  # every quotient digit at its largest
            for a in (b - 1, b, b + 1, q * b, q * b - 1, q * b + b - 1, 0,
                      ones * b, ones * b + b - 1, (ones + 1) * b, (ones + 1) * b + b - 1):
                check_divmod(a, b)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            py_divmod(1 << 20_000, 0)


class TestIsqrt:
    def test_random_inputs(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.getrandbits(rng.randrange(1, 300_000))
            assert py_isqrt(n) == math.isqrt(n), n.bit_length()

    def test_squares_and_neighbours(self):
        rng = random.Random(9)
        for bits in (1, 2, _DIV_LIMIT - 1, _DIV_LIMIT, _DIV_LIMIT + 1,
                     _DIV_LIMIT + 3, 4 * _DIV_LIMIT, 50_001, 100_000):
            k = random_bits(rng, bits)
            for n in (k * k - 1, k * k, k * k + 1, (k + 1) ** 2 - 1):
                assert py_isqrt(n) == math.isqrt(n), (bits, n - k * k)

    def test_small_and_negative(self):
        assert [py_isqrt(n) for n in range(10)] == [math.isqrt(n) for n in range(10)]
        for n in (-1, -(1 << 50_000)):
            with pytest.raises(ValueError):
                py_isqrt(n)


class TestRadixConversion:
    """int_to_digits splits with _arith.divmod; run it on the fallback."""

    @pytest.fixture(autouse=True)
    def fallback_divmod(self, monkeypatch):
        monkeypatch.setattr(_arith, "divmod", py_divmod)

    def test_base10_matches_str(self):
        rng = random.Random(10)
        # Python 3.11+ limits str() of big ints; 3.10 has no limit to lift
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        if limit is not None:
            sys.set_int_max_str_digits(0)
        try:
            for count in (1, 64, 65, 3000, 25_000):
                value = rng.randrange(10 ** count)
                expected = [int(c) for c in str(value).zfill(count)]
                assert int_to_digits(value, 10, count) == expected, count
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("base, count", [(2, 100_000), (11, 20_000), (256, 9_000)])
    def test_roundtrip(self, base, count):
        rng = random.Random(base)
        digits = [rng.randrange(base) for _ in range(count)]
        digits[0] = 0  # zero padding on the left survives
        assert int_to_digits(digits_to_int(digits, base), base, count) == digits
