"""Exactness of the pure-Python big-integer fallback in sagan._arith.

The fallback functions are called directly, so these tests cover them
whether or not gmpy2 is installed. Oracles are the builtin *, divmod and
str().
"""

import random
import sys

import numpy as np
import pytest

from sagan import _arith
from sagan._arith import (_DIV_LIMIT, _LIMB_BITS, _MAX_POINTS, _MUL_LIMIT, fft_error_bound,
                          py_divmod, py_mul)
from sagan.digits import digits_to_int, int_to_digits

SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def check_divmod(a, b):
    for sa, sb in SIGNS:
        assert py_divmod(sa * a, sb * b) == divmod(sa * a, sb * b), (
            a.bit_length(), b.bit_length(), sa, sb)


def random_bits(rng, bits):
    """A random integer of exactly `bits` bits."""
    return rng.getrandbits(bits - 1) | (1 << (bits - 1)) if bits > 1 else 1


# operands of CAP_BITS bits each fill one transform of _MAX_POINTS points
CAP_BITS = _MAX_POINTS // 2 * _LIMB_BITS


@pytest.fixture
def transform_lengths(monkeypatch):
    """The length of every forward transform py_mul takes."""
    lengths = []
    rfft = np.fft.rfft

    def recorded(x, n=None, *args, **kwargs):
        lengths.append(len(x) if n is None else n)
        return rfft(x, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recorded)
    return lengths


def check_mul(a, b):
    for sa, sb in SIGNS:
        assert py_mul(sa * a, sb * b) == sa * a * sb * b, (a.bit_length(), b.bit_length(), sa, sb)
    assert py_mul(a, a) == a * a, a.bit_length()


class TestMul:
    def test_error_bound(self):
        # rounding recovers a coefficient within 1/2; the width and the cap
        # keep a factor 2 spare below that: twice the bound stays under 1/4
        assert 2 * fft_error_bound(_LIMB_BITS, _MAX_POINTS) < 1 / 4
        # and they are the widest that do: one more bit of limb (0.93) or
        # twice the points (0.50) would break that rule
        assert 2 * fft_error_bound(_LIMB_BITS + 1, _MAX_POINTS) >= 1 / 4
        assert 2 * fft_error_bound(_LIMB_BITS, 2 * _MAX_POINTS) >= 1 / 4
        # 12-bit limbs would stay below 1/4 up to 2**19 points, not 2**20
        assert fft_error_bound(12, 2 ** 19) < 1 / 4 <= fft_error_bound(12, 2 ** 20)

    def test_random_operands(self, transform_lengths):
        rng = random.Random(11)
        for _ in range(25):
            a = random_bits(rng, rng.randrange(1, 1_200_000))
            b = random_bits(rng, rng.randrange(1, 1_200_000))
            sa, sb = rng.choice(SIGNS)
            assert py_mul(sa * a, sb * b) == sa * a * sb * b, (a.bit_length(), b.bit_length())
        assert transform_lengths and max(transform_lengths) <= _MAX_POINTS

    def test_all_ones_operands(self, transform_lengths):
        # every limb 2**_LIMB_BITS - 1 makes every coefficient as large as it can be;
        # (2**n - 1)(2**m - 1) = 2**(n+m) - 2**n - 2**m + 1
        for n in (_MUL_LIMIT, 100_000, CAP_BITS, CAP_BITS + 1, 1_000_000, 2_500_000):
            ones = (1 << n) - 1
            for m in (n, n // 3, _MUL_LIMIT):
                want = (1 << n + m) - (1 << n) - (1 << m) + 1
                assert py_mul(ones, (1 << m) - 1) == want, (n, m)
                assert py_mul(-ones, (1 << m) - 1) == -want, (n, m)
            assert py_mul(ones, ones) == (1 << 2 * n) - (1 << n + 1) + 1, n
        assert max(transform_lengths) == _MAX_POINTS

    def test_unequal_lengths(self, transform_lengths):
        rng = random.Random(12)
        for long_bits, short_bits in ((3_000_000, _MUL_LIMIT), (2 * CAP_BITS, _MUL_LIMIT + 1),
                                      (CAP_BITS, CAP_BITS // 5), (900_001, 300_007)):
            check_mul(random_bits(rng, long_bits), random_bits(rng, short_bits))
        assert max(transform_lengths) <= _MAX_POINTS

    def test_signs_and_zero(self):
        rng = random.Random(13)
        a, b = random_bits(rng, 90_000), random_bits(rng, 70_000)
        check_mul(a, b)
        for x in (0, 1, -1, a):
            for y in (0, -b):
                assert py_mul(x, y) == x * y
                assert py_mul(y, x) == x * y

    def test_sizes_at_the_cutoff(self, transform_lengths):
        rng = random.Random(14)
        big = random_bits(rng, 200_000)
        for bits in (_MUL_LIMIT - 1, _MUL_LIMIT, _MUL_LIMIT + 1):
            del transform_lengths[:]
            small = random_bits(rng, bits)
            assert py_mul(big, small) == big * small, bits
            assert py_mul(-small, big) == -small * big, bits
            assert bool(transform_lengths) == (bits >= _MUL_LIMIT), bits

    def test_sizes_at_the_cap(self, transform_lengths):
        # limbs come four to a 7-byte cell, so CAP_BITS +- 56 are one cell either side
        rng = random.Random(15)
        for bits, split in ((CAP_BITS - 56, False), (CAP_BITS - 14, False), (CAP_BITS, False),
                            (CAP_BITS + 1, True), (CAP_BITS + 56, True)):
            del transform_lengths[:]
            a, b = random_bits(rng, bits), random_bits(rng, bits)
            assert py_mul(a, b) == a * b, bits
            assert py_mul(a, a) == a * a, bits
            # one product of two transforms and a square of one, or more
            assert (len(transform_lengths) > 3) == split, (bits, transform_lengths)
            assert max(transform_lengths) == _MAX_POINTS, bits


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
                assert int_to_digits(value, 10, count) == bytes(expected), count
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("base, count", [(2, 100_000), (11, 20_000), (256, 9_000)])
    def test_roundtrip(self, base, count):
        rng = random.Random(base)
        digits = [rng.randrange(base) for _ in range(count)]
        digits[0] = 0  # zero padding on the left survives
        assert int_to_digits(digits_to_int(digits, base), base, count) == bytes(digits)

    @pytest.mark.parametrize("base", [2, 3, 4, 8, 10, 16, 32, 64, 128, 200, 255, 256])
    def test_leaf_boundaries_against_divmod(self, base):
        # k digits per leaf, base**k < 2**63 <= base**(k+1); counts around multiples of k
        k = max(j for j in range(1, 64) if base ** j < 2 ** 63)
        rng = random.Random(base)
        for count in (0, 1, k - 1, k, k + 1, 2 * k, 3 * k + 1, 5000):
            value = rng.randrange(base ** count)
            expected, v = [], value
            for _ in range(count):
                v, d = divmod(v, base)
                expected.append(d)
            assert int_to_digits(value, base, count) == bytes(expected[::-1]), count
            assert int_to_digits(base ** count - 1, base, count) == bytes([base - 1] * count)
            with pytest.raises(ValueError):
                int_to_digits(base ** count, base, count)
