"""The big-integer backend: the one module that decides between gmpy2 and int.

With gmpy2 installed, `mpz` and `isqrt` are gmpy2's and `divmod` is the
builtin, which gmpy2 makes subquadratic for mpz operands. Without it,
`mpz` is `int`, and since CPython's int division and `math.isqrt` are
quadratic, `divmod` and `isqrt` are exact pure-Python replacements that
reduce to multiplication (Karatsuba in CPython):

- `py_divmod`: recursive division (Burnikel & Ziegler 1998; Brent &
  Zimmermann, *Modern Computer Arithmetic*, 1.4.3), same results as the
  builtin for every sign;
- `py_isqrt`: recursive integer square root, one Newton step per level
  with its division done by `py_divmod`, same results as `math.isqrt`.

Both leave small cases to the builtins: divisions whose quotient or divisor
has at most `_DIV_LIMIT` bits, which then cost time linear in the operand
size, and square roots of at most 2 * `_DIV_LIMIT` bits. Timed on CPython
3.11.7 (x86, 2 vCPU), 2n-by-n-bit divisions run as fast as the builtin's
near the limit for any limit from 2000 to 6000 bits, and 8x faster at
n = 10**6.
"""

from __future__ import annotations

import builtins
import math

_DIV_LIMIT = 4000
_divmod = builtins.divmod


def py_divmod(a, b):
    """divmod(a, b) for ints, by recursive division when quotient and divisor
    both exceed _DIV_LIMIT bits."""
    n = b.bit_length()
    if n <= _DIV_LIMIT or a.bit_length() - n <= _DIV_LIMIT:
        return _divmod(a, b)
    if b < 0:
        q, r = py_divmod(-a, -b)
        return q, -r
    if a < 0:
        # a = ~A = -1 - A with A = q*b + r, so a = ~q * b + (b - 1 - r)
        q, r = py_divmod(~a, b)
        return ~q, b + ~r
    return _divmod_pos(a, b, n)


def _divmod_pos(a, b, n):
    """divmod(a, b) for a >= 0 and b > 0 of n bits: schoolbook division in
    base 2**n, splitting a at a digit boundary near its middle."""
    if a >> n < b:  # a < b * 2**n: one 2n-by-n step
        return _div2n1n(a, b, n)
    # a has c >= 2 digits; hi has c - c//2 and (r << s) | lo < b * 2**s at
    # most c//2 + 1, so both calls get fewer digits (or are one step)
    s = n * (-(-a.bit_length() // n) // 2)
    hi, lo = a >> s, a & ((1 << s) - 1)
    q_hi, r = _divmod_pos(hi, b, n)
    q_lo, r = _divmod_pos((r << s) | lo, b, n)
    return (q_hi << s) | q_lo, r


def _div2n1n(a, b, n):
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2**n."""
    if a.bit_length() - n <= _DIV_LIMIT:  # quotient fits in the limit
        return _divmod(a, b)
    odd = n & 1
    if odd:  # the halves below need n even; 2a / 2b has the same quotient
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b_hi, b_lo = b >> half, b & mask
    q_hi, r = _div3n2n(a >> n, (a >> half) & mask, b, b_hi, b_lo, half)
    q_lo, r = _div3n2n(r, a & mask, b, b_hi, b_lo, half)
    return (q_hi << half) | q_lo, r >> odd


def _div3n2n(a_hi, a_lo, b, b_hi, b_lo, half):
    """divmod(a_hi * 2**half + a_lo, b) for b = b_hi * 2**half + b_lo, where
    b_hi has exactly `half` bits, a_lo < 2**half and a_hi < b."""
    if a_hi >> half == b_hi:  # the estimate a_hi // b_hi would not fit
        q, r = (1 << half) - 1, a_hi - (b_hi << half) + b_hi
    else:
        q, r = _div2n1n(a_hi, b_hi, half)
    # q overestimates the quotient by at most 2 because b's top bit is set
    r = ((r << half) | a_lo) - q * b_lo
    while r < 0:
        q -= 1
        r += b
    return q, r


def py_isqrt(n):
    """math.isqrt(n) for ints, by recursion on the top half of n's bits."""
    x = _isqrt_upper(n)
    return x - 1 if x * x > n else x


def _isqrt_upper(n):
    """x with isqrt(n) <= x <= isqrt(n) + 1; math.isqrt raises for n < 0.

    With n of L bits, k <= (L - 5) / 4 and r within one above isqrt(n >> 2k),
    x0 = (r + 1) * 2**k lies in [sqrt(n), sqrt(n) + 2**(k+1)]. One integer
    Newton step from above never falls below isqrt(n) and leaves an excess
    of at most (x0 - sqrt(n))**2 / (2 sqrt(n)) <= 2**(2k + 1 - (L-1)/2) <= 1/2.
    """
    bits = n.bit_length()
    if bits <= 2 * _DIV_LIMIT:  # the Newton division would be a builtin one
        return math.isqrt(n)
    k = (bits - 5) // 4
    x = (_isqrt_upper(n >> 2 * k) + 1) << k
    return (x + py_divmod(n, x)[0]) >> 1


try:
    from gmpy2 import isqrt, mpz
    divmod = _divmod
except ImportError:
    mpz = int
    divmod = py_divmod
    isqrt = py_isqrt
