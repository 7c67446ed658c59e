"""The big-integer backend: the one module that decides between gmpy2 and int.

With gmpy2 installed, `mpz` and `isqrt` are gmpy2's and `divmod` and `mul`
are the builtin operators, which gmpy2 makes subquadratic for mpz operands.
Without it, `mpz` is `int`, and since CPython's int multiplication is
Karatsuba and its division and `math.isqrt` are quadratic, `mul`, `divmod`
and `isqrt` are exact pure-Python replacements:

- `py_mul`: a float64 FFT product once both operands have at least
  `_MUL_LIMIT` bits, with transforms of at most `_MAX_POINTS` points and
  one Karatsuba level per halving above that (see the error bound below);
  every large product in the series, the square roots, the divisions and
  the radix conversion goes through `mul`;
- `py_divmod`: recursive division (Burnikel & Ziegler 1998; Brent &
  Zimmermann, *Modern Computer Arithmetic*, 1.4.3), same results as the
  builtin for every sign, its products taken by `py_mul`;
- `py_isqrt`: recursive integer square root, one Newton step per level
  with its division done by `py_divmod`, same results as `math.isqrt`.

The FFT product's cutoff and cap were timed on CPython 3.11.7 (x86,
2 vCPU). The cutoff was timed again for 14-bit limbs in October 2026
(medians of 41 interleaved runs in one process, 8 to 24 kbit): the
transform overtakes the builtin product at about 19 kbit for n x n bits,
14.5 kbit for 1.5n x n and 12.5 kbit for 2n x n. Nine in ten products with
a smaller operand near the cutoff in the pi, e, sqrt 2 and log 2 series
are within 1.25x of square, so the cutoff is 18 kbit. The cap keeps each
transform's arrays at 256 kB: on pi, e and sqrt 2 at 10**5 digits, 2**16
points ran 5-7% faster and raised peak memory by a further 0.9-1.2 MB, and
2**14 points saved about 0.6 MB and ran 3-9% slower. The FFT module is
imported at the first transform, so a run whose products all stay below
the cutoff never loads it.

The division and square root leave small cases to the builtins: divisions
whose quotient or divisor has at most `_DIV_LIMIT` bits, which then cost
time linear in the operand size, and square roots of at most
2 * `_DIV_LIMIT` bits. Timed on CPython 3.11.7 (x86, 2 vCPU), 2n-by-n-bit
divisions run as fast as the builtin's near the limit for any limit from
2000 to 6000 bits, and 8x faster at n = 10**6.
"""

from __future__ import annotations

import builtins
import math
import operator

_DIV_LIMIT = 4000
_divmod = builtins.divmod

# Float-FFT multiplication (Brent & Zimmermann, *Modern Computer Arithmetic*,
# 3.3.2; Percival, Math. Comp. 72 (2003), Theorem 5.1). Operands a, b >= 0
# are cut into la and lb limbs of w = _LIMB_BITS bits, and the limbs of
# a * b before carries are the acyclic convolution c_k = sum_{i+j=k} x_i y_j,
# here the cyclic convolution irfft(rfft(x) * rfft(y)) of N = 2**n >= la + lb
# points. Percival bounds the error of every computed c_k by
#     ||x|| ||y|| ((1 + eps)^(3n) (1 + eps sqrt(5))^(3n+1) (1 + beta)^(3n) - 1)
# for unit roundoff eps = 2**-53 and roots of unity within beta of exact;
# pocketfft's twiddles are within a few units of eps, and beta = 2 eps is
# taken. Every limb is below 2**w, so ||x|| ||y|| <= sqrt(la lb) (2**w - 1)**2,
# and la + lb <= N gives sqrt(la lb) <= N / 2; fft_error_bound evaluates the
# bound with (N + 1) / 2. At w = 14 and N = _MAX_POINTS = 2**15 it is 2**-3.1
# (0.116): under 1/4, so rounding returns every c_k exactly, with a factor 2 to
# spare for the real-input transforms used here, which the theorem (stated
# for the complex radix-2 transform) does not cover term by term. The largest
# |c_k - rint(c_k)| seen at 2**15 points is 0.0015 for all-ones operands and
# 0.0006 for random ones. One bit more loses the factor 2: 15-bit limbs at
# 2**15 points give 0.46, and 14-bit limbs at 2**16 points 0.248. The exact
# c_k are at most min(la, lb) (2**w - 1)**2 < (N/2) 2**(2w) = 2**42, so
# float64 holds them, and so does the uint64 carry fold in _fft_mul.
_MUL_LIMIT = 18_000
_LIMB_BITS = 14
_MAX_POINTS = 1 << 15


def fft_error_bound(limb_bits: int, points: int) -> float:
    """Percival's bound on the error of any convolution coefficient computed
    by float64 transforms of `points` = 2**n points from limbs of
    `limb_bits` bits (derived in the comment above)."""
    n = points.bit_length() - 1
    eps = 2.0 ** -53
    growth = math.expm1(3 * n * math.log1p(eps) + (3 * n + 1) * math.log1p(eps * math.sqrt(5))
                        + 3 * n * math.log1p(2 * eps))
    return (points + 1) / 2 * ((1 << limb_bits) - 1) ** 2 * growth


def py_mul(a, b):
    """a * b for ints, by float-FFT products when both operands have at
    least _MUL_LIMIT bits."""
    if a.bit_length() < _MUL_LIMIT or b.bit_length() < _MUL_LIMIT:
        return a * b
    square = a is b
    negative = (a < 0) != (b < 0)
    a = abs(a)
    p = _mul_pos(a, a if square else abs(b))
    return -p if negative else p


def _mul_pos(a, b):
    """a * b for a, b >= 0, `a is b` for a square: one transform product
    when it fits in _MAX_POINTS points, else one Karatsuba level."""
    if a.bit_length() < b.bit_length():
        a, b = b, a
    la, lb = a.bit_length(), b.bit_length()
    if lb < _MUL_LIMIT:
        return a * b
    if -(-la // _LIMB_BITS) + -(-lb // _LIMB_BITS) <= _MAX_POINTS:  # the limbs _fft_mul cuts
        return _fft_mul(a, b)
    k = la // 2
    mask = (1 << k) - 1
    a1, a0 = a >> k, a & mask
    # a b below 2**k has b1 = 0, so hi is 0 at once and two products remain
    b1, b0 = (a1, a0) if b is a else (b >> k, b & mask)
    sa = a1 + a0
    sb = sa if b is a else b1 + b0
    hi, lo = _mul_pos(a1, b1), _mul_pos(a0, b0)
    return (hi << 2 * k) + ((_mul_pos(sa, sb) - hi - lo) << k) + lo


def _fft_mul(a, b):
    """a * b for a, b > 0 whose limbs fit one transform of _MAX_POINTS."""
    import numpy as np  # numpy.fft itself loads at the first np.fft access

    la, lb = -(-a.bit_length() // _LIMB_BITS), -(-b.bit_length() // _LIMB_BITS)
    points = 1 << (la + lb - 1).bit_length()  # the least 2**n >= la + lb
    shifts = np.arange(0, 56, 14, dtype=np.uint64)[:, None]  # the limbs' offsets in a cell

    def transform(v):
        # 14-bit limbs, least significant first, four per 7-byte cell; each
        # cell is read as the low 56 bits of an 8-byte word at stride 7
        cells = -(-v.bit_length() // 56)
        words = np.ndarray((cells,), "<u8", v.to_bytes(7 * cells + 1, "little"), strides=(7,))
        x = np.empty((cells, 4))
        np.bitwise_and(words >> shifts, 0x3FFF, out=x.T, casting="unsafe")
        return np.fft.rfft(x.ravel(), points)  # zero padded to `points` inside the transform

    def join(cells):  # the int whose 7-byte cells hold values below 2**56
        out = np.empty(7 * len(cells), np.uint8)
        np.ndarray((len(cells),), "<u4", out, strides=(7,))[...] = cells  # bytes 0-3
        np.ndarray((len(cells),), "<u4", out, 3, (7,))[...] = cells >> 24  # bytes 3-6
        return int.from_bytes(out, "little")

    # in place where possible, and each array dropped once used: at the cap
    # every array is 128-256 kB, and they add up to the peak memory of a run
    f = transform(a)
    f *= f if b is a else transform(b)
    c = np.fft.irfft(f, points)
    del f
    # c_k < 2**42 sits at bit 14k. Adding 2**52 rounds each c_k to the
    # nearest integer, which is c_k itself (error under 1/4), and leaves that
    # integer in the low 52 bits of the float's bit pattern, so the fold runs
    # in uint64 on the transform's own buffer. Cell m (bit 56m) takes
    #     d_m = c_4m + c_4m+1 2**14 + (c_4m+2 mod 2**28) 2**28 + (c_4m+3 mod 2**14) 2**42
    # below 2**58, and the bits of c_4m+2 and c_4m+3 from 56 up go to cell
    # m+1 as e_m = (c_4m+2 >> 28) + (c_4m+3 >> 14) < 2**29. Folding the carry
    # of each d_m + e_m-1 < 2**58 + 2**29 (at most 4) into the next cell
    # leaves the same sum in cells below 2**56 + 4, which all but rarely fit
    # in 56 bits; the rare bit 56 is joined apart. The product is below
    # 2**(14 (la + lb)), so nothing folds out of the last cell.
    c = c[:4 * -(-(la + lb) // 4)]  # whole cells, all within the transform
    c += 2.0 ** 52
    k = c.view(np.uint64).reshape(-1, 4)
    k &= (1 << 52) - 1  # k[m, j] = c_4m+j
    d = k[:, 1] << 14
    d += k[:, 0]
    e = k[:, 2] & 0xFFFFFFF
    e <<= 28
    d += e
    np.bitwise_and(k[:, 3], 0x3FFF, out=e)
    e <<= 42
    d += e
    np.right_shift(k[:, 2], 28, out=e)
    k[:, 3] >>= 14
    e += k[:, 3]
    del c, k
    d[1:] += e[:-1]
    np.right_shift(d, 56, out=e)
    d &= (1 << 56) - 1
    d[1:] += e[:-1]
    np.right_shift(d, 56, out=e)  # the rare bit 56
    d &= (1 << 56) - 1
    value = join(d)
    if e.any():
        value += join(e) << 56
    return value


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
    r = ((r << half) | a_lo) - py_mul(q, b_lo)
    while r < 0:
        q -= 1
        r += b
    return q, r


def py_isqrt(n):
    """math.isqrt(n) for ints, by recursion on the top half of n's bits."""
    x = _isqrt_upper(n)
    return x - 1 if py_mul(x, x) > n else x


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
    mul = operator.mul
except ImportError:
    mpz = int
    divmod = py_divmod
    mul = py_mul
    isqrt = py_isqrt
