"""Byte-identity sweep: one sha256 per section over results of the digit API.

usage: PYTHONPATH=src python3 tools/digest_sweep.py

Run it on two trees, a change and its parent, and compare the printed lines:
equal digests mean every result in that section, exception type and message
included, is the same byte for byte. Sections:

  digits_in_base  13 constants x bases 2, 3, 10, 11, 256 at 1, 97, 4097 and
                  12000 digits; a constant outside its native base is a
                  series, a continued fraction or a foreign-base
                  concatenation constant
  streams         seeded take/skip/reserve mixes over the same constants
  cfrac_digits    seeded random finite coefficient lists
  base_convert    random, near-boundary and pi prefixes, bases 2..256,
                  guards 0..12

Stdlib and sagan only; the inputs are fixed by seeds, so the output depends
only on the tree. The run time goes to stderr (about 3 s on a 2-vCPU x86
VM with CPython 3.11.7 and no gmpy2).
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

from sagan.digits import (ConstantSpec, base_convert, cfrac_digits, decimal_digits,
                          digits_in_base, open_stream)

CONSTANTS = tuple(ConstantSpec.parse(name) for name in (
    "pi", "sqrt2", "log2", "e", "fibonacci-cfrac", "copeland-erdos", "fibonacci-concat",
    "champernowne2", "champernowne10", "champernowne256", "rational:22/7",
    f"rational:-12345/{10 ** 200 + 7}", "rational:5/1"))
BASES = (2, 3, 10, 11, 256)
COUNTS = (1, 97, 4097, 12000)


def outcome(call):
    """("ok", what `call()` returns, a DigitBlock as plain data), or the type
    and message of what it raises."""
    try:
        result = call()
    except Exception as exc:  # the sweep records failures as results
        return type(exc).__name__, str(exc)
    if hasattr(result, "data"):
        return "ok", (result.base, result.start_position, result.data)
    return "ok", result


def sweep_digits_in_base():
    for spec in CONSTANTS:
        for base in BASES:
            for count in COUNTS:
                yield spec.identifier(), base, count, outcome(
                    lambda: digits_in_base(spec, base, count))


def sweep_streams(seed: int = 26):
    rng = random.Random(seed)
    for spec in CONSTANTS:
        for base in BASES:
            stream = open_stream(spec, base, rng.choice((1, 64, 4096)))
            for _ in range(12):
                op, n = rng.choice(("take", "take", "skip", "reserve")), rng.randint(0, 3000)
                yield spec.identifier(), base, op, n, outcome(lambda: getattr(stream, op)(n))


def sweep_cfrac(seed: int = 808, cases: int = 400):
    rng = random.Random(seed)
    for _ in range(cases):
        coefficients = [rng.randint(0, 5)] + [
            rng.choice((1, 2, rng.randint(1, 10 ** rng.randint(1, 30))))
            for _ in range(rng.randint(0, 25))]
        base, count = rng.choice(BASES + (7, 16)), rng.randint(1, 120)
        yield coefficients, base, count, outcome(lambda: cfrac_digits(coefficients, base, count))


def least_need(base: int, count: int) -> int:
    """The least need with 10**need >= base**count."""
    need, power, big = 0, 1, base ** count
    while power < big:
        need, power = need + 1, power * 10
    return need


def convert_inputs(seed: int = 28):
    """(digits, base, count, guard): random prefixes, prefixes on either side
    of a base-`base` boundary m / base**count, and prefixes of pi."""
    rng = random.Random(seed)
    pi = decimal_digits(ConstantSpec.pi(), 3000).data
    for _ in range(2000):
        kind, base, guard = rng.randrange(3), rng.randint(2, 256), rng.randint(0, 12)
        count = rng.randint(1, 12 if kind != 1 else int(2970 / math.log10(base)))
        need = least_need(base, count)
        length = min(rng.randint(max(1, need + guard - 1), need + 2 * guard + 2), len(pi))
        if kind == 0:
            yield bytes(rng.randrange(10) for _ in range(length)), base, count, guard
        elif kind == 1:
            yield pi[:length], base, count, guard
        else:
            edge = Fraction(rng.randrange(1, base ** count), base ** count)
            top = edge.numerator * 10 ** length // edge.denominator
            for x in {top, max(0, top - 1), top + (top < 10 ** length - 1)}:
                yield bytes(map(int, str(x).zfill(length))), base, count, guard


def sweep_base_convert():
    for digits, base, count, guard in convert_inputs():
        yield digits, base, count, guard, outcome(lambda: base_convert(digits, base, count, guard))


SECTIONS = (("digits_in_base", sweep_digits_in_base), ("streams", sweep_streams),
            ("cfrac_digits", sweep_cfrac), ("base_convert", sweep_base_convert))


def main() -> int:
    start = time.perf_counter()
    for name, sweep in SECTIONS:
        digest, kinds = hashlib.sha256(), Counter()
        for case in sweep():
            digest.update(repr(case).encode() + b"\n")
            kinds[case[-1][0]] += 1
        tally = " ".join(f"{kind}={n}" for kind, n in sorted(kinds.items()))
        print(f"{name:15} {digest.hexdigest()} {tally}", flush=True)
    print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
