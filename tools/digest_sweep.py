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
  cli             argv, exit code, stdout and stderr of `cli.main` over every
                  subcommand: digits in several bases, the --cache miss, hit,
                  shorter hit and extension, damaged cache files, search in
                  text and json with and without digit classes, bbp,
                  normality, estimate, circle, ellipse and bad arguments;
                  cache files go to a temp dir whose path reads <tmp>
  api             library calls with their defaults: BBP `evaluate` and
                  `digit_extract_info` windows and guard bits for pi, log 2
                  and a base-10 formula, `find_digit`, `find_first` over
                  `open_stream` at the default and explicit block sizes,
                  `chi_square_uniform` (TooFewSamples included),
                  `exact_equidistribution_probability` and `ascii` with and
                  without a frame
  large           pi, e, sqrt2 and log2 at 50000, 100012 and 131070 digits
                  in bases 10 and 11, and the stream of the e class search
                  (`search --constant e -n 4` with digit classes) read in
                  4096-digit blocks to 131070 digits: sizes whose products
                  go through the FFT product, many of them at its cap

Stdlib and sagan only; the inputs are fixed by seeds, so the output depends
only on the tree. The run time goes to stderr (about 7 s on a 2-vCPU x86
VM with CPython 3.11.7 and no gmpy2, half of it in the large section).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import struct
import sys
import tempfile
import time
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path

from sagan import cli
from sagan.bbp import BBPFormula, digit_extract_info, evaluate, log2_formula, pi_formula
from sagan.cache import cache_path, encode
from sagan.digits import (ConstantSpec, base_convert, cfrac_digits, decimal_digits,
                          digits_in_base, open_stream)
from sagan.normality import chi_square_uniform, exact_equidistribution_probability, kgram_counts
from sagan.raster import SCHEMES, rasterize, rasterize_ellipse
from sagan.search import CONTEXT_WIDTH, compile, find_digit, find_first

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


def run_cli(argv):
    """(exit code, stdout, stderr) of one `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def with_crc(blob: bytes) -> bytes:
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


DAMAGE = {  # a good pi base-10 file in, what lies at its path out
    "crc": lambda b: b[:-1] + bytes([b[-1] ^ 0xFF]),
    "magic": lambda b: b"XGND" + b[4:],
    "version": lambda b: b[:4] + b"\x02" + b[5:],
    "empty": lambda b: b"",
    "truncated header": lambda b: b[:15],
    "truncated payload": lambda b: b[:-10],
    "length": lambda b: b[:-5] + b[-4:],
    "base field": lambda b: b[:5] + struct.pack("<H", 300) + b[7:],
    "identifier bytes": lambda b: with_crc(b[:8] + b"\xff" + b[9:]),
    "digit past base": lambda b: with_crc(b[:-5] + b"\x0a" + b[-4:]),
    "another constant": lambda b: encode(10, "e", b[-24:-4]),
    "another base": lambda b: encode(11, "pi", b[-24:-4]),
}


def cli_argvs(tmp: Path):
    """Command lines for `cli.main`; the cache cases write under `tmp`, and
    the damaged-file cases lay a damaged file at the cache path first."""
    for constant, base, count in (("pi", 10, 60), ("pi", 2, 40), ("pi", 11, 30),
                                  ("pi", 16, 30), ("pi", 36, 30), ("pi", 37, 20),
                                  ("pi", 256, 20), ("e", 10, 30), ("log2", 3, 30),
                                  ("sqrt2", 7, 30), ("rational:1/3", 10, 8),
                                  ("rational:-22/7", 11, 12), ("champernowne10", 10, 40),
                                  ("copeland-erdos", 11, 30), ("fibonacci-cfrac", 10, 30),
                                  ("zeta3", 10, 4), ("pi", 10, 0), ("pi", 1, 5),
                                  ("pi", 257, 5)):
        yield ["digits", "--constant", constant, "--base", str(base), "--count", str(count)]
    cache = ["--cache", "--cache-dir", str(tmp / "flow")]
    for constant, base, count in (("pi", 10, 50), ("pi", 10, 50), ("pi", 10, 20),
                                  ("pi", 10, 80), ("pi", 10, 80), ("pi", 10, 60),
                                  ("sqrt2", 11, 30), ("sqrt2", 11, 31), ("sqrt2", 11, 10),
                                  ("rational:22/7", 10, 12), ("rational:22/7", 10, 12),
                                  ("champernowne256", 256, 20), ("champernowne256", 256, 20)):
        yield ["digits", "--constant", constant, "--base", str(base), "--count", str(count),
               *cache]
    good = encode(10, "pi", digits_in_base(ConstantSpec.pi(), 10, 20).data)
    for number, damage in enumerate(DAMAGE.values()):
        folder = tmp / f"damaged-{number}"
        folder.mkdir()
        cache_path(folder, "pi", 10).write_bytes(damage(good))
        yield ["digits", "--constant", "pi", "--count", "10", "--cache", "--cache-dir",
               str(folder)]
    folder = tmp / "a directory at the path"
    cache_path(folder, "pi", 10).mkdir(parents=True)
    yield ["digits", "--constant", "pi", "--count", "10", "--cache", "--cache-dir", str(folder)]
    (tmp / "a file").write_bytes(b"")
    yield ["digits", "--constant", "pi", "--count", "10", "--cache", "--cache-dir",
           str(tmp / "a file")]

    classes = ["--circle-digits", "1,7", "--background-digits", "0,3"]
    for extra in ([], ["--format", "json"]):
        for search in (["--constant", "pi", "-n", "2", "--limit", "20000"],
                       ["--constant", "pi", "--base", "11", "-n", "2", "--limit", "6000"],
                       ["--constant", "e", "-n", "1", "--limit", "10", "--context-width", "0"],
                       ["--constant", "pi", "-n", "3", "--limit", "500"],
                       ["--constant", "pi", "-n", "2", "--limit", "4000", *classes],
                       ["--constant", "pi", "-n", "3", "--limit", "4000", "--circle-digits",
                        "1,2,3,4,5", "--background-digits", "0,5,6,7,8,9"],
                       ["--constant", "pi", "-n", "3", "--limit", "300", *classes],
                       ["--constant", "champernowne10", "-n", "2", "--scheme", "naive",
                        "--limit", "5000", "--circle-digits", "9",
                        "--background-digits", "8,9", "--block-size", "7"],
                       ["--constant", "rational:1/7", "-n", "1", "--limit", "50",
                        "--circle-digits", "4", "--background-digits", "0"]):
            yield ["search", *search, *extra]
    for bad in (["--limit", "0"], ["-n", "0"], ["-n", "4097"], ["--context-width", "-1"],
                ["--context-width", "10001"], ["--circle-digits", "1"],
                ["--circle-digits", "", "--background-digits", "0"],
                ["--circle-digits", "x"], ["--base", "2", *classes],
                ["-n", "3", "--limit", "4"], ["--block-size", "0"], ["--scheme", "square"],
                ["--constant", "zeta3"]):
        yield ["search", "--constant", "pi", "-n", "2", "--limit", "100", *bad]

    for bbp in (["--position", "100"], ["--position", "1", "--count", "3"],
                ["--position", "1000", "--count", "20"],
                ["--constant", "log2", "--position", "50", "--count", "4"],
                ["--constant", "pi", "--base", "16", "--position", "7"],
                ["--position", "5", "--base", "10"], ["--position", "0"],
                ["--position", "5", "--count", "0"]):
        yield ["bbp", *bbp]
    for normality in (["--constant", "champernowne10", "--length", "2000"],
                      ["--constant", "pi", "--base", "11", "--length", "3000", "--kmax", "3"],
                      ["--constant", "rational:1/7", "--length", "500", "--kmax", "1"],
                      ["--constant", "champernowne10", "--length", "0"],
                      ["--constant", "pi", "--length", "100", "--kmax", "0"]):
        yield ["normality", *normality]
        yield ["normality", *normality, "--format", "json"]
    for estimate in (["--base", "10", "-n", "2"], ["--base", "11", "-n", "45"],
                     ["--base", "2", "--window", "5", "--ns-per-digit", "3/2"],
                     ["--base", "10", "--window", "0"], ["--base", "1", "-n", "2"],
                     ["--base", "10", "-n", "2", "--window", "4"]):
        yield ["estimate", *estimate]
        yield ["estimate", *estimate, "--format", "json"]
    for circle in (["-n", "5"], ["-n", "6", "--flat"], ["-n", "7", "--frame"],
                   ["-n", "8", "--scheme", "naive"], ["-n", "4", "--radius", "3/2"],
                   ["-n", "3", "--radius", "0"], ["-n", "0"], ["-n", "4097"]):
        yield ["circle", *circle]
    for ellipse in (["-a", "3", "-b", "2", "--width", "7", "--height", "5"],
                    ["-a", "5/2", "-b", "1", "--width", "6", "--height", "3", "--flat"],
                    ["-a", "0", "-b", "1", "--width", "3", "--height", "3"],
                    ["-a", "1", "-b", "1", "--width", "0", "--height", "3"]):
        yield ["ellipse", *ellipse]
    yield from ([], ["nope"], ["digits"], ["circle", "-n", "x"])


def sweep_cli():
    with tempfile.TemporaryDirectory() as tmp:
        def plain(text: str) -> str:
            return text.replace(tmp, "<tmp>").replace(f".tmp{os.getpid()}", ".tmp<pid>")

        for argv in cli_argvs(Path(tmp)):
            code, out, err = run_cli(argv)
            yield [plain(arg) for arg in argv], (f"exit{code}", plain(out), plain(err))


def extraction(formula, position: int, count: int):
    """digit_extract_info's window as (position, digits), and its guard bits."""
    block, bits = digit_extract_info(formula, position, count)
    return block.start_position, block.data, bits


def search_data(result):
    """A SearchResult as plain data, its window as (position, digits)."""
    window = result.window and (result.window.start_position, result.window.data)
    return (result.found, result.position, window, result.context_before,
            result.context_after, result.digits_examined, result.limit, result.base)


def sweep_api():
    ten = BBPFormula(10, 1, ((1, 1),), shift=1, description="log(10/9) in base 10")
    for formula in (pi_formula(), log2_formula(), ten):
        for count in (1, 40, 700, 0):
            yield "evaluate", formula.description, count, outcome(
                lambda: evaluate(formula, count))
        for position, count in ((1, 1), (1, 30), (7, 8), (1000, 24), (5000, 3000),
                                (0, 1), (5, 0)):
            yield "digit_extract_info", formula.description, position, count, outcome(
                lambda: extraction(formula, position, count))
    for spec, base in ((ConstantSpec.pi(), 10), (ConstantSpec.e(), 11),
                       (ConstantSpec.rational(1, 3), 10)):
        for digit in (0, 1, 3, 9, 10, 11):
            for limit in (1, 40):
                yield "find_digit", spec.identifier(), base, digit, limit, outcome(
                    lambda: search_data(find_digit(open_stream(spec, base, 64), digit, limit)))
    for spec, base, n, limit in ((ConstantSpec.pi(), 10, 2, 20000),
                                 (ConstantSpec.pi(), 11, 2, 6000),
                                 (ConstantSpec.e(), 10, 1, 10), (ConstantSpec.pi(), 10, 3, 500),
                                 (ConstantSpec.champernowne(10), 10, 2, 5000),
                                 (ConstantSpec.pi(), 10, 2, 3)):
        for scheme in SCHEMES:
            matcher = compile(rasterize(n, scheme), base)
            for block in (None, 1, 64, 4096):
                yield "find_first", spec.identifier(), base, n, scheme, limit, block, outcome(
                    lambda: search_data(find_first(open_stream(spec, base) if block is None
                                                   else open_stream(spec, base, block),
                                                   matcher, limit)))
    for spec, base in ((ConstantSpec.pi(), 10), (ConstantSpec.champernowne(10), 10),
                       (ConstantSpec.sqrt2(), 3)):
        for length in (1, 49, 50, 500, 5000):
            for k in (1, 2, 3):
                yield "chi_square_uniform", spec.identifier(), base, length, k, outcome(
                    lambda: chi_square_uniform(kgram_counts(digits_in_base(spec, base, length),
                                                            k)))
    for trials, categories, per in ((10, 10, 1), (1000, 10, 100), (12, 3, 4), (5, 2, 2)):
        yield "exact_equidistribution_probability", trials, categories, per, outcome(
            lambda: exact_equidistribution_probability(trials, categories, per))
    rasters = [rasterize(n, scheme) for n in range(1, 13) for scheme in SCHEMES]
    rasters += [rasterize_ellipse(3, 2, 7, 5), rasterize_ellipse(Fraction(5, 2), 1, 6, 3)]
    for raster in rasters:
        yield "ascii", raster.width, raster.flat(), outcome(
            lambda: (raster.ascii(), raster.ascii(frame=True)))


def sweep_large():
    for spec in (ConstantSpec.pi(), ConstantSpec.e(), ConstantSpec.sqrt2(), ConstantSpec.log2()):
        for base in (10, 11):
            for count in (50_000, 100_012, 131_070):
                yield spec.identifier(), base, count, outcome(
                    lambda: digits_in_base(spec, base, count))
    stream = open_stream(ConstantSpec.e(), 10)  # as `sagan search` opens it, limit 200000
    stream.reserve(200_000 + CONTEXT_WIDTH)
    while stream.cursor <= 131_070:
        count = min(stream.block_size, 131_071 - stream.cursor)
        yield "e search stream", stream.cursor, count, outcome(lambda: stream.take(count))


SECTIONS = (("digits_in_base", sweep_digits_in_base), ("streams", sweep_streams),
            ("cfrac_digits", sweep_cfrac), ("base_convert", sweep_base_convert),
            ("cli", sweep_cli), ("api", sweep_api), ("large", sweep_large))


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
