"""Command line frontend: digits, circle, search, bbp, normality, estimate.

Exit codes: 0 success/found, 1 pattern not found, 2 usage error,
3 cache corruption, 4 precision exhausted, 5 carry ambiguity.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import bbp as bbp_mod
from . import cache as cache_mod
from . import normality as normality_mod
from . import search as search_mod
from .digits import ConstantSpec, digits_in_base, open_stream
from .errors import CacheError, CarryAmbiguity, PrecisionExhausted, SaganError
from .raster import (
    CENTER,
    GeneralizedPattern,
    SCHEMES,
    rasterize,
    rasterize_ellipse,
)

MAX_CONTEXT_WIDTH = 10 ** 4
MAX_SIDE = 4096  # largest raster side: circle and search n, ellipse width and height

EXIT_OK = 0
EXIT_NOT_FOUND = 1
EXIT_USAGE = 2
EXIT_CACHE = 3
EXIT_PRECISION = 4
EXIT_AMBIGUITY = 5


_GLYPHS = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")


def digit_glyphs(digits) -> str:
    """0-9, then a-z for 10..35, bracketed decimal beyond."""
    data = bytes(digits)
    if not data.translate(None, bytes(range(36))):
        return data.translate(_GLYPHS).decode("ascii")
    return "".join(chr(_GLYPHS[d]) if d < 36 else f"[{d}]" for d in data)


def sci(value: Decimal, sig: int = 4) -> str:
    return f"{value:.{sig - 1}E}".replace("E+", "e").replace("E", "e")


def default_cache_dir() -> Path:
    env = os.environ.get("SAGAN_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return Path(xdg) / "sagan"


def _parse_digit_set(text: str) -> frozenset:
    try:
        return frozenset(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad digit set {text!r}")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational value {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sagan",
        description="digits of constants, digital n-circles, and first-occurrence search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="print fractional digits of a constant")
    p.add_argument("--constant", required=True)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--cache", action="store_true", help="reuse/extend the digit cache file")
    p.add_argument("--cache-dir", default=None)

    p = sub.add_parser("circle", help="render a digital n-circle")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--scheme", choices=SCHEMES, default=CENTER)
    p.add_argument("--radius", type=_parse_fraction, default=None,
                   help="override the n/2 radius, e.g. 3/2")
    p.add_argument("--flat", action="store_true", help="print the flat bit string")
    p.add_argument("--frame", action="store_true", help="surround with a frame of zeros")

    p = sub.add_parser("ellipse", help="digitize an axis-aligned ellipse")
    p.add_argument("-a", type=_parse_fraction, required=True)
    p.add_argument("-b", type=_parse_fraction, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--flat", action="store_true")

    p = sub.add_parser("search", help="first occurrence of a digital n-circle")
    p.add_argument("--constant", required=True)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--scheme", choices=SCHEMES, default=CENTER)
    p.add_argument("--circle-digits", "--p-set", dest="p_set", type=_parse_digit_set,
                   default=None, help="digit class for circle cells, e.g. 1,7")
    p.add_argument("--background-digits", "--q-set", dest="q_set", type=_parse_digit_set,
                   default=None, help="digit class for background cells, e.g. 0,3")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--context-width", type=int, default=12)
    p.add_argument("--block-size", type=int, default=4096)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("bbp", help="extract digits at an arbitrary position")
    p.add_argument("--constant", choices=("pi", "log2"), default="pi")
    p.add_argument("--position", type=int, required=True)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--base", type=int, default=None,
                   help="must match the formula base when given")

    p = sub.add_parser("normality", help="k-gram chi-square diagnostics")
    p.add_argument("--constant", required=True)
    p.add_argument("--base", type=int, default=10)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("estimate", help="expected search position and CPU cost")
    p.add_argument("--base", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--window", type=int, help="window length in digits")
    group.add_argument("-n", type=int, help="circle side; window is n*n")
    p.add_argument("--ns-per-digit", type=_parse_fraction, default=Fraction(1))
    p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def cmd_digits(args) -> int:
    spec = ConstantSpec.parse(args.constant)
    if args.count < 1:
        print("count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    ident = spec.identifier()
    if args.cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
        path = cache_mod.cache_path(cache_dir, ident, args.base)
        if path.exists():
            base_f, ident_f, cached = cache_mod.read_cache(path)
            if base_f != args.base or ident_f != ident:
                raise CacheError(f"cache file {path} holds {ident_f} base {base_f}")
            if len(cached) >= args.count:
                print(digit_glyphs(cached[:args.count]))
                return EXIT_OK
        block = digits_in_base(spec, args.base, args.count)
        cache_mod.write_cache(path, args.base, ident, block.data)
        print(digit_glyphs(block.data))
        return EXIT_OK
    block = digits_in_base(spec, args.base, args.count)
    print(digit_glyphs(block.data))
    return EXIT_OK


def cmd_circle(args) -> int:
    if not 1 <= args.n <= MAX_SIDE:
        print(f"n must be in 1..{MAX_SIDE}", file=sys.stderr)
        return EXIT_USAGE
    pattern = rasterize(args.n, args.scheme, args.radius)
    if args.flat:
        print(pattern.flat())
    else:
        print(pattern.ascii(frame=args.frame))
    return EXIT_OK


def cmd_ellipse(args) -> int:
    if not (1 <= args.width <= MAX_SIDE and 1 <= args.height <= MAX_SIDE):
        print(f"width and height must be in 1..{MAX_SIDE}", file=sys.stderr)
        return EXIT_USAGE
    raster = rasterize_ellipse(args.a, args.b, args.width, args.height)
    print(raster.flat() if args.flat else raster.ascii())
    return EXIT_OK


def _render_search_text(result, n: int) -> str:
    lines = []
    if not result.found:
        lines.append(f"not found within {result.limit} digits "
                     f"({result.digits_examined} examined)")
        return "\n".join(lines)
    lines.append(f"position {result.position} "
                 f"(digits examined: {result.digits_examined})")
    window = digit_glyphs(result.window.data)
    lines.append("window as square raster:")
    for r in range(n):
        lines.append("  " + digit_glyphs(result.window.data[r * n:(r + 1) * n]))
    before = digit_glyphs(result.context_before)
    after = digit_glyphs(result.context_after)
    lines.append("context:")
    lines.append("  ..." + before + window + after + "...")
    lines.append("     " + " " * len(before) + "^" * len(window))
    return "\n".join(lines)


def cmd_search(args) -> int:
    spec = ConstantSpec.parse(args.constant)
    if args.limit < 1:
        print("limit must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.n <= MAX_SIDE:
        print(f"n must be in 1..{MAX_SIDE}", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.context_width <= MAX_CONTEXT_WIDTH:
        print(f"context width must be in 0..{MAX_CONTEXT_WIDTH}", file=sys.stderr)
        return EXIT_USAGE
    if (args.p_set is None) != (args.q_set is None):
        print("give both --circle-digits and --background-digits or neither",
              file=sys.stderr)
        return EXIT_USAGE
    shape = rasterize(args.n, args.scheme)
    if args.p_set is not None:
        pattern = GeneralizedPattern(shape, args.p_set, args.q_set)
        p_out, q_out = pattern.circle_set, pattern.background_set
    else:
        pattern = shape
        p_out, q_out = frozenset((1,)), frozenset((0,))
    matcher = search_mod.compile(pattern, args.base)
    stream = open_stream(spec, args.base, args.block_size)
    result = search_mod.find_first(stream, matcher, args.limit, args.context_width)
    if args.format == "json":
        record = search_mod.result_record(
            result, constant_id=spec.identifier(), scheme=args.scheme,
            n=args.n, circle_set=p_out, background_set=q_out)
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(_render_search_text(result, args.n))
    return EXIT_OK if result.found else EXIT_NOT_FOUND


def cmd_bbp(args) -> int:
    formula = bbp_mod.pi_formula() if args.constant == "pi" else bbp_mod.log2_formula()
    if args.base is not None and args.base != formula.base:
        print(f"{args.constant} digit extraction works in base {formula.base}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.position < 1 or args.count < 1:
        print("position and count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    block, guard = bbp_mod.digit_extract_info(formula, args.position, args.count)
    print(f"{digit_glyphs(block.data)} (guard bits: {guard})")
    return EXIT_OK


def cmd_normality(args) -> int:
    spec = ConstantSpec.parse(args.constant)
    report = normality_mod.normality_scan(spec, args.base, args.length, args.kmax)
    if args.format == "json":
        print(json.dumps(report.as_record(), indent=2, sort_keys=True))
        return EXIT_OK
    print(f"constant {report.constant}  base {report.base}  digits {report.length}")
    print(f"{'k':>3} {'cells':>9} {'samples':>10} {'chi2':>14} {'dof':>9} {'p':>12}")
    for row in report.per_k:
        p_text = "<1e-308" if row.underflow else f"{row.p_value:.4g}"
        print(f"{row.k:>3} {row.cells:>9} {row.samples:>10} "
              f"{row.statistic:>14.3f} {row.dof:>9} {p_text:>12}")
    print(report.verdict)
    return EXIT_OK


def cmd_estimate(args) -> int:
    window = args.window if args.window is not None else args.n * args.n
    if window < 1:
        print("window must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    digits = search_mod.expected_position(args.base, window)
    est = search_mod.cost_estimate(digits, args.ns_per_digit)
    if args.format == "json":
        print(json.dumps({
            "base": args.base,
            "window": window,
            "expected_digits": sci(digits),
            "cpu_seconds": sci(est.cpu_seconds),
            "cpu_years": sci(est.cpu_years),
            "universe_age_multiples": sci(est.universe_age_multiples),
        }, indent=2, sort_keys=True))
    else:
        print(f"{sci(digits)} digits; ~{sci(est.universe_age_multiples, 2)} universe ages")
    return EXIT_OK


_HANDLERS = {
    "digits": cmd_digits,
    "circle": cmd_circle,
    "ellipse": cmd_ellipse,
    "search": cmd_search,
    "bbp": cmd_bbp,
    "normality": cmd_normality,
    "estimate": cmd_estimate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except CarryAmbiguity as exc:
        print(f"carry ambiguity: {exc}", file=sys.stderr)
        return EXIT_AMBIGUITY
    except (SaganError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
