"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its runtime. Run with `pytest tests/test_acceptance.py -v -s`.

Known red: criterion 12's requirement that the first 10**6 Champernowne
digits keep chi-square p-values above 1e-6 is not attainable; the digit-1
excess in that prefix is ~80k, the k=1 statistic is ~7.3e4 and the p-value
underflows. The criterion is asserted as stated and fails honestly.
"""

import math
import random
import time
from decimal import Decimal

from sagan.bbp import digit_extract, pi_formula
from sagan.digits import (
    ConstantSpec,
    base_convert,
    decimal_digits,
    digits_in_base,
    open_stream,
    primes,
)
from sagan.normality import exact_equidistribution_probability, normality_scan
from sagan.raster import (
    chessboard_counts_brute,
    chessboard_crossed_cells,
    chessboard_interior_cells,
    corner_crossed,
    octant_reconstruction_failures,
    rasterize,
    rasterize_naive,
)
from sagan.search import (
    compact_digit_string,
    compile,
    cost_estimate,
    expected_position,
    find_digit,
    find_first,
)
from sagan.raster import GeneralizedPattern, rasterize_center

PI = ConstantSpec.pi()

# derived result recorded for this repository: first 1111 window in the
# base-11 expansion of pi (see README results table)
RECORDED_S11_2_PI = 5627


def report(num, description, started, ok, detail=""):
    elapsed = time.perf_counter() - started
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_01_pi_decimal_digits():
    t = time.perf_counter()
    digits = decimal_digits(PI, 6).digits
    ok = digits == (1, 4, 1, 5, 9, 2) and time.perf_counter() - t < 1.0
    report(1, "pi base-10 first six fractional digits are 141592", t, ok,
           f"got {digits}")


def test_criterion_02_pi_base11_two_pipelines():
    t = time.perf_counter()
    converted = base_convert(decimal_digits(PI, 30), 11, 6).digits
    recomputed = digits_in_base(PI, 11, 6, guard=24).digits
    ok = (converted == recomputed == (1, 6, 1, 5, 0, 7)
          and time.perf_counter() - t < 1.0)
    report(2, "pi base-11 digits 161507 via conversion and doubled-guard rerun",
           t, ok, f"convert {converted}, native {recomputed}")


def test_criterion_03_sagan_values():
    t = time.perf_counter()
    one = compile(rasterize_center(1), 10)
    s10_1 = find_first(open_stream(PI, 10, 256), one, 10).position
    s11_1 = find_first(open_stream(PI, 11, 256),
                       compile(rasterize_center(1), 11), 10).position
    zero_pos = find_digit(open_stream(PI, 10, 256), 0, 100).position
    pair = find_first(open_stream(PI, 10, 4096),
                      compile(rasterize_center(2), 10), 20000)
    context = (compact_digit_string(pair.context_before)
               + compact_digit_string(pair.window.digits)
               + compact_digit_string(pair.context_after))
    elapsed_ok = time.perf_counter() - t < 30.0
    ok = (s10_1 == 1 and s11_1 == 1 and zero_pos == 32
          and pair.position == 12700 and "144111126" in context and elapsed_ok)
    report(3, "S10(1)=1, S11(1)=1, first 0 at 32, S10(2)=12700 with 144111126",
           t, ok, f"S10(1)={s10_1} S11(1)={s11_1} zero={zero_pos} "
                  f"S10(2)={pair.position}")


def test_criterion_04_bbp_cross_check():
    t = time.perf_counter()
    native = digits_in_base(PI, 16, 10007).digits
    mismatches = []
    for p in (1, 10, 100, 1000, 10000):
        window = digit_extract(pi_formula(), p, 8).digits
        if tuple(window) != native[p - 1:p + 7]:
            mismatches.append(p)
    ok = not mismatches and time.perf_counter() - t < 60.0
    report(4, "digit_extract equals base-16 pipeline at p in {1,10,100,1000,10000}",
           t, ok, f"mismatches: {mismatches or 'none'}")


def test_criterion_05_estimator():
    t = time.perf_counter()
    digits = expected_position(11, 2048)
    ages = cost_estimate(digits, 1).universe_age_multiples
    four_sig = f"{digits:.3E}"
    ok = (four_sig == "5.919E+2132"
          and Decimal("1.0E+2106") <= ages <= Decimal("2.0E+2106")
          and time.perf_counter() - t < 1.0)
    report(5, "11^2048 = 5.919e2132 and ~1.4e2106 universe ages", t, ok,
           f"magnitude {four_sig}, ages {ages:.2E}")


def test_criterion_06_prime_product():
    t = time.perf_counter()
    gen = primes()
    first_eleven = [next(gen) for _ in range(11)]
    product = math.prod(first_eleven)
    root = math.isqrt(product)
    ok = (product == 200_560_490_130 and 447_840 in (root, root + 1)
          and time.perf_counter() - t < 1.0)
    report(6, "product of first 11 primes is 200560490130, sqrt near 447840",
           t, ok, f"product {product}, isqrt {root}")


def test_criterion_07_raster_regression():
    t = time.perf_counter()
    flat2 = rasterize_naive(2).flat()
    flat3 = rasterize_naive(3).flat()
    corner_ok = all(corner_crossed(n) for n in range(2, 7)) and \
        not any(corner_crossed(n) for n in range(7, 65))
    ok = (flat2 == "1111" and flat3 == "111101111" and corner_ok
          and time.perf_counter() - t < 1.0)
    report(7, "printed 2- and 3-circles match; corner crossing flips at 4+2*sqrt(2)",
           t, ok, f"flat2={flat2} flat3={flat3}")


def test_criterion_08_symmetry_suite():
    t = time.perf_counter()
    bad = octant_reconstruction_failures(256, "naive") + \
        octant_reconstruction_failures(256, "center")
    ok = bad == [] and time.perf_counter() - t < 30.0
    report(8, "symmetries and octant round trip hold for n <= 256, both schemes",
           t, ok, f"failures: {bad or 'none'}")


def test_criterion_09_chessboard_oracle():
    t = time.perf_counter()
    bad = []
    for n in range(1, 65):
        crossed, interior, exterior = chessboard_counts_brute(n)
        if (chessboard_crossed_cells(n) != crossed
                or chessboard_interior_cells(n) != interior
                or crossed + interior + exterior != 4 * n * n):
            bad.append(n)
    ok = not bad and time.perf_counter() - t < 30.0
    report(9, "analytic chessboard counts equal brute force, partition is 4n^2",
           t, ok, f"failures: {bad or 'none'}")


def _random_matcher(rng, base):
    n = rng.randint(1, 3)
    shape = rasterize(n, rng.choice(("naive", "center")))
    if rng.random() < 0.5:
        return compile(shape, base)
    p = frozenset(rng.sample(range(base), rng.randint(1, min(3, base))))
    q = frozenset(rng.sample(range(base), rng.randint(1, min(3, base))))
    return compile(GeneralizedPattern(shape, p, q), base)


def _naive_scan(digits, matcher, limit):
    length = matcher.length
    for anchor in range(1, min(limit, len(digits)) - length + 2):
        if all(digits[anchor - 1 + i] in s
               for i, s in enumerate(matcher.admissible)):
            return anchor
    return None


def _partitioned_first(spec, base, matcher, limit, size):
    """find_first over ranges of `size` anchors, each on its own stream
    skipped to the range start and reading its anchors' windows (ranges
    overlap by len - 1 digits), up to the first range with a hit."""
    anchors = limit - matcher.length + 1
    for start in range(0, anchors, size):
        stream = open_stream(spec, base, 512)
        stream.skip(start)
        result = find_first(stream, matcher, min(size, anchors - start) + matcher.length - 1)
        if result.found:
            break
    return result


def test_criterion_10_search_oracles():
    t = time.perf_counter()
    rng = random.Random(1965)
    bad = 0
    for _ in range(200):
        base = rng.randint(2, 16)
        q = rng.randint(2, 10 ** 6)
        spec = ConstantSpec.rational(rng.randint(1, q - 1), q)
        matcher = _random_matcher(rng, base)
        limit = max(matcher.length, rng.randint(100, 10 ** 5))
        digits = list(digits_in_base(spec, base, limit).digits)
        expected = _naive_scan(digits, matcher, limit)
        got = find_first(open_stream(spec, base, 1024), matcher, limit).position
        if got != expected:
            bad += 1
    for _ in range(20):
        base = rng.randint(2, 12)
        q = rng.randint(2, 10 ** 5)
        spec = ConstantSpec.rational(rng.randint(1, q - 1), q)
        matcher = _random_matcher(rng, base)
        limit = max(matcher.length, rng.randint(100, 2 * 10 ** 4))
        anchors = limit - matcher.length + 1
        size = -(-anchors // rng.randint(1, 20))  # at most 20 ranges
        seq = find_first(open_stream(spec, base, 512), matcher, limit)
        par = _partitioned_first(spec, base, matcher, limit, size)
        if (par.position, par.found) != (seq.position, seq.found):
            bad += 1
    ok = bad == 0 and time.perf_counter() - t < 60.0
    report(10, "streaming matcher = naive scan (200x), chunked = sequential (20x)",
           t, ok, f"disagreements: {bad}")


def test_criterion_11_equidistribution():
    t = time.perf_counter()
    result = exact_equidistribution_probability(1000, 10, 100)
    rel_err = abs(result.stirling_approx / float(result.exact) - 1)
    ok = rel_err < 0.01 and time.perf_counter() - t < 10.0
    report(11, "exact 1000-digit equidistribution probability, Stirling within 1%",
           t, ok, f"exact {result.exact_decimal}, stirling rel err {rel_err:.4f}")


def test_criterion_12_normality_diagnostics():
    t = time.perf_counter()
    third = normality_scan(ConstantSpec.rational(1, 3), 10, 10 ** 4, 1)
    third_ok = third.per_k[0].underflow and third.per_k[0].p_value == 0.0
    champ = normality_scan(ConstantSpec.champernowne(10), 10, 10 ** 6, 2)
    champ_ok = all(row.p_value > 1e-6 for row in champ.per_k)
    ok = third_ok and champ_ok and time.perf_counter() - t < 60.0
    report(12, "1/3 scan underflows; champernowne(10) at 1e6 keeps p > 1e-6",
           t, ok,
           f"1/3 underflow={third_ok}; champernowne p-values "
           f"{[f'{row.p_value:.3g}' for row in champ.per_k]} "
           f"(chi2 {[round(row.statistic) for row in champ.per_k]})")


def test_criterion_13_base11_pair_search():
    t = time.perf_counter()
    matcher = compile(rasterize_center(2), 11)
    result = find_first(open_stream(PI, 11, 8192), matcher, 10 ** 6)
    # dual-pipeline digit verification: reconvert the hit region from the
    # independent decimal pipeline and rescan it
    span = result.position + len(result.window.digits) + 12
    dec = decimal_digits(PI, int(span * 1.042) + 40)
    other = base_convert(dec, 11, span).digits
    window_match = other[result.position - 1:result.position + 3] == result.window.digits
    brute_first = next(
        (i + 1 for i in range(len(other) - 3)
         if other[i] == other[i + 1] == other[i + 2] == other[i + 3] == 1), None)
    ok = (result.found and result.position == RECORDED_S11_2_PI
          and window_match and brute_first == result.position
          and time.perf_counter() - t < 300.0)
    report(13, "S11(2)(pi) found within 1e6 with dual-pipeline verification",
           t, ok, f"position {result.position}, recorded {RECORDED_S11_2_PI}, "
                  f"pipelines agree: {window_match and brute_first == result.position}")
