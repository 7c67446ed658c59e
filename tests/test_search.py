"""Search tests. The authoritative matcher semantics is the naive
window-by-window scan implemented here; the streaming matcher must agree."""

import decimal
import random
import sys
import time
from decimal import Decimal

import pytest

if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)

from sagan.digits import ConstantSpec, DigitBlock, digits_in_base, open_stream
from sagan.errors import BaseMismatch, BaseTooSmall, DigitOutOfRange, LimitTooSmall
from sagan.raster import GeneralizedPattern, rasterize, rasterize_center, rasterize_naive
from sagan.search import (
    CompiledMatcher,
    class_frequency_gain,
    compact_digit_string,
    compile,
    cost_estimate,
    expected_position,
    find_digit,
    find_first,
    result_record,
    _CTX,
)

PI = ConstantSpec.pi()


def naive_scan(digits, matcher, limit):
    """Reference O(L * n^2) first-match scan over a digit list."""
    length = matcher.length
    last = min(limit, len(digits)) - length + 1
    for anchor in range(1, last + 1):
        if all(digits[anchor - 1 + i] in s
               for i, s in enumerate(matcher.admissible)):
            return anchor
    return None


@pytest.fixture
def refill_targets(monkeypatch):
    """The digit counts each refill of a recomputed constant computes to, in order."""
    import sagan.digits as digits_mod
    targets = []
    real = digits_mod._computed

    def recording(*args):
        digits = real(*args)

        def refill(count, done):
            targets.append(count)
            return digits(count, done)
        return refill

    monkeypatch.setattr(digits_mod, "_computed", recording)
    return targets


class TestCompile:
    def test_plain_matcher_sets(self):
        matcher = compile(rasterize_naive(2), 10)
        assert matcher.length == 4
        assert all(s == frozenset({1}) for s in matcher.admissible)

    def test_generalized_class_semantics(self):
        shape = rasterize_naive(3)
        gp = GeneralizedPattern(shape, frozenset({1, 7}), frozenset({0, 3}))
        matcher = compile(gp, 10)
        assert matcher.admits([1, 1, 7, 1, 3, 1, 7, 1, 7])
        # background cells admit 0 even though other members of Q appear
        assert matcher.admits([7, 1, 7, 7, 0, 1, 1, 1, 7])
        assert not matcher.admits([1, 1, 7, 1, 5, 1, 7, 1, 7])

    def test_single_cell_base2(self):
        matcher = compile(rasterize_naive(1), 2)
        assert matcher.length == 1 and matcher.admits([1])

    def test_base_too_small(self):
        shape = rasterize_naive(2)
        gp = GeneralizedPattern(shape, frozenset({1, 7}), frozenset({0}))
        with pytest.raises(BaseTooSmall):
            compile(gp, 7)
        compile(gp, 8)  # base > max digit is enough
        with pytest.raises(BaseTooSmall):
            compile(shape, 1)

    def test_admits_checks_runs_without_expanding(self):
        matcher = compile(rasterize_center(4096), 10)
        window = bytearray(b"".join(bytes((min(s),)) * count for s, count in matcher.runs))
        assert matcher.admits(window)
        window[-1] ^= 1
        assert not matcher.admits(window)
        assert not matcher.admits(window[:-1])
        assert matcher._admissible is None  # no per-cell tuple of 16.7M sets


class TestFindFirst:
    def test_pi_single_one(self):
        result = find_first(open_stream(PI, 10, 64), compile(rasterize_center(1), 10), 10)
        assert result.found and result.position == 1
        assert result.digits_examined == 1

    def test_pi_2circle_base10(self):
        result = find_first(open_stream(PI, 10, 4096),
                            compile(rasterize_center(2), 10), 20000)
        assert result.position == 12700
        joined = (compact_digit_string(result.context_before)
                  + compact_digit_string(result.window.digits)
                  + compact_digit_string(result.context_after))
        assert "144111126" in joined

    def test_pi_single_one_base11(self):
        result = find_first(open_stream(PI, 11, 64), compile(rasterize_center(1), 11), 10)
        assert result.position == 1

    def test_window_positions(self):
        result = find_first(open_stream(PI, 10, 4096),
                            compile(rasterize_center(2), 10), 20000)
        assert result.window.start_position == 12700
        assert result.window.digits == (1, 1, 1, 1)
        assert result.digits_examined == 12703

    def test_not_found_examines_limit(self):
        result = find_first(open_stream(ConstantSpec.rational(1, 3), 10, 128),
                            compile(rasterize_center(2), 10), 500)
        assert not result.found
        assert result.position is None
        assert result.digits_examined == 500

    def test_errors(self):
        matcher = compile(rasterize_center(2), 10)
        with pytest.raises(BaseMismatch):
            find_first(open_stream(PI, 11, 64), matcher, 100)
        with pytest.raises(LimitTooSmall):
            find_first(open_stream(PI, 10, 64), matcher, 3)

    def test_limit_equals_window_length(self):
        matcher = compile(rasterize_center(2), 10)
        # only anchor 1 is scannable: pi opens 1415, no match
        miss = find_first(open_stream(PI, 10, 64), matcher, 4)
        assert not miss.found and miss.digits_examined == 4
        # 1/9 = 0.1111... matches at the only anchor
        hit = find_first(open_stream(ConstantSpec.rational(1, 9), 10, 64), matcher, 4)
        assert hit.found and hit.position == 1 and hit.digits_examined == 4


    def test_refills_stop_at_the_limit(self, refill_targets):
        result = find_first(open_stream(PI, 10, 1000), compile(rasterize_center(3), 10), 5000)
        assert not result.found and result.digits_examined == 5000
        # geometric growth, capped at limit + context
        assert refill_targets == [4000, 5012]

    def test_large_block_computes_only_limit_and_context(self, refill_targets):
        matcher = compile(rasterize_center(1), 10)
        result = find_first(open_stream(PI, 10, 10 ** 6), matcher, 100)
        assert result.position == 1 and len(result.context_after) == 12
        assert max(refill_targets) <= 112
        refill_targets.clear()
        again = find_first(open_stream(PI, 10, 10 ** 6), matcher, 100)
        assert again == result
        assert max(refill_targets) <= 112

    def test_random_block_sizes_stay_within_the_bound(self, refill_targets):
        rng = random.Random(5000)
        for _ in range(40):
            matcher = compile(rasterize_center(rng.randint(1, 3)), 10)
            limit = rng.randint(matcher.length, 20000)
            width = rng.randint(0, 20)
            block = rng.randint(1, 5000)
            refill_targets.clear()
            got = find_first(open_stream(PI, 10, block), matcher, limit, width)
            assert max(refill_targets) <= limit + width, (block, limit, width)
            assert got == find_first(open_stream(PI, 10, 4096), matcher, limit, width)

    def test_positions_count_from_the_cursor(self):
        rng = random.Random(103)
        digits = list(digits_in_base(PI, 10, 3000).digits)
        for trial in range(40):
            matcher = random_matcher(rng, 10)
            k = rng.randint(0, 1000)
            limit = rng.randint(matcher.length, 1900)
            width = rng.randint(0, 20)
            stream = open_stream(PI, 10, rng.choice((1, 7, 64, 4096)))
            if trial % 2:
                stream.skip(k)
            else:
                stream.take(k)
            got = find_first(stream, matcher, limit, width)
            rest = digits[k:]
            expected = naive_scan(rest, matcher, limit)
            if expected is None:
                assert not got.found and got.digits_examined == limit
                continue
            end = expected + matcher.length - 1
            assert got.position == k + expected
            assert got.window.start_position == k + expected
            assert got.window.digits == tuple(rest[expected - 1:end])
            assert got.context_before == tuple(rest[max(0, expected - 1 - width):expected - 1])
            assert got.context_after == tuple(rest[end:end + width])
            assert got.digits_examined == end


class TestFindDigit:
    def test_first_zero_of_pi(self):
        result = find_digit(open_stream(PI, 10, 64), 0, 100)
        assert result.position == 32

    def test_first_one_of_pi(self):
        assert find_digit(open_stream(PI, 10, 64), 1, 10).position == 1

    def test_rational(self):
        assert find_digit(open_stream(ConstantSpec.rational(1, 3), 10, 16), 3, 10).position == 1

    def test_out_of_range(self):
        with pytest.raises(DigitOutOfRange):
            find_digit(open_stream(PI, 10, 64), 10, 10)


def random_matcher(rng, base):
    n = rng.randint(1, 3)
    scheme = rng.choice(("naive", "center"))
    shape = rasterize(n, scheme)
    if rng.random() < 0.5:
        return compile(shape, base)
    p = frozenset(rng.sample(range(base), rng.randint(1, min(3, base))))
    q = frozenset(rng.sample(range(base), rng.randint(1, min(3, base))))
    return compile(GeneralizedPattern(shape, p, q), base)


class TestOracleEquivalence:
    def test_streaming_equals_naive_scan(self):
        rng = random.Random(42)
        for _ in range(200):
            base = rng.randint(2, 16)
            q = rng.randint(2, 10 ** 6)
            p = rng.randint(1, q - 1)
            spec = ConstantSpec.rational(p, q)
            limit = rng.randint(100, 10 ** 5)
            matcher = random_matcher(rng, base)
            if limit < matcher.length:
                limit = matcher.length
            digits = list(digits_in_base(spec, base, limit).digits)
            expected = naive_scan(digits, matcher, limit)
            got = find_first(open_stream(spec, base, rng.choice((64, 1000, 4096))),
                             matcher, limit)
            assert got.position == expected
            if expected is not None:
                assert matcher.admits(got.window.digits)

    def test_first_match_minimality_on_pi(self):
        matcher = compile(rasterize_center(2), 10)
        result = find_first(open_stream(PI, 10, 4096), matcher, 20000)
        digits = list(digits_in_base(PI, 10, 20000).digits)
        assert naive_scan(digits, matcher, result.position + 3) == result.position
        for anchor in range(1, result.position):
            assert not matcher.admits(digits[anchor - 1:anchor + 3])


class BytesStream:
    """A stream stand-in over fixed digits: `base`, `next_block` and `take`,
    padded with zeros past the end."""

    def __init__(self, base, digits, block_size):
        self.base, self.data, self.block_size = base, bytes(digits), block_size
        self.cursor = 1

    def reserve(self, count):
        pass

    def next_block(self):
        return self.take(self.block_size)

    def take(self, count):
        start = self.cursor
        self.cursor += count
        chunk = self.data[start - 1:start - 1 + count]
        return DigitBlock(self.base, start, chunk.ljust(count, b"\0"))


# bytes with a meaning inside a regex class: "-", "\\", "]", "^"
SPECIAL = (0, 45, 92, 93, 94, 255)


class TestScanOracle:
    def random_sets(self, rng):
        alphabet = SPECIAL + tuple(rng.sample(range(1, 255), 4))
        def pick():
            return frozenset(rng.sample(alphabet, rng.randint(1, 5)))
        return alphabet, pick

    def check(self, digits, matcher, limit, got, width=12):
        """`got` against naive_scan; `digits` runs past `limit` by `width`
        or ends where the stream starts reading zeros."""
        expected = naive_scan(digits, matcher, limit)
        assert got.position == expected
        if expected is None:
            assert not got.found and got.digits_examined == limit
            return
        end = expected + matcher.length - 1
        assert matcher.admits(got.window.digits)
        assert got.window.digits == tuple(digits[expected - 1:end])
        assert got.context_before == tuple(digits[max(0, expected - 1 - width):expected - 1])
        padded = list(digits) + [0] * width  # the stream reads zeros past the end
        assert got.context_after == tuple(padded[end:end + width])
        assert got.digits_examined == end

    def test_random_classes_base256(self):
        rng = random.Random(256)
        for trial in range(300):
            alphabet, pick = self.random_sets(rng)
            if trial % 2:
                p, q = pick(), pick()  # overlapping or not, at random
                shape = rasterize(rng.randint(1, 4), rng.choice(("naive", "center")))
                matcher = compile(GeneralizedPattern(shape, p, q), 256)
            else:
                matcher = CompiledMatcher(256, [(pick(), 1) for _ in range(rng.randint(1, 12))])
            size = rng.randint(matcher.length, 3000)
            digits = [rng.choice(alphabet) for _ in range(size)]
            limit = rng.randint(matcher.length, size)
            block = rng.choice((1, 2, 3, matcher.length, 64, 4096))
            got = find_first(BytesStream(256, digits, block), matcher, limit)
            self.check(digits, matcher, limit, got)

    def test_planted_window_found_at_its_anchor(self):
        rng = random.Random(94)
        for _ in range(100):
            alphabet, pick = self.random_sets(rng)
            sets = [pick() for _ in range(rng.randint(1, 40))]
            matcher = CompiledMatcher(256, [(s, 1) for s in sets])
            digits = [rng.choice(alphabet) for _ in range(rng.randint(0, 500))]
            anchor = len(digits) + 1
            digits += [rng.choice(sorted(s)) for s in sets]
            digits += [rng.choice(alphabet) for _ in range(rng.randint(0, 20))]
            width = rng.randint(0, 30)
            got = find_first(BytesStream(256, digits, rng.randint(1, 50)),
                             matcher, len(digits), width)
            assert got.found and got.position <= anchor
            self.check(digits, matcher, len(digits), got, width)

    def test_chunked_base256_specials(self):
        rng = random.Random(45)
        for _ in range(30):
            spec = ConstantSpec.rational(rng.randint(1, 10 ** 5), 10 ** 5 + rng.randint(1, 999))
            big = frozenset(rng.sample(range(256), 200)) | {45, 92, 93, 94}
            matcher = compile(GeneralizedPattern(rasterize_naive(rng.randint(1, 2)), big,
                                                 frozenset(SPECIAL) | big), 256)
            limit = rng.randint(matcher.length, 3000)
            digits = digits_in_base(spec, 256, limit + 12).digits
            got = find_first(open_stream(spec, 256, rng.randint(1, 9)), matcher, limit)
            self.check(digits, matcher, limit, got)


class TestLargeMatcher:
    def test_n1024_compiles_and_scans_quickly(self):
        start = time.perf_counter()
        shape = rasterize_center(1024)
        matcher = compile(shape, 10)
        digits = bytes(5000) + bytes(shape.bits) + bytes(100)
        result = find_first(BytesStream(10, digits, 1 << 16), matcher, len(digits))
        assert result.position == 5001
        assert time.perf_counter() - start < 10.0


    def test_n4096_compiles_from_runs(self):
        # in a fresh interpreter, so the time covers only rasterizing and
        # compiling; the matcher holds a few runs per row, not n*n sets
        import subprocess
        from pathlib import Path

        import sagan
        script = (
            "import time\n"
            "from sagan.raster import rasterize_center\n"
            "from sagan.search import compile\n"
            "start = time.perf_counter()\n"
            "matcher = compile(rasterize_center(4096), 10)\n"
            "print(time.perf_counter() - start, matcher.length, len(matcher.runs))\n")
        src = str(Path(sagan.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env={"PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        seconds, length, runs = proc.stdout.split()
        assert float(seconds) < 10.0
        assert int(length) == 4096 * 4096
        assert int(runs) <= 5 * 4096


def partitioned_first(spec, base, matcher, limit, size):
    """The first hit among the anchors of the first `limit` digits, searched
    range by range: each range of `size` anchors has its own stream, skipped
    to the range start, and reads its anchors' windows, so neighbouring
    ranges overlap by len - 1 digits. Stops at the first range with a hit."""
    anchors = limit - matcher.length + 1
    for start in range(0, anchors, size):
        stream = open_stream(spec, base, 512)
        stream.skip(start)
        result = find_first(stream, matcher, min(size, anchors - start) + matcher.length - 1)
        if result.found:
            break
    return result


class TestChunkedEquivalence:
    def test_chunked_equals_sequential(self):
        rng = random.Random(2026)
        for _ in range(20):
            base = rng.randint(2, 12)
            q = rng.randint(2, 10 ** 5)
            p = rng.randint(1, q - 1)
            spec = ConstantSpec.rational(p, q)
            matcher = random_matcher(rng, base)
            limit = max(matcher.length, rng.randint(100, 2 * 10 ** 4))
            anchors = limit - matcher.length + 1
            size = -(-anchors // rng.randint(1, 20))  # at most 20 ranges
            sequential = find_first(open_stream(spec, base, 512), matcher, limit)
            chunked = partitioned_first(spec, base, matcher, limit, size)
            assert chunked.position == sequential.position
            assert chunked.found == sequential.found
            if sequential.found:
                assert chunked.window == sequential.window
                assert chunked.context_after == sequential.context_after
                # ranges of `position` anchors: the hit is the last anchor of
                # the first range, and its window ends in the second
                edge = partitioned_first(spec, base, matcher, limit, sequential.position)
                assert edge.position == sequential.position

    def test_chunked_on_pi(self):
        # the hit is the last anchor of the fourth range, whose window ends
        # in the overlap with the fifth
        matcher = compile(rasterize_center(2), 10)
        sequential = find_first(open_stream(PI, 10, 4096), matcher, 20000)
        chunked = partitioned_first(PI, 10, matcher, 20000, 3175)
        assert chunked.position == sequential.position == 12700 == 4 * 3175


class TestExpectedPosition:
    def test_exact_small_powers(self):
        assert expected_position(10, 1) == Decimal("1E+1")
        value = expected_position(2, 10)
        assert value.adjusted() == 3
        assert f"{value:.6E}" == "1.024000E+3"

    def test_base11_large_window_magnitude(self):
        value = expected_position(11, 2048)
        assert f"{value:.3E}" == "5.919E+2132"
        assert value.adjusted() == 2132

    def test_exact_integer_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            base = rng.randint(2, 36)
            length = rng.randint(1, 3000)
            exact = base ** length
            approx = expected_position(base, length)
            digits = str(exact)
            assert approx.adjusted() == len(digits) - 1
            mantissa = Decimal(digits[:8]).scaleb(-7)
            got = approx.scaleb(-approx.adjusted())
            assert abs(got - mantissa) < Decimal("1e-6")

    def test_huge_window_exponent(self):
        import mpmath
        window = 447840 ** 2
        value = expected_position(11, window)
        with mpmath.workdps(40):
            oracle = int(mpmath.floor(window * mpmath.log(11, 10)))
        assert value.adjusted() == oracle == 208862410086

    def test_correctly_rounded_to_40_digits(self):
        for base in range(2, 257):
            for length in range(1, 65):
                assert expected_position(base, length) == _CTX.plus(Decimal(base ** length))

    def test_past_the_decimal_exponent_limit(self):
        assert expected_position(10, decimal.MAX_EMAX).adjusted() == decimal.MAX_EMAX
        with pytest.raises(ValueError, match="MAX_EMAX"):
            expected_position(10, decimal.MAX_EMAX + 1)
        # 2**3321928094887362347 = 5.47e999999999999999999, the last power of 2 below the limit
        assert expected_position(2, 3321928094887362347).adjusted() == decimal.MAX_EMAX
        with pytest.raises(ValueError, match="MAX_EMAX"):
            expected_position(2, 3321928094887362348)
        with pytest.raises(ValueError, match="MAX_EMAX"):
            expected_position(2, 10 ** 30)
        with pytest.raises(ValueError, match="MAX_EMAX"):
            cost_estimate(expected_position(10, decimal.MAX_EMAX), 10)


class TestClassFrequencyGain:
    def test_plain_is_one(self):
        for n in (1, 2, 5):
            assert class_frequency_gain(compile(rasterize_naive(n), 10)) == 1

    def test_two_by_two_classes(self):
        gp = GeneralizedPattern(rasterize_naive(3), frozenset({1, 7}), frozenset({0, 3}))
        assert class_frequency_gain(compile(gp, 10)) == 512  # 2^8 circle * 2^1 field

    def test_singleton_classes(self):
        gp = GeneralizedPattern(rasterize_naive(4), frozenset({5}), frozenset({2}))
        assert class_frequency_gain(compile(gp, 10)) == 1


class TestCostEstimate:
    def test_one_cpu_year(self):
        est = cost_estimate(Decimal("3.2E+16"), 1)
        assert est.cpu_years == 1

    def test_universe_ages_for_2048_window(self):
        est = cost_estimate(expected_position(11, 2048), 1)
        ages = est.universe_age_multiples
        assert Decimal("1.0E+2106") <= ages <= Decimal("2.0E+2106")

    def test_universe_age_ratio_invariant(self):
        est = cost_estimate(expected_position(11, 447840 ** 2), 1)
        ratio = est.cpu_years / est.universe_age_multiples
        assert abs(ratio - Decimal("1.35E+10")) < Decimal("1E-5")
        assert est.cpu_years.adjusted() in (208862410086 - 17, 208862410086 - 16)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cost_estimate(Decimal(0), 1)


class TestRecord:
    def test_compact_digit_string(self):
        assert compact_digit_string([1, 9, 10, 255]) == "19[10][255]"

    def test_record_fields(self):
        result = find_first(open_stream(PI, 10, 64), compile(rasterize_center(1), 10), 10)
        record = result_record(result, constant_id="pi",
                               pattern=GeneralizedPattern(rasterize_center(1)))
        assert record["found"] is True
        assert record["position"] == 1
        assert record["window"] == "1"
        assert record["P"] == [1] and record["Q"] == [0]
        assert set(record) == {"constant", "base", "scheme", "n", "P", "Q",
                               "position", "window", "context_before",
                               "context_after", "digits_examined", "limit", "found"}
