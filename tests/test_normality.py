"""Normality diagnostics tests. The p-value path is verified against an
independent series / continued-fraction incomplete-gamma evaluation done
in high-precision mpmath arithmetic."""

import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

import sagan
from sagan import normality
from sagan.cli import EXIT_USAGE, main
from sagan.digits import ConstantSpec, DigitBlock, decimal_digits, digits_in_base
from sagan.errors import BlockTooShort, KTooLarge, MismatchedTotals, TooFewSamples
from sagan.normality import (
    UNDERFLOW_FLOOR,
    KGramCounts,
    _chi2_sf,
    chi_square_uniform,
    exact_equidistribution_probability,
    kgram_counts,
    normality_scan,
)

PI = ConstantSpec.pi()


def run_python(code: str) -> subprocess.CompletedProcess:
    """`code` in a fresh interpreter that imports this checkout's sagan."""
    src = str(Path(sagan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


def upper_gamma_oracle(a: float, x: float) -> mpmath.mpf:
    """Regularized upper incomplete gamma Q(a, x) from first principles:
    power series below a+1, modified Lentz continued fraction above."""
    with mpmath.workdps(50):
        a = mpmath.mpf(a)
        x = mpmath.mpf(x)
        if x == 0:
            return mpmath.mpf(1)
        log_prefix = a * mpmath.log(x) - x - mpmath.loggamma(a)
        if x < a + 1:
            # P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a(a+1)...(a+n))
            term = 1 / a
            total = term
            n = 0
            while True:
                n += 1
                term *= x / (a + n)
                total += term
                if abs(term) < abs(total) * mpmath.mpf(10) ** -45:
                    break
            return 1 - total * mpmath.e ** log_prefix
        # Lentz's algorithm for the continued fraction of Q(a, x)
        tiny = mpmath.mpf(10) ** -400
        b = x + 1 - a
        c = 1 / tiny
        d = 1 / b
        h = d
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1 / d
            delta = d * c
            h *= delta
            if abs(delta - 1) < mpmath.mpf(10) ** -45:
                break
        return h * mpmath.e ** log_prefix


class TestKGramCounts:
    def test_all_ones_pairs(self):
        counts = kgram_counts(DigitBlock(10, 1, [1, 1, 1, 1]), 2)
        assert counts.counts == {(1, 1): 3}
        assert counts.samples == 3

    def test_pi_first_ten_singletons(self):
        counts = kgram_counts(decimal_digits(PI, 10), 1)
        expected = {(1,): 2, (4,): 1, (5,): 3, (9,): 1, (2,): 1, (6,): 1, (3,): 1}
        assert counts.counts == expected
        assert counts.count([0]) == 0 and counts.count([7]) == 0 and counts.count([8]) == 0

    def test_window_equals_block(self):
        counts = kgram_counts(DigitBlock(10, 1, [4, 2]), 2)
        assert counts.samples == 1 and counts.counts == {(4, 2): 1}

    def test_count_conservation(self):
        rng = random.Random(13)
        for _ in range(20):
            base = rng.randint(2, 16)
            length = rng.randint(5, 400)
            k = rng.randint(1, 3)
            digits = DigitBlock(base, 1, [rng.randrange(base) for _ in range(length)])
            counts = kgram_counts(digits, k)
            assert sum(counts.counts.values()) == length - k + 1

    def test_matches_counter_reference(self):
        # both table sizes: fewer cells than windows, and more
        rng = random.Random(17)
        for base, k, length in ((2, 1, 50), (2, 3, 5000), (10, 1, 20000), (10, 2, 20000),
                                (10, 3, 500), (16, 2, 300), (256, 1, 20000),
                                (256, 2, 1000), (256, 3, 2000), (7, 8, 100)):
            values = [rng.randrange(base) for _ in range(length)]
            if rng.random() < 0.5:
                values[:length // 2] = [base - 1] * (length // 2)
            got = kgram_counts(DigitBlock(base, 1, values), k)
            reference = Counter(zip(*(values[i:] for i in range(k))))
            assert got.counts == dict(reference)
            assert all(type(d) is int for gram in got.counts for d in gram)

    def test_guards(self):
        with pytest.raises(KTooLarge):
            kgram_counts(DigitBlock(256, 1, [0] * 100), 4)
        with pytest.raises(BlockTooShort):
            kgram_counts(DigitBlock(10, 1, [1]), 2)

    def test_chunk_edges_match_counter_reference(self):
        # windows are indexed _CHUNK_WINDOWS at a time: lengths around one
        # chunk and past three, in the dense table (also with a chunk
        # stretched to a table longer than _CHUNK_WINDOWS) and the sparse one
        chunk = normality._CHUNK_WINDOWS
        rng = random.Random(19)
        branches = set()
        for base in (2, 10, 256):
            for k in (1, 2, 3):
                # a small alphabet first, so that sparse cells recur across chunks
                values = ([rng.randrange(min(base, 3)) for _ in range(2 * chunk)]
                          + [rng.randrange(base) for _ in range(chunk + k + 1)])
                for length in [*range(chunk - 1, chunk + k + 1), 3 * chunk + 1]:
                    samples = length - k + 1
                    branches.add("dense" if base ** k <= samples else "sparse")
                    if chunk < base ** k <= samples:
                        branches.add("stretched")
                    window = values[:length]
                    got = kgram_counts(DigitBlock(base, 1, window), k)
                    reference = Counter(zip(*(window[i:] for i in range(k))))
                    assert got.counts == dict(reference), (base, k, length)
                    assert list(got.counts) == sorted(got.counts)
        assert branches == {"dense", "sparse", "stretched"}

    def test_index_memory_is_bounded_by_the_chunk(self):
        # 2 * 10**6 digits: an index over every window would take 8 bytes
        # per digit
        block = digits_in_base(ConstantSpec.champernowne(10), 10, 2 * 10 ** 6)
        for k in (1, 2, 3):
            tracemalloc.start()
            try:
                counts = kgram_counts(block, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(counts.counts.values()) == len(block) - k + 1
            assert peak < len(block), (k, peak)


class TestChiSquare:
    def test_uniform_counts_are_zero(self):
        counts = KGramCounts(10, 1, 1000, {(d,): 100 for d in range(10)})
        chi = chi_square_uniform(counts)
        assert chi.statistic == 0.0
        assert chi.p_value == 1.0
        assert not chi.underflow

    def test_all_mass_closed_form(self):
        counts = KGramCounts(10, 1, 1000, {(3,): 1000})
        chi = chi_square_uniform(counts)
        assert chi.statistic == pytest.approx(8100 + 900)  # (1000-100)^2/100 + 9*100
        assert chi.p_value == 0.0
        assert chi.underflow

    def test_standard_table_point(self):
        # chi-square upper 5% critical value at 9 dof is 16.919
        counts = KGramCounts(10, 1, 1000, {(d,): 100 for d in range(10)})
        stat = 16.919
        p = float(upper_gamma_oracle(4.5, stat / 2))
        assert p == pytest.approx(0.05, abs=5e-5)
        assert _chi2_sf(9, stat) == pytest.approx(p, rel=1e-12)

    def test_pvalue_against_gamma_oracle(self):
        rng = random.Random(505)
        checked = 0
        while checked < 50:
            dof = rng.choice((1, 2, 5, 9, 15, 63, 99, 255, 999))
            stat = rng.uniform(0.01, dof * 4 + 20)
            got = _chi2_sf(dof, stat)
            oracle = float(upper_gamma_oracle(dof / 2, stat / 2))
            if oracle < 1e-250:
                continue
            assert got == pytest.approx(oracle, rel=1e-12), (dof, stat)
            checked += 1

    def test_monotone_tail(self):
        # grid chosen away from the float saturation regions near 0 and 1
        for dof in (3, 9, 99):
            stats = [dof * (1 + 0.25 * i) for i in range(13)]
            grid = [_chi2_sf(dof, s) for s in stats]
            assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_too_few_samples(self):
        counts = KGramCounts(10, 2, 30, {(1, 2): 29})
        with pytest.raises(TooFewSamples):
            chi_square_uniform(counts)


def chi2_sf_oracle(dof: int, x: float) -> mpmath.mpf:
    """Q(dof/2, x/2) as its finite sum at 50 digits: with y = x/2, m = dof//2
    and delta = 1/2 for odd dof (else 0), [erfc(sqrt(y)) if dof is odd] plus
    sum_{i<m} y**(i+delta) exp(-y) / Gamma(i+delta+1), term by term."""
    with mpmath.workdps(50):
        y = mpmath.mpf(x) / 2
        m, odd = divmod(dof, 2)
        a = mpmath.mpf(odd) / 2
        total = mpmath.erfc(mpmath.sqrt(y)) if odd else mpmath.mpf(0)
        term = y ** a * mpmath.exp(-y) / mpmath.gamma(a + 1)
        for _ in range(m):
            total += term
            a += 1
            term = term * y / a
        return total


def chi2_sf_points(dof: int) -> list[float]:
    """The bulk, +-1, +-3 and +-6 standard deviations, the near-zero left
    tail, and far right tails with Q about e**-L for L up to past the
    underflow floor (Laurent-Massart: P(X >= dof + 2 sqrt(dof L) + 2L) <=
    e**-L)."""
    sd = math.sqrt(2 * dof)
    xs = [dof + c * sd for c in (0, 1, -1, 3, -3, 6, -6)] + [dof / 100]
    xs += [dof + 2 * math.sqrt(dof * L) + 2 * L for L in (50, 300, 600, 680, 700, 720, 760)]
    return [x for x in xs if x > 0]


class TestChi2Sf:
    DOFS = (1, 2, 3, 9, 99, 255, 999, 4095, 65534, 65535)

    @pytest.mark.parametrize("dof", DOFS)
    def test_against_finite_sum_oracle(self, dof):
        checked, underflows = 0, set()
        for x in chi2_sf_points(dof):
            oracle = chi2_sf_oracle(dof, x)
            got = _chi2_sf(dof, x)
            assert 0.0 <= got <= 1.0
            if oracle >= 1e-300:
                assert abs(got - oracle) <= 1e-12 * oracle, (dof, x, got, float(oracle))
                checked += 1
            if abs(oracle / mpmath.mpf("1e-308") - 1) >= 0.01:
                assert (got < UNDERFLOW_FLOOR) == (oracle < 1e-308), (dof, x, got, float(oracle))
                underflows.add(got < UNDERFLOW_FLOOR)
        assert checked >= 8
        assert underflows == {False, True}  # the points straddle the floor

    @pytest.mark.parametrize("dof", DOFS + (2 ** 24 - 1,))
    def test_zero_statistic(self, dof):
        assert _chi2_sf(dof, 0.0) == 1.0

    @pytest.mark.parametrize("dof, x", [(4095, 1000.0), (2 ** 24 - 1, 2.0 ** 24)])
    def test_terminates(self, dof, x):
        # in a fresh interpreter, so a sum that never stops fails on the timeout
        proc = run_python("import time; from sagan.normality import _chi2_sf; "
                          f"t = time.perf_counter(); v = _chi2_sf({dof}, {x!r}); "
                          "print(v, time.perf_counter() - t)")
        assert proc.returncode == 0, proc.stderr
        value, elapsed = map(float, proc.stdout.split())
        assert 0.0 <= value <= 1.0
        assert elapsed < 1.0


# top-level packages a sagan command may import: the standard library, numpy,
# and gmpy2 where it is installed
ALLOWED = "sys.stdlib_module_names | {'sagan', 'numpy', 'gmpy2'}"


class TestDependencies:
    def test_cli_import_loads_only_allowed_packages(self):
        proc = run_python(f"import sys; allowed = {ALLOWED}; before = set(sys.modules); "
                          "import sagan.cli; "
                          "print(sorted({n.partition('.')[0] for n in set(sys.modules) - before}"
                          " - allowed))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_normality_runs_with_other_packages_refused(self):
        proc = run_python(f"""import sys
allowed = {ALLOWED}
class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition('.')[0] not in allowed:
            raise ImportError(name)
sys.meta_path.insert(0, Refuse())
from sagan import cli
sys.exit(cli.main(['normality', '--constant', 'pi', '--length', '10000']))""")
        assert proc.returncode == 0, proc.stderr
        assert "proves nothing" in proc.stdout


class TestNormalityScan:
    def test_rational_underflows(self):
        report = normality_scan(ConstantSpec.rational(1, 3), 10, 10 ** 4, 1)
        assert report.per_k[0].p_value == 0.0
        assert report.per_k[0].underflow

    def test_fibonacci_cfrac_report_structure(self):
        report = normality_scan(ConstantSpec.fibonacci_cfrac(), 10, 10 ** 4, 2)
        assert [row.k for row in report.per_k] == [1, 2]
        assert report.per_k[0].dof == 9
        assert report.per_k[1].dof == 99
        assert all(0.0 <= row.p_value <= 1.0 for row in report.per_k)
        assert "proves nothing" in report.verdict

    def test_record_shape(self):
        report = normality_scan(ConstantSpec.rational(22, 7), 10, 2000, 1)
        record = report.as_record()
        assert record["constant"] == "rational:22/7"
        assert len(record["per_k"]) == 1
        assert set(record["per_k"][0]) == {
            "k", "cells", "samples", "chi_square", "dof", "p_value", "underflow"}


class TestNormalityCommand:
    """CLI output of the normality command, pinned byte for byte."""

    @pytest.mark.parametrize("constant, length, kmax, fmt, digest", [
        ("champernowne10", 10 ** 6, 2, "text",
         "0eaebd0ec0018e19955bea8f5d6d2c66a39585d6972d0f8633c6cf026605ab42"),
        ("champernowne10", 10 ** 6, 2, "json",
         "9eebb1abf9c4202521ebf6ee2c7e682fcd1969d6db09343119f37cc5f292ee1b"),
        ("pi", 20000, 3, "text",
         "284d5f7607faa42cde7606f02e2b49009bd3a6e5975a1397478944c45bc3e80b"),
        ("pi", 20000, 3, "json",
         "1d3716759b342a5129ffe1e8a50f17e9e1436c977f494a28295b1ae7214996a0"),
    ])
    def test_golden_stdout(self, capsys, constant, length, kmax, fmt, digest):
        code = main(["normality", "--constant", constant, "--length", str(length),
                     "--kmax", str(kmax), "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("length, kmax, message", [
        (100, 3, "error: 99 windows for 100 cells; need >= 5.0 per cell\n"),
        (1000, 9, "error: 998 windows for 1000 cells; need >= 5.0 per cell\n"),
    ])
    def test_too_few_samples_message(self, capsys, length, kmax, message):
        code = main(["normality", "--constant", "pi", "--length", str(length),
                     "--kmax", str(kmax)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (EXIT_USAGE, "", message)


class TestEquidistribution:
    def test_two_coin_flips(self):
        result = exact_equidistribution_probability(2, 2, 1)
        assert result.exact == Fraction(1, 2)
        assert result.exact_decimal == "5.00000e-1"

    def test_thousand_digits_exact_and_stirling(self):
        result = exact_equidistribution_probability(1000, 10, 100)
        expected = Fraction(math.factorial(1000),
                            math.factorial(100) ** 10 * 10 ** 1000)
        assert result.exact == expected
        assert abs(result.stirling_approx / float(result.exact) - 1) < 0.01

    def test_hundred_categories(self):
        result = exact_equidistribution_probability(1000, 100, 10)
        assert result.exact == Fraction(math.factorial(1000),
                                        math.factorial(10) ** 100 * 100 ** 1000)
        assert 0 < result.stirling_approx < 1
        assert result.exact_decimal.startswith("4.24953e-89")

    def test_mismatched_totals(self):
        with pytest.raises(MismatchedTotals):
            exact_equidistribution_probability(1000, 10, 99)
