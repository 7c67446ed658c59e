"""Normality diagnostics tests. The p-value path is verified against an
independent series / continued-fraction incomplete-gamma evaluation done
in high-precision mpmath arithmetic."""

import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from sagan.digits import ConstantSpec, DigitBlock, decimal_digits
from sagan.errors import BlockTooShort, KTooLarge, MismatchedTotals, TooFewSamples
from sagan.normality import (
    KGramCounts,
    chi_square_uniform,
    exact_equidistribution_probability,
    kgram_counts,
    normality_scan,
)

PI = ConstantSpec.pi()


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
        from scipy.special import gammaincc
        assert float(gammaincc(4.5, stat / 2)) == pytest.approx(p, rel=1e-9)

    def test_pvalue_against_gamma_oracle(self):
        rng = random.Random(505)
        checked = 0
        while checked < 50:
            dof = rng.choice((1, 2, 5, 9, 15, 63, 99, 255, 999))
            stat = rng.uniform(0.01, dof * 4 + 20)
            from scipy.special import gammaincc
            got = float(gammaincc(dof / 2, stat / 2))
            oracle = float(upper_gamma_oracle(dof / 2, stat / 2))
            if oracle < 1e-250:
                continue
            assert got == pytest.approx(oracle, rel=1e-6), (dof, stat)
            checked += 1

    def test_monotone_tail(self):
        # grid chosen away from the float saturation regions near 0 and 1
        from scipy.special import gammaincc
        for dof in (3, 9, 99):
            stats = [dof * (1 + 0.25 * i) for i in range(13)]
            grid = [gammaincc(dof / 2, s / 2) for s in stats]
            assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_too_few_samples(self):
        counts = KGramCounts(10, 2, 30, {(1, 2): 29})
        with pytest.raises(TooFewSamples):
            chi_square_uniform(counts)


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
