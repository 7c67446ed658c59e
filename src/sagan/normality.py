"""Empirical normality diagnostics: k-gram counts, chi-square uniformity,
and the exact equidistribution probability of a random digit block.

These are finite-sample diagnostics. No output of this module constitutes
a proof of normality, and report text says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context as DecimalContext, Decimal
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .digits import ConstantSpec, DigitBlock, digits_in_base
from .errors import BlockTooShort, KTooLarge, MismatchedTotals, TooFewSamples

TABLE_BUDGET_BITS = 24
# k-gram windows indexed at a time, 8 bytes each: from 2**14 to 2**16 the
# counts of 10**6 and 10**7 digits run equally fast (2**12 is 45% slower),
# and the index memory doubles with each step
_CHUNK_WINDOWS = 1 << 15
UNDERFLOW_FLOOR = 1e-308
MIN_EXPECTED = 5.0  # least expected windows per cell for chi_square_uniform


@dataclass(frozen=True)
class KGramCounts:
    """Overlapping-window counts of the length-k digit strings in a block."""

    base: int
    k: int
    length: int
    counts: dict

    @property
    def samples(self) -> int:
        return self.length - self.k + 1

    @property
    def cells(self) -> int:
        return self.base ** self.k

    def count(self, gram) -> int:
        return self.counts.get(tuple(gram), 0)


def kgram_counts(digits: DigitBlock, k: int) -> KGramCounts:
    if k < 1:
        raise ValueError("k must be >= 1")
    base = digits.base
    if k * math.log2(base) > TABLE_BUDGET_BITS:
        raise KTooLarge(
            f"base**k table for base {base}, k {k} exceeds "
            f"2**{TABLE_BUDGET_BITS} cells")
    n = len(digits)
    if n < k:
        raise BlockTooShort(f"need at least {k} digits, got {n}")
    seq = np.frombuffer(digits.data, dtype=np.uint8)
    samples = n - k + 1
    size = base ** k
    dense = size <= samples  # a table no larger than one index per window
    # a chunk at least as long as the table, so that adding a chunk's tally
    # costs no more than building it
    step = max(_CHUNK_WINDOWS, size) if dense else _CHUNK_WINDOWS
    tally = np.zeros(size, dtype=np.int64) if dense else None
    found = []
    for lo in range(0, samples, step):
        hi = min(lo + step, samples)
        # windows lo..hi-1 as cell indices sum d_i * base**(k-1-i); the
        # last of them reads k-1 digits past the chunk
        index = seq[lo:hi].astype(np.intp)
        for i in range(1, k):
            index *= base
            index += seq[lo + i:hi + i]
        if dense:
            tally += np.bincount(index, minlength=size)
        else:
            found.append(np.unique(index, return_counts=True))
    if dense:
        cells = np.flatnonzero(tally)
        hits = tally[cells]
    else:  # merge the chunks' sorted (cell, count) runs
        cells, where = np.unique(np.concatenate([c for c, _ in found]), return_inverse=True)
        hits = np.zeros(len(cells), dtype=np.int64)
        np.add.at(hits, where, np.concatenate([h for _, h in found]))
    columns = [cells // base ** (k - 1 - i) % base for i in range(k)]
    grams = map(tuple, np.stack(columns, axis=1).tolist())
    return KGramCounts(base, k, n, dict(zip(grams, hits.tolist())))


def _stirlerr(a: float) -> float:
    """log Gamma(a+1) - [(a+1/2) log a - a + log(2 pi)/2], for a > 0."""
    if a <= 15:
        # lgamma(16) < 28, so the difference keeps an absolute error near 1e-14
        return (math.lgamma(a + 1) - (a + 0.5) * math.log(a) + a
                - 0.5 * math.log(2 * math.pi))
    # Stirling series; the first omitted term, (691/360360) / a**11, is < 3e-16
    aa = a * a
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / aa) / aa) / aa) / aa) / a


def _bd0(a: float, y: float) -> float:
    """a log(a/y) + y - a without cancellation, for a, y > 0.

    With v = (a-y)/(a+y), log(a/y) = 2 (v + v**3/3 + v**5/5 + ...), so the
    value is (a-y) v + 2a sum_{j>=1} v**(2j+1)/(2j+1). The series is used
    while |v| < 1/2. Near a/y = 1.22 the closed form loses a factor 50 to
    cancellation (a log(a/y) = 0.245y against a value of 0.023y), which put
    errors of up to 8.5e-13 relative into tail p-values at dof 4095-65535;
    outside |v| < 1/2 it loses at most a factor 2.5.
    """
    d = a - y
    if abs(d) >= 0.5 * (a + y):
        return a * math.log(a / y) + y - a
    v = d / (a + y)
    total = d * v
    term = 2 * a * v
    v *= v
    j = 1
    while True:
        term *= v
        nxt = total + term / (2 * j + 1)
        if nxt == total:
            return total
        total = nxt
        j += 1


def _poisson_term(a: float, y: float) -> float:
    """y**a exp(-y) / Gamma(a+1) in the saddle-point form of C. Loader,
    "Fast and Accurate Computation of Binomial Probabilities" (2000),
    exp(-stirlerr(a) - bd0(a, y)) / sqrt(2 pi a), accurate to a few ulps of
    its exponent where the naive exp(a log y - y - lgamma(a+1)) loses digits
    to the cancellation of a log y against y."""
    if a == 0:
        return math.exp(-y)
    return math.exp(-_stirlerr(a) - _bd0(a, y)) / math.sqrt(2 * math.pi * a)


def _chi2_sf(dof: int, x: float) -> float:
    """Upper tail of the chi-square distribution with integer `dof` >= 1 at
    `x`: the regularized upper incomplete gamma Q(dof/2, x/2).

    With m = dof // 2, delta = 1/2 for odd dof (else 0) and y = x/2,
    Q = [erfc(sqrt(y)) if dof is odd] + sum_{i<m} t_i, with
    t_i = y**(i+delta) exp(-y) / Gamma(i+delta+1) (Abramowitz & Stegun
    26.4.4-26.4.5); the same terms over i >= m sum to 1 - Q. The terms rise
    with i up to i + delta ~ y and fall after it. If the last term of the
    finite sum sits at or below y, the sum runs backwards from that term, its
    largest. Otherwise y < m + delta - 1 lies below the median of a gamma
    law with shape m + delta (which exceeds m + delta - 1/3), so Q > 1/2 and
    1 - Q runs forwards from t_m, its largest. A sum stops at the first term
    <= 1e-17 of its total, which also stops it when the terms underflow to 0.
    """
    y = x / 2
    if y <= 0:
        return 1.0
    m, odd = divmod(dof, 2)
    head = math.erfc(math.sqrt(y)) if odd else 0.0
    a = m - 1 + 0.5 * odd  # the exponent of the last term, t_{m-1}
    if a < 0:
        return head
    if a <= y:
        t, total = _poisson_term(a, y), 0.0
        while a >= 0 and t > total * 1e-17:
            total += t
            t *= a / y  # t_{i-1} = t_i (i + delta) / y
            a -= 1
        return head + total
    a += 1
    t, total = _poisson_term(a, y), 0.0
    while t > total * 1e-17:
        total += t
        a += 1
        t *= y / a  # t_{i+1} = t_i y / (i + 1 + delta)
    return 1.0 - total


class ChiSquare(NamedTuple):
    statistic: float
    p_value: float
    underflow: bool


def chi_square_uniform(counts: KGramCounts) -> ChiSquare:
    """Pearson statistic against the uniform model and its upper-tail
    p-value Q(dof/2, statistic/2), dof = cells - 1, from `_chi2_sf`: a
    finite Poisson sum (plus erfc for odd dof) in the standard library,
    within 1e-12 relative of Q wherever Q >= 1e-300. A p-value below
    UNDERFLOW_FLOOR is reported as 0 with `underflow` set. TooFewSamples
    when a cell expects fewer than MIN_EXPECTED windows."""
    cells = counts.cells
    samples = counts.samples
    if samples < MIN_EXPECTED * cells:
        raise TooFewSamples(
            f"{samples} windows for {cells} cells; need >= {MIN_EXPECTED} per cell")
    expected = samples / cells
    statistic = sum((n - expected) ** 2 for n in counts.counts.values()) / expected
    statistic += (cells - len(counts.counts)) * expected
    dof = cells - 1
    p = _chi2_sf(dof, statistic)
    underflow = p < UNDERFLOW_FLOOR
    if underflow:
        p = 0.0
    return ChiSquare(statistic, p, underflow)


@dataclass(frozen=True)
class KDiagnostics:
    k: int
    cells: int
    samples: int
    statistic: float
    dof: int
    p_value: float
    underflow: bool


@dataclass(frozen=True)
class NormalityReport:
    constant: str
    base: int
    length: int
    per_k: tuple
    verdict: str

    def as_record(self) -> dict:
        return {
            "constant": self.constant,
            "base": self.base,
            "length": self.length,
            "per_k": [
                {"k": d.k, "cells": d.cells, "samples": d.samples,
                 "chi_square": d.statistic, "dof": d.dof,
                 "p_value": d.p_value, "underflow": d.underflow}
                for d in self.per_k
            ],
            "verdict": self.verdict,
        }


def normality_scan(constant: ConstantSpec, base: int, length: int,
                   k_max: int) -> NormalityReport:
    """Chi-square uniformity of k-grams for k = 1..k_max over the first
    `length` digits. A diagnostic, never a proof."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    block = digits_in_base(constant, base, length)
    rows = []
    for k in range(1, k_max + 1):
        counts = kgram_counts(block, k)
        chi = chi_square_uniform(counts)
        rows.append(KDiagnostics(k, counts.cells, counts.samples,
                                 chi.statistic, counts.cells - 1,
                                 chi.p_value, chi.underflow))
    worst = min(rows, key=lambda d: d.p_value)
    verdict = (
        f"finite-sample diagnostic over {length} base-{base} digits: "
        f"smallest chi-square p-value {worst.p_value:.3g} at k={worst.k}"
        f"{' (underflow)' if worst.underflow else ''}; "
        "this measures consistency with uniform k-gram frequencies only "
        "and proves nothing about normality")
    return NormalityReport(constant.identifier(), base, length, tuple(rows), verdict)


# ---------------------------------------------------------------------------
# exact equidistribution probability

@dataclass(frozen=True)
class EquidistributionProbability:
    exact: Fraction
    exact_decimal: str
    stirling_approx: float


def _sci_string(value: Fraction) -> str:
    """`value` to 6 significant digits in scientific notation."""
    ctx = DecimalContext(prec=6, Emax=10 ** 12, Emin=-(10 ** 12))
    d = ctx.divide(Decimal(value.numerator), Decimal(value.denominator))
    return f"{d:.5e}"


def _stirling_log_factorial(n: int) -> float:
    # sqrt(2 pi n) * (n/e)**n, in logs to dodge overflow
    return 0.5 * math.log(2 * math.pi * n) + n * (math.log(n) - 1)


def exact_equidistribution_probability(trials: int, categories: int,
                                       per_category: int) -> EquidistributionProbability:
    """Probability that `trials` uniform draws over `categories` outcomes hit
    every outcome exactly `per_category` times.

    exact = trials! / ((per_category!)**categories * categories**trials)
    computed in big integers; the Stirling form is evaluated in logs.
    """
    if trials < 1 or categories < 1 or per_category < 1:
        raise ValueError("all arguments must be positive")
    if trials != categories * per_category:
        raise MismatchedTotals(
            f"trials {trials} != categories {categories} x per_category {per_category}")
    numerator = math.factorial(trials)
    denominator = math.factorial(per_category) ** categories * categories ** trials
    exact = Fraction(numerator, denominator)
    log_prob = (_stirling_log_factorial(trials)
                - categories * _stirling_log_factorial(per_category)
                - trials * math.log(categories))
    return EquidistributionProbability(exact, _sci_string(exact), math.exp(log_prob))
