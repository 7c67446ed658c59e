"""Raster tests: printed reference patterns, exact-threshold behavior, and
brute-force oracles recomputed here with Fraction arithmetic."""

import random
from fractions import Fraction

import pytest

from sagan.raster import (
    BitRaster,
    GeneralizedPattern,
    RasterPattern,
    SymmetryReport,
    centered_one_radius_bounds,
    check_symmetries,
    chessboard_counts_brute,
    chessboard_crossed_cells,
    chessboard_interior_cells,
    corner_crossed,
    extract_octant,
    octant_cell_count,
    octant_reconstruction_failures,
    rasterize,
    rasterize_center,
    rasterize_ellipse,
    rasterize_naive,
    reconstruct_from_octant,
)
from sagan.errors import (
    AsymmetricPattern,
    EllipseOutOfRaster,
    EvenOrTooSmallN,
    WrongOctantLength,
)


def ring_oracle(a, b, width: int, height: int) -> list[int]:
    """Center-boundary bits of the ellipse x**2/a**2 + y**2/b**2 <= 1 by an
    independent per-cell Fraction test of each cell center."""
    a, b = Fraction(a), Fraction(b)
    cx, cy = Fraction(width, 2), Fraction(height, 2)
    inside = {}
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            dx = Fraction(2 * x - 1, 2) - cx
            dy = Fraction(2 * y - 1, 2) - cy
            inside[x, y] = dx * dx / (a * a) + dy * dy / (b * b) <= 1

    bits = []
    for row in range(1, height + 1):
        for col in range(1, width + 1):
            if not inside[col, row]:
                bits.append(0)
                continue
            edge = row in (1, height) or col in (1, width)
            ring = edge or not all(
                inside[col + dc, row + dr]
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)))
            bits.append(1 if ring else 0)
    return bits


def naive_oracle(n: int, radius=None) -> list[int]:
    """Naive-scheme bits by a per-cell Fraction test: the circle crosses a
    pixel when the pixel's nearest point lies at most r from the center and
    its farthest corner at least r."""
    r = Fraction(n, 2) if radius is None else Fraction(radius)
    center = Fraction(n, 2)

    def near_far(k):  # distances from the center to cell k's two edges
        lo, hi = k - center, k + 1 - center
        near = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        return near, max(abs(lo), abs(hi))

    bits = []
    for row in range(n):
        for col in range(n):
            (near_y, far_y), (near_x, far_x) = near_far(row), near_far(col)
            crossed = near_x ** 2 + near_y ** 2 <= r * r <= far_x ** 2 + far_y ** 2
            bits.append(1 if crossed else 0)
    return bits


def octant_oracle(octant, n: int) -> list[int]:
    """All n*n bits from the octant by per-cell lookup: cell (r, c) takes
    the octant bit of (min(r', c'), max(r', c')), where r' and c' are r and
    c folded into the top-left quadrant."""
    top = (n + 1) // 2
    cells = [(r, c) for r in range(1, top + 1) for c in range(r, top + 1)]
    index = {cell: k for k, cell in enumerate(cells)}
    bits = []
    for r in range(1, n + 1):
        for c in range(1, n + 1):
            rm, cm = min(r, n + 1 - r), min(c, n + 1 - c)
            bits.append(octant[index[min(rm, cm), max(rm, cm)]])
    return bits


def center_scheme_oracle(n: int, radius=None) -> list[int]:
    r = Fraction(n, 2) if radius is None else radius
    return ring_oracle(r, r, n, n)


def symmetry_oracle(pattern) -> SymmetryReport:
    """The four symmetries by per-cell comparisons."""
    n, bits = pattern.n, pattern.bits
    palindrome = bits == bits[::-1]
    transpose = all(bits[r * n + c] == bits[c * n + r]
                    for r in range(n) for c in range(r + 1, n))
    row_mirror = all(bits[r * n + c] == bits[r * n + (n - 1 - c)]
                     for r in range(n) for c in range(n // 2))
    column_mirror = all(bits[r * n + c] == bits[(n - 1 - r) * n + c]
                        for r in range(n // 2) for c in range(n))
    return SymmetryReport(palindrome, transpose, row_mirror, column_mirror)


class TestNaiveScheme:
    def test_printed_small_patterns(self):
        assert rasterize_naive(1).flat() == "1"
        assert rasterize_naive(2).flat() == "1111"
        assert rasterize_naive(3).flat() == "111101111"

    def test_n7_corners_empty(self):
        pattern = rasterize_naive(7)
        for r, c in ((1, 1), (1, 7), (7, 1), (7, 7)):
            assert pattern.bit(r, c) == 0

    def test_against_fraction_oracle(self):
        for n in range(1, 49):
            assert list(rasterize_naive(n).bits) == naive_oracle(n), n

    def test_radius_overrides_against_fraction_oracle(self):
        rng = random.Random(5)
        for _ in range(300):
            n, den = rng.randint(1, 24), rng.randint(1, 12)
            # radii past n/2 clip both runs at the raster border, and past
            # n/sqrt(2) leave the raster empty
            top = rng.choice((n, 60 * n))
            radius = Fraction(rng.randint(1, 2 * top * den), 2 * den)
            assert list(rasterize_naive(n, radius).bits) == \
                naive_oracle(n, radius), (n, radius)

    def test_corner_bit_threshold(self):
        # crossed exactly while n <= 4 + 2*sqrt(2)
        for n in range(1, 65):
            assert rasterize_naive(n).bit(1, 1) == (1 if n <= 6 else 0)
            assert corner_crossed(n) == (n <= 6)


class TestCenterScheme:
    def test_single_pixel(self):
        assert rasterize_center(1).flat() == "1"

    def test_two_by_two(self):
        assert rasterize_center(2).flat() == "1111"

    def test_against_fraction_oracle(self):
        for n in range(1, 33):
            assert list(rasterize_center(n).bits) == center_scheme_oracle(n)

    def test_four_by_four_ring(self):
        assert rasterize_center(4).rows() == [
            (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 0, 1), (0, 1, 1, 0)]

    def test_five_by_five_ring(self):
        assert rasterize_center(5).flat() == "0111010001100011000101110"

    def test_radius_overrides_against_fraction_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            n, den = rng.randint(1, 24), rng.randint(1, 12)
            # up to 3n/2, so radii past n/2 cut the circle at the raster border
            radius = Fraction(rng.randint(1, 3 * n * den), 2 * den)
            assert list(rasterize_center(n, radius).bits) == \
                center_scheme_oracle(n, radius), (n, radius)

    def test_radii_far_past_half_the_side(self):
        # every cell center is inside, so each row's span is clipped to the
        # width and the ring is the raster border
        for n in range(1, 17):
            for radius in (Fraction(3 * n, 4), Fraction(n), Fraction(7 * n, 3), 60 * n):
                assert list(rasterize_center(n, radius).bits) == \
                    center_scheme_oracle(n, radius), (n, radius)

    def test_alternative_diameter_radius(self):
        # diameter n-1 reading: only the central 2x2 block is inside
        pattern = rasterize_center(4, Fraction(3, 2))
        assert pattern.rows() == [
            (0, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 0), (0, 0, 0, 0)]


class TestEllipse:
    def test_degenerate_circle_matches_center_scheme(self):
        for n in (1, 2, 5, 8, 13):
            raster = rasterize_ellipse(Fraction(n, 2), Fraction(n, 2), n, n)
            assert raster.bits == rasterize_center(n).bits

    def test_unit_raster(self):
        assert rasterize_ellipse(Fraction(1, 2), Fraction(1, 2), 1, 1).flat() == "1"

    def test_four_by_three_instance_against_oracle(self):
        assert list(rasterize_ellipse(4, 3, 8, 6).bits) == ring_oracle(4, 3, 8, 6)

    @pytest.mark.parametrize("a, b, width, height", [
        (Fraction(7, 3), Fraction(5, 2), 8, 5),
        (Fraction(7, 3), Fraction(3, 2), 5, 8),
        (Fraction(9, 2), Fraction(7, 3), 9, 6),
        (Fraction(11, 7), Fraction(13, 5), 4, 7),
        (Fraction(1, 3), Fraction(1, 5), 1, 2),
    ])
    def test_fixed_instances_against_oracle(self, a, b, width, height):
        assert list(rasterize_ellipse(a, b, width, height).bits) == \
            ring_oracle(a, b, width, height)

    def test_random_instances_against_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            width, height = rng.sample(range(1, 25), 2)  # width != height

            def semi_axis(side):
                if rng.random() < 0.25:
                    return Fraction(side, 2)  # touches the raster edge
                den = rng.randint(1, 12)
                return Fraction(rng.randint(1, side * den // 2 or 1), den)

            a, b = semi_axis(width), semi_axis(height)
            if a > Fraction(width, 2) or b > Fraction(height, 2):
                continue
            assert list(rasterize_ellipse(a, b, width, height).bits) == \
                ring_oracle(a, b, width, height), (a, b, width, height)

    def test_one_row_and_one_column(self):
        rng = random.Random(13)
        for side in range(1, 41):
            for _ in range(5):
                den = rng.randint(1, 12)
                a = Fraction(rng.randint(1, side * den), 2 * den)
                b = Fraction(rng.randint(1, den), 2 * den)
                assert list(rasterize_ellipse(a, b, side, 1).bits) == \
                    ring_oracle(a, b, side, 1), (a, b, side)
                assert list(rasterize_ellipse(b, a, 1, side).bits) == \
                    ring_oracle(b, a, 1, side), (b, a, side)

    def test_out_of_raster(self):
        with pytest.raises(EllipseOutOfRaster):
            rasterize_ellipse(5, 3, 8, 6)


class TestRadiusBounds:
    def test_instantiated_bounds(self):
        assert centered_one_radius_bounds(3) == (Fraction(1, 2), Fraction(1, 2))
        assert centered_one_radius_bounds(5) == (Fraction(3, 2), Fraction(5, 2))

    def test_rejects_even_or_small(self):
        for n in (1, 2, 4):
            with pytest.raises(EvenOrTooSmallN):
                centered_one_radius_bounds(n)

    def test_top_row_inside_bounds(self):
        # r = 1.55 lies in (3/2, sqrt(5/2)) for n = 5
        lower, upper_sq = centered_one_radius_bounds(5)
        r = Fraction(31, 20)
        assert lower < r and r * r < upper_sq
        top = rasterize_naive(5, r).rows()[0]
        assert top == (0, 0, 1, 0, 0)

    def test_top_row_outside_bounds(self):
        top = rasterize_naive(5, Fraction(29, 20)).rows()[0]  # below lower bound
        assert top != (0, 0, 1, 0, 0)


class TestChessboard:
    def test_smallest_board(self):
        assert chessboard_crossed_cells(1) == 4
        assert chessboard_interior_cells(1) == 0

    def test_analytic_equals_brute_force(self):
        for n in range(1, 65):
            crossed, interior, exterior = chessboard_counts_brute(n)
            assert chessboard_crossed_cells(n) == crossed
            assert chessboard_interior_cells(n) == interior
            assert crossed + interior + exterior == 4 * n * n

    def test_interior_set_dihedral_symmetry(self):
        n = 6
        rr = (2 * n - 1) ** 2
        cells = set()
        for i in range(2 * n):
            for j in range(2 * n):
                from sagan.raster import _cell_distance_range
                _, d2max = _cell_distance_range(n, i, j)
                if d2max < rr:
                    cells.add((i, j))
        size = 2 * n - 1
        for i, j in cells:
            assert (j, i) in cells
            assert (size - i, j) in cells
            assert (i, size - j) in cells


class TestSymmetries:
    def test_generated_patterns_fully_symmetric(self):
        for n in range(1, 65):
            for scheme in ("naive", "center"):
                assert check_symmetries(rasterize(n, scheme)).all_hold

    def test_asymmetric_report(self):
        report = check_symmetries(RasterPattern(2, "naive", [1, 0, 0, 0]))
        assert not report.palindrome
        assert report.transpose
        assert not report.row_mirror
        assert not report.column_mirror
        assert not report.all_hold

    def test_against_per_cell_oracle(self):
        rng = random.Random(3)
        seen = set()
        for _ in range(600):
            n = rng.randint(1, 9)
            if rng.random() < 0.5:
                bits = [rng.randint(0, 1) for _ in range(n * n)]
                grid = [bits[r * n:(r + 1) * n] for r in range(n)]
                # impose a random subset of the symmetries so each occurs
                if rng.random() < 0.5:
                    grid = [[grid[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
                if rng.random() < 0.5:
                    grid = [row[:(n + 1) // 2] + row[:n // 2][::-1] for row in grid]
                if rng.random() < 0.5:
                    grid = grid[:(n + 1) // 2] + grid[:n // 2][::-1]
                bits = [b for row in grid for b in row]
                if rng.random() < 0.25:
                    bits = bits[:(n * n + 1) // 2] + bits[:n * n // 2][::-1]
            else:
                octant = [rng.randint(0, 1) for _ in range(octant_cell_count(n))]
                bits = list(reconstruct_from_octant(octant, n).bits)
                if rng.random() < 0.5:  # break the symmetry in one cell
                    bits[rng.randrange(n * n)] ^= 1
            pattern = RasterPattern(n, "center", bits)
            report = check_symmetries(pattern)
            assert report == symmetry_oracle(pattern), bits
            seen.add(report)
        # every combination the dihedral group allows: two mirrors imply the
        # palindrome (a half turn), and the transpose with one mirror the other
        assert len(seen) == 8, seen

    def test_single_bit_pattern(self):
        for bit in (0, 1):
            assert check_symmetries(RasterPattern(1, "naive", [bit])).all_hold


class TestOctant:
    def test_small_octants(self):
        assert extract_octant(rasterize_naive(2)) == (1,)
        assert extract_octant(rasterize_naive(3)) == (1, 1, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricPattern):
            extract_octant(RasterPattern(2, "naive", [1, 0, 0, 0]))

    def test_wrong_length(self):
        with pytest.raises(WrongOctantLength):
            reconstruct_from_octant((1, 0), 4)

    def test_all_zero_octant(self):
        n = 4
        zero = (0,) * octant_cell_count(n)
        assert reconstruct_from_octant(zero, n).bits == (0,) * 16

    def test_roundtrip_both_schemes(self):
        for scheme in ("naive", "center"):
            for n in (1, 2, 3, 5, 8, 13, 40, 64):
                pattern = rasterize(n, scheme)
                rebuilt = reconstruct_from_octant(
                    extract_octant(pattern), n, scheme)
                assert rebuilt.bits == pattern.bits

    def test_against_per_cell_mapping(self):
        rng = random.Random(8)
        for n in list(range(1, 25)) + [31, 32, 47, 64]:
            octant = [rng.randint(0, 1) for _ in range(octant_cell_count(n))]
            pattern = reconstruct_from_octant(octant, n)
            assert list(pattern.bits) == octant_oracle(octant, n), n
            assert extract_octant(pattern) == tuple(octant)

    def test_reconstruction_passes_symmetry(self):
        octant = extract_octant(rasterize_center(9))
        assert check_symmetries(reconstruct_from_octant(octant, 9)).all_hold

    def test_no_failures_observed(self):
        assert octant_reconstruction_failures(64, "naive") == []
        assert octant_reconstruction_failures(64, "center") == []


class TestGeneralizedPattern:
    def test_degeneracy_flag(self):
        shape = rasterize_naive(3)
        clean = GeneralizedPattern(shape, frozenset({1, 7}), frozenset({0, 3}))
        assert not clean.degenerate
        overlapping = GeneralizedPattern(shape, frozenset({1}), frozenset({0, 1}))
        assert overlapping.degenerate

    def test_validation(self):
        shape = rasterize_naive(2)
        with pytest.raises(ValueError):
            GeneralizedPattern(shape, frozenset(), frozenset({0}))
        with pytest.raises(ValueError):
            GeneralizedPattern(shape, frozenset({-1}), frozenset({0}))

    def test_max_digit(self):
        shape = rasterize_naive(2)
        gp = GeneralizedPattern(shape, frozenset({1, 7}), frozenset({0, 3}))
        assert gp.max_digit == 7


class TestRendering:
    def test_flat_and_ascii(self):
        pattern = rasterize_naive(3)
        assert pattern.flat() == "111101111"
        assert pattern.ascii() == "###\n#.#\n###"
        framed = pattern.ascii(frame=True)
        assert framed.splitlines()[0] == "....."
        assert len(framed.splitlines()) == 5

    def test_bitraster_ascii(self):
        raster = BitRaster(2, 1, [1, 0])
        assert raster.ascii() == "#."
        assert raster.flat() == "10"
        assert raster.rows() == [(1, 0)]
        assert raster.ascii(frame=True) == "....\n.#..\n...."


class TestBitRaster:
    def test_rejects_bits_other_than_zero_and_one(self):
        for bad in ([1, 2], [0, -1]):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                BitRaster(2, 1, bad)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 6 bits, got 5"):
            BitRaster(3, 2, [0] * 5)

    def test_bit_out_of_range_raises(self):
        raster = BitRaster(3, 2, [1, 0, 0, 0, 0, 1])
        assert raster.bit(1, 1) == 1 and raster.bit(2, 3) == 1
        for row, col in ((0, 1), (1, 0), (3, 1), (1, 4), (2, -1)):
            with pytest.raises(IndexError):
                raster.bit(row, col)
        column = BitRaster(1, 3, [0, 0, 1])
        assert column.bit(3, 1) == 1
        with pytest.raises(IndexError):
            column.bit(1, 2)  # inside the flat tuple, outside the raster

    def test_pattern_is_a_square_raster(self):
        pattern = rasterize_center(5)
        assert isinstance(pattern, BitRaster)
        assert (pattern.width, pattern.height) == (5, 5)
        assert pattern.ascii(frame=True).splitlines()[1] == "..###.."
