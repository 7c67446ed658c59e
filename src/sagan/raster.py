"""Digital n-circles: rasterization schemes, symmetries, and cell counting.

Every geometric predicate is evaluated in exact integer arithmetic on a
half-unit lattice; no floating point enters any decision. Rasters are bytes
(0 or 1 per cell) written as runs per row, never cell by cell.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt

from .errors import (
    AsymmetricPattern,
    EllipseOutOfRaster,
    EvenOrTooSmallN,
    WrongOctantLength,
)

NAIVE = "naive"
CENTER = "center"
SCHEMES = (NAIVE, CENTER)


class BitRaster:
    """width x height bit raster: `data` holds a 0 or 1 byte per cell, row major, top first."""

    __slots__ = ("width", "height", "data")

    def __init__(self, width: int, height: int, bits):
        try:
            data = bytes(bits)
        except ValueError:  # a value outside 0..255
            raise ValueError("bits must be 0 or 1") from None
        if len(data) != width * height:
            raise ValueError(f"expected {width * height} bits, got {len(data)}")
        if data.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        self.width = width
        self.height = height
        self.data = data

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.data)

    def bit(self, row: int, col: int) -> int:
        """1-indexed access, row 1 = top."""
        if not (1 <= row <= self.height and 1 <= col <= self.width):
            raise IndexError((row, col))
        return self.data[(row - 1) * self.width + (col - 1)]

    def flat(self) -> str:
        return self.data.translate(bytes.maketrans(b"\x00\x01", b"01")).decode()

    def rows(self) -> list[tuple[int, ...]]:
        w = self.width
        return [tuple(self.data[i * w:(i + 1) * w]) for i in range(self.height)]

    def ascii(self, frame: bool = False) -> str:
        """Rows of "#" for 1 and "." for 0, with a frame of "." if asked."""
        flat, w, glyphs = self.flat(), self.width, {ord("0"): ".", ord("1"): "#"}
        rows = [flat[i * w:(i + 1) * w].translate(glyphs) for i in range(self.height)]
        if frame:
            edge = "." * (self.width + 2)
            rows = [edge] + ["." + row + "." for row in rows] + [edge]
        return "\n".join(rows)


class RasterPattern(BitRaster):
    """n x n digital circle under a rasterization scheme."""

    __slots__ = ("n", "scheme")

    def __init__(self, n: int, scheme: str, bits):
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        super().__init__(n, n, bits)
        self.n = n
        self.scheme = scheme

    def __eq__(self, other) -> bool:
        return (isinstance(other, RasterPattern) and self.n == other.n
                and self.scheme == other.scheme and self.data == other.data)

    def __hash__(self) -> int:
        return hash((self.n, self.scheme, self.data))

    def __repr__(self) -> str:
        return f"RasterPattern(n={self.n}, scheme={self.scheme!r}, flat={self.flat()!r})"


@dataclass(frozen=True)
class GeneralizedPattern:
    """Raster shape plus digit classes: circle cells draw from P, background
    from Q. The default classes, P = {1} and Q = {0}, make the plain circle."""

    shape: RasterPattern
    circle_set: frozenset = frozenset((1,))
    background_set: frozenset = frozenset((0,))

    def __post_init__(self):
        object.__setattr__(self, "circle_set", frozenset(int(d) for d in self.circle_set))
        object.__setattr__(self, "background_set", frozenset(int(d) for d in self.background_set))
        if not self.circle_set or not self.background_set:
            raise ValueError("P and Q must be non-empty")
        if any(d < 0 for d in self.circle_set | self.background_set):
            raise ValueError("digit classes must be non-negative")

    @property
    def degenerate(self) -> bool:
        """True when P and Q overlap; such patterns carry less information."""
        return bool(self.circle_set & self.background_set)

    @property
    def max_digit(self) -> int:
        return max(self.circle_set | self.background_set)


# ---------------------------------------------------------------------------
# exact predicates on the half-unit lattice

def _radius(n: int, radius: Fraction | None) -> Fraction:
    """Radius of the n-circle: n/2 unless overridden."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = Fraction(n, 2) if radius is None else Fraction(radius)
    if r <= 0:
        raise ValueError("radius must be positive")
    return r


def _mirrored(rows, width: int, height: int) -> bytes:
    """Bits mirrored across both axes from `rows`, the top-left quadrant."""
    rows = [row + row[:width // 2][::-1] for row in rows]
    return b"".join(rows + rows[:height // 2][::-1])


def rasterize_naive(n: int, radius: Fraction | None = None) -> RasterPattern:
    """Mark every pixel the circle of diameter n (or 2*radius) crosses.

    Scaled by 2 * den(rad), the radius is 2 * num(rad) and cell i = 0, 1, ..
    outwards from the center spans (2i - n%2) to (2i + 2 - n%2) den, so the
    least and greatest squared distances of cell i, near[i] and far[i], rise
    with i. Cell (i, j) is crossed when near[i] + near[j] <= rr2 <= far[i] +
    far[j]: in each half-row, a leading run of near minus a shorter one of
    far, found by two bisects."""
    rad = _radius(n, radius)
    top, odd = (n + 1) // 2, n % 2
    den2, rr2 = rad.denominator ** 2, (2 * rad.numerator) ** 2
    near = [max(0, 2 * i - odd) ** 2 * den2 for i in range(top)]
    far = [(2 * i + 2 - odd) ** 2 * den2 for i in range(top)]
    rows = []
    for y_near, y_far in zip(reversed(near), reversed(far)):  # top row first
        crossed, within = bisect_right(near, rr2 - y_near), bisect_left(far, rr2 - y_far)
        rows.append(bytes(top - crossed) + b"\x01" * (crossed - within) + bytes(within))
    return RasterPattern(n, NAIVE, _mirrored(rows, n, n))


def _ring(a: Fraction, b: Fraction, width: int, height: int) -> bytes:
    """Center-boundary bits (see rasterize_center) of x**2/a**2 + y**2/b**2 <= 1,
    with (x, y) measured from the raster center.

    Cell (row k, column c), 1-indexed, is centered at odd multiples of 1/2:
    x = (2c - 1 - width) / 2 and y = (2k - 1 - height) / 2. With a = p/q and
    b = r/s, x**2/a**2 = (2c-1-width)**2 q**2 / (4 p**2) and likewise for y;
    multiplying the test by 4 (p r)**2 > 0 gives the integer test
    (2c-1-width)**2 (q r)**2 + (2k-1-height)**2 (s p)**2 <= 4 (p r)**2.
    So row k has no inside cell when rem = 4 (p r)**2 - (2k-1-height)**2 (s p)**2
    is negative. Else, the left side being a multiple of (q r)**2, the test
    is |2c-1-width| <= m = isqrt(rem // (q r)**2). As 2c-1-width has the
    parity of width - 1, m lowered by one when its parity differs keeps the
    same cells: a centred run of m + 1 cells, clipped to 1..width.

    Off the border, a cell of that run has all 4 neighbors inside when it
    is off the run's ends and within the runs of rows k - 1 and k + 1. All
    runs are centred, so those cells form the centred run of the least of
    these lengths, and the ring of row k is its run minus that one.
    """
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    qr2, sp2, bound = (q * r) ** 2, (s * p) ** 2, 4 * (p * r) ** 2
    counts = []
    for k in range(1, height + 1):
        rem = bound - (2 * k - 1 - height) ** 2 * sp2
        m = isqrt(rem // qr2) if rem >= 0 else -1
        m -= (m - width + 1) % 2  # to the parity of width - 1
        counts.append(max(0, min(width, m + 1)))
    half, rows = (width + 1) // 2, []
    for k in range((height + 1) // 2):
        inner = 0 if k in (0, height - 1) else max(
            0, min(counts[k - 1], counts[k] - 2, counts[k + 1], width - 2))
        lo, inner_lo = (width + 1 - counts[k]) // 2, (width + 1 - inner) // 2
        rows.append(bytes(lo) + b"\x01" * (inner_lo - lo) + bytes(half - inner_lo))
    return _mirrored(rows, width, height)


def rasterize_center(n: int, radius: Fraction | None = None) -> RasterPattern:
    """Boundary ring of the pixels whose centers lie inside the circle.

    A pixel gets a 1 when it is inside and touches the outside: one of its
    4-neighbors is outside, or it sits on the raster border.
    """
    r = _radius(n, radius)
    return RasterPattern(n, CENTER, _ring(r, r, n, n))


def rasterize_ellipse(semi_axis_a, semi_axis_b, width: int, height: int) -> BitRaster:
    """Center-boundary digitization of an axis-aligned ellipse."""
    a, b = Fraction(semi_axis_a), Fraction(semi_axis_b)
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    if width < 1 or height < 1:
        raise ValueError("raster must be at least 1 x 1")
    if a > Fraction(width, 2) or b > Fraction(height, 2):
        raise EllipseOutOfRaster(
            f"ellipse {a} x {b} exceeds raster {width} x {height}")
    return BitRaster(width, height, _ring(a, b, width, height))


def corner_crossed(n: int) -> bool:
    """Does the diameter-n circle cross the corner pixel of the n x n raster?

    True exactly for n <= 6 (threshold 4 + 2*sqrt(2) ~ 6.83), and for n = 1.
    """
    return rasterize_naive(n).bit(1, 1) == 1


def centered_one_radius_bounds(n: int):
    """Open radius interval giving a single centered 1 in the top raster row.

    Returns (lower, upper_squared): radii r with lower < r and
    r**2 < upper_squared produce top row 0...010...0 in the naive scheme.
    """
    if n < 3 or n % 2 == 0:
        raise EvenOrTooSmallN("requires odd n >= 3")
    lower = Fraction(n, 2) - 1
    return lower, lower * lower + Fraction(1, 4)


# ---------------------------------------------------------------------------
# chessboard counts (circle of diameter 2n-1 on a 2n x 2n board)

def chessboard_crossed_cells(n: int) -> int:
    """Cells containing an arc segment, from lattice-line crossing counts.

    The circle meets no cell corner, so every visited cell is entered
    through exactly one grid-line crossing. Each family has 2n - 1 interior
    lines, k = 1 .. 2n-1, at distance |k - n| <= n - 1 from the center,
    below the radius n - 1/2, so the circle crosses every one twice and
    the two families give 2 * 2 * (2n - 1) crossings.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 4 * (2 * n - 1)


def chessboard_interior_cells(n: int) -> int:
    """Cells lying entirely inside the circle: 4 * sum of per-row counts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rr = (2 * n - 1) ** 2
    total = 0
    for k in range(1, n):
        total += isqrt(rr - 4 * k * k) // 2
    return 4 * total


def _cell_distance_range(n: int, i: int, j: int):
    """Min and max squared distance (x4) from board center to cell (i, j)."""
    cx = 2 * n  # center and radius scaled by 2
    lo_x, hi_x = 2 * i, 2 * i + 2
    lo_y, hi_y = 2 * j, 2 * j + 2
    dx_lo, dx_hi = abs(cx - lo_x), abs(cx - hi_x)
    dy_lo, dy_hi = abs(cx - lo_y), abs(cx - hi_y)
    dx_min = 0 if lo_x <= cx <= hi_x else min(dx_lo, dx_hi)
    dy_min = 0 if lo_y <= cx <= hi_y else min(dy_lo, dy_hi)
    d2_min = dx_min * dx_min + dy_min * dy_min
    d2_max = max(dx_lo, dx_hi) ** 2 + max(dy_lo, dy_hi) ** 2
    return d2_min, d2_max


def chessboard_counts_brute(n: int) -> tuple[int, int, int]:
    """(crossed, interior, exterior) by per-cell distance tests; the oracle."""
    rr = (2 * n - 1) ** 2
    crossed = interior = exterior = 0
    for i in range(2 * n):
        for j in range(2 * n):
            d2_min, d2_max = _cell_distance_range(n, i, j)
            if d2_max < rr:
                interior += 1
            elif d2_min > rr:
                exterior += 1
            else:
                crossed += 1
    return crossed, interior, exterior


# ---------------------------------------------------------------------------
# symmetry machinery

@dataclass(frozen=True)
class SymmetryReport:
    palindrome: bool
    transpose: bool
    row_mirror: bool
    column_mirror: bool

    @property
    def all_hold(self) -> bool:
        return self.palindrome and self.transpose and self.row_mirror and self.column_mirror


def check_symmetries(pattern: RasterPattern) -> SymmetryReport:
    n, data = pattern.n, pattern.data
    rows = [data[i:i + n] for i in range(0, n * n, n)]
    columns = [data[c::n] for c in range(n)]
    return SymmetryReport(palindrome=data == data[::-1],
                          transpose=rows == columns,
                          row_mirror=columns == columns[::-1],
                          column_mirror=rows == rows[::-1])


def octant_cell_count(n: int) -> int:
    top = (n + 1) // 2
    return top * (top + 1) // 2


def extract_octant(pattern: RasterPattern) -> tuple[int, ...]:
    """Minimal generating cells under the order-8 dihedral group."""
    if not check_symmetries(pattern).all_hold:
        raise AsymmetricPattern("pattern lacks full dihedral symmetry")
    n, top = pattern.n, (pattern.n + 1) // 2
    return tuple(b"".join(pattern.data[r * n + r:r * n + top] for r in range(top)))


def reconstruct_from_octant(octant, n: int, scheme: str = CENTER) -> RasterPattern:
    """Fill all n*n cells from the half-quadrant, cells (r, c) with
    r <= c <= ceil(n/2), by the 8 symmetry maps."""
    octant = bytes(octant)
    if len(octant) != octant_cell_count(n):
        raise WrongOctantLength(
            f"expected {octant_cell_count(n)} octant bits for n={n}, got {len(octant)}")
    top = (n + 1) // 2
    starts = list(accumulate(range(top, 0, -1), initial=0))
    # octant rows as an upper-triangular square; quadrant cell (r, c < r) is
    # (c, r), in column r of the square
    square = b"".join(bytes(r) + octant[a:b] for r, (a, b) in enumerate(zip(starts, starts[1:])))
    return RasterPattern(n, scheme, _mirrored(
        [square[r:r * top:top] + square[r * top + r:(r + 1) * top] for r in range(top)], n, n))


def rasterize(n: int, scheme: str, radius: Fraction | None = None) -> RasterPattern:
    if scheme == NAIVE:
        return rasterize_naive(n, radius)
    if scheme == CENTER:
        return rasterize_center(n, radius)
    raise ValueError(f"unknown scheme {scheme!r}")


def octant_reconstruction_failures(max_n: int, scheme: str = CENTER) -> list[int]:
    """n values (up to max_n) where octant thinning does not round trip.

    Kept as an empirical probe; no failing n has been observed.
    """
    bad = []
    for n in range(1, max_n + 1):
        pattern = rasterize(n, scheme)
        try:
            rebuilt = reconstruct_from_octant(extract_octant(pattern), n, scheme)
        except (AsymmetricPattern, WrongOctantLength):
            bad.append(n)
            continue
        if rebuilt.data != pattern.data:
            bad.append(n)
    return bad
